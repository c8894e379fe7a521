"""The shared kernel core measured: both parsers on every backend.

The kernel core's claims, in falsifiability order:

* **Bit-identity** (always checkable, gated before any timing):

  - a CDG parse settles to the same packed network, word for word, on
    every kernel backend that can run here;
  - the packed fence CYK on every backend and the pre-kernel set-based
    chart agree on the accepted flag, every chart cell, and the
    operation count.

  A record whose identity sweep fails is written with ``ok: false``
  and no timing section is trusted (the standalone runner exits 1).

* **End-to-end** (host-relative): the same sentence through a CDG
  :class:`~repro.pipeline.session.ParserSession` per kernel backend,
  and sentences of :data:`CFG_LENGTHS` words through packed CYK per
  backend versus the set-based chart — one table showing both parsers
  riding the one kernel core.  ``auto`` rows are timed after a warm-up
  call, so they show steady-state dispatch, and the record embeds the
  autotuner's dispatch table (``kernel_dispatch``) so the routing
  behind them is inspectable.

All timings are single-core wall clock; the record embeds
:func:`repro.analysis.host.host_metadata` so numbers are read against
the host that produced them, and no cross-host scaling claim is made.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python -m repro bench-kernels [--quick]

which writes ``BENCH_kernels.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.host import host_metadata
from repro.kernels.backend import probe_backend

REPEATS = 3
QUICK_REPEATS = 2

#: CYK sentence lengths timed end to end (both ends of the reprobench
#: ``cyk_chart`` mix); cheap enough that quick runs keep them.
CFG_LENGTHS = (12, 40)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _session_backends() -> tuple[str, ...]:
    """Backends the end-to-end tables time: statics that can run here,
    then ``auto`` (which exists on every host — its floor is packed)."""
    names = ["packed", "numpy"]
    if probe_backend("native") is not None:
        names.append("native")
    names.append("auto")
    return tuple(names)


def _cdg_end_to_end(n_words: int, repeats: int, batch: int) -> tuple[bool, dict]:
    from repro.grammar.builtin.english import english_grammar
    from repro.pipeline.session import ParserSession
    from repro.workloads import sentence_of_length

    grammar = english_grammar()
    words = sentence_of_length(n_words)
    results = {}
    timings = {}
    backends = _session_backends()
    for backend in backends:
        session = ParserSession(grammar, engine="vector", backend=backend)
        result = session.parse(words)  # warm the template cache (and autotuner)
        timings[backend] = round(
            _best_of(lambda: [session.parse(words) for _ in range(batch)], repeats)
            / batch * 1e3,
            4,
        )
        results[backend] = result
    reference = results["packed"]
    identical = all(
        bool(
            other.locally_consistent == reference.locally_consistent
            and np.array_equal(other.network.alive_bits, reference.network.alive_bits)
            and np.array_equal(other.network.matrix_bits, reference.network.matrix_bits)
        )
        for other in results.values()
    )
    return identical, {
        "sentence_words": n_words,
        "engine": "vector",
        "backends": list(backends),
        "identical": identical,
        "latency_ms": timings,
    }


def _cfg_end_to_end(repeats: int) -> tuple[bool, list[dict]]:
    from repro.cfg import cyk_parse, cyk_parse_sets, english_cfg, to_cnf
    from repro.workloads import sentence_of_length

    cnf = to_cnf(english_cfg())
    backends = _session_backends()
    rows = []
    for n_words in CFG_LENGTHS:
        words = sentence_of_length(n_words)
        oracle = cyk_parse_sets(cnf, words)
        identical = True
        timings = {}
        for backend in backends:
            packed = cyk_parse(cnf, words, backend=backend)
            identical = identical and bool(
                packed.accepted == oracle.accepted
                and packed.chart_sets == oracle.chart_sets
                and packed.split_operations == oracle.split_operations
            )
            timings[backend] = round(
                _best_of(lambda: cyk_parse(cnf, words, backend=backend), repeats) * 1e3,
                4,
            )
        timings["sets-oracle"] = round(
            _best_of(lambda: cyk_parse_sets(cnf, words), repeats) * 1e3, 4
        )
        rows.append(
            {
                "sentence_words": n_words,
                "accepted": oracle.accepted,
                "backends": list(backends),
                "identical": identical,
                "latency_ms": timings,
            }
        )
    return all(row["identical"] for row in rows), rows


def run_bench(*, quick: bool = False, out_path: "Path | str | None" = None) -> dict:
    """Run the identity-gated kernel benchmark; optionally write JSON."""
    repeats = QUICK_REPEATS if quick else REPEATS
    cdg_ok, cdg = _cdg_end_to_end(7 if quick else 10, repeats, batch=4)
    cfg_ok, cfg = _cfg_end_to_end(repeats)
    auto = probe_backend("auto")
    record = {
        "bench": "kernels",
        "quick": quick,
        "host": host_metadata(),
        "backends": list(_session_backends()),
        "kernel_dispatch": auto.dispatch_snapshot() if auto is not None else None,
        "bit_identity": {
            "ok": cdg_ok and cfg_ok,
            "cdg_across_backends": cdg_ok,
            "cyk_packed_vs_sets": cfg_ok,
        },
        "end_to_end": {"cdg": cdg, "cfg": cfg},
        "notes": (
            "single-core wall clock on the recorded host; bit-identity "
            "asserted before timing; cdg rows time one warm ParserSession "
            "parse per backend, cfg rows one cyk_parse per backend against "
            "the set-based chart"
        ),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_report(record: dict, out) -> None:
    """Render *record* as the terminal tables the harness snapshots."""
    from repro.analysis import format_table

    cdg = record["end_to_end"]["cdg"]
    backends = record["backends"]
    parser_headers = ["parser", "identical", *[f"{b} ms" for b in backends], "oracle ms"]
    parser_rows = [
        [
            f"CDG n={cdg['sentence_words']} ({cdg['engine']})",
            "yes" if cdg["identical"] else "NO",
            *[cdg["latency_ms"].get(b, "-") for b in backends],
            "-",
        ]
    ]
    for cfg in record["end_to_end"]["cfg"]:
        parser_rows.append(
            [
                f"CFG/CYK n={cfg['sentence_words']}",
                "yes" if cfg["identical"] else "NO",
                *[cfg["latency_ms"].get(b, "-") for b in backends],
                cfg["latency_ms"]["sets-oracle"],
            ]
        )
    print(
        format_table(
            parser_headers,
            parser_rows,
            title=f"Both parsers on the shared kernel core "
            f"({record['host']['cpu_count']} CPU host)",
        ),
        file=out,
    )
    dispatch = record.get("kernel_dispatch")
    if dispatch:
        routed = ", ".join(f"{key}->{winner}" for key, winner in dispatch.items())
        print(f"auto dispatch: {routed}", file=out)
    print(record["notes"], file=out)
