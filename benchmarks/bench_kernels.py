"""Kernels — one kernel core under both parsers: identity gate, then timing.

Thin harness over :mod:`repro.kernels.bench` (the logic lives in the
package so ``repro bench-kernels`` shares it): the same sentence
through a CDG ``ParserSession`` on every available kernel backend
(identical settled networks), and through CYK at 12 and 40 words on
each backend vs the set-based chart oracle (identical charts and
operation counts).

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]

which writes ``BENCH_kernels.json`` at the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.kernels.bench import print_report, run_bench


def test_kernels_bench(report):
    """Kernels: identity-gated, both parsers end to end on every backend."""
    record = run_bench(quick=True)
    assert record["bit_identity"]["ok"], record["bit_identity"]
    cdg = record["end_to_end"]["cdg"]
    cfgs = record["end_to_end"]["cfg"]
    report(
        "Both parsers on the shared kernel core (quick)",
        ["parser", "packed ms", "numpy ms", "oracle ms"],
        [
            [f"CDG n={cdg['sentence_words']}", cdg["latency_ms"]["packed"],
             cdg["latency_ms"]["numpy"], "-"],
            *[
                [f"CFG/CYK n={cfg['sentence_words']}", cfg["latency_ms"]["packed"],
                 cfg["latency_ms"]["numpy"], cfg["latency_ms"]["sets-oracle"]]
                for cfg in cfgs
            ],
        ],
        notes=record["notes"],
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short sentences and loops (CI smoke + artifact)")
    args = parser.parse_args()

    out = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
    record = run_bench(quick=args.quick, out_path=out)
    print_report(record, sys.stdout)
    print(f"wrote {out}")
    raise SystemExit(0 if record["bit_identity"]["ok"] else 1)
