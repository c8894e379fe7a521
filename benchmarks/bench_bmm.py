"""BMM — one kernel core under both parsers: identity gate, then timing.

Thin harness over :mod:`repro.kernels.bench` (the logic lives in the
package so ``repro bench-bmm`` shares it):

* microbench — the four-Russians packed product vs the bit-plane
  ``bool @ bool`` product vs the O(m·k·n) broadcast oracle — plus the
  compiled ``native`` kernel and the autotuned ``auto`` dispatcher when
  a C toolchain is present — per operand shape, each agreeing bit for
  bit before any clock starts;
* end-to-end — the same sentence through a CDG ``ParserSession`` on
  every available kernel backend (identical settled networks), and
  through CYK at 12 and 40 words on each backend vs the set-based
  chart oracle (identical charts and operation counts).

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_bmm.py [--quick]

which writes ``BENCH_bmm.json`` at the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.kernels.bench import print_report, run_bench


def test_bmm_bench(report):
    """BMM: identity-gated kernel microbench + both parsers end to end."""
    record = run_bench(quick=True)
    assert record["bit_identity"]["ok"], record["bit_identity"]
    rows = [
        [
            "x".join(str(d) for d in row["shape"]),
            row["four_russians_ms"],
            row["planes_ms"],
            row.get("naive_ms", "capped"),
        ]
        for row in record["micro"]
    ]
    report(
        f"BMM microbench (quick, {record['host']['cpu_count']} CPU host)",
        ["shape", "four-Russians ms", "bool@bool ms", "naive ms"],
        rows,
        notes=record["notes"],
    )
    cdg = record["end_to_end"]["cdg"]
    cfgs = record["end_to_end"]["cfg"]
    assert cdg["identical"] and all(cfg["identical"] for cfg in cfgs)
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
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small operands and short loops (CI smoke + artifact)")
    args = parser.parse_args()

    out = Path(__file__).resolve().parents[1] / "BENCH_bmm.json"
    record = run_bench(quick=args.quick, out_path=out)
    print_report(record, sys.stdout)
    print(f"wrote {out}")
    raise SystemExit(0 if record["bit_identity"]["ok"] else 1)
