"""Measure the run-to-run spread of every end-to-end metric.

Usage, from the repository root::

    python3 reprobench/steadiness.py [--runs 10] [--sets 2] [--workloads warm_parse ...] [--out FILE]

Runs ``BENCHMARK.json``'s command once per seed on each workload, one
run at a time, in ``--sets`` sets of ``--runs`` seeds each (seeds
1..runs, then runs+1..2*runs, ...).  For every metric of every set it
reports the spread of its values as ``(Q3 - Q1) / median`` with
quartiles from ``statistics.quantiles(values, n=4)``, both for the
reference-scaled values the benchmark reports and for the raw values in
its detail record, and how much worse the second set's median reads
than the first's.  ``--out`` writes the whole record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "spread": spread(values),
        "values": values,
    }


#: Where an earlier attempt at this benchmark was too noisy.
NAMED = (
    ("cyk_chart", "latency_p50_ms"),
    ("served_parse", "results_per_s"),
    ("served_parse", "latency_p50_ms"),
    ("served_parse", "latency_p90_ms"),
    ("served_parse", "success_ratio"),
    ("served_parse", "setup_s"),
    ("served_parse", "peak_rss_mb"),
)


def named(sets: list) -> dict:
    """Scaled and raw spread, per set, of each :data:`NAMED` point measured."""
    out = {}
    for workload, metric in NAMED:
        entries = [s["workloads"][workload] for s in sets if workload in s["workloads"]]
        if entries:
            out[f"{workload}.{metric}"] = {
                "spread": [entry["scaled"][metric]["spread"] for entry in entries],
                "raw_spread": [entry["raw"].get(metric, {}).get("spread") for entry in entries],
            }
    return out


def run_set(command: list, run_seconds: int, workloads: list, seeds: range) -> dict:
    """One run per seed on each workload; the summary of every metric."""
    out = {}
    for workload in workloads:
        scaled: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        refs, durations = [], []
        for seed in seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(run_seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            durations.append(time.monotonic() - started)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
            detail = json.loads(lines[-2])["reprobench"]
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                scaled.setdefault(name, []).append(metric["value"])
            for name, value in detail["raw"].items():
                raw.setdefault(name, []).append(value)
            refs.append(detail["host.ref_ms"])
        out[workload] = {
            "scaled": {name: summary(v) for name, v in scaled.items()},
            "raw": {name: summary(v) for name, v in raw.items()},
            "host.ref_ms": summary(refs),
            "run_wall_s": summary(durations),
        }
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* reads than *first*, as a share of *first*."""
    change = (second - first) / first
    return -change if better == "higher" else change


def report(label: str, results: dict, metrics: dict) -> None:
    for workload, entry in results.items():
        for name, stats in entry["scaled"].items():
            bound = metrics[name]["bound"]
            raw_spread = entry["raw"].get(name, {}).get("spread")
            flag = "" if stats["spread"] <= bound / 3 else "  <-- over a third of its bound"
            print(
                f"{label} {workload:13s} {name:15s} median {stats['median']:12.4f} "
                f"spread {stats['spread']:.4f} (bound {bound})"
                + ("" if raw_spread is None else f" raw {raw_spread:.4f}")
                + flag
            )
        print(f"{label} {workload:13s} host.ref_ms spread {entry['host.ref_ms']['spread']:.4f}, "
              f"run wall median {entry['run_wall_s']['median']:.1f} s", flush=True)


def main(argv: "list[str] | None" = None) -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in config["end_to_end"]}
    record: dict = {"runs": args.runs, "run_seconds": config["run_seconds"], "sets": []}
    for index in range(args.sets):
        seeds = range(1 + index * args.runs, 1 + (index + 1) * args.runs)
        results = run_set(config["command"], config["run_seconds"], args.workloads, seeds)
        report(f"set {index + 1}", results, metrics)
        record["sets"].append({"seeds": [seeds[0], seeds[-1]], "workloads": results})

    first = record["sets"][0]["workloads"]
    record["named"] = named(record["sets"])
    record["worst_spread_share_of_bound"] = {
        workload: max(
            entry["scaled"][name]["spread"] / metrics[name]["bound"]
            for name in entry["scaled"]
            if name != "setup_s"
        )
        for workload, entry in first.items()
    }
    if args.sets > 1:
        second = record["sets"][1]["workloads"]
        record["second_set_vs_first"] = {
            workload: {
                name: {
                    "first": first[workload]["scaled"][name]["median"],
                    "second": second[workload]["scaled"][name]["median"],
                    "worse_by": worse_by(
                        first[workload]["scaled"][name]["median"],
                        second[workload]["scaled"][name]["median"],
                        metrics[name]["better"],
                    ),
                    "bound": metrics[name]["bound"],
                }
                for name in first[workload]["scaled"]
            }
            for workload in first
        }
        worst = max(
            (v["worse_by"], f"{w} {n}")
            for w, per in record["second_set_vs_first"].items()
            for n, v in per.items()
        )
        print(f"second set vs first: worst worse_by {worst[0]:.4f} ({worst[1]})")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
