"""Run one workload of the repository benchmark against ``src/``.

Usage, from the repository root::

    python3 reprobench/run.py --workload warm_parse --seed 1 --seconds 10 --trace 0 \
        --nominal-ref-ms 0.9 --nominal-memory-ref-ms 1.3

The last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a detail record (host stamp, raw unscaled values,
reference readings, sample counts, per-phase request counts).  A wrong
output makes the run exit 1; a missing ``src/repro`` makes it exit 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

#: A run times at least this many ops, so p90 has >= 10 samples beyond it.
MIN_SAMPLES = 110

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Directory (inside the checkout) owning every cache that outlives a
#: process: the native kernel build cache and the autotune table.
CACHE_DIR = ".reprobench_cache"

#: Where a traced run writes its spans (inside CACHE_DIR, so the next run
#: empties it).
SPANS_FILE = "spans.jsonl"


def prepare_environment(root: Path) -> dict[str, str]:
    """Drop inherited ``REPRO_*`` settings and point the persistent
    caches at a freshly emptied benchmark-owned directory."""
    inherited = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in inherited:
        del os.environ[key]
    cache = root / CACHE_DIR
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    os.environ["REPRO_NATIVE_CACHE"] = str(cache / "native")
    os.environ["REPRO_AUTOTUNE_CACHE"] = str(cache / "autotune.json")
    return inherited


def rounds_for(seconds: float, workload) -> int:
    return max(
        math.ceil(MIN_SAMPLES / workload.ops_per_round), round(seconds / workload.round_s)
    )


def check_round(workload, record) -> int:
    """Compare every output of a round with its reference; return failures."""
    failed = 0
    for key, output in zip(record.keys, record.outputs, strict=True):
        if isinstance(output, Exception) or not workload.check(key, output):
            failed += 1
    return failed


def end_to_end(workload, rounds: int, setups: int) -> tuple[dict, dict]:
    import harness

    setup_raw, setup_scaled = [], []
    for index in range(setups):
        if index:
            workload.close()
        gc.collect()
        ref_before = workload.reference()
        started = perf_counter_ns()
        workload.build()
        elapsed = (perf_counter_ns() - started) / 1e9
        factor = harness.scale_factor(ref_before, workload.reference(), workload.nominal_ref_ms)
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * factor)
    workload.prime()
    workload.gate()

    latency_raw, latency_scaled, refs = [], [], []
    rate_raw, rate_scaled = [], []
    attempted = failed = 0
    harness.reset_peak_rss()
    for _ in range(rounds):
        gc.collect()
        record = workload.run_round()
        round_failed = check_round(workload, record)
        failed += round_failed
        attempted += len(record.outputs)
        refs.extend(record.refs)
        for ns, factor in zip(record.latency_ns, record.op_factor, strict=True):
            latency_raw.append(ns / 1e6)
            latency_scaled.append(ns * factor / 1e6)
        correct = len(record.outputs) - round_failed
        rate_raw.append(correct * 1e9 / sum(record.segment_ns))
        rate_scaled.append(
            correct * 1e9
            / sum(ns * f for ns, f in zip(record.segment_ns, record.segment_factor, strict=True))
        )
    peak = harness.peak_rss_mb()
    workload.close()

    succeeded = attempted - failed

    def timing(latencies, rates, setup):
        return {
            "results_per_s": statistics.median(rates),
            "latency_p50_ms": harness.percentile(latencies, 0.50),
            "latency_p90_ms": harness.percentile(latencies, 0.90),
            "setup_s": statistics.median(setup),
        }

    metrics = timing(latency_scaled, rate_scaled, setup_scaled)
    metrics["success_ratio"] = succeeded / attempted
    metrics["peak_rss_mb"] = peak
    detail = {
        "raw": timing(latency_raw, rate_raw, setup_raw),
        "host.ref_ms": statistics.median(refs),
        "ref_ms_min_max": [min(refs), max(refs)],
        "samples": {
            "latency": len(latency_scaled),
            "beyond_p90": sum(v > metrics["latency_p90_ms"] for v in latency_scaled),
            "setup": setups,
            "rounds": rounds,
        },
        "phases": {
            "setup": {"sent": setups, "succeeded": setups, "failed": 0},
            "gate": {"sent": len(workload.expected), "succeeded": len(workload.expected), "failed": 0},
            "timed": {"sent": attempted, "succeeded": succeeded, "failed": failed},
        },
    }
    return metrics, {"attempted": attempted, "failed": failed, "detail": detail}


def traced(workload, rounds: int, spans_path: "Path | None" = None) -> tuple[dict, dict]:
    """An untraced pass, then a traced pass of the same ops; the spans
    are written to *spans_path* when the run ends."""
    import layers
    from repro.kernels import create_backend
    from tracing import Tracer, TracingBackend, traced_program

    workload.build()
    workload.prime()
    workload.gate()
    untraced_ns = 0.0
    attempted = failed = 0
    first_counts = None
    refs = []
    for _ in range(rounds):
        gc.collect()
        record = workload.run_round()
        failed += check_round(workload, record)
        attempted += len(record.outputs)
        refs.extend(record.refs)
        untraced_ns += sum(ns * f for ns, f in zip(record.segment_ns, record.segment_factor))
        if first_counts is None:
            first_counts = [_op_counts(workload, out) for out in record.outputs]
    workload.close()
    untraced = {"sent": attempted, "succeeded": attempted - failed, "failed": failed}

    tracer = Tracer()
    if workload.name == "served_parse":
        tracer.sentence_ops = {}
    workload.build(backend=TracingBackend(create_backend(None), tracer))
    workload.prime()
    before = workload.counts()
    traced_ns = 0.0
    op_factor, op_counts = [], []
    traced_failed = counter_mismatch = 0
    with traced_program(tracer):
        for index in range(rounds):
            gc.collect()
            record = workload.run_round(tracer, op_base=len(op_factor))
            traced_failed += check_round(workload, record)
            refs.extend(record.refs)
            traced_ns += sum(ns * f for ns, f in zip(record.segment_ns, record.segment_factor))
            op_factor.extend(record.op_factor)
            counts = [_op_counts(workload, out) for out in record.outputs]
            counter_mismatch += sum(a != b for a, b in zip(counts, first_counts, strict=True))
            op_counts.extend(counts)
    after = workload.counts()
    workload.close()

    metrics, checks = layers.layer_metrics(
        workload, tracer, op_factor, op_counts, before, after
    )
    if spans_path is not None:
        tracer.write(spans_path)
    metrics["host.ref_ms"] = statistics.median(refs)
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    n_traced = len(op_factor)
    failed += (
        traced_failed
        + counter_mismatch
        + checks["attribution_identity_errors"]
        + checks["untraced_ops"]
    )
    detail = {
        "checks": dict(checks, counter_mismatches=counter_mismatch),
        "phases": {
            "gate": {"sent": len(workload.expected), "succeeded": len(workload.expected), "failed": 0},
            "untraced_pass": untraced,
            "traced_pass": {
                "sent": n_traced,
                "succeeded": n_traced - traced_failed,
                "failed": traced_failed,
            },
        },
    }
    return metrics, {"attempted": attempted + n_traced, "failed": failed, "detail": detail}


def _op_counts(workload, output):
    if isinstance(output, Exception):
        return None
    return workload.op_counts(output)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The reference parts' thread-CPU times on the nominal host (see
    # harness.reference_ms and harness.memory_reference_ms); every timing
    # is reported as if the host ran its workload's reference at this
    # speed.  BENCHMARK.json's command carries the values the gate uses.
    parser.add_argument("--nominal-ref-ms", type=float, required=True)
    parser.add_argument("--nominal-memory-ref-ms", type=float, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("reprobench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    inherited = prepare_environment(root)
    sys.path.insert(0, str(root / "src"))

    import harness
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](
        args.seed, (args.nominal_ref_ms, args.nominal_memory_ref_ms)
    )
    rounds = rounds_for(args.seconds / (2 if args.trace else 1), workload)
    if args.trace:
        metrics, outcome = traced(workload, rounds, root / CACHE_DIR / SPANS_FILE)
        units = layers.PER_LAYER_UNITS
    else:
        metrics, outcome = end_to_end(workload, rounds, SETUPS)
        units = layers.END_TO_END_UNITS

    from repro.kernels import resolve_backend_name
    from repro.kernels.native.build import find_compiler

    detail = outcome["detail"]
    detail.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        rounds=rounds,
        ops_per_round=workload.ops_per_round,
        input_words_per_op=workload.words_per_op(),
        nominal_ref_ms=workload.nominal_ref_ms,
        host=harness.host_stamp(resolve_backend_name(), find_compiler(), inherited),
    )
    correct = outcome["failed"] == 0
    print(json.dumps({"reprobench": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
