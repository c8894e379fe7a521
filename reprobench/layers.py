"""Metric names and units, and the per-layer report of a traced pass.

Layer times are self times per op (see :func:`tracing.self_times`),
scaled to the nominal reference speed like every other timing.  Counts
come from the program's own counters (``EngineStats``, ``cache_info()``,
``template_builds()``, ``CYKResult.split_operations``,
``ServiceMetrics.snapshot()``) and are reported per op: rounds are
identical, so they repeat exactly.
"""

from __future__ import annotations

from collections import defaultdict

import harness
from tracing import KERNELS, self_times

MB = float(1 << 20)

END_TO_END_UNITS = {
    "results_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: span name -> (metric, nanoseconds per unit)
SPAN_METRICS = {
    "grammar.tokenize": ("grammar.tokenize_us", 1e3),
    "template.build": ("template.build_ms", 1e6),
    "template.masks": ("template.masks_ms", 1e6),
    "template.extend": ("template.extend_us", 1e3),
    "template.bind": ("template.bind_us", 1e3),
    "stream.extend": ("stream.extend_us", 1e3),
    "session": ("session.self_us", 1e3),
    "engine": ("engine.self_us", 1e3),
    "readout": ("readout_us", 1e3),
    "cyk": ("cyk.self_us", 1e3),
    "serve.submit": ("serve.submit_us", 1e3),
    "serve.handoff": ("serve.handoff_us", 1e3),
    **{f"kernels.{k}": (f"kernels.{k}_us", 1e3) for k in KERNELS},
}

PER_LAYER_UNITS = {
    "grammar.tokenize_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "template.build_ms": "ms",
    "template.masks_ms": "ms",
    "template.build_calls": "count",
    "template.cached_mb": "MB",
    "template.extend_us": "us",
    "template.extend_calls": "count",
    "template.bind_us": "us",
    "stream.extend_us": "us",
    "stream.extended_share": "ratio",
    "session.self_us": "us",
    "engine.self_us": "us",
    "propagation.consistency_passes": "count",
    "propagation.role_values_killed": "count",
    "propagation.entries_zeroed": "count",
    **{name: unit for k in KERNELS for name, unit in
       ((f"kernels.{k}_us", "us"), (f"kernels.{k}_calls", "count"))},
    "kernels.bytes_moved_mb": "MB",
    "readout_us": "us",
    "cyk.self_us": "us",
    "cyk.split_operations": "count",
    "serve.submit_us": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.handoff_us": "us",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.expired": "count",
    "host.ref_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def _span(spans, name):
    return next((span for span in spans if span[0] == name), None)


def add_service_spans(op: int, spans: list) -> "float | None":
    """Add the two intervals of a served op no program call covers:
    ``serve.queue`` (submit returned -> a worker starts the parse) and
    ``serve.handoff`` (parse returned -> the future resolved).  Returns
    the queue wait in nanoseconds, or None if the op was not traced
    end to end."""
    root, submit, parse = (_span(spans, name) for name in ("op", "serve.submit", "session"))
    if root is None or submit is None or parse is None:
        return None
    queued = max(submit[4], parse[3])
    spans.append(["serve.queue", "op", op, submit[4], queued])
    spans.append(["serve.handoff", "op", op, parse[4], root[4]])
    return queued - submit[4]


def layer_metrics(workload, tracer, op_factor, op_counts, before, after):
    """Per-layer metrics of a traced pass over ``len(op_factor)`` ops."""
    n = len(op_factor)
    by_op = tracer.spans_by_op()
    served = workload.name == "served_parse"
    scaled_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    queue_ms = []
    wall = unattributed = 0
    identity_errors = untraced_ops = 0
    for op in range(n):
        spans = by_op.get(op, [])
        if served:
            queued = add_service_spans(op, spans)
            if queued is None:
                untraced_ops += 1
                continue
            queue_ms.append(queued * op_factor[op] / 1e6)
        root = _span(spans, "op")
        if root is None:
            untraced_ops += 1
            continue
        totals = self_times(spans)
        if sum(totals.values()) != root[4] - root[3]:
            identity_errors += 1
        wall += root[4] - root[3]
        unattributed += totals.get("op", 0)
        for name, ns in totals.items():
            scaled_ns[name] += ns * op_factor[op]
        for span in spans:
            calls[span[0]] += 1

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for span_name, (metric, per_unit) in SPAN_METRICS.items():
        metrics[metric] = scaled_ns[span_name] / per_unit / n
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}_calls"] = calls[f"kernels.{kernel}"] / n
    metrics["kernels.bytes_moved_mb"] = sum(tracer.bytes_by_op().values()) / MB / n
    metrics["trace.unattributed_share"] = unattributed / wall if wall else 0.0

    delta = {key: after[key] - before[key] for key in after if key != "cached_bytes"}
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    if lookups:
        metrics["cache.hit_ratio"] = delta["hits"] / lookups
    metrics["cache.evictions"] = delta.get("evictions", 0) / n
    metrics["template.build_calls"] = delta.get("full", delta.get("misses", 0)) / n
    metrics["template.extend_calls"] = delta.get("extended", 0) / n
    metrics["template.cached_mb"] = after.get("cached_bytes", 0) / MB
    if workload.name == "stream_words":
        metrics["stream.extended_share"] = delta["extended"] / n

    counted = [counts for counts in op_counts if counts]
    for key, metric in (
        ("passes", "propagation.consistency_passes"),
        ("killed", "propagation.role_values_killed"),
        ("zeroed", "propagation.entries_zeroed"),
        ("split_operations", "cyk.split_operations"),
    ):
        if counted and key in counted[0]:
            metrics[metric] = sum(counts[key] for counts in counted) / len(counted)

    if served:
        if queue_ms:
            metrics["serve.queue_wait_ms_p50"] = harness.percentile(queue_ms, 0.50)
            metrics["serve.queue_wait_ms_p90"] = harness.percentile(queue_ms, 0.90)
        if delta["batches"]:
            metrics["serve.batch_size_mean"] = delta["batched"] / delta["batches"]
        metrics["serve.rejected"] = delta["rejected"] / n
        metrics["serve.expired"] = delta["expired"] / n

    checks = {
        "traced_ops": n,
        "untraced_ops": untraced_ops,
        "attribution_identity_errors": identity_errors,
    }
    return metrics, checks
