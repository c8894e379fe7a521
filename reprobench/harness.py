"""Program-independent measurement helpers: the host-speed reference,
reference scaling, percentiles, peak RSS and the host stamp.

Host speed drifts on small shared hosts by tens of percent within a
minute, with CPU time tracking wall time.  Every timed segment of a run
is therefore bracketed by :func:`reference_ms`, a fixed loop timed in
thread CPU time, and its timings are rescaled to a nominal reference
speed: ``scaled = raw * nominal_ref_ms / ref_ms``.  The reference
imports nothing from the program and runs while the program is idle.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time

import numpy as np

_REF_SMALL = np.arange(1024, dtype=np.uint64)
_REF_LARGE = np.arange(1 << 16, dtype=np.uint64)
_REF_MEMORY = np.arange(1 << 19, dtype=np.uint64)  # 4 MiB, past the caches


def reference_ms() -> float:
    """Thread CPU milliseconds of a fixed pure-Python + small-NumPy loop."""
    started = time.thread_time_ns()
    acc = 0
    table: dict[int, int] = {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 255] = acc
    for i in range(60):
        acc += int(np.count_nonzero(np.bitwise_and(_REF_SMALL, np.uint64(i))))
    for i in range(4):
        acc += int(np.count_nonzero(np.bitwise_and(_REF_LARGE, np.uint64(i + 1))))
    return (time.thread_time_ns() - started) / 1e6


def memory_reference_ms() -> float:
    """Thread CPU milliseconds of fixed NumPy passes over 4 MiB arrays.

    Large-array work (template mask evaluation) slows down with the host
    differently from interpreter-bound work, so workloads dominated by
    it add this part to their reference.
    """
    started = time.thread_time_ns()
    for i in range(2):
        np.count_nonzero(np.bitwise_and(_REF_MEMORY, np.uint64(i + 1)))
    return (time.thread_time_ns() - started) / 1e6


def scale_factor(ref_before: float, ref_after: float, nominal_ref_ms: float) -> float:
    """Multiplier taking a raw time measured between two reference
    readings to the nominal reference speed."""
    return nominal_ref_ms / ((ref_before + ref_after) / 2.0)


def percentile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1), linearly interpolated at rank
    ``q * (n - 1)`` of the sorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then counts from process start


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_stamp(kernel_backend: str, c_compiler: "str | None", inherited_env: dict) -> dict:
    """What the numbers depend on besides the code."""
    cpu_model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernel_backend,
        "c_compiler": c_compiler,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "repro_env_inherited": inherited_env,
    }
