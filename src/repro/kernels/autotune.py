"""Profile-guided kernel dispatch: the ``auto`` backend.

``auto`` races the consistency sweep's kernels — ``support_any``,
``and_accumulate`` and ``count_ones`` — across the backends that can
run on this host.  Which one wins depends on operand size: ``native``
pays a fixed ctypes marshalling cost per call that small operands never
amortize, while ``packed`` pays numpy's per-call dispatch instead, and
the ``numpy`` backend's matrix-product sweep allocates a
byte-by-segment membership matrix per call.  Where they cross is a
*host* property (cache sizes, numpy build, compiler), not something a
hard-coded threshold can capture.  :class:`AutoBackend` measures instead of
guessing: the first call per (kernel, operand-size bucket) races every
available backend that has its own code for that kernel (``numpy``
inherits ``packed``'s ``and_accumulate`` and ``count_ones``, so it
only races ``support_any``) on the **actual operands**, gates each
candidate on bit-identity with the ``packed`` reference, caches the
winner in an in-process dispatch table, and persists that table to a
versioned JSON file so later processes skip the race entirely.  CYK's
``rows_intersect`` is not raced: every backend shares one
implementation of it.

Size buckets are powers of two over a per-kernel work measure (bit
count touched), so one calibration covers the whole neighborhood of
sizes that behave alike.  A candidate whose result ever disagrees with
``packed`` is excluded for the rest of the process with a
``RuntimeWarning`` — the race must never trade correctness for speed.

Environment knobs:

* ``REPRO_AUTOTUNE_CACHE`` — path of the persisted dispatch table
  (default ``~/.cache/repro/autotune.json``).  The file is versioned
  and keyed to a host fingerprint; a stale or foreign table is ignored,
  never trusted.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from repro.kernels import bitops
from repro.kernels.backend import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    probe_backend,
)

#: Dispatch-table file override (default: ``~/.cache/repro/autotune.json``).
ENV_CACHE = "REPRO_AUTOTUNE_CACHE"

#: Persisted-table schema version; bump on any format change.  Version
#: 2 dropped the ``bmm:*`` buckets, so version-1 tables are ignored.
CACHE_VERSION = 2

#: Timing repetitions per candidate per race (best-of).
_RACE_REPS = 2


def cache_path() -> Path:
    """Where the persisted dispatch table lives."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "autotune.json"


def host_fingerprint() -> dict:
    """The host facts a dispatch table is only valid under.

    Platform, machine, and core count: a table tuned on one machine
    says nothing about another, and a mismatch silently re-calibrates
    rather than importing someone else's crossover points.
    """
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def work_bucket(work_bits: int) -> int:
    """The power-of-two bucket a work measure falls into.

    Bucket ``b`` covers work in ``[2**(b-1), 2**b)``; sizes inside one
    bucket behave alike enough to share a calibrated winner.
    """
    return int(max(work_bits, 1)).bit_length()


class AutoBackend(KernelBackend):
    """Dispatching backend: races candidates once per size bucket,
    then routes every later call of that shape to the measured winner.

    The candidate pool is whatever :func:`available_backends` can
    actually construct on this host (``auto`` itself excluded), so a
    toolchain-less machine transparently races ``packed`` against
    ``numpy`` only.
    """

    name = "auto"

    def __init__(self):
        self._lock = threading.Lock()
        self._table: dict[str, str] = {}
        self._excluded: set[str] = set()
        #: Races run by *this* process (persisted-cache hits don't count).
        self.calibrations = 0
        self._dirty = False
        self._persist_warned = False
        self._load_table()

    # -- candidate pool ---------------------------------------------------

    def _candidates(self) -> "list[KernelBackend]":
        pool = []
        for name in available_backends():
            if name == self.name or name in self._excluded:
                continue
            instance = probe_backend(name)
            if instance is not None and not isinstance(instance, AutoBackend):
                pool.append(instance)
        return pool

    def _reference(self) -> KernelBackend:
        ref = probe_backend(DEFAULT_BACKEND)
        if ref is None:  # pragma: no cover - packed is always constructible
            raise RuntimeError(f"reference backend {DEFAULT_BACKEND!r} unavailable")
        return ref

    # -- persistence ------------------------------------------------------

    def _load_table(self) -> None:
        path = cache_path()
        try:
            raw = path.read_text()
        except OSError:
            return
        try:
            record = json.loads(raw)
        except ValueError:
            return
        if not isinstance(record, dict) or record.get("version") != CACHE_VERSION:
            return
        if record.get("host") != host_fingerprint():
            return
        table = record.get("table")
        if not isinstance(table, dict):
            return
        known = set(available_backends())
        self._table.update(
            {
                str(key): str(winner)
                for key, winner in table.items()
                if str(winner) in known
            }
        )

    def _persist_table(self) -> None:
        if not self._dirty:
            return
        path = cache_path()
        payload = json.dumps(
            {
                "version": CACHE_VERSION,
                "host": host_fingerprint(),
                "table": dict(sorted(self._table.items())),
            },
            indent=2,
            sort_keys=True,
        )
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            if not self._persist_warned:
                self._persist_warned = True
                warnings.warn(
                    f"could not persist autotune dispatch table to {path}: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return
        self._dirty = False

    # -- the race ---------------------------------------------------------

    def _race(self, kernel: str, bucket: int, run, check_identity) -> KernelBackend:
        """Race all candidates on the live operands; return the winner.

        *run(backend)* executes the kernel and returns its result;
        *check_identity(reference_result, candidate_result)* decides
        bit-equality.  The reference (``packed``) always participates
        and is the floor: a candidate only wins by being both correct
        and faster.  A candidate whose *kernel* method is the reference's
        own function (``numpy`` inherits ``packed``'s ``count_ones``) is
        not an alternative and is not timed: racing identical code only
        persists timing noise as a dispatch choice.
        """
        key = f"{kernel}:{bucket}"
        reference = self._reference()
        reference_impl = getattr(type(reference), kernel)

        def timed(candidate: KernelBackend):
            elapsed, result = None, None
            for _ in range(_RACE_REPS):
                start = time.perf_counter()
                attempt = run(candidate)
                took = time.perf_counter() - start
                if elapsed is None or took < elapsed:
                    elapsed, result = took, attempt
            return elapsed, result

        # The reference runs first: it is both the correctness oracle
        # and the time to beat.
        best_time, ref_result = timed(reference)
        best_name = reference.name
        for candidate in self._candidates():
            if (
                candidate.name == reference.name
                or getattr(type(candidate), kernel) is reference_impl
            ):
                continue
            elapsed, result = timed(candidate)
            if not check_identity(ref_result, result):
                self._excluded.add(candidate.name)
                warnings.warn(
                    f"kernel backend {candidate.name!r} disagreed with "
                    f"{reference.name!r} on {kernel} (bucket {bucket}); "
                    "excluding it from dispatch",
                    RuntimeWarning,
                    stacklevel=4,
                )
                continue
            if best_time is None or elapsed < best_time:
                best_name, best_time = candidate.name, elapsed
        self._table[key] = best_name
        self.calibrations += 1
        self._dirty = True
        self._persist_table()
        winner = probe_backend(best_name)
        return winner if winner is not None else reference

    def _dispatch(self, kernel: str, bucket: int) -> "KernelBackend | None":
        name = self._table.get(f"{kernel}:{bucket}")
        if name is None or name in self._excluded:
            return None
        return probe_backend(name)

    def _route(self, kernel: str, work_bits: int, run, check_identity) -> KernelBackend:
        """The backend that runs *kernel* on *work_bits* of work.

        Empty operands go straight to the reference.  Otherwise the
        work's bucket is looked up, and raced (see :meth:`_race`) the
        first time it is seen.
        """
        if work_bits == 0:
            return self._reference()
        bucket = work_bucket(work_bits)
        chosen = self._dispatch(kernel, bucket)
        if chosen is None:
            with self._lock:
                chosen = self._dispatch(kernel, bucket) or self._race(
                    kernel, bucket, run, check_identity
                )
        return chosen

    # -- kernel entry points ----------------------------------------------

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        matrix = np.asarray(matrix_words)
        work = matrix.shape[0] * matrix.shape[1] * 64 if matrix.ndim == 2 else 0
        backend = self._route(
            "support_any",
            work,
            lambda candidate: candidate.support_any(
                matrix_words, alive_words, seg_byte_starts
            ),
            np.array_equal,
        )
        return backend.support_any(matrix_words, alive_words, seg_byte_starts, out=out)

    def and_accumulate(self, target_words: np.ndarray, mask_words: np.ndarray) -> int:
        # In-place kernel: each racer mutates its own pristine copy, and
        # only the chosen backend's call lands in the caller's array.
        def run(candidate: KernelBackend):
            work_copy = np.array(target_words, copy=True)
            return candidate.and_accumulate(work_copy, mask_words), work_copy

        backend = self._route(
            "and_accumulate",
            int(np.asarray(target_words).size) * 64,
            run,
            lambda ref, got: ref[0] == got[0] and np.array_equal(ref[1], got[1]),
        )
        return backend.and_accumulate(target_words, mask_words)

    def count_ones(self, words: np.ndarray) -> int:
        backend = self._route(
            "count_ones",
            int(np.asarray(words).size) * 64,
            lambda candidate: candidate.count_ones(words),
            lambda ref, got: ref == got,
        )
        return backend.count_ones(words)

    # -- introspection / warm-up ------------------------------------------

    def dispatch_snapshot(self) -> "dict[str, str] | None":
        """A copy of the dispatch table (``"kernel:bucket" -> backend``)."""
        with self._lock:
            return dict(sorted(self._table.items()))

    def warm(self, *, quick: bool = False, seed: int = 0) -> dict[str, str]:
        """Calibrate representative operand sizes ahead of real traffic.

        The ``repro calibrate`` CLI and the kernel bench both call this
        so a fresh host pays the race cost once, offline, instead of
        inside the first parse.  Returns the dispatch table.
        """
        rng = np.random.default_rng(seed)
        widths = (256,) if quick else (256, 2048, 16384)
        for cols in widths:
            rows = max(cols // 8, 8)
            matrix = bitops.pack_bits(rng.random((rows, cols)) < 0.1)
            alive = bitops.pack_bits((rng.random(cols) < 0.5)[None, :])[0]
            n_segs = max(cols // 64, 1)
            row_bytes = matrix.shape[1] * 8
            seg_starts = np.linspace(0, row_bytes, n_segs, endpoint=False).astype(
                np.int64
            )
            self.support_any(matrix, alive, seg_starts)
            flat = matrix.copy()
            mask = bitops.pack_bits(rng.random((rows, cols)) < 0.5)
            self.and_accumulate(flat, mask)
            self.count_ones(flat)
        snapshot = self.dispatch_snapshot()
        return snapshot if snapshot is not None else {}
