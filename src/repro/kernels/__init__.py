"""Word-level bit kernels: the one core under both parsers.

The paper's log-time bound rests on two word-level operations, the
segmented ``scanOr``/``scanAnd`` of consistency maintenance; CYK adds
one more, its span-combination diagonal.  This package owns every
primitive that touches packed little-endian uint64 bit-planes, so the
CDG side (consistency sweep, fused binary-mask apply) and the CFG side
(packed CYK) run on one shared kernel core:

* :mod:`repro.kernels.bitops` — word-level primitives: popcounts,
  AND-accumulate with exact delta counting, segmented OR/popcount
  reductions, row/column clears, dense bit pack/unpack, bit scatter,
  and the row-pair intersection CYK's span step runs on.
* :mod:`repro.kernels.backend` — the kernel-backend registry (mirrors
  :mod:`repro.engines.registry`): ``packed`` (default), ``numpy``
  (Boolean-matrix-product cross-check of the sweep), ``native``
  (compiled C via ctypes) and ``auto`` (profile-guided dispatch
  between the others).  Each backend provides ``rows_intersect``,
  ``support_any``, ``and_accumulate`` and ``count_ones``; ``native``
  falls back cleanly to ``packed`` on hosts without a C compiler.
  Selected via the ``REPRO_KERNEL_BACKEND`` environment variable or
  the ``backend=`` argument of
  :class:`repro.pipeline.session.ParserSession`; one resolution rule
  (explicit > environment > default) lives in
  :func:`repro.kernels.backend.resolve_backend_name`.
* :mod:`repro.kernels.native` — the C source + on-demand ``cc`` build
  behind the ``native`` backend.
* :mod:`repro.kernels.autotune` — the calibration races and persisted
  dispatch table behind the ``auto`` backend (``repro calibrate``).

Layering: ``kernels`` sits *below* :mod:`repro.network.bitset` — the
layout layer packs/unpacks and delegates its word-level work here —
which sits below propagation/template, which sits below the engines.
``repro.cfg`` reaches the kernels directly (no BitLayout involved).
"""

from repro.kernels.backend import (
    KernelBackend,
    KernelBackendUnavailable,
    available_backends,
    create_backend,
    default_backend,
    probe_backend,
    register_backend,
    reset_backend_cache,
    resolve_backend_name,
)
from repro.kernels.bitops import WORD_BITS, WORD_BYTES, WORD_DTYPE

__all__ = [
    "KernelBackend",
    "KernelBackendUnavailable",
    "available_backends",
    "create_backend",
    "default_backend",
    "probe_backend",
    "register_backend",
    "reset_backend_cache",
    "resolve_backend_name",
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_DTYPE",
]
