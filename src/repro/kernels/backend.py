"""The kernel-backend registry: name -> Boolean-kernel provider.

Mirrors :mod:`repro.engines.registry`: the CLI, ``ParserSession`` and
the benchmarks resolve kernel backends through one table, so adding a
backend is one :func:`register_backend` call.  Unlike the engine
registry, resolution has a fallback contract: a *registered but
unavailable* backend (e.g. ``native`` on a host without a C compiler)
raises :class:`KernelBackendUnavailable` from its factory, and
:func:`create_backend` warns and falls back to the default ``packed``
backend instead of failing the parse.

Resolution order — one rule, shared by every entry point
(:func:`resolve_backend_name` implements it; :func:`create_backend`
and :func:`default_backend` both call it): an explicit ``backend=``
argument wins, else the ``REPRO_KERNEL_BACKEND`` environment variable,
else the ``"packed"`` default.  Resolution is memoized per resolved
name (including the warn-once fallback instance for unavailable
backends), so repeated resolution — one per network bind on the hot
path — is a dict hit.

A backend provides the word-level surface both parsers run on — the
paper's ``scanOr``/``scanAnd`` sweep plus CYK's span step:

* ``rows_intersect(a_words, b_words)`` — does each packed row pair
  share a set bit?  CYK's span-combination step: one call per span
  length covers every child pair and every start.  The default
  implementation (:func:`repro.kernels.bitops.rows_intersect`) is
  inherited by every backend.
* ``support_any(matrix_words, alive_words, seg_byte_starts)`` — the
  consistency sweep's OR-reduction: does row *a* keep an alive partner
  in each segment?  The packed backend computes it as a word-wide AND
  plus a segmented byte OR; the numpy backend computes the same truth
  table as a literal Boolean matrix product against the byte-segment
  membership matrix — the Lee/Valiant recast, used as a cross-check.
* ``and_accumulate`` / ``count_ones`` — the fused-mask apply and the
  popcount bookkeeping around it.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.kernels import bitops

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The always-available default.
DEFAULT_BACKEND = "packed"


class KernelBackendUnavailable(ReproError):
    """A registered kernel backend cannot run on this host.

    Raised by backend *factories* (e.g. ``native`` when no C compiler
    is installed); :func:`create_backend` catches it and falls back to
    the default backend with a warning.
    """


class KernelBackend:
    """Base class: word-level primitives shared by every backend."""

    name = "abstract"

    def bmm(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        """Packed Boolean matrix product ``C[i, j] = OR_k A[i, k] AND B[k, j]``.

        ``a_bits`` is ``(m, a_words)`` with bit *k* of row *i* = ``A[i, k]``
        (bits at ``k >= k_rows`` zero); ``b_bits`` is ``(k_rows, n_words)``;
        the result is ``(m, n_words)``, packed like ``b_bits``.  Computed
        as a bit-plane ``bool @ bool`` product.

        No parser calls this.  It stays, on the base class only, because
        reprobench's ``TracingBackend`` binds ``inner.bmm`` when it is
        constructed; a benchmark change can drop both together.
        """
        a = np.ascontiguousarray(np.asarray(a_bits, dtype=bitops.WORD_DTYPE))
        b = np.ascontiguousarray(np.asarray(b_bits, dtype=bitops.WORD_DTYPE))
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"bmm operands must be 2-D packed word arrays, got shapes "
                f"{a.shape} and {b.shape}"
            )
        k_rows, n_words = b.shape
        if a.shape[1] * bitops.WORD_BITS < k_rows:
            raise ValueError(
                f"bmm inner dimensions disagree: A packs "
                f"{a.shape[1] * bitops.WORD_BITS} bit columns but B has {k_rows} rows"
            )
        if n_words == 0:
            return np.zeros((a.shape[0], 0), dtype=bitops.WORD_DTYPE)
        a_plane = bitops.unpack_bits(a, a.shape[1] * bitops.WORD_BITS)[:, :k_rows]
        b_plane = bitops.unpack_bits(b, n_words * bitops.WORD_BITS)
        return bitops.pack_bits(a_plane @ b_plane)  # bool @ bool: Boolean semiring

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """(rows, n_segments) bool: does each row keep an alive bit per segment?"""
        raise NotImplementedError

    def and_accumulate(self, target_words: np.ndarray, mask_words: np.ndarray) -> int:
        """AND *mask* into *target* in place; return bits cleared."""
        return bitops.and_accumulate(target_words, mask_words)

    def rows_intersect(self, a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
        """``(...)`` bool: does packed row ``a[k]`` share a set bit with ``b[k]``?"""
        return bitops.rows_intersect(a_words, b_words)

    def count_ones(self, words: np.ndarray) -> int:
        """Total population count of a packed array."""
        return bitops.count_ones(words)

    def dispatch_snapshot(self) -> "dict[str, str] | None":
        """The per-(kernel, size-bucket) dispatch table, for backends
        that route between implementations (the ``auto`` backend);
        None for single-implementation backends.  Sessions surface a
        non-None snapshot as ``stats.extra["kernel_dispatch"]``."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"


class PackedBackend(KernelBackend):
    """Word-at-a-time kernels: word-wide ANDs, reduceat sweeps."""

    name = "packed"

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        masked = np.bitwise_and(matrix_words, alive_words[None, :], out=out)
        return bitops.or_segments(masked, seg_byte_starts) != 0


class PlanesBackend(KernelBackend):
    """Bit-plane cross-check: ``support_any`` as a Boolean matrix product.

    Slower and allocation-heavier than ``packed``, but its sweep is a
    literal Boolean matrix product — the form Lee's reduction talks
    about — so it doubles as the cross-check oracle for the word-level
    kernels.
    """

    name = "numpy"

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        # support = (M AND alive) ∘ S in the Boolean semiring, where
        # S[b, j] = byte b belongs to segment j.  Byte granularity is
        # enough: a nonzero masked byte means a kept bit, and padding
        # bytes (mapped to the last segment) are zero by invariant.
        masked = np.bitwise_and(matrix_words, alive_words[None, :], out=out)
        nonzero8 = bitops.bytes_view(masked) != 0
        n_bytes = nonzero8.shape[-1]
        seg_of_byte = (
            np.searchsorted(seg_byte_starts, np.arange(n_bytes), side="right") - 1
        )
        membership = seg_of_byte[:, None] == np.arange(len(seg_byte_starts))[None, :]
        return nonzero8 @ membership


def _native_factory() -> KernelBackend:
    # Deferred import: constructing the backend compiles the C library
    # on first use, and hosts without a toolchain must still import
    # this module cheaply.
    from repro.kernels.native import NativeBackend

    return NativeBackend()


def _auto_factory() -> KernelBackend:
    from repro.kernels.autotune import AutoBackend

    return AutoBackend()


# -- registry ----------------------------------------------------------------

BackendFactory = Callable[[], KernelBackend]

_REGISTRY: dict[str, BackendFactory] = {}
_INSTANCES: dict[str, KernelBackend] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register *factory* under *name* (later registrations win)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def reset_backend_cache(name: "str | None" = None) -> None:
    """Drop memoized backend instances (one name, or all).

    Resolution caches aggressively — including the warn-once fallback
    instance for unavailable backends — so tests that change the
    environment (compiler overrides, autotune cache paths) reset here
    to re-run factories.
    """
    if name is None:
        _INSTANCES.clear()
    else:
        _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered kernel-backend names, as a deterministic sorted tuple.

    Deterministic because the CLI embeds it in ``--kernel-backend``
    help text and validation messages; registration order must not
    leak into user-facing strings.
    """
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(backend: "str | None" = None) -> str:
    """The one resolution rule: explicit arg > ``REPRO_KERNEL_BACKEND``
    environment variable > the ``packed`` default.

    Every resolution path (:func:`create_backend`,
    :func:`default_backend`, the CLI, child-process initializers) goes
    through this function, so "which backend would run?" has exactly
    one answer per process state.
    """
    return backend or os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def create_backend(backend: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve *backend*: instance passes through, a name is resolved
    via :func:`resolve_backend_name` and built (memoized per name).

    Raises:
        ReproError: for a name that is not registered at all.

    A registered backend whose factory raises
    :class:`KernelBackendUnavailable` falls back to the default backend
    with a single ``RuntimeWarning`` per process — requesting an
    optional accelerator must degrade, not fail.  The fallback instance
    is memoized under the requested name, so the warning fires once and
    later resolutions are silent dict hits
    (:func:`reset_backend_cache` re-arms the factory).
    """
    if isinstance(backend, KernelBackend):
        return backend
    _ensure_builtin()
    requested = resolve_backend_name(backend)
    instance = _INSTANCES.get(requested)
    if instance is not None:
        return instance
    try:
        factory = _REGISTRY[requested]
    except KeyError:
        raise ReproError(
            f"unknown kernel backend {requested!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    try:
        instance = factory()
    except KernelBackendUnavailable as exc:
        if requested == DEFAULT_BACKEND:
            raise
        warnings.warn(
            f"kernel backend {requested!r} unavailable ({exc}); "
            f"falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        instance = create_backend(DEFAULT_BACKEND)
    _INSTANCES[requested] = instance
    return instance


def probe_backend(name: str) -> "KernelBackend | None":
    """*name*'s backend instance, or None when it cannot run here.

    Unlike :func:`create_backend` this neither warns nor falls back —
    it is the autotuner's candidate-enumeration primitive ("which
    backends could race?"), where an unavailable backend is an expected
    non-event rather than a degraded selection.  Successful probes
    share the resolution memo.
    """
    _ensure_builtin()
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _REGISTRY.get(name)
    if factory is None:
        return None
    try:
        instance = factory()
    except KernelBackendUnavailable:
        return None
    _INSTANCES[name] = instance
    return instance


def default_backend() -> KernelBackend:
    """The backend for callers with no explicit selection.

    Used by networks built outside a :class:`ParserSession`.  Same
    resolution rule and same per-name memo as :func:`create_backend`
    (this *is* ``create_backend(None)``, kept as a named entry point
    because the hot path reads better at call sites).
    """
    return create_backend(None)


def _ensure_builtin() -> None:
    """Populate the registry with the built-in backends, lazily."""
    if DEFAULT_BACKEND in _REGISTRY:
        return
    _REGISTRY.setdefault("packed", PackedBackend)
    _REGISTRY.setdefault("numpy", PlanesBackend)
    _REGISTRY.setdefault("native", _native_factory)
    _REGISTRY.setdefault("auto", _auto_factory)
