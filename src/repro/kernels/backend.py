"""The kernel-backend registry: name -> Boolean-kernel provider.

Mirrors :mod:`repro.engines.registry`: the CLI, ``ParserSession`` and
the benchmarks resolve kernel backends through one table, so adding a
native/GPU backend is one :func:`register_backend` call.  Unlike the
engine registry, resolution has a fallback contract: a *registered but
unavailable* backend (e.g. ``cupy`` without CuPy installed) raises
:class:`KernelBackendUnavailable` from its factory, and
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

A backend provides the Boolean-linear-algebra surface both parsers run
on:

* ``bmm(a_bits, b_bits)`` — packed Boolean matrix product.  No parser
  calls it: CYK used to combine spans with one full product per span
  length and read a single diagonal of it, and now runs that diagonal
  directly through ``rows_intersect``.  It stays for the kernel
  microbench and the autotuner's races.
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
from repro.kernels.bmm import _check_operands, bmm_four_russians, bmm_planes

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The always-available default.
DEFAULT_BACKEND = "packed"


class KernelBackendUnavailable(ReproError):
    """A registered kernel backend cannot run on this host.

    Raised by backend *factories* (e.g. the CuPy scaffold when CuPy is
    not installed); :func:`create_backend` catches it and falls back to
    the default backend with a warning.
    """


class KernelBackend:
    """Base class: word-level primitives shared by every backend."""

    name = "abstract"

    def bmm(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        """Packed Boolean matrix product (see :mod:`repro.kernels.bmm`)."""
        raise NotImplementedError

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
    """Word-at-a-time kernels: four-Russians BMM, reduceat sweeps."""

    name = "packed"

    def bmm(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        return bmm_four_russians(a_bits, b_bits)

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
    """Bit-plane fallback: plain numpy matmuls in the Boolean semiring.

    Slower and allocation-heavier than ``packed``, but every operation
    is a literal Boolean matrix product — the form Lee's reduction talks
    about, and the form a dense-linear-algebra accelerator implements —
    so it doubles as the cross-check oracle for the word-level kernels.
    """

    name = "numpy"

    def bmm(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        return bmm_planes(a_bits, b_bits)

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


class CuPyBackend(KernelBackend):  # pragma: no cover - requires CuPy
    """GPU scaffold: bit-plane matmul on the device, pack/unpack on host.

    Registered so ``REPRO_KERNEL_BACKEND=cupy`` resolves; on hosts
    without CuPy the factory raises :class:`KernelBackendUnavailable`
    and resolution falls back to ``packed``.
    """

    name = "cupy"

    def __init__(self):
        import cupy  # raises ImportError when absent; factory translates

        self._cp = cupy

    def bmm(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        cp = self._cp
        a, b = _check_operands(a_bits, b_bits)
        k_rows, n_words = b.shape[0], b.shape[1]
        if a.shape[0] == 0 or k_rows == 0 or n_words == 0:
            return np.zeros((a.shape[0], n_words), dtype=bitops.WORD_DTYPE)
        a_plane = cp.asarray(
            bitops.unpack_bits(a, a.shape[1] * bitops.WORD_BITS)[:, :k_rows],
            dtype=cp.float32,
        )
        b_plane = cp.asarray(
            bitops.unpack_bits(b, n_words * bitops.WORD_BITS), dtype=cp.float32
        )
        product = cp.asnumpy(a_plane @ b_plane) > 0.5
        return bitops.pack_bits(product)

    def support_any(self, matrix_words, alive_words, seg_byte_starts, *, out=None):
        # The sweep is reduction-bound, not matmul-bound; run it packed.
        return PackedBackend().support_any(
            matrix_words, alive_words, seg_byte_starts, out=out
        )


def _cupy_factory() -> KernelBackend:
    try:
        return CuPyBackend()
    except ImportError:
        raise KernelBackendUnavailable("cupy is not installed") from None


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
    _REGISTRY.setdefault("cupy", _cupy_factory)
    _REGISTRY.setdefault("native", _native_factory)
    _REGISTRY.setdefault("auto", _auto_factory)
