"""The extracted kernel core: bitops and the backend registry.

* :mod:`repro.kernels.bitops` — dense pack/unpack, single-bit access,
  and the word-level primitives, checked against plain boolean numpy
  over shapes with NV % 64 != 0 trailing words;
* every backend's ``rows_intersect`` and inherited ``bmm`` against
  boolean references over non-square, empty and word-straddling
  operands;
* :mod:`repro.kernels.backend` — registry resolution (env var,
  explicit name, instance passthrough), the unavailable-backend
  fallback contract, and end-to-end bit-identity of ``packed`` vs
  ``numpy`` across every registered engine;
* the ``native`` backend's C boundary and the ``auto`` backend's
  calibration races and persisted dispatch table.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.engines.registry import available_engines
from repro.errors import ReproError
from repro.grammar.builtin import program_grammar
from repro.kernels import bitops
from repro.kernels.backend import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KernelBackend,
    KernelBackendUnavailable,
    PackedBackend,
    PlanesBackend,
    available_backends,
    create_backend,
    default_backend,
    probe_backend,
    register_backend,
    reset_backend_cache,
    resolve_backend_name,
)
from repro.kernels import autotune
from repro.kernels import backend as backend_mod
from repro.kernels.native import build as native_build
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.pipeline.session import ParserSession


def random_bools(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape) < 0.5


def bmm_reference(a_plane: np.ndarray, b_plane: np.ndarray) -> np.ndarray:
    """O(m*k*n) broadcast Boolean matrix product on boolean planes."""
    return (a_plane[:, :, None] & b_plane[None, :, :]).any(axis=1)


# ---------------------------------------------------------------------------
# bitops


class TestBitops:
    @pytest.mark.parametrize("n_bits", [1, 7, 63, 64, 65, 127, 128, 200])
    def test_pack_unpack_roundtrip_odd_widths(self, n_bits):
        rng = np.random.default_rng(n_bits)
        for shape in ((n_bits,), (5, n_bits), (3, 4, n_bits)):
            bools = random_bools(rng, shape)
            words = bitops.pack_bits(bools)
            assert words.dtype == bitops.WORD_DTYPE
            # Trailing-word padding must stay clear: popcount over the
            # raw words is exact.
            assert bitops.count_ones(words) == int(bools.sum())
            np.testing.assert_array_equal(bitops.unpack_bits(words, n_bits), bools)

    def test_set_and_test_bit_trailing_word(self):
        row = np.zeros(2, dtype=bitops.WORD_DTYPE)
        for index in (0, 63, 64, 70):
            assert not bitops.test_bit(row, index)
            bitops.set_bit(row, index)
            assert bitops.test_bit(row, index)
        assert bitops.count_ones(row) == 4

    def test_and_accumulate_returns_popcount_delta(self):
        rng = np.random.default_rng(3)
        target_bools = random_bools(rng, 130)
        mask_bools = random_bools(rng, 130)
        target = bitops.pack_bits(target_bools)
        mask = bitops.pack_bits(mask_bools)
        removed = bitops.and_accumulate(target, mask)
        assert removed == int((target_bools & ~mask_bools).sum())
        np.testing.assert_array_equal(
            bitops.unpack_bits(target, 130), target_bools & mask_bools
        )

    def test_empty_operands(self):
        empty = np.zeros(0, dtype=bitops.WORD_DTYPE)
        assert bitops.count_ones(empty) == 0
        assert bitops.and_accumulate(empty, empty) == 0
        assert bitops.pack_bits(np.zeros((0, 5), dtype=bool)).shape == (0, 1)

    def test_set_bits_scatters_across_words_and_repeats(self):
        words = np.zeros((3, 4, 2), dtype=bitops.WORD_DTYPE)
        rows = (np.array([0, 2, 2, 2, 1]), np.array([1, 3, 3, 3, 0]))
        bits = np.array([70, 0, 63, 63, 64])  # a repeated target, both words
        bitops.set_bits(words, rows, bits)
        expected = np.zeros((3, 4, 128), dtype=bool)
        expected[rows + (bits,)] = True
        np.testing.assert_array_equal(bitops.unpack_bits(words, 128), expected)
        bitops.set_bits(words, (np.array([], int), np.array([], int)), np.array([], int))
        assert bitops.count_ones(words) == 4


#: Every kernel backend the row-pair primitive must agree on.
ALL_BACKENDS = ["packed", "numpy", "native", "auto"]


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestRowsIntersect:
    """``rows_intersect`` — CYK's span-combination step — on every
    backend against ``(a & b).any()`` over the unpacked booleans."""

    @pytest.fixture
    def backend(self, backend_name):
        backend = probe_backend(backend_name)
        if backend is None:
            pytest.skip(f"kernel backend {backend_name!r} cannot run on this host")
        return backend

    @pytest.mark.parametrize("n_bits", [1, 7, 63, 64, 65, 129])
    def test_matches_reference_on_odd_widths(self, backend, n_bits):
        rng = np.random.default_rng(n_bits)
        for shape in ((n_bits,), (9, n_bits), (4, 6, n_bits)):
            # Sparse rows, so both outcomes occur.
            a = rng.random(shape) < 2.0 / n_bits
            b = rng.random(shape) < 2.0 / n_bits
            got = backend.rows_intersect(bitops.pack_bits(a), bitops.pack_bits(b))
            np.testing.assert_array_equal(got, (a & b).any(axis=-1))

    def test_one_word_rows(self, backend):
        a = np.array([[0b0110], [0b1000], [0], [1 << 63]], dtype=bitops.WORD_DTYPE)
        b = np.array([[0b0100], [0b0111], [~np.uint64(0)], [1 << 63]], dtype=bitops.WORD_DTYPE)
        assert backend.rows_intersect(a, b).tolist() == [True, False, False, True]

    def test_empty_operands(self, backend):
        no_rows = np.zeros((0, 3), dtype=bitops.WORD_DTYPE)
        assert backend.rows_intersect(no_rows, no_rows).shape == (0,)
        no_words = np.zeros((2, 5, 0), dtype=bitops.WORD_DTYPE)
        got = backend.rows_intersect(no_words, no_words)
        assert got.shape == (2, 5) and not got.any()


# ---------------------------------------------------------------------------
# bmm


BMM_SHAPES = [
    (1, 1, 1),
    (3, 70, 5),  # k spans two words; m, n tiny
    (17, 129, 66),  # every dimension straddles a word boundary
    (64, 64, 64),
    (100, 200, 130),
    (0, 10, 4),  # empty m
    (4, 0, 7),  # empty k
    (5, 3, 0),  # empty n
]


class TestBMM:
    """``bmm`` — one base-class bit-plane product every backend inherits."""

    @pytest.mark.parametrize("shape", BMM_SHAPES, ids=str)
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_matches_reference(self, shape, backend_name):
        backend = probe_backend(backend_name)
        if backend is None:
            pytest.skip(f"kernel backend {backend_name!r} cannot run on this host")
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 10 + n)
        a_plane = random_bools(rng, (m, k))
        b_plane = random_bools(rng, (k, n))
        b_bits = bitops.pack_bits(b_plane)
        out = backend.bmm(bitops.pack_bits(a_plane), b_bits)
        expected = bmm_reference(a_plane, b_plane)
        assert out.shape == (m, b_bits.shape[1])
        np.testing.assert_array_equal(bitops.unpack_bits(out, n), expected)
        # Non-square + NV % 64 != 0: padding in the product must stay
        # clear, or downstream popcounts drift.
        assert bitops.count_ones(out) == int(expected.sum())

    def test_rejects_mismatched_inner_dimension(self):
        a = np.zeros((2, 1), dtype=bitops.WORD_DTYPE)
        b = np.zeros((100, 1), dtype=bitops.WORD_DTYPE)
        with pytest.raises(ValueError):
            PackedBackend().bmm(a, b)

    def test_rejects_non_2d(self):
        a = np.zeros(1, dtype=bitops.WORD_DTYPE)
        with pytest.raises(ValueError):
            PackedBackend().bmm(a, a)


# ---------------------------------------------------------------------------
# backend registry


#: A backend registered by the tests whose factory never succeeds.
UNAVAILABLE = "test-unavailable"


@pytest.fixture
def unavailable_backend():
    """Register :data:`UNAVAILABLE`; drop it (and its memo) afterwards."""

    def factory() -> KernelBackend:
        raise KernelBackendUnavailable("test backend never available")

    register_backend(UNAVAILABLE, factory)
    yield UNAVAILABLE
    backend_mod._REGISTRY.pop(UNAVAILABLE, None)
    backend_mod._INSTANCES.pop(UNAVAILABLE, None)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("auto", "native", "numpy", "packed")

    def test_unknown_name_raises_and_lists_available(self):
        with pytest.raises(ReproError, match="packed"):
            create_backend("no-such-backend")

    def test_instance_passes_through(self):
        instance = PlanesBackend()
        assert create_backend(instance) is instance

    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert create_backend(None).name == DEFAULT_BACKEND

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert create_backend(None).name == "numpy"
        assert default_backend().name == "numpy"

    def test_unavailable_backend_falls_back_with_warning(self, unavailable_backend):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = create_backend(unavailable_backend)
        assert backend.name == DEFAULT_BACKEND
        # The fallback instance is memoized under the requested name:
        # exactly one warning per process, later calls are silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert create_backend(unavailable_backend) is backend

    def test_registered_unavailable_backend_falls_back(self, unavailable_backend):
        with pytest.warns(RuntimeWarning, match=unavailable_backend):
            backend = create_backend(unavailable_backend)
        assert backend.name == DEFAULT_BACKEND

    def test_resolution_order_explicit_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend_name("packed") == "packed"  # explicit wins
        assert resolve_backend_name(None) == "numpy"  # then env
        monkeypatch.delenv(ENV_VAR)
        assert resolve_backend_name(None) == DEFAULT_BACKEND  # then default

    def test_create_and_default_share_one_resolution(self, monkeypatch):
        # Regression: create_backend re-read the environment while
        # default_backend memoized, so the two could answer differently
        # in one process.  Both now go through resolve_backend_name and
        # the same per-name instance memo.
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert create_backend(None) is default_backend()
        assert default_backend().name == "numpy"
        monkeypatch.delenv(ENV_VAR)
        assert create_backend(None) is default_backend()
        assert default_backend().name == DEFAULT_BACKEND

    def test_available_backends_deterministic_sorted(self):
        names = available_backends()
        assert names == tuple(sorted(names))
        assert names == available_backends()
        assert "native" in names
        assert "auto" in names

    def test_probe_returns_none_without_fallback(self, unavailable_backend):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert probe_backend(unavailable_backend) is None
            assert probe_backend("no-such-backend") is None
        assert probe_backend(DEFAULT_BACKEND) is not None

    def test_support_any_backends_agree(self):
        role_slices = (slice(0, 5), slice(5, 17), slice(17, 90))
        layout = BitLayout(role_slices)
        rng = np.random.default_rng(11)
        matrix_bools = random_bools(rng, (layout.nv, layout.nv))
        alive_bools = random_bools(rng, layout.nv)
        matrix = bitset.pack_rows(matrix_bools, layout)
        alive = bitset.pack_rows(alive_bools, layout)
        packed = PackedBackend().support_any(
            matrix, alive, layout.seg_byte_starts
        )
        planes = PlanesBackend().support_any(
            matrix, alive, layout.seg_byte_starts
        )
        np.testing.assert_array_equal(packed, planes)
        # And both match the set-level truth: segment s of row a holds
        # an alive partner.
        live = matrix_bools & alive_bools[None, :]
        expected = np.stack(
            [live[:, sl].any(axis=1) for sl in role_slices], axis=1
        )
        np.testing.assert_array_equal(packed, expected)


# ---------------------------------------------------------------------------
# end-to-end bit-identity across engines


class TestSessionBackendIdentity:
    SENTENCES = [["the", "program", "runs"], ["a", "program", "runs"]]

    @pytest.mark.parametrize("engine", available_engines())
    def test_packed_and_numpy_backends_bit_identical(self, engine):
        grammar = program_grammar()
        for words in self.SENTENCES:
            results = {}
            for backend in ("packed", "numpy"):
                session = ParserSession(grammar, engine=engine, backend=backend)
                result = session.parse(words)
                assert result.stats.extra["kernel_backend"] == backend
                results[backend] = result
            a, b = results["packed"], results["numpy"]
            assert a.locally_consistent == b.locally_consistent
            assert a.ambiguous == b.ambiguous
            np.testing.assert_array_equal(
                a.network.alive_bits, b.network.alive_bits
            )
            np.testing.assert_array_equal(
                a.network.matrix_bits, b.network.matrix_bits
            )

    def test_session_records_backend_name(self):
        session = ParserSession(program_grammar(), backend="numpy")
        result = session.parse(["the", "program", "runs"])
        assert result.stats.extra["kernel_backend"] == "numpy"
        assert isinstance(session.kernel_backend, PlanesBackend)


# ---------------------------------------------------------------------------
# native compiled backend

requires_compiler = pytest.mark.skipif(
    native_build.find_compiler() is None,
    reason="no C compiler on this host (native backend falls back)",
)


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a compiler-less host: bogus CC, empty build cache.

    Both knobs matter — a previously built .so in the real cache would
    load fine without any compiler, hiding the path under test.
    """
    monkeypatch.setenv(native_build.ENV_CC, str(tmp_path / "no-such-cc"))
    monkeypatch.setenv(native_build.ENV_CACHE, str(tmp_path / "native-cache"))
    reset_backend_cache()
    yield
    reset_backend_cache()


@requires_compiler
class TestNativeBackend:
    def test_support_any_matches_packed(self):
        role_slices = (slice(0, 5), slice(5, 17), slice(17, 90))
        layout = BitLayout(role_slices)
        rng = np.random.default_rng(23)
        matrix = bitset.pack_rows(random_bools(rng, (layout.nv, layout.nv)), layout)
        alive = bitset.pack_rows(random_bools(rng, layout.nv), layout)
        native = create_backend("native")
        expected = PackedBackend().support_any(matrix, alive, layout.seg_byte_starts)
        got = native.support_any(matrix, alive, layout.seg_byte_starts)
        assert got.dtype == np.dtype(bool)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "starts",
        [[0, 4000], [-8, 0], [0, -1], [[0, 8]]],
        ids=["past-row", "negative-start", "negative-next-start", "not-1d"],
    )
    def test_support_any_rejects_bad_segment_starts(self, starts):
        # The C loop reads bytes [starts[s], starts[s + 1]) of each row:
        # a start past the row reads beyond the buffer, and a negative
        # next start wraps to a huge size_t bound.  The wrapper refuses.
        native = create_backend("native")
        matrix = np.zeros((2, 1), dtype=bitops.WORD_DTYPE)
        alive = np.zeros(1, dtype=bitops.WORD_DTYPE)
        with pytest.raises(ReproError, match="segment starts"):
            native.support_any(matrix, alive, np.array(starts, dtype=np.int64))

    def test_and_accumulate_matches_packed(self):
        rng = np.random.default_rng(31)
        target_bools = random_bools(rng, (37, 130))
        mask_bools = random_bools(rng, (37, 130))
        a = bitops.pack_bits(target_bools)
        b = a.copy()
        mask = bitops.pack_bits(mask_bools)
        native = create_backend("native")
        delta_packed = PackedBackend().and_accumulate(a, mask)
        delta_native = native.and_accumulate(b, mask)
        assert delta_native == delta_packed
        np.testing.assert_array_equal(a, b)
        assert native.count_ones(b) == bitops.count_ones(a)

    def test_in_place_target_must_be_writable_words(self):
        native = create_backend("native")
        mask = np.zeros((2, 2), dtype=bitops.WORD_DTYPE)
        with pytest.raises(ReproError, match="'<u8'"):
            native.and_accumulate(np.zeros((2, 2), dtype=np.uint32), mask)
        frozen = np.zeros((2, 2), dtype=bitops.WORD_DTYPE)
        frozen.setflags(write=False)
        with pytest.raises(ReproError, match="writable"):
            native.and_accumulate(frozen, mask)

    def test_session_parse_bit_identical_to_packed(self):
        grammar = program_grammar()
        words = ["the", "program", "runs"]
        ref = ParserSession(grammar, backend="packed").parse(words)
        got = ParserSession(grammar, backend="native").parse(words)
        assert got.stats.extra["kernel_backend"] == "native"
        assert got.locally_consistent == ref.locally_consistent
        np.testing.assert_array_equal(got.network.alive_bits, ref.network.alive_bits)
        np.testing.assert_array_equal(got.network.matrix_bits, ref.network.matrix_bits)


class TestNativeFallback:
    def test_no_compiler_degrades_to_packed_with_one_warning(self, no_toolchain):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = create_backend("native")
        assert backend.name == DEFAULT_BACKEND
        # Warn once per process: the fallback instance is memoized.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert create_backend("native") is backend

    def test_no_compiler_session_still_parses(self, no_toolchain):
        with pytest.warns(RuntimeWarning, match="falling back"):
            session = ParserSession(program_grammar(), backend="native")
        result = session.parse(["the", "program", "runs"])
        assert result.locally_consistent
        assert result.stats.extra["kernel_backend"] == DEFAULT_BACKEND

    def test_find_compiler_env_override_must_exist(self, no_toolchain):
        assert native_build.find_compiler() is None


# ---------------------------------------------------------------------------
# profile-guided auto backend


@pytest.fixture
def fresh_auto(monkeypatch, tmp_path):
    """An AutoBackend with its persisted table isolated to tmp_path."""
    monkeypatch.setenv(autotune.ENV_CACHE, str(tmp_path / "autotune.json"))
    reset_backend_cache("auto")
    yield autotune.AutoBackend()
    reset_backend_cache("auto")


def support_operands(rng: np.random.Generator, rows: int, cols: int):
    """A (matrix, alive, seg_byte_starts) ``support_any`` operand triple."""
    matrix = bitops.pack_bits(random_bools(rng, (rows, cols)))
    alive = bitops.pack_bits(random_bools(rng, cols))
    seg_starts = np.arange(0, matrix.shape[1] * 8, 3, dtype=np.int64)
    return matrix, alive, seg_starts


class TestAutoBackend:
    def test_support_any_identity_and_single_calibration_per_bucket(self, fresh_auto):
        rng = np.random.default_rng(5)
        operands = support_operands(rng, 100, 130)
        expected = PackedBackend().support_any(*operands)
        np.testing.assert_array_equal(fresh_auto.support_any(*operands), expected)
        assert fresh_auto.calibrations == 1
        np.testing.assert_array_equal(fresh_auto.support_any(*operands), expected)
        assert fresh_auto.calibrations == 1  # same bucket: dispatch, no re-race

    def test_empty_operands_skip_calibration(self, fresh_auto):
        matrix, alive, seg_starts = support_operands(np.random.default_rng(0), 0, 70)
        assert fresh_auto.support_any(matrix, alive, seg_starts).shape == (0, len(seg_starts))
        assert fresh_auto.count_ones(np.zeros(0, dtype=bitops.WORD_DTYPE)) == 0
        assert fresh_auto.calibrations == 0

    def test_and_accumulate_race_preserves_in_place_contract(self, fresh_auto):
        rng = np.random.default_rng(13)
        target = bitops.pack_bits(random_bools(rng, (20, 100)))
        mask = bitops.pack_bits(random_bools(rng, (20, 100)))
        reference = target.copy()
        delta_ref = PackedBackend().and_accumulate(reference, mask)
        delta = fresh_auto.and_accumulate(target, mask)
        assert delta == delta_ref
        np.testing.assert_array_equal(target, reference)

    def test_dispatch_table_round_trips_through_cache_file(self, fresh_auto):
        rng = np.random.default_rng(3)
        operands = support_operands(rng, 64, 64)
        fresh_auto.support_any(*operands)
        fresh_auto.count_ones(operands[0])
        assert fresh_auto.calibrations == 2
        table = fresh_auto.dispatch_snapshot()
        record = json.loads(autotune.cache_path().read_text())
        assert record["version"] == autotune.CACHE_VERSION
        assert record["host"] == autotune.host_fingerprint()
        assert record["table"] == table
        # A second "process" (fresh instance, same cache file) loads
        # the table and never re-races.
        second = autotune.AutoBackend()
        assert second.dispatch_snapshot() == table
        np.testing.assert_array_equal(
            second.support_any(*operands), fresh_auto.support_any(*operands)
        )
        assert second.calibrations == 0

    def test_foreign_host_table_is_ignored(self, fresh_auto, monkeypatch, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({
            "version": autotune.CACHE_VERSION,
            "host": {"platform": "elsewhere", "machine": "pdp11", "cpu_count": 1},
            "table": {"support_any:20": "numpy"},
        }))
        monkeypatch.setenv(autotune.ENV_CACHE, str(path))
        assert autotune.AutoBackend().dispatch_snapshot() == {}

    def test_older_version_table_is_ignored(self, fresh_auto, monkeypatch, tmp_path):
        # Version 1 tables carry buckets for the retired bmm kernel.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "version": autotune.CACHE_VERSION - 1,
            "host": autotune.host_fingerprint(),
            "table": {"bmm:20": "packed"},
        }))
        monkeypatch.setenv(autotune.ENV_CACHE, str(path))
        assert autotune.AutoBackend().dispatch_snapshot() == {}

    def test_race_skips_candidates_sharing_the_reference_kernel(self, fresh_auto, monkeypatch):
        # numpy inherits packed's count_ones and and_accumulate but has
        # its own support_any: only the latter is a real alternative.
        numpy_backend = probe_backend("numpy")
        monkeypatch.setattr(fresh_auto, "_candidates", lambda: [numpy_backend])
        for kernel, raced in (
            ("count_ones", {"packed"}),
            ("and_accumulate", {"packed"}),
            ("support_any", {"packed", "numpy"}),
        ):
            timed: list[str] = []

            def run(candidate, timed=timed):
                timed.append(candidate.name)
                return 0

            fresh_auto._race(kernel, 9, run, lambda ref, got: ref == got)
            assert set(timed) == raced, kernel
        table = fresh_auto.dispatch_snapshot()
        assert table["count_ones:9"] == table["and_accumulate:9"] == "packed"

    def test_inherited_kernels_always_dispatch_to_packed(self, fresh_auto, monkeypatch):
        monkeypatch.setattr(fresh_auto, "_candidates", lambda: [probe_backend("numpy")])
        rng = np.random.default_rng(23)
        for rows in (1, 20, 300):
            target = bitops.pack_bits(random_bools(rng, (rows, 100)))
            mask = bitops.pack_bits(random_bools(rng, (rows, 100)))
            fresh_auto.count_ones(target)
            fresh_auto.and_accumulate(target, mask)
        table = fresh_auto.dispatch_snapshot()
        assert table and set(table.values()) == {"packed"}

    def test_disagreeing_candidate_is_excluded(self, fresh_auto):
        class LyingBackend(KernelBackend):
            name = "lying"

            def support_any(self, matrix_words, alive_words, seg_byte_starts, *, out=None):
                got = PackedBackend().support_any(matrix_words, alive_words, seg_byte_starts)
                got[...] = False  # fast and wrong
                return got

        register_backend("lying", LyingBackend)
        try:
            rng = np.random.default_rng(17)
            operands = support_operands(rng, 80, 80)
            expected = PackedBackend().support_any(*operands)
            assert expected.any()
            with pytest.warns(RuntimeWarning, match="lying.*disagreed"):
                got = fresh_auto.support_any(*operands)
            np.testing.assert_array_equal(got, expected)
            table = fresh_auto.dispatch_snapshot()
            assert all(winner != "lying" for winner in table.values())
            # Excluded for good: later buckets never race it again.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                big = support_operands(rng, 160, 160)
                np.testing.assert_array_equal(
                    fresh_auto.support_any(*big), PackedBackend().support_any(*big)
                )
        finally:
            backend_mod._REGISTRY.pop("lying", None)
            backend_mod._INSTANCES.pop("lying", None)

    def test_session_surfaces_dispatch_table(self, monkeypatch, tmp_path):
        monkeypatch.setenv(autotune.ENV_CACHE, str(tmp_path / "autotune.json"))
        reset_backend_cache("auto")
        try:
            session = ParserSession(program_grammar(), backend="auto")
            result = session.parse(["the", "program", "runs"])
            assert result.stats.extra["kernel_backend"] == "auto"
            dispatch = result.stats.extra["kernel_dispatch"]
            assert isinstance(dispatch, dict)
            known = set(available_backends())
            assert all(winner in known for winner in dispatch.values())
        finally:
            reset_backend_cache("auto")
