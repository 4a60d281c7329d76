"""Unit tests for the CSF data structure."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.registry import all_dataset_names
from repro.tensor import COOTensor, CSFTensor, random_coo
from repro.tensor.coo import pack_lex_keys
from repro.kernels import csf_build
from repro.kernels.native import NativeUnavailable
from repro.parallel.executor import resolve_executor
from repro.tensor.csf import (
    AllModeCSF,
    build_trees,
    default_mode_order,
    derive_permutation,
    rooted_tree,
)
from repro.testing.oracles import lexsort_csf_reference


def assert_same_tree_bytes(tensor, order, got=None):
    """*got* (default: ``from_coo``) matches the lexsort reference in
    bytes and dtypes."""
    if got is None:
        got = CSFTensor.from_coo(tensor, order)
    ref = lexsort_csf_reference(tensor, order)
    assert got.mode_order == ref.mode_order
    assert len(got.fids) == len(ref.fids) == tensor.nmodes
    assert len(got.fptr) == len(ref.fptr) == tensor.nmodes - 1
    for a, b in zip(got.fids + got.fptr + [got.vals],
                    ref.fids + ref.fptr + [ref.vals]):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def random_tensor(shape, nnz, seed, duplicates=False):
    """Uniform coordinates over *shape* (any extent up to 2**62)."""
    rng = np.random.default_rng(seed)
    coords = np.vstack([rng.integers(0, extent, nnz) for extent in shape])
    if duplicates and nnz > 1:
        # Every coordinate of the second half repeats one of the first.
        half = nnz // 2
        coords[:, half:] = coords[:, :nnz - half]
    return COOTensor(coords, rng.standard_normal(nnz), shape)


class TestConstruction:
    def test_round_trip_default_order(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        assert csf.to_coo() == small_tensor

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0),
                                       (1, 2, 0)])
    def test_round_trip_any_order(self, small_tensor, order):
        csf = CSFTensor.from_coo(small_tensor, order)
        assert csf.to_coo() == small_tensor

    def test_round_trip_four_modes(self, four_mode_tensor):
        csf = CSFTensor.from_coo(four_mode_tensor, (2, 0, 3, 1))
        assert csf.to_coo() == four_mode_tensor

    def test_rejects_bad_order(self, small_tensor):
        with pytest.raises(ValueError, match="permutation"):
            CSFTensor.from_coo(small_tensor, (0, 0, 1))

    def test_empty_tensor(self):
        t = COOTensor(np.empty((3, 0), dtype=np.int64), np.empty(0),
                      (4, 5, 6))
        csf = CSFTensor.from_coo(t)
        assert csf.nnz == 0
        assert csf.to_coo().nnz == 0

    def test_matrix_csf_matches_csr_structure(self):
        # A 2-mode CSF is exactly CSR: roots = rows, leaves = entries.
        t = COOTensor.from_arrays(
            [np.array([0, 0, 2]), np.array([1, 3, 0])],
            np.array([1.0, 2.0, 3.0]), shape=(3, 4))
        csf = CSFTensor.from_coo(t)
        assert csf.nslices == 2  # rows 0 and 2
        np.testing.assert_array_equal(csf.fids[0], [0, 2])
        np.testing.assert_array_equal(csf.fptr[0], [0, 2, 3])
        np.testing.assert_array_equal(csf.fids[1], [1, 3, 0])


class TestBitwiseAgainstLexsortReference:
    @pytest.mark.parametrize("name", all_dataset_names())
    def test_every_mode_order_of_tiny_presets(self, name):
        tensor, _ = load_dataset(name, "tiny", seed=3)
        for order in itertools.permutations(range(tensor.nmodes)):
            assert_same_tree_bytes(tensor, order)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_duplicates_are_kept_in_stable_order(self, order):
        tensor = random_tensor((5, 4, 6), 300, seed=1, duplicates=True)
        assert tensor.deduplicate().nnz < tensor.nnz
        assert_same_tree_bytes(tensor, order)

    @pytest.mark.parametrize("shape", [(17,), (6, 5, 7, 4), (4, 3, 5, 2, 3),
                                       (1, 9, 1), (1,), (1, 1, 1)])
    def test_one_four_and_five_modes_and_unit_extents(self, shape):
        tensor = random_tensor(shape, 200, seed=2, duplicates=True)
        for order in itertools.permutations(range(len(shape))):
            assert_same_tree_bytes(tensor, order)

    @pytest.mark.parametrize("shape", [(2**31, 2**31, 7),
                                       (2**32, 2**31, 2),
                                       (2**40, 3, 2**40),
                                       (2**40, 2**40, 2**40, 2**40),
                                       (2**62, 2**62)])
    def test_multi_word_keys(self, shape):
        tensor = random_tensor(shape, 400, seed=3, duplicates=True)
        words = pack_lex_keys(tensor.coords, tensor.shape,
                              range(len(shape)))
        assert len(words) > 1
        for order in itertools.permutations(range(len(shape))):
            assert_same_tree_bytes(tensor, order)

    @pytest.mark.parametrize("nmodes", [1, 3])
    def test_empty_tensor(self, nmodes):
        tensor = COOTensor(np.empty((nmodes, 0), dtype=np.int64),
                           np.empty(0), (4, 5, 6)[:nmodes])
        assert_same_tree_bytes(tensor, tuple(range(nmodes)))

    def test_coordinate_mutated_out_of_range_raises(self, small_tensor):
        small_tensor.coords[1, 5] = small_tensor.shape[1]
        for order in [(0, 1, 2), (1, 2, 0)]:
            with pytest.raises(ValueError, match="out of range"):
                CSFTensor.from_coo(small_tensor, order)
        small_tensor.coords[1, 5] = -1
        with pytest.raises(ValueError, match="negative index"):
            CSFTensor.from_coo(small_tensor)


class TestAllModeTreesFromOneSort:
    """Every ``AllModeCSF`` tree derives its order from tree 0's sort by
    radix passes over its root mode, and must still match the lexsort
    reference byte for byte."""

    @staticmethod
    def assert_all_trees(tensor, modes=None):
        trees = AllModeCSF(tensor)
        if modes is None:
            trees.build_all()
            modes = range(tensor.nmodes)
        for mode in modes:
            assert_same_tree_bytes(
                tensor, default_mode_order(tensor.nmodes, mode),
                got=trees.csf(mode))

    @pytest.mark.parametrize("name", all_dataset_names())
    def test_tiny_presets(self, name):
        tensor, _ = load_dataset(name, "tiny", seed=3)
        self.assert_all_trees(tensor)

    @pytest.mark.parametrize("shape", [(5, 4, 6), (17,), (6, 5, 7, 4),
                                       (4, 3, 5, 2, 3), (1, 9, 1), (1,),
                                       (1, 1, 1), (9, 1, 2**20)])
    def test_duplicates_unit_extents_and_mode_counts(self, shape):
        tensor = random_tensor(shape, 300, seed=5, duplicates=True)
        self.assert_all_trees(tensor)

    @pytest.mark.parametrize("shape", [(70000, 7, 5), (7, 70000, 65536),
                                       (3, 65537, 2, 70000)])
    def test_modes_longer_than_one_digit(self, shape):
        tensor = random_tensor(shape, 5000, seed=6, duplicates=True)
        self.assert_all_trees(tensor)

    def test_mode_longer_than_two_digits(self):
        # 2**32 + 5 needs 33 bits: three 16-bit passes, the last over
        # a digit that only the planted coordinates set.
        extent = 2**32 + 5
        tensor = random_tensor((4, extent, 3), 400, seed=7, duplicates=True)
        coords = tensor.coords.copy()
        coords[1, ::7] = extent - 1 - coords[1, ::7] % 5
        coords[1, 3::11] = 2**32 - 1 - coords[1, 3::11] % 3
        tensor = COOTensor(coords, tensor.vals, tensor.shape)
        assert (tensor.coords[1] >> 32).any()
        self.assert_all_trees(tensor)

    @pytest.mark.parametrize("nmodes", [1, 3, 4])
    def test_empty_tensor(self, nmodes):
        tensor = COOTensor(np.empty((nmodes, 0), dtype=np.int64),
                           np.empty(0), (4, 5, 6, 7)[:nmodes])
        self.assert_all_trees(tensor)

    def test_lazy_trees_in_any_order(self):
        tensor = random_tensor((30, 70000, 20), 2000, seed=8,
                               duplicates=True)
        self.assert_all_trees(tensor, modes=[2, 0, 1])
        self.assert_all_trees(tensor, modes=[1])

    @pytest.mark.parametrize("requests,sorts", [
        (None, 1), ([2, 0, 1], 1), ([0], 1), ([0, 1, 2], 2)])
    def test_one_sort_serves_every_tree(self, monkeypatch, small_tensor,
                                        requests, sorts):
        # A lone tree 0 (ONEMODE) keeps no permutation, so a later
        # non-root tree sorts again.
        calls = []
        sort = COOTensor.permutation_lex
        monkeypatch.setattr(COOTensor, "permutation_lex",
                            lambda t, *a: calls.append(a) or sort(t, *a))
        trees = AllModeCSF(small_tensor)
        if requests is None:
            trees.build_all()
        else:
            for mode in requests:
                trees.csf(mode)
        assert len(calls) == sorts

    def test_coordinates_validated_before_any_digit_is_cut(self,
                                                           small_tensor):
        small_tensor.coords[1, 5] = small_tensor.shape[1]
        with pytest.raises(ValueError, match="out of range"):
            AllModeCSF(small_tensor).csf(1)
        small_tensor.coords[1, 5] = -1
        with pytest.raises(ValueError, match="negative index"):
            AllModeCSF(small_tensor).build_all()


def planted_high_digits(shape, mode, nnz=400, seed=7):
    """:func:`random_tensor` with coordinates planted at the top of
    *mode*'s extent, so its most significant 16-bit digit is set."""
    tensor = random_tensor(shape, nnz, seed=seed, duplicates=True)
    coords = tensor.coords.copy()
    extent = shape[mode]
    coords[mode, ::7] = extent - 1 - coords[mode, ::7] % 5
    return COOTensor(coords, tensor.vals, tensor.shape)


@pytest.fixture
def builder():
    found = csf_build.tree_builder()
    if found is None:
        pytest.skip("compiled CSF construction unavailable on this machine")
    return found


class TestCompiledConstruction:
    """The compiled builder, the NumPy construction and the lexsort
    reference build the same tree, byte for byte and dtype for dtype."""

    @staticmethod
    def assert_three_agree(tensor):
        # The builder fixture resolved the compiled builder, so
        # rooted_tree builds through it.
        perm0 = tensor.permutation_lex()
        for root in range(tensor.nmodes):
            order = default_mode_order(tensor.nmodes, root)
            numpy_tree = CSFTensor._from_permutation(
                tensor, order, derive_permutation(tensor, perm0, root))
            assert_same_tree_bytes(tensor, order, got=numpy_tree)
            assert_same_tree_bytes(tensor, order,
                                   got=rooted_tree(tensor, perm0, root))

    @pytest.mark.parametrize("name", all_dataset_names())
    def test_tiny_presets(self, builder, name):
        tensor, _ = load_dataset(name, "tiny", seed=3)
        self.assert_three_agree(tensor)

    @pytest.mark.parametrize("shape", [(5, 4, 6), (7, 9), (6, 5, 7),
                                       (6, 5, 7, 4), (4, 3, 5, 2, 3),
                                       (17,), (1, 9, 1), (1, 1, 1),
                                       (9, 1, 3)])
    def test_duplicates_mode_counts_and_unit_extents(self, builder, shape):
        tensor = random_tensor(shape, 300, seed=5, duplicates=True)
        assert tensor.deduplicate().nnz < tensor.nnz
        self.assert_three_agree(tensor)

    @pytest.mark.parametrize("shape", [(65536, 65537, 70000),
                                       (70000, 3, 65536, 2)])
    def test_extents_around_one_digit(self, builder, shape):
        for mode in range(len(shape)):
            self.assert_three_agree(
                planted_high_digits(shape, mode, nnz=3000))

    def test_three_digit_passes(self, builder):
        tensor = planted_high_digits((4, 2**32 + 5, 3), 1)
        assert (tensor.coords[1] >> 32).any()
        self.assert_three_agree(tensor)

    @pytest.mark.parametrize("nmodes", [1, 3, 5])
    def test_empty_tensor(self, builder, nmodes):
        tensor = COOTensor(np.empty((nmodes, 0), dtype=np.int64),
                           np.empty(0), (4, 5, 6, 7, 8)[:nmodes])
        self.assert_three_agree(tensor)
        trees = build_trees(tensor, tensor.permutation_lex(),
                            range(nmodes))
        for mode, tree in enumerate(trees):
            assert_same_tree_bytes(
                tensor, default_mode_order(nmodes, mode), got=tree)

    def test_lazy_tree_before_tree_zero(self, builder):
        tensor = random_tensor((30, 70000, 20), 2000, seed=8,
                               duplicates=True)
        trees = AllModeCSF(tensor)
        for mode in (2, 0, 1):
            assert_same_tree_bytes(tensor, default_mode_order(3, mode),
                                   got=trees.csf(mode))

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_build_all_on_any_executor(self, executor, threads):
        tensor, _ = load_dataset("reddit", "tiny", seed=3)
        want = [lexsort_csf_reference(tensor, default_mode_order(3, m))
                for m in range(3)]
        trees = AllModeCSF(tensor).build_all(resolve_executor(executor),
                                             threads)
        for mode, ref in enumerate(want):
            assert_same_tree_bytes(tensor, ref.mode_order,
                                   got=trees.csf(mode))

    def test_unavailable_library_falls_back_with_equal_bytes(
            self, monkeypatch):
        tensor = random_tensor((70000, 7, 5), 2000, seed=9, duplicates=True)

        def unavailable():
            raise NativeUnavailable("no library")

        csf_build.reset()
        monkeypatch.setattr(csf_build, "load_builder", unavailable)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = AllModeCSF(tensor).build_all(
                    resolve_executor("thread"), 2)
                second = AllModeCSF(tensor).build_all()
            assert csf_build.tree_builder() is None
        finally:
            csf_build.reset()
        ours = [w for w in caught if "compiled CSF construction "
                "unavailable" in str(w.message)]
        assert len(ours) == 1
        assert issubclass(ours[0].category, RuntimeWarning)
        for trees in (first, second):
            for mode in range(3):
                assert_same_tree_bytes(tensor, default_mode_order(3, mode),
                                       got=trees.csf(mode))

    def test_bad_coordinates_raise_before_any_compiled_call(
            self, builder, monkeypatch, small_tensor):
        calls = []
        for step in ("plan", "fill"):
            run = getattr(csf_build.TreePlan, step)
            monkeypatch.setattr(
                csf_build.TreePlan, step,
                lambda plan, run=run, step=step:
                    calls.append(step) or run(plan))
        for bad, match in ((small_tensor.shape[2], "out of range"),
                           (-1, "negative index")):
            small_tensor.coords[2, 5] = bad
            with pytest.raises(ValueError, match=match):
                AllModeCSF(small_tensor).build_all(
                    resolve_executor("thread"), 2)
            with pytest.raises(ValueError, match=match):
                AllModeCSF(small_tensor).csf(1)
        assert calls == []

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_compiled_calls_check_every_index(self, builder, small_tensor,
                                              bad):
        # A permutation computed before the coordinates went bad, and a
        # permutation with an entry outside the non-zeros: IndexError,
        # never an out-of-bounds read.
        perm0 = small_tensor.permutation_lex()
        coords = small_tensor.coords
        for mode in range(3):
            saved = coords[mode, 5]
            coords[mode, 5] = bad if bad < 0 else small_tensor.shape[mode]
            for root in range(3):
                with pytest.raises(IndexError, match="extent"):
                    builder.build(small_tensor, perm0, root)
            coords[mode, 5] = saved
        broken = perm0.copy()
        broken[3] = small_tensor.nnz if bad > 0 else bad
        for root in range(3):
            with pytest.raises(IndexError, match="permutation"):
                builder.build(small_tensor, broken, root)

    def test_peak_memory_is_the_trees_plus_a_few_bytes_per_nonzero(self):
        # Exact level arrays plus the plans' fixed bytes per non-zero
        # (PEAK_BYTES_PER_NONZERO); a buffer sized by nnz instead of a
        # level's node count, or one kept past its step, shows.
        tensor = random_coo((46, 2200, 2200), 200_000, seed=4)
        trees = AllModeCSF(tensor).build_all()
        tree_bytes = trees.storage_bytes()
        del trees
        tracemalloc.start()
        try:
            trees = AllModeCSF(tensor).build_all(
                resolve_executor("thread"), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trees.storage_bytes() == tree_bytes
        assert peak <= tree_bytes + PEAK_BYTES_PER_NONZERO * tensor.nnz


#: Bytes per non-zero ``build_all`` may hold beyond the trees of a
#: 3-mode tensor: tree 0's permutation (8), each non-root tree's order
#: (8) and every tree's first changed levels (1): 27, plus slack.
PEAK_BYTES_PER_NONZERO = 32


class TestPackedKeys:
    def test_field_layout(self):
        # 46 -> 6 bits, 2200 -> 12 bits, 1 -> 0 bits: one word,
        # most significant field first.
        coords = np.array([[45, 3], [2199, 0], [0, 0]])
        words = pack_lex_keys(coords, (46, 2200, 1), (0, 1, 2))
        assert len(words) == 1
        assert words[0].tolist() == [(45 << 12) | 2199, 3 << 12]

    def test_new_word_before_passing_63_bits(self):
        # 40 + 40 and 32 + 32 bits do not fit one word (the sign bit
        # stays clear); 31 + 31 + 1 bits do.
        words = pack_lex_keys(np.array([[5], [7]]), (2**40, 2**40), (1, 0))
        assert [w.tolist() for w in words] == [[7], [5]]
        words = pack_lex_keys(np.array([[2**32 - 1], [3]]),
                              (2**32, 2**32), (0, 1))
        assert [w.tolist() for w in words] == [[2**32 - 1], [3]]
        words = pack_lex_keys(np.array([[2**31 - 1], [5], [1]]),
                              (2**31, 2**31, 2), (0, 1, 2))
        assert [w.tolist() for w in words] == [
            [((2**31 - 1) << 32) | (5 << 1) | 1]]
        assert words[0].min() >= 0

    def test_words_order_like_coordinate_lexsort(self):
        tensor = random_tensor((2**40, 9, 2**30, 1), 100, seed=4,
                               duplicates=True)
        order = (2, 0, 3, 1)
        words = pack_lex_keys(tensor.coords, tensor.shape, order)
        assert len(words) == 2
        np.testing.assert_array_equal(
            np.lexsort(words[::-1]),
            np.lexsort([tensor.coords[m] for m in reversed(order)]))


class TestStructure:
    def test_node_counts_decrease_toward_root(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        counts = [csf.nnodes(l) for l in range(csf.nmodes)]
        assert counts[-1] == small_tensor.nnz
        assert all(counts[i] <= counts[i + 1] for i in range(len(counts) - 1))

    def test_fptr_covers_children_exactly(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        for level in range(csf.nmodes - 1):
            fptr = csf.fptr[level]
            assert fptr[0] == 0
            assert fptr[-1] == csf.nnodes(level + 1)
            assert (np.diff(fptr) >= 1).all()  # no empty nodes

    def test_fibers_and_slices(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        assert csf.nslices == len(np.unique(small_tensor.coords[0]))
        # Fibers = distinct (i, j) pairs.
        pairs = set(zip(small_tensor.coords[0], small_tensor.coords[1]))
        assert csf.nfibers == len(pairs)

    def test_storage_bytes_positive(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        assert csf.storage_bytes() > small_tensor.nnz * 8

    def test_expand_to_level(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        ones = np.ones(csf.nnodes(0))
        leaves = csf.expand_to_level(ones, 0, csf.nmodes - 1)
        assert leaves.shape[0] == csf.nnz

    def test_duplicate_coordinates_become_duplicate_leaves(self):
        t = COOTensor.from_arrays(
            [np.array([0, 0]), np.array([1, 1]), np.array([2, 2])],
            np.array([1.0, 2.0]), shape=(1, 2, 3))
        csf = CSFTensor.from_coo(t)
        assert csf.nnz == 2  # not merged: caller must deduplicate


class TestAllMode:
    def test_lazy_build_and_cache(self, small_tensor):
        trees = AllModeCSF(small_tensor)
        a = trees.csf(1)
        b = trees.csf(1)
        assert a is b
        assert a.mode_order[0] == 1

    def test_build_all(self, small_tensor):
        trees = AllModeCSF(small_tensor).build_all()
        assert trees.storage_bytes() > 0
        for m in range(3):
            assert trees.csf(m).mode_order == default_mode_order(3, m)

    def test_default_mode_order(self):
        assert default_mode_order(4, 2) == (2, 0, 1, 3)
        assert default_mode_order(3, 0) == (0, 1, 2)
        with pytest.raises(ValueError):
            default_mode_order(3, 5)
