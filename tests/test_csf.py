"""Unit tests for the CSF data structure."""

import itertools

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.registry import all_dataset_names
from repro.tensor import COOTensor, CSFTensor, random_coo
from repro.tensor.coo import pack_lex_keys
from repro.tensor.csf import AllModeCSF, default_mode_order
from repro.testing.oracles import lexsort_csf_reference


def assert_same_tree_bytes(tensor, order):
    """``from_coo`` matches the lexsort reference in bytes and dtypes."""
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
        words, _ = pack_lex_keys(tensor.coords, tensor.shape,
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


class TestPackedKeys:
    def test_field_layout(self):
        # 46 -> 6 bits, 2200 -> 12 bits, 1 -> 0 bits: one word,
        # most significant field first.
        coords = np.array([[45, 3], [2199, 0], [0, 0]])
        words, fields = pack_lex_keys(coords, (46, 2200, 1), (0, 1, 2))
        assert fields == [(0, 12, 6), (0, 0, 12), (0, 0, 0)]
        assert words[0].tolist() == [(45 << 12) | 2199, 3 << 12]

    def test_new_word_before_passing_63_bits(self):
        # 40 + 40 and 32 + 32 bits do not fit one word (the sign bit
        # stays clear); 31 + 31 + 1 bits do.
        _, fields = pack_lex_keys(np.zeros((2, 1), dtype=np.int64),
                                  (2**40, 2**40), (1, 0))
        assert fields == [(0, 0, 40), (1, 0, 40)]
        _, fields = pack_lex_keys(np.zeros((2, 1), dtype=np.int64),
                                  (2**32, 2**32), (0, 1))
        assert fields == [(0, 0, 32), (1, 0, 32)]
        _, fields = pack_lex_keys(np.zeros((3, 1), dtype=np.int64),
                                  (2**31, 2**31, 2), (0, 1, 2))
        assert fields == [(0, 32, 31), (0, 1, 31), (0, 0, 1)]

    def test_unpacked_fields_recover_coordinates(self):
        tensor = random_tensor((2**40, 9, 2**30, 1), 100, seed=4)
        order = (2, 0, 3, 1)
        words, fields = pack_lex_keys(tensor.coords, tensor.shape, order)
        for level, (word, shift, nbits) in enumerate(fields):
            ids = (words[word] >> shift) & ((1 << nbits) - 1)
            np.testing.assert_array_equal(ids, tensor.coords[order[level]])


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
