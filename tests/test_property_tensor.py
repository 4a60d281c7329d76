"""Property-based tests (hypothesis) for the tensor substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import mttkrp_coo, mttkrp_coo_reference, mttkrp_csf
from repro.tensor import COOTensor, CSFTensor
from repro.tensor.matricize import delinearize_indices, linearize_indices

pytestmark = pytest.mark.property


@st.composite
def coo_tensors(draw, max_modes=4, max_extent=8, max_nnz=40):
    """Arbitrary small COO tensors (possibly with duplicate coordinates)."""
    nmodes = draw(st.integers(2, max_modes))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(nmodes))
    nnz = draw(st.integers(0, max_nnz))
    coords = np.empty((nmodes, nnz), dtype=np.int64)
    for m in range(nmodes):
        coords[m] = draw(hnp.arrays(np.int64, nnz,
                                    elements=st.integers(0, shape[m] - 1)))
    vals = draw(hnp.arrays(
        np.float64, nnz,
        elements=st.floats(-100, 100, allow_nan=False, width=64)))
    return COOTensor(coords, vals, shape)


@settings(max_examples=60, deadline=None)
@given(coo_tensors())
def test_deduplicate_preserves_dense_form(tensor):
    """Summing duplicates must not change the dense tensor."""
    np.testing.assert_allclose(tensor.deduplicate().to_dense(),
                               tensor.to_dense(), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(coo_tensors())
def test_dedup_is_idempotent(tensor):
    once = tensor.deduplicate()
    twice = once.deduplicate()
    assert once == twice


@settings(max_examples=60, deadline=None)
@given(coo_tensors(), st.randoms(use_true_random=False))
def test_csf_round_trip_any_mode_order(tensor, pyrandom):
    dedup = tensor.deduplicate()
    order = list(range(dedup.nmodes))
    pyrandom.shuffle(order)
    csf = CSFTensor.from_coo(dedup, tuple(order))
    assert csf.to_coo() == dedup


@settings(max_examples=60, deadline=None)
@given(coo_tensors())
def test_sort_preserves_multiset(tensor):
    s = tensor.sort_lex()
    assert s.nnz == tensor.nnz
    np.testing.assert_allclose(np.sort(s.vals), np.sort(tensor.vals))
    np.testing.assert_allclose(s.to_dense(), tensor.to_dense(), atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.one_of(coo_tensors(),
                 coo_tensors(max_modes=5, max_extent=2**40)),
       st.randoms(use_true_random=False))
def test_permutation_lex_equals_lexsort_of_rows(tensor, pyrandom):
    """Packed keys sort exactly like the coordinate rows, ties included."""
    order = list(range(tensor.nmodes))
    pyrandom.shuffle(order)
    expected = np.lexsort(tuple(tensor.coords[m] for m in reversed(order)))
    np.testing.assert_array_equal(tensor.permutation_lex(order), expected)


@settings(max_examples=40, deadline=None)
@given(coo_tensors(max_modes=3, max_extent=6, max_nnz=25),
       st.integers(0, 2), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_mttkrp_kernels_agree(tensor, mode, rank, seed):
    """COO and CSF MTTKRP must match the reference on any input."""
    if tensor.nmodes != 3:
        tensor = COOTensor(tensor.coords[:3] if tensor.nmodes > 3
                           else tensor.coords, tensor.vals,
                           tensor.shape[:3] if tensor.nmodes > 3
                           else tensor.shape) if tensor.nmodes >= 3 else None
    if tensor is None or tensor.nmodes != 3:
        return
    tensor = tensor.deduplicate()
    gen = np.random.default_rng(seed)
    factors = [gen.standard_normal((s, rank)) for s in tensor.shape]
    ref = mttkrp_coo_reference(tensor, factors, mode)
    np.testing.assert_allclose(mttkrp_coo(tensor, factors, mode), ref,
                               atol=1e-8)
    csf = CSFTensor.from_coo(tensor)
    np.testing.assert_allclose(mttkrp_csf(csf, factors, mode), ref,
                               atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(coo_tensors())
def test_linearize_round_trip(tensor):
    modes = list(range(tensor.nmodes))[1:]
    if not modes:
        return
    linear = linearize_indices(tensor.coords, tensor.shape, modes)
    back = delinearize_indices(linear, tensor.shape, modes)
    for row, m in enumerate(modes):
        np.testing.assert_array_equal(back[row], tensor.coords[m])


@settings(max_examples=60, deadline=None)
@given(coo_tensors())
def test_norm_is_permutation_invariant(tensor):
    perm = tuple(reversed(range(tensor.nmodes)))
    assert np.isclose(tensor.norm(), tensor.permute_modes(perm).norm())
