"""Sparse-factor MTTKRP: CSR and hybrid paths against the dense kernel."""

import numpy as np
import pytest

from repro.kernels import FactorRepresentation, mttkrp_coo_reference
from repro.kernels.dispatch import MTTKRPEngine
from repro.kernels.mttkrp_sparse import (
    counted_nnz,
    gather_scale,
    leaf_counts,
    mttkrp_csf_root_repr,
    representation_name,
    representation_nnz,
)
from repro.sparse import CSRMatrix, HybridFactor
from repro.tensor import COOTensor, random_coo
from repro.tensor.csf import AllModeCSF, CSFTensor


@pytest.fixture
def sparse_setup(rng):
    tensor = random_coo((10, 8, 12), 150, seed=17)
    factors = [rng.standard_normal((s, 6)) for s in tensor.shape]
    # Sparsify the factor of the deepest mode of every rooting (mode 1, 2).
    for m in (1, 2):
        sparse = factors[m].copy()
        sparse[np.abs(sparse) < 0.9] = 0.0
        factors[m] = sparse
    return tensor, factors


class TestSparseKernel:
    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_csr_matches_reference(self, sparse_setup, root):
        tensor, factors = sparse_setup
        csf = AllModeCSF(tensor).csf(root)
        leaf = csf.mode_order[-1]
        ref = mttkrp_coo_reference(tensor, factors, root)
        rep = CSRMatrix.from_dense(factors[leaf])
        np.testing.assert_allclose(
            mttkrp_csf_root_repr(csf, factors, rep), ref, atol=1e-10)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_hybrid_matches_reference(self, sparse_setup, root):
        tensor, factors = sparse_setup
        csf = AllModeCSF(tensor).csf(root)
        leaf = csf.mode_order[-1]
        ref = mttkrp_coo_reference(tensor, factors, root)
        rep = HybridFactor(factors[leaf])
        np.testing.assert_allclose(
            mttkrp_csf_root_repr(csf, factors, rep), ref, atol=1e-10)

    def test_none_rep_equals_dense(self, sparse_setup):
        tensor, factors = sparse_setup
        csf = AllModeCSF(tensor).csf(0)
        a = mttkrp_csf_root_repr(csf, factors, None)
        b = mttkrp_csf_root_repr(csf, factors,
                                 np.asarray(factors[csf.mode_order[-1]]))
        np.testing.assert_allclose(a, b)

    def test_gather_scale_dispatch(self, rng):
        mat = rng.standard_normal((10, 4))
        mat[np.abs(mat) < 0.8] = 0.0
        idx = rng.integers(0, 10, size=20)
        scale = rng.standard_normal(20)
        expected = mat[idx] * scale[:, None]
        for rep in (mat, CSRMatrix.from_dense(mat), HybridFactor(mat)):
            np.testing.assert_allclose(gather_scale(rep, idx, scale),
                                       expected, atol=1e-12)

    def test_representation_metadata(self, rng):
        mat = rng.standard_normal((6, 3))
        assert representation_name(mat) == "dense"
        assert representation_name(CSRMatrix.from_dense(mat)) == "csr"
        assert representation_name(HybridFactor(mat)) == "csr-h"
        idx = np.arange(6)
        assert representation_nnz(mat, idx) == 18


class TestGatheredNnz:
    """``counted_nnz`` over cached leaf counts equals the leaf gather's."""

    @staticmethod
    def reps(mat):
        full = HybridFactor(mat)
        full.perm = np.arange(mat.shape[1])
        full.n_dense_cols = mat.shape[1]
        full.dense_part = mat
        full.csr_part = CSRMatrix.from_dense(mat[:, :0])
        return [mat, CSRMatrix.from_dense(mat), HybridFactor(mat), full,
                CSRMatrix.from_dense(np.zeros_like(mat))]

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_equals_representation_nnz_on_every_root(self, sparse_setup,
                                                     duplicates):
        tensor, factors = sparse_setup
        if duplicates:
            tensor = COOTensor(np.hstack([tensor.coords] * 2),
                               np.tile(tensor.vals, 2), tensor.shape)
        trees = AllModeCSF(tensor)
        for root in range(3):
            csf = trees.csf(root)
            ids = csf.fids[csf.nmodes - 1]
            counts = leaf_counts(csf)
            for rep in self.reps(factors[csf.mode_order[-1]]):
                assert counted_nnz(rep, counts) == representation_nnz(
                    rep, ids)

    def test_empty_tree(self):
        tensor = COOTensor(np.empty((3, 0), dtype=np.int64), np.empty(0),
                           (4, 5, 6))
        csf = CSFTensor.from_coo(tensor)
        mat = np.eye(6, 3)
        for rep in self.reps(mat):
            assert counted_nnz(rep, leaf_counts(csf)) == 0 \
                == representation_nnz(rep, csf.fids[2])

    def test_engine_call_log(self, sparse_setup):
        tensor, factors = sparse_setup
        engine = MTTKRPEngine(tensor, repr_policy="hybrid",
                              sparsity_threshold=0.9)
        for m in range(3):
            engine.update_factor(m, factors[m])
        for mode in (0, 1, 2, 0):
            engine.mttkrp(factors, mode)
            csf = engine.trees.csf(mode)
            rep = engine._reps[csf.mode_order[-1]]
            assert engine.call_log[-1].gathered_nnz == representation_nnz(
                rep, csf.fids[csf.nmodes - 1])


class TestEngine:
    def test_dense_policy_never_compresses(self, sparse_setup):
        tensor, factors = sparse_setup
        engine = MTTKRPEngine(tensor, repr_policy="dense")
        for m in range(3):
            assert engine.update_factor(m, factors[m]) == "dense"

    def test_csr_policy_compresses_below_threshold(self, sparse_setup):
        tensor, factors = sparse_setup
        engine = MTTKRPEngine(tensor, repr_policy="csr",
                              sparsity_threshold=0.9)
        assert engine.update_factor(2, factors[2]) == "csr"
        # A dense factor stays dense even under the csr policy.
        assert engine.update_factor(0, np.ones_like(factors[0])) == "dense"

    def test_engine_mttkrp_matches_reference_with_compression(
            self, sparse_setup):
        tensor, factors = sparse_setup
        for policy in ("dense", "csr", "hybrid", "auto"):
            engine = MTTKRPEngine(tensor, repr_policy=policy,
                                  sparsity_threshold=0.9)
            for m in range(3):
                engine.update_factor(m, factors[m])
            for mode in range(3):
                ref = mttkrp_coo_reference(tensor, factors, mode)
                np.testing.assert_allclose(
                    engine.mttkrp(factors, mode), ref, atol=1e-10,
                    err_msg=f"policy={policy} mode={mode}")

    def test_call_log_records_representation(self, sparse_setup):
        tensor, factors = sparse_setup
        engine = MTTKRPEngine(tensor, repr_policy="csr",
                              sparsity_threshold=0.9)
        for m in range(3):
            engine.update_factor(m, factors[m])
        engine.mttkrp(factors, 0)
        assert len(engine.call_log) == 1
        entry = engine.call_log[0]
        assert entry.mode == 0
        assert entry.leaf_mode == 2
        assert entry.representation == "csr"
        assert 0 < entry.gathered_nnz <= entry.tensor_nnz * 6

    def test_rejects_unknown_policy(self, sparse_setup):
        tensor, _ = sparse_setup
        with pytest.raises(ValueError):
            MTTKRPEngine(tensor, repr_policy="bogus")
