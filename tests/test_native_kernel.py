"""The compiled root-mode CSF kernel: bit identity, input safety, fallback.

The contract is byte equality (``tobytes()``) with the NumPy sweep
:func:`repro.kernels.mttkrp_csf._upward_to_level` — not closeness — on
every fan-out branch of NumPy's pairwise summation, every rank shape,
signed zeros, strided factor views, memmapped store slabs and concurrent
calls; and, with a CSR or CSR-H deep factor, byte equality with the
SciPy path :func:`repro.kernels.mttkrp_sparse.mttkrp_csf_root_repr`.
The probe trees run on every ISA variant the CPU supports, at ranks
that reach each variant's vector bodies and their tails.  When the
kernel cannot be built or fails its self-check, the NumPy sweep serves
with one warning and unchanged factors.
"""

import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core.aoadmm import fit_aoadmm
from repro.core.options import AOADMMOptions
from repro.datasets import load_dataset
from repro.datasets.registry import all_dataset_names
from repro.kernels import dispatch, native, row_solve
from repro.kernels.dispatch import (MTTKRPEngine, StreamingMTTKRPEngine,
                                    make_engine)
from repro.kernels.mttkrp_csf import _upward_to_level, mttkrp_csf_root
from repro.kernels.mttkrp_sparse import mttkrp_csf_root_repr
from repro.sparse import CSRMatrix, HybridFactor
from repro.sparse import hybrid as hybrid_module
from repro.tensor import COOTensor, CSFTensor, ShardedTensorStore, random_coo
from repro.tensor.tiling import _make_slab

#: Child counts reaching every pairwise branch: a node with k children
#: pairwise-sums k - 1 rows (<8, exactly 8, 8..128, >128 with splits).
FANOUTS = (1, 7, 8, 9, 128, 129, 300)
#: Small fan-outs for the levels a test is not probing.
SMALL = (1, 2, 3)
#: Scalar-only ranks, and the 2-, 4- and 8-wide vector bodies with and
#: without a tail.
RANKS = (1, 3, 4, 7, 8, 9, 16, 17, 32, 33)


@pytest.fixture(scope="module")
def kernels():
    """Every compiled variant this CPU runs, without the self-check."""
    try:
        return native.load_kernels()
    except native.NativeUnavailable as exc:
        pytest.skip(f"native CSF kernel unavailable: {exc}")


@pytest.fixture(scope="module")
def kernel(kernels):
    """The widest variant, the one the loader serves."""
    return list(kernels.values())[-1]


def test_best_variant_serves_wherever_it_builds(kernels):
    """A machine that can build the kernel must also pass its self-check,
    and the widest variant serves."""
    served = native.root_kernel()
    assert served is not None
    assert served.variant == list(kernels)[-1]
    assert list(kernels)[0] == "baseline"


def test_unsupported_variant_is_refused(kernel):
    """The C side checks the id against the CPU's mask before running."""
    rng = np.random.default_rng(0)
    tree = native.probe_tree([SMALL, SMALL], rng)
    factors = signed_factors(rng, tree.shape, 3)
    bogus = native.RootKernel(kernel._fn, kernel.init, "baseline")
    bogus._id = len(row_solve.VARIANTS)
    with pytest.raises(ValueError, match="does not run"):
        native_root(bogus, tree, factors)


def numpy_root(tree, factors):
    rank = factors[0].shape[1]
    out = np.zeros((tree.shape[tree.mode_order[0]], rank))
    if tree.nnz:
        out[tree.fids[0]] = _upward_to_level(tree, factors, 0)
    return out


def native_root(kernel, tree, factors):
    rank = factors[0].shape[1]
    out = np.zeros((tree.shape[tree.mode_order[0]], rank))
    kernel.bind(tree.mode_order, factors, out)(tree)
    return out


def signed_factors(rng, shape, rank):
    return [native.signed_values(rng, n, rank) for n in shape]


def assert_bytes_equal(got, want, variant=None):
    assert got.dtype == want.dtype and got.shape == want.shape, variant
    assert got.tobytes() == want.tobytes(), variant


def assert_every_variant(kernels, tree, factors, want):
    for name, kernel in kernels.items():
        assert_bytes_equal(native_root(kernel, tree, factors), want, name)


class TestBitIdentity:
    @pytest.mark.parametrize("rank", RANKS)
    def test_three_mode_every_fanout_at_both_levels(self, kernels, rank):
        rng = np.random.default_rng(1)
        tree = native.probe_tree([FANOUTS, FANOUTS], rng)
        factors = signed_factors(rng, tree.shape, rank)
        assert_every_variant(kernels, tree, factors,
                             numpy_root(tree, factors))

    @pytest.mark.parametrize("nmodes,probed", [
        (nmodes, level) for nmodes in (4, 5) for level in range(nmodes - 1)])
    @pytest.mark.parametrize("rank", RANKS)
    def test_deep_trees_every_fanout_at_each_level(self, kernels, nmodes,
                                                    probed, rank):
        rng = np.random.default_rng([nmodes, probed, rank])
        fans = [FANOUTS if level == probed else SMALL
                for level in range(nmodes - 1)]
        tree = native.probe_tree(fans, rng, dim=20)
        factors = signed_factors(rng, tree.shape, rank)
        assert_every_variant(kernels, tree, factors,
                             numpy_root(tree, factors))

    @pytest.mark.parametrize("shape", [(12, 9, 15), (6, 5, 7, 4),
                                       (5, 4, 6, 3, 4)])
    def test_trees_built_from_coo_every_root(self, kernels, shape):
        rng = np.random.default_rng(len(shape))
        tensor = random_coo(shape, 300, seed=3, value_dist="normal")
        for rank in (7, 17):
            factors = signed_factors(rng, shape, rank)
            for root in range(len(shape)):
                order = (root,) + tuple(m for m in range(len(shape))
                                        if m != root)
                tree = CSFTensor.from_coo(tensor, mode_order=order)
                assert_every_variant(kernels, tree, factors,
                                     numpy_root(tree, factors))

    def test_signed_zeros_and_negatives(self, kernels):
        rng = np.random.default_rng(2)
        tree = native.probe_tree([(1, 2, 9), (1, 2, 3, 9)], rng, dim=6)
        vals = np.where(np.arange(tree.nnz) % 2, -0.0, -1.5)
        tree = CSFTensor(tree.shape, tree.mode_order, tree.fids,
                         tree.fptr, vals)
        factors = [np.full((n, 3), -0.0) for n in tree.shape]
        factors[1][::2] = -2.0
        want = numpy_root(tree, factors)
        assert np.signbit(want).any()
        assert_every_variant(kernels, tree, factors, want)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_factor_views(self, kernel, layout):
        rng = np.random.default_rng(3)
        tree = native.probe_tree([FANOUTS, SMALL], rng)
        dense = signed_factors(rng, tree.shape, 7)
        if layout == "fortran":
            views = [np.asfortranarray(f) for f in dense]
        else:
            views = [np.repeat(f, 2, axis=1)[:, ::2] for f in dense]
        assert not views[1].flags.c_contiguous
        assert_bytes_equal(native_root(kernel, tree, views),
                           numpy_root(tree, dense))

    def test_empty_tensor(self, kernel):
        tensor = COOTensor(np.empty((3, 0), dtype=np.int64),
                           np.empty(0), (4, 5, 6))
        tree = CSFTensor.from_coo(tensor)
        factors = [np.ones((n, 3)) for n in tensor.shape]
        assert_bytes_equal(native_root(kernel, tree, factors),
                           np.zeros((4, 3)))

    def test_empty_slab(self, kernel, small_tensor, small_factors):
        tree = CSFTensor.from_coo(small_tensor)
        slab = _make_slab(tree, 0, slice(3, 3))
        assert slab.nnz == 0
        assert_bytes_equal(native_root(kernel, slab.tree, small_factors),
                           np.zeros((12, 5)))

    def test_memmapped_store_slabs(self, kernel, tmp_path):
        tensor = random_coo((30, 25, 20, 6), 900, seed=8,
                            value_dist="normal")
        store = ShardedTensorStore.create(tensor, tmp_path / "store",
                                          slab_nnz_target=128)
        rng = np.random.default_rng(4)
        factors = signed_factors(rng, tensor.shape, 7)
        for mode in range(tensor.nmodes):
            for slab in store.iter_slabs(mode):
                tree = slab.tree
                assert not tree.vals.flags.writeable
                assert_bytes_equal(native_root(kernel, tree, factors),
                                   numpy_root(tree, factors))

    def test_concurrent_calls_share_no_state(self, kernel):
        """More threads than cores, switching often: per-call scratch only."""
        rng = np.random.default_rng(5)
        tree = native.probe_tree([FANOUTS, FANOUTS], rng)
        jobs = [signed_factors(rng, tree.shape, rank)
                for rank in (1, 7, 32) * 6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(native_root, kernel, tree, f)
                           for f in jobs]
                outs = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for factors, got in zip(jobs, outs):
            assert_bytes_equal(got, numpy_root(tree, factors))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_engine_threads_match_monolithic(self, kernel, threads):
        tensor = random_coo((40, 30, 35), 2000, seed=6,
                            value_dist="normal")
        rng = np.random.default_rng(6)
        factors = signed_factors(rng, tensor.shape, 7)
        engine = MTTKRPEngine(tensor, slab_nnz_target=100, threads=threads)
        for mode in range(3):
            tree = engine.trees.csf(mode)
            assert engine.tiling(mode).slab_count > 2
            assert_bytes_equal(engine.mttkrp(factors, mode),
                               mttkrp_csf_root(tree, factors))

    def test_streaming_engine_matches_monolithic(self, kernel, tmp_path):
        tensor = random_coo((30, 25, 20), 600, seed=9, value_dist="normal")
        store = ShardedTensorStore.create(tensor, tmp_path / "store",
                                          slab_nnz_target=64)
        rng = np.random.default_rng(7)
        factors = signed_factors(rng, tensor.shape, 7)
        engine = StreamingMTTKRPEngine(store, max_bytes_in_core=4096)
        for mode in range(3):
            order = (mode,) + tuple(m for m in range(3) if m != mode)
            tree = CSFTensor.from_coo(tensor, mode_order=order)
            assert_bytes_equal(engine.mttkrp(factors, mode),
                               mttkrp_csf_root(tree, factors))


def with_leaf_id(tree, level, position, value):
    fids = [np.array(f, copy=True) for f in tree.fids]
    fids[level][position] = value
    return CSFTensor(tree.shape, tree.mode_order, fids, tree.fptr,
                     tree.vals)


class TestInputSafety:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_out_of_range_fid_raises_like_numpy(self, kernels, small_tensor,
                                                small_factors, level):
        tree = CSFTensor.from_coo(small_tensor)
        bad = with_leaf_id(tree, level, 3, 10**6)
        with pytest.raises(IndexError):
            numpy_root(bad, small_factors)
        for kernel in kernels.values():
            with pytest.raises(IndexError):
                native_root(kernel, bad, small_factors)

    def test_negative_fid_rejected(self, kernel, small_tensor,
                                   small_factors):
        bad = with_leaf_id(CSFTensor.from_coo(small_tensor), 2, 0, -1)
        with pytest.raises(IndexError):
            native_root(kernel, bad, small_factors)

    @pytest.mark.parametrize("damage", ["decreasing", "overrun", "start",
                                        "short"])
    def test_malformed_fptr_rejected(self, kernel, small_tensor,
                                     small_factors, damage):
        tree = CSFTensor.from_coo(small_tensor)
        fptr = [np.array(p, copy=True) for p in tree.fptr]
        if damage == "decreasing":
            fptr[1][2], fptr[1][3] = fptr[1][3], fptr[1][2]
        elif damage == "overrun":
            fptr[1][-1] += 10**6
        elif damage == "start":
            fptr[0][0] = 1
        else:
            fptr[0] = fptr[0][:-1]
        bad = CSFTensor(tree.shape, tree.mode_order, tree.fids, fptr,
                        tree.vals)
        with pytest.raises(IndexError):
            native_root(kernel, bad, small_factors)

    def test_corrupt_v1_store_slab_raises(self, kernel, tmp_path):
        """A size-checked-only (version 1) slab with a damaged fid."""
        tensor = random_coo((30, 25, 20), 600, seed=10)
        path = tmp_path / "store"
        ShardedTensorStore.create(tensor, path, slab_nnz_target=64)
        meta = json.loads((path / "meta.json").read_text())
        meta["version"] = 1
        for mode_meta in meta["modes"]:
            for slab_meta in mode_meta["slabs"]:
                slab_meta.pop("checksum")
        (path / "meta.json").write_text(json.dumps(meta))
        slab_meta = meta["modes"][0]["slabs"][1]
        spec = slab_meta["arrays"]["fids2"]
        with open(path / slab_meta["file"], "r+b") as handle:
            handle.seek(spec["offset"] + 8 * 5)
            handle.write(np.int64(10**9).tobytes())
        store = ShardedTensorStore.open(path)
        factors = [np.ones((n, 3)) for n in tensor.shape]
        engine = StreamingMTTKRPEngine(store)
        with pytest.raises(IndexError):
            engine.mttkrp(factors, 0)
        # The damaged bytes passed the v1 read; the NumPy sweep agrees.
        slab = store.load_slab(0, 1)
        with pytest.raises(IndexError):
            numpy_root(slab.tree, factors)


# ----------------------------------------------------------------------
# Sparse deep factors (CSR and CSR-H leaf stage)
# ----------------------------------------------------------------------
def rooted(tensor, root):
    order = (root,) + tuple(m for m in range(tensor.nmodes) if m != root)
    return CSFTensor.from_coo(tensor, mode_order=order)


def sparse_root(kernel, tree, factors, leaf):
    rank = factors[0].shape[1]
    out = np.zeros((tree.shape[tree.mode_order[0]], rank))
    kernel.bind(tree.mode_order, factors, out, leaf=leaf)(tree)
    return out


def leaf_reps(deep, tol=0.0):
    return [CSRMatrix.from_dense(deep, tol=tol),
            HybridFactor(deep, tol=tol)]


def assert_sparse_matches(kernels, tree, factors, leaf):
    want = mttkrp_csf_root_repr(tree, factors, leaf)
    for name, kernel in kernels.items():
        assert_bytes_equal(sparse_root(kernel, tree, factors, leaf), want,
                           name)


class TestSparseLeaf:
    """Byte equality with the SciPy path for CSR and CSR-H deep factors."""

    @pytest.mark.parametrize("name", all_dataset_names())
    def test_every_rooting_of_tiny_presets(self, kernels, name):
        tensor, _ = load_dataset(name, "tiny", seed=3)
        rng = np.random.default_rng(list(name.encode()))
        for root in range(tensor.nmodes):
            tree = rooted(tensor, root)
            factors = signed_factors(rng, tensor.shape, 16)
            deep = native.sparse_values(rng, tree.shape[tree.mode_order[-1]],
                                        16)
            for leaf in leaf_reps(deep):
                assert_sparse_matches(kernels, tree, factors, leaf)

    @pytest.mark.parametrize("shape", [(30, 40), (12, 9, 15), (6, 5, 7, 4),
                                       (5, 4, 6, 3, 4)])
    @pytest.mark.parametrize("rank", RANKS)
    def test_random_trees_every_root(self, kernels, shape, rank):
        tensor = random_coo(shape, 400, seed=len(shape),
                            value_dist="normal")
        rng = np.random.default_rng([len(shape), rank])
        for root in range(len(shape)):
            tree = rooted(tensor, root)
            factors = signed_factors(rng, shape, rank)
            deep = native.sparse_values(rng, shape[tree.mode_order[-1]],
                                        rank)
            for leaf in leaf_reps(deep):
                assert_sparse_matches(kernels, tree, factors, leaf)

    def test_repeated_leaf_ids_in_non_deduplicated_trees(self, kernels):
        rng = np.random.default_rng(11)
        base = random_coo((10, 8, 6), 200, seed=12, value_dist="normal")
        # Every coordinate appears three times with different values.
        coords = np.hstack([base.coords] * 3)
        vals = native.signed_values(rng, coords.shape[1])
        tensor = COOTensor(coords, vals, base.shape)
        for root in range(3):
            tree = rooted(tensor, root)
            leaf_ids = tree.fids[-1]
            assert (leaf_ids[1:] == leaf_ids[:-1]).any()
            factors = signed_factors(rng, tensor.shape, 7)
            deep = native.sparse_values(rng, tree.shape[tree.mode_order[-1]],
                                        7)
            for leaf in leaf_reps(deep):
                assert_sparse_matches(kernels, tree, factors, leaf)

    def test_every_fanout_with_long_runs_of_equal_leaf_ids(self, kernels):
        rng = np.random.default_rng(13)
        tree = native.sorted_leaves(
            native.probe_tree([FANOUTS, FANOUTS], rng, dim=20))
        for rank in RANKS:
            factors = signed_factors(rng, tree.shape, rank)
            deep = native.sparse_values(rng, 20, rank)
            for leaf in leaf_reps(deep):
                assert_sparse_matches(kernels, tree, factors, leaf)

    def test_empty_csr_rows(self, kernels, small_tensor, small_factors):
        rng = np.random.default_rng(14)
        deep = native.sparse_values(rng, 15, 5)
        deep[::2] = 0.0
        tree = CSFTensor.from_coo(small_tensor)
        for leaf in leaf_reps(deep):
            csr = leaf.csr_part if isinstance(leaf, HybridFactor) else leaf
            assert (csr.row_nnz() == 0).any()
            assert_sparse_matches(kernels, tree, small_factors, leaf)
        zero = CSRMatrix.from_dense(np.zeros((15, 5)))
        assert zero.nnz == 0
        assert_sparse_matches(kernels, tree, small_factors, zero)

    @pytest.mark.parametrize("columns", ["none", "all"])
    def test_hybrid_with_no_or_all_dense_columns(self, kernels, monkeypatch,
                                                 small_tensor, small_factors,
                                                 columns):
        rng = np.random.default_rng(15)
        deep = native.sparse_values(rng, 15, 5)
        if columns == "all":
            monkeypatch.setattr(hybrid_module, "dense_column_mask",
                                lambda m, tol: np.ones(m.shape[1], bool))
        else:
            deep[:, 0] = deep[:, 1]  # equal densities: none above average
            deep[:, 2:] = deep[:, 1:2]
        leaf = HybridFactor(deep)
        assert leaf.n_dense_cols == (5 if columns == "all" else 0)
        assert_sparse_matches(kernels, CSFTensor.from_coo(small_tensor),
                              small_factors, leaf)

    def test_positive_tolerance(self, kernels, small_tensor, small_factors):
        rng = np.random.default_rng(16)
        deep = rng.standard_normal((15, 5))
        tree = CSFTensor.from_coo(small_tensor)
        for leaf in leaf_reps(deep, tol=0.5):
            assert_sparse_matches(kernels, tree, small_factors, leaf)

    def test_signed_zeros(self, kernels):
        rng = np.random.default_rng(17)
        tree = native.sorted_leaves(
            native.probe_tree([(1, 2, 9), (1, 2, 3, 9)], rng, dim=6))
        vals = np.where(np.arange(tree.nnz) % 2, -0.0, -1.5)
        vals[::5] = 0.0
        tree = CSFTensor(tree.shape, tree.mode_order, tree.fids,
                         tree.fptr, vals)
        factors = [np.full((n, 3), -0.0) for n in tree.shape]
        factors[1][::2] = -2.0
        deep = np.where(rng.random((6, 3)) < 0.5, -1.0, 0.0)
        for leaf in leaf_reps(deep):
            assert np.signbit(mttkrp_csf_root_repr(tree, factors,
                                                   leaf)).any()
            assert_sparse_matches(kernels, tree, factors, leaf)

    def test_factor_of_the_leaf_mode_is_not_read(self, kernels,
                                                 small_tensor,
                                                 small_factors):
        tree = CSFTensor.from_coo(small_tensor)
        leaf = CSRMatrix.from_dense(small_factors[2])
        factors = small_factors[:2] + [None]
        want = mttkrp_csf_root_repr(tree, small_factors, leaf)
        for name, kernel in kernels.items():
            assert_bytes_equal(sparse_root(kernel, tree, factors, leaf),
                               want, name)


def damaged(leaf, damage):
    if damage.startswith("perm"):
        perm = leaf.perm
        if damage == "perm-repeat":
            perm[1] = perm[0]
        else:
            perm[0] = perm.shape[0]
        return leaf
    csr = leaf.csr_part if isinstance(leaf, HybridFactor) else leaf
    if damage == "indptr-start":
        csr.indptr[0] = 1
    elif damage == "indptr-decreasing":
        row = int(np.flatnonzero(np.diff(csr.indptr))[0])
        csr.indptr[row + 1] = csr.indptr[row] - 1
    elif damage == "indptr-end":
        csr.indptr[-1] -= 1
    elif damage == "column":
        csr.indices[3] = csr.shape[1]
    else:
        csr.indices[3] = -1
    return leaf


class TestSparseInputSafety:
    @pytest.mark.parametrize("damage", ["perm-repeat", "perm-range"])
    def test_malformed_perm_raises(self, kernel, small_tensor,
                                   small_factors, damage):
        rng = np.random.default_rng(18)
        leaf = damaged(HybridFactor(native.sparse_values(rng, 15, 5)),
                       damage)
        with pytest.raises(IndexError):
            sparse_root(kernel, CSFTensor.from_coo(small_tensor),
                        small_factors, leaf)

    @pytest.mark.parametrize("damage", ["indptr-start", "indptr-decreasing",
                                        "indptr-end", "column",
                                        "negative-column"])
    @pytest.mark.parametrize("kind", [CSRMatrix.from_dense, HybridFactor])
    def test_malformed_csr_raises(self, kernel, small_tensor,
                                  small_factors, damage, kind):
        rng = np.random.default_rng(19)
        leaf = damaged(kind(native.sparse_values(rng, 15, 5)), damage)
        with pytest.raises(IndexError):
            sparse_root(kernel, CSFTensor.from_coo(small_tensor),
                        small_factors, leaf)

    @pytest.mark.parametrize("value", [15, 10**6, -1])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_out_of_range_leaf_id_raises(self, kernels, value, position):
        rng = np.random.default_rng(20)
        tree = native.sorted_leaves(
            native.probe_tree([(1, 9, 30), (1, 8, 20)], rng, dim=15))
        index = 0 if position == "first" else tree.nnz - 1
        bad = with_leaf_id(tree, 2, index, value)
        factors = signed_factors(rng, tree.shape, 5)
        leaf = CSRMatrix.from_dense(native.sparse_values(rng, 15, 5))
        for kernel in kernels.values():
            with pytest.raises(IndexError):
                sparse_root(kernel, bad, factors, leaf)

    def test_descending_leaf_ids_rejected(self, kernels, small_factors):
        """The SciPy path sorts them; the kernel refuses, never differs."""
        rng = np.random.default_rng(21)
        tree = native.probe_tree([(1, 9, 30), (1, 8, 20)], rng, dim=15)
        leaf = CSRMatrix.from_dense(native.sparse_values(rng, 15, 5))
        factors = signed_factors(rng, tree.shape, 5)
        for kernel in kernels.values():
            with pytest.raises(ValueError, match="ascending"):
                sparse_root(kernel, tree, factors, leaf)


def sparse_fit(tensor, policy):
    """A short L1 fit whose deep factors turn sparse; returns the engine too."""
    options = AOADMMOptions(rank=8, constraints="nonneg_l1",
                            repr_policy=policy, seed=5,
                            max_outer_iterations=3)
    engine = make_engine(tensor, repr_policy=policy,
                         sparsity_threshold=options.sparsity_threshold,
                         tol=options.factor_zero_tol, rank=8)
    result = fit_aoadmm(tensor, options, engine=engine)
    return result, engine


class TestSparseEngine:
    """Engine-level: the compiled leaf stage and its NumPy fallback."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return load_dataset("reddit", "tiny", seed=3)[0]

    @pytest.mark.parametrize("policy", ["csr", "hybrid", "auto"])
    def test_fit_factors_identical_with_and_without_kernel(
            self, tensor, monkeypatch, policy):
        served = "numpy" if native.root_kernel() is None else "native"
        first, engine = sparse_fit(tensor, policy)
        sparse_calls = [c for c in engine.call_log
                        if c.representation != "dense"]
        assert sparse_calls
        assert {c.kernel for c in engine.call_log} == {served}
        assert not engine._aggregators or served == "numpy"
        monkeypatch.setattr(dispatch, "root_kernel", lambda: None)
        monkeypatch.setattr(sys.modules["repro.kernels.mttkrp_csf"],
                            "root_kernel", lambda: None)
        second, fallback = sparse_fit(tensor, policy)
        assert {c.kernel for c in fallback.call_log} == {"numpy"}
        assert [(c.representation, c.gathered_nnz)
                for c in fallback.call_log] == [
            (c.representation, c.gathered_nnz) for c in engine.call_log]
        for got, want in zip(first.model.factors, second.model.factors):
            assert got.tobytes() == want.tobytes()

    def test_kernel_tag_on_spans(self, tensor):
        result = repro.fit(tensor, rank=8, constraints="nonneg_l1",
                           repr_policy="csr", max_outer_iterations=3,
                           seed=5, observe=True)
        served = "numpy" if native.root_kernel() is None else "native"
        keys = [k for k in result.metrics["histograms"]
                if k.startswith("span_seconds") and "mttkrp" in k]
        assert keys and all(f"kernel={served}" in k for k in keys)
        assert any("representation=csr" in k for k in keys)


def off_in_vector_body(variant):
    """A :class:`~repro.kernels.native.RootKernel` whose *variant* is one
    ulp off at ranks of 8 and more, dense and sparse."""
    class OffInVectorBody(native.RootKernel):
        def bind(self, mode_order, factors, out, leaf=None):
            run = super().bind(mode_order, factors, out, leaf=leaf)
            if self.variant != variant or out.shape[1] < 8:
                return run

            def nudged(tree):
                run(tree)
                out.flat[-1] = np.nextafter(out.flat[-1], np.inf)
            return nudged

    return OffInVectorBody


def test_self_check_rejects_a_one_ulp_error_in_any_variant(kernels):
    for name, kernel in kernels.items():
        native.self_check(kernel)
        broken = off_in_vector_body(name)(kernel._fn, kernel.init, name)
        with pytest.raises(native.NativeUnavailable, match=name):
            native.self_check(broken)


@pytest.fixture(scope="module")
def private_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("xdg-cache")


class TestFallback:
    @pytest.fixture
    def fresh(self, private_cache, monkeypatch):
        """A clean resolution state and a private build cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache))
        native.reset()
        yield
        native.reset()

    @staticmethod
    def fit(tensor, observe=False):
        return repro.fit(tensor, rank=4, constraints="nonneg",
                         max_outer_iterations=3, seed=11, observe=observe)

    @staticmethod
    def break_compiler(monkeypatch, tmp_path):
        empty = tmp_path / "empty-bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))

    @staticmethod
    def break_compile(monkeypatch, tmp_path):
        monkeypatch.setattr(native, "CFLAGS",
                            native.CFLAGS + ("-fno-such-option-repro",))

    @staticmethod
    def break_self_check(monkeypatch, tmp_path):
        class OffByOneUlp(native.RootKernel):
            def bind(self, mode_order, factors, out):
                run = super().bind(mode_order, factors, out)

                def nudged(tree):
                    run(tree)
                    out.flat[0] = np.nextafter(out.flat[0], np.inf)
                return nudged

        monkeypatch.setattr(native, "RootKernel", OffByOneUlp)

    @staticmethod
    def break_sparse_self_check(monkeypatch, tmp_path):
        """Only the sparse leaf stage is off: one verdict still covers all."""
        class SparseOffByOneUlp(native.RootKernel):
            def bind(self, mode_order, factors, out, leaf=None):
                run = super().bind(mode_order, factors, out, leaf=leaf)
                if leaf is None:
                    return run

                def nudged(tree):
                    run(tree)
                    out.flat[0] = np.nextafter(out.flat[0], np.inf)
                return nudged

        monkeypatch.setattr(native, "RootKernel", SparseOffByOneUlp)

    @staticmethod
    def break_widest_variant(monkeypatch, tmp_path):
        """Only the served variant is off, and only at ranks of 8 and more."""
        widest = list(native.load_kernels())[-1]
        monkeypatch.setattr(native, "RootKernel", off_in_vector_body(widest))

    @pytest.mark.parametrize("failure", ["break_compiler", "break_compile",
                                         "break_self_check",
                                         "break_sparse_self_check",
                                         "break_widest_variant"])
    def test_one_warning_and_identical_factors(self, fresh, monkeypatch,
                                               tmp_path, failure):
        tensor = random_coo((20, 18, 16), 400, seed=12)
        if native.root_kernel() is None:
            pytest.skip("native CSF kernel unavailable on this machine")
        reference = self.fit(tensor)
        native.reset()
        getattr(self, failure)(monkeypatch, tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = self.fit(tensor, observe=True)
            second = self.fit(tensor)
        ours = [w for w in caught
                if "native CSF kernel unavailable" in str(w.message)]
        assert len(ours) == 1
        assert issubclass(ours[0].category, RuntimeWarning)
        assert native.root_kernel() is None
        counters = first.metrics["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("kernel_fallbacks")) == 1
        for result in (first, second):
            for got, want in zip(result.model.factors,
                                 reference.model.factors):
                assert got.tobytes() == want.tobytes()

    def test_build_is_cached_under_its_hash(self, fresh):
        if native.root_kernel() is None:
            pytest.skip("native CSF kernel unavailable on this machine")
        built = list(native.cache_dir().iterdir())
        assert [p.suffix for p in built] == [".so"]
        assert built[0] == native.library_path(native.find_compiler())
        mtime = built[0].stat().st_mtime_ns
        native.reset()
        assert native.root_kernel() is not None
        assert built[0].stat().st_mtime_ns == mtime  # loaded, not rebuilt
