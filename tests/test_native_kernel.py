"""The compiled root-mode CSF kernel: bit identity, input safety, fallback.

The contract is byte equality (``tobytes()``) with the NumPy sweep
:func:`repro.kernels.mttkrp_csf._upward_to_level` — not closeness — on
every fan-out branch of NumPy's pairwise summation, every rank shape,
signed zeros, strided factor views, memmapped store slabs and concurrent
calls.  When the kernel cannot be built or fails its self-check, the
NumPy sweep serves with one warning and unchanged factors.
"""

import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.kernels import native
from repro.kernels.dispatch import MTTKRPEngine, StreamingMTTKRPEngine
from repro.kernels.mttkrp_csf import _upward_to_level, mttkrp_csf_root
from repro.tensor import COOTensor, CSFTensor, ShardedTensorStore, random_coo
from repro.tensor.tiling import _make_slab

#: Child counts reaching every pairwise branch: a node with k children
#: pairwise-sums k - 1 rows (<8, exactly 8, 8..128, >128 with splits).
FANOUTS = (1, 7, 8, 9, 128, 129, 300)
#: Small fan-outs for the levels a test is not probing.
SMALL = (1, 2, 3)
RANKS = (1, 7, 32)


@pytest.fixture(scope="module")
def kernel():
    """The compiled kernel itself, without the loader's self-check."""
    try:
        return native.RootKernel(native.load_function(),
                                 native.numpy_pairwise_init())
    except native.NativeUnavailable as exc:
        pytest.skip(f"native CSF kernel unavailable: {exc}")


def test_kernel_serves_wherever_it_builds(kernel):
    """A machine that can build the kernel must also pass its self-check."""
    assert native.root_kernel() is not None


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


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("rank", RANKS)
    def test_three_mode_every_fanout_at_both_levels(self, kernel, rank):
        rng = np.random.default_rng(1)
        tree = native.probe_tree([FANOUTS, FANOUTS], rng)
        factors = signed_factors(rng, tree.shape, rank)
        assert_bytes_equal(native_root(kernel, tree, factors),
                           numpy_root(tree, factors))

    @pytest.mark.parametrize("nmodes,probed", [
        (nmodes, level) for nmodes in (4, 5) for level in range(nmodes - 1)])
    @pytest.mark.parametrize("rank", RANKS)
    def test_deep_trees_every_fanout_at_each_level(self, kernel, nmodes,
                                                    probed, rank):
        rng = np.random.default_rng([nmodes, probed, rank])
        fans = [FANOUTS if level == probed else SMALL
                for level in range(nmodes - 1)]
        tree = native.probe_tree(fans, rng, dim=20)
        factors = signed_factors(rng, tree.shape, rank)
        assert_bytes_equal(native_root(kernel, tree, factors),
                           numpy_root(tree, factors))

    @pytest.mark.parametrize("shape", [(12, 9, 15), (6, 5, 7, 4),
                                       (5, 4, 6, 3, 4)])
    def test_trees_built_from_coo_every_root(self, kernel, shape):
        rng = np.random.default_rng(len(shape))
        tensor = random_coo(shape, 300, seed=3, value_dist="normal")
        factors = signed_factors(rng, shape, 7)
        for root in range(len(shape)):
            order = (root,) + tuple(m for m in range(len(shape))
                                    if m != root)
            tree = CSFTensor.from_coo(tensor, mode_order=order)
            assert_bytes_equal(native_root(kernel, tree, factors),
                               numpy_root(tree, factors))

    def test_signed_zeros_and_negatives(self, kernel):
        rng = np.random.default_rng(2)
        tree = native.probe_tree([(1, 2, 9), (1, 2, 3, 9)], rng, dim=6)
        vals = np.where(np.arange(tree.nnz) % 2, -0.0, -1.5)
        tree = CSFTensor(tree.shape, tree.mode_order, tree.fids,
                         tree.fptr, vals)
        factors = [np.full((n, 3), -0.0) for n in tree.shape]
        factors[1][::2] = -2.0
        got = native_root(kernel, tree, factors)
        assert_bytes_equal(got, numpy_root(tree, factors))
        assert np.signbit(got).any()

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
    def test_out_of_range_fid_raises_like_numpy(self, kernel, small_tensor,
                                                small_factors, level):
        tree = CSFTensor.from_coo(small_tensor)
        bad = with_leaf_id(tree, level, 3, 10**6)
        with pytest.raises(IndexError):
            numpy_root(bad, small_factors)
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

    @pytest.mark.parametrize("failure", ["break_compiler", "break_compile",
                                         "break_self_check"])
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
