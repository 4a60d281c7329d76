"""Out-of-core streaming: slab cache, streamer, engine, and fits.

The load-bearing contract everywhere: residency decisions (budget,
eviction order, prefetch timing) are **bit-invisible** — every factor,
MTTKRP result, and trace must equal the in-core run bitwise.
"""

import glob
import tempfile
import warnings

import numpy as np
import pytest

import repro
from repro.core.aoadmm import fit_aoadmm
from repro.core.options import AOADMMOptions
from repro.kernels import native
from repro.kernels.dispatch import MTTKRPEngine, make_engine
from repro.observability import Observability
from repro.tensor import (
    CSFTensor,
    ShardedTensorStore,
    SlabCache,
    SlabStreamer,
    open_tensor,
    random_coo,
)
from repro.tensor.random import random_factors

RANK = 4


@pytest.fixture
def tensor():
    return random_coo((30, 25, 20), 500, seed=42)


@pytest.fixture
def store(tmp_path, tensor):
    return ShardedTensorStore.create(tensor, tmp_path / "store",
                                     slab_nnz_target=64)


@pytest.fixture
def factors(tensor):
    return random_factors(tensor.shape, RANK, seed=5)


def _incore_mttkrp(tensor, factors):
    engine = MTTKRPEngine(tensor, repr_policy="dense")
    engine.trees.build_all()
    try:
        return [np.array(engine.mttkrp(factors, m), copy=True)
                for m in range(tensor.nmodes)]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# streaming kernel bit-identity
# ---------------------------------------------------------------------------

class TestStreamingBitIdentity:
    @pytest.mark.parametrize("budget", [None, 4096, 1])
    def test_matches_in_core_every_mode(self, store, tensor, factors,
                                        budget):
        expected = _incore_mttkrp(tensor, factors)
        with MTTKRPEngine(store, max_bytes_in_core=budget) as eng:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    eng.mttkrp(factors, mode), expected[mode])

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_matches_under_prefetch_executors(self, store, tensor,
                                              factors, executor):
        expected = _incore_mttkrp(tensor, factors)
        eng = MTTKRPEngine(store, max_bytes_in_core=8192,
                           executor=executor)
        try:
            # Two sweeps: the second hits whatever stayed resident.
            for _ in range(2):
                for mode in range(tensor.nmodes):
                    np.testing.assert_array_equal(
                        eng.mttkrp(factors, mode), expected[mode])
        finally:
            eng.close()

    def test_churn_budget_below_one_slab(self, store, tensor, factors):
        """A starvation budget degrades to load-evict churn, not failure."""
        expected = _incore_mttkrp(tensor, factors)
        with MTTKRPEngine(store, max_bytes_in_core=1) as eng:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    eng.mttkrp(factors, mode), expected[mode])
            stats = eng.cache.stats()
            assert stats["evictions"] > 0
            assert stats["resident_count"] == 1  # never below one slab

    def test_unbounded_budget_keeps_everything(self, store, tensor,
                                               factors, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_BYTES_IN_CORE", raising=False)
        with MTTKRPEngine(store) as eng:
            for mode in range(tensor.nmodes):
                eng.mttkrp(factors, mode)
            assert eng.cache.stats()["evictions"] == 0
            assert len(eng.cache) == sum(
                store.slab_count(m) for m in range(store.nmodes))
            # A second sweep is all hits, zero loads.
            loads = eng.cache.loads
            eng.mttkrp(factors, 0)
            assert eng.cache.loads == loads

    def test_call_log_records_streaming(self, store, factors):
        with MTTKRPEngine(store, max_bytes_in_core=4096) as eng:
            eng.mttkrp(factors, 1)
            [stats] = eng.call_log
            assert stats.mode == 1
            assert stats.slab_count == store.slab_count(1)



def _sparse_factors(shape, seed=5):
    """Factors with about 90% zeros: below the 20% density threshold."""
    gen = np.random.default_rng(seed)
    factors = []
    for rows in shape:
        factor = gen.standard_normal((rows, RANK))
        factor[gen.random((rows, RANK)) < 0.9] = 0.0
        factors.append(factor)
    return factors


def _sparse_run(engine, factors):
    """Every mode's output and ``(representation, gathered_nnz)`` log."""
    for mode, factor in enumerate(factors):
        engine.update_factor(mode, factor)
    outs = [np.array(engine.mttkrp(factors, m), copy=True)
            for m in range(len(factors))]
    return outs, [(c.representation, c.gathered_nnz)
                  for c in engine.call_log]


class TestStreamedSparseFactors:
    """A store reads CSR / CSR-H deep factors exactly as in core does."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("budget", [1, 4096, None])
    @pytest.mark.parametrize("policy", ["csr", "hybrid", "auto"])
    def test_matches_in_core_every_mode(self, store, tensor, policy,
                                        budget, executor):
        factors = _sparse_factors(tensor.shape)
        # Without the compiled kernel a store computes dense.
        served = native.root_kernel() is not None
        in_core = MTTKRPEngine(tensor, executor=executor,
                               repr_policy=policy if served else "dense")
        expected, expected_log = _sparse_run(in_core, factors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with MTTKRPEngine(store, repr_policy=policy, executor=executor,
                              max_bytes_in_core=budget) as eng:
                got, log = _sparse_run(eng, factors)
        for mode in range(tensor.nmodes):
            assert got[mode].tobytes() == expected[mode].tobytes()
        assert log == expected_log
        assert not served or any(rep != "dense" for rep, _ in log)

    def test_without_kernel_store_computes_dense(self, store, tensor,
                                                 no_native):
        factors = _sparse_factors(tensor.shape)
        expected = _incore_mttkrp(tensor, factors)
        with MTTKRPEngine(store, repr_policy="auto") as eng:
            assert {eng.update_factor(m, f)
                    for m, f in enumerate(factors)} == {"dense"}
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(eng.mttkrp(factors, mode),
                                              expected[mode])
            assert {(c.representation, c.kernel)
                    for c in eng.call_log} == {("dense", "numpy")}


class TestMakeEngine:
    def test_store_gets_streamed_engine(self, store):
        eng = make_engine(store)
        assert eng.store is store and eng.trees is None
        assert eng.cache is not None
        # Engine inherits the store's budget when not given one.
        store.max_bytes_in_core = 1234
        assert make_engine(store).max_bytes_in_core == 1234

    def test_store_keeps_sparse_policy_without_warning(self, store):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eng = make_engine(store, repr_policy="auto")
        assert eng.repr_policy == "auto"

    def test_coo_gets_in_core_engine(self, tensor, factors):
        eng = make_engine(tensor)
        assert isinstance(eng, MTTKRPEngine)
        eng.mttkrp(factors, 0)  # trees pre-built by make_engine

    def test_csf_converts_through_coo(self, tensor, factors):
        expected = _incore_mttkrp(tensor, factors)
        eng = make_engine(CSFTensor.from_coo(tensor))
        np.testing.assert_array_equal(eng.mttkrp(factors, 0), expected[0])


# ---------------------------------------------------------------------------
# SlabCache / SlabStreamer units
# ---------------------------------------------------------------------------

class TestSlabCache:
    def test_evicts_most_recent_but_the_touched_slab(self):
        cache = SlabCache(max_bytes_in_core=30)
        for i in range(3):
            cache.put((0, i), f"slab{i}", 10)
        assert cache.resident_keys() == [(0, 0), (0, 1), (0, 2)]
        # Touch the oldest: it becomes the most recently used.
        assert cache.get((0, 0), lambda: None, 10) == "slab0"
        assert cache.resident_keys() == [(0, 1), (0, 2), (0, 0)]
        # Over budget: (0, 3) stays and the slab touched before it,
        # (0, 0), goes; the older (0, 1) and (0, 2) stay resident.
        cache.put((0, 3), "slab3", 10)
        assert cache.resident_keys() == [(0, 1), (0, 2), (0, 3)]
        assert cache.resident_bytes == 30
        assert cache.evictions == 1

    def test_cyclic_scan_hits(self):
        """Five slabs cycled through room for three: LRU would miss on
        every lookup; a fixed resident set hits three times a sweep."""
        cache = SlabCache(max_bytes_in_core=30)
        for _ in range(3):
            for i in range(5):
                assert cache.get((0, i), lambda i=i: f"slab{i}",
                                 10) == f"slab{i}"
        assert cache.stats()["hits"] == 6
        assert cache.stats()["loads"] == 9
        assert cache.peak_resident_bytes == 40  # one insert over, then evict

    def test_never_evicts_last_touched(self):
        cache = SlabCache(max_bytes_in_core=5)
        cache.put((0, 0), "big", 100)
        assert len(cache) == 1  # alone over budget: stays
        cache.put((0, 1), "bigger", 200)
        assert cache.resident_keys() == [(0, 1)]

    def test_counters_and_stats(self):
        cache = SlabCache()
        assert cache.get((1, 0), lambda: "x", 7) == "x"
        assert cache.get((1, 0), lambda: "y", 7) == "x"  # hit, not reload
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["loads"] == 1
        assert stats["resident_bytes"] == 7
        assert stats["peak_resident_bytes"] == 7

    def test_clear_keeps_counter_totals(self):
        cache = SlabCache()
        cache.get((0, 0), lambda: "x", 3)
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert cache.loads == 1

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            SlabCache(max_bytes_in_core=0)


class TestSlabStreamer:
    def test_streams_in_index_order(self, store):
        cache = SlabCache()
        streamer = SlabStreamer(store, cache)
        indices = [slab.index for slab in streamer.iter_mode(0)]
        assert indices == list(range(store.slab_count(0)))

    def test_prefetch_counts_with_executor(self, store):
        from repro.parallel.executor import get_executor
        cache = SlabCache()
        streamer = SlabStreamer(store, cache, executor=get_executor("serial"))
        list(streamer.iter_mode(0))
        assert streamer.prefetches == store.slab_count(0) - 1
        # Fully resident now: a second sweep prefetches nothing.
        list(streamer.iter_mode(0))
        assert streamer.prefetches == store.slab_count(0) - 1
        assert cache.hits == store.slab_count(0)

    def test_no_executor_means_no_prefetch(self, store):
        streamer = SlabStreamer(store, SlabCache())
        list(streamer.iter_mode(0))
        assert streamer.prefetches == 0


# ---------------------------------------------------------------------------
# whole fits out of core
# ---------------------------------------------------------------------------

class TestFitOutOfCore:
    def test_fit_bitwise_under_quarter_budget(self, tensor, tmp_path):
        in_core = repro.fit(tensor, rank=RANK, seed=0,
                            max_outer_iterations=5)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        budget = store.storage_bytes() // 5  # < 25% of the footprint
        assert budget >= 1
        store.max_bytes_in_core = budget
        ooc = repro.fit(store, rank=RANK, seed=0, max_outer_iterations=5)
        for a, b in zip(in_core.factors, ooc.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_core.trace.errors(),
                                      ooc.trace.errors())

    def test_fit_bitwise_under_churn_budget(self, tensor, tmp_path):
        """Budget below a single slab: maximal eviction churn, same bits."""
        in_core = repro.fit(tensor, rank=RANK, seed=0,
                            max_outer_iterations=3)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        store.max_bytes_in_core = 1
        ooc = repro.fit(store, rank=RANK, seed=0, max_outer_iterations=3)
        for a, b in zip(in_core.factors, ooc.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_core.trace.errors(),
                                      ooc.trace.errors())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_fit_hits_resident_slabs_under_quarter_budget(
            self, tensor, tmp_path, executor):
        """Repeated sweeps over every mode's slabs hit the resident set
        under a quarter budget, with the in-core bits."""
        in_core = repro.fit(tensor, rank=RANK, seed=0,
                            max_outer_iterations=4)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        slabs = sum(store.slab_count(m) for m in range(tensor.nmodes))
        engine = MTTKRPEngine(store, executor=executor,
                              max_bytes_in_core=store.storage_bytes() // 4)
        ooc = fit_aoadmm(store, AOADMMOptions(rank=RANK, seed=0,
                                              max_outer_iterations=4),
                         engine=engine)
        stats = engine.cache.stats()
        assert stats["hits"] > 0
        assert stats["loads"] < 4 * slabs
        for a, b in zip(in_core.factors, ooc.model.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_core.trace.errors(),
                                      ooc.trace.errors())

    def test_fit_observes_slab_metrics(self, tensor, tmp_path):
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        budget = store.storage_bytes() // 5
        store.max_bytes_in_core = budget
        result = repro.fit(store, rank=RANK, seed=0,
                           max_outer_iterations=3, observe=True)
        counters = result.metrics["counters"]
        assert any(k.startswith("slab_loads") for k in counters)
        assert any(k.startswith("slab_evictions") for k in counters)
        gauges = result.metrics["gauges"]
        assert any(k.startswith("slab_resident_bytes") for k in gauges)

    def test_sparse_cli_fit_streamed_matches_in_core(self, tmp_path,
                                                      monkeypatch):
        """The sparse case of CI's "streamed vs in-core" step: its
        streamed fit must really read CSR / CSR-H deep factors."""
        from repro.cli import main

        calls = []
        mttkrp = MTTKRPEngine.mttkrp

        def spy(engine, factors, mode):
            out = mttkrp(engine, factors, mode)
            calls.append((engine.store is not None,
                          engine.call_log[-1].representation))
            return out

        monkeypatch.setattr(MTTKRPEngine, "mttkrp", spy)
        # As in that step: the budget comes from the flag alone.
        monkeypatch.delenv("REPRO_MAX_BYTES_IN_CORE", raising=False)
        tns, store = str(tmp_path / "t.tns"), str(tmp_path / "t.store")
        assert main(["generate", "reddit", tns, "--preset", "tiny",
                     "--seed", "0"]) == 0
        assert main(["shard", tns, store, "--slab-nnz", "4096"]) == 0
        fit = ["--rank", "8", "--seed", "0", "--tolerance", "0.0",
               "--max-iterations", "8", "--constraint", "nonneg_l1",
               "--unblocked", "--repr", "auto"]
        outs = [str(tmp_path / "in_core.npz"), str(tmp_path / "streamed.npz")]
        assert main(["factorize", tns, *fit, "--output", outs[0]]) == 0
        assert main(["factorize", store, *fit, "--max-bytes-in-core",
                     "65536", "--output", outs[1]]) == 0
        streamed = {rep for ooc, rep in calls if ooc}
        if native.root_kernel() is None:
            assert streamed == {"dense"}
            return
        assert streamed & {"csr", "csr-h"}
        a, b = np.load(outs[0]), np.load(outs[1])
        assert a.files == b.files
        for key in a.files:
            assert a[key].tobytes() == b[key].tobytes()

    def test_checkpoint_interop_in_core_to_store(self, tensor, tmp_path):
        """A checkpoint from an in-core run resumes on the sharded store."""
        path = tmp_path / "ck.npz"
        opts = dict(rank=RANK, seed=0, constraints="nonneg")
        fit_aoadmm(tensor, AOADMMOptions(max_outer_iterations=2,
                                         checkpoint_every=2,
                                         checkpoint_path=path, **opts))
        full = fit_aoadmm(tensor,
                          AOADMMOptions(max_outer_iterations=4, **opts))
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        store.max_bytes_in_core = 4096
        resumed = fit_aoadmm(store,
                             AOADMMOptions(max_outer_iterations=4, **opts),
                             resume_from=path)
        for a, b in zip(full.model.factors, resumed.model.factors):
            np.testing.assert_array_equal(a, b)

    def test_wrong_store_rejected_on_resume(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        opts = dict(rank=RANK, seed=0)
        fit_aoadmm(tensor, AOADMMOptions(max_outer_iterations=2,
                                         checkpoint_every=2,
                                         checkpoint_path=path, **opts))
        other = random_coo((30, 25, 20), 500, seed=43)
        store = ShardedTensorStore.create(other, tmp_path / "s")
        with pytest.raises(ValueError, match="different tensor"):
            fit_aoadmm(store, AOADMMOptions(max_outer_iterations=3, **opts),
                       resume_from=path)

    def test_no_leaked_temp_shards(self, tensor, tmp_path):
        pattern = tempfile.gettempdir() + "/repro_shards_*"
        before = set(glob.glob(pattern))
        with open_tensor(tensor, max_bytes_in_core=4096) as store:
            repro.fit(store, rank=3, seed=0, max_outer_iterations=2)
        assert set(glob.glob(pattern)) == before
