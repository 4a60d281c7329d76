"""Tests for the model-priced MTTKRP slab-plan autotuner.

The autotuner's contract: **selection is performance-only** — whatever
the mode (``off`` / ``model``) or executor, ``method="auto"`` and tuned
engines are bit-identical to the untuned csf anchor, because every
candidate is a csf-family slab plan.  The model prices candidates
without timing anything, and ``measure`` is rejected when asked for
explicitly and ignored (with one warning) when it comes from
``REPRO_TUNE``.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

import repro
from repro.config import DEFAULT_SLAB_NNZ
from repro.kernels.autotune import (
    TUNE_ENV_VAR,
    BackendAutotuner,
    candidate_backends,
    resolve_tune_mode,
)
from repro.kernels.dispatch import MTTKRPEngine, make_engine, mttkrp
from repro.observability import MetricsRegistry
from repro.observability.state import set_active_registry
from repro.tensor.random import random_coo, random_factors

RANK = 4


@pytest.fixture
def tensor():
    return random_coo((40, 30, 20), nnz=2500, seed=5)


@pytest.fixture
def tree(tensor):
    engine = MTTKRPEngine(tensor)
    engine.trees.build_all()
    yield engine.trees.csf(0)
    engine.close()


@pytest.fixture
def factors(tensor):
    return random_factors(tensor.shape, RANK, seed=9)


# ---------------------------------------------------------------------------
# mode resolution & candidates
# ---------------------------------------------------------------------------

class TestResolveTuneMode:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(TUNE_ENV_VAR, "model")
        assert resolve_tune_mode("off") == "off"

    def test_explicit_invalid_raises(self):
        with pytest.raises(ValueError, match="unknown tune mode"):
            resolve_tune_mode("fastest")

    def test_explicit_measure_raises_naming_the_choices(self, tensor):
        from repro.core.options import AOADMMOptions
        choices = r"\('off', 'model'\)"
        with pytest.raises(ValueError, match=choices):
            resolve_tune_mode("measure")
        with pytest.raises(ValueError, match=choices):
            AOADMMOptions(tune="measure")
        with pytest.raises(ValueError, match=choices):
            make_engine(tensor, rank=RANK, tune="measure")

    def test_env_measure_warns_once_and_runs_model(self, monkeypatch):
        from repro.kernels import autotune as autotune_mod
        monkeypatch.setattr(autotune_mod, "_WARNED_ENV_VALUES", set())
        monkeypatch.setenv(TUNE_ENV_VAR, "measure")
        with pytest.warns(RuntimeWarning, match="'measure'"):
            assert resolve_tune_mode() == "model"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BackendAutotuner().mode == "model"

    def test_env_resolution_and_default(self, monkeypatch):
        monkeypatch.delenv(TUNE_ENV_VAR, raising=False)
        assert resolve_tune_mode() == "model"
        monkeypatch.setenv(TUNE_ENV_VAR, "off")
        assert resolve_tune_mode() == "off"

    def test_malformed_env_warns_once_per_value(self, monkeypatch):
        from repro.kernels import autotune as autotune_mod
        monkeypatch.setattr(autotune_mod, "_WARNED_ENV_VALUES", set())
        monkeypatch.setenv(TUNE_ENV_VAR, "turbo")
        with pytest.warns(RuntimeWarning, match=TUNE_ENV_VAR):
            assert resolve_tune_mode() == "model"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tune_mode() == "model"
        monkeypatch.setenv(TUNE_ENV_VAR, "ludicrous")
        with pytest.warns(RuntimeWarning, match="ludicrous"):
            assert resolve_tune_mode() == "model"

class TestCandidates:
    def test_dedupes_by_slab_count(self):
        # 2500 nnz: every ladder rung >= 2500 collapses to one slab.
        cands = candidate_backends(2500, 40)
        counts = [c.n_slabs for c in cands]
        assert len(counts) == len(set(counts))
        assert all(c.n_slabs >= 1 for c in cands)

    def test_default_target_always_a_rung(self):
        cands = candidate_backends(10_000_000, 100_000, ladder=(512,))
        assert any(c.slab_nnz_target == DEFAULT_SLAB_NNZ for c in cands)

    def test_empty_tree_has_no_candidates(self):
        assert candidate_backends(0, 0) == []

    def test_requested_count_bounds_tiling(self, tree):
        # n_slabs is the *requested* count (ceil(nnz/target) capped at
        # nslices); balanced_chunks may merge cuts on skewed trees, so
        # the realized count is bounded by — and a pure function of —
        # the request.
        from repro.tensor.tiling import CSFTiling
        for cand in candidate_backends(tree.nnz, tree.nslices,
                                       ladder=(64, 500, 10_000)):
            tiling = CSFTiling(tree, slab_nnz_target=cand.slab_nnz_target)
            assert 1 <= tiling.slab_count <= cand.n_slabs
            again = CSFTiling(tree, n_slabs=cand.n_slabs)
            assert again.slab_count == tiling.slab_count


# ---------------------------------------------------------------------------
# the model prices without a clock
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_model_mode_never_calls_clock(self, tree, monkeypatch):
        calls = []
        real = time.perf_counter

        def counting_clock() -> float:
            calls.append(1)
            return real()

        monkeypatch.setattr(time, "perf_counter", counting_clock)
        tuner = BackendAutotuner(mode="model", ladder=(64, 500, 10_000))
        decision = tuner.decide_tree(tree, 0, RANK)
        assert decision.source == "model"
        assert len(decision.model_seconds) == 3
        assert calls == []


# ---------------------------------------------------------------------------
# bit-identity: the whole point
# ---------------------------------------------------------------------------

class TestBitIdentity:
    def test_stateless_auto_matches_csf_across_tune_modes(
            self, tensor, factors, monkeypatch):
        anchor = mttkrp(tensor, factors, 0, method="csf")
        for mode in ("off", "model"):
            monkeypatch.setenv(TUNE_ENV_VAR, mode)
            out = mttkrp(tensor, factors, 0, method="auto")
            np.testing.assert_array_equal(out, anchor)

    def test_auto_is_the_dispatch_default(self, tensor, factors):
        np.testing.assert_array_equal(
            mttkrp(tensor, factors, 1),
            mttkrp(tensor, factors, 1, method="auto"))

    # "measure" arrives through REPRO_TUNE: it warns and tunes with the
    # model, so the engine must still match the anchor bit for bit.
    @pytest.mark.parametrize("tune", ["off", "model", "measure"])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_tuned_engines_match_untuned_anchor(
            self, tensor, factors, tune, executor, monkeypatch):
        anchor_engine = make_engine(tensor, tune="off")
        if tune == "measure":
            from repro.kernels import autotune as autotune_mod
            monkeypatch.setattr(autotune_mod, "_WARNED_ENV_VALUES", set())
            monkeypatch.setenv(TUNE_ENV_VAR, tune)
            with pytest.warns(RuntimeWarning, match="'measure'"):
                engine = make_engine(tensor, rank=RANK, executor=executor)
            assert engine.tuning.tune_mode == "model"
        else:
            engine = make_engine(tensor, rank=RANK, tune=tune,
                                 executor=executor)
        try:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    np.array(engine.mttkrp(factors, mode), copy=True),
                    np.array(anchor_engine.mttkrp(factors, mode),
                             copy=True))
        finally:
            engine.close()
            anchor_engine.close()

    def test_fit_bit_identical_across_tune_modes(self, tensor):
        results = [repro.fit(tensor, rank=3, seed=11,
                             max_outer_iterations=3, tune=mode)
                   for mode in ("off", "model")]
        for other in results[1:]:
            for a, b in zip(results[0].factors, other.factors):
                np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# engine wiring
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_make_engine_tunes_when_rank_given(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="model")
        try:
            assert engine.tuning is not None
            assert engine.tuning.tune_mode == "model"
            for decision in engine.tuning.decisions:
                tiling = engine.tiling(decision.mode)
                assert tiling.slab_nnz_target == decision.slab_nnz_target
        finally:
            engine.close()

    def test_explicit_slab_target_pins(self, tensor):
        engine = make_engine(tensor, rank=RANK, slab_nnz_target=100)
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_no_rank_no_tuning(self, tensor):
        engine = make_engine(tensor)
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_tune_off_disables(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="off")
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_apply_tuning_after_tiling_rejected(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="model")
        report = engine.tuning
        engine.tiling(0)
        with pytest.raises(ValueError, match="before any tiling"):
            engine.apply_tuning(report)
        engine.close()

    def test_streaming_engine_never_tuned(self, tensor, tmp_path):
        from repro.tensor.store import ShardedTensorStore
        store = ShardedTensorStore.create(tensor, tmp_path / "store")
        try:
            engine = make_engine(store, rank=RANK, tune="model")
            assert not hasattr(engine, "tuning") or engine.tuning is None
            engine.close()
        finally:
            store.close()

    def test_options_validate_tune(self):
        from repro.core.options import AOADMMOptions
        with pytest.raises(ValueError, match="tune mode"):
            AOADMMOptions(tune="fastest")


# ---------------------------------------------------------------------------
# observability & CLI
# ---------------------------------------------------------------------------

class TestTelemetryAndCli:
    def test_tune_metrics_recorded(self, tree):
        registry = MetricsRegistry(enabled=True)
        previous = set_active_registry(registry)
        try:
            BackendAutotuner(mode="model", ladder=(64, 500, 10_000)
                             ).decide_tree(tree, 0, RANK)
        finally:
            set_active_registry(previous)
        snap = registry.snapshot()
        assert any(k.startswith("tune_decisions") and "source=model" in k
                   for k in snap["counters"])
        assert any(k.startswith("tune_slab_nnz_target")
                   for k in snap["gauges"])
        assert any("span=tune" in k for k in snap["histograms"])

    def test_cli_factorize_accepts_tune_flag(self, tensor, tmp_path,
                                             capsys):
        from repro.cli import main
        from repro.tensor.io import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        code = main(["factorize", str(tns), "--rank", "3",
                     "--max-iterations", "2", "--tune", "model"])
        assert code == 0
        assert "stopped:" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["factorize", str(tns), "--tune", "measure"])
        assert "'off', 'model'" in capsys.readouterr().err
