"""Model persistence, the penalized objective, and the ONEMODE CSF
allocation policy."""

import numpy as np
import pytest

from repro import AOADMMOptions, CPModel, fit_aoadmm, init_factors
from repro.constraints import L1, NonNegative
from repro.core import load_model, penalized_objective, save_model
from repro.kernels import mttkrp_coo_reference
from repro.kernels.autotune import BackendAutotuner
from repro.kernels.dispatch import MTTKRPEngine, make_engine
from repro.tensor.random import random_factors


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = CPModel(random_factors((6, 5, 4), 3, seed=1))
        path = save_model(model, tmp_path / "m.npz")
        back = load_model(path)
        assert back.nmodes == 3 and back.rank == 3
        for a, b in zip(model.factors, back.factors):
            np.testing.assert_array_equal(a, b)
        assert back.weights is None

    def test_round_trip_with_weights(self, tmp_path):
        model = CPModel(random_factors((4, 3), 2, seed=2),
                        weights=np.array([2.0, 0.5]))
        back = load_model(save_model(model, tmp_path / "w.npz"))
        np.testing.assert_array_equal(back.weights, [2.0, 0.5])

    def test_suffix_appended(self, tmp_path):
        model = CPModel(random_factors((3, 3), 2, seed=3))
        path = save_model(model, tmp_path / "noext")
        assert path.suffix == ".npz" and path.exists()

    def test_cli_output_loadable(self, tmp_path, small_tensor):
        """The CLI's --output .npz and load_model share a format."""
        from repro.cli import main
        from repro.tensor import write_tns
        tns = tmp_path / "t.tns"
        write_tns(small_tensor, tns)
        out = tmp_path / "f.npz"
        main(["factorize", str(tns), "--rank", "3",
              "--max-iterations", "2", "--output", str(out)])
        model = load_model(out)
        assert model.shape == small_tensor.shape

    def test_many_mode_round_trip(self, tmp_path):
        """mode10 sorts after mode9 (numeric, not lexicographic): with
        >=10 modes a lexicographic sort would interleave mode1, mode10,
        mode11, ..., mode2 and scramble the factor order."""
        shape = tuple(range(2, 14))  # 12 modes, all sizes distinct
        model = CPModel(random_factors(shape, 2, seed=5))
        back = load_model(save_model(model, tmp_path / "deep.npz"))
        assert back.nmodes == 12
        assert back.shape == shape
        for a, b in zip(model.factors, back.factors):
            np.testing.assert_array_equal(a, b)

    def test_bad_file_rejected(self, tmp_path):
        np.savez(tmp_path / "bad.npz", mode0=np.ones((2, 2)),
                 mode2=np.ones((3, 2)))
        with pytest.raises(ValueError, match="non-contiguous"):
            load_model(tmp_path / "bad.npz")


class TestPenalizedObjective:
    def test_matches_error_identity(self, small_tensor):
        model = CPModel(random_factors(small_tensor.shape, 3, seed=4))
        obj = penalized_objective(model, small_tensor)
        err = model.relative_error(small_tensor)
        expected = 0.5 * (err ** 2) * small_tensor.norm_squared()
        assert obj == pytest.approx(expected, rel=1e-9)

    def test_penalties_added(self, small_tensor):
        factors = random_factors(small_tensor.shape, 3, seed=4)
        model = CPModel(factors)
        base = penalized_objective(model, small_tensor)
        with_l1 = penalized_objective(
            model, small_tensor, [L1(1.0), L1(1.0), L1(1.0)])
        l1_sum = sum(np.abs(f).sum() for f in model.factors)
        assert with_l1 == pytest.approx(base + l1_sum, rel=1e-9)

    def test_infeasible_is_infinite(self, small_tensor):
        factors = random_factors(small_tensor.shape, 3, seed=4)
        factors[0][0, 0] = -1.0
        model = CPModel(factors)
        assert penalized_objective(
            model, small_tensor,
            [NonNegative()] * 3) == np.inf

    def test_aoadmm_decreases_objective(self, small_tensor):
        res = fit_aoadmm(small_tensor, AOADMMOptions(
            rank=3, constraints="nonneg", seed=6,
            max_outer_iterations=20, outer_tolerance=0.0))
        final = penalized_objective(res.model, small_tensor,
                                    res.options.resolve_constraints(3))
        init_model = CPModel(init_factors(small_tensor, 3, "uniform",
                                          seed=6))
        initial = penalized_objective(init_model, small_tensor)
        assert np.isfinite(final)
        assert final < initial


class TestOneModeCSFPolicy:
    def test_one_tree_serves_all_modes(self, small_tensor, small_factors):
        engine = MTTKRPEngine(small_tensor, csf_allocation="one")
        for mode in range(3):
            ref = mttkrp_coo_reference(small_tensor, small_factors, mode)
            np.testing.assert_allclose(
                engine.mttkrp(small_factors, mode), ref, atol=1e-10)
        # Only the mode-0 tree was built.
        assert set(engine.trees._trees) == {0}

    def test_one_tree_computes_dense_under_sparse_policy(self, small_tensor,
                                                         small_factors):
        sparse = [np.where(np.abs(f) > 1.5, f, 0.0) for f in small_factors]
        engine = MTTKRPEngine(small_tensor, csf_allocation="one",
                              repr_policy="csr")
        dense = MTTKRPEngine(small_tensor, csf_allocation="one")
        for mode in range(3):
            assert engine.update_factor(mode, sparse[mode]) == "csr"
        for mode in range(3):
            assert (engine.mttkrp(sparse, mode).tobytes()
                    == dense.mttkrp(sparse, mode).tobytes())
        assert {c.representation for c in engine.call_log} == {"dense"}

    def test_memory_saving_vs_allmode(self, small_tensor, small_factors):
        one = MTTKRPEngine(small_tensor, csf_allocation="one")
        allm = MTTKRPEngine(small_tensor, csf_allocation="all")
        for mode in range(3):
            one.mttkrp(small_factors, mode)
            allm.mttkrp(small_factors, mode)
        assert one.trees.storage_bytes() < allm.trees.storage_bytes()

    def test_driver_runs_with_one_policy(self, small_tensor):
        engine = MTTKRPEngine(small_tensor, csf_allocation="one")
        res = fit_aoadmm(small_tensor, AOADMMOptions(
            rank=3, constraints="nonneg", seed=2,
            max_outer_iterations=5, outer_tolerance=0.0), engine=engine)
        ref_engine = MTTKRPEngine(small_tensor, csf_allocation="all")
        ref = fit_aoadmm(small_tensor, AOADMMOptions(
            rank=3, constraints="nonneg", seed=2,
            max_outer_iterations=5, outer_tolerance=0.0),
            engine=ref_engine)
        np.testing.assert_allclose(res.trace.errors(), ref.trace.errors(),
                                   rtol=1e-10)

    @pytest.mark.parametrize("tune", ["off", "model"])
    def test_make_engine_builds_and_tunes_one_tree(self, small_tensor,
                                                   tune):
        options = AOADMMOptions(rank=3, constraints="nonneg", seed=2,
                                max_outer_iterations=4,
                                outer_tolerance=0.0)
        engine = make_engine(small_tensor, csf_allocation="one", rank=3,
                             tune=tune)
        assert set(engine.trees._trees) == {0}
        if tune != "off":
            assert [d.mode for d in engine.tuning.decisions] == [0]
        # Reference: the same policy with every tree built and tuned.
        every = MTTKRPEngine(small_tensor, csf_allocation="one")
        every.trees.build_all()
        if tune != "off":
            every.apply_tuning(BackendAutotuner(mode=tune).tune_trees(
                every.trees, 3))
        res = fit_aoadmm(small_tensor, options, engine=engine)
        ref = fit_aoadmm(small_tensor, options, engine=every)
        assert set(engine.trees._trees) == {0}
        for a, b in zip(res.model.factors, ref.model.factors):
            assert a.tobytes() == b.tobytes()

    def test_unknown_allocation_rejected(self, small_tensor):
        with pytest.raises(ValueError):
            MTTKRPEngine(small_tensor, csf_allocation="bogus")
