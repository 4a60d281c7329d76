"""Dataset generator, registry, power-law, and loader tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    clear_cache,
    compressed_zipf_counts,
    dataset_names,
    distinct_values_estimate,
    generate_dataset,
    get_spec,
    load_dataset,
    zipf_expected_counts,
    zipf_weights,
)
from repro.tensor.stats import compute_stats, gini


class TestPowerlaw:
    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_weights(100, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_zero_exponent_uniform(self):
        w = zipf_weights(10, 0.0)
        np.testing.assert_allclose(w, 0.1)

    def test_expected_counts_total(self):
        counts = zipf_expected_counts(50, 1000.0, 1.2)
        assert counts.sum() == pytest.approx(1000.0)

    def test_compressed_counts_preserve_mass(self):
        counts, mult = compressed_zipf_counts(1_000_000, 5e7, 1.1,
                                              max_items=1000)
        assert len(counts) <= 1000
        assert (counts * mult).sum() == pytest.approx(5e7, rel=1e-9)
        assert mult.sum() == 1_000_000

    def test_compressed_small_n_is_exact(self):
        counts, mult = compressed_zipf_counts(100, 1e4, 1.0, max_items=1000)
        assert len(counts) == 100
        assert (mult == 1).all()

    def test_compressed_head_is_exact(self):
        exact = zipf_expected_counts(10_000, 1e6, 1.3)
        counts, mult = compressed_zipf_counts(10_000, 1e6, 1.3,
                                              max_items=200)
        np.testing.assert_allclose(counts[:100], exact[:100], rtol=1e-12)

    def test_distinct_values_estimate_limits(self):
        # Few draws from a huge universe: nearly all distinct.
        assert distinct_values_estimate(10.0, 1e9) == pytest.approx(
            10.0, rel=1e-6)
        # Many draws from a small universe: saturates at the universe.
        assert distinct_values_estimate(1e9, 100.0) == pytest.approx(100.0)


class TestRegistry:
    def test_table1_shapes(self):
        """Specs must carry the paper's Table I numbers."""
        assert get_spec("reddit").full_nnz == 95_000_000
        assert get_spec("nell").full_shape == (3_000_000, 2_000_000,
                                               25_000_000)
        assert get_spec("amazon").full_nnz == 1_700_000_000
        assert get_spec("patents").full_shape[0] == 46

    def test_all_datasets_have_presets(self):
        for name in dataset_names():
            spec = get_spec(name)
            for preset in ("tiny", "small", "medium"):
                scale = spec.preset(preset)
                assert len(scale.shape) == 3
                assert scale.nnz > 0

    def test_unknown_lookups(self):
        with pytest.raises(ValueError):
            get_spec("bogus")
        with pytest.raises(ValueError):
            get_spec("reddit").preset("huge")


class TestGeneration:
    @pytest.mark.parametrize("name", ["reddit", "nell", "amazon", "patents"])
    def test_tiny_generation_properties(self, name):
        tensor, truth = generate_dataset(name, "tiny", seed=1)
        spec = get_spec(name)
        assert tensor.shape == spec.preset("tiny").shape
        assert tensor.nnz > 0
        assert (tensor.vals > 0).all()
        assert len(truth) == 3
        assert truth[0].shape[1] == spec.planted_rank

    def test_deterministic(self):
        a, _ = generate_dataset("reddit", "tiny", seed=5)
        b, _ = generate_dataset("reddit", "tiny", seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = generate_dataset("reddit", "tiny", seed=5)
        b, _ = generate_dataset("reddit", "tiny", seed=6)
        assert not (a == b)

    def test_skew_is_present(self):
        """Slice non-zero distributions must be heavy-tailed (Gini high)."""
        tensor, _ = generate_dataset("reddit", "tiny", seed=1)
        stats = compute_stats(tensor, with_fibers=False)
        assert max(stats.slice_skew) > 0.4

    def test_patents_first_mode_near_uniform(self):
        tensor, _ = generate_dataset("patents", "tiny", seed=1)
        counts = tensor.mode_slice_counts(0)
        assert gini(counts[counts > 0]) < 0.3

    def test_unstructured_energy_floor(self):
        """The generated tensor must not be exactly low-rank."""
        from repro import AOADMMOptions, fit_aoadmm
        tensor, _ = generate_dataset("nell", "tiny", seed=2)
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=16, constraints="nonneg", seed=0, max_outer_iterations=15))
        assert res.relative_error > 0.2


class TestLoader:
    def test_memoization(self):
        clear_cache()
        a, _ = load_dataset("reddit", "tiny", seed=3)
        b, _ = load_dataset("reddit", "tiny", seed=3)
        assert a is b
        clear_cache()
        c, _ = load_dataset("reddit", "tiny", seed=3)
        assert c is not a and c == a

    def test_disk_cache(self, tmp_path):
        clear_cache()
        a, truth = load_dataset("reddit", "tiny", seed=4,
                                cache_dir=tmp_path)
        assert truth is not None
        clear_cache()
        b, truth2 = load_dataset("reddit", "tiny", seed=4,
                                 cache_dir=tmp_path)
        assert truth2 is None  # came from disk
        assert a == b
        clear_cache()


class TestStats:
    def test_gini_extremes(self):
        assert gini(np.ones(100)) == pytest.approx(0.0, abs=1e-9)
        concentrated = np.zeros(100)
        concentrated[0] = 1000.0
        assert gini(concentrated) > 0.9

    def test_compute_stats_fields(self, small_tensor):
        stats = compute_stats(small_tensor)
        assert stats.nnz == small_tensor.nnz
        assert len(stats.fibers_per_mode) == 3
        assert all(f > 0 for f in stats.fibers_per_mode)
        row = stats.summary_row()
        assert row["NNZ"] == small_tensor.nnz


#: Prints the generated values' digest and the squared norms, in hex.
_BLAS_CHILD = """
import hashlib
import numpy as np
from repro.datasets import generate_dataset
from repro.tensor import COOTensor, CSFTensor
tensor, _ = generate_dataset("patents", "small", 1)
vals = np.random.default_rng(0).random(10**6)
flat = COOTensor(np.zeros((1, vals.size), dtype=np.int64), vals, (1,))
print(hashlib.sha256(tensor.vals.tobytes()).hexdigest(),
      tensor.norm_squared().hex(), CSFTensor.from_coo(tensor).norm().hex(),
      flat.norm_squared().hex())
"""


def test_values_and_norms_do_not_depend_on_blas_threads():
    """BLAS ``ddot`` splits its sum across threads; the norms, and the
    dataset values scaled by them, must not move with the thread count."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", _BLAS_CHILD],
                               capture_output=True, text=True, env=env,
                               timeout=300)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
