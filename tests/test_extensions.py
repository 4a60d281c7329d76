"""Tests for the future-work extension: the analytical block-size model."""

import pytest

from repro.admm import recommend_block_size


class TestBlockSizeModel:
    def test_paper_regime_at_rank_50(self):
        """On the paper machine at rank 50 the recommendation lands in
        the tens of rows — the regime of the paper's empirical 50."""
        model = recommend_block_size(3_000_000, 50)
        assert 10 <= model.recommended <= 500

    def test_cache_bound_shrinks_with_rank(self):
        small = recommend_block_size(10**6, 10)
        large = recommend_block_size(10**6, 200)
        assert large.cache_bound < small.cache_bound

    def test_overhead_bound_grows_with_overhead(self):
        cheap = recommend_block_size(10**6, 50, per_block_overhead=1e-7)
        costly = recommend_block_size(10**6, 50, per_block_overhead=1e-4)
        assert costly.overhead_bound > cheap.overhead_bound

    def test_balance_bound_limits_short_modes(self):
        model = recommend_block_size(100, 50, threads=20)
        assert model.balance_bound <= 100 // 20

    def test_convergence_bound_tightens_with_row_variance(self):
        uniform = recommend_block_size(10**6, 50, iter_cv=0.0)
        skewed = recommend_block_size(10**6, 50, iter_cv=0.5)
        assert skewed.convergence_bound < uniform.convergence_bound

    def test_recommendation_within_rows(self):
        model = recommend_block_size(30, 50)
        assert 1 <= model.recommended <= 30

    def test_explain_mentions_all_bounds(self):
        text = recommend_block_size(10**5, 50).explain()
        for word in ("cache", "balance", "convergence"):
            assert word in text

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommend_block_size(0, 50)
        with pytest.raises(ValueError):
            recommend_block_size(100, 50, conv_waste=0.0)

