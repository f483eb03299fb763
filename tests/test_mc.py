"""Tests of the Monte Carlo oracles: determinism, laws, and error bars."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzline import (
    MemoryParams,
    expected_coherence_near,
    expected_max_geometric,
    mc_coherence_near,
    mc_expected_max,
    mc_yield_memoryless,
    sample_geometric,
    yield_memoryless,
)
from ghzline.mc import _geometric_block, _mc_mean
from util import make_cfg


class TestSampleGeometric:
    def test_certain_success_is_always_one(self):
        rng = np.random.default_rng(0)
        assert all(sample_geometric(1.0, rng) == 1 for _ in range(50))

    @given(p=st.floats(min_value=0.01, max_value=0.999, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_support_starts_at_one(self, p, seed):
        value = sample_geometric(p, np.random.default_rng(seed))
        assert isinstance(value, int) and value >= 1

    def test_mean_matches_law(self):
        p, n = 0.25, 20000
        rng = np.random.default_rng(123)
        mean = sum(sample_geometric(p, rng) for _ in range(n)) / n
        sigma = math.sqrt(1.0 - p) / p  # geometric standard deviation
        assert abs(mean - 1.0 / p) <= 3.0 * sigma / math.sqrt(n)

    def test_first_attempt_frequency(self):
        p, n = 0.3, 20000
        rng = np.random.default_rng(7)
        hits = sum(sample_geometric(p, rng) == 1 for _ in range(n)) / n
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits - p) <= 3.0 * sigma

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(ValueError):
            sample_geometric(bad, np.random.default_rng(0))


class TestDeterminism:
    def test_same_seed_same_bits(self):
        a = mc_expected_max(0.3, 0.4, num_samples=150000, seed=42)
        b = mc_expected_max(0.3, 0.4, num_samples=150000, seed=42)
        assert a.estimate == b.estimate
        assert a.standard_error == b.standard_error
        assert a.num_samples == b.num_samples == 150000
        assert a.seed == 42

    def test_different_seeds_differ(self):
        a = mc_expected_max(0.3, 0.4, num_samples=65536, seed=1)
        b = mc_expected_max(0.3, 0.4, num_samples=65536, seed=2)
        assert a.estimate != b.estimate

    def test_partial_chunk_is_deterministic(self):
        # 100000 spans one full chunk plus a partial one
        a = mc_expected_max(0.5, 0.5, num_samples=100000, seed=9)
        b = mc_expected_max(0.5, 0.5, num_samples=100000, seed=9)
        assert a.estimate == b.estimate


class TestExpectedMaxOracle:
    def test_deterministic_inputs(self):
        result = mc_expected_max(1.0, 1.0, num_samples=10000, seed=0)
        assert result.estimate == 1.0
        assert result.standard_error == 0.0

    @pytest.mark.parametrize("pa,pc,seed", [(0.5, 0.5, 11), (0.2, 0.7, 12),
                                            (0.05, 0.05, 13)])
    def test_matches_formula(self, pa, pc, seed):
        mc = mc_expected_max(pa, pc, num_samples=200000, seed=seed)
        formula = expected_max_geometric(pa, pc)
        assert abs(mc.estimate - formula) <= 3.0 * mc.standard_error

    def test_huge_counts_are_scaled_exactly(self):
        # counts near 2^1000 are sampled scaled by a power of two: the mean
        # is the unscaled one bit for bit, and the standard error is finite
        p = 2.0**-1000

        def unscaled(rng, size):
            n_a = _geometric_block(rng, p, size)
            return np.maximum(n_a, _geometric_block(rng, p, size))

        result = mc_expected_max(p, p, num_samples=100000, seed=4)
        with np.errstate(over="ignore"):  # the unscaled squares overflow
            assert result.estimate == _mc_mean(unscaled, 100000, 4).estimate
        assert 0.0 < result.standard_error < math.inf
        formula = expected_max_geometric(p, p)
        assert abs(result.estimate - formula) <= 3.0 * result.standard_error

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            mc_expected_max(0.0, 0.5)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            mc_expected_max(0.5, 0.5, num_samples=0)


class TestCoherenceOracle:
    def test_deterministic_clicks_hit_the_constant(self):
        cfg = make_cfg(len_ab=10.0, len_bc=50.0, memory=MemoryParams(0.9, 2.5))
        result = mc_coherence_near(cfg, num_samples=10000, seed=0)
        assert result.estimate == pytest.approx(
            math.exp(-2.0 * 10.0 / (2.0e5 * 2.5)), rel=1e-14
        )
        assert result.standard_error <= 1e-15

    @pytest.mark.parametrize("tab,tbc,t2,seed", [
        (0.5, 0.5, 0.01, 21),
        (0.3, 0.7, 0.002, 22),
        (0.08, 0.35, 0.005, 23),
    ])
    def test_matches_formula(self, tab, tbc, t2, seed):
        cfg = make_cfg(trans_ab=tab, trans_bc=tbc, len_ab=10.0, len_bc=50.0,
                       memory=MemoryParams(0.9, t2))
        mc = mc_coherence_near(cfg, num_samples=200000, seed=seed)
        formula = expected_coherence_near(cfg)
        assert abs(mc.estimate - formula) <= 3.0 * mc.standard_error

    def test_requires_memory(self):
        with pytest.raises(ValueError, match="memory"):
            mc_coherence_near(make_cfg())


class TestYieldOracle:
    def test_perfect_hardware_is_exact(self):
        result = mc_yield_memoryless(make_cfg(), num_samples=10000, seed=0)
        assert result.estimate == 1.0
        assert result.standard_error == 0.0

    def test_matches_formula_within_null_error(self):
        cfg = make_cfg(eta_a=0.8, eta_b=0.6, eta_c=0.7, trans_ab=0.5, trans_bc=0.4,
                       dark_a=0.001, dark_b=0.002, dark_c=0.001)
        n = 200000
        mc = mc_yield_memoryless(cfg, num_samples=n, seed=31)
        y = yield_memoryless(cfg)
        null_stderr = math.sqrt(y * (1.0 - y) / n)
        assert abs(mc.estimate - y) <= 3.0 * null_stderr

    def test_sample_stderr_matches_bernoulli_law(self):
        cfg = make_cfg(eta_a=0.9, eta_b=0.8, eta_c=0.9, trans_ab=0.6, trans_bc=0.7)
        n = 262144
        mc = mc_yield_memoryless(cfg, num_samples=n, seed=5)
        y = yield_memoryless(cfg)
        expected = math.sqrt(y * (1.0 - y) / n)
        assert 0.8 <= mc.standard_error / expected <= 1.2

    def test_error_bar_shrinks_with_samples(self):
        cfg = make_cfg(eta_a=0.9, eta_b=0.8, eta_c=0.9, trans_ab=0.6, trans_bc=0.7)
        small = mc_yield_memoryless(cfg, num_samples=65536, seed=17)
        large = mc_yield_memoryless(cfg, num_samples=262144, seed=17)
        ratio = large.standard_error / small.standard_error
        assert 0.45 <= ratio <= 0.55
