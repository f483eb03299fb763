"""Tests of the Monte Carlo oracles: determinism, laws, and error bars."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from ghzline.cli import MIN_CLICK_PROB
from ghzline.mc import _geometric_block, _mc_mean
from util import make_cfg


class LargestUniform:
    """A Generator stand-in whose every uniform is 1 - 2^-53, the largest."""

    def random(self, out):
        out.fill(1.0 - 2.0**-53)
        return out


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


class TestGeometricBlock:
    def test_fills_the_given_buffer(self):
        buf = np.empty(1000)
        assert _geometric_block(np.random.default_rng(3), 0.2, 1000, buf) is buf
        assert np.array_equal(buf, _geometric_block(np.random.default_rng(3), 0.2, 1000))
        assert _geometric_block(np.random.default_rng(3), 1.0, 1000, buf) is buf
        assert np.all(buf == 1.0)

    def test_click_floor_keeps_counts_finite(self):
        # the largest uniform gives the largest count, about 36.7 / p: finite
        # at the config boundary's floor, past the float maximum 2.5% below it
        (count,) = _geometric_block(LargestUniform(), MIN_CLICK_PROB, 1)
        assert 1.7e308 < count < math.inf
        with np.errstate(over="ignore"):
            (count,) = _geometric_block(LargestUniform(), 2.0e-307, 1)
        assert count == math.inf


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


class TestPinnedBits:
    """Bits of the expected-max and coherence oracles, pinned across rewrites.

    The values are those of the sampler that allocated fresh arrays for
    every chunk; 100000 and 70000 samples end in a partial chunk.
    """

    @pytest.mark.parametrize("p_a,p_c,n,seed,estimate,stderr", [
        (0.3, 0.4, 100000, 7, "0x1.072dcb1465e89p+2", "0x1.2100ca95f6bcdp-7"),
        (0.3, 0.4, 70000, 5, "0x1.0695e9e1b089ap+2", "0x1.58128bf3763d7p-7"),
        (0.05, 0.2, 65536, 1, "0x1.4b39b00000000p+4", "0x1.2f3af2aed758cp-4"),
        (0.5, 0.5, 1, 3, "0x1.0000000000000p+1", "0x0.0p+0"),
        # counts near 2^1000, sampled as 2^-600 times themselves
        (2.0**-1000, 2.0**-1000, 100000, 4,
         "0x1.7e52d484a28d4p+1000", "0x1.cd3a9260763ccp+991"),
    ])
    def test_expected_max(self, p_a, p_c, n, seed, estimate, stderr):
        result = mc_expected_max(p_a, p_c, num_samples=n, seed=seed)
        assert (result.estimate.hex(), result.standard_error.hex()) == (estimate, stderr)

    @pytest.mark.parametrize("tab,tbc,t2,n,seed,estimate,stderr", [
        (0.3, 0.7, 0.002, 100000, 22, "0x1.44b7936fa7b11p-1", "0x1.b93b52e60a09ap-11"),
        (0.7, 0.3, 0.005, 65537, 8, "0x1.9e4530bcd517ap-1", "0x1.59c482d814b3ap-11"),
    ])
    def test_coherence_near(self, tab, tbc, t2, n, seed, estimate, stderr):
        cfg = make_cfg(trans_ab=tab, trans_bc=tbc, len_ab=10.0, len_bc=50.0,
                       memory=MemoryParams(0.9, t2))
        result = mc_coherence_near(cfg, num_samples=n, seed=seed)
        assert (result.estimate.hex(), result.standard_error.hex()) == (estimate, stderr)


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

    # Windows that always click, common ones and, on one outer link, a rare
    # one (the bundled segments' outer windows click about 0.0045 of the
    # time).  A rarer yield would expect too few successes in n samples for
    # a normal test: the product here keeps n y above 7.
    common = st.one_of(st.just(1.0), st.floats(0.3, 1.0))

    @settings(derandomize=True)
    @given(p_a=common, p_b=common, p_c=common, p_rare=st.floats(0.001, 0.01),
           rare=st.sampled_from(["", "A", "C"]), seed=st.integers(0, 2**32 - 1))
    def test_thinned_draws_keep_the_law(self, p_a, p_b, p_c, p_rare, rare, seed):
        cfg = make_cfg(trans_ab=p_rare if rare == "A" else p_a, eta_b=p_b,
                       trans_bc=p_rare if rare == "C" else p_c)
        n = 2**18 + 1000  # full chunks and a partial one
        mc = mc_yield_memoryless(cfg, num_samples=n, seed=seed)
        y = yield_memoryless(cfg)
        assert abs(mc.estimate - y) <= 5.0 * math.sqrt(y * (1.0 - y) / n)

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
