"""Tests of the Monte Carlo oracles: determinism, laws, and error bars."""

import math
import sys
import threading
import time
import tracemalloc

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
    yield_memoryless,
)
from ghzline import mc
from ghzline.config import MIN_CLICK_PROB
from ghzline.mc import CHUNK, _geometric_block, _mc_mean
from ghzline.netmodel import window_click_probs
from util import attempt_level_successes, make_cfg


class LargestUniform:
    """A Generator stand-in whose every uniform is 1 - 2^-53, the largest."""

    def random(self, out):
        out.fill(1.0 - 2.0**-53)
        return out


class TestSampleGeometric:
    """The law of _geometric_block's attempt counts."""

    def test_certain_success_is_always_one(self):
        assert np.all(_geometric_block(np.random.default_rng(0), 1.0, 50) == 1.0)

    @given(p=st.floats(min_value=0.01, max_value=0.999, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_support_starts_at_one(self, p, seed):
        values = _geometric_block(np.random.default_rng(seed), p, 1000)
        assert np.all(values >= 1.0) and np.all(values == np.floor(values))

    def test_mean_matches_law(self):
        p, n = 0.25, 20000
        mean = float(_geometric_block(np.random.default_rng(123), p, n).mean())
        sigma = math.sqrt(1.0 - p) / p  # geometric standard deviation
        assert abs(mean - 1.0 / p) <= 3.0 * sigma / math.sqrt(n)

    def test_first_attempt_frequency(self):
        p, n = 0.3, 20000
        hits = float(np.mean(_geometric_block(np.random.default_rng(7), p, n) == 1.0))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits - p) <= 3.0 * sigma


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


@pytest.fixture
def workers(monkeypatch):
    """``workers(w)`` makes oracle calls run on min(w, chunks) workers."""

    def force(w):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: w)
        monkeypatch.setattr(mc, "MAX_WORKERS", w)

    return force


def bits(result):
    return (result.estimate.hex(), result.standard_error.hex(), result.num_samples,
            result.seed)


def chunk_index(rng):
    """k of the chunk whose child stream k seeded ``rng``."""
    (k,) = rng.bit_generator.seed_seq.spawn_key
    return k


class TestWorkerInvariance:
    COHERENCE_CFG = make_cfg(trans_ab=0.3, trans_bc=0.7, len_ab=10.0, len_bc=50.0,
                             memory=MemoryParams(0.9, 0.002))
    YIELD_CFG = make_cfg(eta_a=0.9, eta_b=0.8, eta_c=0.9, trans_ab=0.6, trans_bc=0.7)
    ORACLES = {
        "expected_max": lambda n, seed: mc_expected_max(0.3, 0.4, n, seed),
        # counts near 2^1000, sampled as 2^-600 times themselves
        "expected_max_scaled": lambda n, seed: mc_expected_max(2.0**-1000, 2.0**-1000, n, seed),
        "coherence_near": lambda n, seed: mc_coherence_near(
            TestWorkerInvariance.COHERENCE_CFG, n, seed),
        "yield_memoryless": lambda n, seed: mc_yield_memoryless(
            TestWorkerInvariance.YIELD_CFG, n, seed),
    }

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    @pytest.mark.parametrize("n", [1, 65536, 65537, 200001])
    def test_worker_count_moves_no_bit(self, workers, oracle, n):
        # 1 worker, 2 workers, and a cap above the 1 to 4 chunks
        results = []
        for w in (1, 2, 16):
            workers(w)
            results.append(bits(self.ORACLES[oracle](n, 29)))
        assert results[1] == results[0] and results[2] == results[0]


class TestWorkers:
    @pytest.mark.parametrize("cpus,cap,chunks,expected", [
        (1, 4, 4, 1), (2, 4, 4, 2), (8, 4, 8, 4), (8, 4, 3, 3), (8, 16, 1, 1),
    ])
    def test_count_is_min_of_cpus_chunks_and_cap(self, monkeypatch, cpus, cap, chunks,
                                                 expected):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mc, "MAX_WORKERS", cap)
        allocated_in = []

        def new_block():
            allocated_in.append(threading.current_thread())
            return lambda rng, size: np.ones(size)

        assert _mc_mean(new_block, chunks * CHUNK, 0).estimate == 1.0
        assert allocated_in == [threading.main_thread()] * expected

    def test_moments_merge_in_chunk_order(self, monkeypatch, workers):
        # chunks finish in the order 2, 1, 0 (merged in that order, these
        # moments give another mean), and the result is still the serial one
        def block(rng, size):
            return rng.random(size) + 10.0 ** chunk_index(rng)

        n = 3 * CHUNK - 12345
        workers(1)
        serial = bits(_mc_mean(lambda: block, n, 0))
        done = [threading.Event() for _ in range(3)]
        real = mc._chunk_moments

        def last_first(block, child, size):
            (k,) = child.spawn_key
            if k < 2:
                assert done[k + 1].wait(timeout=30)
            moments = real(block, child, size)
            done[k].set()
            return moments

        monkeypatch.setattr(mc, "_chunk_moments", last_first)
        workers(3)
        assert bits(_mc_mean(lambda: block, n, 0)) == serial

    def test_every_chunk_runs_once_under_fast_switching(self, workers):
        # more workers than cores, switching threads every microsecond: a
        # lost update of the shared chunk queue would skip or repeat a chunk
        def block(rng, size):
            k = chunk_index(rng)
            ran.append(k)
            return np.full(size, float(k))

        n = 64 * CHUNK
        ran = []
        workers(1)
        serial = bits(_mc_mean(lambda: block, n, 0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ran = []
                workers(8)
                assert bits(_mc_mean(lambda: block, n, 0)) == serial
                assert sorted(ran) == list(range(64))
        finally:
            sys.setswitchinterval(interval)

    def test_one_chunk_starts_no_thread(self, workers):
        workers(4)
        before = threading.active_count()
        seen = []

        def block(rng, size):
            seen.append((threading.current_thread(), threading.active_count()))
            return np.ones(size)

        _mc_mean(lambda: block, CHUNK, 0)
        assert seen == [(threading.main_thread(), before)]

    def test_threads_end_with_the_call(self, workers):
        workers(2)
        before = threading.active_count()
        mc_expected_max(0.3, 0.4, num_samples=4 * CHUNK, seed=1)
        assert threading.active_count() == before

    def test_chunk_exception_reaches_the_caller(self, workers):
        workers(2)
        before = threading.active_count()
        boom = ValueError("chunk 2")

        def block(rng, size):
            if chunk_index(rng) == 2:
                raise boom
            return np.ones(size)

        with pytest.raises(ValueError) as err:
            _mc_mean(lambda: block, 4 * CHUNK, 0)
        assert err.value is boom
        assert threading.active_count() == before

    def test_lowest_failing_chunk_wins(self, workers):
        # chunk 1 fails only after chunk 3 has failed: the caller still sees
        # chunk 1's exception, the one the serial loop raises
        workers(2)
        errors = {k: RuntimeError(f"chunk {k}") for k in (1, 3)}
        chunk3_failed = threading.Event()

        def block(rng, size):
            k = chunk_index(rng)
            if k == 1:
                assert chunk3_failed.wait(timeout=30)
            if k == 3:
                chunk3_failed.set()
            if k in errors:
                raise errors[k]
            return np.ones(size)

        with pytest.raises(RuntimeError) as err:
            _mc_mean(lambda: block, 6 * CHUNK, 0)
        assert err.value is errors[1]

    def test_failure_stops_workers_between_chunks(self, workers):
        # chunk 1 is still running when chunk 0 fails; its worker then
        # takes no further chunk, and neither does chunk 0's
        workers(2)
        chunk1_started = threading.Event()
        ran = []

        def block(rng, size):
            k = chunk_index(rng)
            ran.append(k)
            if k == 0:
                assert chunk1_started.wait(timeout=30)
                raise KeyError(k)
            chunk1_started.set()
            time.sleep(0.2)
            return np.ones(size)

        with pytest.raises(KeyError):
            _mc_mean(lambda: block, 10 * CHUNK, 0)
        assert sorted(ran) == [0, 1]

    @pytest.mark.parametrize("w", [1, 2])
    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch, workers, w):
        # one-sample chunks with stand-in moments: merging each chunk once
        # the chunks before it are merged keeps the peak over 20000 chunks
        # that of 2000, where one kept entry per chunk adds about 2 MiB
        monkeypatch.setattr(mc, "CHUNK", 1)
        monkeypatch.setattr(mc, "_chunk_moments",
                            lambda block, child, size: (size, float(child.spawn_key[0]), 0.0))
        workers(w)
        peaks = []
        for n_chunks in (2000, 20000):
            tracemalloc.start()
            try:
                _mc_mean(lambda: None, n_chunks, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 1024

    def test_a_slow_chunk_holds_back_the_other_workers(self, workers):
        # while chunk 0 runs, the other worker runs chunks 1 to 3 and then
        # waits: no chunk 2 * workers past the first unmerged one starts
        workers(2)
        ran, seen = [], []

        def block(rng, size):
            k = chunk_index(rng)
            if k == 0:
                time.sleep(0.5)
                seen.extend(ran)
            ran.append(k)
            return np.ones(size)

        _mc_mean(lambda: block, 20 * CHUNK, 0)
        assert seen == [1, 2, 3] and sorted(ran) == list(range(20))

    @pytest.mark.parametrize("over,raised", [("raise", FloatingPointError), ("ignore", None)])
    def test_helpers_keep_the_callers_errstate(self, workers, over, raised):
        # each worker squares 1e300 - 5e299 in its first chunk, after both
        # have started one, so a helper thread meets the overflow too
        workers(2)
        started = threading.Barrier(2, timeout=30)
        first = threading.local()

        def block(rng, size):
            if not getattr(first, "done", False):
                first.done = True
                started.wait()
            values = np.zeros(size)
            values[0] = 1e300
            return values

        with np.errstate(over=over):
            if raised is None:
                _mc_mean(lambda: block, 2 * CHUNK, 0)
            else:
                with pytest.raises(raised):
                    _mc_mean(lambda: block, 2 * CHUNK, 0)


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
            assert result.estimate == _mc_mean(lambda: unscaled, 100000, 4).estimate
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
        n = 2**18 + 1000
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


def chi_square_bound(df):
    """Wilson-Hilferty approximation of chi-square's upper 1e-4 quantile.

    It exceeds the exact quantile, by under 4% from 3 degrees of freedom
    on, so a bound taken from it errs towards passing a correct sampler.
    """
    z = 3.719016485455709  # the standard normal's upper 1e-4 quantile
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestYieldCountSampler:
    """The yield oracle's success count, drawn by binomial thinning."""

    # windows near 0.5: A 0.6, both B 0.75, C 0.7, so y = 0.23625
    CFG = make_cfg(trans_ab=0.6, eta_b=0.75, trans_bc=0.7)

    def test_count_follows_the_law_of_attempt_level_draws(self):
        n, seeds = 20, range(4000)
        p = window_click_probs(self.CFG, with_memory=False)
        probs = (p["A"], p["B"], p["B"], p["C"])
        y = math.prod(probs)
        counts = [round(mc_yield_memoryless(self.CFG, n, seed).estimate * n)
                  for seed in seeds]
        reference = [int(attempt_level_successes(np.random.default_rng(seed), probs, n).sum())
                     for seed in seeds]
        # cells of 0..n, each tail merged into its neighbour until every
        # cell expects at least 5 draws under Binomial(n, y)
        pmf = [math.comb(n, k) * y**k * (1.0 - y) ** (n - k) for k in range(n + 1)]
        lo, hi = 0, n
        while sum(pmf[: lo + 1]) * len(seeds) < 5.0:
            lo += 1
        while sum(pmf[hi:]) * len(seeds) < 5.0:
            hi -= 1
        expected = np.array([sum(pmf[: lo + 1]), *pmf[lo + 1 : hi], sum(pmf[hi:])]) * len(seeds)
        bound = chi_square_bound(expected.size - 1)
        assert expected.size - 1 >= 3

        def cells(values):
            return np.bincount(np.clip(values, lo, hi), minlength=n + 1)[lo : hi + 1]

        observed, ref = cells(counts), cells(reference)
        assert np.sum((observed - expected) ** 2 / expected) <= bound
        assert np.sum((ref - expected) ** 2 / expected) <= bound
        # the two samples are equal in size: homogeneity over the same cells
        assert np.sum((observed - ref) ** 2 / (observed + ref)) <= bound

    def test_huge_sample_count_costs_no_more(self):
        n = 10**15
        start = time.perf_counter()
        result = mc_yield_memoryless(self.CFG, num_samples=n, seed=3)
        assert time.perf_counter() - start < 1.0
        y = yield_memoryless(self.CFG)
        null_stderr = math.sqrt(y * (1.0 - y) / n)
        assert result.num_samples == n
        assert abs(result.estimate - y) <= 5.0 * null_stderr
        assert result.standard_error == pytest.approx(null_stderr, rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_sample_has_no_spread(self, seed):
        result = mc_yield_memoryless(self.CFG, num_samples=1, seed=seed)
        assert result.estimate in (0.0, 1.0)
        assert result.standard_error == 0.0

    def test_standard_error_is_that_of_the_outcomes(self):
        # the sample standard deviation of K ones and n - K zeros, over sqrt(n)
        n = 1000
        result = mc_yield_memoryless(self.CFG, num_samples=n, seed=11)
        k = round(result.estimate * n)
        outcomes = np.repeat([1.0, 0.0], [k, n - k])
        assert result.standard_error == pytest.approx(
            float(outcomes.std(ddof=1)) / math.sqrt(n), rel=1e-12)

    def test_pinned_bits(self):
        # the draws A, B, B, C from one default_rng(seed), kept across rewrites
        result = mc_yield_memoryless(self.CFG, num_samples=10**6, seed=7)
        assert (result.estimate.hex(), result.standard_error.hex()) == (
            "0x1.e4dec1c1d6cf8p-3", "0x1.bdbd214690778p-12")

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="num_samples"):
            mc_yield_memoryless(self.CFG, num_samples=0)
