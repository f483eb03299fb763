"""Unit tests of the closed-form link, detector, and memory analytics."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzline import (
    LinkParams,
    MemoryParams,
    NodeParams,
    SourceParams,
    click_prob,
    dark_count_depolarization,
    db_from_transmission,
    dephasing_prob,
    detection_prob,
    expected_coherence_near,
    expected_max_geometric,
    storage_times,
    transmission_from_db,
    yield_memoryless,
    yield_with_memory,
)
from ghzline.netmodel import CANCELLATION_LIMIT, near_far_memory
from util import make_cfg, series_expected_max

probs = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def series_gap_coherence(p_near, p_far, beta, terms=400):
    """E[beta^|dN|] by direct summation over the joint geometric pmf."""
    i = np.arange(1, terms + 1)
    pmf_near = p_near * (1.0 - p_near) ** (i - 1)
    pmf_far = p_far * (1.0 - p_far) ** (i - 1)
    gap = beta ** np.abs(i[:, None] - i[None, :])
    return float(pmf_near @ gap @ pmf_far)


class TestConversions:
    def test_ten_db_is_ten_percent(self):
        assert transmission_from_db(10.0) == pytest.approx(0.1, abs=1e-15)

    def test_zero_db_is_unity(self):
        assert transmission_from_db(0.0) == 1.0

    def test_rejects_negative_db(self):
        with pytest.raises(ValueError):
            transmission_from_db(-1.0)

    def test_rejects_transmission_above_one(self):
        with pytest.raises(ValueError):
            db_from_transmission(1.5)

    @given(db=st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
    def test_round_trip(self, db):
        assert db_from_transmission(transmission_from_db(db)) == pytest.approx(db, abs=1e-9)


class TestConfigValidation:
    def test_rejects_zero_detector_efficiency(self):
        with pytest.raises(ValueError, match="detector_efficiency"):
            NodeParams("A", 0.0)

    def test_rejects_dark_count_of_one(self):
        with pytest.raises(ValueError, match="dark_count"):
            NodeParams("A", 0.5, 1.0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length"):
            LinkParams(-1.0, 0.5)

    def test_allows_zero_length(self):
        assert LinkParams(0.0, 0.5).length == 0.0

    def test_rejects_zero_transmission(self):
        with pytest.raises(ValueError, match="transmission"):
            LinkParams(10.0, 0.0)

    def test_rejects_nonpositive_t2(self):
        with pytest.raises(ValueError, match="T2"):
            MemoryParams(0.9, 0.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            SourceParams(0.0)

    def test_link_reports_loss_db(self):
        assert LinkParams(10.0, 0.1).loss_db == pytest.approx(10.0, abs=1e-12)


class TestDetectionProb:
    def test_perfect_hardware(self):
        cfg = make_cfg()
        assert detection_prob(cfg, "A") == 1.0

    def test_outer_node_scales_with_link(self):
        cfg = make_cfg(eta_a=0.5, trans_ab=0.01)
        assert detection_prob(cfg, "A") == pytest.approx(0.005, abs=1e-15)

    def test_middle_node_ignores_links(self):
        cfg = make_cfg(eta_b=0.8, trans_ab=0.01, trans_bc=0.02)
        assert detection_prob(cfg, "B") == pytest.approx(0.8, abs=1e-15)

    def test_middle_node_with_memory_retrieval(self):
        cfg = make_cfg(eta_b=0.8, memory=MemoryParams(0.9, 2.5))
        assert detection_prob(cfg, "B", with_memory=True) == pytest.approx(0.72, abs=1e-15)

    def test_memory_flag_without_memory_raises(self):
        with pytest.raises(ValueError, match="memory"):
            detection_prob(make_cfg(), "B", with_memory=True)

    def test_memory_flag_does_not_touch_outer_nodes(self):
        cfg = make_cfg(eta_a=0.5, trans_ab=0.1, memory=MemoryParams(0.9, 2.5))
        assert detection_prob(cfg, "A", with_memory=True) == pytest.approx(0.05, abs=1e-15)

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="node"):
            detection_prob(make_cfg(), "D")


class TestClickProb:
    def test_perfect_detection(self):
        assert click_prob(1.0, 0.0) == 1.0

    def test_no_detection_no_darks(self):
        assert click_prob(0.0, 0.0) == 0.0

    def test_spot_value(self):
        assert click_prob(0.5, 0.01) == pytest.approx(0.50995, abs=1e-12)

    def test_small_detection_with_darks(self):
        assert click_prob(0.005, 1e-5) == pytest.approx(0.005019899900499891, abs=1e-15)

    @given(xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           pd=st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
    def test_bounds(self, xi, pd):
        out = click_prob(xi, pd)
        floor = 1.0 - (1.0 - pd) ** 2
        assert xi - 1e-12 <= out <= 1.0
        assert out >= floor - 1e-12


class TestDarkCountDepolarization:
    def test_no_darks_no_junk(self):
        assert dark_count_depolarization(0.5, click_prob(0.5, 0.0), 0.0) == 0.0

    def test_spot_value(self):
        xi, pd = 0.005, 1e-5
        alpha = dark_count_depolarization(xi, click_prob(xi, pd), pd)
        assert alpha == pytest.approx(0.003974163010283194, abs=1e-15)

    def test_rejects_detection_above_click(self):
        with pytest.raises(ValueError):
            dark_count_depolarization(0.5, 0.4, 0.0)

    @given(xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           pd=st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_always_a_probability(self, xi, pd):
        click = click_prob(xi, pd)
        if click == 0.0:
            return
        assert 0.0 <= dark_count_depolarization(xi, click, pd) <= 1.0


# The bound README "Configuration files" states for click_prob,
# dark_count_depolarization and dephasing_prob.  The plain forms are kept
# where they lose fewer than 26 of their 53 bits, so they stay within
# about 3 * 2^-53 / 2^-26 = 4.5e-8; the forms that replace them are good
# to a few ulps.
CLICK_REL_BOUND = 5e-8


def decimal_click_and_alpha(xi, pd):
    """xi' and alpha from the float inputs, to 50 digits.

    Written as sums of non-negative terms: 50 digits of 1 - xi would
    hold nothing of an xi below 1e-50."""
    with localcontext() as ctx:
        ctx.prec = 50
        x, p = Decimal(xi), Decimal(pd)
        click = x + (1 - x) * p * (2 - p)
        return click, p * (x + (1 - x) * (2 - p)) / click


log_uniform = st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0**e)


class TestClickCancellation:
    """1 - (1 - xi)(1 - p_d)^2 cancels once the click probability is small,
    and 1 - xi (1 - p_d) / xi' once the junk fraction is; with no dark
    counts the rounding once depolarized a qubit that saw none."""

    @given(xi=st.one_of(log_uniform, st.sampled_from([0.0, 1.0])),
           pd=st.one_of(log_uniform.filter(lambda p: p <= 0.999), st.just(0.0)))
    def test_matches_high_precision(self, xi, pd):
        click = click_prob(xi, pd)
        if click == 0.0:
            return
        ref_click, ref_alpha = decimal_click_and_alpha(xi, pd)
        bound = Decimal(CLICK_REL_BOUND)
        assert abs(Decimal(click) - ref_click) <= bound * ref_click
        alpha = dark_count_depolarization(xi, click, pd)
        assert abs(Decimal(alpha) - ref_alpha) <= bound * ref_alpha

    @pytest.mark.parametrize("xi", [1e-300, 1.7e-16, 8.3e-13, 1e-9, 1.2e-7, 0.3])
    def test_no_dark_counts_no_junk(self, xi):
        # the plain forms gave xi' 31% high at xi = 1.7e-16, and alpha
        # 3.3e-6 at xi = 8.3e-13
        click = click_prob(xi, 0.0)
        if xi < CANCELLATION_LIMIT:
            assert click == xi
        assert dark_count_depolarization(xi, click, 0.0) == 0.0

    @given(xi=st.floats(2.0**-25, 1.0), pd=st.floats(0.0, 0.999))
    def test_plain_forms_elsewhere(self, xi, pd):
        # where neither form cancels the plain forms are kept, bit for bit
        plain_click = max(xi, 1.0 - (1.0 - xi) * (1.0 - pd) ** 2)
        plain_alpha = min(1.0, max(0.0, 1.0 - xi * (1.0 - pd) / plain_click))
        assert click_prob(xi, pd) == plain_click
        if plain_alpha * plain_click >= CANCELLATION_LIMIT:
            assert dark_count_depolarization(xi, plain_click, pd) == plain_alpha


class TestYieldMemoryless:
    def test_perfect_hardware(self):
        assert yield_memoryless(make_cfg()) == 1.0

    def test_is_product_of_click_probs(self):
        cfg = make_cfg(eta_a=1.0, eta_b=0.1, eta_c=1.0, trans_ab=6e-3, trans_bc=6e-3)
        assert yield_memoryless(cfg) == pytest.approx(3.6e-7, rel=1e-12)

    def test_dark_counts_only_still_click(self):
        cfg = make_cfg(eta_a=0.5, eta_b=0.5, eta_c=0.5,
                       dark_a=0.01, dark_b=0.01, dark_c=0.01)
        expected = click_prob(0.5, 0.01) ** 4
        assert yield_memoryless(cfg) == pytest.approx(expected, rel=1e-12)


class TestExpectedMaxGeometric:
    def test_deterministic_case(self):
        assert expected_max_geometric(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_half(self):
        assert expected_max_geometric(0.5, 0.5) == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_one_side_deterministic(self):
        assert expected_max_geometric(1.0, 0.1) == pytest.approx(10.0, abs=1e-12)

    def test_frozen_low_prob_value(self):
        assert expected_max_geometric(6e-3, 6e-3) == pytest.approx(
            249.74924774322966, rel=1e-14
        )

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            expected_max_geometric(0.0, 0.5)

    @given(pa=probs, pc=probs)
    def test_matches_series(self, pa, pc):
        assert expected_max_geometric(pa, pc) == pytest.approx(
            series_expected_max(pa, pc), rel=1e-9, abs=1e-9
        )

    @given(pa=probs, pc=probs)
    def test_at_least_either_mean(self, pa, pc):
        e = expected_max_geometric(pa, pc)
        assert e >= max(1.0 / pa, 1.0 / pc) - 1e-12

    @given(p=probs)
    def test_symmetric_closed_form(self, p):
        expected = (3.0 - 2.0 * p) / (p * (2.0 - p))
        assert expected_max_geometric(p, p) == pytest.approx(expected, rel=1e-12)


class TestYieldWithMemory:
    def test_perfect_hardware(self):
        cfg = make_cfg(memory=MemoryParams(1.0, 2.5))
        assert yield_with_memory(cfg) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        cfg = make_cfg(eta_a=1.0, eta_b=0.1, eta_c=1.0, trans_ab=6e-3, trans_bc=6e-3,
                       memory=MemoryParams(1.0, 2.5))
        assert yield_with_memory(cfg) == pytest.approx(4.0040160642570294e-05, rel=1e-12)

    def test_requires_memory(self):
        with pytest.raises(ValueError, match="memory"):
            yield_with_memory(make_cfg())

    def test_beats_memoryless_at_high_loss(self):
        cfg = make_cfg(eta_a=0.3, eta_c=0.3, eta_b=0.5, trans_ab=0.01, trans_bc=0.01,
                       memory=MemoryParams(0.9, 2.5))
        assert yield_with_memory(cfg) > yield_memoryless(cfg)


class TestStorageTimes:
    def test_attempt_period_with_colocated_node(self):
        cfg = make_cfg(len_ab=0.0, len_bc=90.0)
        times = storage_times(cfg)
        assert times.tau_a == pytest.approx(2.5e-8, abs=1e-20)
        assert times.tau_c == pytest.approx(2.5e-8 + 9e-4, rel=1e-12)

    def test_far_side_is_longer_link(self):
        assert storage_times(make_cfg(len_ab=120.0, len_bc=50.0)).far_node == "A"
        assert storage_times(make_cfg(len_ab=50.0, len_bc=120.0)).far_node == "C"

    def test_tie_resolves_to_c(self):
        assert storage_times(make_cfg(len_ab=70.0, len_bc=70.0)).far_node == "C"

    def test_far_confirmation_wait(self):
        times = storage_times(make_cfg(len_ab=10.0, len_bc=90.0))
        assert times.t_far == pytest.approx(9e-4, rel=1e-12)


class TestNearFarMemory:
    # eta 1 and no darks make the click probs equal the transmissions
    def near_far(self, len_ab, len_bc):
        return near_far_memory(make_cfg(trans_ab=0.3, trans_bc=0.6, len_ab=len_ab,
                                        len_bc=len_bc, memory=MemoryParams(0.9, 2.5)))

    def test_swaps_with_the_link_lengths(self):
        tau_50 = 1.0 / 4.0e7 + 2.0 * 50.0 / 2.0e5
        p_near, p_far, tau_far, l_near = self.near_far(10.0, 50.0)  # C far
        assert (p_near, p_far) == (pytest.approx(0.3, rel=1e-12), pytest.approx(0.6, rel=1e-12))
        assert tau_far == pytest.approx(tau_50, rel=1e-12) and l_near == 10.0
        p_near, p_far, tau_far, l_near = self.near_far(50.0, 10.0)  # A far
        assert (p_near, p_far) == (pytest.approx(0.6, rel=1e-12), pytest.approx(0.3, rel=1e-12))
        assert tau_far == pytest.approx(tau_50, rel=1e-12) and l_near == 10.0

    def test_tie_resolves_to_c_as_far_side(self):
        p_near, p_far, tau_far, l_near = self.near_far(70.0, 70.0)
        assert (p_near, p_far) == (pytest.approx(0.3, rel=1e-12), pytest.approx(0.6, rel=1e-12))
        assert l_near == 70.0


class TestExpectedCoherenceNear:
    def test_deterministic_clicks_leave_only_near_wait(self):
        cfg = make_cfg(len_ab=10.0, len_bc=50.0, memory=MemoryParams(0.9, 2.5))
        expected = math.exp(-2.0 * 10.0 / (2.0e5 * 2.5))
        assert expected_coherence_near(cfg) == pytest.approx(expected, rel=1e-14)

    def test_huge_t2_keeps_full_coherence(self):
        cfg = make_cfg(trans_ab=0.3, trans_bc=0.2, memory=MemoryParams(0.9, 1e12))
        assert expected_coherence_near(cfg) == pytest.approx(1.0, abs=1e-9)

    def test_requires_memory(self):
        with pytest.raises(ValueError, match="memory"):
            expected_coherence_near(make_cfg())

    @pytest.mark.parametrize("len_ab", [10.0, 0.0])
    def test_underflowing_c_t2_takes_the_exact_limit(self, len_ab):
        # c T2 = 1e-400 is 0.0; exp(-2 L_near / (c T2)) is then 0 for a near
        # link of length > 0 and 1 for one of length 0, and beta = 0 leaves
        # the gap factor p_n p_f / (p_n + p_f - p_n p_f)
        cfg = make_cfg(trans_ab=0.5, trans_bc=0.4, len_ab=len_ab, len_bc=50.0,
                       memory=MemoryParams(0.9, 1e-200), speed_of_light=1e-200)
        p_near, p_far, _, l_near = near_far_memory(cfg)
        assert l_near == len_ab
        gap = p_near * p_far / (p_near + p_far - p_near * p_far)
        assert expected_coherence_near(cfg) == (0.0 if len_ab else pytest.approx(gap, rel=1e-15))

    @pytest.mark.parametrize("p_near,p_far,t2", [
        (0.5, 0.5, 0.01),
        (0.3, 0.7, 0.002),
        (0.9, 0.2, 0.05),
        (0.25, 0.25, 0.001),
    ])
    def test_matches_direct_summation(self, p_near, p_far, t2):
        # eta 1 and no darks make the click probs equal the transmissions
        cfg = make_cfg(trans_ab=p_near, trans_bc=p_far, len_ab=10.0, len_bc=50.0,
                       memory=MemoryParams(1.0, t2))
        times = storage_times(cfg)
        assert times.far_node == "C"
        beta = math.exp(-times.tau_c / t2)
        expected = series_gap_coherence(p_near, p_far, beta) * math.exp(
            -2.0 * 10.0 / (2.0e5 * t2)
        )
        assert expected_coherence_near(cfg) == pytest.approx(expected, rel=1e-12)

    @given(t2_lo=st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
    def test_monotone_in_t2(self, t2_lo):
        lo = make_cfg(trans_ab=0.1, trans_bc=0.2, memory=MemoryParams(0.9, t2_lo))
        hi = make_cfg(trans_ab=0.1, trans_bc=0.2, memory=MemoryParams(0.9, t2_lo * 2.0))
        assert expected_coherence_near(hi) >= expected_coherence_near(lo) - 1e-15

    @given(tab=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
           tbc=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
           t2=st.floats(min_value=0.001, max_value=10.0, allow_nan=False))
    def test_stays_in_unit_interval(self, tab, tbc, t2):
        cfg = make_cfg(trans_ab=tab, trans_bc=tbc, memory=MemoryParams(0.9, t2))
        value = expected_coherence_near(cfg)
        assert 0.0 < value <= 1.0

    @given(tab=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
           tbc=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
           t2=st.floats(min_value=0.001, max_value=1e300, allow_nan=False))
    def test_stays_in_unit_interval_up_to_long_t2(self, tab, tbc, t2):
        # once beta = exp(-tau_far/T2) rounds to 1 the float gap factor can
        # exceed 1; the exact value never does
        cfg = make_cfg(trans_ab=tab, trans_bc=tbc, memory=MemoryParams(0.9, t2))
        assert 0.0 <= expected_coherence_near(cfg) <= 1.0


def decimal_coherence_near(cfg):
    """expected_coherence_near's closed form in 400-digit decimal
    arithmetic, from the same float inputs."""
    p_near, p_far, tau_far, l_near = near_far_memory(cfg)
    with localcontext() as ctx:
        ctx.prec = 400
        pn, pf, t2 = Decimal(p_near), Decimal(p_far), Decimal(cfg.memory.t2)
        beta = (-Decimal(tau_far / cfg.memory.t2)).exp()
        gap = pn * pf / (pn + pf - pn * pf) * (
            1 / (1 - beta * (1 - pn)) + 1 / (1 - beta * (1 - pf)) - 1)
        storage = (-2 * Decimal(l_near) / (Decimal(cfg.speed_of_light) * t2)).exp()
        return float(gap * storage)


class TestCoherenceNearCancellation:
    """Where beta = exp(-tau_far/T2) and 1 - p both round near 1, the
    plain divisor 1 - beta (1 - p) cancels; it once rounded to 0 and
    raised ZeroDivisionError on a config that validates."""

    def test_tiny_click_probabilities_with_a_long_t2(self):
        # the bundled first segment with efficiency 1e-15 at A and C, no
        # dark counts there, and T2 = 1e15 s: the plain divisor is 0.0
        cfg = make_cfg(eta_a=1e-15, eta_b=0.5, eta_c=1e-15, dark_b=1e-5,
                       trans_ab=10 ** -1.8, trans_bc=10 ** -1.824, len_ab=90.0, len_bc=91.2,
                       memory=MemoryParams(0.9, 1e15))
        p_near, _, tau_far, _ = near_far_memory(cfg)
        assert 1.0 - math.exp(-tau_far / 1e15) * (1.0 - p_near) == 0.0
        value = expected_coherence_near(cfg)
        assert value == pytest.approx(decimal_coherence_near(cfg), rel=1e-13)
        assert 0.9 < value < 1.0

    @given(log_pa=st.floats(-150.0, -9.1), log_pc=st.floats(-150.0, -9.1),
           log_x=st.floats(-300.0, -9.1), lengths=st.tuples(*[st.floats(0.0, 300.0)] * 2))
    def test_matches_high_precision_where_the_divisor_cancels(self, log_pa, log_pc, log_x,
                                                              lengths):
        # click probabilities and tau_far / T2 below 2**-30, so both
        # divisors fall under CANCELLATION_LIMIT
        def cfg_with(t2):
            return make_cfg(eta_a=10.0**log_pa, eta_c=10.0**log_pc, len_ab=lengths[0],
                            len_bc=lengths[1], memory=MemoryParams(0.9, t2))

        _, _, tau_far, _ = near_far_memory(cfg_with(1.0))
        cfg = cfg_with(tau_far / 10.0**log_x)
        p_near, p_far, tau_far, _ = near_far_memory(cfg)
        beta = math.exp(-tau_far / cfg.memory.t2)
        assert max(1.0 - beta * (1.0 - p) for p in (p_near, p_far)) < CANCELLATION_LIMIT
        value = expected_coherence_near(cfg)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(decimal_coherence_near(cfg), rel=1e-12, abs=1e-300)

    @given(p_near=st.floats(2.0**-25, 1.0), p_far=st.floats(2.0**-25, 1.0),
           t2=st.floats(1e-3, 1e3))
    def test_plain_form_elsewhere(self, p_near, p_far, t2):
        # above the limit the plain form is kept, bit for bit
        cfg = make_cfg(trans_ab=p_near, trans_bc=p_far, len_ab=10.0, len_bc=50.0,
                       memory=MemoryParams(1.0, t2))
        p_near, p_far, tau_far, l_near = near_far_memory(cfg)
        beta = math.exp(-tau_far / t2)
        both = p_near + p_far - p_near * p_far
        gap = (p_near * p_far / both) * (
            1.0 / (1.0 - beta * (1.0 - p_near)) + 1.0 / (1.0 - beta * (1.0 - p_far)) - 1.0)
        storage = math.exp(-2.0 * l_near / (cfg.speed_of_light * t2))
        assert expected_coherence_near(cfg) == min(1.0, gap * storage)


class TestDephasingProb:
    def test_zero_wait(self):
        assert dephasing_prob(0.0, 2.5) == 0.0

    def test_ln2_wait_gives_quarter(self):
        assert dephasing_prob(math.log(2.0), 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_long_wait_saturates_below_half(self):
        assert dephasing_prob(1e9, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert dephasing_prob(1e9, 1.0) <= 0.5

    def test_rejects_negative_wait(self):
        with pytest.raises(ValueError):
            dephasing_prob(-1.0, 2.5)

    @given(x=st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.just(0.0)))
    def test_matches_high_precision(self, x):
        # 1 - e^(-x) cancels for small x (8.3e-8 relative at 1e-11 once),
        # so the reference carries 50 digits beyond x's own scale
        with localcontext() as ctx:
            ctx.prec = 50 + max(0, -Decimal(x).adjusted())
            ref = (1 - (-Decimal(x)).exp()) / 2
        assert abs(Decimal(dephasing_prob(x, 1.0)) - ref) <= Decimal(CLICK_REL_BOUND) * ref
