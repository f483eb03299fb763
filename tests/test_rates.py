"""Tests of the error estimators and the conference-key rate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzline import (
    DensityMatrix,
    MemoryParams,
    NoiseParams,
    RateReport,
    binary_entropy,
    full_report,
    key_rate,
    qber_bipartite,
    qber_parity,
    qber_parity_from_expectation,
    run_pipeline,
    target_state,
    transmission_from_db,
)
from ghzline import density, netmodel, protocol, rates
from ghzline.config import MIN_CLICK_PROB, data_path, load_config
from ghzline.density import BASIS_EIGENVECTORS
from ghzline.sweep import run_sweep
from util import (
    flip_x_conjugate,
    make_cfg,
    pure_dm,
    random_config,
    random_density_matrix,
    vdot_fidelity,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBinaryEntropy:
    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_is_exactly_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    @given(x=st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestQberBipartite:
    def test_zero_on_noiseless_output(self):
        rho = run_pipeline(make_cfg()).rho_out
        assert qber_bipartite(rho) <= 1e-12

    def test_zero_on_target_state(self):
        rho = pure_dm(target_state(+1))
        assert qber_bipartite(rho) <= 1e-12

    def test_maximally_mixed(self):
        assert qber_bipartite(DensityMatrix(np.eye(8) / 8.0)) == pytest.approx(
            0.75, abs=1e-12
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_stays_in_unit_interval(self, seed):
        rho = DensityMatrix(random_density_matrix(np.random.default_rng(seed), 3))
        assert 0.0 <= qber_bipartite(rho) <= 1.0


@pytest.mark.parametrize("qber", [qber_parity, qber_bipartite, qber_parity_from_expectation])
@pytest.mark.parametrize("num_qubits", [1, 2, 4])
def test_error_rates_reject_a_state_not_of_three_qubits(qber, num_qubits):
    dim = 2**num_qubits
    with pytest.raises(ValueError) as rejected:
        qber(DensityMatrix(np.eye(dim) / dim))
    assert str(rejected.value) == f"operator acts on 3 qubits, state has {num_qubits}"


class TestQberParity:
    def test_zero_on_noiseless_output(self):
        rho = run_pipeline(make_cfg()).rho_out
        assert qber_parity(rho) <= 1e-12

    def test_opposite_branch_fails_the_raw_test(self):
        # both error tests are defined against the +1 outcome convention;
        # the dealer reconciles a -1 heralding classically before testing
        rho = run_pipeline(make_cfg(), outcome=-1).rho_out
        assert qber_parity(rho) == pytest.approx(1.0, abs=1e-12)
        assert qber_bipartite(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert qber_parity(DensityMatrix(np.eye(8) / 8.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_local_flip_fails_every_parity_check(self):
        # X on the dealer qubit anticommutes with its Z factor
        rho = pure_dm(target_state(+1))
        flipped = DensityMatrix(flip_x_conjugate(rho.data[None], 3, 0)[0])
        assert qber_parity(flipped) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_expectation_route(self, seed):
        rho = DensityMatrix(random_density_matrix(np.random.default_rng(seed), 3))
        assert qber_parity(rho) == pytest.approx(
            qber_parity_from_expectation(rho), abs=1e-12
        )

    @pytest.mark.parametrize("depol,fail", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3),
                                            (0.15, 0.25), (0.5, 0.5)])
    def test_agreement_on_pipeline_states(self, depol, fail):
        rho = run_pipeline(make_cfg(), NoiseParams(depol, fail)).rho_out
        assert qber_parity(rho) == pytest.approx(
            qber_parity_from_expectation(rho), abs=1e-12
        )


def per_vector_error_rates(rho):
    """F, Q_X and Q_AB of every row the way the engine formed them before
    the stacked contraction, with the np.vdot reference for each overlap:
    F with target_state(+1), Q_X summed from 0.0 in the odd-parity states'
    order, Q_AB as 1 minus the correlated weights."""
    total = 0.0
    for state in rates._odd_parity_states():
        total = total + vdot_fidelity(rho, state.amplitudes)
    psi_plus, psi_minus = rates._correlated_states()
    q_ab = 1.0 - vdot_fidelity(rho, psi_plus.amplitudes) - vdot_fidelity(
        rho, psi_minus.amplitudes)
    return (vdot_fidelity(rho, target_state(+1).amplitudes),
            np.minimum(1.0, np.maximum(0.0, total)),
            np.minimum(1.0, np.maximum(0.0, q_ab)))


class TestStackedErrorRates:
    """F and the six error projections of a stack come from one
    contraction, bit-identical to six per-vector np.vdot loops."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), rows=st.integers(1, 40))
    def test_equals_per_vector_fidelities_and_old_sums(self, seed, rows):
        rng = np.random.default_rng(seed)
        rho = np.array([random_density_matrix(rng, 3) for _ in range(rows)])
        vectors = rates._error_vectors()
        stacked = density._fidelities(rho, vectors)
        assert stacked.shape == (6, rows)
        for k in range(6):
            assert stacked[k].tobytes() == vdot_fidelity(rho, vectors[k, 0]).tobytes()
        got = rates._error_rates(rho)
        expected = per_vector_error_rates(rho)
        assert len(got) == len(expected) == 3
        for new, old in zip(got, expected):
            assert new.tobytes() == old.tobytes()
        # each row as a one-row stack, as full_report and qber_* see it
        for row in range(rows):
            state = DensityMatrix(rho[row])
            assert state.fidelity(target_state(+1)) == got[0][row]
            assert qber_parity(state) == got[1][row] and qber_bipartite(state) == got[2][row]

    def test_vectors_are_the_test_states_in_order(self):
        states = rates._odd_parity_states() + rates._correlated_states()
        assert rates._error_vectors().tobytes() == b"".join(s.amplitudes.tobytes() for s in states)


class TestZeroDarkCounts:
    """Without dark counts no click is junk, so at f_D = f_G = 0 the
    memoryless state is the target state at any loss."""

    @pytest.mark.parametrize("loss_db", [18.0, 100.0, 150.0, 155.0, 3061.5])
    def test_memoryless_report_is_exact(self, loss_db):
        # the bundled first segment's detectors and lengths; 3061.5 dB puts
        # the outer click probabilities just above the config's floor
        t = transmission_from_db(loss_db)
        cfg = make_cfg(eta_a=0.3, eta_b=0.5, eta_c=0.3, trans_ab=t, trans_bc=t,
                       len_ab=90.0, len_bc=91.2)
        clicks = netmodel.window_click_probs(cfg, with_memory=False)
        assert min(clicks["A"], clicks["C"]) >= MIN_CLICK_PROB
        report = full_report(cfg, NoiseParams(0.0, 0.0), use_memory=False)
        assert (report.fidelity, report.q_x, report.q_ab) == (1.0, 0.0, 0.0)


class TestKeyRate:
    def test_perfect_inputs(self):
        assert key_rate(1.0, 0.0, 0.0) == 1.0

    def test_clamps_at_zero(self):
        assert key_rate(1.0, 0.5, 0.0) == 0.0
        assert key_rate(0.5, 0.4, 0.4) == 0.0

    def test_frozen_value(self):
        assert key_rate(1e-4, 0.05, 0.05) == pytest.approx(
            4.272060857680875e-05, rel=1e-12
        )

    @given(y=unit_floats, qx=st.floats(0.0, 0.5), qab=st.floats(0.0, 0.5))
    def test_never_exceeds_yield(self, y, qx, qab):
        assert 0.0 <= key_rate(y, qx, qab) <= y + 1e-15

    def test_rejects_bad_yield(self):
        with pytest.raises(ValueError):
            key_rate(1.5, 0.1, 0.1)

    def test_rejects_bad_error(self):
        with pytest.raises(ValueError):
            key_rate(0.5, -0.1, 0.1)


class TestReports:
    def test_perfect_hardware_saturates(self):
        report = full_report(make_cfg())
        assert isinstance(report, RateReport)
        assert report.yield_per_attempt == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.q_x <= 1e-12
        assert report.q_ab <= 1e-12
        assert report.r_per_attempt == pytest.approx(1.0, abs=1e-9)

    def test_per_second_scales_with_source(self):
        report = full_report(make_cfg(frequency=4.0e7), NoiseParams(0.02, 0.02))
        assert report.r_per_second == pytest.approx(
            4.0e7 * report.r_per_attempt, rel=1e-12
        )

    def test_heavy_noise_kills_the_rate(self):
        report = full_report(make_cfg(), NoiseParams(0.5, 0.5))
        assert report.r_per_attempt == 0.0
        assert report.r_per_second == 0.0

    def test_memory_uses_memory_yield(self):
        cfg = make_cfg(eta_b=0.5, trans_ab=0.01, trans_bc=0.02,
                       memory=MemoryParams(0.9, 2.5))
        plain = full_report(cfg, use_memory=False)
        stored = full_report(cfg, use_memory=True)
        assert stored.yield_per_attempt > plain.yield_per_attempt

    def test_longer_t2_never_hurts(self):
        noise = NoiseParams(0.01, 0.01)
        short = full_report(make_cfg(trans_ab=0.1, trans_bc=0.05, len_ab=40.0,
                                     len_bc=80.0, memory=MemoryParams(0.9, 2.5)),
                            noise, use_memory=True)
        long = full_report(make_cfg(trans_ab=0.1, trans_bc=0.05, len_ab=40.0,
                                    len_bc=80.0, memory=MemoryParams(0.9, 10.0)),
                           noise, use_memory=True)
        assert long.fidelity >= short.fidelity - 1e-15
        assert long.r_per_attempt >= short.r_per_attempt - 1e-15

    def test_report_carries_its_point(self):
        cfg = make_cfg(memory=MemoryParams(0.9, 2.5))
        stored = full_report(cfg, NoiseParams(0.1, 0.2), use_memory=True)
        assert (stored.segment, stored.f_d, stored.f_g) == ("test-segment", 0.1, 0.2)
        assert stored.memory is True and stored.t2_s == 2.5 and stored.error is None
        plain = full_report(cfg, NoiseParams(0.1, 0.2))
        assert plain.memory is False and plain.t2_s is None

    def test_block_quantities_computed_once_per_call(self, monkeypatch):
        # 72 rows run as chunks of 32, 32 and 8, yet the segment's memory
        # coherence and yield are computed once for the whole call
        calls = {"expected_coherence_near": 0, "yield_with_memory": 0}
        for name in calls:
            original = getattr(netmodel, name)

            def counted(cfg, _name=name, _original=original):
                calls[_name] += 1
                return _original(cfg)

            for module in (netmodel, protocol, rates):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        cfg = make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4, memory=MemoryParams(0.9, 0.05))
        fds, fgs = [0.3 * i / 8 for i in range(9)], [0.3 * j / 7 for j in range(8)]
        reports = rates.rate_reports(cfg, fds, fgs, use_memory=True)
        assert len(reports) == 72
        assert calls == {"expected_coherence_near": 1, "yield_with_memory": 1}

    @given(
        seed=st.integers(0, 2**32 - 1),
        fds=st.lists(st.sampled_from([0.0, -0.0, 0.05, 0.3, 1.0]) | unit_floats,
                     min_size=1, max_size=40),
        fgs=st.lists(st.sampled_from([0.0, -0.0, 0.05, 1.0]) | unit_floats,
                     min_size=1, max_size=3),
        use_memory=st.booleans(),
    )
    def test_grid_rows_are_the_point_reports(self, seed, fds, fgs, use_memory):
        cfg = random_config(np.random.default_rng(seed))
        rows = rates.rate_reports(cfg, fds, fgs, use_memory=use_memory)
        assert len(rows) == len(fds) * len(fgs)
        for k, row in enumerate(rows):
            noise = NoiseParams(fds[k // len(fgs)], fgs[k % len(fgs)])
            point = full_report(cfg, noise, use_memory=use_memory)
            assert repr(row) == repr(point)

    def test_rate_never_exceeds_yield_on_noisy_runs(self):
        for depol, fail in [(0.0, 0.0), (0.05, 0.0), (0.0, 0.05), (0.1, 0.1)]:
            report = full_report(make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4),
                                 NoiseParams(depol, fail))
            assert report.r_per_attempt <= report.yield_per_attempt + 1e-15


def count_calls(monkeypatch, names, modules):
    """Count calls of each function ``name`` through every module in
    ``modules`` that holds it, into one shared dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(density if hasattr(density, name) else netmodel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestSegmentMemo:
    """A report computes its segment's strengths once per engine call, and a
    config run_stack rejects is rejected on every call."""

    @pytest.mark.parametrize("use_memory", [False, True])
    def test_one_report_runs_each_kernel_once_per_stage(self, monkeypatch, use_memory):
        # the two transit qubits and the four dark-count qubits
        calls = count_calls(monkeypatch, ["_row_depolarize", "_fidelities"],
                            (density, protocol, rates))
        cfg = load_config(data_path())[0]
        full_report(cfg, NoiseParams(0.1, 0.2), use_memory=use_memory)
        assert calls == {"_row_depolarize": 6, "_fidelities": 1}

    def test_memoryless_config_raises_the_same_error_every_call(self):
        cfg = make_cfg()
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                full_report(cfg, use_memory=True)
            assert str(err.value) == "segment test-segment has no memory parameters"


class TestDegreeStructure:
    """F, Q_X and Q_AB are quadratic in f_D (two transit qubits each
    depolarized once) and affine in f_G (one merge gate), so their finite
    differences vanish from the third in f_D and the second in f_G."""

    @given(
        which=st.one_of(st.integers(0, 3), st.integers(4, 2**32 - 1)),
        use_memory=st.booleans(),
        h=st.floats(min_value=0.02, max_value=0.25), u=unit_floats,
        g=st.floats(min_value=0.02, max_value=0.3), v=unit_floats,
    )
    def test_quadratic_in_fd_and_affine_in_fg(self, which, use_memory, h, u, g, v):
        # a bundled segment, or a random one seeded by ``which``
        if which < 4:
            cfg = load_config(data_path())[which]
        else:
            cfg = random_config(np.random.default_rng(which))
        # f_G stays below 0.9: at f_G = 1 the merge depolarizes both gate
        # qubits fully and F no longer depends on f_D
        fd0, fg0 = u * 0.99 * (1.0 - 3.0 * h), v * (0.9 - 2.0 * g)
        fds, fgs = [fd0 + i * h for i in range(4)], [fg0 + j * g for j in range(3)]
        rows = rates.rate_reports(cfg, fds, fgs, use_memory=use_memory)
        # axes: f_D, f_G, (fidelity, Q_X, Q_AB)
        grid = np.array([(r.fidelity, r.q_x, r.q_ab) for r in rows]).reshape(4, 3, 3)
        assert np.abs(np.diff(grid, 3, axis=0)).max() <= 1e-14
        assert np.abs(np.diff(grid, 2, axis=1)).max() <= 1e-14
        # the degree in f_D really is 2, far above rounding
        assert np.abs(np.diff(grid[:, :, 0], 2, axis=0)).max() > 1e-9


def x_corrected(rho):
    """The dealer's X correction on C's qubit (qubit 2 of the output), which
    maps target_state(-1) onto target_state(+1)."""
    return DensityMatrix(flip_x_conjugate(rho.data[None], 3, 2)[0])


class TestOutcomeReconciliation:
    """Both error tests are defined on the +1 herald, the one the reports
    use; a -1 heralding, once the dealer's X correction reconciles it,
    gives the same errors."""

    def test_minus_one_heralding_is_corrected(self):
        # the raw -1 state fails the +1-convention tests (Q_X 0.859 and a
        # spurious positive rate before the dealer's X correction)
        cfg = make_cfg(eta_b=0.8, trans_ab=0.5, trans_bc=0.4, dark_b=0.005)
        noise = NoiseParams(0.1, 0.1)
        minus = x_corrected(run_pipeline(cfg, noise, outcome=-1).rho_out)
        q_x, q_ab = qber_parity(minus), qber_bipartite(minus)
        assert q_x == pytest.approx(0.14093, abs=1e-5)
        assert q_ab == pytest.approx(0.16864, abs=1e-5)
        report = full_report(cfg, noise)
        assert (report.q_x, report.q_ab, report.r_per_attempt) == (q_x, q_ab, 0.0)

    @given(depol=unit_floats, fail=unit_floats, use_memory=st.booleans(),
           dark=st.floats(min_value=0.0, max_value=0.01, allow_nan=False))
    def test_both_outcomes_give_equal_reports(self, depol, fail, use_memory, dark):
        cfg = make_cfg(eta_a=0.7, eta_b=0.8, eta_c=0.6, dark_a=dark, dark_b=dark,
                       dark_c=0.5 * dark, trans_ab=0.5, trans_bc=0.4,
                       len_ab=30.0, len_bc=80.0, memory=MemoryParams(0.9, 0.01))
        noise = NoiseParams(depol, fail)
        plus = full_report(cfg, noise, use_memory=use_memory)
        minus = run_pipeline(cfg, noise, use_memory=use_memory, outcome=-1)
        rho = x_corrected(minus.rho_out)
        assert minus.fidelity == pytest.approx(plus.fidelity, rel=1e-12, abs=1e-12)
        assert qber_parity(rho) == pytest.approx(plus.q_x, rel=1e-12, abs=1e-12)
        assert qber_bipartite(rho) == pytest.approx(plus.q_ab, rel=1e-12, abs=1e-12)


class TestConstantStates:
    """States built once per process must be read-only and must not drift."""

    @pytest.mark.parametrize("get", [
        lambda: protocol._initial_register(),
        lambda: protocol.target_state(+1).amplitudes,
        lambda: protocol.target_state(-1).amplitudes,
        lambda: rates._correlated_states()[0].amplitudes,
        lambda: rates._correlated_states()[1].amplitudes,
        lambda: rates._odd_parity_states()[0].amplitudes,
        lambda: rates._error_vectors(),
    ], ids=["register", "target+1", "target-1", "psi_plus", "psi_minus", "odd_parity",
            "error_vectors"])
    def test_cached_arrays_are_read_only(self, get):
        with pytest.raises(ValueError):
            get()[0] = 0.0

    def test_correlated_states_match_their_kron_construction(self):
        e = BASIS_EIGENVECTORS
        a = np.kron(np.kron(e[("X", +1)], e[("Z", +1)]), e[("Y", +1)])
        b = np.kron(np.kron(e[("X", -1)], e[("Z", -1)]), e[("Y", -1)])
        psi_plus, psi_minus = rates._correlated_states()
        for got, sign in ((psi_plus, +1.0), (psi_minus, -1.0)):
            vec = 0.5 * ((1.0 - 1.0j) * a + sign * (1.0 + 1.0j) * b)
            assert np.array_equal(got.amplitudes, vec / np.linalg.norm(vec))
        assert psi_plus is target_state(+1)

    def test_report_unchanged_by_a_full_sweep(self):
        cfg = make_cfg(eta_b=0.8, trans_ab=0.5, trans_bc=0.4, dark_b=0.005,
                       memory=MemoryParams(0.9, 0.05))
        noise = NoiseParams(0.1, 0.2)
        before = [full_report(cfg, noise, use_memory=m) for m in (False, True)]
        run_sweep(load_config(data_path()))
        after = [full_report(cfg, noise, use_memory=m) for m in (False, True)]
        assert after == before
