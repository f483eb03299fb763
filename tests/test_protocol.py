"""Tests of the merge pipeline against an independent statevector oracle."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzline import (
    DensityMatrix,
    MemoryParams,
    NoiseParams,
    ProtocolOutcome,
    PureState,
    click_prob,
    dark_count_depolarization,
    dephasing_prob,
    detection_prob,
    expected_coherence_near,
    run_pipeline,
    segment_physics,
    stabilizer_suite,
    storage_times,
    target_state,
)
from ghzline import density, netmodel, protocol
from ghzline.protocol import run_stack
from ghzline.rates import full_report, rate_reports
from ghzline.config import data_path, load_config
from ghzline.sweep import SweepSpec, run_sweep
from util import (
    assert_valid_state,
    cz_signs,
    flip_dephase,
    graph_state,
    make_cfg,
    pure_dm,
    same_bits,
    source_register,
    state_signs,
    tensordot_project,
    trace_reinsert_noisy_cz,
    twirl_depolarize,
    unpack,
    vdot_fidelity,
)

OUTCOMES = (+1, -1)


def ideal_register(merged):
    """Statevector route: the two source pairs, followed by the merge CZ
    if ``merged``.

    Works on raw amplitude arrays (qubit 0 = most significant bit) so it
    shares no code with the density-matrix engine.
    """
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    chi = np.kron(plus, plus) * np.array([1.0, 1.0, 1.0, -1.0])
    psi = np.kron(chi, chi).astype(complex)
    for i in range(16):
        if merged and ((i >> 2) & 1) and ((i >> 1) & 1):
            psi[i] = -psi[i]
    return psi


def ideal_post_measurement(outcome):
    """Statevector route: two pairs, merge CZ, project qubit 2 in Y."""
    psi = ideal_register(merged=True)
    e = np.array([1.0, outcome * 1.0j]) / np.sqrt(2.0)
    t = np.tensordot(psi.reshape(2, 2, 2, 2), e.conj(), axes=([2], [0]))
    vec = t.reshape(8)
    return vec / np.linalg.norm(vec)


class TestSourcePair:
    """The register run_stack starts from: row 0 of both source pairs,
    built from the graph PRE_CZ_EDGES."""

    def test_matches_cz_on_plus_plus(self):
        psi = ideal_register(merged=False)
        expected = np.outer(psi, psi.conj())[:1]
        assert np.allclose(protocol._initial_register(), expected, atol=1e-15)

    def test_is_valid(self):
        rho = unpack(protocol._initial_register(), 4, SOURCE_PAIRS)
        assert_valid_state(DensityMatrix(rho[0]))


class TestTargetState:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_unit_norm(self, outcome):
        amps = target_state(outcome).amplitudes
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_branches_are_conjugates(self):
        plus = target_state(+1).amplitudes
        minus = target_state(-1).amplitudes
        assert np.allclose(minus, plus.conj(), atol=1e-12)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_matches_circuit_oracle(self, outcome):
        oracle = ideal_post_measurement(outcome)
        overlap = abs(np.vdot(oracle, target_state(outcome).amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            target_state(0)


class TestStabilizerSuite:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_eight_elements_with_identity(self, outcome):
        suite = stabilizer_suite(outcome)
        assert len(suite) == 8
        assert sum(1 for p in suite if set(p.factors) == {"I"}) == 1

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_all_stabilize_target(self, outcome):
        rho = pure_dm(target_state(outcome))
        for pauli in stabilizer_suite(outcome):
            assert rho.expectation(pauli) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_all_stabilize_circuit_oracle(self, outcome):
        rho = pure_dm(ideal_post_measurement(outcome))
        for pauli in stabilizer_suite(outcome):
            assert rho.expectation(pauli) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_forms_a_group(self, outcome):
        mats = [p.matrix() for p in stabilizer_suite(outcome)]
        eye = np.eye(8)
        for a in mats:
            # involutions that pairwise commute
            assert np.allclose(a @ a, eye, atol=1e-12)
            for b in mats:
                assert np.allclose(a @ b, b @ a, atol=1e-12)
        product = eye
        for a in mats:
            product = product @ a
        assert np.allclose(product, eye, atol=1e-12)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            stabilizer_suite(2)


class TestNoiseParams:
    def test_defaults_to_noiseless(self):
        noise = NoiseParams()
        assert noise.channel_depol == 0.0 and noise.gate_fail == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"channel_depol": -0.1},
        {"channel_depol": 1.1},
        {"gate_fail": -0.1},
        {"gate_fail": 1.0001},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)


class TestNoiselessPipeline:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_unit_fidelity(self, outcome):
        result = run_pipeline(make_cfg(), outcome=outcome)
        assert isinstance(result, ProtocolOutcome)
        assert result.fidelity == pytest.approx(1.0, abs=1e-10)
        assert result.outcome_prob == pytest.approx(0.5, abs=1e-10)
        assert result.outcome == outcome
        assert not result.used_memory

    def test_outcome_probabilities_sum_to_one(self):
        cfg = make_cfg()
        total = sum(run_pipeline(cfg, outcome=o).outcome_prob for o in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_reports_stabilizer_expectations(self, outcome):
        result = run_pipeline(make_cfg(), outcome=outcome)
        assert [p for p, _ in result.stabilizer_expectations] == list(
            stabilizer_suite(outcome)
        )
        for pauli, value in result.stabilizer_expectations:
            assert value == pytest.approx(result.rho_out.expectation(pauli), abs=1e-14)
            assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_output_matches_circuit_oracle(self, outcome):
        result = run_pipeline(make_cfg(), outcome=outcome)
        expected = pure_dm(ideal_post_measurement(outcome))
        assert np.allclose(result.rho_out.data, expected.data, atol=1e-12)

    def test_output_state_is_valid(self):
        assert_valid_state(run_pipeline(make_cfg()).rho_out)


class TestNoisyPipeline:
    def test_full_channel_depolarization_pins_fidelity(self):
        # both transit qubits fully scrambled: only the ZXX-type checks on
        # B's qubit survive, leaving 1/8 overlap with the target
        result = run_pipeline(make_cfg(), NoiseParams(channel_depol=1.0))
        assert result.fidelity == pytest.approx(0.125, abs=1e-12)

    def test_full_gate_failure_factorizes(self):
        result = run_pipeline(make_cfg(), NoiseParams(gate_fail=1.0))
        assert result.outcome_prob == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_decreases_in_channel_noise(self):
        cfg = make_cfg()
        fids = [run_pipeline(cfg, NoiseParams(channel_depol=a)).fidelity
                for a in (0.0, 0.1, 0.2, 0.4)]
        assert all(hi > lo for hi, lo in zip(fids, fids[1:]))

    def test_fidelity_decreases_in_gate_noise(self):
        cfg = make_cfg()
        fids = [run_pipeline(cfg, NoiseParams(gate_fail=f)).fidelity
                for f in (0.0, 0.1, 0.2, 0.4)]
        assert all(hi > lo for hi, lo in zip(fids, fids[1:]))

    @given(depol=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           fail=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_output_always_valid(self, depol, fail):
        result = run_pipeline(make_cfg(), NoiseParams(depol, fail))
        assert_valid_state(result.rho_out)
        assert 0.0 <= result.fidelity <= 1.0 + 1e-12

    @pytest.mark.parametrize("depol", [0.05, 0.2, 0.6])
    def test_branches_degrade_symmetrically_under_transit_noise(self, depol):
        cfg = make_cfg()
        noise = NoiseParams(channel_depol=depol)
        plus = run_pipeline(cfg, noise, outcome=+1)
        minus = run_pipeline(cfg, noise, outcome=-1)
        assert plus.fidelity == pytest.approx(minus.fidelity, abs=1e-10)
        assert plus.outcome_prob + minus.outcome_prob == pytest.approx(1.0, abs=1e-10)

    def test_dark_counts_reduce_fidelity(self):
        clean = run_pipeline(make_cfg(), NoiseParams(0.05, 0.05))
        dark = run_pipeline(make_cfg(dark_a=0.01, dark_b=0.01, dark_c=0.01),
                            NoiseParams(0.05, 0.05))
        assert dark.fidelity < clean.fidelity

    def test_mirrored_memoryless_segments_agree(self):
        noise = NoiseParams(0.05, 0.1)
        cfg = make_cfg(eta_a=0.4, eta_c=0.7, dark_a=0.002, dark_c=0.004,
                       trans_ab=0.3, trans_bc=0.6, len_ab=20.0, len_bc=120.0)
        mirror = make_cfg(eta_a=0.7, eta_c=0.4, dark_a=0.004, dark_c=0.002,
                          trans_ab=0.6, trans_bc=0.3, len_ab=120.0, len_bc=20.0)
        for outcome in OUTCOMES:
            a = run_pipeline(cfg, noise, outcome=outcome)
            b = run_pipeline(mirror, noise, outcome=outcome)
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
            assert a.outcome_prob == pytest.approx(b.outcome_prob, abs=1e-12)


class TestMemoryBranch:
    def test_ideal_memory_matches_memoryless(self):
        noise = NoiseParams(0.1, 0.05)
        cfg = make_cfg(dark_a=0.001, dark_b=0.002, dark_c=0.001,
                       memory=MemoryParams(1.0, 1e12))
        plain = run_pipeline(cfg, noise, use_memory=False)
        stored = run_pipeline(cfg, noise, use_memory=True)
        assert stored.used_memory
        assert np.max(np.abs(plain.rho_out.data - stored.rho_out.data)) <= 1e-10
        assert stored.fidelity == pytest.approx(plain.fidelity, abs=1e-10)

    def test_short_t2_reduces_fidelity(self):
        cfg_fast = make_cfg(len_ab=10.0, len_bc=90.0, memory=MemoryParams(0.9, 1e-3))
        cfg_slow = make_cfg(len_ab=10.0, len_bc=90.0, memory=MemoryParams(0.9, 2.5))
        fast = run_pipeline(cfg_fast, use_memory=True)
        slow = run_pipeline(cfg_slow, use_memory=True)
        assert fast.fidelity < slow.fidelity

    def test_retrieval_efficiency_feeds_dark_count_junk(self):
        # lower retrieval means a larger junk fraction at B once darks exist
        noise = NoiseParams()
        lossy = make_cfg(dark_b=0.01, memory=MemoryParams(0.5, 1e12))
        clean = make_cfg(dark_b=0.01, memory=MemoryParams(1.0, 1e12))
        assert (run_pipeline(lossy, noise, use_memory=True).fidelity
                < run_pipeline(clean, noise, use_memory=True).fidelity)

    def test_measured_and_kept_qubits_are_not_interchangeable(self):
        # swapping which stored qubit sits near changes the fidelity (the
        # measured qubit folds its dephasing into the outcome mix) but not
        # the outcome probability
        noise = NoiseParams(0.05, 0.1)
        cfg = make_cfg(len_ab=10.0, len_bc=150.0, memory=MemoryParams(0.9, 0.003))
        mirror = make_cfg(len_ab=150.0, len_bc=10.0, memory=MemoryParams(0.9, 0.003))
        a = run_pipeline(cfg, noise, use_memory=True)
        b = run_pipeline(mirror, noise, use_memory=True)
        assert a.outcome_prob == pytest.approx(b.outcome_prob, abs=1e-12)
        assert abs(a.fidelity - b.fidelity) > 1e-5

    def test_requires_memory_parameters(self):
        with pytest.raises(ValueError, match="memory"):
            run_pipeline(make_cfg(), use_memory=True)

    def test_far_side_a_layout_matches_the_reference(self):
        # A far: the near memory dephases qubit 2 first, then the far one qubit 1
        noise = NoiseParams(0.08, 0.15)
        cfg = make_cfg(eta_a=0.9, eta_b=0.7, eta_c=0.8,
                       dark_a=0.001, dark_b=0.003, dark_c=0.002,
                       trans_ab=0.4, trans_bc=0.9, len_ab=120.0, len_bc=30.0,
                       memory=MemoryParams(0.85, 0.01))
        assert storage_times(cfg).far_node == "A"
        dephasings, _ = protocol._segment_strengths(segment_physics(cfg, use_memory=True))
        assert [qubit for qubit, _ in dephasings] == [2, 1]
        prob, expected = tensordot_project(reference_chain(cfg, noise, True), 4, 2, "Y", +1)
        result = run_pipeline(cfg, noise, use_memory=True)
        assert np.float64(result.outcome_prob).tobytes() == prob[0].tobytes()
        assert same_bits(result.rho_out.data, expected[0])

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            run_pipeline(make_cfg(), outcome=3)


def with_edges(lo, hi, *edges):
    """Floats in [lo, hi], drawn often at the given edge values."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi, allow_nan=False))


def _cfg_from_draws(eta, dark, trans, lengths, memory):
    return make_cfg(
        eta_a=eta[0], eta_b=eta[1], eta_c=eta[2],
        dark_a=dark[0], dark_b=dark[1], dark_c=dark[2],
        trans_ab=trans[0], trans_bc=trans[1], len_ab=lengths[0], len_bc=lengths[1],
        memory=MemoryParams(*memory),
    )


# Segments with memory across the whole hardware range, drawn often at its edges.
configs = st.builds(
    _cfg_from_draws,
    eta=st.tuples(*[with_edges(1e-6, 1.0, 1e-6, 1.0)] * 3),
    dark=st.tuples(*[with_edges(0.0, 0.999, 0.0, 0.999)] * 3),
    trans=st.tuples(*[with_edges(1e-9, 1.0, 1e-9, 1.0)] * 2),
    lengths=st.tuples(*[with_edges(0.0, 300.0, 0.0)] * 2),
    memory=st.tuples(with_edges(1e-6, 1.0, 1e-6, 1.0), with_edges(1e-9, 100.0, 1e-9)),
)


# The graphs of the register: the two source pairs, and the linear chain
# the merge CZ makes of them.
SOURCE_PAIRS = ((0, 1), (2, 3))
CHAIN = ((0, 1), (1, 2), (2, 3))


def reference_stages(cfg, noise, use_memory):
    """The state after each step of run_stack's order, up to the Y
    measurement, as (name, graph, one-row complex stack) triples under
    protocol._stages' names: the tests' reference kernels, which share
    no code with ghzline.density."""
    rho = source_register()
    stages = [("source pairs", SOURCE_PAIRS, rho)]
    for qubit in (0, 3):
        rho = twirl_depolarize(rho, 4, qubit, noise.channel_depol)
        stages.append((f"transit {qubit}", SOURCE_PAIRS, rho))
    if use_memory:
        times = storage_times(cfg)
        near, far = (2, 1) if times.far_node == "A" else (1, 2)
        rho = flip_dephase(rho, 4, near, 0.5 * (1.0 - expected_coherence_near(cfg)))
        stages.append(("near memory", SOURCE_PAIRS, rho))
        rho = flip_dephase(rho, 4, far, dephasing_prob(times.t_far, cfg.memory.t2))
        stages.append(("far memory", SOURCE_PAIRS, rho))
    rho = trace_reinsert_noisy_cz(rho, 4, 1, 2, noise.gate_fail)
    stages.append(("merge CZ", CHAIN, rho))
    for qubit, node in ((0, "A"), (1, "B"), (2, "B"), (3, "C")):
        params = {"A": cfg.node_a, "B": cfg.node_b, "C": cfg.node_c}[node]
        xi = detection_prob(cfg, node, with_memory=use_memory and node == "B")
        xi_click = click_prob(xi, params.dark_count_prob)
        rho = twirl_depolarize(
            rho, 4, qubit, dark_count_depolarization(xi, xi_click, params.dark_count_prob))
        stages.append((f"dark counts {qubit}", CHAIN, rho))
    return stages


def reference_chain(cfg, noise, use_memory):
    """The state just before the Y measurement, as a one-row complex
    stack: the last of reference_stages."""
    return reference_stages(cfg, noise, use_memory)[-1][2]


@pytest.mark.engine
class TestCheckOnce:
    """run_stack checks each strength once and then runs the channel
    kernels on a real stack; the result is reference_chain's on a complex
    stack, bit for bit, and the error texts are _checked_strength's."""

    @pytest.mark.parametrize("use_memory", [False, True])
    @given(
        cfg=configs,
        fd_values=st.lists(with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0), max_size=6),
        fg_values=st.lists(with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0), max_size=3),
        fd_len=st.integers(1, 72),
        fg_len=st.integers(1, 9),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_stack_equals_public_channels_exactly(
        self, use_memory, cfg, fd_values, fg_values, fd_len, fg_len, shuffle
    ):
        # Each axis cycles its drawn values and both signed zeros up to its
        # drawn length, shuffled: f_D axes run past CHUNK_ROWS entries,
        # grids past CHUNK_ROWS rows, and both axes repeat values, not
        # always next to each other.  F is rate_reports' fidelity column.
        fd_pool, fg_pool = fd_values + [0.0, -0.0], fg_values + [0.0, -0.0]
        fd_index = [i % len(fd_pool) for i in range(max(fd_len, len(fd_pool)))]
        fg_index = [j % len(fg_pool) for j in range(max(fg_len, len(fg_pool)))]
        shuffle.shuffle(fd_index)
        shuffle.shuffle(fg_index)
        fds, fgs = [fd_pool[i] for i in fd_index], [fg_pool[j] for j in fg_index]
        probs, states = run_stack(segment_physics(cfg, use_memory), fds, fgs)
        fids = np.array([r.fidelity for r in rate_reports(cfg, fds, fgs, use_memory=use_memory)])
        rows = len(fd_index) * len(fg_index)
        assert probs.dtype == fids.dtype == np.float64 and states.dtype == np.complex128
        assert probs.shape == fids.shape == (rows,) and states.shape == (rows, 8, 8)
        expected = {}
        for row, (i, j) in enumerate(product(fd_index, fg_index)):
            if (i, j) not in expected:
                rho = reference_chain(cfg, NoiseParams(fd_pool[i], fg_pool[j]), use_memory)
                assert not rho.imag.any()  # real until the Y measurement
                prob, post = tensordot_project(rho, 4, 2, "Y", +1)
                fid = vdot_fidelity(post, target_state(+1).amplitudes)
                expected[i, j] = (prob[0].tobytes(), post[0].tobytes(), fid[0].tobytes())
            got = (probs[row].tobytes(), states[row].tobytes(), fids[row].tobytes())
            assert got == expected[i, j]

    @pytest.mark.parametrize("use_memory", [False, True])
    def test_pre_cz_stages_run_once_per_fd_entry(self, monkeypatch, use_memory):
        seen, measured = [], []

        def counting_cz_terms(rows, *args):
            seen.append(len(rows))
            return density._row_cz_terms(rows, *args)

        def counting_measure(rows, *args):
            measured.append(len(rows))
            return density._measure_rows(rows, *args)

        monkeypatch.setattr(protocol, "_row_cz_terms", counting_cz_terms)
        monkeypatch.setattr(protocol, "_measure_rows", counting_measure)
        cfg = load_config(data_path())[0]
        spec = SweepSpec(memory_modes=("on",) if use_memory else ("off",))
        assert len(run_sweep([cfg], spec)) == 121
        assert seen == [11]
        seen.clear()
        measured.clear()
        # 40 entries, each value twice: all in one stack, repeats run again;
        # only the measurement's gathers are bounded, to CHUNK_ROWS rows each
        run_stack(segment_physics(cfg, use_memory), [(i % 20) / 20 for i in range(40)],
                  [0.1, 0.2, 0.3])
        assert seen == [40]
        assert measured == [32, 32, 32, 24]
        seen.clear()
        measured.clear()
        # a one-point report runs no row kernel before the measurement
        full_report(cfg, NoiseParams(0.1, 0.2), use_memory=use_memory)
        assert seen == []
        assert measured == [1]

    @pytest.mark.parametrize("fds,fgs", [
        ([0.1, 1.5], [0.0]), ([0.1], [0.2, -0.5]), ([float("nan")], [0.0]),
        ([0.0], [float("inf")]),
    ])
    def test_axis_values_are_checked_as_noise_params_checks_them(self, fds, fgs):
        with pytest.raises(ValueError) as expected:
            for fd, fg in product(fds, fgs):
                NoiseParams(fd, fg)
        with pytest.raises(ValueError) as err:
            run_stack(segment_physics(make_cfg(), False), fds, fgs)
        assert str(err.value) == str(expected.value)

    def test_register_is_the_real_part_of_the_source_pairs(self):
        # row 0 of reference_chain's start, which is real, bit for bit; and
        # the merge CZ's signs, which _row_cz_terms reads as a 1-D table
        full = source_register()
        assert not full.imag.any()
        assert same_bits(protocol._initial_register(), full[0, :1].real)
        assert same_bits(density._cz_conjugation(4, 1, 2), cz_signs(4, 1, 2)[0])

    @given(values=st.lists(with_edges(0.0, 1.0, 0.0, -0.0, 1.0), min_size=1, max_size=40))
    def test_first_transit_equals_depolarizing_the_register(self, values):
        # run_stack's first transit depolarization, one register row for
        # every f_D entry
        stages = protocol._stages(segment_physics(make_cfg(), False), values, [0.0])
        started = np.array(dict(stages)["transit 0"])  # a list of floats for one value
        stack = np.broadcast_to(source_register()[0].real, (len(values), 16, 16))
        expected = twirl_depolarize(stack, 4, 0, np.array(values).reshape(-1, 1, 1))[:, 0]
        assert started.tobytes() == expected.tobytes()

    def test_empty_stack(self):
        cfg = make_cfg(memory=MemoryParams(0.9, 1.0))
        for fds, fgs in ([], []), ([], [0.1]), ([0.1, 0.2], []):
            probs, states = run_stack(segment_physics(cfg, True), fds, fgs)
            assert probs.shape == (0,) and states.shape == (0, 8, 8)
            assert rate_reports(cfg, fds, fgs, use_memory=True) == []

    def sweep_error(self):
        spec = SweepSpec(fd_range=(0.1, 0.1, 1), fg_range=(0.1, 0.1, 1), memory_modes=("on",))
        (row,) = run_sweep([make_cfg(memory=MemoryParams(0.9, 0.5))], spec)
        return row.error

    def test_dark_count_strength_out_of_range(self, monkeypatch):
        monkeypatch.setattr(protocol, "dark_count_depolarization", lambda *args: 1.5)
        assert self.sweep_error() == "ValueError: depolarize strength must be in [0, 1], got 1.5"

    def test_far_dephasing_out_of_range(self, monkeypatch):
        monkeypatch.setattr(protocol, "dephasing_prob", lambda *args: 0.6)
        assert self.sweep_error() == "ValueError: dephase strength must be in [0, 0.5], got 0.6"

    def test_near_dephasing_out_of_range(self, monkeypatch):
        # the record builder's near coherence, which _segment_strengths reads
        monkeypatch.setattr(netmodel, "_coherence_near", lambda *args: float("nan"))
        assert self.sweep_error() == "ValueError: dephase strength must be in [0, 0.5], got nan"


# f_D and f_G on [0, 1], drawn often at both signed zeros, 1 and subnormals
point_strengths = with_edges(0.0, 1.0, 0.0, -0.0, 1.0, 5e-324, 2.0**-1030,
                             2.0**-1022 - 2.0**-1074)


@pytest.mark.engine
class TestOnePointPath:
    """_stages runs a one-point grid on Python floats (_float_kernels) and
    every larger grid on the numpy stack (_stack_kernels); both give the
    same bits at every stage, and run_stack the same outputs."""

    @pytest.mark.parametrize("use_memory", [False, True])
    @given(cfg=configs, fd=point_strengths, fg=point_strengths, other=point_strengths,
           first=st.booleans())
    def test_float_stages_equal_the_stack(self, use_memory, cfg, fd, fg, other, first):
        physics = segment_physics(cfg, use_memory)
        grid_fds = [fd, other] if first else [other, fd]
        floats = list(protocol._stages(physics, [fd], [fg]))
        stack = list(protocol._stages(physics, grid_fds, [fg]))
        assert [name for name, _ in floats] == [name for name, _ in stack]
        assert floats[-1][0] == "dark counts 3"
        for (name, row), (_, rows) in zip(floats, stack):
            assert len(row) == 16 and all(type(x) is float for x in row), name
            # the point's row of the 2x1 grid; the source pairs are one row
            assert np.array(row).tobytes() == rows[0 if first else -1].tobytes(), name
        # the 1x1 grid against its row of a 2x1 grid holding the point
        probs, states = run_stack(physics, [fd], [fg])
        row = 0 if first else 1
        grid_probs, grid_states = run_stack(physics, grid_fds, [fg])
        assert probs.tobytes() == grid_probs[row:row + 1].tobytes()
        assert states.tobytes() == grid_states[row:row + 1].tobytes()


@pytest.mark.engine
class TestRowInvariant:
    """Before the Y measurement every state of the pipeline is diagonal in
    a graph-state basis, so entry (i, j) is S[i, j] * rho[0, i ^ j], and
    run_stack runs every step on row 0 alone."""

    @pytest.mark.parametrize("use_memory", [False, True])
    @given(
        cfg=configs,
        fd=with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0),
        fg=with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0),
        other=with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0),
    )
    def test_every_stage_is_its_row(self, use_memory, cfg, fd, fg, other):
        # A zero may carry either sign: a row kernel reads a zero partner
        # entry as +-1 times a zero of the row, and the dense state need
        # not give it that sign (f_D = 1 with no dark counts shows it).
        # No nonzero entry depends on it, and no output of run_stack:
        # TestCheckOnce holds those to reference_chain bit for bit.
        # Both kernel families: the 1x1 grid runs on Python floats, and the
        # point is row 0 of a 2x1 grid on the numpy stack.
        xor = np.arange(16)[:, None] ^ np.arange(16)
        stages = reference_stages(cfg, NoiseParams(fd, fg), use_memory)
        for fds in ([fd], [fd, other]):
            rows = list(protocol._stages(segment_physics(cfg, use_memory), fds, [fg]))
            assert [name for name, _ in rows] == [name for name, _, _ in stages]
            for (name, row), (_, edges, rho) in zip(rows, stages):
                assert not rho.imag.any()
                ref = rho[0].real
                nonzero = ref != 0
                expected = density._graph_signs(4, edges) * ref[0, xor]
                assert same_bits(ref[nonzero], expected[nonzero]), name
                point = np.array(row).reshape(-1, 16)[0]
                assert np.array_equal(point, ref[0]), (name, len(fds))
                assert same_bits(point[nonzero[0]], ref[0][nonzero[0]]), (name, len(fds))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signs_match_the_graph_states(self, n):
        # every graph on n qubits, from its adjacency and from |G>
        pairs = list(combinations(range(n), 2))
        for chosen in product((False, True), repeat=len(pairs)):
            edges = tuple(e for e, keep in zip(pairs, chosen) if keep)
            assert same_bits(density._graph_signs(n, edges), state_signs(graph_state(n, edges)))

    def test_signs_match_the_ideal_register(self):
        # the source pairs and the merged register of the statevector route
        assert protocol.PRE_CZ_EDGES == SOURCE_PAIRS and protocol.POST_CZ_EDGES == CHAIN
        for edges, merged in ((SOURCE_PAIRS, False), (CHAIN, True)):
            signs = state_signs(ideal_register(merged))
            assert not signs.imag.any()
            assert np.array_equal(density._graph_signs(4, edges), signs.real)


@pytest.mark.engine
class TestMinusOneBranch:
    """run_pipeline derives the -1 heralding from the +1 run by complex
    conjugation; the reference route measures the -1 outcome itself."""

    @pytest.mark.parametrize("use_memory", [False, True])
    @given(
        cfg=configs,
        fd=with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0),
        fg=with_edges(0.0, 1.0, 0.0, -0.0, 0.5, 1.0),
    )
    def test_equals_the_reference_measurement(self, use_memory, cfg, fd, fg):
        noise = NoiseParams(fd, fg)
        result = run_pipeline(cfg, noise, use_memory=use_memory, outcome=-1)
        rho = reference_chain(cfg, noise, use_memory)
        prob, post = tensordot_project(rho, 4, 2, "Y", -1)
        fid = vdot_fidelity(post, target_state(-1).amplitudes)
        assert result.outcome == -1
        assert np.float64(result.outcome_prob).tobytes() == prob[0].tobytes()
        assert np.float64(result.fidelity).tobytes() == fid[0].tobytes()
        # Equal by value, not byte for byte: conjugation turns a +0.0
        # imaginary part into -0.0, where the reference measurement of the
        # -1 outcome may give +0.0.
        assert np.array_equal(result.rho_out.data, post[0])


class TestOutcomeProbability:
    """Every error the pipeline can pick up heralds either Y outcome with
    probability 1/2, so the outcome probability is 0.5 whatever the
    hardware, noise, memory mode or outcome.  sweep.run_sweep relies on it:
    the one engine error that could depend on f_D or f_G, a zero-probability
    outcome, cannot happen."""

    @given(
        cfg=configs,
        fds=st.lists(with_edges(0.0, 1.0, 0.0, 0.5, 1.0), min_size=1, max_size=2),
        fgs=st.lists(with_edges(0.0, 1.0, 0.0, 0.5, 1.0), min_size=1, max_size=2),
    )
    def test_is_one_half(self, cfg, fds, fgs):
        # run_stack keeps the +1 outcome; the -1 one takes the reference route
        for use_memory in (False, True):
            probs, _ = run_stack(segment_physics(cfg, use_memory), fds, fgs)
            assert np.max(np.abs(probs - 0.5)) <= 1e-15
            for fd, fg in product(fds, fgs):
                rho = reference_chain(cfg, NoiseParams(fd, fg), use_memory)
                prob, _ = tensordot_project(rho, 4, 2, "Y", -1)
                assert abs(prob[0] - 0.5) <= 1e-15
