"""Unit tests of the dense density-matrix engine."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzline import density
from ghzline.density import PAULI, DensityMatrix, PauliString, PureState, ZeroProbabilityError
from ghzline.protocol import CHUNK_ROWS
from util import (
    assert_valid_state,
    cz_signs,
    flip_dephase,
    flip_x_conjugate,
    graph_diagonal_stack,
    loop_reinsert_mixed,
    np_trace_out,
    pure_dm,
    random_density_matrix,
    reinsert_mixed,
    same_bits,
    tensordot_project,
    trace_reinsert_noisy_cz,
    twirl_depolarize,
    unpack,
    vdot_fidelity,
    z_signs,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
qubit_counts = st.integers(min_value=1, max_value=4)
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
half_floats = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def random_dm(seed, num_qubits):
    return DensityMatrix(random_density_matrix(np.random.default_rng(seed), num_qubits))


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def noisy_cz(rows, n, edges, q1, q2, fail):
    """The noisy CZ of every row, mixed as protocol.run_stack mixes it."""
    gate, scrambled = density._row_cz_terms(rows, n, edges, q1, q2)
    return gate * (1.0 - fail) + scrambled * fail


# The channels' dense reference kernels (tests/util.py) run on one state
# as a one-row stack: the physics below holds them, and the row kernels
# must give row 0 of their results bit for bit (TestKernels).


def depolarize_one(dm, qubit, s):
    return DensityMatrix(twirl_depolarize(dm.data[None], dm.num_qubits, qubit, s)[0])


def dephase_one(dm, qubit, s):
    return DensityMatrix(flip_dephase(dm.data[None], dm.num_qubits, qubit, s)[0])


def noisy_cz_one(dm, q1, q2, fail):
    return DensityMatrix(trace_reinsert_noisy_cz(dm.data[None], dm.num_qubits, q1, q2, fail)[0])


def trace_out_one(dm, qubits):
    return DensityMatrix(np_trace_out(dm.data[None], dm.num_qubits, sorted(qubits))[0])


def chain(n):
    """The edges of the linear graph 0-1-...-(n-1)."""
    return tuple((q, q + 1) for q in range(n - 1))


def measure_one(dm, qubit, basis, outcome):
    """The dense reference measurement of one state.  The package measures
    rows of graph-diagonal states only (density._measure_rows), and
    TestKernels holds it to this reference bit for bit."""
    probs, post = tensordot_project(dm.data[None], dm.num_qubits, qubit, basis, outcome)
    return float(probs[0]), DensityMatrix(post[0])


class TestPureState:
    def test_renormalizes_input(self):
        psi = PureState([2.0, 0.0])
        assert np.allclose(psi.amplitudes, [1.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            PureState([0.0, 0.0])

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            PureState([1.0, 0.0, 0.0])

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            PureState([1.0])

    def test_rejects_five_qubits(self):
        with pytest.raises(ValueError):
            PureState(np.ones(32))

    def test_amplitudes_read_only(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestPauliString:
    def test_num_qubits(self):
        assert PauliString("XZI").num_qubits == 3

    def test_single_letter_matrix(self):
        assert max_abs(PauliString("Y").matrix(), PAULI["Y"]) == 0.0

    def test_negative_sign(self):
        assert max_abs(PauliString("X", -1).matrix(), -PAULI["X"]) == 0.0

    def test_two_qubit_matrix(self):
        zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert max_abs(PauliString("ZZ").matrix(), zz) == 0.0

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PauliString("")

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            PauliString("X", 2)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((2, 4)))

    def test_rejects_dimension_three(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3.0)

    def test_rejects_five_qubits(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(32) / 32.0)

    def test_data_read_only(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            dm.data[0, 0] = 2.0


class TestUnitaries:
    """X conjugation, the one single-qubit unitary the reference kernels
    apply alone."""

    def test_bit_flip(self):
        dm = pure_dm([1.0, 0.0])
        flipped = flip_x_conjugate(dm.data[None], 1, 0)[0]
        assert max_abs(flipped, [[0.0, 0.0], [0.0, 1.0]]) <= 1e-15

    def test_acts_on_requested_qubit_only(self):
        dm = pure_dm([1.0, 0.0, 0.0, 0.0])
        flipped = flip_x_conjugate(dm.data[None], 2, 1)[0]
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert max_abs(flipped, expected) <= 1e-15


class TestCz:
    """CZ rho CZ as the entrywise signs cz_signs, the reference the noisy
    CZ kernel is held to (TestKernels)."""

    def test_leaves_00_alone(self):
        rho = pure_dm([1.0, 0.0, 0.0, 0.0]).data * cz_signs(2, 0, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert max_abs(rho, expected) <= 1e-15

    def test_flips_phase_of_11(self):
        rho = pure_dm([0.5, 0.5, 0.5, 0.5]).data * cz_signs(2, 0, 1)
        expected = pure_dm([0.5, 0.5, 0.5, -0.5])
        assert max_abs(rho, expected.data) <= 1e-15

    def test_symmetric_in_arguments(self):
        rho = random_dm(3, 3).data
        assert max_abs(rho * cz_signs(3, 0, 2), rho * cz_signs(3, 2, 0)) == 0.0

    def test_involution(self):
        rho = random_dm(4, 2).data
        assert max_abs(rho * cz_signs(2, 0, 1) * cz_signs(2, 0, 1), rho) <= 1e-15

    @given(seed=seeds, q=st.integers(min_value=0, max_value=1))
    def test_commutes_with_z(self, seed, q):
        rho = random_dm(seed, 2).data
        a = rho * z_signs(2, q) * cz_signs(2, 0, 1)
        b = rho * cz_signs(2, 0, 1) * z_signs(2, q)
        assert max_abs(a, b) <= 1e-12


class TestDepolarize:
    def test_zero_strength_is_identity(self):
        rho = random_dm(11, 2)
        assert max_abs(depolarize_one(rho, 0, 0.0).data, rho.data) == 0.0

    def test_full_strength_on_single_qubit(self):
        dm = depolarize_one(pure_dm([1.0, 0.0]), 0, 1.0)
        assert max_abs(dm.data, np.eye(2) / 2.0) <= 1e-15

    def test_half_strength_on_plus(self):
        dm = depolarize_one(pure_dm([1.0, 1.0]), 0, 0.5)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert max_abs(dm.data, expected) <= 1e-15

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_matches_partial_trace_route(self, qubit):
        rho = random_dm(qubit + 20, 3)
        reduced = trace_out_one(rho, [qubit]).data
        expected = 0.3 * rho.data + 0.7 * reinsert_mixed(reduced, 3, [qubit])
        assert max_abs(depolarize_one(rho, qubit, 0.7).data, expected) <= 1e-12

    def test_rejects_strength_out_of_range(self):
        with pytest.raises(ValueError):
            density._checked_strength(-0.1, 1.0, "depolarize strength")
        with pytest.raises(ValueError):
            density._checked_strength(1.1, 1.0, "depolarize strength")

    @given(seed=seeds, n=qubit_counts, alpha=unit_floats)
    def test_preserves_state_invariants(self, seed, n, alpha):
        rho = random_dm(seed, n)
        assert_valid_state(depolarize_one(rho, seed % n, alpha))

    @given(seed=seeds, n=qubit_counts, alpha=unit_floats)
    def test_affine_in_strength(self, seed, n, alpha):
        rho = random_dm(seed, n)
        q = seed % n
        expected = (1.0 - alpha) * rho.data + alpha * depolarize_one(rho, q, 1.0).data
        assert max_abs(depolarize_one(rho, q, alpha).data, expected) <= 1e-12


class TestDephase:
    def test_zero_strength_is_identity(self):
        rho = random_dm(12, 2)
        assert max_abs(dephase_one(rho, 1, 0.0).data, rho.data) == 0.0

    def test_half_strength_kills_coherence(self):
        dm = dephase_one(pure_dm([1.0, 1.0]), 0, 0.5)
        assert max_abs(dm.data, np.eye(2) / 2.0) <= 1e-15

    def test_quarter_strength_on_plus(self):
        dm = dephase_one(pure_dm([1.0, 1.0]), 0, 0.25)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert max_abs(dm.data, expected) <= 1e-15

    def test_preserves_populations(self):
        rho = random_dm(13, 2)
        out = dephase_one(rho, 0, 0.37)
        assert max_abs(np.diag(out.data), np.diag(rho.data)) <= 1e-15

    def test_rejects_strength_above_half(self):
        with pytest.raises(ValueError):
            density._checked_strength(0.6, 0.5, "dephase strength")

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            density._checked_strength(-0.01, 0.5, "dephase strength")

    @given(seed=seeds, n=qubit_counts, lam=half_floats, mu=half_floats)
    def test_composition_law(self, seed, n, lam, mu):
        rho = random_dm(seed, n)
        q = seed % n
        combined = lam + mu - 2.0 * lam * mu
        a = dephase_one(dephase_one(rho, q, lam), q, mu)
        b = dephase_one(rho, q, combined)
        assert max_abs(a.data, b.data) <= 1e-12

    @given(seed=seeds, n=qubit_counts, lam=half_floats)
    def test_preserves_state_invariants(self, seed, n, lam):
        rho = random_dm(seed, n)
        assert_valid_state(dephase_one(rho, seed % n, lam))


class TestNoisyCz:
    def test_zero_failure_equals_clean_gate(self):
        rho = random_dm(14, 2)
        assert max_abs(noisy_cz_one(rho, 0, 1, 0.0).data, rho.data * cz_signs(2, 0, 1)) == 0.0

    def test_full_failure_two_qubits(self):
        rho = random_dm(15, 2)
        assert max_abs(noisy_cz_one(rho, 0, 1, 1.0).data, np.eye(4) / 4.0) <= 1e-12

    def test_full_failure_middle_qubits(self):
        rho = random_dm(16, 4)
        out = noisy_cz_one(rho, 1, 2, 1.0)
        expected = reinsert_mixed(trace_out_one(rho, [1, 2]).data, 4, [1, 2])
        assert max_abs(out.data, expected) <= 1e-12

    @given(seed=seeds, fail=unit_floats)
    def test_affine_in_failure_probability(self, seed, fail):
        rho = random_dm(seed, 3)
        expected = (1.0 - fail) * noisy_cz_one(rho, 0, 2, 0.0).data + fail * noisy_cz_one(rho, 0, 2, 1.0).data
        assert max_abs(noisy_cz_one(rho, 0, 2, fail).data, expected) <= 1e-12

    @given(seed=seeds, n=st.integers(min_value=2, max_value=4), fail=unit_floats)
    def test_preserves_state_invariants(self, seed, n, fail):
        rho = random_dm(seed, n)
        assert_valid_state(noisy_cz_one(rho, 0, n - 1, fail))


class TestPartialTrace:
    def test_product_state(self):
        zero = pure_dm([1.0, 0.0])
        plus = pure_dm([1.0, 1.0])
        joint = DensityMatrix(np.kron(zero.data, plus.data))
        assert max_abs(trace_out_one(joint, [1]).data, zero.data) <= 1e-15
        assert max_abs(trace_out_one(joint, [0]).data, plus.data) <= 1e-15

    def test_bell_pair_reduces_to_mixed(self):
        bell = pure_dm(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        for q in (0, 1):
            assert max_abs(trace_out_one(bell, [q]).data, np.eye(2) / 2.0) <= 1e-15


class TestMeasure:
    def test_certain_outcome(self):
        prob, post = measure_one(pure_dm([1.0, 0.0]), 0, "Z", +1)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert post.num_qubits == 0
        assert post.data.shape == (1, 1)
        assert abs(post.data[0, 0] - 1.0) <= 1e-12

    def test_impossible_outcome_raises(self):
        # |+><+|, the one-qubit graph state, as its row
        with pytest.raises(ZeroProbabilityError):
            density._measure_rows(np.array([[0.5, 0.5]]), 1, (), 0, "X", -1)

    def test_y_basis_eigenstate(self):
        prob, _ = measure_one(pure_dm([1.0, 1.0j]), 0, "Y", +1)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_removes_measured_qubit(self):
        bell = pure_dm(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        prob, post = measure_one(bell, 0, "Z", +1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert post.num_qubits == 1
        assert max_abs(post.data, [[1.0, 0.0], [0.0, 0.0]]) <= 1e-12

    @given(seed=seeds, n=qubit_counts, basis=st.sampled_from("XYZ"))
    def test_branch_probabilities_sum_to_one(self, seed, n, basis):
        rho = random_dm(seed, n)
        q = seed % n
        p_plus, _ = measure_one(rho, q, basis, +1)
        p_minus, _ = measure_one(rho, q, basis, -1)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    @given(seed=seeds, n=qubit_counts, basis=st.sampled_from("XYZ"))
    def test_post_measurement_state_is_valid(self, seed, n, basis):
        rho = random_dm(seed, n)
        _, post = measure_one(rho, seed % n, basis, +1)
        assert_valid_state(post)


class TestExpectationAndFidelity:
    def test_z_on_zero(self):
        dm = pure_dm([1.0, 0.0])
        assert dm.expectation(PauliString("Z")) == pytest.approx(1.0, abs=1e-15)

    def test_identity_string_is_trace(self):
        rho = random_dm(17, 3)
        assert rho.expectation(PauliString("III")) == pytest.approx(1.0, abs=1e-12)

    def test_signed_string(self):
        dm = pure_dm([0.0, 1.0])
        assert dm.expectation(PauliString("Z", -1)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4.0).expectation(PauliString("X"))

    def test_fidelity_with_itself(self):
        psi = PureState(np.array([1.0, 1.0j, 0.0, 1.0]))
        dm = pure_dm(psi)
        assert dm.fidelity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal(self):
        dm = pure_dm([1.0, 0.0])
        assert dm.fidelity([0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_fidelity_of_mixture(self):
        psi = PureState(np.arange(1.0, 9.0))
        mix = DensityMatrix(
            0.9 * pure_dm(psi).data + 0.1 * np.eye(8) / 8.0
        )
        assert mix.fidelity(psi) == pytest.approx(0.9125, abs=1e-12)

    def test_fidelity_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4.0).fidelity([1.0, 0.0])

    @given(seed=seeds, n=qubit_counts)
    def test_fidelity_bounded(self, seed, n):
        rho = random_dm(seed, n)
        rng = np.random.default_rng(seed + 1)
        psi = PureState(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        f = rho.fidelity(psi)
        assert -1e-12 <= f <= 1.0 + 1e-12


class TestStacks:
    """The kernels act on stacks, strengths broadcasting over the rows:
    (B, 2^n) rows for the channels and _measure_rows, (B, 2^n, 2^n) states
    for _fidelities; each row must equal the same kernel run on that row
    alone exactly."""

    def stack(self, seed, rows, n):
        rng = np.random.default_rng(seed)
        return np.stack([random_density_matrix(rng, n) for _ in range(rows)])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_match_single_states_exactly(self, n):
        rows = np.random.default_rng(n).normal(size=(5, 2**n))
        strengths = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
        s = strengths.reshape(-1, 1)
        q, other, edges = n - 1, 0, chain(n)
        for name, channel in (
            ("depolarize", lambda r, x: density._row_depolarize(r, n, edges, q, x / 4.0, 1.0 - x)),
            ("dephase", lambda r, x: density._row_dephase(r, n, q, x)),
            ("noisy_cz", lambda r, x: noisy_cz(r, n, edges, other, q, x)),
        ):
            out = channel(rows, s)
            for row, strength in enumerate(strengths):
                single = channel(rows[row : row + 1], float(strength))
                assert same_bits(out[row], single[0]), (name, row)
        r, _ = graph_diagonal_stack(np.random.default_rng(n), 5, n, edges)
        probs, post = density._measure_rows(r, n, edges, q, "Y", -1)
        for row in range(len(r)):
            p, single = density._measure_rows(r[row : row + 1], n, edges, q, "Y", -1)
            assert probs[row] == p[0]
            assert same_bits(post[row], single[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fidelity_rows_equal_vdot_exactly(self, n):
        rho = self.stack(10 + n, 6, n)
        rng = np.random.default_rng(n)
        psi = PureState(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        v = psi.amplitudes
        (fids,) = density._fidelities(rho, v.reshape(1, 1, -1))
        for row in range(len(rho)):
            assert fids[row] == np.vdot(v, rho[row] @ v).real == DensityMatrix(rho[row]).fidelity(psi)

    def test_sign_tables_are_read_only(self):
        for table in (density._bit_signs(4, 1), density._cz_conjugation(4, 1, 2)):
            with pytest.raises(ValueError):
                table.flat[0] = 2.0

    def test_scalar_strength_applies_to_every_row(self):
        rows = np.random.default_rng(1).normal(size=(3, 4))
        s = np.full((3, 1), 0.3)
        edges = ((0, 1),)
        assert same_bits(density._row_depolarize(rows, 2, edges, 0, 0.3 / 4.0, 1.0 - 0.3),
                         density._row_depolarize(rows, 2, edges, 0, s / 4.0, 1.0 - s))
        assert same_bits(density._row_dephase(rows, 2, 1, 0.3), density._row_dephase(rows, 2, 1, s))
        assert same_bits(noisy_cz(rows, 2, edges, 0, 1, 0.3), noisy_cz(rows, 2, edges, 0, 1, s))

    def test_zero_probability_in_any_row_raises(self):
        # the rows of |-><-| and |+><+|, states of the one-qubit graph
        with pytest.raises(ZeroProbabilityError):
            density._measure_rows(np.array([[0.5, -0.5], [0.5, 0.5]]), 1, (), 0, "X", -1)


class TestKernels:
    """Each row kernel against the dense reference kernel of tests/util.py,
    on states diagonal in a graph basis (the empty graph, the chain and a
    random graph), given as rows and as their dense stacks, with signed
    zeros, one strength per row and one for every row: the row kernel must
    give row 0 of the reference's result bit for bit.  _measure_rows
    against the dense reference measurement of the same states, and
    _fidelities against its earlier formulation on random stacks that also
    hold signed zeros."""

    @staticmethod
    def stack(seed, rows, n):
        rng = np.random.default_rng(seed)
        rho = np.stack([random_density_matrix(rng, n) for _ in range(rows)])
        # signed zeros in both parts, where the order of operations shows;
        # the diagonal keeps its populations, so every outcome stays possible
        zeros = (rng.random(rho.shape) < 0.2) & ~np.eye(2**n, dtype=bool)
        rho.real[zeros] = np.where(rng.random(rho.shape) < 0.5, 0.0, -0.0)[zeros]
        zeros = rng.random(rho.shape) < 0.2
        rho.imag[zeros] = np.where(rng.random(rho.shape) < 0.5, 0.0, -0.0)[zeros]
        return rho, rng.uniform(0.0, 0.5, size=rows).reshape(rows, 1, 1)

    @staticmethod
    def graph_stacks(seed, rows, n):
        """(edges, rows, dense stack, strengths) for each of three graphs."""
        rng = np.random.default_rng(seed)
        random_graph = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.5)
        for edges in ((), chain(n), random_graph):
            r, rho = graph_diagonal_stack(rng, rows, n, edges)
            yield edges, r, rho, rng.uniform(0.0, 0.5, size=rows).reshape(rows, 1)

    @staticmethod
    def assert_measures_as_dense(r, rho, n, edges):
        """_measure_rows on rows ``r`` against tensordot_project of their
        dense stack ``rho``, bit for bit, on each qubit, basis and outcome.
        Rows of graph_diagonal_stack need not be positive: where the
        reference gives a row a probability below ZERO_PROB_TOL, the stack
        must raise, and its other rows must still match."""
        for q in range(n):
            for basis in "XYZ":
                for outcome in (1, -1):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ref_probs, _ = tensordot_project(rho, n, q, basis, outcome)
                    ok = ref_probs >= density.ZERO_PROB_TOL
                    if not ok.all():
                        with pytest.raises(ZeroProbabilityError):
                            density._measure_rows(r, n, edges, q, basis, outcome)
                    probs, post = density._measure_rows(r[ok], n, edges, q, basis, outcome)
                    ref_probs, ref_post = tensordot_project(rho[ok], n, q, basis, outcome)
                    assert same_bits(probs, ref_probs) and same_bits(post, ref_post)

    cases = pytest.mark.parametrize(
        "rows, n", [(rows, n) for rows in (1, 5, 32) for n in (1, 2, 3, 4)]
    )

    @cases
    def test_depolarize(self, rows, n):
        for edges, r, rho, s in self.graph_stacks(10 * rows + n, rows, n):
            for q in range(n):
                assert same_bits(density._row_depolarize(r, n, edges, q, s / 4.0, 1.0 - s),
                                 twirl_depolarize(rho, n, q, s[..., None])[:, 0])
                scalar = float(s[0, 0])
                assert same_bits(
                    density._row_depolarize(r, n, edges, q, scalar / 4.0, 1.0 - scalar),
                    twirl_depolarize(rho, n, q, scalar)[:, 0])

    @cases
    def test_dephase(self, rows, n):
        for edges, r, rho, s in self.graph_stacks(30 * rows + n, rows, n):
            for q in range(n):
                assert same_bits(density._row_dephase(r, n, q, s),
                                 flip_dephase(rho, n, q, s[..., None])[:, 0])
                scalar = float(s[-1, 0])
                assert same_bits(density._row_dephase(r, n, q, scalar),
                                 flip_dephase(rho, n, q, scalar)[:, 0])

    @pytest.mark.parametrize("rows, n", [(rows, n) for rows in (1, 5, 32) for n in (2, 3, 4)])
    def test_noisy_cz(self, rows, n):
        for edges, r, rho, f in self.graph_stacks(40 * rows + n, rows, n):
            for q1, q2 in ((a, b) for a in range(n) for b in range(n) if a != b):
                assert same_bits(noisy_cz(r, n, edges, q1, q2, f),
                                 trace_reinsert_noisy_cz(rho, n, q1, q2, f[..., None]).real[:, 0])
            scalar = float(f[0, 0])
            assert same_bits(noisy_cz(r, n, edges, 0, n - 1, scalar),
                             trace_reinsert_noisy_cz(rho, n, 0, n - 1, scalar).real[:, 0])

    @given(seed=seeds, rows=st.integers(min_value=1, max_value=40),
           n=st.integers(min_value=2, max_value=4))
    def test_row_kernels_on_drawn_stacks(self, seed, rows, n):
        # test_depolarize, test_dephase and test_noisy_cz on drawn stacks,
        # so that a deeper hypothesis profile draws more of them
        for edges, r, rho, s in self.graph_stacks(seed, rows, n):
            for q1, q2 in permutations(range(n), 2):
                assert same_bits(noisy_cz(r, n, edges, q1, q2, s),
                                 trace_reinsert_noisy_cz(rho, n, q1, q2, s[..., None]).real[:, 0])
            q = seed % n
            assert same_bits(density._row_depolarize(r, n, edges, q, s / 4.0, 1.0 - s),
                             twirl_depolarize(rho, n, q, s[..., None])[:, 0])
            assert same_bits(density._row_dephase(r, n, q, s),
                             flip_dephase(rho, n, q, s[..., None])[:, 0])

    @pytest.mark.parametrize("rows, n", [(rows, n) for rows in (1, 5, 32) for n in (2, 3, 4)])
    def test_partial_trace_matches_np_trace(self, rows, n):
        # the failed CZ's branch on its own, before the mix scales it:
        # Tr_{q1,q2}(rho) (x) I/4 through np.trace, on every pair
        for edges, r, rho, _ in self.graph_stacks(50 * rows + n, rows, n):
            for q1, q2 in combinations(range(n), 2):
                expected = loop_reinsert_mixed(np_trace_out(rho, n, [q1, q2]), n, [q1, q2])
                for pair in ((q1, q2), (q2, q1)):
                    _, scrambled = density._row_cz_terms(r, n, edges, *pair)
                    assert same_bits(scrambled, expected.real[:, 0])

    @pytest.mark.parametrize("rows", [1, 5, 32])
    def test_failed_merge_leaves_the_pairs_maximally_mixed(self, rows):
        # On the source pairs' graph the trace weights of the merge CZ are
        # e_0: the failed branch keeps rho[0, 0] and sets every other entry
        # of its row to +0.0, which unpacks to rho[0, 0] * I on the
        # chain (equal by value: a sign of the chain turns some +0.0 into
        # -0.0), the maximally mixed state of a unit-trace row.
        source_pairs = ((0, 1), (2, 3))
        r, _ = graph_diagonal_stack(np.random.default_rng(rows), rows, 4, source_pairs)
        _, scrambled = density._row_cz_terms(r, 4, source_pairs, 1, 2)
        expected = np.zeros_like(r)
        expected[:, 0] = r[:, 0]
        assert same_bits(density._trace_weights(4, source_pairs, 1, 2), np.eye(16)[0])
        assert same_bits(scrambled, expected)
        assert np.array_equal(unpack(scrambled, 4, chain(4)),
                              np.broadcast_to(np.eye(16) / 16, (rows, 16, 16)))

    @cases
    def test_measure(self, rows, n):
        for edges, r, rho, _ in self.graph_stacks(60 * rows + n, rows, n):
            self.assert_measures_as_dense(r, rho, n, edges)

    @pytest.mark.parametrize(
        "rows, n", [(rows, n) for rows in (0, 1, CHUNK_ROWS + 9) for n in (1, 2, 3, 4)]
    )
    def test_measure_rows_is_the_dense_measurement(self, rows, n):
        # the unpacked stack, signed zeros included; more rows than
        # protocol.run_stack passes in one call
        for edges, r, _, _ in self.graph_stacks(90 * rows + n, rows, n):
            self.assert_measures_as_dense(r, unpack(r, n, edges), n, edges)

    @cases
    def test_fidelity(self, rows, n):
        rho, _ = self.stack(70 * rows + n, rows, n)
        rng = np.random.default_rng(rows + n)
        vectors = np.array([PureState(rng.normal(size=2**n) + 1j * rng.normal(size=2**n)).amplitudes
                            for _ in range(3)])
        fids = density._fidelities(rho, vectors.reshape(3, 1, -1))
        assert fids.shape == (3, rows)
        for k, v in enumerate(vectors):
            assert same_bits(fids[k], vdot_fidelity(rho, v))

    @cases
    def test_real_stack_gives_the_real_part(self, rows, n):
        # protocol.run_stack keeps its rows real until the Y measurement:
        # on real rows each row kernel gives the real part of row 0 of the
        # reference's complex128 result, unpack gives the real dense stack,
        # and _measure_rows the measurement of its complex promotion, bit
        # for bit
        for edges, r, real, s in self.graph_stacks(80 * rows + n, rows, n):
            promoted = real.astype(complex)
            # f_D and f_G may be -0.0.  The dephasing strengths are
            # 0.5 (1 - x), never -0.0, which is as well: at -0.0 the cross
            # terms of the complex product can flip the sign of a zero entry.
            lam = s.copy()
            s.flat[:3] = (1.0, -0.0, 0.0)[:rows]
            lam.flat[:2] = (0.5, 0.0)[:rows]
            assert same_bits(unpack(r, n, edges), real)
            for q in range(n):
                assert same_bits(density._row_depolarize(r, n, edges, q, s / 4.0, 1.0 - s),
                                 twirl_depolarize(promoted, n, q, s[..., None]).real[:, 0])
                assert same_bits(density._row_dephase(r, n, q, lam),
                                 flip_dephase(promoted, n, q, lam[..., None]).real[:, 0])
                for other in range(n):
                    if other != q:
                        expected = trace_reinsert_noisy_cz(promoted, n, q, other, s[..., None])
                        assert same_bits(noisy_cz(r, n, edges, q, other, s), expected.real[:, 0])
                for outcome in (1, -1):
                    for got, expected in zip(density._measure_rows(r, n, edges, q, "Y", outcome),
                                             tensordot_project(promoted, n, q, "Y", outcome)):
                        assert same_bits(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_stack(self, n):
        rho = np.zeros((0, 2**n, 2**n), dtype=complex)
        rows, none, edges = np.zeros((0, 2**n)), np.zeros((0, 1)), chain(n)
        assert density._row_depolarize(rows, n, edges, 0, none, none).shape == rows.shape
        assert density._row_dephase(rows, n, n - 1, none).shape == rows.shape
        assert unpack(rows, n, edges).shape == rho.shape
        probs, post = density._measure_rows(rows, n, edges, n - 1, "Y", -1)
        assert probs.shape == (0,) and post.shape == (0, 2 ** (n - 1), 2 ** (n - 1))
        assert density._fidelities(rho, np.ones((1, 1, 2**n)) / 2 ** (n / 2)).shape == (1, 0)
        if n > 1:
            assert noisy_cz(rows, n, edges, 0, n - 1, none).shape == rows.shape
            for branch in density._row_cz_terms(rows, n, edges, 0, n - 1):
                assert branch.shape == rows.shape

    def test_tables_are_read_only(self):
        tables = (
            density._bit_signs(4, 1),
            density._xor_table(4),
            density._graph_signs(4, chain(4)),
            density._depolarize_mask(4, chain(4), 1),
            density._trace_weights(4, chain(4), 1, 2),
            *density._measure_tables(4, chain(4), 2),
            *density._projection("Y", 1),
        )
        for table in tables:
            with pytest.raises(ValueError):
                table.flat[0] = 0

    def test_checked_strength_matches_stack_check(self):
        # _checked_strength is the one range check of a channel strength,
        # with these exact texts; TestCheckOnce's *_out_of_range tests in
        # test_protocol hold protocol.run_stack to the same texts
        for value, hi, what, expected in (
            (1.5, 1.0, "depolarize strength", "depolarize strength must be in [0, 1], got 1.5"),
            (-0.25, 1.0, "depolarize strength", "depolarize strength must be in [0, 1], got -0.25"),
            (0.6, 0.5, "dephase strength", "dephase strength must be in [0, 0.5], got 0.6"),
            (float("nan"), 0.5, "dephase strength", "dephase strength must be in [0, 0.5], got nan"),
            (1.1, 1.0, "fail_prob", "fail_prob must be in [0, 1], got 1.1"),
        ):
            with pytest.raises(ValueError) as checked:
                density._checked_strength(value, hi, what)
            assert str(checked.value) == expected
        assert density._checked_strength(0.5, 0.5, "dephase strength") == 0.5
