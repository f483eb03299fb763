"""The three-party extraction pipeline.

Station B holds one entangled pair shared with A (qubits 0, 1) and one
shared with C (qubits 2, 3); qubits 0 and 3 fly outward while 1 and 2 stay
at B.  Merging is a CZ between B's two qubits followed by a Y measurement
of qubit 2, which leaves a three-qubit state on (0, 1, 3) that is locally
equivalent to GHZ.  Noise enters as depolarization of the transit qubits,
dephasing of the stored qubits (memory operation), a noisy merge gate, and
dark-count depolarization of every qubit whose detector fired.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .density import (
    BASIS_EIGENVECTORS,
    DensityMatrix,
    PauliString,
    PureState,
    _checked_strength,
    _fidelities,
    _measure_rows,
    _read_only,
    _row_cz_terms,
    _row_dephase,
    _row_depolarize,
)
from .netmodel import (
    TrioConfig,
    dark_count_depolarization,
    dephasing_prob,
    detection_prob,
    expected_coherence_near,
    require_memory,
    storage_times,
    window_click_probs,
)

MEASURED_QUBIT = 2  # B's C-side qubit, measured in Y to complete the merge

# The graphs whose graph-state basis diagonalizes the register: the two
# source pairs before the merge CZ, the linear chain 0-1-2-3 after it.
PRE_CZ_EDGES = ((0, 1), (2, 3))
POST_CZ_EDGES = ((0, 1), (1, 2), (2, 3))

# The most rows run_stack measures together: _measure_rows gathers them
# into a complex (2, B, 128) buffer of 4 KiB per row, so this bounds it
# to 128 KiB however many rows a caller passes.  Every other stack of
# run_stack takes at most the 1 KiB per row of the (8, 8) complex state
# it returns.  On the bundled 121-row blocks 48 and 64 led 32 by no
# more than the spread between rounds.
CHUNK_ROWS = 32

STABILIZER_FACTORS = ("XZI", "XIY", "YXZ", "YYX", "ZXX", "ZYZ", "IZY", "III")

# Signs making each string a +1 stabilizer of target_state(outcome).
# target_state(-1) is the complex conjugate of target_state(+1), and
# conjugation negates Y alone among the Paulis, so a string's -1 sign is
# its +1 sign flipped once per Y factor.
_PLUS_SIGNS = (1, 1, -1, 1, 1, 1, 1, 1)
_STABILIZER_SIGNS = {
    +1: _PLUS_SIGNS,
    -1: tuple(s * (-1) ** f.count("Y") for f, s in zip(STABILIZER_FACTORS, _PLUS_SIGNS)),
}


@dataclass(frozen=True)
class NoiseParams:
    """Adjustable noise knobs of one pipeline run.

    channel_depol is the depolarization strength applied to each transit
    qubit; gate_fail is the failure probability of the merge CZ.
    """

    channel_depol: float = 0.0
    gate_fail: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.channel_depol <= 1.0:
            raise ValueError(
                f"channel_depol must be in [0, 1], got {self.channel_depol}"
            )
        if not 0.0 <= self.gate_fail <= 1.0:
            raise ValueError(f"gate_fail must be in [0, 1], got {self.gate_fail}")


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
    """Result of one pipeline run, conditioned on the selected Y outcome."""

    rho_out: DensityMatrix  # three-qubit state on (0, 1, 3)
    outcome: int  # +1 or -1
    outcome_prob: float  # probability of that Y outcome
    fidelity: float  # overlap with target_state(outcome)
    used_memory: bool

    @cached_property
    def stabilizer_expectations(self) -> tuple[tuple[PauliString, float], ...]:
        """Each element of stabilizer_suite(outcome) with its expectation
        on rho_out, computed on first access."""
        return tuple((p, self.rho_out.expectation(p)) for p in stabilizer_suite(self.outcome))


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


@cache
def _initial_register() -> np.ndarray:
    """Read-only (1, 16) row 0 of both source pairs, CZ|+>|+> on qubits
    (0, 1) and (2, 3): the graph state of PRE_CZ_EDGES, whose entry
    (0, d) is (-1)^(number of its edges inside d) / 16, exactly."""
    idx = np.arange(16)
    inside = sum((idx >> (3 - a)) & (idx >> (3 - b)) & 1 for a, b in PRE_CZ_EDGES)
    return _read_only(((1.0 - 2.0 * (inside & 1)) / 16.0).reshape(1, 16))


@cache
def target_state(outcome: int = +1) -> PureState:
    """Ideal post-merge state on qubits (0, 1, 3) for the given Y outcome.

    Written in the bases that diagonalize the dealer's stabilizer test:
    X on qubit 0, Z on qubit 1, Y on qubit 3.  The -1 state is the complex
    conjugate of the +1 state, as it must be for a Y outcome flip.  Built
    once per outcome; the amplitudes are read-only.
    """
    _check_outcome(outcome)
    if outcome == -1:
        return PureState(target_state(+1).amplitudes.conj())
    plus = BASIS_EIGENVECTORS[("X", +1)]
    minus = BASIS_EIGENVECTORS[("X", -1)]
    ket0 = BASIS_EIGENVECTORS[("Z", +1)]
    ket1 = BASIS_EIGENVECTORS[("Z", -1)]
    y_pos = BASIS_EIGENVECTORS[("Y", +1)]
    y_neg = BASIS_EIGENVECTORS[("Y", -1)]
    vec = 0.5 * (
        (1.0 - 1.0j) * _kron3(plus, ket0, y_pos)
        + (1.0 + 1.0j) * _kron3(minus, ket1, y_neg)
    )
    return PureState(vec)


def stabilizer_suite(outcome: int = +1) -> tuple[PauliString, ...]:
    """Eight signed Pauli strings with expectation +1 on target_state(outcome).

    The signed non-identity strings multiply out to the identity, so they
    form (with signs absorbed) the full stabilizer group of the state.
    """
    _check_outcome(outcome)
    signs = _STABILIZER_SIGNS[outcome]
    return tuple(
        PauliString(f, s) for f, s in zip(STABILIZER_FACTORS, signs)
    )


def _check_outcome(outcome: int) -> None:
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def _segment_strengths(cfg: TrioConfig, use_memory: bool) -> tuple[tuple, tuple]:
    """run_stack's checked segment strengths: the memory dephasings as
    (qubit, strength) pairs, empty without memory, and each dark-count
    depolarization as (qubit, strength / 4, 1 - strength) triples.
    """
    # Every strength is checked here, with _checked_strength's message,
    # and the channel kernels only compute.  run_stack checks f_D and f_G.
    dephasings = []
    if use_memory:
        t2 = require_memory(cfg).t2
        times = storage_times(cfg)
        # Far-side memory only waits out its own confirmation signal; the
        # near-side one also idles through the attempt-count gap, which is
        # folded in as the expected coherence factor.
        lam_near = 0.5 * (1.0 - expected_coherence_near(cfg))
        lam_far = dephasing_prob(times.t_far, t2)
        near_qubit, far_qubit = (2, 1) if times.far_node == "A" else (1, 2)
        dephasings = [
            (near_qubit, _checked_strength(lam_near, 0.5, "dephase strength")),
            (far_qubit, _checked_strength(lam_far, 0.5, "dephase strength")),
        ]
    dark_counts = []
    clicks = window_click_probs(cfg, use_memory)
    for qubits, node, node_params in (
        ((0,), "A", cfg.node_a), ((1, 2), "B", cfg.node_b), ((3,), "C", cfg.node_c)
    ):
        xi = detection_prob(cfg, node, use_memory)
        alpha = dark_count_depolarization(xi, clicks[node], node_params.dark_count_prob)
        s = _checked_strength(alpha, 1.0, "depolarize strength")
        for qubit in qubits:
            dark_counts.append((qubit, s / 4.0, 1.0 - s))
    return tuple(dephasings), tuple(dark_counts)


def run_stack(
    cfg: TrioConfig,
    fds: Sequence[float],
    fgs: Sequence[float],
    *,
    use_memory: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one merge attempt per point of the grid ``fds`` x ``fgs``, all
    as one stack.

    Returns, one row per point in f_D-major order (row r is f_D entry
    r // len(fgs) with f_G entry r % len(fgs)): the probability of the Y
    outcome +1, and the conditional three-qubit state on (0, 1, 3) as a
    (B, 8, 8) stack.  The -1 branch is its conjugate (run_pipeline).

    Steps, in order: prepare both source pairs; depolarize the transit
    qubits (0 and 3) with f_D; if use_memory, dephase B's stored qubits by
    their expected storage decoherence; apply the noisy merge CZ between
    qubits 1 and 2 with f_G; depolarize every qubit by its dark-count junk
    fraction; measure qubit 2 in Y and keep the +1 outcome.  Each axis value
    is checked once, and the segment's strengths once per call
    (_segment_strengths).

    Every step before the measurement runs on row 0 of each state, a
    (B, 16) stack (the row kernels of ghzline.density).  This is exact:
    each state is diagonal in the basis of the graph state PRE_CZ_EDGES
    before the CZ and POST_CZ_EDGES after it, each step combines only
    entries of one XOR class i ^ j, each times +-1, and a product with
    +-1 rounds nothing.  Every step before the f_G mix runs once, with
    one row per f_D entry: the transit depolarizations (the first takes
    the one row of the source pairs and broadcasts it over the entries),
    the memory dephasings, and the noisy CZ's two branches.  The mix (by
    broadcasting) and the dark-count depolarizations run once on all
    rows, and the measurement on chunks of up to CHUNK_ROWS rows.  Each
    step maps each row on its own and sums it in the same order whatever
    its stack, and the rows are real float64 until the measurement, with
    the bits the dense channels give on a complex stack.
    """
    fds = [_checked_strength(v, 1.0, "channel_depol") for v in fds]
    fgs = [_checked_strength(v, 1.0, "gate_fail") for v in fgs]
    dephasings, dark_counts = _segment_strengths(cfg, use_memory)
    # every step before the CZ mix, once per f_D entry
    depol = np.array(fds).reshape(-1, 1)
    quarter, keep = depol / 4.0, 1.0 - depol
    rows = _row_depolarize(_initial_register(), 4, PRE_CZ_EDGES, 0, quarter, keep)
    rows = _row_depolarize(rows, 4, PRE_CZ_EDGES, 3, quarter, keep)
    for qubit, lam in dephasings:
        rows = _row_dephase(rows, 4, qubit, lam)
    gate, scrambled = _row_cz_terms(rows, 4, PRE_CZ_EDGES, 1, 2)
    # row (i, j) takes f_D entry i and f_G entry j
    fail = np.array(fgs).reshape(1, -1, 1)
    rows = gate[:, None] * (1.0 - fail)
    rows += scrambled[:, None] * fail
    rows = rows.reshape(-1, 16)
    for qubit, quarter_s, keep_s in dark_counts:
        rows = _row_depolarize(rows, 4, POST_CZ_EDGES, qubit, quarter_s, keep_s)
    probs, states = np.empty(len(rows)), np.empty((len(rows), 8, 8), dtype=complex)
    for lo in range(0, len(rows), CHUNK_ROWS):
        chunk = slice(lo, lo + CHUNK_ROWS)
        probs[chunk], states[chunk] = _measure_rows(rows[chunk], 4, POST_CZ_EDGES,
                                                    MEASURED_QUBIT, "Y", +1)
    return probs, states


def run_pipeline(
    cfg: TrioConfig,
    noise: NoiseParams = NoiseParams(),
    *,
    use_memory: bool = False,
    outcome: int = +1,
) -> ProtocolOutcome:
    """Run one merge attempt and return the conditional three-qubit state.

    The one-row case of run_stack, which lists the steps.
    """
    _check_outcome(outcome)
    probs, states = run_stack(
        cfg, [noise.channel_depol], [noise.gate_fail], use_memory=use_memory
    )
    # The two Y outcomes differ by a local Clifford correction (the
    # Y-measurement rule for graph states, Hein, Eisert & Briegel, PRA 69,
    # 062311 (2004)).  The state before the measurement is real, and Y's -1
    # eigenvector is the conjugate of its +1 one, so the -1 branch is the
    # conjugate state with the same probability and fidelity.
    rho = states[0] if outcome == +1 else states[0].conj()
    return ProtocolOutcome(
        rho_out=DensityMatrix(rho, _copy=False),
        outcome=outcome,
        outcome_prob=float(probs[0]),
        fidelity=float(_fidelities(states, target_state(+1).amplitudes.reshape(1, 1, 8))[0, 0]),
        used_memory=use_memory,
    )
