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
from operator import itemgetter

import numpy as np

from .density import (
    BASIS_EIGENVECTORS,
    DensityMatrix,
    PauliString,
    PureState,
    _bit_signs,
    _checked_strength,
    _cz_conjugation,
    _depolarize_mask,
    _fidelities,
    _measure_rows,
    _read_only,
    _row_cz_terms,
    _row_dephase,
    _row_depolarize,
    _trace_weights,
)
from .netmodel import (
    SegmentPhysics,
    TrioConfig,
    dark_count_depolarization,
    dephasing_prob,
    segment_physics,
)

MEASURED_QUBIT = 2  # B's C-side qubit, measured in Y to complete the merge
MEMORY_QUBITS = {"A": 1, "C": 2}  # B's qubit of each outer node's pair, held in memory

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
    e = BASIS_EIGENVECTORS
    vec = 0.5 * (
        (1.0 - 1.0j) * np.kron(np.kron(e["X", +1], e["Z", +1]), e["Y", +1])
        + (1.0 + 1.0j) * np.kron(np.kron(e["X", -1], e["Z", -1]), e["Y", -1])
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


def _segment_strengths(physics: SegmentPhysics) -> tuple[tuple, tuple]:
    """run_stack's checked segment strengths: the memory dephasings as
    (qubit, strength) pairs, empty without memory, and each dark-count
    depolarization as (qubit, strength / 4, 1 - strength) triples.
    """
    # Every strength is checked here, with _checked_strength's message,
    # and the channel kernels only compute.  run_stack checks f_D and f_G.
    cfg = physics.cfg
    dephasings = []
    if physics.use_memory:
        times = physics.times
        # Far-side memory only waits out its own confirmation signal; the
        # near-side one also idles through the attempt-count gap, which is
        # folded in as the expected coherence factor.
        lam_near = 0.5 * (1.0 - physics.coherence_near)
        lam_far = dephasing_prob(times.t_far, cfg.memory.t2)
        # near first: the dephasings commute, but not their roundings
        dephasings = [
            (MEMORY_QUBITS[node], _checked_strength(lam, 0.5, "dephase strength"))
            for node, lam in ((times.near_node, lam_near), (times.far_node, lam_far))
        ]
    dark_counts = []
    for qubits, node, node_params in (
        ((0,), "A", cfg.node_a), ((1, 2), "B", cfg.node_b), ((3,), "C", cfg.node_c)
    ):
        alpha = dark_count_depolarization(
            physics.detection[node], physics.clicks[node], node_params.dark_count_prob)
        s = _checked_strength(alpha, 1.0, "depolarize strength")
        for qubit in qubits:
            dark_counts.append((qubit, s / 4.0, 1.0 - s))
    return tuple(dephasings), tuple(dark_counts)


@cache
def _stack_kernels() -> tuple:
    """_stages' kernels on a real (B, 16) stack: density's row kernels on
    four qubits.  An axis is a (B, 1) column, and the merge broadcasts the
    (F, 16) rows of the F f_D entries against the (G, 1) f_G column."""
    def merge(rows, fail):
        gate, scrambled = _row_cz_terms(rows, 4, PRE_CZ_EDGES, 1, 2)
        # row (i, j) takes f_D entry i and f_G entry j
        mixed = gate[:, None] * (1.0 - fail)
        mixed += scrambled[:, None] * fail
        return mixed.reshape(-1, 16)

    return (_initial_register(), lambda values: np.array(values).reshape(-1, 1),
            lambda rows, edges, qubit, quarter, keep: _row_depolarize(rows, 4, edges, qubit, quarter, keep),
            lambda rows, qubit, lam: _row_dephase(rows, 4, qubit, lam), merge)


@cache
def _float_kernels() -> tuple:
    """_stages' kernels on the one row of a one-point grid as 16 Python
    floats, where numpy's per-call cost would be most of the work.

    Each does its row kernel's operations on each entry in the same order,
    and every one is one IEEE operation, which a CPython float rounds as a
    numpy float64 ufunc does; neither fuses two into one.  They read the
    row kernels' tables, bound here once as tuples.
    """
    def listed(table: np.ndarray) -> tuple:
        return tuple(table.tolist())

    pre, post = (tuple(listed(_depolarize_mask(4, edges, q)) for q in range(4))
                 for edges in (PRE_CZ_EDGES, POST_CZ_EDGES))
    z_signs = tuple(listed(_bit_signs(4, q)) for q in range(4))
    cz_signs, weights = listed(_cz_conjugation(4, 1, 2)), listed(_trace_weights(4, PRE_CZ_EDGES, 1, 2))

    def depolarize(row, edges, qubit, quarter, keep):
        # The mask is picked by identity: hashing the edges costs more.
        # Off the mask, quarter * 0.0 is np.where's +0.0 times quarter, the
        # same bits for every entry, so it is computed once.
        mask, zero = (pre if edges is PRE_CZ_EDGES else post)[qubit], quarter * 0.0
        return [keep * x + (quarter * (4.0 * x) if m else zero) for x, m in zip(row, mask)]

    def dephase(row, qubit, lam):
        keep = 1.0 - lam
        return [keep * x + lam * (x * z) for x, z in zip(row, z_signs[qubit])]

    def merge(row, fail):
        keep = 1.0 - fail
        return [(x * s) * keep + (x * w + 0.0) * fail for x, s, w in zip(row, cz_signs, weights)]

    return listed(_initial_register()[0]), itemgetter(0), depolarize, dephase, merge


def _stages(physics: SegmentPhysics, fds: Sequence[float], fgs: Sequence[float]):
    """Yield (name, rows) for the source register and after each step
    before the Y measurement, in order, for checked f_D and f_G values:
    the one place the engine's stage order is written.

    The rows are row 0 of each state, and this is exact: each state is
    diagonal in the graph-state basis of PRE_CZ_EDGES before the CZ and
    POST_CZ_EDGES after it, and each step combines only entries of one XOR
    class i ^ j, each times +-1.  The grid size alone picks the kernel
    family, (register, axis strengths, depolarize, dephase, merge): one
    point runs _float_kernels on a list of 16 Python floats, any other grid
    _stack_kernels on a real (B, 16) stack, B the f_D count before the f_G
    mix (the first transit step broadcasts the register) and the point
    count, f_D-major, from it on.  Each step maps each row alone in a fixed
    order: the dense channels' bits, in either family.
    """
    dephasings, dark_counts = _segment_strengths(physics)
    rows, strengths, depolarize, dephase, merge = (
        _float_kernels() if len(fds) == len(fgs) == 1 else _stack_kernels())
    yield "source pairs", rows
    depol = strengths(fds)
    quarter, keep = depol / 4.0, 1.0 - depol
    for name, qubit in (("transit 0", 0), ("transit 3", 3)):
        rows = depolarize(rows, PRE_CZ_EDGES, qubit, quarter, keep)
        yield name, rows
    for name, (qubit, lam) in zip(("near memory", "far memory"), dephasings):
        rows = dephase(rows, qubit, lam)
        yield name, rows
    rows = merge(rows, strengths(fgs))
    yield "merge CZ", rows
    # _segment_strengths gives qubits 0 to 3 in order
    names = ("dark counts 0", "dark counts 1", "dark counts 2", "dark counts 3")
    for name, (qubit, quarter_s, keep_s) in zip(names, dark_counts):
        rows = depolarize(rows, POST_CZ_EDGES, qubit, quarter_s, keep_s)
        yield name, rows


def run_stack(
    physics: SegmentPhysics, fds: Sequence[float], fgs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Run one merge attempt per point of the grid ``fds`` x ``fgs`` on the
    segment and memory mode of ``physics``, all as one stack.

    Returns, one row per point in f_D-major order (row r is f_D entry
    r // len(fgs) with f_G entry r % len(fgs)): the probability of the Y
    outcome +1, and the conditional three-qubit state on (0, 1, 3) as a
    (B, 8, 8) stack.  The -1 branch is its conjugate (run_pipeline).

    Checks each axis value once, takes _stages' last rows and measures
    qubit 2 in Y, keeping the +1 outcome, on chunks of CHUNK_ROWS rows.
    """
    fds = [_checked_strength(v, 1.0, "channel_depol") for v in fds]
    fgs = [_checked_strength(v, 1.0, "gate_fail") for v in fgs]
    for _, rows in _stages(physics, fds, fgs):
        pass
    rows = np.array(rows, ndmin=2, copy=None)  # a one-point grid's list is its row
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

    The one-point case of run_stack, whose _stages run on Python floats.
    """
    _check_outcome(outcome)
    probs, states = run_stack(
        segment_physics(cfg, use_memory), [noise.channel_depol], [noise.gate_fail]
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
