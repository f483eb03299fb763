"""Error rates and asymptotic conference-key rates of the delivered state.

Two error probabilities feed the rate: the parity error of the dealer's
three-party stabilizer test (Z on qubit 0, Y on qubit 1, Z on qubit 3) and
the bit error of the dealer-to-A bipartite test, taken as one minus the
weight on the two-dimensional error-free correlation subspace.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .density import (
    BASIS_EIGENVECTORS,
    DensityMatrix,
    PauliString,
    PureState,
    _fidelity,
    _x_conjugate,
)
from .netmodel import TrioConfig, yield_memoryless, yield_with_memory
from .protocol import NoiseParams, run_stack, target_state

PARITY_TEST = PauliString("ZYZ")


class RateReport(NamedTuple):
    """Yield, errors and key rates of one operating point.

    The point is the segment, the noise knobs f_D and f_G, the memory mode
    and, with memory, its T2.  Fields run in the sweep's column order.
    ``error`` is set, and the metrics NaN, when a sweep could not evaluate
    the point.  A plain tuple of its fields: iterable, indexable, and equal
    to a tuple of the same values.
    """

    segment: str
    f_d: float
    f_g: float
    memory: bool
    t2_s: float | None
    yield_per_attempt: float
    fidelity: float
    q_x: float
    q_ab: float
    r_per_attempt: float
    r_per_second: float
    error: str | None = None


def binary_entropy(x: float) -> float:
    """Base-2 binary entropy, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


@cache
def _correlated_states() -> tuple[PureState, PureState]:
    """Orthonormal basis of the subspace where the dealer-A bits agree.

    The first vector is the ideal +1-outcome state; the second flips the
    relative phase of its two branches by a Z on qubit 1, an exact sign
    change.  Any weight outside their span shows up as a bit error in the
    bipartite test.
    """
    psi_plus = target_state(+1)
    return psi_plus, PureState(PauliString("IZI").matrix() @ psi_plus.amplitudes)


@cache
def _odd_parity_states() -> tuple[PureState, ...]:
    """Product eigenvectors of Z (x) Y (x) Z whose eigenvalue product is -1."""
    bases = ("Z", "Y", "Z")
    states = []
    for signs in product((1, -1), repeat=3):
        if signs[0] * signs[1] * signs[2] != -1:
            continue
        vec = np.array([1.0 + 0.0j])
        for basis, s in zip(bases, signs):
            vec = np.kron(vec, BASIS_EIGENVECTORS[(basis, s)])
        states.append(PureState(vec))
    return tuple(states)


def _bipartite_errors(rho: np.ndarray) -> np.ndarray:
    """qber_bipartite of every row of a (B, 8, 8) stack."""
    psi_plus, psi_minus = _correlated_states()
    q = 1.0 - _fidelity(rho, psi_plus.amplitudes) - _fidelity(rho, psi_minus.amplitudes)
    return np.minimum(1.0, np.maximum(0.0, q))


def _parity_errors(rho: np.ndarray) -> np.ndarray:
    """qber_parity of every row of a (B, 8, 8) stack."""
    total = 0.0
    for state in _odd_parity_states():
        total = total + _fidelity(rho, state.amplitudes)
    return np.minimum(1.0, np.maximum(0.0, total))


def qber_bipartite(rho: DensityMatrix) -> float:
    """Dealer-to-A bit error: weight outside the correlated subspace."""
    return float(_bipartite_errors(rho.data[None])[0])


def qber_parity(rho: DensityMatrix) -> float:
    """Failure probability of the three-party parity test.

    Sums the weight on the odd-parity eigenvectors of Z (x) Y (x) Z, i.e.
    the product basis states whose eigenvalue product is -1.
    """
    return float(_parity_errors(rho.data[None])[0])


def qber_parity_from_expectation(rho: DensityMatrix) -> float:
    """Same parity error via (1 - <Z Y Z>) / 2; a cross-check of qber_parity."""
    return 0.5 * (1.0 - rho.expectation(PARITY_TEST))


def _check_yield(yield_per_attempt: float) -> None:
    if not 0.0 <= yield_per_attempt <= 1.0:
        raise ValueError(f"yield must be in [0, 1], got {yield_per_attempt}")


def _key_rate(y: float, q_x: float, q_ab: float) -> float:
    """key_rate on a yield already checked by _check_yield."""
    return max(0.0, y * (1.0 - binary_entropy(q_x) - binary_entropy(q_ab)))


def key_rate(yield_per_attempt: float, q_x: float, q_ab: float) -> float:
    """Asymptotic conference key per attempt, clamped at zero.

    r = Y (1 - h(Q_X) - h(Q_AB)); the parity error erodes the secrecy term
    and the bipartite error the correctness term.
    """
    _check_yield(yield_per_attempt)
    return _key_rate(yield_per_attempt, q_x, q_ab)


def rate_reports(
    cfg: TrioConfig,
    noises: Sequence[NoiseParams],
    *,
    use_memory: bool = False,
    outcome: int = +1,
) -> list[RateReport]:
    """One report per entry of ``noises``, as full_report would give it.

    Both error tests are defined in the +1 outcome convention, so a -1
    heralding is first reconciled by the dealer's X correction on C's
    qubit (qubit 2 of the output): IIX maps target_state(-1) onto
    target_state(+1).
    """
    _, states, fidelities = run_stack(cfg, noises, use_memory=use_memory, outcome=outcome)
    if outcome == -1:
        states = _x_conjugate(states, 3, 2)
    q_x = _parity_errors(states)
    q_ab = _bipartite_errors(states)
    y = yield_with_memory(cfg) if use_memory else yield_memoryless(cfg)
    if noises:
        _check_yield(y)
    t2 = cfg.memory.t2 if use_memory else None
    # Every row holds the same segment, memory, T2 and yield objects, so
    # render_csv writes those cells once per block.
    out = []
    for noise, fid, qx, qab in zip(noises, fidelities.tolist(), q_x.tolist(), q_ab.tolist()):
        r = _key_rate(y, qx, qab)
        out.append(RateReport(
            cfg.name, noise.channel_depol, noise.gate_fail, use_memory, t2, y, fid, qx, qab,
            r, r * cfg.source.frequency,
        ))
    return out


def full_report(
    cfg: TrioConfig,
    noise: NoiseParams = NoiseParams(),
    *,
    use_memory: bool = False,
    outcome: int = +1,
) -> RateReport:
    """Run the pipeline on ``cfg`` and summarize yield, errors, and rates."""
    (report,) = rate_reports(cfg, [noise], use_memory=use_memory, outcome=outcome)
    return report
