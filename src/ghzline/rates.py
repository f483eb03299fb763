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
    _fidelities,
    _read_only,
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


@cache
def _error_vectors() -> np.ndarray:
    """The four odd-parity states, then the two correlated states, as a
    read-only (6, 1, 8) stack for _fidelities; entry 4 is target_state(+1)."""
    states = _odd_parity_states() + _correlated_states()
    return _read_only(np.array([s.amplitudes for s in states]).reshape(6, 1, 8))


def _error_rates(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fidelity with target_state(+1), qber_parity and qber_bipartite
    of every row of a (B, 8, 8) stack, from one contraction with the six
    test states.

    Q_X adds the odd-parity weights to 0.0 in their order, and Q_AB
    subtracts the two correlated weights from 1.0 in theirs.
    """
    f = _fidelities(rho, _error_vectors())
    q_x = (((0.0 + f[0]) + f[1]) + f[2]) + f[3]
    q_ab = 1.0 - f[4] - f[5]
    return f[4], np.minimum(1.0, np.maximum(0.0, q_x)), np.minimum(1.0, np.maximum(0.0, q_ab))


def _three_qubit_stack(rho: DensityMatrix) -> np.ndarray:
    """rho as a one-row stack, or ValueError unless it has three qubits."""
    if rho.num_qubits != 3:
        raise ValueError(f"operator acts on 3 qubits, state has {rho.num_qubits}")
    return rho.data[None]


def qber_bipartite(rho: DensityMatrix) -> float:
    """Dealer-to-A bit error: weight outside the correlated subspace."""
    return float(_error_rates(_three_qubit_stack(rho))[2][0])


def qber_parity(rho: DensityMatrix) -> float:
    """Failure probability of the three-party parity test.

    Sums the weight on the odd-parity eigenvectors of Z (x) Y (x) Z, i.e.
    the product basis states whose eigenvalue product is -1.
    """
    return float(_error_rates(_three_qubit_stack(rho))[1][0])


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
    fds: Sequence[float],
    fgs: Sequence[float],
    *,
    use_memory: bool = False,
) -> list[RateReport]:
    """One report per point of the grid ``fds`` x ``fgs``, in f_D-major
    order (report k is at f_D entry k // len(fgs) and f_G entry
    k % len(fgs)), each as full_report would give it.
    """
    _, states = run_stack(cfg, fds, fgs, use_memory=use_memory)
    fidelities, q_x, q_ab = _error_rates(states)
    y = yield_with_memory(cfg) if use_memory else yield_memoryless(cfg)
    if len(fidelities):
        _check_yield(y)
    t2 = cfg.memory.t2 if use_memory else None
    # Every row holds the same segment, memory, T2 and yield objects, so
    # render_csv writes those cells once per block.
    out = []
    for (fd, fg), fid, qx, qab in zip(
        product(fds, fgs), fidelities.tolist(), q_x.tolist(), q_ab.tolist()
    ):
        r = _key_rate(y, qx, qab)
        out.append(RateReport(
            cfg.name, fd, fg, use_memory, t2, y, fid, qx, qab, r, r * cfg.source.frequency,
        ))
    return out


def full_report(
    cfg: TrioConfig,
    noise: NoiseParams = NoiseParams(),
    *,
    use_memory: bool = False,
) -> RateReport:
    """Run the pipeline on ``cfg`` and summarize yield, errors, and rates."""
    (report,) = rate_reports(cfg, [noise.channel_depol], [noise.gate_fail], use_memory=use_memory)
    return report
