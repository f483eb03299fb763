"""Shared construction helpers for the test suite."""

from itertools import product

import numpy as np

from ghzline import (
    DensityMatrix,
    LinkParams,
    MemoryParams,
    NodeParams,
    PureState,
    SourceParams,
    TrioConfig,
    storage_times,
)
from ghzline.netmodel import window_click_probs

# State invariants of assert_valid_state.  Trace and Hermiticity are held
# tighter than the eigenvalues, which accumulate error over a pipeline.
TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def make_cfg(
    name="test-segment",
    eta_a=1.0,
    eta_b=1.0,
    eta_c=1.0,
    dark_a=0.0,
    dark_b=0.0,
    dark_c=0.0,
    trans_ab=1.0,
    trans_bc=1.0,
    len_ab=10.0,
    len_bc=50.0,
    frequency=4.0e7,
    memory=None,
    speed_of_light=2.0e5,
):
    """Segment config with perfect hardware unless overridden."""
    return TrioConfig(
        name=name,
        node_a=NodeParams("A", eta_a, dark_a),
        node_b=NodeParams("B", eta_b, dark_b),
        node_c=NodeParams("C", eta_c, dark_c),
        link_ab=LinkParams(len_ab, trans_ab),
        link_bc=LinkParams(len_bc, trans_bc),
        source=SourceParams(frequency),
        memory=memory,
        speed_of_light=speed_of_light,
    )


def near_far(cfg):
    """(p_near, p_far, tau_far, l_near) of the two middle-station memories:
    the memory-on click probabilities of the outer windows on the near and
    far side, as storage_times names them, and its tau_far and l_near."""
    p = window_click_probs(cfg, with_memory=True)
    times = storage_times(cfg)
    return p[times.near_node], p[times.far_node], times.tau_far, times.l_near


def random_config(rng, with_memory=True):
    """Config with click probabilities healthy enough for MC comparison."""
    kwargs = dict(
        name="random",
        eta_a=float(rng.uniform(0.3, 1.0)),
        eta_b=float(rng.uniform(0.3, 1.0)),
        eta_c=float(rng.uniform(0.3, 1.0)),
        dark_a=float(rng.uniform(0.0, 0.01)),
        dark_b=float(rng.uniform(0.0, 0.01)),
        dark_c=float(rng.uniform(0.0, 0.01)),
        trans_ab=float(rng.uniform(0.05, 0.8)),
        trans_bc=float(rng.uniform(0.05, 0.8)),
        len_ab=float(rng.uniform(5.0, 120.0)),
        len_bc=float(rng.uniform(5.0, 120.0)),
        frequency=float(rng.uniform(1e6, 5e7)),
    )
    if with_memory:
        kwargs["memory"] = MemoryParams(
            efficiency=float(rng.uniform(0.3, 1.0)),
            t2=float(rng.uniform(0.01, 2.0)),
        )
    return make_cfg(**kwargs)


def series_expected_max(p_a, p_c):
    """E[max] via the survival-function sum, truncated at float precision.

    Sums P(max > k) for k = 0, 1, ... in numpy chunks and stops at the
    first term below 1e-16 of the running total (or of 1).
    """
    chunk = 1 << 15
    total, start = 0.0, 0
    while True:
        k = np.arange(start, start + chunk, dtype=float)
        terms = 1.0 - (1.0 - (1.0 - p_a) ** k) * (1.0 - (1.0 - p_c) ** k)
        running = total + np.cumsum(terms)
        done = np.flatnonzero(terms < 1e-16 * np.maximum(running, 1.0))
        if done.size:
            return float(running[done[0]])
        total = float(running[-1])
        start += chunk


def attempt_level_successes(rng, probs, size):
    """0/1 outcomes of ``size`` attempts whose windows click with ``probs``.

    The memoryless yield oracle's earlier sampler, kept as the reference
    for its law: each attempt draws its windows rarest first, each window
    only while all of its earlier ones clicked, and succeeds when all do.
    """
    rarest_first = sorted(probs)
    live = np.flatnonzero(rng.random(size) < rarest_first[0])
    for q in rarest_first[1:]:
        live = live[rng.random(live.size) < q]
    success = np.zeros(size)
    success[live] = 1.0
    return success


def pure_dm(amplitudes):
    """DensityMatrix |v><v| of a PureState, or of raw amplitudes after
    PureState normalizes them."""
    if not isinstance(amplitudes, PureState):
        amplitudes = PureState(amplitudes)
    v = amplitudes.amplitudes
    return DensityMatrix(np.outer(v, v.conj()))


def assert_valid_state(dm):
    """Unit trace, Hermiticity and no eigenvalue below EIGENVALUE_FLOOR."""
    rho = dm.data
    tr = complex(np.trace(rho))
    assert abs(tr - 1.0) <= TRACE_TOL, f"trace deviates from 1 by {abs(tr - 1.0):.3e}"
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    assert herm <= HERMITICITY_TOL, f"Hermiticity violated by {herm:.3e}"
    lo = float(np.linalg.eigvalsh(rho).min())
    assert lo >= EIGENVALUE_FLOOR, f"negative eigenvalue {lo:.3e}"


def random_density_matrix(rng, num_qubits):
    """Full-rank random state from a complex Ginibre matrix."""
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def reinsert_mixed(reduced, num_qubits, removed_qubits):
    """Tr_removed(rho) (x) I/2^k put back at the removed positions.

    Index arithmetic only, as an oracle independent of the engine's
    reshape/transpose plumbing.
    """
    dim = 2**num_qubits
    removed = sorted(removed_qubits)
    keep = [q for q in range(num_qubits) if q not in removed]
    k = len(removed)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bi = [(i >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        ri = 0
        for q in keep:
            ri = 2 * ri + bi[q]
        for j in range(dim):
            bj = [(j >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            if any(bi[q] != bj[q] for q in removed):
                continue
            rj = 0
            for q in keep:
                rj = 2 * rj + bj[q]
            out[i, j] = reduced[ri, rj] / 2**k
    return out


# ------------------------------------------------------- kernel references
#
# The engine's earlier formulations of its channel kernels, kept as
# references built from numpy alone: the kernels' index tables and np.dot
# calls must reproduce them bit for bit, and chained in the pipeline's
# order they must reproduce protocol.run_stack.

EIGENVECTORS = {
    ("Z", +1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
    ("X", +1): np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    ("X", -1): np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    ("Y", +1): np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    ("Y", -1): np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


def same_bits(a, b):
    """Equal shape and identical bytes, so signed zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def flip_x_conjugate(rho, n, qubit):
    """X rho X on ``qubit`` of every row, by flipping both of its axes."""
    t = rho.reshape((len(rho),) + (2,) * (2 * n))
    return np.flip(t, (1 + qubit, 1 + n + qubit)).copy().reshape(rho.shape)


def np_trace_out(rho, n, removed):
    t = rho.reshape((len(rho),) + (2,) * (2 * n))
    m = n
    for q in reversed(removed):
        t = np.trace(t, axis1=1 + q, axis2=1 + q + m)
        m -= 1
    return t.reshape(len(rho), 2**m, 2**m)


def loop_reinsert_mixed(reduced, n, removed):
    rows, k = len(reduced), len(removed)
    part = (reduced * (1.0 / 2**k)).reshape((rows,) + (2,) * (2 * (n - k)))
    out = np.zeros((rows,) + (2,) * (2 * n), dtype=complex)
    for bits in product((0, 1), repeat=k):
        index = [slice(None)] * (1 + 2 * n)
        for q, bit in zip(removed, bits):
            index[1 + q] = index[1 + n + q] = bit
        out[tuple(index)] = part
    return out.reshape(rows, 2**n, 2**n)


def tensordot_project(rho, n, qubit, basis, outcome):
    """Probabilities and normalized post-measurement stack, the measured
    qubit removed."""
    e = EIGENVECTORS[(basis, outcome)]
    t = rho.reshape((len(rho),) + (2,) * (2 * n))
    t = np.tensordot(e.conj(), t, axes=([0], [1 + qubit]))
    t = np.tensordot(t, e, axes=([n + qubit], [0]))
    mat = t.reshape(len(rho), 2 ** (n - 1), 2 ** (n - 1))
    probs = np.real(np.trace(mat, axis1=1, axis2=2))
    return probs, mat / probs[:, None, None]


def bit(i, n, qubit):
    return (i >> (n - 1 - qubit)) & 1


def z_signs(n, qubit):
    signs = np.array([1.0 - 2.0 * bit(i, n, qubit) for i in range(2**n)])
    return np.outer(signs, signs)


def cz_signs(n, q1, q2):
    signs = np.array([1.0 - 2.0 * (bit(i, n, q1) & bit(i, n, q2)) for i in range(2**n)])
    return np.outer(signs, signs)


def twirl_depolarize(rho, n, qubit, s):
    """(1 - s) rho + (s/4) (((rho + X rho X) + Y rho Y) + Z rho Z)."""
    x, zz = flip_x_conjugate(rho, n, qubit), z_signs(n, qubit)
    return (1.0 - s) * rho + (s / 4.0) * (((rho + x) + x * zz) + rho * zz)


def flip_dephase(rho, n, qubit, s):
    """(1 - s) rho + s Z rho Z."""
    return (1.0 - s) * rho + s * (rho * z_signs(n, qubit))


def trace_reinsert_noisy_cz(rho, n, q1, q2, f):
    """(1 - f) CZ rho CZ + f Tr_{q1,q2}(rho) (x) I/4, the earlier way."""
    removed = sorted((q1, q2))
    scrambled = loop_reinsert_mixed(np_trace_out(rho, n, removed), n, removed)
    return (1.0 - f) * (rho * cz_signs(n, q1, q2)) + f * scrambled


def vdot_fidelity(rho, v):
    """<v| rho |v> per row by np.vdot, the same BLAS sum as np.vecdot."""
    return np.array([np.vdot(v, w) for w in rho @ v]).real


def source_register():
    """Both source pairs CZ|+>|+> on qubits (0, 1) and (2, 3), as a
    one-row complex stack: each pair's entries are exactly +-1/4."""
    phases = np.array([1.0, 1.0, 1.0, -1.0])
    pair = (np.outer(phases, phases) / 4.0).astype(complex)
    return np.kron(pair, pair)[None]


def graph_state(n, edges):
    """|G> up to normalization: a CZ on every edge of |+>^n, as the +-1
    signs of the computational-basis amplitudes."""
    idx = np.arange(2**n)
    phase = np.zeros(2**n, dtype=int)
    for a, b in edges:
        phase += bit(idx, n, a) & bit(idx, n, b)
    return 1.0 - 2.0 * (phase & 1)


def state_signs(psi):
    """rho[i, j] / rho[0, i ^ j] for rho = |psi><psi|, entry by entry."""
    rho = np.outer(psi, psi.conj())
    idx = np.arange(len(psi))
    return rho / rho[0, idx[:, None] ^ idx]


def unpack(rows, n, edges):
    """The dense (B, 2^n, 2^n) stack that rows of states diagonal in the
    graph basis of ``edges`` stand for: entry (i, j) is
    S[i, j] * row[i ^ j], with S from the statevector."""
    idx = np.arange(2**n)
    return rows.take(idx[:, None] ^ idx, axis=1) * state_signs(graph_state(n, edges))


def graph_diagonal_stack(rng, rows, n, edges):
    """Random rows of unit-trace states diagonal in the graph basis of
    ``edges``, a fifth of their entries signed zeros, and the dense stack
    they stand for: entry (i, j) is S[i, j] * row[i ^ j], with S from the
    statevector (state_signs of graph_state)."""
    dim = 2**n
    r = rng.normal(size=(rows, dim)) / dim
    r[:, 0] = 1.0 / dim
    zeros = rng.random(r.shape) < 0.2
    zeros[:, 0] = False
    r[zeros] = np.where(rng.random(r.shape) < 0.5, 0.0, -0.0)[zeros]
    idx = np.arange(dim)
    return r, state_signs(graph_state(n, edges)) * r[:, idx[:, None] ^ idx]
