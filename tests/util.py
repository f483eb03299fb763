"""Shared construction helpers for the test suite."""

import numpy as np

from ghzline import (
    LinkParams,
    MemoryParams,
    NodeParams,
    SourceParams,
    TrioConfig,
)


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
