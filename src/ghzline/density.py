"""Exact channel kernels for registers of up to four qubits, and the
state the pipeline hands back.

Every noise channel and measurement is applied exactly (no sampling, no
truncation).  Qubit 0 is the most significant bit of a computational-basis
index; a product register is laid out as ``kron(q0, q1, ..., q_{n-1})``.
protocol.run_stack runs the kernels below; DensityMatrix holds its result.

Before its Y measurement every state of the extraction pipeline is
diagonal in a graph-state basis, so row 0 of its matrix fixes it: entry
(i, j) is S[i, j] * rho[0, i ^ j] for a +-1 table S of the graph
(_graph_signs).  The channels and the measurement (``_measure_rows``) run
on such rows, the row kernels.  Three channel families cover the
pipeline: ``_row_depolarize`` (fiber transit and dark-count noise),
``_row_dephase`` (memory storage), and ``_row_cz_terms``, the two branches
of a CZ gate that fails outright with some probability, dumping both
participating qubits into the maximally mixed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_QUBITS = 4

ZERO_PROB_TOL = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# +1 / -1 eigenvectors of the three single-qubit measurement bases.
BASIS_EIGENVECTORS = {
    ("Z", +1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
    ("X", +1): np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    ("X", -1): np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    ("Y", +1): np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    ("Y", -1): np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


class ZeroProbabilityError(ValueError):
    """Raised when a measurement branch has numerically zero probability."""


def _qubit_count(dim: int, *, allow_scalar: bool = False) -> int:
    """Number of qubits for a Hilbert-space dimension, or raise ValueError."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim or n > MAX_QUBITS:
        raise ValueError(f"dimension {dim} is not 2**n with n <= {MAX_QUBITS}")
    if n == 0 and not allow_scalar:
        raise ValueError("dimension 1 (zero qubits) is not a valid state size here")
    return n


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-qubit Paulis, e.g. -X(0) Z(1) I(2).

    ``factors`` holds one letter per qubit, most significant qubit first,
    so ``PauliString("ZYZ")`` is Z on qubit 0, Y on qubit 1, Z on qubit 2.
    """

    factors: str
    sign: int = 1

    def __post_init__(self) -> None:
        if not self.factors or any(c not in PAULI for c in self.factors):
            raise ValueError(
                f"factors must be a nonempty string over IXYZ, got {self.factors!r}"
            )
        if len(self.factors) > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits, got {len(self.factors)}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        out = np.array([[complex(self.sign)]])
        for c in self.factors:
            out = np.kron(out, PAULI[c])
        return out


class PureState:
    """Normalized state vector over one to four qubits.

    The input is renormalized on construction; a (numerically) zero vector
    is rejected.  Amplitudes are stored read-only.
    """

    def __init__(self, amplitudes) -> None:
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        self.num_qubits = _qubit_count(vec.size)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero state vector")
        vec = vec / norm
        vec.flags.writeable = False
        self.amplitudes = vec

    @property
    def dim(self) -> int:
        return self.amplitudes.size


# --------------------------------------------------------------- kernels
#
# Under Pauli noise a graph state |G> becomes a mixture of Z^k |G><G| Z^k
# (a Pauli on |G> is a Z string up to sign), whose entry (i, j) is
# S_G[i, j] * rho[0, i ^ j].  Every channel before the Y measurement
# combines only entries of one XOR class i ^ j, each times +-1.  So a row
# kernel, on a (B, 2^n) stack of rows 0, does the dense channel's
# arithmetic on entry (0, d) in the same order, reading each other entry
# it needs as a +-1 sign times entry d of the row: a product with +-1 is
# exact, so on a state whose entries are S_G[i, j] * rho[0, i ^ j] it
# gives row 0 of the dense result bit for bit, with 1/2^n of the work.
# Where the dense channel sums four such terms (the twirl, the partial
# trace), the sum is exactly +0.0 or 4 times entry d, so the kernel is one
# product with a 0/1 table.  (Along the pipeline a zero of the dense state
# may carry the other sign; no nonzero entry and no output of
# protocol.run_stack depends on it.)
#
# A kernel takes the qubit count, the graph's edges and strengths already
# checked, shaped to broadcast over (B, 1), and only computes, summing in
# a fixed order, so a row's result does not depend on how many other rows
# share its stack.  On real float64 rows the kernels give the real part of
# the complex128 dense result bit for bit (all but _row_dephase at
# strength -0.0, where the complex product's cross terms can flip the sign
# of a zero; protocol.run_stack never passes it), and _measure_rows
# gathers real rows into a complex buffer.  The tables depend only on
# the register size, the graph and the qubits, so each is built on first
# use and kept read-only.


def _checked_strength(value, hi: float, what: str) -> float:
    """A channel strength as a float, or ValueError unless it lies in [0, hi]."""
    s = float(value)
    if not 0.0 <= s <= hi:
        raise ValueError(f"{what} must be in [0, {hi:g}], got {s}")
    return s


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _bit_signs(num_qubits: int, qubit: int) -> np.ndarray:
    """+-1 per basis index, -1 where ``qubit``'s bit is set: entry (0, d)
    of Z rho Z is _bit_signs[d] * rho[0, d]."""
    idx = np.arange(2**num_qubits)
    return _read_only(1.0 - 2.0 * ((idx >> (num_qubits - 1 - qubit)) & 1))


@cache
def _cz_conjugation(num_qubits: int, q1: int, q2: int) -> np.ndarray:
    """+-1 per basis index, -1 where the bits of ``q1`` and ``q2`` are both
    set: entry (0, d) of CZ rho CZ is _cz_conjugation[d] * rho[0, d]."""
    idx = np.arange(2**num_qubits)
    b1 = (idx >> (num_qubits - 1 - q1)) & 1
    b2 = (idx >> (num_qubits - 1 - q2)) & 1
    return _read_only(1.0 - 2.0 * (b1 & b2))


@cache
def _xor_table(num_qubits: int) -> np.ndarray:
    """i ^ j at entry (i, j)."""
    idx = np.arange(2**num_qubits)
    return _read_only(idx[:, None] ^ idx)


@cache
def _graph_signs(num_qubits: int, edges: tuple[tuple[int, int], ...]) -> np.ndarray:
    """S[i, j] = (-1)^popcount((i ^ j) & N(i)) for the graph ``edges``,
    where N(i) is the XOR of the neighbourhoods of the qubits set in i.

    Entry (i, j) of |G><G| is (-1)^(q(i) + q(j)) / 2^n, with q(i) the
    number of edges inside i.  q(i ^ j) = q(i) + q(j) + popcount(j & N(i))
    mod 2, and i & N(i) has an even popcount, so entry (i, j) is
    S[i, j] times entry (0, i ^ j).  Z^k multiplies entry (i, j) by a sign
    of i ^ j alone, so this holds for every mixture of Z^k |G><G| Z^k too.
    """
    n = num_qubits
    idx = np.arange(2**n)
    neighbours = np.zeros_like(idx)
    for a, b in edges:
        bit_a, bit_b = 1 << (n - 1 - a), 1 << (n - 1 - b)
        neighbours ^= np.where(idx & bit_a, bit_b, 0) ^ np.where(idx & bit_b, bit_a, 0)
    parity = np.bitwise_count(_xor_table(n) & neighbours[:, None]) & 1
    return _read_only(1.0 - 2.0 * parity)


@cache
def _depolarize_mask(num_qubits: int, edges: tuple[tuple[int, int], ...], qubit: int) -> np.ndarray:
    """Where the twirl rho + X rho X + Y rho Y + Z rho Z on ``qubit`` is
    4 rho[0, d] at entry (0, d): its terms are r, tau r, z tau r and z r,
    with tau = S[e, e ^ d] for e the index of ``qubit`` alone and z the
    Z sign _bit_signs[d], and (1 + tau)(1 + z) is 4 or 0."""
    e = 1 << (num_qubits - 1 - qubit)
    tau = _graph_signs(num_qubits, edges)[e, e ^ np.arange(2**num_qubits)]
    return _read_only((tau > 0) & (_bit_signs(num_qubits, qubit) > 0))


def _row_depolarize(rows: np.ndarray, num_qubits: int, edges, qubit: int, quarter, keep) -> np.ndarray:
    """keep * rho + quarter * twirl, on rows; quarter is strength / 4,
    keep 1 - strength.

    The dense twirl sums its terms in order: r + r + r + r rounds to 4r
    (the rounded 3r is within half an ulp of 4r, and a tie breaks towards
    it, as 3r rounded to even), and any other signs sum to +0.0, which
    np.where keeps where r * 0.0 would give -0.0.
    """
    out = keep * rows
    out += quarter * np.where(_depolarize_mask(num_qubits, edges, qubit), 4.0 * rows, 0.0)
    return out


def _row_dephase(rows: np.ndarray, num_qubits: int, qubit: int, strength) -> np.ndarray:
    """(1 - strength) rho + strength Z rho Z, on rows."""
    return (1.0 - strength) * rows + strength * (rows * _bit_signs(num_qubits, qubit))


@cache
def _trace_weights(num_qubits: int, edges: tuple[tuple[int, int], ...], q1: int, q2: int):
    """w with entry (0, d) of Tr_{q1,q2}(rho) (x) I/4 = rho[0, d] * w[d] + 0.0:
    where d's two bits are 0, the mean of the trace terms' signs S[c, c ^ d]
    over the four c of those bits, else 0.  c -> S[c, c ^ d] is a character,
    so w is 1 or 0, and np.trace's pairwise sum, + 0.0 after each pair, is
    4r or +0.0 without rounding, its quarter r or +0.0."""
    b1, b2 = 1 << (num_qubits - 1 - q1), 1 << (num_qubits - 1 - q2)
    idx = np.arange(2**num_qubits)
    signs = _graph_signs(num_qubits, edges)
    w = sum(signs[c, c ^ idx] for c in (0, b1, b2, b1 | b2)) / 4.0
    return _read_only(np.where(idx & (b1 | b2), 0.0, w))


def _row_cz_terms(rows: np.ndarray, num_qubits: int, edges, q1: int, q2: int) -> tuple[np.ndarray, np.ndarray]:
    """The two branches of a noisy CZ, on rows of a state of the graph
    ``edges``, which do not depend on its failure probability: CZ rho CZ
    and Tr_{q1,q2}(rho) (x) I/4.  Both are states of the graph with the
    edge q1-q2 toggled: CZ maps one graph state to the other, and the
    failed branch, full depolarization of both qubits, commutes with CZ."""
    gate = rows * _cz_conjugation(num_qubits, q1, q2)
    return gate, rows * _trace_weights(num_qubits, edges, q1, q2) + 0.0


@cache
def _measure_tables(num_qubits: int, edges: tuple[tuple[int, int], ...], qubit: int):
    """Read-only (2, 2^(2n-1)) index and +-1 sign tables of _measure_rows:
    the _xor_table and _graph_signs entries of each (i, j), with axes in
    the order the projection contracts them: ``qubit``'s row bit, the
    other row bits, the other column bits, ``qubit``'s column bit."""
    n = num_qubits
    order = (qubit, *(k for k in range(2 * n) if k not in (qubit, n + qubit)), n + qubit)
    return tuple(_read_only(table.reshape((2,) * (2 * n)).transpose(order).reshape(2, -1))
                 for table in (_xor_table(n), _graph_signs(n, edges)))


@cache
def _projection(basis: str, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only bra (1, 2) and ket (2, 1) of a projection."""
    e = BASIS_EIGENVECTORS[(basis, outcome)]
    return _read_only(e.conj().reshape(1, 2)), _read_only(e.reshape(2, 1))


def _measure_rows(
    rows: np.ndarray, num_qubits: int, edges, qubit: int, basis: str, outcome: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of ``outcome`` for a ``basis`` measurement of ``qubit``
    in every row of a state of the graph ``edges``, and the normalized
    post-measurement (B, 2^(n-1), 2^(n-1)) stack without that qubit; a
    probability below ZERO_PROB_TOL raises ZeroProbabilityError.

    np.tensordot of the dense stack casts it to complex and calls np.dot
    with the bra's axis moved first, then with the ket's moved last.  The
    tables gather each dense entry S[i, j] * row[i ^ j], exactly, into that
    order, beside the cast's +0.0 imaginary parts.  The first np.dot works
    column by column, so its results are tensordot's, moved; the second
    sees tensordot's matrix."""
    index, signs = _measure_tables(num_qubits, edges, qubit)
    bra, ket = _projection(basis, outcome)
    count, half = len(rows), 2 ** (num_qubits - 1)
    t = np.zeros((2, count, index.shape[1]), dtype=complex)
    np.multiply(rows.take(index, axis=1).swapaxes(0, 1), signs[:, None], out=t.real)
    t = np.dot(bra, t.reshape(2, -1))
    mat = np.dot(t.reshape(-1, 2), ket).reshape(count, half, half)
    probs = mat.trace(axis1=1, axis2=2).real
    low = probs < ZERO_PROB_TOL
    if low.any():
        raise ZeroProbabilityError(
            f"outcome {outcome:+d} of a {basis} measurement on qubit {qubit} "
            f"has probability {probs[low][0]:.3e}"
        )
    return probs, mat / probs[:, None, None]


def _fidelities(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v| rho |v> of every row for each vector of a (K, 1, d) stack, as a
    (K, B) array in one contraction.

    Entry (k, b) is bit-identical to np.vdot(v, rho[b] @ v).real for
    v = vectors[k, 0]: np.matmul takes a vector operand as a one-column
    matrix, so every (row, vector) product is the same (d, d) @ (d, 1)
    call however the operands broadcast, and np.vecdot conjugates its
    first argument and, like np.vdot, sums each pair with BLAS zdotc.
    Elementwise products summed by np.sum or np.einsum are not
    bit-identical: they round and add in another order.
    """
    return np.vecdot(vectors, (rho[None] @ vectors[..., None])[..., 0]).real


class DensityMatrix:
    """Mixed state of ``num_qubits`` qubits as a dense complex matrix, as
    protocol.run_pipeline returns it: shape-checked and read-only.  A
    zero-qubit (1 x 1) matrix is allowed as the residue of measuring out a
    lone qubit."""

    def __init__(self, data, *, _copy: bool = True) -> None:
        mat = np.array(data, dtype=complex, copy=_copy)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        self.num_qubits = _qubit_count(mat.shape[0], allow_scalar=True)
        mat.flags.writeable = False
        self.data = mat

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def expectation(self, pauli: PauliString) -> float:
        """Expectation value Tr(P rho) of a signed Pauli string."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError(
                f"operator acts on {pauli.num_qubits} qubits, state has {self.num_qubits}"
            )
        val = complex(np.trace(pauli.matrix() @ self.data))
        if abs(val.imag) > 1e-9:
            raise ValueError(f"expectation has imaginary part {val.imag:.3e}")
        return float(val.real)

    def fidelity(self, state) -> float:
        """Overlap <psi| rho |psi> with a pure state."""
        if not isinstance(state, PureState):
            state = PureState(state)
        if state.dim != self.dim:
            raise ValueError(f"state has dimension {state.dim}, expected {self.dim}")
        return float(_fidelities(self.data[None], state.amplitudes.reshape(1, 1, -1))[0, 0])
