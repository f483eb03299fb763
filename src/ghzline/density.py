"""Density-matrix engine for registers of up to four qubits.

Every gate, noise channel and measurement is applied exactly (no
sampling, no truncation).  Qubit 0 is the most significant bit of a
computational-basis index; a product register is laid out as
``kron(q0, q1, ..., q_{n-1})``.  DensityMatrix is the checked, read-only
state the pipeline hands back.

Before its Y measurement every state of the extraction pipeline is
diagonal in a graph-state basis, so row 0 of its matrix fixes it: entry
(i, j) is S[i, j] * rho[0, i ^ j] for a +-1 table S of the graph
(_graph_signs).  The channels run on such rows (the row kernels), and
_unpack rebuilds the dense 2^n x 2^n stack that the measurement
(``_measure``) takes.  Three channel families cover the pipeline:
``_row_depolarize`` (fiber transit and dark-count noise), ``_row_dephase``
(memory storage), and ``_row_cz_terms`` with ``_cz_mix``, a CZ gate that
fails outright with some probability, dumping both participating qubits
into the maximally mixed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_QUBITS = 4

# Numerical tolerances.  State invariants (trace, Hermiticity) are held
# tighter than derived scalars, which accumulate error over a pipeline.
TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
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
# of a zero; protocol.run_stack never passes it), and _measure's np.dot
# promotes the unpacked real stack to complex.  The tables depend only on
# the register size, the graph and the qubits, so each is built on first
# use and kept read-only.


def _check_qubit(qubit: int, num_qubits: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")


def _check_pair(q1: int, q2: int, num_qubits: int) -> None:
    _check_qubit(q1, num_qubits)
    _check_qubit(q2, num_qubits)
    if q1 == q2:
        raise ValueError("CZ needs two distinct qubits")


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
    """Entrywise +-1 factors turning rho into CZ rho CZ."""
    idx = np.arange(2**num_qubits)
    b1 = (idx >> (num_qubits - 1 - q1)) & 1
    b2 = (idx >> (num_qubits - 1 - q2)) & 1
    signs = 1.0 - 2.0 * (b1 & b2)
    return _read_only(np.outer(signs, signs))


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
    gate = rows * _cz_conjugation(num_qubits, q1, q2)[0]
    return gate, rows * _trace_weights(num_qubits, edges, q1, q2) + 0.0


def _cz_mix(gate: np.ndarray, scrambled: np.ndarray, fail_prob) -> np.ndarray:
    """(1 - fail_prob) gate + fail_prob scrambled, from _row_cz_terms,
    formed in place in both arrays."""
    gate *= 1.0 - fail_prob
    scrambled *= fail_prob
    gate += scrambled
    return gate


def _unpack(rows: np.ndarray, num_qubits: int, edges) -> np.ndarray:
    """The dense (B, 2^n, 2^n) stack of rows of a state of the graph
    ``edges``: entry (i, j) is S[i, j] * row[i ^ j]."""
    return rows.take(_xor_table(num_qubits), axis=1) * _graph_signs(num_qubits, edges)


@cache
def _projection(num_qubits: int, qubit: int, basis: str, outcome: int):
    """Axis orders and read-only vectors of a projection of ``qubit``.

    np.tensordot contracts by moving the contracted axis first (for the
    bra) or last (for the ket), reshaping to a matrix and calling np.dot.
    _measure does the same with these axis orders, so np.dot sees the
    same shapes and sums in the same order.
    """
    n = num_qubits
    row_axes = (1 + qubit,) + tuple(k for k in range(1 + 2 * n) if k != 1 + qubit)
    col_axes = tuple(k for k in range(2 * n) if k != n + qubit) + (n + qubit,)
    e = BASIS_EIGENVECTORS[(basis, outcome)]
    return row_axes, col_axes, _read_only(e.conj().reshape(1, 2)), _read_only(e.reshape(2, 1))


def _measure(
    rho: np.ndarray, num_qubits: int, qubit: int, basis: str, outcome: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of ``outcome`` for a ``basis`` measurement of ``qubit``
    in every row, and the normalized post-measurement stack without that
    qubit; a probability below ZERO_PROB_TOL raises ZeroProbabilityError."""
    rows, n = len(rho), num_qubits
    row_axes, col_axes, bra, ket = _projection(n, qubit, basis, outcome)
    t = rho.reshape((rows,) + (2,) * (2 * n)).transpose(row_axes).reshape(2, -1)
    t = np.dot(bra, t).reshape((rows,) + (2,) * (2 * n - 1))
    t = np.dot(t.transpose(col_axes).reshape(-1, 2), ket)
    mat = t.reshape(rows, 2 ** (n - 1), 2 ** (n - 1))
    probs = mat.trace(axis1=1, axis2=2).real
    low = probs < ZERO_PROB_TOL
    if low.any():
        raise ZeroProbabilityError(
            f"outcome {outcome:+d} of a {basis} measurement on qubit {qubit} "
            f"has probability {probs[low][0]:.3e}"
        )
    return probs, mat / probs[:, None, None]


def _fidelity(rho: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """<v| rho |v> of every row for a normalized amplitude vector v."""
    # np.vecdot conjugates its first argument and, like np.vdot, sums each
    # row with BLAS zdotc, so every row is bit-identical to its one-row
    # np.vdot.  Elementwise products summed by np.sum or np.einsum are
    # not: they round and add in another order.
    return np.vecdot(amplitudes, rho @ amplitudes).real


def _fidelities(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v| rho |v> of every row for each vector of a (K, 1, d) stack, as a
    (K, B) array in one contraction.

    Row k is bit-identical to _fidelity(rho, vectors[k, 0]): np.matmul
    takes a vector operand as a one-column matrix, so every (row, vector)
    product is the same (d, d) @ (d, 1) call, and np.vecdot sums each
    pair with the same zdotc, however the operands broadcast.
    """
    return np.vecdot(vectors, (rho[None] @ vectors[..., None])[..., 0]).real


class DensityMatrix:
    """Mixed state of ``num_qubits`` qubits as a dense complex matrix.

    Instances are immutable: the underlying array is read-only, and
    tensor and apply_cz return new objects.  A zero-qubit (1 x 1) matrix
    is allowed as the residue of measuring out a lone qubit.  The noise
    channels (row kernels) and the measurement are the kernels above,
    which protocol.run_stack runs; this class holds their result.
    """

    def __init__(self, data, *, _copy: bool = True) -> None:
        mat = np.array(data, dtype=complex, copy=_copy)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        self.num_qubits = _qubit_count(mat.shape[0], allow_scalar=True)
        mat.flags.writeable = False
        self.data = mat

    @classmethod
    def from_pure(cls, state) -> "DensityMatrix":
        """Rank-1 projector |psi><psi| from a PureState or raw amplitudes."""
        v = state.amplitudes if isinstance(state, PureState) else PureState(state).amplitudes
        return cls(np.outer(v, v.conj()), _copy=False)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """Identity / 2^n."""
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {num_qubits}")
        dim = 2**num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, _copy=False)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def validate(self) -> None:
        """Raise ValueError unless trace, Hermiticity, and positivity hold."""
        tr = complex(np.trace(self.data))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        herm = float(np.max(np.abs(self.data - self.data.conj().T))) if self.dim > 1 else abs(
            self.data[0, 0].imag
        )
        if herm > HERMITICITY_TOL:
            raise ValueError(f"Hermiticity violated by {herm:.3e}")
        lo = float(np.linalg.eigvalsh(self.data).min())
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {lo:.3e}")

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Tensor product self (x) other; self's qubits come first."""
        if self.num_qubits + other.num_qubits > MAX_QUBITS:
            raise ValueError("tensor product exceeds the four-qubit register limit")
        return DensityMatrix(np.kron(self.data, other.data), _copy=False)

    def apply_cz(self, q1: int, q2: int) -> "DensityMatrix":
        """Controlled-Z between two distinct qubits (symmetric in its arguments)."""
        _check_pair(q1, q2, self.num_qubits)
        return DensityMatrix(self.data * _cz_conjugation(self.num_qubits, q1, q2), _copy=False)

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
        return float(_fidelity(self.data[None], state.amplitudes)[0])
