"""Complex linear algebra substrate for small qubit registers (n <= 12).

The variational circuit acts only on a purification factor A of a state,
rho = A A^dag, a 2^n x r array; the outcome probabilities are the squared
row norms of A.  A state built from A alone builds its 2^n x 2^n matrix on
first read.  Gate and channel application (one superoperator contraction
each), the partial trace and the exact eigendecomposition (the ground-truth
oracle for the rest of the package) work on that matrix.  The noisy circuit
(`experiments.run_circuit`) holds vec(rho) in qubit-interleaved bit order
instead (`_interleaved`), where a gate fused with its noise is one
superoperator matmul on a contiguous run of bits.

Bit convention used throughout the package: qubit 0 is the most significant
bit of a computational-basis index, so for n=3 the basis state |011> sits at
index 3 and qubit 0 is the leading '0'.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def num_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, validating it is 2^n."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def bitstring_to_index(z: str) -> int:
    """Index of basis state |z>, qubit 0 = most significant bit."""
    if not z or any(c not in "01" for c in z):
        raise ValueError(f"not a bitstring: {z!r}")
    return int(z, 2)


def index_to_bitstring(i: int, n: int) -> str:
    """Bitstring of length n for basis index i (qubit 0 = MSB)."""
    if not 0 <= i < 2**n:
        raise ValueError(f"index {i} out of range for {n} qubits")
    return format(i, f"0{n}b")


class DensityMatrix:
    """An n-qubit mixed state: Hermitian, positive semidefinite, trace one.

    Built from the 2^n x 2^n matrix `data`, a 2^n x r purification factor A
    with rho = A A^dag, or both (the caller's promise that they agree; only
    shapes are checked).  The missing form is computed from the other once,
    on first read; both are held read-only.  The diagonal is read off `data`
    when it was given, else as the squared row norms of A; the spectrum comes
    from A.  Validation checks the three invariants within fixed absolute
    tolerances; internal operations that preserve them by construction skip
    the (eigenvalue) check for speed.
    """

    __slots__ = ("n", "_data", "_factor", "_factor_only", "_eigenvalues")

    def __init__(
        self, data: np.ndarray | None = None, *, validate: bool = True, factor: np.ndarray | None = None
    ):
        if data is None and factor is None:
            raise ValueError("need data, a factor or both")
        if data is not None:
            data = np.array(data, dtype=complex)
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError("density matrix must be square")
            data.flags.writeable = False
        if factor is not None:
            factor = np.array(factor, dtype=complex)
            if factor.ndim != 2 or (data is not None and factor.shape[0] != data.shape[0]):
                raise ValueError(f"factor of shape {factor.shape} does not fit the state")
            factor.flags.writeable = False
        self.n = num_qubits((factor if data is None else data).shape[0])
        self._data, self._factor, self._factor_only, self._eigenvalues = data, factor, data is None, None
        if validate:
            self.validate()

    def validate(self) -> None:
        """Raise ValueError if an entry is not finite, or Hermiticity, trace or positivity is violated."""
        d = self.data
        if not np.isfinite(d).all():
            raise ValueError("entries must be finite (found NaN or infinity)")
        herm = np.abs(d - d.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = d.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
        wmin = np.linalg.eigvalsh(d).min()
        if wmin < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {wmin:.3e}")

    @property
    def data(self) -> np.ndarray:
        """The 2^n x 2^n matrix (read-only); A A^dag on a factor-only state."""
        if self._data is None:
            data = self._factor @ self._factor.conj().T
            data.flags.writeable = False
            self._data = data
        return self._data

    @property
    def dim(self) -> int:
        return 2**self.n

    def factor(self) -> np.ndarray:
        """A 2^n x r array A with A A^dag = rho (read-only).

        The factor given at construction, or else eigenvectors scaled by the
        square roots of the eigenvalues, computed once and cached.  Eigenvalues
        at or below the numerical-rank cutoff (dimension x machine epsilon x
        the largest; `eigh` rounding noise) are dropped, so a rank-r state
        gets r columns.
        """
        if self._factor is None:
            w, v = np.linalg.eigh(self.data)
            keep = w > w.size * np.finfo(float).eps * w.max()
            factor = v[:, keep] * np.sqrt(w[keep])
            factor.flags.writeable = False
            self._factor = factor
        return self._factor

    def eigenvalues(self) -> np.ndarray:
        """All 2^n eigenvalues, descending: the squared singular values of A, zero-padded.

        Computed once and read-only; like `exact_eigs`, raises unless they sum to 1.
        """
        if self._eigenvalues is None:
            s = np.linalg.svd(self.factor(), compute_uv=False)
            w = np.concatenate([s**2, np.zeros(self.dim - s.size)])
            if abs(w.sum() - 1.0) > TRACE_TOL:
                raise ValueError(f"eigenvalues sum to {w.sum()}, not 1")
            w.flags.writeable = False
            self._eigenvalues = w
        return self._eigenvalues

    def diagonal(self) -> np.ndarray:
        """Real diagonal of rho: standard-basis outcome probabilities."""
        if self._factor_only:
            return (self._factor.real**2 + self._factor.imag**2).sum(axis=1)
        return self.data.diagonal().real.copy()

    @classmethod
    def basis_state(cls, n: int, z: str | int) -> "DensityMatrix":
        """|z><z| for a computational-basis label (bitstring or index)."""
        i = bitstring_to_index(z) if isinstance(z, str) else int(z)
        d = np.zeros((2**n, 2**n), dtype=complex)
        d[i, i] = 1.0
        return cls(d, validate=False)

    def __repr__(self) -> str:
        return f"DensityMatrix(n={self.n})"


class PureState:
    """An n-qubit state vector with unit norm."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, *, validate: bool = True):
        amp = np.array(amplitudes, dtype=complex).reshape(-1)
        self.n = num_qubits(amp.shape[0])
        amp.flags.writeable = False
        self.amplitudes = amp
        if validate:
            nrm = np.linalg.norm(amp)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"norm {nrm} is not 1 within {NORM_TOL}")

    @classmethod
    def basis_state(cls, n: int, z: str | int) -> "PureState":
        i = bitstring_to_index(z) if isinstance(z, str) else int(z)
        amp = np.zeros(2**n, dtype=complex)
        amp[i] = 1.0
        return cls(amp, validate=False)

    def __repr__(self) -> str:
        return f"PureState(n={self.n})"


class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    All operators act on the same k target qubits (k = arity).  The map is
    applied as its superoperator S = sum_K kron(K, K*), built once here: read
    row-major, vec(K rho K^dag) = kron(K, K*) vec(rho) (see `_conjugate`).
    """

    __slots__ = ("operators", "arity", "superoperator")

    def __init__(self, operators, *, validate: bool = True):
        ops = [np.array(k, dtype=complex) for k in operators]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dim = ops[0].shape[0]
        self.arity = num_qubits(dim)
        if any(k.shape != (dim, dim) for k in ops):
            raise ValueError("Kraus operators must be square and equal-sized")
        self.operators = ops
        self.superoperator = sum(np.kron(k, k.conj()) for k in ops)
        self.superoperator.flags.writeable = False
        if validate:
            s = sum(k.conj().T @ k for k in ops)
            if np.abs(s - np.eye(dim)).max() > HERMITICITY_TOL:
                raise ValueError("channel is not trace preserving: sum K^dag K != I")

    def __repr__(self) -> str:
        return f"KrausChannel(arity={self.arity}, n_ops={len(self.operators)})"


def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """Depolarizing channel rho -> (1-p) rho + p I/d on `arity` qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must be in [0, 1]")
    paulis_1q = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
    paulis = paulis_1q
    for _ in range(arity - 1):
        paulis = [np.kron(a, b) for a in paulis for b in paulis_1q]
    d2 = len(paulis)
    ops = [np.sqrt(1.0 - p + p / d2) * paulis[0]]
    ops += [np.sqrt(p / d2) * s for s in paulis[1:]]
    return KrausChannel(ops, validate=False)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Single-qubit amplitude damping: |1><1| decays to |0><0| at rate gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("damping rate must be in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1], validate=False)


def _check_targets(targets, n: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets: {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target out of range for n={n}: {targets}")
    return targets


def _apply_left(mat: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Return (op embedded on targets) @ mat, contracting only the row indices.

    Targets q, q+1, ..., q+k-1 in ascending order (every brick pair, every
    single qubit) are one contiguous group of row bits: viewed as
    (2^q, 2^k, rest), mat takes op as one batched matmul.  When the 2^q
    batches outnumber the rest (the last pairs of a thin factor), one matmul
    with the target bits moved to the front is faster than 2^q small ones.
    On this path mat (..., 2^n, cols) and op (..., 2^k, 2^k) may carry a
    leading run axis, read from their ndim: run i's op acts on run i's mat,
    or on the one mat that has no run axis.  Other target sets are
    contracted by tensordot over the split row axes.
    """
    k = len(targets)
    cols = mat.shape[-1]
    q = min(targets, default=0)
    if list(targets) == list(range(q, q + k)):
        runs = max(mat.shape[:-2], op.shape[:-2], key=len)
        view = mat.reshape(mat.shape[:-2] + (2**q, 2**k, -1))
        if 2**q <= view.shape[-1]:
            return np.matmul(op[..., None, :, :], view).reshape(runs + (2**n, cols))
        out = op @ view.swapaxes(-3, -2).reshape(mat.shape[:-2] + (2**k, -1))
        return out.reshape(runs + (2**k, 2**q, -1)).swapaxes(-3, -2).reshape(runs + (2**n, cols))
    t = mat.reshape((2,) * n + (cols,))
    op_t = op.reshape((2,) * (2 * k))
    out = np.tensordot(op_t, t, axes=(tuple(range(k, 2 * k)), targets))
    return np.moveaxis(out, tuple(range(k)), targets).reshape(2**n, cols)


def _conjugate(mat: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply the superoperator `op` on targets to the 2^n x 2^n matrix mat.

    Read row-major, mat is a vector on 2n qubits (row bits, then column bits),
    and K mat K^dag is kron(K, K*) on the row and column copies of the
    targets: one contraction per gate or channel.
    """
    doubled = targets + tuple(n + t for t in targets)
    return _apply_left(mat.reshape(-1, 1), op, doubled, 2 * n).reshape(mat.shape)


def _interleaved(sup: np.ndarray, k: int) -> np.ndarray:
    """A k-qubit superoperator (or a stack of them) in qubit-interleaved bit order.

    `kron(K, K*)` orders its bits as the k row bits, then the k column bits;
    interleaved order is r_0 c_0 r_1 c_1 ..., so each qubit's two bits are
    adjacent and a per-qubit channel on several qubits is a plain kron.
    """
    axes = np.arange(2 * k).reshape(2, k).T.reshape(-1)  # 0, k, 1, k + 1, ...
    p = np.arange(4**k).reshape((2,) * 2 * k).transpose(axes).reshape(-1)
    return sup[..., p[:, None], p]


def _check_gate(u, targets, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """u as a complex array and the checked targets; raise unless u's shape fits them."""
    u = np.asarray(u, dtype=complex)
    targets = _check_targets(targets, n)
    dim = 2 ** len(targets)
    if u.shape != (dim, dim):
        raise ValueError(f"operator shape {u.shape} does not match {len(targets)} targets")
    return u, targets


def _check_unitary(u: np.ndarray) -> None:
    """Raise ValueError unless u (a square matrix, or a stack of equal-sized ones) is unitary."""
    if np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])).max() > UNITARITY_TOL:
        raise ValueError("matrix is not unitary")


def apply_unitary(rho: DensityMatrix, u: np.ndarray, targets) -> DensityMatrix:
    """Conjugate rho by a unitary acting on the given target qubits.

    The unitary is applied as kron(u, u*) by one tensor contraction; the full
    2^n x 2^n operator is never materialized.
    """
    u, targets = _check_gate(u, targets, rho.n)
    _check_unitary(u)
    return DensityMatrix(_conjugate(rho.data, np.kron(u, u.conj()), targets, rho.n), validate=False)


def apply_channel(rho: DensityMatrix, ch: KrausChannel, targets) -> DensityMatrix:
    """Apply a Kraus channel to the given target qubits: sum_K K rho K^dag."""
    targets = _check_targets(targets, rho.n)
    if len(targets) != ch.arity:
        raise ValueError(f"channel arity {ch.arity} does not match targets {targets}")
    return DensityMatrix(_conjugate(rho.data, ch.superoperator, targets, rho.n), validate=False)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (trace over the complement).

    `keep` must be a nonempty strict subset of qubit indices; kept qubits
    retain their relative order.
    """
    keep = _check_targets(keep, rho.n)
    if len(keep) == 0:
        raise ValueError("keep set must be nonempty")
    if len(keep) == rho.n:
        raise ValueError("keep set must be a strict subset of the qubits")
    n = rho.n
    traced = [q for q in range(n) if q not in keep]
    t = rho.data.reshape((2,) * (2 * n))
    for q in sorted(traced, reverse=True):
        # row axis q and the matching column axis; column axes shift as rows vanish
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    d = 2 ** len(keep)
    return DensityMatrix(t.reshape(d, d), validate=False)


def exact_eigs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exact spectral decomposition, eigenvalues sorted descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns aligned
    with the eigenvalues.  Exactly tied eigenvalues are ordered by the
    lexicographic order of their (phase-fixed) eigenvectors so the output is
    deterministic.  This is the ground-truth oracle that error metrics are
    measured against.
    """
    w, v = np.linalg.eigh(rho.data)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # fix each eigenvector's global phase: largest-magnitude entry real positive
    idx = np.argmax(np.abs(v), axis=0)
    phases = v[idx, np.arange(v.shape[1])]
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    v = v / phases[None, :]
    # deterministic order inside exactly-degenerate groups
    order = sorted(
        range(len(w)),
        key=lambda i: (-w[i], tuple(np.round(v[:, i].real, 12)), tuple(np.round(v[:, i].imag, 12))),
    )
    w = w[order]
    v = v[:, order]
    if abs(w.sum() - 1.0) > TRACE_TOL:
        raise ValueError(f"eigenvalues sum to {w.sum()}, not 1")
    return w, v


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2], equal to the sum of squared eigenvalues; 1 iff pure."""
    return float(np.vdot(rho.data, rho.data).real)


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if rho.n != psi.n:
        raise ValueError(f"dimension mismatch: rho has n={rho.n}, psi has n={psi.n}")
    a = psi.amplitudes
    return float(np.vdot(a, rho.data @ a).real)

