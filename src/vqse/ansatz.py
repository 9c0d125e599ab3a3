"""Layered hardware-efficient circuit ansatz and eigenvector preparation.

A circuit is a brick pattern of two-qubit blocks: every layer places blocks
on pairs (0,1), (2,3), ... and then on pairs (1,2), (3,4), ...; for odd n the
last qubit idles in one of the rows.  Two block parameterizations are
supported:

* ``RY_CZ``: a CZ preceded and followed by one y-rotation per wire (4 angles,
  real: its blocks are float64);
* ``G_CNOT_G``: a CNOT preceded and followed by one general single-qubit
  rotation G per wire (12 angles, complex128 as R_z is).

Rotation convention (half-angle): R_k(theta) = exp(i theta sigma_k / 2) and
G(a, b, c) = R_z(c) R_y(b) R_z(a).  Under this convention every angle enters
through a half-angle Pauli generator, so the +-pi/2 parameter-shift rule used
by the optimizer is exact.  Global phases are considered irrelevant; compare
unitaries via |Tr(U^dag W)| / 2^n and states via fidelity.

Blocks are built as stacks: a circuit's B blocks, their angles' generators or
their parameter-shifted copies each come from one vectorized `BlockKind` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qmath import DensityMatrix, PureState, _apply_left, _bitstring_index

CZ = np.diag([1.0, 1.0, 1.0, -1.0])
# control = first target qubit (the gate's most significant index bit)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def rotation_y(theta) -> np.ndarray:
    """R_y(theta) = exp(i theta sigma_y / 2); an array of angles gives a (..., 2, 2) stack."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.stack([c, s, -s, c], axis=-1).reshape(np.shape(theta) + (2, 2))


def rotation_z(theta) -> np.ndarray:
    """R_z(theta) = exp(i theta sigma_z / 2); an array of angles gives a (..., 2, 2) stack."""
    diag, zero = (np.exp(1j * theta / 2), np.exp(-1j * theta / 2)), np.zeros(np.shape(theta))
    return np.stack([diag[0], zero, zero, diag[1]], axis=-1).reshape(np.shape(theta) + (2, 2))


_ROTATION = {"y": rotation_y, "z": rotation_z}
# i sigma_k / 2, so that dR_k(t)/dt = (i sigma_k / 2) R_k(t)
_GENERATOR = {"y": np.array([[0.0, 0.5], [-0.5, 0.0]]), "z": np.diag([0.5j, -0.5j])}


def _chain(factors: np.ndarray) -> np.ndarray:
    """Product over axis -3 of factors given in the order they act (first factor rightmost)."""
    out = factors[..., -1, :, :]
    for i in range(factors.shape[-3] - 2, -1, -1):
        out = out @ factors[..., i, :, :]
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of every pair of square matrices of two equal-shaped stacks, as one broadcast product."""
    d = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (d, d))


class BlockKind(Enum):
    """How one block is built: post rotations . entangler . pre rotations.

    A block's angles split into four equal groups, one rotation each: (pre on
    pair[0], pre on pair[1], post on pair[0], post on pair[1]).  Each
    rotation is a product of elementary rotations R_k, one per angle, about
    the axes in `axes` (in the order they act).  Blocks are built as stacks:
    `_factors` forms every elementary rotation of angles (..., angles_per_block)
    with vectorized cos / sin / exp, and each builder reads those factors, so a
    training step forms them once for its block unitaries and its generators;
    the unitaries finish with broadcast Kronecker products and one batched matmul.
    """

    RY_CZ = "rycz"
    G_CNOT_G = "gcnotg"

    @property
    def entangler(self) -> np.ndarray:
        return CZ if self is BlockKind.RY_CZ else CNOT

    @property
    def axes(self) -> str:
        """R_y, or G(a, b, c) = R_z(c) R_y(b) R_z(a)."""
        return "y" if self is BlockKind.RY_CZ else "zyz"

    @property
    def angles_per_block(self) -> int:
        return 4 * len(self.axes)

    def _factors(self, angles) -> np.ndarray:
        """Elementary factors of the four rotations, in the order they act: (..., 4, k, 2, 2)."""
        groups = np.asarray(angles, dtype=float)
        groups = groups.reshape(groups.shape[:-1] + (4, len(self.axes)))
        return np.stack([_ROTATION[ax](groups[..., i]) for i, ax in enumerate(self.axes)], axis=-3)

    def rotations(self, factors: np.ndarray) -> np.ndarray:
        """The four single-qubit rotations (pre0, pre1, post0, post1): (..., 4, 2, 2)."""
        return _chain(factors)

    def unitaries(self, factors: np.ndarray) -> np.ndarray:
        """Blocks kron(post0, post1) . entangler . kron(pre0, pre1), (..., 4, 4); wires (MSB, LSB)."""
        rotations = self.rotations(factors)
        pre = _kron(rotations[..., 0, :, :], rotations[..., 1, :, :])
        post = _kron(rotations[..., 2, :, :], rotations[..., 3, :, :])
        return post @ self.entangler @ pre

    def angle_generators(self, factors: np.ndarray) -> np.ndarray:
        """Each angle's generator Q, moved to the outer end of its block: (..., 4, k, 2, 2).

        Factor i of a rotation F_{k-1} ... F_0 commutes with its g_i = i sigma / 2,
        so dB/dtheta is B (Q on the wire), Q = U^dag g_i U with U = F_{i-1} ... F_0,
        for a pre rotation and (Q on the wire) B, Q = V g_i V^dag with
        V = F_{k-1} ... F_{i+1}, for a post one.  The end factor's Q is g itself,
        so one-axis blocks (k = 1) read only the factors' shape.  The k - 1 Us (Vs) are
        formed cumulatively and conjugate their generators in one stacked product.
        """
        k, lead = len(self.axes), factors.shape[:-4]
        out = np.broadcast_to(np.stack([_GENERATOR[ax] for ax in self.axes]), lead + (4, k, 2, 2)).copy()
        if k > 1:
            u, v = [factors[..., :2, 0, :, :]], [factors[..., 2:, -1, :, :]]
            for i in range(1, k - 1):  # U_{i+1} = F_i U_i and V_{i+1} = V_i F_{k-1-i}
                u.append(factors[..., :2, i, :, :] @ u[-1])
                v.append(v[-1] @ factors[..., 2:, -1 - i, :, :])
            u, v = np.stack(u, axis=-3), np.stack(v[::-1], axis=-3)
            out[..., :2, 1:, :, :] = u.conj().swapaxes(-1, -2) @ out[..., :2, 1:, :, :] @ u
            out[..., 2:, :-1, :, :] = v @ out[..., 2:, :-1, :, :] @ v.conj().swapaxes(-1, -2)
        return out

    @classmethod
    def parse(cls, name: str) -> "BlockKind":
        for kind in cls:
            if kind.value == name.strip().lower():
                return kind
        raise ValueError(f"unknown block kind {name!r} (expected rycz or gcnotg)")


def brick_pairs(n: int) -> list[tuple[int, int]]:
    """Qubit pairs of one layer: the even row then the odd row."""
    if n < 2:
        raise ValueError("need at least 2 qubits for two-qubit blocks")
    even = [(i, i + 1) for i in range(0, n - 1, 2)]
    odd = [(i, i + 1) for i in range(1, n - 1, 2)]
    return even + odd


def block_unitary(kind: BlockKind, angles: np.ndarray) -> np.ndarray:
    """Unitaries of blocks of angles (..., angles per block), (..., 4, 4): `kind.unitaries` of their factors."""
    return kind.unitaries(kind._factors(angles))


@dataclass(frozen=True)
class LayeredAnsatz:
    """Brick-pattern circuit V(theta) with a flat parameter vector.

    theta is ordered block by block, blocks ordered layer by layer with the
    even row before the odd row inside each layer.
    """

    n: int
    layers: int
    kind: BlockKind
    theta: np.ndarray

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be positive")
        theta = np.array(self.theta, dtype=float).reshape(-1)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        expected = self.n_parameters(self.n, self.layers, self.kind)
        if theta.size != expected:
            raise ValueError(
                f"theta has {theta.size} entries, structure requires {expected}"
            )

    @staticmethod
    def n_parameters(n: int, layers: int, kind: BlockKind) -> int:
        return kind.angles_per_block * layers * len(brick_pairs(n))

    @classmethod
    def random(cls, n: int, layers: int, kind: BlockKind, rng) -> "LayeredAnsatz":
        """Fresh ansatz with angles drawn uniformly from [-pi, pi)."""
        rng = np.random.default_rng(rng)
        p = cls.n_parameters(n, layers, kind)
        return cls(n, layers, kind, rng.uniform(-np.pi, np.pi, p))

    @property
    def block_pairs(self) -> list[tuple[int, int]]:
        return brick_pairs(self.n) * self.layers

    @property
    def n_blocks(self) -> int:
        return self.layers * len(brick_pairs(self.n))

    @property
    def block_angles(self) -> np.ndarray:
        """theta as a (blocks, angles per block) array."""
        return self.theta.reshape(self.n_blocks, self.kind.angles_per_block)


def _forward_states(factor: np.ndarray, a: LayeredAnsatz, mats) -> list[np.ndarray]:
    """The walk psi_0 = A, psi_{b+1} = B_b psi_b over a's block matrices; psi_B = V A.

    `mats` is a (blocks, 4, 4) stack, or (runs, blocks, 4, 4) for runs in
    lockstep: each run walks its own blocks and psi_b (b >= 1) is (runs, 2^n, r).
    """
    states = [factor]
    for b, pair in enumerate(a.block_pairs):
        states.append(_apply_left(states[-1], mats[..., b, :, :], pair, a.n))
    return states


def apply_ansatz(rho: DensityMatrix, a: LayeredAnsatz) -> DensityMatrix:
    """V(theta) rho V(theta)^dag as the factor V A of rho = A A^dag, block by block.

    The 2^n x 2^n transformed matrix is built only if its `data` is read.
    """
    if rho.n != a.n:
        raise ValueError(f"state has n={rho.n}, ansatz has n={a.n}")
    factor = _forward_states(rho.factor(), a, block_unitary(a.kind, a.block_angles))[-1]
    return DensityMatrix(factor=factor, validate=False)


def prepare_eigenvector(a: LayeredAnsatz, z: str) -> PureState:
    """V^dag(theta) |z>: the circuit that prepares an inferred eigenvector."""
    vec = np.zeros((2**a.n, 1), dtype=complex)
    vec[_bitstring_index(z, a.n)] = 1.0
    for mat, pair in zip(reversed(block_unitary(a.kind, a.block_angles)), reversed(a.block_pairs)):
        vec = _apply_left(vec, mat.conj().T, pair, a.n)
    return PureState(vec, validate=False)
