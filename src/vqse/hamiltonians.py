"""Diagonal cost Hamiltonians: their energy tables, levels and measurement counts.

Three cost variants share one interface (an energy per bitstring):

* ``LocalWeights``: H_L = I - sum_j r_j Z_j, a weighted sum of single-qubit
  Z terms.  E(z) = 1 - sum_j r_j (1 - 2 z_j), so energies live in [0, 2]
  whenever sum r_j <= 1.
* ``GlobalPart``: H_G = I - sum_i q_i |z_i><z_i| over m marked bitstrings.
  The marked levels sit at 1 - q_i and every other bitstring has energy 1,
  giving one (2^n - m)-fold degenerate level.
* ``AdaptiveHamiltonian``: the interpolation (1 - f) H_L + f H_G(t) at a
  weight f in [0, 1], where the marked bitstrings of H_G(t) are refreshed
  from measurement data during optimization; the training loop sets f = t at
  each update, so f runs from 0 to 1.

The full energy table over all 2^n bitstrings is cheap at desk scale and is
the single code path used for exact costs, sampling and level enumeration:
the cost of a transformed state is `energies() @ diagonal()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .qmath import _bitstring_index, bitstring_to_index, index_to_bitstring

LEVEL_GAP_TOL = 1e-9


class DegenerateSpectrumError(ValueError):
    """The m lowest levels of a cost Hamiltonian are not pairwise distinct."""


@dataclass(frozen=True)
class LocalWeights:
    """Finite, positive Z weights r_j with sum r_j <= 1 (keeps all energies >= 0)."""

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float).reshape(-1)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)
        if r.size == 0 or not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError("weights must be finite and positive")
        if r.sum() > 1.0 + 1e-12:
            raise ValueError(f"sum of weights {r.sum()} exceeds 1; energies would go negative")

    @property
    def n(self) -> int:
        return self.r.size

    def energies(self) -> np.ndarray:
        """E(z) = 1 - sum_j r_j (1 - 2 z_j) for every bitstring, index order."""
        bits = _bit_table(self.n)
        return 1.0 - ((1 - 2 * bits) * self.r[None, :]).sum(axis=1)


@dataclass(frozen=True)
class GlobalPart:
    """Marked bitstrings z_i with strictly decreasing weights q_i in (0, 1]."""

    n: int
    bitstrings: tuple[str, ...]
    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float).reshape(-1)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "bitstrings", tuple(self.bitstrings))
        if len(self.bitstrings) != q.size or q.size == 0:
            raise ValueError("need one weight per bitstring")
        for z in self.bitstrings:
            _bitstring_index(z, self.n)
        if len(set(self.bitstrings)) != len(self.bitstrings):
            raise ValueError("marked bitstrings must be distinct")
        if not np.all((q > 0) & (q <= 1)):
            raise ValueError("weights must lie in (0, 1]")
        if np.any(np.diff(q) >= 0):
            raise ValueError("weights must be strictly decreasing")

    @property
    def m(self) -> int:
        return self.q.size

    def energies(self) -> np.ndarray:
        e = np.ones(2**self.n)
        for z, qi in zip(self.bitstrings, self.q):
            e[bitstring_to_index(z)] = 1.0 - qi
        return e

    def with_bitstrings(self, bitstrings: Sequence[str]) -> "GlobalPart":
        """Same weights, new marked bitstrings (the adaptive update)."""
        return GlobalPart(self.n, tuple(bitstrings), self.q)


@dataclass(frozen=True)
class AdaptiveHamiltonian:
    """H = (1 - f) H_L + f H_G at a weight f in [0, 1]."""

    local: LocalWeights
    global_part: GlobalPart
    f: float

    def __post_init__(self):
        if self.local.n != self.global_part.n:
            raise ValueError("local and global parts disagree on qubit count")
        if not 0.0 <= self.f <= 1.0:  # NaN fails too
            raise ValueError(f"weight f = {self.f} outside [0, 1]")

    @property
    def n(self) -> int:
        return self.local.n

    def energies(self) -> np.ndarray:
        return (1.0 - self.f) * self.local.energies() + self.f * self.global_part.energies()


Hamiltonian = Union[LocalWeights, GlobalPart, AdaptiveHamiltonian]


def default_local_weights(n: int, m: int, r1: float | None = None, delta: float | None = None) -> LocalWeights:
    """Arithmetic-progression weights r_j = r1 + (j-1) delta.

    Defaults pick delta = r1 / (2n) and scale r1 so that sum r_j = 1/2, which
    keeps all energies nonnegative with margin.  Non-degeneracy of the m
    lowest levels is then verified by brute-force enumeration; a
    DegenerateSpectrumError means this construction cannot certify the
    requested m.
    """
    if not 1 <= m <= 2**n:
        raise ValueError(f"m={m} out of range for n={n}")
    if r1 is None:
        # sum = n r1 + delta n(n-1)/2 with delta = r1/(2n)  ->  r1 (n + (n-1)/4)
        r1 = 0.5 / (n + (n - 1) / 4)
    if delta is None:
        delta = r1 / (2 * n)
    for name, value in (("r1", r1), ("delta", delta)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    weights = LocalWeights(r1 + delta * np.arange(n))
    lowest_levels(weights, m)  # raises DegenerateSpectrumError on collision
    return weights


def global_from_local(local: LocalWeights, m: int) -> GlobalPart:
    """Fixed-global companion: marks the m lowest levels of H_L.

    Weights q_i = 1 - E_i reproduce the local Hamiltonian's lowest m energies
    and gaps, so local / global / adaptive runs optimize toward the same
    target spectrum.
    """
    levels = lowest_levels(local, m)
    energies = np.array([e for e, _ in levels])
    if energies[-1] >= 1.0:
        raise ValueError(f"level {m} of H_L is >= 1; companion weights would not be positive")
    return GlobalPart(local.n, tuple(z for _, z in levels), 1.0 - energies)


def lowest_levels(h: Hamiltonian, m: int) -> list[tuple[float, str]]:
    """The m smallest energies with their bitstrings, ascending.

    Ties on the energy value are broken by bitstring order; a gap below
    LEVEL_GAP_TOL among the first m levels raises DegenerateSpectrumError
    (the Hamiltonian could not tell those eigenvalue slots apart).
    """
    e = h.energies()
    n = int(np.log2(e.size))
    if not 1 <= m <= e.size:
        raise ValueError(f"m={m} out of range")
    order = np.argsort(e, kind="stable")
    first = order[: min(m + 1, e.size)]
    gaps = np.diff(e[first])
    if np.any(gaps[: m - 1] <= LEVEL_GAP_TOL):
        k = int(np.argmax(gaps[: m - 1] <= LEVEL_GAP_TOL))
        raise DegenerateSpectrumError(
            f"levels {k + 1} and {k + 2} coincide at energy {e[first[k]]:.6f}"
        )
    return [(float(e[i]), index_to_bitstring(int(i), n)) for i in order[:m]]


def sample_counts(p: np.ndarray, shots: int, rng) -> np.ndarray:
    """Multinomial outcome counts over all 2^n bitstrings, index order, for each row of
    probabilities p, (..., 2^n), clipped at 0 and normalized."""
    rng = np.random.default_rng(rng)
    p = np.clip(p, 0.0, None)
    return rng.multinomial(shots, p / p.sum(axis=-1, keepdims=True))


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) array of bits, row i = bitstring of index i, qubit 0 first."""
    idx = np.arange(2**n)[:, None]
    return (idx >> np.arange(n - 1, -1, -1)[None, :]) & 1
