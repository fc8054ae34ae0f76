"""Truncated multimode Fock space and linear-optics operators.

Basis states are occupation tuples (n_1, ..., n_M) with a shared cap on the
total photon number, ordered lexicographically.  Mode transforms (M x M
matrices acting on creation operators) are lifted to Fock-space operators
through matrix permanents; the lift preserves total photon number, so loss
shows up as lost norm, never as silently moved population.  There is no
generic product of states: builders of joint states write them directly from
the per-mode photon counts of the basis (FockBasis.counts).

There is one state type, State: a pure part psi plus an incoherent diagonal
p, rho = |psi><psi| + diag(p).  A map diagonal in the basis keeps that form,
and a photon-number marginal reads only its weights |psi|^2 + p, so no dense
density matrix is built.

All containers are immutable after construction; every operation returns new
objects, so states and operators can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable

import numpy as np

DEFAULT_BASIS_LIMIT = 200_000
BASIS_LIMIT_ENV = "NLA_WEAKSIM_MAX_BASIS"

_UNITARY_ATOL = 1e-10


class BasisSizeError(RuntimeError):
    """Requested basis would exceed the configured safety limit."""


class TruncationError(ValueError):
    """State preparation would discard more weight than the allowed bound."""


def basis_size(num_modes: int, photon_cap: int) -> int:
    """Number of occupation vectors with total <= photon_cap."""
    return math.comb(num_modes + photon_cap, photon_cap)


@lru_cache(maxsize=None)
def _basis_table(num_modes: int, photon_cap: int):
    occs = tuple(
        occ
        for occ in product(range(photon_cap + 1), repeat=num_modes)
        if sum(occ) <= photon_cap
    )
    index = {occ: i for i, occ in enumerate(occs)}
    totals = tuple(sum(occ) for occ in occs)
    return occs, index, totals


@lru_cache(maxsize=None)
def _basis_arrays(num_modes: int, photon_cap: int):
    """Read-only photon numbers at each tuple position (one row per position)
    and the mask of states at the cap, both in basis order."""
    occs, _, totals = _basis_table(num_modes, photon_cap)
    counts = np.array(occs, dtype=np.intp).reshape(len(occs), num_modes).T.copy()
    at_cap = np.array(totals) == photon_cap
    counts.flags.writeable = False
    at_cap.flags.writeable = False
    return counts, at_cap


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis over a fixed set of global mode indices.

    ``modes`` names the global modes covered by this basis (kept sorted);
    occupation tuples align with that order.
    """

    modes: tuple[int, ...]
    photon_cap: int

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate modes in {modes}")
        if tuple(sorted(modes)) != modes:
            raise ValueError(f"basis modes must be sorted: {modes}")
        if self.photon_cap < 0:
            raise ValueError("photon_cap must be >= 0")
        object.__setattr__(self, "modes", modes)

    @property
    def num_modes(self) -> int:
        return len(self.modes)

    @property
    def occupations(self) -> tuple[tuple[int, ...], ...]:
        return _basis_table(self.num_modes, self.photon_cap)[0]

    @cached_property
    def size(self) -> int:
        return len(self.occupations)

    def index_of(self, occ: Iterable[int]) -> int:
        return _basis_table(self.num_modes, self.photon_cap)[1][tuple(occ)]

    def totals(self) -> tuple[int, ...]:
        """Total photon number of each basis state, in basis order."""
        return _basis_table(self.num_modes, self.photon_cap)[2]

    def counts(self, mode: int) -> np.ndarray:
        """Photon number of one global mode in each basis state (read-only)."""
        return _basis_arrays(self.num_modes, self.photon_cap)[0][self.position(mode)]

    def at_cap(self) -> np.ndarray:
        """Mask of the basis states whose total is the cap (read-only)."""
        return _basis_arrays(self.num_modes, self.photon_cap)[1]

    def position(self, mode: int) -> int:
        """Position of a global mode index inside occupation tuples."""
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode} not in basis modes {self.modes}") from None


def build_basis(
    num_modes: int,
    photon_cap: int,
    *,
    modes: tuple[int, ...] | None = None,
) -> FockBasis:
    """Construct a basis, guarding against accidentally huge spaces.

    The environment variable NLA_WEAKSIM_MAX_BASIS sets the largest size
    allowed.
    """
    if modes is None:
        modes = tuple(range(num_modes))
    else:
        modes = tuple(sorted(modes))
    if len(modes) != num_modes:
        raise ValueError("modes length must equal num_modes")
    limit = int(os.environ.get(BASIS_LIMIT_ENV, DEFAULT_BASIS_LIMIT))
    n = basis_size(num_modes, photon_cap)
    if n > limit:
        raise BasisSizeError(
            f"basis with {num_modes} modes, cap {photon_cap} has {n} states "
            f"(limit {limit})"
        )
    return FockBasis(modes, photon_cap)


@dataclass(frozen=True)
class State:
    """State rho = |psi><psi| + diag(p) over a FockBasis: a pure part psi
    (``amplitudes``, complex) and an incoherent diagonal p (``populations``,
    real, finite and nonnegative; zeros when omitted).  A coherent signal
    has p = 0 and a phase-averaged one psi = 0."""

    basis: FockBasis
    amplitudes: np.ndarray
    populations: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.basis.size,)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != shape:
            raise ValueError(f"expected {shape[0]} amplitudes, got {amps.shape}")
        if self.populations is None:
            pops = np.zeros(shape)
        else:
            pops = np.array(self.populations, dtype=float)
            if pops.shape != shape:
                raise ValueError(
                    f"expected {shape[0]} populations, got {pops.shape}")
            # a NaN fails the first comparison
            if not (pops.min() >= 0.0 and pops.max() < math.inf):
                raise ValueError("populations must be finite and nonnegative")
        amps.flags.writeable = False
        pops.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "populations", pops)

    @classmethod
    def _derived(cls, basis: FockBasis, amplitudes: np.ndarray,
                 populations: np.ndarray) -> "State":
        """State from new arrays that a map keeping states valid (a herald,
        a reordering) computed from a valid state, taken without the
        constructor's copies and checks, which cost as much as a herald."""
        state = object.__new__(cls)
        amplitudes.flags.writeable = False
        populations.flags.writeable = False
        object.__setattr__(state, "basis", basis)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "populations", populations)
        return state

    def weights(self) -> np.ndarray:
        """Photon-number weight of each basis state, |psi|^2 + p: read-only,
        and computed once per state, as a run, its truncation weight and its
        input sizes all read the weights of one signal."""
        weights = self.__dict__.get("_weights")
        if weights is None:
            weights = np.abs(self.amplitudes) ** 2 + self.populations
            weights.flags.writeable = False
            object.__setattr__(self, "_weights", weights)
        return weights


@dataclass(frozen=True)
class ModeTransform:
    """Linear map on creation operators: a_j^dag -> sum_i matrix[i, j] a_i^dag.

    ``modes`` lists the global modes the rows/columns refer to; all other
    modes are untouched.  kind='unitary' demands matrix unitarity; 'subunitary'
    allows singular values <= 1 and models postselected (lossy) elements.
    """

    matrix: np.ndarray
    modes: tuple[int, ...]
    kind: str = "unitary"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        k = len(self.modes)
        if m.shape != (k, k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} modes")
        if len(set(self.modes)) != k:
            raise ValueError("transform modes must be distinct")
        if self.kind == "unitary":
            if not np.allclose(m.conj().T @ m, np.eye(k), atol=_UNITARY_ATOL):
                raise ValueError("matrix is not unitary")
        elif self.kind == "subunitary":
            smax = np.linalg.svd(m, compute_uv=False).max() if k else 0.0
            if smax > 1.0 + _UNITARY_ATOL:
                raise ValueError(f"subunitary matrix has singular value {smax} > 1")
        else:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "modes", tuple(self.modes))

    def embed(self, target_modes: tuple[int, ...]) -> np.ndarray:
        """Full matrix over target_modes, identity on modes not touched."""
        if not set(self.modes) <= set(target_modes):
            raise ValueError(f"transform modes {self.modes} not within {target_modes}")
        full = np.eye(len(target_modes), dtype=complex)
        pos = [target_modes.index(m) for m in self.modes]
        for a, ga in enumerate(pos):
            for b, gb in enumerate(pos):
                full[ga, gb] = self.matrix[a, b]
        return full


def compose_transforms(transforms: Iterable[ModeTransform]) -> ModeTransform:
    """Single transform equivalent to applying the list in order.

    The lift is a homomorphism, so composing matrices first and lifting once
    equals lifting each element and multiplying the Fock operators.
    """
    transforms = list(transforms)
    if not transforms:
        raise ValueError("nothing to compose")
    modes = tuple(sorted(set().union(*(t.modes for t in transforms))))
    full = np.eye(len(modes), dtype=complex)
    for t in transforms:
        full = t.embed(modes) @ full
    kind = "unitary" if all(t.kind == "unitary" for t in transforms) else "subunitary"
    return ModeTransform(full, modes, kind)


@lru_cache(maxsize=None)
def _ryser_table(n: int):
    """Read-only subset table of Ryser's formula for n x n matrices: the
    column indicators of every nonempty subset s (n x (2^n - 1), subsets in
    the order of their bitmasks) and the signs (-1)^(n - |s|), both complex
    so that no product converts them per call."""
    masks = np.arange(1, 1 << n)
    bits = (masks >> np.arange(n)[:, None]) & 1
    signs = np.where((n - bits.sum(axis=0)) % 2 == 0, 1.0, -1.0).astype(complex)
    bits = bits.astype(complex)
    bits.flags.writeable = False
    signs.flags.writeable = False
    return bits, signs


def permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula,
    sum_s (-1)^(n - |s|) prod_i sum_{j in s} a_ij, evaluated at once over
    the cached subset table of n: the row sums of every subset are one
    matrix product.  n <= 2 take their closed forms."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    bits, signs = _ryser_table(n)
    return complex(signs @ (a @ bits).prod(axis=0))


def _repeat_indices(occ: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    for i, n in enumerate(occ):
        out.extend([i] * n)
    return out


def lift_mode_transform(
    transform: ModeTransform,
    basis: FockBasis,
    states: Iterable[int] | None = None,
) -> np.ndarray:
    """Fock-space matrix of a mode transform on the given basis.

    <m|U|n> = per(U[rows(m), cols(n)]) / sqrt(prod m_i! prod n_j!), where rows
    and columns are repeated according to the occupations.  Only same-total
    pairs are filled; photon number is conserved even for subunitary maps.

    ``states`` lists basis indices, in any order and across any sectors; the
    result is then only the block between them, in that order, and costs one
    permanent per same-total pair in the list.  It equals the full lift cut
    at those indices bit for bit.  By default every basis state is used.
    """
    u = transform.embed(basis.modes)
    states = range(basis.size) if states is None else list(states)
    occs = [basis.occupations[i] for i in states]
    totals = basis.totals()
    op = np.zeros((len(occs), len(occs)), dtype=complex)
    sectors: dict[int, list[int]] = {}
    for k, i in enumerate(states):
        sectors.setdefault(totals[i], []).append(k)
    reps = [_repeat_indices(occ) for occ in occs]
    norms = [math.sqrt(math.prod(math.factorial(n) for n in occ)) for occ in occs]
    for idxs in sectors.values():
        for i_out in idxs:
            rows = reps[i_out]
            for i_in in idxs:
                sub = u[np.ix_(rows, reps[i_in])]
                op[i_out, i_in] = permanent(sub) / (norms[i_out] * norms[i_in])
    op.flags.writeable = False
    return op


def occupancy_distribution(state: State, mode: int) -> np.ndarray:
    """Marginal photon-number distribution of one mode (no renormalizing)."""
    return mode_marginal(state.basis, state.weights(), mode)


def mode_marginal(basis: FockBasis, weights: np.ndarray, mode: int) -> np.ndarray:
    """Photon-number distribution of one mode from a weight per basis state,
    which need not be a State's."""
    return np.bincount(basis.counts(mode), weights,
                       minlength=basis.photon_cap + 1)
