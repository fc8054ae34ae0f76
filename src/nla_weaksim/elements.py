"""Optical elements: PPBS mode transforms, vacuum restrictions and loss.

Polarization is encoded as two modes (H, V) per spatial path.  The global
beamsplitter convention is the rotation form

    [[sqrt(T),  sqrt(1-T)],
     [-sqrt(1-T), sqrt(T)]]

so two photons meeting on a T-transmissive splitter leave with coincidence
amplitude T - R (zero at T = 1/2, -1/3 at T = 1/3).  The T - R value is the
load-bearing contract: it supplies the conditional sign flip of the
postselected controlled-Z circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, FockBasis, ModeTransform, State, StateVector


@dataclass(frozen=True)
class ModeLayout:
    """Global mode indices for the two polarization-resolved spatial paths."""

    signal_h: int = 0
    signal_v: int = 1
    meter_h: int = 2
    meter_v: int = 3

    @property
    def signal(self) -> tuple[int, int]:
        return (self.signal_h, self.signal_v)

    @property
    def meter(self) -> tuple[int, int]:
        return (self.meter_h, self.meter_v)

    def modes(self) -> tuple[int, int, int, int]:
        return (self.signal_h, self.signal_v, self.meter_h, self.meter_v)


DEFAULT_LAYOUT = ModeLayout()


@dataclass(frozen=True)
class PPBSSpec:
    """Intensity transmissions per polarization."""

    t_h: float
    t_v: float

    def __post_init__(self):
        for name, t in (("t_h", self.t_h), ("t_v", self.t_v)):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name}={t} outside [0, 1]")


def _bs_matrix(t: float) -> np.ndarray:
    ta = math.sqrt(t)
    ra = math.sqrt(1.0 - t)
    return np.array([[ta, ra], [-ra, ta]], dtype=complex)


def ppbs(
    spec: PPBSSpec,
    a: tuple[int, int],
    b: tuple[int, int],
) -> ModeTransform:
    """Partially polarizing splitter between two (H, V) spatial paths.

    Block diagonal: a splitter of transmission t_h on the H pair and one of
    t_v on the V pair.  (1, 1) is the identity.
    """
    modes = (a[0], a[1], b[0], b[1])
    m = np.eye(4, dtype=complex)
    h = _bs_matrix(spec.t_h)
    v = _bs_matrix(spec.t_v)
    for (blk, i, j) in ((h, 0, 2), (v, 1, 3)):
        m[i, i] = blk[0, 0]
        m[i, j] = blk[0, 1]
        m[j, i] = blk[1, 0]
        m[j, j] = blk[1, 1]
    return ModeTransform(m, modes)


def vacuum_restriction(t: ModeTransform, drop: tuple[int, ...]) -> ModeTransform:
    """Postselect unused ports on vacuum by deleting their rows and columns.

    Valid when the dropped input ports carry vacuum and their outputs are
    conditioned empty; the lifted restricted matrix then equals
    <0_drop| U |0_drop> exactly.  The result is flagged subunitary.
    """
    keep = [i for i, m in enumerate(t.modes) if m not in drop]
    if len(keep) == len(t.modes):
        return t
    sub = t.matrix[np.ix_(keep, keep)]
    return ModeTransform(sub, tuple(t.modes[i] for i in keep), kind="subunitary")


@lru_cache(maxsize=None)
def _loss_transfer(num_modes: int, photon_cap: int, position: int):
    """Index arrays of loss at one tuple position of a basis shape.

    A transfer term takes a basis state with n = m + k photons at the
    position to the state with m there.  Loss moves the density-matrix entry
    between the sources of two terms with the same k to the entry between
    their targets.  Returns, over those pairs in order of k (so each output
    entry sums its terms in that order): the flattened source entries, the
    target entries as real/imaginary slots of the flattened matrix, the
    (m, k) coefficient index of either term, and the table C(m + k, k).
    """
    basis = FockBasis(tuple(range(num_modes)), photon_cap)
    size, width = basis.size, photon_cap + 1
    pairs = []
    for k in range(width):
        terms = []
        for i, occ in enumerate(basis.occupations):
            m = occ[position] - k
            if m >= 0:
                out = list(occ)
                out[position] = m
                terms.append((i, basis.index_of(tuple(out)), m * width + k))
        pairs.extend(
            (s1 * size + s2, t1 * size + t2, c1, c2)
            for s1, t1, c1 in terms
            for s2, t2, c2 in terms
        )
    src, tgt, coeff_a, coeff_b = (np.array(col, dtype=np.intp) for col in zip(*pairs))
    slots = np.stack([2 * tgt, 2 * tgt + 1], axis=1).ravel()
    comb = np.array(
        [[math.comb(m + k, k) for k in range(width)] for m in range(width)], dtype=float
    )
    for a in (src, slots, coeff_a, coeff_b, comb):
        a.flags.writeable = False
    return src, slots, coeff_a, coeff_b, comb


@dataclass(frozen=True)
class LossChannel:
    """Trace-preserving photon loss on one mode (splitter to a traced vacuum).

    Loss acts on that mode's photon-number ladder alone: it maps
    |..n..><..n'..| to sum_k sqrt(C(n, k) C(n', k)) t^((n+n')/2 - k) l^k
    |..n-k..><..n'-k..|, with l the loss and t = 1 - l.
    """

    loss: float
    mode: int

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss {self.loss} outside [0, 1]")

    def apply(self, state: State) -> DensityOperator:
        basis = state.basis
        # a pure input's projector is only read here, so it is not wrapped
        # in a DensityOperator, which would copy it
        if isinstance(state, StateVector):
            matrix = np.outer(state.amplitudes, state.amplitudes.conj())
        else:
            matrix = state.matrix
        src, slots, coeff_a, coeff_b, comb = _loss_transfer(
            basis.num_modes, basis.photon_cap, basis.position(self.mode)
        )
        t = 1.0 - self.loss
        # sqrt(C(m + k, k) t^m l^k) at [m, k]; the powers are taken as
        # Python scalars, so each coefficient rounds as the term-by-term
        # formula does
        powers = range(basis.photon_cap + 1)
        kept = np.array([t**m for m in powers])[:, None]
        coeff = np.sqrt(comb * kept * [self.loss**k for k in powers]).ravel()
        moved = matrix.ravel()[src] * coeff[coeff_a] * coeff[coeff_b]
        out = np.bincount(slots, moved.view(float), minlength=2 * basis.size**2)
        return DensityOperator(basis, out.view(complex).reshape(basis.size, basis.size))
