"""Optical elements: PPBS mode transforms and vacuum restrictions.

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

import numpy as np

from .fock import ModeTransform


@dataclass(frozen=True)
class ModeLayout:
    """Global mode indices for the two polarization-resolved spatial paths.

    The protocol builds every state, gate and herald on DEFAULT_LAYOUT's
    modes 0 to 3; another layout only names the modes of run_nla's
    conditional state."""

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
