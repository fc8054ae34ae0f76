"""Mode layout: the global mode indices of the polarization modes.

Polarization is encoded as two modes (H, V) per spatial path, and the
protocol has two paths, the signal and the meter.  The gate between them is
one fixed 4 x 4 matrix on these four modes, written in closed form in
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass


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
