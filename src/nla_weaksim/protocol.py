"""Heralded weak-measurement amplifier for small coherent states.

A signal mode carrying N(|0> + alpha|1> + ...) couples to a single-photon
meter qubit (|H> + i e^{i phi} |V>)/sqrt(2) through a controlled-sign
interaction; projecting the meter onto (|H> - i|V>)/sqrt(2) heralds the
conditional signal state proportional to |0> + g alpha |1> with amplitude
gain g = (1 + e^{i phi})/(1 - e^{i phi}), so the intensity gain is
|g|^2 = cot^2(phi/2).  The postselected three-splitter realization of the
gate rescales the gain to |g|^2 / 3 and succeeds with probability 1/9 on
two-photon inputs.

Gates are either 'ideal' (diagonal sign flip) or 'ppbs' (the postselected
circuit, built from elements and lifted through permanents).  Every herald
goes through one route: the lifted gate U is cut, once per (gate, cap,
layout), into four signal-space blocks K[a, b] = <a| U |b> between one meter
photon in a and one in b (a, b in H, V).  A run at meter phase phi then
applies M(phi) = (K_HH + i K_VH)/2 + i e^{i phi} (K_HV + i K_VV)/2 to the
signal as M psi or M rho M^dag; the through-gate input size uses K_HH.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Union

import numpy as np

from . import fock
from .elements import (
    DEFAULT_LAYOUT,
    LossSpec,
    ModeLayout,
    PPBSSpec,
    loss_channel,
    ppbs,
    vacuum_restriction,
)
from .fock import (
    DensityOperator,
    FockBasis,
    ModeTransform,
    State,
    StateVector,
    build_basis,
    compose_transforms,
    lift_mode_transform,
)

GateKind = Literal["ideal", "ppbs"]

# intensity transmission of the interfering polarization in the gate
GATE_TRANSMISSION = 1.0 / 3.0

DEFAULT_PHOTON_CAP = 3

# herald probabilities below this are treated as an impossible outcome
ZERO_PROBABILITY = 1e-30

_PHASE_TOL = 1e-12


class InfiniteGainError(ArithmeticError):
    """Meter phase phi = 0 corresponds to unbounded gain."""


@dataclass(frozen=True)
class MeterSetting:
    """Meter preparation phase phi.

    phi in (0, pi] covers all gains (pi is unit-free deamplification to
    vacuum); negative phases give the same intensity gain by symmetry and are
    accepted as-is.
    """

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"meter phase {self.phi} is not finite")
        if not -math.pi <= self.phi <= math.pi:
            object.__setattr__(
                self, "phi", math.remainder(self.phi, 2.0 * math.pi)
            )


@dataclass(frozen=True)
class SignalSpec:
    """Input signal description.

    kind 'coherent' keeps the full truncated Poissonian ladder,
    'qubit_truncated' keeps only the first two levels N(|0> + alpha|1>), and
    'phase_averaged' is the diagonal mixture with Poissonian weights.  A
    nonzero loss is applied to the prepared state as a trace-preserving
    channel (forcing the density-operator path).
    """

    kind: Literal["coherent", "qubit_truncated", "phase_averaged"]
    alpha: complex = 0.0
    loss: float = 0.0

    def __post_init__(self):
        if self.kind not in ("coherent", "qubit_truncated", "phase_averaged"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"amplitude {self.alpha} is not finite")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss {self.loss} outside [0, 1]")


@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form protocol quantities for a meter phase and input amplitude."""

    g: complex  # amplitude gain of the ideal gate
    g2: float  # |g|^2 = cot^2(phi/2)
    g2_nondet: float  # postselected-gate intensity gain, g2 / 3
    p_success: float  # herald probability of the postselected gate
    norm_in: float  # exp(-|alpha|^2 / 2)
    norm_out: float  # exp(-|g' alpha|^2 / 2)


@dataclass(frozen=True)
class ProtocolOutcome:
    conditional_state: State | None
    herald_probability: float
    p1_out: float  # conditional one-photon probability in the signal V mode
    truncation_weight: float
    amplitude_gain: complex | None = None


def truncated_coherent(
    alpha: complex,
    photon_cap: int,
    *,
    mode: int = DEFAULT_LAYOUT.signal_v,
    truncation_bound: float = 1e-3,
) -> tuple[StateVector, float]:
    """Coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!) up to the cap.

    Returns (state, discarded tail weight).  The state is intentionally not
    renormalized, so occupation weights keep their exact Poissonian values.
    """
    basis = build_basis(1, photon_cap, modes=(mode,))
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    amps = np.array(
        [pref * alpha**n / math.sqrt(math.factorial(n)) for n in range(photon_cap + 1)],
        dtype=complex,
    )
    tail = _poisson_tail(abs(alpha) ** 2, photon_cap)
    if tail > truncation_bound:
        raise fock.TruncationError(
            f"coherent tail {tail:.3e} beyond cap {photon_cap} exceeds bound "
            f"{truncation_bound:.3e}; raise the cap or the bound"
        )
    # 1-mode basis is ordered 0..cap, so the ladder aligns with the index
    return StateVector(basis, amps), tail


def _poisson_tail(mean: float, cap: int) -> float:
    if mean == 0.0:
        return 0.0
    term = math.exp(-mean)
    acc = term
    for n in range(1, cap + 1):
        term *= mean / n
        acc += term
    return max(0.0, 1.0 - acc)


def two_mode_coherent(
    alpha_h: complex,
    alpha_v: complex,
    photon_cap: int,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
    truncation_bound: float = 1e-3,
) -> tuple[StateVector, float]:
    """Product of coherent states on the signal H and V modes."""
    h, tail_h = truncated_coherent(
        alpha_h, photon_cap, mode=layout.signal_h, truncation_bound=truncation_bound
    )
    v, tail_v = truncated_coherent(
        alpha_v, photon_cap, mode=layout.signal_v, truncation_bound=truncation_bound
    )
    state, dropped = fock.tensor(h, v, photon_cap=photon_cap)
    return state, tail_h + tail_v + dropped


def qubit_truncated_state(
    alpha: complex,
    photon_cap: int,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> StateVector:
    """Two-level approximation N(|0> + alpha|1>) on the signal modes."""
    basis = build_basis(2, photon_cap, modes=tuple(sorted(layout.signal)))
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    amps = np.zeros(basis.size, dtype=complex)
    vpos = basis.position(layout.signal_v)
    zero = [0, 0]
    one = [0, 0]
    one[vpos] = 1
    amps[basis.index_of(tuple(zero))] = pref
    amps[basis.index_of(tuple(one))] = pref * alpha
    return StateVector(basis, amps)


def phase_averaged_state(
    alpha: complex,
    photon_cap: int,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> tuple[DensityOperator, float]:
    """Diagonal mixture with Poissonian weights e^{-|a|^2} |a|^{2n} / n!.

    Equal to averaging |a e^{i theta}> projectors over theta; the weight
    beyond the cap is returned as the truncation tail.
    """
    basis = build_basis(2, photon_cap, modes=tuple(sorted(layout.signal)))
    vpos = basis.position(layout.signal_v)
    mean = abs(alpha) ** 2
    m = np.zeros((basis.size, basis.size), dtype=complex)
    for n in range(photon_cap + 1):
        occ = [0, 0]
        occ[vpos] = n
        m[basis.index_of(tuple(occ)), basis.index_of(tuple(occ))] = (
            math.exp(-mean) * mean**n / math.factorial(n)
        )
    return DensityOperator(basis, m), _poisson_tail(mean, photon_cap)


def ideal_cz(basis: FockBasis, *, layout: ModeLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Diagonal gate flipping the sign of exactly the components with one
    signal V photon and the meter photon in V."""
    sv = basis.position(layout.signal_v)
    mh = basis.position(layout.meter_h)
    mv = basis.position(layout.meter_v)
    diag = np.ones(basis.size, dtype=complex)
    for i, occ in enumerate(basis.occupations):
        if occ[sv] == 1 and occ[mh] == 0 and occ[mv] == 1:
            diag[i] = -1.0
    return np.diag(diag)


def ppbs_cz_circuit(layout: ModeLayout = DEFAULT_LAYOUT) -> list[ModeTransform]:
    """Postselected controlled-sign circuit as an ordered element list.

    An H-splitting PPBS in each arm (discard port held at vacuum) and a
    central V-splitting PPBS between the arms, all with transmission 1/3 on
    the split polarization.  Conditioned on one photon per output the circuit
    equals the ideal gate times 1/3.
    """
    top = max(layout.modes())
    aux_sig = (top + 1, top + 2)
    aux_met = (top + 3, top + 4)
    t = GATE_TRANSMISSION
    arm_signal = vacuum_restriction(
        ppbs(PPBSSpec(t_h=t, t_v=1.0), layout.signal, aux_sig), aux_sig
    )
    central = ppbs(PPBSSpec(t_h=1.0, t_v=t), layout.signal, layout.meter)
    arm_meter = vacuum_restriction(
        ppbs(PPBSSpec(t_h=t, t_v=1.0), layout.meter, aux_met), aux_met
    )
    return [arm_signal, central, arm_meter]


@lru_cache(maxsize=None)
def _gate_operator(
    gate: GateKind, photon_cap: int, layout: ModeLayout
) -> np.ndarray:
    basis = build_basis(4, photon_cap, modes=tuple(sorted(layout.modes())))
    if gate == "ideal":
        op = ideal_cz(basis, layout=layout)
    elif gate == "ppbs":
        op = lift_mode_transform(compose_transforms(ppbs_cz_circuit(layout)), basis)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    op.flags.writeable = False
    return op


def gate_operator(
    gate: GateKind,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> np.ndarray:
    """Lifted Fock-space operator of the chosen gate (cached)."""
    return _gate_operator(gate, photon_cap, layout)


def prepare_signal(
    spec: SignalSpec,
    photon_cap: int,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> tuple[State, float]:
    """Signal state on the (H, V) signal modes per the spec, plus tail weight.

    Cached: the run and the input sizes of one point share one read-only
    state.  The key holds the amplitude's type because specs with equal
    float and complex amplitudes compare equal, yet their powers round
    differently.
    """
    return _prepare_signal(spec, type(spec.alpha), photon_cap, layout)


# bounded: sweeps draw a new spec per point, so only the last few recur
@lru_cache(maxsize=8)
def _prepare_signal(
    spec: SignalSpec, alpha_type: type, photon_cap: int, layout: ModeLayout
) -> tuple[State, float]:
    if spec.kind == "coherent":
        state, tail = two_mode_coherent(0.0, spec.alpha, photon_cap, layout=layout)
    elif spec.kind == "qubit_truncated":
        state, tail = qubit_truncated_state(spec.alpha, photon_cap, layout=layout), 0.0
    else:
        state, tail = phase_averaged_state(spec.alpha, photon_cap, layout=layout)
    if spec.loss > 0.0:
        state = loss_channel(LossSpec(spec.loss), layout.signal_v).apply(state)
    return state, tail


@lru_cache(maxsize=None)
def herald_operators(
    gate: GateKind, photon_cap: int, layout: ModeLayout
) -> tuple[FockBasis, np.ndarray]:
    """Meter-conditioned blocks of the lifted gate on the signal modes.

    Returns the two-signal-mode basis at the cap and a read-only array whose
    block [a, b] is <one meter photon in a| U |one meter photon in b>, with
    index 0 for H and 1 for V.  Gate outputs with no meter photon or two of
    them are absent, so they never herald.  Columns of signal states at the
    cap are zero: the meter photon would push them over it.
    """
    if photon_cap < 2:
        raise ValueError(
            f"photon cap {photon_cap} is below the two photons the gate acts on"
        )
    joint = build_basis(4, photon_cap, modes=tuple(sorted(layout.modes())))
    signal = build_basis(2, photon_cap, modes=tuple(sorted(layout.signal)))
    spos = [joint.position(m) for m in signal.modes]
    inside = [i for i, n in enumerate(signal.totals()) if n < photon_cap]
    joint_index = []
    for meter_mode in layout.meter:
        rows = []
        for i in inside:
            occ = [0] * joint.num_modes
            for p, n in zip(spos, signal.occupations[i]):
                occ[p] = n
            occ[joint.position(meter_mode)] = 1
            rows.append(joint.index_of(tuple(occ)))
        joint_index.append(rows)
    u = gate_operator(gate, photon_cap, layout=layout)
    blocks = np.zeros((2, 2, signal.size, signal.size), dtype=complex)
    for a in range(2):
        for b in range(2):
            blocks[a, b][np.ix_(inside, inside)] = u[
                np.ix_(joint_index[a], joint_index[b])
            ]
    blocks.flags.writeable = False
    return signal, blocks


def apply_herald(op: np.ndarray, state: State) -> tuple[State | None, float]:
    """Conditional state op|psi> or op rho op^dag, renormalized, and its
    probability.  The state is None when the probability vanishes or is not
    a number."""
    if isinstance(state, StateVector):
        c = op @ state.amplitudes
        prob = float(np.vdot(c, c).real)
        if not prob > ZERO_PROBABILITY:
            return None, prob
        return StateVector(state.basis, c / math.sqrt(prob)), prob
    m = op @ state.matrix @ op.conj().T
    prob = float(np.trace(m).real)
    if not prob > ZERO_PROBABILITY:
        return None, prob
    return DensityOperator(state.basis, m / prob), prob


def _weight_at_cap(state: State) -> float:
    at_cap = np.array(state.basis.totals()) == state.basis.photon_cap
    if isinstance(state, StateVector):
        return float(np.sum(np.abs(state.amplitudes[at_cap]) ** 2))
    return float(np.sum(np.diag(state.matrix).real[at_cap]))


def run_nla(
    signal: Union[SignalSpec, State],
    meter: Union[MeterSetting, float],
    gate: GateKind = "ppbs",
    *,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> ProtocolOutcome:
    """One heralded amplifier run.

    Applies the heralded map M(phi) of the gate's meter blocks to the signal.
    A prebuilt signal state must live on the two signal modes at the cap.
    Returns the conditional signal state, the herald probability, the
    conditional one-photon probability of the signal V mode and the
    truncation weight: the prepared tail beyond the cap plus the signal
    weight at the cap, which has no room for the meter photon.
    """
    phi = meter.phi if isinstance(meter, MeterSetting) else float(meter)
    basis, k = herald_operators(gate, photon_cap, layout)
    if isinstance(signal, (StateVector, DensityOperator)):
        if signal.basis != basis:
            raise ValueError(
                f"signal basis {signal.basis} is not the signal modes at cap "
                f"{photon_cap}"
            )
        sig_state: State = signal
        tail = 0.0
        spec = None
    else:
        spec = signal
        sig_state, tail = prepare_signal(spec, photon_cap, layout=layout)
    # meter (|H> + i e^{i phi} |V>)/sqrt(2) in, herald (|H> - i|V>)/sqrt(2)
    heralded = (k[0, 0] + 1j * k[1, 0]) / 2.0 \
        + 1j * cmath.exp(1.0j * phi) * (k[0, 1] + 1j * k[1, 1]) / 2.0
    truncation = tail + _weight_at_cap(sig_state)
    cond, prob = apply_herald(heralded, sig_state)
    if cond is None:
        return ProtocolOutcome(None, prob, 0.0, truncation)
    p1 = fock.occupancy_probability(cond, layout.signal_v, 1)
    amp_gain = None
    if isinstance(cond, StateVector) and spec is not None and spec.alpha != 0:
        b = cond.basis
        vac = [0] * b.num_modes
        one = [0] * b.num_modes
        one[b.position(layout.signal_v)] = 1
        c0 = cond.amplitudes[b.index_of(tuple(vac))]
        c1 = cond.amplitudes[b.index_of(tuple(one))]
        if abs(c0) > 0:
            amp_gain = complex(c1 / (c0 * spec.alpha))
    return ProtocolOutcome(cond, prob, p1, truncation, amp_gain)


def analytic(
    meter: Union[MeterSetting, float], alpha: complex, gate: GateKind = "ppbs"
) -> AnalyticPrediction:
    """Closed-form gain and herald probability.

    g = (1 + e^{i phi})/(1 - e^{i phi}); |g|^2 = cot^2(phi/2); the
    postselected gate rescales the intensity gain by its transmission
    t = 1/3.  On a two-level input the gate heralds with

        p = N^2 t sin^2(phi/2) (1 + t |g|^2 |alpha|^2),

    N^2 = exp(-|alpha|^2), where t = 1/3 for the postselected gate and 1
    for the ideal one; the N^2 (input) normalization is the one the
    simulated herald norm reproduces exactly.
    """
    if gate not in ("ideal", "ppbs"):
        raise ValueError(f"unknown gate {gate!r}")
    phi = meter.phi if isinstance(meter, MeterSetting) else float(meter)
    w = cmath.exp(1.0j * phi)
    if abs(w - 1.0) < _PHASE_TOL:
        raise InfiniteGainError(f"phi = {phi} gives unbounded gain")
    g = (1.0 + w) / (1.0 - w)
    g2 = abs(g) ** 2
    g2n = g2 / 3.0
    a2 = abs(alpha) ** 2
    t = GATE_TRANSMISSION if gate == "ppbs" else 1.0
    p = math.exp(-a2) * t * math.sin(phi / 2.0) ** 2 * (1.0 + t * g2 * a2)
    return AnalyticPrediction(
        g=g,
        g2=g2,
        g2_nondet=g2n,
        p_success=p,
        norm_in=math.exp(-a2 / 2.0),
        norm_out=math.exp(-g2n * a2 / 2.0),
    )


def phi_for_gain(target_g2: float) -> float:
    """Meter phase with cot^2(phi/2) equal to the target intensity gain.

    target 0 maps to phi = pi (full deamplification); negative targets are
    rejected.
    """
    if target_g2 < 0.0:
        raise ValueError(f"target intensity gain {target_g2} is negative")
    if target_g2 == 0.0:
        return math.pi
    return 2.0 * math.atan(1.0 / math.sqrt(target_g2))
