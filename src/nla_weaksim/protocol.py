"""Heralded weak-measurement amplifier for small coherent states.

A signal mode carrying N(|0> + alpha|1> + ...) couples to a single-photon
meter qubit (|H> + i e^{i phi} |V>)/sqrt(2) through a controlled-sign
interaction; projecting the meter onto (|H> - i|V>)/sqrt(2) heralds the
conditional signal state proportional to |0> + g alpha |1> with amplitude
gain g = (1 + e^{i phi})/(1 - e^{i phi}), so the intensity gain is
|g|^2 = cot^2(phi/2).  The postselected three-splitter realization of the
gate rescales the gain to |g|^2 / 3 and succeeds with probability 1/9 on
two-photon inputs.

Signals are written from per-mode photon-number ladders: a coherent product
state gathers h[n_H] v[n_V] through the basis counts of the two signal
modes, and the phase-averaged state reads its diagonal the same way.

The herald of a gate U keeps one meter photon, in a (a in H, V), and reads
two diagonals on the signal basis, K_a = <a| U |a> for each signal
occupation (n_H, n_V).  The 'ideal' controlled sign has them in closed
form: K_HH = 1 and K_VV = 1 - 2 [n_V = 1].  The 'ppbs' gate is the
postselected circuit, built from elements.  Every element keeps
polarization, so between one meter photon in and one out it conserves the
signal occupation, and its herald lifts only that block of U through
permanents, once per (cap, layout).  The full lift (gate_operator) is never
built for a run.  A run at meter phase phi then applies
M(phi) = (K_HH - e^{i phi} K_VV)/2 to the signal elementwise, as M psi or
M_i rho_ij conj(M_j); the through-gate input size uses K_HH.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Literal, Union

import numpy as np

from . import fock
from .elements import (
    DEFAULT_LAYOUT,
    LossChannel,
    ModeLayout,
    PPBSSpec,
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

# largest herald entry off the two meter diagonals a gate may leave
_DIAGONAL_TOL = 1e-12


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


def _ladder(
    cap: int,
    closed: Callable[[int], complex],
    recur: Callable[[complex, int], complex],
) -> list[complex]:
    """Terms closed(n) for n = 0..cap, continued by recur(term n - 1, n)
    from the first n whose closed form overflows a float: its power, or
    n! past 170."""
    terms = []
    for n in range(cap + 1):
        try:
            terms.append(closed(n))
        except OverflowError:
            break
    for n in range(len(terms), cap + 1):
        terms.append(recur(terms[-1], n))
    return terms


def _coherent_ladder(
    alpha: complex, cap: int, truncation_bound: float
) -> tuple[np.ndarray, float]:
    """Amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cap and the Poisson
    weight beyond the cap, which must not exceed the bound."""
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    amps = np.array(_ladder(
        cap,
        lambda n: pref * alpha**n / math.sqrt(math.factorial(n)),
        lambda prev, n: prev * alpha / math.sqrt(n),
    ), dtype=complex)
    tail = _poisson_tail(abs(alpha) ** 2, cap)
    if tail > truncation_bound:
        raise fock.TruncationError(
            f"coherent tail {tail:.3e} beyond cap {cap} exceeds bound "
            f"{truncation_bound:.3e}; raise the cap or the bound"
        )
    return amps, tail


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
    amps, tail = _coherent_ladder(alpha, photon_cap, truncation_bound)
    # 1-mode basis is ordered 0..cap, so the ladder aligns with the index
    return StateVector(basis, amps), tail


def _poisson_tail(mean: float, cap: int) -> float:
    """Poisson weight beyond the cap.

    One minus the weight up to the cap is exact only to about 1e-16, so
    where that weight is at least a half the tail is summed term by term
    from cap + 1 until a term no longer changes the sum.
    """
    if mean == 0.0:
        return 0.0
    term = math.exp(-mean)
    head = term
    for n in range(1, cap + 1):
        term *= mean / n
        head += term
    if head < 0.5:
        return 1.0 - head
    tail = 0.0
    n = cap + 1
    term *= mean / n
    while tail + term != tail:
        tail += term
        n += 1
        term *= mean / n
    return tail


def _poisson_weights(mean: float, cap: int) -> np.ndarray:
    """Poisson weights e^{-mean} mean^n / n! for n = 0..cap."""
    pref = math.exp(-mean)
    return np.array(_ladder(
        cap,
        lambda n: pref * mean**n / math.factorial(n),
        lambda prev, n: prev * mean / n,
    ))


def _pair_products(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The products h[i] v[j], formed from the float parts, +0 where a
    factor is 0.

    This rounds as numpy's scalar complex product does; the array product
    can differ from it in the last bit.
    """
    hr, hi = h.real[:, None], h.imag[:, None]
    out = np.empty((h.size, v.size), dtype=complex)
    out.real = hr * v.real - hi * v.imag
    out.imag = hr * v.imag + hi * v.real
    out[(h == 0)[:, None] | (v == 0)] = 0
    return out


def two_mode_coherent(
    alpha_h: complex,
    alpha_v: complex,
    photon_cap: int,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
    truncation_bound: float = 1e-3,
) -> tuple[StateVector, float]:
    """Product of coherent states on the signal H and V modes.

    Each amplitude is h[n_H] v[n_V], gathered from the two ladders by the
    basis counts.  The returned weight is the two ladder tails plus the
    product weight of the pairs (n_H, n_V) over the cap, added n_H-major.
    """
    h, tail_h = _coherent_ladder(alpha_h, photon_cap, truncation_bound)
    v, tail_v = _coherent_ladder(alpha_v, photon_cap, truncation_bound)
    basis = build_basis(2, photon_cap, modes=tuple(sorted(layout.signal)))
    pairs = _pair_products(h, v)
    amps = pairs[basis.counts(layout.signal_h), basis.counts(layout.signal_v)]
    ladder = np.arange(photon_cap + 1)
    dropped = 0.0
    # scalar moduli: numpy's array hypot can differ from them in the last bit
    for p in pairs[ladder[:, None] + ladder > photon_cap].tolist():
        dropped += abs(p) ** 2
    return StateVector(basis, amps), tail_h + tail_v + dropped


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
    amps[basis.index_of((0, 0))] = pref
    amps[basis.index_of(int(m == layout.signal_v) for m in basis.modes)] = pref * alpha
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
    mean = abs(alpha) ** 2
    weights = _poisson_weights(mean, photon_cap)
    diag = np.where(basis.counts(layout.signal_h) == 0,
                    weights[basis.counts(layout.signal_v)], 0.0)
    m = np.diag(diag.astype(complex))
    return DensityOperator(basis, m), _poisson_tail(mean, photon_cap)


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
    if gate != "ppbs":
        raise ValueError(f"only the 'ppbs' gate is lifted, not {gate!r}")
    basis = build_basis(4, photon_cap, modes=tuple(sorted(layout.modes())))
    op = lift_mode_transform(compose_transforms(ppbs_cz_circuit(layout)), basis)
    op.flags.writeable = False
    return op


def gate_operator(
    gate: GateKind,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    *,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> np.ndarray:
    """Lifted Fock-space operator of the postselected 'ppbs' gate on the
    four layout modes (cached).  The ideal gate has no lift: its herald is
    closed-form."""
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
        state = LossChannel(spec.loss, layout.signal_v).apply(state)
    return state, tail


@lru_cache(maxsize=None)
def herald_operators(
    gate: GateKind, photon_cap: int, layout: ModeLayout
) -> tuple[FockBasis, np.ndarray, np.ndarray]:
    """Meter-conditioned diagonals of the gate on the signal modes.

    Returns the two-signal-mode basis at the cap and read-only vectors K_HH
    and K_VV, where K_a holds <one meter photon in a| U |one in a> for each
    signal occupation.  The ideal gate's are closed-form: K_HH = 1 and
    K_VV = 1 - 2 [n_V = 1].  For the postselected gate only the
    one-meter-photon block of U is lifted, with 4 sum_{n<cap} (n+1)^2
    permanents, and its entries equal those of gate_operator bit for bit;
    every other entry of the block (the H-V blocks and the off-diagonal
    entries) must stay below 1e-12, else a ValueError names the gate and the
    largest one.  Gate outputs with no meter photon or two of them never
    herald.  Entries of signal states at the cap are zero: the meter photon
    would push them over it.
    """
    if photon_cap < 2:
        raise ValueError(
            f"photon cap {photon_cap} is below the two photons the gate acts on"
        )
    # the joint basis guards the cap for both gates, though only the
    # postselected one is lifted on it
    joint = build_basis(4, photon_cap, modes=tuple(sorted(layout.modes())))
    signal = build_basis(2, photon_cap, modes=tuple(sorted(layout.signal)))
    inside = ~signal.at_cap()
    if gate == "ideal":
        flip = np.where(signal.counts(layout.signal_v) == 1, -1.0, 1.0)
        k_hh = np.where(inside, 1.0, 0.0).astype(complex)
        k_vv = np.where(inside, flip, 0.0).astype(complex)
    elif gate == "ppbs":
        spos = [joint.position(m) for m in signal.modes]
        cut = []
        for meter_mode in layout.meter:
            for i in np.flatnonzero(inside):
                occ = [0] * joint.num_modes
                for p, n in zip(spos, signal.occupations[i]):
                    occ[p] = n
                occ[joint.position(meter_mode)] = 1
                cut.append(joint.index_of(tuple(occ)))
        u = lift_mode_transform(
            compose_transforms(ppbs_cz_circuit(layout)), joint, cut
        )
        stray = float(np.max(np.abs(u[~np.eye(len(cut), dtype=bool)])))
        if not stray <= _DIAGONAL_TOL:
            raise ValueError(
                f"gate {gate!r} does not keep the signal occupation and the "
                f"meter polarization: herald entry {stray:.3e} off the diagonal"
            )
        k_hh, k_vv = np.zeros((2, signal.size), dtype=complex)
        k_hh[inside], k_vv[inside] = u.diagonal().reshape(2, -1)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    k_hh.flags.writeable = False
    k_vv.flags.writeable = False
    return signal, k_hh, k_vv


def apply_herald(m: np.ndarray, state: State) -> tuple[State | None, float]:
    """Conditional state of the diagonal herald m, renormalized, and its
    probability: m_i psi_i or m_i rho_ij conj(m_j).  The state is None when
    the probability vanishes or is not a number."""
    if isinstance(state, StateVector):
        c = m * state.amplitudes
        prob = float(np.vdot(c, c).real)
        if not prob > ZERO_PROBABILITY:
            return None, prob
        return StateVector(state.basis, c / math.sqrt(prob)), prob
    rho = m[:, None] * state.matrix * m.conj()[None, :]
    prob = float(np.trace(rho).real)
    if not prob > ZERO_PROBABILITY:
        return None, prob
    return DensityOperator(state.basis, rho / prob), prob


def _weight_at_cap(state: State) -> float:
    at_cap = state.basis.at_cap()
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

    Applies M(phi) = (K_HH - e^{i phi} K_VV)/2 of the gate's meter
    diagonals to the signal.  A prebuilt signal state must live on the two
    signal modes at the cap.  Returns the conditional signal state, the
    herald probability, the conditional one-photon probability of the
    signal V mode and the truncation weight: the prepared tail beyond the
    cap plus the signal weight at the cap, which has no room for the meter
    photon.
    """
    phi = meter.phi if isinstance(meter, MeterSetting) else float(meter)
    basis, k_hh, k_vv = herald_operators(gate, photon_cap, layout)
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
    heralded = (k_hh - cmath.exp(1.0j * phi) * k_vv) / 2.0
    truncation = tail + _weight_at_cap(sig_state)
    cond, prob = apply_herald(heralded, sig_state)
    if cond is None:
        return ProtocolOutcome(None, prob, 0.0, truncation)
    p1 = fock.occupancy_probability(cond, layout.signal_v, 1)
    amp_gain = None
    if isinstance(cond, StateVector) and spec is not None and spec.alpha != 0:
        b = cond.basis
        c0 = cond.amplitudes[b.index_of((0,) * b.num_modes)]
        c1 = cond.amplitudes[b.index_of(int(m == layout.signal_v) for m in b.modes)]
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
