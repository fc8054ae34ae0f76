"""Heralded weak-measurement amplifier for small coherent states.

A signal mode carrying N(|0> + alpha|1> + ...) couples to a single-photon
meter qubit (|H> + i e^{i phi} |V>)/sqrt(2) through a controlled-sign
interaction; projecting the meter onto (|H> - i|V>)/sqrt(2) heralds the
conditional signal state proportional to |0> + g alpha |1> with amplitude
gain g = (1 + e^{i phi})/(1 - e^{i phi}), so the intensity gain is
|g|^2 = cot^2(phi/2).  The postselected three-splitter realization of the
gate rescales the gain to |g|^2 / 3 and succeeds with probability 1/9 on
two-photon inputs.

Every state, gate and herald lives on the four fixed modes of
DEFAULT_LAYOUT: signal H and V are modes 0 and 1, meter H and V modes 2 and
3, so a signal occupation reads (n_H, n_V).  Only run_nla takes another
layout, and only to name the modes of its conditional state.

Every state is a pure part plus an incoherent diagonal,
rho = |psi><psi| + diag(p) (fock.State).  A signal of a SignalSpec is one
photon-number ladder of signal V written to the n_H = 0 column, which is
the first cap + 1 basis states: a coherent ladder as psi, Poisson weights as
p, or the two levels of the two-level signal.  A ladder is one recursion
from its first term, a_n = a_{n-1} alpha / sqrt(n) or w_n = w_{n-1} mean / n,
and the one pass of the weights also gives the weight beyond the cap.  Loss
L attenuates the amplitude to sqrt(1-L) alpha before the ladder is cut, so
lossy coherent and phase-averaged signals keep their family; the lossy
two-level signal keeps its lost weight as a population on the vacuum.  Only
the biased two-mode input (two_mode_coherent) takes the products
h[n_H] v[n_V] of two ladders, as one array product; its weight beyond the
cap is that of the pairs outside n_H + n_V <= cap, t_h + t_v - t_h t_v for
the pairs with a photon number beyond its ladder's cap plus the pairs of
the two ladders over it.  A signal's truncation weight is its weight beyond
plus at the cap (_check_truncation).

The herald of a gate U keeps one meter photon, in a (a in H, V), and reads
two diagonals on the signal basis, K_a = <a| U |a> for each signal
occupation (n_H, n_V).  The 'ideal' controlled sign has them in closed
form: K_HH = 1 and K_VV = 1 - 2 [n_V = 1].  The 'ppbs' gate is the
postselected three-splitter circuit, one fixed 4 x 4 matrix written in
closed form from GATE_TRANSMISSION (_PPBS_GATE).  It couples no H mode to
a V mode, so between one meter photon in and one out it conserves the
signal occupation, and its herald lifts only that block of U through
permanents, once per cap.  The full lift (gate_operator) is never built
for a run.  A run at meter phase phi then applies
M(phi) = (K_HH - e^{i phi} K_VV)/2 to the signal elementwise.  M is
diagonal in photon number, so it keeps the state's form: psi goes to M psi
and p to |M|^2 p.  A run reads its numbers off photon-number weights with
the gate's readout (_readout), rows cached next to its herald: one product
with the signal's weights gives the weight at the cap and both input
sizes, the true one from the weights as they are and the through-gate one
from them times |K_HH|^2, and one product with the conditional state's
weights gives its n_V = 0 and 1 weights.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Union

import numpy as np

from . import fock
from .elements import DEFAULT_LAYOUT, ModeLayout
from .fock import (
    FockBasis,
    ModeTransform,
    State,
    build_basis,
    lift_mode_transform,
)

GateKind = Literal["ideal", "ppbs"]

# intensity transmission of the interfering polarization in the gate
GATE_TRANSMISSION = 1.0 / 3.0

DEFAULT_PHOTON_CAP = 3

# largest truncation weight of a signal (see _check_truncation)
TRUNCATION_BOUND = 1e-3

# largest Poisson mean of a signal: e^{-700} still has a float's full
# precision (see _poisson)
_POISSON_MEAN_LIMIT = 700.0

# herald probabilities below this are treated as an impossible outcome
ZERO_PROBABILITY = 1e-30

_PHASE_TOL = 1e-12

_SIGNAL_H, _SIGNAL_V = DEFAULT_LAYOUT.signal

# largest lifted herald entry off the two meter diagonals: the rounding
# budget of the permanents (see herald_operators)
_LIFT_ROUNDING = 1e-9

# The postselected three-splitter controlled sign on the fixed modes, as the
# one matrix its splitters compose to.  An H-splitting PPBS in each arm,
# its discard port held at vacuum, leaves sqrt(t) on signal H and on meter
# H; the V-splitting PPBS between the arms is the splitter
# [[sqrt(t), sqrt(1-t)], [-sqrt(1-t), sqrt(t)]] on (signal V, meter V),
# whose coincidence amplitude t - (1 - t) = -1/3 at t = 1/3 gives the sign
# flip.  Conditioned on one photon per output it is the ideal gate times
# 1/3.  No entry couples an H mode to a V mode.
_T_AMP = math.sqrt(GATE_TRANSMISSION)
_R_AMP = math.sqrt(1.0 - GATE_TRANSMISSION)
_PPBS_GATE = ModeTransform(
    np.array([[_T_AMP, 0, 0, 0],
              [0, _T_AMP, 0, _R_AMP],
              [0, 0, _T_AMP, 0],
              [0, -_R_AMP, 0, _T_AMP]], dtype=complex),
    DEFAULT_LAYOUT.modes(), kind="subunitary")


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

    kind 'coherent' keeps the full truncated Poissonian ladder as the pure
    part, 'qubit_truncated' keeps only the first two levels
    N(|0> + alpha|1>), and 'phase_averaged' is the diagonal mixture with
    Poissonian weights as populations.  Both are built at alpha_at_gate;
    under loss the two-level signal becomes the pure part
    psi' = N(|0> + alpha_at_gate |1>) plus the population L |N alpha|^2 on
    the vacuum.
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

    @property
    def alpha_at_gate(self) -> complex:
        """sqrt(1 - loss) alpha, the amplitude that reaches the gate."""
        if self.loss == 0.0:
            return self.alpha
        return math.sqrt(1.0 - self.loss) * self.alpha


@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form protocol quantities for a meter phase and input amplitude."""

    g: complex  # amplitude gain of the ideal gate
    g2: float  # |g|^2 = cot^2(phi/2)
    g2_nondet: float  # postselected-gate intensity gain, g2 / 3
    p_success: float  # herald probability of the gate
    norm_in: float  # exp(-|alpha|^2 / 2)
    norm_out: float  # exp(-t |g alpha|^2 / 2), t of the gate (see analytic)


@dataclass(frozen=True)
class ProtocolOutcome:
    """One run's result (see run_nla).

    p1_out and size_out read the signal V weights of the conditional state:
    its one-photon probability and its vacuum-relative odds P(1)/P(0), the
    output size.  size_in_true and size_in_measured are the odds of the
    input signal as prepared and as measured through the gate, its weights
    times |K_HH|^2 (see _readout).  A size is None where its weights hold
    no vacuum, and size_out also where the herald vanished.
    """

    conditional_state: State | None
    herald_probability: float
    p1_out: float
    size_out: float | None
    size_in_true: float | None
    size_in_measured: float | None
    truncation_weight: float
    amplitude_gain: complex | None = None


@lru_cache(maxsize=None)
def _signal_basis(photon_cap: int) -> FockBasis:
    """The basis on the fixed signal modes at the cap, built, and checked
    against the basis limit, once per cap."""
    return build_basis(2, photon_cap)


def _poisson(mean: float, cap: int, kind: str) -> tuple[list[float], float]:
    """Poisson weights w_n for n = 0..cap and the weight beyond the cap of a
    signal of the named kind, from one recursion w_n = w_{n-1} mean / n
    from w_0 = e^{-mean}; a ValueError for a NaN mean or one above
    _POISSON_MEAN_LIMIT.

    One minus the weight up to the cap is exact only to about 1e-16, so
    where that weight is at least a half the recursion runs on past the cap,
    summing the tail until a term no longer changes it.  e^{-mean} loses
    precision above mean 708 and is 0 above about 745, a tail of 1.
    """
    # a NaN would keep the term-by-term sum below from ever settling
    if math.isnan(mean):
        raise ValueError(f"{kind} mean photon number {mean} is not finite")
    if mean > _POISSON_MEAN_LIMIT:
        raise ValueError(
            f"{kind} mean photon number {mean:.6g} is above the limit "
            f"{_POISSON_MEAN_LIMIT:g}, where e^-mean nears underflow"
        )
    term = head = math.exp(-mean)
    weights = [term]
    for n in range(1, cap + 1):
        term *= mean / n
        weights.append(term)
        head += term
    if head < 0.5:
        return weights, 1.0 - head
    tail = 0.0
    n = cap + 1
    term *= mean / n
    while tail + term != tail:
        tail += term
        n += 1
        term *= mean / n
    return weights, tail


def _coherent_ladder(alpha: complex, cap: int) -> tuple[np.ndarray, float]:
    """Coherent amplitudes a_n for n = 0..cap, one recursion
    a_n = a_{n-1} alpha / sqrt(n) from a_0 = e^{-|alpha|^2/2}, and the
    Poisson weight beyond the cap (see _poisson)."""
    # a product overflows to inf, which _poisson names, where ** would raise
    mean = abs(alpha) * abs(alpha)
    _, beyond = _poisson(mean, cap, "coherent")
    amp = math.exp(-mean / 2.0)
    amps = [amp]
    for n in range(1, cap + 1):
        amp = amp * alpha / math.sqrt(n)
        amps.append(amp)
    return np.array(amps, dtype=complex), beyond


def _check_truncation(kind: str, photon_cap: int, weight: float) -> None:
    """A TruncationError if the truncation weight of a signal of the named
    kind, its weight beyond the cap plus its weight at the cap, which has
    no room for the meter photon, exceeds TRUNCATION_BOUND."""
    if weight > TRUNCATION_BOUND:
        raise fock.TruncationError(
            f"{kind.replace('_', '-')} weight {weight:.3e} beyond and at cap "
            f"{photon_cap} exceeds bound {TRUNCATION_BOUND:.3e}"
        )


def two_mode_coherent(
    alpha_h: complex,
    alpha_v: complex,
    photon_cap: int,
) -> tuple[State, float]:
    """Product of coherent states on the signal H and V modes.

    Each amplitude is h[n_H] v[n_V], gathered by the basis counts from the
    one array product of the two ladders.  The returned weight is that of
    the pairs outside n_H + n_V <= cap: those with a photon number beyond
    its ladder's cap, t_h + t_v - t_h t_v of the ladders' tails t, plus the
    product's pairs over the cap.  With the product's weight at the cap it
    faces TRUNCATION_BOUND here, as a spec's does in run_nla (see
    _check_truncation).
    """
    h, beyond_h = _coherent_ladder(alpha_h, photon_cap)
    v, beyond_v = _coherent_ladder(alpha_v, photon_cap)
    basis = _signal_basis(photon_cap)
    pairs = h[:, None] * v
    weights = np.abs(pairs) ** 2
    n = np.arange(photon_cap + 1)
    total = n[:, None] + n
    state = State._derived(
        basis, pairs[basis.counts(_SIGNAL_H), basis.counts(_SIGNAL_V)],
        np.zeros(basis.size))
    beyond = (beyond_h + beyond_v - beyond_h * beyond_v
              + float(weights[total > photon_cap].sum()))
    _check_truncation("coherent", photon_cap,
                      beyond + float(weights[total == photon_cap].sum()))
    return state, beyond


def phase_averaged_state(alpha: complex, photon_cap: int) -> tuple[State, float]:
    """Diagonal mixture with the Poisson weights of mean |alpha|^2 as its
    populations on signal V (the n_H = 0 column), and no pure part, and the
    weight beyond the cap, from one recursion (see _poisson).  Equal to
    averaging |a e^{i theta}> projectors over theta; its truncation weight
    adds its weight at the cap (see _check_truncation)."""
    basis = _signal_basis(photon_cap)
    pops = np.zeros(basis.size)
    pops[:photon_cap + 1], beyond = _poisson(abs(alpha) * abs(alpha),
                                             photon_cap, "phase-averaged")
    return State._derived(basis, np.zeros(basis.size, dtype=complex),
                          pops), beyond


@lru_cache(maxsize=None)
def gate_operator(
    gate: GateKind, photon_cap: int = DEFAULT_PHOTON_CAP
) -> np.ndarray:
    """Lifted Fock-space operator of the postselected 'ppbs' gate, the
    closed-form 4 x 4 matrix _PPBS_GATE lifted through permanents on the
    four modes (cached).  The ideal gate has no lift: its herald is
    closed-form."""
    if gate != "ppbs":
        raise ValueError(f"only the 'ppbs' gate is lifted, not {gate!r}")
    basis = build_basis(4, photon_cap)
    op = lift_mode_transform(_PPBS_GATE, basis)
    op.flags.writeable = False
    return op


def prepare_signal(spec: SignalSpec, photon_cap: int) -> tuple[State, float]:
    """Signal state on the (H, V) signal modes per the spec, one ladder of
    signal V from one recursion, plus its weight beyond the cap (none for
    the two-level signal); its truncation weight adds its weight at the
    cap, and run_nla holds that to TRUNCATION_BOUND (see _check_truncation).
    Its arrays are new and valid by construction, so the state takes them
    as they are (State._derived).
    """
    if spec.kind == "phase_averaged":
        return phase_averaged_state(spec.alpha_at_gate, photon_cap)
    # (n_H, n_V) = (0, n) is basis state n for n <= cap
    basis = _signal_basis(photon_cap)
    psi = np.zeros(basis.size, dtype=complex)
    if spec.kind == "coherent":
        psi[:photon_cap + 1], beyond = _coherent_ladder(spec.alpha_at_gate,
                                                        photon_cap)
        return State._derived(basis, psi, np.zeros(basis.size)), beyond
    # N(|0> + alpha_at_gate |1>), and the weight L |N alpha|^2 that loss
    # takes from |1> on the vacuum
    pref = math.exp(-abs(spec.alpha) ** 2 / 2.0)
    psi[0] = pref
    psi[1] = pref * spec.alpha_at_gate
    pops = np.zeros(basis.size)
    pops[0] = spec.loss * abs(pref * spec.alpha) ** 2
    return State._derived(basis, psi, pops), 0.0


@lru_cache(maxsize=None)
def herald_operators(
    gate: GateKind, photon_cap: int
) -> tuple[FockBasis, np.ndarray, np.ndarray]:
    """Meter-conditioned diagonals of the gate on the fixed signal modes,
    cached per (gate, cap).

    Returns the two-signal-mode basis at the cap and read-only vectors K_HH
    and K_VV, where K_a holds <one meter photon in a| U |one in a> for each
    signal occupation (n_H, n_V).  The ideal gate's are closed-form:
    K_HH = 1 and K_VV = 1 - 2 [n_V = 1].  The postselected gate is the
    fixed closed-form matrix _PPBS_GATE, and only its one-meter-photon
    block is lifted, with 4 sum_{n<cap} (n+1)^2 permanents; its entries
    equal those of gate_operator bit for bit.  The matrix couples no H
    mode to a V mode, so the block is diagonal up to the permanents'
    rounding.  Every lifted entry off the two diagonals must stay within
    that rounding budget, 1e-9, or a ValueError names the gate and the
    largest such entry: it reads about 1.5e-12 at cap 14 and 3.5e-12 at
    cap 15, grows about 2.5-fold per cap, so the budget holds to about
    cap 21, past the caps whose lift finishes in minutes.  Gate outputs
    with no meter photon or two of them never herald.  Entries of signal
    states at the cap are zero: the meter photon would push them over it.
    """
    if photon_cap < 2:
        raise ValueError(
            f"photon cap {photon_cap} is below the two photons the gate acts on"
        )
    # the joint basis guards the cap for both gates, though only the
    # postselected one is lifted on it
    joint = build_basis(4, photon_cap)
    signal = _signal_basis(photon_cap)
    inside = ~signal.at_cap()
    if gate == "ideal":
        flip = np.where(signal.counts(_SIGNAL_V) == 1, -1.0, 1.0)
        k_hh = np.where(inside, 1.0, 0.0).astype(complex)
        k_vv = np.where(inside, flip, 0.0).astype(complex)
    elif gate == "ppbs":
        # joint occupations (n_H, n_V, meter H, meter V), meter H first
        cut = [joint.index_of(occ + meter) for meter in ((1, 0), (0, 1))
               for occ, keep in zip(signal.occupations, inside) if keep]
        u = lift_mode_transform(_PPBS_GATE, joint, cut)
        stray = float(np.max(np.abs(u[~np.eye(len(cut), dtype=bool)])))
        if not stray <= _LIFT_ROUNDING:
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
    """Conditional state of the diagonal herald m and its probability P.
    The herald keeps the form |psi><psi| + diag(p): the state is
    m psi / sqrt(P) plus |m|^2 p / P.  It is None when P vanishes or is not
    a number."""
    c = m * state.amplitudes
    q = (m * state.populations * m.conj()).real
    prob = float(np.vdot(c, c).real + q.sum())
    if not prob > ZERO_PROBABILITY:
        return None, prob
    return State._derived(state.basis, c / math.sqrt(prob), q / prob), prob


@lru_cache(maxsize=None)
def _readout(gate: GateKind, photon_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows that read a run's numbers off photon-number weights on
    the signal basis, cached per (gate, cap) next to its herald.

    The five input rows give, in one product with a signal's weights, its
    weight at the cap and its signal V weights at n = 0 and n = 1, as they
    are and times |K_HH|^2, what a meter photon sent in and heralded in H
    passes (the through-gate input size).  The two output rows are the
    n = 0 and n = 1 indicators, for the conditional state.
    """
    basis, k_hh, _ = herald_operators(gate, photon_cap)
    n_v = basis.counts(_SIGNAL_V)
    levels = np.array([n_v == 0, n_v == 1], dtype=float)
    rows_in = np.vstack([basis.at_cap(), levels, levels * np.abs(k_hh) ** 2])
    rows_in.flags.writeable = False
    levels.flags.writeable = False
    return rows_in, levels


def _odds(p0: float, p1: float) -> float | None:
    """Vacuum-relative odds P(1)/P(0); None without vacuum."""
    return p1 / p0 if p0 > 0.0 else None


def _read_signal(
    gate: GateKind, photon_cap: int, state: State, beyond: float,
    kind: str | None,
) -> tuple[float, float | None, float | None]:
    """A signal's truncation weight, its weight beyond plus at the cap, and
    its input sizes, true and through the gate, from one product of the
    readout's input rows with its weights.  The weight of a signal of a
    spec's kind faces TRUNCATION_BOUND; that of a prebuilt state (kind
    None) does not."""
    at_cap, p0, p1, g0, g1 = (_readout(gate, photon_cap)[0]
                              @ state.weights()).tolist()
    weight = beyond + at_cap
    if kind is not None:
        _check_truncation(kind, photon_cap, weight)
    return weight, _odds(p0, p1), _odds(g0, g1)


def _signal_order(
    signal: tuple[int, int], photon_cap: int
) -> tuple[FockBasis, list[int]]:
    """The basis on the signal H and V modes named by ``signal`` at the cap
    and, for each of its states, the index of the same (n_H, n_V) on the
    fixed signal basis.  Its occupations read (n_V, n_H) when signal V sorts
    before signal H."""
    named = build_basis(2, photon_cap, modes=signal)
    swap = signal[1] < signal[0]
    return named, [named.index_of(occ[::-1] if swap else occ)
                   for occ in named.occupations]


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
    diagonals to the signal's pure part and populations (see apply_herald).
    A prebuilt signal state must live on the two fixed signal modes at the
    cap.  Returns the conditional signal state and the herald probability;
    from the conditional state's signal V weights, its one-photon
    probability p1_out and its vacuum-relative odds P(1)/P(0), size_out
    (None without vacuum); the input sizes, the odds of the signal's
    weights as prepared and through the gate; the truncation weight: the
    prepared weight beyond the cap plus the signal weight at the cap, which
    has no room for the meter photon; and for a pure conditional state (no
    populations) of a spec the amplitude gain c1 / (c0 alpha_at_gate).
    Each state's numbers are one product with the gate's readout rows (see
    _readout).  For a spec the truncation weight faces TRUNCATION_BOUND
    (see _check_truncation); a prebuilt state brings no weight beyond the
    cap and is not checked.  The run is the same on every layout: the
    layout only names the modes of the conditional state, whose basis then
    covers the layout's two signal modes (see _signal_order).
    """
    phi = meter.phi if isinstance(meter, MeterSetting) else float(meter)
    basis, k_hh, k_vv = herald_operators(gate, photon_cap)
    if isinstance(signal, State):
        if signal.basis != basis:
            raise ValueError(
                f"signal basis {signal.basis} is not the signal modes at cap "
                f"{photon_cap}"
            )
        sig_state, spec, beyond, kind = signal, None, 0.0, None
    else:
        spec = signal
        sig_state, beyond = prepare_signal(spec, photon_cap)
        kind = spec.kind
    truncation, *sizes_in = _read_signal(gate, photon_cap, sig_state, beyond,
                                         kind)
    # meter (|H> + i e^{i phi} |V>)/sqrt(2) in, herald (|H> - i|V>)/sqrt(2)
    heralded = (k_hh - cmath.exp(1.0j * phi) * k_vv) / 2.0
    cond, prob = apply_herald(heralded, sig_state)
    if cond is None:
        return ProtocolOutcome(None, prob, 0.0, None, *sizes_in, truncation)
    p0_out, p1_out = (_readout(gate, photon_cap)[1] @ cond.weights()).tolist()
    amp_gain = None
    alpha = spec.alpha_at_gate if spec is not None else 0
    if alpha != 0 and not np.count_nonzero(cond.populations):
        # (0, 0) and (0, 1) open the basis
        c0, c1 = cond.amplitudes[:2]
        if abs(c0) > 0:
            amp_gain = complex(c1 / (c0 * alpha))
    if layout != DEFAULT_LAYOUT:
        named, order = _signal_order(layout.signal, photon_cap)
        cond = State._derived(named, cond.amplitudes[order],
                              cond.populations[order])
    return ProtocolOutcome(cond, prob, p1_out, _odds(p0_out, p1_out),
                           *sizes_in, truncation, amp_gain)


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
    simulated herald norm reproduces exactly.  The same t scales the gain
    in norm_out; g2_nondet is the postselected gain for either gate.
    """
    if gate not in ("ideal", "ppbs"):
        raise ValueError(f"unknown gate {gate!r}")
    phi = meter.phi if isinstance(meter, MeterSetting) else float(meter)
    w = cmath.exp(1.0j * phi)
    if abs(w - 1.0) < _PHASE_TOL:
        raise InfiniteGainError(f"phi = {phi} gives unbounded gain")
    g = (1.0 + w) / (1.0 - w)
    g2 = abs(g) ** 2
    a2 = abs(alpha) ** 2
    t = GATE_TRANSMISSION if gate == "ppbs" else 1.0
    p = math.exp(-a2) * t * math.sin(phi / 2.0) ** 2 * (1.0 + t * g2 * a2)
    return AnalyticPrediction(
        g=g,
        g2=g2,
        g2_nondet=GATE_TRANSMISSION * g2,
        p_success=p,
        norm_in=math.exp(-a2 / 2.0),
        norm_out=math.exp(-t * g2 * a2 / 2.0),
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
