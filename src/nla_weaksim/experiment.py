"""Virtual experiments built on the amplifier protocol.

Covers the bench workflow: measure the input state size through the gate,
sweep the heralded output size against it, scan gain versus meter phase,
and interference fringe scans whose visibility certifies that the
amplified state kept its phase.  Detection is modeled with a saturating
herald efficiency and, optionally, Poissonian counting noise.

State sizes are vacuum-relative odds P(1)/P(0) rather than raw one-photon
probabilities; for truncated coherent inputs the odds equal |alpha|^2
exactly, which keeps gain ratios free of O(|alpha|^2) preparation bias.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import fock, protocol
from .elements import DEFAULT_LAYOUT, ModeLayout
from .fock import State, StateVector
from .protocol import (
    GateKind,
    MeterSetting,
    SignalSpec,
    analytic,
    phi_for_gain,
)

COUNT_OVERFLOW = 1e15


class MeasurementConvention(enum.Enum):
    """How the input size entering a gain ratio was obtained."""

    TRUE_INPUT = "true_input"
    THROUGH_GATE = "through_gate"


@dataclass(frozen=True)
class HeraldingModel:
    """Saturating herald efficiency p -> p / (1 + p / epsilon).

    Linear with unit slope for p << epsilon and bounded by epsilon; stands in
    for detector and coupling roll-off at high rate.
    """

    epsilon: float = 0.35

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside (0, 1]")

    def apply(self, probability: float) -> float:
        if probability < 0.0:
            raise ValueError(f"negative probability {probability}")
        return probability / (1.0 + probability / self.epsilon)


@dataclass(frozen=True)
class CountingModel:
    """Poissonian counting for a run of `shots` trials.

    shots = 0 disables sampling.  rate_scale multiplies probabilities before
    drawing, standing in for duty cycle and collection efficiency.  The seed
    is required once shots > 0 so runs are reproducible.
    """

    shots: int = 0
    seed: Optional[int] = None
    rate_scale: float = 1.0

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError(f"shots {self.shots} negative")
        if self.shots > 0 and self.seed is None:
            raise ValueError("seed is required when shots > 0")
        if self.rate_scale <= 0.0:
            raise ValueError(f"rate_scale {self.rate_scale} not positive")

    @property
    def enabled(self) -> bool:
        return self.shots > 0


@dataclass
class SweepResult:
    """Tabular result of a sweep; columns name the row entries in order."""

    kind: str
    columns: list[str]
    rows: list[list[object]]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VisibilityFit:
    amplitude: float
    offset: float
    phase: float
    visibility: float
    uncertainty: float


@dataclass
class FringeScan:
    nominal_g2: float
    bias_ratio: float
    phase_points: list[float]
    rates: list[float]
    counts: Optional[list[int]]
    errors: Optional[list[float]]
    fit: VisibilityFit
    classical_bound: float


def state_size(state: State, mode: int) -> float:
    """Vacuum-relative odds P(1)/P(0) of the given mode."""
    p0 = fock.occupancy_probability(state, mode, 0)
    p1 = fock.occupancy_probability(state, mode, 1)
    if p0 <= 0.0:
        raise ZeroDivisionError("mode has no vacuum component; odds undefined")
    return p1 / p0


def measure_input_size(
    signal: SignalSpec,
    gate: GateKind = "ppbs",
    *,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> float:
    """Input size as the bench sees it: through the gate, meter |H>.

    The signal crosses the gate with the meter photon prepared |H>; a herald
    on one H meter photon postselects the transmitted signal, whose size is
    the true input size scaled by the gate transmission (exactly 1/3 for the
    postselected gate, 1 for the ideal one).
    """
    sig_state, _ = protocol.prepare_signal(signal, photon_cap, layout=layout)
    _, blocks = protocol.herald_operators(gate, photon_cap, layout)
    # meter H in, herald H out
    cond, _ = protocol.apply_herald(blocks[0, 0], sig_state)
    if cond is None:
        raise ZeroDivisionError("no transmitted population; cannot size the input")
    return state_size(cond, layout.signal_v)


def true_input_size(signal: SignalSpec, *, photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
                    layout: ModeLayout = DEFAULT_LAYOUT) -> float:
    sig_state, _ = protocol.prepare_signal(signal, photon_cap, layout=layout)
    return state_size(sig_state, layout.signal_v)


def simulate_counts(
    probabilities: Sequence[float],
    counting: CountingModel,
    *,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Poisson draws for each probability with per-entry RNG streams.

    Each entry uses default_rng((seed, stream, index)) so results do not
    depend on evaluation order and stay reproducible byte-for-byte.  Returns
    (counts, sqrt-count errors, zero_flag); a zero draw contributes zero
    error and raises the flag.
    """
    counts = np.zeros(len(probabilities), dtype=np.int64)
    errors = np.zeros(len(probabilities), dtype=float)
    zero_flag = False
    for i, p in enumerate(probabilities):
        lam = p * counting.rate_scale * counting.shots
        if lam > COUNT_OVERFLOW:
            raise OverflowError(f"expected count {lam:.3e} too large to sample")
        rng = np.random.default_rng((counting.seed, stream, i))
        c = int(rng.poisson(lam))
        counts[i] = c
        if c > 0:
            errors[i] = math.sqrt(c)
        else:
            zero_flag = True
    return counts, errors, zero_flag


def _sampled_gain(
    counts: np.ndarray,
) -> tuple[float, float, bool]:
    """Gain estimate from (coinc_out, singles_out, coinc_in, singles_in).

    Sizes are estimated as coincidence over singles; the gain is their
    ratio, with the usual root-sum inverse-count relative error.  Any zero
    count makes the estimate NaN and raises the flag.
    """
    c_out, s_out, c_in, s_in = (int(c) for c in counts)
    if 0 in (c_out, s_out, c_in, s_in):
        return math.nan, math.nan, True
    gain = (c_out / s_out) / (c_in / s_in)
    rel = math.sqrt(1.0 / c_out + 1.0 / s_out + 1.0 / c_in + 1.0 / s_in)
    return gain, gain * rel, False


GAIN_SWEEP_COLUMNS = [
    "nominal_g2",
    "phi",
    "input_true",
    "input_measured",
    "output_ideal",
    "output_model",
    "herald_probability",
    "truncation_weight",
    "coinc_out",
    "singles_out",
    "coinc_in",
    "singles_in",
    "gain_sampled",
    "gain_error",
    "flag",
]


def _sweep_point(
    phi: float,
    nominal_g2: float,
    size: float,
    gate: GateKind,
    herald: Optional[HeraldingModel],
    counting: Optional[CountingModel],
    photon_cap: int,
    convention: MeasurementConvention,
    stream: int,
) -> list[object]:
    alpha = math.sqrt(size)
    spec = SignalSpec("coherent", alpha)
    out = protocol.run_nla(spec, MeterSetting(phi), gate, photon_cap=photon_cap)
    flag = ""
    if out.conditional_state is None:
        return [nominal_g2, phi, size, math.nan, math.nan, math.nan,
                out.herald_probability, out.truncation_weight,
                0, 0, 0, 0, math.nan, math.nan, "zero_herald"]
    input_true = true_input_size(spec, photon_cap=photon_cap)
    if convention is MeasurementConvention.THROUGH_GATE:
        input_measured = measure_input_size(spec, gate, photon_cap=photon_cap)
    else:
        input_measured = input_true
    output_ideal = state_size(out.conditional_state, DEFAULT_LAYOUT.signal_v)
    # the detection chain rails on large heralded sizes: the model curve
    # follows the ideal one for sizes << epsilon and saturates at epsilon,
    # so the apparent gain cannot exceed epsilon over the measured input
    output_model = herald.apply(output_ideal) if herald is not None \
        else output_ideal
    row: list[object] = [
        nominal_g2, phi, input_true, input_measured, output_ideal, output_model,
        out.herald_probability, out.truncation_weight,
    ]
    if counting is not None and counting.enabled:
        p0_out = 1.0 / (1.0 + output_model)
        coinc_out = out.herald_probability * output_model * p0_out
        singles_out = out.herald_probability * p0_out
        p0_in = 1.0 / (1.0 + input_measured)
        coinc_in = input_measured * p0_in
        singles_in = p0_in
        counts, _, zero = simulate_counts(
            [coinc_out, singles_out, coinc_in, singles_in], counting, stream=stream
        )
        gain_sampled, gain_err, nanflag = _sampled_gain(counts)
        if zero or nanflag:
            flag = "zero_count"
        row += [int(c) for c in counts] + [gain_sampled, gain_err, flag]
    else:
        row += [0, 0, 0, 0, math.nan, math.nan, flag]
    return row


def gain_sweep(
    nominal_g2: float,
    input_sizes: Sequence[float],
    gate: GateKind = "ppbs",
    *,
    herald: Optional[HeraldingModel] = None,
    counting: Optional[CountingModel] = None,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    convention: MeasurementConvention = MeasurementConvention.THROUGH_GATE,
    stream_offset: int = 0,
) -> SweepResult:
    """Output size versus input size at a fixed nominal intensity gain.

    stream_offset shifts the per-point RNG streams so repeated sweeps under
    one seed draw independent noise.
    """
    phi = phi_for_gain(nominal_g2)
    rows = [
        _sweep_point(phi, nominal_g2, s, gate, herald, counting, photon_cap,
                     convention, stream_offset + i)
        for i, s in enumerate(input_sizes)
    ]
    return SweepResult(
        kind="gain_sweep",
        columns=list(GAIN_SWEEP_COLUMNS),
        rows=rows,
        meta={
            "nominal_g2": nominal_g2,
            "phi": phi,
            "gate": gate,
            "convention": convention.value,
            "epsilon": herald.epsilon if herald is not None else None,
            "shots": counting.shots if counting is not None else 0,
            "seed": counting.seed if counting is not None else None,
        },
    )


GAIN_VS_PHI_COLUMNS = ["phi"] + GAIN_SWEEP_COLUMNS[:1] + GAIN_SWEEP_COLUMNS[2:]


def gain_vs_phi(
    input_sizes: Sequence[float],
    phi_grid: Sequence[float],
    gate: GateKind = "ppbs",
    *,
    herald: Optional[HeraldingModel] = None,
    counting: Optional[CountingModel] = None,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    convention: MeasurementConvention = MeasurementConvention.THROUGH_GATE,
) -> SweepResult:
    """Output size versus meter phase for each input size."""
    rows = []
    stream = 0
    for size in input_sizes:
        for phi in phi_grid:
            g2 = analytic(phi, 0.0).g2
            point = _sweep_point(phi, g2, size, gate, herald, counting,
                                 photon_cap, convention, stream)
            rows.append([point[1]] + [point[0]] + point[2:])
            stream += 1
    return SweepResult(
        kind="gain_vs_phi",
        columns=list(GAIN_VS_PHI_COLUMNS),
        rows=rows,
        meta={
            "input_sizes": list(input_sizes),
            "gate": gate,
            "convention": convention.value,
            "epsilon": herald.epsilon if herald is not None else None,
            "shots": counting.shots if counting is not None else 0,
            "seed": counting.seed if counting is not None else None,
        },
    )


def with_sampled_output(result: SweepResult) -> SweepResult:
    """Appends an output_sampled column, gain_sampled times input_measured."""
    ci = {c: i for i, c in enumerate(result.columns)}
    rows = []
    for row in result.rows:
        g = row[ci["gain_sampled"]]
        m = row[ci["input_measured"]]
        s = g * m if isinstance(g, float) and not math.isnan(g) else math.nan
        rows.append(list(row) + [s])
    return SweepResult(result.kind, result.columns + ["output_sampled"], rows,
                       result.meta)


def classical_visibility_bound(nominal_g2: float) -> float:
    """Best fringe visibility a gain-g2 classical (cloning-limited) amplifier
    allows for an equal-amplitude input, 1/sqrt(g2)."""
    if nominal_g2 < 1.0:
        raise ValueError(f"bound defined for gains >= 1, got {nominal_g2}")
    return 1.0 / math.sqrt(nominal_g2)


def _fringe_rate(cond: State, layout: ModeLayout, theta: float) -> float:
    """Detection rate after interfering the signal H and V one-photon
    amplitudes with an analysis phase theta."""
    basis = cond.basis
    h_occ = [0] * basis.num_modes
    h_occ[basis.position(layout.signal_h)] = 1
    v_occ = [0] * basis.num_modes
    v_occ[basis.position(layout.signal_v)] = 1
    ih = basis.index_of(tuple(h_occ))
    iv = basis.index_of(tuple(v_occ))
    if isinstance(cond, StateVector):
        c10 = cond.amplitudes[ih]
        c01 = cond.amplitudes[iv]
        return abs(c10 + np.exp(-1.0j * theta) * c01) ** 2 / 2.0
    m = cond.matrix
    return float(
        (m[ih, ih] + m[iv, iv]).real / 2.0
        + (np.exp(-1.0j * theta) * m[ih, iv]).real
    )


def _fit_fringe(
    thetas: np.ndarray, values: np.ndarray, sigmas: Optional[np.ndarray]
) -> VisibilityFit:
    """Weighted least squares of A cos(theta) + B sin(theta) + C.

    Visibility is sqrt(A^2 + B^2) / C with the uncertainty propagated from
    the parameter covariance (zero when no noise model is attached).
    """
    design = np.column_stack([np.cos(thetas), np.sin(thetas), np.ones_like(thetas)])
    if sigmas is None:
        w = np.ones_like(values)
    else:
        w = 1.0 / np.where(sigmas > 0, sigmas, 1.0)
    wd = design * w[:, None]
    wv = values * w
    params, *_ = np.linalg.lstsq(wd, wv, rcond=None)
    a, b, c = params
    amp = math.hypot(a, b)
    vis = amp / c if c > 0 else math.nan
    if sigmas is None:
        unc = 0.0
    else:
        cov = np.linalg.inv(wd.T @ wd)
        if amp > 0 and c > 0:
            grad = np.array([a / (amp * c), b / (amp * c), -amp / c**2])
            unc = float(math.sqrt(grad @ cov @ grad))
        else:
            unc = math.nan
    phase = math.atan2(-b, a)
    return VisibilityFit(float(amp), float(c), phase, float(vis), unc)


def visibility_experiment(
    nominal_g2: float,
    *,
    input_mag: float = 0.0015,
    phase_points: int = 16,
    gate: GateKind = "ideal",
    bias_ratio: Optional[float] = None,
    counting: Optional[CountingModel] = None,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    layout: ModeLayout = DEFAULT_LAYOUT,
    stream: int = 0,
) -> FringeScan:
    """Fringe scan of the heralded state against an analysis phase.

    The input carries coherent amplitudes on both polarizations with
    intensity ratio H:V = bias_ratio (default: the nominal gain, which
    pre-compensates the amplification so the output interferes at full
    contrast).  Rates at `phase_points` analysis phases are fit to a
    sinusoid; visibility above classical_visibility_bound(nominal_g2)
    certifies phase preservation beyond any classical amplifier.
    """
    if bias_ratio is None:
        bias_ratio = nominal_g2
    if not bias_ratio >= 0.0:
        raise ValueError(f"bias_ratio {bias_ratio} must be nonnegative")
    phi = phi_for_gain(nominal_g2)
    alpha_v = input_mag
    alpha_h = math.sqrt(bias_ratio) * input_mag
    state, tail = protocol.two_mode_coherent(alpha_h, alpha_v, photon_cap,
                                             layout=layout)
    out = protocol.run_nla(state, MeterSetting(phi), gate, photon_cap=photon_cap,
                           layout=layout)
    if out.conditional_state is None:
        raise ZeroDivisionError("herald probability vanished in fringe scan")
    thetas = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    rates = np.array(
        [_fringe_rate(out.conditional_state, layout, t) for t in thetas]
    )
    counts_list: Optional[list[int]] = None
    errors_list: Optional[list[float]] = None
    if counting is not None and counting.enabled:
        counts, errors, _ = simulate_counts(rates, counting, stream=stream)
        scale = counting.rate_scale * counting.shots
        values = counts / scale
        sigmas = np.where(errors > 0, errors / scale, np.max(errors) / scale + 1e-30)
        fit = _fit_fringe(thetas, values, sigmas)
        counts_list = [int(c) for c in counts]
        errors_list = [float(e) for e in errors]
    else:
        fit = _fit_fringe(thetas, rates, None)
    return FringeScan(
        nominal_g2=nominal_g2,
        bias_ratio=bias_ratio,
        phase_points=[float(t) for t in thetas],
        rates=[float(r) for r in rates],
        counts=counts_list,
        errors=errors_list,
        fit=fit,
        classical_bound=classical_visibility_bound(nominal_g2),
    )
