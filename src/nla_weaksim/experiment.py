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
from typing import Iterable, Optional, Sequence

import numpy as np

from . import fock, protocol
from .elements import DEFAULT_LAYOUT, ModeLayout
from .fock import State
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
        if not probability >= 0.0:
            raise ValueError(f"probability {probability} is not nonnegative")
        return probability / (1.0 + probability / self.epsilon)


@dataclass(frozen=True)
class CountingModel:
    """Poissonian counting for a run of `shots` >= 1 trials.

    rate_scale multiplies probabilities before drawing, standing in for duty
    cycle and collection efficiency.  The seed makes runs reproducible.  A
    run without counting passes no model (None).
    """

    shots: int
    seed: int
    rate_scale: float = 1.0

    def __post_init__(self):
        if not self.shots >= 1:
            raise ValueError(f"shots {self.shots} not positive")
        if self.seed is None:
            raise ValueError("seed is required")
        if not self.rate_scale > 0.0:
            raise ValueError(f"rate_scale {self.rate_scale} not positive")


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
    fit: VisibilityFit
    classical_bound: float


def state_size(state: State, mode: int) -> float:
    """Vacuum-relative odds P(1)/P(0) of the given mode."""
    # a basis at cap 0 has no n = 1
    p0, p1 = (fock.occupancy_distribution(state, mode).tolist() + [0.0])[:2]
    return _defined(protocol._odds(p0, p1))


def _defined(size: Optional[float]) -> float:
    """The size, or a ZeroDivisionError where its marginal had no vacuum."""
    if size is None:
        raise ZeroDivisionError("mode has no vacuum component; odds undefined")
    return size


def measure_input_size(
    signal: SignalSpec,
    gate: GateKind = "ppbs",
    *,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    layout: ModeLayout = DEFAULT_LAYOUT,
) -> float:
    """Input size as the bench sees it: through the gate, meter |H>.

    The transmitted signal's size is the true input size scaled by the gate
    transmission (exactly 1/3 for the postselected gate, 1 for the ideal
    one).  A run reports the same size (ProtocolOutcome.size_in_measured).
    The size does not depend on the layout: it changes nothing, and is
    accepted only because the benchmark's cold-gate workload passes one.
    The signal faces TRUNCATION_BOUND as a run's does, and the size is read
    from the same product with the gate's readout rows (protocol._readout).
    """
    sig_state, beyond = protocol.prepare_signal(signal, photon_cap)
    *_, size = protocol._read_signal(gate, photon_cap, sig_state, beyond,
                                     signal.kind)
    return _defined(size)


def simulate_counts(
    probabilities: Sequence[float],
    counting: CountingModel,
    *,
    stream: int = 0,
) -> np.ndarray:
    """Poisson counts for each probability with per-entry RNG streams.

    Each entry uses default_rng((seed, stream, index)) so results do not
    depend on evaluation order and stay reproducible byte-for-byte.
    """
    counts = np.zeros(len(probabilities), dtype=np.int64)
    for i, p in enumerate(probabilities):
        lam = p * counting.rate_scale * counting.shots
        if lam > COUNT_OVERFLOW:
            raise OverflowError(f"expected count {lam:.3e} too large to sample")
        rng = np.random.default_rng((counting.seed, stream, i))
        counts[i] = rng.poisson(lam)
    return counts


def _sampled_gain(counts: np.ndarray) -> tuple[float, float]:
    """Gain estimate from (coinc_out, singles_out, coinc_in, singles_in).

    Sizes are estimated as coincidence over singles; the gain is their
    ratio, with the usual root-sum inverse-count relative error.  Any zero
    count makes the estimate NaN.
    """
    c_out, s_out, c_in, s_in = (int(c) for c in counts)
    if 0 in (c_out, s_out, c_in, s_in):
        return math.nan, math.nan
    gain = (c_out / s_out) / (c_in / s_in)
    rel = math.sqrt(1.0 / c_out + 1.0 / s_out + 1.0 / c_in + 1.0 / s_in)
    return gain, gain * rel


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


def _sweep(
    kind: str,
    columns: list[str],
    meta: dict,
    points: Iterable[tuple[list[object], float, float]],
    gate: GateKind,
    herald: Optional[HeraldingModel],
    counting: Optional[CountingModel],
    photon_cap: int,
    convention: MeasurementConvention,
) -> SweepResult:
    """A sweep with one row per (leading entries, phi, input size) point.

    Row r draws its counts from stream r.  Each row's input sizes, true and
    measured, are the ones its run reports.
    """
    rows = []
    for stream, (lead, phi, size) in enumerate(points):
        spec = SignalSpec("coherent", math.sqrt(size))
        out = protocol.run_nla(spec, MeterSetting(phi), gate, photon_cap=photon_cap)
        if out.conditional_state is None:
            rows.append(lead + [size, math.nan, math.nan, math.nan,
                                out.herald_probability, out.truncation_weight,
                                0, 0, 0, 0, math.nan, math.nan, "zero_herald"])
            continue
        input_true = _defined(out.size_in_true)
        input_measured = _defined(out.size_in_measured) \
            if convention is MeasurementConvention.THROUGH_GATE else input_true
        output_ideal = out.size_out
        if output_ideal is None:
            raise ZeroDivisionError("conditional state has no vacuum component")
        # the detection chain rails on large heralded sizes: the model curve
        # follows the ideal one for sizes << epsilon and saturates at epsilon,
        # so the apparent gain cannot exceed epsilon over the measured input
        output_model = herald.apply(output_ideal) if herald is not None \
            else output_ideal
        row = lead + [
            input_true, input_measured, output_ideal, output_model,
            out.herald_probability, out.truncation_weight,
        ]
        if counting is not None:
            p0_out = 1.0 / (1.0 + output_model)
            coinc_out = out.herald_probability * output_model * p0_out
            singles_out = out.herald_probability * p0_out
            p0_in = 1.0 / (1.0 + input_measured)
            coinc_in = input_measured * p0_in
            singles_in = p0_in
            counts = simulate_counts(
                [coinc_out, singles_out, coinc_in, singles_in], counting,
                stream=stream,
            )
            gain_sampled, gain_err = _sampled_gain(counts)
            flag = "zero_count" if 0 in counts else ""
            row += [int(c) for c in counts] + [gain_sampled, gain_err, flag]
        else:
            row += [0, 0, 0, 0, math.nan, math.nan, ""]
        rows.append(row)
    return SweepResult(kind, columns, rows, {
        **meta,
        "gate": gate,
        "convention": convention.value,
        "epsilon": herald.epsilon if herald is not None else None,
        "shots": counting.shots if counting is not None else 0,
        "seed": counting.seed if counting is not None else None,
    })


def gain_sweep(
    gains: Sequence[float],
    input_sizes: Sequence[float],
    gate: GateKind = "ppbs",
    *,
    herald: Optional[HeraldingModel] = None,
    counting: Optional[CountingModel] = None,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
    convention: MeasurementConvention = MeasurementConvention.THROUGH_GATE,
) -> SweepResult:
    """Output size versus input size at each nominal intensity gain.

    Rows run over the input sizes for each gain in turn.  With a counting
    model an output_sampled column, gain_sampled times input_measured,
    closes each row.
    """
    def points():
        for g2 in gains:
            phi = phi_for_gain(g2)
            for size in input_sizes:
                yield [g2, phi], phi, size

    res = _sweep("gain_sweep", list(GAIN_SWEEP_COLUMNS),
                 {"nominal_g2": list(gains)}, points(), gate, herald, counting,
                 photon_cap, convention)
    if counting is not None:
        g, m = res.columns.index("gain_sampled"), res.columns.index("input_measured")
        for row in res.rows:
            row.append(row[g] * row[m])
        res.columns.append("output_sampled")
    return res


GAIN_VS_PHI_COLUMNS = ["phi", "nominal_g2"] + GAIN_SWEEP_COLUMNS[2:]


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
    def points():
        for size in input_sizes:
            for phi in phi_grid:
                yield [phi, analytic(phi, 0.0).g2], phi, size

    return _sweep("gain_vs_phi", list(GAIN_VS_PHI_COLUMNS),
                  {"input_sizes": list(input_sizes)}, points(), gate, herald,
                  counting, photon_cap, convention)


def classical_visibility_bound(nominal_g2: float) -> float:
    """Best fringe visibility a gain-g2 classical (cloning-limited) amplifier
    allows for an equal-amplitude input, 1/sqrt(g2)."""
    if nominal_g2 < 1.0:
        raise ValueError(f"bound defined for gains >= 1, got {nominal_g2}")
    return 1.0 / math.sqrt(nominal_g2)


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
    if not c > 0:
        raise ZeroDivisionError(f"fringe fit offset {c:.3e} is not positive")
    amp = math.hypot(a, b)
    vis = amp / c
    if sigmas is None:
        unc = 0.0
    else:
        cov = np.linalg.inv(wd.T @ wd)
        if amp > 0:
            grad = np.array([a / (amp * c), b / (amp * c), -amp / c**2])
            unc = float(math.sqrt(grad @ cov @ grad))
        else:
            unc = math.nan
    phase = math.atan2(-b, a)
    return VisibilityFit(float(amp), float(c), phase, float(vis), unc)


def visibility_experiment(
    gains: Sequence[float],
    *,
    input_mag: float = 0.0015,
    phase_points: int = 16,
    gate: GateKind = "ideal",
    bias_ratio: Optional[float] = None,
    counting: Optional[CountingModel] = None,
    photon_cap: int = protocol.DEFAULT_PHOTON_CAP,
) -> list[FringeScan]:
    """Fringe scans of the heralded state against an analysis phase, one
    per nominal gain; scan k draws its counts from stream k.

    The input carries coherent amplitudes on both polarizations with
    intensity ratio H:V = bias_ratio (default: the nominal gain, which
    pre-compensates the amplification so the output interferes at full
    contrast).  Rates at `phase_points` analysis phases are fit to a
    sinusoid; visibility above classical_visibility_bound(nominal_g2)
    certifies phase preservation beyond any classical amplifier.  A
    vanished herald, or a fit whose offset is not positive, as from a
    counted scan that drew no counts, raises ZeroDivisionError naming the
    gain.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    scans = []
    for stream, nominal_g2 in enumerate(gains):
        bias = nominal_g2 if bias_ratio is None else bias_ratio
        if not bias >= 0.0:
            raise ValueError(f"bias_ratio {bias} must be nonnegative")
        phi = phi_for_gain(nominal_g2)
        state, _ = protocol.two_mode_coherent(math.sqrt(bias) * input_mag,
                                              input_mag, photon_cap)
        out = protocol.run_nla(state, MeterSetting(phi), gate,
                               photon_cap=photon_cap)
        if out.conditional_state is None:
            raise ZeroDivisionError(
                f"herald probability vanished in fringe scan at gain {nominal_g2:g}")
        # the heralded state of a pure input is pure; its H and V one-photon
        # amplitudes interfere at phase theta, in scalar steps per phase
        cond = out.conditional_state
        c10, c01 = (cond.amplitudes[cond.basis.index_of(occ)]
                    for occ in ((1, 0), (0, 1)))
        rates = np.array(
            [abs(c10 + np.exp(-1.0j * t) * c01) ** 2 / 2.0 for t in thetas]
        )
        values, sigmas = rates, None
        counts_list: Optional[list[int]] = None
        if counting is not None:
            counts = simulate_counts(rates, counting, stream=stream)
            errors = np.sqrt(counts)
            scale = counting.rate_scale * counting.shots
            values = counts / scale
            sigmas = np.where(errors > 0, errors / scale,
                              np.max(errors) / scale + 1e-30)
            counts_list = [int(c) for c in counts]
        try:
            fit = _fit_fringe(thetas, values, sigmas)
        except ZeroDivisionError as exc:
            raise ZeroDivisionError(f"{exc} at gain {nominal_g2:g}") from exc
        scans.append(FringeScan(
            nominal_g2=nominal_g2,
            bias_ratio=bias,
            phase_points=[float(t) for t in thetas],
            rates=[float(r) for r in rates],
            counts=counts_list,
            fit=fit,
            classical_bound=classical_visibility_bound(nominal_g2),
        ))
    return scans
