"""Command line front end.

Subcommands:
  protocol     single heralded run at one meter phase or nominal gain
  gain-sweep   heralded output size versus input size at fixed gains
  gain-vs-phi  heralded output size versus meter phase
  visibility   fringe scans of the heralded state against analysis phase

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(unbounded gain at phi = 0, vanished herald, count overflow, a fringe scan
with too few counts to fit).

Environment: NLA_WEAKSIM_OUTDIR prefixes relative --output paths;
NLA_WEAKSIM_MAX_BASIS caps the truncated basis size.

build_parser declares the one argparse tree.  A subcommand's options are
read in one walk over its parser's action table (exact option strings,
`--opt value` or `--opt=value`); any other argv, and help, goes to the
tree's parse_args, which parses it or writes argparse's usage and errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import io as _io
from . import protocol
from .experiment import (
    CountingModel,
    HeraldingModel,
    MeasurementConvention,
    SweepResult,
    gain_sweep,
    gain_vs_phi,
    measure_input_size,
    true_input_size,
    visibility_experiment,
)
from .fock import BasisSizeError, TruncationError
from .protocol import InfiniteGainError, MeterSetting, SignalSpec

OUTDIR_ENV = "NLA_WEAKSIM_OUTDIR"

DEFAULT_SWEEP_GAINS = "2.1213203435596424,3,6"
DEFAULT_SWEEP_INPUTS = "1e-5:1e-3:log13"
DEFAULT_PHI_INPUTS = "0.0006,0.0012"
DEFAULT_PHI_GRID = "0.1:3.1:lin31"
DEFAULT_VIS_GAINS = "2,3,4,5"

_SIGNAL_KINDS = {
    "coherent": "coherent",
    "qubit": "qubit_truncated",
    "qubit_truncated": "qubit_truncated",
    "phase-averaged": "phase_averaged",
    "phase_averaged": "phase_averaged",
}


class ConfigError(Exception):
    """Bad option values or combinations; maps to exit code 2."""


class NumericalFailure(Exception):
    """Run-level numerical breakdown; maps to exit code 3."""


def parse_grid(spec: str) -> list[float]:
    """Grid syntax: 'lo:hi:logN', 'lo:hi:linN', or a comma list of values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {spec!r} needs lo:hi:kindN")
        lo_s, hi_s, tail = parts
        kind, num_s = tail[:3], tail[3:]
        if kind not in ("log", "lin") or not num_s.isdigit():
            raise ConfigError(f"grid {spec!r} needs log<N> or lin<N> after the bounds")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise ConfigError(f"grid {spec!r} has non-numeric bounds") from exc
        n = int(num_s)
        if n < 2:
            raise ConfigError(f"grid {spec!r} needs at least 2 points")
        if not hi > lo:
            raise ConfigError(f"grid {spec!r} needs hi > lo")
        if kind == "log":
            if lo <= 0:
                raise ConfigError(f"log grid {spec!r} needs positive bounds")
            step = (math.log(hi) - math.log(lo)) / (n - 1)
            values = [math.exp(math.log(lo) + step * i) for i in range(n)]
        else:
            step = (hi - lo) / (n - 1)
            values = [lo + step * i for i in range(n)]
    else:
        try:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"could not parse value list {spec!r}") from exc
        if not values:
            raise ConfigError(f"empty value list {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"grid {spec!r} has non-finite values")
    return values


def _resolve_output(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    if p.parent != Path("."):
        try:
            p.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {p.parent}: {exc}") from exc
    return p


def _emit(text: str, path: Optional[Path]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _counting(ns: argparse.Namespace) -> Optional[CountingModel]:
    if ns.shots < 0:
        raise ConfigError(f"--shots {ns.shots} is negative; 0 disables sampling")
    if ns.shots == 0:
        return None
    if ns.seed is None:
        raise ConfigError("--seed is required when --shots > 0")
    if ns.seed < 0:
        raise ConfigError(f"--seed {ns.seed} is negative; seeds start at 0")
    return CountingModel(shots=ns.shots, seed=ns.seed, rate_scale=ns.rate_scale)


def _herald(ns: argparse.Namespace) -> Optional[HeraldingModel]:
    if ns.epsilon < 0.0:
        raise ConfigError(f"--epsilon {ns.epsilon} is negative; 0 disables it")
    if ns.epsilon == 0.0:
        return None
    return HeraldingModel(epsilon=ns.epsilon)


def _convention(name: str) -> MeasurementConvention:
    if name == "through":
        return MeasurementConvention.THROUGH_GATE
    if name == "true":
        return MeasurementConvention.TRUE_INPUT
    raise ConfigError(f"unknown convention {name!r}")


CONFIG_EXCLUDE = {"config", "output", "fn"}


def _effective_config(ns: argparse.Namespace) -> dict:
    """The options a JSON envelope records; the envelope sorts them."""
    return {k: v for k, v in vars(ns).items() if k not in CONFIG_EXCLUDE}


def _load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _render_table(result: SweepResult, ns: argparse.Namespace,
                  svg_spec: Optional[dict]) -> str:
    fmt = ns.format
    if fmt == "csv":
        return _io.csv_text(result)
    if fmt == "json":
        return _io.json_text(result, config=_effective_config(ns))
    if fmt == "svg":
        if svg_spec is None:
            raise ConfigError("no plot defined for this command; use csv or json")
        return _io.svg_text(result, **svg_spec)
    raise ConfigError(f"unknown format {fmt!r}")


def _phi_from(ns: argparse.Namespace) -> float:
    if ns.phi is not None:
        return math.radians(ns.phi) if ns.degrees else ns.phi
    if ns.gain is None:
        raise ConfigError("one of --phi and --gain is required")
    return protocol.phi_for_gain(ns.gain)


def cmd_protocol(ns: argparse.Namespace) -> int:
    kind = _SIGNAL_KINDS.get(ns.signal)
    if kind is None:
        raise ConfigError(f"unknown signal kind {ns.signal!r}")
    if ns.alpha2 < 0:
        raise ConfigError(f"--alpha2 {ns.alpha2} is negative")
    phi = _phi_from(ns)
    spec = SignalSpec(kind, math.sqrt(ns.alpha2), loss=ns.loss)
    pred = protocol.analytic(phi, spec.alpha_at_gate, ns.gate)
    out = protocol.run_nla(spec, MeterSetting(phi), ns.gate, photon_cap=ns.cap)
    if out.conditional_state is None:
        raise NumericalFailure(
            f"herald probability {out.herald_probability:.3e} vanished"
        )
    size_out = out.size_out
    if size_out is None:
        raise NumericalFailure("conditional state has no vacuum component")
    size_true = true_input_size(spec, photon_cap=ns.cap)
    size_meas = measure_input_size(spec, ns.gate, photon_cap=ns.cap)
    if not size_meas > 0:
        raise ConfigError(
            f"no input photon reaches the gate (--alpha2 {ns.alpha2:g}, "
            f"--loss {ns.loss:g}), so the gain is undefined"
        )
    gain_est = size_out / size_meas
    amp = out.amplitude_gain
    row = [
        phi, pred.g2, ns.gate, kind, ns.alpha2, ns.loss,
        out.herald_probability, pred.p_success,
        size_true, size_meas, size_out, gain_est,
        out.p1_out,
        amp.real if amp is not None else math.nan,
        amp.imag if amp is not None else math.nan,
        out.truncation_weight,
    ]
    result = SweepResult(
        kind="protocol",
        columns=[
            "phi", "g2", "gate", "signal", "alpha2", "loss",
            "herald_probability", "herald_closed_form",
            "size_in_true", "size_in_measured", "size_out", "gain_measured",
            "p1_out", "amplitude_gain_re", "amplitude_gain_im",
            "truncation_weight",
        ],
        rows=[row],
        meta={"norm_in": pred.norm_in, "norm_out": pred.norm_out},
    )
    _emit(_render_table(result, ns, None), _resolve_output(ns.output))
    return 0


def _herald_exit_code(result: SweepResult) -> int:
    """3 when any row flags a vanished herald, else 0."""
    flag = result.columns.index("flag")
    return 3 if any(row[flag] == "zero_herald" for row in result.rows) else 0


def cmd_gain_sweep(ns: argparse.Namespace) -> int:
    gains = parse_grid(ns.gains)
    inputs = parse_grid(ns.inputs)
    if any(g < 0 for g in gains):
        raise ConfigError("nominal gains must be nonnegative")
    if any(s <= 0 for s in inputs):
        raise ConfigError("input sizes must be positive")
    herald = _herald(ns)
    counting = _counting(ns)
    convention = _convention(ns.convention)
    res = gain_sweep(
        gains, inputs, ns.gate, herald=herald, counting=counting,
        photon_cap=ns.cap, convention=convention,
    )
    svg = {
        "x_column": "input_measured",
        "y_columns": ["output_ideal", "output_model"],
        "logx": True,
        "logy": True,
        "title": "heralded output size vs measured input size",
    }
    if counting is not None:
        svg["sampled_column"] = "output_sampled"
    _emit(_render_table(res, ns, svg), _resolve_output(ns.output))
    return _herald_exit_code(res)


def cmd_gain_vs_phi(ns: argparse.Namespace) -> int:
    inputs = parse_grid(ns.inputs)
    phis = parse_grid(ns.phis)
    if ns.degrees:
        phis = [math.radians(p) for p in phis]
    if any(s <= 0 for s in inputs):
        raise ConfigError("input sizes must be positive")
    res = gain_vs_phi(
        inputs, phis, ns.gate, herald=_herald(ns), counting=_counting(ns),
        photon_cap=ns.cap, convention=_convention(ns.convention),
    )
    # one column pair per input size so the plot shows separate curves
    ci = {c: i for i, c in enumerate(res.columns)}
    wide_cols = ["phi"]
    for s in inputs:
        wide_cols += [f"ideal_{s:g}", f"model_{s:g}"]
    wide_rows = []
    for j, phi in enumerate(phis):
        row: list[object] = [phi]
        for i in range(len(inputs)):
            src = res.rows[i * len(phis) + j]
            row += [src[ci["output_ideal"]], src[ci["output_model"]]]
        wide_rows.append(row)
    wide = SweepResult("gain_vs_phi_wide", wide_cols, wide_rows, res.meta)
    svg = {
        "x_column": "phi",
        "y_columns": wide_cols[1:],
        "logy": True,
        "title": "heralded output size vs meter phase",
    }
    if ns.format == "svg":
        _emit(_io.svg_text(wide, **svg), _resolve_output(ns.output))
    else:
        _emit(_render_table(res, ns, None), _resolve_output(ns.output))
    return _herald_exit_code(res)


def cmd_visibility(ns: argparse.Namespace) -> int:
    gains = parse_grid(ns.gains)
    if any(g < 1.0 for g in gains):
        raise ConfigError("visibility bound needs nominal gains >= 1")
    if ns.alpha <= 0:
        raise ConfigError(f"--alpha {ns.alpha} must be positive")
    if ns.points < 4:
        raise ConfigError("--points must be at least 4 to fit a fringe")
    if ns.bias is not None and ns.bias < 0:
        raise ConfigError(f"--bias {ns.bias} is negative")
    counting = _counting(ns)
    try:
        scans = visibility_experiment(
            gains, input_mag=ns.alpha, phase_points=ns.points, gate=ns.gate,
            bias_ratio=ns.bias, counting=counting, photon_cap=ns.cap,
        )
    except ZeroDivisionError as exc:
        if counting is None:
            raise
        raise NumericalFailure(f"{exc}: too few counts to fit; raise --shots "
                               "or --rate-scale") from exc
    rows = [
        [scan.nominal_g2, scan.bias_ratio, scan.fit.visibility,
         scan.fit.uncertainty, scan.classical_bound, scan.fit.amplitude,
         scan.fit.offset, scan.fit.phase]
        for scan in scans
    ]
    result = SweepResult(
        kind="visibility",
        columns=[
            "nominal_g2", "bias_ratio", "visibility", "uncertainty",
            "classical_bound", "fit_amplitude", "fit_offset", "fit_phase",
        ],
        rows=rows,
        meta={
            "gate": ns.gate,
            "alpha": ns.alpha,
            "points": ns.points,
            "shots": ns.shots,
            "seed": ns.seed,
            "scans": [
                {"nominal_g2": scan.nominal_g2, "phase_points": scan.phase_points,
                 "rates": scan.rates, "counts": scan.counts}
                for scan in scans
            ],
        },
    )
    svg = {
        "x_column": "nominal_g2",
        "y_columns": ["visibility", "classical_bound"],
        "title": "fringe visibility vs nominal gain",
    }
    _emit(_render_table(result, ns, svg), _resolve_output(ns.output))
    return 0


def _add_common(p: argparse.ArgumentParser, *, gate_default: str) -> None:
    p.add_argument("--gate", choices=("ppbs", "ideal"), default=gate_default,
                   help="gate realization (default %(default)s)")
    p.add_argument("--cap", type=int, default=protocol.DEFAULT_PHOTON_CAP,
                   help="total photon cap of the truncated space "
                        "(default %(default)s)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--output", help="output file (default stdout); relative "
                                    f"paths honor ${OUTDIR_ENV}")
    p.add_argument("--config", help="JSON file with option defaults; a result "
                                    "envelope's 'config' block also works")


def _add_counting(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=0,
                   help="trials for Poissonian counting; 0 disables sampling")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed, required when --shots > 0")
    p.add_argument("--rate-scale", dest="rate_scale", type=float, default=1.0,
                   help="rate multiplier applied before drawing counts")


def _add_detection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.35,
                   help="herald saturation scale; 0 disables the model "
                        "(default %(default)s)")
    _add_counting(p)
    p.add_argument("--convention", choices=("through", "true"),
                   default="through",
                   help="input-size reference: measured through the gate or "
                        "the true prepared size (default %(default)s)")


def build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="nla-weaksim",
        description="heralded weak-measurement amplification of small "
                    "coherent states: single runs, gain sweeps and fringe "
                    "visibility scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", help="single heralded run")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--phi", type=float, help="meter phase")
    grp.add_argument("--gain", type=float,
                     help="nominal intensity gain; sets phi = 2 atan(1/sqrt g)")
    p.add_argument("--alpha2", type=float, default=1e-4,
                   help="input size |alpha|^2 (default %(default)s)")
    p.add_argument("--signal", default="coherent",
                   choices=sorted(_SIGNAL_KINDS),
                   help="input state kind (default %(default)s)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="pre-gate loss on the signal (default %(default)s)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --phi in degrees")
    _add_common(p, gate_default="ppbs")
    p.set_defaults(fn=cmd_protocol, format="json")

    p = sub.add_parser("gain-sweep", help="output size vs input size")
    p.add_argument("--gains", default=DEFAULT_SWEEP_GAINS,
                   help="nominal intensity gains, grid or comma list "
                        "(default %(default)s)")
    p.add_argument("--inputs", default=DEFAULT_SWEEP_INPUTS,
                   help="input sizes |alpha|^2 (default %(default)s)")
    _add_detection(p)
    _add_common(p, gate_default="ppbs")
    p.set_defaults(fn=cmd_gain_sweep)

    p = sub.add_parser("gain-vs-phi", help="output size vs meter phase")
    p.add_argument("--inputs", default=DEFAULT_PHI_INPUTS,
                   help="input sizes |alpha|^2 (default %(default)s)")
    p.add_argument("--phis", default=DEFAULT_PHI_GRID,
                   help="meter phase grid (default %(default)s)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --phis in degrees")
    _add_detection(p)
    _add_common(p, gate_default="ppbs")
    p.set_defaults(fn=cmd_gain_vs_phi)

    p = sub.add_parser("visibility", help="fringe visibility scans")
    p.add_argument("--gains", default=DEFAULT_VIS_GAINS,
                   help="nominal intensity gains (default %(default)s)")
    p.add_argument("--alpha", type=float, default=0.0015,
                   help="input amplitude magnitude (default %(default)s)")
    p.add_argument("--points", type=int, default=16,
                   help="analysis phases per scan (default %(default)s)")
    p.add_argument("--bias", type=float, default=None,
                   help="H:V input intensity ratio (default: the nominal "
                        "gain, which pre-compensates the amplification)")
    _add_counting(p)
    _add_common(p, gate_default="ideal")
    p.set_defaults(fn=cmd_visibility)

    return parser, sub


# every call without --config parses with this one tree, never mutated
_shared_parser = lru_cache(maxsize=1)(build_parser)


def _walk(sp: argparse.ArgumentParser, command: str,
          args: list[str]) -> Optional[argparse.Namespace]:
    """The namespace the full tree gives [command, *args], read in one walk
    over the subcommand parser's action table; None where argparse might
    read args otherwise.

    It reads exact option strings of store actions, as `--opt value` or
    `--opt=value`, and of store_true actions.  A separate value may start
    with '-' only as a negative number.  Each value goes through the
    action's type and choices, and the last of a repeated option wins.  At
    most one action of each mutually exclusive group may be given, and no
    required action left out.  Defaults go in argparse's order: the
    actions', then the parser's set_defaults.
    """
    table = sp._option_string_actions
    seen = {}
    tokens = iter(args)
    for token in tokens:
        act, value = table.get(token), None
        if act is None:
            opt, eq, value = token.partition("=")
            act = table.get(opt) if eq else None
            # before 3.13 argparse reads a '--' value as an empty list
            if act is None or value == "--":
                return None
        if type(act) is argparse._StoreTrueAction and value is None:
            seen[act] = act.const
            continue
        if type(act) is not argparse._StoreAction or act.nargs is not None:
            return None
        if value is None:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not (
                    sp._negative_number_matcher.match(value)
                    and not sp._has_negative_number_optionals):
                return None
        if act.type is not None:
            try:
                value = act.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if act.choices is not None and value not in act.choices:
            return None
        seen[act] = value
    for grp in sp._mutually_exclusive_groups:
        given = sum(a in seen for a in grp._group_actions)
        if given > 1 or grp.required and not given:
            return None
    values = {}
    for act in sp._actions:
        # argparse converts a string default of a typed action left out
        if act not in seen and (act.required or act.type is not None
                                and isinstance(act.default, str)):
            return None
        if act.dest is not argparse.SUPPRESS and act.default is not argparse.SUPPRESS:
            values.setdefault(act.dest, act.default)
    for dest, value in sp._defaults.items():
        values.setdefault(dest, value)
    for act, value in seen.items():
        values[act.dest] = value
    ns = argparse.Namespace(command=command)
    vars(ns).update(values)
    return ns


def _parse_tree(parser: argparse.ArgumentParser,
                sub: argparse._SubParsersAction,
                args: list[str]) -> argparse.Namespace:
    """parser.parse_args(args), in one walk over the subcommand parser's
    action table (see _walk) when args[0] names a subcommand.

    Everything the walk declines goes through the full tree: no args, an
    unknown command, help, an abbreviated option, '--', a stray string, a
    value that fails its type or choices, a missing value, a conflict.
    There argparse either parses it or writes its own usage and error text.
    """
    sp = sub.choices.get(args[0]) if args else None
    ns = _walk(sp, args[0], args[1:]) if sp is not None else None
    return parser.parse_args(args) if ns is None else ns


def _parse(args: list[str]) -> argparse.Namespace:
    """Namespace of the command line, over --config values when given.

    Each config value becomes `--opt=value` (true the bare flag; null, and
    false for a flag, are skipped) ahead of the command line's options, and
    all of it goes once more through the same tree, so argparse checks the
    file's values as it does flags and the later, explicit flags override
    them.  A command-line flag of a mutually exclusive group drops the
    config's values for that group.  Keys of no option, non-string values of
    string options and false for an option that takes a value are a
    ConfigError.
    """
    ns = _parse_tree(*_shared_parser(), args)
    if not ns.config:
        return ns
    cfg = _load_config(ns.config)
    if (cmd := cfg.pop("command", None)) not in (None, ns.command):
        raise ConfigError(f"config is for command {cmd!r}, not {ns.command!r}")
    parser, sub = _shared_parser()
    sp = sub.choices[ns.command]
    for grp in sp._mutually_exclusive_groups:
        dests = {a.dest for a in grp._group_actions}
        if any(getattr(ns, d) is not None for d in dests):
            cfg = {k: v for k, v in cfg.items() if k not in dests}
    # help leaves no attribute, so a config cannot ask for it
    actions = {a.dest: a for a in sp._actions if hasattr(ns, a.dest)}
    flags = []
    for key, value in cfg.items():
        act = actions.get(key)
        if key in CONFIG_EXCLUDE or act is not None and (
                value is None or value is False and act.nargs == 0):
            continue
        if act is None or not (isinstance(value, (str, bool)) or act.type):
            raise ConfigError(f"config {key}={value!r} is no value of a "
                              f"{ns.command} option")
        opt = act.option_strings[-1]
        if value is False:
            raise ConfigError(f"config {key}=false is no value of {opt}")
        flags.append(opt if value is True else f"{opt}={value}")
    return _parse_tree(parser, sub, [*args[:1], *flags, *args[1:]])


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            ns = _parse(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        for key, value in sorted(vars(ns).items()):
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{key.replace('_', '-')} {value} is not finite")
        if ns.cap < 2:
            raise ConfigError(
                f"--cap {ns.cap} must be at least 2, the photons the gate acts on"
            )
        return ns.fn(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"error: {exc}; raise --cap", file=sys.stderr)
        return 2
    except (ValueError, BasisSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfiniteGainError, NumericalFailure, ZeroDivisionError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
