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

COMMANDS holds one table of options per subcommand (see Opt), and every
route reads it: build_parser declares the argparse tree from it; _walk
reads a subcommand's argv against it in one pass, and leaves any argv it
cannot read as argparse would (help among them) to the tree's parse_args;
_parse turns --config values into flags and checks them by it; and
check_values checks each value against its option's domain, naming the
flag, or the config file and key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from . import io as _io
from . import protocol
from .experiment import (
    CountingModel,
    HeraldingModel,
    MeasurementConvention,
    SweepResult,
    gain_sweep,
    gain_vs_phi,
    visibility_experiment,
)
from .fock import BasisSizeError, TruncationError
from .protocol import InfiniteGainError, MeterSetting, SignalSpec

OUTDIR_ENV = "NLA_WEAKSIM_OUTDIR"

_SIGNAL_KINDS = {
    "coherent": "coherent",
    "qubit": "qubit_truncated",
    "qubit_truncated": "qubit_truncated",
    "phase-averaged": "phase_averaged",
    "phase_averaged": "phase_averaged",
}

_CONVENTIONS = {
    "through": MeasurementConvention.THROUGH_GATE,
    "true": MeasurementConvention.TRUE_INPUT,
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


def _counting(ns: argparse.Namespace) -> Optional[CountingModel]:
    if ns.shots == 0:
        return None
    return CountingModel(shots=ns.shots, seed=ns.seed, rate_scale=ns.rate_scale)


# not recorded in a JSON envelope's config, nor read from a --config file
CONFIG_EXCLUDE = {"config", "output", "fn"}


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


def _emit(result: SweepResult, ns: argparse.Namespace,
          svg_spec: Optional[dict]) -> None:
    """Write the result in ns.format to ns.output, or to stdout; relative
    paths go under $NLA_WEAKSIM_OUTDIR when it is set."""
    if ns.format == "csv":
        text = _io.csv_text(result)
    elif ns.format == "json":
        # the envelope sorts the options
        text = _io.json_text(result, config={
            k: v for k, v in vars(ns).items() if k not in CONFIG_EXCLUDE})
    elif svg_spec is None:
        raise ConfigError("no plot defined for this command; use csv or json")
    else:
        text = _io.svg_text(result, **svg_spec)
    if ns.output is None:
        sys.stdout.write(text)
        return
    path = Path(ns.output)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    if path.parent != Path("."):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path.parent}: {exc}") from exc
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _phi_from(ns: argparse.Namespace) -> float:
    if ns.phi is not None:
        return math.radians(ns.phi) if ns.degrees else ns.phi
    if ns.gain is None:
        raise ConfigError("one of --phi and --gain is required")
    return protocol.phi_for_gain(ns.gain)


def cmd_protocol(ns: argparse.Namespace) -> int:
    kind = _SIGNAL_KINDS[ns.signal]
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
    size_true, size_meas = out.size_in_true, out.size_in_measured
    if size_true is None or size_meas is None:
        raise NumericalFailure("input signal has no vacuum component")
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
    _emit(result, ns, None)
    return 0


def _herald_exit_code(result: SweepResult) -> int:
    """3 when any row flags a vanished herald, else 0."""
    flag = result.columns.index("flag")
    return 3 if any(row[flag] == "zero_herald" for row in result.rows) else 0


def cmd_gain_sweep(ns: argparse.Namespace) -> int:
    counting = _counting(ns)
    res = gain_sweep(
        parse_grid(ns.gains), parse_grid(ns.inputs), ns.gate,
        herald=HeraldingModel(ns.epsilon) if ns.epsilon else None,
        counting=counting, photon_cap=ns.cap,
        convention=_CONVENTIONS[ns.convention],
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
    _emit(res, ns, svg)
    return _herald_exit_code(res)


def cmd_gain_vs_phi(ns: argparse.Namespace) -> int:
    inputs = parse_grid(ns.inputs)
    phis = parse_grid(ns.phis)
    if ns.degrees:
        phis = [math.radians(p) for p in phis]
    res = gain_vs_phi(
        inputs, phis, ns.gate,
        herald=HeraldingModel(ns.epsilon) if ns.epsilon else None,
        counting=_counting(ns), photon_cap=ns.cap,
        convention=_CONVENTIONS[ns.convention],
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
    _emit(wide if ns.format == "svg" else res, ns, svg)
    return _herald_exit_code(res)


def cmd_visibility(ns: argparse.Namespace) -> int:
    counting = _counting(ns)
    try:
        scans = visibility_experiment(
            parse_grid(ns.gains), input_mag=ns.alpha, phase_points=ns.points,
            gate=ns.gate, bias_ratio=ns.bias, counting=counting,
            photon_cap=ns.cap,
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
    _emit(result, ns, svg)
    return 0


@dataclass(frozen=True)
class Opt:
    """One option of a subcommand.  type is None for a string and bool for
    a bare flag.  Its domain: a float is finite, and test(value) holds,
    else the message reads '<flag> <value> <why>'.  exclusive puts it in
    the subcommand's one mutually exclusive group."""

    flag: str
    help: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    test: Optional[Callable[[Any], bool]] = None
    why: str = ""
    choices: Optional[Sequence[str]] = None
    exclusive: bool = False

    @cached_property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    help: str
    fn: Callable[[argparse.Namespace], int]
    opts: tuple[Opt, ...]


def _each(test: Callable[[float], bool]) -> Callable[[str], bool]:
    """test of every value of a grid, which parse_grid must read."""
    return lambda spec: all(test(v) for v in parse_grid(spec))


def _common(gate: str, fmt: str = "csv") -> tuple[Opt, ...]:
    return (
        Opt("--gate", "gate realization (default %(default)s)", None, gate,
            choices=("ppbs", "ideal")),
        Opt("--cap", "total photon cap of the truncated space "
                     "(default %(default)s)",
            int, protocol.DEFAULT_PHOTON_CAP, lambda v: v >= 2,
            "must be at least 2, the photons the gate acts on"),
        Opt("--format", "output format (default %(default)s)", None, fmt,
            choices=("csv", "json", "svg")),
        Opt("--output", "output file (default stdout); relative "
                        f"paths honor ${OUTDIR_ENV}"),
        Opt("--config", "JSON file with option defaults; a result "
                        "envelope's 'config' block also works"),
    )


_COUNTING = (
    Opt("--shots", "trials for Poissonian counting; 0 disables sampling",
        int, 0, lambda v: v >= 0, "is negative; 0 disables sampling"),
    Opt("--seed", "RNG seed, required when --shots > 0", int, None,
        lambda v: v >= 0, "is negative; seeds start at 0"),
    Opt("--rate-scale", "rate multiplier applied before drawing counts",
        float, 1.0, lambda v: v > 0, "must be positive"),
)

_DETECTION = (
    Opt("--epsilon", "herald saturation scale; 0 disables the model "
                     "(default %(default)s)",
        float, 0.35, lambda v: 0 <= v <= 1, "is outside [0, 1]; 0 disables it"),
    *_COUNTING,
    Opt("--convention", "input-size reference: measured through the gate or "
                        "the true prepared size (default %(default)s)",
        None, "through", choices=tuple(_CONVENTIONS)),
)

COMMANDS = {
    "protocol": Command("single heralded run", cmd_protocol, (
        Opt("--phi", "meter phase", float, exclusive=True),
        Opt("--gain", "nominal intensity gain; sets phi = 2 atan(1/sqrt g)",
            float, None, lambda v: v >= 0, "is negative", exclusive=True),
        Opt("--alpha2", "input size |alpha|^2 (default %(default)s)", float,
            1e-4, lambda v: v >= 0, "is negative"),
        Opt("--signal", "input state kind (default %(default)s)", None,
            "coherent", choices=sorted(_SIGNAL_KINDS)),
        Opt("--loss", "pre-gate loss on the signal (default %(default)s)",
            float, 0.0, lambda v: 0 <= v <= 1, "is outside [0, 1]"),
        Opt("--degrees", "interpret --phi in degrees", bool, False),
        *_common("ppbs", "json"),
    )),
    "gain-sweep": Command("output size vs input size", cmd_gain_sweep, (
        Opt("--gains", "nominal intensity gains, grid or comma list "
                       "(default %(default)s)",
            None, "2.1213203435596424,3,6", _each(lambda g: g >= 0),
            "has a negative gain"),
        Opt("--inputs", "input sizes |alpha|^2 (default %(default)s)", None,
            "1e-5:1e-3:log13", _each(lambda v: v > 0),
            "has a size that is not positive"),
        *_DETECTION,
        *_common("ppbs"),
    )),
    "gain-vs-phi": Command("output size vs meter phase", cmd_gain_vs_phi, (
        Opt("--inputs", "input sizes |alpha|^2 (default %(default)s)", None,
            "0.0006,0.0012", _each(lambda v: v > 0),
            "has a size that is not positive"),
        Opt("--phis", "meter phase grid (default %(default)s)", None,
            "0.1:3.1:lin31", _each(math.isfinite)),
        Opt("--degrees", "interpret --phis in degrees", bool, False),
        *_DETECTION,
        *_common("ppbs"),
    )),
    "visibility": Command("fringe visibility scans", cmd_visibility, (
        Opt("--gains", "nominal intensity gains (default %(default)s)", None,
            "2,3,4,5", _each(lambda g: g >= 1),
            "has a gain below 1, where the visibility bound is undefined"),
        Opt("--alpha", "input amplitude magnitude (default %(default)s)",
            float, 0.0015, lambda v: v > 0, "must be positive"),
        Opt("--points", "analysis phases per scan (default %(default)s)", int,
            16, lambda v: v >= 4, "must be at least 4 to fit a fringe"),
        Opt("--bias", "H:V input intensity ratio (default: the nominal "
                      "gain, which pre-compensates the amplification)",
            float, None, lambda v: v >= 0, "is negative"),
        *_COUNTING,
        *_common("ideal"),
    )),
}

# per command: its options by flag, the namespace entries when no option is
# given (the defaults, then fn), and the options with a domain to check
_FLAGS = {name: {o.flag: o for o in c.opts} for name, c in COMMANDS.items()}
_DEFAULTS = {name: {**{o.dest: o.default for o in c.opts}, "fn": c.fn}
             for name, c in COMMANDS.items()}
_CHECKED = {name: [o for o in c.opts if o.test or o.type is float]
            for name, c in COMMANDS.items()}


def check_values(command: str, values: Mapping[str, Any],
                 source: Optional[str] = None) -> None:
    """A ConfigError naming the flag, or the config file source and the
    key, for the first of values (by dest, in table order, None not given)
    outside its option's domain."""
    for opt in _CHECKED[command]:
        value = values.get(opt.dest)
        if value is None:
            continue
        where = opt.flag if source is None else f"config {source}: {opt.dest}"
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} {value} is not finite")
        try:
            if opt.test is None or opt.test(value):
                continue
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        raise ConfigError(f"{where} {value} {opt.why}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="nla-weaksim",
        description="heralded weak-measurement amplification of small "
                    "coherent states: single runs, gain sweeps and fringe "
                    "visibility scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if any(o.exclusive for o in command.opts):
            grp = p.add_mutually_exclusive_group()
        for o in command.opts:
            add = grp.add_argument if o.exclusive else p.add_argument
            if o.type is bool:
                add(o.flag, action="store_true", help=o.help)
            else:
                add(o.flag, type=o.type, default=o.default, choices=o.choices,
                    help=o.help)
        p.set_defaults(fn=command.fn)
    return parser


# every call parses with this one tree, never mutated
_shared_parser = lru_cache(maxsize=1)(build_parser)

# a separate value may start with '-' only as a number that argparse reads
# as one in every version since 3.10 (3.13 reads more forms)
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _walk(command: str, args: list[str]) -> Optional[argparse.Namespace]:
    """The namespace parse_args gives [command, *args], read in one walk
    against the command's table; None where argparse might read args
    otherwise.

    It reads exact flags, as `--opt value` or `--opt=value` (a bare flag
    alone), each value through its option's type and choices, the last of
    a repeated option, and at most one option of the exclusive group.
    """
    flags = _FLAGS[command]
    values = dict(_DEFAULTS[command])
    exclusive = set()
    tokens = iter(args)
    for token in tokens:
        opt, value = flags.get(token), None
        if opt is None:
            flag, eq, value = token.partition("=")
            opt = flags.get(flag) if eq else None
            # before 3.13 argparse reads a '--' value as an empty list
            if opt is None or value == "--":
                return None
        if opt.type is bool:
            if value is not None:
                return None
            value = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or value[:1] == "-" and not \
                        _NEGATIVE_NUMBER.fullmatch(value):
                    return None
            if opt.type is not None:
                try:
                    value = opt.type(value)
                except ValueError:
                    return None
            if opt.choices is not None and value not in opt.choices:
                return None
        if opt.exclusive:
            exclusive.add(opt.flag)
        values[opt.dest] = value
    if len(exclusive) > 1:
        return None
    return argparse.Namespace(command=command, **values)


def _parse_tree(args: list[str]) -> argparse.Namespace:
    """parse_args(args) of the shared tree, read by _walk when it can.

    Everything else goes through the tree (an unknown command, help, an
    abbreviation, '--', a stray or missing value, a bad type or choice, a
    conflict), which parses it or writes argparse's usage and error text.
    """
    ns = _walk(args[0], args[1:]) if args and args[0] in COMMANDS else None
    if ns is None:
        ns = _shared_parser().parse_args(args)
        # before 3.13 argparse reads `--opt=--` as an empty list, unchecked
        if empty := [k for k, v in vars(ns).items() if isinstance(v, list)]:
            raise ConfigError(f"--{empty[0].replace('_', '-')} has no value")
    return ns


def _parse(args: list[str]) -> argparse.Namespace:
    """Namespace of the command line, over --config values when given,
    each value in its option's domain, and a seed for shots above 0.

    Each config value (null, and false for a flag, skipped) becomes
    `--opt=value`, or the bare flag for true, and meets its option's type,
    choices and domain as that flag alone would; a failure names the file
    and the key, as does shots from the config without a seed.  The flags
    go ahead of the command line's, which override them, and a
    command-line option of the exclusive group drops the config's values
    for that group."""
    ns = merged = _parse_tree(args)
    if path := ns.config:
        cfg = _load_config(path)
        if (cmd := cfg.pop("command", None)) not in (None, ns.command):
            raise ConfigError(f"config {path} is for command {cmd!r}, "
                              f"not {ns.command!r}")
        opts = {o.dest: o for o in COMMANDS[ns.command].opts}
        group_given = any(o.exclusive and getattr(ns, o.dest) is not None
                          for o in opts.values())
        flags, values = [], {}
        for key, value in cfg.items():
            opt = opts.get(key)
            if key in CONFIG_EXCLUDE or opt is not None and (
                    value is None or value is False and opt.type is bool
                    or group_given and opt.exclusive):
                continue
            if opt is None:
                raise ConfigError(f"config {path}: {key} is no {ns.command} option")
            flag = opt.flag if value is True and opt.type is bool else f"{opt.flag}={value}"
            read = _walk(ns.command, [flag]) \
                if isinstance(value, str) or opt.type is not None else None
            if read is None:
                raise ConfigError(f"config {path}: {key} {json.dumps(value)} is no "
                                  f"value of {opt.flag}")
            flags.append(flag)
            values[key] = getattr(read, key)
        if len(both := [k for k in values if opts[k].exclusive]) > 1:
            raise ConfigError(f"config {path}: {' and '.join(both)} exclude each other")
        check_values(ns.command, values, path)
        merged = _parse_tree([*args[:1], *flags, *args[1:]])
    check_values(merged.command, vars(merged))
    if getattr(merged, "shots", 0) and merged.seed is None:
        raise ConfigError("--seed is required when --shots > 0" if ns.shots
                          else f"config {path}: shots {merged.shots} needs a seed")
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            ns = _parse(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        return ns.fn(ns)
    except TruncationError as exc:
        print(f"error: {exc}; raise --cap", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, BasisSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfiniteGainError, NumericalFailure, ZeroDivisionError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
