"""Command line interface: grids, formats, exit codes, reproducibility."""

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import shlex
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_readme import _readme_commands

from nla_weaksim import cli, fock, protocol
from nla_weaksim.cli import ConfigError, main, parse_grid


def run(tmp_path, *args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_grid_log():
    grid = parse_grid("1e-5:1e-3:log13")
    assert len(grid) == 13
    assert grid[0] == pytest.approx(1e-5, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-3, rel=1e-12)
    ratios = [grid[i + 1] / grid[i] for i in range(12)]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_parse_grid_lin_and_list():
    grid = parse_grid("0.1:3.1:lin31")
    assert len(grid) == 31
    assert grid[1] - grid[0] == pytest.approx(0.1, rel=1e-9)
    assert parse_grid("1,2,0.5") == [1.0, 2.0, 0.5]


@pytest.mark.parametrize(
    "bad",
    ["1:2", "1:2:cub5", "1:2:log1", "2:1:log5", "0:1:log5", "a,b", "", "1:2:logx",
     "nan,1", "1,inf", "1:inf:log3"],
)
def test_parse_grid_rejects(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


def test_protocol_json_output(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["protocol", "--gain", "3", "--alpha2", "1e-4",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nla-weaksim/1"
    assert doc["kind"] == "protocol"
    assert doc["config"]["command"] == "protocol"
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["g2"] == pytest.approx(3.0, rel=1e-9)
    assert row["gain_measured"] == pytest.approx(3.0, rel=1e-9)
    assert row["herald_probability"] == pytest.approx(
        row["herald_closed_form"], rel=1e-6
    )
    # with loss the closed form is taken at the amplitude that reaches the
    # gate, and so is the gain of the now pure conditional state
    lossy = tmp_path / "lossy.json"
    assert main(["protocol", "--gain", "6", "--alpha2", "1e-3", "--loss", "0.3",
                 "--cap", "4", "--output", str(lossy)]) == 0
    doc = json.loads(lossy.read_text())
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["herald_probability"] == pytest.approx(
        row["herald_closed_form"], rel=1e-6
    )
    want = protocol.analytic(protocol.phi_for_gain(6.0), math.sqrt(0.7e-3))
    assert doc["meta"] == pytest.approx(
        {"norm_in": want.norm_in, "norm_out": want.norm_out}, rel=1e-12)
    assert row["amplitude_gain_re"] == pytest.approx(0.0, abs=1e-12)
    assert row["amplitude_gain_im"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_protocol_tail_is_taken_after_loss(capsys):
    # the ladder is cut at the attenuated mean, so an input whose own tail
    # is too heavy for the cap runs once loss has thinned it
    args = ["protocol", "--gain", "3", "--alpha2", "5", "--cap", "5"]
    assert main(args + ["--loss", "0.9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["size_in_true"] == pytest.approx(0.5, rel=1e-12)
    assert main(args) == 2


def test_protocol_at_cap_seven(capsys):
    # the herald lifts only its block, so a cap this high runs in about a
    # second instead of half a minute
    code = main(["protocol", "--gain", "3", "--alpha2", "1e-4", "--cap", "7",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["cap"] == 7
    row = dict(zip(doc["columns"], doc["rows"][0]))
    want = protocol.analytic(protocol.phi_for_gain(3.0), math.sqrt(1e-4))
    assert row["herald_closed_form"] == pytest.approx(want.p_success, rel=1e-9)
    assert row["herald_probability"] == pytest.approx(want.p_success, rel=1e-5)
    assert row["gain_measured"] == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("signal", ["coherent", "phase-averaged", "qubit"])
def test_protocol_reads_one_marginal_per_state(signal, monkeypatch, capsys):
    # at most one marginal per distinct state: the run reads the
    # conditional state's once, for p1_out and size_out, and the true input
    # size the signal's; the through-gate size reads K_HH-weighted signal
    # weights, which are no state
    read = []
    marginal = fock.occupancy_distribution

    def counted(state, mode):
        read.append(state)
        return marginal(state, mode)

    monkeypatch.setattr(fock, "occupancy_distribution", counted)
    assert main(["protocol", "--gain", "3", "--alpha2", "1e-3", "--loss",
                 "0.2", "--signal", signal]) == 0
    assert len(read) == len({id(state) for state in read}) <= 3
    doc = json.loads(capsys.readouterr().out)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["size_in_measured"] == pytest.approx(row["size_in_true"] / 3,
                                                    rel=1e-12)


@pytest.mark.parametrize("signal", ["coherent", "phase-averaged", "qubit"])
def test_protocol_point_runs_and_prepares_once(signal, monkeypatch, capsys):
    # the run reports both input sizes from the signal it prepared
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run_nla", "prepare_signal"):
        monkeypatch.setattr(protocol, name,
                            counted(name, getattr(protocol, name)))
    assert main(["protocol", "--gain", "3", "--alpha2", "1e-3", "--loss",
                 "0.2", "--signal", signal, "--format", "csv"]) == 0
    assert sorted(calls) == ["prepare_signal", "run_nla"]
    assert capsys.readouterr().out.count("\n") == 2


def test_protocol_rejects_phi_and_gain(capsys):
    assert main(["protocol", "--phi", "1.0", "--gain", "3"]) == 2


def test_protocol_requires_phi_or_gain():
    assert main(["protocol"]) == 2


def test_protocol_zero_phase_is_numerical_failure(capsys):
    assert main(["protocol", "--phi", "0"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_protocol_degrees(tmp_path):
    out = tmp_path / "deg.json"
    assert main(["protocol", "--phi", "90", "--degrees",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["phi"] == pytest.approx(math.pi / 2, rel=1e-9)
    assert row["g2"] == pytest.approx(1.0, rel=1e-9)


def test_gain_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["gain-sweep", "--gains", "3,6", "--inputs", "1e-5:1e-4:log3",
                 "--output", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "nominal_g2"
    assert len(rows) == 6
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 7


def test_gain_sweep_seed_required():
    assert main(["gain-sweep", "--shots", "100"]) == 2


def test_gain_sweep_rejects_bad_inputs():
    assert main(["gain-sweep", "--inputs", "0,1e-4"]) == 2
    assert main(["gain-sweep", "--gains", "-1"]) == 2
    assert main(["gain-sweep", "--inputs", "1:0:log5"]) == 2


def test_gain_vs_phi_zero_phase_exits_numerical(tmp_path, capsys):
    assert main(["gain-vs-phi", "--phis", "0,1.0"]) == 3


def test_gain_vs_phi_degrees(tmp_path):
    out = tmp_path / "phi.csv"
    assert main(["gain-vs-phi", "--inputs", "1e-4", "--phis", "60,90",
                 "--degrees", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert float(rows[0][0]) == pytest.approx(math.pi / 3, rel=1e-9)
    g2 = float(rows[0][header.index("nominal_g2")])
    assert g2 == pytest.approx(3.0, rel=1e-9)


def test_byte_identical_reruns_with_seed(tmp_path):
    cases = {
        "protocol": (["protocol", "--gain", "3", "--loss", "0.2"],
                     ("csv", "json")),
        "gain-sweep": (["gain-sweep", "--gains", "3", "--inputs", "1e-5,1e-4",
                        "--shots", "1000000", "--seed", "9",
                        "--rate-scale", "100"], ("csv", "json", "svg")),
        "gain-vs-phi": (["gain-vs-phi", "--inputs", "1e-4", "--phis", "0.5,1.5",
                         "--shots", "1000000", "--seed", "9"],
                        ("csv", "json", "svg")),
        "visibility": (["visibility", "--gains", "2,3", "--shots", "1000000",
                        "--seed", "9", "--rate-scale", "1e4"],
                       ("csv", "json", "svg")),
    }
    for name, (args, formats) in cases.items():
        for fmt in formats:
            a, b = tmp_path / f"{name}-a.{fmt}", tmp_path / f"{name}-b.{fmt}"
            assert main(args + ["--format", fmt, "--output", str(a)]) == 0
            assert main(args + ["--format", fmt, "--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), (name, fmt)
    a = tmp_path / "gain-sweep-a.csv"
    c = tmp_path / "c.csv"
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5,1e-4",
                 "--shots", "1000000", "--seed", "10", "--rate-scale", "100",
                 "--output", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_config_round_trip(tmp_path):
    first = tmp_path / "first.json"
    args = ["gain-sweep", "--gains", "3", "--inputs", "1e-5,1e-4",
            "--shots", "1000", "--seed", "5", "--format", "json"]
    assert main(args + ["--output", str(first)]) == 0
    second = tmp_path / "second.json"
    assert main(["gain-sweep", "--config", str(first),
                 "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_flag_override(tmp_path):
    first = tmp_path / "first.json"
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5",
                 "--format", "json", "--output", str(first)]) == 0
    second = tmp_path / "second.json"
    assert main(["gain-sweep", "--config", str(first), "--gains", "6",
                 "--output", str(second)]) == 0
    doc = json.loads(second.read_text())
    assert doc["config"]["gains"] == "6"
    assert doc["config"]["inputs"] == "1e-5"


def test_config_replays_protocol(tmp_path):
    first = tmp_path / "first.json"
    args = ["protocol", "--gain", "3", "--alpha2", "5e-4", "--loss", "0.3",
            "--signal", "phase-averaged", "--cap", "4"]
    assert main(args + ["--output", str(first)]) == 0
    second = tmp_path / "second.json"
    assert main(["protocol", "--config", str(first),
                 "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # an explicit flag overrides the config, --phi its --gain too
    for flag, value in (("--gain", "6"), ("--phi", "1.0")):
        third = tmp_path / "third.json"
        assert main(["protocol", "--config", str(first), flag, value,
                     "--output", str(third)]) == 0
        config = json.loads(third.read_text())["config"]
        assert config[flag[2:]] == float(value)
        assert config["phi" if flag == "--gain" else "gain"] is None
        assert config["alpha2"] == 5e-4
    # a later call without --config keeps the built-in defaults
    fourth = tmp_path / "fourth.json"
    assert main(["protocol", "--gain", "3", "--output", str(fourth)]) == 0
    config = json.loads(fourth.read_text())["config"]
    assert (config["alpha2"], config["loss"], config["cap"]) == (1e-4, 0.0, 3)


def test_config_command_mismatch(tmp_path, capsys):
    first = tmp_path / "first.json"
    assert main(["gain-sweep", "--inputs", "1e-5", "--format", "json",
                 "--output", str(first)]) == 0
    assert main(["visibility", "--config", str(first)]) == 2


def test_config_missing_file():
    assert main(["gain-sweep", "--config", "/nonexistent/path.json"]) == 2


_REPLAYED = {
    "protocol": ["protocol", "--phi", "-60", "--degrees", "--alpha2", "3e-4",
                 "--loss", "0.2", "--cap", "4"],
    "gain-sweep": ["gain-sweep", "--gains", "2,5", "--inputs", "1e-5:1e-3:log3",
                   "--shots", "1000000000", "--seed", "7", "--rate-scale", "100",
                   "--epsilon", "0.2", "--convention", "true"],
    "gain-vs-phi": ["gain-vs-phi", "--inputs", "3e-4", "--phis", "20:160:lin4",
                    "--degrees", "--shots", "100000000", "--seed", "3"],
    "visibility": ["visibility", "--gains", "2,4", "--points", "8", "--bias", "3",
                   "--shots", "10000000", "--seed", "12", "--rate-scale", "1e4"],
}


@pytest.mark.parametrize("command", sorted(_REPLAYED))
def test_config_replays_every_command_byte_for_byte(command, tmp_path):
    args = _REPLAYED[command]
    first, replay = tmp_path / "first.json", tmp_path / "replay.json"
    assert main(args + ["--format", "json", "--output", str(first)]) == 0
    assert main([command, "--config", str(first), "--output", str(replay)]) == 0
    assert replay.read_bytes() == first.read_bytes()
    # a flag after the config overrides its value, as on the command line
    direct, over = tmp_path / "direct.csv", tmp_path / "over.csv"
    assert main(args + ["--cap", "5", "--format", "csv",
                        "--output", str(direct)]) == 0
    assert main([command, "--config", str(first), "--cap", "5", "--format", "csv",
                 "--output", str(over)]) == 0
    assert over.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("command, config", [
    ("protocol", {"gain": 3, "cap": 4.5}),
    ("gain-sweep", {"gains": 3}),
    ("gain-sweep", {"shots": 2.5, "seed": 1}),
    ("protocol", {"gain": 3, "degrees": "yes"}),
    ("protocol", {"phi": 1.0, "gain": 3}),
    ("protocol", {"gain": 3, "bogus": 1}),
    # a prefix of --gain, which argparse would take for it on a command line
    ("protocol", {"gain": 3, "gai": 6}),
    # an option of another command
    ("protocol", {"gain": 3, "shots": 10}),
    ("protocol", {"gain": 3, "help": True}),
    # false is skipped only for a flag; an option with a value has none
    ("protocol", {"gain": 3, "cap": False}),
    ("gain-sweep", {"shots": False}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_bad_config_values_exit_two(command, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": command, **config}))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    assert "show this help message" not in captured.err


def test_config_parses_with_the_one_shared_tree(tmp_path, monkeypatch):
    first = tmp_path / "first.json"
    assert main(["protocol", "--gain", "3", "--output", str(first)]) == 0

    def rebuilt(*args, **kwargs):
        raise AssertionError("a parser was built or changed after the first")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    monkeypatch.setattr(argparse.ArgumentParser, "set_defaults", rebuilt)
    assert main(["protocol", "--config", str(first), "--cap", "4",
                 "--output", str(tmp_path / "second.json")]) == 0
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5",
                 "--output", str(tmp_path / "third.csv")]) == 0
    assert cli._shared_parser.cache_info().misses == 1


def test_svg_output(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5:1e-4:log5",
                 "--format", "svg", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "stroke-dasharray" in text
    assert "circle" not in text
    sampled = tmp_path / "sampled.svg"
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5:1e-4:log5",
                 "--shots", "1000000000", "--seed", "4", "--format", "svg",
                 "--output", str(sampled)]) == 0
    assert "circle" in sampled.read_text()


def test_protocol_svg_is_config_error():
    assert main(["protocol", "--gain", "3", "--format", "svg"]) == 2


def test_visibility_csv_two_decimal_bounds(tmp_path):
    out = tmp_path / "vis.csv"
    assert main(["visibility", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    bounds = [round(float(r[header.index("classical_bound")]), 2) for r in rows]
    assert bounds == [0.71, 0.58, 0.5, 0.45]
    vis = [float(r[header.index("visibility")]) for r in rows]
    assert all(v == pytest.approx(1.0, abs=1e-6) for v in vis)


def test_visibility_rejects_negative_bias(capsys):
    assert main(["visibility", "--gains", "2", "--bias", "-1"]) == 2
    assert "--bias" in capsys.readouterr().err
    # no H amplitude: nothing to interfere with
    assert main(["visibility", "--gains", "2", "--bias", "0"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), rows[0].split(",")))
    assert float(row["visibility"]) == pytest.approx(0.0, abs=1e-12)


def test_visibility_rejects_gain_below_one():
    assert main(["visibility", "--gains", "0.5,2"]) == 2


def test_outdir_env_prefixes_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("NLA_WEAKSIM_OUTDIR", str(tmp_path / "results"))
    assert main(["visibility", "--gains", "2", "--output", "vis.csv"]) == 0
    assert (tmp_path / "results" / "vis.csv").exists()


def test_unwritable_output_is_config_error(capsys):
    assert main(["protocol", "--gain", "3", "--output", "/proc/xx/a.json"]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_stdout_when_no_output(capsys):
    assert main(["gain-sweep", "--gains", "3", "--inputs", "1e-5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("nominal_g2")


def test_unknown_command_exits_two():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def _full_tree(parser, sub, args):
    return parser.parse_args(args)


@pytest.mark.parametrize("args", [
    *(shlex.split(line)[1:] for line in _readme_commands()),
    ["protocol", "--gain", "3"], ["gain-sweep"], ["gain-vs-phi"],
    ["visibility"],
    ["protocol", "--config", "cfg.json", "--gain", "5"],
    ["protocol", "--phi", "1", "--gain", "3"],
    ["protocol", "--gain", "3", "--cap", "x"],
    ["protocol", "--gain", "3", "--bogus", "1"],
    ["protocol", "--gain", "3", "stray"],
    ["protocol", "--", "--gain", "3"],
    ["protocol", "--gain", "3", "--cap=4"],
    ["protocol", "--gain", "3", "--degrees=1"],
    ["protocol", "--gain", "3", "--cap", "3", "--cap", "4"],
    ["protocol", "--gai", "3"],
    ["protocol", "--phi=1", "--gain=3"],
    ["protocol", "--phi", "-1", "--alpha2", "-.5"],
    [], ["-h"], ["protocol", "-h"], ["frobnicate"],
], ids=lambda args: " ".join(args) or "no-args")
def test_parse_route_matches_the_full_tree(args, tmp_path, monkeypatch, capsys):
    # the subcommand's own parser must leave every output as the full tree's
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    assert main(["protocol", "--gain", "3", "--alpha2", "5e-4", "--loss", "0.1",
                 "--output", "cfg.json"]) == 0

    def outcome():
        code = main(list(args))
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        return code, captured.out, captured.err, files

    routed = outcome()
    monkeypatch.setattr(cli, "_parse_tree", _full_tree)
    assert outcome() == routed


def test_a_readme_protocol_line_parses_without_argparse(monkeypatch, capsys):
    line = next(line for line in _readme_commands() if " protocol " in line)

    def refuse(*_args, **_kwargs):
        raise AssertionError("argparse parsed the command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert main(shlex.split(line)[1:]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "protocol"


_PARSER, _SUB = cli.build_parser()
_CHOICES = sorted({str(c) for sp in _SUB.choices.values() for a in sp._actions
                   for c in a.choices or ()})
_VALUES = st.one_of(
    st.sampled_from(["", "-", "--", "-h", "--help", "stray", "x y", "-x",
                     "nan", "-nan", "inf", "-inf", "-.5", "1_0", "4.5", "=",
                     "a=b", "1e-5:1e-3:log3", "2,3"]),
    st.sampled_from(_CHOICES),
    st.integers(-20, 20).map(str),
    st.floats().map(repr),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUB.choices)))
    option = st.sampled_from(sorted(_SUB.choices[command]._option_string_actions))
    token = st.one_of(
        st.tuples(option),
        st.tuples(option, _VALUES),
        st.builds(lambda opt, value: (f"{opt}={value}",), option, _VALUES),
        st.builds(lambda opt, n, value: (opt[:n], value),
                  option, st.integers(2, 10), _VALUES),
        st.tuples(_VALUES),
    )
    return [command, *itertools.chain.from_iterable(draw(st.lists(token, max_size=8)))]


def _entries(ns):
    # NaN counts equal to NaN; 4 and 4.0 do not count equal
    return [(k, type(v), "nan" if v != v else v) for k, v in vars(ns).items()]


@settings(max_examples=500, deadline=None)
@given(_argv())
# argparse strips a '--' value, to an empty list after '='
@example(["protocol", "--output=--"])
@example(["protocol", "--cap", "--", "4"])
@example(["protocol", "--phi", "1", "--gain=3"])
def test_the_walk_reads_argv_as_argparse_does(argv):
    # argparse is the oracle: the walk accepts nothing it rejects, and its
    # namespace holds argparse's entries, in argparse's order
    ns = cli._walk(_SUB.choices[argv[0]], argv[0], argv[1:])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            want = _PARSER.parse_args(argv)
        except SystemExit:
            want = None
    if ns is not None:
        assert want is not None
        assert _entries(ns) == _entries(want)


@pytest.mark.parametrize("args", [
    ["protocol", "--gain", "3", "--alpha2", "0.5", "--cap", "4"],
    ["protocol", "--gain", "3", "--alpha2", "2", "--cap", "8"],
], ids=["alpha2-0.5-cap-4", "alpha2-2-cap-8"])
def test_weight_at_the_cap_faces_the_bound(args, capsys):
    # the Poisson tails beyond these caps are within the bound, but the
    # reported truncation weight adds the weight at the cap: 1.75e-3 and
    # 1.10e-3, above 1e-3
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coherent weight 1.")
    assert f"beyond and at cap {args[-1]} exceeds bound 1.000e-03" in captured.err
    assert captured.err.endswith("; raise --cap\n")
    next_cap = [*args[:-1], str(int(args[-1]) + 1), "--format", "csv"]
    assert main(next_cap) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[-1]) <= protocol.TRUNCATION_BOUND


@pytest.mark.parametrize("args", [
    ["protocol", "--gain", "3", "--alpha2", "5", "--cap", "4"],
    ["visibility", "--alpha", "3", "--cap", "4"],
    # the phase-averaged Poisson ladder faces the coherent one's bound
    ["protocol", "--signal", "phase-averaged", "--gain", "3", "--alpha2", "5",
     "--cap", "2", "--format", "csv"],
], ids=["protocol", "visibility", "phase-averaged"])
def test_truncation_names_the_cap_option(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    kind = "phase-averaged" if "phase-averaged" in args else "coherent"
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} tail ")
    assert captured.err.endswith("; raise --cap\n")


def test_visibility_input_faces_the_bound(capsys):
    # the biased two-mode input leaves 1.8e-4 beyond cap 3, within the
    # bound, and 2.5e-3 more at the cap
    args = ["visibility", "--gains", "2", "--alpha", "0.3", "--cap", "3"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coherent weight 2.")
    assert captured.err.endswith(
        "beyond and at cap 3 exceeds bound 1.000e-03; raise --cap\n")
    assert main([*args[:-1], "4"]) == 0


@pytest.mark.parametrize("alpha", ["40", "1e200"])
def test_visibility_mean_limit_precedes_squaring(alpha, capsys):
    # 1e200 squared overflows a float; the limit is named all the same
    assert main(["visibility", "--gains", "2", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coherent mean photon number ")
    assert "is above the limit 700" in captured.err


def test_cap_validation():
    assert main(["gain-sweep", "--inputs", "1e-5", "--cap", "0"]) == 2
    # cap 1 leaves the two-photon gate no support
    assert main(["protocol", "--signal", "qubit", "--loss", "0.5", "--cap", "1",
                 "--gain", "3"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["protocol", "--phi", "nan"],
        ["protocol", "--gain", "3", "--alpha2", "nan"],
        ["gain-sweep", "--gains", "nan", "--inputs", "1e-4"],
        ["visibility", "--alpha", "nan", "--gains", "2"],
    ],
    ids=lambda args: " ".join(args),
)
def test_non_finite_values_exit_two(args, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert caught == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["gain-sweep", "--gains", "3", "--inputs", "1e-5", "--shots", "-5"],
        ["gain-sweep", "--gains", "3", "--inputs", "1e-5", "--epsilon", "-1"],
        ["gain-vs-phi", "--inputs", "1e-5", "--phis", "1.0", "--shots", "-1",
         "--seed", "1"],
        ["visibility", "--gains", "2", "--shots", "-1", "--seed", "1"],
        ["gain-sweep", "--gains", "3", "--inputs", "1e-4", "--shots", "10",
         "--seed", "-1"],
    ],
    ids=lambda args: " ".join(args),
)
def test_negative_counts_exit_two(args, capsys):
    # only 0 switches counting or the herald model off, and seeds start at 0
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    opt = next(a for a, v in zip(args, args[1:]) if v.startswith("-") and
               v[1:2].isdigit())
    assert captured.err.startswith(f"error: {opt} -")


@pytest.mark.parametrize(
    "args",
    [
        ["protocol", "--gain", "3", "--alpha2", "0"],
        ["protocol", "--gain", "3", "--alpha2", "1e-4", "--loss", "1"],
        ["protocol", "--gain", "3", "--signal", "phase-averaged",
         "--alpha2", "0"],
    ],
    ids=lambda args: " ".join(args),
)
def test_vacuum_input_exits_two(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha2" in captured.err and "--loss" in captured.err


def _value_options():
    """(command, option) for every option of every subcommand that takes a
    value."""
    _, sub = cli.build_parser()
    return [(command, opt)
            for command, sp in sorted(sub.choices.items())
            for act in sp._actions if act.option_strings and act.nargs is None
            for opt in act.option_strings]


@pytest.mark.parametrize("command, opt", _value_options())
def test_an_empty_value_exits_two(command, opt, tmp_path, monkeypatch, capsys):
    # before 3.13 argparse reads `--opt=--` as an empty list, which skips
    # the option's type and choices
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    base = ["--gain", "3"] if command == "protocol" and opt not in (
        "--phi", "--gain") else []
    code = main([command, *base, f"{opt}=--"])
    err = capsys.readouterr().err
    if opt == "--output" and code == 0:
        # argparse passed `--` through as a file name
        assert (tmp_path / "--").is_file()
        return
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("args", [
    ["gain-sweep", "--gains", "3", "--inputs", "1e-5"],
    ["gain-vs-phi", "--inputs", "1e-5", "--phis", "1.0"],
], ids=["gain-sweep", "gain-vs-phi"])
def test_vanished_herald_exits_numerical_with_shots(args, monkeypatch):
    def vanished(*_args, **_kwargs):
        return protocol.ProtocolOutcome(None, 0.0, 0.0, None, None, None, 0.0)

    monkeypatch.setattr(protocol, "run_nla", vanished)
    assert main(args) == 3
    assert main(args + ["--shots", "1000", "--seed", "1"]) == 3


def test_protocol_without_output_vacuum_exits_numerical(monkeypatch, capsys):
    run_nla = protocol.run_nla

    def no_vacuum(*args, **kwargs):
        return dataclasses.replace(run_nla(*args, **kwargs), size_out=None)

    monkeypatch.setattr(protocol, "run_nla", no_vacuum)
    assert main(["protocol", "--gain", "3", "--alpha2", "1e-4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no vacuum component" in captured.err


def test_visibility_without_counts_exits_numerical(capsys):
    args = ["visibility", "--gains", "2", "--shots", "1000", "--seed", "1",
            "--format", "csv"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--shots" in captured.err and "--rate-scale" in captured.err


def test_visibility_above_cap_170_is_a_basis_error(capsys):
    # the coherent ladders past 170! stay finite, so the basis guard decides
    assert main(["visibility", "--gains", "2", "--cap", "171"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: basis with 4 modes, cap 171")


def test_visibility_at_cap_30_builds_no_joint_gate(capsys):
    # the ideal gate's herald is closed-form: no (joint size)^2 matrix, which
    # at cap 30 would be 46,376^2 complex entries (32 GiB)
    assert main(["visibility", "--gains", "2", "--cap", "30"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nominal_g2,") and out.count("\n") == 2
