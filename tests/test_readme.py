"""The README's library example and command lines run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nla_weaksim import cli

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("nla-weaksim ")]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_lists_every_subcommand():
    commands = {shlex.split(line)[1] for line in _readme_commands()}
    assert commands == {"protocol", "gain-sweep", "gain-vs-phi", "visibility"}


def _nullable_columns():
    """The columns the README lists as NaN in an exit-0 output."""
    section = (ROOT / "README.md").read_text().split(
        "Columns that may be NaN", 1)[1].split("\n\n", 2)[1]
    heads = [item.split(":", 1)[0] for item in section.split("\n- ")]
    return {name for head in heads for name in re.findall(r"`(\w+)`", head)}


def test_readme_lists_the_nullable_columns():
    assert _nullable_columns() == {
        "gain_sampled", "gain_error", "output_sampled",
        "amplitude_gain_re", "amplitude_gain_im", "uncertainty"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line_prints_nan_only_where_listed(line, tmp_path,
                                                          monkeypatch):
    # the same run as JSON, where a NaN is written as null
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    argv = shlex.split(line)[1:] + ["--format", "json", "--output", "run.json"]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    nulls = {column for row in doc["rows"]
             for column, value in zip(doc["columns"], row) if value is None}
    assert nulls <= _nullable_columns()
