"""The scripts/ programs run end to end and reproduce their files byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("script", ["gain_curves.py", "fringe_scans.py"])
def test_script_reruns_are_byte_identical(tmp_path, script):
    env = _env()
    outputs = []
    for run in ("first", "second"):
        outdir = tmp_path / run
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(outdir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    first, second = outputs
    assert first, f"{script} wrote no files"
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


@pytest.mark.parametrize("script, args", [
    pytest.param("gain_curves.py", ["--shots", "-1"], id="gain_curves.py"),
    pytest.param("fringe_scans.py", ["--shots", "-1"], id="fringe_scans.py"),
    ("fringe_scans.py", ["--points", "2", "--shots", "0"]),
    ("fringe_scans.py", ["--alpha", "-1"]),
    ("fringe_scans.py", ["--alpha", "nan", "--shots", "0"]),
    ("fringe_scans.py", ["--rate-scale", "-1"]),
    ("fringe_scans.py", ["--seed", "-1"]),
    ("gain_curves.py", ["--epsilon", "-1"]),
    ("gain_curves.py", ["--rate-scale", "0"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_script_rejects_negative_shots(tmp_path, script, args):
    # only 0 turns counting off; a negative count, like any value outside
    # the domain of an option the script shares with the CLI, is a usage
    # error that names the option
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--outdir", str(tmp_path / "out")],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {args[0]} {args[1]}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
