"""The benchmark's workloads: seeded op generators, op execution and checks.

Every op is a plain dict (argv for CLI ops, parameters and layout for library
ops) drawn from ``random.Random(seed)``, so the same seed gives the same ops
and any recorded op can be replayed.  ``execute`` returns the op's output
bytes; ``check`` raises ``CheckFailed`` on a wrong output.  Only ``execute``
is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from checks import (
    ECHO_RTOL,
    CheckFailed,
    check_herald,
    check_row_count,
    close,
    phi_of_gain,
    table,
)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def run_cli(argv: list[str]) -> bytes:
    """In-process ``nla-weaksim`` call; stdout captured, exit code checked."""
    from nla_weaksim import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit code {code} for {argv}")
    return buf.getvalue().encode("utf-8")


class Workload:
    name = ""
    # (gate, cap) pairs lifted during set-up and reused by the timed ops
    warm_gates: tuple[tuple[str, int], ...] = ()
    # ops per pass of the traced run (fixed, so call counts repeat exactly)
    trace_pass_ops = 0
    # control permanents run after each op, outside its timing: about a
    # fifth of the op's time
    control_reps = 0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.count = 0

    def next_op(self) -> dict:
        op = self.draw(self.count)
        self.count += 1
        return op

    def draw(self, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, op: dict) -> None:
        """Untimed work before ``op`` runs."""

    def execute(self, op: dict) -> bytes:
        return run_cli(op["argv"])

    def check(self, op: dict, out: bytes) -> None:
        raise NotImplementedError

    def replay(self, op: dict) -> dict:
        """The op for a traced pass repeating ``op``."""
        return op


class ColdGateCap4(Workload):
    """Library protocol ops at cap 4, each on a layout new to the process, so
    each op lifts its gate from cold, as a fresh CLI process does."""

    name = "cold-gate-cap4"
    warm_gates = (("ppbs", 4),)
    trace_pass_ops = 4
    control_reps = 250
    MODE_POOL = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.used_layouts = {(0, 1, 2, 3)}  # the default layout, lifted in set-up

    def _fresh_layout(self) -> list[int]:
        while True:
            layout = tuple(self.rng.sample(range(self.MODE_POOL), 4))
            if layout not in self.used_layouts:
                self.used_layouts.add(layout)
                return list(layout)

    def draw(self, i: int) -> dict:
        return {"layout": self._fresh_layout(),
                "phi": self.rng.uniform(0.3, 2.8),
                "alpha2": _log_uniform(self.rng, 1e-4, 1e-3)}

    def replay(self, op: dict) -> dict:
        return dict(op, layout=self._fresh_layout())

    def prepare(self, op: dict) -> None:
        """Empty the protocol layer's caches, as a fresh CLI process starts
        with none.  Otherwise every op would keep its lifted gate, and peak
        memory would grow with the number of ops a run completes."""
        from nla_weaksim import protocol

        for value in vars(protocol).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()

    def execute(self, op: dict) -> bytes:
        from nla_weaksim import experiment, protocol
        from nla_weaksim.elements import ModeLayout

        layout = ModeLayout(*op["layout"])
        spec = protocol.SignalSpec("coherent", math.sqrt(op["alpha2"]))
        out = protocol.run_nla(spec, protocol.MeterSetting(op["phi"]), "ppbs",
                               photon_cap=4, layout=layout)
        size_in = experiment.measure_input_size(spec, "ppbs", photon_cap=4,
                                                layout=layout)
        size_out = experiment.state_size(out.conditional_state, layout.signal_v)
        return json.dumps([out.herald_probability, size_in, size_out,
                           out.truncation_weight]).encode("utf-8")

    def check(self, op: dict, out: bytes) -> None:
        herald, size_in, _, _ = json.loads(out)
        a = op["alpha2"]
        check_herald(herald, op["phi"], a, "cold-gate protocol")
        # the postselected gate transmits 1/3 of the input size
        close(size_in, a / 3.0, ECHO_RTOL, "through-gate input size")


class DensityCap4(Workload):
    """cli.main protocol at cap 4 with loss: the density-operator path."""

    name = "density-cap4"
    warm_gates = (("ppbs", 4),)
    trace_pass_ops = 200
    control_reps = 6
    SIGNALS = ("coherent", "phase-averaged")

    def draw(self, i: int) -> dict:
        rng = self.rng
        argv = ["protocol", "--gain", _num(rng.uniform(1.5, 6.0)),
                "--alpha2", _num(_log_uniform(rng, 1e-4, 1e-3)),
                "--loss", _num(rng.uniform(0.05, 0.5)),
                "--signal", self.SIGNALS[i % 2], "--cap", "4", "--format", "json"]
        return {"argv": argv}

    def check(self, op: dict, out: bytes) -> None:
        argv = op["argv"]

        def arg(flag: str) -> float:
            return float(argv[argv.index(flag) + 1])

        rows = table(out.decode("utf-8"))
        check_row_count(rows, 1, "protocol")
        phi = phi_of_gain(arg("--gain"))
        close(rows[0]["phi"], phi, ECHO_RTOL, "protocol phi")
        check_herald(rows[0]["herald_probability"], phi,
                     (1.0 - arg("--loss")) * arg("--alpha2"), "density protocol")


WORKLOADS = {w.name: w for w in (ColdGateCap4, DensityCap4)}
