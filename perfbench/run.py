"""nla-weaksim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload density-cap4 --seed 1 --seconds 55 --trace 0

Drives ``nla_weaksim`` from ``src/`` in this one single-threaded process,
closed loop: one caller, and the next op starts when the previous returns.
``--trace 0`` measures the end-to-end metrics untraced, with op and set-up
times normalized by a control kernel run between the ops; ``--trace 1`` runs
fixed passes of ops alternately untraced and traced and reports per-layer
calls and self times.  Every op's output is checked.  A record of the run
(provenance, every op as replayable argv or layout, every latency) goes to
``perfbench/runs/``; the last line of stdout is the JSON result.  See
``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here in the runner and not in the package
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

# later gain claims must also hold on this seed, which tuning never used
HOLDOUT_SEED = 1606
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# an untraced run goes on past --seconds until it has this many ops, so that
# the tail percentile is at least p80
MIN_OPS = 5 * TAIL_BEYOND
TAIL_CAP = 0.95
# seconds per control permanent that normalized figures are scaled to: about
# the kernel's time in the fast state of the 2-vCPU host it was tuned on
CONTROL_NOMINAL_S = 1.7e-4
# control permanents run before and after each set-up sample
SETUP_CONTROL_REPS = 200

# (span, fields) reported by the traced run; see NOTES.md for predictions
LAYER_SPANS = [
    ("fock.lift_mode_transform", ("calls", "self_s")),
    ("fock.permanent", ("calls",)),
    ("fock.tensor", ("calls", "self_s")),
    ("fock.project", ("calls", "self_s")),
    ("fock.build_basis", ("calls", "self_s")),
    ("fock.apply", ("calls", "self_s")),
    ("fock.occupancy_probability", ("self_s",)),
    ("elements.LossChannel.apply", ("calls", "self_s")),
    ("elements.LossChannel.kraus", ("self_s",)),
    ("protocol.run_nla", ("calls", "self_s")),
    ("protocol.prepare_signal", ("calls", "self_s")),
    ("protocol.gate_operator", ("calls", "self_s")),
    ("experiment.measure_input_size", ("calls", "self_s")),
    ("experiment.state_size", ("self_s",)),
    ("io.json_text", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance() -> dict:
    import numpy
    import nla_weaksim

    digest = hashlib.sha256()
    for path in sorted((SRC / "nla_weaksim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nla_weaksim": nla_weaksim.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def reference_loop_s() -> float:
    """Fixed Python-plus-numpy loop; a host-speed diagnostic, not a normalizer."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    m = np.full((70, 70), 1.0 / 70.0, dtype=complex)
    for _ in range(100):
        acc += int((m @ m).real[0, 0])
    return time.perf_counter() - start


def control_s(reps: int) -> float:
    """Seconds per permanent over `reps` runs of the control kernel.

    The kernel is Ryser's formula on a fixed 4x4 complex matrix through
    small NumPy calls: the same kind of work as the package's, so the host's
    speed changes slow it as much as they slow the ops.  It is the
    benchmark's own code and never changes with the package.
    """
    import numpy as np

    a = (np.arange(16, dtype=float).reshape(4, 4) + 1j) / 16.0
    order = np.ix_(range(4), range(3, -1, -1))
    start = time.perf_counter()
    for _ in range(reps):
        m = a[order]
        total = 0j
        for s in range(1, 16):
            cols = [j for j in range(4) if (s >> j) & 1]
            total += (-1) ** len(cols) * np.prod(np.sum(m[:, cols], axis=1))
    return (time.perf_counter() - start) / reps


def setup_sample(wl) -> tuple[float, float]:
    """One set-up time, measured in a fresh interpreter between two control
    chunks: (seconds, seconds normalized to CONTROL_NOMINAL_S)."""
    before = control_s(SETUP_CONTROL_REPS)
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    probe += [f"{gate}:{cap}" for gate, cap in wl.warm_gates]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=60,
                          check=True)
    seconds = float(done.stdout.strip().splitlines()[-1])
    after = control_s(SETUP_CONTROL_REPS)
    return seconds, seconds * CONTROL_NOMINAL_S / ((before + after) / 2.0)


class OpLog:
    """Streams one JSON line per op to a file and keeps in memory only the
    first op, the failures and the count, so that the runner's own memory
    does not grow with the number of ops."""

    def __init__(self, path: Path) -> None:
        self.file = path.open("w", encoding="utf-8")
        self.count = 0
        self.first: dict | None = None
        self.failures: list[dict] = []

    def add(self, op: dict, latency: float | None, out: bytes | None,
            error: str | None, **extra) -> None:
        if self.first is None:
            self.first = {"op": op, "out": out, "error": error}
        if error:
            self.failures.append({"index": self.count, "op": op, "error": error})
        entry = {"op": op, "latency_s": latency, "error": error, **extra}
        self.file.write(json.dumps(entry) + "\n")
        self.count += 1

    def close(self) -> None:
        self.file.close()


def run_op(wl, op: dict) -> tuple[float, bytes | None, str | None]:
    """(latency of execute, output, error); only execute is timed."""
    wl.prepare(op)
    start = time.perf_counter()
    try:
        out = wl.execute(op)
    except Exception as exc:  # a failed op is counted, and the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        wl.check(op, out)
    except Exception as exc:  # malformed output fails the op, like a check
        return latency, out, f"{type(exc).__name__}: {exc}"
    return latency, out, None


def latency_stats(latencies: list[float]) -> dict:
    """Median and tail of the op latencies, in seconds.

    tail = the highest percentile with at least TAIL_BEYOND ops beyond it,
    capped at TAIL_CAP: above it the value is set by how many host stalls a
    run met.
    """
    lat = sorted(latencies)
    n = len(lat)
    beyond = max(TAIL_BEYOND, math.ceil(n * (1.0 - TAIL_CAP)))
    k = n - beyond - 1
    return {"p50_s": lat[n // 2], "tail_s": lat[k],
            "tail_percentile": 100.0 * (k + 1) / n, "ops": n, "beyond": beyond}


def untraced(wl, seconds: float, log: OpLog) -> dict:
    """Closed loop for `seconds` and at least MIN_OPS ops; set-up samples
    are spread over the run so that they see the same host as the ops.

    A control chunk runs after every op, outside the op's timing.  Each
    op's latency is normalized by the control chunks on either side of it:
    latency x CONTROL_NOMINAL_S / their mean time per permanent.  The host
    switches between states up to 1.75x apart, for seconds to minutes at a
    time, and the normalized latency does not follow it.
    """
    samples: list[tuple[float, float]] = []
    raw: list[float] = []
    norm: list[float] = []
    ok = 0
    control = control_s(wl.control_reps)
    start = time.perf_counter()
    probing = 0.0
    while True:
        elapsed = time.perf_counter() - start - probing
        if (len(samples) < SETUP_SAMPLES
                and len(samples) * seconds / (SETUP_SAMPLES - 1) <= elapsed):
            t = time.perf_counter()
            samples.append(setup_sample(wl))
            probing += time.perf_counter() - t
        if elapsed >= seconds and len(raw) >= MIN_OPS:
            break
        op = wl.next_op()
        latency, out, err = run_op(wl, op)
        after = control_s(wl.control_reps)
        scaled = latency * CONTROL_NOMINAL_S / ((control + after) / 2.0)
        control = after
        raw.append(latency)
        norm.append(scaled)
        ok += err is None
        log.add(op, latency, out, err, normalized_s=scaled, control_s=after)
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(wl))
    stats = latency_stats(norm)
    return {
        "metrics": {
            "setup_s": (statistics.median(n for _, n in samples), "s"),
            # every op of both workloads is one protocol run, i.e. one point
            "points_per_s": (ok / sum(norm), "1/s"),
            "op_p50_ms": (stats["p50_s"] * 1e3, "ms"),
            "op_tail_ms": (stats["tail_s"] * 1e3, "ms"),
        },
        "setup_samples_s": [r for r, _ in samples],
        "setup_samples_normalized_s": [n for _, n in samples],
        "latency": stats,
        "latency_raw": latency_stats(raw),
        "points_per_s_raw": ok / sum(raw),
    }


def traced(wl, seconds: float, log: OpLog, spans_path: Path) -> dict:
    """Fixed passes of ops, alternately untraced and traced."""
    from tracer import Tracer

    tracer = Tracer()
    base = [wl.next_op() for _ in range(wl.trace_pass_ops)]
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pair = {}
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        for with_trace in order:
            first = log.count
            total = 0.0
            with tracer.installed() if with_trace else contextlib.nullcontext():
                for op in base:
                    op = wl.replay(op)
                    tracer.op = log.count
                    with tracer.span("bench.op") if with_trace else contextlib.nullcontext():
                        latency, out, err = run_op(wl, op)
                    total += latency
                    log.add(op, latency, out, err, traced=with_trace)
            pair["traced" if with_trace else "untraced"] = (total, range(first, log.count))
        passes.append(pair)

    summaries = [tracer.summary(p["traced"][1]) for p in passes]
    first = summaries[0]
    metrics: dict[str, tuple[float, str]] = {}
    for span, fields in LAYER_SPANS:
        if "calls" in fields:
            metrics[f"{span}.calls"] = (first.get(span, {}).get("calls", 0), "count")
        if "self_s" in fields:
            metrics[f"{span}.self_s"] = (statistics.median(
                s.get(span, {}).get("self_s", 0.0) for s in summaries), "s")
    lifts = first.get("fock.lift_mode_transform", {}).get("calls", 0)
    gate_calls = first.get("protocol.gate_operator", {}).get("calls", 0)
    metrics["protocol.gate_reuse"] = (1.0 - lifts / gate_calls if gate_calls else 0.0,
                                      "frac")
    first_ops = passes[0]["traced"][1]
    metrics["io.bytes_out"] = (sum(tracer.text_bytes[i] for i in first_ops), "bytes")
    metrics["trace.overhead_frac"] = (
        sum(p["traced"][0] for p in passes) / sum(p["untraced"][0] for p in passes) - 1.0,
        "frac")
    tracer.dump(spans_path, first_ops)
    return {
        "metrics": metrics,
        "passes": [{"untraced_s": p["untraced"][0], "traced_s": p["traced"][0]}
                   for p in passes],
        "ops_per_pass": len(base),
        "absent": tracer.absent,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nla_weaksim" / "__init__.py").is_file():
        print(f"error: no nla_weaksim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from nla_weaksim import protocol

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "holdout_seed": HOLDOUT_SEED,
              "provenance": provenance(),
              "reference_loop_s": [reference_loop_s() for _ in range(3)]}

    t0 = time.perf_counter()
    for gate, cap in wl.warm_gates:
        protocol.gate_operator(gate, cap)
    record["setup_in_process_s"] = time.perf_counter() - t0

    RUNS_DIR.mkdir(exist_ok=True)
    stem = RUNS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    log = OpLog(stem.with_name(stem.name + "-ops.jsonl"))
    try:
        if args.trace:
            result = traced(wl, args.seconds, log,
                            stem.with_name(stem.name + "-spans.json"))
        else:
            result = untraced(wl, args.seconds, log)
        # the same argv must give the same bytes; a mismatch fails one more op
        first = log.first
        _, out, err = run_op(wl, first["op"])
        if err is None and first["error"] is None and out != first["out"]:
            err = "output bytes differ from the first run of this op"
        log.add(first["op"], None, out, err, repeat_of=0)
    finally:
        log.close()

    record["reference_loop_s"] += [reference_loop_s() for _ in range(3)]
    attempted, failed = log.count, len(log.failures)
    metrics = result.pop("metrics")
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    record.update(result)
    record["attempted"] = attempted
    record["failed_frac"] = failed / attempted
    record["failures"] = log.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    for f in log.failures:
        print(f"failed op {f['index']}: {f['op']}: {f['error']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
