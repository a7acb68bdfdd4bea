"""qcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qcalc is imported from ./src, nothing is
installed.  Workloads are described in workloads.py and NOTES.md.

--trace 0 (end to end): one closed-loop client starts a fresh
`python -m qcalc.cli` process per operation, so interpreter start and import
are counted.  Each operation has a deadline of DEADLINE_S seconds.  Every
timing is stated at a fixed reference speed of the machine (see calibrate),
and whole cycles of the workload's operation list run until S seconds at
that speed have passed.  Outputs are checked after the timed phase.  Set-up
time is the median time of SETUP_SAMPLES fresh `qcalc catalog list`
processes.  The median and the tail latency are Harrell-Davis estimates.

--trace 1 (per layer): runs the same operations in this process through
`qcalc.cli.main` under the same deadline, with every function in
tracing.SPANS wrapped, for whole cycles until S seconds have passed, and
reports self time and calls per cycle for each span.  Each operation also
runs untraced, which gives the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  An operation fails when it hits the deadline, exits
with an unexpected code or prints output that fails its check; `correct` is
false only when an operation finished with wrong output or exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 4.0
SETUP_SAMPLES = 21
# What calibrate() takes at the reference speed.  Timings are reported as
# they would read at that speed; see calibrate().
CALIBRATION_REF_S = 0.029
CATALOG_NAMES = ["g1", "g2", "heisenberg", "prop31_family"]


def child_env() -> dict[str, str]:
    """The caller's environment with qcalc on the path and bytecode caching on.

    The warm-up runs of measure_setup write src/qcalc/__pycache__, so timed
    processes load bytecode as an installed package would, instead of
    compiling every module in every process.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def calibrate() -> float:
    """Wall time of a fixed pure-Python workload run in this process.

    On a shared 2-vCPU virtual machine the CPU speed a process sees was found
    to change by up to 1.7x within seconds.  Every timing of the end-to-end run is taken between two
    calibrations and multiplied by CALIBRATION_REF_S over their mean, which
    states it at a fixed reference speed.  The workload is integer and
    Fraction arithmetic with dict stores, like qcalc's own inner loops, and
    never touches qcalc, so a change to qcalc moves the timings in full.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for k in range(1, 7000):
        acc += Fraction(k % 7 - 3, k % 11 + 1)
        table[k % 97] = acc * acc
    return time.perf_counter() - start


class Clock:
    """Times work at the reference speed: each interval over the mean of the
    calibrations taken just before and just after it."""

    def __init__(self) -> None:
        self.calibrations = [calibrate()]
        self.raw: list[float] = []

    def scale(self, elapsed: float) -> float:
        """elapsed (just measured) at the reference speed; calibrates again."""
        self.calibrations.append(calibrate())
        self.raw.append(elapsed)
        return elapsed * CALIBRATION_REF_S * 2 / sum(self.calibrations[-2:])


def run_process(argv: list[str], env: dict[str, str]) -> tuple[float, int | None, str]:
    """(seconds, exit code or None on timeout, stdout) of one fresh qcalc process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcalc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out, rc = "", None
    return time.perf_counter() - start, rc, out


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median time of a fresh `qcalc catalog list` after two warm-up runs:
    (at the reference speed, as measured)."""
    clock, times = None, []
    for n in range(SETUP_SAMPLES + 2):
        if n == 2:
            clock = Clock()
        elapsed, rc, out = run_process(["catalog", "list", "--format", "json"], env)
        if rc != 0 or json.loads(out) != {"names": CATALOG_NAMES}:
            raise RuntimeError(f"qcalc catalog list failed (exit {rc})")
        if clock is not None:
            times.append(clock.scale(elapsed))
    return statistics.median(times), statistics.median(clock.raw)


# ---------------------------------------------------------------------------
# in-process execution for the traced run


class Deadline(BaseException):
    """Raised by SIGALRM inside an in-process operation that overran."""


def run_inprocess(argv: list[str], tracer: tracing.Tracer | None) -> tuple[float, int | None, str, list[str]]:
    """(seconds, exit code or None on timeout, stdout, spans open at the deadline)."""
    from qcalc import cli

    open_at_deadline: list[str] = []

    def on_alarm(signum, frame):
        if tracer is not None:
            open_at_deadline.extend(tracer.open_spans())
        raise Deadline

    previous = signal.signal(signal.SIGALRM, on_alarm)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                rc = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        rc = None
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if tracer is not None and rc is None:
        tracer.close_open(time.perf_counter())
    return elapsed, rc, out.getvalue() if rc is not None else "", open_at_deadline


# ---------------------------------------------------------------------------
# checks and metrics


def verdicts(ops, results, expected, manifest) -> list[str | None]:
    """Per result: None when it passed, otherwise why it failed."""
    memo: dict = {}
    out = []
    for op, (_, rc, stdout) in zip(ops, results):
        if rc is None:
            out.append("timeout")
            continue
        key = (op, rc, stdout)
        if key not in memo:
            memo[key] = workloads.check(op, rc, stdout, expected, manifest)
        out.append(memo[key])
    return out


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of the population behind xs.

    A weighted mean of all order statistics, the ith weighted by the mass a
    Beta((n+1)p, (n+1)(1-p)) distribution puts on [(i-1)/n, i/n].  A run mixes
    a few kinds of operation and draws few inputs of each, so the single order
    statistic at rank pn jumps between kinds with the draw; this estimate moves
    smoothly with every sample near that rank.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1 or p >= 1:
        return xs[-1]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per interval; the density is smooth at this scale
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it."""
    n = len(latencies_ms)
    p = (n - 10) / n if n > 10 else 1.0
    return quantile(latencies_ms, p), 100.0 * p


def input_properties(ops, manifest) -> dict[str, float]:
    """Means over operations of input nnz and height bits, and the share with h >= 2."""
    nnz, bits, high = [], [], []
    for op in ops:
        if op.input is None:
            eqs = gen.source_equations(op.source)[1]
            nnz.append(gen.nnz(eqs))
            bits.append(gen.height_bits(eqs))
            high.append(0)
        else:
            e = manifest[op.input]
            nnz.append(e["nnz"])
            bits.append(e["height_bits"])
            high.append(1 if e["h"] >= 2 else 0)
    return {
        "input.nnz": statistics.fmean(nnz),
        "input.height_bits": statistics.fmean(bits),
        "input.h_ge2_share": statistics.fmean(high),
    }


def summary(ops, results, reasons) -> tuple[int, int, int]:
    """(attempted, failed, wrong) where wrong excludes timeouts."""
    failed = sum(1 for r in reasons if r is not None)
    wrong = sum(1 for r in reasons if r not in (None, "timeout"))
    for op, r in zip(ops, reasons):
        if r not in (None, "timeout"):
            print(f"FAILED {op.kind} {op.input or op.source}: {r}")
    return len(results), failed, wrong


def untraced(cycles, manifest, expected, seconds: int) -> tuple[dict, tuple[int, int, int]]:
    env = child_env()
    setup_s, setup_raw_s = measure_setup(env)
    ops, results, n_cycles = [], [], 0
    clock, wall = Clock(), 0.0
    # The client is closed-loop, so the wall time of the timed phase is the sum
    # of the operations' times.  Whole cycles run until that sum, at the
    # reference speed, reaches `seconds`: the number of cycles, and with it the
    # mix of operations behind each percentile, then does not follow the speed
    # of the machine.  An operation that hit the deadline is charged the time
    # it took, unscaled: it would have hit the deadline at any speed.
    while not n_cycles or wall < seconds:
        for op in cycles[n_cycles % len(cycles)]:
            elapsed, rc, out = run_process(op.argv(manifest), env)
            scaled = clock.scale(elapsed)
            charged = scaled if rc is not None else elapsed
            ops.append(op)
            results.append((charged, rc, out))
            wall += charged
        n_cycles += 1
    counts = summary(ops, results, verdicts(ops, results, expected, manifest))
    attempted, failed, _ = counts
    lat = [r[0] * 1000 for r in results]
    tail_ms, pct = tail(lat)
    print(f"{attempted} operations in {n_cycles} cycles, {sum(clock.raw):.1f} s as measured")
    print(
        f"as measured: setup_s {setup_raw_s:.4f}, latency_ms_p50 {statistics.median(clock.raw) * 1000:.1f}, "
        f"median calibration {statistics.median(clock.calibrations) * 1000:.1f} ms "
        f"(reference {CALIBRATION_REF_S * 1000:.0f} ms)"
    )
    print(f"fail_frac = {failed / attempted:.4f} ({sum(1 for r in results if r[1] is None)} timeouts)")
    print(f"latency_ms_tail is p{pct:.1f} of {attempted} samples")
    for k, v in input_properties(ops, manifest).items():
        print(f"{k} = {v:.2f}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (quantile(lat, 0.5), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "pass_frac": ((attempted - failed) / attempted, "frac"),
        "child_maxrss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return metrics, counts


def traced(cycles, manifest, expected, seconds: int) -> tuple[dict, tuple[int, int, int]]:
    sys.path.insert(0, str(SRC))
    import qcalc.cli  # noqa: F401  (imports every qcalc module before wrapping)

    tracer = tracing.Tracer()
    ops, results, pairs, root_timeouts, n_cycles = [], [], [], 0, 0
    start = time.perf_counter()
    while not n_cycles or time.perf_counter() - start < seconds:
        for i, op in enumerate(cycles[n_cycles % len(cycles)]):
            # Each operation also runs untraced right before or after its traced
            # run, alternating, so that drift in machine speed cancels out of
            # the overhead.  An untraced twin is skipped once the traced run
            # has hit the deadline.
            argv = op.argv(manifest)
            plain = run_inprocess(argv, None) if i % 2 else None
            tracer.install()
            try:
                elapsed, rc, out, open_spans = run_inprocess(argv, tracer)
            finally:
                tracer.uninstall()
            if plain is None and rc is not None:
                plain = run_inprocess(argv, None)
            ops.append(op)
            results.append((elapsed, rc, out))
            root_timeouts += "scalars.rational_roots" in open_spans
            if rc is not None and plain[1] is not None:
                pairs.append((plain[0], elapsed))
        n_cycles += 1
    counts = summary(ops, results, verdicts(ops, results, expected, manifest))

    base = sum(a for a, _ in pairs)
    overhead = (sum(b for _, b in pairs) - base) / base if base else 0.0

    selfs = tracing.self_times(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPANS:
        total, calls = selfs.get(name, (0.0, 0))
        metrics[f"{name}.self_ms"] = (total * 1000 / n_cycles, "ms")
        metrics[f"{name}.calls"] = (calls / n_cycles, "count")
    for name in tracing.SIZES:
        sizes = tracer.sizes.get(name)
        metrics[f"{name}.nonzero"] = (statistics.fmean(sizes) if sizes else 0.0, "count")
    metrics["scalars.rational_roots.timeouts"] = (root_timeouts / n_cycles, "count")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    units = {"input.nnz": "count", "input.height_bits": "bits", "input.h_ge2_share": "frac"}
    for k, v in input_properties(ops, manifest).items():
        metrics[k] = (v, units[k])
    print(f"traced {len(ops)} operations in {n_cycles} cycles")
    return metrics, counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcalc" / "cli.py").is_file():
        print(f"error: no qcalc sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cycles, manifest = workloads.build(args.workload, args.seed, workdir)
        expected = workloads.load_expected()
        measure = traced if args.trace else untraced
        metrics, (attempted, failed, wrong) = measure(cycles, manifest, expected, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
