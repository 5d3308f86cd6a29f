"""Benchmark of the ksym command line, run the way a user runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 50 --trace 0

One client, closed loop: each command of the workload (``workloads.json``)
runs in a fresh interpreter through ``child.py`` and the next one starts
only after it exits.  One pass runs every command of the workload once;
passes repeat until ``--seconds`` have gone by.  Every outcome is checked:
exit code, JSON report, each check's pass flag, finite residuals and grid
sizes.  The workload seed goes, as ``--seed``, to every command that
samples.

On a shared VM a core slows by up to half for seconds at a time when a
neighbour's work lands on the same physical core, so every time metric is
scaled to a steady reference speed: the driver and its children are pinned
to one CPU, a fixed reference loop (``reference_s``) is timed on that CPU
before each child and after each pass, and a command's times are multiplied
by its speed scale (``speed_scale``), which follows the reference times
around it.  The raw times are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children time each layer's public
functions (``spans.py``) and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

# Children run with one BLAS/OpenMP thread: with the default thread pools a
# child burns more CPU than wall time on a 2-core box and passes spread widely.
CHILD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# No command runs longer than this; the slowest takes about 3 s.
CHILD_TIMEOUT_S = 30.0
TAIL_BEYOND = 10
# Time of one ``reference_work`` on an uncontended core of a 2-core VM
# (Python 3.11, numpy 2.4); scaled times read as if the reference loop took this.
REF_S = 1.0e-3
REF_REPEATS = 5
# A child slows less than the reference loop when a neighbour loads the core.
# Fitted on 4-minute runs of golden and sampled on a 2-core VM: medians over
# 50-second windows spread least with this power (a per-command regression,
# diluted by the noise of single reference timings, gives 0.6 to 0.75).
REF_POWER = 0.85


# ---------------------------------------------------------------------------
# statistics and checks (pure; tested in test_run.py)
# ---------------------------------------------------------------------------


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, sample count).  The value is the order
    statistic of rank n - beyond (1-based), so exactly ``beyond`` samples
    lie above it; with ``beyond`` samples or fewer it is the minimum.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - beyond, 1)
    return 100.0 * rank / n, ordered[rank - 1], n


def reference_work() -> float:
    """Fixed work of the kinds ksym does: interpreted arithmetic and dict
    traffic, then arithmetic on small numpy arrays."""
    table = {}
    total = 0.0
    for i in range(3000):
        x = i * 1e-3
        table[i % 97] = x * x + math.sin(x)
        total += table[i % 97]
    values = np.arange(64.0)
    for _ in range(150):
        values = np.sqrt(values * values + 1.0) - 0.5
    return total + float(values.sum())


def reference_s(repeats: int = REF_REPEATS) -> float:
    """Median time of ``reference_work``, after one untimed call that warms
    the driver's caches again after a child ran."""
    reference_work()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(refs, index: int) -> float:
    """Scale for the command that ran after ``refs[index]``: REF_S over the
    mean of the reference times just before the previous command, before and
    after this one, and after the next, to the power REF_POWER."""
    return (REF_S / statistics.fmean(refs[max(index - 1, 0):index + 3])) ** REF_POWER


def self_times(parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans of one thread nest, so a parent's children do not overlap and
    subtracting their durations leaves the time spent in the parent itself.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    nested = parents != spans.NO_PARENT
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=len(durations))
    return durations - covered


def outcome_problems(spec: dict, exit_code, stdout: str, timed_out: bool = False) -> list:
    """Why one command's outcome is wrong; an empty list means it is right."""
    if timed_out:
        return [f"timed out after {CHILD_TIMEOUT_S:g} s"]
    problems = []
    if exit_code != spec["exit"]:
        problems.append(f"exit code {exit_code}, expected {spec['exit']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return problems + ["stdout is not a JSON report"]
    if not all(isinstance(check, dict) for check in report["checks"]):
        return problems + ["a check is not a JSON object"]
    got = [(check.get("name"), check.get("pass")) for check in report["checks"]]
    want = [tuple(check) for check in spec["checks"]]
    if got != want:
        problems.append(f"checks {got}, expected {want}")
    for check in report["checks"]:
        residual = check.get("max_residual")
        if check.get("pass") is True and not (
            isinstance(residual, (int, float)) and math.isfinite(residual)
        ):
            problems.append(f"check {check.get('name')!r} passes with max_residual {residual!r}")
    for key in ("grid_shape", "csv_rows"):
        if spec[key] is not None and report.get(key) != spec[key]:
            problems.append(f"{key} {report.get(key)!r}, expected {spec[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One command as the driver saw it."""

    spec: dict
    command_id: int
    t_spawn: float
    t_exit: float = math.nan
    exit_code: int | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    timed_out: bool = False
    problems: list = field(default_factory=list)
    timing: dict | None = None  # what child.py wrote
    report: dict | None = None
    ref_index: int = 0  # the reference time measured just before the spawn
    scale: float = 1.0  # speed_scale of the command

    @property
    def life_s(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def setup_s(self) -> float:
        return self.timing["t_ksym"] - self.t_spawn

    @property
    def cmd_s(self) -> float:
        return self.timing["t_main_end"] - self.timing["t_main_start"]

    @property
    def nodes(self) -> int:
        shape = (self.report or {}).get("grid_shape") or []
        return math.prod(shape) if shape else 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    env.update(CHILD_PINS)
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap the child with wait4 for its rusage, killing it after ``timeout``.

    waitid(WNOWAIT) leaves the exited child a zombie, so the timer cannot
    signal a recycled pid between the child's exit and the reap.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, state["killed"]


def spawn(spec: dict, argv: list, command_id: int, traced: bool, env: dict) -> Outcome:
    base = RUN_DIR / f"c{command_id}"
    command = [sys.executable, str(HERE / "child.py"), f"{base}.json",
               "1" if traced else "0", str(command_id), *argv]
    with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        try:
            code, usage, killed = wait_child(proc, CHILD_TIMEOUT_S)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        t_exit = time.monotonic()
    return Outcome(spec, command_id, t_spawn, t_exit, code,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, killed)


def command_argv(spec: dict, seed: int, csv_path: Path) -> list:
    argv = [str(csv_path) if arg == "{csv}" else arg for arg in spec["argv"]]
    if spec["samples"]:
        argv += ["--seed", str(seed)]
    return argv + ["--format", "json"]


def finish(outcome: Outcome, csv_path: Path) -> None:
    """Read what the child left behind and check it (after the pass's clock)."""
    base = RUN_DIR / f"c{outcome.command_id}"
    stdout = Path(f"{base}.out").read_text(encoding="utf-8", errors="replace")
    outcome.problems = outcome_problems(outcome.spec, outcome.exit_code, stdout,
                                        outcome.timed_out)
    try:
        outcome.report = json.loads(stdout)
    except ValueError:
        outcome.report = None
    try:
        outcome.timing = json.loads(Path(f"{base}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        outcome.problems.append("the child wrote no timings")
    if outcome.spec["csv_rows"] is not None and not outcome.timed_out:
        try:
            with open(csv_path, "rb") as handle:
                lines = sum(1 for _ in handle)
        except OSError:
            lines = None
        if lines != outcome.spec["csv_rows"] + 1:
            outcome.problems.append(f"CSV has {lines} lines, expected a header and "
                                    f"{outcome.spec['csv_rows']} rows")
    if outcome.problems:
        stderr = Path(f"{base}.err").read_text(encoding="utf-8", errors="replace")
        outcome.problems.append("stderr: " + stderr.strip()[-400:])
    for suffix in (".out", ".err", ".json"):
        Path(f"{base}{suffix}").unlink(missing_ok=True)
    csv_path.unlink(missing_ok=True)


@dataclass
class Pass:
    traced: bool
    outcomes: list
    pass_s: float


class Runner:
    def __init__(self, workload: str, seed: int):
        self.commands = WORKLOADS[workload]["commands"]
        self.seed = seed
        self.env = child_env()
        self.next_id = 0
        self.refs = []  # reference_s before each child and after each pass

    def run_pass(self, traced: bool) -> Pass:
        """Run every command once.  pass_s is the sum of the children's
        lives, spawn to exit, so the reference timing between them is left out."""
        outcomes = []
        csv_paths = []
        for spec in self.commands:
            command_id = self.next_id
            self.next_id += 1
            csv_path = RUN_DIR / f"c{command_id}.csv"
            argv = command_argv(spec, self.seed, csv_path)
            self.refs.append(reference_s())
            outcome = spawn(spec, argv, command_id, traced, self.env)
            outcome.ref_index = len(self.refs) - 1
            outcomes.append(outcome)
            csv_paths.append(csv_path)
        self.refs.append(reference_s())
        for outcome, csv_path in zip(outcomes, csv_paths):
            finish(outcome, csv_path)
        return Pass(traced, outcomes, sum(o.life_s for o in outcomes))

    def apply_speed_scales(self, passes: list) -> None:
        """Set each outcome's speed scale, once the run's references are in."""
        for outcome in (o for p in passes for o in p.outcomes):
            outcome.scale = speed_scale(self.refs, outcome.ref_index)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def timed(outcomes):
    return [o for o in outcomes if o.timing is not None and not o.problems]


def rate(outcomes, work, scale) -> float:
    """Work per second inside main: the sum of ``work`` over the sum of cmd_s."""
    counted = [o for o in outcomes if work(o)]
    if not counted:
        return 0.0
    return sum(work(o) for o in counted) / sum(o.cmd_s * scale(o) for o in counted)


def scaled(o: Outcome) -> float:
    return o.scale


def unscaled(o: Outcome) -> float:
    return 1.0


def end_to_end(passes: list, tail_passes: int) -> tuple[dict, dict]:
    """(metrics, details) over the untraced passes.

    Every time is scaled by its command's speed scale; the details repeat
    the time metrics unscaled.  pass_s, cpu_s, work_per_s and peak_rss_mb
    are taken per pass and the median over passes is reported.  cmd_s.p50
    is the median over the workload's commands of each command's median:
    the median of the pooled samples falls between the samples of two
    commands and so reads the extremes of both.

    A pass mixes commands of very different lengths, so the order statistic
    that the tail rule picks jumps from one command to another as the number
    of passes changes.  The tail therefore uses the first ``tail_passes``
    passes only, a count ``measure`` makes every correct run reach, and so
    keeps its percentile.  Each workload's count puts rank n - 10 inside one
    command's samples rather than on the edge between two commands.
    """
    plain = [p for p in passes if not p.traced]
    per_pass = [timed(p.outcomes) for p in plain]
    per_pass = [outcomes for outcomes in per_pass if outcomes]

    def points(o):
        return o.spec["samples"]

    def nodes(o):
        return o.nodes

    def work(o):
        return points(o) + nodes(o)

    def rate_median(work, scale):
        return statistics.median(rate(outcomes, work, scale) for outcomes in per_pass)

    def times(scale):
        by_command = {}
        for o in (o for ocs in per_pass for o in ocs):
            by_command.setdefault(tuple(o.spec["argv"]), []).append(o.cmd_s * scale(o))
        tail = tail_percentile(
            [o.cmd_s * scale(o) for p in plain[:tail_passes] for o in timed(p.outcomes)]
        )
        return tail, {
            "setup_s": (statistics.median(o.setup_s * scale(o) for ocs in per_pass for o in ocs),
                        "s"),
            "cmd_s.p50": (statistics.median(statistics.median(v) for v in by_command.values()),
                          "s"),
            "cmd_s.tail": (tail[1], "s"),
            "pass_s": (statistics.median(sum(o.life_s * scale(o) for o in p.outcomes)
                                         for p in plain), "s"),
            "cpu_s": (statistics.median(sum(o.cpu_s * scale(o) for o in p.outcomes)
                                        for p in plain), "s"),
            "work_per_s": (rate_median(work, scale), "1/s"),
        }

    (tail_p, _, tail_n), metrics = times(scaled)
    metrics["peak_rss_mb"] = (
        statistics.median(max(o.rss_mb for o in p.outcomes) for p in plain), "MB"
    )
    details = {
        "passes": len(plain),
        "pass_s of each pass, unscaled": " ".join(f"{p.pass_s:.3f}" for p in plain),
        "cmd_s.tail percentile": f"p{tail_p:.1f} of {tail_n} samples, "
                                 f"{min(TAIL_BEYOND, tail_n - 1)} beyond",
        "speed scale, min/median/max": " ".join(
            f"{f(o.scale for ocs in per_pass for o in ocs):.3f}"
            for f in (min, statistics.median, max)
        ),
    }
    if any(points(o) for ocs in per_pass for o in ocs):
        details["points_per_s"] = (rate_median(points, scaled), "1/s")
    if any(nodes(o) for ocs in per_pass for o in ocs):
        details["nodes_per_s"] = (rate_median(nodes, scaled), "1/s")
    for name, value in times(unscaled)[1].items():
        details[f"{name}, unscaled"] = value
    return metrics, details


def layer_names() -> list:
    names = []
    for span_name in spans.SPAN_NAMES:
        names += [f"{span_name}.calls", f"{span_name}.self_s"]
    for module in spans.TARGETS:
        names += [f"{module}.self_s", f"{module}.errors"]
    names += [f"expr.compiled_evaluator.{key}" for key in ("hits", "misses", "currsize")]
    names += [counter for counter, _ in spans.COUNTERS.values()]
    names += ["setup.numpy_s", "setup.ksym_s", "trace.overhead_s"]
    return names


def trace_command(outcome: Outcome, totals: dict) -> float:
    """Add one traced command's spans to ``totals``.

    Returns the command's time outside any wrapped call: cmd_s minus the
    root spans.  Since a span's self time is its duration minus its direct
    children's, the self times sum to the root spans, so the module self
    times plus this remainder add up to cmd_s by construction.
    """
    path = RUN_DIR / f"c{outcome.command_id}.json.spans"
    command_id, names, parents, starts, ends, errors = spans.load_spans(path)
    path.unlink()
    if command_id != outcome.command_id:
        outcome.problems.append(f"span file of command {command_id}")
        return 0.0
    names = np.asarray(names, dtype=np.int64)
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    own = self_times(parents, starts, ends)
    roots = np.asarray(parents) == spans.NO_PARENT
    calls = np.bincount(names, minlength=len(spans.SPAN_NAMES))
    self_s = np.bincount(names, weights=own, minlength=len(spans.SPAN_NAMES))
    failed = np.bincount(names, weights=np.asarray(errors, dtype=float),
                         minlength=len(spans.SPAN_NAMES))
    for index, span_name in enumerate(spans.SPAN_NAMES):
        module = span_name.partition(".")[0]
        totals[f"{span_name}.calls"] += int(calls[index])
        totals[f"{span_name}.self_s"] += float(self_s[index])
        totals[f"{module}.self_s"] += float(self_s[index])
        totals[f"{module}.errors"] += int(failed[index])
    cache = outcome.timing.get("cache") or {}
    totals["expr.compiled_evaluator.hits"] += cache.get("hits", 0)
    totals["expr.compiled_evaluator.misses"] += cache.get("misses", 0)
    totals["expr.compiled_evaluator.currsize"] = max(
        totals["expr.compiled_evaluator.currsize"], cache.get("currsize", 0)
    )
    for counter, value in outcome.timing["counters"].items():
        totals[counter] += value
    return outcome.cmd_s - float((ends - starts)[roots].sum())


def pass_scaled_s(p: Pass) -> float:
    return sum(o.life_s * o.scale for o in p.outcomes)


def per_layer(passes: list) -> tuple[dict, dict]:
    """(metrics, details): each layer metric is its lower median over the traced
    passes, so that a count stays a whole number of one pass."""
    per_pass = []
    unwrapped = []
    for p in passes:
        if not p.traced:
            continue
        totals = dict.fromkeys(layer_names(), 0)
        for outcome in p.outcomes:
            if outcome.timing is None or outcome.timed_out:
                continue
            unwrapped.append(trace_command(outcome, totals))
        per_pass.append(totals)
    everyone = timed([o for p in passes for o in p.outcomes])
    plain = [pass_scaled_s(p) for p in passes if not p.traced]
    traced = [pass_scaled_s(p) for p in passes if p.traced]
    metrics = {}
    for name in layer_names():
        value = statistics.median_low(totals[name] for totals in per_pass)
        unit = "s" if name.endswith("_s") else ("B" if name.endswith(".bytes") else "count")
        metrics[name] = (value, unit)
    metrics["setup.numpy_s"] = (statistics.median(
        o.timing["t_numpy"] - o.timing["t_enter"] for o in everyone), "s")
    metrics["setup.ksym_s"] = (statistics.median(
        o.timing["t_ksym"] - o.timing["t_numpy"] for o in everyone), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    details = {"traced passes": len(traced), "untraced passes": len(plain),
               "time outside wrapped calls, median per command":
                   (statistics.median(unwrapped) if unwrapped else math.nan, "s")}
    return metrics, details


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def pin_cpu() -> int:
    """Pin the driver, and so every child it starts, to one CPU, so that the
    reference loop runs on the CPU the children run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "child_env": CHILD_PINS,
        "pinned_cpu": cpu,
        "reference_loop_s": REF_S,
        "reference_power": REF_POWER,
        "loop": "closed, one client, one fresh interpreter per command",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be from 1 to 120")
    return args


def measure(runner, seconds: float, trace: bool, min_passes: int) -> list:
    """Run passes for ``seconds``; untraced, run at least ``min_passes``.

    The untraced run keeps going past ``seconds`` until it has ``min_passes``
    passes, the count its tail percentile is taken over, unless a command
    went wrong: the run is then incorrect whatever its tail.
    """
    start = time.monotonic()
    passes = []
    while True:
        if trace:
            # an untraced and a traced pass; stop at the pair count closest to --seconds
            pair_start = time.monotonic()
            passes.append(runner.run_pass(traced=False))
            passes.append(runner.run_pass(traced=True))
            pair_s = time.monotonic() - pair_start
            if seconds - (time.monotonic() - start) < pair_s / 2:
                return passes
        else:
            passes.append(runner.run_pass(traced=False))
            wrong = any(o.problems for p in passes for o in p.outcomes)
            if time.monotonic() - start >= seconds and (len(passes) >= min_passes or wrong):
                return passes


def print_block(title: str, metrics: dict, details: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for name, value in details.items():
        if isinstance(value, tuple):
            print(f"  {name:<44} {value[0]:.6g} {value[1]}")
        else:
            print(f"  {name:<44} {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "ksym" / "cli.py").is_file():
        print(f"error: no ksym sources at {SOURCE / 'ksym'}", file=sys.stderr)
        return 2
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir()
    try:
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        nproc = len(os.sched_getaffinity(0))
        env = environment(pin_cpu())
        env["nproc"] = nproc
        print("environment " + json.dumps(env, sort_keys=True))
        # warm-up child, not measured: byte-compiles ksym and fills the page cache
        warm = spawn(WORKLOADS["golden"]["commands"][0], ["list-models", "--format", "json"],
                     -1, False, child_env())
        finish(warm, RUN_DIR / "warm.csv")
        if warm.problems:
            print("error: warm-up command failed: " + "; ".join(warm.problems), file=sys.stderr)
            return 1
        tail_passes = WORKLOADS[args.workload]["tail_passes"]
        runner = Runner(args.workload, args.seed)
        passes = measure(runner, args.seconds, args.trace, tail_passes)
        runner.apply_speed_scales(passes)
        outcomes = [o for p in passes for o in p.outcomes]
        if not timed(o for p in passes if not p.traced for o in p.outcomes):
            for outcome in outcomes[:3]:
                print("error: " + "; ".join(outcome.problems), file=sys.stderr)
            print("error: no command ran correctly, so nothing was measured", file=sys.stderr)
            return 1
        if args.trace:
            metrics, details = per_layer(passes)
        else:
            metrics, details = end_to_end(passes, tail_passes)
        wrong = [o for o in outcomes if o.problems]
        for outcome in wrong:
            print(f"finding: seed {args.seed}, command {' '.join(outcome.spec['argv'])}: "
                  + "; ".join(outcome.problems))
        details["fail_share"] = f"{len(wrong) / len(outcomes):.6g} ({len(wrong)}/{len(outcomes)})"
        print_block("per-layer metrics (traced run)" if args.trace else "end-to-end metrics",
                    metrics, details)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
