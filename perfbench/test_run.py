"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import math
import random
import signal
import subprocess
import sys
import types

import pytest

import run
import spans

NO = spans.NO_PARENT


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    parents = [NO, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    own = run.self_times(parents, starts, ends)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == ends[0] - starts[0]


def test_self_time_of_recursive_spans_and_separate_roots():
    # two roots; the second recurses twice into itself
    parents = [NO, NO, 1, 2]
    starts = [0.0, 2.0, 2.5, 3.0]
    ends = [1.0, 6.0, 5.5, 4.0]
    own = run.self_times(parents, starts, ends)
    assert own.tolist() == [1.0, 1.0, 2.0, 1.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    percentile, value, n = run.tail_percentile(values)
    assert (percentile, value, n) == (90.0, 90, 100)
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [11, 12, 25, 132])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    percentile, value, _ = run.tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_with_ten_samples_or_fewer_is_the_minimum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0 / 3, 1.0, 3)
    assert run.tail_percentile([float(i) for i in range(10)])[1] == 0.0


def test_speed_scale_averages_the_four_references_around_a_command():
    refs = [1.0, 2.0, 3.0, 6.0, 4.0]
    # command after refs[2]: refs 1..4 surround the previous, this and the next command
    power = run.REF_POWER
    assert run.speed_scale(refs, 2) == pytest.approx((run.REF_S / 3.75) ** power)
    # at the ends the window is cut short
    assert run.speed_scale(refs, 0) == pytest.approx((run.REF_S / 2.0) ** power)
    assert run.speed_scale(refs, 4) == pytest.approx((run.REF_S / 5.0) ** power)


def test_a_slower_host_leaves_scaled_times_alone():
    # a reference loop twice as slow slows the command by 2 ** REF_POWER
    slowdown = 2.0 ** run.REF_POWER
    fast = run.Outcome({}, 0, 0.0, 2.0, scale=run.speed_scale([1e-3] * 4, 1))
    slow = run.Outcome({}, 1, 0.0, 2.0 * slowdown, scale=run.speed_scale([2e-3] * 4, 1))
    assert fast.life_s * fast.scale == pytest.approx(slow.life_s * slow.scale)


SPEC = {
    "argv": ["verify", "divergence"],
    "exit": 0,
    "checks": [["commutation", True], ["divergence:momenta", True]],
    "samples": 0,
    "grid_shape": [65, 65],
    "csv_rows": None,
}


def report(*checks, **extra):
    body = {"command": "verify divergence", "checks": [
        {"name": name, "pass": passed, "max_residual": residual}
        for name, passed, residual in checks
    ]}
    body.update(extra)
    return json.dumps(body)


GOOD = report(("commutation", True, 0.0), ("divergence:momenta", True, 1e-12),
              grid_shape=[65, 65])


def test_verdict_checker_accepts_the_expected_outcome():
    assert run.outcome_problems(SPEC, 0, GOOD) == []


def test_verdict_checker_fails_a_pass_on_nan_residual():
    fabricated = report(("commutation", True, 0.0), ("divergence:momenta", True, math.nan),
                        grid_shape=[65, 65])
    assert "NaN" in fabricated  # as json.dumps writes a non-finite residual
    problems = run.outcome_problems(SPEC, 0, fabricated)
    assert len(problems) == 1 and "max_residual nan" in problems[0]


def test_verdict_checker_fails_a_pass_on_missing_or_infinite_residual():
    for residual in (math.inf, None):
        body = report(("commutation", True, 0.0), ("divergence:momenta", True, residual),
                      grid_shape=[65, 65])
        assert run.outcome_problems(SPEC, 0, body)


@pytest.mark.parametrize(
    "exit_code,stdout,timed_out,needle",
    [
        (1, GOOD, False, "exit code 1"),
        (0, "error: no model", False, "not a JSON report"),
        (0, "[1, 2]", False, "not a JSON report"),
        (0, report(("commutation", True, 0.0), ("divergence:momenta", False, 1.0),
                   grid_shape=[65, 65]), False, "checks"),
        (0, report(("commutation", True, 0.0), grid_shape=[65, 65]), False, "checks"),
        (0, report(("commutation", True, 0.0), ("divergence:momenta", True, 0.0),
                   grid_shape=[33, 65]), False, "grid_shape"),
        (None, "", True, "timed out"),
    ],
)
def test_verdict_checker_flags_each_wrong_outcome(exit_code, stdout, timed_out, needle):
    problems = run.outcome_problems(SPEC, exit_code, stdout, timed_out)
    assert any(needle in problem for problem in problems), problems


def test_verdict_checker_compares_csv_rows():
    spec = dict(SPEC, csv_rows=4225)
    body = report(("commutation", True, 0.0), ("divergence:momenta", True, 0.0),
                  grid_shape=[65, 65], csv_rows=4224)
    assert any("csv_rows" in p for p in run.outcome_problems(spec, 0, body))


def test_workload_expectations_are_consistent():
    for workload in run.WORKLOADS.values():
        assert workload["commands"] and workload["why"]
        for spec in workload["commands"]:
            assert spec["exit"] == (0 if all(p for _, p in spec["checks"]) else 1)
            if spec["csv_rows"] is not None:
                assert spec["csv_rows"] == math.prod(spec["grid_shape"])
        assert workload["seeded"] == any(spec["samples"] for spec in workload["commands"])
    assert sum(s["samples"] for s in run.WORKLOADS["sampled"]["commands"]) == 97000
    assert sum(math.prod(s["grid_shape"]) for s in run.WORKLOADS["grid"]["commands"]) == 118627


def fake_ksym():
    """Two modules that bind the same function, as ``from .x import f`` does."""
    calculus = types.ModuleType("ksym.calculus")
    conservation = types.ModuleType("ksym.conservation")

    def directional_derivative(x):
        return x + 1

    def verify_law_pointwise(x):
        if x < 0:
            raise ValueError("negative")
        return conservation.directional_derivative(x) * 2

    calculus.directional_derivative = directional_derivative
    conservation.directional_derivative = directional_derivative
    conservation.verify_law_pointwise = verify_law_pointwise
    return {"ksym.calculus": calculus, "ksym.conservation": conservation}


def test_recorder_wraps_every_binding_and_nests_spans():
    ticks = iter(range(100))
    recorder = spans.Recorder(7, clock=lambda: float(next(ticks)))
    modules = fake_ksym()
    recorder.install(modules, ["calculus.directional_derivative",
                               "conservation.verify_law_pointwise"])
    conservation = modules["ksym.conservation"]
    assert modules["ksym.calculus"].directional_derivative is conservation.directional_derivative
    assert conservation.verify_law_pointwise(1) == 4
    with pytest.raises(ValueError):
        conservation.verify_law_pointwise(-1)
    law = spans.SPAN_NAMES.index("conservation.verify_law_pointwise")
    derivative = spans.SPAN_NAMES.index("calculus.directional_derivative")
    assert list(recorder.names) == [law, derivative, law]
    assert list(recorder.parents) == [NO, 0, NO]
    assert list(recorder.errors) == [0, 0, 1]
    own = run.self_times(recorder.parents, recorder.starts, recorder.ends)
    assert own.tolist() == [2.0, 1.0, 1.0]


def test_recorder_refuses_a_missing_target():
    modules = fake_ksym()
    original = modules["ksym.calculus"].directional_derivative
    with pytest.raises(LookupError, match="calculus.lie_bracket"):
        spans.Recorder(1).install(modules, ["calculus.directional_derivative",
                                            "calculus.lie_bracket"])
    assert modules["ksym.calculus"].directional_derivative is original


class FakeRunner:
    """Passes that take no time; ``wrong`` marks each pass's outcome wrong."""

    def __init__(self, wrong=False):
        self.wrong = wrong

    def run_pass(self, traced):
        outcome = run.Outcome({}, 0, 0.0, 1.0)
        outcome.problems = ["exit code 1, expected 0"] if self.wrong else []
        return run.Pass(traced, [outcome], 1.0)


def test_a_short_run_still_reaches_the_tail_passes():
    passes = run.measure(FakeRunner(), seconds=0.0, trace=False, min_passes=7)
    assert len(passes) == 7 and not any(p.traced for p in passes)


def test_a_run_with_a_wrong_outcome_stops_at_its_seconds():
    passes = run.measure(FakeRunner(wrong=True), seconds=0.0, trace=False, min_passes=7)
    assert len(passes) == 1


def test_a_traced_run_alternates_untraced_and_traced_passes():
    passes = run.measure(FakeRunner(), seconds=0.0, trace=True, min_passes=7)
    assert [p.traced for p in passes] == [False, True]


def test_span_file_round_trip(tmp_path):
    recorder = spans.Recorder(12, clock=iter([1.0, 2.0]).__next__)
    wrapped = recorder.wrap(lambda: None, "cli.load_model")
    wrapped()
    path = tmp_path / "c12.spans"
    recorder.dump(path)
    command_id, names, parents, starts, ends, errors = spans.load_spans(path)
    assert command_id == 12
    assert list(names) == [spans.SPAN_NAMES.index("cli.load_model")]
    assert (list(parents), list(starts), list(ends), list(errors)) == ([NO], [1.0], [2.0], [0])


def test_wait_child_kills_a_child_past_its_timeout():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    code, usage, killed = run.wait_child(proc, 0.5)
    assert killed and code == -signal.SIGKILL
    assert usage.ru_maxrss > 0


def test_wait_child_reports_exit_code_and_rusage():
    proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
    code, usage, killed = run.wait_child(proc, 30.0)
    assert (code, killed) == (3, False)
    assert usage.ru_utime + usage.ru_stime > 0
