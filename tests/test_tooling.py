"""The benchmark harness's traced run against the real package."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import parser_oracle
from ksym.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_target_resolves():
    # the lookup Recorder.install does before it wraps anything; a name missing
    # here would make every traced benchmark command fail with LookupError
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.SPAN_NAMES:
        module_name, _, target = name.partition(".")
        holder = importlib.import_module(f"ksym.{module_name}")
        for attr in target.split("."):
            holder = vars(holder).get(attr)
            if holder is None:
                missing.append(name)
                break
        else:
            assert callable(holder), name
    assert not missing


def parsed(parser, argv) -> dict:
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(parser.parse_args(argv)).items()
    }


def test_benchmark_commands_parse_as_under_the_full_parser():
    # the benchmark times the parser path a user's command takes
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())
    argvs = [command["argv"] for workload in workloads.values() for command in workload["commands"]]
    assert argvs
    for argv in argvs:
        assert parsed(build_parser(), argv) == parsed(parser_oracle.build_parser(), argv), argv
