"""The benchmark harness's traced run against the real package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
