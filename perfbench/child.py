"""Child entry shim: one ksym command in a fresh interpreter, with timestamps.

Usage: python3 child.py RESULT_JSON TRACE COMMAND_ID KSYM_ARGV...

It imports numpy, then ``ksym.cli``, calls ``ksym.cli.main(KSYM_ARGV)``,
flushes the printed report and exits with its return code, as the ``ksym``
console script would.  The timestamps it writes to RESULT_JSON use the
system-wide monotonic clock, so the driver can subtract its own spawn time
from them.  With TRACE=1 the span recorder wraps the layer functions first
and its spans go to RESULT_JSON + ".spans".  ``python -m ksym.cli`` is not
used because it warns on every call (``ksym/__init__.py`` already imports
``ksym.cli``).
"""

import time

t_enter = time.monotonic()
import numpy  # noqa: E402  (timed on its own: numpy is most of the import)

t_numpy = time.monotonic()
import ksym.cli  # noqa: E402

t_ksym = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    result_path, trace, command_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    record = {"t_enter": t_enter, "t_numpy": t_numpy, "t_ksym": t_ksym}
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(command_id)
        recorder.install({name: module for name, module in sys.modules.items()
                          if name == "ksym" or name.startswith("ksym.")})
    record["t_main_start"] = time.monotonic()
    try:
        code = ksym.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        record["t_main_end"] = time.monotonic()
        if recorder is not None:
            cache = getattr(ksym.expr, "compiled_evaluator", None)
            info = cache.cache_info() if hasattr(cache, "cache_info") else None
            record["cache"] = info._asdict() if info is not None else None
            record["counters"] = recorder.counters
            recorder.dump(result_path + ".spans")
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
