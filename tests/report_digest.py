"""One SHA-256 over every benchmark workload command's output.

Usage, from the repository root:

    python3 tests/report_digest.py

Runs each command of ``perfbench/workloads.json`` in process, with the argv
that ``perfbench/run.py`` builds (``command_argv``) at seeds 42 and 7, once
with ``--format json`` and once with ``--format table``, and hashes the exit
codes, the reports with ``elapsed_ms`` scrubbed and the CSV files the
commands write.  Two source trees that print the same digest give
byte-identical reports.  The package is imported from the ``src`` beside
this file's directory, so a copy of this file in another checkout hashes
that checkout's code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (42, 7)


def digest() -> str:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    from ksym import cli

    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "grid.csv"
        argvs = []
        for workload in run.WORKLOADS.values():
            for spec in workload["commands"]:
                for seed in SEEDS:
                    as_json = run.command_argv(spec, seed, csv_path)
                    for argv in (as_json, as_json[:-1] + ["table"]):
                        if argv not in argvs:
                            argvs.append(argv)
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue())
            record = [" ".join(argv).replace(str(csv_path), "{csv}"), str(code), text]
            if csv_path.exists():
                record.append(csv_path.read_text(encoding="utf-8"))
                csv_path.unlink()
            sha.update("\0".join(record).encode("utf-8") + b"\1")
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
