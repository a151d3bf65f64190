#!/usr/bin/env python
"""Run the north-star command at smoke scale and check it against
standalone runs of each table and figure.

The paper-smoke CI job, runnable locally::

    PYTHONPATH=src python tools/ci_paper_smoke.py [--length N] [--warmup N]

First runs ``python -m repro.experiments --all`` in one process, where
every table and figure shares the run's trace cache and each trace's
warm state.  Then runs each table and figure alone, each in a fresh
process.  Every run must exit 0, and the ``--all`` output must equal
the standalone outputs in the same order, ignoring the
``[table N: ...s]`` / ``[figure N: ...s]`` timing lines: sharing traces
and warm state across figures must change no number.  Exit status 0
when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import time
from typing import List, Tuple


def _run(args: List[str]) -> Tuple[int, str]:
    """``python -m repro.experiments ARGS`` in a fresh process:
    (exit code, stdout); stderr passes through."""
    command = [sys.executable, "-m", "repro.experiments"] + args
    print("$ " + " ".join(command[1:]), file=sys.stderr, flush=True)
    started = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ))
    print(f"  rc {done.returncode}, {time.monotonic() - started:.1f}s",
          file=sys.stderr, flush=True)
    return done.returncode, done.stdout


def _numbers(text: str) -> List[str]:
    """Rendered output without the per-table/figure timing lines."""
    return [line for line in text.splitlines()
            if not line.startswith(("[table ", "[figure "))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=2000)
    args = parser.parse_args(argv)

    from repro.experiments.__main__ import _FIGURES, _TABLES

    scale = ["--length", str(args.length), "--warmup", str(args.warmup)]
    failures = []
    rc, together = _run(["--all"] + scale)
    if rc != 0:
        failures.append(f"--all exited {rc}")
    alone = []
    for flag, numbers in (("--table", _TABLES), ("--figure", _FIGURES)):
        for number in sorted(numbers):
            rc, text = _run([flag, str(number)] + scale)
            if rc != 0:
                failures.append(f"{flag} {number} exited {rc}")
            alone.extend(_numbers(text))
    diff = list(difflib.unified_diff(
        alone, _numbers(together), "standalone runs", "--all", lineterm=""))
    if diff:
        failures.append("--all output differs from the standalone runs:")
        failures.extend(diff[:200])
    for line in failures:
        print(line)
    if not failures:
        print(f"paper smoke ok: --all matches {len(_TABLES)} tables and "
              f"{len(_FIGURES)} figures run alone")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
