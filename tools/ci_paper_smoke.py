#!/usr/bin/env python
"""Run the north-star command at smoke scale and check it against
standalone runs of each table and figure.

The paper-smoke CI job, runnable locally::

    PYTHONPATH=src python tools/ci_paper_smoke.py [--length N] [--warmup N]

First runs ``python -m repro.experiments --all`` in one process, which
simulates each distinct cell of every table and figure once, on the
run's shared traces and their warm state, and renders every table and
figure from those results, then the ablations.  Then runs each table
and figure alone, each in a fresh process.  Every run must exit 0,
``--all`` must print every ablation, and the part of its output before
them must equal the standalone outputs in the same order: sharing
cells, traces and warm state across figures must change no number.
(The timing lines go to stderr, so stdout holds only the numbers.)

A second pass does the same for ``--table 2 --figure 2`` at
``--warmup 10000``: Table 2's traces then cover Figure 2's 10,000-op
streams, so Figure 2 reads its ops from them instead of generating its
own, and must render exactly as it does alone.

A third pass runs ``--all --jobs 2``: every cell then runs on one of
two forked worker processes, and its whole output, ablations included, must
equal the serial ``--all`` output.  Exit status 0 when all of that
holds, 1 otherwise.
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


#: The first line of each ablation's section.
ABLATION_TITLE = "Ablation: "

#: Table 2's streams (``--warmup`` plus ``--length`` ops) cover Figure
#: 2's 10,000 ops at this scale, so Figure 2 reuses them.
FIGURE2_REUSE_SCALE = ["--width", "4", "--length", "200", "--warmup", "10000"]


def _diff(expected: List[str], lines: List[str], what: str,
          label: str) -> List[str]:
    """The failure lines when ``lines`` differ from ``expected``;
    ``what`` names where ``expected`` came from."""
    diff = list(difflib.unified_diff(
        expected, lines, what, label, lineterm=""))
    if not diff:
        return []
    return [f"{label} output differs from {what}:"] + diff[:200]


def _compare(together: List[str], parts: List[Tuple[str, int]],
             scale: List[str]) -> Tuple[List[str], str]:
    """Run ``together`` in one process and each (flag, number) of
    ``parts`` alone: the failures (bad exit codes, differing output) and
    the output of ``together``."""
    label = " ".join(together)
    failures = []
    rc, text = _run(together + scale)
    if rc != 0:
        failures.append(f"{label} exited {rc}")
    alone = []
    for flag, number in parts:
        rc, part = _run([flag, str(number)] + scale)
        if rc != 0:
            failures.append(f"{flag} {number} exited {rc}")
        alone.extend(part.splitlines())
    # --all ends with the ablations, which no flag runs alone.
    lines = text.splitlines()
    cut = next((i for i, line in enumerate(lines)
                if line.startswith(ABLATION_TITLE)), len(lines))
    return failures + _diff(alone, lines[:cut], "the standalone runs",
                            label), text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=2000)
    args = parser.parse_args(argv)

    from repro.experiments.__main__ import _FIGURES, _TABLES
    from repro.experiments.figures import ABLATIONS

    scale = ["--length", str(args.length), "--warmup", str(args.warmup)]
    everything = [("--table", n) for n in sorted(_TABLES)] + [
        ("--figure", n) for n in sorted(_FIGURES)]
    failures, serial = _compare(["--all"], everything, scale)
    printed = sum(line.startswith(ABLATION_TITLE)
                  for line in serial.splitlines())
    if printed != len(ABLATIONS):
        failures.append(f"--all printed {printed} of {len(ABLATIONS)} "
                        "ablations")
    failures += _compare(
        ["--table", "2", "--figure", "2"], [("--table", 2), ("--figure", 2)],
        FIGURE2_REUSE_SCALE)[0]
    rc, parallel = _run(["--all", "--jobs", "2"] + scale)
    if rc != 0:
        failures.append(f"--all --jobs 2 exited {rc}")
    failures += _diff(serial.splitlines(), parallel.splitlines(),
                      "the serial --all", "--all --jobs 2")
    for line in failures:
        print(line)
    if not failures:
        print(f"paper smoke ok: --all matches {len(_TABLES)} tables and "
              f"{len(_FIGURES)} figures run alone, prints "
              f"{len(ABLATIONS)} ablations and matches --all --jobs 2, and "
              "--table 2 --figure 2 at --warmup 10000 matches both run "
              "alone")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
