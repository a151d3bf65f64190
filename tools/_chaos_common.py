"""Shared scaffolding for the chaos-style CI gates.

`ci_crash_consistency.py` and `ci_service_gauntlet.py` follow the same
shape — run something adversarial, fsck the debris, print FAIL lines,
exit nonzero.  The helpers here are that shape, once:

* :func:`fsck_gate` — verify a root, print non-ok findings and the
  summary, append a failure when anything is unrepaired;
* :func:`report_failures` — print the FAIL lines (or the success
  message) and turn them into an exit status.
"""

from __future__ import annotations

from typing import List, Optional


def fsck_gate(root: str, failures: List[str],
              tag: Optional[str] = None) -> None:
    """Verify ``root``; print the non-ok findings and the summary, and
    append one failure when unrepaired damage remains."""
    from repro.store.fsck import fsck_tree

    report = fsck_tree(root)
    for finding in report.findings:
        if finding.status != "ok":
            print(finding)
    print(f"[{tag}] {report.summary()}" if tag else report.summary())
    if report.unrepaired:
        where = f" on {tag}" if tag else ""
        failures.append(
            f"{tag + ': ' if tag else ''}fsck: {len(report.unrepaired)} "
            f"unrepaired problem(s){where}")


def report_failures(failures: List[str], success_message: str) -> int:
    """Print ``FAIL:`` lines (or the success message); 1 iff any."""
    for line in failures:
        print(f"FAIL: {line}")
    if not failures:
        print(success_message)
    return 1 if failures else 0
