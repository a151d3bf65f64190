"""Shared scaffolding for the chaos-style CI gates.

`ci_chaos_farm.py` and `ci_crash_consistency.py` follow the same
shape — run something adversarial, compare against a reference, fsck
the debris, print FAIL lines, exit nonzero.  The helpers here are that
shape, once:

* :func:`compare_cells` — cell-by-cell bit-identity of a farmed sweep
  against its fault-free reference (lost and divergent cells);
* :func:`check_report` — the universal farm-report invariants
  (exactly-once completion, zero failed/divergent);
* :func:`fsck_gate` — verify a root, print non-ok findings and the
  summary, append a failure when anything is unrepaired;
* :func:`report_failures` — print the FAIL lines (or the success
  message) and turn them into an exit status.
"""

from __future__ import annotations

from typing import List, Optional


def compare_cells(plain, farmed, failures: List[str]) -> None:
    """Append a failure per lost or bit-divergent cell in ``farmed``;
    both are ``run_cells`` results tables."""
    for cell, want in plain.items():
        got = farmed.get(cell)
        name = "/".join(map(str, cell))
        if got is None or not hasattr(got, "to_dict"):
            failures.append(f"lost cell: {name} -> {got!r}")
        elif got.to_dict() != want.to_dict():
            failures.append(f"divergent cell: {name}")


def check_report(report, failures: List[str]) -> None:
    """The invariants every farm run owes, whatever the chaos plan.  A
    zombie's bit-identical duplicate is allowed on disk (the broker
    verifies and drops it at fold time); a divergent one is not."""
    print(f"farm report: {report.to_dict()}")
    if report.completed != report.cells:
        failures.append(f"completed {report.completed}/{report.cells} cells")
    if report.failed:
        failures.append(f"{report.failed} cell(s) marked failed")
    if report.divergent:
        failures.append(
            f"{report.divergent} divergent duplicate(s): "
            f"{report.divergent_keys}")


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
