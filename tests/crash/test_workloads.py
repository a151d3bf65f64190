"""Every registered workload must survive its full crash-state sweep.

These are the CI teeth of the harness: each durability layer's real
write path, every enumerated power-loss state, recovery plus oracle.
A failure here is a crash-consistency bug in the layer (or a hole in
its recovery path), not a test flake — the whole pipeline is
deterministic.
"""

import pytest

from repro.crash import WORKLOADS, run_harness
from repro.crash.__main__ import main as crash_main

EXPECTED = {
    "farm-lease",
    "journal-append",
    "journal-archive",
    "serve-jobs",
    "store-envelope",
}


def test_registry_covers_every_durability_layer():
    assert set(WORKLOADS) == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_recovers_from_every_crash_state(name, tmp_path):
    report = run_harness(WORKLOADS[name], str(tmp_path))
    assert report.ops > 0, "workload recorded no I/O — observer hookup broken"
    assert report.states > report.crash_points // 2, \
        "suspiciously few states: enumeration is not exploring reorderings"
    assert report.clean, "\n".join(str(v) for v in report.violations[:10])


def test_cli_list_names_every_workload(capsys):
    assert crash_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED:
        assert name in out


def test_cli_run_smoke_limit(tmp_path, capsys):
    rc = crash_main(["run", "--workload", "store-envelope",
                     "--limit", "5", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "store-envelope" in out and "clean" in out
