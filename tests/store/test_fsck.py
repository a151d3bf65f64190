"""fsck engine details and the ``python -m repro.store`` CLI."""

import os
import subprocess
import sys

import pytest

from repro.core.stats import SimStats
from repro.farm.lease import FARM_SCHEMA, RESULT_KIND, CellResult
from repro.store import (
    atomic_write_bytes,
    atomic_write_text,
    corrupt,
    envelope_bytes,
    fsck_tree,
)
from repro.store.__main__ import main


def _envelope(root, name="result.json"):
    """A farm result envelope (any store-framed artifact would do)."""
    path = os.path.join(root, name)
    result = CellResult(cid="c" * 16, key="gzip|base|w4", worker="w0",
                        attempt=1, status="ok", stats=SimStats().to_dict())
    atomic_write_bytes(path, envelope_bytes(RESULT_KIND, FARM_SCHEMA,
                                            result.to_dict()))
    return path


# ============================================================= the engine


def test_clean_tree_reports_ok(tmp_path):
    _envelope(str(tmp_path))
    report = fsck_tree(str(tmp_path))
    assert report.scanned == 1 and report.ok == 1
    assert not report.corrupt and not report.unrepaired
    assert "1 file(s) scanned, 1 ok" in report.summary()


def test_single_file_scan(tmp_path):
    path = _envelope(str(tmp_path))
    assert fsck_tree(path).ok == 1
    corrupt(path, "bit-flip")
    report = fsck_tree(path)
    assert [f.error_type for f in report.corrupt] == ["DigestMismatch"]


def test_report_only_never_touches_disk(tmp_path):
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    before = open(path, "rb").read()
    fsck_tree(str(tmp_path))  # no repair flag
    assert open(path, "rb").read() == before


def test_quarantine_dirs_are_not_rescanned(tmp_path):
    """Known-bad bytes in <name>.quarantine/ must not be re-reported —
    otherwise every later fsck of the tree fails forever."""
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    assert not fsck_tree(str(tmp_path), repair=True).unrepaired
    again = fsck_tree(str(tmp_path))
    assert not again.corrupt
    assert not any(".quarantine" in f.path for f in again.findings)


def test_unframed_json_snapshot_is_skipped(tmp_path):
    """A plain-JSON file is none of the store's formats: skipped and
    left alone, like any foreign file."""
    path = os.path.join(str(tmp_path), "old.ckpt")
    atomic_write_text(
        path, '{"config_digest": "abc", "rob": [], "cycle": 7}'
    )
    report = fsck_tree(str(tmp_path), repair=True)
    assert not report.corrupt
    assert report.findings[0].status == "skipped"
    assert os.path.exists(path)


def test_nested_dirs_are_walked(tmp_path):
    deep = tmp_path / "a" / "b"
    deep.mkdir(parents=True)
    path = _envelope(str(deep))
    corrupt(path, "truncate-half")
    report = fsck_tree(str(tmp_path))
    assert [f.path for f in report.corrupt] == [path]


def test_progress_callback_sees_every_finding(tmp_path):
    _envelope(str(tmp_path), "a.json")
    _envelope(str(tmp_path), "b.json")
    seen = []
    fsck_tree(str(tmp_path), progress=seen.append)
    assert sorted(f.path for f in seen) == sorted(
        os.path.join(str(tmp_path), n) for n in ("a.json", "b.json")
    )


# ================================================================= CLI


def test_cli_clean_exit_zero(tmp_path, capsys):
    _envelope(str(tmp_path))
    assert main(["fsck", str(tmp_path)]) == 0
    assert "0 problem(s) remaining" in capsys.readouterr().out


def test_cli_corrupt_exit_one_and_names_the_file(tmp_path, capsys):
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    assert main(["fsck", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert path in out and "DigestMismatch" in out


def test_cli_repair_fixes_and_exits_zero(tmp_path, capsys):
    path = _envelope(str(tmp_path))
    corrupt(path, "tmp-leftover")
    assert main(["fsck", "--repair", str(tmp_path)]) == 0
    assert "deleted" in capsys.readouterr().out
    assert not os.path.exists(path + ".partial.tmp")
    assert os.path.exists(path)


def test_cli_repair_command_equals_fsck_repair(tmp_path):
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    assert main(["repair", str(tmp_path)]) == 0
    assert os.path.isdir(path + ".quarantine")


def test_cli_repair_delete(tmp_path):
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    assert main(["repair", "--delete", str(tmp_path)]) == 0
    assert not os.path.exists(path)
    assert not os.path.isdir(path + ".quarantine")


def test_cli_delete_requires_repair_mode(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["fsck", "--delete", str(tmp_path)])
    assert excinfo.value.code == 2


def test_cli_quiet_prints_only_summary(tmp_path, capsys):
    path = _envelope(str(tmp_path))
    corrupt(path, "bit-flip")
    main(["fsck", "-q", str(tmp_path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("fsck ")


def test_module_is_executable(tmp_path):
    """``python -m repro.store fsck`` works as documented in INTERNALS."""
    _envelope(str(tmp_path))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = {**os.environ, "PYTHONPATH": os.path.join(repo_root, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.store", "fsck", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "1 ok" in proc.stdout
