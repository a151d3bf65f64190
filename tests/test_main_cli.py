"""Top-level CLI tests (python -m repro)."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out and "ammp" in out


def test_requires_benchmark():
    with pytest.raises(SystemExit):
        main([])


def test_basic_run(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ipc=" in out
    assert "register lifetime" in out


def test_pri_run_reports_inlining(capsys):
    code = main(["gzip", "--scheme", "PRI-refcount+ckptcount",
                 "--length", "400", "--warmup", "800"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PRI:" in out and "inlined" in out


def test_regs_override(capsys):
    code = main(["gzip", "--length", "200", "--warmup", "400",
                 "--regs", "96"])
    assert code == 0
    assert "96 INT" in capsys.readouterr().out


def test_regs_below_the_architected_state_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gzip", "--length", "200", "--warmup", "400", "--regs", "8"])
    assert exit_info.value.code == 2
    assert "@PR=8" in capsys.readouterr().err


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["gzip", "--scheme", "magic"])


def test_oracle_run_reports_oracle_stats(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600", "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle:" in out and "all clean" in out
    assert "300 commits compared" in out


def test_no_oracle_is_default(capsys):
    code = main(["gzip", "--length", "300", "--warmup", "600",
                 "--no-oracle"])
    assert code == 0
    assert "oracle:" not in capsys.readouterr().out
