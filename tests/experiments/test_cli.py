"""CLI entry point tests (python -m repro.experiments)."""

import pytest

from repro.experiments.__main__ import main


def test_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_table_1(capsys):
    assert main(["--table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "4-wide" in out and "8-wide" in out


def test_single_figure_tiny(capsys):
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "last-read->release" in out
    assert "width 8" not in out  # restricted to one width


@pytest.mark.parametrize(("flag", "value"), [
    ("--length", "0"), ("--warmup", "-1"), ("--jobs", "-2"),
    ("--retries", "-1"), ("--max-cycles", "0"),
    ("--checkpoint-every", "0"),
])
def test_rejects_out_of_range_numbers(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "1", "--width", "4", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["--figure", "3"])  # Figure 3 is a structural diagram


def test_figure_with_oracle_and_checkpoints(tmp_path, capsys):
    import os

    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--oracle",
                 "--checkpoint-every", "500",
                 "--checkpoint-dir", str(tmp_path)])
    assert code == 0
    assert "Figure 1" in capsys.readouterr().out
    assert not os.listdir(str(tmp_path)), "completed cells left checkpoints"


def test_incompatible_journal_is_reported(tmp_path, capsys):
    import json

    path = str(tmp_path / "sweep.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "cells": {}}, fh)
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--journal", path])
    assert code == 1
    err = capsys.readouterr().err
    assert "version" in err
