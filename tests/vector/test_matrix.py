"""run_matrix on the vector backend: parity with scalar, option
validation, per-cell journal lines, and per-cell resume."""

import pytest

from repro.core.stats import SimStats
from repro.experiments import RunSpec, SweepJournal, run_matrix
from repro.experiments.journal import cell_key
from repro.experiments.runner import CellError, lane_key

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"
_BENCH = ("gzip", "gcc")
#: base and inf differ only in PRF capacity, so the column planner must
#: put them on one shared machine per benchmark.
_SCHEMES = ("base", "inf", _PRI)


@pytest.fixture(scope="module")
def scalar_reference():
    return run_matrix(_BENCH, _SCHEMES, 4, _SPEC)


def _assert_identical(got, want):
    for benchmark in want:
        for scheme in want[benchmark]:
            a, b = got[benchmark][scheme], want[benchmark][scheme]
            assert isinstance(a, SimStats), (benchmark, scheme, a)
            assert a.to_dict() == b.to_dict(), (benchmark, scheme)


def test_vector_matrix_matches_scalar(scalar_reference):
    result = run_matrix(_BENCH, _SCHEMES, 4, _SPEC, backend="vector")
    _assert_identical(result, scalar_reference)


def test_lane_key_is_stable():
    assert lane_key("gzip", "base") == "gzip|base"


# ============================================================ validation


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend must be one of"):
        run_matrix(_BENCH, ("base",), 4, _SPEC, backend="turbo")


@pytest.mark.parametrize("kwargs", [
    {"jobs": 4}, {"cell_timeout": 5.0}, {"retries": 2},
])
def test_scalar_only_options_rejected_without_farm(kwargs):
    with pytest.raises(ValueError, match="scalar backend"):
        run_matrix(_BENCH, ("base",), 4, _SPEC, backend="vector", **kwargs)


def test_cell_fn_rejected_on_vector():
    with pytest.raises(ValueError, match="cell_fn"):
        run_matrix(_BENCH, ("base",), 4, _SPEC, backend="vector",
                   cell_fn=lambda *a: None)


# ========================================================= error parity


def test_watchdog_cell_error_matches_scalar_message(tmp_path):
    """Every execution path fails a cycle-limited cell with the serial
    scalar run's watchdog error: the in-process vector column, a farm
    cell and a farm column, and both in-process serve backends."""
    from repro.farm import FarmSpec
    from repro.serve import BatchExecutor, JobSpec

    spec = RunSpec(length=300, warmup=600, seed=2, max_cycles=50)
    scalar = run_matrix(("gzip",), ("base",), 4, spec, on_error="record")
    a = scalar["gzip"]["base"]
    assert isinstance(a, CellError)
    assert a.message.startswith("cycle-limit watchdog: gzip/base ")
    want = (a.kind, a.error_type, a.message)

    def farm(name):
        return FarmSpec(root=str(tmp_path / name), workers=1,
                        poll_interval=0.05)

    paths = {
        "vector": {"backend": "vector"},
        "farm cell": {"farm": farm("cells")},
        "farm column": {"backend": "vector", "farm": farm("columns")},
    }
    for name, options in paths.items():
        result = run_matrix(("gzip",), ("base",), 4, spec, on_error="record",
                            **options)
        b = result["gzip"]["base"]
        assert isinstance(b, CellError), name
        assert (b.kind, b.error_type, b.message) == want, name

    job = JobSpec("gzip", "base", 4, spec.length, spec.warmup, spec.seed,
                  max_cycles=spec.max_cycles)
    for backend in ("scalar", "vector"):
        served = BatchExecutor(backend).run_batch([job])[job.job_id()]
        assert served.status == "error", backend
        assert (served.error["error_type"], served.error["message"]) \
            == want[1:], backend


# ========================================= journal: per-cell, resumable


def test_vector_run_journals_one_line_per_cell(tmp_path, scalar_reference):
    """A batched column must land as individual cell records — the
    journal's unit of resume — not one blob per column."""
    path = str(tmp_path / "journal.json")
    run_matrix(_BENCH, _SCHEMES, 4, _SPEC, backend="vector", journal=path)
    back = SweepJournal(path)
    assert len(back) == len(_BENCH) * len(_SCHEMES)
    for benchmark in _BENCH:
        for scheme in _SCHEMES:
            saved = back.get(cell_key(benchmark, scheme, 4, _SPEC))
            assert isinstance(saved, SimStats)
            want = scalar_reference[benchmark][scheme]
            assert saved.to_dict() == want.to_dict()


def test_vector_run_resumes_per_cell(tmp_path):
    """A journaled cell is honored by a later vector run: only the
    missing cells join the column."""
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    sentinel = SimStats()
    sentinel.committed = 123456  # impossible for a real 300-instr cell
    journal.record_ok(cell_key("gzip", "base", 4, _SPEC), sentinel)
    result = run_matrix(_BENCH, _SCHEMES, 4, _SPEC, backend="vector",
                        journal=journal)
    assert result["gzip"]["base"].committed == 123456
    # The rest were simulated and journaled as usual.
    back = SweepJournal(path)
    assert len(back) == len(_BENCH) * len(_SCHEMES)
    assert isinstance(result["gcc"][_PRI], SimStats)
    assert result["gcc"][_PRI].committed == _SPEC.length
