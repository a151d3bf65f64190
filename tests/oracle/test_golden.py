"""Golden-model oracle: clean machines pass every differential check,
and the golden model tracks the trace."""

import pytest

from repro.core.machine import Machine, simulate
from repro.experiments.runner import SCHEMES
from repro.oracle import CommitOracle, GoldenModel, OracleDivergence


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_clean_run_under_oracle(cfg4, gzip_trace, scheme):
    config = SCHEMES[scheme](cfg4).with_oracle(interval=64)
    stats = simulate(config, gzip_trace)
    assert stats.committed == len(gzip_trace)
    assert stats.oracle_commits == len(gzip_trace)
    assert stats.oracle_arch_checks > 0
    # Every destination is either checked in place or (reclaimed early)
    # deferred to the architectural sweep — never silently skipped.
    writers = sum(1 for op in gzip_trace if op.dest is not None)
    assert stats.oracle_dest_checks + stats.oracle_unobserved == writers


def test_oracle_with_auditor(cfg4, gzip_trace):
    config = SCHEMES["PRI+ER"](cfg4).with_oracle(interval=64).with_audit(
        interval=64
    )
    stats = simulate(config, gzip_trace)
    assert stats.oracle_commits == len(gzip_trace)
    assert stats.audits > 0


def test_oracle_final_sweep_runs(cfg4, gzip_trace):
    """interval=0 disables the periodic sweep but the end-of-run
    architectural comparison still happens."""
    config = SCHEMES["base"](cfg4).with_oracle(interval=0)
    stats = simulate(config, gzip_trace)
    assert stats.oracle_arch_checks == 1


def test_oracle_off_by_default(cfg4, gzip_trace):
    stats = simulate(SCHEMES["base"](cfg4), gzip_trace)
    assert stats.oracle_commits == 0
    assert stats.oracle_arch_checks == 0


def test_golden_model_tracks_trace(gzip_trace):
    golden = GoldenModel(gzip_trace)
    for op in gzip_trace:
        golden.apply(op)
    assert golden.index == len(gzip_trace)
    assert golden.stores == sum(1 for op in gzip_trace if op.is_store)


def test_divergence_diagnostic_structure(cfg4, gzip_trace):
    machine = Machine(cfg4.with_oracle())
    machine.reset(gzip_trace)
    oracle = CommitOracle(cfg4.oracle, gzip_trace)
    err = oracle.divergence(
        machine,
        "dest-value",
        "synthetic",
        trace_index=12,
        reg_class="int",
        lreg=3,
        preg=17,
        expected=0x10,
        actual=0x20,
    )
    assert isinstance(err, OracleDivergence)
    diag = err.diagnostic
    assert diag["kind"] == "dest-value"
    assert diag["trace_index"] == 12
    assert diag["expected"] == 0x10 and diag["actual"] == 0x20
    assert "oracle[dest-value]" in str(err)
    assert "trace[12]" in str(err)
