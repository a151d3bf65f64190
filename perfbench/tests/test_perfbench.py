"""The benchmark's own tests: determinism of its digests and counts,
span bookkeeping, and output checks that fail on wrong results.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The workloads run at a reduced length and warmup here so the suite
takes about a minute; the benchmark itself always uses the full ones.
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, workloads  # noqa: E402
from perfbench.spans import Recorder, Span, self_times  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "LENGTH", 100)
    monkeypatch.setattr(workloads, "WARMUP", 2000)
    monkeypatch.setattr(workloads.ServeMix, "REQUESTS_PER_THREAD", 40)
    monkeypatch.setattr(workloads.ServeMix, "COLD_PER_THREAD", 6)


def bench(workload: str, seed: int, trace: int = 1):
    """Run the benchmark in process; (exit code, digest, metrics)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    digest = next(l.split()[-1] for l in lines if l.startswith("stats_digest"))
    result = json.loads(lines[-1])
    return rc, digest, {k: v["value"] for k, v in result["metrics"].items()}


MODEL_COUNTS = ("core.cycles", "core.committed", "rename.stall_regs",
                "rename.inlined", "rename.pri_early_frees",
                "rename.er_early_frees", "branch.mispredicts",
                "memory.dl1_miss_rate", "model.table2_err_pct")


@pytest.mark.parametrize("workload", ["prf-sweep", "parallel-sweep"])
def test_same_seed_same_digest_and_counts(small, workload):
    rc1, digest1, first = bench(workload, 3)
    rc2, digest2, second = bench(workload, 3)
    rc3, digest3, other = bench(workload, 4)
    assert rc1 == rc2 == rc3 == 0
    assert digest1 == digest2
    assert digest3 != digest1
    for name in MODEL_COUNTS:
        assert first[name] == second[name], name
    assert first["core.cycles"] != other["core.cycles"]


def test_end_to_end_metrics_match_contract(small):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rc, _, metrics = bench("serve-mix", 5, trace=0)
    assert rc == 0
    assert sorted(metrics) == sorted(m["name"] for m in contract["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_traced_run_reports_every_layer_metric(small):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rc, _, metrics = bench("serve-mix", 5, trace=1)
    assert rc == 0
    assert sorted(metrics) == sorted(m["name"] for m in contract["per_layer"])
    # Misses went through the vector backend, hits were served from the
    # cache, and the server simulated each cold key exactly once.
    assert metrics["vector.lanes"] == metrics["serve.simulations"] > 0
    assert metrics["serve.cache_hits"] > metrics["serve.misses"]
    assert metrics["store.fsyncs"] > 0
    assert metrics["python.gc_collections"] > 0


def test_worker_spans_are_merged(small):
    rc, _, metrics = bench("parallel-sweep", 3)
    assert rc == 0
    # Every fresh cell ran Machine.run in a forked worker; those spans
    # only reach the parent through the spool.
    assert metrics["core.calls"] == metrics["runner.cells"] / 2 == 52
    assert metrics["workloads.calls"] == 52
    assert metrics["journal.appends"] == 52


def test_checks_fail_on_wrong_output(small, tmp_path):
    sweep = workloads.PrfSweep(3, str(tmp_path))
    recorder = Recorder(str(tmp_path / "spool"))
    from perfbench import layers

    layers.install(recorder, traced=False)
    try:
        result = sweep.run(recorder)
    finally:
        layers.uninstall(recorder)
    sweep.check(result)
    for delivery in result.deliveries:
        delivery.stats = dict(delivery.stats, cycles=delivery.stats["cycles"] + 1)
    with pytest.raises(workloads.CheckFailed):
        sweep.check(result)


def test_self_time_subtracts_child_coverage():
    parent = Span(1, "p", 0.0, None, "r", 1)
    parent.end = 10.0
    spans = [parent]
    for sid, (start, end) in enumerate([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 2):
        child = Span(sid, "c", start, 1, "r", 1)
        child.end = end
        spans.append(child)
    assert self_times(spans)[1] == pytest.approx(10.0 - 3.0 - 2.0)


def test_uninstall_restores_every_name(tmp_path):
    import repro.experiments as experiments
    import repro.experiments.__main__ as cli
    import repro.experiments.runner as runner
    from repro.core.machine import Machine
    from perfbench import layers

    before = (runner.run_one, experiments.figure9, cli._FIGURES[9],
              Machine.run)
    recorder = Recorder(str(tmp_path))
    layers.install(recorder, traced=True)
    assert runner.run_one is not before[0]
    assert cli._FIGURES[9] is not before[2]
    layers.uninstall(recorder)
    assert (runner.run_one, experiments.figure9, cli._FIGURES[9],
            Machine.run) == before
