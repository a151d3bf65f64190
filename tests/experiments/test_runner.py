"""Experiment runner tests."""

import gc

import pytest

from repro.experiments.figures import plan
from repro.experiments.runner import (
    FIGURE10_SCHEMES,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SCHEMES,
    RunSpec,
    TraceCache,
    resolve_config,
    run_matrix,
    run_one,
    speedups_over_base,
    width_config,
)

_SPEC = RunSpec(length=400, warmup=800, seed=2)


class TestRegistry:
    def test_scheme_names_match_figure10_legend(self):
        assert set(FIGURE10_SCHEMES) | {"base"} == set(SCHEMES)

    def test_benchmark_lists(self):
        assert len(INT_BENCHMARKS) == 13
        assert len(FP_BENCHMARKS) == 14

    def test_width_config(self):
        assert width_config(4).width == 4
        assert width_config(8).scheduler_entries == 512
        with pytest.raises(ValueError):
            width_config(6)

    def test_scheme_transformers(self):
        base = width_config(4)
        assert SCHEMES["PRI-refcount+ckptcount"](base).pri.enabled
        assert SCHEMES["ER"](base).early_release
        assert not SCHEMES["ER"](base).pri.enabled
        both = SCHEMES["PRI+ER"](base)
        assert both.pri.enabled and both.early_release
        assert SCHEMES["inf"](base).int_phys_regs >= 1024

    @pytest.mark.parametrize("width", [4, 8])
    def test_sized_schemes(self, width):
        """Figure 9's sizes are schemes; the Table 1 size is plain base."""
        schemes = [s for _, s, _ in plan("figure9", (width,), ("gzip",))]
        assert schemes == ["base@PR=40", "base@PR=48", "base@PR=56", "base",
                           "base@PR=72", "base@PR=80", "base@PR=96"]
        spec = RunSpec(audit=True)
        sized = resolve_config("base@PR=40", width, spec)
        assert sized == resolve_config("base", width, spec).with_phys_regs(40)
        assert resolve_config("ER@PR=96", width, spec).early_release
        with pytest.raises(ValueError):
            resolve_config("base@PR=", width, spec)


class TestRunning:
    def test_run_one(self):
        stats = run_one("gzip", "base", 4, _SPEC, TraceCache())
        assert stats.committed == 400
        assert stats.ipc > 0

    def test_trace_cache_reuses(self):
        cache = TraceCache()
        a = cache.get("gzip", _SPEC)
        b = cache.get("gzip", _SPEC)
        assert a is b
        c = cache.get("gzip", RunSpec(length=401, warmup=800, seed=2))
        assert c is not a

    def test_matrix_and_speedups(self):
        cache = TraceCache()
        matrix = run_matrix(["gzip"], ["base", "inf"], 4, _SPEC, cache)
        assert set(matrix) == {"gzip"}
        speedups = speedups_over_base(matrix)
        assert "inf" in speedups["gzip"]
        assert speedups["gzip"]["inf"] > 0.9


class TestTraceCacheCollector:
    """``TraceCache.get`` collects, then builds with the cyclic collector
    paused, and hands the collector back in the state it found it."""

    _SMALL = RunSpec(length=50, warmup=100, seed=3)

    @pytest.fixture(autouse=True)
    def _restore(self):
        enabled = gc.isenabled()
        yield
        gc.unfreeze()
        if enabled:
            gc.enable()

    def test_build_runs_paused_after_a_collection(self, monkeypatch):
        import repro.experiments.runner as runner

        steps = []
        collect, build = gc.collect, runner.generate_trace

        def collecting(*args):
            steps.append("collect")
            return collect(*args)

        def building(*args, **kwargs):
            steps.append(("build", gc.isenabled()))
            return build(*args, **kwargs)

        monkeypatch.setattr(gc, "collect", collecting)
        monkeypatch.setattr(runner, "generate_trace", building)
        gc.enable()
        TraceCache().get("gzip", self._SMALL)
        assert steps == ["collect", ("build", False)]
        assert gc.isenabled()

    def test_collector_is_restored_when_the_build_raises(self, monkeypatch):
        import dataclasses

        import repro.workloads.profiles as profiles

        impossible = dataclasses.replace(profiles.get_profile("gzip"),
                                         dest_hot_regs=0)
        monkeypatch.setattr(profiles, "get_profile", lambda name: impossible)
        cache = TraceCache()
        gc.enable()
        with pytest.raises(ValueError, match="dest_hot_regs"):
            cache.get("gzip", self._SMALL)
        assert gc.isenabled()
        assert not cache.holds(TraceCache.key("gzip", self._SMALL))

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        trace = TraceCache().get("gzip", self._SMALL)
        assert len(trace) == 50
        assert not gc.isenabled()
