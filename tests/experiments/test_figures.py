"""Figure/table driver smoke tests at miniature scale: each driver must
produce the paper's rows and series and render cleanly."""

import pytest

from repro.core.machine import SimulationError
from repro.experiments import figures, runner
from repro.experiments import (
    RunSpec,
    TraceCache,
    figure1,
    figure2,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
    table2,
)

_SPEC = RunSpec(length=350, warmup=700, seed=2)
_BENCH = ("gzip", "mcf")
_FP_BENCH = ("swim", "ammp")


@pytest.fixture(scope="module")
def cache():
    return TraceCache()


class TestTables:
    def test_table1_lists_both_machines(self):
        text = table1().render()
        assert "4-wide" in text and "8-wide" in text
        assert "512" in text  # ROB

    def test_table2_structure(self, cache):
        result = table2(_SPEC, widths=(4,), traces=cache)
        text = result.render()
        assert "gzip" in text and "ammp" in text
        assert "paper(4w)" in text


class TestFigureDrivers:
    def test_figure1(self, cache):
        result = figure1(_SPEC, widths=(4,), benchmarks=_BENCH, traces=cache)
        assert len(result.data[4]) == 2
        text = result.render()
        assert "last-read->release" in text
        # The stacked ASCII chart is part of the rendering.
        assert "#=alloc->write" in text

    def test_figure2(self):
        result = figure2(length=800, seed=2, int_benchmarks=("gzip",),
                         fp_benchmarks=("swim",))
        assert "gzip" in result.render()
        cdf = result.data["int"]["gzip"]
        assert cdf[64] == pytest.approx(1.0)

    def test_figure8_has_three_schemes(self, cache):
        result = figure8(_SPEC, widths=(4,), benchmarks=("gzip",), traces=cache)
        assert set(result.data[4]["gzip"]) == {"base", "PRI", "PRI+ER"}

    def test_figure9_normalized_to_smallest(self, cache):
        result = figure9(_SPEC, widths=(4,), benchmarks=("gzip",),
                         sizes=(40, 64), traces=cache)
        data = result.data[4]["gzip"]
        assert data[40] == pytest.approx(1.0)
        assert data[64] >= 1.0

    def test_figure10_series(self, cache):
        result = figure10(_SPEC, widths=(4,), benchmarks=("gzip",), traces=cache)
        speedups = result.data[4]["speedups"]["gzip"]
        assert set(speedups) == {
            "ER", "PRI-refcount+ckptcount", "PRI-refcount+lazy",
            "PRI-ideal+ckptcount", "PRI-ideal+lazy", "PRI+ER", "inf",
        }
        assert "mean speedup by scheme" in result.render()

    def test_figure11_occupancies(self, cache):
        result = figure11(_SPEC, widths=(4,), benchmarks=("gzip",), traces=cache)
        occ = result.data[4]["gzip"]
        assert 0 < occ["PRI"] <= 64
        assert occ["base"] >= occ["PRI+ER"] * 0.9

    def test_figure12_runs_fp(self, cache):
        result = figure12(_SPEC, widths=(4,), benchmarks=_FP_BENCH, traces=cache)
        assert "ammp" in result.render()


class TestFigure9Spec:
    """Figure 9 honours the run spec like every other driver: audit and
    oracle overlays on each size's config, and the cycle-limit watchdog."""

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_watchdog_fires(self, cache, backend):
        if backend == "vector":
            pytest.importorskip("numpy")
        spec = RunSpec(length=350, warmup=700, seed=2, max_cycles=30)
        with pytest.raises(SimulationError, match="cycle-limit watchdog:"):
            figure9(spec, widths=(4,), benchmarks=("gzip",), sizes=(40, 64),
                    traces=cache, backend=backend)

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_audit_and_oracle_reach_every_config(self, cache, monkeypatch,
                                                 backend):
        configs = []
        if backend == "vector":
            pytest.importorskip("numpy")
            import repro.vector as vector

            run_column = vector.run_column

            def recording(lanes, *args, **kwargs):
                configs.extend(lane.config for lane in lanes)
                return run_column(lanes, *args, **kwargs)

            monkeypatch.setattr(vector, "run_column", recording)
        else:
            simulate = figures.simulate

            def recording(config, trace, **kwargs):
                configs.append(config)
                return simulate(config, trace, **kwargs)

            monkeypatch.setattr(figures, "simulate", recording)
        spec = RunSpec(length=350, warmup=700, seed=2, audit=True,
                       oracle=True)
        figure9(spec, widths=(4,), benchmarks=("gzip",), sizes=(40, 64),
                traces=cache, backend=backend)
        assert [c.int_phys_regs for c in configs] == [40, 64]
        assert all(c.audit.enabled and c.oracle.enabled for c in configs)

    def test_uses_the_runs_shared_trace_cache(self, monkeypatch):
        shared = TraceCache()
        monkeypatch.setattr(runner, "_GLOBAL_TRACES", shared)
        figure9(_SPEC, widths=(4,), benchmarks=("gzip",), sizes=(40, 64))
        assert shared.get("gzip", _SPEC).warm_states
