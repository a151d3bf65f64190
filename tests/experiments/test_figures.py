"""Figure/table driver smoke tests at miniature scale: each driver must
produce the paper's rows and series and render cleanly."""

import pytest

from repro.analysis import fp_exponent_cdf, fp_significand_cdf, int_width_cdf
from repro.experiments import runner
from repro.experiments import (
    MatrixError,
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
from repro.experiments.runner import FP_BENCHMARKS, INT_BENCHMARKS
from repro.isa.instruction import MicroOp
from repro.workloads import generate_trace

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

    def test_watchdog_fires(self, cache):
        spec = RunSpec(length=350, warmup=700, seed=2, max_cycles=30)
        with pytest.raises(MatrixError, match="cycle-limit watchdog:") as err:
            figure9(spec, widths=(4,), benchmarks=("gzip",), sizes=(40, 64),
                    traces=cache)
        assert [(e.scheme, e.error_type) for e in err.value.errors] == [
            ("base@PR=40", "SimulationError"), ("base", "SimulationError")]
        assert "gzip/base@PR=40 committed only" in err.value.errors[0].message

    def test_audit_and_oracle_reach_every_config(self, cache, monkeypatch):
        configs = []

        class Recording(runner.Machine):
            def __init__(self, config):
                configs.append(config)
                super().__init__(config)

        monkeypatch.setattr(runner, "Machine", Recording)
        spec = RunSpec(length=350, warmup=700, seed=2, audit=True,
                       oracle=True)
        figure9(spec, widths=(4,), benchmarks=("gzip",), sizes=(40, 64),
                traces=cache)
        assert [c.int_phys_regs for c in configs] == [40, 64]
        assert all(c.audit.enabled and c.oracle.enabled for c in configs)

    def test_uses_the_runs_shared_trace_cache(self, monkeypatch):
        shared = TraceCache()
        monkeypatch.setattr(runner, "_GLOBAL_TRACES", shared)
        figure9(_SPEC, widths=(4,), benchmarks=("gzip",), sizes=(40, 64))
        assert shared.get("gzip", _SPEC).warm_states


def _op_fields(ops):
    return [tuple(repr(getattr(op, name)) for name in MicroOp.__slots__)
            for op in ops]


class TestFigure2Streams:
    """Figure 2 analyses the first ``length`` ops of each benchmark's
    stream, which a cached trace already holds when its warmup prefix
    plus timed ops cover them."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """Benchmarks whose op stream the trace cache generated."""
        names = []
        original = runner.generate_trace

        def counted(name, *args, **kwargs):
            names.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(runner, "generate_trace", counted)
        return names

    @pytest.mark.parametrize("n", [0, 1, 600, 699, 700, 701, 1050])
    def test_stream_prefix_equals_a_warmup_free_trace(self, n):
        cache = TraceCache()
        cache.get("gzip", _SPEC)  # 700 warmup + 350 timed ops
        expected = generate_trace("gzip", n, seed=_SPEC.seed, warmup=0)
        assert _op_fields(cache.stream_prefix("gzip", _SPEC.seed, n)) == \
            _op_fields(expected)

    def test_reuses_the_traces_table2_cached(self, monkeypatch, generated):
        spec = RunSpec(length=100, warmup=1900, seed=4)
        shared = TraceCache()
        monkeypatch.setattr(runner, "_GLOBAL_TRACES", shared)
        table2(spec, widths=(4,))
        names = list(INT_BENCHMARKS + FP_BENCHMARKS)
        assert sorted(generated) == sorted(names)
        reused = figure2(length=2000, seed=4)
        assert sorted(generated) == sorted(names)  # nothing regenerated
        fresh = figure2(length=2000, seed=4, traces=TraceCache())
        assert sorted(generated) == sorted(names * 2)
        assert reused.render() == fresh.render()
        assert reused.data == fresh.data

    def test_short_cached_traces_fall_back_to_generating(self, generated):
        cache = TraceCache()
        for name in ("gzip", "swim"):
            cache.get(name, _SPEC)  # 1050 ops: too short for 1200
        result = figure2(length=1200, seed=_SPEC.seed,
                         int_benchmarks=("gzip",), fp_benchmarks=("swim",),
                         traces=cache)
        assert generated == ["gzip", "swim", "gzip", "swim"]
        gzip = generate_trace("gzip", 1200, seed=_SPEC.seed, warmup=0)
        swim = generate_trace("swim", 1200, seed=_SPEC.seed, warmup=0)
        assert result.data["int"]["gzip"] == int_width_cdf(gzip)
        assert result.data["fp"]["swim"] == (fp_exponent_cdf(swim),
                                             fp_significand_cdf(swim))
        # Fallback streams are not cached.
        figure2(length=1200, seed=_SPEC.seed, int_benchmarks=("gzip",),
                fp_benchmarks=("swim",), traces=cache)
        assert len(generated) == 6
