"""Trace generator tests: determinism, dataflow consistency, and the
statistical properties the simulator relies on."""

import dataclasses

import pytest

from repro.isa.opcodes import OpClass, RegClass
from repro.isa.registers import INT_ZERO_REG
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.profiles import get_profile


@pytest.fixture(scope="module")
def gzip_trace():
    return generate_trace("gzip", 5000, seed=3, warmup=1000)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace("gcc", 500, seed=9, warmup=0)
        b = generate_trace("gcc", 500, seed=9, warmup=0)
        for x, y in zip(a, b):
            assert (x.op, x.pc, x.dest, x.result, x.mem_addr, x.taken) == (
                y.op, y.pc, y.dest, y.result, y.mem_addr, y.taken
            )

    def test_different_seeds_differ(self):
        a = generate_trace("gcc", 500, seed=1, warmup=0)
        b = generate_trace("gcc", 500, seed=2, warmup=0)
        assert any(x.result != y.result for x, y in zip(a, b))

    def test_reproducible_across_generators(self):
        p = get_profile("swim")
        a = TraceGenerator(p, seed=5).generate(300)
        b = TraceGenerator(p, seed=5).generate(300)
        assert [op.result for op in a] == [op.result for op in b]


class TestDataflowConsistency:
    def _check(self, trace):
        """Replay architectural state; every source must match."""
        int_values = list(trace.initial_int)
        fp_values = list(trace.initial_fp)
        for op in trace:
            for src in op.sources:
                values = int_values if src.reg_class == RegClass.INT else fp_values
                assert values[src.index] == src.expected_value, op
            if op.dest is not None:
                if op.dest_class == RegClass.INT:
                    int_values[op.dest] = op.result
                else:
                    fp_values[op.dest] = op.result

    def test_int_benchmark(self, gzip_trace):
        self._check(gzip_trace)

    def test_fp_benchmark(self):
        self._check(generate_trace("swim", 3000, seed=4, warmup=500))

    def test_pointer_chaser(self):
        self._check(generate_trace("mcf", 3000, seed=4, warmup=500))

    def test_all_ops_validate(self, gzip_trace):
        for op in gzip_trace:
            op.validate()

    def test_zero_register_never_written(self, gzip_trace):
        for op in gzip_trace:
            if op.dest is not None and op.dest_class == RegClass.INT:
                assert op.dest != INT_ZERO_REG


class TestControlFlow:
    def test_branch_sites_have_stable_pcs(self):
        trace = generate_trace("gzip", 8000, seed=5, warmup=0)
        outcomes = {}
        for op in trace:
            if op.op == OpClass.BRANCH:
                outcomes.setdefault(op.pc, set()).add(op.target)
        # Every conditional branch site has exactly one target.
        assert all(len(targets) == 1 for targets in outcomes.values())
        # And sites recur (predictors can train).
        counts = {}
        for op in trace:
            if op.op == OpClass.BRANCH:
                counts[op.pc] = counts.get(op.pc, 0) + 1
        assert max(counts.values()) > 20

    def test_calls_and_returns_nest(self):
        trace = generate_trace("perlbmk", 8000, seed=5, warmup=0)
        stack = []
        for op in trace:
            if op.op == OpClass.CALL:
                stack.append(op.pc + 4)
            elif op.op == OpClass.RETURN:
                if stack:  # returns beyond generated depth never occur
                    assert op.target == stack.pop()
        calls = sum(op.op == OpClass.CALL for op in trace)
        rets = sum(op.op == OpClass.RETURN for op in trace)
        assert calls > 0 and rets > 0

    def test_pcs_inside_footprint(self):
        profile = get_profile("gzip")
        trace = generate_trace("gzip", 3000, seed=5, warmup=0)
        lo = 0x0040_0000
        hi = lo + max(profile.code_footprint, 4096) + 4096
        assert all(lo <= op.pc < hi for op in trace)


class TestProfileLimits:
    """Profiles the generator cannot expand fail at construction."""

    def test_too_many_branch_sites_raise(self):
        # 3100 sites plus 64 call sites exceed the 3072 PC slots of
        # gzip's 12KB footprint; the distinct-PC draw would never end.
        profile = dataclasses.replace(get_profile("gzip"), branch_sites=3100)
        with pytest.raises(ValueError, match="branch sites"):
            TraceGenerator(profile)

    def test_sites_that_exactly_fill_the_footprint_generate(self):
        # Footprints below 4KB are rounded up to 1024 four-byte slots.
        profile = dataclasses.replace(
            get_profile("gzip"), code_footprint=1024, branch_sites=1024 - 64)
        assert len(TraceGenerator(profile).generate(50)) == 50
        with pytest.raises(ValueError, match="branch sites"):
            TraceGenerator(dataclasses.replace(profile, branch_sites=1024 - 63))

    @pytest.mark.parametrize("regs", [0, 31])
    def test_dest_pool_out_of_range_raises(self, regs):
        profile = dataclasses.replace(get_profile("gzip"), dest_hot_regs=regs)
        with pytest.raises(ValueError, match="dest_hot_regs"):
            TraceGenerator(profile)


class TestMix:
    def test_matches_profile(self):
        profile = get_profile("gzip")
        trace = generate_trace("gzip", 20000, seed=6, warmup=0)
        stats = trace.stats()
        n = stats.length
        assert stats.loads / n == pytest.approx(profile.load_frac, abs=0.02)
        assert stats.stores / n == pytest.approx(profile.store_frac, abs=0.02)
        assert stats.branches / n == pytest.approx(profile.branch_frac, abs=0.02)

    def test_fp_benchmark_has_fp_ops(self):
        trace = generate_trace("swim", 5000, seed=6, warmup=0)
        mix = trace.stats().mix
        assert mix[OpClass.FP_ADD] > 0
        assert mix[OpClass.FP_LOAD] > 0


class TestMemoryClasses:
    def test_address_classes(self):
        profile = get_profile("mcf")
        trace = generate_trace("mcf", 20000, seed=6, warmup=0)
        hot = l2 = mem = 0
        for op in trace:
            if op.mem_addr is None:
                continue
            if op.mem_addr < 0x2000_0000:
                hot += 1
            elif op.mem_addr < 0x4000_0000:
                l2 += 1
            else:
                mem += 1
        total = hot + l2 + mem
        assert mem / total == pytest.approx(profile.mem_access_frac, abs=0.02)
        assert l2 / total == pytest.approx(profile.l2_access_frac, abs=0.02)

    def test_mem_addresses_never_repeat(self):
        trace = generate_trace("mcf", 20000, seed=6, warmup=0)
        cold = [op.mem_addr for op in trace
                if op.mem_addr is not None and op.mem_addr >= 0x4000_0000]
        assert len(cold) == len(set(cold))


class TestWarmup:
    def test_warmup_ops_attached(self):
        trace = generate_trace("gzip", 100, seed=1, warmup=250)
        assert len(trace.warmup_ops) == 250
        assert len(trace) == 100

    def test_initial_values_snapshot_after_warmup(self):
        """The timed region's first reads must match the recorded initial
        architectural state (i.e. the snapshot is taken post-warmup)."""
        trace = generate_trace("gzip", 200, seed=1, warmup=300)
        int_values = list(trace.initial_int)
        first = trace[0]
        for src in first.sources:
            if src.reg_class == RegClass.INT:
                assert int_values[src.index] == src.expected_value
