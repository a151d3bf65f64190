"""Packed warmup prefixes: rows that round-trip every op field, one rule
set for op validity, and a trace that holds its prefix in flat columns."""

import tracemalloc

import pytest

from repro.analysis import fp_exponent_cdf, fp_significand_cdf, int_width_cdf
from repro.branch.unit import BranchUnit
from repro.experiments.runner import TraceCache
from repro.isa.instruction import MicroOp, SourceOperand
from repro.isa.opcodes import OpClass, RegClass
from repro.isa.values import MAX_UINT64
from repro.workloads import PackedOps, Trace, TraceBuilder, generate_trace

_INT, _FP = RegClass.INT, RegClass.FP


def _fields(op):
    return tuple(repr(getattr(op, name)) for name in MicroOp.__slots__)


def _every_kind():
    b = TraceBuilder(initial_int=[-(1 << 63)] + [7] * 31,
                     initial_fp=[MAX_UINT64] * 32)
    b.alu(dest=1, value=-1, srcs=[0])
    b.alu(dest=2, value=(1 << 63) - 1, srcs=[1, 0], op_class=OpClass.INT_MUL)
    b.fp(dest=3, value=MAX_UINT64, srcs=[3, 4], op_class=OpClass.FP_DIV)
    b.load(dest=4, addr=0, value=-5, base=2)
    b.load(dest=5, addr=0x4000_0040, value=0x3FF0 << 48, fp=True)
    b.store(data=4, addr=0x1008, base=1)
    b.store(data=5, addr=0x1010, fp=True)
    b.branch(taken=False, cond=1)
    b.branch(taken=True, target=0x40_0100)
    b.call(0x40_0800)
    b.ret(0x40_0020)
    return b.build().ops


class TestRows:
    def test_every_field_round_trips(self):
        ops = _every_kind()
        view = PackedOps.pack(ops)
        assert len(view) == len(ops)
        assert [_fields(op) for op in view] == [_fields(op) for op in ops]
        assert _fields(view[-1]) == _fields(ops[-1])
        assert [_fields(op) for op in view[2:5]] == \
            [_fields(op) for op in ops[2:5]]
        assert view == ops and view == PackedOps.pack(ops) and view != ops[1:]
        with pytest.raises(IndexError):
            view[len(ops)]

    def test_generated_prefix_is_the_op_stream(self):
        prefix = generate_trace("mcf", 0, seed=3, warmup=400).warmup_ops
        stream = generate_trace("mcf", 400, seed=3, warmup=0).ops
        assert [_fields(op) for op in prefix] == [_fields(op) for op in stream]

    @pytest.mark.parametrize("name", ["gzip", "swim"])
    def test_cdfs_read_columns_as_they_read_ops(self, name):
        prefix = generate_trace(name, 0, seed=2, warmup=3000).warmup_ops
        ops = list(prefix)
        for reg_class in (_INT, _FP):
            values = prefix.operand_values(reg_class)
            assert values == [
                v for op in ops for v in
                [s.expected_value for s in op.sources if s.reg_class == reg_class]
                + ([op.result] if op.dest is not None
                   and op.dest_class == reg_class else [])]
        assert int_width_cdf(prefix) == int_width_cdf(ops)
        assert fp_exponent_cdf(prefix) == fp_exponent_cdf(ops)
        assert fp_significand_cdf(prefix) == fp_significand_cdf(ops)

    @pytest.mark.parametrize("op", [
        MicroOp(0, 0, OpClass.INT_ALU, dest=1, result=1 << 63),
        MicroOp(0, 0, OpClass.FP_ADD, dest_class=_FP, dest=1, result=-1),
        MicroOp(0, 0, OpClass.INT_ALU, (SourceOperand(_INT, 200, 0),), dest=1),
        MicroOp(-1, 0, OpClass.INT_ALU, dest=1),
    ], ids=["int-too-wide", "negative-fp", "register-index", "negative-seq"])
    def test_unpackable_op_is_a_value_error(self, op):
        with pytest.raises(ValueError):
            Trace("x", [], warmup_ops=[op])


_BAD = {
    "load-without-address": MicroOp(0, 0, OpClass.LOAD, dest=1),
    "alu-with-address": MicroOp(0, 0, OpClass.INT_ALU, dest=1, mem_addr=8),
    "store-writes": MicroOp(0, 0, OpClass.STORE, dest=1, mem_addr=8),
    "branch-writes": MicroOp(0, 0, OpClass.BRANCH, dest=1),
    "three-sources": MicroOp(0, 0, OpClass.INT_ALU,
                             (SourceOperand(_INT, 1, 0),) * 3, dest=1),
}


@pytest.mark.parametrize("name", sorted(_BAD))
def test_one_rule_set_for_validate_and_packing(name):
    bad = _BAD[name]
    with pytest.raises(ValueError) as validated:
        bad.validate()
    with pytest.raises(ValueError) as packed_error:
        Trace("x", [], warmup_ops=[bad])
    assert str(packed_error.value) == str(validated.value)


def test_a_call_may_write_a_register():
    call = MicroOp(0, 0, OpClass.CALL, dest=26, taken=True, target=64)
    call.validate()
    assert Trace("x", [], warmup_ops=[call]).warmup_ops[0].dest == 26


def test_train_is_predict_then_resolve():
    prefix = generate_trace("gcc", 0, seed=4, warmup=4000).warmup_ops
    trained, reference = BranchUnit(), BranchUnit()
    for op in prefix:
        if op.is_branch:
            trained.train(op.op, op.pc, op.taken, op.target)
            reference.resolve(op, reference.predict(op))
    for unit in (trained, reference):
        unit.predictions = unit.direction_mispredicts = 0
        unit.target_mispredicts = 0
    assert trained.state() == reference.state()


def _count_built_ops(monkeypatch):
    """A list that gets one entry per ``MicroOp`` constructed from now."""
    built = []
    original = MicroOp.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MicroOp, "__init__", counted)
    return built


@pytest.mark.parametrize("name", ["gzip", "swim"])
def test_a_paper_all_trace_holds_its_prefix_packed(name, monkeypatch):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_trace(name, 200, seed=1, warmup=20_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 3 * 2**20, f"{name} trace holds {held / 2**20:.2f} MB"
    built = _count_built_ops(monkeypatch)
    assert len(trace.warmup_ops) == 20_000
    assert not built
    trace.warmup_ops[0]
    assert len(built) == 1


def test_figure2_fallback_stream_builds_no_op(monkeypatch):
    built = _count_built_ops(monkeypatch)
    stream = TraceCache().stream_prefix("gzip", 1, 500)
    assert len(stream) == 500 and not built
