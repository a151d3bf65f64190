"""In-order golden functional model and the commit-time differential
oracle.

The golden model is deliberately trivial: it has no pipeline, no renaming
and no reclamation — just the 32+32 architected registers, executed in
trace order.  Because every reclamation scheme in this reproduction must
preserve *exactly* the committed architectural values, any bookkeeping
bug that corrupts a value (the paper's Figure 6 WAR violation is the
canonical case) shows up as a mismatch between the out-of-order machine's
physical state and the golden model's architectural state.

The oracle observes the machine at three points:

* **per commit** — the retiring instruction's trace index must match the
  golden model's program counter (commit order is architecturally
  in-order), its source operands must match the golden register values,
  its destination's physical register (or virtual tag) must hold the
  golden result when still observable, and a committing store's address
  must match the golden memory effect;
* **periodically** (``OracleConfig.interval``) — every logical register
  with *no in-flight writer* is read through the machine's rename map
  (pointer → physical register value, immediate → inlined value) and
  compared against the golden architectural state.  This is what catches
  a corrupted map entry or a WAR-clobbered register that no later
  instruction happens to read;
* **value-fault routing** — the machine's inline dataflow checks (stale
  generation at select/read, delivered-value mismatch) raise through
  :meth:`CommitOracle.divergence` when an oracle is attached, so every
  value-level failure carries the same structured diagnostic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.audit.auditor import scheme_label
from repro.core.machine import SimulationError, _VID_FLAG
from repro.core.regfile import RegState
from repro.isa.opcodes import RegClass
from repro.isa.registers import FP_ZERO_REG, INT_ZERO_REG
from repro.workloads.trace import Trace

_CLASS_NAMES = {RegClass.INT: "int", RegClass.FP: "fp"}


class OracleDivergence(SimulationError):
    """The machine's committed state diverged from the golden model.

    ``diagnostic`` holds the structured fields — mirror-image of
    :class:`repro.audit.AuditError` — so harnesses (and the fuzz
    shrinker) can classify divergences without parsing messages.
    """

    def __init__(
        self,
        kind: str,
        reason: str,
        *,
        cycle: int,
        scheme: str,
        trace_index: Optional[int] = None,
        seq: Optional[int] = None,
        reg_class: Optional[str] = None,
        lreg: Optional[int] = None,
        preg: Optional[int] = None,
        expected: Optional[int] = None,
        actual: Optional[int] = None,
        inflight: Optional[tuple] = None,
        details: Optional[Dict] = None,
    ) -> None:
        self.diagnostic = {
            "kind": kind,
            "reason": reason,
            "cycle": cycle,
            "scheme": scheme,
            "trace_index": trace_index,
            "seq": seq,
            "reg_class": reg_class,
            "lreg": lreg,
            "preg": preg,
            "expected": expected,
            "actual": actual,
            "inflight": inflight,
            "details": details or {},
        }
        where = f"cycle {cycle}, scheme {scheme}"
        if trace_index is not None:
            where += f", trace[{trace_index}]"
        if seq is not None:
            where += f" #{seq}"
        if reg_class is not None and lreg is not None:
            where += f", {reg_class} r{lreg}"
        if preg is not None:
            where += f" -> p{preg}"
        if expected is not None:
            actual_str = f"{actual:#x}" if actual is not None else "?"
            where += f", expected {expected:#x} actual {actual_str}"
        if inflight is not None:
            oldest, youngest, count = inflight
            where += f", inflight #{oldest}..#{youngest} ({count} ops)"
        super().__init__(f"oracle[{kind}] {reason} ({where})")


class GoldenModel:
    """Committed architectural state, maintained in trace order.

    ``index`` is the golden program counter: the number of instructions
    architecturally executed so far.  Reads of the hard-wired zero
    register return 0 regardless of writes, matching the renamer.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.index = 0
        self.int_regs: List[int] = list(trace.initial_int)
        self.fp_regs: List[int] = list(trace.initial_fp)
        #: Sparse committed memory image: address -> last store's data
        #: operand (the machine's caches are timing-only, so this is the
        #: oracle's record of the in-order store stream).
        self.memory: Dict[int, int] = {}
        self.stores = 0

    def read(self, reg_class: RegClass, lreg: int) -> int:
        if reg_class == RegClass.INT:
            return 0 if lreg == INT_ZERO_REG else self.int_regs[lreg]
        return 0 if lreg == FP_ZERO_REG else self.fp_regs[lreg]

    def write(self, reg_class: RegClass, lreg: int, value: int) -> None:
        if reg_class == RegClass.INT:
            self.int_regs[lreg] = value
        else:
            self.fp_regs[lreg] = value

    def apply(self, op) -> None:
        """Architecturally execute ``op`` (which must be the next op)."""
        if op.dest is not None:
            self.write(op.dest_class, op.dest, op.result)
        if op.is_store:
            # A store's data operand is its last source (the trace
            # builder's convention); address-only stores record 0.
            data = op.sources[-1].expected_value if op.sources else 0
            self.memory[op.mem_addr] = data
            self.stores += 1
        self.index += 1


class CommitOracle:
    """Differential checker attached to one machine run."""

    def __init__(self, config, trace: Trace) -> None:
        self.cfg = config
        self.golden = GoldenModel(trace)

    # ---------------------------------------------------------- failures

    def divergence(
        self, machine, kind: str, reason: str, **fields
    ) -> OracleDivergence:
        """Build (not raise) a divergence with full machine context."""
        return OracleDivergence(
            kind,
            reason,
            cycle=machine.now,
            scheme=scheme_label(machine.cfg),
            inflight=machine.inflight_window(),
            **fields,
        )

    def _fail(self, machine, kind, reason, **fields):
        raise self.divergence(machine, kind, reason, **fields)

    # ------------------------------------------------------------ commit

    def on_commit(self, machine, instr) -> None:
        """Differential check for one retiring instruction."""
        golden = self.golden
        machine.stats.oracle_commits += 1
        op = instr.op
        if instr.trace_idx != golden.index or op is not golden.trace[instr.trace_idx]:
            self._fail(
                machine,
                "commit-order",
                f"machine committed trace[{instr.trace_idx}] but the golden "
                f"model expects trace[{golden.index}] — the commit stream "
                f"left architectural program order",
                trace_index=instr.trace_idx,
                seq=instr.seq,
                details={"golden_index": golden.index},
            )
        for src in op.sources:
            expected = golden.read(src.reg_class, src.index)
            if src.expected_value != expected:
                self._fail(
                    machine,
                    "src-value",
                    f"committed source {src!r} disagrees with the golden "
                    f"architectural value — trace dataflow and in-order "
                    f"execution have diverged",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    reg_class=_CLASS_NAMES[src.reg_class],
                    lreg=src.index,
                    expected=expected,
                    actual=src.expected_value,
                )
        if op.dest is not None:
            actual = self._observe_dest(machine, instr)
            if actual is None:
                machine.stats.oracle_unobserved += 1
            else:
                machine.stats.oracle_dest_checks += 1
                if actual != op.result:
                    self._fail(
                        machine,
                        "dest-value",
                        f"destination of committed #{instr.seq} holds the "
                        f"wrong value — a younger writer's register reuse "
                        f"or a corrupted write clobbered it",
                        trace_index=instr.trace_idx,
                        seq=instr.seq,
                        reg_class=_CLASS_NAMES[op.dest_class],
                        lreg=op.dest,
                        preg=instr.dest_preg if instr.dest_preg >= 0 else None,
                        expected=op.result,
                        actual=actual,
                    )
        if op.is_branch:
            pred = instr.prediction
            if pred is None:
                self._fail(
                    machine,
                    "branch-outcome",
                    f"branch #{instr.seq} committed without ever being "
                    f"predicted/resolved",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                )
            # Recompute the misprediction verdict from the trace's actual
            # outcome; a disagreement means the machine resolved the branch
            # against the wrong architectural direction or target.
            wrong = pred.pred_taken != op.taken or (
                op.taken and pred.pred_target != op.target
            )
            if pred.mispredicted != wrong:
                self._fail(
                    machine,
                    "branch-outcome",
                    f"branch #{instr.seq} predicted "
                    f"{'taken' if pred.pred_taken else 'not-taken'}"
                    f"->{pred.pred_target:#x} was resolved "
                    f"{'mispredicted' if pred.mispredicted else 'correct'}, "
                    f"but the trace outcome "
                    f"({'taken' if op.taken else 'not-taken'}"
                    f"->{op.target:#x}) says "
                    f"{'mispredicted' if wrong else 'correct'}",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    details={
                        "pred_taken": pred.pred_taken,
                        "pred_target": pred.pred_target,
                        "actual_taken": op.taken,
                        "actual_target": op.target,
                    },
                )
        golden.apply(op)

    def on_store_commit(self, machine, instr, addr: int) -> None:
        """The machine performed a committing store's memory access."""
        if addr != instr.op.mem_addr:
            self._fail(
                machine,
                "mem-addr",
                f"store #{instr.seq} wrote address {addr:#x} but the trace "
                f"orders a store to {instr.op.mem_addr:#x}",
                trace_index=instr.trace_idx,
                seq=instr.seq,
                expected=instr.op.mem_addr,
                actual=addr,
            )

    def _observe_dest(self, machine, instr) -> Optional[int]:
        """The machine's view of a just-committed destination, or None
        when the value is no longer observable (already inlined-and-freed
        by PRI, or reclaimed) — the periodic architectural sweep covers
        those through the map."""
        cls = instr.op.dest_class
        if instr.dest_vid >= 0:
            v = machine._vregs.get(instr.dest_vid - _VID_FLAG)
            if v is not None and v.written:
                return v.value
            return None
        preg = instr.dest_preg
        if preg < 0:
            return None
        rf = machine.rf[cls]
        if rf.state[preg] == RegState.FREE or rf.gen[preg] != instr.dest_gen:
            return None
        return rf.value[preg]

    # ----------------------------------------------- architectural sweep

    def maybe_check(self, machine) -> None:
        interval = self.cfg.interval
        if interval > 0 and machine.now % interval == 0:
            self.check_arch(machine)

    def check_arch(self, machine, final: bool = False) -> None:
        """Compare every logical register with no in-flight writer
        against the golden model, reading through the rename map exactly
        as a consumer would."""
        machine.stats.oracle_arch_checks += 1
        golden = self.golden
        if final and golden.index != machine.stats.committed:
            self._fail(
                machine,
                "commit-order",
                f"machine committed {machine.stats.committed} instructions "
                f"but the golden model executed {golden.index}",
                details={"golden_index": golden.index},
            )
        inflight_writers = set()
        for entry in machine.rob:
            if entry.op.dest is not None:
                inflight_writers.add((entry.op.dest_class, entry.op.dest))
        for cls in (RegClass.INT, RegClass.FP):
            zero = INT_ZERO_REG if cls == RegClass.INT else FP_ZERO_REG
            table = machine.maps[cls]
            rf = machine.rf[cls]
            for lreg in range(table.num_logical):
                if lreg == zero or (cls, lreg) in inflight_writers:
                    continue
                entry = table.lookup(lreg)
                expected = golden.read(cls, lreg)
                if entry.is_immediate:
                    actual = entry.value
                    preg = None
                else:
                    preg = entry.value
                    if preg < 0:
                        continue
                    if preg >= _VID_FLAG:
                        v = machine._vregs.get(preg - _VID_FLAG)
                        if v is None or not v.written:
                            continue
                        actual = v.value
                        preg = None
                    elif preg >= rf.num_regs or rf.state[preg] == RegState.FREE:
                        self._fail(
                            machine,
                            "arch-map",
                            f"architectural r{lreg} (no in-flight writer) "
                            f"maps to "
                            f"{'out-of-range' if preg >= rf.num_regs else 'free'} "
                            f"register p{preg}",
                            trace_index=max(0, golden.index - 1),
                            reg_class=_CLASS_NAMES[cls],
                            lreg=lreg,
                            preg=preg if preg < rf.num_regs else None,
                            expected=expected,
                        )
                        continue
                    else:
                        actual = rf.value[preg]
                if actual != expected:
                    self._fail(
                        machine,
                        "arch-value",
                        f"architectural r{lreg} (no in-flight writer) reads "
                        f"{actual:#x} through the map but the golden model "
                        f"has {expected:#x}",
                        trace_index=max(0, golden.index - 1),
                        reg_class=_CLASS_NAMES[cls],
                        lreg=lreg,
                        preg=preg,
                        expected=expected,
                        actual=actual,
                    )
