"""The cycle-level out-of-order machine.

Pipeline (Figure 5): ``Fetch | Decode | Rename | Queue | Sched | Disp |
Disp | RF | RF | Exe | Retire | Commit``.  The model is trace-driven and
event-assisted: a cycle loop advances fetch/rename/select/commit, while a
timer wheel of timed events delivers wakeup broadcasts, operand reads,
execution completions, and PRI retire-stage actions at the right cycles.
The wheel is a dict keyed by target cycle; each bucket preserves
insertion order, giving the same delivery order a (cycle, counter) heap
would, at O(1) per schedule instead of O(log n).

Timing conventions (all configurable via :class:`repro.config.MachineConfig`):

* an instruction fetched in cycle ``f`` can rename in ``f + frontend_depth - 1``;
* a producer selected in cycle ``t`` broadcasts its wakeup at ``t + L_assumed``,
  so a single-cycle dependent can be selected at ``t + 1``;
* its value is readable by any consumer selected at or after
  ``t + L_actual`` (``ready_select``), which differs from the broadcast
  only for loads that miss — dependents selected in that window are
  *selectively replayed* at select-time verification;
* operands are read (and consumer reference counts dropped) at
  ``select + rf_read_offset``;
* execution completes at ``select + exec_offset + L_actual``; PRI's
  significance check and late map update run ``retire_offset`` later;
* commit is in-order, up to ``width`` per cycle, after the retire stage.

Register reclamation schemes (Section 3 / Table 1):

* baseline — the previous mapping of an instruction's destination is
  freed when the instruction commits;
* ER — a register frees as soon as it is written, unmapped from the
  current map, referenced by no checkpoint, and read by all renamed
  consumers (Moudgill-style counters and flags);
* PRI — a narrow result is inlined into the map entry at retire (WAW
  check per Figure 7) and its register freed under the configured WAR
  policy (``refcount`` / ``ideal`` / ``replay``) and checkpoint policy
  (``ckptcount`` / ``lazy``).

Dataflow is *verified*: every operand delivered to execution is checked
against the value the trace's dataflow requires, and every physical
register read is checked against its allocation generation.  A
bookkeeping bug that would cause the paper's Figure 6 WAR violation
raises :class:`SimulationError` instead of silently corrupting results.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.branch.unit import BranchUnit
from repro.config import CheckpointPolicy, MachineConfig, WarPolicy
from repro.core.inflight import SRC_IMM, SRC_REG, InFlight, SourceRecord
from repro.core.lsq import LoadStoreQueue
from repro.core.regfile import NEVER, PhysRegFile, RegState
from repro.core.scheduler import Scheduler
from repro.core.stats import SimStats
from repro.isa.opcodes import LATENCY_BY_CLASS, OpClass, RegClass
from repro.isa.registers import FP_ZERO_REG, INT_ZERO_REG
from repro.memory.hierarchy import MemoryHierarchy
from repro.rename.checkpoints import CheckpointManager
from repro.rename.map_table import MODE_IMMEDIATE, MODE_POINTER, RenameMapTable
from repro.rename.refcount import RefCountTable
from repro.workloads.trace import Trace

# Event kinds, processed in (cycle, insertion-order).
_EV_WAKE = 0  # (reg_class, preg): speculative wakeup broadcast
_EV_READ = 1  # (instr, token): register-read stage
_EV_COMPLETE = 2  # (instr, token): end of execution
_EV_RETIRE = 3  # (instr, token): PRI significance check / map update
_EV_TIMER = 4  # (instr, wait_token): re-wake after a failed verification

_CLASS_NAMES = {RegClass.INT: "int", RegClass.FP: "fp"}

#: Virtual-physical mode: map pointers at or above this value encode a
#: virtual tag (``value - _VID_FLAG`` indexes the machine's vtag table)
#: rather than a physical register number.
_VID_FLAG = 1 << 40


class _VReg:
    """Virtual-tag table entry (virtual-physical mode).

    Carries the scheduling and value state that lives on the physical
    register in the conventional machine; the physical register bound at
    issue time (``preg``) only models capacity.
    """

    __slots__ = ("owner", "reg_class", "preg", "preg_gen", "pred_ready",
                 "ready_select", "value", "written")

    def __init__(self, owner, reg_class):
        self.owner = owner  # InFlight, or None for architectural state
        self.reg_class = reg_class
        self.preg = -1
        self.preg_gen = -1
        self.pred_ready = NEVER
        self.ready_select = NEVER
        self.value = 0
        self.written = False


class SimulationError(RuntimeError):
    """Raised when the simulated dataflow is provably corrupted (e.g. a
    WAR violation under a policy that must prevent them) or the machine
    deadlocks."""


class _RenamePressure(Exception):
    """Internal control-flow signal: rename found the destination class's
    free list empty while a pressure hook is armed (vector backend only —
    see :mod:`repro.vector.engine`).  Never escapes :meth:`Machine._rename`."""

    def __init__(self, dest_cls) -> None:
        super().__init__("rename register pressure")
        self.dest_cls = dest_cls


class Machine:
    """One configured machine instance.  Use :meth:`run` on a trace."""

    def __init__(self, config: MachineConfig) -> None:
        self.cfg = config
        self.stats = SimStats()
        self.branch_unit = BranchUnit(config.branch)
        self.memory = MemoryHierarchy(config.memory)
        pri = config.pri
        self.rf: Dict[RegClass, PhysRegFile] = {
            RegClass.INT: PhysRegFile(config.int_phys_regs, "int",
                                      alloc_policy=config.alloc_policy),
            RegClass.FP: PhysRegFile(config.fp_phys_regs, "fp",
                                     alloc_policy=config.alloc_policy),
        }
        self.maps: Dict[RegClass, RenameMapTable] = {
            RegClass.INT: RenameMapTable(32, pri.int_width_bits, fp_mode=False),
            RegClass.FP: RenameMapTable(32, 1, fp_mode=True),
        }
        self.refcounts: Dict[RegClass, RefCountTable] = {
            RegClass.INT: RefCountTable(config.int_phys_regs),
            RegClass.FP: RefCountTable(config.fp_phys_regs),
        }
        self._vp = config.virtual_physical
        if self._vp and config.early_release:
            raise ValueError(
                "virtual-physical allocation does not compose with the "
                "early-release scheme (see MachineConfig.virtual_physical)"
            )
        # Checkpoint reference counting exists to pin registers against
        # PRI/ER reclamation; a baseline machine never consults the
        # counts (and the auditor keys its recomputation off this flag),
        # so skip the per-branch add/drop work there too.
        self.ckpts = CheckpointManager(
            config.max_checkpoints,
            self.maps,
            self.refcounts,
            track_er_refs=config.early_release,
            track_refs=not self._vp and (pri.enabled or config.early_release),
            # Generation stamps exist solely for the auditor's
            # stale-checkpoint proof; skip the per-take stamping pass in
            # unaudited runs.
            regfiles=None if self._vp or not config.audit.enabled else self.rf,
        )
        # Virtual-physical state: vtag table, id counter, and per-class
        # queues of issued instructions waiting for a physical register.
        self._vregs: Dict[int, _VReg] = {}
        self._next_vid = 1
        self._preg_waiters: Dict[RegClass, deque] = {
            RegClass.INT: deque(), RegClass.FP: deque()
        }
        self.sched = Scheduler(config.scheduler_entries)
        self.lsq = LoadStoreQueue(config.lsq_entries)
        self.rob: deque = deque()

        self._track_refs = pri.enabled or config.early_release
        self._ideal_war = pri.enabled and pri.war_policy == WarPolicy.IDEAL
        self._replay_war = pri.enabled and pri.war_policy == WarPolicy.REPLAY
        self._lazy_ckpt = pri.enabled and pri.checkpoint_policy == CheckpointPolicy.LAZY
        # Hot-path scalars, flattened out of the (frozen dataclass) config:
        # the pipeline stages read these once or more per instruction.
        self._width = config.width
        self._rob_entries = config.rob_entries
        self._frontend_delta = config.frontend_depth - 1
        self._rf_read_offset = config.rf_read_offset
        self._exec_offset = config.exec_offset
        self._retire_offset = config.retire_offset
        self._perfect_icache = config.perfect_icache
        self._il1_shift = self.memory.il1.line_shift
        # Line of the last IL1 access, for the fetch fast path; -1 means
        # "unknown" (fresh machine or restored snapshot).
        self._il1_last_line = -1
        self._il1_hit = config.memory.il1.latency
        self._pri_enabled = pri.enabled
        self._er = config.early_release
        self._li_inline_cfg = pri.enabled and pri.inline_on_load_immediate
        #: Recycled payload-RAM records (see _commit).
        self._rec_pool: List[SourceRecord] = []
        # Payload-RAM index for the ideal policy's associative update:
        # per class, per preg, the live consumer records.  Only that
        # policy reads it, so other machines keep an empty list per class.
        self._consumer_records: Dict[RegClass, List[list]] = {
            cls: [[] for _ in range(rf.num_regs)] if self._ideal_war else []
            for cls, rf in self.rf.items()
        }

        #: Timer wheel: target cycle -> [(kind, payload), ...] in
        #: insertion order.  See the module docstring.
        self._events: Dict[int, List[tuple]] = {}
        #: Retired InFlight objects available for reuse (see _commit).
        self._pool: List[InFlight] = []
        self.now = 0
        self._seq = 0
        self._committed_target = 0
        self._last_commit_cycle = 0

        #: Armed only by the vector backend: called as
        #: ``hook(machine, dest_cls, budget_left)`` at the instant rename
        #: would stall on an empty free list, *before* the stall is
        #: accounted — the hook forks a larger-capacity clone at that
        #: exact boundary.  None on every scalar machine, so the hot
        #: path's only cost is one attribute test inside an already-taken
        #: stall branch.
        self._pressure_hook = None
        # End-of-cycle hooks (fault injection, tracing, watchdogs), the
        # optional self-auditing invariant checker, and the optional
        # golden-model differential oracle (built at reset, once the
        # trace is known).
        self._cycle_hooks: List = []
        self.auditor = None
        if config.audit.enabled:
            from repro.audit.auditor import InvariantAuditor  # lazy: avoids cycle

            self.auditor = InvariantAuditor(config.audit)
        self.oracle = None
        self._cycle_limit = NEVER

        # Fetch state.
        self.trace: Optional[Trace] = None
        self._trace_ops: List = []
        self._fetch_idx = 0
        self._fetch_buffer: deque = deque()
        self._fetch_stall_until = 0

    # ================================================================ API

    def run(
        self,
        trace: Trace,
        max_insts: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> SimStats:
        """Simulate ``trace`` until ``max_insts`` commits (default: all).

        Returns the populated :class:`~repro.core.stats.SimStats`.
        """
        self.reset(trace)
        target = len(trace) if max_insts is None else min(max_insts, len(trace))
        self._committed_target = target
        if target == 0:
            return self.stats
        self._cycle_limit = max_cycles if max_cycles is not None else NEVER
        return self._run_loop()

    def resume(self, max_cycles: Optional[int] = None) -> SimStats:
        """Continue a run restored from a snapshot (see :meth:`restore`).

        Runs until the original commit target, or ``max_cycles`` (an
        *absolute* cycle number, like the limit given to :meth:`run`).
        As with :meth:`run`, ``None`` means unbounded — a cycle limit the
        snapshotted attempt ran under is not inherited.
        """
        if self.trace is None:
            raise SimulationError(
                "resume() requires a restored machine: call restore() first"
            )
        self._cycle_limit = max_cycles if max_cycles is not None else NEVER
        if self.stats.committed >= self._committed_target:
            self._finalize()
            return self.stats
        return self._run_loop()

    def _run_loop(self) -> SimStats:
        target = self._committed_target
        limit = self._cycle_limit
        auditor = self.auditor
        oracle = self.oracle
        deadlock_after = self.cfg.deadlock_cycles
        stats = self.stats
        occupancy = stats.occupancy_sum
        rf_int = self.rf[RegClass.INT]
        rf_fp = self.rf[RegClass.FP]
        process_events = self._process_events
        commit = self._commit
        select = self._select
        rename = self._rename
        fetch = self._fetch
        # Occupancy integrals accumulate in locals and flush to the stats
        # object once per observation (hooks/auditor/oracle see current
        # values — snapshots taken mid-run must be exact) or at loop exit.
        occ_int = 0
        occ_fp = 0
        # Appended/removed in place, never rebound — aliasing is safe.
        cycle_hooks = self._cycle_hooks
        observed = auditor is not None or oracle is not None
        try:
            while stats.committed < target:
                if self.now >= limit:
                    break
                self.now += 1
                process_events()
                occ_int += rf_int.allocated_count
                occ_fp += rf_fp.allocated_count
                commit()
                select()
                rename()
                fetch()
                if cycle_hooks or observed:
                    if occ_int or occ_fp:
                        occupancy["int"] += occ_int
                        occupancy["fp"] += occ_fp
                        occ_int = occ_fp = 0
                    for hook in tuple(cycle_hooks):
                        hook(self)
                    if auditor is not None:
                        auditor.maybe_check(self)
                    if oracle is not None:
                        oracle.maybe_check(self)
                if self.now - self._last_commit_cycle > deadlock_after:
                    head = repr(self.rob[0]) if self.rob else "rob empty"
                    raise SimulationError(
                        f"deadlock: no commit since cycle {self._last_commit_cycle} "
                        f"(now {self.now}, watchdog {deadlock_after} cycles, "
                        f"{stats.committed}/{target} committed, {head})"
                    )
        finally:
            occupancy["int"] += occ_int
            occupancy["fp"] += occ_fp
        self._finalize()
        return self.stats

    def snapshot(self) -> dict:
        """Versioned, pickle-free image of the full machine (and oracle)
        state, suitable for ``json.dumps``.  See :mod:`repro.core.snapshot`."""
        from repro.core.snapshot import take_snapshot  # lazy: avoids cycle

        return take_snapshot(self)

    def restore(self, data: dict, trace: Trace) -> "Machine":
        """Install a :meth:`snapshot` image into this (freshly built,
        never-run) machine.  ``trace`` must be the same trace the
        snapshotted run used; continue with :meth:`resume`."""
        from repro.core.snapshot import restore_snapshot  # lazy: avoids cycle

        restore_snapshot(self, data, trace)
        return self

    def add_cycle_hook(self, hook) -> None:
        """Register ``hook(machine)`` to run at the end of every cycle.
        Used by the fault-injection harness and tests."""
        self._cycle_hooks.append(hook)

    def remove_cycle_hook(self, hook) -> None:
        self._cycle_hooks.remove(hook)

    def inflight_window(self) -> Tuple[int, int, int]:
        """(oldest seq, youngest seq, occupancy) of the ROB — the window
        the audit diagnostics report."""
        if not self.rob:
            return (-1, -1, 0)
        return (self.rob[0].seq, self.rob[-1].seq, len(self.rob))

    def warmup(self, trace: Trace) -> None:
        """Train predictors and warm caches on the trace's untimed prefix
        (the stand-in for the paper's 400M-instruction fast-forward).

        The result depends only on the prefix and on the branch and
        memory geometry, so it is computed once per trace object and
        geometry: the first machine runs :meth:`_functional_warmup` and
        stores a copy of the resulting state in ``trace.warm_states``;
        every later machine installs its own copy of that state, which
        equals what the loop would compute."""
        key = (self.cfg.branch, self.cfg.memory)
        warm = trace.warm_states.get(key)
        if warm is not None:
            self.branch_unit.load_state(warm["branch"])
            self.memory.load_state(warm["memory"])
            return
        self._functional_warmup(trace)
        # No lock: two threads sharing a trace (the serve executor) may
        # both miss and both run the loop, but they compute equal state
        # and a dict store is atomic, so either store is correct and a
        # reader never sees a partial entry.
        trace.warm_states[key] = {"branch": self.branch_unit.state(),
                                  "memory": self.memory.state()}

    def _functional_warmup(self, trace: Trace) -> None:
        """The warmup loop itself; counters are zeroed at the end."""
        unit = self.branch_unit
        mem = self.memory
        fetch = mem.il1.access_latency
        data = mem.dl1.access_latency
        resolve = unit.resolve
        predict = unit.predict
        # Same-line IL1 accesses are skipped: a repeat access only moves
        # the already-MRU line to MRU and bumps the hit counter, and the
        # counters are zeroed below anyway.  Only the IL1 touches its
        # sets, so "same line as the previous access" proves residency.
        il1_shift = mem.il1.line_shift
        last_line = -1
        for op in trace.warmup_ops:
            line = op.pc >> il1_shift
            if line != last_line:
                fetch(op.pc)
                last_line = line
            if op.is_branch:
                resolve(op, predict(op))
            elif op.is_mem:
                data(op.mem_addr)
        unit.predictions = 0
        unit.direction_mispredicts = 0
        unit.target_mispredicts = 0
        mem.il1.hits = mem.il1.misses = 0
        mem.dl1.hits = mem.dl1.misses = 0
        mem.l2.hits = mem.l2.misses = 0

    def reset(self, trace: Trace) -> None:
        """Install architectural state from the trace's initial values."""
        if self.trace is not None:
            raise SimulationError(
                "Machine instances are single-run: construct a new Machine "
                "(or use repro.simulate) for each trace"
            )
        self.trace = trace
        self._trace_ops = list(trace.ops)
        if self.cfg.oracle.enabled:
            from repro.oracle.golden import CommitOracle  # lazy: avoids cycle

            self.oracle = CommitOracle(self.cfg.oracle, trace)
        self.warmup(trace)
        self._fetch_idx = 0
        self._fetch_buffer.clear()
        self._fetch_stall_until = 0
        for cls, initial in (
            (RegClass.INT, trace.initial_int),
            (RegClass.FP, trace.initial_fp),
        ):
            rf = self.rf[cls]
            table = self.maps[cls]
            zero = INT_ZERO_REG if cls == RegClass.INT else FP_ZERO_REG
            for lreg in range(table.num_logical):
                if lreg == zero:
                    continue
                preg = rf.allocate_architectural(lreg, initial[lreg])
                if self._vp:
                    vid = self._new_vreg(cls, owner=None)
                    v = self._vregs[vid]
                    v.preg = preg
                    v.preg_gen = rf.gen[preg]
                    v.value = initial[lreg]
                    v.pred_ready = 0
                    v.ready_select = 0
                    v.written = True
                    table.set_pointer(lreg, _VID_FLAG + vid)
                else:
                    table.set_pointer(lreg, preg)

    def _value_fault(self, kind: str, reason: str, **fields) -> None:
        """Raise a provable dataflow/WAR corruption.

        With the golden-model oracle attached, the failure is reported as
        a structured :class:`~repro.oracle.OracleDivergence` (trace index,
        register, expected vs. actual, in-flight window); otherwise as a
        plain :class:`SimulationError`, preserving historical behavior.
        """
        if self.oracle is not None:
            raise self.oracle.divergence(self, kind, reason, **fields)
        raise SimulationError(reason)

    def _new_vreg(self, reg_class: RegClass, owner) -> int:
        vid = self._next_vid
        self._next_vid += 1
        self._vregs[vid] = _VReg(owner, reg_class)
        return vid

    # ============================================================ events

    def _schedule(self, cycle: int, kind: int, payload) -> None:
        # An event scheduled during cycle N for a cycle <= N lands in the
        # N+1 bucket: _process_events has already run this cycle, and the
        # old event heap delivered such events at the next cycle's sweep.
        if cycle <= self.now:
            cycle = self.now + 1
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [(kind, payload)]
        else:
            bucket.append((kind, payload))

    def _process_events(self) -> None:
        events = self._events
        if not events:
            return
        bucket = events.pop(self.now, None)
        if bucket is None:
            return
        sched_wake = self.sched.wake
        for kind, payload in bucket:
            if kind == _EV_WAKE:
                sched_wake(payload[0], payload[1])
            elif kind == _EV_READ:
                instr, token = payload
                if not instr.squashed and instr.issue_token == token:
                    self._do_read(instr)
            elif kind == _EV_COMPLETE:
                instr, token = payload
                if not instr.squashed and instr.issue_token == token:
                    self._do_complete(instr)
            elif kind == _EV_RETIRE:
                instr, token = payload
                if not instr.squashed and instr.issue_token == token:
                    self._do_retire(instr)
            else:  # _EV_TIMER
                instr, token = payload
                self.sched.timer_wake(instr, token)

    # ============================================================= fetch

    def _fetch(self) -> None:
        now = self.now
        if now < self._fetch_stall_until:
            return
        buffer = self._fetch_buffer
        width = self._width
        if len(buffer) >= width * 2:
            return
        ops = self._trace_ops
        limit = len(ops)
        idx = self._fetch_idx
        if idx >= limit:
            return
        count = 0
        while count < width and idx < limit:
            op = ops[idx]
            if count == 0 and not self._perfect_icache:
                # Same-line fast path: the previous group's access left
                # this line MRU-resident (nothing else touches the IL1),
                # so a repeat access is a guaranteed hit — count it
                # without replaying the LRU update.
                line = op.pc >> self._il1_shift
                if line == self._il1_last_line:
                    self.memory.il1.hits += 1
                else:
                    latency = self.memory.il1.access_latency(op.pc)
                    self._il1_last_line = line
                    if latency > self._il1_hit:
                        # IL1 miss: the line arrives after the extra latency.
                        self._fetch_stall_until = now + (latency - self._il1_hit)
                        return
            buffer.append((op, idx, now))
            idx += 1
            count += 1
            if op.is_branch and op.taken:
                break  # Table 1: fetch stops at the first taken branch.
        self._fetch_idx = idx
        self.stats.fetched += count

    # ============================================================ rename

    def _rename(self) -> None:
        self._rename_budget(self._width)

    def _rename_budget(self, budget: int) -> None:
        """Rename up to ``budget`` instructions this cycle.

        Split out of :meth:`_rename` so a vector-backend clone — forked
        mid-rename at a register-exhaustion stall — can finish the cycle
        with exactly the budget its donor had left.
        """
        buffer = self._fetch_buffer
        if not buffer:
            return
        horizon = self.now - self._frontend_delta
        rename_one = self._try_rename_one
        popleft = buffer.popleft
        renamed = 0
        while budget and buffer:
            op, trace_idx, fetch_cycle = buffer[0]
            if fetch_cycle > horizon:
                break
            try:
                ok = rename_one(op, trace_idx, fetch_cycle)
            except _RenamePressure as pressure:
                # Flush the renamed count *before* the hook runs: the hook
                # deep-copies this machine, and the clone's stats must be
                # exactly what a larger-capacity machine would hold here.
                if renamed:
                    self.stats.renamed += renamed
                    renamed = 0
                self._pressure_hook(self, pressure.dest_cls, budget)
                # This machine then stalls exactly as it would have
                # without the hook (same counter, same break).
                self._stall(regs=True)
                break
            if not ok:
                break
            popleft()
            budget -= 1
            renamed += 1
        if renamed:
            self.stats.renamed += renamed

    def _stall(self, regs: bool) -> bool:
        if regs:
            self.stats.rename_stall_regs += 1
        else:
            self.stats.rename_stall_other += 1
        return False

    def _try_rename_one(self, op, trace_idx: int, fetch_cycle: int) -> bool:
        sched = self.sched
        if len(self.rob) >= self._rob_entries or sched.occupancy >= sched.capacity:
            return self._stall(regs=False)
        is_mem = op.is_mem
        if is_mem:
            lsq = self.lsq
            if lsq.occupancy >= lsq.capacity:
                return self._stall(regs=False)
        if op.is_branch and self.ckpts.full:
            return self._stall(regs=False)

        now = self.now
        maps = self.maps
        rf_map = self.rf
        track_refs = self._track_refs
        dest_cls = op.dest_class
        li_inline = False
        dest = op.dest
        if dest is not None:
            li_inline = (
                self._li_inline_cfg
                and op.op == OpClass.INT_ALU
                and not op.sources
                and maps[RegClass.INT].value_fits(op.result)
            )
            # Virtual-physical mode allocates at issue, not rename.
            if not self._vp and not li_inline and rf_map[dest_cls].free_list.empty:
                if self._pressure_hook is not None:
                    raise _RenamePressure(dest_cls)
                return self._stall(regs=True)

        self._seq += 1
        pool = self._pool
        if pool:
            instr = pool.pop()
            instr.reinit(op, self._seq, trace_idx, fetch_cycle)
        else:
            instr = InFlight(op, self._seq, trace_idx, fetch_cycle)
        instr.rename_cycle = now

        # --- source operands: read the map (direct modes/values indexing;
        # this is the hottest loop in rename).  Payload records are
        # recycled from _rec_pool when available (field stores on a spare
        # object beat a constructor call here).
        unready: List[Tuple[RegClass, int]] = []
        sources = instr.sources
        append_source = sources.append
        rec_pool = self._rec_pool
        ideal_war = self._ideal_war
        for src in op.sources:
            cls = src.reg_class
            zero = INT_ZERO_REG if cls == RegClass.INT else FP_ZERO_REG
            if src.index == zero:
                if rec_pool:
                    rec = rec_pool.pop()
                    rec.mode = SRC_IMM
                    rec.reg_class = cls
                    rec.preg = -1
                    rec.gen = -1
                    rec.value = 0
                    rec.read_done = False
                    rec.counted = False
                else:
                    rec = SourceRecord(SRC_IMM, cls, -1, -1, 0, counted=False)
                append_source(rec)
                continue
            table = maps[cls]
            mapped = table.values[src.index]
            if table.modes[src.index] == MODE_IMMEDIATE:
                if mapped != src.expected_value:
                    self._value_fault(
                        "map-immediate",
                        f"map immediate corrupt for {src!r} at #{instr.seq}: "
                        f"map={mapped:#x} expected={src.expected_value:#x}",
                        trace_index=instr.trace_idx,
                        seq=instr.seq,
                        reg_class=_CLASS_NAMES[cls],
                        lreg=src.index,
                        expected=src.expected_value,
                        actual=mapped,
                    )
                if rec_pool:
                    rec = rec_pool.pop()
                    rec.mode = SRC_IMM
                    rec.reg_class = cls
                    rec.preg = -1
                    rec.gen = -1
                    rec.value = mapped
                    rec.read_done = False
                    rec.counted = False
                else:
                    rec = SourceRecord(SRC_IMM, cls, -1, -1, mapped, counted=False)
                append_source(rec)
                continue
            preg = mapped
            if preg < 0:
                self._value_fault(
                    "arch-map",
                    f"unmapped logical register in {src!r}",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    reg_class=_CLASS_NAMES[cls],
                    lreg=src.index,
                )
            if preg >= _VID_FLAG:
                # Virtual-physical mode: the source names a virtual tag.
                v = self._vregs[preg - _VID_FLAG]
                if v.value != src.expected_value and v.written:
                    self._value_fault(
                        "vtag",
                        f"vtag table corrupt for {src!r} at #{instr.seq}",
                        trace_index=instr.trace_idx,
                        seq=instr.seq,
                        reg_class=_CLASS_NAMES[cls],
                        lreg=src.index,
                        expected=src.expected_value,
                        actual=v.value,
                    )
                rec = SourceRecord(SRC_REG, cls, preg, 0, src.expected_value,
                                   counted=False)
                append_source(rec)
                if v.pred_ready > now:
                    unready.append((cls, preg))
                continue
            rf = rf_map[cls]
            if rec_pool:
                rec = rec_pool.pop()
                rec.mode = SRC_REG
                rec.reg_class = cls
                rec.preg = preg
                rec.gen = rf.gen[preg]
                rec.value = src.expected_value
                rec.read_done = False
                rec.counted = track_refs
            else:
                rec = SourceRecord(
                    SRC_REG, cls, preg, rf.gen[preg], src.expected_value,
                    counted=track_refs,
                )
            if track_refs:
                self.refcounts[cls].add_consumer(preg)
            if ideal_war:
                self._consumer_records[cls][preg].append((rec, instr))
            append_source(rec)
            if rf.pred_ready[preg] > now:
                unready.append((cls, preg))

        # --- destination: allocate and update the map.
        if dest is not None and self._vp:
            table = maps[dest_cls]
            prev = table.pointer_of(dest)
            if prev >= _VID_FLAG:
                instr.prev_vid = prev
            if li_inline:
                table.set_immediate(dest, op.result)
                self.stats.inlined += 1
                self.stats.inline_attempts += 1
            else:
                vid = self._new_vreg(dest_cls, instr)
                instr.dest_vid = _VID_FLAG + vid
                table.set_pointer(dest, instr.dest_vid)
        elif dest is not None:
            table = maps[dest_cls]
            # pointer_of / set_pointer inlined: direct mode/value array
            # access on the per-instruction path.
            prev = -1 if table.modes[dest] == MODE_IMMEDIATE else table.values[dest]
            instr.prev_preg = prev
            rf = rf_map[dest_cls]
            if prev >= 0:
                instr.prev_gen = rf.gen[prev]
            if li_inline:
                table.set_immediate(dest, op.result)
                instr.dest_preg = -1
                self.stats.inlined += 1
                self.stats.inline_attempts += 1
            else:
                preg = rf.allocate(dest, instr.seq, now)
                if preg is None:  # checked above; defensive
                    raise SimulationError("free list empty after check")
                if ideal_war:
                    # Only the ideal-WAR policy populates these lists.
                    self._consumer_records[dest_cls][preg].clear()
                instr.dest_preg = preg
                instr.dest_gen = rf.gen[preg]
                table.modes[dest] = MODE_POINTER
                table.values[dest] = preg
            if prev >= 0 and self._er:
                self._maybe_free_er(dest_cls, prev)

        # --- branches: predict and checkpoint.
        if op.is_branch:
            instr.prediction = self.branch_unit.predict(op)
            instr.mispredicted = instr.prediction.mispredicted
            instr.checkpoint = self.ckpts.take(
                instr.seq, self.branch_unit.ras.snapshot(), self.branch_unit.history
            )
            if instr.checkpoint is None:
                raise SimulationError("checkpoint pool exhausted after check")

        if is_mem:
            self.lsq.insert(instr)
        sched.insert(instr, unready)
        self.rob.append(instr)
        return True

    # ============================================================ select

    def _select(self) -> None:
        if not self.sched._ready:
            return
        slots = self._width
        pop_ready = self.sched.pop_ready
        verify_and_issue = self._verify_and_issue
        while slots:
            instr = pop_ready()
            if instr is None:
                return
            ok = verify_and_issue(instr)
            slots -= 1
            if not ok:
                self.stats.issue_replays += 1
                instr.replays += 1

    def _verify_and_issue(self, instr: InFlight) -> bool:
        """Select-time verification; issue on success, re-park on failure."""
        now = self.now
        rf_map = self.rf
        never_waits: Optional[List[Tuple[RegClass, int]]] = None
        finite_waits: Optional[List[int]] = None
        for rec in instr.sources:
            if rec.mode != SRC_REG or rec.read_done:
                continue
            preg = rec.preg
            if preg >= _VID_FLAG:
                # Virtual tags are never reused: only readiness to check.
                ready = self._vregs[preg - _VID_FLAG].ready_select
                if ready > now:
                    if ready >= NEVER:
                        if never_waits is None:
                            never_waits = []
                        never_waits.append((rec.reg_class, preg))
                    else:
                        if finite_waits is None:
                            finite_waits = []
                        finite_waits.append(ready)
                continue
            rf = rf_map[rec.reg_class]
            if rf.gen[preg] != rec.gen or rf.state[preg] == RegState.FREE:
                # The producer's register was reclaimed before this
                # consumer read it: Figure 6's WAR violation.
                if self._replay_war:
                    self.stats.war_replays += 1
                    if rec.counted:
                        rec.counted = False
                        self.refcounts[rec.reg_class].drop_consumer(preg)
                    rec.patch_to_immediate(rec.value)
                    if finite_waits is None:
                        finite_waits = []
                    finite_waits.append(now + self.cfg.war_replay_penalty)
                    continue
                self._value_fault(
                    "war-select",
                    f"WAR violation: p{preg} reclaimed under "
                    f"{self.cfg.pri.war_policy} before #{instr.seq} read it",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    reg_class=_CLASS_NAMES[rec.reg_class],
                    preg=preg,
                    expected=rec.value,
                )
            ready = rf.ready_select[preg]
            if ready > now:
                if ready >= NEVER:
                    if never_waits is None:
                        never_waits = []
                    never_waits.append((rec.reg_class, preg))
                else:
                    if finite_waits is None:
                        finite_waits = []
                    finite_waits.append(ready)
        if never_waits is not None or finite_waits is not None:
            token = self.sched.park(
                instr,
                never_waits if never_waits is not None else (),
                extra_missing=0 if finite_waits is None else len(finite_waits),
            )
            if finite_waits is not None:
                for cycle in finite_waits:
                    self._schedule(cycle, _EV_TIMER, (instr, token))
            return False
        if self._vp and instr.dest_vid >= 0 and instr.dest_preg < 0:
            if not self._bind_dest_preg(instr):
                self.stats.vp_alloc_stalls += 1
                return False
        self._issue(instr)
        return True

    def _bind_dest_preg(self, instr: InFlight) -> bool:
        """Virtual-physical mode: claim a physical register at issue.

        The last free register of a class is reserved for the oldest
        un-issued register-writing instruction — otherwise younger work
        could strand the in-order commit point without a register and
        deadlock the machine.  Denied instructions queue and are re-woken
        when a register of their class frees.

        The reserve alone is not sufficient: it guarantees the oldest
        unissued writer a register *once*, but nothing guarantees that
        instruction's commit returns one (its previous mapping may have
        been inline-freed long ago and re-consumed by younger writers),
        so the *next* head writer can still face an empty free list that
        will never refill.  When that happens the machine steals a
        register back from the youngest issued writer (see
        :meth:`_steal_preg`).
        """
        cls = instr.op.dest_class
        rf = self.rf[cls]
        free = len(rf.free_list)
        if free == 0 or (free == 1 and not self._oldest_unissued_writer(instr)):
            if not (free == 0 and self._oldest_unissued_writer(instr)
                    and self._steal_preg(cls, instr)):
                self._preg_waiters[cls].append(instr)
                instr.missing = 1
                return False
        preg = rf.allocate(instr.op.dest, instr.seq, self.now)
        v = self._vregs[instr.dest_vid - _VID_FLAG]
        v.preg = preg
        v.preg_gen = rf.gen[preg]
        instr.dest_preg = preg
        instr.dest_gen = rf.gen[preg]
        return True

    def _steal_preg(self, cls: RegClass, thief: InFlight) -> bool:
        """Deadlock backstop: reclaim the youngest issued, uncommitted
        writer's physical register so the oldest writer can bind.

        Safe under virtual-physical allocation because consumers read
        values through the vtag table, never through the register file:
        the victim's virtual register keeps its value and readiness, only
        the physical backing store is surrendered (the hardware analogue
        re-executes the victim; the timing model charges nothing extra,
        which slightly flatters VP but keeps the run live and correct).
        Committed mappings are never stolen — they live outside the ROB.
        """
        rf = self.rf[cls]
        for victim in reversed(self.rob):
            if (victim.squashed or victim.committed or not victim.issued
                    or victim.seq <= thief.seq
                    or victim.dest_preg < 0
                    or victim.op.dest_class != cls):
                continue
            preg = victim.dest_preg
            # The preg may already have been inline-freed at retire (and
            # possibly re-allocated): only a live, generation-matching
            # binding can be stolen.
            if rf.is_free(preg) or not rf.gen_matches(preg, victim.dest_gen):
                continue
            victim.dest_preg = -1
            v = self._vregs.get(victim.dest_vid - _VID_FLAG)
            if v is not None and v.preg == preg:
                v.preg = -1
            # Release directly (not via _release_preg): the thief binds
            # the register in the same cycle, so waking a parked waiter
            # for it would only bounce that instruction off the reserve.
            rf.release(preg, self.now, self.stats.lifetimes[_CLASS_NAMES[cls]])
            self.stats.vp_steals += 1
            return True
        return False

    def _oldest_unissued_writer(self, instr: InFlight) -> bool:
        for entry in self.rob:
            if entry.squashed or entry.issued or entry.op.dest is None:
                continue
            return entry is instr
        return True

    def _issue(self, instr: InFlight) -> None:
        now = self.now
        op = instr.op
        self.sched.release_entry(instr)
        instr.issued = True
        instr.issue_cycle = now
        token = instr.issue_token + 1
        instr.issue_token = token

        latency = LATENCY_BY_CLASS[op.op]
        assumed = actual = latency
        if op.is_load:
            assumed = latency + self.memory.dl1_hit_latency
            if self.lsq.forwarding_store(instr):
                self.lsq.forwards += 1
                actual = assumed
            else:
                actual = latency + self.memory.dl1.access_latency(op.mem_addr)
            instr.mem_latency = actual - latency

        # All offsets below are strictly positive, so the wheel buckets
        # are appended to directly (no past-cycle clamp needed).
        events = self._events
        if self._vp and instr.dest_vid >= 0:
            v = self._vregs[instr.dest_vid - _VID_FLAG]
            v.pred_ready = now + assumed
            v.ready_select = now + actual
            v.value = op.result
            cycle = now + assumed
            bucket = events.get(cycle)
            ev = (_EV_WAKE, (op.dest_class, instr.dest_vid))
            if bucket is None:
                events[cycle] = [ev]
            else:
                bucket.append(ev)
        elif instr.dest_preg >= 0:
            rf = self.rf[op.dest_class]
            preg = instr.dest_preg
            rf.pred_ready[preg] = now + assumed
            rf.ready_select[preg] = now + actual
            rf.value[preg] = op.result  # forwarded value; written at complete
            cycle = now + assumed
            bucket = events.get(cycle)
            ev = (_EV_WAKE, (op.dest_class, preg))
            if bucket is None:
                events[cycle] = [ev]
            else:
                bucket.append(ev)
        sources = instr.sources
        need_read = False
        for rec in sources:
            if rec.mode == SRC_REG and not rec.read_done:
                need_read = True
                break
        if not need_read:
            # Immediate-only operands: the read stage would only set the
            # flags below, so skip scheduling it.  Nothing observes a
            # source record's read_done between issue and the read cycle
            # (select skips non-register records, commit runs later).
            for rec in sources:
                rec.read_done = True
        else:
            cycle = now + self._rf_read_offset
            bucket = events.get(cycle)
            ev = (_EV_READ, (instr, token))
            if bucket is None:
                events[cycle] = [ev]
            else:
                bucket.append(ev)
        cycle = now + self._exec_offset + actual
        bucket = events.get(cycle)
        ev = (_EV_COMPLETE, (instr, token))
        if bucket is None:
            events[cycle] = [ev]
        else:
            bucket.append(ev)
        self.stats.issued += 1

    # ========================================================== read stage

    def _do_read(self, instr: InFlight) -> None:
        now = self.now
        rf_map = self.rf
        for rec in instr.sources:
            if rec.read_done:
                continue
            if rec.mode == SRC_IMM:
                rec.read_done = True
                continue
            cls = rec.reg_class
            preg = rec.preg
            if preg >= _VID_FLAG:
                v = self._vregs.get(preg - _VID_FLAG)
                if v is None or v.value != rec.value:
                    self._value_fault(
                        "vtag",
                        f"vtag dataflow corruption at #{instr.seq}: "
                        f"expected {rec.value:#x}",
                        trace_index=instr.trace_idx,
                        seq=instr.seq,
                        reg_class=_CLASS_NAMES[cls],
                        expected=rec.value,
                        actual=None if v is None else v.value,
                    )
                rec.read_done = True
                if v.preg >= 0:
                    rf_map[cls].read_stamp(v.preg, now)
                continue
            rf = rf_map[cls]
            if rf.gen[preg] != rec.gen:
                if self._replay_war:
                    self._war_reissue(instr)
                    return
                self._value_fault(
                    "war-read",
                    f"WAR violation at read: p{preg} reallocated before "
                    f"#{instr.seq} read it (policy {self.cfg.pri.war_policy})",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    reg_class=_CLASS_NAMES[cls],
                    preg=preg,
                    expected=rec.value,
                )
            if rf.value[preg] != rec.value:
                self._value_fault(
                    "dataflow",
                    f"dataflow corruption: #{instr.seq} read {rf.value[preg]:#x} "
                    f"from p{preg}, expected {rec.value:#x}",
                    trace_index=instr.trace_idx,
                    seq=instr.seq,
                    reg_class=_CLASS_NAMES[cls],
                    preg=preg,
                    expected=rec.value,
                    actual=rf.value[preg],
                )
            rec.read_done = True
            rf.read_stamp(preg, now)
            if rec.counted:
                rec.counted = False
                self.refcounts[cls].drop_consumer(preg)
                self._after_unref(cls, preg)

    def _war_reissue(self, instr: InFlight) -> None:
        """REPLAY policy: squash this consumer back through the map.

        All unread operands are re-delivered as immediates (modelling the
        replayed map read) and the instruction re-issues after a penalty.
        """
        self.stats.war_replays += 1
        for rec in instr.sources:
            if rec.mode == SRC_REG and not rec.read_done:
                if rec.counted:
                    rec.counted = False
                    self.refcounts[rec.reg_class].drop_consumer(rec.preg)
                rec.patch_to_immediate(rec.value)
        instr.issued = False
        instr.issue_token += 1
        if instr.dest_preg >= 0:
            rf = self.rf[instr.op.dest_class]
            rf.pred_ready[instr.dest_preg] = NEVER
            rf.ready_select[instr.dest_preg] = NEVER
        instr.in_scheduler = True
        self.sched.occupancy += 1  # entry re-claimed; may transiently overflow
        # park() starts a fresh wait generation, so a timer left over from
        # a pre-replay park can no longer count against this wait and
        # issue the entry before its penalty elapses.
        token = self.sched.park(instr, [], extra_missing=1)
        self._schedule(
            self.now + self.cfg.war_replay_penalty, _EV_TIMER, (instr, token)
        )

    # ========================================================== complete

    def _do_complete(self, instr: InFlight) -> None:
        now = self.now
        instr.completed = True
        instr.complete_cycle = now
        op = instr.op
        if self._vp and instr.dest_vid >= 0:
            # The vtag is the value's home: mark it written even when the
            # physical backing store was stolen (dest_preg == -1).
            self._vregs[instr.dest_vid - _VID_FLAG].written = True
        if instr.dest_preg >= 0:
            rf = self.rf[op.dest_class]
            rf.write(instr.dest_preg, op.result, now)
            if not self._vp and self._pri_enabled:
                # Pin against ER release until the retire-stage PRI check.
                rf.retire_pending[instr.dest_preg] = True
            if self._er:
                self._maybe_free_er(op.dest_class, instr.dest_preg)
        if op.is_branch:
            self.branch_unit.resolve(op, instr.prediction)
            if instr.mispredicted:
                self.stats.mispredicts += 1
                self._recover(instr)
            # Resolved branches can never be recovery targets again, so
            # their shadow maps free immediately (out of order).
            self.ckpts.release(instr.checkpoint, self._after_unref)
        if self._pri_enabled and instr.dest_preg >= 0:
            self._schedule(
                now + self._retire_offset, _EV_RETIRE, (instr, instr.issue_token)
            )

    # ====================================================== retire (PRI)

    def _do_retire(self, instr: InFlight) -> None:
        """PRI's retire-stage significance check and late map update."""
        op = instr.op
        cls = op.dest_class
        table = self.maps[cls]
        if self._vp:
            # Virtual-physical mode: consumers read through the vtag
            # table, so an inlined register frees unconditionally.
            if cls == RegClass.FP and not self.cfg.pri.inline_fp:
                return
            if not table.value_fits(op.result):
                return
            self.stats.inline_attempts += 1
            if not table.try_inline(op.dest, instr.dest_vid, op.result):
                self.stats.inline_waw_dropped += 1
                return
            self.stats.inlined += 1
            v = self._vregs[instr.dest_vid - _VID_FLAG]
            if v.preg >= 0 and self.rf[cls].gen_matches(v.preg, v.preg_gen):
                self._release_preg(cls, v.preg)
                self.stats.pri_early_frees += 1
                v.preg = -1
            return
        preg = instr.dest_preg
        rf_dest = self.rf[cls]
        rf_dest.retire_pending[preg] = False
        if cls == RegClass.FP and not self.cfg.pri.inline_fp:
            if self.cfg.early_release:
                self._maybe_free_er(cls, preg)
            return
        if not table.value_fits(op.result):
            if self.cfg.early_release:
                self._maybe_free_er(cls, preg)
            return
        self.stats.inline_attempts += 1
        if not table.try_inline(op.dest, preg, op.result):
            self.stats.inline_waw_dropped += 1  # Figure 7: entry remapped
            if self.cfg.early_release:
                self._maybe_free_er(cls, preg)
            return
        self.stats.inlined += 1
        rf = self.rf[cls]
        rf.inline_pending[preg] = True
        if self._lazy_ckpt:
            self.ckpts.patch_inlined(cls, preg, op.result)
        if self._ideal_war:
            self._patch_payload(cls, preg, instr.dest_gen, op.result)
        if not self._try_pri_free(cls, preg):
            self.stats.pri_frees_deferred += 1

    def _patch_payload(self, cls: RegClass, preg: int, gen: int, value: int) -> None:
        """Ideal WAR policy: associatively update stale payload pointers."""
        records = self._consumer_records[cls][preg]
        counts = self.refcounts[cls]
        for rec, consumer in records:
            if (
                consumer.squashed
                or rec.read_done
                or rec.mode != SRC_REG
                or rec.preg != preg
                or rec.gen != gen
            ):
                continue
            rec.patch_to_immediate(value)
            if rec.counted:
                rec.counted = False
                counts.drop_consumer(preg)
        records.clear()

    # ====================================================== reclamation

    def _try_pri_free(self, cls: RegClass, preg: int) -> bool:
        """Free an inlined register if no references pin it."""
        rf = self.rf[cls]
        if not rf.inline_pending[preg] or rf.state[preg] == RegState.FREE:
            return False
        if self.maps[cls].pointer_of(rf.lreg[preg]) == preg:
            # A misprediction recovery restored a checkpoint from before
            # the late map update, so this register is the live mapping
            # again: the inline is void.  The register will be freed by
            # the conventional path when its redefiner commits.
            rf.inline_pending[preg] = False
            return False
        counts = self.refcounts[cls]
        if not self._replay_war and counts.consumers(preg) > 0:
            return False
        if counts.checkpoint_refs(preg) > 0:
            return False
        self._release_preg(cls, preg)
        self.stats.pri_early_frees += 1
        return True

    def _maybe_free_er(self, cls: RegClass, preg: int) -> None:
        """Early release (prior work): complete + unmapped everywhere +
        all renamed consumers have read."""
        rf = self.rf[cls]
        if rf.state[preg] != RegState.WRITTEN or rf.inline_pending[preg]:
            return
        if rf.retire_pending[preg]:
            return  # PRI's retire-stage check has not run yet (see regfile)
        if self.maps[cls].pointer_of(rf.lreg[preg]) == preg:
            return  # still the current mapping
        counts = self.refcounts[cls]
        if counts.consumers(preg) > 0 or counts.er_checkpoint_refs(preg) > 0:
            return
        self._release_preg(cls, preg)
        self.stats.er_early_frees += 1

    def _after_unref(self, cls: RegClass, preg: int) -> None:
        """A reference dropped: an inlined or dead register may now free."""
        rf = self.rf[cls]
        if rf.state[preg] == RegState.FREE:
            return
        if rf.inline_pending[preg]:
            self._try_pri_free(cls, preg)
        elif self.cfg.early_release:
            self._maybe_free_er(cls, preg)

    def _release_preg(self, cls: RegClass, preg: int) -> None:
        name = _CLASS_NAMES[cls]
        freed = self.rf[cls].release(preg, self.now, self.stats.lifetimes[name])
        if not freed:
            self.stats.duplicate_deallocs += 1
        elif self._vp:
            # A register became available: re-wake the *oldest* blocked
            # instruction of this class.  Waking anything younger can
            # lose the wake — the reserve rule would deny it and nothing
            # would ever re-wake the oldest.
            waiters = self._preg_waiters[cls]
            best = None
            for cand in waiters:
                if cand.squashed or cand.issued or not cand.in_scheduler:
                    continue
                if best is None or cand.seq < best.seq:
                    best = cand
            if best is not None:
                waiters.remove(best)
                self.sched.push_ready(best)

    # ============================================================ commit

    def _commit(self) -> None:
        rob = self.rob
        if not rob:
            return
        budget = self._width
        now = self.now
        retire_offset = self._retire_offset
        oracle = self.oracle
        vp = self._vp
        recycle_recs = not vp and not self._ideal_war
        popleft = rob.popleft
        pool = self._pool
        rec_pool = self._rec_pool
        committed = 0
        while budget and rob:
            head = rob[0]
            if not head.completed or now < head.complete_cycle + retire_offset:
                break
            popleft()
            head.committed = True
            op = head.op
            if oracle is not None:
                oracle.on_commit(self, head)
            if op.is_mem:
                self.lsq.remove(head)
                if op.is_store:
                    addr = op.mem_addr
                    self.memory.dl1.access_latency(addr)
                    if oracle is not None:
                        oracle.on_store_commit(self, head, addr)
            if op.is_branch:
                self.stats.branches += 1
                # ER's unmap condition is commit-scoped: the shadow-copy
                # references fall away only now (see rename/checkpoints).
                self.ckpts.commit_retire(head.checkpoint, self._after_unref)
            if head.prev_vid >= 0:
                cls = op.dest_class
                v = self._vregs.pop(head.prev_vid - _VID_FLAG, None)
                if (v is not None and v.preg >= 0
                        and self.rf[cls].gen_matches(v.preg, v.preg_gen)):
                    self._release_preg(cls, v.preg)
            elif head.prev_preg >= 0:
                cls = op.dest_class
                if self.rf[cls].gen_matches(head.prev_preg, head.prev_gen):
                    self._release_preg(cls, head.prev_preg)
            committed += 1
            budget -= 1
            # Recycle the InFlight object.  Safe once every source record
            # is read: any reference that outlives commit (a scheduler
            # waiter, a wheel event, an ideal-policy payload record) is
            # neutralized by its token or read_done check, and the
            # monotonic tokens survive reinit.  Virtual-physical mode is
            # excluded: stale entries linger in the preg-waiter queues.
            # Payload records recycle too — except under the ideal WAR
            # policy, whose associative payload index may still reference
            # them (it discriminates by read_done, which a recycled
            # record resets).
            if not vp and all(rec.read_done for rec in head.sources):
                if recycle_recs:
                    rec_pool.extend(head.sources)
                pool.append(head)
        if committed:
            self.stats.committed += committed
            self._last_commit_cycle = now

    # ========================================================== recovery

    def _recover(self, branch: InFlight) -> None:
        """Branch misprediction: squash younger, restore rename state,
        redirect fetch."""
        while self.rob and self.rob[-1].seq > branch.seq:
            self._squash(self.rob.pop())
        self._fetch_buffer.clear()
        self.ckpts.recover(branch.checkpoint, self._after_unref)
        self.branch_unit.ras.restore(branch.checkpoint.ras)
        self.branch_unit.history = branch.checkpoint.history
        self._fetch_idx = branch.trace_idx + 1
        self._fetch_stall_until = max(
            self._fetch_stall_until, self.now + self.cfg.mispredict_redirect
        )

    def _squash(self, instr: InFlight) -> None:
        instr.squashed = True
        self.stats.squashed += 1
        self.sched.release_entry(instr)
        if instr.checkpoint is not None:
            # Covers branches that resolved (stack-released) but still
            # hold commit-scoped ER references; idempotent otherwise.
            self.ckpts.discard(instr.checkpoint, self._after_unref)
        for rec in instr.sources:
            if rec.counted:
                rec.counted = False
                self.refcounts[rec.reg_class].drop_consumer(rec.preg)
                self._after_unref(rec.reg_class, rec.preg)
        if instr.dest_vid >= 0:
            cls = instr.op.dest_class
            v = self._vregs.pop(instr.dest_vid - _VID_FLAG, None)
            if (v is not None and v.preg >= 0
                    and self.rf[cls].gen_matches(v.preg, v.preg_gen)):
                self._release_preg(cls, v.preg)
        elif instr.dest_preg >= 0:
            cls = instr.op.dest_class
            rf = self.rf[cls]
            if rf.gen_matches(instr.dest_preg, instr.dest_gen):
                self._release_preg(cls, instr.dest_preg)
        if (instr.op.is_load or instr.op.is_store) and not instr.committed:
            self.lsq.remove(instr)

    # ========================================================== finalize

    def _finalize(self) -> None:
        stats = self.stats
        stats.cycles = self.now
        stats.branch_mispredict_rate = self.branch_unit.mispredict_rate
        stats.il1_miss_rate = self.memory.il1.miss_rate
        stats.dl1_miss_rate = self.memory.dl1.miss_rate
        stats.l2_miss_rate = self.memory.l2.miss_rate
        if self.auditor is not None and self.cfg.audit.final:
            self.auditor.check(self, final=True)
        if self.oracle is not None and self.cfg.oracle.final:
            self.oracle.check_arch(self, final=True)

    # ================================================ capacity extension

    def _extend_capacity(self, int_regs: int, fp_regs: int) -> None:
        """Grow both register files mid-run (vector backend only).

        Valid exactly when neither free list has ever emptied at the old
        capacities *or* the call happens at the first empty-free-list
        stall: under the ``ordered`` allocation policy the extended
        machine's state is then bit-identical to a machine built at the
        larger capacities from the start (see :mod:`repro.vector.engine`
        for the argument).  Not supported in virtual-physical mode.
        """
        from dataclasses import replace

        if self._vp:
            raise SimulationError(
                "capacity extension is undefined in virtual-physical mode"
            )
        self.rf[RegClass.INT].extend(int_regs)
        self.rf[RegClass.FP].extend(fp_regs)
        self.refcounts[RegClass.INT].extend(int_regs)
        self.refcounts[RegClass.FP].extend(fp_regs)
        if self._ideal_war:
            for cls, rf in self.rf.items():
                records = self._consumer_records[cls]
                records.extend([] for _ in range(rf.num_regs - len(records)))
        self.cfg = replace(self.cfg, int_phys_regs=int_regs,
                           fp_phys_regs=fp_regs)

    # ====================================================== debug helpers

    def assert_invariants(self) -> None:
        """Cross-structure consistency checks (used by tests)."""
        for rf in self.rf.values():
            rf.assert_consistent()
        self.sched.drain_check()


def simulate(
    config: MachineConfig,
    trace: Trace,
    max_insts: Optional[int] = None,
    max_cycles: Optional[int] = None,
) -> SimStats:
    """One-shot convenience: build a machine, run a trace, return stats."""
    return Machine(config).run(trace, max_insts=max_insts, max_cycles=max_cycles)
