"""Lockstep column engine: one machine per coherence group, forked on
divergence.

Why this shape and not per-stage NumPy ufuncs over (lane, entry) arrays:
the scalar cycle loop costs ~14µs/cycle after the PR-5 optimizations,
and a faithful SoA translation needs hundreds of masked array ops per
cycle at ~1µs of ufunc dispatch each — in CPython that *loses* to the
scalar loop until lane counts far beyond a sweep column.  What actually
makes a sweep column batchable is redundancy, not data parallelism: a
Figure-9 capacity sweep simulates the *same* instruction stream on
machines that are provably bit-identical until the first
register-exhaustion stall.  So the engine shares that common prefix
outright and pays per-lane cost only after real divergence:

* Each coherence group (see :mod:`repro.vector.column`) runs ONE scalar
  machine at the chain's minimum capacity.
* The machine's rename stage carries a *pressure hook*: at the exact
  instant the free list comes up empty — before the stall is even
  counted — the engine deep-copies the machine, extends the copy's
  register files to the next chain capacity, and lets the copy finish
  the cycle with the rename budget the donor had left.  Under the
  ordered free-list policy the extended copy's state is bit-identical
  to a machine built at the larger capacity from the start (the extra
  registers are numerically above every member of the shared free set,
  so lowest-first allocation cannot have touched them).
* The donor keeps only the lanes at its own capacity and stalls,
  exactly as the scalar machine would; the copy carries the rest of the
  chain and may fork again.  Lanes that diverge in control flow beyond
  capacity (different trace, different scheme) were never grouped.

The per-cycle drive below replicates ``Machine._run_loop`` order
exactly — events, occupancy sample, commit, select, rename, fetch,
hooks, auditor/oracle, deadlock watchdog — with occupancy flushed
straight into the stats object so a mid-cycle deep copy never loses
loop-local accumulation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.machine import NEVER, Machine, SimulationError
from repro.core.stats import SimStats
from repro.isa.opcodes import RegClass
from repro.vector.column import ColumnGroup, Lane, plan_groups

#: Lane states in the engine's bookkeeping table.
_LANE_RUNNING, _LANE_OK, _LANE_ERROR = 0, 1, 2


@dataclass
class LaneResult:
    """Outcome of one lane: stats, or the scalar-identical error."""

    key: str
    stats: Optional[SimStats] = None
    #: Deterministic simulation failure (deadlock, oracle divergence,
    #: watchdog) — exactly what the scalar backend raises for this lane.
    error: Optional[SimulationError] = None
    #: Coherence group this lane rode in (column-local index).
    group: int = -1
    #: Cycle its machine forked off the group trunk (0 = never forked).
    forked_at: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ColumnOutcome:
    """Everything one batched column run produced."""

    results: Dict[str, LaneResult]
    #: Coherence groups planned (== machines built before any fork).
    groups: int = 0
    #: Capacity forks taken (extra machines split off mid-run).
    forks: int = 0
    #: Total cycles actually simulated across all machines — the honest
    #: cost of the batch (compare against the sum of per-lane cycles a
    #: scalar sweep would pay).
    cycles_simulated: int = 0

    @property
    def lanes(self) -> int:
        return len(self.results)


@dataclass
class _GroupRun:
    """One live machine and the contiguous chain span it still carries."""

    machine: Machine
    caps: List[Tuple[int, int]]
    lanes: List[List[Lane]]
    lo: int
    hi: int
    group: int
    forked_at: int = 0
    start_cycle: int = 0


class ColumnEngine:
    """Drives one column (a set of lanes) to per-lane SimStats."""

    def __init__(
        self,
        *,
        max_cycles: Optional[int] = None,
        cycle_hook: Optional[Callable[[Machine], None]] = None,
    ) -> None:
        self.max_cycles = max_cycles
        self.cycle_hook = cycle_hook
        self.forks = 0
        self.groups = 0
        self.cycles_simulated = 0
        self._results: Dict[str, LaneResult] = {}
        self._pending: List[_GroupRun] = []
        #: (lane index -> state code) NumPy table; the engine's control
        #: plane for progress accounting and the final all-lanes check.
        self._lane_state = np.zeros(0, dtype=np.int8)
        self._lane_index: Dict[str, int] = {}

    # ------------------------------------------------------------- public

    def run(self, lanes: Sequence[Lane]) -> ColumnOutcome:
        keys = [lane.key for lane in lanes]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate lane keys in column")
        self._lane_state = np.full(len(lanes), _LANE_RUNNING, dtype=np.int8)
        self._lane_index = {key: i for i, key in enumerate(keys)}

        groups = plan_groups(lanes)
        self.groups = len(groups)
        for index, group in enumerate(groups):
            self._run_group(group, index)

        if bool(np.any(self._lane_state == _LANE_RUNNING)):
            missing = [k for k, i in self._lane_index.items()
                       if self._lane_state[i] == _LANE_RUNNING]
            raise AssertionError(f"column finished with unfinished lanes: {missing}")
        return ColumnOutcome(
            results=self._results, groups=self.groups, forks=self.forks,
            cycles_simulated=self.cycles_simulated,
        )

    # ------------------------------------------------------------- groups

    def _run_group(self, group: ColumnGroup, index: int) -> None:
        machine = self._build(group.base_config, group.trace)
        root = _GroupRun(
            machine=machine, caps=group.caps, lanes=group.lanes,
            lo=0, hi=len(group.caps) - 1, group=index,
        )
        self._arm(root)
        self._pending.append(root)
        while self._pending:
            run = self._pending.pop()
            try:
                self._drive(run)
            except SimulationError as err:
                self._record(run, error=err)
                continue
            self._record(run)

    def _build(self, config, trace) -> Machine:
        # Mirrors Machine.run() up to (not including) the cycle loop.
        machine = Machine(config)
        machine.reset(trace)
        machine._committed_target = len(trace)
        machine._cycle_limit = (
            self.max_cycles if self.max_cycles is not None else NEVER
        )
        return machine

    def _arm(self, run: _GroupRun) -> None:
        run.machine._vector_run = run
        run.machine._pressure_hook = self._on_pressure

    # -------------------------------------------------------- cycle drive

    def _drive(self, run: _GroupRun) -> None:
        """Advance one machine to completion — ``Machine._run_loop`` with
        occupancy flushed directly (fork-safe) and the engine's hook in
        the scalar loop's hook slot."""
        m = run.machine
        target = m._committed_target
        if target == 0:
            # Scalar run() returns the fresh stats without entering the
            # loop (and without finalize); match it.
            return
        stats = m.stats
        limit = m._cycle_limit
        occupancy = stats.occupancy_sum
        rf_int = m.rf[RegClass.INT]
        rf_fp = m.rf[RegClass.FP]
        process_events = m._process_events
        commit = m._commit
        select = m._select
        rename = m._rename
        fetch = m._fetch
        start = m.now
        try:
            while stats.committed < target:
                if m.now >= limit:
                    break
                m.now += 1
                process_events()
                occupancy["int"] += rf_int.allocated_count
                occupancy["fp"] += rf_fp.allocated_count
                commit()
                select()
                rename()  # a fork inside lands on self._pending
                fetch()
                self._end_cycle(m)
        finally:
            self.cycles_simulated += m.now - start
        m._finalize()

    def _end_cycle(self, m: Machine) -> None:
        # Scalar order: cycle hooks, auditor, oracle, deadlock watchdog.
        hook = self.cycle_hook
        if hook is not None:
            hook(m)
        for extra in tuple(m._cycle_hooks):
            extra(m)
        if m.auditor is not None:
            m.auditor.maybe_check(m)
        if m.oracle is not None:
            m.oracle.maybe_check(m)
        deadlock_after = m.cfg.deadlock_cycles
        if m.now - m._last_commit_cycle > deadlock_after:
            head = repr(m.rob[0]) if m.rob else "rob empty"
            raise SimulationError(
                f"deadlock: no commit since cycle {m._last_commit_cycle} "
                f"(now {m.now}, watchdog {deadlock_after} cycles, "
                f"{m.stats.committed}/{m._committed_target} committed, {head})"
            )

    # --------------------------------------------------------------- fork

    def _on_pressure(self, m: Machine, dest_cls, budget_left: int) -> None:
        """Rename found ``dest_cls``'s free list empty.  If this machine
        still carries larger-capacity lanes, split them off *now* —
        before the donor even counts the stall."""
        run: _GroupRun = m._vector_run
        if run.lo >= run.hi:
            return  # only this capacity left: stall like the scalar machine
        clone = self._fork(run)
        self.forks += 1
        cm = clone.machine
        try:
            # Finish the clone's current cycle: it renames the very
            # instruction the donor stalled on (its free list is not
            # empty), with the budget the donor had left, then runs the
            # rest of the cycle the donor had not reached yet.
            cm._rename(budget_left)
            cm._fetch()
            self._end_cycle(cm)
        except SimulationError as err:
            self._record(clone, error=err)
            return
        self._pending.append(clone)

    def _fork(self, run: _GroupRun) -> _GroupRun:
        m = run.machine
        # Strip engine-owned references so the deep copy is pure machine
        # state; restore after.
        m._pressure_hook = None
        m._vector_run = None
        cycle_hooks = m._cycle_hooks
        m._cycle_hooks = []
        # The trace (and its ops) are immutable and shared by every
        # machine; seeding the memo keeps the copy O(machine state).
        memo = {
            id(m.trace): m.trace,
            id(m._trace_ops): m._trace_ops,
            id(m.cfg): m.cfg,
        }
        for op in m._trace_ops:
            memo[id(op)] = op
        try:
            cm = copy.deepcopy(m, memo)
        finally:
            m._pressure_hook = self._on_pressure
            m._vector_run = run
            m._cycle_hooks = cycle_hooks
        cm._cycle_hooks = []

        next_lo = run.lo + 1
        int_regs, fp_regs = run.caps[next_lo]
        cm._extend_capacity(int_regs, fp_regs)

        clone = _GroupRun(
            machine=cm, caps=run.caps, lanes=run.lanes,
            lo=next_lo, hi=run.hi, group=run.group,
            forked_at=m.now, start_cycle=m.now,
        )
        run.hi = run.lo  # the donor keeps only its own capacity
        self._arm(clone)
        return clone

    # ------------------------------------------------------------ results

    def _record(self, run: _GroupRun, error: Optional[SimulationError] = None) -> None:
        payload = None if error is not None else run.machine.stats.to_dict()
        for idx in range(run.lo, run.hi + 1):
            for lane in run.lanes[idx]:
                result = LaneResult(
                    key=lane.key, group=run.group, forked_at=run.forked_at,
                )
                if error is not None:
                    result.error = error
                    state = _LANE_ERROR
                else:
                    result.stats = SimStats.from_dict(payload)
                    state = _LANE_OK
                self._results[lane.key] = result
                self._lane_state[self._lane_index[lane.key]] = state


def run_column(
    lanes: Sequence[Lane],
    *,
    max_cycles: Optional[int] = None,
    cycle_hook: Optional[Callable[[Machine], None]] = None,
) -> ColumnOutcome:
    """Simulate a column of lanes in one batch; per-lane results are
    bit-identical to scalar runs of the same (config, trace) pairs."""
    engine = ColumnEngine(max_cycles=max_cycles, cycle_hook=cycle_hook)
    return engine.run(lanes)
