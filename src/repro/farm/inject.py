"""Farm fault injection: prove the lease protocol survives real failure.

The third injection registry, completing the family: where
:mod:`repro.audit.inject` corrupts in-memory bookkeeping and
:mod:`repro.store.inject` corrupts bytes on disk, this one breaks the
*distributed* layer — it kills, stalls, orphans, evicts, and
double-leases workers at deterministic points so the chaos suite can
assert the farm's contract: exactly-once cell completion, no lost
cells, and results bit-identical to a fault-free run after any
reclaim (a reclaimed cell reruns from cycle 0).

Each :class:`FarmFault` fires from inside a worker's per-cycle hook when
its :class:`InjectPlan` matches (worker index, cell index within that
worker's lifetime, simulation cycle) — keyed to the deterministic
simulation clock, never to wall time, so a red chaos run is a real
finding, not flake.  The hook is attached only to the cells a plan is
armed for (:meth:`WorkerChaos.armed`); every other cell runs unhooked.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple


@dataclass(frozen=True)
class InjectPlan:
    """One scheduled fault: *which* worker, *when*, *what*."""

    #: Registry name: kill | stall | orphan | double-lease | evict.
    fault: str
    #: Index of the spawned worker the plan binds to (workers respawned
    #: after a fault get fresh indices, so a plan fires at most once).
    worker: int = 0
    #: The n-th cell this worker runs (0-based) the fault applies to.
    cell_index: int = 0
    #: Simulation cycle (within that cell) at which the fault fires.
    after_cycles: int = 500

    def to_dict(self) -> Dict:
        return {"fault": self.fault, "worker": self.worker,
                "cell_index": self.cell_index,
                "after_cycles": self.after_cycles}

    @classmethod
    def from_dict(cls, data: Dict) -> "InjectPlan":
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "InjectPlan":
        """Parse the CLI form ``fault[:worker=N][:cell=N][:cycles=N]``."""
        parts = text.split(":")
        plan = {"fault": parts[0]}
        keys = {"worker": "worker", "cell": "cell_index",
                "cycles": "after_cycles"}
        for part in parts[1:]:
            name, _, value = part.partition("=")
            if name not in keys or not value:
                raise ValueError(f"bad inject spec {text!r}")
            plan[keys[name]] = int(value)
        if plan["fault"] not in FAULTS:
            raise ValueError(
                f"unknown fault {plan['fault']!r} "
                f"(known: {', '.join(sorted(FAULTS))})"
            )
        return cls(**plan)


@dataclass
class WorkerChaos:
    """Per-worker fault state, consulted from the cell's cycle hook."""

    plans: Sequence[InjectPlan] = ()
    cell_index: int = 0
    fired: set = field(default_factory=set)
    #: Set by the ``stall`` fault: heartbeats stop, simulation continues.
    stalled: bool = False
    #: Wall-clock drag per hook check while stalled — a wedged host is
    #: slow at *everything*, which is also what guarantees the lease
    #: outlives its TTL so the reclaim-and-deduplicate path is exercised.
    stall_delay: float = 0.1
    #: Set by the ``double-lease`` fault: the worker must shed its lease
    #: (the drop itself is done by the worker, which owns the lease).
    drop_lease: bool = False

    def armed(self) -> bool:
        """Whether a plan not yet fired targets the current cell."""
        return any(index not in self.fired
                   and plan.cell_index == self.cell_index
                   for index, plan in enumerate(self.plans))

    def check(self, machine) -> None:
        """Fire any plan whose (cell, cycle) point has been reached."""
        for index, plan in enumerate(self.plans):
            if index in self.fired:
                continue
            if plan.cell_index != self.cell_index:
                continue
            if machine.now < plan.after_cycles:
                continue
            self.fired.add(index)
            FAULTS[plan.fault].apply(self)


@dataclass(frozen=True)
class FarmFault:
    """One injectable distributed failure."""

    name: str
    description: str
    #: What the chaos suite must observe the farm do about it.
    expect: str
    apply: Callable[[WorkerChaos], None]


def _kill(chaos: WorkerChaos) -> None:
    """SIGKILL mid-cell: no cleanup, no release — the hard crash an OOM
    killer or a pulled plug produces."""
    os.kill(os.getpid(), signal.SIGKILL)


def _evict(chaos: WorkerChaos) -> None:
    """Spot-instance eviction notice: SIGTERM self; the worker's handler
    must drop the cell and release its lease within the grace
    budget."""
    os.kill(os.getpid(), signal.SIGTERM)


def _orphan(chaos: WorkerChaos) -> None:
    """The worker process exits silently mid-cell, leaving its lease
    behind — a host that vanished without dying loudly."""
    sys.stdout.flush()
    os._exit(3)


def _stall(chaos: WorkerChaos) -> None:
    """Heartbeats stop and the simulation slows to a crawl — a wedged
    I/O path or a GC-of-death.  The broker must reclaim on TTL; the
    stalled worker becomes a zombie whose late result is deduplicated."""
    chaos.stalled = True


def _double_lease(chaos: WorkerChaos) -> None:
    """The worker sheds its lease mid-cell (as if the lease file were
    lost by the shared filesystem) but keeps simulating: another worker
    will claim the same cell, and two results will race.  Exactly-once
    folding must keep one and verify the duplicate is bit-identical."""
    chaos.drop_lease = True


FAULTS: Dict[str, FarmFault] = {
    f.name: f
    for f in (
        FarmFault("kill", "SIGKILL the worker mid-cell (hard crash)",
                  "broker reaps the worker; cell reclaimed and rerun "
                  "from cycle 0", _kill),
        FarmFault("evict", "SIGTERM the worker (spot eviction)",
                  "worker drops the cell and releases its lease within "
                  "the grace budget; cell reruns elsewhere", _evict),
        FarmFault("orphan", "worker exits silently without releasing",
                  "broker reaps the worker; cell reclaimed", _orphan),
        FarmFault("stall", "heartbeats stop, simulation continues",
                  "lease expires; duplicate result deduplicated "
                  "bit-identically", _stall),
        FarmFault("double-lease", "lease lost mid-cell, worker keeps "
                  "running", "two workers complete the same cell; "
                  "exactly one completion is folded", _double_lease),
    )
}


# ============================================================ plan wiring


def normalize_plans(inject) -> Tuple[InjectPlan, ...]:
    """Coerce a mixed sequence of plan objects / CLI strings / dicts
    into :class:`InjectPlan` instances."""
    plans = []
    for entry in inject or ():
        if isinstance(entry, InjectPlan):
            plans.append(entry)
        elif isinstance(entry, str):
            plans.append(InjectPlan.parse(entry))
        elif isinstance(entry, dict):
            plans.append(InjectPlan.from_dict(entry))
        else:
            raise TypeError(f"bad inject entry {entry!r}")
    return tuple(plans)


def chaos_for_worker(
    plans: Sequence[InjectPlan], worker_index: int
) -> WorkerChaos:
    """The fault state of the ``worker_index``-th spawned worker."""
    return WorkerChaos(tuple(p for p in plans if p.worker == worker_index))
