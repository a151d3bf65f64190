"""Farm fault injection: prove the lease protocol survives real failure.

The third injection registry, completing the family: where
:mod:`repro.audit.inject` corrupts in-memory bookkeeping and
:mod:`repro.store.inject` corrupts bytes on disk, this one breaks the
*distributed* layer — it kills, stalls, orphans, evicts, and
double-leases workers at deterministic points so the chaos suite can
assert the farm's contract: exactly-once cell completion, zero lost
work, and resume-from-checkpoint (never restart-from-cycle-0) after any
reclaim.

Each :class:`FarmFault` fires from inside a worker's per-cycle hook when
its :class:`InjectPlan` matches (worker index, cell index within that
worker's lifetime, simulation cycle) — keyed to the deterministic
simulation clock, never to wall time, so a red chaos run is a real
finding, not flake.

The **network** faults (:class:`NetPlan`, ``net-*``) break the wire
instead of the process: they drop, delay, disconnect, duplicate, and
stale-replay individual RPCs on the HTTP lease transport, keyed to the
client's deterministic RPC *sequence number* — the distributed-clock
analogue of the simulation cycle.  They exercise the other half of the
farm's contract: idempotent request ids, fencing tokens, and the shared
retry policy must together keep folded results bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple


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
    must checkpoint and release within the grace budget."""
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
                  "broker reaps the worker; cell reclaimed and resumed "
                  "from its latest checkpoint", _kill),
        FarmFault("evict", "SIGTERM the worker (spot eviction)",
                  "worker checkpoints and releases within the grace "
                  "budget; cell resumes elsewhere", _evict),
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


# ======================================================== network faults


@dataclass(frozen=True)
class NetPlan:
    """One scheduled *wire* fault on the HTTP lease transport.

    Fires when the target worker's RPC sequence counter reaches ``seq``
    (its ``op``-specific counter when ``op`` is set, the client-global
    one otherwise), for ``count`` consecutive wire attempts.  Sequence
    numbers advance per wire *attempt* — a retry of a dropped request is
    a new number — so a plan's window is deterministic for a given
    request pattern, never a function of wall time.
    """

    #: Registry name: net-drop | net-delay | net-disconnect |
    #: net-duplicate | net-stale.
    fault: str
    #: Index of the spawned worker whose transport the plan binds to.
    worker: int = 0
    #: RPC operation to count ("" = every operation, global counter).
    op: str = ""
    #: First matching sequence number (0-based) the fault fires at.
    seq: int = 0
    #: How many consecutive matching wire attempts are affected.
    count: int = 1
    #: Added latency in seconds (``net-delay`` only).
    delay: float = 0.05

    def to_dict(self) -> Dict:
        return {"fault": self.fault, "worker": self.worker, "op": self.op,
                "seq": self.seq, "count": self.count, "delay": self.delay}

    @classmethod
    def from_dict(cls, data: Dict) -> "NetPlan":
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "NetPlan":
        """Parse ``net-fault[:worker=N][:op=NAME][:seq=N][:count=N]
        [:delay=F]``."""
        parts = text.split(":")
        plan: Dict = {"fault": parts[0]}
        for part in parts[1:]:
            name, _, value = part.partition("=")
            if not value or name not in ("worker", "op", "seq", "count",
                                         "delay"):
                raise ValueError(f"bad inject spec {text!r}")
            if name == "op":
                plan[name] = value
            elif name == "delay":
                plan[name] = float(value)
            else:
                plan[name] = int(value)
        if plan["fault"] not in NET_FAULTS:
            raise ValueError(
                f"unknown network fault {plan['fault']!r} "
                f"(known: {', '.join(sorted(NET_FAULTS))})"
            )
        return cls(**plan)


@dataclass
class NetworkChaos:
    """Per-client wire-fault state, consulted by the HTTP transport on
    every wire attempt.  Purely counter-driven: the same request
    pattern always meets the same faults."""

    plans: Sequence[NetPlan] = ()
    seq: int = 0
    op_seq: Dict[str, int] = field(default_factory=dict)

    def intercept(self, op: str) -> Optional[NetPlan]:
        """Advance the sequence counters for one wire attempt of ``op``
        and return the first matching plan (or None)."""
        global_n = self.seq
        self.seq += 1
        op_n = self.op_seq.get(op, 0)
        self.op_seq[op] = op_n + 1
        for plan in self.plans:
            if plan.op and plan.op != op:
                continue
            n = op_n if plan.op else global_n
            if plan.seq <= n < plan.seq + plan.count:
                return plan
        return None


NET_FAULTS: Dict[str, FarmFault] = {
    f.name: f
    for f in (
        FarmFault("net-drop", "the request never reaches the service",
                  "retried under the shared retry policy; the "
                  "idempotent request id makes the retry safe", None),
        FarmFault("net-delay", "the round-trip is slowed by `delay` "
                  "seconds", "the per-RPC timeout bounds the wait; the "
                  "sweep's folded stats are unchanged", None),
        FarmFault("net-disconnect", "the request executes server-side "
                  "but the connection dies before the response",
                  "the retry replays the same request id and is "
                  "answered from the server's response cache — "
                  "exactly-once, no double-claim, no double-fold", None),
        FarmFault("net-duplicate", "the request is transmitted twice",
                  "the second transmission is deduplicated by request "
                  "id server-side", None),
        FarmFault("net-stale", "a previous response for this operation "
                  "is replayed (misbehaving proxy)", "the client "
                  "detects the request-id mismatch and retries", None),
    )
}


# ============================================================ plan wiring


def parse_plan(text: str):
    """Parse one CLI fault spec into the right plan class (process
    faults vs ``net-*`` wire faults)."""
    if text.partition(":")[0].startswith("net-"):
        return NetPlan.parse(text)
    return InjectPlan.parse(text)


def normalize_plans(inject) -> Tuple[object, ...]:
    """Coerce a mixed sequence of plan objects / CLI strings / dicts
    into plan instances (both process and network kinds)."""
    plans = []
    for entry in inject or ():
        if isinstance(entry, (InjectPlan, NetPlan)):
            plans.append(entry)
        elif isinstance(entry, str):
            plans.append(parse_plan(entry))
        elif isinstance(entry, dict):
            if str(entry.get("fault", "")).startswith("net-"):
                plans.append(NetPlan.from_dict(entry))
            else:
                plans.append(InjectPlan.from_dict(entry))
        else:
            raise TypeError(f"bad inject entry {entry!r}")
    return tuple(plans)


def plans_for_worker(
    plans: Sequence, worker_index: int
) -> Tuple[InjectPlan, ...]:
    return tuple(p for p in plans
                 if isinstance(p, InjectPlan) and p.worker == worker_index)


def net_plans_for_worker(
    plans: Sequence, worker_index: int
) -> Tuple[NetPlan, ...]:
    return tuple(p for p in plans
                 if isinstance(p, NetPlan) and p.worker == worker_index)


def chaos_for_worker(
    plans: Sequence, worker_index: Optional[int]
) -> WorkerChaos:
    if worker_index is None:
        return WorkerChaos(())
    return WorkerChaos(plans_for_worker(plans, worker_index))
