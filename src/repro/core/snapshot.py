"""Versioned, pickle-free machine checkpointing.

:func:`take_snapshot` flattens one mid-run :class:`~repro.core.machine.Machine`
(and its attached golden-model oracle) into a plain JSON-serializable
dict; :func:`restore_snapshot` installs that image into a freshly
constructed machine built from the *same* :class:`~repro.config.MachineConfig`,
after which :meth:`Machine.resume` continues the run bit-identically —
the resumed run's final :class:`~repro.core.stats.SimStats` equals an
uninterrupted run's.

Serialization strategy (no object graphs, no pickling):

* in-flight instructions are dumped by value and identified by ``seq``;
  their micro-op is *not* serialized — it is recovered as
  ``trace[trace_idx]``, which is why :func:`restore_snapshot` demands the
  identical trace (name, seed, length);
* checkpoints are identified by ``branch_seq``; the manager's stack and
  the ER-pending list store sequence numbers only;
* the scheduler's ready heap and waiter lists, the payload-RAM consumer
  records, and the pending event heap reference instructions by ``seq``.
  Events whose instruction has left the ROB (committed or squashed) are
  dropped at restore — their handlers would have no-opped anyway;
* the LSQ's store-forwarding index is rebuilt from ROB program order
  rather than serialized.

The format carries an explicit schema version (:data:`SNAPSHOT_VERSION`)
plus the machine's config digest and the trace identity; any mismatch
raises :class:`SnapshotError` instead of resuming a subtly different
machine.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, List

from repro.branch.unit import BranchPrediction
from repro.config import config_digest
from repro.core.inflight import InFlight, SourceRecord
from repro.core.stats import SimStats
from repro.isa.opcodes import RegClass
from repro.rename.checkpoints import Checkpoint
from repro.workloads.trace import Trace

#: Schema version.  Bump on any change to the layout below; restore
#: refuses mismatched versions rather than guessing.
#:
#: v2: the event heap became a timer wheel (events carry no counter and
#: are stored in delivery order), _EV_TIMER payloads carry the wait
#: generation token, scheduler waiter entries are [seq, token] pairs, and
#: in-flight instructions serialize ``wait_token``.
#:
#: v3: in-flight instructions no longer carry ``not_before`` and
#: ``store_data_ready``, which nothing read.
SNAPSHOT_VERSION = 3

_CLASSES = ((RegClass.INT, "int"), (RegClass.FP, "fp"))


class SnapshotError(RuntimeError):
    """A snapshot image cannot be taken or restored (version, config, or
    trace mismatch; machine not fresh)."""


# ===================================================================== dump


def _dump_sources(instr: InFlight) -> List[list]:
    return [
        [rec.mode, int(rec.reg_class), rec.preg, rec.gen, rec.value,
         rec.read_done, rec.counted]
        for rec in instr.sources
    ]


def _dump_instr(instr: InFlight) -> Dict:
    pred = instr.prediction
    return {
        "seq": instr.seq,
        "trace_idx": instr.trace_idx,
        "sources": _dump_sources(instr),
        "dest_preg": instr.dest_preg,
        "dest_gen": instr.dest_gen,
        "prev_preg": instr.prev_preg,
        "prev_gen": instr.prev_gen,
        "dest_vid": instr.dest_vid,
        "prev_vid": instr.prev_vid,
        "fetch_cycle": instr.fetch_cycle,
        "rename_cycle": instr.rename_cycle,
        "issue_cycle": instr.issue_cycle,
        "complete_cycle": instr.complete_cycle,
        "missing": instr.missing,
        "in_scheduler": instr.in_scheduler,
        "issued": instr.issued,
        "completed": instr.completed,
        "squashed": instr.squashed,
        "committed": instr.committed,
        "issue_token": instr.issue_token,
        "wait_token": instr.wait_token,
        "replays": instr.replays,
        "prediction": (
            None if pred is None else
            [pred.pred_taken, pred.pred_target, pred.mispredicted,
             pred.history_before]
        ),
        "checkpoint": (
            None if instr.checkpoint is None else instr.checkpoint.branch_seq
        ),
        "mispredicted": instr.mispredicted,
        "mem_latency": instr.mem_latency,
    }


def _dump_checkpoint(ckpt: Checkpoint) -> Dict:
    return {
        "branch_seq": ckpt.branch_seq,
        "snapshots": [
            [int(cls), [[m, v] for m, v in zip(modes, values)]]
            for cls, (modes, values) in ckpt.snapshots.items()
        ],
        "gens": (
            None if ckpt.gens is None else
            [[int(cls), list(gens)] for cls, gens in ckpt.gens.items()]
        ),
        "ras": list(ckpt.ras),
        "history": ckpt.history,
        "resolve_released": ckpt.resolve_released,
        "commit_released": ckpt.commit_released,
    }


def _dump_regfile(rf) -> Dict:
    return {
        "state": [int(s) for s in rf.state],
        "gen": list(rf.gen),
        "value": list(rf.value),
        "lreg": list(rf.lreg),
        "owner_seq": list(rf.owner_seq),
        "ready_select": list(rf.ready_select),
        "pred_ready": list(rf.pred_ready),
        "inline_pending": list(rf.inline_pending),
        "retire_pending": list(rf.retire_pending),
        "alloc_cycle": list(rf.alloc_cycle),
        "write_cycle": list(rf.write_cycle),
        "last_read": list(rf.last_read),
        "allocated_count": rf.allocated_count,
        # Policy-appropriate list form (FIFO order, or the ordered
        # policy's heap array); the config digest guards against
        # restoring across allocation policies.
        "free_queue": rf.free_list.serialize(),
        "duplicate_releases": rf.free_list.duplicate_releases,
    }


# Event kinds (mirrors machine.py; imported lazily there to avoid cycles).
_EV_WAKE = 0
_EV_TIMER = 4


def _dump_events(wheel: Dict[int, list]) -> List[list]:
    """Flatten the timer wheel in delivery order (cycle, bucket order)."""
    out = []
    for cycle in sorted(wheel):
        for kind, payload in wheel[cycle]:
            if kind == _EV_WAKE:
                cls, preg = payload
                encoded = [int(cls), preg]
            else:  # READ / COMPLETE / RETIRE / TIMER: (instr, token)
                instr, token = payload
                encoded = [instr.seq, token]
            out.append([cycle, kind, encoded])
    return out


def take_snapshot(machine) -> Dict:
    """Flatten ``machine`` into a JSON-serializable dict (see module
    docstring for the schema)."""
    if machine.trace is None:
        raise SnapshotError("cannot snapshot a machine that has not started")
    trace = machine.trace

    # Checkpoint universe: the live stack, resolved-but-uncommitted ER
    # holders, and any ROB branch's recovery target — deduped by seq.
    ckpts_by_seq: Dict[int, Checkpoint] = {}
    for ckpt in machine.ckpts._stack:
        ckpts_by_seq[ckpt.branch_seq] = ckpt
    for ckpt in machine.ckpts._er_pending:
        ckpts_by_seq[ckpt.branch_seq] = ckpt
    for instr in machine.rob:
        if instr.checkpoint is not None:
            ckpts_by_seq[instr.checkpoint.branch_seq] = instr.checkpoint

    # Payload-RAM consumer records, referenced as (owner seq, source idx).
    consumer_records = []
    for cls, name in _CLASSES:
        for preg, records in enumerate(machine._consumer_records[cls]):
            if not records:
                continue
            refs = []
            for rec, owner in records:
                try:
                    idx = owner.sources.index(rec)
                except ValueError:
                    continue
                refs.append([owner.seq, idx])
            if refs:
                consumer_records.append([int(cls), preg, refs])

    sched = machine.sched
    waiters = [
        [key[0], key[1], [[instr.seq, token] for instr, token in entries]]
        for key, entries in sched._waiters.items()
        if entries
    ]

    data = {
        "version": SNAPSHOT_VERSION,
        "config_digest": config_digest(machine.cfg),
        "trace": {"name": trace.name, "seed": trace.seed, "length": len(trace)},
        "scalars": {
            "now": machine.now,
            "seq": machine._seq,
            "committed_target": machine._committed_target,
            "last_commit_cycle": machine._last_commit_cycle,
            "cycle_limit": machine._cycle_limit,
            "fetch_idx": machine._fetch_idx,
            "fetch_stall_until": machine._fetch_stall_until,
            "next_vid": machine._next_vid,
        },
        "stats": machine.stats.to_dict(),
        "rf": {name: _dump_regfile(machine.rf[cls]) for cls, name in _CLASSES},
        "maps": {
            name: [[m, v]
                   for m, v in zip(machine.maps[cls].modes,
                                   machine.maps[cls].values)]
            for cls, name in _CLASSES
        },
        "refcounts": {
            name: [list(arr) for arr in machine.refcounts[cls].snapshot()]
            for cls, name in _CLASSES
        },
        "checkpoints": {
            "objects": [_dump_checkpoint(c) for c in ckpts_by_seq.values()],
            "stack": [c.branch_seq for c in machine.ckpts._stack],
            "er_pending": [c.branch_seq for c in machine.ckpts._er_pending],
            "taken": machine.ckpts.taken,
            "patches_applied": machine.ckpts.patches_applied,
        },
        "branch": machine.branch_unit.state(),
        "memory": machine.memory.state(),
        "rob": [_dump_instr(instr) for instr in machine.rob],
        "vregs": [
            [vid, None if v.owner is None else v.owner.seq, int(v.reg_class),
             v.preg, v.preg_gen, v.pred_ready, v.ready_select, v.value,
             v.written]
            for vid, v in machine._vregs.items()
        ],
        "scheduler": {
            "occupancy": sched.occupancy,
            "max_occupancy": sched.max_occupancy,
            "ready": sorted(seq for seq, _ in sched._ready),
            "waiters": waiters,
        },
        "lsq": {"forwards": machine.lsq.forwards},
        "events": _dump_events(machine._events),
        "consumer_records": consumer_records,
        "preg_waiters": {
            name: [instr.seq for instr in machine._preg_waiters[cls]]
            for cls, name in _CLASSES
        },
        "fetch_buffer": [
            [trace_idx, fetch_cycle]
            for _, trace_idx, fetch_cycle in machine._fetch_buffer
        ],
        "auditor": (
            None if machine.auditor is None else {
                "audits_run": machine.auditor.audits_run,
                "last_committed": machine.auditor._last_committed,
            }
        ),
        "oracle": (
            None if machine.oracle is None
            else machine.oracle.golden.snapshot()
        ),
    }
    return data


# ================================================================== restore


def _load_instr(trace: Trace, data: Dict) -> InFlight:
    op = trace[data["trace_idx"]]
    instr = InFlight(op, data["seq"], data["trace_idx"], data["fetch_cycle"])
    instr.sources = [
        SourceRecord(mode, RegClass(cls), preg, gen, value, counted=counted)
        for mode, cls, preg, gen, value, read_done, counted in data["sources"]
    ]
    for rec, dumped in zip(instr.sources, data["sources"]):
        rec.read_done = dumped[5]
    instr.dest_preg = data["dest_preg"]
    instr.dest_gen = data["dest_gen"]
    instr.prev_preg = data["prev_preg"]
    instr.prev_gen = data["prev_gen"]
    instr.dest_vid = data["dest_vid"]
    instr.prev_vid = data["prev_vid"]
    instr.rename_cycle = data["rename_cycle"]
    instr.issue_cycle = data["issue_cycle"]
    instr.complete_cycle = data["complete_cycle"]
    instr.missing = data["missing"]
    instr.in_scheduler = data["in_scheduler"]
    instr.issued = data["issued"]
    instr.completed = data["completed"]
    instr.squashed = data["squashed"]
    instr.committed = data["committed"]
    instr.issue_token = data["issue_token"]
    instr.wait_token = data["wait_token"]
    instr.replays = data["replays"]
    pred = data["prediction"]
    if pred is not None:
        instr.prediction = BranchPrediction(*pred)
    instr.mispredicted = data["mispredicted"]
    instr.mem_latency = data["mem_latency"]
    return instr


def _load_checkpoint(data: Dict) -> Checkpoint:
    snapshots = {}
    for cls, entries in data["snapshots"]:
        modes = [mode for mode, _ in entries]
        values = [value for _, value in entries]
        snapshots[RegClass(cls)] = (modes, values)
    gens = None
    if data["gens"] is not None:
        gens = {RegClass(cls): list(values) for cls, values in data["gens"]}
    ckpt = Checkpoint(
        data["branch_seq"], snapshots, list(data["ras"]), data["history"], gens
    )
    ckpt.resolve_released = data["resolve_released"]
    ckpt.commit_released = data["commit_released"]
    return ckpt


def _load_regfile(rf, data: Dict) -> None:
    if len(data["state"]) != rf.num_regs:
        raise SnapshotError(
            f"{rf.name}: snapshot has {len(data['state'])} registers but the "
            f"machine was built with {rf.num_regs}"
        )
    rf.state = list(data["state"])
    rf.gen = list(data["gen"])
    rf.value = list(data["value"])
    rf.lreg = list(data["lreg"])
    rf.owner_seq = list(data["owner_seq"])
    rf.ready_select = list(data["ready_select"])
    rf.pred_ready = list(data["pred_ready"])
    rf.inline_pending = list(data["inline_pending"])
    rf.retire_pending = list(data["retire_pending"])
    rf.alloc_cycle = list(data["alloc_cycle"])
    rf.write_cycle = list(data["write_cycle"])
    rf.last_read = list(data["last_read"])
    rf.allocated_count = data["allocated_count"]
    rf.free_list.restore(data["free_queue"])
    rf.free_list.duplicate_releases = data["duplicate_releases"]


def restore_snapshot(machine, data: Dict, trace: Trace) -> None:
    """Install ``data`` (from :func:`take_snapshot`) into a freshly built
    ``machine``.  Validates schema version, config digest, and trace
    identity before touching any state."""
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot schema version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    digest = config_digest(machine.cfg)
    if data["config_digest"] != digest:
        raise SnapshotError(
            f"snapshot was taken under config {data['config_digest']} but "
            f"this machine is configured as {digest}: resuming would "
            f"silently simulate a different machine"
        )
    ident = data["trace"]
    if (ident["name"] != trace.name or ident["seed"] != trace.seed
            or ident["length"] != len(trace)):
        raise SnapshotError(
            f"snapshot belongs to trace {ident['name']!r} "
            f"(seed {ident['seed']}, {ident['length']} ops) but got "
            f"{trace.name!r} (seed {trace.seed}, {len(trace)} ops)"
        )
    if machine.trace is not None:
        raise SnapshotError(
            "restore() requires a freshly constructed machine "
            "(this one has already run)"
        )
    machine.trace = trace
    machine._trace_ops = list(trace.ops)

    scalars = data["scalars"]
    machine.now = scalars["now"]
    machine._seq = scalars["seq"]
    machine._committed_target = scalars["committed_target"]
    machine._last_commit_cycle = scalars["last_commit_cycle"]
    machine._cycle_limit = scalars["cycle_limit"]
    machine._fetch_idx = scalars["fetch_idx"]
    machine._fetch_stall_until = scalars["fetch_stall_until"]
    machine._next_vid = scalars["next_vid"]
    machine.stats = SimStats.from_dict(data["stats"])

    for cls, name in _CLASSES:
        _load_regfile(machine.rf[cls], data["rf"][name])
        table = machine.maps[cls]
        entries = data["maps"][name]
        if len(entries) != table.num_logical:
            raise SnapshotError(f"{name} map size mismatch")
        table.modes[:] = [mode for mode, _ in entries]
        table.values[:] = [value for _, value in entries]
        consumer, checkpoint, er_checkpoint = data["refcounts"][name]
        counts = machine.refcounts[cls]
        counts._consumer = list(consumer)
        counts._checkpoint = list(checkpoint)
        counts._er_checkpoint = list(er_checkpoint)

    # Checkpoints first (ROB branches reference them by branch_seq).
    ck_data = data["checkpoints"]
    by_branch = {
        c["branch_seq"]: _load_checkpoint(c) for c in ck_data["objects"]
    }
    if machine.ckpts.track_refs:
        # Pin lists are derived state (the pointer entries of the restored
        # shadow maps, post-patching), not part of the snapshot payload.
        for ckpt in by_branch.values():
            ckpt.pins = {
                cls: ckpt.pointer_entries(cls) for cls in ckpt.snapshots
            }
    machine.ckpts._stack = [by_branch[s] for s in ck_data["stack"]]
    machine.ckpts._er_pending = [by_branch[s] for s in ck_data["er_pending"]]
    machine.ckpts.taken = ck_data["taken"]
    machine.ckpts.patches_applied = ck_data["patches_applied"]

    machine.rob = deque()
    by_seq: Dict[int, InFlight] = {}
    for dumped in data["rob"]:
        instr = _load_instr(trace, dumped)
        if dumped["checkpoint"] is not None:
            instr.checkpoint = by_branch[dumped["checkpoint"]]
        machine.rob.append(instr)
        by_seq[instr.seq] = instr

    machine._vregs = {}
    for vid, owner_seq, cls, preg, preg_gen, pred_ready, ready_select, \
            value, written in data["vregs"]:
        from repro.core.machine import _VReg  # lazy: avoids import cycle

        owner = by_seq.get(owner_seq) if owner_seq is not None else None
        v = _VReg(owner, RegClass(cls))
        v.preg = preg
        v.preg_gen = preg_gen
        v.pred_ready = pred_ready
        v.ready_select = ready_select
        v.value = value
        v.written = written
        machine._vregs[vid] = v

    sched = machine.sched
    sched_data = data["scheduler"]
    sched.occupancy = sched_data["occupancy"]
    sched.max_occupancy = sched_data["max_occupancy"]
    # A sorted list satisfies the heap invariant; entries whose
    # instruction left the ROB would be skipped by pop_ready anyway.
    sched._ready = [
        (seq, by_seq[seq]) for seq in sched_data["ready"] if seq in by_seq
    ]
    sched._waiters = {}
    for cls, preg, entries in sched_data["waiters"]:
        bucket = [
            (by_seq[seq], token) for seq, token in entries if seq in by_seq
        ]
        if bucket:
            sched._waiters[(cls, preg)] = bucket

    # LSQ membership is exactly the ROB's memory ops; rebuild the
    # store-forwarding index in program order.
    lsq = machine.lsq
    lsq.occupancy = 0
    lsq._stores_by_addr = {}
    lsq.forwards = data["lsq"]["forwards"]
    for instr in machine.rob:
        if instr.op.is_load or instr.op.is_store:
            lsq.occupancy += 1
            if instr.op.is_store:
                lsq._stores_by_addr.setdefault(
                    instr.op.mem_addr, []
                ).append(instr)

    # Events are stored in delivery order, so appending rebuilds each
    # wheel bucket with its original insertion order.
    wheel: Dict[int, list] = {}
    for cycle, kind, payload in data["events"]:
        if kind == _EV_WAKE:
            cls, preg = payload
            decoded = (RegClass(cls), preg)
        else:  # READ / COMPLETE / RETIRE / TIMER: [seq, token]
            seq, token = payload
            instr = by_seq.get(seq)
            if instr is None:
                continue  # its handler would no-op (instruction gone)
            decoded = (instr, token)
        wheel.setdefault(cycle, []).append((kind, decoded))
    machine._events = wheel

    for records in machine._consumer_records.values():
        for cell in records:
            cell.clear()
    for cls, preg, refs in data["consumer_records"]:
        cell = machine._consumer_records[RegClass(cls)][preg]
        for seq, idx in refs:
            owner = by_seq.get(seq)
            if owner is not None:
                cell.append((owner.sources[idx], owner))

    for cls, name in _CLASSES:
        machine._preg_waiters[cls] = deque(
            by_seq[s] for s in data["preg_waiters"][name] if s in by_seq
        )

    machine._fetch_buffer = deque(
        (trace[idx], idx, fetch_cycle)
        for idx, fetch_cycle in data["fetch_buffer"]
    )

    # The components own the branch/memory section format (shared with
    # the warm-state memo, see Machine.warmup).
    try:
        machine.branch_unit.load_state(data["branch"])
        machine.memory.load_state(data["memory"])
    except ValueError as err:
        raise SnapshotError(str(err)) from None

    if machine.auditor is not None and data["auditor"] is not None:
        machine.auditor.audits_run = data["auditor"]["audits_run"]
        machine.auditor._last_committed = data["auditor"]["last_committed"]

    if machine.cfg.oracle.enabled:
        from repro.oracle.golden import CommitOracle  # lazy: avoids cycle

        machine.oracle = CommitOracle(machine.cfg.oracle, trace)
        if data["oracle"] is not None:
            machine.oracle.golden.restore(data["oracle"])


# ================================================================= file I/O

#: Artifact kind tag of snapshot files in the store envelope.
SNAPSHOT_KIND = "machine-snapshot"


def save_snapshot(data: Dict, path) -> None:
    """Atomically write a snapshot image to ``path`` inside the store's
    checksummed envelope (:mod:`repro.store`): a crash mid-write leaves
    the previous checkpoint intact, and any later corruption of the file
    is detected at load time instead of resuming a subtly wrong
    machine."""
    from repro.store import write_json_artifact  # lazy: optional machinery

    write_json_artifact(os.fspath(path), SNAPSHOT_KIND, SNAPSHOT_VERSION, data)


def load_snapshot(path) -> Dict:
    """Read a snapshot image written by :func:`save_snapshot`.

    Only the checksummed envelope is read; damage (or an unframed
    file) raises a typed :class:`~repro.store.errors.ArtifactError`
    (the schema-version check itself stays in :func:`restore_snapshot`,
    which also validates config and trace identity)."""
    from repro.store import read_json_artifact  # lazy: optional machinery

    data, _meta = read_json_artifact(os.fspath(path), SNAPSHOT_KIND)
    return data
