"""Stateless farm workers: lease, heartbeat, simulate, stream back.

A worker owns nothing but its process: every piece of state it needs —
which cells exist, which are claimable, where to resume — lives in the
shared journal directory behind its
:class:`~repro.farm.transport.FsTransport`, so workers can be spawned
by the broker, attached later from another shell (``python -m
repro.farm worker <root>``), or on another host sharing the mount, and
killing one at any instant costs at most the cycles since its cell's
last checkpoint.

**Claim order**: a scan tries the pending cells in
:func:`claim_order` — cells of the traces this worker already holds,
then cells of traces no worker has touched, then the rest — so a
parallel run builds and warms each trace about once, and workers steal
from busy traces only when nothing else is left.  The order is each
worker's own choice over what it lists on disk; the claim itself is
unchanged.

Per cell, the worker:

1. claims the lease (the filesystem arbitrates races: O_EXCL create);
2. simulates with a per-cycle hook that (a) heartbeats the lease every
   ``heartbeat_interval`` seconds, piggybacking live progress,
   (b) checkpoints through :mod:`repro.core.snapshot` every
   ``checkpoint_every`` cycles into the shared checkpoint directory, so
   a reclaimed cell resumes wherever it is claimed next — and (c) fires
   any injected chaos;
3. streams the final :class:`~repro.core.stats.SimStats` (or a
   deterministic error) back as a checksummed envelope;
4. releases the lease — only if it still owns it.

**Spot eviction**: SIGTERM means "you have ``grace`` seconds".  The
handler sets a flag; the cycle hook raises, the worker snapshots the
machine *at that exact cycle*, marks its lease ``released``, and exits
cleanly — whoever reclaims the cell resumes mid-simulation.

**Lost leases**: a worker whose lease vanishes or changes hands (broker
reclaim after a stall, or an injected double-lease) downgrades to a
zombie — it finishes the cell and writes its result, but never touches
the lease again; the broker's exactly-once folding verifies and drops
the duplicate.
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Hashable, List, Mapping, Optional

from repro.farm.inject import WorkerChaos
from repro.farm.lease import CellResult, CellSpec, LeaseLost
from repro.farm.transport import FsTransport


@dataclass
class WorkerOptions:
    """Everything a worker needs besides the farm root."""

    lease_ttl: float = 30.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.2
    #: Override the RunSpec's checkpoint cadence (None keeps it).
    checkpoint_every: Optional[int] = 2000
    #: Exit after the first completed cell (used by tests).
    oneshot: bool = False
    #: fsync claims and results (see
    #: :attr:`~repro.farm.lease.FarmSpec.durable`).
    durable: bool = True


class Evicted(Exception):
    """Raised from the cycle hook when SIGTERM arrived: carries the
    machine so the worker can checkpoint it at that exact cycle."""

    def __init__(self, machine) -> None:
        super().__init__("worker evicted")
        self.machine = machine


class _EvictFlag:
    """SIGTERM latch.  A module-level handler would be racy under
    multiprocessing fork; each worker installs its own instance."""

    def __init__(self) -> None:
        self.requested = False

    def install(self) -> None:
        signal.signal(signal.SIGTERM, self._handle)

    def _handle(self, signum, frame) -> None:
        self.requested = True


def _spec_from_dict(data: dict) -> "RunSpec":
    from repro.experiments.runner import RunSpec

    known = {f.name for f in dataclasses.fields(RunSpec)}
    return RunSpec(**{k: v for k, v in data.items() if k in known})


def _execute_cell(
    transport: FsTransport,
    cell: CellSpec,
    lease,
    options: WorkerOptions,
    chaos: WorkerChaos,
    evict: _EvictFlag,
    traces,
    cell_fn: Optional[Callable] = None,
) -> CellResult:
    """Run one leased cell to completion (or deterministic error).

    Raises :class:`Evicted` on SIGTERM — after checkpointing.
    """
    from repro.core.snapshot import save_snapshot, take_snapshot
    from repro.experiments.runner import _simulate_cell, checkpoint_path

    spec = _spec_from_dict(cell.spec)
    if options.checkpoint_every is not None:
        spec = dataclasses.replace(spec, checkpoint_every=options.checkpoint_every)
    spec = dataclasses.replace(spec, checkpoint_dir=transport.checkpoint_dir)
    started = time.monotonic()
    state = {
        "start_cycle": 0, "zombie": False,
        "last_hb": time.monotonic(), "dropped": False,
    }

    if cell_fn is not None:
        # Test hook: an injected cell callable (run_one's signature)
        # replaces the checkpointed path wholesale; heartbeats pause for
        # the duration, so keep injected cells shorter than the TTL.
        stats = cell_fn(cell.benchmark, cell.scheme, cell.width, spec, None)
        return CellResult(
            cid=cell.cid, key=cell.key, worker=lease.worker,
            attempt=cell.attempt, status="ok", stats=stats.to_dict(),
            start_cycle=0, elapsed=time.monotonic() - started,
        )

    ckpt = checkpoint_path(cell.benchmark, cell.scheme, cell.width, spec)

    def on_resume(cycle: int) -> None:
        state["start_cycle"] = cycle

    def cycle_hook(m) -> None:
        if evict.requested:
            # Snapshot *now*, at a consistent end-of-cycle boundary —
            # the whole point of the grace budget.
            save_snapshot(take_snapshot(m), ckpt)
            raise Evicted(m)
        if m.now & 31:
            return
        chaos.check(m)
        if chaos.drop_lease and not state["dropped"]:
            state["dropped"] = True
            transport.release(lease)
            state["zombie"] = True
        if chaos.stalled:
            time.sleep(chaos.stall_delay)
            return
        if state["zombie"]:
            return
        now = time.monotonic()
        if now - state["last_hb"] >= options.heartbeat_interval:
            state["last_hb"] = now
            try:
                transport.heartbeat(lease, cycle=m.now,
                                    committed=m.stats.committed)
            except LeaseLost:
                state["zombie"] = True

    stats = _simulate_cell(
        cell.benchmark, cell.scheme, cell.width, spec, traces,
        cycle_hook=cycle_hook, on_resume=on_resume,
    )
    return CellResult(
        cid=cell.cid, key=cell.key, worker=lease.worker,
        attempt=cell.attempt, status="ok", stats=stats.to_dict(),
        start_cycle=state["start_cycle"],
        elapsed=time.monotonic() - started,
    )


def claim_order(
    pending: List[str],
    groups: Mapping[str, Hashable],
    held: Collection[Hashable],
    leased: Collection[str],
    done: Collection[str],
) -> List[str]:
    """The order a worker tries to claim ``pending`` cells in.

    ``groups`` maps a cid to its trace group (the cell's
    :meth:`~repro.experiments.runner.TraceCache.key`; a cid missing from
    it has an unknown group), ``held`` is the groups whose traces this
    worker has cached, and ``leased`` and ``done`` are the cids with a
    lease file and with a result.  First come (a) cells of held groups,
    then (b) cells of groups with no leased and no done cell, then (c)
    every other cell.  Cells with a lease file are left out: none is
    claimable.  Every other pending cell is in the order, so a worker
    with nothing of its own steals from a busy group rather than sleep.
    """
    touched = {groups[cid] for cid in (*leased, *done) if cid in groups}
    ranked: List[List[str]] = [[], [], []]
    for cid in pending:
        if cid in leased:
            continue
        group = groups.get(cid)
        if group is not None and group in held:
            ranked[0].append(cid)
        elif group is not None and group not in touched:
            ranked[1].append(cid)
        else:
            ranked[2].append(cid)
    return ranked[0] + ranked[1] + ranked[2]


def worker_loop(
    root: str,
    worker_id: str,
    options: Optional[WorkerOptions] = None,
    chaos: Optional[WorkerChaos] = None,
    cell_fn: Optional[Callable] = None,
) -> int:
    """Scan, claim, simulate, repeat — until every published cell has a
    result, or this worker is evicted (after checkpoint-and-release).
    Returns the exit status, 0.
    """
    from repro.experiments.runner import TraceCache

    options = options or WorkerOptions()
    chaos = chaos or WorkerChaos(())
    transport = FsTransport(root, durable=options.durable)
    evict = _EvictFlag()
    evict.install()
    traces = TraceCache()
    # cid -> trace group.  A cid is a digest of its cell key, which names
    # the trace, so a group once read never changes: each spec is read
    # for it once, not on every scan.
    groups: Dict[str, tuple] = {}
    while True:
        if evict.requested:
            return 0
        cells = transport.list_cells()
        if not cells:
            # Attached before the broker published (or mid-prune): wait
            # for cells to appear rather than declaring victory over an
            # empty directory.  SIGTERM still exits the loop above.
            time.sleep(options.poll_interval)
            continue
        done = transport.done_cids()
        pending = [cid for cid in cells if cid not in done]
        if not pending:
            return 0
        for cid in pending:
            if cid not in groups:
                try:
                    cell = transport.read_cell(cid)
                except Exception:
                    continue  # pruned, mid-rewrite or damaged: group unknown
                groups[cid] = TraceCache.key(cell.benchmark,
                                             _spec_from_dict(cell.spec))
        held = {g for g in set(groups.values()) if traces.holds(g)}
        order = claim_order(pending, groups, held, transport.leased_cids(),
                            done)
        ran_one = raced = False
        now = time.time()
        for cid in order:
            if evict.requested:
                return 0
            try:
                cell = transport.read_cell(cid)
            except KeyError:
                continue  # pruned mid-scan
            except Exception:
                continue  # mid-rewrite or damaged: next poll
            if cell.not_before > now:
                continue
            lease = transport.claim(cell, worker_id, options.lease_ttl)
            if lease is None:
                # Another worker claimed it since the scan listed the
                # leases: rescan at once, so the order sees its group
                # as busy instead of following it there.
                raced = True
                break
            if cid in transport.done_cids():
                # The previous holder finished and released between our
                # scan above and the claim; every completion writes its
                # result *before* releasing, so this re-check (now that
                # we hold the lease) is race-free.
                transport.release(lease)
                continue
            try:
                result = _execute_cell(
                    transport, cell, lease, options, chaos, evict, traces,
                    cell_fn=cell_fn,
                )
            except Evicted:
                # Checkpoint already written by the hook; hand the lease
                # back marked released so the broker reclaims instantly.
                try:
                    transport.heartbeat(lease, state="released")
                except LeaseLost:
                    pass
                return 0
            except Exception as exc:  # deterministic failure: report it
                result = CellResult(
                    cid=cell.cid, key=cell.key, worker=worker_id,
                    attempt=cell.attempt, status="error", kind="error",
                    error_type=type(exc).__name__, message=str(exc),
                )
            transport.write_result(result)
            transport.release(lease)
            chaos.cell_index += 1
            chaos.stalled = False
            chaos.drop_lease = False
            ran_one = True
            if options.oneshot:
                return 0
            break  # rescan: claimability may have changed
        if not ran_one and not raced:
            time.sleep(options.poll_interval)


def _worker_entry(
    root: str,
    worker_id: str,
    options: WorkerOptions,
    chaos: WorkerChaos,
    cell_fn: Optional[Callable] = None,
) -> None:
    """multiprocessing entry point for broker-spawned workers."""
    sys.exit(worker_loop(root, worker_id, options, chaos, cell_fn))
