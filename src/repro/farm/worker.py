"""Stateless farm workers: lease, heartbeat, simulate, stream back.

A worker owns nothing but its process: every piece of state it needs —
which cells exist and which are claimable — lives in the shared journal
directory, reached only through the worker half of
:mod:`repro.farm.lease`, so workers can be spawned by the broker,
attached later from another shell (``python -m repro.farm worker
<root>``), or on another host sharing the mount, and killing one at
any instant costs at most the cell it was running, which reruns from
cycle 0 wherever it is claimed next (cells take a fraction of a second
at the paper's lengths).  Its liveness budgets (TTL, heartbeat and
poll cadence) and whether it fsyncs are read from the same
:class:`~repro.farm.lease.FarmSpec` the broker holds.

**Claim order**: a scan tries the pending cells in
:func:`claim_order` — cells of the traces this worker already holds,
then cells of traces no worker has touched, then the rest — so a
parallel run builds and warms each trace about once, and workers steal
from busy traces only when nothing else is left.  The order is each
worker's own choice over what it lists on disk; the claim itself is
unchanged.

Per cell, the worker:

1. claims the lease (the filesystem arbitrates races: O_EXCL create);
2. simulates it exactly as a serial run does — no cycle hook, so the
   cycle loop fast-forwards quiet cycles — while a timer thread
   (:class:`_Heartbeat`) renews the lease every ``heartbeat_interval``
   seconds, carrying the machine's live progress;
3. streams the final :class:`~repro.core.stats.SimStats` (or a
   deterministic error) back as a checksummed envelope;
4. releases the lease — only if it still owns it, and under the
   heartbeat's lock, so no heartbeat lands after the release.

**Chaos**: only a cell that a fault of this worker's
:class:`~repro.farm.inject.WorkerChaos` is planned for carries a cycle
hook, which fires the fault at its simulation cycle.

**Spot eviction**: SIGTERM means "you have ``grace`` seconds".  Mid-cell
the handler raises out of the simulation; the worker drops the cell,
marks its lease ``released`` (no crash rerun spent) and exits.
Between cells it just exits.

**Lost leases**: a worker whose lease vanishes or changes hands (broker
reclaim after a stall, or an injected double-lease) downgrades to a
zombie — it finishes the cell and writes its result, but never touches
the lease again; the broker's exactly-once folding verifies and drops
the duplicate.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from typing import Callable, Collection, Dict, Hashable, List, Mapping, Optional

from repro.farm import lease as fsl
from repro.farm.inject import WorkerChaos
from repro.farm.lease import CellResult, CellSpec, FarmSpec, LeaseLost


class _CellDropped(BaseException):
    """Raised out of a running cell by the SIGTERM handler.  A
    ``BaseException``, like ``KeyboardInterrupt``, so that no
    ``except Exception`` on the way up can swallow it."""


class _EvictFlag:
    """SIGTERM latch.  A module-level handler would be racy under
    multiprocessing fork; each worker installs its own instance.  While
    ``in_cell`` is set the handler also raises :class:`_CellDropped`
    out of the running cell: the cell reruns from cycle 0 wherever it
    is claimed next, so nothing of it is worth the grace budget."""

    def __init__(self) -> None:
        self.requested = False
        self.in_cell = False

    def install(self) -> None:
        signal.signal(signal.SIGTERM, self._handle)

    def _handle(self, signum, frame) -> None:
        self.requested = True
        if self.in_cell:
            self.in_cell = False
            raise _CellDropped()


class _Heartbeat:
    """A timer thread that renews one lease every
    ``heartbeat_interval`` seconds while its cell runs, carrying the
    progress of ``machine`` (None until the cell's machine is built).

    The thread writes the lease only under ``lock`` and while ``live``;
    :meth:`release` clears ``live`` under the same lock, so no
    heartbeat lands after a release.  A heartbeat that finds the lease
    gone or foreign stops the thread: the worker is a zombie, which
    finishes its cell but never touches the lease again."""

    def __init__(self, farm: FarmSpec, lease) -> None:
        self.farm = farm
        self.lease = lease
        self.machine = None
        self.live = True
        self.lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.farm.heartbeat_interval):
            with self.lock:
                if not self.live:
                    return
                machine = self.machine
                try:
                    fsl.heartbeat(
                        self.farm.paths, self.lease,
                        cycle=machine.now if machine else 0,
                        committed=machine.stats.committed if machine else 0,
                        durable=self.farm.durable)
                except LeaseLost:
                    self.live = False
                    return

    def silence(self) -> None:
        """Stop heartbeating but keep the lease (the ``stall`` fault)."""
        with self.lock:
            self.live = False

    def release(self, state: Optional[str] = None) -> None:
        """Stop heartbeating and hand the lease back, if this worker
        still owns it: delete it, or with ``state="released"`` mark it
        so the broker reclaims it at once without spending retry
        budget.  Idempotent."""
        with self.lock:
            self.live = False
            self.machine = None
            if state is None:
                fsl.release(self.farm.paths, self.lease)
            else:
                try:
                    fsl.heartbeat(self.farm.paths, self.lease, state=state,
                                  durable=self.farm.durable)
                except LeaseLost:
                    pass
        self._stop.set()
        self._thread.join()


def _spec_from_dict(data: dict) -> "RunSpec":
    from repro.experiments.runner import RunSpec

    known = {f.name for f in dataclasses.fields(RunSpec)}
    return RunSpec(**{k: v for k, v in data.items() if k in known})


def _execute_cell(
    cell: CellSpec,
    beat: _Heartbeat,
    chaos: WorkerChaos,
    evict: _EvictFlag,
    traces,
    cell_fn: Optional[Callable] = None,
) -> CellResult:
    """Run one leased cell to completion (or deterministic error) while
    ``beat`` heartbeats its lease.  SIGTERM raises
    :class:`_CellDropped` out of it."""
    from repro.experiments.runner import _simulate_cell

    spec = _spec_from_dict(cell.spec)
    started = time.monotonic()

    def chaos_hook(m) -> None:
        if m.now & 31:
            return
        chaos.check(m)
        if chaos.drop_lease:
            chaos.drop_lease = False
            beat.release()
        if chaos.stalled:
            beat.silence()
            time.sleep(chaos.stall_delay)

    def on_machine(machine) -> None:
        beat.machine = machine
        if chaos.armed():
            # Only a cell a fault is planned for carries a cycle hook:
            # every other cell keeps the quiet-cycle fast-forward.
            machine.add_cycle_hook(chaos_hook)

    evict.in_cell = True
    try:
        if cell_fn is not None:
            # Test hook: an injected cell callable (run_one's signature)
            # replaces the simulation; the heartbeat thread still runs.
            stats = cell_fn(cell.benchmark, cell.scheme, cell.width, spec,
                            None)
        else:
            stats = _simulate_cell(cell.benchmark, cell.scheme, cell.width,
                                   spec, traces, on_machine=on_machine)
    finally:
        evict.in_cell = False
    return CellResult(
        cid=cell.cid, key=cell.key, worker=beat.lease.worker,
        attempt=cell.attempt, status="ok", stats=stats.to_dict(),
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
    farm: FarmSpec,
    worker_id: str,
    chaos: Optional[WorkerChaos] = None,
    cell_fn: Optional[Callable] = None,
) -> int:
    """Scan, claim, simulate, repeat — until every published cell has a
    result, or this worker is evicted (after releasing its lease).
    Returns the exit status, 0.
    """
    from repro.experiments.runner import TraceCache

    chaos = chaos or WorkerChaos(())
    paths = farm.paths.ensure()
    durable = farm.durable
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
        cells = fsl.list_cells(paths)
        if not cells:
            # Attached before the broker published (or mid-prune): wait
            # for cells to appear rather than declaring victory over an
            # empty directory.  SIGTERM still exits the loop above.
            time.sleep(farm.poll_interval)
            continue
        done = set(fsl.list_results(paths))
        pending = [cid for cid in cells if cid not in done]
        if not pending:
            return 0
        for cid in pending:
            if cid not in groups:
                try:
                    cell = fsl.read_cell(paths.cell(cid))
                except Exception:
                    continue  # pruned, mid-rewrite or damaged: group unknown
                groups[cid] = TraceCache.key(cell.benchmark,
                                             _spec_from_dict(cell.spec))
        held = {g for g in set(groups.values()) if traces.holds(g)}
        order = claim_order(pending, groups, held,
                            set(fsl.list_leases(paths)), done)
        ran_one = raced = False
        now = time.time()
        for cid in order:
            if evict.requested:
                return 0
            try:
                cell = fsl.read_cell(paths.cell(cid))
            except Exception:
                continue  # pruned mid-scan, mid-rewrite or damaged
            if cell.not_before > now:
                continue
            lease = fsl.claim(paths, cell, worker_id, farm.lease_ttl,
                              durable=durable)
            if lease is None:
                # Another worker claimed it since the scan listed the
                # leases: rescan at once, so the order sees its group
                # as busy instead of following it there.
                raced = True
                break
            if cid in fsl.list_results(paths):
                # The previous holder finished and released between our
                # scan above and the claim; every completion writes its
                # result *before* releasing, so this re-check (now that
                # we hold the lease) is race-free.
                fsl.release(paths, lease)
                continue
            beat = _Heartbeat(farm, lease)
            try:
                result = _execute_cell(cell, beat, chaos, evict, traces,
                                       cell_fn=cell_fn)
            except _CellDropped:
                # SIGTERM mid-cell: hand the lease back marked released
                # so the broker reclaims it at once.
                beat.release(state="released")
                return 0
            except Exception as exc:  # deterministic failure: report it
                result = CellResult(
                    cid=cell.cid, key=cell.key, worker=worker_id,
                    attempt=cell.attempt, status="error", kind="error",
                    error_type=type(exc).__name__, message=str(exc),
                )
            fsl.write_result(paths, result, durable=durable)
            beat.release()
            chaos.cell_index += 1
            chaos.stalled = False
            ran_one = True
            break  # rescan: claimability may have changed
        if not ran_one and not raced:
            time.sleep(farm.poll_interval)
