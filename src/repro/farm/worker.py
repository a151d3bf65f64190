"""Stateless farm workers: lease, heartbeat, simulate, stream back.

A worker owns nothing but its process: every piece of state it needs —
which cells exist, which are claimable, where to resume — lives behind
its :class:`~repro.farm.transport.Transport` (a shared journal
directory, or an HTTP lease service for hosts that share nothing but a
network), so workers can be spawned by the broker, attached later from
another shell (``python -m repro.farm worker <root>`` or ``--endpoint
URL``), or on another host, and killing one at any instant costs at
most the cycles since its cell's last checkpoint.

Per cell, the worker:

1. claims the lease (the transport arbitrates races: O_EXCL on the
   filesystem, a locked server-side check over HTTP);
2. simulates with a per-cycle hook that (a) heartbeats the lease every
   ``heartbeat_interval`` seconds, piggybacking live progress,
   (b) checkpoints through :mod:`repro.core.snapshot` every
   ``checkpoint_every`` cycles — shipping the snapshot through the
   transport so a reclaimed cell resumes on *any* host — and (c) fires
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
the duplicate (the HTTP service additionally rejects the zombie's
writes server-side by fencing token).

**Unreachable backend**: transport calls retry under the shared
:class:`~repro.retry.RetryPolicy`; once the deadline is spent the
worker does not hang or crash with a raw socket error — it exits with
a *typed* failure and prints the exact resume command.  Exit status 2:
the backend was unreachable between cells (nothing in flight).  Exit
status 3: it died mid-cell — the worker first parks a checkpoint
locally so the cycles are not lost.
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.farm.inject import WorkerChaos
from repro.farm.lease import CellResult, CellSpec, LeaseLost
from repro.farm.transport import (
    Fenced,
    Transport,
    TransportError,
    TransportUnavailable,
    make_transport,
)


@dataclass
class WorkerOptions:
    """Everything a worker needs besides the transport address."""

    lease_ttl: float = 30.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.2
    #: Override the RunSpec's checkpoint cadence (None keeps it).
    checkpoint_every: Optional[int] = 2000
    #: Exit after the first completed cell (used by tests).
    oneshot: bool = False
    #: Stop scanning once every published cell has a result.  Attached
    #: workers may instead linger for cells the broker will re-publish.
    exit_when_done: bool = True
    #: HTTP lease-service URL; None means shared-filesystem root.
    endpoint: Optional[str] = None
    #: Per-RPC timeout and total retry deadline (HTTP transport only).
    rpc_timeout: float = 10.0
    rpc_deadline: float = 60.0


class Evicted(Exception):
    """Raised from the cycle hook when SIGTERM arrived: carries the
    machine so the worker can checkpoint it at that exact cycle."""

    def __init__(self, machine) -> None:
        super().__init__("worker evicted")
        self.machine = machine


class Parked(Exception):
    """The transport became unreachable mid-cell and the retry deadline
    is spent.  The in-progress work is parked: ``path`` holds a local
    checkpoint saved at the exact cycle the backend was given up on
    (None when the cell kind has no checkpoint), ``cause`` the final
    :class:`~repro.farm.transport.TransportUnavailable`."""

    def __init__(self, cause: TransportUnavailable,
                 path: Optional[str] = None) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.path = path


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
    transport: Transport,
    cell: CellSpec,
    lease,
    options: WorkerOptions,
    chaos: WorkerChaos,
    evict: _EvictFlag,
    traces,
    cell_fn: Optional[Callable] = None,
) -> CellResult:
    """Run one leased cell to completion (or deterministic error).

    Raises :class:`Evicted` on SIGTERM — after checkpointing — and
    :class:`Parked` when the transport's retry deadline dies mid-cell.
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

    if cell.backend == "vector":
        return _execute_column(
            transport, cell, lease, options, chaos, evict, traces, spec,
            started,
        )

    ckpt = checkpoint_path(cell.benchmark, cell.scheme, cell.width, spec)
    transport.fetch_checkpoint(cell, ckpt)
    interval = spec.checkpoint_every

    def on_resume(cycle: int) -> None:
        state["start_cycle"] = cycle

    def cycle_hook(m) -> None:
        if evict.requested:
            # Snapshot *now*, at a consistent end-of-cycle boundary —
            # the whole point of the grace budget.
            save_snapshot(take_snapshot(m), ckpt)
            raise Evicted(m)
        if interval and m.now % interval == 0 and not state["zombie"]:
            # The runner's own hook (registered first) saved the local
            # snapshot this very cycle; ship it so a reclaim resumes on
            # any host.  Fenced means reclaimed under us: go zombie.
            try:
                transport.store_checkpoint(cell, lease, ckpt)
            except Fenced:
                state["zombie"] = True
            except TransportUnavailable as exc:
                raise Parked(exc, path=ckpt) from exc
        if m.now & 31:
            return
        chaos.check(m)
        if chaos.drop_lease and not state["dropped"]:
            state["dropped"] = True
            try:
                transport.release(lease)
            except TransportError:
                pass
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
            except (LeaseLost, Fenced):
                state["zombie"] = True
            except TransportUnavailable as exc:
                # Park at this exact cycle: a local snapshot costs one
                # write and saves every cycle since the last upload.
                save_snapshot(take_snapshot(m), ckpt)
                raise Parked(exc, path=ckpt) from exc

    try:
        stats = _simulate_cell(
            cell.benchmark, cell.scheme, cell.width, spec, traces,
            cycle_hook=cycle_hook, on_resume=on_resume,
        )
    except Evicted:
        # The hook already saved the snapshot; ship it (best-effort —
        # we are being evicted either way) before handing back.
        try:
            transport.store_checkpoint(cell, lease, ckpt)
        except TransportError:
            pass
        raise
    return CellResult(
        cid=cell.cid, key=cell.key, worker=lease.worker,
        attempt=cell.attempt, status="ok", stats=stats.to_dict(),
        start_cycle=state["start_cycle"],
        elapsed=time.monotonic() - started,
    )


def _execute_column(
    transport: Transport,
    cell: CellSpec,
    lease,
    options: WorkerOptions,
    chaos: WorkerChaos,
    evict: _EvictFlag,
    traces,
    spec,
    started: float,
) -> CellResult:
    """Run one leased *column* (a vector-backend cell) to completion.

    The whole column is one lease: the engine's cycle hook heartbeats
    and honors eviction exactly like the scalar path.  Columns are not
    checkpointed mid-run (a forked machine fleet has no single snapshot
    point), so an evicted column is handed back whole and restarts —
    the lease's voluntary-release accounting already makes that free of
    retry budget.  Per-lane deterministic failures land in
    ``lane_errors``; they never poison sibling lanes.
    """
    from repro.experiments.runner import matrix_lanes, run_lanes

    state = {"zombie": False, "last_hb": time.monotonic()}

    def cycle_hook(m) -> None:
        if evict.requested:
            raise Evicted(m)
        if m.now & 31:
            return
        chaos.check(m)
        if chaos.drop_lease and not state["zombie"]:
            try:
                transport.release(lease)
            except TransportError:
                pass
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
            except (LeaseLost, Fenced):
                state["zombie"] = True
            except TransportUnavailable as exc:
                raise Parked(exc) from exc  # columns carry no checkpoint

    _, cells = run_lanes(matrix_lanes(cell.lanes, cell.width, spec, traces),
                         spec.max_cycles, cycle_hook=cycle_hook)
    lane_stats = {key: stats.to_dict() for key, stats in cells.items()
                  if not isinstance(stats, Exception)}
    lane_errors = {
        key: {"error_type": type(error).__name__, "message": str(error)}
        for key, error in cells.items() if isinstance(error, Exception)
    }
    return CellResult(
        cid=cell.cid, key=cell.key, worker=lease.worker,
        attempt=cell.attempt, status="ok",
        lane_stats=lane_stats, lane_errors=lane_errors,
        start_cycle=0, elapsed=time.monotonic() - started,
    )


def worker_loop(
    root: Optional[str],
    worker_id: str,
    options: Optional[WorkerOptions] = None,
    chaos: Optional[WorkerChaos] = None,
    cell_fn: Optional[Callable] = None,
    net_plans=(),
    transport: Optional[Transport] = None,
) -> int:
    """Scan, claim, simulate, repeat — until every published cell has a
    result (exit 0) or this worker is evicted (exit 0 after
    checkpoint-and-release).  Exit 2: the transport was unreachable with
    nothing in flight; exit 3: unreachable mid-cell, checkpoint parked.
    """
    from repro.experiments.runner import TraceCache

    options = options or WorkerOptions()
    chaos = chaos or WorkerChaos(())
    if transport is None:
        transport = make_transport(
            root=root, endpoint=options.endpoint,
            timeout=options.rpc_timeout, deadline=options.rpc_deadline,
            client_id=worker_id, net_plans=net_plans,
        )
    evict = _EvictFlag()
    evict.install()
    traces = TraceCache()

    def unreachable(exc: TransportUnavailable, when: str) -> None:
        print(f"[{worker_id}] transport unreachable {when}: {exc}",
              file=sys.stderr)
        print(f"[{worker_id}] resume with: "
              f"{transport.resume_command(worker_id)}", file=sys.stderr)

    try:
        return _scan_loop(transport, worker_id, options, chaos, evict,
                          traces, cell_fn)
    except Parked as parked:
        unreachable(parked.cause, "mid-cell")
        if parked.path is not None:
            print(f"[{worker_id}] checkpoint parked at {parked.path}",
                  file=sys.stderr)
        return 3
    except TransportUnavailable as exc:
        unreachable(exc, "(no cell in flight)")
        return 2
    finally:
        transport.close()


def _scan_loop(
    transport: Transport,
    worker_id: str,
    options: WorkerOptions,
    chaos: WorkerChaos,
    evict: _EvictFlag,
    traces,
    cell_fn: Optional[Callable],
) -> int:
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
        ran_one = False
        now = time.time()
        for cid in pending:
            if evict.requested:
                return 0
            try:
                cell = transport.read_cell(cid)
            except KeyError:
                continue  # pruned mid-scan
            except TransportUnavailable:
                raise
            except Exception:
                continue  # mid-rewrite or damaged: next poll
            if cell.not_before > now:
                continue
            lease = transport.claim(cell, worker_id, options.lease_ttl)
            if lease is None:
                continue  # raced another worker; the transport decided
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
                # Checkpoint already written (and shipped) by the hook;
                # hand the lease back marked released so the broker
                # reclaims instantly.
                try:
                    transport.heartbeat(lease, state="released")
                except (LeaseLost, TransportError):
                    pass
                return 0
            except Parked:
                raise
            except Exception as exc:  # deterministic failure: report it
                result = CellResult(
                    cid=cell.cid, key=cell.key, worker=worker_id,
                    attempt=cell.attempt, status="error", kind="error",
                    error_type=type(exc).__name__, message=str(exc),
                )
            try:
                transport.write_result(result, lease=lease)
            except Fenced:
                # Zombie completion: the lease service refused our stale
                # token — the winner's result (or a reclaim) stands.
                pass
            transport.release(lease)
            chaos.cell_index += 1
            chaos.stalled = False
            chaos.drop_lease = False
            ran_one = True
            if options.oneshot:
                return 0
            break  # rescan: claimability may have changed
        if not ran_one:
            time.sleep(options.poll_interval)
    return 0


def _worker_entry(
    root: Optional[str],
    worker_id: str,
    options: WorkerOptions,
    chaos: WorkerChaos,
    cell_fn: Optional[Callable] = None,
    net_plans=(),
) -> None:
    """multiprocessing entry point for broker-spawned workers."""
    sys.exit(worker_loop(root, worker_id, options, chaos, cell_fn,
                         net_plans=net_plans))
