"""Run sweep cells on local forked worker processes.

:func:`~repro.experiments.runner.run_cells` calls :func:`run_pool` when
``jobs > 1``.  The parent forks ``min(jobs, cells)`` workers, each
joined to it by one pipe, and hands out one cell at a time; a worker
simulates it exactly as a serial run does (``runner._simulate_cell``,
no cycle hook, so the cycle loop skips quiet cycles) and sends back its
:class:`~repro.core.stats.SimStats` or the error it raised.  The parent
folds each result into ``on_cell_done`` once.

**Claim order.**  Each worker keeps its own
:class:`~repro.experiments.runner.TraceCache`, so the parent hands an
idle worker the next cell in :func:`claim_order`: a cell of a trace
group it has already sent that worker, else one of a group no worker
has been sent, else any.  A parallel run so builds and warms each trace
about once.

**Recovery** is one fixed policy:

* a deterministic simulation error is the cell's result at once;
* a worker that dies (its pipe closes, or its process ends) is replaced
  by a fresh fork, and its cell reruns from cycle 0 after
  ``backoff_delay(n, RERUN_BACKOFF)`` seconds, up to
  :data:`CRASH_RERUNS` times; after that the cell is a ``crash``;
* a heartbeat thread in each worker writes to the pipe every
  :data:`HEARTBEAT_EVERY` seconds, and a worker the parent has not heard
  from for :data:`STALL_TIMEOUT` seconds (frozen, stopped) is SIGKILLed,
  which counts as a death;
* Ctrl-C or SIGTERM (a ``KeyboardInterrupt`` in the parent) kills and
  reaps every worker before it propagates.

Each death, stall kill, rerun and terminal crash is logged at WARNING
on the ``repro.experiments.pool`` logger.
"""

from __future__ import annotations

import logging
import multiprocessing
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import (Callable, Collection, Dict, Hashable, List, Mapping,
                    Optional, Sequence, Set)

from repro.experiments.journal import cell_key
from repro.experiments.runner import CellError, TraceCache, _simulate_cell
from repro.retry import backoff_delay

log = logging.getLogger("repro.experiments.pool")

#: Reruns a cell gets after its worker dies before that death becomes
#: its terminal ``crash`` result.
CRASH_RERUNS = 4
#: Backoff before a cell's n-th rerun: ``backoff_delay(n,
#: RERUN_BACKOFF)`` seconds, capped at that function's 30 s.
RERUN_BACKOFF = 0.5
#: Seconds between a worker's heartbeats.
HEARTBEAT_EVERY = 1.0
#: Seconds of silence after which a worker is SIGKILLed as stalled.
STALL_TIMEOUT = 30.0


def claim_order(
    pending: Sequence[Hashable],
    groups: Mapping[Hashable, Hashable],
    held: Collection[Hashable],
    touched: Collection[Hashable],
) -> List[Hashable]:
    """The order in which to offer ``pending`` cells to one worker.

    ``groups`` maps a cell to its trace group (the cell's
    :meth:`~repro.experiments.runner.TraceCache.key`; a cell missing
    from it has an unknown group), ``held`` is the groups already sent
    to this worker and ``touched`` the groups sent to any worker.  First
    come cells of held groups, then cells of untouched groups, then
    every other cell: a worker with nothing of its own steals from a
    busy group rather than idle.
    """
    ranked: List[List[Hashable]] = [[], [], []]
    for cell in pending:
        group = groups.get(cell)
        if group is not None and group in held:
            ranked[0].append(cell)
        elif group is not None and group not in touched:
            ranked[1].append(cell)
        else:
            ranked[2].append(cell)
    return ranked[0] + ranked[1] + ranked[2]


# ================================================================ worker


def _worker(conn, stale: List, spec, cell_fn: Optional[Callable]) -> None:
    """A worker's life: simulate each cell the parent sends until it
    sends ``None``.  Replies are ``("ok", stats)`` or ``("error",
    type name, message)``; ``("beat",)`` comes from the heartbeat
    thread."""
    # The parent alone handles Ctrl-C and SIGTERM, and kills the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Close the parent's ends of the pipes inherited at fork, this
    # worker's included, so a dead parent reads as EOF here.
    for other in stale:
        other.close()
    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        try:
            while True:
                time.sleep(HEARTBEAT_EVERY)
                send(("beat",))
        except OSError:
            return  # the parent is gone: the main thread sees EOF

    threading.Thread(target=beat, daemon=True).start()
    simulate = cell_fn or _simulate_cell
    traces = TraceCache()
    while True:
        try:
            cell = conn.recv()
        except EOFError:
            return
        if cell is None:
            return
        try:
            reply = ("ok", simulate(*cell, spec, traces))
        except Exception as exc:  # deterministic: the parent never reruns it
            reply = ("error", type(exc).__name__, str(exc))
        try:
            send(reply)
        except OSError:
            return  # the parent is gone


class _Worker:
    """The parent's handle on one worker process."""

    def __init__(self, ctx, spec, cell_fn, stale: List) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker, daemon=True,
                                args=(child, stale + [self.conn], spec,
                                      cell_fn))
        self.proc.start()
        child.close()
        #: The cell it is simulating, and since when (monotonic).
        self.cell = None
        self.started = 0.0
        self.heard = time.monotonic()
        #: Trace groups of the cells sent to it.
        self.held: Set[Hashable] = set()

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()


# ================================================================ parent


def run_pool(cells: Sequence, spec, jobs: int, on_cell_done: Callable, *,
             cell_fn: Optional[Callable] = None) -> None:
    """Simulate ``cells`` ((benchmark, scheme, width) triples) on
    ``min(jobs, len(cells))`` forked workers; each cell's
    :class:`~repro.core.stats.SimStats` or
    :class:`~repro.experiments.runner.CellError` reaches
    ``on_cell_done(cell, outcome)`` exactly once.  ``cell_fn`` replaces
    ``runner._simulate_cell`` in the workers (fault-injection tests).
    Every worker is reaped before this returns or raises."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    groups = {cell: TraceCache.key(cell[0], spec) for cell in cells}
    pending: List = list(cells)
    #: When each pending cell may be sent (a rerun's backoff), and the
    #: attempts each cell has been sent for.
    ready_at: Dict = {}
    attempts: Dict = {cell: 0 for cell in cells}
    touched: Set[Hashable] = set()
    workers: List[_Worker] = []

    def spawn() -> None:
        workers.append(_Worker(ctx, spec, cell_fn,
                               [w.conn for w in workers]))

    def dispatch(worker: _Worker, now: float) -> None:
        ready = [c for c in pending if ready_at.get(c, 0.0) <= now]
        if not ready:
            return
        cell = claim_order(ready, groups, worker.held, touched)[0]
        pending.remove(cell)
        attempts[cell] += 1
        worker.held.add(groups[cell])
        touched.add(groups[cell])
        worker.cell, worker.started = cell, now
        try:
            worker.conn.send(cell)
        except OSError:
            pass  # it died idle: receive() reads the EOF and reruns the cell

    def died(worker: _Worker, cause: str) -> None:
        """Kill and replace ``worker``, and rerun or fail its cell."""
        worker.kill()
        workers.remove(worker)
        cell = worker.cell
        if cell is None:
            log.warning("idle worker %d %s", worker.proc.pid, cause)
        else:
            key, attempt = cell_key(*cell, spec), attempts[cell]
            log.warning("worker %d %s running %s (attempt %d)",
                        worker.proc.pid, cause, key, attempt)
            if attempt > CRASH_RERUNS:
                log.warning("%s crashed on all %d attempts; giving up",
                            key, attempt)
                on_cell_done(cell, CellError(
                    cell[0], cell[1], "crash", "WorkerCrash",
                    f"{cause} on attempt {attempt}; all {CRASH_RERUNS} "
                    f"reruns spent", attempt,
                    time.monotonic() - worker.started))
            else:
                delay = backoff_delay(attempt, RERUN_BACKOFF, token=key)
                log.warning("rerunning %s (attempt %d) in %.1fs",
                            key, attempt + 1, delay)
                ready_at[cell] = time.monotonic() + delay
                pending.append(cell)
        if pending:
            spawn()

    def receive(worker: _Worker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            worker.proc.join()
            died(worker, f"died with exit code {worker.proc.exitcode}")
            return
        worker.heard = time.monotonic()
        if message[0] == "beat":
            return
        cell, worker.cell = worker.cell, None
        if message[0] == "ok":
            on_cell_done(cell, message[1])
        else:
            on_cell_done(cell, CellError(
                cell[0], cell[1], "error", message[1], message[2],
                attempts[cell], worker.heard - worker.started))

    try:
        for _ in range(min(jobs, len(cells))):
            spawn()
        while pending or any(w.cell is not None for w in workers):
            now = time.monotonic()
            for worker in workers:
                if worker.cell is None:
                    dispatch(worker, now)
            for worker in list(workers):
                if now - worker.heard > STALL_TIMEOUT:
                    died(worker, f"sent nothing for {STALL_TIMEOUT:g}s and "
                                 f"was killed")
            wakes = [w.heard + STALL_TIMEOUT for w in workers]
            if any(w.cell is None for w in workers):
                # An idle worker waits for the next rerun's backoff.
                wakes += [ready_at[c] for c in pending if c in ready_at]
            timeout = max(0.0, min(wakes) - time.monotonic())
            ready = wait([w.conn for w in workers], timeout)
            for worker in list(workers):
                if worker.conn in ready:
                    receive(worker)
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone: kill() below reaps it
        for worker in workers:
            worker.proc.join(STALL_TIMEOUT)
    finally:
        for worker in workers:
            worker.kill()
