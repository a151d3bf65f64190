"""The farm broker: publish cells, watch leases, reclaim, fold.

The broker is the farm's only *journal* writer and its only *reclaimer*;
workers only ever touch their own lease.  That asymmetry keeps the
concurrency story auditable:

* **publish** — every (benchmark, scheme, width) cell becomes a durable
  :class:`~repro.farm.lease.CellSpec` envelope, plus a checksummed
  ``leased``/``heartbeat``/``completed``/``abandoned``/``released``
  line in the sweep journal for each transition it observes, so
  ``fsck`` round-trips the whole history;
* **watch** — polls the farm's lease views; journals new grants,
  relays throttled heartbeat lines (non-durable — losing the last one
  costs nothing), detects expiry (no heartbeat within the TTL), and
  scrubs fence-stale debris (a lease file resurrected by a heartbeat
  that raced an earlier reclaim — removed without spending a rerun,
  because no live work was lost);
* **reclaim** — an expired or evicted lease, or one a dead local
  worker still holds (a ``crash``, reclaimed as soon as the worker is
  reaped rather than after its TTL), is journaled ``abandoned`` (or
  ``released``).  The cell's attempt is bumped and fenced with a
  jittered, capped backoff (:func:`~repro.retry.backoff_delay`), and —
  crucially — :func:`~repro.farm.lease.reclaim` makes the bumped spec
  visible *before* the lease becomes claimable again, so no worker can
  claim the stale attempt in between and an in-flight heartbeat
  deterministically loses.  The next attempt reruns the cell from
  cycle 0.  Once a cell has crashed or expired on its first attempt
  and on all :data:`CRASH_RERUNS` reruns, the broker streams a
  terminal error result itself, so workers' exit condition (every cell
  has a result) still converges;
* **fold** — streams results through
  :class:`~repro.farm.aggregate.Aggregator` exactly once per cell into
  ``on_cell_done`` (the same callback :func:`run_cells` uses for its
  serial path, so journaling and figure assembly are identical),
  verifying zombie duplicates bit-identically.  Each folded cell's
  ``completed`` line follows a ``leased`` line for its attempt: a
  worker's grant that no poll saw (claimed and finished between two)
  is journaled from its result;
* **drain** — on completion, Ctrl-C, or SIGTERM, live local workers get
  a SIGTERM and ``grace`` seconds to drop their cell and release its
  lease before being killed; still-held leases are journaled
  ``released`` so the next run reclaims them instantly instead of
  waiting out the TTL.

Local workers are fork-spawned processes; *attached* workers (other
shells, or other hosts on a shared mount — ``python -m repro.farm
worker <root>``) participate identically, because every protocol step
above is a :mod:`repro.farm.lease` function over the shared directory,
never an in-process one.  Local workers read their budgets from the
broker's own :class:`~repro.farm.lease.FarmSpec`.

There is one recovery policy, and nothing sets it per sweep: a
deterministic simulation error is terminal at once (the worker writes
it as the cell's result); a release (spot eviction, drain) reruns the
cell at once and for free; a crash or an expired lease reruns it after
a backoff, up to :data:`CRASH_RERUNS` times.  There is no wall-clock
cell timeout: a cell whose cycle loop stops committing fails as an
``error`` through the machine's no-commit watchdog (or ``--max-cycles``),
and a frozen or dead worker stops heartbeating, so its lease expires or
is reclaimed when the worker is reaped.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.stats import SimStats
from repro.farm import lease as fsl
from repro.farm.aggregate import Aggregator, FarmReport
from repro.farm.inject import chaos_for_worker, normalize_plans
from repro.farm.lease import CellResult, CellSpec, FarmSpec, cid_of
from repro.farm.worker import worker_loop
from repro.retry import backoff_delay
from repro.store import ArtifactError

#: Reruns a cell gets after a crash or an expired lease before that
#: failure becomes its terminal result.  Releases do not count.
CRASH_RERUNS = 4
#: Backoff before a cell's n-th crash rerun: ``backoff_delay(n,
#: RERUN_BACKOFF)`` seconds, capped at that function's 30 s.
RERUN_BACKOFF = 0.5
#: Journal at most one heartbeat line per cell per this many seconds.
JOURNAL_HEARTBEAT_EVERY = 10.0


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_cells_farm(
    cells: List[Tuple[str, str, int]],
    spec,
    farm: FarmSpec,
    journal,
    on_cell_done: Callable,
    *,
    cell_fn: Optional[Callable] = None,
    on_progress: Optional[Callable[[FarmReport, int], None]] = None,
) -> FarmReport:
    """Drive ``cells``, (benchmark, scheme, width) triples, through one
    farm; every finished cell reaches ``on_cell_done(cell,
    SimStats-or-CellError)`` exactly once.  Cells not in ``cells`` are
    withdrawn from the root first.  Returns the final
    :class:`FarmReport`."""
    # Lazy: the runner imports repro.farm.lease at module level, so the
    # reverse edge must stay function-local to avoid an import cycle.
    from repro.experiments.journal import cell_key
    from repro.experiments.runner import CellError

    plans = normalize_plans(farm.inject)
    paths = farm.paths.ensure()

    # ---------------------------------------------------------- publish
    published: Dict[str, CellSpec] = {}
    for benchmark, scheme, width in cells:
        key = cell_key(benchmark, scheme, width, spec)
        cid = cid_of(key)
        published[cid] = fsl.publish(paths, CellSpec(
            cid=cid, key=key, benchmark=benchmark, scheme=scheme,
            width=width, spec=dataclasses.asdict(spec),
        ), durable=farm.durable)
    # Prune cells from an earlier sweep that are no longer wanted (for
    # example, already journaled as complete) so workers never run them.
    fsl.prune(paths, set(published))
    # A result this build cannot read (another schema, or damaged) would
    # still count its cell as done for the workers while the broker can
    # never fold it: move it aside so the cell runs again.
    fsl.set_aside_unreadable_results(paths, set(published))

    report = FarmReport(cells=len(published))
    agg = Aggregator(report)
    known_leases: Dict[str, Tuple[str, int]] = {}
    journal_hb_at: Dict[str, float] = {}

    def jlease(cell: CellSpec, state: str, worker: str, *,
               durable: bool = True, **extra) -> None:
        if journal is None:
            return
        event = {"key": cell.key, "state": state, "worker": worker,
                 "ts": time.time(), **extra}
        journal.record_lease(event, durable=durable)

    # ---------------------------------------------------- local workers
    ctx = _mp_context()
    procs: Dict[str, object] = {}
    spawned: Set[str] = set()
    next_index = 0

    def spawn() -> None:
        nonlocal next_index
        # The pid suffix keeps ids unique across broker incarnations: a
        # hard-killed broker's orphaned workers must never be mistaken
        # for (or heartbeat as) this run's identically-numbered ones.
        worker_id = f"w{next_index}.{os.getpid()}"
        spawned.add(worker_id)
        chaos = chaos_for_worker(plans, next_index)
        proc = ctx.Process(
            target=worker_loop,
            args=(farm, worker_id, chaos, cell_fn),
            daemon=True,
        )
        proc.start()
        procs[worker_id] = proc
        next_index += 1

    # ------------------------------------------------------------- fold
    seen_results: Set[str] = set()

    def fold_new_results() -> None:
        # Each result file is read once; an unreadable one is skipped,
        # never raised (fsck surfaces it).
        for _cid, path in fsl.iter_results(paths):
            if path in seen_results:
                continue
            seen_results.add(path)
            try:
                result = fsl.read_result(path)
            except (ArtifactError, OSError):
                continue
            cid = result.cid
            if cid not in published:
                continue
            if agg.fold(result) != "folded":
                continue
            cell = published[cid]
            ident = (result.worker, result.attempt)
            if result.worker != "broker" and known_leases.get(cid) != ident:
                # Claimed and finished between two polls: journal the
                # grant no scan saw, so every completion has its lease.
                known_leases[cid] = ident
                jlease(cell, "leased", result.worker, attempt=result.attempt)
            jlease(cell, "completed", result.worker, attempt=result.attempt)
            benchmark, scheme = cell.benchmark, cell.scheme
            if result.status == "ok":
                on_cell_done((benchmark, scheme, cell.width),
                             SimStats.from_dict(result.stats))
            else:
                on_cell_done((benchmark, scheme, cell.width), CellError(
                    benchmark, scheme, result.kind or "error",
                    result.error_type or "Error", result.message or "",
                    result.attempt, result.elapsed,
                ))

    # ---------------------------------------------------------- reclaim
    def reclaim(cid: str, lease, reason: str, cause: Optional[str] = None,
                held: float = 0.0) -> None:
        """Hand ``lease`` back (``reason``: expired, crash, or
        released).  ``cause`` and ``held`` describe the failure in a
        terminal error: what happened, and the seconds it held."""
        cell = published[cid]
        new_attempt = max(cell.attempt, lease.attempt) + 1
        voluntary = reason == "released"
        if voluntary:
            # Eviction and drain are infrastructure preemption, not cell
            # failure: they never spend a rerun (and never back off —
            # the cell is fine, re-run it at once).
            cell.released += 1
        reruns = new_attempt - 1 - cell.released
        if reruns > CRASH_RERUNS:
            # Out of reruns: the broker itself streams the terminal
            # error so the workers' all-cells-have-results exit
            # condition still converges.
            fsl.reclaim(paths, cell, durable=farm.durable, terminal=CellResult(
                cid=cid, key=cell.key, worker="broker",
                attempt=lease.attempt, status="error", kind="crash",
                error_type="LeaseExpired",
                message=(f"{cause or 'lease ' + reason} on attempt "
                         f"{lease.attempt} (held by {lease.worker!r}); "
                         f"all {CRASH_RERUNS} reruns spent"),
                elapsed=held,
            ))
        else:
            cell.attempt = new_attempt
            cell.not_before = time.time() if voluntary else (
                time.time() + backoff_delay(max(1, reruns), RERUN_BACKOFF,
                                            token=cell.key)
            )
            # reclaim publishes the bumped spec (the fence) before the
            # lease becomes claimable again: no worker can claim the
            # stale attempt in the gap, in-flight heartbeats lose.
            fsl.reclaim(paths, cell, durable=farm.durable)
        known_leases.pop(cid, None)

    # ------------------------------------------------------------ watch
    def scan_leases(now: float) -> int:
        active = 0
        for view in fsl.lease_views(paths):
            cid = view.cid
            cell = published.get(cid)
            if cell is None:
                continue
            if view.torn:
                # Torn claim from a worker killed mid-create: reclaim it
                # once it is older than the TTL (mtime is all we have).
                if view.age > farm.lease_ttl and not agg.is_folded(cid):
                    report.reclaims += 1
                    jlease(cell, "abandoned", "unknown", reason="unreadable")
                    reclaim(cid, _TornLease(cid, cell), "expired")
                continue
            lease = view.lease
            if lease.attempt < cell.attempt:
                # Fence-stale debris: a heartbeat's atomic rename raced
                # an earlier reclaim's unlink and resurrected the lease
                # file.  The fence already decided that race — scrub the
                # husk without counting a reclaim or spending a rerun,
                # or it would block claims on the live attempt.
                # release() is ownership-checked: only this exact husk
                # goes, never a lease a new claim just created.
                fsl.release(paths, lease)
                known_leases.pop(cid, None)
                continue
            ident = (lease.worker, lease.attempt)
            if known_leases.get(cid) != ident:
                known_leases[cid] = ident
                journal_hb_at[cid] = now
                jlease(cell, "leased", lease.worker, attempt=lease.attempt,
                       ttl=lease.ttl)
            if agg.is_folded(cid):
                # A zombie finishing a cell that is already folded: let
                # it run — its duplicate result is verified, and drain
                # cleans it up if it outlives the sweep.
                continue
            if lease.state == "released":
                # Spot eviction hand-back: the worker dropped the cell
                # and marked the lease; reclaim with no TTL wait.
                report.evictions += 1
                jlease(cell, "released", lease.worker,
                       attempt=lease.attempt, cycle=lease.cycle)
                reclaim(cid, lease, "released")
                continue
            if view.age > lease.ttl:
                report.reclaims += 1
                jlease(cell, "abandoned", lease.worker,
                       attempt=lease.attempt, reason="expired",
                       cycle=lease.cycle)
                reclaim(cid, lease, "expired", held=view.held)
                continue
            active += 1
            if now - journal_hb_at.get(cid, 0.0) >= JOURNAL_HEARTBEAT_EVERY:
                journal_hb_at[cid] = now
                jlease(cell, "heartbeat", lease.worker, durable=False,
                       attempt=lease.attempt, cycle=lease.cycle,
                       committed=lease.committed)
        return active

    def reclaim_from_dead(exit_codes: Dict[str, int]) -> None:
        """Reclaim at once, as crashes, the leases reaped local workers
        still hold, instead of waiting out their TTL."""
        # A worker that wrote its result and then died did not crash.
        fold_new_results()
        for view in fsl.lease_views(paths):
            cell = published.get(view.cid)
            if cell is None or view.torn or agg.is_folded(view.cid):
                continue
            lease = view.lease
            if (lease.worker not in exit_codes or lease.state == "released"
                    or lease.attempt < cell.attempt):
                continue  # not a dead worker's live lease
            report.reclaims += 1
            jlease(cell, "abandoned", lease.worker, attempt=lease.attempt,
                   reason="crash", cycle=lease.cycle)
            reclaim(view.cid, lease, "crash", held=view.held,
                    cause=(f"worker process died with exit code "
                           f"{exit_codes[lease.worker]}"))

    def reap_and_respawn() -> None:
        exit_codes: Dict[str, int] = {}
        for worker_id, proc in list(procs.items()):
            if not proc.is_alive():
                proc.join()
                exit_codes[worker_id] = proc.exitcode
                del procs[worker_id]
        if exit_codes:
            reclaim_from_dead(exit_codes)
        if len(agg.folded) == len(published):
            return
        for _ in exit_codes:
            report.respawns += 1
            spawn()

    def drain() -> None:
        alive = [p for p in procs.values() if p.is_alive()]
        for proc in alive:
            proc.terminate()  # SIGTERM: drop the cell, release its lease
        deadline = time.monotonic() + farm.grace
        for proc in alive:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in alive:
            if proc.is_alive():
                proc.kill()
                proc.join(5)
        for view in fsl.lease_views(paths):
            cell = published.get(view.cid)
            if cell is None or view.torn or agg.is_folded(view.cid):
                continue
            lease = view.lease
            if lease.worker not in spawned and lease.state != "released":
                # An attached worker (another shell/host) still holds
                # this: leave it — it outlives the broker and its result
                # will fold on the next run.
                continue
            jlease(cell, "released", lease.worker, attempt=lease.attempt,
                   reason="drain", cycle=lease.cycle)
            # Hand the cell back now (a voluntary release spends no
            # rerun) so the next run re-claims it immediately
            # instead of waiting out a dead worker's TTL.
            reclaim(view.cid, lease, "released")

    # -------------------------------------------------------- main loop
    # Startup sweep: leases left behind by a previous broker that died
    # without draining (power loss, SIGKILL).  Anything already expired
    # or marked released is previous-incarnation debris — hand those
    # cells back without spending a rerun.  A *live* lease (recent
    # heartbeat) belongs to a surviving attached/orphaned worker: leave
    # it, its result will fold like any other.
    for view in fsl.lease_views(paths):
        cell = published.get(view.cid)
        if cell is None or view.torn:
            continue  # torn claim: scan_leases ages it out by mtime
        lease = view.lease
        if lease.state == "released" or view.age > lease.ttl:
            jlease(cell, "released", lease.worker, attempt=lease.attempt,
                   reason="stale", cycle=lease.cycle)
            reclaim(view.cid, lease, "released")
    for _ in range(farm.workers):
        spawn()
    last_progress = 0.0
    try:
        while len(agg.folded) < len(published):
            fold_new_results()
            active = scan_leases(time.time())
            reap_and_respawn()
            if on_progress is not None:
                now = time.monotonic()
                if now - last_progress >= min(1.0, farm.poll_interval):
                    last_progress = now
                    on_progress(report, active)
            if len(agg.folded) < len(published):
                time.sleep(farm.poll_interval)
    finally:
        drain()
        farm.report = report
    if on_progress is not None:
        on_progress(report, 0)
    return report


class _TornLease:
    """Stand-in for an unreadable lease file during reclaim."""

    def __init__(self, cid: str, cell: CellSpec) -> None:
        self.cid = cid
        self.key = cell.key
        self.worker = "unknown"
        self.attempt = cell.attempt
