"""Batch execution of cold misses: dedup'd jobs hit the engines here.

The server's submit path answers cache hits itself; what reaches this
module is the deduplicated cold-miss stream, already grouped into
batches of jobs that share every trace-shaping knob
(:meth:`~repro.serve.jobs.JobSpec.batch_key`).  A batch runs on one of
three backends:

``vector``
    All jobs become lanes of one column, run through the sweep runner's
    :func:`~repro.experiments.runner.run_lanes`.
    The column planner coalesces lanes that share a trace and differ
    only in PRF capacity (exactly the ``regs``-sweep misses a Figure-9
    style client fires) onto one machine, forked at the first capacity
    stall — N capacity-differing misses cost far less than N
    simulations, with bit-identical per-lane stats.

``farm``
    Jobs are injected programmatically into the sweep farm
    (:func:`repro.farm.run_cells_farm`) as durable leases; completion
    callbacks fan results back per job.  Jobs carrying a ``regs``
    override run locally instead (a farm cell's config is derived from
    its (scheme, width, spec) key alone).

``scalar``
    One in-process simulation per job — the fallback that needs nothing
    but the core machine, and the path ``auto`` degrades to when numpy
    is unavailable.

Local backends share the runner's per-cell pieces: its
:class:`~repro.experiments.runner.TraceCache` and its cycle-limit
:func:`~repro.experiments.runner.watchdog_error`, so a job fails with
the same message a sweep cell would.

Every result carries cost accounting — cycles simulated, instructions
committed, wall seconds, backend, batch fan-in — which the server
journals, caches, and aggregates into ``/metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.stats import SimStats
from repro.experiments.runner import TraceCache
from repro.serve.jobs import JobSpec

#: Backend names the server accepts.  ``auto`` = vector when numpy
#: imports, scalar otherwise.
SERVE_BACKENDS = ("auto", "scalar", "vector", "farm")


@dataclass
class JobResult:
    """What one job's simulation produced."""

    status: str  # "ok" | "error"
    stats: Optional[Dict] = None
    error: Optional[Dict] = None
    cost: Dict = field(default_factory=dict)


def _vector_available() -> bool:
    try:
        import repro.vector  # noqa: F401 — probe only
    except ImportError:
        return False
    return True


def resolve_backend(requested: str) -> str:
    """Map ``auto`` to a concrete backend for this interpreter."""
    if requested not in SERVE_BACKENDS:
        raise ValueError(
            f"backend must be one of {SERVE_BACKENDS}, got {requested!r}")
    if requested == "auto":
        return "vector" if _vector_available() else "scalar"
    return requested


@dataclass
class FarmOptions:
    """How the ``farm`` backend drives :func:`repro.farm.run_cells_farm`
    for each batch (one broker round per batch)."""

    root: str
    workers: int = 2
    retries: int = 2
    lease_ttl: float = 30.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.1
    grace: float = 5.0


class BatchExecutor:
    """Runs batches of cold misses; stateless between batches except
    for the trace cache."""

    def __init__(self, backend: str = "auto",
                 farm_options: Optional[FarmOptions] = None) -> None:
        self.backend = resolve_backend(backend)
        if self.backend == "farm" and farm_options is None:
            raise ValueError("backend='farm' needs FarmOptions")
        self.farm_options = farm_options
        self._traces = TraceCache()

    # ------------------------------------------------------------ entry

    def run_batch(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        """Simulate every job in ``specs`` (all sharing a batch key);
        returns job-id -> :class:`JobResult`.  Never raises for a
        per-job failure — errors come back as structured results."""
        if self.backend != "farm":
            return self._run_local(specs)
        farmable = [s for s in specs if s.regs is None]
        local = [s for s in specs if s.regs is not None]
        out: Dict[str, JobResult] = {}
        if farmable:
            out.update(self._run_farm(farmable))
        if local:
            out.update(self._run_local(local))
        return out

    # ----------------------------------------------------- scalar/vector

    def _run_local(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        """Run ``specs`` in process: one vector column on the ``vector``
        backend (falling back to scalar without numpy), else one
        simulation per job."""
        from repro.core.machine import simulate
        from repro.experiments.runner import run_lanes, watchdog_error

        lanes = [(spec.job_id(), f"{spec.benchmark}/{spec.scheme}",
                  spec.config(), self._traces.get(spec.benchmark, spec))
                 for spec in specs]
        max_cycles = specs[0].max_cycles
        if self.backend == "vector":
            try:
                started = time.perf_counter()
                outcome, cells = run_lanes(lanes, max_cycles)
            except ImportError:
                pass
            else:
                share = (time.perf_counter() - started) / len(specs)
                return {key: _job_result(
                    cells[key], "vector", outcome.results[key].stats, share,
                    batch_jobs=len(specs), groups=outcome.groups,
                    forks=outcome.forks,
                    batch_cycles_simulated=outcome.cycles_simulated,
                ) for key in cells}
        out: Dict[str, JobResult] = {}
        for key, label, config, trace in lanes:
            started = time.perf_counter()
            try:
                stats = simulate(config, trace, max_cycles=max_cycles)
                cell = watchdog_error(label, stats.committed, len(trace),
                                      max_cycles) or stats
            except Exception as exc:  # noqa: BLE001 — structured, never fatal
                cell = exc
            out[key] = _job_result(
                cell, "scalar", cell if isinstance(cell, SimStats) else None,
                time.perf_counter() - started, batch_jobs=1)
        return out

    # ------------------------------------------------------------- farm

    def _run_farm(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        from repro.experiments.runner import CellError
        from repro.farm import FarmSpec, run_cells_farm

        options = self.farm_options
        # All specs share a batch key, so one RunSpec and width fit all.
        run_spec = specs[0].run_spec()
        width = specs[0].width
        by_cell = {(s.benchmark, s.scheme): s for s in specs}
        farm = FarmSpec(
            root=options.root, workers=options.workers,
            lease_ttl=options.lease_ttl,
            heartbeat_interval=options.heartbeat_interval,
            poll_interval=options.poll_interval, grace=options.grace,
        )
        out: Dict[str, JobResult] = {}
        started = time.perf_counter()

        def on_cell_done(benchmark: str, scheme: str, cell) -> None:
            spec = by_cell[(benchmark, scheme)]
            elapsed = time.perf_counter() - started
            if isinstance(cell, CellError):
                out[spec.job_id()] = JobResult(
                    status="error",
                    error={"error_type": cell.error_type,
                           "message": cell.message, "kind": cell.kind},
                    cost=_cost("farm", 0, 0, elapsed,
                               batch_jobs=len(specs)))
            else:
                out[spec.job_id()] = JobResult(
                    status="ok", stats=cell.to_dict(),
                    cost=_cost("farm", cell.cycles, cell.committed,
                               elapsed, batch_jobs=len(specs)))

        run_cells_farm(
            sorted(by_cell), width, run_spec, farm, None, on_cell_done,
            retries=options.retries,
        )
        return out


def _cost(backend: str, cycles: int, instructions: int,
          wall_seconds: float, **extra) -> Dict:
    return {"backend": backend, "cycles": cycles,
            "instructions": instructions,
            "wall_seconds": round(wall_seconds, 6), **extra}


def _job_result(cell, backend: str, stats, wall_seconds: float,
                **extra) -> JobResult:
    """A local job's result: ``cell`` is its stats or the error it
    failed with; ``stats`` (or None) is what its cost accounts for."""
    cost = _cost(backend, stats.cycles if stats else 0,
                 stats.committed if stats else 0, wall_seconds, **extra)
    if isinstance(cell, Exception):
        return JobResult(status="error", cost=cost, error={
            "error_type": type(cell).__name__, "message": str(cell)})
    return JobResult(status="ok", stats=cell.to_dict(), cost=cost)


#: Signature of the server's completion callback, for reference:
#: ``on_job_done(job_id: str, result: JobResult) -> None``.
OnJobDone = Callable[[str, JobResult], None]
