"""Execution of cold misses: one job at a time, in process.

The server's submit path answers cache hits itself; what reaches this
module is the deduplicated cold-miss stream, one job per call.  A job
runs through the sweep runner's own cell path
(:func:`~repro.experiments.runner._simulate_cell`) as the scheme
:meth:`~repro.serve.jobs.JobSpec.cell_scheme`, so a served job and the
sweep cell it names simulate — and fail — identically.

Every result carries cost accounting — cycles simulated, instructions
committed, wall seconds — which the server journals, caches, and
aggregates into ``/metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.runner import TraceCache, _simulate_cell
from repro.serve.jobs import JobSpec


@dataclass
class JobResult:
    """What one job's simulation produced."""

    status: str  # "ok" | "error"
    stats: Optional[Dict] = None
    error: Optional[Dict] = None
    cost: Dict = field(default_factory=dict)


def _cost(cycles: int, instructions: int, wall_seconds: float) -> Dict:
    # ``backend`` and ``batch_jobs`` keep the shape of cost records that
    # cached results and job journals already hold.
    return {"backend": "scalar", "cycles": cycles,
            "instructions": instructions,
            "wall_seconds": round(wall_seconds, 6), "batch_jobs": 1}


def run_job(spec: JobSpec, traces: TraceCache) -> JobResult:
    """Simulate one job.  Never raises for a failed simulation: the
    error comes back as a structured result."""
    started = time.perf_counter()
    try:
        stats = _simulate_cell(spec.benchmark, spec.cell_scheme(), spec.width,
                               spec.run_spec(), traces)
    except Exception as exc:  # noqa: BLE001 — structured, never fatal
        return JobResult(status="error", cost=_cost(
            0, 0, time.perf_counter() - started), error={
            "error_type": type(exc).__name__, "message": str(exc)})
    return JobResult(status="ok", stats=stats.to_dict(), cost=_cost(
        stats.cycles, stats.committed, time.perf_counter() - started))
