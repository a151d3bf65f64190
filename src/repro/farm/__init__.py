"""Fault-tolerant sweep farm: lease-based broker/worker cells.

A sweep is decomposed into (benchmark x scheme x config) *cells*; a
**broker** (:mod:`repro.farm.broker`) publishes them into a shared
journal directory, **stateless workers** (:mod:`repro.farm.worker`)
lease cells with a TTL, heartbeat while simulating, and stream results
back through the :mod:`repro.store` envelope; an **aggregator**
(:mod:`repro.farm.aggregate`) folds each cell exactly once into the
figures.  Recovery is at cell granularity: cells are short, so an
expired lease is reclaimed and its cell rerun from cycle 0; SIGTERM is
treated as a spot-eviction notice — the worker drops its cell and
releases the lease within a grace budget; and a deterministic
fault-injection registry (:mod:`repro.farm.inject`) lets the chaos
suite kill, stall, orphan, evict, and double-lease workers on purpose.

Every protocol step is a function of :mod:`repro.farm.lease` over the
shared directory — its worker half and its broker half: ``O_EXCL``
claims, atomic envelope rewrites, and the cell's attempt number as the
fencing token.  Broker and workers call it directly.

Entry points: ``run_cells(cells, spec, farm=FarmSpec(root))`` (or
``run_matrix``, its one-width view) drives any sweep through one farm;
``python -m repro.farm worker <root>`` attaches an extra worker from
another shell (or another host sharing the directory); ``python -m
repro.farm status <root>`` reports live progress without touching any
farm state.
"""

from repro.farm.aggregate import Aggregator, FarmReport
from repro.farm.inject import FAULTS, FarmFault, InjectPlan, WorkerChaos
from repro.farm.lease import (
    CellResult,
    CellSpec,
    FarmPaths,
    FarmSpec,
    Lease,
    LeaseLost,
    cid_of,
)
from repro.farm.worker import worker_loop

__all__ = [
    "Aggregator",
    "FarmReport",
    "FAULTS",
    "FarmFault",
    "InjectPlan",
    "WorkerChaos",
    "CellResult",
    "CellSpec",
    "FarmPaths",
    "FarmSpec",
    "Lease",
    "LeaseLost",
    "cid_of",
    "worker_loop",
    "run_cells_farm",
]


def run_cells_farm(*args, **kwargs):
    """Lazy re-export of :func:`repro.farm.broker.run_cells_farm` (the
    broker's imports reach back into the runner, which imports this
    package — keep the heavy edge out of import time)."""
    from repro.farm.broker import run_cells_farm as _run

    return _run(*args, **kwargs)
