"""Batched lockstep simulation backend (the sweep-column accelerator).

``repro.vector`` simulates a whole *sweep column* — N (config, trace)
lanes sharing one issue width and scheme, varying trace or physical
register count — as one batched job.  Lanes whose configs differ only in
PRF capacity are *coherence-grouped*: under the ordered (lowest-first)
free-list policy a machine with more registers is cycle-for-cycle,
bit-for-bit identical to a smaller one until the smaller machine's free
list first empties, so one simulation carries every lane in the group
and *forks* — a capacity-extended deep copy at the exact stall boundary
— only when lanes actually diverge.  Per-lane ``SimStats`` are
bit-identical to the scalar :mod:`repro.core.machine` run of each lane
(enforced by the differential suite in ``tests/vector``).

NumPy backs the column control plane (capacity chains, lane masks,
divergence bookkeeping) and is this package's only dependency; install
it with the ``vector`` extra (``pip install repro[vector]``).

See ``INTERNALS.md`` §8 for the layout, the lane-masking rules, and the
column-batching contract.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401 — presence check only
except ImportError as exc:  # pragma: no cover - exercised via tests with a fake
    raise ImportError(
        "repro.vector requires numpy, which is not installed.  Install the "
        "vector extra (`pip install repro[vector]` or `pip install numpy`); "
        "the scalar backend (repro.core.machine) needs no dependencies."
    ) from exc

from repro.vector.column import (  # noqa: E402
    BACKENDS,
    ColumnGroup,
    Lane,
    plan_groups,
    sharable,
)
from repro.vector.engine import (  # noqa: E402
    ColumnOutcome,
    LaneResult,
    run_column,
)

__all__ = [
    "BACKENDS",
    "ColumnGroup",
    "ColumnOutcome",
    "Lane",
    "LaneResult",
    "plan_groups",
    "run_column",
    "sharable",
]
