"""Golden per-cell statistics of the whole ``--all`` plan.

A sha256 over ``SimStats.to_dict()`` of every distinct cell that
``python -m repro.experiments --all`` simulates, in plan order, at a
short length and two seeds.  Any change to the cycle loop that moves a
single counter of a single cell moves the digest; a pure speed-up must
leave both constants alone.  The constants were recorded before the
idle-cycle fast-forward went in.

Run as a script, which needs no pytest, to print the current digests:
``PYTHONPATH=src python tests/experiments/test_stats_golden.py``.
"""

import hashlib
import json

from repro.experiments.figures import CELLS, plan
from repro.experiments.runner import RunSpec, TraceCache, run_cells

#: seed -> digest at ``RunSpec(length=60, warmup=2000, seed=seed)``.
GOLDEN = {
    1: "12301076f4e93fbd742c1eec05e8b8a45920ab3e3237637aacb19589e018cbee",
    7: "8e7a6a53760276da1b333a54f6a81b3ebd3ccbc762c081eb444eb2257f2b0da3",
}


def all_cells():
    """The distinct cells of ``--all`` at both widths, in plan order
    (the CLI's table-then-figure order, which :data:`CELLS` follows)."""
    return list(dict.fromkeys(
        cell for name in CELLS for cell in plan(name, (4, 8))))


def digest(seed: int) -> str:
    cells = all_cells()
    results = run_cells(cells, RunSpec(length=60, warmup=2000, seed=seed),
                        traces=TraceCache())
    blob = json.dumps([results[cell].to_dict() for cell in cells],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_plan_size():
    assert len(all_cells()) == 588


def test_all_plan_stats_digest_seed_1():
    assert digest(1) == GOLDEN[1]


def test_all_plan_stats_digest_seed_7():
    assert digest(7) == GOLDEN[7]


if __name__ == "__main__":
    for seed in sorted(GOLDEN):
        print(f"seed {seed}: {digest(seed)}")
