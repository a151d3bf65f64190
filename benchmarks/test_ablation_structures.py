"""Ablations over the machine structures PRI interacts with.

* **Checkpoint capacity** — PRI's ckptcount policy pins registers while
  shadow maps live; fewer checkpoints also stall rename at branches.
* **Scheduler size** — the paper contrasts a 32-entry scheduler (4-wide,
  "current generation") with a 512-entry one (8-wide, "future"): the
  small scheduler masks register-file pressure, which is why 4-wide
  speedups are smaller (Section 5.2's discussion of issue-queue limits).
"""

from repro.experiments.figures import ablation


def test_checkpoint_capacity(render):
    result = render("checkpoints", ablation)
    ipcs = {n: result.data["values"][str(n), "IPC"] for n in (4, 8, 16, 64)}
    # More checkpoints never hurt; the default (64) is the best point.
    assert ipcs[64] >= ipcs[4] * 0.995
    assert ipcs[64] >= ipcs[8] * 0.995


def test_scheduler_size(render):
    result = render("scheduler", ablation)
    gains = {n: result.data["values"][str(n), "speedup"]
             for n in (16, 32, 128, 512)}
    # Section 5.2: with the issue-queue limit removed, limited physical
    # registers become the bottleneck — PRI's gain grows with scheduler
    # size.
    assert gains[512] >= gains[16] - 0.01
    assert all(g >= 0.98 for g in gains.values())
