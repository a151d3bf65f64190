"""Ablation: the WAR-recovery policy space, including the detect-and-
replay mechanism the paper mentions but declines to evaluate (Section
3.3: "we think that this is too costly").

Shape targets: ideal >= refcount (the paper's bounds); replay sits at or
below ideal and actually detects violations on register-starved runs;
refcount never lets a violation occur (the machine would raise).  The
runs use 48 registers: fewer spare registers make reallocation (hence
WAR exposure) common.
"""

from repro.experiments.figures import ablation

_BENCHMARKS = ("gzip", "mcf")


def test_war_policy_ablation(render):
    result = render("war-policy", ablation)
    stats = result.data["stats"]

    for name in _BENCHMARKS:
        ref = stats[name, "refcount"]
        ideal = stats[name, "ideal"]
        replay = stats[name, "replay"]
        assert ideal.ipc >= ref.ipc * 0.99, name
        # Replay never *beats* ideal beyond scheduling noise: both free
        # immediately, but replay pays per-violation penalties.
        assert replay.ipc <= ideal.ipc * 1.03, name
        assert ref.war_replays == 0
        assert ideal.war_replays == 0
    # Somewhere in the starved runs, replay actually fires.
    assert any(stats[n, "replay"].war_replays > 0 for n in _BENCHMARKS)
