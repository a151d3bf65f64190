"""The ablations are plan entries: their scheme names must resolve to
exactly the machines the benchmark loops they replaced built, and a bad
suffix must fail loudly.

:data:`PARENT_DIGESTS` holds, for every distinct ablation cell in plan
order, the ``config_digest`` of the config the old loop built with
``dataclasses.replace`` and ``with_pri``/``with_virtual_physical``;
:data:`GOLDEN` a sha256 over those configs' ``SimStats.to_dict()`` in
the same order, recorded from the old loops' configs.  Run as a script
to print the current stats digests.
"""

import hashlib
import json

import pytest

from repro.config import config_digest
from repro.experiments.figures import ABLATIONS, CELLS, ablation, plan
from repro.experiments.runner import (
    MIN_PHYS_REGS,
    RunSpec,
    TraceCache,
    resolve_config,
    run_cells,
    run_one,
    scheme_name,
)

_PRI = "PRI-refcount+ckptcount"

PARENT_DIGESTS = {
    ("gzip", f"{_PRI}@bits=1"): "1d3aab0a58db",
    ("gzip", "base"): "e9bd72206059",
    ("gzip", f"{_PRI}@bits=4"): "6971571d86c5",
    ("gzip", _PRI): "a7fe1f919eaf",
    ("gzip", f"{_PRI}@bits=10"): "5b09b7ece094",
    ("gzip", f"{_PRI}@bits=13"): "ac80ec4e7457",
    ("gzip", f"{_PRI}@bits=16"): "4540b4aced63",
    ("mcf", f"{_PRI}@bits=1"): "1d3aab0a58db",
    ("mcf", "base"): "e9bd72206059",
    ("mcf", f"{_PRI}@bits=4"): "6971571d86c5",
    ("mcf", _PRI): "a7fe1f919eaf",
    ("mcf", f"{_PRI}@bits=10"): "5b09b7ece094",
    ("mcf", f"{_PRI}@bits=13"): "ac80ec4e7457",
    ("mcf", f"{_PRI}@bits=16"): "4540b4aced63",
    ("twolf", f"{_PRI}@bits=1"): "1d3aab0a58db",
    ("twolf", "base"): "e9bd72206059",
    ("twolf", f"{_PRI}@bits=4"): "6971571d86c5",
    ("twolf", _PRI): "a7fe1f919eaf",
    ("twolf", f"{_PRI}@bits=10"): "5b09b7ece094",
    ("twolf", f"{_PRI}@bits=13"): "ac80ec4e7457",
    ("twolf", f"{_PRI}@bits=16"): "4540b4aced63",
    ("gzip", "PRI-refcount+lazy@PR=48"): "fdc5390aa457",
    ("gzip", "base@PR=48"): "a144cbc092ff",
    ("gzip", "PRI-ideal+lazy@PR=48"): "1959072db9d9",
    ("gzip", "PRI-refcount+lazy@PR=48@replay"): "1c91c7cf5ac9",
    ("mcf", "PRI-refcount+lazy@PR=48"): "fdc5390aa457",
    ("mcf", "base@PR=48"): "a144cbc092ff",
    ("mcf", "PRI-ideal+lazy@PR=48"): "1959072db9d9",
    ("mcf", "PRI-refcount+lazy@PR=48@replay"): "1c91c7cf5ac9",
    ("gzip", f"{_PRI}@ckpts=4"): "887e0116bdbb",
    ("gzip", f"{_PRI}@ckpts=8"): "1a09a8e3eb89",
    ("gzip", f"{_PRI}@ckpts=16"): "f25dd185a61a",
    ("gzip", "base@sched=16"): "ecff8f5761f1",
    ("gzip", f"{_PRI}@sched=16"): "c5885491bf85",
    ("gzip", "base@sched=128"): "4fac0f2a2534",
    ("gzip", f"{_PRI}@sched=128"): "1532b2d83733",
    ("gzip", "base@sched=512"): "f89111f7975d",
    ("gzip", f"{_PRI}@sched=512"): "c1d7d30e54ab",
    ("gzip", "base@PR=40"): "f5f02df5a250",
    ("gzip", "base@PR=40@vp"): "ae964a3e8931",
    ("gzip", f"{_PRI}@PR=40"): "fd49e70a60aa",
    ("gzip", f"{_PRI}@PR=40@vp"): "de6547618bf0",
    ("gzip", "base@vp"): "04333158d5d4",
    ("gzip", f"{_PRI}@vp"): "4a9e67a863d4",
    ("twolf", "base@PR=40"): "f5f02df5a250",
    ("twolf", "base@PR=40@vp"): "ae964a3e8931",
    ("twolf", f"{_PRI}@PR=40"): "fd49e70a60aa",
    ("twolf", f"{_PRI}@PR=40@vp"): "de6547618bf0",
    ("twolf", "base@vp"): "04333158d5d4",
    ("twolf", f"{_PRI}@vp"): "4a9e67a863d4",
    ("gzip", f"{_PRI}@PR=48"): "ebe4ac37d84c",
    ("gzip", f"{_PRI}@PR=48@li"): "4b20fb60a8ff",
    ("twolf", f"{_PRI}@PR=48"): "ebe4ac37d84c",
    ("twolf", f"{_PRI}@PR=48@li"): "4b20fb60a8ff",
}

#: seed -> digest at ``RunSpec(length=60, warmup=2000, seed=seed)``.
GOLDEN = {
    1: "69ee5ba599387b03d54c7e5749723d53680f3d773ac7ff940f9e77fdba8c5656",
    7: "eba0cf6d680e447e1aeefb186b9400466fa4112cf05bb84e1c48b411cdd2654a",
}


def ablation_cells():
    """The distinct cells of every ablation, in plan order."""
    return list(dict.fromkeys(
        cell for name in ABLATIONS for cell in plan(name, (4, 8))))


def digest(seed: int) -> str:
    cells = ablation_cells()
    results = run_cells(cells, RunSpec(length=60, warmup=2000, seed=seed),
                        traces=TraceCache())
    blob = json.dumps([results[cell].to_dict() for cell in cells],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_ablation_cell_is_the_old_loops_machine():
    cells = ablation_cells()
    assert [(b, s) for b, s, _ in cells] == list(PARENT_DIGESTS)
    assert all(width == 4 for _, _, width in cells)
    for benchmark, scheme, width in cells:
        config = resolve_config(scheme, width, RunSpec())
        assert config_digest(config) == PARENT_DIGESTS[benchmark, scheme], \
            scheme


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_ablation_stats_digest(seed):
    assert digest(seed) == GOLDEN[seed]


def test_ablations_run_at_4_wide_only_and_apart_from_cells():
    assert not set(ABLATIONS) & set(CELLS)
    assert all(plan(name, (8,)) == [] for name in ABLATIONS)


def test_ablation_renders_its_columns():
    result = ablation("load-immediate", RunSpec(length=60, warmup=500),
                      TraceCache())
    text = result.render()
    assert text.startswith("Ablation: ")
    assert "PRI+hint IPC" in text and "inlined" in text
    values, stats = result.data["values"], result.data["stats"]
    assert values["gzip", "inlined"] == stats["gzip", "PRI+hint IPC"].inlined


@pytest.mark.parametrize("scheme, spelled", [
    ("base@PR=64", "base"),
    (f"{_PRI}@bits=7", _PRI),
    (f"{_PRI}@vp@PR=040", f"{_PRI}@PR=40@vp"),
])
def test_scheme_name_is_one_spelling(scheme, spelled):
    assert scheme_name(scheme, 4) == spelled
    assert (resolve_config(scheme, 4, RunSpec())
            == resolve_config(spelled, 4, RunSpec()))


@pytest.mark.parametrize("scheme, named", [
    ("base@PR=x", "@PR=x"),
    ("base@PR=", "@PR="),
    ("base@nope=1", "@nope=1"),
    ("base@XYZ=1", "@XYZ=1"),
    ("base@", "@ "),
    ("base@PR=0", "@PR=0"),
    ("base@PR=8", "@PR=8"),
    ("base@PR=31", "@PR=31"),
    ("base@PR=65537", "@PR=65537"),
    (f"{_PRI}@bits=65", "@bits=65"),
    (f"{_PRI}@ckpts=0", "@ckpts=0"),
    ("base@sched=-1", "@sched=-1"),
    (f"{_PRI}@war=replay", "@war=replay"),
    (f"{_PRI}@replay=1", "@replay=1"),
    ("base@vp=1", "@vp=1"),
    (f"{_PRI}@li=0", "@li=0"),
    ("nope@PR=40", "'nope'"),
])
def test_bad_suffix_is_a_value_error_naming_it(scheme, named):
    with pytest.raises(ValueError) as err:
        resolve_config(scheme, 4, RunSpec())
    assert named in str(err.value)


def test_smallest_register_file_holds_the_architected_state():
    assert resolve_config(f"base@PR={MIN_PHYS_REGS}", 4,
                          RunSpec()).int_phys_regs == MIN_PHYS_REGS
    assert run_one("gzip", f"base@PR={MIN_PHYS_REGS}", 4,
                   RunSpec(length=60, warmup=200)).committed == 60


if __name__ == "__main__":
    for seed in sorted(GOLDEN):
        print(f"seed {seed}: {digest(seed)}")
