"""Golden-digest regression suite: the cache key must never drift.

The serving tier addresses its result cache by config digest + trace
identity.  A silently shifted key — a Python upgrade changing dict
iteration, a json serialization nuance, a refactor reordering fields —
would not crash anything: every lookup would simply miss, re-simulate,
and re-store under the new address.  A 0% hit-rate outage with green
tests.  These goldens turn that silent drift into a red test; the CI
matrix runs them on Python 3.9, 3.11, and 3.12, so cross-version
byte-stability is asserted by the matrix, not by hope.

If one of these fails because the *config schema intentionally changed*
(a genuinely new field that affects simulation), bump the goldens in
the same commit and say so: every deployed cache is invalidated.
"""

import json

import pytest

from repro.config import config_digest, config_to_dict, eight_wide, four_wide
from repro.experiments.journal import cell_key
from repro.experiments.runner import RunSpec
from repro.experiments.journal import cid_of
from repro.serve.cache import cache_address
from repro.serve.jobs import JobSpec

# ------------------------------------------------------------- goldens
# Computed once at introduction; any unintended change is a regression.

GOLDEN_FOUR_WIDE = "e9bd72206059"
GOLDEN_EIGHT_WIDE = "e1dbc2020055"
GOLDEN_FOUR_WIDE_16 = "e9bd72206059d739"

GOLDEN_BASE_KEY = "gzip|base|w4|n6000|u20000|s1|c0|a0|e9bd72206059"
GOLDEN_BASE_ID = "0023b9987182816e"
GOLDEN_BASE_ADDR = "0023b9987182816e5525cfe47efc2acd"

GOLDEN_FULL_KEY = ("mcf|PRI-refcount+lazy|w8|n3000|u5000|s3|c100000|a0|"
                   "a97f0b28f335")
GOLDEN_FULL_ID = "b2ded20477cd737f"


def test_config_digest_goldens():
    assert config_digest(four_wide()) == GOLDEN_FOUR_WIDE
    assert config_digest(eight_wide()) == GOLDEN_EIGHT_WIDE
    assert config_digest(four_wide(), length=16) == GOLDEN_FOUR_WIDE_16


def test_job_key_golden_defaults():
    spec = JobSpec(benchmark="gzip", scheme="base")
    assert spec.key() == GOLDEN_BASE_KEY
    assert spec.job_id() == GOLDEN_BASE_ID
    assert cache_address(spec.key()) == GOLDEN_BASE_ADDR


def test_job_key_golden_every_axis_pinned():
    spec = JobSpec(benchmark="mcf", scheme="PRI-refcount+lazy", width=8,
                   length=3000, warmup=5000, seed=3, max_cycles=100000,
                   regs=72)
    assert spec.key() == GOLDEN_FULL_KEY
    assert spec.job_id() == GOLDEN_FULL_ID


def test_cell_key_agrees_with_job_key():
    """The serving tier and the sweep journal must never disagree on
    simulation identity — one derivation, two consumers."""
    spec = JobSpec(benchmark="gzip", scheme="base")
    assert cell_key("gzip", "base", 4, RunSpec()) == spec.key()


def test_digest_independent_of_dict_ordering():
    """The digest is over sort_keys JSON: feeding the same fields in a
    scrambled insertion order must not move it."""
    fields = config_to_dict(four_wide())
    scrambled = dict(sorted(fields.items(), reverse=True))
    assert scrambled != {} and list(scrambled) != list(fields)
    assert (json.dumps(scrambled, sort_keys=True)
            == json.dumps(fields, sort_keys=True))


def test_digest_sensitive_to_every_field_value():
    """Any changed config value must move the digest (no field is
    silently outside the key)."""
    base = config_to_dict(four_wide())
    digest = config_digest(four_wide())
    for name, value in base.items():
        if isinstance(value, bool):
            mutated = four_wide().__class__(**{**base, name: not value})
        elif isinstance(value, int):
            mutated = four_wide().__class__(**{**base, name: value + 1})
        elif isinstance(value, str):
            mutated = four_wide().__class__(**{**base, name: value + "x"})
        else:
            continue
        assert config_digest(mutated) != digest, (
            f"config field {name!r} does not move the digest")


def test_ids_are_prefix_stable_hashes():
    """id and cache address are both SHA-256 prefixes of the key —
    deterministic, process-independent, PYTHONHASHSEED-immune."""
    key = GOLDEN_BASE_KEY
    assert cid_of(key) == GOLDEN_BASE_ID
    assert cache_address(key).startswith(cid_of(key))


@pytest.mark.parametrize("a,b", [
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="mcf")),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", scheme="ER")),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", width=8)),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", length=5999)),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", warmup=19999)),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", seed=2)),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", max_cycles=1)),
    (JobSpec(benchmark="gzip"), JobSpec(benchmark="gzip", regs=63)),
])
def test_every_job_axis_separates_keys(a, b):
    assert a.key() != b.key()
    assert a.job_id() != b.job_id()
