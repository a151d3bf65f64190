"""Run the throughput benchmark matrix and persist a bench artifact.

The measured configurations mirror ``benchmarks/test_simulator_throughput.py``
(the CI-visible throughput suite): the base Table 1 four-wide machine
and the PRI machine, on the same gzip trace.  Timing uses
best-of-``rounds`` wall clock including :class:`~repro.core.machine.Machine`
construction — exactly the shape the pytest benchmark times — so a
bench artifact and the benchmark suite agree on what "throughput"
means.  Every timed run gets its own :meth:`~repro.workloads.Trace.fresh_copy`
of the trace, made outside the timed region, so each still pays one
full functional warmup instead of installing the warm state an earlier
round left on a shared trace.

Schema 2 adds a **backend dimension** per config: alongside the scalar
single-run timing, each config's Figure-9-style PRF sweep column
(:data:`BENCH_COLUMN_SIZES`, 8 lanes) is timed twice — once as eight
scalar runs, once as one batched column on :mod:`repro.vector` — and
the aggregate cycles/sec plus the ``speedup_ratio`` between them are
recorded, together with the honest cost accounting (coherence groups,
forks, machine-cycles actually simulated).  The vector dimension is
skipped, not faked, when numpy is unavailable.

The artifact is a :mod:`repro.store` envelope (kind ``bench``, schema
:data:`BENCH_SCHEMA`), so corruption is detected at load time and
``python -m repro.store fsck`` can audit a tree of them.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional, Tuple

from repro.config import four_wide
from repro.core.machine import Machine
from repro.store import (
    ArtifactError,
    ArtifactMeta,
    SchemaMismatch,
    read_json_artifact,
    write_json_artifact,
)
from repro.workloads import generate_trace

#: Envelope kind and payload schema version for bench artifacts.  Bump
#: the schema whenever a field changes meaning; ``compare`` refuses to
#: diff artifacts whose schema it does not understand.
BENCH_KIND = "bench"
BENCH_SCHEMA = 2

#: Schemas :func:`read_bench` understands.  Schema 1 artifacts (no
#: backend dimension) remain readable so the committed CI baseline keeps
#: working; ratio gating against one raises a typed error in ``compare``.
READABLE_SCHEMAS: Tuple[int, ...] = (1, 2)

#: The measured machine configurations, in report order.
BENCH_CONFIGS: Tuple[str, ...] = ("base", "pri")

#: The trace every config is timed on (mirrors the benchmark suite).
DEFAULT_TRACE = {"benchmark": "gzip", "length": 2000, "seed": 5, "warmup": 4000}

#: The 8-lane PRF sweep column the vector dimension measures: the upper
#: (saturated) half of a Figure-9 size sweep, where lanes rarely hit
#: register exhaustion and therefore share one machine.  The per-config
#: ``groups``/``forks`` counters record how much sharing actually
#: happened, so the ratio is auditable rather than assumed.
BENCH_COLUMN_SIZES: Tuple[int, ...] = (256, 288, 320, 352, 384, 416, 448, 480)

DEFAULT_ROUNDS = 5


def _config_for(name: str):
    if name == "base":
        return four_wide()
    if name == "pri":
        return four_wide().with_pri()
    raise ValueError(f"unknown bench config {name!r}")


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    if platform.system() == "Darwin":
        return usage // 1024
    return usage


def _bench_column(cfg, trace, rounds: int,
                  sizes: Tuple[int, ...]) -> Optional[Dict[str, Any]]:
    """Time ``cfg``'s PRF sweep column both ways; None without numpy.

    The scalar leg runs each size as its own machine (what a sweep
    would have cost before this backend existed); the vector leg runs
    the identical lanes as one batched column.  Both legs are
    best-of-``rounds`` including machine construction, and the aggregate
    throughput counts the *scalar-equivalent* cycles — the per-lane
    cycle totals — for both, so the two ``cycles_per_sec`` figures (and
    their ratio) measure the same work.
    """
    try:
        from repro.vector import Lane, run_column
    except ImportError:
        return None

    configs = [cfg.with_phys_regs(size) for size in sizes]
    scalar_best = None
    lane_cycles = 0
    for _ in range(max(1, rounds)):
        runs = [(c, trace.fresh_copy()) for c in configs]
        t0 = time.perf_counter()
        lane_cycles = sum(Machine(c).run(t).cycles for c, t in runs)
        elapsed = time.perf_counter() - t0
        if scalar_best is None or elapsed < scalar_best:
            scalar_best = elapsed
    vector_best = None
    outcome = None
    for _ in range(max(1, rounds)):
        fresh = trace.fresh_copy()
        lanes = [Lane(key=str(size), config=c, trace=fresh)
                 for size, c in zip(sizes, configs)]
        t0 = time.perf_counter()
        outcome = run_column(lanes)
        elapsed = time.perf_counter() - t0
        if vector_best is None or elapsed < vector_best:
            vector_best = elapsed
    return {
        "lanes": list(sizes),
        "groups": outcome.groups,
        "forks": outcome.forks,
        #: Scalar-equivalent work: summed per-lane cycle counts.
        "lane_cycles": lane_cycles,
        #: Machine-cycles the column actually simulated (sharing makes
        #: this smaller than lane_cycles; the gap is the speedup source).
        "cycles_simulated": outcome.cycles_simulated,
        "seconds": vector_best,
        "scalar_sweep_seconds": scalar_best,
        "cycles_per_sec": lane_cycles / vector_best if vector_best else 0.0,
        "scalar_cycles_per_sec": (
            lane_cycles / scalar_best if scalar_best else 0.0
        ),
        "speedup_ratio": (
            scalar_best / vector_best if vector_best else 0.0
        ),
    }


def run_bench(
    rounds: int = DEFAULT_ROUNDS,
    trace_spec: Optional[Dict[str, Any]] = None,
    configs: Tuple[str, ...] = BENCH_CONFIGS,
    column_sizes: Tuple[int, ...] = BENCH_COLUMN_SIZES,
) -> Dict[str, Any]:
    """Time each config and return a schema-``BENCH_SCHEMA`` payload.

    ``trace_spec`` overrides the measured trace (tests use a tiny one);
    the spec is recorded in the payload so ``compare`` can refuse to
    diff measurements of different workloads.  ``column_sizes`` sets the
    vector dimension's sweep column (empty tuple skips it).
    """
    spec = dict(DEFAULT_TRACE, **(trace_spec or {}))
    trace = generate_trace(
        spec["benchmark"], spec["length"], seed=spec["seed"],
        warmup=spec["warmup"],
    )
    results: Dict[str, Dict[str, Any]] = {}
    for name in configs:
        cfg = _config_for(name)
        best = None
        stats = None
        for _ in range(max(1, rounds)):
            fresh = trace.fresh_copy()
            t0 = time.perf_counter()
            stats = Machine(cfg).run(fresh)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        results[name] = {
            "seconds": best,
            "cycles": stats.cycles,
            "instrs": stats.committed,
            "cycles_per_sec": stats.cycles / best if best else 0.0,
            "instrs_per_sec": stats.committed / best if best else 0.0,
        }
        if column_sizes:
            vector = _bench_column(cfg, trace, rounds, tuple(column_sizes))
            if vector is not None:
                results[name]["vector"] = vector
    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "peak_rss_kb": _peak_rss_kb(),
        "rounds": rounds,
        "trace": spec,
        "configs": results,
    }


def default_bench_path(directory: str = ".") -> str:
    """``BENCH_<date>.json`` in ``directory`` (the conventional name the
    CI baseline lookup globs for)."""
    return os.path.join(
        directory, f"BENCH_{datetime.date.today().isoformat()}.json"
    )


def latest_baseline(directory: str) -> Optional[str]:
    """The newest readable ``BENCH_*.json`` in ``directory``, by the
    payload's recorded ``created`` date (filename as the tiebreak), or
    None when the directory holds no readable bench artifact.

    This replaces the shell's ``ls | sort | tail -1``, which silently
    picks the wrong baseline the moment two files share a date suffix
    variant or names stop sorting chronologically — the *payload* date
    is the authoritative recency, and unreadable artifacts are skipped
    instead of crashing the comparison."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return None
    best: Optional[Tuple[str, str, str]] = None
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            payload, _ = read_bench(path)
        except (ArtifactError, OSError):
            continue  # damaged or foreign: never a baseline
        created = str(payload.get("created", ""))
        candidate = (created, name, path)
        if best is None or candidate > best:
            best = candidate
    return best[2] if best else None


def write_bench(path: str, payload: Dict[str, Any]) -> None:
    """Persist a bench payload as a checksummed store envelope."""
    write_json_artifact(path, BENCH_KIND, BENCH_SCHEMA, payload)


def read_bench(path: str) -> Tuple[Dict[str, Any], ArtifactMeta]:
    """Load and verify a bench artifact; raises the typed
    :class:`~repro.store.ArtifactError` family on damage or schema
    drift.  Accepts every schema in :data:`READABLE_SCHEMAS` — a
    schema-1 baseline simply has no per-config ``vector`` dimension."""
    payload, meta = read_json_artifact(path, BENCH_KIND)
    if meta.schema not in READABLE_SCHEMAS:
        raise SchemaMismatch(
            f"bench artifact {path} has schema {meta.schema}; this reader "
            f"understands {READABLE_SCHEMAS}",
            path=path, found=meta.schema, expected=BENCH_SCHEMA,
        )
    return payload, meta
