"""Experiment runner: scheme registry, trace caching, and sweep drivers.

The scheme names follow the paper's Figures 10 and 12 exactly:

============================  ==================================================
``base``                      conventional machine (free at redefiner commit)
``ER``                        prior-work early release (Moudgill counters/flags)
``PRI-refcount+ckptcount``    PRI, WAR via consumer refcounts, checkpoint
                              reference counting (the realistic design point)
``PRI-refcount+lazy``         PRI, consumer refcounts, lazy checkpoint patching
``PRI-ideal+ckptcount``       PRI, instantaneous payload-RAM update, ckpt counts
``PRI-ideal+lazy``            PRI, instantaneous payload-RAM update, lazy patch
``PRI+ER``                    PRI (refcount+ckptcount) combined with ER
``inf``                       unlimited physical registers (upper bound)
============================  ==================================================
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import (
    EFFECTIVELY_INFINITE_REGS,
    CheckpointPolicy,
    MachineConfig,
    WarPolicy,
    eight_wide,
    four_wide,
)
from repro.core.machine import Machine, SimulationError
from repro.core.stats import SimStats
from repro.experiments.journal import SweepJournal, cell_key
from repro.isa.registers import NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS
from repro.workloads import SPEC_FP, SPEC_INT, PackedOps, Trace, generate_trace

#: Traces one :class:`TraceCache` holds before evicting the oldest.
#: ``--all`` uses 27 distinct traces, so a whole paper run never evicts.
TRACE_CACHE_LIMIT = 32

#: Serialises trace builds (see :meth:`TraceCache.get`).
_BUILD_LOCK = threading.Lock()


#: Scheme name -> config transformer.
SCHEMES: Dict[str, Callable[[MachineConfig], MachineConfig]] = {
    "base": lambda c: c,
    "ER": lambda c: c.with_early_release(),
    "PRI-refcount+ckptcount": lambda c: c.with_pri(
        WarPolicy.REFCOUNT, CheckpointPolicy.CKPTCOUNT
    ),
    "PRI-refcount+lazy": lambda c: c.with_pri(WarPolicy.REFCOUNT, CheckpointPolicy.LAZY),
    "PRI-ideal+ckptcount": lambda c: c.with_pri(WarPolicy.IDEAL, CheckpointPolicy.CKPTCOUNT),
    "PRI-ideal+lazy": lambda c: c.with_pri(WarPolicy.IDEAL, CheckpointPolicy.LAZY),
    "PRI+ER": lambda c: c.with_pri(
        WarPolicy.REFCOUNT, CheckpointPolicy.CKPTCOUNT
    ).with_early_release(),
    "inf": lambda c: c.with_phys_regs(EFFECTIVELY_INFINITE_REGS),
}

#: The scheme series of Figures 10 and 12, in the paper's legend order.
FIGURE10_SCHEMES: Tuple[str, ...] = (
    "ER",
    "PRI-refcount+ckptcount",
    "PRI-refcount+lazy",
    "PRI-ideal+ckptcount",
    "PRI-ideal+lazy",
    "PRI+ER",
    "inf",
)

INT_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in SPEC_INT)
FP_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in SPEC_FP)


def width_config(width: int) -> MachineConfig:
    """The Table 1 machine for a given issue width."""
    if width == 4:
        return four_wide()
    if width == 8:
        return eight_wide()
    raise ValueError(f"no Table 1 machine with width {width}")


@dataclass
class RunSpec:
    """How much work each simulation does.

    The paper runs 100M instructions after 400M of fast-forward; a Python
    cycle simulator cannot, so the defaults are small and every driver
    takes a spec so callers can scale up.
    """

    length: int = 6000
    warmup: int = 20000
    seed: int = 1
    #: In-simulator deadlock watchdog: abort the cell (with
    #: :class:`SimulationError`) if it needs more than this many cycles,
    #: instead of silently truncating.  None = unbounded.
    max_cycles: Optional[int] = None
    #: Run every cell with the invariant auditor attached
    #: (:mod:`repro.audit`); bookkeeping corruption then fails the cell
    #: loudly instead of skewing its results.
    audit: bool = False
    #: Run every cell under the golden-model differential oracle
    #: (:mod:`repro.oracle`); a committed value, branch outcome, or
    #: memory effect that diverges from in-order execution fails the cell
    #: with a structured :class:`~repro.oracle.OracleDivergence`.
    oracle: bool = False


#: The fewest physical registers per class that hold the architected
#: state (the smallest ``@PR=<n>``).
MIN_PHYS_REGS = max(NUM_INT_ARCH_REGS, NUM_FP_ARCH_REGS)


def _pri(config: MachineConfig, **fields) -> MachineConfig:
    return dataclasses.replace(config,
                               pri=dataclasses.replace(config.pri, **fields))


#: The suffixes a scheme name may carry, in the order :func:`scheme_name`
#: spells them: key -> (the range of ``n`` in ``@<key>=<n>``, or None
#: for a bare ``@<key>`` flag; apply it to a config).
SUFFIXES: Dict[str, Tuple[Optional[range], Callable]] = {
    "PR": (range(MIN_PHYS_REGS, 65537), MachineConfig.with_phys_regs),
    "bits": (range(1, 65), lambda c, n: _pri(c, int_width_bits=n)),
    "ckpts": (range(1, 4097),
              lambda c, n: dataclasses.replace(c, max_checkpoints=n)),
    "sched": (range(1, 4097),
              lambda c, n: dataclasses.replace(c, scheduler_entries=n)),
    "replay": (None, lambda c: _pri(c, war_policy=WarPolicy.REPLAY)),
    "vp": (None, MachineConfig.with_virtual_physical),
    "li": (None, lambda c: _pri(c, inline_on_load_immediate=True)),
}


def _resolve(scheme: str, width: int) -> Tuple[MachineConfig, List[str]]:
    """Parse ``scheme``; its config at ``width`` without the spec's
    overlays, and its suffixes in canonical spelling and order, each
    kept only if it changes the machine."""
    name, *suffixes = scheme.split("@")
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r} in {scheme!r}")
    values = {}
    for suffix in suffixes:
        key, _, text = suffix.partition("=")
        if key not in SUFFIXES:
            raise ValueError(f"unknown suffix @{suffix} in scheme {scheme!r}")
        allowed = SUFFIXES[key][0]
        if allowed is None:
            good, usage = suffix == key, f"@{key} takes no value"
        else:
            good = text.isdigit() and int(text) in allowed
            usage = f"@{key}=<n> takes n in {allowed[0]}..{allowed[-1]}"
        if not good:
            raise ValueError(f"bad suffix @{suffix} in scheme {scheme!r}: "
                             f"{usage}")
        values[key] = (int(text),) if allowed else ()
    config = SCHEMES[name](width_config(width))
    kept = []
    for key, (_, apply) in SUFFIXES.items():
        changed = apply(config, *values[key]) if key in values else config
        if changed != config:
            kept.append("=".join([f"@{key}", *map(str, values[key])]))
            config = changed
    return config, kept


def scheme_name(scheme: str, width: int) -> str:
    """The one spelling of ``scheme`` at ``width``: its suffixes in
    :data:`SUFFIXES` order, less those that leave the machine as it is
    (``base@PR=64`` is ``base`` at both widths).  Plans name their
    cells this way, so two spellings of one machine never make two
    cells."""
    return scheme.split("@")[0] + "".join(_resolve(scheme, width)[1])


def resolve_config(scheme: str, width: int, spec: "RunSpec") -> MachineConfig:
    """The fully resolved machine config one cell simulates: the Table 1
    machine for ``width``, the scheme transformer, the scheme's
    :data:`SUFFIXES` (``base@PR=40``, ``PRI-refcount+lazy@replay``),
    and the spec's audit / oracle overlays.  An unknown scheme or a
    malformed, unknown or out-of-range suffix raises ``ValueError``
    naming it.  This single resolution path feeds both
    :func:`run_one` and the journal's cell keys, so a config change can
    never reuse a stale journal entry."""
    config = _resolve(scheme, width)[0]
    if spec.audit:
        config = config.with_audit()
    if spec.oracle:
        config = config.with_oracle()
    return config


class TraceCache:
    """Per-process FIFO cache: one trace per (benchmark, length, warmup,
    seed), at most :data:`TRACE_CACHE_LIMIT` of them.  ``spec`` is any
    object with those three workload fields (a :class:`RunSpec`, or a
    serve job spec).  Each trace's warm state lives on the trace, so the
    same bound and eviction cover it."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, int, int, int], Trace] = {}

    @staticmethod
    def key(benchmark: str, spec) -> Tuple[str, int, int, int]:
        """The trace ``get(benchmark, spec)`` returns is keyed by this:
        a cell's trace group.  Width is not part of it."""
        return (benchmark, spec.length, spec.warmup, spec.seed)

    def holds(self, key: Tuple[str, int, int, int]) -> bool:
        """Whether the trace of ``key`` is cached (``get`` would not
        generate it)."""
        return key in self._cache

    def get(self, benchmark: str, spec) -> Trace:
        key = self.key(benchmark, spec)
        trace = self._cache.get(key)
        if trace is None:
            if len(self._cache) >= TRACE_CACHE_LIMIT:
                self._cache.pop(next(iter(self._cache)))
            # A cached trace is immutable and acyclic and lives until
            # evicted: its warmup prefix is one packed array, but its
            # timed ops are MicroOps (hundreds of thousands of objects
            # at a long --length), and every collection that walks them
            # frees nothing.  So: collect first (garbage that
            # is already waiting must not be frozen with them), build
            # with the cyclic collector paused (allocating them would
            # otherwise trigger collections that walk them), then freeze
            # them, with everything else alive now, out of the
            # collector's generations.  Reference counting still frees
            # them on eviction.  The lock keeps two threads from seeing
            # each other's pause as the collector's prior state.
            with _BUILD_LOCK:
                gc.collect()
                enabled = gc.isenabled()
                gc.disable()
                try:
                    trace = generate_trace(
                        benchmark, spec.length, seed=spec.seed,
                        warmup=spec.warmup
                    )
                finally:
                    if enabled:
                        gc.enable()
                gc.freeze()
            self._cache[key] = trace
        return trace

    def stream_prefix(self, benchmark: str, seed: int, n: int) -> PackedOps:
        """The first ``n`` ops of ``benchmark``'s op stream at ``seed``,
        packed: the ops of ``generate_trace(benchmark, n, seed=seed,
        warmup=0)``.

        A trace's warmup prefix is the start of that same stream and its
        timed ops continue it, so any cached trace of (benchmark, seed)
        whose warmup plus length covers ``n`` already holds them.
        Otherwise they are generated as the packed warmup prefix of an
        empty trace, so no ``MicroOp`` is built, and not cached.  Only
        the ops are returned: a cached trace's ``initial_int`` /
        ``initial_fp`` are the registers after its warmup, not at the
        start of the stream.
        """
        for (name, length, warmup, trace_seed), trace in self._cache.items():
            if name == benchmark and trace_seed == seed and warmup + length >= n:
                ops = trace.warmup_ops[:n]
                return ops + PackedOps.pack(trace.ops[:n - len(ops)])
        return generate_trace(benchmark, 0, seed=seed, warmup=n).warmup_ops


_GLOBAL_TRACES = TraceCache()


def _simulate_cell(
    benchmark: str,
    scheme: str,
    width: int,
    spec: RunSpec,
    traces: TraceCache,
) -> SimStats:
    """:func:`run_one`'s body.  A pool worker
    (:mod:`repro.experiments.pool`) and the serve executor call it
    directly."""
    config = resolve_config(scheme, width, spec)
    trace = traces.get(benchmark, spec)
    machine = Machine(config)
    stats = machine.run(trace, max_cycles=spec.max_cycles)
    if spec.max_cycles is not None and stats.committed < len(trace):
        # The cycle-limit watchdog: never return truncated statistics.
        raise SimulationError(
            f"cycle-limit watchdog: {benchmark}/{scheme} committed only "
            f"{stats.committed}/{len(trace)} instructions in "
            f"{spec.max_cycles} cycles"
        )
    return stats


def run_one(
    benchmark: str,
    scheme: str,
    width: int = 4,
    spec: Optional[RunSpec] = None,
    traces: Optional[TraceCache] = None,
) -> SimStats:
    """Simulate one (benchmark, scheme, width) cell.

    Honors ``spec.audit`` (attach the invariant auditor), ``spec.oracle``
    (attach the golden-model differential oracle), ``spec.max_cycles``
    (deadlock watchdog: a cell that fails to finish within the cycle
    budget raises :class:`SimulationError` rather than returning
    silently-truncated statistics).
    """
    return _simulate_cell(benchmark, scheme, width, spec or RunSpec(),
                          traces or _GLOBAL_TRACES)


# ================================================================ cells


@dataclass
class CellError:
    """Structured record of one failed (benchmark, scheme) sweep cell."""

    benchmark: str
    scheme: str
    #: ``error`` — the simulation raised (deterministic, not rerun);
    #: ``crash`` — the worker process died or stalled, on every attempt
    #: the pool's fixed rerun budget allowed
    #: (:data:`repro.experiments.pool.CRASH_RERUNS`).  Journals written
    #: before the wall-clock cell timeout was retired may also hold
    #: ``timeout`` records; they load like any other failure.
    kind: str
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "CellError":
        return cls(**data)

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.scheme}: {self.kind} "
            f"[{self.error_type}] {self.message} "
            f"(attempt {self.attempts}, {self.elapsed:.1f}s)"
        )


MatrixCell = Union[SimStats, CellError]


class MatrixError(RuntimeError):
    """A view of a results table (:func:`matrix_view`,
    :func:`run_matrix`) found failed cells.  The completed cells and the
    structured error records are attached, so a caller (or the journal)
    loses nothing."""

    def __init__(self, errors: List[CellError], results: Dict[str, Dict[str, MatrixCell]]):
        self.errors = errors
        self.results = results
        lines = "; ".join(str(e) for e in errors[:4])
        more = f" (+{len(errors) - 4} more)" if len(errors) > 4 else ""
        super().__init__(f"{len(errors)} sweep cell(s) failed: {lines}{more}")


def matrix_errors(results: Dict[str, Dict[str, MatrixCell]]) -> List[CellError]:
    """All error records in a matrix, in benchmark-major order."""
    return [
        cell
        for row in results.values()
        for cell in row.values()
        if isinstance(cell, CellError)
    ]


#: One simulation a table or figure reads: (benchmark, scheme, width).
Cell = Tuple[str, str, int]
#: A results table: each cell's stats, or the record of its failure.
Results = Dict[Cell, MatrixCell]


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C or SIGTERM stopped :func:`run_cells`.  ``results`` is the
    part of its table that finished (restored cells included), so a
    caller can still render what is complete."""

    def __init__(self, results: Results) -> None:
        super().__init__(f"sweep interrupted after {len(results)} cell(s)")
        self.results = results


def run_cells(
    cells: Sequence[Cell],
    spec: Optional[RunSpec] = None,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    *,
    journal: Optional[Union[str, SweepJournal]] = None,
    cell_fn: Optional[Callable] = None,
) -> Results:
    """Simulate each distinct (benchmark, scheme, width) cell of
    ``cells`` once; the results table, in first-appearance order.  A
    failed cell stays in the table as its :class:`CellError`.

    Execution is fault-tolerant at cell granularity:

    * ``jobs > 1`` runs the cells, whatever their widths, on
      ``min(jobs, cells)`` forked worker processes
      (:mod:`repro.experiments.pool`), so one crashing cell can never
      take down the sweep: the dead worker is replaced and the cell
      reruns from cycle 0, a few times with backoff, before it is
      recorded as a ``crash``.  A deterministic simulation error is
      recorded at once and never rerun.  No cell needs a wall-clock
      bound: one that stops committing fails through the machine's
      no-commit watchdog, or ``spec.max_cycles``;
    * ``journal`` (a path or a :class:`SweepJournal`) names an on-disk
      journal: completed cells are restored from it instead of
      re-simulated, and every finished cell is persisted as it lands,
      so an interrupted sweep resumes.

    Ctrl-C or SIGTERM (raised as :class:`KeyboardInterrupt`) kills and
    reaps the workers and raises :class:`SweepInterrupted` with the
    finished part of the table.

    Results are bit-identical between serial and worker runs: traces
    are deterministic in (benchmark, spec).  The ``traces`` cache serves
    the serial path; each worker process keeps its own
    :class:`TraceCache`, since shipping whole traces between processes
    costs more than regenerating them, and is handed the cells of the
    traces it holds first (:func:`repro.experiments.pool.claim_order`).

    ``cell_fn`` overrides the per-cell simulation callable (signature of
    :func:`run_one`); it exists for fault-injection tests.
    """
    spec = spec or RunSpec()
    traces = traces or _GLOBAL_TRACES
    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)

    cells = list(dict.fromkeys(cells))
    results: Results = {}
    todo: List[Cell] = []
    for cell in cells:
        saved = None if journal is None else journal.get(cell_key(*cell, spec))
        if saved is None:
            todo.append(cell)
        else:
            results[cell] = saved

    def on_cell_done(cell: Cell, outcome: MatrixCell) -> None:
        results[cell] = outcome
        if journal is not None:
            key = cell_key(*cell, spec)
            if isinstance(outcome, CellError):
                journal.record_error(key, outcome.to_dict())
            else:
                journal.record_ok(key, outcome)

    try:
        if todo and jobs > 1:
            from repro.experiments.pool import run_pool  # imports this module

            run_pool(todo, spec, jobs, on_cell_done, cell_fn=cell_fn)
        else:
            cell_fn = cell_fn or run_one
            for benchmark, scheme, width in todo:
                started = time.monotonic()
                try:
                    outcome = cell_fn(benchmark, scheme, width, spec, traces)
                except Exception as exc:  # deterministic: no retry
                    outcome = CellError(
                        benchmark, scheme, "error", type(exc).__name__,
                        str(exc), 1, time.monotonic() - started,
                    )
                on_cell_done((benchmark, scheme, width), outcome)
    except KeyboardInterrupt as exc:
        raise SweepInterrupted(
            {cell: results[cell] for cell in cells if cell in results}
        ) from exc
    return {cell: results[cell] for cell in cells}


def run_matrix(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    width: int = 4,
    spec: Optional[RunSpec] = None,
    traces: Optional[TraceCache] = None,
    jobs: int = 1,
    **options,
) -> Dict[str, Dict[str, SimStats]]:
    """Simulate a benchmark x scheme matrix at one width; returns
    [benchmark][scheme].  The rectangle view of :func:`run_cells`, which
    runs it and takes ``options`` (``journal``, ``cell_fn``).  A failed
    cell raises :class:`MatrixError` — *after* every other cell has
    finished and been journaled — with the partial results attached; a
    caller that wants each :class:`CellError` kept calls
    :func:`run_cells`.
    """
    cells = [(b, s, width) for b in benchmarks for s in schemes]
    results = run_cells(cells, spec, traces, jobs, **options)
    return matrix_view(results, benchmarks, schemes, width)


def matrix_view(results: Results, benchmarks: Sequence[str],
                schemes: Sequence[str], width: int) -> Dict[str, Dict[str, SimStats]]:
    """One width's [benchmark][scheme] rectangle of ``results``; raises
    :class:`MatrixError` when any of its cells failed."""
    return cells_view(results,
                      [(b, s, width) for b in benchmarks for s in schemes])


def cells_view(results: Results, cells: Sequence[Cell]) -> Dict[str, Dict[str, SimStats]]:
    """The [benchmark][scheme] matrix of ``cells``, which share a width,
    in ``results``; raises :class:`MatrixError` when any of them failed."""
    matrix: Dict[str, Dict[str, MatrixCell]] = {}
    for benchmark, scheme, width in cells:
        matrix.setdefault(benchmark, {})[scheme] = results[benchmark, scheme, width]
    errors = matrix_errors(matrix)
    if errors:
        raise MatrixError(errors, matrix)
    return matrix


def speedups_over_base(
    results: Dict[str, Dict[str, MatrixCell]]
) -> Dict[str, Dict[str, float]]:
    """Convert a matrix including 'base' into per-scheme IPC speedups.

    Failed cells (:class:`CellError` records) are skipped; a benchmark
    whose 'base' cell failed is dropped entirely."""
    out: Dict[str, Dict[str, float]] = {}
    for benchmark, row in results.items():
        base = row.get("base")
        if not isinstance(base, SimStats):
            continue
        base_ipc = base.ipc
        out[benchmark] = {
            scheme: (stats.ipc / base_ipc if base_ipc else 0.0)
            for scheme, stats in row.items()
            if scheme != "base" and isinstance(stats, SimStats)
        }
    return out
