"""Which calls the benchmark wraps, and the per-layer metrics it derives.

Two wrapper sets, both installed from outside the program:

* the **delivery probe** (every run): the cell-level calls whose
  results the workload hands back — ``run_one``, Figure 9's
  ``simulate``, ``run_column`` and the sweep journal's ``record_ok`` /
  ``get``.  It is what the correctness checks, ``stats_digest`` and the
  hit/miss latencies read;
* the **layer tracer** (``--trace 1`` only): ``generate_trace``,
  ``Machine.run`` / ``Machine.warmup``, ``run_matrix``, the
  ``figure*`` / ``table*`` drivers, the Figure 2 analysis functions,
  both journals, ``ServeClient``, a ``repro.store`` I/O observer and a
  ``gc.callbacks`` hook that records each garbage collection.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
from typing import Dict, List, Optional

from perfbench.cells import sim_key, trace_identity
from perfbench.spans import Recorder, Span, busy, self_times

#: Figure/table drivers (names in ``repro.experiments``).
DRIVERS = ("table1", "table2", "figure1", "figure2", "figure8", "figure9",
           "figure10", "figure11", "figure12")

#: Figure 2's significance analysis (``repro.analysis``).
ANALYSIS = ("int_width_cdf", "fp_exponent_cdf", "fp_significand_cdf")


class IoCounter:
    """``repro.store`` I/O observer: fsyncs and bytes written."""

    def __init__(self) -> None:
        self.fsyncs = 0
        self.bytes_written = 0
        self._lock = threading.Lock()

    def __call__(self, event: Dict) -> None:
        op = event.get("op")
        with self._lock:
            if op == "fsync" or (op == "fsync_dir" and not event.get("skipped")):
                self.fsyncs += 1
            elif op in ("write", "append"):
                self.bytes_written += len(event.get("data") or b"")

    def reset(self) -> None:
        with self._lock:
            self.fsyncs = 0
            self.bytes_written = 0


_BASE_DIGESTS: Dict[int, str] = {}


def is_base(config) -> bool:
    """Whether ``config`` is the Table 1 machine of its width."""
    from repro.config import config_digest
    from repro.experiments.runner import width_config

    if config.width not in _BASE_DIGESTS:
        _BASE_DIGESTS[config.width] = config_digest(width_config(config.width))
    return config_digest(config) == _BASE_DIGESTS[config.width]


def cell_info(benchmark: str, trace_len: int, warmup: int, seed: int,
              config, stats) -> Dict:
    """JSON-able description of one delivered simulation."""
    return {
        "key": sim_key(benchmark, trace_len, warmup, seed, config),
        "benchmark": benchmark, "width": config.width,
        "regs": config.int_phys_regs, "base": is_base(config),
        "length": trace_len,
        "stats": stats.to_dict() if stats is not None else None,
    }


def journal_info(key: str, stats) -> Dict:
    """:func:`cell_info` of a sweep-journal cell key
    (``bench|scheme|wW|nN|uU|sS|cC|aA|digest``)."""
    parts = key.split("|")
    benchmark, width = parts[0], int(parts[2][1:])
    length, warmup, seed = (int(p[1:]) for p in parts[3:6])
    base_digest = _BASE_DIGESTS.get(width)
    if base_digest is None:
        from repro.experiments.runner import width_config

        is_base(width_config(width))
        base_digest = _BASE_DIGESTS[width]
    return {
        "key": f"{benchmark}|n{length}|u{warmup}|s{seed}|{parts[-1]}",
        "benchmark": benchmark, "width": width, "regs": None,
        "base": parts[-1] == base_digest, "length": length,
        "stats": stats.to_dict() if stats is not None else None,
    }


# ================================================================ install


def install(recorder: Recorder, traced: bool,
            io_counter: Optional[IoCounter] = None) -> None:
    """Install the delivery probe and, when ``traced``, the layer tracer.
    Every repro module the workloads reach must already be imported."""
    import repro.analysis as analysis
    import repro.experiments as experiments
    import repro.experiments.runner as runner
    import repro.store as store
    import repro.vector as vector
    from repro.core.machine import Machine
    from repro.experiments.figures import simulate as figures_simulate
    from repro.experiments.journal import SweepJournal
    from repro.serve.client import ServeClient
    from repro.serve.jobs import JobJournal
    from repro.workloads import generate_trace

    # run_one's cell description depends only on its arguments: memoize
    # it, since paper-all asks for 876 cells of 588 distinct kinds.
    run_one_cells: Dict[tuple, Dict] = {}

    def run_one_info(benchmark, scheme, width, spec, result) -> Dict:
        memo = (benchmark, scheme, width, spec.length, spec.warmup,
                spec.seed, spec.audit, spec.oracle)
        if memo not in run_one_cells:
            run_one_cells[memo] = cell_info(
                benchmark, spec.length, spec.warmup, spec.seed,
                runner.resolve_config(scheme, width, spec), None)
        return dict(run_one_cells[memo], stats=result.to_dict())

    def record_run_one(span, args, kwargs, result):
        benchmark, scheme = args[0], args[1]
        width = args[2] if len(args) > 2 else kwargs.get("width", 4)
        spec = (args[3] if len(args) > 3 else kwargs.get("spec")) or runner.RunSpec()
        if os.getpid() != recorder.main_pid:
            span.info["rss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        span.later = lambda: span.info.update(run_one_info(
            benchmark, scheme, width, spec, result))

    # Deferred bookkeeping keeps a trace's identity, never the trace:
    # holding traces until the operation ends would raise its peak RSS.
    def record_simulate(span, args, kwargs, result):
        config, trace = args[0], trace_identity(args[1])
        span.later = lambda: span.info.update(cell_info(
            *trace, config, result))

    def record_column(span, args, kwargs, outcome):
        lanes = [(lane.key, lane.config, trace_identity(lane.trace))
                 for lane in args[0]]

        def later():
            cells = []
            lane_cycles = 0
            for key, config, trace in lanes:
                result = outcome.results[key]
                cells.append(cell_info(*trace, config, result.stats))
                if result.stats is not None:
                    lane_cycles += result.stats.cycles
            span.info.update(cells=cells, lanes=outcome.lanes,
                             groups=outcome.groups, forks=outcome.forks,
                             cycles_simulated=outcome.cycles_simulated,
                             lane_cycles=lane_cycles)

        span.later = later

    def record_journal_ok(span, args, kwargs, result):
        key, stats = args[1], args[2]
        span.later = lambda: span.info.update(journal_info(key, stats))

    def record_journal_get(span, args, kwargs, result):
        if result is not None:
            key = args[1]
            span.later = lambda: span.info.update(journal_info(key, result))

    run_one = runner.run_one
    recorder.patch_function(run_one, recorder.wrap("runner.run_one", run_one,
                                                   record_run_one))
    # Figure 9's own scalar cells only: run_one reaches the same function
    # through the runner, and is recorded as run_one.
    recorder.patch_function(figures_simulate, recorder.wrap(
        "experiments.simulate", figures_simulate, record_simulate),
        prefixes=("repro.experiments.figures",))
    run_column = vector.run_column
    recorder.patch_function(run_column, recorder.wrap(
        "vector.run_column", run_column, record_column))
    recorder.patch_method(SweepJournal, "record_ok", recorder.wrap(
        "journal.record_ok", SweepJournal.record_ok, record_journal_ok))
    recorder.patch_method(SweepJournal, "get", recorder.wrap(
        "journal.get", SweepJournal.get, record_journal_get))
    if not traced:
        return

    def record_trace(span, args, kwargs, result):
        span.info["trace"] = [result.name, len(result),
                              len(result.warmup_ops), result.seed]

    def record_machine_run(span, args, kwargs, result):
        config, trace = args[0].cfg, trace_identity(args[1])
        span.info.update(cycles=result.cycles, committed=result.committed)
        span.later = lambda: span.info.update(key=sim_key(*trace, config))

    def record_matrix(span, args, kwargs, result):
        span.info.update(jobs=kwargs.get("jobs", args[5] if len(args) > 5 else 1),
                         cells=sum(len(row) for row in result.values()))

    recorder.patch_function(generate_trace, recorder.wrap(
        "workloads.generate_trace", generate_trace, record_trace))
    recorder.patch_method(Machine, "run", recorder.wrap(
        "core.run", Machine.run, record_machine_run))
    recorder.patch_method(Machine, "warmup", recorder.wrap(
        "core.warmup", Machine.warmup))
    run_matrix = runner.run_matrix
    recorder.patch_function(run_matrix, recorder.wrap(
        "runner.run_matrix", run_matrix, record_matrix))
    for name in DRIVERS:
        fn = getattr(experiments, name)
        recorder.patch_function(fn, recorder.wrap(f"experiments.{name}", fn))
    for name in ANALYSIS:
        fn = getattr(analysis, name)
        recorder.patch_function(fn, recorder.wrap(f"analysis.{name}", fn))
    for attr in ("__init__", "record_error"):
        recorder.patch_method(SweepJournal, attr, recorder.wrap(
            f"journal.{attr.strip('_')}", SweepJournal.__dict__[attr]))
    recorder.patch_method(JobJournal, "record", recorder.wrap(
        "journal.record", JobJournal.record))
    for attr in ("fetch", "submit", "wait", "result"):
        recorder.patch_method(ServeClient, attr, recorder.wrap(
            f"serve.{attr}", ServeClient.__dict__[attr]))
    if io_counter is not None:
        store.add_io_observer(io_counter)
    gc.callbacks.append(recorder.gc_callback)


def uninstall(recorder: Recorder, io_counter: Optional[IoCounter] = None) -> None:
    import repro.store as store

    recorder.uninstall()
    if io_counter is not None:
        store.remove_io_observer(io_counter)
    if recorder.gc_callback in gc.callbacks:
        gc.callbacks.remove(recorder.gc_callback)


# ================================================================ metrics


def _named(spans: List[Span], *names: str) -> List[Span]:
    return [s for s in spans if s.name in names]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced operation's spans (everything but
    the exact model counts and the serve counters, which come from the
    delivered cells and the server)."""
    by_id = {s.sid: s for s in spans}
    out: Dict[str, float] = {}

    traces = _named(spans, "workloads.generate_trace")
    identities = {tuple(s.info["trace"]) for s in traces}
    out["workloads.calls"] = len(traces)
    out["workloads.busy_s"] = busy(traces)
    out["workloads.unique_ratio"] = _ratio(len(identities), len(traces))
    out["workloads.regenerations"] = len(traces) - len(identities)

    runs = _named(spans, "core.run")
    warmups = _named(spans, "core.warmup")
    warm_in_run = sum(w.duration for w in warmups
                      if w.parent in by_id and by_id[w.parent].name == "core.run")
    cycles = sum(s.info["cycles"] for s in runs)
    keys = {s.info["key"] for s in runs}
    out["core.calls"] = len(runs)
    out["core.busy_s"] = busy(runs)
    out["core.warmup_s"] = busy(warmups)
    out["core.us_per_cycle"] = _ratio(busy(runs) - warm_in_run, cycles) * 1e6
    out["core.unique_ratio"] = _ratio(len(keys), len(runs))
    out["core.duplicate_runs"] = len(runs) - len(keys)

    selfs = self_times(spans)
    drivers = [s for s in spans if s.name.startswith("experiments.")
               and s.name.split(".", 1)[1] in DRIVERS]
    out["experiments.render_self_s"] = sum(selfs[s.sid] for s in drivers)
    out["analysis.figure2_s"] = busy(s for s in spans
                                     if s.name.startswith("analysis."))

    matrices = _named(spans, "runner.run_matrix")
    cells = sum(s.info["cells"] for s in matrices)
    sim_time = 0.0
    for run in runs:
        node = by_id.get(run.parent)
        while node is not None and node.name != "runner.run_matrix":
            node = by_id.get(node.parent)
        if node is not None:
            sim_time += run.duration
    worker_time = sum(s.duration * max(1, s.info["jobs"]) for s in matrices)
    out["runner.cells"] = cells
    out["runner.overhead_per_cell_s"] = _ratio(worker_time - sim_time, cells)

    collections = _named(spans, "python.gc")
    out["python.gc_s"] = sum(s.duration for s in collections)
    out["python.gc_collections"] = len(collections)

    journal = [s for s in spans if s.name.startswith("journal.")]
    out["journal.appends"] = len(_named(spans, "journal.record_ok",
                                        "journal.record_error",
                                        "journal.record"))
    out["journal.busy_s"] = busy(journal)

    columns = _named(spans, "vector.run_column")
    lanes = sum(s.info["lanes"] for s in columns)
    forks = sum(s.info["forks"] for s in columns)
    out["vector.calls"] = len(columns)
    out["vector.busy_s"] = busy(columns)
    out["vector.lanes"] = lanes
    out["vector.groups"] = sum(s.info["groups"] for s in columns)
    out["vector.forks"] = forks
    out["vector.fork_rate"] = _ratio(forks, lanes)
    out["vector.sharing_ratio"] = _ratio(
        sum(s.info["lane_cycles"] for s in columns),
        sum(s.info["cycles_simulated"] for s in columns))
    return out
