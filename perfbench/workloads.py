"""The workloads: set-up, one timed operation, output checks.

Each workload's operation is a closed loop driven from this process,
with at most two worker processes or client threads (the machine the
benchmark was calibrated on has two cores).  Trace caches start empty
on every operation, because a user pays trace generation on every
``--all``; every simulation uses the paper's 20k-instruction functional
warmup.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.cells import Delivery, mark_hits
from perfbench.layers import cell_info
from perfbench.spans import Recorder, Span

#: Timed instructions per simulated cell.  Short, because a run must
#: average under 35 s (see README) and per-cell cost at this length is
#: dominated by the fixed 20k-instruction warmup and trace generation
#: that every user also pays.
LENGTH = 200

#: The paper's functional warmup (``RunSpec`` default).
WARMUP = 20000

#: Cells (or jobs) re-simulated in-process to check a workload's output.
CHECK_SAMPLE = 3


class CheckFailed(AssertionError):
    """A workload produced wrong output."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Interface of a workload; ``run.py`` drives it."""

    name = ""
    #: Operations per untraced run; the end-to-end metrics are their
    #: medians.
    OPS = 1

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Set-up before an operation (timed as ``setup_s``)."""
        _fresh_trace_cache()

    def run(self, recorder: Recorder) -> "OpResult":
        raise NotImplementedError

    def check(self, result: "OpResult") -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class OpResult:
    """What one timed operation delivered."""

    def __init__(self, wall_s: float, deliveries: List[Delivery],
                 spans: List[Span]) -> None:
        self.wall_s = wall_s
        self.deliveries = deliveries
        self.spans = spans
        self.failed = sum(1 for d in deliveries if d.stats is None)
        #: Workload-specific facts (return codes, rendered text, ...).
        self.extra: Dict = {}


def _deliveries(spans: List[Span], names: Tuple[str, ...]) -> List[Delivery]:
    """Deliveries recorded on the outermost spans called ``names``, in
    delivery (end-time) order; a vector column yields one per lane."""
    ids = {s.sid for s in spans if s.name in names}
    out = []
    for span in sorted(spans, key=lambda s: s.end):
        if span.name not in names or span.parent in ids:
            continue
        for cell in span.info.get("cells", [span.info]):
            out.append(Delivery(cell["key"], span.duration, cell["stats"],
                                cell))
    mark_hits(out)
    return out


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    """Run ``python -m repro.experiments`` in process; (exit code, stdout)."""
    from repro.experiments.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _figure_lines(text: str) -> List[str]:
    """Rendered output without the ``[figure N: ...s]`` timing lines."""
    return [line for line in text.splitlines()
            if not line.startswith("[figure")]


def _fresh_trace_cache() -> None:
    """Empty the runner's process-wide trace cache."""
    import repro.experiments.runner as runner

    runner._GLOBAL_TRACES = runner.TraceCache()


def _sample(seed: int, items: List, benchmark_of) -> List:
    """A seeded sample of ``CHECK_SAMPLE`` items, all of one benchmark so
    that re-simulating them generates a single trace."""
    rng = random.Random(seed)
    benchmark = rng.choice(sorted({benchmark_of(item) for item in items}))
    mine = [item for item in items if benchmark_of(item) == benchmark]
    return rng.sample(mine, min(CHECK_SAMPLE, len(mine)))


# ================================================================ sweeps


class PaperAll(Workload):
    """``python -m repro.experiments --all`` in process: serial, both
    widths, no journal — the reproduction's north-star command."""

    name = "paper-all"
    TITLES = ("Table 1:", "Table 2:", "Figure 1:", "Figure 2:", "Figure 8:",
              "Figure 9:", "Figure 10:", "Figure 11:", "Figure 12:")

    def run(self, recorder: Recorder) -> OpResult:
        argv = ["--all", "--length", str(LENGTH), "--warmup", str(WARMUP),
                "--seed", str(self.seed)]
        start = time.perf_counter()
        rc, text = _run_cli(argv)
        wall = time.perf_counter() - start
        spans = recorder.take()
        result = OpResult(wall, _deliveries(
            spans, ("runner.run_one", "experiments.simulate")), spans)
        result.extra.update(rc=rc, text=text)
        return result

    def check(self, result: OpResult) -> None:
        _check(result.extra["rc"] == 0, f"exit code {result.extra['rc']}")
        for title in self.TITLES:
            _check(title in result.extra["text"], f"{title} not rendered")
        _check(len(result.deliveries) > 0, "no cells delivered")
        for delivery in result.deliveries:
            _check(delivery.stats is not None
                   and delivery.stats["committed"] == LENGTH,
                   f"{delivery.key} did not commit {LENGTH} instructions")


class ParallelSweep(Workload):
    """``--figure 11 --width 4 --jobs 2 --journal <fresh file>``: 52
    cells through the per-cell worker-process path, then the identical
    command again, which restores every cell from the journal (the
    resume path README advertises)."""

    name = "parallel-sweep"
    FIGURE = "11"
    #: Figure 11's schemes (``repro.experiments.figures.figure11``).
    SCHEMES = ("base", "ER", "PRI-refcount+ckptcount", "PRI+ER")

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        self.journal = os.path.join(work, "sweep-journal.json")

    def prepare(self) -> None:
        super().prepare()
        if os.path.exists(self.journal):
            os.remove(self.journal)

    def run(self, recorder: Recorder) -> OpResult:
        argv = ["--figure", self.FIGURE, "--width", "4", "--jobs", "2",
                "--journal", self.journal, "--length", str(LENGTH),
                "--warmup", str(WARMUP), "--seed", str(self.seed)]
        start = time.perf_counter()
        rc_fresh, text_fresh = _run_cli(argv)
        rc_resume, text_resume = _run_cli(argv)
        wall = time.perf_counter() - start
        spans = recorder.take()
        # A fresh cell's latency is its run_one call in the worker; its
        # stats are what the parent journaled.
        worker = {s.info["key"]: s for s in spans
                  if s.name == "runner.run_one" and "key" in s.info}
        deliveries = []
        for span in sorted(spans, key=lambda s: s.end):
            if span.name == "journal.record_ok":
                cell = span.info
                latency = worker[cell["key"]].duration if cell["key"] in worker else span.duration
            elif span.name == "journal.get" and "key" in span.info:
                cell = span.info
                latency = span.duration
            else:
                continue
            deliveries.append(Delivery(cell["key"], latency, cell["stats"],
                                       cell))
        mark_hits(deliveries)
        result = OpResult(wall, deliveries, spans)
        result.extra.update(rc=(rc_fresh, rc_resume),
                            text=(text_fresh, text_resume),
                            worker_rss_kb=max([s.info.get("rss_kb", 0)
                                               for s in spans] + [0]))
        return result

    def check(self, result: OpResult) -> None:
        from repro.experiments import (INT_BENCHMARKS, RunSpec, SweepJournal,
                                       TraceCache, cell_key, run_one)

        _check(result.extra["rc"] == (0, 0), f"exit codes {result.extra['rc']}")
        fresh, resumed = result.extra["text"]
        _check("Figure 11:" in fresh and _figure_lines(fresh)
               == _figure_lines(resumed), "resumed sweep rendered differently")
        hits = [d for d in result.deliveries if d.hit]
        misses = [d for d in result.deliveries if not d.hit]
        _check(len(misses) == len(hits) == 52,
               f"{len(misses)} fresh / {len(hits)} restored cells, want 52")
        journal = SweepJournal(self.journal)
        spec = RunSpec(length=LENGTH, warmup=WARMUP, seed=self.seed)
        cells = [(b, s) for b in INT_BENCHMARKS for s in self.SCHEMES]
        missing = [c for c in cells
                   if journal.get(cell_key(c[0], c[1], 4, spec)) is None]
        _check(not missing, f"journal lacks {missing}")
        traces = TraceCache()
        for benchmark, scheme in _sample(self.seed, cells, lambda c: c[0]):
            stored = journal.get(cell_key(benchmark, scheme, 4, spec))
            want = run_one(benchmark, scheme, 4, spec, traces)
            _check(stored.to_dict() == want.to_dict(),
                   f"journal cell {benchmark}/{scheme} differs from run_one")


class PrfSweep(Workload):
    """``--figure 9 --backend vector``: 13 SPECint benchmarks x PR 40-96
    x both widths as lockstep vector columns."""

    name = "prf-sweep"

    def run(self, recorder: Recorder) -> OpResult:
        argv = ["--figure", "9", "--backend", "vector", "--length",
                str(LENGTH), "--warmup", str(WARMUP), "--seed", str(self.seed)]
        start = time.perf_counter()
        rc, text = _run_cli(argv)
        wall = time.perf_counter() - start
        spans = recorder.take()
        result = OpResult(wall, _deliveries(spans, ("vector.run_column",)),
                          spans)
        result.extra.update(rc=rc, text=text)
        return result

    def check(self, result: OpResult) -> None:
        from repro.core.machine import simulate
        from repro.experiments import width_config
        from repro.workloads import generate_trace

        _check(result.extra["rc"] == 0, f"exit code {result.extra['rc']}")
        _check("Figure 9:" in result.extra["text"], "figure not rendered")
        _check(len(result.deliveries) == 13 * 7 * 2,
               f"{len(result.deliveries)} lanes delivered")
        by_key = {d.key: d for d in result.deliveries}
        sample = _sample(self.seed, sorted(by_key), lambda k: by_key[k].benchmark)
        trace = generate_trace(by_key[sample[0]].benchmark, LENGTH,
                               seed=self.seed, warmup=WARMUP)
        for key in sample:
            delivery = by_key[key]
            config = width_config(delivery.width).with_phys_regs(delivery.regs)
            _check(delivery.stats == simulate(config, trace).to_dict(),
                   f"vector lane {key} differs from scalar simulate")


# ================================================================ serve


class ServeMix(Workload):
    """Two closed-loop client threads calling ``ServeClient.fetch``
    against an in-process ``ServeServer`` whose cache set-up warmed.

    The seeded job list is mostly repeats of the warmed keys.  One
    request in ten is a cold key: a third of those go to both threads
    at once (in-flight dedup), a third are pairs that differ only in
    ``regs`` (coalescible into one vector column) and a third are
    independent.  The counts are fixed and only the positions and keys
    depend on the seed, so every seed asks for the same amount of work.
    A run makes three operations, each on a freshly booted server, and
    reports their medians: the host's speed can change within seconds.
    """

    name = "serve-mix"
    WARM_BENCHMARKS = ("gzip", "mcf")
    COLD_BENCHMARKS = ("gzip", "mcf", "gcc", "parser")
    WARM_SCHEMES = ("base", "PRI-refcount+ckptcount")
    COLD_SCHEMES = ("base", "ER", "PRI-refcount+ckptcount",
                    "PRI-refcount+lazy", "PRI-ideal+ckptcount",
                    "PRI-ideal+lazy", "PRI+ER")
    COLD_REGS = (None, 48, 80, 96)
    OPS = 3
    REQUESTS_PER_THREAD = 150
    COLD_PER_THREAD = 15

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        self.server = None
        self.client = None
        self._boots = 0
        self.warm = [self._job(b, s, w) for b in self.WARM_BENCHMARKS
                     for s in self.WARM_SCHEMES for w in (4, 8)]
        self.plan = self._plan()

    def _job(self, benchmark: str, scheme: str, width: int,
             regs: Optional[int] = None) -> Dict:
        job = {"benchmark": benchmark, "scheme": scheme, "width": width,
               "length": LENGTH, "warmup": WARMUP, "seed": self.seed}
        if regs is not None:
            job["regs"] = regs
        return job

    def _plan(self) -> Tuple[List[Dict], List[Dict]]:
        rng = random.Random(self.seed)
        warm_ids = {json.dumps(j, sort_keys=True) for j in self.warm}
        triples = [(b, s, w) for b in self.COLD_BENCHMARKS
                   for s in self.COLD_SCHEMES for w in (4, 8)]
        rng.shuffle(triples)
        used = set(warm_ids)

        def cold(triple, regs) -> Optional[Dict]:
            job = self._job(*triple, regs=regs)
            ident = json.dumps(job, sort_keys=True)
            if ident in used:
                return None
            used.add(ident)
            return job

        def next_cold() -> Dict:
            while True:
                triple = triples[rng.randrange(len(triples))]
                job = cold(triple, rng.choice(self.COLD_REGS))
                if job is not None:
                    return job

        cold_at = rng.sample(range(self.REQUESTS_PER_THREAD),
                             self.COLD_PER_THREAD)
        kinds = dict(zip(cold_at, [i % 3 for i in range(len(cold_at))]))
        plans: Tuple[List[Dict], List[Dict]] = ([], [])
        for position in range(self.REQUESTS_PER_THREAD):
            kind = kinds.get(position)
            if kind is None:
                plans[0].append(rng.choice(self.warm))
                plans[1].append(rng.choice(self.warm))
            elif kind == 0:  # the same cold key from both threads
                job = next_cold()
                plans[0].append(job)
                plans[1].append(job)
            elif kind == 1:  # two cold keys differing only in regs
                while True:
                    triple = triples[rng.randrange(len(triples))]
                    pair = (cold(triple, 48), cold(triple, 96))
                    if None not in pair:
                        break
                    for job in pair:
                        if job is not None:
                            used.discard(json.dumps(job, sort_keys=True))
                plans[0].append(pair[0])
                plans[1].append(pair[1])
            else:
                plans[0].append(next_cold())
                plans[1].append(next_cold())
        return plans

    def prepare(self) -> None:
        """Boot a fresh server and warm its cache with the repeat keys."""
        from repro.serve import ServeClient, ServeServer

        self.close()
        self._boots += 1
        root = os.path.join(self.work, f"serve-{self._boots}")
        shutil.rmtree(root, ignore_errors=True)
        self.server = ServeServer(root).start()
        self.client = ServeClient(self.server.url, timeout=60.0)
        ids = [self.client.submit(job)["id"] for job in self.warm]
        for job_id in ids:
            record = self.client.wait(job_id, timeout=120.0)
            if record.get("state") != "done":
                raise CheckFailed(f"warm-up job {job_id} ended {record}")

    def run(self, recorder: Recorder) -> OpResult:
        from repro.core.stats import SimStats
        from repro.serve.jobs import parse_job

        client = self.client
        before = client.metrics()
        lock = threading.Lock()
        done_at: Dict[str, float] = {
            json.dumps(j, sort_keys=True): 0.0 for j in self.warm}
        samples: List[List] = [[], []]
        errors: List[BaseException] = []

        def drive(index: int) -> None:
            try:
                for job in self.plan[index]:
                    ident = json.dumps(job, sort_keys=True)
                    start = time.perf_counter()
                    record = client.fetch(job, timeout=120.0)
                    end = time.perf_counter()
                    with lock:
                        hit = done_at.get(ident, end) < start
                        done_at.setdefault(ident, end)
                    samples[index].append((end, end - start, hit, job, record))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,)) for i in (0, 1)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        after = client.metrics()
        spans = recorder.take()

        # A fetch is a hit when some fetch of its key had completed before
        # it started: a concurrent duplicate waited on the simulation, so
        # it is a miss even though the key repeats.
        deliveries = []
        infos: Dict[str, Dict] = {}
        for end, latency, hit, job, record in sorted(samples[0] + samples[1],
                                                     key=lambda s: s[0]):
            ident = json.dumps(job, sort_keys=True)
            if ident not in infos:
                spec = parse_job(job)
                infos[ident] = cell_info(spec.benchmark, LENGTH, WARMUP,
                                         self.seed, spec.config(), None)
            stats = record.get("stats") if record.get("state") == "done" else None
            if stats is not None:
                stats = SimStats.from_dict(stats).to_dict()
            delivery = Delivery(infos[ident]["key"], latency, stats,
                                infos[ident])
            delivery.hit = hit
            deliveries.append(delivery)
        result = OpResult(wall, deliveries, spans)
        warm = {json.dumps(j, sort_keys=True) for j in self.warm}
        result.extra.update(
            jobs=len(deliveries),
            server={k: after[k] - before[k] for k in (
                "cache_hits", "inflight_dedup", "misses", "batches",
                "simulations", "sim_wall_seconds")},
            cold_keys=len(set(infos) - warm),
            states=[record.get("state") for *_, record in samples[0] + samples[1]],
        )
        return result

    def check(self, result: OpResult) -> None:
        from repro.experiments import TraceCache, run_one
        from repro.serve.jobs import parse_job

        bad = [s for s in result.extra["states"] if s != "done"]
        _check(not bad, f"{len(bad)} fetches did not end done")
        _check(result.extra["server"]["simulations"] == result.extra["cold_keys"],
               f"server ran {result.extra['server']['simulations']} "
               f"simulations for {result.extra['cold_keys']} cold keys")
        plain = {json.dumps(j, sort_keys=True): j for plan in self.plan
                 for j in plan if "regs" not in j}
        by_key = {d.key: d for d in result.deliveries}
        traces = TraceCache()
        for ident in _sample(self.seed, sorted(plain),
                             lambda i: plain[i]["benchmark"]):
            spec = parse_job(plain[ident])
            want = run_one(spec.benchmark, spec.scheme, spec.width,
                           spec.run_spec(), traces)
            key = cell_info(spec.benchmark, LENGTH, WARMUP, self.seed,
                            spec.config(), None)["key"]
            _check(by_key[key].stats == want.to_dict(),
                   f"served {key} differs from run_one")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (PaperAll, ParallelSweep, PrfSweep,
                                       ServeMix)}
