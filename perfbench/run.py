"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-all --seed 1 --seconds 10 --trace 0

Runs from the repository root: builds nothing, imports the program from
``src/``, runs the named workload's operation until ``--seconds`` have
passed (at least once), checks its outputs, and prints one JSON object
as its last line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
operation once untraced and once under the layer tracer, and reports
the per-layer metrics plus the tracer's overhead.  ``BENCHMARK.json``
lists the metrics and why each workload exists.  Scratch files live in
``.bench_work/`` under the root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run, counting the one before each repeated operation;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Modules a workload imports before its first operation.
IMPORTS = ("repro.experiments.__main__", "repro.vector", "repro.serve")



def _contract() -> Dict[str, List[Dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _import_seconds() -> float:
    """Import time of the program's modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in IMPORTS)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result, setup_s: float) -> Dict[str, float]:
    """End-to-end metrics of one untraced operation."""
    from perfbench.cells import distinct

    cells = distinct(result.deliveries)
    committed = sum(stats["committed"] for stats in cells.values())
    worker_mb = result.extra.get("worker_rss_kb", 0) / 1024.0
    jobs = result.extra.get("jobs", len(cells))
    return {
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "sim_instr_per_s": committed / result.wall_s,
        "jobs_per_s": jobs / result.wall_s,
        "peak_rss_mb": _rss_mb() + worker_mb,
        "ok_frac": 1.0 - result.failed / len(result.deliveries),
    }


def per_layer(result, untraced_wall: float, io_counter) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    from perfbench.cells import (distinct, model_counts, percentile,
                                 table2_error_pct)
    from perfbench.layers import layer_metrics

    out = layer_metrics(result.spans)
    out.update(model_counts(distinct(result.deliveries)))
    out["model.table2_err_pct"] = table2_error_pct(result.deliveries) or 0.0
    out["store.fsyncs"] = io_counter.fsyncs
    out["store.bytes_written"] = io_counter.bytes_written
    hits = [d.latency_s * 1e3 for d in result.deliveries if d.hit]
    misses = [d.latency_s * 1e3 for d in result.deliveries if not d.hit]
    for kind, samples, tail in (("hit", hits, 99), ("miss", misses, 90)):
        out[f"latency.{kind}_samples"] = len(samples)
        for q in (50, tail):
            out[f"latency.{kind}_p{q}_ms"] = (percentile(samples, q)
                                              if samples else 0.0)
    server = result.extra.get("server", {})
    spans = result.spans
    for name in ("submit", "result"):
        durations = [s.duration * 1e3 for s in spans
                     if s.name == f"serve.{name}"]
        out[f"serve.{name}_p50_ms"] = (percentile(durations, 50)
                                       if durations else 0.0)
    for name in ("cache_hits", "inflight_dedup", "misses", "batches",
                 "simulations"):
        out[f"serve.{name}"] = server.get(name, 0)
    sim_wall = server.get("sim_wall_seconds", 0.0)
    out["serve.sim_wall_s"] = sim_wall
    sims = server.get("simulations", 0)
    out["serve.miss_overhead_ms"] = (
        percentile(misses, 50) - sim_wall / sims * 1e3 if sims and misses
        else 0.0)
    out["trace_overhead_pct"] = (result.wall_s - untraced_wall) / untraced_wall * 100.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              f"(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(1, SRC)
    from perfbench import cells, layers
    from perfbench.spans import Recorder
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {sorted(WORKLOADS)})")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.perf_counter()
    for module in IMPORTS:
        __import__(module)
    import_s = time.perf_counter() - started
    workload = WORKLOADS[args.workload](args.seed, work)
    recorder = Recorder(os.path.join(work, "spool"))
    io_counter = layers.IoCounter()
    try:
        setups: List[float] = []

        def prepare() -> None:
            # The first set-up pays this process's own imports; later
            # ones time the same imports in a fresh interpreter.
            started = time.perf_counter()
            workload.prepare()
            elapsed = time.perf_counter() - started
            setups.append(elapsed + (_import_seconds() if setups else import_s))

        ops = 1 if args.trace else workload.OPS
        while len(setups) < max(1, SETUP_REPEATS - (ops - 1)):
            prepare()
        results = []
        layers.install(recorder, traced=False)
        try:
            deadline = time.perf_counter() + args.seconds
            while True:
                recorder.run = f"{args.workload}-op{len(results)}"
                results.append(workload.run(recorder))
                if args.trace or (len(results) >= ops
                                  and time.perf_counter() >= deadline):
                    break
                prepare()
        finally:
            layers.uninstall(recorder)
        if args.trace:
            prepare()
            io_counter.reset()
            layers.install(recorder, traced=True, io_counter=io_counter)
            recorder.run = f"{args.workload}-op{len(results)}-traced"
            try:
                results.append(workload.run(recorder))
            finally:
                layers.uninstall(recorder, io_counter)
        correct = True
        digests = set()
        for result in results:
            try:
                workload.check(result)
                digests.add(cells.stats_digest(cells.distinct(result.deliveries)))
            except AssertionError as err:
                print(f"check failed: {err}", file=sys.stderr)
                correct = False
        if len(digests) > 1:
            print("check failed: operations delivered different stats",
                  file=sys.stderr)
            correct = False
        wanted = {m["name"]: m["unit"] for m in
                  _contract()["per_layer" if args.trace else "end_to_end"]}
        metrics: Dict[str, float] = {}
        if correct:
            print(f"stats_digest {args.workload} seed={args.seed} "
                  f"{digests.pop()}")
            if args.trace:
                metrics = per_layer(results[-1], results[0].wall_s, io_counter)
            else:
                setup_s = statistics.median(setups)
                per_op = [end_to_end(r, setup_s) for r in results]
                metrics = {name: statistics.median(op[name] for op in per_op)
                           for name in per_op[0]}
            if set(metrics) != set(wanted):
                raise RuntimeError(
                    f"metrics {sorted(set(metrics) ^ set(wanted))} "
                    f"disagree with BENCHMARK.json")
        attempted = sum(len(r.deliveries) for r in results)
        failed = sum(r.failed for r in results)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Every thread and process the run started is stopped by now; skip
    # the interpreter's teardown of the operation's heap (about a second
    # after paper-all), which no metric covers.
    os._exit(code)
