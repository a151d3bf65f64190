#!/usr/bin/env python
"""CI gate: the simulation service under concurrency and SIGKILL.

Boots the *real* server (``python -m repro.serve serve``, a separate
process), then drives the service-level contract end to end:

1. **Dedup + cache.**  N concurrent duplicate submissions plus distinct
   ones: every duplicate must collapse to one job id and one simulation;
   a re-submission must be answered from the cache; and both answers —
   and the server's answer vs. an in-process reference simulation — must
   be bit-identical.
2. **SIGKILL mid-queue.**  A second wave of jobs is acked, the server is
   SIGKILLed before they finish, and a fresh process takes over the same
   root: every acked job must reach ``done``, nothing acked may be lost,
   and nothing already cached may be simulated again.
3. **fsck.**  Whatever the kill left behind, the state tree must verify
   clean (after the restarted server's own recovery).

Exit 0 iff every assertion holds.  Scratch state lives under
``--scratch`` (default: a temp dir) so a red run can upload it as a CI
artifact.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _chaos_common import fsck_gate, report_failures  # noqa: E402

from repro.serve import JobSpec, ServeClient, ServeUnavailable  # noqa: E402

#: The workload axes: small enough for CI, wide enough to cover
#: distinct benchmarks, schemes and a regs sweep.
_BASE = {"benchmark": "gzip", "scheme": "PRI-refcount+lazy", "width": 4,
         "length": 1200, "warmup": 2500, "seed": 7}
_DISTINCT = [
    {**_BASE, "benchmark": "mcf"},
    {**_BASE, "scheme": "base"},
    {**_BASE, "regs": 56},
    {**_BASE, "regs": 72},
]
_WAVE2 = [
    {**_BASE, "benchmark": "swim"},
    {**_BASE, "benchmark": "mcf", "scheme": "base"},
    {**_BASE, "regs": 64},
]
_DUPLICATES = 8
_DEADLINE = 120.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn(root: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "serve", root,
         "--port", str(port)],
        env=env, cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_ping(client: ServeClient, deadline: float = 30.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            client.ping()
            return
        except ServeUnavailable:
            time.sleep(0.1)
    raise RuntimeError("server did not come up")


def _reference_stats(job: Dict) -> Dict:
    """The job simulated in-process — the gauntlet's own ground truth,
    independent of the server's execution path."""
    from repro.core.machine import Machine
    from repro.workloads import generate_trace

    spec = JobSpec(**job)
    trace = generate_trace(spec.benchmark, spec.length, seed=spec.seed,
                           warmup=spec.warmup)
    return Machine(spec.config()).run(trace).to_dict()


def _check_reference(client: ServeClient, jobs, failures: List[str]) -> None:
    """Each served ``(job id, job)``'s stats must equal the job's
    in-process reference simulation."""
    for job_id, job in jobs:
        if client.result(job_id).get("stats") != _reference_stats(job):
            failures.append(f"served stats of {job} diverge from the "
                            f"in-process reference simulation")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scratch", default=None,
                        help="state directory (kept for artifact upload)")
    args = parser.parse_args(argv)
    scratch = args.scratch or tempfile.mkdtemp(prefix="service-gauntlet-")
    root = os.path.join(scratch, "serve")
    os.makedirs(root, exist_ok=True)
    failures: List[str] = []

    # ------------------------------------------------- phase 1: dedup
    port = _free_port()
    proc = _spawn(root, port)
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=15.0)
    try:
        _wait_ping(client)
        responses: List[Dict] = []

        def submit_duplicate() -> None:
            responses.append(client.submit(dict(_BASE)))

        threads = [threading.Thread(target=submit_duplicate)
                   for _ in range(_DUPLICATES)]
        for thread in threads:
            thread.start()
        distinct_ids = [client.submit(job)["id"] for job in _DISTINCT]
        for thread in threads:
            thread.join()
        dup_ids = {r["id"] for r in responses}
        if len(dup_ids) != 1:
            failures.append(f"duplicate submissions got {len(dup_ids)} ids")
        base_id = responses[0]["id"]
        wave1 = [base_id] + distinct_ids
        for job_id in wave1:
            record = client.wait(job_id, timeout=_DEADLINE)
            if record.get("state") != "done":
                failures.append(f"wave-1 job {job_id} ended {record}")
        metrics = client.metrics()
        print(f"[phase 1] metrics: simulations={metrics['simulations']} "
              f"dedup={metrics['inflight_dedup']} "
              f"cache_hits={metrics['cache_hits']} "
              f"batches={metrics['batches']}")
        expected = len(set(wave1))
        if metrics["simulations"] != expected:
            failures.append(
                f"expected {expected} simulations for {expected} distinct "
                f"jobs, server ran {metrics['simulations']} — duplicates "
                f"were not deduplicated")
        if metrics["inflight_dedup"] + metrics["cache_hits"] < _DUPLICATES - 1:
            failures.append(
                f"only {metrics['inflight_dedup']} dedups + "
                f"{metrics['cache_hits']} cache hits for "
                f"{_DUPLICATES} duplicate submissions")

        # Cold-miss answers vs. in-process reference: bit-identical.
        _check_reference(client, zip(wave1, [_BASE] + _DISTINCT), failures)
        cold = client.result(base_id)["stats"]
        # Cache-hit answer vs. cold-miss answer: bit-identical.
        resubmit = client.submit(dict(_BASE))
        if not resubmit.get("cached"):
            failures.append(f"re-submission was not a cache hit: {resubmit}")
        if client.result(resubmit["id"])["stats"] != cold:
            failures.append("cache-hit stats diverge from cold-miss stats")

        # -------------------------------- phase 2: SIGKILL mid-queue
        acked = [client.submit(job)["id"] for job in _WAVE2]
        print(f"[phase 2] acked {len(acked)} jobs, SIGKILLing the server")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(30)

    # ------------------------------------------------ phase 3: restart
    port = _free_port()
    proc = _spawn(root, port)
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=15.0)
    try:
        _wait_ping(client)
        for job_id in acked:
            record = client.wait(job_id, timeout=_DEADLINE)
            if record.get("state") != "done":
                failures.append(
                    f"acked job {job_id} lost across SIGKILL: {record}")
        _check_reference(client, zip(acked, _WAVE2), failures)
        metrics = client.metrics()
        print(f"[phase 3] metrics: recovered={metrics['recovered_jobs']} "
              f"simulations={metrics['simulations']}")
        # Everything cached before the kill must answer from cache: the
        # restarted process may only simulate what never finished.
        before = metrics["simulations"]
        for job in [dict(_BASE)] + _DISTINCT:
            response = client.submit(job)
            if response.get("state") != "done":
                failures.append(
                    f"pre-kill job {response.get('id')} not answered from "
                    f"cache after restart: {response}")
        after = client.metrics()
        if after["simulations"] != before:
            failures.append(
                f"restart re-simulated {after['simulations'] - before} "
                f"already-cached job(s)")
        stats = client.result(client.submit(dict(_BASE))["id"])["stats"]
        if stats != _reference_stats(_BASE):
            failures.append("post-restart cached stats diverge from the "
                            "in-process reference")
    finally:
        proc.terminate()
        try:
            proc.wait(30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(30)

    fsck_gate(root, failures, tag="serve root")
    return report_failures(
        failures,
        f"service gauntlet passed: {_DUPLICATES} duplicates -> 1 "
        f"simulation, SIGKILL lost nothing, cache answers bit-identical "
        f"(state: {scratch})")


if __name__ == "__main__":
    sys.exit(main())
