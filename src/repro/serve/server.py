"""Simulation-as-a-service: the async HTTP job server.

``python -m repro.serve serve <root>`` turns the simulator into a
long-lived service.  Clients POST (config, trace-spec) jobs as JSON;
the server keys each one by the existing config-digest + trace-identity
cell key and answers from the content-addressed result cache
(:mod:`repro.serve.cache`).  The request paths compose three levels of
demand collapsing, cheapest first:

1. **Cache hit** — the key's result is already durably stored: answered
   immediately, O(1), no simulation.
2. **In-flight dedup** — a job with this id is already queued or
   running: the submission attaches to it (N identical concurrent
   submissions → one simulation).  The id *is* the hash of the key, so
   dedup is structural, not a lookup table that can drift.
3. **Batch coalescing** — cold misses are queued, collected for a short
   batch window, grouped by :meth:`~repro.serve.jobs.JobSpec.batch_key`,
   and handed to the executor — where the vector backend's column
   planner merges capacity-only-differing misses onto shared machines
   (:mod:`repro.vector.column`), and the farm backend fans a batch out
   across workers.

Durability contract: a submission is **acked** (the HTTP response says
``queued``) only after its ``queued`` transition is fsynced into the
job journal; a job is reported ``done`` only after its stats are
durably in the result cache *and* the ``done`` transition is journaled
— in that order, so a replayed ``done`` whose cache entry is unreadable
is detected at recovery and the job re-runs.  SIGKILL the server at any
instant and restart it: every acked job is re-enqueued (or already
answered), nothing acked is lost, and nothing is simulated twice whose
result survived.

The wire idioms: an rid replay cache for idempotent POSTs, one lock,
and compute-under-lock / transmit-outside; long-polling (``/wait``)
rides the same lock's condition variable.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.serve.cache import ResultCache
from repro.serve.executor import BatchExecutor, FarmOptions, JobResult
from repro.serve.jobs import JobError, JobJournal, JobSpec, parse_job

#: How many request-id -> response entries the replay cache keeps.
RID_CACHE_SIZE = 4096

#: Default seconds the executor waits after the first queued job so that
#: a burst of submissions lands in one batch (and one vector column).
BATCH_WINDOW = 0.05

#: Upper bound a single ``/wait`` long-poll may block, seconds.
MAX_WAIT = 60.0


class ServeState:
    """Everything the service knows, plus its on-disk recovery story.

    One lock serializes every RPC and executor callback; its condition
    variable wakes the executor (new work) and long-pollers (job done).
    """

    def __init__(self, root: str, backend: str = "auto",
                 batch_window: float = BATCH_WINDOW,
                 farm_workers: int = 2) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.cache = ResultCache(os.path.join(root, "cache"))
        self.journal = JobJournal(os.path.join(root, "jobs.json"))
        farm_options = None
        if backend == "farm":
            farm_options = FarmOptions(root=os.path.join(root, "farm"),
                                       workers=farm_workers)
        self.executor = BatchExecutor(backend, farm_options=farm_options)
        self.batch_window = batch_window
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        #: id -> live job view: {id, key, state, ts, spec, error?, cost?}
        self.jobs: Dict[str, Dict] = {}
        #: id -> parsed spec for every job that may still need to run.
        self.specs: Dict[str, JobSpec] = {}
        #: ids waiting for the executor, submission order.
        self.queue: List[str] = []
        self.rid_cache: "OrderedDict[str, Dict]" = OrderedDict()
        self.started_unix = time.time()
        self.metrics: Dict[str, float] = {
            "submissions": 0, "cache_hits": 0, "inflight_dedup": 0,
            "misses": 0, "jobs_done": 0, "jobs_failed": 0,
            "simulations": 0, "batches": 0, "cycles_simulated": 0,
            "instructions_committed": 0, "sim_wall_seconds": 0.0,
            "recovered_jobs": 0,
        }
        self._recover()

    # ------------------------------------------------------- persistence

    def _recover(self) -> None:
        """Replay the job journal: rebuild the id -> latest-state view
        and re-enqueue every acked job the previous process never
        finished.  A ``done`` whose cache entry is unreadable (crash
        between rename and journal append is impossible — cache first —
        but media damage is not) re-runs too."""
        latest = self.journal.latest()
        specs: Dict[str, Dict] = {}
        for event in self.journal.events:
            if "spec" in event:
                specs[event["id"]] = event["spec"]
        for job_id, event in latest.items():
            record = {"id": job_id, "key": event["key"],
                      "state": event["state"], "ts": event["ts"]}
            if job_id in specs:
                record["spec"] = specs[job_id]
            if event.get("error"):
                record["error"] = event["error"]
            if event.get("cost"):
                record["cost"] = event["cost"]
            state = event["state"]
            if state == "done" and not self.cache.has(event["key"]):
                state = "queued"  # durable stats are gone: run it again
                record["state"] = "queued"
            if state in ("queued", "running"):
                spec_data = specs.get(job_id)
                if spec_data is None:
                    # Un-runnable without its spec; journaled failed so
                    # the client sees a terminal verdict, not a hang.
                    record["state"] = "failed"
                    record["error"] = {
                        "error_type": "RecoveryError",
                        "message": "job spec missing from journal",
                    }
                    self._journal(job_id, event["key"], "failed",
                                  error=record["error"])
                else:
                    record["state"] = "queued"
                    self.specs[job_id] = parse_job(spec_data)
                    self.queue.append(job_id)
                    self.metrics["recovered_jobs"] += 1
                    if state != "queued":
                        self._journal(job_id, event["key"], "queued",
                                      durable=False)
            self.jobs[job_id] = record

    def _journal(self, job_id: str, key: str, state: str, *,
                 spec: Optional[Dict] = None, error: Optional[Dict] = None,
                 cost: Optional[Dict] = None, durable: bool = True) -> None:
        event: Dict = {"id": job_id, "key": key, "state": state,
                       "ts": round(time.time(), 3)}
        if spec is not None:
            event["spec"] = spec
        if error is not None:
            event["error"] = error
        if cost is not None:
            event["cost"] = cost
        self.journal.record(event, durable=durable)

    # -------------------------------------------------------- mutations
    # All called under self.lock, all returning JSON-able dicts.

    def rpc_submit(self, body: Dict) -> Dict:
        self.metrics["submissions"] += 1
        spec = parse_job(body.get("job", {}))
        key = spec.key()
        job_id = spec.job_id()
        record = self.jobs.get(job_id)
        if record is not None and record["state"] in ("queued", "running"):
            # In-flight dedup: same key => same id => same running job.
            self.metrics["inflight_dedup"] += 1
            return {"id": job_id, "state": record["state"], "dedup": 1}
        entry = self.cache.get(key)
        if entry is not None:
            self.metrics["cache_hits"] += 1
            if record is None or record["state"] != "done":
                # First sighting of an already-cached key (e.g. warmed
                # cache, or a failed job re-submitted after repair):
                # journal the id -> key mapping so /result survives a
                # restart, then expose it as done.
                self._journal(job_id, key, "queued", spec=spec.to_dict())
                self._journal(job_id, key, "done", cost=entry.cost)
                self.jobs[job_id] = {
                    "id": job_id, "key": key, "state": "done",
                    "ts": round(time.time(), 3), "spec": spec.to_dict(),
                    "cost": entry.cost,
                }
                self.changed.notify_all()
            return {"id": job_id, "state": "done", "cached": 1}
        # Cold miss (or a failed job being retried): ack durably, queue.
        self.metrics["misses"] += 1
        self._journal(job_id, key, "queued", spec=spec.to_dict())
        self.jobs[job_id] = {"id": job_id, "key": key, "state": "queued",
                             "ts": round(time.time(), 3),
                             "spec": spec.to_dict()}
        self.specs[job_id] = spec
        self.queue.append(job_id)
        self.changed.notify_all()
        return {"id": job_id, "state": "queued"}

    def rpc_gc(self, body: Dict) -> Dict:
        max_age = body.get("max_age")
        max_entries = body.get("max_entries")
        removed = self.cache.gc(
            max_age=float(max_age) if max_age is not None else None,
            max_entries=int(max_entries) if max_entries is not None else None,
        )
        return {"removed": removed, "entries": len(self.cache)}

    # ----------------------------------------------------------- queries

    def job_view(self, job_id: str) -> Optional[Dict]:
        record = self.jobs.get(job_id)
        if record is None:
            return None
        out = {k: record[k] for k in ("id", "key", "state", "ts")}
        for extra in ("error", "cost"):
            if extra in record:
                out[extra] = record[extra]
        return out

    def metrics_view(self) -> Dict:
        out = dict(self.metrics)
        out["queue_depth"] = len(self.queue)
        out["running"] = sum(1 for r in self.jobs.values()
                             if r["state"] == "running")
        out["jobs_known"] = len(self.jobs)
        out["cache_entries"] = len(self.cache)
        out["backend"] = self.executor.backend
        out["uptime_seconds"] = round(time.time() - self.started_unix, 3)
        return out

    # ---------------------------------------------------------- executor

    def take_batch(self) -> List[JobSpec]:
        """Called by the executor thread: pop every queued job sharing
        the head-of-queue batch key and mark them running.  Caller holds
        the lock."""
        if not self.queue:
            return []
        head = self.specs[self.queue[0]]
        taken: List[JobSpec] = []
        rest: List[str] = []
        for job_id in self.queue:
            spec = self.specs[job_id]
            if spec.batch_key() == head.batch_key():
                taken.append(spec)
                self.jobs[job_id]["state"] = "running"
                # Running markers are expendable (recovery re-queues
                # them identically): journaled, but not fsynced.
                self._journal(job_id, self.jobs[job_id]["key"], "running",
                              durable=False)
            else:
                rest.append(job_id)
        self.queue = rest
        return taken

    def finish_job(self, spec: JobSpec, result: JobResult) -> None:
        """Executor callback: durably store, journal, publish, wake
        long-pollers.  Caller holds the lock."""
        job_id = spec.job_id()
        key = spec.key()
        record = self.jobs.get(job_id)
        if record is None:  # pruned underneath us: nothing to publish
            return
        self.metrics["simulations"] += 1
        cost = result.cost or {}
        self.metrics["cycles_simulated"] += cost.get("cycles", 0)
        self.metrics["instructions_committed"] += cost.get("instructions", 0)
        self.metrics["sim_wall_seconds"] += cost.get("wall_seconds", 0.0)
        if result.status == "ok":
            # Order matters: cache entry durable BEFORE the journal says
            # done — the cache is the durability point for the stats.
            self.cache.put(key, result.stats, cost)
            self._journal(job_id, key, "done", cost=cost)
            record.update(state="done", cost=cost)
            record.pop("error", None)
            self.metrics["jobs_done"] += 1
        else:
            self._journal(job_id, key, "failed", error=result.error,
                          cost=cost)
            record.update(state="failed", error=result.error, cost=cost)
            self.metrics["jobs_failed"] += 1
        self.specs.pop(job_id, None)
        self.changed.notify_all()


class _ExecutorThread(threading.Thread):
    """Drains the queue: wait for work, linger one batch window so a
    burst coalesces, run the batch, publish results."""

    def __init__(self, state: ServeState) -> None:
        super().__init__(name="serve-executor", daemon=True)
        self.state = state
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        with self.state.lock:
            self.state.changed.notify_all()

    def run(self) -> None:
        state = self.state
        while not self._halt.is_set():
            with state.lock:
                while not state.queue and not self._halt.is_set():
                    state.changed.wait(timeout=0.5)
                if self._halt.is_set():
                    return
            # Linger outside the lock: let the rest of a burst arrive.
            if state.batch_window > 0:
                time.sleep(state.batch_window)
            with state.lock:
                batch = state.take_batch()
                if batch:
                    state.metrics["batches"] += 1
            if not batch:
                continue
            # Simulate outside the lock — submissions and polls must
            # keep flowing while a batch runs.
            results = state.executor.run_batch(batch)
            with state.lock:
                for spec in batch:
                    result = results.get(spec.job_id())
                    if result is None:
                        result = JobResult(
                            status="error",
                            error={"error_type": "ExecutorError",
                                   "message": "backend returned no result"})
                    state.finish_job(spec, result)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 — silence stdlib chatter
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send(self, payload: Dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @property
    def state(self) -> ServeState:
        return self.server.state

    # --------------------------------------------------------------- GET

    def do_GET(self) -> None:  # noqa: N802 — stdlib API
        parsed = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        state = self.state
        status = 200
        # Compute under the lock, transmit outside it: a slow reader
        # must never stall submissions or the executor.
        with state.lock:
            if parsed.path == "/ping":
                payload = {"ok": 1, "jobs": len(state.jobs),
                           "queue": len(state.queue),
                           "cache_entries": len(state.cache)}
            elif parsed.path == "/status":
                payload = state.job_view(query.get("id", ""))
                if payload is None:
                    payload, status = {"error": "unknown job id"}, 404
            elif parsed.path == "/wait":
                payload, status = self._wait(query)
            elif parsed.path == "/result":
                payload, status = self._result(query)
            elif parsed.path == "/metrics":
                payload = state.metrics_view()
            elif parsed.path == "/jobs":
                payload = {"jobs": [state.job_view(i)
                                    for i in sorted(state.jobs)]}
            else:
                payload = {"error": f"unknown path {parsed.path!r}"}
                status = 404
        self._send(payload, status)

    def _wait(self, query: Dict) -> Tuple[Dict, int]:
        """Long-poll: block (condition wait, lock released) until the
        job reaches a terminal state or the timeout passes.  Caller
        holds the lock."""
        state = self.state
        job_id = query.get("id", "")
        try:
            timeout = min(MAX_WAIT, max(0.0, float(query.get("timeout", 30))))
        except ValueError:
            return {"error": "timeout must be a number"}, 400
        deadline = time.monotonic() + timeout
        while True:
            record = state.job_view(job_id)
            if record is None:
                return {"error": "unknown job id"}, 404
            if record["state"] in ("done", "failed"):
                return record, 200
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return {**record, "timeout": 1}, 200
            state.changed.wait(timeout=min(remaining, 1.0))

    def _result(self, query: Dict) -> Tuple[Dict, int]:
        state = self.state
        record = state.job_view(query.get("id", ""))
        if record is None:
            return {"error": "unknown job id"}, 404
        if record["state"] == "failed":
            return record, 200
        if record["state"] != "done":
            return {**record, "pending": 1}, 202
        entry = state.cache.get(record["key"])
        if entry is None:
            # The cache entry rotted after the journal said done: be
            # honest — the client can resubmit to re-simulate.
            return {**record, "error": {"error_type": "CacheMiss",
                                        "message": "cached result "
                                                   "unreadable; resubmit"},
                    "state": "failed"}, 200
        return {**record, "stats": entry.stats, "cost": entry.cost}, 200

    # -------------------------------------------------------------- POST

    def do_POST(self) -> None:  # noqa: N802 — stdlib API
        parsed = urlparse(self.path)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send({"error": f"bad request body: {exc}"}, 400)
            return
        rid = body.get("rid")
        state = self.state
        status = 200
        with state.lock:
            if rid is not None and rid in state.rid_cache:
                # Exactly-once: the request already executed; replay the
                # original answer instead of executing twice.
                payload = {**state.rid_cache[rid], "rid": rid, "replayed": 1}
            else:
                try:
                    response = self._dispatch(parsed.path, body)
                except JobError as exc:
                    response, status = {"error": str(exc)}, 400
                except (KeyError, TypeError, ValueError) as exc:
                    response, status = {"error": f"bad request: {exc}"}, 400
                if response is None:
                    response = {"error": f"unknown path {parsed.path!r}"}
                    status = 404
                if status == 200 and rid is not None:
                    state.rid_cache[rid] = response
                    while len(state.rid_cache) > RID_CACHE_SIZE:
                        state.rid_cache.popitem(last=False)
                payload = {**response, "rid": rid}
        self._send(payload, status)

    def _dispatch(self, path: str, body: Dict) -> Optional[Dict]:
        if path == "/submit":
            return self.state.rpc_submit(body)
        if path == "/gc":
            return self.state.rpc_gc(body)
        return None


class ServeServer:
    """An embeddable simulation service: ``start()`` serves on
    background threads (port 0 picks a free one), ``stop()`` shuts both
    the socket and the executor down.  The CLI's ``serve`` subcommand
    runs the same thing in the foreground."""

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 backend: str = "auto", batch_window: float = BATCH_WINDOW,
                 farm_workers: int = 2, verbose: bool = False) -> None:
        self.state = ServeState(root, backend=backend,
                                batch_window=batch_window,
                                farm_workers=farm_workers)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.state = self.state
        self.httpd.verbose = verbose
        self._executor = _ExecutorThread(self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeServer":
        self._executor.start()
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="serve-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._executor.start()
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._executor.stop()
        self._executor.join(5)
        if self._thread is not None:
            self._thread.join(5)
            self._thread = None
