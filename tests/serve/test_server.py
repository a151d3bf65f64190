"""The service end to end: cache hits, dedup, long-poll, restart."""

import threading

import pytest

from repro.experiments import RunSpec, run_one
from repro.serve import ServeClient, ServeRequestError, ServeServer, ServeState

JOB = {"benchmark": "gzip", "scheme": "base", "width": 4,
       "length": 800, "warmup": 1500, "seed": 3}


@pytest.fixture
def server(tmp_path):
    srv = ServeServer(str(tmp_path / "serve")).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=10.0)


def _run(client, job=JOB, timeout=60.0):
    response = client.submit(dict(job))
    if response["state"] not in ("done", "failed"):
        return client.wait(response["id"], timeout=timeout)
    return client.status(response["id"])


def test_submit_wait_result(client):
    record = _run(client)
    assert record["state"] == "done"
    result = client.result(record["id"])
    assert result["stats"]["committed"] == JOB["length"]
    assert result["cost"]["backend"] == "scalar"
    assert result["cost"]["batch_jobs"] == 1


def test_second_submission_is_cache_hit(client):
    first = _run(client)
    again = client.submit(dict(JOB))
    assert again["id"] == first["id"]
    assert again["state"] == "done"
    assert again.get("cached") == 1
    assert (client.result(again["id"])["stats"]
            == client.result(first["id"])["stats"])
    metrics = client.metrics()
    assert metrics["simulations"] == 1
    assert metrics["cache_hits"] == 1


def test_concurrent_duplicates_one_simulation(client):
    ids = []

    def submit():
        ids.append(client.submit(dict(JOB))["id"])

    threads = [threading.Thread(target=submit) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(ids)) == 1
    client.wait(ids[0], timeout=60)
    metrics = client.metrics()
    assert metrics["simulations"] == 1
    assert metrics["inflight_dedup"] + metrics["cache_hits"] == 4


def test_distinct_jobs_distinct_results(client):
    a = _run(client)
    b = _run(client, {**JOB, "scheme": "PRI-refcount+lazy"})
    assert a["id"] != b["id"]
    stats_a = client.result(a["id"])["stats"]
    stats_b = client.result(b["id"])["stats"]
    assert stats_a["cycles"] != stats_b["cycles"]


def test_bad_submissions_are_400(client):
    with pytest.raises(ServeRequestError):
        client.submit({"benchmark": "nope"})
    with pytest.raises(ServeRequestError):
        client.submit({"benchmark": "gzip", "width": 5})
    # A 400 must not poison the service.
    assert _run(client)["state"] == "done"


def test_unknown_job_id_is_404(client):
    with pytest.raises(ServeRequestError) as exc:
        client.status("no-such-id")
    assert exc.value.status == 404


def test_rid_replay_answers_from_cache(client):
    response = client._post("/submit", {"job": dict(JOB), "rid": "fixed"})
    replay = client._post("/submit", {"job": dict(JOB), "rid": "fixed"})
    assert replay["id"] == response["id"]
    assert replay.get("replayed") == 1
    assert client.metrics()["submissions"] == 1


def test_metrics_and_cost_accounting(client):
    _run(client)
    metrics = client.metrics()
    assert metrics["batches"] == metrics["simulations"] == 1
    assert metrics["cycles_simulated"] > 0
    assert metrics["instructions_committed"] == JOB["length"]
    assert metrics["sim_wall_seconds"] > 0
    assert metrics["cache_entries"] == 1
    assert metrics["jobs_done"] == 1


def test_gc_endpoint(client):
    _run(client)
    _run(client, {**JOB, "seed": 11})
    response = client.gc(max_entries=1)
    assert response["removed"] == 1
    assert response["entries"] == 1


def test_restart_resumes_queued_jobs(tmp_path):
    root = str(tmp_path / "serve")
    # Ack two jobs on a state with no executor thread, so nothing runs
    # before the "crash"; dropping the state is the SIGKILL equivalent.
    state = ServeState(root)
    with state.lock:
        acked = [state.rpc_submit({"job": dict(JOB)})["id"],
                 state.rpc_submit({"job": {**JOB, "seed": 5}})["id"]]
    del state

    srv2 = ServeServer(root).start()
    try:
        client2 = ServeClient(srv2.url)
        assert srv2.state.metrics["recovered_jobs"] == 2
        for job_id in acked:
            assert client2.wait(job_id, timeout=60)["state"] == "done"
    finally:
        srv2.stop()


def test_restart_answers_done_jobs_from_cache(tmp_path):
    root = str(tmp_path / "serve")
    srv = ServeServer(root).start()
    client = ServeClient(srv.url)
    first = _run(client)
    stats = client.result(first["id"])["stats"]
    srv.stop()

    srv2 = ServeServer(root).start()
    try:
        client2 = ServeClient(srv2.url)
        again = client2.submit(dict(JOB))
        assert again["state"] == "done"
        assert client2.result(again["id"])["stats"] == stats
        assert client2.metrics()["simulations"] == 0
    finally:
        srv2.stop()


def test_served_regs_job_equals_its_sweep_cell(client):
    scheme = "PRI-refcount+lazy"
    spec = RunSpec(length=JOB["length"], warmup=JOB["warmup"],
                   seed=JOB["seed"])
    sweep = [{**JOB, "scheme": scheme, "regs": regs} for regs in (48, 64, 96)]
    ids = [client.submit(dict(job))["id"] for job in sweep]
    for job, job_id in zip(sweep, ids):
        assert client.wait(job_id, timeout=60)["state"] == "done"
        want = run_one("gzip", f"{scheme}@PR={job['regs']}", 4, spec)
        assert client.result(job_id)["stats"] == want.to_dict()


def test_failed_job_reports_and_can_retry(tmp_path):
    root = str(tmp_path / "serve")
    srv = ServeServer(root).start()
    try:
        client = ServeClient(srv.url)
        # An impossibly tight cycle limit: the watchdog fails the job.
        doomed = {**JOB, "max_cycles": 10}
        record = _run(client, doomed)
        assert record["state"] == "failed"
        assert record["error"]["error_type"] == "SimulationError"
        assert client.metrics()["jobs_failed"] == 1
        # A failed id is terminal but resubmittable: it re-queues.
        retry = client.submit(dict(doomed))
        assert retry["state"] == "queued"
        assert client.wait(retry["id"], timeout=60)["state"] == "failed"
    finally:
        srv.stop()
