"""One crash-consistency workload per durability layer.

Each workload exercises its layer's real write path (no mocks: the ops
recorded are the ops production emits), declares acknowledgment points
at exactly the API boundaries that promise durability, and states the
layer's half of the recovery oracle.  The registry follows the
``CORRUPTIONS`` / ``FAULTS`` pattern: ``WORKLOADS[name]`` is the
injectable unit, ``python -m repro.crash run`` and the CI gate iterate
it.

The layers and their promises:

=================== ==================================================
store-envelope      after :func:`write_json_artifact` returns, the
                    artifact holds the new payload — and never a mix,
                    a truncation, or an older acked version
journal-append      after ``record_ok`` returns, the cell is in the
                    journal and survives any crash; a torn tail costs
                    only un-acked records
farm-lease          the cell spec's attempt number (the fence) never
                    regresses below an acked value; acked results stay
                    readable; lease files may vanish (liveness) but
                    never poison recovery
journal-archive     once an incompatible journal is archived (the
                    caller told where), the backup exists with the
                    original bytes and the old journal cannot resurrect
serve-jobs          an acked submission (``queued`` journaled) survives
                    any crash; a ``done`` line implies a readable,
                    bit-identical cache entry (cache is written and
                    fsynced strictly first); service recovery
                    terminates on every crash image
=================== ==================================================
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Callable, Dict, List

from repro.core.stats import SimStats
from repro.crash.harness import Workload
from repro.crash.oplog import Op
from repro.experiments.journal import SweepJournal
from repro.farm import lease as fsl
from repro.farm.lease import CellResult, CellSpec, FarmPaths, cid_of
from repro.store import (
    ArtifactError,
    DigestMismatch,
    MalformedRecord,
    atomic_write_text,
    read_json_artifact,
    write_json_artifact,
)
from repro.store.__main__ import main as store_main

WORKLOADS: Dict[str, Workload] = {}


def _register(name: str, description: str):
    def wrap(cls) -> Workload:
        WORKLOADS[name] = Workload(
            name=name, description=description,
            run=cls.run, recover=cls.recover, check=cls.check,
        )
        return cls
    return wrap


def _store_repair(root: str) -> None:
    """``python -m repro.store repair`` as a recovery step; a nonzero
    exit means unrepaired damage — an oracle violation, so raise."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = store_main(["repair", "-q", root])
    if rc != 0:
        raise RuntimeError(f"store repair exited {rc}: {buf.getvalue().strip()}")


def _acked(acked: List[Op], label: str) -> bool:
    return any(op.label == label for op in acked)


# ========================================================= store-envelope

_DEMO_KIND = "demo-artifact"


@_register("store-envelope",
           "atomic envelope writes: create, overwrite, two files")
class _StoreEnvelope:
    @staticmethod
    def run(root: str, ack: Callable) -> None:
        alpha = os.path.join(root, "alpha.json")
        beta = os.path.join(root, "beta.json")
        write_json_artifact(alpha, _DEMO_KIND, 1, {"value": 1})
        ack("alpha-v1", path="alpha.json", value=1)
        write_json_artifact(alpha, _DEMO_KIND, 1, {"value": 2})
        ack("alpha-v2", path="alpha.json", value=2)
        write_json_artifact(beta, _DEMO_KIND, 1, {"value": 10})
        ack("beta-v10", path="beta.json", value=10)

    @staticmethod
    def recover(root: str) -> None:
        _store_repair(root)

    @staticmethod
    def check(root: str, acked: List[Op]) -> List[str]:
        problems: List[str] = []
        promised: Dict[str, int] = {}
        for op in acked:
            promised[op.info["path"]] = op.info["value"]
        written = {"alpha.json": {1, 2}, "beta.json": {10}}
        for rel, want in promised.items():
            path = os.path.join(root, rel)
            if not os.path.exists(path):
                problems.append(f"acked artifact {rel} lost")
                continue
            try:
                data, _ = read_json_artifact(path, _DEMO_KIND)
            except ArtifactError as exc:
                problems.append(f"acked artifact {rel} unreadable: {exc}")
                continue
            got = data.get("value")
            if got not in written[rel]:
                problems.append(f"{rel} holds phantom value {got!r}")
            elif got < want:
                problems.append(
                    f"{rel} rolled back to {got} after value {want} was acked")
        return problems


# ========================================================= journal-append

_JOURNAL_CELLS = {
    "cellA": (1000, 400),
    "cellB": (1001, 401),
    "cellC": (1002, 402),
}


@_register("journal-append",
           "sweep-journal append stream: first-record rewrite, ok cells, "
           "an error cell")
class _JournalAppend:
    @staticmethod
    def run(root: str, ack: Callable) -> None:
        journal = SweepJournal(os.path.join(root, "journal.json"))
        for key, (cycles, committed) in _JOURNAL_CELLS.items():
            journal.record_ok(key, SimStats(cycles=cycles,
                                            committed=committed))
            ack(f"ok-{key}", key=key, cycles=cycles, committed=committed)
        journal.record_error("cellD", {"error_type": "ValueError",
                                       "message": "injected"})
        ack("err-cellD", key="cellD")

    @staticmethod
    def recover(root: str) -> None:
        path = os.path.join(root, "journal.json")
        if not os.path.exists(path):
            return
        try:
            SweepJournal(path)
        except (DigestMismatch, MalformedRecord):
            _store_repair(root)
            SweepJournal(path)

    @staticmethod
    def check(root: str, acked: List[Op]) -> List[str]:
        problems: List[str] = []
        path = os.path.join(root, "journal.json")
        any_acked = bool(acked)
        if not os.path.exists(path):
            if any_acked:
                problems.append("journal lost with acked records")
            return problems
        try:
            journal = SweepJournal(path)
        except Exception as exc:  # noqa: BLE001 — any raise here is the bug
            return [f"journal unloadable after recovery: {exc}"]
        for op in acked:
            key = op.info["key"]
            if op.label.startswith("ok-"):
                stats = journal.get(key)
                if stats is None:
                    problems.append(f"acked cell {key} lost from journal")
                elif (stats.cycles, stats.committed) != (op.info["cycles"],
                                                         op.info["committed"]):
                    problems.append(f"acked cell {key} stats mutated")
            elif op.label.startswith("err-") and key not in journal.errors():
                problems.append(f"acked error cell {key} lost from journal")
        known = set(_JOURNAL_CELLS) | {"cellD"}
        for key in list(journal.errors()) + [
                k for k in _JOURNAL_CELLS if journal.get(k) is not None]:
            if key not in known:
                problems.append(f"phantom journal cell {key}")
        return problems


# ============================================================= farm-lease

_FARM_SPEC = {"length": 100, "warmup": 0, "seed": 1}


@_register("farm-lease",
           "lease protocol: publish, O_EXCL claim, heartbeats, result, "
           "release, then the broker's fence-bump reclaim")
class _FarmLease:
    @staticmethod
    def run(root: str, ack: Callable) -> None:
        paths = FarmPaths(root).ensure()
        cell = CellSpec(cid=cid_of("k1"), key="k1", benchmark="gcc",
                        scheme="base", width=4, spec=dict(_FARM_SPEC))
        fsl.write_cell(paths, cell)
        ack("cell-1", cid=cell.cid, attempt=1)
        lease = fsl.claim(paths, cell, "w0", ttl=30.0)
        assert lease is not None
        ack("claim-1", cid=cell.cid)
        fsl.heartbeat(paths, lease, cycle=50, committed=20)
        fsl.heartbeat(paths, lease, cycle=80, committed=40)
        fsl.write_result(paths, CellResult(
            cid=cell.cid, key="k1", worker="w0", attempt=1, status="ok",
            stats={"cycles": 100}))
        ack("result-1", cid=cell.cid, attempt=1, worker="w0")
        fsl.release(paths, lease)
        ack("release-1", cid=cell.cid)
        # Second cell: claimed, then taken back by the broker's own
        # reclaim — the spec rewrite with the bumped attempt (the fence)
        # strictly precedes the lease unlink.
        cell2 = CellSpec(cid=cid_of("k2"), key="k2", benchmark="mesa",
                         scheme="ER", width=4, spec=dict(_FARM_SPEC))
        fsl.write_cell(paths, cell2)
        ack("cell-2", cid=cell2.cid, attempt=1)
        lease2 = fsl.claim(paths, cell2, "w1", ttl=30.0)
        assert lease2 is not None
        cell2.attempt = 2
        fsl.reclaim(paths, cell2)
        ack("fence-2", cid=cell2.cid, attempt=2)

    @staticmethod
    def recover(root: str) -> None:
        # The read side must get through any crash image untracebacked.
        from repro.farm.__main__ import main as farm_main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = farm_main(["status", root])
        if rc != 0:
            raise RuntimeError(f"farm status exited {rc}")
        _store_repair(root)

    @staticmethod
    def check(root: str, acked: List[Op]) -> List[str]:
        problems: List[str] = []
        paths = FarmPaths(root)
        fences: Dict[str, int] = {}
        for op in acked:
            if op.label.startswith(("cell-", "fence-")):
                cid = op.info["cid"]
                fences[cid] = max(fences.get(cid, 0), op.info["attempt"])
        for cid, attempt in fences.items():
            try:
                cell = fsl.read_cell(paths.cell(cid))
            except (OSError, ArtifactError) as exc:
                problems.append(f"acked cell spec {cid} lost: {exc}")
                continue
            if cell.attempt < attempt:
                problems.append(
                    f"cell {cid} fence regressed to attempt {cell.attempt} "
                    f"after attempt {attempt} was acked")
        for op in acked:
            if not op.label.startswith("result-"):
                continue
            path = paths.result(op.info["cid"], op.info["attempt"],
                                op.info["worker"])
            try:
                fsl.read_result(path)
            except (OSError, ArtifactError) as exc:
                problems.append(f"acked result {op.label} lost: {exc}")
        # Acked claims carry no durability promise (a lost lease file is
        # re-claimed: liveness, not safety) — nothing to check for them.
        return problems


# ============================================================= serve-jobs

_SERVE_SPEC = {"benchmark": "gzip", "length": 500, "warmup": 1000}
_SERVE_STATS = {"cycles": 1234, "committed": 500}
_SERVE_COST = {"backend": "scalar", "cycles": 1234, "instructions": 500,
               "wall_seconds": 0.01, "batch_jobs": 1}


@_register("serve-jobs",
           "simulation service: job journal transitions + result-cache "
           "entry in the server's exact write order (cache durable "
           "before the done line); one job completes, one stays queued, "
           "one fails")
class _ServeJobs:
    @staticmethod
    def run(root: str, ack: Callable) -> None:
        from repro.serve.cache import ResultCache
        from repro.serve.jobs import JobJournal

        journal = JobJournal(os.path.join(root, "jobs.json"))
        cache = ResultCache(os.path.join(root, "cache"))

        def transition(jid: str, key: str, state: str, *,
                       durable: bool = True, **extra) -> None:
            journal.record({"id": jid, "key": key, "state": state,
                            "ts": 0.0, "spec": dict(_SERVE_SPEC), **extra},
                           durable=durable)

        # Job 1: the full happy path, in the server's write order —
        # the cache entry is durable strictly before the done line.
        j1, k1 = cid_of("serve-k1"), "serve-k1"
        transition(j1, k1, "queued")
        ack("queued-j1", id=j1, key=k1)
        transition(j1, k1, "running", durable=False)
        cache.put(k1, dict(_SERVE_STATS), dict(_SERVE_COST))
        ack("entry-j1", id=j1, key=k1)
        transition(j1, k1, "done", cost=dict(_SERVE_COST))
        ack("done-j1", id=j1, key=k1)
        # Job 2: acked, still queued at the crash — must be re-enqueued,
        # never lost.
        j2, k2 = cid_of("serve-k2"), "serve-k2"
        transition(j2, k2, "queued")
        ack("queued-j2", id=j2, key=k2)
        # Job 3: simulation failed after ack.
        j3, k3 = cid_of("serve-k3"), "serve-k3"
        transition(j3, k3, "queued")
        ack("queued-j3", id=j3, key=k3)
        transition(j3, k3, "running", durable=False)
        transition(j3, k3, "failed",
                   error={"error_type": "SimulationError",
                          "message": "injected"})
        ack("failed-j3", id=j3, key=k3)

    @staticmethod
    def recover(root: str) -> None:
        from repro.serve.jobs import JobJournal
        from repro.serve.server import ServeState

        path = os.path.join(root, "jobs.json")
        if os.path.exists(path):
            try:
                JobJournal(path)
            except (DigestMismatch, MalformedRecord):
                _store_repair(root)
        # Full service recovery must terminate on every crash image and
        # rebuild a servable state (re-queueing what never finished).
        ServeState(root)
        _store_repair(root)

    @staticmethod
    def check(root: str, acked: List[Op]) -> List[str]:
        from repro.serve.cache import ResultCache
        from repro.serve.jobs import JobJournal

        problems: List[str] = []
        path = os.path.join(root, "jobs.json")
        if not os.path.exists(path):
            if acked:
                problems.append("job journal lost with acked transitions")
            return problems
        try:
            journal = JobJournal(path)
        except Exception as exc:  # noqa: BLE001 — any raise here is the bug
            return [f"job journal unloadable after recovery: {exc}"]
        latest = journal.latest()
        cache = ResultCache(os.path.join(root, "cache"))
        for op in acked:
            jid, key = op.info["id"], op.info["key"]
            if op.label.startswith("queued-") and jid not in latest:
                problems.append(f"acked submission {jid} lost from journal")
            elif op.label.startswith("entry-"):
                entry = cache.get(key)
                if entry is None:
                    problems.append(f"acked cache entry {key} lost")
                elif entry.stats != _SERVE_STATS:
                    problems.append(f"acked cache entry {key} mutated")
            elif op.label.startswith("done-"):
                record = latest.get(jid)
                if record is None or record["state"] != "done":
                    problems.append(
                        f"acked done transition for {jid} lost "
                        f"(recovered state: "
                        f"{record['state'] if record else 'missing'})")
            elif op.label.startswith("failed-"):
                record = latest.get(jid)
                if record is None or record["state"] != "failed":
                    problems.append(
                        f"acked failed transition for {jid} lost")
        # Cross-layer write-order invariant, acked or not: a journaled
        # ``done`` implies its cache entry was already durable.
        for jid, record in latest.items():
            if record["state"] == "done" and cache.get(record["key"]) is None:
                problems.append(
                    f"journal says {jid} is done but its cache entry is "
                    f"unreadable — the cache-before-done ordering broke")
        return problems


# ======================================================== journal-archive

_LEGACY_DOC = json.dumps({"version": 2, "cells": {}})


@_register("journal-archive",
           "incompatible-journal migration: archive the v2 document, "
           "start a fresh v3 journal — the _archive durability fix's "
           "regression subject")
class _JournalArchive:
    @staticmethod
    def run(root: str, ack: Callable) -> None:
        path = os.path.join(root, "journal.json")
        atomic_write_text(path, _LEGACY_DOC)
        ack("legacy")
        journal = SweepJournal(path, archive_incompatible=True)
        # SweepJournal just told us where the archive lives; from this
        # instant its path is reportable, so it must survive a crash.
        ack("archived", backup=os.path.basename(journal.archived))
        journal.record_ok("cellA", SimStats(cycles=1000, committed=400))
        ack("ok-cellA")

    @staticmethod
    def recover(root: str) -> None:
        _store_repair(root)

    @staticmethod
    def check(root: str, acked: List[Op]) -> List[str]:
        problems: List[str] = []
        path = os.path.join(root, "journal.json")
        if not _acked(acked, "archived"):
            return problems
        backup = next(op.info["backup"] for op in acked
                      if op.label == "archived")
        backup_path = os.path.join(root, backup)
        if not os.path.exists(backup_path):
            problems.append(f"acked archive {backup} lost")
        else:
            with open(backup_path, encoding="utf-8") as handle:
                if handle.read() != _LEGACY_DOC:
                    problems.append(f"acked archive {backup} mutated")
        if os.path.exists(path):
            try:
                journal = SweepJournal(path)
            except ValueError:
                problems.append(
                    "incompatible journal resurrected after its archival "
                    "was acked")
            else:
                if _acked(acked, "ok-cellA") and journal.get("cellA") is None:
                    problems.append("acked cell lost from fresh journal")
        elif _acked(acked, "ok-cellA"):
            problems.append("fresh journal lost with acked cell")
        return problems
