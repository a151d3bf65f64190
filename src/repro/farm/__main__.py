"""CLI for the sweep farm: attach workers, inspect farms.

``python -m repro.farm worker <root>``
    Attach one stateless worker — from another shell, or another host
    sharing the directory.  The worker leases cells, heartbeats, and
    exits when every published cell has a result (or on SIGTERM, after
    handing its running cell's lease back).

``python -m repro.farm status <root>``
    Read-only progress report: published/leased/completed cells, live
    lease ages, and the journaled lease history — a torn journal tail
    (crash mid-append) is salvaged and reported, never a traceback.
    Never writes — safe to run against a farm mid-sweep.

``python -m repro.farm faults``
    List the registered chaos faults (:mod:`repro.farm.inject`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.farm.inject import FAULTS
from repro.farm.lease import (
    FarmPaths,
    FarmSpec,
    list_cells,
    list_leases,
    list_results,
    read_lease,
)
from repro.farm.worker import worker_loop
from repro.store import ArtifactError


def _cmd_worker(args: argparse.Namespace) -> int:
    farm = FarmSpec(
        root=args.root,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat,
        poll_interval=args.poll,
    )
    return worker_loop(farm, args.name or f"w{os.getpid()}")


def _journal_tail(path: str):
    """Lease history from the journal, without ever writing to it (a
    live broker owns the file; SweepJournal's torn-tail salvage would
    rewrite it underneath them).  Returns ``(events, note)`` where
    ``note`` describes any damage the reader met: a torn final line
    (crash mid-append) is expected and costs one record; interior
    damage, a foreign header, or a record the sweep journal's own check
    rejects (what fsck calls corrupt) truncates the history there."""
    from repro.experiments.journal import SWEEP_LOG
    from repro.store.integrity import read_checked_lines

    if not os.path.exists(path):
        return [], None
    try:
        result = read_checked_lines(path)
    except OSError as exc:
        return [], f"journal unreadable: {exc}"
    fsck = "run `python -m repro.store fsck` for details"
    note = None
    if result.torn_tail:
        note = (f"torn journal tail salvaged (line {result.bad_line} "
                f"of {result.total_lines} damaged mid-append; "
                f"{len(result.records)} records recovered)")
    elif not result.clean:
        note = (f"journal damaged at line {result.bad_line} of "
                f"{result.total_lines} ({result.bad_reason}); history "
                f"truncated there — {fsck}")
    records = result.records
    if not records:
        return [], note
    header = records[0]
    if not isinstance(header, dict) or header.get("format") != SWEEP_LOG.tag:
        return [], f"journal line 1 is not a sweep journal header — {fsck}"
    events = []
    for line, record in enumerate(records[1:], start=2):
        problem = SWEEP_LOG.check(record)
        if problem is not None:
            return events, (f"journal record at line {line} is corrupt "
                            f"({problem}); history truncated there — {fsck}")
        if "lease" in record:
            events.append(record["lease"])
    return events, note


def _cmd_status(args: argparse.Namespace) -> int:
    paths = FarmPaths(args.root)
    cells = list_cells(paths)
    results = list_results(paths)
    now = time.time()
    leases = []
    for cid in list_leases(paths):
        try:
            lease = read_lease(paths.lease(cid))
        except (ArtifactError, OSError):
            leases.append({"cid": cid, "state": "unreadable"})
            continue
        leases.append({
            "cid": cid, "worker": lease.worker, "attempt": lease.attempt,
            "state": lease.state, "age": round(lease.age(now), 2),
            "ttl": lease.ttl, "cycle": lease.cycle,
            "committed": lease.committed,
        })
    events, journal_note = _journal_tail(paths.journal)
    recent = events[max(0, len(events) - args.tail):]
    summary = {
        "root": args.root,
        "cells": len(cells),
        "with_result": len(results),
        "leased": len(leases),
        "lease_events": len(events),
    }
    if args.json:
        print(json.dumps({**summary, "journal_note": journal_note,
                          "leases": leases,
                          "recent": recent}, indent=2))
        return 0
    print(f"farm {args.root}: {summary['with_result']}/{summary['cells']} "
          f"cells have results, {summary['leased']} leased, "
          f"{summary['lease_events']} journaled lease events")
    if journal_note:
        print(f"  [journal] {journal_note}")
    for lease in leases:
        if lease.get("state") == "unreadable":
            print(f"  {lease['cid']}  UNREADABLE lease file")
            continue
        print(f"  {lease['cid']}  {lease['worker']:>8}  attempt "
              f"{lease['attempt']}  {lease['state']:<9} "
              f"age {lease['age']:>6.2f}s / ttl {lease['ttl']:.0f}s  "
              f"cycle {lease['cycle']}  committed {lease['committed']}")
    for event in recent:
        print(f"  [journal] {event.get('state', '?'):<9} "
              f"{event.get('worker', '?'):>8}  {event.get('key', '?')}")
    return 0


def _cmd_faults(_args: argparse.Namespace) -> int:
    print("faults (fire inside a worker's cycle hook):")
    for name in sorted(FAULTS):
        fault = FAULTS[name]
        print(f"  {name:<15} {fault.description}")
        print(f"  {'':<15} expect: {fault.expect}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.farm",
        description="Fault-tolerant sweep farm: attach workers, inspect "
        "live farms, list injectable faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="attach a worker to a farm")
    worker.add_argument("root", help="shared farm directory")
    worker.add_argument("--name", default=None,
                        help="worker id (default: w<pid>)")
    worker.add_argument("--lease-ttl", type=float, default=30.0)
    worker.add_argument("--heartbeat", type=float, default=1.0)
    worker.add_argument("--poll", type=float, default=0.2)
    worker.set_defaults(func=_cmd_worker)

    status = sub.add_parser("status", help="read-only farm progress")
    status.add_argument("root")
    status.add_argument("--json", action="store_true")
    status.add_argument("--tail", type=int, default=8,
                        help="journaled lease events to show")
    status.set_defaults(func=_cmd_status)

    faults = sub.add_parser("faults", help="list injectable chaos faults")
    faults.set_defaults(func=_cmd_faults)

    args = parser.parse_args(argv)
    if args.command == "worker":
        # A zero heartbeat would rewrite the lease file nonstop, a zero
        # TTL would expire every lease the moment it is granted.
        for flag, value in (("--lease-ttl", args.lease_ttl),
                            ("--heartbeat", args.heartbeat),
                            ("--poll", args.poll)):
            if not value > 0:
                worker.error(f"{flag} must be > 0, got {value}")
    elif args.command == "status" and args.tail < 0:
        status.error(f"--tail must be >= 0, got {args.tail}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
