"""CLI for the simulation service.

    # run the service in the foreground
    python -m repro.serve serve /tmp/serve --port 8700

    # submit a job (prints the job id; --wait blocks for the stats)
    python -m repro.serve submit --server http://127.0.0.1:8700 \\
        --benchmark gzip --scheme pri --width 4

    # poll one job / fetch its stats / trim the cache
    python -m repro.serve status --server ... <job-id>
    python -m repro.serve fetch --server ... --benchmark gzip --scheme pri
    python -m repro.serve gc --server ... --max-entries 512
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serve.client import ServeClient, ServeRequestError, ServeUnavailable
from repro.serve.server import ServeServer


def _job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--scheme", default="base")
    parser.add_argument("--width", type=int, default=4, choices=(4, 8))
    parser.add_argument("--length", type=int, default=6000)
    parser.add_argument("--warmup", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--regs", type=int, default=None,
                        help="override both PRF capacities (Figure 9 axis)")


def _job_from_args(args: argparse.Namespace) -> dict:
    job = {
        "benchmark": args.benchmark, "scheme": args.scheme,
        "width": args.width, "length": args.length,
        "warmup": args.warmup, "seed": args.seed,
    }
    if args.max_cycles is not None:
        job["max_cycles"] = args.max_cycles
    if args.regs is not None:
        job["regs"] = args.regs
    return job


def _client(args: argparse.Namespace) -> ServeClient:
    return ServeClient(args.server, timeout=args.timeout)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="simulation-as-a-service: server and client",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the service in the foreground")
    serve.add_argument("root", help="state directory (journal + cache)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8700)
    serve.add_argument("--verbose", action="store_true")

    def _remote(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--server", required=True,
                       help="service URL, e.g. http://127.0.0.1:8700")
        p.add_argument("--timeout", type=float, default=10.0)
        return p

    submit = _remote("submit", "submit one job (prints id and state)")
    _job_arguments(submit)
    submit.add_argument("--wait", type=float, default=None, metavar="SECONDS",
                        help="block until terminal and print the record")

    status = _remote("status", "poll one job by id")
    status.add_argument("job_id")

    fetch = _remote("fetch", "submit-and-wait: print the stats record")
    _job_arguments(fetch)
    fetch.add_argument("--wait", type=float, default=120.0, metavar="SECONDS")

    gc = _remote("gc", "trim the result cache")
    gc.add_argument("--max-age", type=float, default=None,
                    help="drop entries older than this many seconds")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="keep only the newest N entries")

    _remote("metrics", "print the /metrics counters")

    args = parser.parse_args(argv)

    if args.command == "serve":
        server = ServeServer(args.root, host=args.host, port=args.port,
                             verbose=args.verbose)
        print(f"serving {args.root} on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.stop()
        return 0

    client = _client(args)
    try:
        if args.command == "submit":
            response = client.submit(_job_from_args(args))
            if args.wait is not None and response.get("state") not in (
                    "done", "failed"):
                response = client.wait(response["id"], timeout=args.wait)
            _emit(response)
            return 0
        if args.command == "status":
            _emit(client.status(args.job_id))
            return 0
        if args.command == "fetch":
            record = client.fetch(_job_from_args(args), timeout=args.wait)
            _emit(record)
            return 0 if record.get("state") == "done" else 1
        if args.command == "gc":
            _emit(client.gc(max_age=args.max_age,
                            max_entries=args.max_entries))
            return 0
        if args.command == "metrics":
            _emit(client.metrics())
            return 0
    except ServeRequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServeUnavailable as exc:
        print(f"error: service unreachable: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
