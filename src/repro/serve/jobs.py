"""Job specs, cache keys, and the durable job journal.

A *job* is one simulation request: a (config, trace-spec) pair expressed
as the same knobs the sweep drivers take — benchmark, scheme, width, the
:class:`~repro.experiments.runner.RunSpec` workload fields, and an
optional PRF capacity override.  Its **key** is the existing sweep-cell
identity (:func:`~repro.experiments.journal.cell_key`): the workload
knobs plus a digest of the fully resolved
:class:`~repro.config.MachineConfig` — the config digest and trace
identity the sweep journal keys cells by.  Two submissions whose
keys match are, by construction, the same simulation; the key is
therefore what the result cache is addressed by and what in-flight
deduplication collapses on.  The job **id** is the filename-safe hash of
the key (:func:`~repro.farm.lease.cid_of`), so resubmitting a job is
idempotent: you get the same id back.

The **job journal** (``jobs.json`` in the serve root) records every job
transition — ``queued`` → ``running`` → ``done`` | ``failed`` — in the
same :class:`~repro.store.integrity.CheckedLog` the sweep journal is
(:data:`JOBS_LOG`): one fsynced checksummed line per transition, torn
tails salvaged on load, any interior byte of corruption a typed error,
and every record checked by :func:`check_job_record` on write, on load
and in fsck.  A restarted server replays the journal and re-enqueues
every job whose latest state is non-terminal, so a SIGKILL mid-queue
loses no acknowledged submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.store.integrity import CheckedLog, LogFormat

#: ``format`` tag of the job-journal header record (fsck's sniffing key).
JOBS_FORMAT = "repro-serve-jobs"
JOBS_VERSION = 1

#: The job state machine, in lifecycle order.  ``queued`` — accepted and
#: journaled, waiting for the executor; ``running`` — being simulated;
#: ``done`` — stats durably in the result cache;
#: ``failed`` — the simulation raised (terminal, but resubmittable).
JOB_STATES = ("queued", "running", "done", "failed")

#: Fields every journaled job record must carry.
JOB_FIELDS = ("id", "key", "state", "ts")

#: Issue widths with a Table 1 machine.
_WIDTHS = (4, 8)


class JobError(ValueError):
    """A submission that cannot become a job (unknown scheme, bad
    field, out-of-range workload knob).  Maps to HTTP 400."""


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, fully normalized.

    ``regs`` overrides both physical register file capacities (the
    Figure 9 sweep axis).
    """

    benchmark: str
    scheme: str = "base"
    width: int = 4
    length: int = 6000
    warmup: int = 20000
    seed: int = 1
    max_cycles: Optional[int] = None
    regs: Optional[int] = None

    # ------------------------------------------------------- derivation

    def run_spec(self):
        """The :class:`~repro.experiments.runner.RunSpec` this job
        simulates under (audit/oracle off: the service serves plain
        measurement runs)."""
        from repro.experiments.runner import RunSpec  # lazy: heavy import

        return RunSpec(length=self.length, warmup=self.warmup,
                       seed=self.seed, max_cycles=self.max_cycles)

    def cell_scheme(self) -> str:
        """The sweep runner's scheme name for this job: ``scheme``, with
        a ``regs`` override as its ``@PR=<n>`` suffix."""
        if self.regs is None:
            return self.scheme
        return f"{self.scheme}@PR={self.regs}"

    def config(self) -> MachineConfig:
        """The fully resolved machine config, via the same single
        resolution path the sweep journal keys go through."""
        from repro.experiments.runner import resolve_config

        return resolve_config(self.cell_scheme(), self.width, self.run_spec())

    def key(self) -> str:
        """The cache key: workload knobs + resolved-config digest
        (:func:`~repro.experiments.journal.cell_key` verbatim, so sweep
        journals and the result cache agree on simulation identity)."""
        from repro.experiments.journal import cell_key

        return cell_key(self.benchmark, self.scheme, self.width,
                        self.run_spec(), config=self.config())

    def job_id(self) -> str:
        from repro.farm.lease import cid_of

        return cid_of(self.key())

    def to_dict(self) -> Dict:
        out = {
            "benchmark": self.benchmark, "scheme": self.scheme,
            "width": self.width, "length": self.length,
            "warmup": self.warmup, "seed": self.seed,
        }
        if self.max_cycles is not None:
            out["max_cycles"] = self.max_cycles
        if self.regs is not None:
            out["regs"] = self.regs
        return out


def parse_job(data: Dict) -> JobSpec:
    """Validate and normalize a submission body into a :class:`JobSpec`.

    Raises :class:`JobError` (HTTP 400 at the server) on anything the
    simulator would only reject later and deeper.
    """
    from repro.experiments.runner import (
        FP_BENCHMARKS,
        INT_BENCHMARKS,
        MIN_PHYS_REGS,
        SCHEMES,
    )

    if not isinstance(data, dict):
        raise JobError("job must be a JSON object")
    unknown = set(data) - {
        "benchmark", "scheme", "width", "length", "warmup", "seed",
        "max_cycles", "regs",
    }
    if unknown:
        raise JobError(f"unknown job field(s): {sorted(unknown)}")
    benchmark = data.get("benchmark")
    known = set(INT_BENCHMARKS) | set(FP_BENCHMARKS)
    if benchmark not in known:
        raise JobError(
            f"unknown benchmark {benchmark!r} (one of {sorted(known)})")
    scheme = data.get("scheme", "base")
    if scheme not in SCHEMES:
        raise JobError(f"unknown scheme {scheme!r} (one of {sorted(SCHEMES)})")
    width = data.get("width", 4)
    if width not in _WIDTHS:
        raise JobError(f"width must be one of {_WIDTHS}, got {width!r}")

    def _int(name: str, default, minimum: int, maximum: int,
             optional: bool = False):
        value = data.get(name, default)
        if value is None and optional:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise JobError(f"{name} must be an integer, got {value!r}")
        if not minimum <= value <= maximum:
            raise JobError(
                f"{name} must be in [{minimum}, {maximum}], got {value}")
        return value

    return JobSpec(
        benchmark=benchmark, scheme=scheme, width=width,
        length=_int("length", 6000, 1, 2_000_000),
        warmup=_int("warmup", 20000, 0, 10_000_000),
        seed=_int("seed", 1, 0, 2**31 - 1),
        max_cycles=_int("max_cycles", None, 1, 2**31 - 1, optional=True),
        regs=_int("regs", None, MIN_PHYS_REGS, 65536, optional=True),
    )


# ============================================================== journal


def check_job_record(record) -> Optional[str]:
    """Why ``record`` is not a job-journal record, or ``None`` when it
    is one: a ``job`` object carrying :data:`JOB_FIELDS` and one of
    :data:`JOB_STATES`.  The writer, the loader and fsck all ask this
    one function."""
    if not isinstance(record, dict) or not isinstance(record.get("job"), dict):
        return "job journal record lacks a job object"
    job = record["job"]
    missing = [f for f in JOB_FIELDS if f not in job]
    if missing:
        return f"job record lacks fields: {missing}"
    if job["state"] not in JOB_STATES:
        return f"unknown job state {job['state']!r}"
    return None


#: The job journal as a :class:`~repro.store.integrity.CheckedLog`.
JOBS_LOG = LogFormat(JOBS_FORMAT, JOBS_VERSION, "serve-job-journal",
                     check_job_record)


class JobJournal:
    """Append-only, checksummed record of every job transition: a
    :class:`~repro.store.integrity.CheckedLog` of ``{"job": event}``
    records, one per transition."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = CheckedLog(path, JOBS_LOG)
        #: Every transition in append order (replay gives latest-wins).
        self.events: List[Dict] = [r["job"] for r in self._log.load()]
        #: ``(line, reason)`` of a torn tail dropped at load, if any.
        self.salvaged: Optional[Tuple[int, str]] = self._log.salvaged

    # --------------------------------------------------------- queries

    def latest(self) -> Dict[str, Dict]:
        """id -> the latest journaled record per job (replay order)."""
        out: Dict[str, Dict] = {}
        for event in self.events:
            out[event["id"]] = event
        return out

    # --------------------------------------------------------- updates

    def record(self, event: Dict, *, durable: bool = True) -> None:
        """Append one job transition.  ``event`` must carry at least
        :data:`JOB_FIELDS` and a known state."""
        self._log.append({"job": event}, durable=durable)
        self.events.append(event)
