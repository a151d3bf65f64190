"""Seeded config×trace fuzzing under the golden-model oracle.

Every fuzz case is a :class:`FuzzSpec`: an explicit, JSON-serializable
bag of knobs — benchmark profile and trace seed, machine width, PRF
size, reclamation scheme (PRI on/off, WAR policy, checkpoint policy,
early release, virtual-physical), PRI inline-bit threshold — plus an
optional *seeded fault* from the PR-1 injection registry
(:data:`repro.audit.inject.FAULTS`).  :func:`sample_spec` derives a spec
deterministically from an integer seed, so a fuzz campaign is fully
described by its seed list.

Semantics of one case (:func:`run_spec`):

* **no seeded fault** — the machine is presumed healthy, so *any*
  :class:`~repro.core.machine.SimulationError` (an
  :class:`~repro.oracle.OracleDivergence`, an
  :class:`~repro.audit.AuditError`, a deadlock) is a real finding;
* **seeded fault** — the corruption is applied mid-run and must be
  *caught* by the oracle or the auditor; a run that finishes cleanly
  with the fault applied is an escape, also a finding.

Findings are shrunk (:func:`shrink_spec` — drop warmup, halve the trace)
and written to disk as reproducer specs; :func:`replay_spec` re-runs a
reproducer and verifies the recorded failure comes back identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import (
    CheckpointPolicy,
    MachineConfig,
    WarPolicy,
    eight_wide,
    four_wide,
)
from repro.core.machine import Machine, SimulationError
from repro.workloads import ALL_BENCHMARKS, generate_trace

#: Schema version of on-disk reproducer specs.
REPRODUCER_VERSION = 1

_PRF_CHOICES = (40, 48, 56, 64, 80, 96)
_WIDTH_BITS_CHOICES = (4, 7, 10, 12)


class ReplayMismatch(AssertionError):
    """A reproducer spec no longer reproduces its recorded failure."""


@dataclass(frozen=True)
class FuzzSpec:
    """One fuzz case: machine knobs × workload knobs × optional fault."""

    seed: int = 0
    # -- workload
    benchmark: str = "gzip"
    length: int = 3000
    warmup: int = 2000
    trace_seed: int = 1
    # -- machine shape
    width: int = 4
    int_phys_regs: int = 64
    fp_phys_regs: int = 64
    # -- reclamation scheme
    pri: bool = True
    war_policy: str = "refcount"
    checkpoint_policy: str = "ckptcount"
    int_width_bits: int = 7
    early_release: bool = False
    virtual_physical: bool = False
    # -- checkers
    oracle_interval: int = 256
    audit: bool = True
    audit_interval: int = 256
    # -- optional seeded corruption (name from audit.inject.FAULTS)
    fault: Optional[str] = None
    fault_cycle: int = 60
    # -- watchdog
    max_cycles: int = 500_000

    def config(self) -> MachineConfig:
        """Materialize the machine configuration this spec describes."""
        base = four_wide() if self.width == 4 else eight_wide()
        cfg = dataclasses.replace(
            base,
            int_phys_regs=self.int_phys_regs,
            fp_phys_regs=self.fp_phys_regs,
            early_release=self.early_release,
            virtual_physical=self.virtual_physical,
        )
        if self.pri:
            cfg = cfg.with_pri(
                WarPolicy(self.war_policy),
                CheckpointPolicy(self.checkpoint_policy),
                int_width_bits=self.int_width_bits,
            )
        if self.fault:
            # Seeded corruption must be caught, not merely survive until
            # the end of the run: audit at every cycle and commit (the
            # same regime PR 1's run_with_fault uses) and sweep the
            # architectural state frequently.
            cfg = cfg.with_oracle(interval=min(self.oracle_interval, 64))
            if self.audit:
                cfg = cfg.with_audit(interval=1, check_commits=True)
        else:
            cfg = cfg.with_oracle(interval=self.oracle_interval)
            if self.audit:
                cfg = cfg.with_audit(interval=self.audit_interval)
        return cfg

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzSpec":
        return cls(**data)


def sample_spec(
    seed: int,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    fault_rate: float = 0.0,
) -> FuzzSpec:
    """Derive one :class:`FuzzSpec` deterministically from ``seed``.

    ``fault_rate`` is the probability of seeding a corruption from the
    injection registry (exercising the *catch* path rather than the
    healthy path).  Incompatible knob combinations are repaired, not
    rejected: virtual-physical allocation drops early release (the
    machine refuses that composition).
    """
    rng = random.Random(seed)
    names = list(benchmarks) if benchmarks else [p.name for p in ALL_BENCHMARKS]
    pri = rng.random() < 0.7
    virtual_physical = rng.random() < 0.2
    early_release = rng.random() < 0.3 and not virtual_physical
    fault = None
    fault_cycle = 60
    if rng.random() < fault_rate:
        from repro.audit.inject import FAULTS  # lazy: keeps import light

        fault = rng.choice(sorted(FAULTS))
        fault_cycle = rng.randrange(20, 400)
    length = rng.choice((1500, 3000, 6000))
    if fault:
        length = min(length, 3000)  # every-cycle auditing is expensive
    return FuzzSpec(
        seed=seed,
        benchmark=rng.choice(names),
        length=length,
        warmup=rng.choice((0, 2000, 8000)),
        trace_seed=rng.randrange(1, 1 << 16),
        width=rng.choice((4, 8)),
        int_phys_regs=rng.choice(_PRF_CHOICES),
        fp_phys_regs=rng.choice(_PRF_CHOICES),
        pri=pri,
        war_policy=rng.choice(("refcount", "ideal", "replay")),
        checkpoint_policy=rng.choice(("ckptcount", "lazy")),
        int_width_bits=rng.choice(_WIDTH_BITS_CHOICES),
        early_release=early_release,
        virtual_physical=virtual_physical,
        oracle_interval=rng.choice((64, 256, 512)),
        audit=True,
        audit_interval=rng.choice((256, 1024)),
        fault=fault,
        fault_cycle=fault_cycle,
    )


# ================================================================== run


def run_spec(spec: FuzzSpec) -> Dict:
    """Execute one fuzz case and classify the outcome.

    Returns a dict with ``outcome`` one of:

    * ``"clean"`` — no fault seeded, run finished, no checker fired;
    * ``"caught"`` — the seeded fault was converted into a structured
      failure (the desired behavior); ``error_type``/``diagnostic``
      describe it;
    * ``"not-applicable"`` — the seeded fault never found machine state
      to corrupt (e.g. a refcount fault on a non-counting scheme);
    * ``"timeout"`` — the cycle watchdog expired before the trace
      committed (not treated as a finding);
    * ``"finding"`` — a real problem: a checker fired with no fault
      seeded, or a seeded fault escaped both checkers.
    """
    trace = generate_trace(
        spec.benchmark, spec.length, seed=spec.trace_seed, warmup=spec.warmup
    )
    machine = Machine(spec.config())
    applied: List = []
    if spec.fault:
        from repro.audit.inject import FAULTS

        fault = FAULTS[spec.fault]

        def hook(m: Machine) -> None:
            if not applied and m.now >= spec.fault_cycle:
                detail = fault.apply(m)
                if detail is not None:
                    applied.append([m.now, detail])

        machine.add_cycle_hook(hook)
    try:
        stats = machine.run(trace, max_cycles=spec.max_cycles)
    except SimulationError as err:
        record = {
            "error_type": type(err).__name__,
            "message": str(err),
            "diagnostic": getattr(err, "diagnostic", None),
            "fault_applied": applied[0] if applied else None,
        }
        if spec.fault and applied:
            record["outcome"] = "caught"
        else:
            # No fault was seeded (or it never applied), yet a checker
            # fired: the machine itself diverged.
            record["outcome"] = "finding"
            record["kind"] = "divergence"
        return record
    if spec.fault:
        if not applied:
            return {"outcome": "not-applicable"}
        return {
            "outcome": "finding",
            "kind": "fault-escaped",
            "error_type": "FaultEscaped",
            "message": (
                f"seeded fault {spec.fault!r} ({applied[0][1]}, cycle "
                f"{applied[0][0]}) escaped oracle and auditor: run "
                f"finished cleanly at cycle {machine.now}"
            ),
            "diagnostic": None,
            "fault_applied": applied[0],
        }
    if stats.committed < min(spec.length, len(trace)):
        return {
            "outcome": "timeout",
            "message": (
                f"committed {stats.committed}/{len(trace)} in "
                f"{spec.max_cycles} cycles"
            ),
        }
    return {"outcome": "clean"}


# ================================================================ shrink


def shrink_spec(spec: FuzzSpec, result: Optional[Dict] = None) -> FuzzSpec:
    """Greedily minimize a failing spec while preserving its failure.

    The failure signature is the recorded ``error_type`` (plus the
    divergence/audit ``kind``/``check`` when present): a shrunk candidate
    counts only if it fails the same way.  Tries, in order: dropping the
    warmup prefix, halving the trace, and halving the fault onset cycle.
    """
    result = result or run_spec(spec)
    if result["outcome"] not in ("finding", "caught"):
        return spec
    signature = _signature(result)

    def still_fails(candidate: FuzzSpec) -> bool:
        r = run_spec(candidate)
        return (
            r["outcome"] == result["outcome"] and _signature(r) == signature
        )

    current = spec
    if current.warmup:
        candidate = replace(current, warmup=0)
        if still_fails(candidate):
            current = candidate
    while current.length > 128:
        candidate = replace(current, length=current.length // 2)
        if not still_fails(candidate):
            break
        current = candidate
    while current.fault and current.fault_cycle > 20:
        candidate = replace(current, fault_cycle=current.fault_cycle // 2)
        if not still_fails(candidate):
            break
        current = candidate
    return current


def _signature(result: Dict) -> tuple:
    diagnostic = result.get("diagnostic") or {}
    return (
        result.get("error_type"),
        diagnostic.get("kind") or diagnostic.get("check"),
    )


# =========================================================== reproducers


#: Artifact kind tag of reproducer specs in the store envelope.
REPRODUCER_KIND = "fuzz-reproducer"


def write_reproducer(spec: FuzzSpec, result: Dict, path: str) -> str:
    """Atomically write a self-contained reproducer spec to ``path``
    inside the store's checksummed envelope (:mod:`repro.store`) — a
    reproducer that survives a crash half-written is worse than none,
    since it would replay a different failure than it records."""
    from repro.store import write_json_artifact  # lazy: keeps import light

    payload = {
        "version": REPRODUCER_VERSION,
        "spec": spec.to_dict(),
        "result": result,
    }
    write_json_artifact(path, REPRODUCER_KIND, REPRODUCER_VERSION, payload)
    return path


def load_reproducer(path: str) -> Dict:
    """Read an enveloped reproducer spec.  Corruption (or an unframed
    file) raises a typed
    :class:`~repro.store.errors.ArtifactError`; a reproducer from a
    different schema version raises :class:`ValueError`."""
    from repro.store import read_json_artifact  # lazy: keeps import light

    payload, _meta = read_json_artifact(path, REPRODUCER_KIND)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != REPRODUCER_VERSION:
        raise ValueError(
            f"reproducer {path!r} has version {version!r}, "
            f"this build reads version {REPRODUCER_VERSION}"
        )
    return payload


def replay_spec(path: str, strict: bool = True) -> Dict:
    """Re-run a reproducer spec; return the fresh result.

    With ``strict`` (the default), a fresh result whose outcome or
    failure signature differs from the recorded one raises
    :class:`ReplayMismatch` — either the bug was fixed (rerecord or
    delete the reproducer) or determinism broke (much worse).
    """
    payload = load_reproducer(path)
    spec = FuzzSpec.from_dict(payload["spec"])
    recorded = payload["result"]
    fresh = run_spec(spec)
    if strict and (
        fresh["outcome"] != recorded["outcome"]
        or _signature(fresh) != _signature(recorded)
    ):
        raise ReplayMismatch(
            f"reproducer {path!r}: recorded "
            f"{recorded['outcome']}/{_signature(recorded)} but replay "
            f"produced {fresh['outcome']}/{_signature(fresh)}"
        )
    return fresh


# ============================================================== campaign


@dataclass
class FuzzFinding:
    """One confirmed finding, with its (shrunk) reproducer."""

    spec: FuzzSpec
    result: Dict
    reproducer_path: Optional[str] = None

    def __str__(self) -> str:
        kind = self.result.get("kind", "divergence")
        return (
            f"seed {self.spec.seed} [{kind}] "
            f"{self.result.get('error_type')}: "
            f"{self.result.get('message', '')[:160]}"
        )


@dataclass
class FuzzReport:
    """Summary of one fuzz campaign."""

    seeds: List[int] = field(default_factory=list)
    clean: int = 0
    caught: int = 0
    not_applicable: int = 0
    timeouts: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def cases(self) -> int:
        return len(self.seeds)

    def summary(self) -> str:
        return (
            f"{self.cases} cases in {self.elapsed:.1f}s: "
            f"{self.clean} clean, {self.caught} faults caught, "
            f"{self.not_applicable} fault-n/a, {self.timeouts} timeouts, "
            f"{len(self.findings)} findings"
        )


def fuzz(
    seeds: Sequence[int],
    *,
    benchmarks: Optional[Sequence[str]] = None,
    fault_rate: float = 0.0,
    out_dir: Optional[str] = None,
    time_budget: Optional[float] = None,
    shrink: bool = True,
    log=None,
) -> FuzzReport:
    """Run a fuzz campaign over ``seeds``.

    Findings are shrunk and, when ``out_dir`` is given, written there as
    ``repro-seed<N>-<kind>.json`` reproducer specs.  ``time_budget``
    (seconds) stops the campaign early — already-started cases finish —
    which is how the CI job bounds itself.
    """
    report = FuzzReport()
    started = time.monotonic()
    for seed in seeds:
        if time_budget is not None and time.monotonic() - started > time_budget:
            break
        spec = sample_spec(seed, benchmarks=benchmarks, fault_rate=fault_rate)
        result = run_spec(spec)
        report.seeds.append(seed)
        outcome = result["outcome"]
        if log:
            log(f"seed {seed}: {outcome} ({spec.benchmark} w{spec.width} "
                f"prf={spec.int_phys_regs} fault={spec.fault})")
        if outcome == "clean":
            report.clean += 1
        elif outcome == "caught":
            report.caught += 1
        elif outcome == "not-applicable":
            report.not_applicable += 1
        elif outcome == "timeout":
            report.timeouts += 1
        else:
            if shrink:
                spec = shrink_spec(spec, result)
                result = run_spec(spec)
            finding = FuzzFinding(spec=spec, result=result)
            if out_dir:
                kind = result.get("kind", "divergence")
                finding.reproducer_path = write_reproducer(
                    spec, result, os.path.join(out_dir, f"repro-seed{seed}-{kind}.json")
                )
            report.findings.append(finding)
    report.elapsed = time.monotonic() - started
    return report


# =================================================================== CLI


def _parse_seeds(text: str) -> List[int]:
    """``"0-19"`` or ``"1,5,9"`` or a single integer."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle.fuzz",
        description="Config×trace fuzzing under the golden-model oracle.",
    )
    parser.add_argument(
        "--seeds", default="0-9",
        help="seed list: '0-19', '1,5,9', or a single integer (default 0-9)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="probability of seeding an injected fault per case (default 0)",
    )
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark profiles (default: all)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for shrunk reproducer specs (written on findings)",
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; stop starting new cases past it",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="record findings without minimizing them first",
    )
    parser.add_argument(
        "--replay", default=None, metavar="SPEC.json",
        help="re-run a recorded reproducer spec and verify it still fails",
    )
    args = parser.parse_args(argv)

    if args.replay:
        try:
            result = replay_spec(args.replay)
        except ReplayMismatch as err:
            print(f"MISMATCH: {err}")
            return 1
        print(f"reproduced: {result['outcome']} "
              f"{result.get('error_type', '')} {result.get('message', '')[:200]}")
        return 0

    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    report = fuzz(
        _parse_seeds(args.seeds),
        benchmarks=benchmarks,
        fault_rate=args.fault_rate,
        out_dir=args.out,
        time_budget=args.budget,
        shrink=not args.no_shrink,
        log=lambda line: print(line, flush=True),
    )
    print(report.summary())
    for finding in report.findings:
        print(f"FINDING: {finding}")
        if finding.reproducer_path:
            print(f"  reproducer: {finding.reproducer_path}")
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
