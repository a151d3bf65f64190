"""Delivered cells: identity, digest, exact model counts, accuracy.

A *delivery* is one simulation result handed back to the caller: a
sweep cell, a vector lane, or a served job.  Its key is the simulation's
identity (trace identity plus the resolved machine-config digest), so
the same simulation reached through different drivers — Table 2's base
cell and Figure 9's PR=64 lane, say — has one key.  A delivery is a
*hit* when its key was delivered earlier in the same operation (for a
served job: when a fetch of its key had completed before this one
started) and a *miss* otherwise.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Optional, Tuple


def sim_key(benchmark: str, length: int, warmup: int, seed: int,
            config) -> str:
    """Identity of one simulation: trace knobs + resolved config digest."""
    from repro.config import config_digest

    return f"{benchmark}|n{length}|u{warmup}|s{seed}|{config_digest(config)}"


def trace_identity(trace) -> Tuple[str, int, int, int]:
    """(benchmark, length, warmup, seed) of a generated trace."""
    return (trace.name, len(trace), len(trace.warmup_ops), trace.seed)


class Delivery:
    __slots__ = ("key", "latency_s", "stats", "hit", "benchmark", "width",
                 "regs", "base")

    def __init__(self, key: str, latency_s: float, stats: Optional[Dict],
                 info: Dict) -> None:
        self.key = key
        self.latency_s = latency_s
        #: ``SimStats.to_dict()``; None for a failed delivery.
        self.stats = stats
        self.hit = False
        self.benchmark = info["benchmark"]
        self.width = info["width"]
        #: Physical registers per class (the Figure 9 axis).
        self.regs = info["regs"]
        #: The Table 1 machine for its width (Table 2's base cell).
        self.base = info["base"]


def mark_hits(deliveries: List[Delivery]) -> None:
    """Flag every delivery whose key an earlier one already carried
    (``deliveries`` in delivery order)."""
    seen = set()
    for delivery in deliveries:
        delivery.hit = delivery.key in seen
        seen.add(delivery.key)


def distinct(deliveries: Iterable[Delivery]) -> Dict[str, Dict]:
    """key -> stats of the successful deliveries.  Raises when two
    deliveries of one key disagree: the simulator is deterministic, so a
    repeated simulation must reproduce its stats bit for bit."""
    out: Dict[str, Dict] = {}
    for delivery in deliveries:
        if delivery.stats is None:
            continue
        seen = out.setdefault(delivery.key, delivery.stats)
        if seen != delivery.stats:
            raise AssertionError(
                f"non-deterministic result: two deliveries of "
                f"{delivery.key} differ")
    return out


def stats_digest(cells: Dict[str, Dict]) -> str:
    """sha256 over the canonical stats of every distinct cell, in
    sorted key order."""
    canonical = json.dumps([[key, cells[key]] for key in sorted(cells)],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_counts(cells: Dict[str, Dict]) -> Dict[str, float]:
    """Exact simulated statistics summed over the distinct cells.  A
    change that only speeds up the simulator must leave all of them
    unchanged."""
    def total(field: str) -> int:
        return sum(stats[field] for stats in cells.values())

    rates = [stats["dl1_miss_rate"] for stats in cells.values()]
    return {
        "core.cycles": total("cycles"),
        "core.committed": total("committed"),
        "rename.stall_regs": total("rename_stall_regs"),
        "rename.inlined": total("inlined"),
        "rename.pri_early_frees": total("pri_early_frees"),
        "rename.er_early_frees": total("er_early_frees"),
        "branch.mispredicts": total("mispredicts"),
        "memory.dl1_miss_rate": sum(rates) / len(rates) if rates else 0.0,
    }


def table2_error_pct(deliveries: Iterable[Delivery]) -> Optional[float]:
    """Mean absolute % error of base IPC against the paper's Table 2,
    over the distinct base cells among ``deliveries``."""
    from repro.workloads import get_profile

    errors = {}
    for delivery in deliveries:
        if not delivery.base or delivery.stats is None:
            continue
        profile = get_profile(delivery.benchmark)
        paper = (profile.paper_ipc_4w if delivery.width == 4
                 else profile.paper_ipc_8w)
        stats = delivery.stats
        ipc = stats["committed"] / stats["cycles"] if stats["cycles"] else 0.0
        errors[delivery.key] = abs(ipc - paper) / paper * 100.0
    if not errors:
        return None
    return statistics.fmean(errors.values())


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
