"""Simulation statistics.

Gathers everything the paper's figures need:

* IPC (Table 2, Figures 9/10/12 speedups);
* register lifetime split into the three phases of Figure 1/8 —
  allocate→write, write→last-read, last-read→release;
* average register file occupancy (Figure 11);
* PRI/ER event counters (inlines, early frees, duplicate deallocations,
  WAR pins) used in analysis and tests.

Both containers use ``__slots__`` — the cycle-level core updates these
counters for every fetched/renamed/issued/committed micro-op, and the
attribute-dict overhead of an open class is measurable at that rate.
``to_dict``/``from_dict`` preserve the exact (deep) JSON layout the
dataclass versions produced, so journals and cache entries round-trip
unchanged.
"""

from __future__ import annotations

from typing import Dict

_LIFETIME_FIELDS = (
    "releases",
    "alloc_to_write",
    "write_to_last_read",
    "last_read_to_release",
)


class LifetimeStats:
    """Accumulates physical-register lifetime phases (cycles)."""

    __slots__ = _LIFETIME_FIELDS

    def __init__(
        self,
        releases: int = 0,
        alloc_to_write: int = 0,
        write_to_last_read: int = 0,
        last_read_to_release: int = 0,
    ) -> None:
        self.releases = releases
        self.alloc_to_write = alloc_to_write
        self.write_to_last_read = write_to_last_read
        self.last_read_to_release = last_read_to_release

    def record(self, alloc, write, last_read, release) -> None:
        """Record one register's lifetime at release time.

        ``write``/``last_read`` may be None for registers that were never
        written (squashed producers) or never read; the phases collapse
        accordingly, as in the paper's measurement.
        """
        write_eff = write if write is not None else release
        read_eff = last_read if last_read is not None else write_eff
        if read_eff < write_eff:
            read_eff = write_eff
        self.releases += 1
        if write_eff > alloc:
            self.alloc_to_write += write_eff - alloc
        if read_eff > write_eff:
            self.write_to_last_read += read_eff - write_eff
        if release > read_eff:
            self.last_read_to_release += release - read_eff

    def to_dict(self) -> Dict:
        return {name: getattr(self, name) for name in _LIFETIME_FIELDS}

    def __eq__(self, other) -> bool:
        return isinstance(other, LifetimeStats) and all(
            getattr(self, name) == getattr(other, name)
            for name in _LIFETIME_FIELDS
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)}" for n in _LIFETIME_FIELDS)
        return f"LifetimeStats({body})"

    @property
    def avg_alloc_to_write(self) -> float:
        return self.alloc_to_write / self.releases if self.releases else 0.0

    @property
    def avg_write_to_last_read(self) -> float:
        return self.write_to_last_read / self.releases if self.releases else 0.0

    @property
    def avg_last_read_to_release(self) -> float:
        return self.last_read_to_release / self.releases if self.releases else 0.0

    @property
    def avg_total(self) -> float:
        return (
            self.avg_alloc_to_write
            + self.avg_write_to_last_read
            + self.avg_last_read_to_release
        )


#: (name, default) for every scalar counter, in serialization order —
#: the order the old dataclass declared its fields, which is the order
#: ``to_dict`` emits and journals/cache entries already store.
_SCALAR_FIELDS = (
    ("cycles", 0),
    ("committed", 0),
    ("fetched", 0),
    ("renamed", 0),
    ("issued", 0),
    ("issue_replays", 0),  # selects that failed verification (latency misspec)
    ("war_replays", 0),  # REPLAY-policy WAR violations detected
    ("squashed", 0),
    ("branches", 0),
    ("mispredicts", 0),
    ("rename_stall_regs", 0),  # cycles rename stalled for a free register
    ("rename_stall_other", 0),
    # Virtual-physical mode: selects denied because no physical register
    # was available to bind at issue; and the deadlock backstop's steals.
    ("vp_alloc_stalls", 0),
    ("vp_steals", 0),
    # PRI / ER counters
    ("inline_attempts", 0),  # narrow results seen at retire
    ("inlined", 0),  # map entries actually rewritten (WAW check passed)
    ("inline_waw_dropped", 0),  # narrow but entry already remapped (Fig 7)
    ("pri_early_frees", 0),
    ("pri_frees_deferred", 0),  # inlined but pinned by refs at retire time
    ("er_early_frees", 0),
    ("duplicate_deallocs", 0),
    # Invariant audits performed (0 unless ``MachineConfig.audit`` is on).
    ("audits", 0),
    # Golden-model oracle counters (0 unless ``MachineConfig.oracle`` on)
    ("oracle_commits", 0),  # retired instructions compared at commit
    ("oracle_dest_checks", 0),  # destination values actually observable
    ("oracle_unobserved", 0),  # dests already reclaimed/inlined at commit
    ("oracle_arch_checks", 0),  # full architectural-state comparisons
)

_FLOAT_FIELDS = (
    ("branch_mispredict_rate", 0.0),
    ("il1_miss_rate", 0.0),
    ("dl1_miss_rate", 0.0),
    ("l2_miss_rate", 0.0),
)


class SimStats:
    """Top-level counters for one simulation run."""

    __slots__ = tuple(n for n, _ in _SCALAR_FIELDS) + (
        "occupancy_sum",
        "lifetimes",
    ) + tuple(n for n, _ in _FLOAT_FIELDS)

    def __init__(self, **overrides) -> None:
        for name, default in _SCALAR_FIELDS:
            setattr(self, name, overrides.pop(name, default))
        # occupancy integrals (sum over cycles of allocated registers)
        self.occupancy_sum: Dict[str, int] = overrides.pop(
            "occupancy_sum", None
        ) or {"int": 0, "fp": 0}
        self.lifetimes: Dict[str, LifetimeStats] = overrides.pop(
            "lifetimes", None
        ) or {"int": LifetimeStats(), "fp": LifetimeStats()}
        # branch predictor / cache summaries, filled at end of run
        for name, default in _FLOAT_FIELDS:
            setattr(self, name, overrides.pop(name, default))
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise TypeError(f"SimStats got unexpected fields: {unknown}")

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def avg_occupancy(self, reg_class: str = "int") -> float:
        return self.occupancy_sum[reg_class] / self.cycles if self.cycles else 0.0

    def lifetime(self, reg_class: str = "int") -> LifetimeStats:
        return self.lifetimes[reg_class]

    def to_dict(self) -> Dict:
        """Deep JSON-serializable form (journal cells, cache entries).

        Field order matches the historical dataclass layout exactly.
        """
        out = {name: getattr(self, name) for name, _ in _SCALAR_FIELDS}
        out["occupancy_sum"] = dict(self.occupancy_sum)
        out["lifetimes"] = {
            name: life.to_dict() for name, life in self.lifetimes.items()
        }
        for name, _ in _FLOAT_FIELDS:
            out[name] = getattr(self, name)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SimStats) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"SimStats(cycles={self.cycles}, committed={self.committed}, "
            f"ipc={self.ipc:.3f})"
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["lifetimes"] = {
            name: LifetimeStats(**fields)
            for name, fields in payload.get("lifetimes", {}).items()
        }
        return cls(**payload)

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        life = self.lifetimes["int"]
        return (
            f"cycles={self.cycles} committed={self.committed} ipc={self.ipc:.3f} "
            f"mispredict_rate={self.branch_mispredict_rate:.3f} "
            f"dl1_miss={self.dl1_miss_rate:.3f} "
            f"int_occ={self.avg_occupancy('int'):.1f} "
            f"inlined={self.inlined} pri_frees={self.pri_early_frees} "
            f"er_frees={self.er_early_frees} "
            f"lifetime(int)={life.avg_total:.1f}cyc "
            f"[{life.avg_alloc_to_write:.1f}/{life.avg_write_to_last_read:.1f}/"
            f"{life.avg_last_read_to_release:.1f}]"
        )
