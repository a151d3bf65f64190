"""The content-addressed result cache: O(1) answers for repeat jobs.

Entries live under ``<root>/cache/`` as ``result-cache`` envelopes
(:func:`~repro.store.integrity.write_json_artifact`): header digests
over the payload, atomic durable writes, typed errors on any damaged
byte, so ``python -m repro.store fsck`` audits the cache tree exactly
like every other artifact the simulator persists.  The address is the
job key's SHA-256 (the key itself embeds the config digest and trace
identity — see :mod:`repro.serve.jobs`), and every entry carries its
key in the payload, so a hash collision or a misfiled entry is detected
at read time rather than served.

A corrupt entry is never an error to the caller: :meth:`ResultCache.get`
quarantines it (``repro.store.quarantine_path``) and reports a miss, so
the job is simply re-simulated and the cache heals itself.

GC policy is deliberately simple and explicit — no background eviction
thread deciding behind the operator's back.  ``gc(max_age, max_entries)``
drops entries beyond an age bound and/or beyond a count bound
(oldest-created first), and is reachable from ``POST /gc`` and
``python -m repro.serve gc``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.store import (
    ArtifactError,
    quarantine_path,
    read_json_artifact,
    write_json_artifact,
)

#: Envelope kind and schema of a cache entry.
CACHE_KIND = "result-cache"
CACHE_SCHEMA = 1

#: Hex digits of the entry filename (full enough that accidental
#: collisions are out of reach; the stored key is the real guard).
_ADDR_HEX = 32


def cache_address(key: str) -> str:
    """Filename-safe content address of one job key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:_ADDR_HEX]


@dataclass
class CacheEntry:
    """One cached simulation result."""

    key: str
    stats: Dict
    #: Cost accounting recorded when the result was first simulated:
    #: cycles simulated, instructions committed, wall seconds, backend.
    cost: Dict
    created_unix: float

    def to_dict(self) -> Dict:
        return {"key": self.key, "stats": self.stats, "cost": self.cost,
                "created_unix": self.created_unix}

    @classmethod
    def from_dict(cls, data: Dict) -> "CacheEntry":
        return cls(key=data["key"], stats=data["stats"],
                   cost=data.get("cost", {}),
                   created_unix=float(data.get("created_unix", 0.0)))


class ResultCache:
    """The store-backed cache tier behind the serve endpoint."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{cache_address(key)}.json")

    # ------------------------------------------------------------ reads

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or None.  Damaged entries are
        quarantined and reported as misses; an intact entry whose stored
        key differs (address collision, copied-in foreign file) is left
        alone but never served."""
        path = self.path_for(key)
        if not os.path.exists(path):
            return None
        try:
            data, _ = read_json_artifact(path, CACHE_KIND,
                                         expected_schema=CACHE_SCHEMA)
        except (ArtifactError, OSError):
            try:
                quarantine_path(path)
            except OSError:
                pass
            return None
        entry = CacheEntry.from_dict(data)
        if entry.key != key:
            return None
        return entry

    def has(self, key: str) -> bool:
        return self.get(key) is not None

    # ----------------------------------------------------------- writes

    def put(self, key: str, stats: Dict, cost: Dict) -> CacheEntry:
        """Durably store one result; returns the entry as written.
        The write is atomic + fsynced *before* the caller acknowledges
        the job as done — the cache is the durability point for stats."""
        entry = CacheEntry(key=key, stats=stats, cost=cost,
                           created_unix=time.time())
        write_json_artifact(self.path_for(key), CACHE_KIND, CACHE_SCHEMA,
                            entry.to_dict())
        return entry

    # --------------------------------------------------------------- gc

    def entries(self) -> List[CacheEntry]:
        """Every readable entry (damaged ones quarantined on the way)."""
        out: List[CacheEntry] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                data, _ = read_json_artifact(path, CACHE_KIND,
                                             expected_schema=CACHE_SCHEMA)
            except (ArtifactError, OSError):
                try:
                    quarantine_path(path)
                except OSError:
                    pass
                continue
            out.append(CacheEntry.from_dict(data))
        return out

    def __len__(self) -> int:
        try:
            return sum(1 for n in os.listdir(self.root)
                       if n.endswith(".json"))
        except OSError:
            return 0

    def gc(self, max_age: Optional[float] = None,
           max_entries: Optional[int] = None) -> int:
        """Drop entries older than ``max_age`` seconds and/or trim to
        the newest ``max_entries`` (by recorded creation time).  Returns
        how many entries were removed."""
        entries = self.entries()
        now = time.time()
        doomed: List[CacheEntry] = []
        if max_age is not None:
            doomed.extend(e for e in entries if now - e.created_unix > max_age)
        if max_entries is not None and max_entries >= 0:
            survivors = [e for e in entries if e not in doomed]
            survivors.sort(key=lambda e: e.created_unix, reverse=True)
            doomed.extend(survivors[max_entries:])
        removed = 0
        for entry in doomed:
            try:
                os.unlink(self.path_for(entry.key))
                removed += 1
            except OSError:
                pass
        return removed
