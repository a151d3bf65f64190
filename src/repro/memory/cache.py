"""Set-associative cache model with LRU replacement.

Timing-only: caches track presence of lines, not data (trace micro-ops
carry their own values).  ``access`` returns whether the line hit and the
latency contributed by this level; the hierarchy composes levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import CacheConfig


@dataclass
class AccessResult:
    """Result of one access at one cache level."""

    hit: bool
    latency: int  # total cycles from this level down (includes misses below)


class Cache:
    """One level of set-associative cache, LRU, write-allocate.

    ``next_level`` is another :class:`Cache` or ``None`` (then
    ``memory_latency`` applies on miss).
    """

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        next_level: "Cache" = None,
        memory_latency: int = 150,
    ) -> None:
        num_lines = config.size // config.line
        if num_lines % config.assoc:
            raise ValueError(f"{name}: lines not divisible by associativity")
        self.name = name
        self.config = config
        self.num_sets = num_lines // config.assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        self.assoc = config.assoc
        self.line_shift = config.line.bit_length() - 1
        if (1 << self.line_shift) != config.line:
            raise ValueError(f"{name}: line size must be a power of two")
        self.next_level = next_level
        self.memory_latency = memory_latency
        # Precomputed indexing constants: access_latency runs once per
        # fetched instruction and per load/store, so the set mask and tag
        # shift must not be re-derived per access.
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        self._hit_latency = config.latency
        # sets[i] is an ordered sequence of tags; index 0 is MRU.  A set
        # starts as a tuple shared with other caches (the empty set, or a
        # warm image's, see load_state) and becomes a list of this
        # cache's own on its first touch.
        self._sets = [()] * self.num_sets
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        """Check presence without updating LRU or statistics."""
        line = addr >> self.line_shift
        tag = line >> self._tag_shift
        return tag in self._sets[line & self._set_mask]

    def access_latency(self, addr: int) -> int:
        """Access a line; allocate on miss; return the composed latency.

        The hot-path form of :meth:`access` — no result object."""
        line = addr >> self.line_shift
        tag = line >> self._tag_shift
        sets = self._sets
        index = line & self._set_mask
        entries = sets[index]
        if entries.__class__ is tuple:
            entries = sets[index] = list(entries)
        if tag in entries:
            if entries[0] != tag:
                entries.remove(tag)
                entries.insert(0, tag)
            self.hits += 1
            return self._hit_latency
        self.misses += 1
        nxt = self.next_level
        if nxt is not None:
            latency = self._hit_latency + nxt.access_latency(addr)
        else:
            latency = self._hit_latency + self.memory_latency
        entries.insert(0, tag)
        if len(entries) > self.assoc:
            entries.pop()
        return latency

    def access(self, addr: int) -> AccessResult:
        """Access a line; allocate on miss; return composed latency."""
        misses_before = self.misses
        latency = self.access_latency(addr)
        return AccessResult(hit=self.misses == misses_before, latency=latency)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def state(self) -> Dict:
        """Immutable image of the LRU-ordered sets (a tuple of tag
        tuples) and the hit/miss counters: one cache of a trace's
        warm-state memo.  Untouched sets are shared with
        the cache, which never writes to a tuple."""
        return {
            "sets": tuple(map(tuple, self._sets)),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, data: Dict) -> None:
        """Start from a :meth:`state` image: the cache's set list is a
        new list over the image's tuples, and each set is copied into a
        list of the cache's own on its first touch, so the image is
        never written.  Raises ValueError when the set count differs."""
        sets = data["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(f"{self.name}: image geometry does not match "
                             f"the machine")
        self._sets = list(sets)
        self.hits = data["hits"]
        self.misses = data["misses"]

    def flush(self) -> None:
        """Empty the cache (used between experiment runs)."""
        self._sets = [()] * self.num_sets
