"""The full memory hierarchy: split L1s over a unified L2 over memory."""

from __future__ import annotations

from typing import Dict

from repro.config import MemoryConfig
from repro.memory.cache import Cache


class MemoryHierarchy:
    """IL1 + DL1 sharing a unified L2, backed by fixed-latency memory.

    * :meth:`fetch_latency` — instruction fetch of a PC.
    * :meth:`load_latency` — data read (latency to use).
    * :meth:`store_access` — data write at commit (write-allocate; latency
      returned but stores do not stall commit in the model).
    """

    def __init__(self, config: MemoryConfig = None) -> None:
        config = config or MemoryConfig()
        self.config = config
        self.l2 = Cache("L2", config.l2, next_level=None,
                        memory_latency=config.memory_latency)
        self.il1 = Cache("IL1", config.il1, next_level=self.l2)
        self.dl1 = Cache("DL1", config.dl1, next_level=self.l2)

    def fetch_latency(self, pc: int) -> int:
        return self.il1.access_latency(pc)

    def load_latency(self, addr: int) -> int:
        return self.dl1.access_latency(addr)

    def store_access(self, addr: int) -> int:
        return self.dl1.access_latency(addr)

    @property
    def dl1_hit_latency(self) -> int:
        """The latency speculative scheduling assumes for every load."""
        return self.config.dl1.latency

    def state(self) -> Dict:
        """Every level's :meth:`Cache.state`, by level name: the
        memory half of a trace's warm-state memo."""
        return {"il1": self.il1.state(), "dl1": self.dl1.state(),
                "l2": self.l2.state()}

    def load_state(self, data: Dict) -> None:
        """Install a :meth:`state` image (see :meth:`Cache.load_state`)."""
        self.il1.load_state(data["il1"])
        self.dl1.load_state(data["dl1"])
        self.l2.load_state(data["l2"])

    def flush(self) -> None:
        self.il1.flush()
        self.dl1.flush()
        self.l2.flush()
