"""Load/store queue.

Bounds in-flight memory operations (Table 1: 256 entries) and provides
store-to-load forwarding: a load whose address matches an older,
uncommitted store is serviced at L1-hit latency without a cache access.
Memory disambiguation is perfect (loads never violate ordering), matching
the SimpleScalar substrate the paper built on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.inflight import InFlight


class LoadStoreQueue:
    """Occupancy tracking + a store address index for forwarding."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.occupancy = 0
        #: address -> list of in-flight store InFlights (program order)
        self._stores_by_addr: Dict[int, List[InFlight]] = {}
        self.forwards = 0

    @property
    def has_space(self) -> bool:
        return self.occupancy < self.capacity

    def insert(self, instr: InFlight) -> None:
        if self.occupancy >= self.capacity:
            raise RuntimeError("LSQ overflow: caller must check has_space")
        self.occupancy += 1
        if instr.op.is_store:
            self._stores_by_addr.setdefault(instr.op.mem_addr, []).append(instr)

    def remove(self, instr: InFlight) -> None:
        """Drop an entry at commit or squash."""
        self.occupancy -= 1
        if self.occupancy < 0:
            raise RuntimeError("LSQ occupancy underflow")
        if instr.op.is_store:
            stores = self._stores_by_addr.get(instr.op.mem_addr)
            if stores:
                try:
                    stores.remove(instr)
                except ValueError:
                    pass
                if not stores:
                    self._stores_by_addr.pop(instr.op.mem_addr, None)

    def forwarding_store(self, load: InFlight) -> bool:
        """True if an older live store to the same address can forward."""
        stores = self._stores_by_addr.get(load.op.mem_addr)
        if not stores:
            return False
        for store in stores:
            if store.seq < load.seq and not store.squashed:
                return True
        return False
