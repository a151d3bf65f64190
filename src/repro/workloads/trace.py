"""Trace container and summary statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.isa.instruction import MicroOp
from repro.workloads.packed import PackedOps


@dataclass
class TraceStats:
    """Static summary of a trace (mix and control-flow facts)."""

    length: int
    mix: Counter
    branches: int
    taken_branches: int
    loads: int
    stores: int
    reg_writers: int

    @property
    def taken_rate(self) -> float:
        return self.taken_branches / self.branches if self.branches else 0.0


class Trace:
    """An ordered sequence of :class:`MicroOp` with consistent dataflow.

    The ops, initial register values and warmup prefix are immutable
    once built.  ``name`` and ``seed`` identify the generating profile
    for reporting.  The timed ops are ``MicroOp`` objects, because the
    pipeline reads them; the warmup prefix, usually far longer and read
    only by the functional warmup and by Figure 2, is held as packed
    rows (:class:`~repro.workloads.packed.PackedOps`, about 88 bytes an
    op).  Hand-built ``warmup_ops`` are packed on construction, and
    :attr:`warmup_ops` is a read-only sequence view over the rows that
    builds a ``MicroOp`` only for an item read.

    A trace also carries *derived* state: :attr:`warm_states`, the
    post-warmup branch and cache state that
    :meth:`repro.core.machine.Machine.warmup` computes once per
    geometry and then copies into every later machine run on this
    trace object.  It lives and dies with the trace (so a trace cache's
    bound also bounds it), and :meth:`fresh_copy` gives a trace over the
    same ops without it.
    """

    def __init__(
        self,
        name: str,
        ops: Sequence[MicroOp],
        seed: int = 0,
        initial_int: Sequence[int] = None,
        initial_fp: Sequence[int] = None,
        warmup_ops: Union[PackedOps, Iterable[MicroOp]] = (),
    ) -> None:
        self.name = name
        self.seed = seed
        self._ops: List[MicroOp] = list(ops)
        #: Architectural register contents before the first op; the
        #: machine seeds its committed physical registers from these.
        self.initial_int: List[int] = list(initial_int) if initial_int else [0] * 32
        self.initial_fp: List[int] = list(initial_fp) if initial_fp else [0] * 32
        if not isinstance(warmup_ops, PackedOps):
            warmup_ops = PackedOps.pack(warmup_ops)
        self._warmup = warmup_ops
        #: Derived warm-state memo, keyed by (BranchConfig, MemoryConfig):
        #: ``{"branch": BranchUnit.state(), "memory":
        #: MemoryHierarchy.state()}`` right after the functional warmup.
        #: Filled and read only by Machine.warmup; never aliased by a
        #: running machine.
        self.warm_states: Dict[Tuple, Dict] = {}

    @property
    def warmup_ops(self) -> PackedOps:
        """Untimed prefix used to warm predictors and caches — the
        stand-in for the paper's 400M-instruction fast-forward."""
        return self._warmup

    def fresh_copy(self) -> "Trace":
        """The same trace as a new object with an empty warm-state memo:
        the first machine run on it does the full functional warmup."""
        return Trace(self.name, self._ops, self.seed, self.initial_int,
                     self.initial_fp, self._warmup)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> MicroOp:
        return self._ops[index]

    @property
    def ops(self) -> Sequence[MicroOp]:
        return self._ops

    def stats(self) -> TraceStats:
        """Compute mix/control statistics over the whole trace."""
        mix = Counter()
        branches = taken = loads = stores = writers = 0
        for op in self._ops:
            mix[op.op] += 1
            if op.is_branch:
                branches += 1
                taken += op.taken
            if op.is_load:
                loads += 1
            if op.is_store:
                stores += 1
            if op.dest is not None:
                writers += 1
        return TraceStats(
            length=len(self._ops),
            mix=mix,
            branches=branches,
            taken_branches=taken,
            loads=loads,
            stores=stores,
            reg_writers=writers,
        )

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self._ops)} ops, seed={self.seed})"
