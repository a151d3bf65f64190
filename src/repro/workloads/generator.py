"""Synthetic trace generator.

Expands a :class:`~repro.workloads.profiles.BenchmarkProfile` into a
concrete micro-op stream with *consistent dataflow*: the generator tracks
architectural register contents as it emits instructions, so every source
operand records the exact value dataflow says it must observe.  The
simulator asserts this end-to-end (rename → scheduler → register file /
bypass / inlined immediate), which is what catches PRI bookkeeping bugs
such as the WAR violation of the paper's Figure 6.

The generator models:

* instruction mix and load/store/branch structure from the profile;
* producer-consumer distances via a geometric "recent destination" model
  (short distances → tight dependence chains → low ILP);
* pointer chasing (loads whose address depends on the previous load);
* a static set of branch sites with biased or patterned outcomes, calls
  and returns (exercising the RAS), and loop back-edges, laid out over a
  code footprint that drives IL1 behaviour;
* a three-region data working set (hot/warm/cold) with optional streaming,
  driving DL1/L2/memory behaviour.

**Draw order is part of the output.**  A trace is a function of its
profile and seed alone, and ``tests/workloads/test_trace_golden.py`` pins
every field of every op.  The hot path makes exactly the draws, in
exactly the order, that the plain ``random.Random`` calls it stands for
would make:

* a bounded integer (``randrange``/``randint``/``choice`` over ``n``
  values) is ``getrandbits(k)`` with ``k = n.bit_length()``, redrawn while
  it is ``>= n`` — the rejection loop those methods run;
* ``expovariate(lam)`` is ``-log(1.0 - random()) / lam``;
* a weighted pick is the first cumulative weight ``>= random()``, found
  with ``bisect_left``;
* a constant compared against a draw is computed once, by the same
  expression the per-call code would evaluate, so it is the same float.

A change that adds, drops or reorders a draw moves every later op, and
with it every table and figure.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from math import log
from typing import List, Optional, Tuple

from repro.isa.instruction import MicroOp, SourceOperand
from repro.isa.opcodes import OpClass, RegClass
from repro.isa.registers import INT_ZERO_REG, NUM_INT_ARCH_REGS
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.trace import Trace
from repro.workloads.value_models import FpValueModel, IntValueModel

_CODE_BASE = 0x0040_0000
_HOT_BASE = 0x1000_0000
_WARM_BASE = 0x2000_0000
_COLD_BASE = 0x4000_0000
_FUNC_COUNT = 32
_CALL_SITE_BITS = (2 * _FUNC_COUNT).bit_length()
_HOT_WORDS = 8 * 1024 // 8  # doublewords in the 8KB hot data region
_NUM_DESTS = NUM_INT_ARCH_REGS - 1  # writable registers: all but the zero register

_INT, _FP = RegClass.INT, RegClass.FP
_INT_ALU, _LOAD, _STORE = OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE
_FP_LOAD, _FP_STORE = OpClass.FP_LOAD, OpClass.FP_STORE
_BRANCH, _CALL, _RETURN = OpClass.BRANCH, OpClass.CALL, OpClass.RETURN
_FP_ALU = frozenset((OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV))


def _record_dest(values: List[int], recent: List[int], index: int, value: int) -> None:
    """Write a destination's value and push it on its recency list."""
    values[index] = value
    recent.append(index)
    if len(recent) > 64:
        del recent[:32]


class _BranchSite:
    """One static branch with a fixed PC and an outcome process.

    Three kinds: *easy* (strongly biased), *hard* (weakly biased — the
    data-dependent branches predictors cannot learn), and *loop* (a fixed
    trip count: taken ``k-1`` times then not taken once — bimodal
    mispredicts the exit, gshare learns it when the history window covers
    the trip count).
    """

    __slots__ = ("pc", "target", "bias", "taken_dir", "trip_count", "phase", "backward")

    def __init__(self, pc, target, bias, taken_dir, trip_count, backward):
        self.pc = pc
        self.target = target
        self.bias = bias
        self.taken_dir = taken_dir
        self.trip_count = trip_count  # 0 = biased site, else loop period
        self.phase = 0
        self.backward = backward

    def outcome(self, random) -> bool:
        """The next outcome; ``random`` is the generator's ``rng.random``."""
        if self.trip_count:
            taken = self.phase < self.trip_count - 1
            self.phase = (self.phase + 1) % self.trip_count
            return taken
        if random() < self.bias:
            return self.taken_dir
        return not self.taken_dir


class TraceGenerator:
    """Generates micro-op traces from a benchmark profile.

    Deterministic for a given ``(profile, seed)`` pair; regenerate rather
    than persist traces.  The generator holds no reference to itself
    (no bound method or closure of ``self`` on ``self``), so it and the
    traces it builds are freed by reference counting alone.
    """

    def __init__(self, profile: BenchmarkProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        # zlib.crc32, not hash(): str hashes are salted per process and
        # would make traces irreproducible across runs.
        self.rng = random.Random(zlib.crc32(profile.name.encode()) * 1_000_003 + seed)
        # The hot path draws through these two, bound once.
        self._random = self.rng.random
        self._getrandbits = self.rng.getrandbits
        self.int_model = IntValueModel(profile.int_widths)
        self.fp_model = FpValueModel(
            zero_frac=profile.fp_zero_frac,
            ones_frac=profile.fp_ones_frac,
            exp_narrow_frac=profile.fp_exp_narrow_frac,
            sig_narrow_frac=profile.fp_sig_narrow_frac,
        )
        self._init_constants()
        self._init_registers()
        self._init_control_flow()
        self._init_memory()
        self._seq = 0
        self._op_classes, self._op_weights = self._build_mix()

    # ------------------------------------------------------------- setup

    def _init_constants(self) -> None:
        """Per-profile constants of the hot path (see the module
        docstring: each is the float the per-call expression gives)."""
        p = self.profile
        if not 0 < p.dest_hot_regs < _NUM_DESTS:
            raise ValueError(
                f"{p.name}: dest_hot_regs must be in [1, {_NUM_DESTS - 1}], "
                f"got {p.dest_hot_regs}"
            )
        self._zero_reg_frac = p.zero_reg_frac
        self._src_recent_frac = p.src_recent_frac
        self._dep_lambda = 1.0 / max(1.0, p.dep_mean)  # expovariate's rate
        self._dest_hot_frac = p.dest_hot_frac
        # (first register, pool size, bits per draw) of the two pools.
        hot, cold = p.dest_hot_regs, _NUM_DESTS - p.dest_hot_regs
        self._hot_pool = (0, hot, hot.bit_length())
        self._cold_pool = (hot, cold, cold.bit_length())
        self._pointer_chase_frac = p.pointer_chase_frac
        self._fp_mem_frac = p.fp_mem_frac
        self._call_frac = p.call_frac
        self._return_frac = p.call_frac * 1.2
        self._mem_frac = p.mem_access_frac
        self._l2_or_mem_frac = p.mem_access_frac + p.l2_access_frac
        self._code_end = _CODE_BASE + p.code_footprint

    def _init_registers(self) -> None:
        rng = self.rng
        self.int_values = [self.int_model.sample(rng) for _ in range(NUM_INT_ARCH_REGS)]
        self.int_values[INT_ZERO_REG] = 0
        self.fp_values = [self.fp_model.sample(rng) for _ in range(NUM_INT_ARCH_REGS)]
        # Recency lists: logical register indices, most recent last.
        self.recent_int: List[int] = []
        self.recent_fp: List[int] = []
        self.last_load_dest: Optional[int] = None

    def _init_control_flow(self) -> None:
        p, rng = self.profile, self.rng
        hard_frac = max(0.0, 1.0 - p.easy_site_frac - p.loop_site_frac)
        # Random site placement: regular strides would alias whole site
        # populations onto a few predictor/BTB sets.
        footprint = max(p.code_footprint, 4096)
        slots = len(range(0, footprint, 4))
        if p.branch_sites + 2 * _FUNC_COUNT > slots:
            # The distinct-PC draws below would never finish.
            raise ValueError(
                f"{p.name}: {p.branch_sites} branch sites and "
                f"{2 * _FUNC_COUNT} call sites need distinct PCs, but a "
                f"{footprint}-byte code footprint has only {slots}"
            )
        pcs = set()
        while len(pcs) < p.branch_sites:
            pcs.add(_CODE_BASE + rng.randrange(0, footprint, 4))
        site_pcs = sorted(pcs)
        self.sites: List[_BranchSite] = []
        for i in range(p.branch_sites):
            pc = site_pcs[i]
            backward = rng.random() < p.backedge_frac
            if backward:
                target = max(_CODE_BASE, pc - rng.randrange(64, 2048, 4))
            else:
                target = pc + rng.randrange(8, 512, 4)
            trip_count = 0
            bias, taken_dir = p.easy_bias, rng.random() < 0.6
            r = rng.random()
            if r < p.loop_site_frac:
                trip_count = rng.randint(4, 10)
                taken_dir = True
            elif r < p.loop_site_frac + hard_frac and i >= 8:
                # Hard (data-dependent) branches live in the zipf tail:
                # the hottest few branches in real code are loop branches
                # and are well predicted.
                bias = p.hard_bias
            self.sites.append(
                _BranchSite(pc, target, bias, taken_dir, trip_count, backward)
            )
        # Zipf-ish weights: a few hot loop branches dominate.
        weights = [1.0 / (i + 1) for i in range(len(self.sites))]
        total = sum(weights)
        cum, acc = [], 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        self._site_cum = cum
        # Fixed call sites: (call PC, callee entry) pairs, so the BTB can
        # learn call targets and the RAS predicts the matching returns.
        entries = [
            _CODE_BASE + rng.randrange(0, footprint, 4) for _ in range(_FUNC_COUNT)
        ]
        call_pcs = set()
        while len(call_pcs) < _FUNC_COUNT * 2:
            pc = _CODE_BASE + rng.randrange(0, footprint, 4)
            if pc not in pcs:
                call_pcs.add(pc)
        self._call_sites = [(pc, rng.choice(entries)) for pc in sorted(call_pcs)]
        self._return_pcs: List[int] = []
        self._pc = _CODE_BASE

    def _init_memory(self) -> None:
        # Three engineered access classes (see profile docstring):
        # * hot — random inside an 8KB region: DL1-resident after warmup;
        # * l2  — a ring of lines that all map to the same DL1 set, more
        #   of them than the DL1's associativity, so every access conflict-
        #   misses the DL1 yet stays L2-resident (they occupy distinct L2
        #   sets);
        # * mem — a never-revisited pointer: compulsory miss to memory.
        dl1 = 32 * 1024 // 16 // 4  # sets in the paper's DL1 (512)
        stride = dl1 * 16  # 8KB: same DL1 set, different L2 sets
        self._l2_ring = [_WARM_BASE + i * stride for i in range(8)]
        self._l2_idx = 0
        self._mem_ptr = _COLD_BASE

    def _build_mix(self) -> Tuple[List[OpClass], List[float]]:
        p = self.profile
        pairs = [
            (OpClass.INT_ALU, p.alu_frac),
            (OpClass.INT_MUL, p.mul_frac),
            (OpClass.INT_DIV, p.div_frac),
            (OpClass.LOAD, p.load_frac),
            (OpClass.STORE, p.store_frac),
            (OpClass.BRANCH, p.branch_frac),
            (OpClass.FP_ADD, p.fp_add_frac),
            (OpClass.FP_MUL, p.fp_mul_frac),
            (OpClass.FP_DIV, p.fp_div_frac),
        ]
        classes = [c for c, w in pairs if w > 0]
        weights = [w for _, w in pairs if w > 0]
        cum, acc = [], 0.0
        total = sum(weights)
        for w in weights:
            acc += w / total
            cum.append(acc)
        return classes, cum

    # ----------------------------------------------------------- helpers

    def _pick_source(self, recent: List[int]) -> int:
        """Choose a source logical register via the dependence model
        (the INT zero-register draw is the caller's)."""
        random = self._random
        if recent and random() < self._src_recent_frac:
            # Geometric distance into the recency list (1 = most recent):
            # expovariate, inlined.
            dist = 1 + int(-log(1.0 - random()) / self._dep_lambda)
            return recent[-dist] if dist < len(recent) else recent[0]
        # randrange(31): any register but the zero register.
        getrandbits = self._getrandbits
        r = getrandbits(5)
        while r >= _NUM_DESTS:
            r = getrandbits(5)
        return r

    def _int_source(self) -> SourceOperand:
        if self._random() < self._zero_reg_frac:
            index = INT_ZERO_REG
        else:
            index = self._pick_source(self.recent_int)
        return SourceOperand(_INT, index, self.int_values[index])

    def _fp_source(self) -> SourceOperand:
        index = self._pick_source(self.recent_fp)
        return SourceOperand(_FP, index, self.fp_values[index])

    def _pick_dest(self) -> int:
        """A destination register: ``randrange(dest_hot_regs)`` from the
        hot pool, else ``randrange(dest_hot_regs, 31)``."""
        getrandbits = self._getrandbits
        if self._random() < self._dest_hot_frac:
            base, n, k = self._hot_pool
        else:
            base, n, k = self._cold_pool
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return base + r

    def _next_pc(self) -> int:
        pc = self._pc
        self._pc = pc + 4 if pc + 4 < self._code_end else _CODE_BASE
        return pc

    def _data_address(self) -> int:
        u = self._random()
        if u < self._mem_frac:
            addr = self._mem_ptr
            self._mem_ptr += 64  # fresh L2 line every time: always a miss
            return addr
        if u < self._l2_or_mem_frac:
            addr = self._l2_ring[self._l2_idx]
            self._l2_idx = (self._l2_idx + 1) % len(self._l2_ring)
            return addr
        # randrange(0, 8192, 8): a random doubleword of the hot region.
        getrandbits = self._getrandbits
        r = getrandbits(11)
        while r >= _HOT_WORDS:
            r = getrandbits(11)
        return _HOT_BASE + 8 * r

    # ---------------------------------------------------------- emission

    def next_op(self) -> MicroOp:
        """Generate and return the next micro-op."""
        classes = self._op_classes
        i = bisect_left(self._op_weights, self._random())
        op_class = classes[i] if i < len(classes) else classes[-1]
        if op_class is _BRANCH:
            op = self._emit_branch()
        elif op_class is _LOAD:
            op = self._emit_load()
        elif op_class is _STORE:
            op = self._emit_store()
        elif op_class in _FP_ALU:
            op = self._emit_fp_alu(op_class)
        else:
            op = self._emit_int_alu(op_class)
        op.validate()
        self._seq += 1
        return op

    def _emit_int_alu(self, op_class: OpClass) -> MicroOp:
        random = self._random
        if op_class is _INT_ALU and random() < 0.10:
            sources = ()
        elif random() < 0.3:
            sources = (self._int_source(),)
        else:
            sources = (self._int_source(), self._int_source())
        dest = self._pick_dest()
        result = self.int_model.sample(self.rng)
        op = MicroOp(self._seq, self._next_pc(), op_class, sources, _INT, dest, result)
        _record_dest(self.int_values, self.recent_int, dest, result)
        return op

    def _emit_fp_alu(self, op_class: OpClass) -> MicroOp:
        sources = (self._fp_source(), self._fp_source())
        dest = self._pick_dest()
        result = self.fp_model.sample(self.rng)
        op = MicroOp(self._seq, self._next_pc(), op_class, sources, _FP, dest, result)
        _record_dest(self.fp_values, self.recent_fp, dest, result)
        return op

    def _emit_load(self) -> MicroOp:
        random = self._random
        base_reg = self.last_load_dest
        if base_reg is not None and random() < self._pointer_chase_frac:
            source = SourceOperand(_INT, base_reg, self.int_values[base_reg])
        else:
            source = self._int_source()
        if random() < self._fp_mem_frac:
            result = self.fp_model.sample(self.rng)
            dest = self._pick_dest()
            op = MicroOp(self._seq, self._next_pc(), _FP_LOAD, (source,), _FP, dest,
                         result, mem_addr=self._data_address())
            _record_dest(self.fp_values, self.recent_fp, dest, result)
            return op
        result = self.int_model.sample(self.rng)
        dest = self._pick_dest()
        op = MicroOp(self._seq, self._next_pc(), _LOAD, (source,), _INT, dest,
                     result, mem_addr=self._data_address())
        _record_dest(self.int_values, self.recent_int, dest, result)
        self.last_load_dest = dest
        return op

    def _emit_store(self) -> MicroOp:
        if self._random() < self._fp_mem_frac:
            op_class, data = _FP_STORE, self._fp_source()
        else:
            op_class, data = _STORE, self._int_source()
        return MicroOp(
            self._seq, self._next_pc(), op_class,
            sources=(data, self._int_source()), dest=None,
            mem_addr=self._data_address(),
        )

    def _emit_branch(self) -> MicroOp:
        random = self._random
        returns = self._return_pcs
        if returns and random() < self._return_frac:
            target = returns.pop()
            op = MicroOp(
                self._seq, self._pc, _RETURN,
                sources=(), dest=None, taken=True, target=target, is_indirect=True,
            )
            self._pc = target
            return op
        if random() < self._call_frac and len(returns) < 64:
            # choice(self._call_sites), whose length is 2 * _FUNC_COUNT.
            getrandbits = self._getrandbits
            r = getrandbits(_CALL_SITE_BITS)
            while r >= 2 * _FUNC_COUNT:
                r = getrandbits(_CALL_SITE_BITS)
            pc, entry = self._call_sites[r]
            returns.append(pc + 4)
            op = MicroOp(
                self._seq, pc, _CALL,
                sources=(), dest=None, taken=True, target=entry,
            )
            self._pc = entry
            return op
        sites = self.sites
        i = bisect_left(self._site_cum, random())
        site = sites[i] if i < len(sites) else sites[-1]
        taken = site.outcome(random)
        op = MicroOp(
            self._seq, site.pc, _BRANCH,
            sources=(self._int_source(),), dest=None, taken=taken, target=site.target,
        )
        self._pc = site.target if taken else site.pc + 4
        return op

    def generate(self, length: int, warmup: int = 0) -> Trace:
        """Generate a trace of ``length`` timed micro-ops.

        ``warmup`` extra ops are generated *first* and attached as the
        trace's untimed warmup prefix (the machine uses them to train
        branch predictors and warm caches, standing in for the paper's
        400M-instruction fast-forward).  The trace records the
        architectural register contents at the start of the timed region.
        """
        next_op = self.next_op
        warmup_ops = [next_op() for _ in range(warmup)]
        initial_int = list(self.int_values)
        initial_fp = list(self.fp_values)
        ops = [next_op() for _ in range(length)]
        return Trace(
            self.profile.name, ops, seed=self.seed,
            initial_int=initial_int, initial_fp=initial_fp,
            warmup_ops=warmup_ops,
        )


def generate_trace(profile_or_name, length: int, seed: int = 0, warmup: int = None) -> Trace:
    """Convenience: build a trace from a profile or benchmark name.

    ``warmup`` defaults to the timed length, at least 20k ops — enough to
    cover the code footprint and working set so the timed region sees
    steady-state predictor and cache behaviour.
    """
    from repro.workloads.profiles import get_profile

    profile = profile_or_name
    if isinstance(profile_or_name, str):
        profile = get_profile(profile_or_name)
    if warmup is None:
        warmup = max(length, 20_000)
    return TraceGenerator(profile, seed=seed).generate(length, warmup=warmup)
