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
every field of every op.  Every op comes from one loop,
:meth:`TraceGenerator._emit` (``next_op`` and ``generate`` both call
it), which writes it as one packed row (:mod:`repro.workloads.packed`;
``generate`` keeps the warmup prefix packed and builds ``MicroOp``s for
the timed ops only) and makes exactly the draws, in exactly the order,
that the plain ``random.Random`` calls it stands for would make:

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
from array import array
from bisect import bisect_left
from math import log
from typing import List, Optional, Tuple

from repro.isa.instruction import MicroOp, op_fault
from repro.isa.opcodes import OpClass
from repro.isa.registers import INT_ZERO_REG, NUM_INT_ARCH_REGS
from repro.workloads.packed import (
    FP_DEST,
    HAS_ADDR,
    HAS_DEST,
    INDIRECT,
    SOURCES,
    TAKEN,
    PackedOps,
    decode_row,
)
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

_INT_ALU, _LOAD, _STORE = OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE
_FP_LOAD, _FP_STORE = OpClass.FP_LOAD, OpClass.FP_STORE
_BRANCH, _CALL, _RETURN = OpClass.BRANCH, OpClass.CALL, OpClass.RETURN
_FP_ALU = frozenset((OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV))
_MASK = (1 << 64) - 1


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

    # ---------------------------------------------------------- emission

    def next_op(self) -> MicroOp:
        """Generate and return the next micro-op."""
        return decode_row(self._emit(1))

    def _emit(self, count: int) -> array:
        """The next ``count`` micro-ops as packed rows (the layout of
        :mod:`repro.workloads.packed`): the one emission loop.

        The generator's state is read into locals on entry and written
        back on exit, and every per-op helper is inlined or a local
        closure, so an op costs the draws it makes and little more.
        The closures only read locals that the loop never rebinds (the
        bound draw methods, the value lists, the recency lists), and
        none refers to itself, so the generator stays acyclic.  Each
        row is checked against :func:`~repro.isa.instruction.op_fault`
        before it is written.
        """
        rng = self.rng
        random, getrandbits = rng.random, rng.getrandbits
        int_sample = self.int_model.sampler(rng)
        fp_sample = self.fp_model.sample
        classes, op_weights = self._op_classes, self._op_weights
        int_values, fp_values = self.int_values, self.fp_values
        recent_int, recent_fp = self.recent_int, self.recent_fp
        returns = self._return_pcs
        sites, site_cum = self.sites, self._site_cum
        call_sites = self._call_sites
        l2_ring = self._l2_ring
        zero_reg_frac = self._zero_reg_frac
        src_recent_frac = self._src_recent_frac
        dep_lambda = self._dep_lambda
        dest_hot_frac = self._dest_hot_frac
        hot_pool, cold_pool = self._hot_pool, self._cold_pool
        pointer_chase_frac = self._pointer_chase_frac
        fp_mem_frac = self._fp_mem_frac
        call_frac, return_frac = self._call_frac, self._return_frac
        mem_frac, l2_or_mem_frac = self._mem_frac, self._l2_or_mem_frac
        code_end = self._code_end

        def pick_source(recent: List[int]) -> int:
            # The dependence model: a geometric distance into the recency
            # list (1 = most recent; expovariate, inlined), else
            # randrange(31), any register but the zero register.
            if recent and random() < src_recent_frac:
                dist = 1 + int(-log(1.0 - random()) / dep_lambda)
                return recent[-dist] if dist < len(recent) else recent[0]
            r = getrandbits(5)
            while r >= _NUM_DESTS:
                r = getrandbits(5)
            return r

        def int_source() -> int:
            if random() < zero_reg_frac:
                return INT_ZERO_REG
            return pick_source(recent_int)

        def pick_dest() -> int:
            # randrange(dest_hot_regs) from the hot pool, else
            # randrange(dest_hot_regs, 31).
            base, n, k = hot_pool if random() < dest_hot_frac else cold_pool
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return base + r

        # A source's SOURCES byte is ``reg_class | index << 1``: an
        # integer register's is ``index << 1``, an FP register's
        # ``index << 1 | 1``.  Integer values are written as their
        # 64-bit two's-complement pattern (``& _MASK``).
        seq, pc = self._seq, self._pc
        l2_idx, mem_ptr = self._l2_idx, self._mem_ptr
        last_load_dest = self.last_load_dest
        rows = array("Q")
        extend = rows.extend
        try:
            for _ in range(count):
                i = bisect_left(op_weights, random())
                op_class = classes[i] if i < len(classes) else classes[-1]
                dest = addr = None
                if op_class is _BRANCH:
                    if returns and random() < return_frac:
                        target = returns.pop()
                        row = (seq, pc, _RETURN, TAKEN | INDIRECT, 0, 0, 0,
                               target, 0, 0, 0)
                        pc = target
                    elif random() < call_frac and len(returns) < 64:
                        # choice(call_sites), whose length is 2 * _FUNC_COUNT.
                        r = getrandbits(_CALL_SITE_BITS)
                        while r >= 2 * _FUNC_COUNT:
                            r = getrandbits(_CALL_SITE_BITS)
                        call_pc, entry = call_sites[r]
                        returns.append(call_pc + 4)
                        row = (seq, call_pc, _CALL, TAKEN, 0, 0, 0, entry,
                               0, 0, 0)
                        pc = entry
                    else:
                        i = bisect_left(site_cum, random())
                        site = sites[i] if i < len(sites) else sites[-1]
                        trip_count = site.trip_count
                        if trip_count:
                            phase = site.phase
                            taken = phase < trip_count - 1
                            site.phase = (phase + 1) % trip_count
                        elif random() < site.bias:
                            taken = site.taken_dir
                        else:
                            taken = not site.taken_dir
                        a = int_source()
                        row = (seq, site.pc, _BRANCH, TAKEN if taken else 0,
                               0, 0, 0, site.target, 1 | a << 3,
                               int_values[a] & _MASK, 0)
                        pc = site.target if taken else site.pc + 4
                elif op_class is _LOAD or op_class is _STORE:
                    if op_class is _LOAD:
                        base_reg = last_load_dest
                        if base_reg is not None and random() < pointer_chase_frac:
                            a = base_reg
                        else:
                            a = int_source()
                        sources, v0, v1 = 1 | a << 3, int_values[a] & _MASK, 0
                        if random() < fp_mem_frac:
                            op_class = _FP_LOAD
                            flags = HAS_DEST | HAS_ADDR | FP_DEST
                            result = word = fp_sample(rng)
                        else:
                            flags = HAS_DEST | HAS_ADDR
                            result = int_sample()
                            word = result & _MASK
                        dest = pick_dest()
                    else:
                        if random() < fp_mem_frac:
                            op_class = _FP_STORE
                            a = pick_source(recent_fp)
                            data, v0 = a << 1 | 1, fp_values[a]
                        else:
                            a = int_source()
                            data, v0 = a << 1, int_values[a] & _MASK
                        b = int_source()
                        sources = 2 | data << 2 | b << 11
                        v1 = int_values[b] & _MASK
                        flags, result = HAS_ADDR, 0
                    # The data address: a fresh line for a memory access
                    # (always a miss), the next line of the L2 ring, or
                    # randrange(0, 8192, 8) -- a random doubleword of the
                    # hot region.
                    u = random()
                    if u < mem_frac:
                        addr = mem_ptr
                        mem_ptr += 64
                    elif u < l2_or_mem_frac:
                        addr = l2_ring[l2_idx]
                        l2_idx = (l2_idx + 1) % len(l2_ring)
                    else:
                        r = getrandbits(11)
                        while r >= _HOT_WORDS:
                            r = getrandbits(11)
                        addr = _HOT_BASE + 8 * r
                    if dest is None:
                        row = (seq, pc, op_class, flags, 0, 0, addr, 0,
                               sources, v0, v1)
                    else:
                        row = (seq, pc, op_class, flags, dest, word, addr, 0,
                               sources, v0, v1)
                    pc = pc + 4 if pc + 4 < code_end else _CODE_BASE
                    if flags & FP_DEST:
                        fp_values[dest] = result
                        recent_fp.append(dest)
                        if len(recent_fp) > 64:
                            del recent_fp[:32]
                    elif dest is not None:
                        int_values[dest] = result
                        recent_int.append(dest)
                        if len(recent_int) > 64:
                            del recent_int[:32]
                        last_load_dest = dest
                elif op_class in _FP_ALU:
                    a = pick_source(recent_fp)
                    b = pick_source(recent_fp)
                    dest = pick_dest()
                    result = fp_sample(rng)
                    row = (seq, pc, op_class, HAS_DEST | FP_DEST, dest, result,
                           0, 0, 2 | (a << 1 | 1) << 2 | (b << 1 | 1) << 10,
                           fp_values[a], fp_values[b])
                    pc = pc + 4 if pc + 4 < code_end else _CODE_BASE
                    fp_values[dest] = result
                    recent_fp.append(dest)
                    if len(recent_fp) > 64:
                        del recent_fp[:32]
                else:
                    if op_class is _INT_ALU and random() < 0.10:
                        sources = v0 = v1 = 0
                    elif random() < 0.3:
                        a = int_source()
                        sources, v0, v1 = 1 | a << 3, int_values[a] & _MASK, 0
                    else:
                        a = int_source()
                        b = int_source()
                        sources = 2 | a << 3 | b << 11
                        v0, v1 = int_values[a] & _MASK, int_values[b] & _MASK
                    dest = pick_dest()
                    result = int_sample()
                    row = (seq, pc, op_class, HAS_DEST, dest, result & _MASK,
                           0, 0, sources, v0, v1)
                    pc = pc + 4 if pc + 4 < code_end else _CODE_BASE
                    int_values[dest] = result
                    recent_int.append(dest)
                    if len(recent_int) > 64:
                        del recent_int[:32]
                fault = op_fault(op_class, dest, addr, row[SOURCES] & 3)
                if fault is not None:
                    raise ValueError(fault.format(decode_row(row)))
                extend(row)
                seq += 1
        finally:
            self._seq, self._pc = seq, pc
            self._l2_idx, self._mem_ptr = l2_idx, mem_ptr
            self.last_load_dest = last_load_dest
        return rows

    def generate(self, length: int, warmup: int = 0) -> Trace:
        """Generate a trace of ``length`` timed micro-ops.

        ``warmup`` extra ops are generated *first* and attached as the
        trace's untimed warmup prefix (the machine uses them to train
        branch predictors and warm caches, standing in for the paper's
        400M-instruction fast-forward).  The prefix stays packed; only
        the timed ops become ``MicroOp``s.  The trace records the
        architectural register contents at the start of the timed
        region.
        """
        warmup_ops = PackedOps(self._emit(warmup))
        initial_int = list(self.int_values)
        initial_fp = list(self.fp_values)
        ops = list(PackedOps(self._emit(length)))
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
