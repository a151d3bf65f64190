"""Branch unit: the pipeline-facing façade over direction predictor,
BTB, and RAS."""

from __future__ import annotations

from typing import Dict

from repro.branch.btb import BranchTargetBuffer
from repro.branch.combined import CombinedPredictor
from repro.branch.ras import ReturnAddressStack
from repro.config import BranchConfig
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import OpClass

# Enum members as module constants: predict and resolve run for every
# branch renamed, resolved or warmed up, and an enum class attribute
# lookup costs several times a global load.
_BRANCH = OpClass.BRANCH
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN


class BranchPrediction:
    """Outcome of predicting one branch at fetch time."""

    __slots__ = ("pred_taken", "pred_target", "mispredicted", "history_before")

    def __init__(self, pred_taken: bool, pred_target: int,
                 mispredicted: bool, history_before: int) -> None:
        self.pred_taken = pred_taken
        self.pred_target = pred_target  # 0 when unknown (BTB/RAS miss)
        self.mispredicted = mispredicted  # against the trace's actual outcome
        self.history_before = history_before  # for gshare repair on misprediction


class BranchUnit:
    """Predicts at fetch, trains at resolve, tracks accuracy statistics.

    Trace-driven operation: the actual outcome is known from the trace, so
    ``predict`` immediately classifies the prediction as correct or not;
    the *timing* consequences (when fetch redirects) are the pipeline's
    job.  Speculative global history is updated with the actual outcome at
    predict time and does not need repair, because fetch never proceeds
    down a wrong path in a trace-driven model.
    """

    def __init__(self, config: BranchConfig = None) -> None:
        config = config or BranchConfig()
        self.config = config
        self.predictor = CombinedPredictor(
            config.bimodal_entries,
            config.gshare_entries,
            config.selector_entries,
            config.history_bits,
        )
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.history = 0
        self.predictions = 0
        self.direction_mispredicts = 0
        self.target_mispredicts = 0

    def predict(self, op: MicroOp) -> BranchPrediction:
        """Predict one branch micro-op and record accuracy."""
        history_before = self.history
        kind = op.op
        taken = op.taken
        if kind == _RETURN:
            pred_taken = True
            ras_target = self.ras.pop()
            pred_target = ras_target if ras_target is not None else 0
        elif kind == _CALL:
            pred_taken = True
            pred_target = self.btb.lookup(op.pc) or 0
            self.ras.push(op.pc + 4)
        else:
            pred_taken = self.predictor.predict(op.pc, history_before)
            pred_target = self.btb.lookup(op.pc) or 0

        direction_wrong = pred_taken != taken
        target_wrong = taken and pred_target != op.target
        mispredicted = direction_wrong or target_wrong

        self.predictions += 1
        if direction_wrong:
            self.direction_mispredicts += 1
        elif target_wrong:
            self.target_mispredicts += 1

        if kind == _BRANCH:
            # CombinedPredictor.shift_history, inlined (its mask is the
            # predictor's history_mask).
            self.history = ((history_before << 1) | int(taken)) \
                & self.predictor.history_mask
        return BranchPrediction(pred_taken, pred_target, mispredicted, history_before)

    def resolve(self, op: MicroOp, prediction: BranchPrediction) -> None:
        """Train tables with the actual outcome (called at execute)."""
        if op.op == _BRANCH:
            self.predictor.update(op.pc, prediction.history_before, op.taken)
        if op.taken:
            self.btb.install(op.pc, op.target)

    def train(self, kind: int, pc: int, taken: bool, target: int) -> None:
        """:meth:`predict` then :meth:`resolve` for one branch of the
        functional warmup, from its fields: the same history, table,
        BTB and RAS updates in the same order, without the prediction
        record or the accuracy counts (the warmup zeroes those)."""
        if kind == _RETURN:
            self.ras.pop()
        else:
            self.btb.lookup(pc)  # moves a hit to MRU, as predict does
            if kind == _CALL:
                self.ras.push(pc + 4)
            else:
                history = self.history
                predictor = self.predictor
                self.history = ((history << 1) | int(taken)) \
                    & predictor.history_mask
                predictor.update(pc, history, taken)
        if taken:
            self.btb.install(pc, target)

    def _counter_tables(self):
        """(state key, counter table) of the direction predictor, in
        :meth:`state` order."""
        predictor = self.predictor
        return (("bimodal", predictor.bimodal.table),
                ("gshare", predictor.gshare.table),
                ("selector", predictor.selector))

    def state(self) -> Dict:
        """Immutable image of the history, accuracy counters, predictor
        tables, BTB and RAS (tuples all the way down): the branch half
        of a trace's warm-state memo
        (:meth:`repro.core.machine.Machine.warmup`).  Untouched BTB sets
        are shared with the unit, which never writes to a tuple."""
        data = {
            "history": self.history,
            "predictions": self.predictions,
            "direction_mispredicts": self.direction_mispredicts,
            "target_mispredicts": self.target_mispredicts,
        }
        for name, table in self._counter_tables():
            data[name] = tuple(table.entries)
        data["btb"] = tuple(map(tuple, self.btb._sets))
        data["ras"] = tuple(self.ras._stack)
        return data

    def load_state(self, data: Dict) -> None:
        """Start from a :meth:`state` image: counter tables and RAS are
        copied into the unit's own lists, and the BTB's set list is a new
        list over the image's set tuples, each copied on its first write
        (see :class:`BranchTargetBuffer`).  Raises ValueError when the
        BTB geometry differs."""
        btb = data["btb"]
        if len(btb) != self.btb.num_sets:
            raise ValueError("BTB geometry does not match the machine")
        self.history = data["history"]
        self.predictions = data["predictions"]
        self.direction_mispredicts = data["direction_mispredicts"]
        self.target_mispredicts = data["target_mispredicts"]
        for name, table in self._counter_tables():
            table.entries[:] = data[name]
        self.btb._sets = list(btb)
        self.ras._stack[:] = data["ras"]

    @property
    def mispredict_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return (self.direction_mispredicts + self.target_mispredicts) / self.predictions
