"""Deterministic crash-consistency harness (ALICE/CrashMonkey style).

Every durability layer in this repo — the checksummed envelope store,
the checked-line sweep journals, the farm lease protocol, the serve
job journal — funnels its disk traffic through the handful of
primitives in :mod:`repro.store.atomic` and
:mod:`repro.store.integrity`.  That narrow waist is what makes
crash-consistency *checkable* rather than argued about:

1. **Record** (:mod:`repro.crash.oplog`): run a workload with a
   :class:`~repro.crash.oplog.CrashRecorder` subscribed to the I/O
   observer hook, producing an ordered op log of every write, append,
   exclusive create, rename, unlink, fsync, and directory fsync under
   one root — plus ``ack`` pseudo-ops marking the instants where an API
   returned and the caller was promised durability.
2. **Enumerate** (:mod:`repro.crash.replay`): replay op-log prefixes
   into an in-memory filesystem model under every legal POSIX
   reordering — un-fsynced file data may be dropped or torn at block
   granularity, renames are atomic but may be lost entirely when the
   directory was never fsynced, a *skipped* directory fsync forces
   nothing — yielding the set of states a power cut could leave on
   disk.
3. **Recover and check** (:mod:`repro.crash.harness`): materialize
   each state into a scratch root, run the owning layer's recovery
   path (``repro.store`` fsck/repair, journal salvage, farm recovery),
   and assert the recovery oracle: recovery terminates without
   crashing, no acknowledged write is lost, no unacknowledged write
   surfaces as committed, fencing tokens never regress, and a final
   fsck pass is clean.

Workloads covering each durability layer live in
:mod:`repro.crash.workloads`; ``python -m repro.crash run`` drives them
all and is wired into CI via ``tools/ci_crash_consistency.py``.
"""

from repro.crash.harness import CrashReport, Violation, Workload, run_harness
from repro.crash.oplog import Op, CrashRecorder
from repro.crash.replay import CrashState, apply_ops, enumerate_states, forced_indices, materialize
from repro.crash.workloads import WORKLOADS

__all__ = [
    "CrashRecorder",
    "CrashReport",
    "CrashState",
    "Op",
    "Violation",
    "WORKLOADS",
    "Workload",
    "apply_ops",
    "enumerate_states",
    "forced_indices",
    "materialize",
    "run_harness",
]
