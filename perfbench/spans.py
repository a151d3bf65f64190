"""In-memory span recording around calls into the program's modules.

The benchmark measures every layer from outside: it replaces a public
function or method, at every name its callers look it up by, with a
wrapper that records one span (name, start, end, parent, run id) per
call.  Nothing under ``src/`` changes.  Spans stay in memory; a forked
``--jobs`` worker appends its own spans to a per-process spool file
each time one of its top-level spans closes (the worker leaves through
``os._exit``, so nothing would run at its exit), and the parent merges
the spool after the operation.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One call into a layer."""

    __slots__ = ("sid", "name", "start", "end", "parent", "run", "pid", "info",
                 "later")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int],
                 run: str, pid: int) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.pid = pid
        #: JSON-able facts the wrapper's ``record`` callback attached.
        self.info: Dict = {}
        #: Deferred part of ``record``: run when the spans are taken, so
        #: expensive bookkeeping stays out of the timed operation.
        self.later: Optional[Callable[[], None]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "pid": self.pid, "info": self.info}

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        span = cls(data["sid"], data["name"], data["start"], data["parent"],
                   data["run"], data["pid"])
        span.end = data["end"]
        span.info = data["info"]
        return span


class Recorder:
    """Collects spans from the wrappers it installs.

    ``spool`` is the directory forked workers flush their spans to.
    Span ids embed the pid, so ids from different processes never
    collide after the merge.
    """

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.main_pid = os.getpid()
        self.spans: List[Span] = []
        self.run = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self, pid: int) -> int:
        # next() on an itertools.count is atomic under the GIL, so neither
        # threads nor a collection that starts mid-call need a lock here.
        return pid * 10_000_000 + next(self._ids)

    def wrap(self, name: str, fn: Callable,
             record: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records a ``name`` span per call.

        ``record(span, args, kwargs, result)`` runs after the call, outside
        the span's interval, to attach facts to ``span.info``; it may
        leave the costly part in ``span.later``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = Span(recorder._next_id(pid), name, 0.0,
                        parent.sid if parent is not None else None,
                        recorder.run, pid)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if record is not None:
                record(span, args, kwargs, result)
            recorder.spans.append(span)
            if pid != recorder.main_pid and (parent is None or parent.pid != pid):
                recorder._flush(pid)
            return result

        return wrapper

    def gc_callback(self, phase: str, info: Dict) -> None:
        """``gc.callbacks`` hook: one ``python.gc`` span per collection,
        a child of the span that was running when it started."""
        if phase == "start":
            self._local.gc_start = time.perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        pid = os.getpid()
        stack = self._stack()
        span = Span(self._next_id(pid), "python.gc", start,
                    stack[-1].sid if stack else None, self.run, pid)
        span.end = time.perf_counter()
        self._local.gc_start = None
        self.spans.append(span)

    def _flush(self, pid: int) -> None:
        """Append this worker's spans to its spool file (forked workers
        inherit the parent's list, so only spans tagged with this pid
        are written) and drop them from memory."""
        mine = [s for s in self.spans if s.pid == pid]
        if not mine:
            return
        _settle(mine)
        os.makedirs(self.spool, exist_ok=True)
        path = os.path.join(self.spool, f"{pid}.jsonl")
        with open(path, "a") as handle:
            for span in mine:
                handle.write(json.dumps(span.to_dict()) + "\n")
        self.spans = [s for s in self.spans if s.pid != pid]

    def merge_spool(self) -> None:
        """Load and delete every worker spool file."""
        if not os.path.isdir(self.spool):
            return
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            with open(path) as handle:
                for line in handle:
                    self.spans.append(Span.from_dict(json.loads(line)))
            os.remove(path)

    def take(self) -> List[Span]:
        """Return and forget every span recorded so far (after merging
        the worker spool)."""
        self.merge_spool()
        spans, self.spans = self.spans, []
        _settle(spans)
        return spans

    # ---------------------------------------------------------- install

    def patch_function(self, original: Callable, wrapper: Callable,
                       prefixes: Iterable[str] = ("repro",)) -> None:
        """Replace ``original`` by ``wrapper`` at every module global (and
        every module-level dict value, such as a dispatch table) of the
        loaded modules under ``prefixes``.  Raises when no name refers to
        ``original``: a layer that moved must not go unmeasured."""
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not any(
                    mod_name == p or mod_name.startswith(p + ".")
                    for p in prefixes):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original, False))
                    setattr(module, attr, wrapper)
                    count += 1
                elif type(value) is dict and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original, True))
                            value[key] = wrapper
                            count += 1
        if not count:
            raise LookupError(f"no loaded module refers to {original!r}")

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr], False))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            target, attr, original, is_item = self._patches.pop()
            if is_item:
                target[attr] = original
            else:
                setattr(target, attr, original)


def _settle(spans: List[Span]) -> None:
    for span in spans:
        if span.later is not None:
            span.later()
            span.later = None


# ================================================================ analysis


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval that its
    direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.duration - covered
    return out


def busy(spans: Iterable[Span]) -> float:
    """Total duration of the outermost spans of a set: a span nested in
    another span of the same set is not counted twice."""
    chosen = list(spans)
    ids = {s.sid for s in chosen}
    return sum(s.duration for s in chosen if s.parent not in ids)
