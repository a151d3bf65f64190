"""One retry policy for every transient-failure site in the tree.

Every place that waits and tries again shares it: the farm broker
fences a crashed or expired cell's rerun with a backoff (its fixed
policy, :data:`repro.farm.broker.CRASH_RERUNS` reruns from
:data:`~repro.farm.broker.RERUN_BACKOFF` seconds; a ``run_cells(jobs=N)``
sweep runs on the farm's local workers, so it reruns its crashed cells
the same way), and the serve client retries failed requests.  There is
exactly one implementation of each half of the problem:

:func:`backoff_delay`
    The *schedule*: jittered, capped exponential backoff.  The jitter is
    a hash of ``(token, attempt)`` — not a clock, not an RNG — so retry
    schedules are bit-reproducible run to run, yet spread across tokens:
    a mass-failure round (OOM storm, server restart) fans back in over
    ``[cap/2, cap)`` instead of thundering back as one herd.

:func:`call_with_retry` / :class:`RetryPolicy`
    The *loop*: attempt, classify the failure (retryable vs fatal),
    sleep the scheduled delay, and give up — with a typed
    :class:`RetryExhausted` carrying the full attempt history — once the
    policy's attempt budget or wall-clock deadline is spent.  The clock
    and sleep are injectable, so tests drive the loop deterministically
    without real waiting.

Classification is the caller's: pass ``retryable`` to say which
exceptions are transient (a refused connection, a 503) and which are
verdicts (a rejected or malformed request).  A fatal error is
re-raised immediately, attempt one included.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

T = TypeVar("T")


def backoff_delay(attempt: int, base: float, cap: float = 30.0,
                  token: str = "") -> float:
    """Jittered, capped exponential backoff.

    Deterministic (the jitter is a hash of ``token`` and ``attempt``,
    not a clock or RNG) so retry schedules are reproducible, yet spread
    across tokens — a mass-failure round fans back in over
    ``[cap/2, cap)`` instead of thundering back as one herd.
    """
    if attempt < 1:
        attempt = 1
    raw = min(cap, base * (2 ** (attempt - 1)))
    digest = hashlib.sha256(f"{token}|{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return raw * (0.5 + jitter / 2)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: the schedule's shape plus two independent
    give-up conditions (either alone bounds the loop; both may be set).
    """

    #: First-retry delay (seconds); doubles per attempt up to ``cap``.
    base: float = 0.5
    #: Ceiling on any single delay (seconds).
    cap: float = 30.0
    #: Total wall-clock budget across all attempts (None: unbounded).
    #: The loop never *starts* a sleep that would cross the deadline.
    deadline: Optional[float] = None
    #: Maximum attempts, the first one included (None: unbounded).
    max_attempts: Optional[int] = None

    def delay(self, attempt: int, token: str = "") -> float:
        """The scheduled delay *after* the given (1-based) attempt."""
        return backoff_delay(attempt, self.base, cap=self.cap, token=token)


class RetryExhausted(RuntimeError):
    """The retry budget (attempts or deadline) is spent.

    Carries the last underlying exception (``last``, also chained as
    ``__cause__``), how many attempts were made, and the elapsed
    wall-clock — enough for the caller to produce an actionable typed
    error instead of a bare timeout."""

    def __init__(self, message: str, *, last: BaseException,
                 attempts: int, elapsed: float) -> None:
        super().__init__(message)
        self.last = last
        self.attempts = attempts
        self.elapsed = elapsed


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retryable: Callable[[BaseException], bool],
    token: str = "",
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
) -> T:
    """Call ``fn`` until it returns, a fatal error occurs, or ``policy``
    is exhausted.

    * an exception for which ``retryable(exc)`` is false re-raises
      immediately — it is a verdict, not weather;
    * a retryable failure sleeps :meth:`RetryPolicy.delay` (jittered by
      ``token``) and tries again, unless the next sleep would cross the
      policy's deadline or the attempt budget is already spent — then
      :class:`RetryExhausted` is raised from the last failure;
    * ``on_retry(attempt, exc, delay)`` is invoked before each sleep
      (logging, counters);
    * ``clock``/``sleep`` default to real time and are injectable so
      tests exercise the loop deterministically.
    """
    started = clock()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except BaseException as exc:  # noqa: BLE001 — classified below
            if not retryable(exc):
                raise
            elapsed = clock() - started
            budget_spent = (
                policy.max_attempts is not None
                and attempt >= policy.max_attempts
            )
            delay = policy.delay(attempt, token=token)
            deadline_crossed = (
                policy.deadline is not None
                and elapsed + delay > policy.deadline
            )
            if budget_spent or deadline_crossed:
                why = ("attempt budget" if budget_spent
                       else f"{policy.deadline:.1f}s deadline")
                raise RetryExhausted(
                    f"{why} exhausted after {attempt} attempt(s) in "
                    f"{elapsed:.1f}s: [{type(exc).__name__}] {exc}",
                    last=exc, attempts=attempt, elapsed=elapsed,
                ) from exc
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
