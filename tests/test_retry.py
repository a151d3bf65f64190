"""The shared retry policy: schedule shape, loop semantics, typed
exhaustion.  Every loop test injects its own clock and sleep — nothing
here waits on real time."""

import pytest

from repro.retry import RetryExhausted, RetryPolicy, backoff_delay, call_with_retry


# ========================================================= backoff_delay


def test_backoff_is_deterministic():
    assert backoff_delay(3, 0.5, token="a|b") == backoff_delay(3, 0.5, token="a|b")


def test_backoff_grows_exponentially_within_jitter_band():
    base = 0.5
    for attempt in range(1, 6):
        raw = min(30.0, base * (2 ** (attempt - 1)))
        delay = backoff_delay(attempt, base, token="cell")
        assert raw / 2 <= delay <= raw


def test_backoff_is_capped():
    assert backoff_delay(50, 0.5, cap=4.0) <= 4.0


def test_backoff_spreads_across_tokens():
    # The jitter exists to fan a mass-failure round back in: distinct
    # tokens must not collapse onto one schedule.
    delays = {backoff_delay(1, 1.0, token=f"t{i}") for i in range(16)}
    assert len(delays) > 8


def test_backoff_clamps_nonpositive_attempt():
    assert backoff_delay(0, 0.5, token="x") == backoff_delay(1, 0.5, token="x")


def test_backoff_is_deterministic_and_jittered():
    a = backoff_delay(2, 0.5, cap=30.0, token="gcc|base")
    b = backoff_delay(2, 0.5, cap=30.0, token="gcc|base")
    c = backoff_delay(2, 0.5, cap=30.0, token="mesa|base")
    assert a == b           # reproducible schedules
    assert a != c           # spread across cells


def test_backoff_growth_and_cap():
    base = 0.5
    for attempt in range(1, 20):
        delay = backoff_delay(attempt, base, cap=4.0, token="t")
        raw = min(4.0, base * 2 ** (attempt - 1))
        assert raw / 2 <= delay < raw
    # Far attempts are capped, not unbounded like a plain
    # base * 2**attempt schedule.
    assert backoff_delay(60, base, cap=4.0, token="t") < 4.0


def test_backoff_clamps_bad_attempt():
    assert backoff_delay(0, 1.0, cap=8.0, token="x") <= 1.0


# ======================================================== call_with_retry


class _Fatal(Exception):
    pass


class _Transient(Exception):
    pass


class _FakeTime:
    """Deterministic clock+sleep pair: sleeping advances the clock."""

    def __init__(self):
        self.now = 0.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def _flaky(failures, exc=_Transient):
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc(f"boom {state['calls']}")
        return state["calls"]

    fn.state = state
    return fn


def test_success_first_try_never_sleeps():
    fake = _FakeTime()
    result = call_with_retry(
        _flaky(0), policy=RetryPolicy(), retryable=lambda e: True,
        clock=fake.clock, sleep=fake.sleep,
    )
    assert result == 1
    assert fake.slept == []


def test_retries_then_succeeds_with_scheduled_delays():
    fake = _FakeTime()
    policy = RetryPolicy(base=0.5, cap=30.0)
    result = call_with_retry(
        _flaky(3), policy=policy, retryable=lambda e: isinstance(e, _Transient),
        token="w0|claim", clock=fake.clock, sleep=fake.sleep,
    )
    assert result == 4
    assert fake.slept == [policy.delay(n, token="w0|claim") for n in (1, 2, 3)]


def test_fatal_error_raises_immediately():
    fake = _FakeTime()
    fn = _flaky(5, exc=_Fatal)
    with pytest.raises(_Fatal):
        call_with_retry(
            fn, policy=RetryPolicy(),
            retryable=lambda e: isinstance(e, _Transient),
            clock=fake.clock, sleep=fake.sleep,
        )
    assert fn.state["calls"] == 1  # a verdict is never retried
    assert fake.slept == []


def test_attempt_budget_exhaustion_is_typed():
    fake = _FakeTime()
    with pytest.raises(RetryExhausted) as info:
        call_with_retry(
            _flaky(99), policy=RetryPolicy(max_attempts=3),
            retryable=lambda e: True, clock=fake.clock, sleep=fake.sleep,
        )
    exc = info.value
    assert exc.attempts == 3
    assert isinstance(exc.last, _Transient)
    assert exc.__cause__ is exc.last
    assert len(fake.slept) == 2  # the exhausted attempt does not sleep


def test_deadline_never_starts_a_crossing_sleep():
    fake = _FakeTime()
    policy = RetryPolicy(base=10.0, cap=30.0, deadline=15.0)
    with pytest.raises(RetryExhausted) as info:
        call_with_retry(
            _flaky(99), policy=policy, retryable=lambda e: True,
            token="t", clock=fake.clock, sleep=fake.sleep,
        )
    # Every sleep that was taken fit inside the deadline; the one that
    # would have crossed it was never started.
    assert fake.now <= 15.0
    assert "deadline" in str(info.value)
    assert info.value.elapsed <= 15.0


def test_deadline_zero_fails_after_single_attempt():
    fake = _FakeTime()
    with pytest.raises(RetryExhausted) as info:
        call_with_retry(
            _flaky(99), policy=RetryPolicy(base=0.1, deadline=0.0),
            retryable=lambda e: True, clock=fake.clock, sleep=fake.sleep,
        )
    assert info.value.attempts == 1
    assert fake.slept == []


def test_on_retry_observes_each_scheduled_retry():
    fake = _FakeTime()
    seen = []
    policy = RetryPolicy(base=0.25)
    call_with_retry(
        _flaky(2), policy=policy, retryable=lambda e: True, token="k",
        clock=fake.clock, sleep=fake.sleep,
        on_retry=lambda attempt, exc, delay: seen.append((attempt, str(exc), delay)),
    )
    assert [(a, d) for a, _, d in seen] == [
        (1, policy.delay(1, token="k")), (2, policy.delay(2, token="k"))]
    assert seen[0][1] == "boom 1"


def test_whole_loop_is_deterministic():
    def run():
        fake = _FakeTime()
        try:
            call_with_retry(
                _flaky(99), policy=RetryPolicy(base=0.5, max_attempts=6),
                retryable=lambda e: True, token="same",
                clock=fake.clock, sleep=fake.sleep,
            )
        except RetryExhausted:
            pass
        return fake.slept

    assert run() == run()
