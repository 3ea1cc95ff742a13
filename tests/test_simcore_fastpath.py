"""Tests for the callback fast path: call_later/call_at, timeouts, determinism.

The engine schedules two entry kinds on one heap — Events (process API) and
plain callbacks (``call_later``/``call_at``).  These tests pin the contract
that makes the fast path safe to use on hot paths:

* callbacks and events share ``(time, priority, seq)`` tie-breaking exactly;
* a Timeout fires exactly once per issue and reissues start clean;
* delay validation rejects NaN/inf before they can corrupt heap ordering;
* ``run(until=...)`` stops on time with callbacks still pending;
* a scenario implemented process-style and callback-style replays to the
  identical trace digest.
"""

import hashlib
import math

import pytest

from repro.errors import SimulationError
from repro.simcore import Environment, Event
from repro.simcore.events import URGENT


# ---------------------------------------------------------------------------
# Tie-breaking: callbacks and events on the one heap
# ---------------------------------------------------------------------------


def test_callbacks_and_events_interleave_by_seq_at_equal_time():
    """At equal (time, priority) ties break by scheduling order — across kinds."""
    env = Environment()
    order = []

    def cb(tag):
        order.append(tag)

    def proc(env, tag):
        yield env.timeout(5.0)
        order.append(tag)

    # Alternate the two APIs; all fire at t=5.0 with NORMAL priority.
    env.process(proc(env, "ev0"))            # seq for its timeout taken at start
    env.call_later(5.0, cb, "cb0")
    env.process(proc(env, "ev1"))
    env.call_later(5.0, cb, "cb1")

    env.run()
    # Process timeouts are scheduled when the generator first runs (at t=0,
    # via the URGENT Initialize events), i.e. *after* both call_later calls.
    assert order == ["cb0", "cb1", "ev0", "ev1"]


def test_call_later_priority_breaks_time_ties():
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "normal")
    env.call_later(1.0, order.append, "urgent", priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_call_at_schedules_at_absolute_time():
    env = Environment(initial_time=10.0)
    seen = []

    def record(arg):
        seen.append((env.now, arg))

    env.call_at(12.5, record, "x")
    env.call_later(0.5, record, "y")
    env.run()
    assert seen == [(10.5, "y"), (12.5, "x")]


def test_call_at_rejects_the_past():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.call_at(9.0, lambda _: None)


# ---------------------------------------------------------------------------
# Satellite bugfix: NaN/inf delays must be rejected, not silently enqueued
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_schedule_rejects_nonfinite_and_negative_delays(delay):
    env = Environment()
    ev = Event(env)
    ev._ok = True
    ev._value = None
    with pytest.raises(SimulationError):
        env.schedule(ev, delay=delay)
    assert len(env) == 0  # nothing reached the heap


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_call_later_rejects_nonfinite_and_negative_delays(delay):
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_later(delay, lambda _: None)
    assert len(env) == 0


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_call_at_rejects_nonfinite_times(t):
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_at(t, lambda _: None)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_timeout_rejects_nonfinite_delays(delay):
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(delay)


def test_nan_delay_error_message_mentions_finiteness():
    env = Environment()
    with pytest.raises(SimulationError, match="finite"):
        env.call_later(float("nan"), lambda _: None)
    assert not math.isfinite(float("nan"))  # sanity on the premise


# ---------------------------------------------------------------------------
# Timeouts: one fire per issue, clean on reissue
# ---------------------------------------------------------------------------


def test_pooled_timeout_fires_exactly_once_per_issue():
    """Every issued timeout behaves as a fresh event — one fire per issue."""
    env = Environment()
    fired = []

    def proc(env, tag, n):
        for i in range(n):
            got = yield env.timeout(1.0, value=(tag, i))
            fired.append(got)

    env.process(proc(env, "a", 5))
    env.process(proc(env, "b", 5))
    env.run()
    assert sorted(fired) == sorted([("a", i) for i in range(5)] + [("b", i) for i in range(5)])
    assert env.now == 5.0


def test_recycled_timeout_is_clean_on_reissue():
    env = Environment()

    def proc(env):
        first = env.timeout(1.0, value="first")
        yield first
        second = env.timeout(1.0, value="second")
        assert second._value == "second"
        assert second.callbacks == []  # no stale callbacks from the first one
        got = yield second
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "second"


# ---------------------------------------------------------------------------
# run(until=...) with pending callbacks
# ---------------------------------------------------------------------------


def test_run_until_time_with_pending_callbacks():
    env = Environment()
    fired = []
    env.call_later(1.0, fired.append, "early")
    env.call_later(5.0, fired.append, "on-time")
    env.call_later(9.0, fired.append, "late")
    env.run(until=5.0)
    # The URGENT stop event fires before the NORMAL callback at t=5.0.
    assert fired == ["early"]
    assert env.now == 5.0
    assert len(env) == 2  # both un-run callbacks still queued
    env.run()
    assert fired == ["early", "on-time", "late"]


def test_run_until_event_with_callbacks_in_flight():
    env = Environment()
    fired = []
    done = Event(env)
    env.call_later(2.0, fired.append, "a")
    env.call_later(4.0, lambda _: done.succeed("stop"), None)
    env.call_later(6.0, fired.append, "b")
    value = env.run(until=done)
    assert value == "stop"
    assert fired == ["a"]
    assert env.now == 4.0


def test_advance_one_entry_dispatches_callbacks():
    env = Environment()
    fired = []
    env.call_later(1.5, fired.append, "x")
    env.call_later(2.0, fired.append, "y")
    assert env.advance(max_events=1) == 1
    assert fired == ["x"]
    assert env.now == 1.5
    assert len(env) == 1


# ---------------------------------------------------------------------------
# Determinism audit: fast path vs legacy produce identical digests
# ---------------------------------------------------------------------------

def _digest(trace):
    h = hashlib.sha256()
    for entry in trace:
        h.update(repr(entry).encode())
    return h.hexdigest()


def _scenario_legacy():
    """A pinned mini-scenario: 3 producers feeding a server, process-style.

    Each arrival is modelled with a raw Event (the pre-refactor idiom) and
    the server charges deterministic per-item service times.
    """
    env = Environment()
    trace = []
    avail = [0.0]

    def serve(item):
        start = max(env.now, avail[0])
        finish = start + 0.7
        avail[0] = finish
        done = Event(env)
        done._ok = True
        done._value = item
        done.callbacks.append(lambda ev: trace.append((env.now, "done", ev._value)))
        env.schedule(done, delay=finish - env.now)

    def producer(env, tag, period, count):
        for i in range(count):
            yield env.timeout(period)
            trace.append((env.now, "arrive", (tag, i)))
            serve((tag, i))

    env.process(producer(env, "a", 1.0, 10))
    env.process(producer(env, "b", 1.5, 8))
    env.process(producer(env, "c", 0.5, 14))
    env.run()
    return _digest(trace), env.now


def _scenario_fastpath():
    """The same scenario with arrivals and service on call_later."""
    env = Environment()
    trace = []
    avail = [0.0]

    def record_done(item):
        trace.append((env.now, "done", item))

    def serve(item):
        start = max(env.now, avail[0])
        finish = start + 0.7
        avail[0] = finish
        env.call_later(finish - env.now, record_done, item)

    def arrive(token):
        tag, i, period, count = token
        trace.append((env.now, "arrive", (tag, i)))
        serve((tag, i))
        if i + 1 < count:
            env.call_later(period, arrive, (tag, i + 1, period, count))

    env.call_later(1.0, arrive, ("a", 0, 1.0, 10))
    env.call_later(1.5, arrive, ("b", 0, 1.5, 8))
    env.call_later(0.5, arrive, ("c", 0, 0.5, 14))
    env.run()
    return _digest(trace), env.now


# The two implementations must agree with each other — and with this pinned
# digest, so an engine change that shifts either one fails loudly.
_PINNED_MINI_DIGEST = "c913fef59764ddfe67fed374993bf8b976cb9c5f31a0d945ea0b5d9af28b1f28"


def test_fastpath_and_legacy_scenarios_produce_identical_digests():
    legacy_digest, legacy_end = _scenario_legacy()
    fast_digest, fast_end = _scenario_fastpath()
    assert legacy_digest == fast_digest
    assert legacy_end == fast_end
    assert legacy_digest == _PINNED_MINI_DIGEST


def test_fastpath_scenario_replays_identically():
    assert _scenario_fastpath() == _scenario_fastpath()


# ---------------------------------------------------------------------------
# Batched dispatch: call_later_batch and same-timestamp ordering
# ---------------------------------------------------------------------------


def _scenario_fastpath_batched():
    """The fastpath mini-scenario with every call_later as a batch of one.

    ``call_later_batch`` reserves the same sequence numbers as the loop of
    ``call_later`` calls it replaces, so even batches of one must replay to
    the pinned digest bit-for-bit.
    """
    env = Environment()
    trace = []
    avail = [0.0]

    def record_done(item):
        trace.append((env.now, "done", item))

    def serve(item):
        start = max(env.now, avail[0])
        finish = start + 0.7
        avail[0] = finish
        env.call_later_batch(finish - env.now, record_done, [item])

    def arrive(token):
        tag, i, period, count = token
        trace.append((env.now, "arrive", (tag, i)))
        serve((tag, i))
        if i + 1 < count:
            env.call_later_batch(period, arrive, [(tag, i + 1, period, count)])

    env.call_later_batch(1.0, arrive, [("a", 0, 1.0, 10)])
    env.call_later_batch(1.5, arrive, [("b", 0, 1.5, 8)])
    env.call_later_batch(0.5, arrive, [("c", 0, 0.5, 14)])
    env.run()
    return _digest(trace), env.now


def test_batched_scenario_matches_pinned_digest():
    digest, end = _scenario_fastpath_batched()
    assert digest == _PINNED_MINI_DIGEST
    assert end == _scenario_fastpath()[1]


def _window_scenario(use_batch):
    """Window-completion shape: bursts of same-timestamp callbacks.

    Each tick completes a window of items at one timestamp, interleaved
    with independent per-item callbacks scheduled before and after the
    window — the layout where batch entries and the run-loop drain both
    engage.  Built identically with call_later_batch or a call_later loop.
    """
    env = Environment()
    trace = []

    def complete(item):
        trace.append((env.now, "complete", item))

    def side(tag):
        trace.append((env.now, "side", tag))

    def tick(round_no):
        if round_no >= 6:
            return
        window = [(round_no, k) for k in range(5)]
        env.call_later(2.0, side, ("pre", round_no))
        if use_batch:
            env.call_later_batch(2.0, complete, window)
        else:
            for item in window:
                env.call_later(2.0, complete, item)
        env.call_later(2.0, side, ("post", round_no))
        env.call_later(2.0, tick, round_no + 1)

    env.call_later(0.0, tick, 0)
    env.run()
    return _digest(trace), env.now


def test_call_later_batch_equals_call_later_loop():
    loop_digest, loop_end = _window_scenario(use_batch=False)
    batch_digest, batch_end = _window_scenario(use_batch=True)
    assert batch_digest == loop_digest
    assert batch_end == loop_end


def test_call_later_batch_is_one_heap_entry():
    env = Environment()
    env.call_later_batch(1.0, lambda _: None, ["a", "b", "c"])
    assert len(env) == 1  # the whole batch rides one heap entry
    assert env._queue[0][0] == 1.0


def test_call_later_batch_empty_is_noop_but_validates_delay():
    env = Environment()
    env.call_later_batch(1.0, lambda _: None, [])
    assert len(env) == 0
    with pytest.raises(SimulationError):
        env.call_later_batch(float("nan"), lambda _: None, [])
    with pytest.raises(SimulationError):
        env.call_later_batch(-1.0, lambda _: None, ["x"])


def test_batch_preempted_by_same_timestamp_urgent():
    """An URGENT entry scheduled *by* a batch member at the batch's own
    timestamp must run before the remaining members — exactly as it would
    between two call_later entries."""
    for use_batch in (False, True):
        env = Environment()
        order = []

        def member(tag, env=env, order=order):
            order.append(tag)
            if tag == "m0":
                env.call_later(0.0, order.append, "urgent", priority=URGENT)

        if use_batch:
            env.call_later_batch(1.0, member, ["m0", "m1", "m2"])
        else:
            for tag in ("m0", "m1", "m2"):
                env.call_later(1.0, member, tag)
        env.run()
        assert order == ["m0", "urgent", "m1", "m2"], use_batch


def test_batch_normal_scheduling_does_not_preempt():
    """Same-timestamp NORMAL entries scheduled mid-batch carry later seqs
    and must run after the batch completes."""
    env = Environment()
    order = []

    def member(tag):
        order.append(tag)
        if tag == "m0":
            env.call_later(0.0, order.append, "later")

    env.call_later_batch(1.0, member, ["m0", "m1"])
    env.run()
    assert order == ["m0", "m1", "later"]


def test_batch_exception_pushes_back_undispatched_tail():
    """A member that raises must leave the rest of the batch on the heap so
    a later run() resumes exactly where the first stopped."""
    env = Environment()
    ran = []

    def member(tag):
        if tag == "boom":
            raise RuntimeError("boom")
        ran.append(tag)

    env.call_later_batch(1.0, member, ["a", "boom", "b", "c"])
    with pytest.raises(RuntimeError):
        env.run()
    assert ran == ["a"]
    env.run()  # resumes with the pushed-back tail ("b", "c")
    assert ran == ["a", "b", "c"]


def test_run_until_mid_drain_preserves_pending_entries():
    """run(until=t) stopping inside a same-timestamp run must keep every
    undispatched entry queued for the next run()."""
    env = Environment()
    fired = []
    for tag in ("a", "b", "c", "d"):
        env.call_later(5.0, fired.append, tag)
    env.call_later(9.0, fired.append, "late")
    env.run(until=5.0)  # URGENT stop sorts before the NORMAL entries
    assert fired == []
    assert len(env) == 5
    env.run()
    assert fired == ["a", "b", "c", "d", "late"]


def test_drain_falls_back_on_earlier_sorting_entry():
    """A run of same-timestamp entries must yield to an entry that sorts
    earlier than the next one (URGENT at the same timestamp, scheduled
    mid-run)."""
    env = Environment()
    order = []

    def first(_):
        order.append("first")
        env.call_later(0.0, order.append, "urgent", priority=URGENT)

    env.call_later(1.0, first, None)
    env.call_later(1.0, order.append, "second")
    env.call_later(1.0, order.append, "third")
    env.run()
    assert order == ["first", "urgent", "second", "third"]


def test_batch_args_sequence_is_owned_not_copied():
    """The engine takes ownership of the args sequence; a tuple works too."""
    env = Environment()
    seen = []
    env.call_later_batch(1.0, seen.append, ("x", "y"))
    env.run()
    assert seen == ["x", "y"]
