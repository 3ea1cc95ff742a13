"""Unit tests for the discrete-event engine (environment, events, processes)."""

import pytest

from repro.errors import SimulationError
from repro.simcore import Environment
from repro.simcore.events import URGENT


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_events_process_in_time_order():
    env = Environment()
    seen = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        seen.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert seen == ["a", "b", "c"]


def test_fifo_tie_break_at_equal_times():
    env = Environment()
    seen = []

    def proc(env, tag):
        yield env.timeout(1.0)
        seen.append(tag)

    for tag in range(10):
        env.process(proc(env, tag))
    env.run()
    assert seen == list(range(10))


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_time_excludes_events_at_later_times():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10.0)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=5.0)
    assert fired == []
    env.run(until=20.0)
    assert fired == [10.0]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


@pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
def test_run_until_non_finite_time_raises_and_touches_nothing(until):
    env = Environment()
    fired = []
    env.call_later(1.0, fired.append, "a")
    env.call_later(2.0, fired.append, "b")
    queue = list(env._queue)
    with pytest.raises(SimulationError, match=repr(until)):
        env.run(until=until)
    assert env.now == 0.0
    assert env._queue == queue
    assert fired == []


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 3.0


def test_process_return_value_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 99

    def parent(env):
        value = yield env.process(child(env))
        return value + 1

    p = env.process(parent(env))
    env.run()
    assert p.value == 100


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    woken = []

    def waiter(env):
        value = yield ev
        woken.append((env.now, value))

    def trigger(env):
        yield env.timeout(7.0)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert woken == [(7.0, "payload")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def trigger(env):
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert p.value == "caught boom"


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_unhandled_process_crash_aborts_run():
    env = Environment()

    def crasher(env):
        yield env.timeout(1.0)
        raise RuntimeError("crash")

    env.process(crasher(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_watched_process_crash_is_handled_by_waiter():
    env = Environment()

    def crasher(env):
        yield env.timeout(1.0)
        raise RuntimeError("crash")

    def watcher(env, victim):
        try:
            yield victim
        except RuntimeError:
            return "observed"

    victim = env.process(crasher(env))
    w = env.process(watcher(env, victim))
    env.run()
    assert w.value == "observed"


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc(env):
        t = env.timeout(1.0, value="v")
        yield env.timeout(5.0)  # t is long processed by now
        got = yield t
        return (env.now, got)

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, "v")


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert not p.ok


def test_len_counts_queued_entries():
    env = Environment()
    assert len(env) == 0
    env.timeout(4.0)
    env.timeout(2.0)
    assert len(env) == 2


def test_advance_one_entry_on_empty_queue_dispatches_nothing():
    env = Environment(initial_time=3.0)
    assert env.advance(max_events=1) == 0
    assert env.now == 3.0


def test_processes_see_consistent_now():
    env = Environment()
    times = []

    def proc(env):
        for _ in range(3):
            yield env.timeout(2.5)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [2.5, 5.0, 7.5]


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_run_until_already_processed_event_returns_value():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)
        return "v"

    p = env.process(quick(env))
    env.run()
    # Running until an already-processed event returns immediately.
    assert env.run(until=p) == "v"


def test_run_until_failed_event_raises():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("x")

    p = env.process(boom(env))
    with pytest.raises(ValueError):
        env.run(until=p)
    # And again on the already-processed failure.
    with pytest.raises(ValueError):
        env.run(until=p)


def test_event_trigger_copies_outcome():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.succeed("payload")
    mirror.trigger(source)
    env.run()
    assert mirror.ok and mirror.value == "payload"
    fresh = env.event()
    with pytest.raises(SimulationError):
        fresh.trigger(env.event())  # untriggered source rejected


# -- budgeted incremental stepping (the service layer's engine primitive) ----
class TestAdvance:
    @staticmethod
    def _mixed_queue():
        """Same-timestamp runs, batches, and URGENT entries scheduled from
        callbacks at their own timestamp (they sort ahead of what is queued)."""
        env = Environment()
        log = []

        def record(tag):
            log.append((env.now, tag))

        def spawn_urgent(tag):
            record(tag)
            env.call_later(0.0, record, f"{tag}-urgent", priority=URGENT)

        for delay in (3.0, 1.0, 2.0, 2.0, 5.0):
            env.call_later(delay, record, f"d{delay}")
        env.call_later(2.0, spawn_urgent, "spawner")
        env.call_later(2.0, record, "after-spawner")
        env.call_later_batch(2.0, record, ["b0", "b1", "b2"])
        env.call_later_batch(3.0, spawn_urgent, ["s0", "s1"])
        return env, log

    def test_advance_is_dispatch_identical_to_run(self):
        serial_env, serial_log = self._mixed_queue()
        serial_env.run()
        assert serial_log == [
            (1.0, "d1.0"),
            (2.0, "d2.0"),
            (2.0, "d2.0"),
            (2.0, "spawner"),
            (2.0, "spawner-urgent"),
            (2.0, "after-spawner"),
            (2.0, "b0"),
            (2.0, "b1"),
            (2.0, "b2"),
            (3.0, "d3.0"),
            (3.0, "s0"),
            (3.0, "s0-urgent"),
            (3.0, "s1"),
            (3.0, "s1-urgent"),
            (5.0, "d5.0"),
        ]
        for budget in (1, 2, 7):
            stepped_env, stepped_log = self._mixed_queue()
            while len(stepped_env):
                assert stepped_env.advance(max_events=budget) > 0
            assert stepped_log == serial_log, budget
            assert stepped_env.now == serial_env.now
            assert stepped_env._seq == serial_env._seq

    def test_advance_stop_leaves_same_timestamp_entries_queued(self):
        env = Environment()
        fired = []
        stop = env.timeout(2.0)
        env.call_later(2.0, fired.append, "a")
        env.call_later_batch(2.0, fired.append, ["b", "c"])
        assert env.advance(stop=stop) == 1
        assert stop.processed and env.now == 2.0
        assert fired == [] and len(env) == 2
        env.run()
        assert fired == ["a", "b", "c"]

    def test_advance_honors_every_budget(self):
        env = Environment()
        for delay in (1.0, 2.0, 3.0, 4.0):
            env.timeout(delay)
        assert env.advance(max_events=0) == 0
        assert env.advance(max_events=2) == 2
        assert env.now == 2.0
        assert env.advance(until_time=3.0) == 1  # the 4.0 entry stays queued
        assert len(env) == 1
        assert env.advance() == 1
        assert env.advance() == 0  # empty queue: a no-op, not an error

    def test_advance_stops_right_after_stop_event_processes(self):
        env = Environment()
        first = env.timeout(1.0)
        env.timeout(2.0)
        n = env.advance(stop=first)
        assert n == 1 and first.processed
        assert len(env) == 1

    def test_advance_rejects_bad_arguments(self):
        env = Environment()
        env.timeout(5.0)
        env.advance()
        with pytest.raises(SimulationError, match="max_events"):
            env.advance(max_events=-1)
        with pytest.raises(SimulationError, match="until_time"):
            env.advance(until_time=1.0)  # behind the clock (now == 5.0)
        with pytest.raises(SimulationError, match="until_time"):
            env.advance(until_time=float("inf"))
