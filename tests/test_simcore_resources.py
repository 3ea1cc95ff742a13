"""Tests for Store."""

import pytest

from repro.errors import SimulationError
from repro.simcore import Environment, Store


# ---------------------------------------------------------------- Store ----
def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for i in range(5):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(9.0)
        yield store.put("late")

    p = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert p.value == (9.0, "late")


def test_store_put_blocks_at_capacity():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a", env.now))
        yield store.put("b")
        log.append(("b", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a", 0.0), ("b", 5.0)]


def test_store_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_many_consumers_fifo_service():
    env = Environment()
    store = Store(env)
    served = []

    def consumer(env, tag):
        yield store.get()
        served.append(tag)

    def producer(env):
        yield env.timeout(1.0)
        for _ in range(3):
            yield store.put(object())

    for tag in "abc":
        env.process(consumer(env, tag))
    env.process(producer(env))
    env.run()
    assert served == ["a", "b", "c"]


def test_store_len():
    env = Environment()
    store = Store(env)

    def proc(env):
        yield store.put(1)
        yield store.put(2)

    env.process(proc(env))
    env.run()
    assert len(store) == 2


def test_store_get_cancel():
    env = Environment()
    store = Store(env)
    get_event = store.get()
    assert get_event.cancel() is True  # still pending -> withdrawn

    def producer(env):
        yield store.put("item")

    def consumer(env):
        item = yield store.get()
        return item

    env.process(producer(env))
    p = env.process(consumer(env))
    env.run()
    # The cancelled get did not consume the item: the consumer got it.
    assert p.value == "item"
    assert not get_event.triggered
    assert get_event.cancel() is True  # idempotent on withdrawn events
