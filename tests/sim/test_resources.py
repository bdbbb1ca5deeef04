"""Unit tests for Store."""

import pytest

from repro.sim import Store


def test_store_is_fifo(env):
    store = Store(env)
    received = []

    def producer(env, store):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_item_available(env):
    store = Store(env)
    times = []

    def consumer(env, store):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env, store):
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [(4.0, "late")]


def test_store_capacity_blocks_put(env):
    store = Store(env, capacity=1)
    progress = []

    def producer(env, store):
        yield store.put("first")
        progress.append(("put-first", env.now))
        yield store.put("second")
        progress.append(("put-second", env.now))

    def consumer(env, store):
        yield env.timeout(5)
        item = yield store.get()
        progress.append(("got", item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert ("put-first", 0.0) in progress
    # The second put can only complete after the consumer frees a slot at t=5.
    assert ("put-second", 5.0) in progress


def test_store_invalid_capacity(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len_reflects_items(env):
    store = Store(env)
    store.put("x")
    store.put("y")
    env.run()
    assert len(store) == 2


def test_store_cancel_withdraws_an_abandoned_get(env):
    store = Store(env)
    getter = store.get()
    assert store.cancel(getter) is True
    # The queued item must go to a *live* getter, not the cancelled one.
    store.put("item")
    live = store.get()
    env.run()
    assert live.value == "item"
    assert not getter.triggered


def test_store_cancel_is_a_noop_for_foreign_or_triggered_events(env):
    store = Store(env)
    other = Store(env)
    getter = other.get()
    assert store.cancel(getter) is False  # belongs to another store
    assert store.cancel(env.timeout(1)) is False  # not a store event at all
    put = store.put("x")
    env.run()
    assert store.cancel(put) is False  # already triggered and dequeued
