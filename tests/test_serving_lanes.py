"""Caller-runs lanes of :class:`ThreadPoolBackend`.

The head of an idle lane is executed by the thread that waits on its
future; the lane's thread is woken only for items that cannot be left
to a waiter.  Kernels record which thread ran them — nothing here
asserts a duration; every wait carries a timeout only so a regression
fails instead of hanging the suite.
"""

import concurrent.futures
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.serving import ProcessPoolBackend, RegionServer, ThreadPoolBackend

pytestmark = pytest.mark.serving

WAIT = 30.0     # hang guard, never reached on a working backend


class _Served:
    """What a backend needs of a served region: a name and a flush."""

    def __init__(self, name):
        self.name = name
        self.region = self
        self.flushes = 0

    def flush(self):
        self.flushes += 1


@pytest.fixture
def backend():
    backend = ThreadPoolBackend()
    yield backend
    backend.close()


def _recorder(log, tag):
    def kernel():
        log.append((tag, threading.current_thread().name))
        return tag
    return kernel


def test_synchronous_loop_never_leaves_the_caller(backend):
    served, log = _Served("sync"), []
    me = threading.current_thread().name
    for i in range(50):
        assert backend.submit(served, _recorder(log, i)).result() == i
    assert log == [(i, me) for i in range(50)]
    lane = backend._lanes["sync"]
    assert lane.wakeups == 0 and lane._thread is None


def test_fan_out_keeps_one_lane_ahead(backend):
    """submit-A, submit-B, wait-both: coming back to the backend hands
    A to its lane; B is still the caller's."""
    log = []
    fa = backend.submit(_Served("a"), _recorder(log, "A"))
    fb = backend.submit(_Served("b"), _recorder(log, "B"))
    assert fa.result(WAIT) == "A" and fb.result() == "B"
    assert dict(log) == {"A": "serve-a",
                         "B": threading.current_thread().name}
    assert backend._lanes["a"].wakeups == 1
    assert backend._lanes["b"].wakeups == 0


def test_shuffled_waits_run_once_each_in_submission_order(backend):
    served, log = _Served("shuf"), []
    futures = [backend.submit(served, _recorder(log, i)) for i in range(40)]
    order = list(range(40))
    random.Random(7).shuffle(order)
    for i in order:
        assert futures[i].result() == i
    assert [tag for tag, _ in log] == list(range(40))


def test_observed_futures_are_not_stranded(backend):
    """Every way of looking at a fresh future without ``result()``
    hands it to the lane's thread."""
    log = []

    def fresh(tag):
        return backend.submit(_Served(f"obs-{tag}"), _recorder(log, tag))

    f = fresh("wait")
    done, pending = concurrent.futures.wait([f], timeout=WAIT)
    assert done == {f} and not pending

    f = fresh("as_completed")
    assert list(concurrent.futures.as_completed([f], timeout=WAIT)) == [f]

    f = fresh("poll")
    deadline = time.monotonic() + WAIT
    while not f.done() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert f.done()

    f, fired = fresh("callback"), threading.Event()
    f.add_done_callback(lambda _: fired.set())
    assert fired.wait(WAIT)

    f = fresh("timed")
    assert f.result(timeout=WAIT) == "timed"
    assert f.exception(timeout=WAIT) is None

    me = threading.current_thread().name
    assert len(log) == 5 and all(name != me for _, name in log)


def test_unobserved_future_starts_at_drain_and_close(backend):
    served, log = _Served("late"), []
    backend.submit(served, _recorder(log, 0))
    backend.drain([served])                 # behind the queued item
    assert [tag for tag, _ in log] == [0] and served.flushes == 1
    backend.submit(served, _recorder(log, 1))
    backend.close()
    assert [tag for tag, _ in log] == [0, 1]


def test_inline_exception_reaches_result_and_exception(backend):
    err, ran_on = ValueError("boom"), []

    def kernel():
        ran_on.append(threading.current_thread().name)
        raise err

    f = backend.submit(_Served("exc"), kernel)
    with pytest.raises(ValueError) as info:
        f.result()
    assert info.value is err and f.exception() is err
    assert ran_on == [threading.current_thread().name]
    # The lane is idle again: the next item is the caller's too.
    assert backend.submit(_Served("exc"), lambda: 3).result() == 3
    assert backend._lanes["exc"].wakeups == 0


def test_cancelled_item_is_skipped(backend):
    served, log, gate = _Served("cancel"), [], threading.Event()
    first = backend.submit(served, gate.wait, (WAIT,))
    assert not first.done()                 # observed: on the lane now
    second = backend.submit(served, _recorder(log, "never"))
    assert second.cancel()
    third = backend.submit(served, _recorder(log, "third"))
    gate.set()
    assert first.result(WAIT) and third.result(WAIT) == "third"
    assert [tag for tag, _ in log] == ["third"]


def test_close_waits_for_the_item_running_inline():
    backend = ThreadPoolBackend()
    started, release, events = threading.Event(), threading.Event(), []

    def kernel():
        events.append(threading.current_thread().name)
        started.set()
        assert release.wait(WAIT)
        events.append("kernel done")

    def closer():
        assert started.wait(WAIT)
        backend.close()
        events.append("close returned")

    thread = threading.Thread(target=closer)
    thread.start()
    future = backend.submit(_Served("inline"), kernel)
    waiter = threading.Thread(target=future.result, name="the-waiter")
    waiter.start()
    assert started.wait(WAIT)
    thread.join(0.2)
    assert thread.is_alive() and events == ["the-waiter"]   # close waits
    release.set()
    thread.join(WAIT)
    waiter.join(WAIT)
    assert not thread.is_alive() and not waiter.is_alive()
    assert events == ["the-waiter", "kernel done", "close returned"]
    with pytest.raises(RuntimeError, match="backend is closed"):
        backend.submit(_Served("inline"), kernel)


def test_process_close_swaps_no_engine_under_an_inline_call(tmp_path):
    """close() restores the original engines only after the invocation
    running on its waiter's thread returned."""
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    save_model(model, tmp_path / "m.rnm")
    started, release, seen = threading.Event(), threading.Event(), []
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:use_model) in(x) out(y) \\
    db("{tmp_path}/m.rh5") model("{tmp_path}/m.rnm")
"""

    @approx_ml(src, name="held")
    def region(x, y, N, use_model=False):
        seen.append(region.engine)
        started.set()
        assert release.wait(WAIT)
        seen.append(region.engine)
        y[:N] = 0.0

    original = region.engine
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    server.register(region)
    adapter = region.engine
    future = server.invoke("held", np.ones((2, 2)), np.zeros(2), 2)
    closer = threading.Thread(
        target=lambda: (started.wait(WAIT), backend.close()))
    closer.start()
    waiter = threading.Thread(target=future.result)
    waiter.start()
    assert started.wait(WAIT)
    closer.join(0.2)
    assert closer.is_alive() and region.engine is adapter
    release.set()
    closer.join(WAIT)
    waiter.join(WAIT)
    assert not closer.is_alive() and not waiter.is_alive()
    assert seen == [adapter, adapter] and region.engine is original
    region.close()


def test_lane_stress_keeps_order_and_exclusion():
    """More threads than cores, a 10 us switch interval: per lane,
    items still run one at a time, once each, in submission order."""
    backend = ThreadPoolBackend()
    lanes = [_Served(f"s{i}") for i in range(3)]
    submit_lock = threading.Lock()
    submitted = {s.name: [] for s in lanes}
    executed = {s.name: [] for s in lanes}
    active = dict.fromkeys(executed, 0)
    overlaps, failures = [], []

    def kernel(name, ticket):
        active[name] += 1
        if active[name] != 1:
            overlaps.append((name, ticket))
        executed[name].append(ticket)
        active[name] -= 1
        return ticket

    def client(seed):
        rng = random.Random(seed)
        try:
            for n in range(150):
                served = rng.choice(lanes)
                with submit_lock:       # ticket order == submission order
                    ticket = (seed, n)
                    future = backend.submit(served, kernel,
                                            (served.name, ticket))
                    submitted[served.name].append(ticket)
                how = rng.randrange(4)
                if how == 0:
                    assert future.result() == ticket
                elif how == 1:
                    assert future.result(timeout=WAIT) == ticket
                elif how == 2:
                    concurrent.futures.wait([future], timeout=WAIT)
                # how == 3: left for the next backend call to start
        except BaseException as exc:    # surfaced by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert not any(t.is_alive() for t in threads)
        backend.drain(lanes)
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert not failures and not overlaps
    assert executed == submitted
