"""ProcessPoolBackend: shared-memory transport, crash paths, hot-swap.

Also hosts the backend conformance suite (ordering, drain-quiescence,
close semantics) parameterized over Serial/Thread/Process — the
contract every backend must satisfy — and the drain/close atomicity
regression test for :class:`ThreadPoolBackend`.  The mailbox protocol
tests at the end run with the spin window forced to zero, so both
processes park on every message.
"""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.obs.registry import MetricsRegistry
from repro.runtime import EventLog
from repro.serving import (ProcessPoolBackend, RegionServer, RetrainWorker,
                           SerialBackend, SlabRing, ThreadPoolBackend,
                           WorkerCrashed, WorkerTimeout, db_row_count,
                           hot_swap_model)
from repro.serving import shm
from repro.serving.shm import RemoteEngineClient, WorkerError, WorkerHandle

pytestmark = pytest.mark.serving


def _mk_region(tmp_path, name, *, weight=1.0, scale=1.0, auto_batch=False,
               calls=None, log=None):
    """A 2->1 region: model predicts ``weight * row_sum``, the accurate
    kernel writes ``scale * row_sum`` (and records to ``calls``)."""
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""

    @approx_ml(src, name=name, auto_batch=auto_batch, event_log=log)
    def region(x, y, N, use_model=False):
        if calls is not None:
            calls.append(N)
        y[:N] = x[:N].sum(axis=1) * scale

    return region


def _make_backend(kind):
    if kind == "serial":
        return SerialBackend()
    if kind == "thread":
        return ThreadPoolBackend()
    return ProcessPoolBackend(workers=2, request_timeout=30.0)


def _wait(result):
    return result.result() if hasattr(result, "result") else result


BACKENDS = ("serial", "thread", "process")


# ----------------------------------------------------------------------
# Backend conformance suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_per_region_ordering(tmp_path, kind):
    """Invocations of one region run in submission order."""
    calls = []
    region = _mk_region(tmp_path, f"ord-{kind}", calls=calls)
    server = RegionServer(backend=_make_backend(kind))
    server.register(region)
    x = np.ones((20, 2))
    y = np.zeros(20)
    futures = [server.invoke(f"ord-{kind}", x[:n], y[:n], n,
                             use_model=False)
               for n in range(1, 21)]
    for fut in futures:
        _wait(fut)
    server.close()
    assert calls == list(range(1, 21))


@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_drain_quiescence(tmp_path, kind):
    """Outputs of batched (deferred) invocations land by drain time."""
    region = _mk_region(tmp_path, f"qsc-{kind}", weight=1.0,
                        auto_batch=True)
    server = RegionServer(backend=_make_backend(kind))
    server.register(region)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 2))
    ys = [np.zeros(8) for _ in range(5)]
    for y in ys:
        _wait(server.invoke(f"qsc-{kind}", x, y, 8, use_model=True))
    server.drain()                      # queue (40 rows < 256) must land
    for y in ys:
        np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    server.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_double_close_idempotent(kind):
    backend = _make_backend(kind)
    backend.close()
    backend.close()                     # second close must be a no-op


@pytest.mark.parametrize("kind", BACKENDS)
def test_backend_submit_and_drain_after_close_raise(tmp_path, kind):
    region = _mk_region(tmp_path, f"cls-{kind}")
    backend = _make_backend(kind)
    server = RegionServer(backend=backend)
    server.register(region)
    served = server.served(f"cls-{kind}")
    backend.close()
    with pytest.raises(RuntimeError, match="backend is closed"):
        backend.submit(served, served.region,
                       (np.ones((1, 2)), np.zeros(1), 1), {})
    with pytest.raises(RuntimeError, match="backend is closed"):
        backend.drain([served])


def test_thread_drain_close_race_is_atomic(tmp_path):
    """A drain racing close() either flushes every region or raises
    before scheduling any flush — never "backend is closed" halfway.

    Regression: drain used to call self.submit per region, so a close
    landing mid-list left some regions flushed and raised on the rest.
    """
    n_regions = 6
    flushes = []
    lock = threading.Lock()

    class _Region:
        def __init__(self, tag):
            self.tag = tag

        def flush(self):
            with lock:
                flushes.append(self.tag)

    class _Served:
        def __init__(self, i, round_no):
            self.name = f"r{i}"
            self.region = _Region((round_no, i))

    for round_no in range(30):
        backend = ThreadPoolBackend()
        served = [_Served(i, round_no) for i in range(n_regions)]
        backend.drain(served)           # warm the executors
        start = threading.Barrier(2)
        outcome = {}

        def drainer():
            start.wait()
            try:
                backend.drain(served)
                outcome["drained"] = True
            except RuntimeError as exc:
                outcome["error"] = str(exc)

        t = threading.Thread(target=drainer)
        t.start()
        start.wait()
        backend.close()
        t.join()

        this_round = [tag for tag in flushes if tag[0] == round_no]
        if "drained" in outcome:
            # drain won: every region flushed twice (warm + raced).
            assert len(this_round) == 2 * n_regions
        else:
            # close won: only the warm-up flushes, none from the race.
            assert outcome["error"] == "backend is closed"
            assert len(this_round) == n_regions


# ----------------------------------------------------------------------
# SlabRing / worker transport
# ----------------------------------------------------------------------

def test_slab_ring_lease_release_cycle():
    ring = SlabRing(slot_floats=16, slots=2)
    a = ring.lease()
    b = ring.lease()
    assert ring.outstanding == 2
    with pytest.raises(WorkerTimeout):
        ring.lease(timeout=0.05)        # ring exhausted
    ring.slot(a)[:] = 1.0
    ring.slot(b)[:] = 2.0
    assert ring.slot(a)[0] == 1.0 and ring.slot(b)[0] == 2.0
    ring.release(a)
    c = ring.lease(timeout=0.5)         # released slab is reusable
    assert c == a
    ring.release(b)
    ring.release(c)
    ring.close()
    ring.close()                        # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        ring.lease(timeout=0.05)


def test_worker_timeout_kills_wedged_worker():
    import multiprocessing as mp
    handle = WorkerHandle(0, mp.get_context("fork"), request_timeout=0.5)
    assert handle.request(("ping",))[1] == handle.proc.pid
    start = time.perf_counter()
    with pytest.raises(WorkerTimeout):
        handle.request(("sleep", 30.0))
    assert time.perf_counter() - start < 5.0   # killed, not waited out
    assert not handle.alive
    with pytest.raises(WorkerCrashed):
        handle.request(("ping",))
    handle.close()


# ----------------------------------------------------------------------
# ProcessPoolBackend serving semantics
# ----------------------------------------------------------------------

def test_process_backend_matches_serial_outputs(tmp_path):
    """Both engine kinds (immediate + batched) round-trip through
    workers with outputs identical to in-process serving, and the hot
    path never pickles an array."""
    backend = ProcessPoolBackend(workers=2)
    server = RegionServer(backend=backend)
    imm = _mk_region(tmp_path, "imm", weight=2.0)
    bat = _mk_region(tmp_path, "bat", weight=3.0, auto_batch=True)
    server.register(imm)
    server.register(bat)
    assert backend.worker_for("imm") != backend.worker_for("bat")

    rng = np.random.default_rng(1)
    x = rng.normal(size=(32, 2))
    y_imm, y_bat = np.zeros(32), np.zeros(32)
    for _ in range(3):
        _wait(server.invoke("imm", x, y_imm, 32, use_model=True))
        _wait(server.invoke("bat", x, y_bat, 32, use_model=True))
    server.drain()
    np.testing.assert_allclose(y_imm, 2.0 * x.sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(y_bat, 3.0 * x.sum(axis=1), atol=1e-12)
    for placement in backend._placements.values():
        assert placement.client.pickle_fallbacks == 0
    server.close()


def test_process_backend_close_restores_original_engines(tmp_path):
    region = _mk_region(tmp_path, "restore")
    original = region.engine
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    server.register(region)
    assert region.engine is not original
    x = np.ones((4, 2))
    y = np.zeros(4)
    _wait(server.invoke("restore", x, y, 4, use_model=True))
    server.close()
    assert region.engine is original
    # The region still serves, now on the in-process engine.
    region(x, y, 4, use_model=True)
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)


def test_process_backend_worker_counters_fold_exactly(tmp_path):
    """Worker-local counters fold into the registry; a killed worker's
    last-known samples keep contributing (exact aggregates)."""
    registry = MetricsRegistry()
    backend = ProcessPoolBackend(workers=2, registry=registry)
    server = RegionServer(backend=backend)
    ra = _mk_region(tmp_path, "cnt-a")
    rb = _mk_region(tmp_path, "cnt-b")
    server.register(ra)
    server.register(rb)
    x = np.ones((8, 2))
    y = np.zeros(8)
    for _ in range(5):
        _wait(server.invoke("cnt-a", x, y, 8, use_model=True))
        _wait(server.invoke("cnt-b", x, y, 8, use_model=True))
    server.drain()
    rollup = registry.rollup("worker_infer_rows")
    assert rollup["value"] == 80        # 2 regions x 5 calls x 8 rows
    per_worker = registry.snapshot()["metrics"]["worker_infer_requests"]
    assert {s["labels"]["worker"] for s in per_worker} == {"0", "1"}
    assert sum(s["value"] for s in per_worker) == 10

    backend.kill_worker(0)
    # Dead worker: counters freeze at last pull instead of vanishing.
    rollup_after = registry.rollup("worker_infer_rows")
    assert rollup_after["value"] == 80
    hist = registry.rollup("worker_forward_seconds")
    assert hist["count"] == 10
    server.close()


def test_process_killed_worker_quarantined_not_hung(tmp_path):
    """Acceptance: a killed worker surfaces through the breaker/health
    path — invocations fail over to the accurate kernel, the breaker
    quarantines the region, and drain returns promptly."""
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    region = _mk_region(tmp_path, "victim", weight=1.0, scale=-1.0)
    server.register(region)
    server.attach_breakers(failure_threshold=1, quarantine_threshold=2,
                           probe_interval=1, recovery_successes=2)

    x = np.ones((4, 2))
    y = np.zeros(4)
    _wait(server.invoke("victim", x, y, 4, use_model=True))
    np.testing.assert_allclose(y, x.sum(axis=1))     # surrogate healthy

    backend.kill_worker(0)
    start = time.perf_counter()
    for _ in range(6):
        _wait(server.invoke("victim", x, y, 4, use_model=True))
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(y, -x.sum(axis=1))    # accurate fallback
    assert elapsed < 10.0                            # fail-fast, no hang

    snap = server.snapshot()
    assert snap["health"]["victim"]["state"] == "quarantined"
    worker = snap["backend_detail"]["workers"][0]
    assert not worker["alive"] and worker["dead_reason"]

    start = time.perf_counter()
    server.drain()                                   # must not hang
    assert time.perf_counter() - start < 5.0
    server.close()


def test_process_drain_with_dead_worker_fails_fast(tmp_path):
    """Unguarded batched region + dead worker: drain raises the crash
    promptly instead of hanging on the lost flush."""
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    region = _mk_region(tmp_path, "lost", auto_batch=True)
    server.register(region)
    x = np.ones((4, 2))
    y = np.zeros(4)
    _wait(server.invoke("lost", x, y, 4, use_model=True))  # queued
    backend.kill_worker(0)
    start = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        server.drain()
    assert time.perf_counter() - start < 5.0
    backend.close()                      # restores engines despite crash
    assert not hasattr(region.engine, "client")


# ----------------------------------------------------------------------
# Hot-swap / retrain e2e on the process backend
# ----------------------------------------------------------------------

def _learnable_region(tmp_path, name):
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""

    @approx_ml(src, name=name)
    def region(x, y, N, use_model=False):
        y[:N] = 2.0 * x[:N, 0] + 3.0 * x[:N, 1]

    return region


def test_process_backend_retrain_hot_swap_e2e(tmp_path):
    """Acceptance: collect → retrain → hot-swap on a live process
    backend.  The swap broadcasts plan-cache invalidation to workers
    (awaiting acks), so the very next served invocation runs the new
    weights — no worker restart."""
    registry = MetricsRegistry()
    backend = ProcessPoolBackend(workers=2, registry=registry)
    server = RegionServer(backend=backend)
    region = _learnable_region(tmp_path, "learn")
    server.register(region)

    bad = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    bad[0].weight.data = np.array([[0.0, 0.0]])
    bad[0].bias.data = np.array([0.0])
    save_model(bad, tmp_path / "learn.rnm")

    rng = np.random.default_rng(3)
    x = rng.random((64, 2))
    y = np.empty(64)
    # Served through the worker: the broken model predicts all zeros.
    _wait(server.invoke("learn", x, y, 64, use_model=True))
    np.testing.assert_allclose(y, 0.0, atol=1e-12)

    worker = RetrainWorker(seed=0)
    worker.watch(
        "learn", tmp_path / "learn.rh5", tmp_path / "learn.rnm",
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=200,
                            patience=50),
        min_new_rows=32, engines=[region.engine])

    # Drift: collection path refreshes the DB through the server.
    _wait(server.invoke("learn", x, y, 64, use_model=False))
    server.drain()
    assert db_row_count(tmp_path / "learn.rh5", "learn") == 64
    events = worker.poll()               # retrains + hot-swaps
    assert len(events) == 1 and events[0].region == "learn"

    # Workers acked the invalidation broadcast during the swap.
    assert registry.rollup("worker_model_invalidations")["value"] >= 2

    y_pred = np.empty(64)
    _wait(server.invoke("learn", x, y_pred, 64, use_model=True))
    server.drain()
    ref = 2.0 * x[:, 0] + 3.0 * x[:, 1]
    rel = np.linalg.norm(y_pred - ref) / np.linalg.norm(ref)
    assert rel < 0.05                    # new model, served by workers
    server.close()


def test_process_backend_hot_swap_direct(tmp_path):
    """hot_swap_model against a process engine: invalidate + warmup are
    synchronous worker round trips."""
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    region = _mk_region(tmp_path, "hs", weight=1.0)
    server.register(region)
    x = np.ones((4, 2))
    y = np.zeros(4)
    _wait(server.invoke("hs", x, y, 4, use_model=True))
    np.testing.assert_allclose(y, 2.0)

    new = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    new[0].weight.data = np.array([[5.0, 5.0]])
    new[0].bias.data = np.array([0.0])
    hot_swap_model(new, tmp_path / "hs.rnm", engines=[region.engine],
                   verify_inputs=x)
    _wait(server.invoke("hs", x, y, 4, use_model=True))
    np.testing.assert_allclose(y, 10.0)
    server.close()


def test_process_backend_invalidate_broadcast_serves_replaced_file(tmp_path):
    """The bare hot-swap protocol across the process boundary: workers
    memoise the resolved model path, so after ``os.replace`` the adopted
    engine's ``cache.invalidate`` must reach every worker (broadcast +
    acks) before the next forward, which then reloads the new file."""
    import os
    backend = ProcessPoolBackend(workers=2)
    server = RegionServer(backend=backend)
    path = tmp_path / "shared.rnm"
    regions = []
    for name in ("left", "right"):           # one region per worker
        region = _mk_region(tmp_path, name, weight=1.0)
        region.config.model_path = str(path)
        server.register(region)
        regions.append(region)
    os.replace(tmp_path / "left.rnm", path)
    assert {backend.worker_for("left"), backend.worker_for("right")} == {0, 1}
    x = np.ones((4, 2))
    outs = {name: np.zeros(4) for name in ("left", "right")}
    for _ in range(3):                       # worker memo + plan warm
        for name, y in outs.items():
            _wait(server.invoke(name, x, y, 4, use_model=True))
            np.testing.assert_allclose(y, 2.0)

    _mk_region(tmp_path, "next", weight=5.0)
    os.replace(tmp_path / "next.rnm", path)
    regions[0].engine.cache.invalidate(path)  # left's cache: pool-wide
    for name, y in outs.items():
        _wait(server.invoke(name, x, y, 4, use_model=True))
        np.testing.assert_allclose(y, 10.0)
    server.close()


def test_process_backend_oversized_output_falls_back_to_pickle(tmp_path):
    """An output bigger than the slab still arrives (pickled reply) and
    is counted so benchmarks can assert the hot path stayed clean."""
    from repro.serving.shm import RemoteEngineClient
    import multiprocessing as mp
    model = Sequential(Linear(2, 64, rng=np.random.default_rng(0)))
    save_model(model, tmp_path / "wide.rnm")
    handle = WorkerHandle(0, mp.get_context("fork"))
    client = RemoteEngineClient(handle, min_slot_floats=64)
    x = np.ones((16, 2))                 # in: 32 floats, out: 1024
    out, _ = client.infer(tmp_path / "wide.rnm", x)
    assert out.shape == (16, 64)
    assert client.pickle_fallbacks == 1
    client.close()
    handle.close()


# ----------------------------------------------------------------------
# Placement and ring lifetime
# ----------------------------------------------------------------------

def test_process_region_registered_after_a_kill_lands_on_a_live_worker(
        tmp_path):
    """Regression: adopt used to place round-robin without looking at
    liveness, so the first region after a kill went to the dead worker
    while a live one sat idle."""
    backend = ProcessPoolBackend(workers=2)
    server = RegionServer(backend=backend)
    backend.kill_worker(0)
    for name in ("late-a", "late-b"):
        server.register(_mk_region(tmp_path, name))
        assert backend.worker_for(name) == 1
    x, y = np.ones((4, 2)), np.zeros(4)
    _wait(server.invoke("late-a", x, y, 4, use_model=True))
    np.testing.assert_allclose(y, 2.0)
    backend.kill_worker(1)
    with pytest.raises(RuntimeError, match="ProcessPoolBackend.*no live"):
        server.register(_mk_region(tmp_path, "nowhere"))
    backend.close()


def test_process_placement_balances_live_workers(tmp_path):
    """Fewest placements first, ties by index: round-robin while every
    worker is alive, and a region adopted before a kill stays put (and
    quarantines through its breaker, as
    test_process_killed_worker_quarantined_not_hung pins)."""
    backend = ProcessPoolBackend(workers=3)
    server = RegionServer(backend=backend)
    for i in range(4):
        server.register(_mk_region(tmp_path, f"rr{i}", scale=-1.0))
    assert [backend.worker_for(f"rr{i}") for i in range(4)] == [0, 1, 2, 0]
    server.attach_breakers(failure_threshold=1, quarantine_threshold=2,
                           probe_interval=1, recovery_successes=2)
    backend.kill_worker(1)
    server.register(_mk_region(tmp_path, "rr4"))
    assert backend.worker_for("rr4") == 2 and backend.worker_for("rr1") == 1
    x, y = np.ones((4, 2)), np.zeros(4)
    for _ in range(4):
        _wait(server.invoke("rr1", x, y, 4, use_model=True))
    np.testing.assert_allclose(y, -2.0)              # accurate fallback
    assert server.snapshot()["health"]["rr1"]["state"] == "quarantined"
    server.close()


def _worker_maps(handle) -> str:
    with open(f"/proc/{handle.proc.pid}/maps") as fh:
        return fh.read()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_worker_holds_exactly_the_registered_rings(tmp_path):
    """Ten regions on one worker, served round-robin: each ring is
    mapped once (an 8-entry insertion-order cache used to re-mmap on
    every call), and a ring replaced by growth is unmapped."""
    registry = MetricsRegistry()
    backend = ProcessPoolBackend(workers=1, registry=registry)
    server = RegionServer(backend=backend)
    names = [f"ring{i}" for i in range(10)]
    for name in names:
        server.register(_mk_region(tmp_path, name))
    x, y = np.ones((8, 2)), np.zeros(8)
    for _ in range(5):
        for name in names:
            _wait(server.invoke(name, x, y, 8, use_model=True))
    server.drain()
    assert registry.rollup("worker_segments_attached")["value"] == 10
    assert registry.rollup("worker_segments_held")["value"] == 10

    client, handle = backend.client_for("ring0"), backend._handles[0]
    old = client._ring.name
    assert old in _worker_maps(handle)
    rows = client._ring.slot_floats           # 2 floats a row: outgrows it
    big_x, big_y = np.ones((rows, 2)), np.zeros(rows)
    _wait(server.invoke("ring0", big_x, big_y, rows, use_model=True))
    np.testing.assert_allclose(big_y, 2.0)
    server.drain()
    maps = _worker_maps(handle)
    assert client._ring.name != old and client._ring.name in maps
    assert old not in maps and not os.path.exists(f"/dev/shm/{old}")
    assert registry.rollup("worker_segments_attached")["value"] == 11
    assert registry.rollup("worker_segments_held")["value"] == 10
    server.close()


# ----------------------------------------------------------------------
# Mailbox protocol, spin window forced to zero: both sides park
# ----------------------------------------------------------------------

@pytest.fixture
def parked(monkeypatch):
    """Zero the spin window before any worker forks (a forked worker
    inherits it), so every wait on either side goes through park →
    wake."""
    monkeypatch.setattr(shm, "_SPIN_SECONDS", 0.0)


@pytest.fixture
def model_path(tmp_path):
    model = Sequential(Linear(3, 2, rng=np.random.default_rng(5)))
    save_model(model, tmp_path / "m.rnm")
    return tmp_path / "m.rnm"


@pytest.fixture
def fork_handle():
    handle = WorkerHandle(0, mp.get_context("fork"), request_timeout=30.0)
    yield handle
    handle.close()


@pytest.fixture
def make_client(fork_handle):
    """Clients of ``fork_handle``, closed (rings unlinked) before it."""
    clients = []

    def make(**kwargs):
        clients.append(RemoteEngineClient(fork_handle, **kwargs))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


def test_parked_forwards_are_bitwise_and_tokens_are_skipped(
        parked, model_path, fork_handle, make_client):
    from repro.runtime import InferenceEngine
    handle, client = fork_handle, make_client()
    x = np.random.default_rng(6).standard_normal((64, 3))
    want = InferenceEngine().infer(model_path, x)
    client.infer(model_path, x)          # registers the model and ring
    parks0, received0 = handle.parks, handle.pipe_received
    for _ in range(20):
        out, timing = client.infer(model_path, x)
        assert np.array_equal(out, want)
        assert timing["compiled"] and timing["dtype"] == "float64"
        # A wake token may still be in the pipe: the control reply that
        # follows must skip it, not unpickle it.
        assert handle.request(("invalidate", str(model_path))) == \
            ("ok", True)
        assert handle.request(("ping",)) == ("ok", handle.proc.pid)
    assert handle.parks > parks0                   # the path under test
    assert handle.pipe_received - received0 == 40  # tokens: not messages
    out32, timing32 = client.infer(model_path, x, dtype=np.float32)
    assert out32.dtype == np.float32 and timing32["dtype"] == "float32"
    assert client.pickle_fallbacks == 0


def test_parked_parent_receives_err_and_big_replies(
        parked, model_path, fork_handle, make_client):
    with pytest.raises(WorkerError, match="unknown op 'bogus'"):
        fork_handle.request(("bogus",))
    client = make_client(min_slot_floats=8)
    x = np.ones((3, 3))                  # in: 9 floats, slot 9, out: 6
    assert client.infer(model_path, x)[0].shape == (3, 2)
    with pytest.raises(WorkerError, match="KeyError"):
        fork_handle.forward(10 ** 6, client._ring_id, 0, 9, 0, (3, 3))
    wide = Sequential(Linear(3, 64, rng=np.random.default_rng(0)))
    save_model(wide, model_path.with_name("wide.rnm"))
    out, _ = client.infer(model_path.with_name("wide.rnm"), x)
    assert out.shape == (3, 64) and client.pickle_fallbacks == 1
    assert fork_handle.parks > 0


_WORKER_DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:3] = ([i, 0:3]))
#pragma approx tensor functor(fo: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model}")
"""


def _queued_region(model_path, engine, dtype=None, log=None):
    """A 3->2 region over ``engine`` that records the rows each flush
    hands its ``complete_infer`` in ``region.handed``."""
    @approx_ml(_WORKER_DIRECTIVES.format(model=model_path), engine=engine,
               event_log=log,
               precision=None if dtype is None else np.dtype(dtype).name)
    def region(x, y, N):
        y[:N] = 0.0

    region.handed = []
    complete = region.complete_infer

    def spy(record, bound, outputs, seconds=0.0):
        region.handed.append(outputs)
        complete(record, bound, outputs, seconds)
    region.complete_infer = spy
    return region


def _queue_over_worker(make_client):
    from repro.runtime import BatchedInferenceEngine
    from repro.serving import ProcessInferenceEngine
    return BatchedInferenceEngine(ProcessInferenceEngine(make_client()),
                                  max_batch_rows=100)


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_queue_over_a_worker_engine_equals_queue_over_a_local_one(
        model_path, make_client, dtype):
    """Batching is a queue in front of *any* engine: the landed outputs
    and the rows each flush hands ``complete_infer`` are bitwise those
    of the in-process composition, at both plan precisions."""
    from repro.runtime import BatchedInferenceEngine
    rng = np.random.default_rng(8)
    chunks = [rng.standard_normal((n, 3)) for n in (1, 5, 2)]
    landed, handed = [], []
    for engine in (BatchedInferenceEngine(max_batch_rows=100),
                   _queue_over_worker(make_client)):
        region = _queued_region(model_path, engine, dtype)
        ys = [np.zeros((len(chunk), 2)) for chunk in chunks]
        for chunk, y in zip(chunks, ys):
            region(chunk, y, len(chunk))
        region.flush()
        landed.append(ys)
        handed.append(region.handed)
        assert engine.batches_flushed == 1 and engine.rows_flushed == 8
        assert engine.last_timing["dtype"] == np.dtype(dtype or "f8").name
    for local, worker in zip(*landed, strict=True):
        assert np.array_equal(local, worker)
    for local, worker in zip(*handed, strict=True):
        assert local.dtype == worker.dtype and np.array_equal(local, worker)


def test_worker_crash_leaves_the_queue_intact(
        model_path, fork_handle, make_client):
    """A forward that raises consumed nothing — what
    ``test_flush_failure_preserves_queue`` pins for a local forward."""
    engine = _queue_over_worker(make_client)
    log = EventLog()
    region = _queued_region(model_path, engine, log=log)
    warm = np.zeros((2, 2))
    region(np.ones((2, 3)), warm, 2)
    region.flush()
    region(np.ones((2, 3)), np.zeros((2, 2)), 2)
    region(np.ones((1, 3)), np.zeros((1, 2)), 1)
    fork_handle.proc.kill()
    fork_handle.proc.join(5.0)
    with pytest.raises(WorkerCrashed):
        region.flush()
    assert (engine.pending_rows, engine.pending_invocations) == (3, 2)
    assert engine.batches_flushed == 1 and warm.any()
    assert [r.finished for r in log.records] == [True, False, False]


def test_a_queue_dropped_by_a_dead_worker_closes_its_records(tmp_path):
    """Calls queued for a worker that dies are never delivered: closing
    the server still releases the backend and closes every region, the
    lost calls' records close with the crash, and the latency
    histograms keep folding past them."""
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    log = EventLog()
    region = _mk_region(tmp_path, "dropped", auto_batch=True, log=log)
    server.register(region)
    x, y = np.ones((4, 2)), np.zeros(4)
    try:
        _wait(server.invoke("dropped", x, y, 4, use_model=True))
        server.drain()
        for _ in range(3):
            _wait(server.invoke("dropped", x, y, 4, use_model=True))
        backend.kill_worker(0)
        with pytest.raises(WorkerCrashed):
            server.close()
    finally:
        backend.close()
    assert not hasattr(region.engine, "client")    # released anyway
    lost = log.records[1:]
    assert len(lost) == 3 and all(
        r.finished and r.notes["error"] == "WorkerCrashed" for r in lost)
    region(x, y, 4, use_model=True)                # served in-process
    region.flush()
    log.collect()
    assert log._hist_cursor == len(log.records) == 5


def test_rank_above_the_descriptor_is_refused_by_name(
        model_path, make_client):
    client = make_client()
    with pytest.raises(ValueError, match="rank <= 8"):
        client.infer(model_path, np.ones((1,) * 9))
    assert client._ring is None                   # nothing was written


def test_kill_while_parent_is_parked_raises_within_two_polls(
        parked, fork_handle):
    handle = fork_handle
    killed_at = []

    def kill():
        while not handle._words[shm._PARENT_PARKED]:
            time.sleep(0.001)
        killed_at.append(time.monotonic())
        handle.proc.kill()

    killer = threading.Thread(target=kill)
    killer.start()
    with pytest.raises(WorkerCrashed):
        handle.request(("sleep", 30.0))
    elapsed = time.monotonic() - killed_at[0]
    killer.join(5.0)
    # Two poll periods is the contract; the allowance covers SIGKILL
    # delivery and the reap on a loaded two-core box.
    assert elapsed < 2 * shm._POLL_SECONDS + 0.5
    assert not handle.alive and handle.dead


PARKED_RERUNS = [
    "test_backend_per_region_ordering",
    "test_backend_drain_quiescence",
    "test_worker_timeout_kills_wedged_worker",
    "test_process_backend_matches_serial_outputs",
    "test_process_backend_worker_counters_fold_exactly",
    "test_process_killed_worker_quarantined_not_hung",
    "test_process_drain_with_dead_worker_fails_fast",
    "test_process_backend_retrain_hot_swap_e2e",
    "test_process_backend_hot_swap_direct",
    "test_process_backend_invalidate_broadcast_serves_replaced_file",
    "test_process_backend_oversized_output_falls_back_to_pickle",
]


@pytest.mark.parametrize("name", PARKED_RERUNS)
def test_parked_rerun(name, parked, tmp_path):
    """The transport, hot-swap, crash and oversized-output tests above,
    a second time with both sides parking on every message."""
    test = globals()[name]
    wants = test.__code__.co_varnames[:test.__code__.co_argcount]
    test(**{arg: {"tmp_path": tmp_path, "kind": "process"}[arg]
            for arg in wants})


def test_round_trip_under_spawn(model_path):
    backend = ProcessPoolBackend(workers=1, start_method="spawn")
    client = RemoteEngineClient(backend._handles[0])
    try:
        x = np.ones((4, 3))
        out, timing = client.infer(model_path, x)
        assert out.shape == (4, 2) and timing["compiled"]
    finally:
        client.close()
        backend.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
@pytest.mark.parametrize("kill", [False, True])
def test_close_leaves_no_segment_behind(tmp_path, kill):
    before = set(os.listdir("/dev/shm"))
    backend = ProcessPoolBackend(workers=2)
    server = RegionServer(backend=backend)
    for name in ("seg-a", "seg-b"):
        server.register(_mk_region(tmp_path, name))
    x, y = np.ones((4, 2)), np.zeros(4)
    for name in ("seg-a", "seg-b"):
        _wait(server.invoke(name, x, y, 4, use_model=True))
    assert len(set(os.listdir("/dev/shm")) - before) == 4  # 2 boxes, 2 rings
    if kill:
        backend.kill_worker(0)
    backend.close()
    assert set(os.listdir("/dev/shm")) <= before
