"""ProcessPoolBackend: shared-memory transport, crash paths, hot-swap.

Also hosts the backend conformance suite (ordering, drain-quiescence,
close semantics) parameterized over Serial/Thread/Process — the
contract every backend must satisfy — and the drain/close atomicity
regression test for :class:`ThreadPoolBackend`.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.obs.registry import MetricsRegistry
from repro.serving import (ProcessPoolBackend, RegionServer, RetrainWorker,
                           SerialBackend, SlabRing, ThreadPoolBackend,
                           WorkerCrashed, WorkerTimeout, db_row_count,
                           hot_swap_model)
from repro.serving.shm import WorkerHandle

pytestmark = pytest.mark.serving


def _mk_region(tmp_path, name, *, weight=1.0, scale=1.0, auto_batch=False,
               calls=None):
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

    @approx_ml(src, name=name, auto_batch=auto_batch)
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
