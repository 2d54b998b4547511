"""Serving layer: RegionServer, backends, arbiter, retrain/hot-swap.

The two-region arbitration test is the subsystem's acceptance story:
one untrained surrogate must be forced onto the accurate path while a
trained one keeps its inference share, with the *global* error budget
respected end-to-end.  Thread-pool tests carry the ``serving`` marker
so CI can run them as a dedicated lane on both Python versions.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.qos import BudgetArbitrationPolicy, QoSController, RegionErrorStats
from repro.runtime import EventLog, ExecutionPath, Phase
from repro.serving import (QoSArbiter, RegionServer, RetrainWorker,
                           ThreadPoolBackend, db_row_count, hot_swap_model)


def linear_region(tmp_path, name, *, weight=1.0, scale=1.0, mode="infer",
                  auto_batch=False, calls=None, engine=None, qos=None):
    """A 2->1 region: accurate kernel computes ``scale * row_sum``, the
    saved model predicts ``weight * row_sum``.  ``calls`` (a list, when
    given) records each accurate-kernel invocation's row count."""
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml({mode}:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
    log = EventLog()

    @approx_ml(src, name=name, event_log=log, engine=engine, qos=qos,
               auto_batch=auto_batch)
    def region(x, y, N, use_model=False):
        if calls is not None:
            calls.append(N)
        y[:N] = x[:N].sum(axis=1) * scale

    return region, log


# ----------------------------------------------------------------------
# RegionServer basics
# ----------------------------------------------------------------------

def test_serial_server_matches_direct_invocation(tmp_path):
    region_a, _ = linear_region(tmp_path, "a", weight=1.0)
    region_b, _ = linear_region(tmp_path, "b", weight=2.0)
    server = RegionServer()
    assert server.register(region_a) == "a"
    server.register(region_b, name="b")
    assert set(server.names) == {"a", "b"}

    x = np.arange(8.0).reshape(4, 2)
    y_served = np.empty(4)
    y_direct = np.empty(4)
    server.invoke("a", x, y_served, 4, use_model=True)
    region_a(x, y_direct, 4, use_model=True)
    np.testing.assert_allclose(y_served, y_direct)

    y_b = np.empty(4)
    server.invoke("b", x, y_b, 4, use_model=True)
    np.testing.assert_allclose(y_b, 2.0 * x.sum(axis=1))
    assert server.served("a").invocations == 1
    snap = server.snapshot()
    assert snap["backend"] == "SerialBackend"
    assert snap["regions"]["b"]["invocations"] == 1


def test_register_duplicate_name_raises(tmp_path):
    region, _ = linear_region(tmp_path, "dup")
    server = RegionServer()
    server.register(region)
    with pytest.raises(ValueError, match="already registered"):
        server.register(region)


def test_attach_restore_qos_roundtrip(tmp_path):
    region, _ = linear_region(tmp_path, "r")
    server = RegionServer()
    server.register(region)
    ctrl = QoSController(shadow_rate=0.0)
    prev = server.attach_qos(ctrl)
    assert region.config.qos is ctrl and server.qos is ctrl
    server.restore_qos(prev)
    assert region.config.qos is None
    # Server-level controller is inherited by later registrations.
    server.attach_qos(ctrl)
    late, _ = linear_region(tmp_path, "late")
    server.register(late)
    assert late.config.qos is ctrl
    server.detach_qos()
    assert late.config.qos is None and server.qos is None


# ----------------------------------------------------------------------
# Thread-pool backend (the `serving` CI lane)
# ----------------------------------------------------------------------

@pytest.mark.serving
def test_thread_backend_serves_two_regions_concurrently(tmp_path):
    region_a, _ = linear_region(tmp_path, "a", weight=1.0, auto_batch=True)
    region_b, _ = linear_region(tmp_path, "b", weight=3.0, auto_batch=True)
    server = RegionServer(backend=ThreadPoolBackend())
    server.register(region_a)
    server.register(region_b)

    rng = np.random.default_rng(0)
    x = rng.random((64, 2))
    y_a = np.empty(64)
    y_b = np.empty(64)
    futures = []
    for start in range(0, 64, 8):
        block = np.ascontiguousarray(x[start:start + 8])
        futures.append(server.invoke("a", block, y_a[start:start + 8], 8,
                                     use_model=True))
        futures.append(server.invoke("b", block, y_b[start:start + 8], 8,
                                     use_model=True))
    server.drain()
    for future in futures:
        assert future.exception() is None
    np.testing.assert_allclose(y_a, x.sum(axis=1), rtol=1e-10)
    np.testing.assert_allclose(y_b, 3.0 * x.sum(axis=1), rtol=1e-10)
    server.close()


@pytest.mark.serving
def test_thread_backend_preserves_per_region_order(tmp_path):
    order = []

    src = """
#pragma approx tensor functor(fi: [i, 0:1] = ([i]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("unused.rh5") model("unused.rnm")
"""

    @approx_ml(src, name="seq", event_log=EventLog())
    def region(x, y, N, tag=0, use_model=False):
        order.append(tag)
        y[:N] = x[:N]

    server = RegionServer(backend=ThreadPoolBackend())
    server.register(region)
    x = np.zeros(1)
    y = np.zeros(1)
    futures = [server.invoke("seq", x, y, 1, tag=i) for i in range(32)]
    server.drain()
    for future in futures:
        assert future.exception() is None
    assert order == list(range(32))     # affinity thread: FIFO per region
    server.close()


@pytest.mark.serving
def test_harness_run_propagates_worker_thread_failures(tmp_path):
    from repro.apps.harness import BinomialHarness
    server = RegionServer(backend=ThreadPoolBackend())
    harness = BinomialHarness(tmp_path, n_train=32, n_test=16, n_steps=4,
                              deploy_chunk=8, server=server)
    # No model installed: the worker-thread inference fails, and the
    # harness must re-raise instead of returning garbage buffers.
    with pytest.raises(Exception):
        harness.run_surrogate()
    server.close()


@pytest.mark.serving
def test_region_flush_is_idempotent_and_thread_safe(tmp_path):
    region, _ = linear_region(tmp_path, "flushy", auto_batch=True)
    engine = region.engine
    x = np.arange(64.0).reshape(32, 2)
    y = np.empty(32)
    for start in range(0, 32, 4):
        region(x[start:start + 4], y[start:start + 4], 4, use_model=True)
    assert engine.pending_rows == 32      # max_batch_rows default: queued

    threads = [threading.Thread(target=region.flush) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    np.testing.assert_allclose(y, x.sum(axis=1))
    assert engine.rows_flushed == 32      # exactly one flush won
    assert engine.batches_flushed == 1
    region.flush()                        # idempotent afterwards
    assert engine.batches_flushed == 1
    region.close()
    region.close()                        # close is idempotent too


# ----------------------------------------------------------------------
# Shadow-validation row sub-sampling
# ----------------------------------------------------------------------

def test_shadow_rows_runs_accurate_kernel_on_subset(tmp_path):
    calls = []
    ctrl = QoSController(shadow_rate=1.0, seed=0, shadow_rows=4)
    region, log = linear_region(tmp_path, "sub", weight=1.0, calls=calls,
                                qos=ctrl)
    rng = np.random.default_rng(1)
    x = rng.random((16, 2)) + 0.5
    y = np.empty(16)
    region(x, y, 16, use_model=True)
    region.flush()            # validates the queued sample now
    # Accurate kernel validated 4 rows, not 16; the committed result is
    # still the full surrogate output.
    assert calls == [4]
    np.testing.assert_allclose(y, x.sum(axis=1), rtol=1e-10)
    stats = ctrl.stats_for("sub")
    assert stats.count == 1
    assert stats.last == pytest.approx(0.0, abs=1e-10)   # exact model
    assert log.records[-1].times[Phase.SHADOW] > 0


def test_shadow_rows_measures_error_of_wrong_model(tmp_path):
    ctrl = QoSController(shadow_rate=1.0, seed=0, shadow_rows=3)
    region, _ = linear_region(tmp_path, "wrong", weight=2.0, qos=ctrl)
    x = np.ones((12, 2))
    y = np.empty(12)
    region(x, y, 12, use_model=True)
    region.flush()
    # pred = 2*sum, acc = sum -> relative error 1 on any row subset.
    assert ctrl.stats_for("wrong").last == pytest.approx(1.0, rel=1e-6)


def test_shadow_rows_ineligible_region_validates_full_batch(tmp_path):
    calls = []
    ctrl = QoSController(shadow_rate=1.0, seed=0, shadow_rows=4)
    region, _ = linear_region(tmp_path, "full", calls=calls, qos=ctrl)
    region.config.row_subsample = False          # opt-out wins
    region._row_plan = region._build_row_plan()
    x = np.ones((16, 2))
    y = np.empty(16)
    region(x, y, 16, use_model=True)
    assert calls == [16]


def test_shadow_rows_accurate_commit_validates_full_batch(tmp_path):
    calls = []
    ctrl = QoSController(shadow_rate=1.0, seed=0, shadow_rows=4,
                         commit="accurate")
    region, _ = linear_region(tmp_path, "acc", weight=2.0, calls=calls,
                              qos=ctrl)
    x = np.ones((16, 2))
    y = np.empty(16)
    region(x, y, 16, use_model=True)
    assert calls == [16]                 # accurate result is committed
    np.testing.assert_allclose(y, x.sum(axis=1))


def test_row_subsample_true_on_unsupported_maps_raises(tmp_path):
    src = """
#pragma approx tensor functor(f: [b, 0:4] = ([b, 0:4]))
#pragma approx tensor map(to: f(u[0:1]))
#pragma approx tensor map(from: f(u[0:1]))
#pragma approx ml(infer:use_model) inout(u) db("d.rh5") model("m.rnm")
"""
    with pytest.raises(ValueError, match="row_subsample"):
        @approx_ml(src, name="bad", row_subsample=True)
        def region(u, use_model=False):
            pass


# ----------------------------------------------------------------------
# Budget arbitration
# ----------------------------------------------------------------------

def test_arbitration_policy_warmup_then_denial_and_probing():
    policy = BudgetArbitrationPolicy(0.05, warmup=1, probe_interval=4,
                                     rebalance_every=4)
    stats = RegionErrorStats(alpha=0.5)
    assert policy.decide("r", stats).reason == "warmup"
    stats.update(2.0)                    # terrible surrogate
    policy.observe("r", 2.0, stats)
    actions = [policy.decide("r", stats) for _ in range(8)]
    paths = [a.path for a in actions]
    assert ExecutionPath.ACCURATE in paths
    assert all(a.path == ExecutionPath.ACCURATE or a.force_shadow
               for a in actions)
    probes = [a for a in actions if a.reason == "probe"]
    assert len(probes) == 2              # every 4th denial probes
    snap = policy.snapshot()
    assert snap["regions"]["r"]["denied"] == 8
    assert snap["global_mean_charge"] == 0.0


def test_arbitration_policy_admits_cheap_region():
    policy = BudgetArbitrationPolicy(0.05, warmup=1, rebalance_every=4)
    stats = RegionErrorStats(alpha=0.5)
    policy.decide("good", stats)         # warmup
    stats.update(1e-4)
    policy.observe("good", 1e-4, stats)
    decisions = [policy.decide("good", stats) for _ in range(16)]
    assert all(d is None for d in decisions)
    st = policy.snapshot()["regions"]["good"]
    assert st["inferred"] == 16 and st["denied"] == 0
    assert policy.global_mean_charge <= 0.05


def test_arbitration_water_filling_splits_budget():
    policy = BudgetArbitrationPolicy(0.1, warmup=0, rebalance_every=1,
                                     headroom=1.0, charge="linear")
    cheap = RegionErrorStats(alpha=1.0)
    cheap.update(0.01)
    costly = RegionErrorStats(alpha=1.0)
    costly.update(5.0)
    policy.decide("cheap", cheap)
    policy.decide("costly", costly)
    policy.observe("cheap", 0.01, cheap)
    policy.observe("costly", 5.0, costly)
    policy.decide("cheap", cheap)        # triggers rebalance
    alloc = {n: st["allocation"]
             for n, st in policy.snapshot()["regions"].items()}
    # The cheap region gets its full demand; the costly one only the
    # leftover mass over its share — far below its 5.0 demand.
    assert alloc["cheap"] >= 0.009
    assert alloc["costly"] < 0.5
    assert policy.rebalances >= 1


def test_reset_region_forgets_ledger():
    policy = BudgetArbitrationPolicy(0.05, warmup=1)
    stats = RegionErrorStats()
    policy.decide("r", stats)
    policy.reset_region("r")
    assert "r" not in policy.snapshot()["regions"]


# ----------------------------------------------------------------------
# Two-region arbitration end-to-end (the satellite acceptance test)
# ----------------------------------------------------------------------

def test_arbiter_forces_untrained_region_accurate_under_global_budget(
        tmp_path):
    budget = 0.05
    good, _ = linear_region(tmp_path, "good", weight=1.0)   # exact model
    bad, _ = linear_region(tmp_path, "bad", weight=5.0)     # rel err ~4
    server = RegionServer()
    server.register(good)
    server.register(bad)
    arbiter = QoSArbiter(budget, shadow_rate=0.3, seed=0, warmup=2,
                         rebalance_every=8)
    server.attach_qos(arbiter)

    rng = np.random.default_rng(2)
    x = rng.random((128, 2)) + 0.5
    y_good = np.empty(128)
    y_bad = np.empty(128)
    for start in range(0, 128, 4):
        block = np.ascontiguousarray(x[start:start + 4])
        server.invoke("good", block, y_good[start:start + 4], 4,
                      use_model=True)
        server.invoke("bad", block, y_bad[start:start + 4], 4,
                      use_model=True)
    server.drain()

    accurate = x.sum(axis=1)

    def rel(y):
        return float(np.linalg.norm(y - accurate) / np.linalg.norm(accurate))

    # Both regions' deployed QoI errors respect the global budget: the
    # good region because its surrogate is accurate, the bad one
    # because arbitration forced it onto the accurate path.
    assert rel(y_good) <= budget
    assert rel(y_bad) <= budget

    snap = arbiter.snapshot()
    arb = snap["arbitration"]
    assert arb["global_mean_charge"] <= budget
    assert arb["regions"]["bad"]["inferred"] == 0
    assert arb["regions"]["bad"]["denied"] >= 20
    assert arb["regions"]["good"]["inferred"] >= 24   # keeps infer share
    tele = snap["telemetry"]
    bad_paths = tele["bad"]["final_paths"]
    assert bad_paths.get(ExecutionPath.ACCURATE, 0) > \
        bad_paths.get(ExecutionPath.INFER, 0)
    rollup = snap["rollup"]
    assert rollup["regions"] == 2
    assert rollup["invocations"] == 64
    assert rollup["overrides"] >= 20


def test_telemetry_rollup_aggregates_regions(tmp_path):
    ctrl = QoSController(shadow_rate=1.0, seed=0)
    for name, weight in (("r1", 1.0), ("r2", 1.0)):
        region, _ = linear_region(tmp_path, name, weight=weight, qos=ctrl)
        x = np.ones((4, 2))
        y = np.empty(4)
        region(x, y, 4, use_model=True)
    rollup = ctrl.telemetry.rollup()
    assert rollup["regions"] == 2
    assert rollup["invocations"] == 2
    assert rollup["shadow_invocations"] == 2
    assert rollup["infer_fraction"] == pytest.approx(1.0)
    assert rollup["shadow_error_mean"] == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------------------------
# Retrain worker: DB watch, background retrain, atomic hot-swap
# ----------------------------------------------------------------------

def _collectable_region(tmp_path, name="learn"):
    """Predicated region computing ``y = 2*x0 + 3*x1`` (learnable by a
    Linear layer); collection appends rows to its training DB."""
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
    log = EventLog()

    @approx_ml(src, name=name, event_log=log)
    def region(x, y, N, use_model=False):
        y[:N] = 2.0 * x[:N, 0] + 3.0 * x[:N, 1]

    return region


def test_hot_swap_model_replaces_file_and_refreshes_engine(tmp_path):
    path = tmp_path / "m.rnm"
    model_a = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model_a[0].weight.data = np.array([[1.0, 1.0]])
    model_a[0].bias.data = np.array([0.0])
    save_model(model_a, path)

    from repro.runtime import InferenceEngine
    engine = InferenceEngine()
    x = np.ones((2, 2))
    np.testing.assert_allclose(engine.infer(path, x).ravel(), [2.0, 2.0])

    model_b = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model_b[0].weight.data = np.array([[10.0, 10.0]])
    model_b[0].bias.data = np.array([0.0])
    hot_swap_model(model_b, path, engines=[engine])
    np.testing.assert_allclose(engine.infer(path, x).ravel(), [20.0, 20.0])
    assert not path.with_name(path.name + ".swap").exists()


@pytest.mark.serving
@pytest.mark.resilience
def test_hot_swap_race_never_serves_torn_model(tmp_path):
    """Thread-hammer: engines inferring at full speed while the model
    file is hot-swapped back and forth must only ever observe complete
    models — old weights or new weights, never a torn mixture.  The
    atomic ``os.replace`` plus the checksum footer make any other
    outcome a test failure (garbage values or ModelFormatError)."""
    from repro.runtime import InferenceEngine, ModelCache

    path = tmp_path / "race.rnm"

    def make(w):
        m = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
        m[0].weight.data = np.array([[w, w]])
        m[0].bias.data = np.array([0.0])
        return m

    save_model(make(1.0), path)
    cache = ModelCache()                  # shared: one invalidate, all see it
    engines = [InferenceEngine(cache=cache) for _ in range(4)]
    x = np.ones((4, 2))
    stop = threading.Event()
    bad: list = []

    def hammer(engine):
        try:
            while not stop.is_set():
                out = engine.infer(path, x).ravel()
                if not (np.allclose(out, 2.0) or np.allclose(out, 20.0)):
                    bad.append(("torn", out.copy()))
                    return
                # A warm ``infer`` makes no system call (the model
                # cache memoises the resolved path), so without this
                # yield the four hammers would hand the interpreter
                # lock to the swapping thread only at 5 ms switch
                # intervals, once per file operation of every swap.
                time.sleep(0)
        except Exception as exc:         # pragma: no cover - failure path
            bad.append(("raised", repr(exc)))

    threads = [threading.Thread(target=hammer, args=(e,)) for e in engines]
    for t in threads:
        t.start()
    try:
        for i in range(40):
            hot_swap_model(make(10.0 if i % 2 == 0 else 1.0), path,
                           engines=engines)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert not path.with_name(path.name + ".swap").exists()
    # The file on disk is a complete, checksummed model either way.
    from repro.nn import load_model
    assert np.isfinite(load_model(path)[0].weight.data).all()


def test_retrain_worker_polls_db_growth_and_hot_swaps(tmp_path):
    region = _collectable_region(tmp_path)
    rng = np.random.default_rng(3)

    # A deliberately wrong initial model.
    bad = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    bad[0].weight.data = np.array([[0.0, 0.0]])
    bad[0].bias.data = np.array([0.0])
    save_model(bad, tmp_path / "learn.rnm")

    worker = RetrainWorker(seed=0)
    worker.watch(
        "learn", tmp_path / "learn.rh5", tmp_path / "learn.rnm",
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=200,
                            patience=50),
        min_new_rows=32, engines=[region.engine])
    assert worker.poll() == []           # nothing collected yet

    x = rng.random((64, 2))
    y = np.empty(64)
    region(x, y, 64, use_model=False)    # predicated-false -> collect
    region.flush()
    assert db_row_count(tmp_path / "learn.rh5", "learn") == 64

    events = worker.poll()
    assert len(events) == 1
    assert events[0].region == "learn" and events[0].new_rows == 64
    assert worker.poll() == []           # baseline advanced: no re-fire

    # The hot-swapped model now serves: predictions close to 2x0+3x1.
    y_pred = np.empty(64)
    region(x, y_pred, 64, use_model=True)
    region.flush()
    ref = 2.0 * x[:, 0] + 3.0 * x[:, 1]
    rel = np.linalg.norm(y_pred - ref) / np.linalg.norm(ref)
    assert rel < 0.05


@pytest.mark.serving
def test_retrain_worker_background_thread_catches_refresh(tmp_path):
    region = _collectable_region(tmp_path, name="bg")
    bad = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    save_model(bad, tmp_path / "bg.rnm")
    worker = RetrainWorker(seed=0)
    worker.watch(
        "bg", tmp_path / "bg.rh5", tmp_path / "bg.rnm",
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=50,
                            patience=20),
        min_new_rows=16, engines=[region.engine])
    worker.start(interval=0.05)
    assert worker.running
    x = np.random.default_rng(4).random((48, 2))
    y = np.empty(48)
    region(x, y, 48, use_model=False)
    region.flush()
    worker.stop()                        # final poll catches the refresh
    assert not worker.running
    assert len(worker.events) == 1
    assert worker.snapshot()["retrains"][0]["region"] == "bg"


def test_drift_burst_retrain_hot_swap_recovers_without_restart(tmp_path):
    """The whole loop on one live server under one arbiter: a region's
    workload drifts, its shadow errors trip the drift detector, a burst
    of collect invocations refreshes the DB, the worker retrains and
    hot-swaps — and the same server object then serves both regions
    inside the global budget again."""
    from repro.qos import DriftBurstPolicy

    budget = 0.05
    drifty, _ = linear_region(tmp_path, "drifty", weight=1.0)
    steady, _ = linear_region(tmp_path, "steady", weight=1.0)
    server = RegionServer()
    server.register(drifty)
    server.register(steady)
    burst = DriftBurstPolicy(burst=16, threshold=0.05, delta=0.0, burn_in=2)
    arbiter = QoSArbiter(budget, shadow_rate=0.5, seed=0, warmup=2,
                         rebalance_every=8, policies=[burst])
    server.attach_qos(arbiter)
    worker = RetrainWorker(seed=0)
    worker.watch(
        "drifty", tmp_path / "drifty.rh5", tmp_path / "drifty.rnm",
        build=lambda xt, yt: Sequential(
            Linear(2, 1, rng=np.random.default_rng(1))),
        trainer_kwargs=dict(lr=0.1, batch_size=32, max_epochs=200,
                            patience=50),
        min_new_rows=32, engines=[drifty.engine], qos=arbiter)
    rng = np.random.default_rng(6)

    def serve(name, blocks):
        x = rng.random((4 * blocks, 2)) + 0.5
        y = np.empty(len(x))
        for lo in range(0, len(x), 4):
            server.invoke(name, np.ascontiguousarray(x[lo:lo + 4]),
                          y[lo:lo + 4], 4, use_model=True)
        server.drain()
        return x.sum(axis=1), y

    serve("drifty", 16)                   # in distribution: a baseline
    assert worker.poll() == [] and burst.drifts == 0
    drifty.func = lambda x, y, N, use_model=False: \
        y.__setitem__(slice(None, N), 3.0 * x[:N].sum(axis=1))
    serve("drifty", 48)                   # the kernel now computes 3x
    assert burst.drifts >= 1
    events = worker.poll()
    assert [e.region for e in events] == ["drifty"]
    assert events[0].new_rows >= 32
    assert arbiter.stats_for("drifty").count == 0     # ledger forgotten

    def rel(ref, y):
        return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))

    row_sum, y = serve("drifty", 16)
    assert rel(3.0 * row_sum, y) <= budget
    assert rel(*serve("steady", 16)) <= budget
    paths = arbiter.snapshot()["telemetry"]["drifty"]["final_paths"]
    assert paths.get(ExecutionPath.COLLECT, 0) >= 16
    server.close()


# ----------------------------------------------------------------------
# Decayed spend window (long-running servers)
# ----------------------------------------------------------------------

def test_spend_window_ledger_decays():
    policy = BudgetArbitrationPolicy(1.0, warmup=0, charge="linear",
                                     headroom=0.9, spend_window=16)
    stats = RegionErrorStats(alpha=1.0)
    stats.update(0.5)
    policy.observe("r", 0.5, stats)
    for _ in range(200):
        policy.decide("r", stats)
    # Without decay the decision mass would be ~200; the window keeps
    # its effective memory near spend_window decisions.
    snap = policy.snapshot()
    assert snap["spend_window"] == 16
    assert snap["global_decisions"] < 30
    assert snap["regions"]["r"]["decisions"] < 30
    # Lifetime counters are not decayed.
    assert snap["regions"]["r"]["inferred"] > 100


def test_spend_window_forgets_ancient_spend():
    """After a regime change the windowed mean charge tracks the new
    regime while the unwindowed one stays pinned by ancient spend."""
    def run(spend_window):
        policy = BudgetArbitrationPolicy(1.0, warmup=1, charge="linear",
                                         headroom=0.9,
                                         spend_window=spend_window)
        stats = RegionErrorStats(alpha=1.0)
        policy.decide("r", stats)                     # warmup probe
        stats.update(0.8)                             # expensive era
        policy.observe("r", 0.8, stats)
        for _ in range(100):
            policy.decide("r", stats)
        stats.update(0.05)                            # model improves
        policy.observe("r", 0.05, stats)
        for _ in range(100):
            policy.decide("r", stats)
        return policy.global_mean_charge

    pinned = run(None)
    windowed = run(32)
    assert pinned > 0.3                  # ancient spend still dominates
    assert windowed < 0.15               # window tracks the new regime


def test_arbiter_passes_spend_window_through():
    arbiter = QoSArbiter(0.1, spend_window=64)
    assert arbiter.arbitration.spend_window == 64
    assert arbiter.snapshot()["arbitration"]["spend_window"] == 64


def test_spend_window_validation():
    with pytest.raises(ValueError):
        BudgetArbitrationPolicy(0.1, spend_window=1)


# ----------------------------------------------------------------------
# Recency-weighted retraining
# ----------------------------------------------------------------------

def test_recency_weighted_indices_prefer_fresh_rows():
    from repro.serving import recency_weighted_indices
    rng = np.random.default_rng(0)
    idx = recency_weighted_indices(np.arange(1000), 1000, 50.0, rng)
    assert idx.shape == (1000,)
    # With a 50-row half-life on 1000 rows, the newest quarter should
    # dominate the bootstrap and the oldest half should barely appear.
    assert (idx >= 750).mean() > 0.9
    assert (idx < 500).mean() < 0.01
    with pytest.raises(ValueError):
        recency_weighted_indices(np.arange(10), 10, 0.0, rng)


def test_recency_weighted_indices_long_half_life_is_uniformish():
    from repro.serving import recency_weighted_indices
    rng = np.random.default_rng(1)
    idx = recency_weighted_indices(np.arange(1000), 1000, 1e9, rng)
    # Effectively uniform: every quartile is represented.
    assert (idx < 250).mean() > 0.15
    assert (idx >= 750).mean() < 0.35


def test_recency_weighted_indices_respects_partition():
    # Bootstrapping a partition only ever returns members of it: the
    # no-train/val-leakage property of the split-then-bootstrap order.
    from repro.serving import recency_weighted_indices
    rng = np.random.default_rng(2)
    part = np.array([3, 900, 901, 950, 999])
    idx = recency_weighted_indices(part, 1000, 25.0, rng)
    assert set(idx) <= set(part)
    assert idx.size == part.size


def test_retrain_worker_recency_sampling_tracks_drifted_tail(tmp_path):
    """Old rows teach y = x0 + x1, a drifted refresh teaches
    y = 5*(x0 + x1).  With a short half-life the retrained surrogate
    must follow the fresh regime instead of averaging the two."""
    from repro.nn import load_model
    from repro.runtime import DataCollector

    rng = np.random.default_rng(0)
    db = tmp_path / "drift.rh5"
    collector = DataCollector(db)
    x_old = rng.random((256, 2))
    y_old = x_old.sum(axis=1, keepdims=True)
    x_new = rng.random((128, 2))
    y_new = 5.0 * x_new.sum(axis=1, keepdims=True)
    for xi, yi in zip(x_old, y_old):
        collector.record("drift", (xi,), (yi,), 0.0)
    for xi, yi in zip(x_new, y_new):
        collector.record("drift", (xi,), (yi,), 0.0)
    collector.close()

    def build(xt, yt):
        return Sequential(Linear(2, 1, rng=np.random.default_rng(1)))

    def retrain(half_life):
        worker = RetrainWorker(seed=0)
        model_path = tmp_path / f"drift-{half_life}.rnm"
        save_model(build(None, None), model_path)
        worker.watch("drift", db, model_path, build=build,
                     trainer_kwargs=dict(lr=0.05, batch_size=64,
                                         max_epochs=300, patience=60),
                     recency_half_life=half_life)
        worker.retrain_now("drift")
        model = load_model(model_path)
        probe = np.array([[0.5, 0.5]])
        return float(model.forward_compiled(probe).ravel()[0])

    full_history = retrain(None)         # trained on the 2:1 mixture
    recent = retrain(32.0)               # dominated by the drifted tail
    # Drifted truth at the probe is 5.0; stationary truth is 1.0.
    assert abs(recent - 5.0) < 0.8
    assert abs(full_history - 5.0) > abs(recent - 5.0)
