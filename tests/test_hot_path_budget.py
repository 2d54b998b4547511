"""A wall-clock-free guard on the invocation hot path.

Timing asserts flake on a shared box; the number of calls a warm
invocation makes does not.  ``sys.setprofile`` counts every Python-level
call plus every call into a C function for one warm K=8 x 4-row
``invoke_fleet`` wave, one warm 16-row ``server.invoke`` and one warm
1-row miniweather ``server.invoke`` (the ``stencil_march`` call: a
Standardize / 3x3 conv + ReLU / 1x1 conv / CropPad2d / Destandardize
plan), and the ceilings below are committed: a change that
re-introduces a per-member wrapper, a second descriptor probe or a
context manager per phase fails here deterministically instead of
showing up as benchmark noise.

The stencil call's history: 104 while a conv step gathered its
columns through an index (``np.take``, which must not come back on
that path), 95 since the columns are channel-major — one window copy
for the 3x3 step, none for the 1x1 step reading its contiguous input;
84 since the plan folds Standardize into the 3x3 step and CropPad2d +
Destandardize into the 1x1 step (two plan steps, constants at full
extent), 79 since the geometry key is one generated call, 47 since a
plain call runs ``_run_infer``'s plain branch straight from
``__call__``, the engine's plan memo answers a known model path without
the cache and plan look-ups, and the plan replays one generated body of
its two steps' ufunc calls.

History of the same harness (wave / invoke): 1,132 / 164 before the
slab-direct fleet waves, 704 / 119 after them, 394 / 89 once a warm
call gathers and scatters straight from its cached geometry entry,
decides through a compiled closure and re-resolves fleet members only
when the model cache moved, 385 / 81 since the simulated device only
counts bytes (no wrapper object, no copy of the input per forward),
385 / 82 since a region asks per call whether its engine is a queue
(one ``isinstance`` where a cached flag was read), 385 / 82 still once
the infer path was written once (``_stage`` in; the forward's wrapper
and ``fleet_eligible``'s ``model_path`` look-up out), 207 / 78 since a
wave runs as flat bind / gather / forward / land passes (phases timed
once per pass, no per-member ``prepare_infer`` / ``complete_infer``),
the geometry key is one generated call and the fleet's staleness sweep
one generated check, 143 / 48 since a plain call skips
``path_decision`` / ``invoke_decided`` / ``_stage`` (the warm bind
compares the region's last geometry key), the engine memoises its plan
per model path and cache epoch, both plans replay a generated
straight-line body per input geometry, and a wave's riders open through
the same warm bind and compose straight into the staging rows their
member keeps per geometry.
The ceilings sit ~3 % above the measured
counts (Python 3.11), so a plan step that adds a Python call per
forward fails here.  Raising one is a decision to make in review, with
the benchmark's ``fleet_wave`` / ``deploy_chunk16`` / ``stencil_march``
rows next to it.

The default-on observability bound (ROADMAP north star: <= 3 % of the
batched invocation path) is the same count taken twice: a burst of
warm auto-batched invocations with ``obs.set_enabled(True)`` against
the same burst with it off.  What instrumentation leaves on the path
is one post-hoc ``Tracer.record_span`` per batch flush (~10 calls) and
nothing per invocation — 860 against 840 calls at 8 invocations per
flush (2.4 %), 79 against 79 for an immediate ``server.invoke``; 804
against 784 (2.6 %) and 49 against 49 since the warm plan memo and
bodies (the same fixed cost, a cheaper invocation).  A stopwatch read
this as 1.1-3.0 % and flaked; the count cannot.

Shadow validation has one as well: accurate-kernel calls.  The Table I
kernels cost nearly as much for 8 rows as for 32, so sampled rows are
coalesced — 64 sampled 32-row invocations at ``shadow_rows=8`` make 16
kernel calls of 32 rows (64 of 8 rows before coalescing; the
``serve_governed`` row of the benchmark).

The process backend has a count of its own: pickled pipe messages per
warm slab forward, as :class:`~repro.serving.WorkerHandle` counts them.
History: 1 sent / 1 received per forward while requests and replies
were ``Connection`` messages, 0 / 0 since both are descriptors in the
worker's shared-memory mailbox (``proc_slab`` row of the benchmark).
"""

import sys

import numpy as np
import pytest

from repro import obs
from repro.apps import binomial
from repro.nn import save_model
from repro.runtime import EventLog
from repro.search.builders import build_mlp2
from repro.serving import ProcessPoolBackend, RegionServer

WAVE_CEILING = 148
INVOKE_CEILING = 50
STENCIL_CEILING = 49
MEMBERS, WAVE_ROWS, INVOKE_ROWS = 8, 4, 16
NZ, NX = 16, 32                         # the stencil_march grid
SLAB_FORWARDS, SLAB_ROWS = 100, 256
OBS_BOUND = 0.03
BURST, BURST_BATCH_ROWS = 16, 128       # 16-row calls: a flush every 8
SHADOW_CALLS, SHADOW_BATCH, SHADOW_ROWS = 64, 32, 8     # 16 kernel calls


def _called_names(fn, *args, **kwargs) -> list:
    """Names of the ``call`` + ``c_call`` profile events of one
    ``fn(*args)`` (the closing ``sys.setprofile`` itself included)."""
    names = []

    def profiler(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
        elif event == "c_call":
            names.append(getattr(arg, "__name__", "?"))

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return names


def _count_calls(fn, *args, **kwargs) -> int:
    return len(_called_names(fn, *args, **kwargs))


@pytest.fixture
def fleet_server(tmp_path):
    server = RegionServer()
    log = EventLog()
    arch = {"hidden1_features": 48, "hidden2_features": 24}
    for k in range(MEMBERS):
        path = tmp_path / f"m{k}.rnm"
        save_model(build_mlp2(arch, 5, 1, seed=k), path)
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=log), name=f"b{k}")
    formed = server.enable_fleets()
    assert sorted(n for names in formed.values() for n in names) \
        == sorted(server.names)
    yield server
    server.close()


def test_warm_fleet_wave_call_budget(fleet_server):
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    outs = [np.zeros(WAVE_ROWS) for _ in range(MEMBERS)]
    wave = [(name, (x, out, WAVE_ROWS), {"use_model": True})
            for name, out in zip(fleet_server.names, outs)]
    for _ in range(3):                      # layouts, staging, plan scratch
        fleet_server.invoke_fleet(wave)
    calls = _count_calls(fleet_server.invoke_fleet, wave)
    assert all(np.all(out != 0.0) for out in outs)
    assert calls <= WAVE_CEILING, (
        f"one warm {MEMBERS}x{WAVE_ROWS}-row invoke_fleet wave made {calls} "
        f"calls, ceiling {WAVE_CEILING}")


def test_warm_single_invoke_call_budget(fleet_server):
    x = np.random.default_rng(1).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)
    for _ in range(3):
        fleet_server.invoke("b0", x, out, INVOKE_ROWS, use_model=True)
    calls = _count_calls(fleet_server.invoke, "b0", x, out, INVOKE_ROWS,
                         use_model=True)
    assert np.all(out != 0.0)
    assert calls <= INVOKE_CEILING, (
        f"one warm {INVOKE_ROWS}-row server.invoke made {calls} calls, "
        f"ceiling {INVOKE_CEILING}")


def test_warm_stencil_invoke_call_budget(tmp_path):
    from repro.apps.harness import harness_for
    from repro.nn import Destandardize, Sequential, Standardize
    from repro.search.builders import build_miniweather_cnn

    harness = harness_for("miniweather", tmp_path, nx=NX, nz=NZ,
                          train_steps=1, test_steps=2)
    stats = (np.zeros((4, 1, 1)), np.ones((4, 1, 1)))   # per-channel heads
    core = build_miniweather_cnn({"conv1_kernel": 3, "conv1_channels": 4,
                                  "conv2_kernel": 0}, nz=NZ, nx=NX)
    harness.install_model(Sequential(Standardize(*stats), *core,
                                     Destandardize(*stats)))
    u = np.ascontiguousarray(harness.workload.state.q[None].copy())
    server = harness.server
    try:
        for _ in range(3):
            server.invoke("miniweather", u, NZ, NX, use_model=True)
        before = u.copy()
        names = _called_names(server.invoke, "miniweather", u, NZ, NX,
                              use_model=True)
        engine = harness.deploy_region.engine
        plan = engine.plan_for(engine.cache.get(harness.model_path))
    finally:
        server.close()
    assert not np.array_equal(u, before)            # the step landed in u
    assert "take" not in names                      # no index gather
    assert len(plan._steps) == 2                    # the fold: 5 -> 2
    assert len(names) <= STENCIL_CEILING, (
        f"one warm 1-row miniweather server.invoke made {len(names)} calls, "
        f"ceiling {STENCIL_CEILING}")


def _count_obs_on_off(fn) -> tuple:
    """Warm ``fn`` and count its calls, instrumentation on then off."""
    counts = []
    try:
        for enabled in (True, False):
            obs.set_enabled(enabled)
            for _ in range(3):
                fn()
            counts.append(_count_calls(fn))
    finally:
        obs.set_enabled(True)
    return tuple(counts)


def test_default_on_obs_adds_at_most_three_percent_of_calls(tmp_path):
    path = tmp_path / "m.rnm"
    save_model(build_mlp2({"hidden1_features": 48, "hidden2_features": 24},
                          5, 1, seed=0), path)
    server = RegionServer()
    for name, auto_batch in (("batched", True), ("immediate", False)):
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=EventLog(),
            auto_batch=auto_batch, max_batch_rows=BURST_BATCH_ROWS),
            name=name)
    x = np.random.default_rng(3).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)

    def burst():
        for _ in range(BURST):
            server.invoke("batched", x, out, INVOKE_ROWS, use_model=True)
        server.drain()

    try:
        on, off = _count_obs_on_off(burst)
        # The immediate path carries no instrumentation call at all.
        assert len(set(_count_obs_on_off(lambda: server.invoke(
            "immediate", x, out, INVOKE_ROWS, use_model=True)))) == 1
    finally:
        server.close()
    assert np.all(out != 0.0)
    assert off < on <= off * (1 + OBS_BOUND), (
        f"{BURST} batched invocations + drain: {on} calls instrumented, "
        f"{off} with obs off ({on / off - 1:.1%}, bound {OBS_BOUND:.0%})")


def test_sampled_shadow_rows_share_one_kernel_call_per_window(tmp_path):
    from repro.qos import QoSController

    path = tmp_path / "m.rnm"
    save_model(build_mlp2({"hidden1_features": 48, "hidden2_features": 24},
                          5, 1, seed=0), path)
    region = binomial.build_region(
        mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog())
    region.config.qos = qos = QoSController(shadow_rate=1.0, seed=0,
                                            shadow_rows=SHADOW_ROWS)
    kernel, rows = region.func, []
    region.func = lambda *args, **kwargs: (
        rows.append(len(kwargs["options"])), kernel(*args, **kwargs))[1]
    x = np.random.default_rng(4).random((SHADOW_BATCH, 5)) + 0.5
    out = np.zeros(SHADOW_BATCH)
    for _ in range(SHADOW_CALLS):
        region(x, out, SHADOW_BATCH, use_model=True)
    assert rows == [SHADOW_BATCH] * (SHADOW_CALLS * SHADOW_ROWS
                                     // SHADOW_BATCH)
    assert qos.stats_for(region.name).count == SHADOW_CALLS
    region.close()


@pytest.mark.serving
def test_warm_slab_forward_crosses_no_pipe(tmp_path):
    path = tmp_path / "m.rnm"
    save_model(build_mlp2({"hidden1_features": 48, "hidden2_features": 24},
                          5, 1, seed=0), path)
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    region = binomial.build_region(
        mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog())
    server.register(region, name="b")
    try:
        x = np.random.default_rng(2).random((SLAB_ROWS, 5))
        out = np.zeros(SLAB_ROWS)
        for _ in range(3):        # model and ring registration, plan
            server.invoke("b", x, out, SLAB_ROWS, use_model=True).result()
        handle = backend._handles[0]
        sent, received = handle.pipe_sent, handle.pipe_received
        for _ in range(SLAB_FORWARDS):
            server.invoke("b", x, out, SLAB_ROWS, use_model=True).result()
        assert np.all(out != 0.0)
        assert handle.requests >= SLAB_FORWARDS
        assert (handle.pipe_sent, handle.pipe_received) == (sent, received)
        region.engine.cache.invalidate(path)      # control traffic: 1 + 1
        assert (handle.pipe_sent, handle.pipe_received) == \
            (sent + 1, received + 1)
    finally:
        server.close()
