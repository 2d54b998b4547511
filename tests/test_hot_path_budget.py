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
its two steps' ufunc calls; 34 since a warm plain call runs the
generated program of its region and geometry (below).

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
member keeps per geometry; 103 / 48 since a warm wave runs one
generated program per wave signature (its riders' binders and geometry
keys, binds, plain copies into the staging rows, stacked forward and
plain copies out unrolled: no per-rider bind, staging, per-fleet
forward-loop or ``scatter`` frames left, the traced calls kept);
93 / 34 since a warm plain call runs the generated program of its
region and geometry (the binder, decision, warm bind, key, gather and
scatter frames gone: the directive condition, plainness and geometry
key are guards read inline, the input an alias view, the land one plain
copy), the wave's key guards are the same inline lines, and the
device's transfers charge the clock without ``VirtualClock.advance``
and the forward skips the fault seam's ``fire`` while no injector is
installed; 94 / 34 since every wave runs a program and the stacked
forward is one ``FleetInferenceEngine.stacked_forward`` call (the
staleness check moved from the program into the fleet's ``resolve``);
37 / 23 (stencil 23) since programs run the forward themselves: the
wave decides a bare directive condition, binds by arity, opens and
finishes its riders' records and runs each fleet's stacked forward as
lines (no ``path_decision``, binder, ``new_record``, ``finish``,
``stacked_forward`` or ``resolve`` call per wave), and a region program
opens and finishes its record and runs the engine's memoised plan with
the device charges as lines (no ``new_record``, ``finish``, ``infer``,
``_forward``, ``to_device``, ``to_host``, ``cost``, ``dense_time`` or
ownership copy).

A governed wave has a ceiling of its own: a warm 8 x 4-row wave with a
``QoSController(shadow_rate=0)`` and a decision stream attached ran the
interpreted passes until they were deleted (557 calls) and runs its
program since (438, later 278; 229 since the forward, binding and the
riders' records are program lines; 213 since a region program and a
wave come from one generator, the riders' policy and spend notes written
into the record's dict): each call decided once, every rider riding with
its policy, spend, digest and stream notes, no ``invoke_decided``.
A wave with a breaker attached to every member has one too: the riders
were served one by one through ``invoke_decided`` while a breaker-guarded
call could not ride (412 calls, 8 ``invoke_decided``), and ride since
(85: each member's ``allow``, its finite check on its own rows of the
stacked output and ``record_success`` as program lines).
So does a governed single call: a warm 16-row ``server.invoke`` with a
``QoSController(shadow_rate=0)``, a breaker and a decision stream ran
``invoke_decided`` (106 calls) until it ran the region program of its
configuration (59: one ``decide``, ``allow`` and ``record_success``,
the digest and spend notes, the stream record with its codes cached;
50 since the record's opening and the forward are program lines).
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
bodies (the same fixed cost, a cheaper invocation); 798 against 778
(2.6 %) and 35 against 35 since the region program; 793 against 773
before the queue was a deferred wave and 719 against 699 (2.9 %) since
(one staging copy per queued call, no per-call callback object, the
region's own ``complete_infer`` the delivery); 522 against 508 (2.8 %)
since a queued call runs its region program and a flush's span costs 7
calls, not 10 (its label cached per model, its seconds the forward's
wall); 506 against 492 (2.8 %) since a queued call's program opens its
record as lines.  A stopwatch read this as 1.1-3.0 % and flaked; the
count cannot.  The burst with obs off has a ceiling of its own,
``DEFERRED_CEILING`` (492 + 3 %; 508, 699 and 773 before): one call
more per queued invocation fails there.

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

WAVE_CEILING = 38
GOVERNED_WAVE_CEILING = 219
BREAKER_WAVE_CEILING = 88
INVOKE_CEILING = 24
GOVERNED_CEILING = 51
STENCIL_CEILING = 24
DEFERRED_CEILING = 507
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


def test_warm_wave_calls_no_per_member_helper(fleet_server):
    """The program decides, binds, records and forwards as its own lines:
    none of the helpers it used to call per member or per wave runs."""
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    outs = [np.zeros(WAVE_ROWS) for _ in range(MEMBERS)]
    wave = [(name, (x, out, WAVE_ROWS), {"use_model": True})
            for name, out in zip(fleet_server.names, outs)]
    for _ in range(3):
        fleet_server.invoke_fleet(wave)
    names = set(_called_names(fleet_server.invoke_fleet, wave))
    assert "wave" in names and not names & {
        "path_decision", "bind", "decide", "new_record", "finish",
        "stacked_forward", "resolve", "infer", "to_device", "to_host",
        "dense_time"}


def test_warm_governed_fleet_wave_runs_its_program(fleet_server, tmp_path):
    from repro.qos import QoSController

    fleet_server.attach_qos(QoSController(shadow_rate=0.0))
    fleet_server.attach_stream(tmp_path / "decisions.rh5")
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    outs = [np.zeros(WAVE_ROWS) for _ in range(MEMBERS)]
    wave = [(name, (x, out, WAVE_ROWS), {"use_model": True})
            for name, out in zip(fleet_server.names, outs)]
    try:
        for _ in range(3):
            fleet_server.invoke_fleet(wave)
        names = _called_names(fleet_server.invoke_fleet, wave)
    finally:
        fleet_server.detach_stream()
    assert all(np.all(out != 0.0) for out in outs)
    assert "invoke_decided" not in names
    assert len(names) <= GOVERNED_WAVE_CEILING, (
        f"one warm governed {MEMBERS}x{WAVE_ROWS}-row invoke_fleet wave "
        f"made {len(names)} calls, ceiling {GOVERNED_WAVE_CEILING}")


def test_warm_breaker_fleet_wave_rides(fleet_server):
    fleet_server.attach_breakers()
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    outs = [np.zeros(WAVE_ROWS) for _ in range(MEMBERS)]
    wave = [(name, (x, out, WAVE_ROWS), {"use_model": True})
            for name, out in zip(fleet_server.names, outs)]
    for _ in range(3):
        fleet_server.invoke_fleet(wave)
    names = _called_names(fleet_server.invoke_fleet, wave)
    assert all(np.all(out != 0.0) for out in outs)
    assert "invoke_decided" not in names
    assert names.count("allow") == names.count("record_success") == MEMBERS
    assert len(names) <= BREAKER_WAVE_CEILING, (
        f"one warm {MEMBERS}x{WAVE_ROWS}-row invoke_fleet wave with "
        f"breakers made {len(names)} calls, ceiling {BREAKER_WAVE_CEILING}")


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


def test_warm_governed_invoke_runs_its_program(fleet_server, tmp_path):
    from repro.qos import QoSController

    fleet_server.attach_qos(QoSController(shadow_rate=0.0))
    fleet_server.attach_breakers(names=["b0"])
    fleet_server.attach_stream(tmp_path / "decisions.rh5")
    x = np.random.default_rng(1).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)
    try:
        for _ in range(3):
            fleet_server.invoke("b0", x, out, INVOKE_ROWS, use_model=True)
        names = _called_names(fleet_server.invoke, "b0", x, out,
                              INVOKE_ROWS, use_model=True)
    finally:
        fleet_server.detach_stream()
    assert np.all(out != 0.0)
    assert "invoke_decided" not in names and "program" in names
    assert len(names) <= GOVERNED_CEILING, (
        f"one warm governed {INVOKE_ROWS}-row server.invoke made "
        f"{len(names)} calls, ceiling {GOVERNED_CEILING}")


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
    assert off <= DEFERRED_CEILING, (
        f"{BURST} batched invocations + drain made {off} calls with obs "
        f"off, ceiling {DEFERRED_CEILING}")


def test_warm_queued_governed_call_runs_its_program(tmp_path):
    from repro.qos import QoSController

    path = tmp_path / "m.rnm"
    save_model(build_mlp2({"hidden1_features": 48, "hidden2_features": 24},
                          5, 1, seed=0), path)
    server = RegionServer()
    server.register(binomial.build_region(
        mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog(), auto_batch=True,
        max_batch_rows=BURST_BATCH_ROWS), name="batched")
    server.attach_qos(QoSController(shadow_rate=0.0))
    server.attach_stream(tmp_path / "decisions.rh5")
    x = np.random.default_rng(3).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)
    try:
        for _ in range(3):
            server.invoke("batched", x, out, INVOKE_ROWS, use_model=True)
        names = _called_names(server.invoke, "batched", x, out, INVOKE_ROWS,
                              use_model=True)
        server.drain()
    finally:
        server.detach_stream()
        server.close()
    assert np.all(out != 0.0)
    assert "invoke_decided" not in names and "program" in names
    assert "submit" in names and "infer" not in names       # deferred


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
