"""Differential: a plain call's generated program ≡ the general path.

A region serves a *plain* call by the generated *program* of the call's
geometry, built at the first plain call at that geometry and kept with
its geometry-cache entry: its guards (the directive condition, the
plainness attributes, the engine's type, the key inline) mutate nothing,
and a miss hands the untouched arguments back to ``__call__``, which
runs the program of the call's geometry or, for a call no program
serves (refused or of no entries), ``invoke_decided``.  Twin regions —
one whose program is never generated, so the general path serves every
call — must land the same bits, open and finish the same records with
the same phases, count the same invocations, device bytes and launches,
and raise the same errors; and every writer of what a program captures
or guards must be seen by the next call.  Also here: the zero-row
call, served on every path.
"""

import gc
import weakref


import numpy as np
import pytest

from repro.api import approx_ml
from repro.apps import binomial
from repro.bridge import BridgeError
from repro.nn import (Linear, Sequential, Tanh, Tensor, compile_inference,
                      no_grad, save_model)
from repro.resilience import SURROGATE, FaultInjector
from repro.runtime import EventLog, InferenceEngine
from repro.runtime.batch import BatchedInferenceEngine
from repro.search.builders import build_mlp2
from repro.serving import RegionServer, hot_swap_model

ARCH = {"hidden1_features": 48, "hidden2_features": 24}


def _deploy_model(seed):
    return build_mlp2(ARCH, 5, 1, seed=seed)


def _stencil_model(seed):
    model = Sequential(Linear(8, 8, rng=np.random.default_rng(seed)), Tanh())
    model[0].weight.data *= 0.5
    return model


def _stencil_region(path, name="stencil"):
    @approx_ml(f"""
#pragma approx tensor functor(fs: [b, 0:8] = ([b, 0:2, 0:4]))
#pragma approx tensor map(to: fs(u[0:1]))
#pragma approx tensor map(from: fs(u[0:1]))
#pragma approx ml(infer:use_model) inout(u) model("{path}")
""", name=name, event_log=EventLog())
    def stencil(u, use_model=False):
        u *= 0.5

    return stencil


def _server(tmp_path, kind, never=False):
    """A server with one region ``kind`` ("deploy": a 48-24 binomial
    region; "stencil": an inout 8 -> 8 region on a (1, 2, 4) buffer);
    ``never``: its region never generates a program."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"{kind}.rnm"
    if kind == "deploy":
        save_model(_deploy_model(0), path)
        region = binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=EventLog())
    else:
        save_model(_stencil_model(0), path)
        region = _stencil_region(path)
    if never:
        region._program_for = lambda env: None
    server = RegionServer()
    server.register(region, name=kind)
    return server, region, path


def _count_plain(region) -> tuple:
    """Two lists growing by one per plain call the program slot missed
    and per program generated."""
    missed, built = [], []
    program_for = region._program_for

    def counted(env):
        missed.append(1)
        program = program_for(env)
        if program is not None and all(program is not p for p in built):
            built.append(program)
        return program

    region._program_for = counted
    return missed, built


def _observe(server, name, args, kwargs=None):
    """Everything one ``server.invoke`` leaves behind that the program
    and the general path must agree on (stopwatch readings aside)."""
    served = server.served(name)
    region = served.region
    engine = region.engine
    device = engine.device
    counters = (served.invocations, device.bytes_to_device,
                device.bytes_to_host, device.kernel_launches,
                device.clock.simulated)
    seen = len(region.events.records)
    try:
        result = server.invoke(name, *args, **(kwargs or {}))
        error = None
    except Exception as exc:
        result, error = None, (type(exc), str(exc))
    now = (served.invocations, device.bytes_to_device, device.bytes_to_host,
           device.kernel_launches, device.clock.simulated)
    return {
        "result": result, "error": error,
        "records": [(r.path, r.region, list(r.times), r.notes, r.finished)
                    for r in region.events.records[seen:]],
        "counters": tuple(b - a for a, b in zip(counters, now)),
        "timing": (sorted(engine.last_timing),
                   engine.last_timing.get("dtype")),
        "outputs": [a.tobytes() for a in args if isinstance(a, np.ndarray)],
    }


def _twins(tmp_path, kind):
    fast = _server(tmp_path / "fast", kind)
    slow = _server(tmp_path / "slow", kind, never=True)
    return fast, slow


def _deploy_args(rng, X, rows, lo):
    return (X[lo:lo + rows], np.zeros(64)[lo % 32:lo % 32 + rows], rows)


#: Rows per call: warm, a geometry change, back, then alternating.
DEPLOY_ROWS = [16] * 4 + [7] * 4 + [16] * 3 + [7, 16, 7, 16]
#: Program-slot misses per call of DEPLOY_ROWS on the generating twin:
#: a geometry's first call, then every change (its program kept).
DEPLOY_MISSED = [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1]


def test_deploy_program_matches_the_general_path(tmp_path):
    (fast, region, _), (slow, _, _) = _twins(tmp_path, "deploy")
    missed, built = _count_plain(region)
    rng = np.random.default_rng(0)
    X = rng.random((64, 5))
    for rows, expect in zip(DEPLOY_ROWS, DEPLOY_MISSED):
        lo = int(rng.integers(0, 32))
        before = len(missed)
        assert _observe(fast, "deploy", _deploy_args(rng, X, rows, lo),
                        {"use_model": True}) == \
            _observe(slow, "deploy", _deploy_args(rng, X, rows, lo),
                     {"use_model": True})
        assert len(missed) - before == expect
    assert len(built) == 2                      # one per geometry
    for server in (fast, slow):
        server.close()


def test_stencil_program_matches_the_general_path(tmp_path):
    """The same inout buffer marched: the program's alias view of it is
    read by the forward before its outputs land in it."""
    (fast, region, _), (slow, _, _) = _twins(tmp_path, "stencil")
    plain, _ = _count_plain(region)
    u = {side: np.random.default_rng(1).random((1, 2, 4))
         for side in ("fast", "slow")}
    for step in range(12):
        use_model = step != 6                   # one accurate step
        before = len(plain)
        assert _observe(fast, "stencil", (u["fast"],),
                        {"use_model": use_model}) == \
            _observe(slow, "stencil", (u["slow"],),
                     {"use_model": use_model})
        assert len(plain) - before == (step == 0)
    assert region._program is not None
    for server in (fast, slow):
        server.close()


def _bad_args(kind, bad, good):
    """``good``'s arguments with one broken as ``bad`` says."""
    args = list(good)
    if bad == "missing":
        return args[:-1] if kind == "deploy" else []
    target = 1 if kind == "deploy" else 0
    if bad == "list":
        args[0] = args[0].tolist()
    elif bad == "read-only":
        args[target] = args[target].copy()
        args[target].flags.writeable = False
    else:                                       # not C-contiguous
        args[0] = np.asfortranarray(args[0].copy())
    return tuple(args)


@pytest.mark.parametrize("kind", ["deploy", "stencil"])
@pytest.mark.parametrize("bad",
                         ["list", "read-only", "non-contiguous", "missing"])
def test_a_bad_call_fails_as_the_general_path_does(tmp_path, kind, bad):
    """The guards miss, the general path words the error: the same
    exception type and text and the same aborted record (none for a
    binding error); the next call is served by the program again."""
    (fast, region, _), (slow, _, _) = _twins(tmp_path, kind)
    plain, _ = _count_plain(region)
    rng = np.random.default_rng(2)
    X = rng.random((64, 5))

    def good(u):
        return _deploy_args(rng, X, 16, 8) if kind == "deploy" else (u,)

    us = [np.random.default_rng(3).random((1, 2, 4)) for _ in range(2)]
    for _ in range(3):
        for server, u in zip((fast, slow), us):
            _observe(server, kind, good(u), {"use_model": True})
    assert region._program is not None
    before = len(plain)
    observed = [_observe(server, kind, _bad_args(kind, bad, good(u)),
                         {"use_model": True})
                for server, u in zip((fast, slow), us)]
    assert observed[0] == observed[1]
    assert observed[0]["error"][0] is (TypeError if bad == "missing"
                                       else BridgeError)
    assert observed[0]["records"] == ([] if bad == "missing" else [
        ("infer", region.name, [], {"error": "BridgeError"}, True)])
    assert len(plain) - before == (bad != "missing")
    for server, u in zip((fast, slow), us):
        _observe(server, kind, good(u), {"use_model": True})
    assert len(plain) - before == (bad != "missing")     # program again
    for server in (fast, slow):
        server.close()


def test_surrogate_faults_raise_and_poison_as_on_the_general_path(
        tmp_path):
    observed, schedules = [], []
    for side, never in (("fast", False), ("slow", True)):
        server, region, _ = _server(tmp_path / side, "deploy", never=never)
        rng = np.random.default_rng(4)
        X = rng.random((64, 5))
        injector = FaultInjector(seed=0)
        injector.script(SURROGATE, "nan", at=[4, 5])
        injector.script(SURROGATE, "raise", at=[6])
        with injector:
            observed.append([_observe(server, "deploy",
                                      _deploy_args(rng, X, 16, 4 * k),
                                      {"use_model": True})
                             for k in range(9)])
        schedules.append(injector.schedule())
        assert (region._program is None) == never
        server.close()
    assert observed[0] == observed[1]
    assert schedules[0] == schedules[1] and schedules[0]
    assert observed[0][6]["error"] is not None
    assert observed[0][6]["records"][0][3]["error"]
    assert np.isnan(np.frombuffer(observed[0][4]["outputs"][1])[:16]).all()


# ----------------------------------------------------------------------
# Each writer of what a program captures or guards is seen by the next
# call (DESIGN.md §5).
# ----------------------------------------------------------------------

@pytest.fixture
def warm(tmp_path):
    """A deploy region whose program serves 16-row calls; a spy on its
    general path; the calls' arguments."""
    server, region, path = _server(tmp_path, "deploy")
    general, invoke_decided = [], region.invoke_decided

    def spied(*args, **kwargs):
        general.append(1)
        return invoke_decided(*args, **kwargs)

    region.invoke_decided = spied
    x = np.random.default_rng(5).random((16, 5))
    out = np.zeros(16)
    for _ in range(3):
        server.invoke("deploy", x, out, 16, use_model=True)
    assert region._program is not None and general == []
    yield server, region, path, general, x, out
    server.close()


def _expect(model, x):
    return compile_inference(model)(x).reshape(-1)


@pytest.mark.parametrize("writer", ["qos", "breakers", "stream",
                                    "precision"])
def test_attached_configuration_leaves_the_program(warm, tmp_path, writer):
    """An attached configuration leaves the plain program for one
    generated for it, and its detaching for a plain one again; neither
    call goes to ``invoke_decided``."""
    from repro.obs import read_stream
    from repro.qos import QoSController
    server, region, _, general, x, out = warm
    plain = region._program
    if writer == "qos":
        server.attach_qos(QoSController(seed=0))
    elif writer == "breakers":
        server.attach_breakers()
    elif writer == "stream":
        stream = server.attach_stream(tmp_path / "d.rh5")
    else:
        region.config.precision = "float32"
    server.invoke("deploy", x, out, 16, use_model=True)
    server.drain()
    governed = region._program
    assert governed is not plain and general == []
    if writer == "stream":
        server.detach_stream()
        assert len(read_stream(stream.path)["binomial"]) == 1
    if writer == "precision":
        assert region.engine.last_timing["dtype"] == "float32"
        region.config.precision = None
    if writer == "qos":
        server.detach_qos()
    if writer == "breakers":
        region.config.breaker = None
    server.invoke("deploy", x, out, 16, use_model=True)
    assert region._program is not governed and general == []


def test_swap_engine_to_a_queue_leaves_the_program(warm):
    """For the queued program of the geometry: it submits the call."""
    server, region, path, general, x, _ = warm
    plain = region._program
    region.swap_engine(BatchedInferenceEngine(region.engine))
    out = np.zeros(16)
    server.invoke("deploy", x, out, 16, use_model=True)
    assert general == [] and not out.any()      # queued, not landed
    assert region._program is not plain
    server.drain()
    assert np.array_equal(out, _expect(_deploy_model(0), x))


@pytest.mark.serving
def test_swap_engine_to_a_worker_process_leaves_the_program(warm):
    from repro.serving import ProcessPoolBackend
    _, region, path, general, x, _ = warm
    backend = ProcessPoolBackend(workers=1)
    remote = RegionServer(backend=backend)
    remote.register(region, name="remote")      # adopts: swap_engine
    try:
        handle, out = backend._handles[0], np.zeros(16)
        for k in range(2):          # the first registers the model
            requests = handle.requests
            remote.invoke("remote", x, out, 16, use_model=True).result()
        assert handle.requests == requests + 1
        assert general == [1, 1]
        assert np.array_equal(out, _expect(_deploy_model(0), x))
    finally:
        remote.close()


def test_hot_swap_serves_the_new_weights_next_call(warm):
    """Also while someone holds the swapped-out model (its plan stays
    current: only the cache's epoch says the path moved on)."""
    server, region, path, general, x, out = warm
    old, new = region.engine.cache.get(path), _deploy_model(7)
    hot_swap_model(new, path, [region.engine])
    server.invoke("deploy", x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(new, x))
    assert region.engine.cache.get(path) is not old
    model = region.engine.cache.get(path)
    model.load_state_dict(_deploy_model(8).state_dict())   # rebinds arrays
    server.invoke("deploy", x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(_deploy_model(8), x))
    assert general == []


def test_in_place_update_stays_bitwise_the_graph(warm):
    server, region, path, general, x, out = warm
    model = region.engine.cache.get(path)
    for _ in range(2):
        model.parameters()[0].data += 0.25      # in place
        server.invoke("deploy", x, out, 16, use_model=True)
        model.eval()
        with no_grad():
            graph = model(Tensor(x)).numpy().reshape(-1)
        assert np.array_equal(out, graph)
    assert general == []


def test_geometry_change_runs_that_geometrys_program(warm):
    server, region, _, general, x, _ = warm
    program = region._program
    for rows in (7, 7, 7):
        out = np.zeros(rows)
        server.invoke("deploy", x[:rows], out, rows, use_model=True)
        assert np.array_equal(out, _expect(_deploy_model(0), x[:rows]))
    assert region._program is not program and general == []
    out = np.zeros(16)
    server.invoke("deploy", x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(_deploy_model(0), x))
    assert region._program is program           # kept with its entry


def test_swap_engine_to_another_engine_is_seen_and_frees_the_old(warm):
    """The program reads the region's engine per call: a fresh
    ``InferenceEngine`` serves the next call through the same program,
    and nothing keeps the swapped-out engine alive."""
    server, region, _, general, x, out = warm
    program, fresh = region._program, InferenceEngine()
    old = weakref.ref(region.swap_engine(fresh))
    gc.collect()
    assert old() is None
    server.invoke("deploy", x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(_deploy_model(0), x))
    assert fresh.device.kernel_launches > 0
    assert region._program is program and general == []


@pytest.mark.parametrize("out_name", ["k_1", "k1"])
def test_parameters_named_like_the_programs_locals(tmp_path, out_name):
    """An out parameter spelled like a key-guard local of the input's
    geometry: the program neither reads the input in its place nor
    lands in the input; the output lands where the directive maps it."""
    path = tmp_path / "m.rnm"
    save_model(_stencil_model(0), path)
    scope = {}
    exec(f"def kernel(x, {out_name}, N, use_model=False):\n    pass", scope)
    outs = []
    for never in (False, True):
        kernel = approx_ml(f"""
#pragma approx tensor functor(fs: [b, 0:8] = ([b, 0:2, 0:4]))
#pragma approx tensor map(to: fs(x[0:N]))
#pragma approx tensor map(from: fs({out_name}[0:N]))
#pragma approx ml(infer:use_model) in(x) out({out_name}) model("{path}")
""", name="named", event_log=EventLog())(scope["kernel"])
        if never:
            kernel._program_for = lambda env: None
        x = np.random.default_rng(8).random((3, 2, 4))
        kept, out = x.copy(), np.zeros((3, 2, 4))
        for _ in range(3):
            kernel(x, out, 3, use_model=True)
        assert (kernel._program is None) == never
        assert np.array_equal(x, kept)
        outs.append(out)
    expect = compile_inference(_stencil_model(0))(kept.reshape(3, 8))
    assert np.array_equal(outs[0], expect.reshape(3, 2, 4))
    assert np.array_equal(outs[0], outs[1])


def test_model_path_reassignment_serves_the_other_model(warm, tmp_path):
    server, region, _, general, x, out = warm
    other = tmp_path / "other.rnm"
    save_model(_deploy_model(9), other)
    region.config.model_path = str(other)
    server.invoke("deploy", x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(_deploy_model(9), x))
    assert general == []


def test_fleet_member_called_through_invoke_runs_its_program(tmp_path):
    """A fleet member's single calls run its program; waves run the
    wave program; each counts once and lands its member's model."""
    server, models = RegionServer(), []
    for k in range(3):
        models.append(_deploy_model(k))
        save_model(models[k], tmp_path / f"m{k}.rnm")
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(tmp_path / f"m{k}.rnm"), event_log=EventLog()),
            name=f"b{k}")
    server.enable_fleets()
    region = server.region("b0")
    (plain, _), rng = _count_plain(region), np.random.default_rng(6)
    for step in range(6):
        x = rng.random((4, 5))
        if step == 3:
            models[0] = _deploy_model(11)
            hot_swap_model(models[0], tmp_path / "m0.rnm",
                           [server.fleet, region.engine])
        out = np.zeros(4)
        server.invoke("b0", x, out, 4, use_model=True)
        assert np.array_equal(out, _expect(models[0], x))
        outs = [np.zeros(4) for _ in models]
        server.invoke_fleet([(f"b{k}", (x, outs[k], 4), {"use_model": True})
                             for k in range(3)])
        for model, out in zip(models, outs):
            assert np.array_equal(out, _expect(model, x))
    assert len(plain) == 1 and region._program is not None
    assert server.served("b0").invocations == 12
    assert server.fleet.member("b0").invocations == 6
    server.close()


# ----------------------------------------------------------------------
# A call of no entries is served on every path.
# ----------------------------------------------------------------------

def _zero(server, name, use_model=True):
    region = server.region(name)
    device = region.engine.device
    seen, launches = len(region.events.records), device.kernel_launches
    assert server.invoke(name, np.zeros((0, 5)), np.zeros(0), 0,
                         use_model=use_model) is None
    assert device.kernel_launches == launches
    return [(r.path, list(r.times), r.notes, r.finished)
            for r in region.events.records[seen:]]


def test_a_zero_row_call_is_served_on_every_path(tmp_path):
    from repro.qos import QoSController
    from repro.runtime import load_training_data
    server = RegionServer()
    arch = {"hidden1_features": 8, "hidden2_features": 4}
    for k, mode in enumerate(("infer", "infer", "collect")):
        path = tmp_path / f"m{k}.rnm"
        save_model(build_mlp2(arch, 5, 1, seed=k), path)
        server.register(binomial.build_region(
            mode=mode, n_steps=16, db_path=str(tmp_path / f"db{k}.rh5"),
            model_path=str(path), event_log=EventLog()), name=f"b{k}")
    accurate = _zero(server, "b0", use_model=False)
    assert [(p, f) for p, _, _, f in accurate] == [("accurate", True)]
    x, out = np.random.default_rng(7).random((16, 5)), np.zeros(16)
    for _ in range(3):                          # a program miss each
        assert _zero(server, "b0") == [("infer", [], None, True)]
        server.invoke("b0", x, out, 16, use_model=True)
    assert server.region("b0")._program is not None
    assert _zero(server, "b0") == [("infer", [], None, True)]
    server.attach_qos(QoSController(shadow_rate=1.0, seed=0), names=["b1"])
    assert _zero(server, "b1") == [("infer", [], None, True)]
    collected = _zero(server, "b2")
    assert [(p, f) for p, _, _, f in collected] == [("collect", True)]
    server.drain()
    assert not (tmp_path / "db2.rh5").exists() or \
        len(load_training_data(tmp_path / "db2.rh5", "binomial")[0]) == 0
    server.detach_qos()
    server.enable_fleets(names=["b0", "b1"])
    outs = [np.zeros(0), np.zeros(16)]
    results = server.invoke_fleet([
        ("b0", (np.zeros((0, 5)), outs[0], 0), {"use_model": True}),
        ("b1", (x, outs[1], 16), {"use_model": True})])
    assert results == {"b0": None, "b1": None}
    assert server.region("b0").events.records[-1].path == "infer"
    assert server.region("b0").events.records[-1].finished
    assert outs[1].any()
    region = server.region("b1")
    env = region._bind_env((np.zeros((0, 5)), np.zeros(0), 0),
                           {"use_model": True})
    inputs, record, bound = region.prepare_infer(env)
    assert inputs is None and bound is None and record.finished
    assert region.events.records[-1] is record
    server.close()
