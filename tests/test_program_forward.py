"""Differential: programs run the forward themselves.

A region program on an exact ``InferenceEngine`` runs the engine's
memoised plan as its own lines (``runtime.geometry.forward_lines``): the
device's two transfer charges and launch, the row lanes, the engine's
``last_timing``, and the land straight from the plan's output — the
engine's ``infer`` only when the memo misses (a hot swap, a stale plan,
a relative model path) or a ``FaultInjector`` is installed, so fault
schedules replay unchanged.  A wave program decides its calls, binds
their arguments by arity, opens and finishes its riders' records and
runs each fleet's stacked forward as lines too.

Twins — the same servers with the program generators patched to emit
nothing, so regions are served by ``invoke_decided`` and waves call by
call — must agree exactly: outputs bitwise, records (path, phases,
notes, finished), stream bytes, ``last_timing`` (stopwatch readings
aside) and the device counters with the modeled clock bit-equal.  Then
one test per writer of what the forward lines read (``DESIGN.md`` §5).
"""

import numpy as np
import pytest

from repro.api import approx_ml
from repro.apps import binomial
from repro.device import TransferModel
from repro.nn import Flatten, Sequential, save_model
from repro.nn import plan as P
from repro.nn.compile import UnsupportedLayerError
from repro.obs import read_stream
from repro.qos import QoSController
from repro.resilience import SURROGATE, CircuitBreaker, FaultInjector
from repro.runtime import EventLog, InferenceEngine, Phase
from repro.runtime import infer as infer_module
from repro.search.builders import build_mlp2
from repro.serving import RegionServer, hot_swap_model
from repro.runtime import program as program_module

ARCH = {"hidden1_features": 48, "hidden2_features": 24}
MEMBERS = ("b0", "b1", "b2", "b3")
STOPWATCH = ("forward_wall", "forward_device")


def _stencil(path):
    @approx_ml(f"""
#pragma approx tensor functor(fs: [b, 0:8] = ([b, 0:2, 0:4]))
#pragma approx tensor map(to: fs(u[0:1]))
#pragma approx tensor map(from: fs(u[0:1]))
#pragma approx ml(infer:use_model) inout(u) model("{path}")
""", name="stencil", event_log=EventLog())
    def stencil(u, use_model=False):
        u *= 0.5

    return stencil


def _region(tmp, case, never):
    """``case``'s region in its own directory; ``never``: the twin whose
    programs are never generated."""
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "m.rnm"
    if case == "no-compute":            # the plan returns a view of x
        save_model(Sequential(Flatten()), path)
        region = _stencil(path)
    else:
        save_model(build_mlp2(ARCH, 5, 1, seed=3), path)
        region = binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp / "db.rh5"),
            model_path=str(path), event_log=EventLog())
    config = region.config
    if case == "fault":
        config.breaker = CircuitBreaker(failure_threshold=1,
                                        recovery_successes=1,
                                        probe_interval=2)
    elif case == "float32":
        config.precision = "float32"
    elif case in ("auto-refused", "auto"):
        config.precision = "auto"
        config.qos = QoSController(shadow_rate=0.0, seed=0)
    if case in ("fault", "auto-refused"):
        region.events.stream = None
    if never:
        region._program_for = lambda env: None
    return region, path


def _spy_infer(engine) -> list:
    """A list growing by one per ``engine.infer`` call."""
    calls, infer = [], engine.infer

    def spied(*args, **kwargs):
        calls.append(1)
        return infer(*args, **kwargs)

    engine.infer = spied
    return calls


def _observe(region, args, kwargs) -> dict:
    """What one call leaves behind that the twins must agree on."""
    engine = region.engine
    device = engine.device
    seen = len(region.events.records)
    try:
        result, error = region(*args, **kwargs), None
    except Exception as exc:
        result, error = None, (type(exc), str(exc))
    return {
        "result": result, "error": error,
        "outputs": [a.tobytes() for a in args if isinstance(a, np.ndarray)],
        "records": [(r.path, r.region, list(r.times), r.notes, r.finished)
                    for r in region.events.records[seen:]],
        "timing": {k: v for k, v in engine.last_timing.items()
                   if k not in STOPWATCH},
        "device": (device.bytes_to_device, device.bytes_to_host,
                   device.kernel_launches, device.clock.simulated),
    }


def _calls(case, rng):
    """Twelve calls' ``(args, kwargs)`` makers for ``case``."""
    if case == "no-compute":
        u = rng.random((1, 2, 4))
        return [lambda u=u, k=k: ((u,), {"use_model": k != 5})
                for k in range(12)]
    # Lanes: a call too small to split, after split ones, runs whole.
    sizes = [2048] * 9 + [16, 2048, 16] if case == "lanes" else [16] * 12
    X = rng.random((2048 + 64, 5))
    out = np.zeros(2048 + 64)
    return [lambda lo=int(lo), n=n: ((X[lo:lo + n], out[lo:lo + n], n),
                                     {"use_model": True})
            for lo, n in zip(rng.integers(0, 64, 12), sizes)]


@pytest.fixture
def two_lanes(monkeypatch):
    """Two row lanes for any GEMM, under a one-thread BLAS."""
    from test_plan_lanes import _openblas_setter
    threads = P._blas_threads()
    setter = _openblas_setter() if threads is not None else None
    if setter is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    monkeypatch.setattr(P, "_lane_width", lambda: 2)
    monkeypatch.setattr(P, "_LANE_FLOPS", 1.0)
    setter(1)
    yield
    setter(threads)


def _refuse_narrowing(monkeypatch):
    compile_inference = infer_module.compile_inference

    def refusing(model, dtype=np.float64):
        if np.dtype(dtype) != np.float64:
            raise UnsupportedLayerError("narrowing refused")
        return compile_inference(model, dtype=dtype)

    monkeypatch.setattr(infer_module, "compile_inference", refusing)


@pytest.mark.parametrize("case", ["plain", "fault", "lanes", "float32",
                                  "auto-refused", "no-compute"])
def test_region_program_forward_matches_invoke_decided(tmp_path, request,
                                                       monkeypatch, case):
    if case == "lanes":
        request.getfixturevalue("two_lanes")
    if case == "auto-refused":
        _refuse_narrowing(monkeypatch)
    observed, infers, injected, schedules = [], [], [], []
    for side, never in (("fast", False), ("slow", True)):
        region, _ = _region(tmp_path / side, case, never)
        calls = _spy_infer(region.engine)
        injector = FaultInjector(seed=0)
        injector.script(SURROGATE, "nan", at=[4, 5])
        injector.script(SURROGATE, "raise", at=[8])
        rng = np.random.default_rng(9)
        seen = []
        for k, make in enumerate(_calls(case, rng)):
            if case == "fault" and k == 3:     # warm: the program serves
                injector.__enter__()
                injected.append(len(calls))
            try:
                seen.append(_observe(region, *make()))
            except BaseException:
                injector.__exit__()
                raise
        if case == "fault":
            injector.__exit__()
            schedules.append(injector.schedule())
        observed.append(seen)
        infers.append(len(calls))
        if injected:
            injected[-1] = len(calls) - injected[-1]
        assert (region._program is None) == never
        region.close()
    for k, (fast, slow) in enumerate(zip(*observed)):
        assert fast == slow, (case, k)
    # The general path forwards through ``infer``; the program only
    # until the memo knows the model (and, under faults, always).
    assert infers[0] < infers[1] or case == "fault"
    last = observed[0][-1]
    if case == "lanes":
        assert [seen["timing"]["lanes"] for seen in observed[0][-3:]] \
            == [1, 2, 1]
    if case == "fault":
        assert schedules[0] == schedules[1] and schedules[0]
        assert injected[0] == injected[1]    # every forward: ``infer``
    if case == "auto-refused":
        phases = {p for seen in observed[0] for rec in seen["records"]
                  for p in rec[2]}
        assert "shadow" in {p.value for p in phases}        # sampled
        assert last["timing"]["dtype"] == "float64"
    if case == "float32":
        assert last["timing"]["dtype"] == "float32"


def test_a_sampled_auto_call_leaves_the_served_timing(tmp_path):
    """Regression: a ``precision="auto"`` call sampling fp32 divergence
    ran the float64 reference forward last and left its timing in
    ``engine.last_timing``; the served float32 forward's stays, in the
    program and in its twin."""
    for side, never in (("fast", False), ("slow", True)):
        region, _ = _region(tmp_path / side, "auto", never)
        rng = np.random.default_rng(1)
        sampled = 0
        for make in _calls("auto", rng):
            args, kwargs = make()
            region(*args, **kwargs)
            record = region.events.records[-1]
            sampled += Phase.SHADOW in record.times
            assert record.notes["precision"] == "float32"
            assert region.engine.last_timing["dtype"] == "float32", side
        assert sampled                            # the governor's warmup
        region.close()


# ----------------------------------------------------------------------
# Each writer of what the forward lines read is seen by the next call
# ----------------------------------------------------------------------

def _warm(region, x, out):
    for _ in range(3):
        region(x, out, len(x), use_model=True)


def _expect(model, x):
    from repro.nn import compile_inference
    return compile_inference(model)(x).reshape(-1)


@pytest.mark.parametrize("writer", ["hot_swap_model", "load_state_dict",
                                    "bind_params", "invalidate",
                                    "transfer_model", "dense_speedup"])
def test_a_writer_of_what_the_forward_reads_is_seen(tmp_path, writer):
    """A hot swap, an in-place rebind, a step's ``bind_params``, a cache
    invalidation under a rewritten file, a replaced transfer model and
    a new ``dense_speedup``: the next call of the program serves what
    the twin serves, with the same charges."""
    fast, _ = _region(tmp_path / "fast", "plain", False)
    slow, _ = _region(tmp_path / "slow", "plain", True)
    x = np.random.default_rng(3).random((16, 5))
    new = build_mlp2(ARCH, 5, 1, seed=11)
    outs = {}
    for region in (fast, slow):
        out = np.zeros(16)
        _warm(region, x, out)
        engine, path = region.engine, region.model_path
        if writer == "hot_swap_model":
            hot_swap_model(new, path, [engine])
        elif writer == "load_state_dict":
            engine.cache.get(path).load_state_dict(new.state_dict())
        elif writer == "bind_params":
            plan = engine.plan_for(engine.cache.get(path))
            plan._steps[0].bind_params([new[0].weight.data,
                                        new[0].bias.data])
        elif writer == "invalidate":
            save_model(new, path)
            engine.cache.invalidate(path)
        elif writer == "transfer_model":
            engine.device.transfer_model = TransferModel(
                bandwidth_bytes_per_s=1e6, latency_s=1e-3)
        else:
            engine.device.dense_speedup = 2.0
        sim = engine.device.clock.simulated
        region(x, out, 16, use_model=True)
        timing = engine.last_timing
        outs[region is fast] = (out.tobytes(),
                                engine.device.clock.simulated - sim,
                                timing["transfer_sim"])
        if writer == "dense_speedup":
            assert timing["forward_device"] == timing["forward_wall"] / 2.0
        if writer == "transfer_model":
            assert timing["transfer_sim"] == pytest.approx(
                2e-3 + (40 * 16 + 8 * 16) / 1e6)
        region.close()
    assert outs[True] == outs[False]
    if writer not in ("transfer_model", "dense_speedup", "bind_params"):
        assert np.array_equal(np.frombuffer(outs[True][0]), _expect(new, x))


# ----------------------------------------------------------------------
# The wave program against call-by-call serving
# ----------------------------------------------------------------------

def _fleet(tmp, dtype, governed):
    engine, server = InferenceEngine(), RegionServer()
    tmp.mkdir(parents=True, exist_ok=True)
    for k, name in enumerate(MEMBERS):
        save_model(build_mlp2(ARCH, 5, 1, seed=k), tmp / f"{name}.rnm")
        region = binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp / "db.rh5"),
            model_path=str(tmp / f"{name}.rnm"), event_log=EventLog(),
            engine=engine)
        if dtype is not None:
            region.config.precision = "float32"
        server.register(region, name=name)
    server.enable_fleets(dtype=dtype)
    if governed:
        server.attach_qos(QoSController(shadow_rate=0.0, seed=0))
        server.attach_stream(tmp / "d.rh5")
    return server


def _waves(server, fleet_reference, off):
    """Nine waves (with ``off``, one call decided onto the accurate
    kernel in two of them: served in its slot, it streams there); per wave its
    outputs, records and the fleet's charges — the twin's fleet charged
    by ``infer_members`` on the riders' inputs."""
    rng = np.random.default_rng(4)
    fleet, seen = server.fleet, []
    for wave in range(9):
        x = rng.random((4, 5))
        outs = {name: np.zeros(4) for name in MEMBERS}
        accurate = MEMBERS[wave % 4] if off and wave in (3, 6) else None
        before = {n: len(server.region(n).events.records) for n in MEMBERS}
        server.invoke_fleet([(name, (x, outs[name], 4),
                              {"use_model": name != accurate})
                             for name in MEMBERS])
        if fleet_reference:
            riders = [fleet.member(n) for n in MEMBERS if n != accurate]
            fleet.infer_members(riders, [x] * len(riders))
        device = fleet.device
        seen.append((
            {n: o.tobytes() for n, o in outs.items()},
            {n: [(r.path, list(r.times), r.notes, r.finished) for r in
                 server.region(n).events.records[before[n]:]]
             for n in MEMBERS},
            (device.bytes_to_device, device.bytes_to_host,
             device.kernel_launches, device.clock.simulated),
            {k: v for k, v in fleet.last_timing.items()
             if k not in STOPWATCH}))
    return seen


@pytest.mark.parametrize("dtype", [None, np.float32])
@pytest.mark.parametrize("governed", [False, True])
def test_wave_program_matches_call_by_call_serving(tmp_path, monkeypatch,
                                                   dtype, governed):
    fast = _fleet(tmp_path / "fast", dtype, governed)
    observed = [_waves(fast, False, True)]
    assert fast._waves
    monkeypatch.setattr(program_module, "compile_program",
                        lambda *args: None)
    slow = _fleet(tmp_path / "slow", dtype, governed)
    observed.append(_waves(slow, True, True))
    assert not slow._waves
    for k, (a, b) in enumerate(zip(*observed)):
        assert a == b, k
    files = []
    for server in (fast, slow):
        if governed:
            stream = server.region("b0").events.stream
            server.detach_stream()
            files.append(stream.path.read_bytes())
        server.close()
    assert len(set(files)) <= 1
    if governed:
        assert len(read_stream(tmp_path / "fast" / "d.rh5")["binomial"]) \
            == 9 * len(MEMBERS)


# ----------------------------------------------------------------------
# The wave's decision lines and its binding by arity
# ----------------------------------------------------------------------

KERNEL_DIRECTIVES = """
#pragma approx tensor functor(opt_in: [p, 0:5] = ([p, 0:5]))
#pragma approx tensor functor(price_out: [p, 0:1] = ([p]))
#pragma approx tensor map(to: opt_in(options[0:NOPT]))
#pragma approx tensor map(from: price_out(prices[0:NOPT]))
#pragma approx ml({rule}) in(options) out(prices) db("{db}") \\
    model("{model}"){gate}
"""

#: The directive's rule per region: bare conditions (one behind a bare
#: ``if`` gate; predicated: false collects) and one expression.
RULES = {"b0": ("infer:use_model", " if(gate)"),
         "b1": ("predicated:use_model", ""),
         "b2": ("infer: NOPT > 2", ""),
         "b3": ("infer", " if(gate)")}


def _ruled_fleet(tmp):
    server = RegionServer()
    engine = InferenceEngine()
    tmp.mkdir(parents=True, exist_ok=True)
    for k, (name, (rule, gate)) in enumerate(RULES.items()):
        save_model(build_mlp2(ARCH, 5, 1, seed=k), tmp / f"{name}.rnm")

        @approx_ml(KERNEL_DIRECTIVES.format(
            rule=rule, gate=gate, db=tmp / f"{name}.rh5",
            model=tmp / f"{name}.rnm"), name=name, event_log=EventLog(),
            engine=engine)
        def kernel(options, prices, NOPT, use_model=False, gate=True):
            prices[:NOPT] = options[:NOPT, 0] * 2.0

        server.register(kernel)
    server.enable_fleets()
    return server


def _ruled_waves(server) -> list:
    """Waves over every combination of the conditions, the arguments
    passed positionally, by keyword or left to their defaults."""
    rng = np.random.default_rng(5)
    seen = []
    for wave in range(16):
        use_model, gate, rows = wave % 2 == 0, wave % 4 < 3, 2 + wave % 3
        x = rng.random((rows, 5))
        outs = {name: np.zeros(rows) for name in RULES}
        calls = []
        for k, name in enumerate(RULES):
            form = (wave + k) % 3
            if form == 0:
                call = ((x, outs[name], rows, use_model, gate), {})
            elif form == 1:
                call = ((x, outs[name]), {"NOPT": rows, "gate": gate,
                                          "use_model": use_model})
            else:
                call = ((x, outs[name], rows), {"use_model": use_model})
            calls.append((name, *call))
        before = {n: len(server.region(n).events.records) for n in RULES}
        server.invoke_fleet(calls)
        server.invoke_fleet(calls)              # the program, warm
        seen.append(({n: o.tobytes() for n, o in outs.items()},
                     {n: [(r.path, list(r.times), r.notes) for r in
                          server.region(n).events.records[before[n]:]]
                      for n in RULES}))
    return seen


def test_wave_decisions_and_arity_match_call_by_call(tmp_path, monkeypatch):
    """Bare conditions are decided by the program's own lines, an
    expression by the region's rule; every argument form binds by its
    arity (one program per form): the twin, served call by call, lands
    and records the same."""
    fast = _ruled_fleet(tmp_path / "fast")
    observed = [_ruled_waves(fast)]
    assert len(fast._programs) > 1
    assert all(fast.fleet.member(name).invocations for name in RULES)
    monkeypatch.setattr(program_module, "compile_program",
                        lambda *args: None)
    slow = _ruled_fleet(tmp_path / "slow")
    observed.append(_ruled_waves(slow))
    for k, (a, b) in enumerate(zip(*observed)):
        assert a == b, k
    paths = {rec[0] for seen in observed[0] for recs in seen[1].values()
             for rec in recs}
    assert paths == {"infer", "accurate", "collect"}
    for server in (fast, slow):
        server.close()


# ----------------------------------------------------------------------
# Breaker-guarded and precision-mismatched members in a wave
# ----------------------------------------------------------------------

def _poisoned(seed):
    """A 48-24 model of ``seed`` whose output bias is NaN."""
    model = build_mlp2(ARCH, 5, 1, seed=seed)
    list(model.parameters())[-1].data[...] = np.nan
    return model


def _guarded_waves(server, tmp, case) -> list:
    """Twelve waves of ``case`` over ``server``'s members with a breaker
    each; per wave its outputs, records and breaker snapshots."""
    rng = np.random.default_rng(6)
    names = ("b0", "b1", "b1", "b2") if case == "repeated" else MEMBERS
    swaps = {2: _poisoned(1), 7: build_mlp2(ARCH, 5, 1, seed=1)}
    seen = []
    for wave in range(12):
        if wave in swaps:
            hot_swap_model(swaps[wave], tmp / "b1.rnm",
                           [server.fleet, server.region("b1").engine])
        x = rng.random((4, 5))
        outs = [np.zeros(4) for _ in names]
        before = {n: len(server.region(n).events.records) for n in MEMBERS}
        server.invoke_fleet([(name, (x, out, 4), {"use_model": True})
                             for name, out in zip(names, outs)])
        seen.append((
            [out.tobytes() for out in outs],
            {n: [(r.path, list(r.times), r.notes, r.finished) for r in
                 server.region(n).events.records[before[n]:]]
             for n in MEMBERS},
            {n: server.region(n).config.breaker.snapshot() for n in MEMBERS}))
    return seen


class _OtherEngine(InferenceEngine):
    """An engine a program does not run as lines (not exactly an
    ``InferenceEngine``)."""


@pytest.mark.parametrize("case", ["non-finite", "repeated", "float32",
                                  "other-engine"])
def test_guarded_and_mismatched_members_match_call_by_call(
        tmp_path, monkeypatch, case):
    """A guarded member rides its fleet: a rider whose rows of the
    stacked output are not finite trips its own breaker only, and is
    re-served in its slot; a name repeated under a degraded breaker
    decides its second call after the first one's outcome; a float32
    member of a float64 fleet runs its own forward; guarded members on
    an engine the program does not run are handed off, none riding.
    The twin, served call by call, agrees on outputs, records, breaker
    snapshots and stream bytes."""
    observed, files = [], []
    for side in ("fast", "slow"):
        if side == "slow":
            monkeypatch.setattr(program_module, "compile_program",
                                lambda *args: None)
        server = _fleet(tmp_path / side, None, False)
        server.attach_breakers(failure_threshold=1, recovery_successes=1,
                               probe_interval=2)
        stream = server.attach_stream(tmp_path / side / "d.rh5")
        if case == "float32":
            server.region("b2").config.precision = "float32"
        elif case == "other-engine":
            engine = _OtherEngine()
            for name in MEMBERS:
                server.region(name).swap_engine(engine)
        observed.append(_guarded_waves(server, tmp_path / side, case))
        assert bool(server._waves) == (side == "fast")
        if side == "fast" and case not in ("float32", "other-engine"):
            assert server.fleet.member("b1").invocations > 0
        server.detach_stream()
        files.append(stream.path.read_bytes())
        server.close()
    for k, (a, b) in enumerate(zip(*observed)):
        assert a == b, k
    assert files[0] == files[1]
    states = {snap["b1"]["state"] for _, _, snap in observed[0]}
    assert states == {"healthy", "degraded"}


def test_sampled_shadow_members_match_call_by_call(tmp_path, monkeypatch):
    """A sub-sampled shadow holds its record, and its region's later
    records park behind it until the kernel validates: a call of that
    region (or of its log and name) does not ride, since a rider
    finishes after the wave's later calls, on the far side of a hold or
    a release from where call-by-call serving finishes it.  The twin
    agrees on outputs, records and stream bytes."""
    names = ("b0", "b0", "b0", "b0", "b3", "b3", "b1")
    observed, files = [], []
    for side in ("fast", "slow"):
        if side == "slow":
            monkeypatch.setattr(program_module, "compile_program",
                                lambda *args: None)
        server = _fleet(tmp_path / side, None, False)
        server.attach_qos(QoSController(shadow_rate=0.5, seed=3,
                                        shadow_rows=2), names=["b0", "b3"])
        stream = server.attach_stream(tmp_path / side / "d.rh5")
        rng = np.random.default_rng(8)
        outs = []
        for wave in range(6):
            x = rng.random((4, 5))
            outs += [np.zeros(4) for _ in names]
            server.invoke_fleet([(name, (x, out, 4), {"use_model": True})
                                 for name, out in zip(names, outs[-7:])])
        server.drain()
        assert server.fleet.member("b1").invocations == 6 * (side == "fast")
        observed.append(([out.tobytes() for out in outs], {
            n: [(r.path, list(r.times), r.notes, r.finished)
                for r in server.region(n).events.records] for n in MEMBERS}))
        server.detach_stream()
        files.append(stream.path.read_bytes())
        server.close()
    assert observed[0] == observed[1]
    assert files[0] == files[1]


def _mixed_fleet(tmp, seed):
    """``_fleet``'s members, one event log for all of them (seeds 1, 5)
    and ``b3`` behind a queue (seed 2)."""
    engine, server = InferenceEngine(), RegionServer()
    tmp.mkdir(parents=True, exist_ok=True)
    shared = EventLog() if seed % 4 == 1 else None
    for k, name in enumerate(MEMBERS):
        save_model(build_mlp2(ARCH, 5, 1, seed=k), tmp / f"{name}.rnm")
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp / "db.rh5"),
            model_path=str(tmp / f"{name}.rnm"),
            event_log=shared or EventLog(), engine=engine,
            auto_batch=name == "b3" and seed == 2, max_batch_rows=8),
            name=name)
    server.enable_fleets()
    return server


@pytest.mark.parametrize("seed", range(6))
def test_random_mixed_waves_match_call_by_call(tmp_path, monkeypatch, seed):
    """Random waves of repeated names and random conditions over members
    under one controller (sub-sampled shadows on odd seeds), breakers on
    ``b1`` (poisoned, then recovered) and ``b3``, a float32 or
    ``"auto"`` ``b2``: the twin, served call by call, agrees on outputs,
    records, breaker snapshots and stream bytes."""
    observed = []
    for side in ("fast", "slow"):
        if side == "slow":
            monkeypatch.setattr(program_module, "compile_program",
                                lambda *args: None)
        tmp, rng = tmp_path / side, np.random.default_rng(seed)
        server = _mixed_fleet(tmp, seed)
        server.attach_qos(QoSController(
            shadow_rate=0.3, seed=seed, shadow_rows=2 if seed % 2 else None))
        breakers = server.attach_breakers(
            names=["b1", "b3"], failure_threshold=1, recovery_successes=1,
            probe_interval=2)
        server.region("b2").config.precision = ("float32", "auto")[seed % 2]
        stream = server.attach_stream(tmp / "d.rh5")
        outs = []
        for wave in range(14):
            if wave in (3, 9):
                hot_swap_model(_poisoned(1) if wave == 3 else build_mlp2(
                    ARCH, 5, 1, seed=1), tmp / "b1.rnm",
                    [server.fleet, server.region("b1").engine])
            names = rng.choice(MEMBERS, size=int(rng.integers(2, 7)))
            x = rng.random((4, 5))
            outs += [np.zeros(4) for _ in names]
            server.invoke_fleet([
                (str(name), (x, out, 4), {"use_model": rng.random() > 0.2})
                for name, out in zip(names, outs[-len(names):])])
        server.drain()
        observed.append((
            [out.tobytes() for out in outs],
            {n: [(r.path, set(r.times), r.notes, r.finished)
                 for r in server.region(n).events.records] for n in MEMBERS},
            {n: b.snapshot() for n, b in breakers.items()}))
        server.detach_stream()
        observed[-1] += (stream.path.read_bytes(),)
        server.close()
    assert observed[0] == observed[1]
