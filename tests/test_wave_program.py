"""Differential: a warm fleet wave's generated program ≡ the passes.

``RegionServer.invoke_fleet`` serves a wave as bind / gather / forward /
land passes; once the passes have served the same names at the same
geometry twice running, every call a plain rider of one fleet, the wave
runs one generated program instead.  It must land the same bits, open
and finish the same records with the same phases, count the same
invocations, device bytes and launches, and raise the same errors; and
every writer of what it captures (the staging batch, the membership,
the regions' configuration, the fleet itself) must be seen by the next
wave.  Also here: the hot swap that re-warms a fleet from another
thread, and a member swapped away and back.
"""

import threading

import numpy as np
import pytest

from repro.apps import binomial
from repro.bridge import BridgeError
from repro.nn import compile_inference, save_model
from repro.runtime import EventLog, InferenceEngine
from repro.search.builders import build_mlp2
from repro.serving import RegionServer, hot_swap_model

pytestmark = pytest.mark.fleet

ARCH = {"hidden1_features": 48, "hidden2_features": 24}
SMALL = {"hidden1_features": 6, "hidden2_features": 6}
MEMBERS = ("b0", "b1", "b2", "b3")
SUBSET = ("b3", "b1")


def _fleet(tmp_path, members=MEMBERS, dtype=None):
    """A server whose ``members`` are 48-24 binomial regions grouped into
    one fleet, each with its own event log; the single path's engine;
    the models by name."""
    engine, server, models = InferenceEngine(), RegionServer(), {}
    for k, name in enumerate(members):
        models[name] = build_mlp2(ARCH, 5, 1, seed=k)
        save_model(models[name], tmp_path / f"{name}.rnm")
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(tmp_path / f"{name}.rnm"), event_log=EventLog(),
            engine=engine), name=name)
    server.enable_fleets(dtype=dtype)
    return server, engine, models


def _count_passes(server) -> list:
    """A list that grows by one per wave the passes serve: how many calls
    they were handed."""
    passes = []
    run_passes = server._run_passes

    def counted(calls, *args):
        passes.append(len(calls))
        return run_passes(calls, *args)

    server._run_passes = counted
    return passes


def _wave(server, names, x, outs=None, **kwargs):
    """Serve one wave of ``names`` on ``x``; returns its outputs."""
    rows = len(x)
    outs = outs or {name: np.zeros(rows) for name in names}
    kwargs.setdefault("use_model", True)
    server.invoke_fleet([(name, (x, outs[name], rows), kwargs)
                         for name in names])
    return outs


def _own(model, x, dtype=np.float64):
    return compile_inference(model, dtype=dtype)(x).reshape(-1)


def _observe(server, names, x, outs=None):
    """Everything a wave leaves behind that the passes and a program
    must agree on, as one comparable dict (the stopwatch readings
    aside: riders' shares are checked equal instead)."""
    fleet = server.fleet
    device = fleet.device
    served = {name: server.served(name) for name in MEMBERS}
    logs = {name: served[name].region.events for name in MEMBERS}
    before = {"served": {n: s.invocations for n, s in served.items()},
              "members": {n: fleet.member(n).invocations for n in MEMBERS},
              "records": {n: len(log.records) for n, log in logs.items()},
              "device": (device.bytes_to_device, device.bytes_to_host,
                         device.kernel_launches, device.clock.simulated)}
    rows = len(x)
    outs = outs or {name: np.zeros(rows) for name in names}
    try:
        result = server.invoke_fleet([(name, (x, outs[name], rows),
                                       {"use_model": True})
                                      for name in names])
        error = None
    except Exception as exc:
        result, error = None, (type(exc), str(exc))
    records = {n: log.records[before["records"][n]:]
               for n, log in logs.items()}
    shares = {tuple(rec.times.values()) for recs in records.values()
              for rec in recs if rec.path == "infer" and error is None}
    assert len(shares) <= 1                          # equal shares
    timing = dict(fleet.last_timing)
    for key in ("forward_wall", "forward_device"):
        timing.pop(key, None)
    staging = fleet.member(MEMBERS[0]).group.staging
    covered = {fleet.member(n).row: rows for n in names}
    for row in range(len(staging)):                 # uncovered rows: zero
        assert error or not staging[row, covered.get(row, 0):].any()
    return {
        "result": result, "error": error,
        "outputs": {n: np.asarray(out).tobytes() for n, out in outs.items()},
        "records": {n: [(r.path, r.region, list(r.times), r.notes,
                         r.finished) for r in recs]
                    for n, recs in records.items()},
        "served": {n: s.invocations - before["served"][n]
                   for n, s in served.items()},
        "members": {n: fleet.member(n).invocations - before["members"][n]
                    for n in MEMBERS},
        "device": tuple(now - was for now, was in zip(
            (device.bytes_to_device, device.bytes_to_host,
             device.kernel_launches, device.clock.simulated),
            before["device"])),
        "timing": timing,
    }


#: (names, rows): all members and a subset, at 4, 6 and 4 rows — the
#: staging batch grows in between.
SPECS = [(MEMBERS, 4), (SUBSET, 4), (MEMBERS, 6), (SUBSET, 6), (MEMBERS, 4),
         (SUBSET, 4)]


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_program_waves_match_the_passes(tmp_path, dtype):
    """Twin servers, one of which never generates a program, serve the
    same waves: from each signature's third wave on, one serves them by
    its program, and every observation agrees exactly — also for a
    narrowed slab."""
    fast, slow = (_fleet(tmp_path / name, dtype=dtype)[0]
                  for name in ("fast", "slow"))
    fast_passes, slow_passes = _count_passes(fast), _count_passes(slow)
    slow._sighted = lambda *args: None
    rng = np.random.default_rng(0)
    for names, rows in SPECS:
        for attempt in range(4):
            x = rng.random((rows, 5))
            before = len(fast_passes)
            assert _observe(fast, names, x) == _observe(slow, names, x)
            # Two sightings, then the program (after the growth, the
            # stale program misses twice before it is regenerated).
            assert len(fast_passes) - before == (attempt < 2)
    assert len(slow_passes) == 4 * len(SPECS)
    for server in (fast, slow):
        server.close()


def _warm_twins(tmp_path):
    fast, slow = (_fleet(tmp_path / name)[0] for name in ("fast", "slow"))
    passes = _count_passes(fast)
    slow._sighted = lambda *args: None
    x = np.random.default_rng(1).random((4, 5))
    for _ in range(3):
        for server in (fast, slow):
            _wave(server, MEMBERS, x)
    assert fast._waves[MEMBERS][0] is not None
    return fast, slow, passes, x


class _Unlanding(np.ndarray):
    """An output array that refuses every write."""

    def __setitem__(self, key, value):
        raise RuntimeError("this array takes no outputs")


@pytest.mark.parametrize("bad", ["list", "read-only", "none", "unlanding"])
def test_a_failing_warm_wave_fails_as_the_passes_do(tmp_path, bad):
    """A list argument, a read-only ``out`` and a ``None`` out fail the
    program's guard: the passes serve the wave and raise the same
    ``BridgeError`` with the same aborted records.  Outputs that cannot
    land fail inside the program, which aborts every record it opened,
    as the passes do.  The next wave is served normally on both."""
    fast, slow, passes, x = _warm_twins(tmp_path)

    def outs():
        out = {name: np.zeros(4) for name in MEMBERS}
        if bad == "read-only":
            out["b2"].flags.writeable = False
        elif bad == "none":
            out["b2"] = None
        elif bad == "unlanding":
            out["b2"] = out["b2"].view(_Unlanding)
        return out

    arg = x.tolist() if bad == "list" else x
    before = len(passes)
    failed = [_observe(server, MEMBERS, arg, outs()) for server in (fast,
                                                                   slow)]
    assert failed[0] == failed[1]
    expected = RuntimeError if bad == "unlanding" else BridgeError
    assert failed[0]["error"][0] is expected
    assert len(passes) - before == (bad != "unlanding")
    opened = [recs for recs in failed[0]["records"].values() if recs]
    assert all(rec[3] == {"error": expected.__name__} and rec[4]
               for recs in opened for rec in recs)
    if bad == "unlanding":
        assert len(opened) == len(MEMBERS)           # every rider opened
    assert _observe(fast, MEMBERS, x) == _observe(slow, MEMBERS, x)
    for server in (fast, slow):
        server.close()


def test_a_call_decided_off_the_surrogate_hands_the_wave_to_the_passes(
        tmp_path):
    """A call of a warm signature that its directive sends to the
    accurate kernel is caught by the program's guards: the whole wave,
    untouched, goes to the passes, which serve that call singly, and
    everything agrees with the twin that has no programs."""
    fast, slow, passes, x = _warm_twins(tmp_path)
    for accurate in MEMBERS:
        results = []
        for server in (fast, slow):
            calls = [(name, (x, np.zeros(4), 4),
                      {"use_model": name != accurate}) for name in MEMBERS]
            results.append(server.invoke_fleet(calls))
            results.append([(r.path, list(r.times)) for name in MEMBERS
                            for r in server.region(name).events.records[-1:]])
            results.append([c[1][1].tobytes() for c in calls])
            results.append(server.fleet.last_timing["members_served"])
        assert results[:4] == results[4:]
        assert passes[-1] == len(MEMBERS)           # the whole wave
    assert fast._waves[MEMBERS][0] is not None
    for server in (fast, slow):
        server.close()


# ----------------------------------------------------------------------
# Every writer of what a program captures is seen by the next wave
# ----------------------------------------------------------------------

def _programmed(tmp_path):
    server, engine, models = _fleet(tmp_path)
    passes = _count_passes(server)
    x = np.random.default_rng(2).random((4, 5))
    for _ in range(3):
        _wave(server, MEMBERS, x)
    assert server._waves[MEMBERS][0] is not None
    before = len(passes)
    _wave(server, MEMBERS, x)
    assert len(passes) == before                     # the program served
    return server, engine, models, passes, x


@pytest.mark.parametrize("writer", ["growth", "build", "add_member"])
def test_a_new_batch_or_grouping_moves_the_program_along(tmp_path, writer):
    """Waves after the staging batch grows, or after the fleet regroups,
    are assembled in the batch the fleet's plan now reads."""
    server, _, models, passes, x = _programmed(tmp_path)
    fleet = server.fleet
    if writer == "growth":
        _wave(server, SUBSET, np.random.default_rng(3).random((6, 5)))
        assert fleet.member("b0").group.staging.shape[1] == 6
    elif writer == "build":
        fleet.build()
    else:
        fleet.add_member("extra", tmp_path / "b0.rnm")
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
    group = fleet.member("b0").group
    for name in MEMBERS:
        assert np.array_equal(outs[name], _own(models[name], x))
        assert fleet.member(name).group is group
        row = fleet.member(name).row
        assert np.array_equal(group.staging[row, :4], x)  # the live batch
    assert not group.staging[:, 4:].any()
    assert server._waves[MEMBERS][0] is not None
    if writer == "add_member":
        assert fleet.member("extra").group is group
    server.close()


def test_same_architecture_swap_serves_the_new_weights_next_wave(tmp_path):
    server, engine, models, passes, x = _programmed(tmp_path)
    for seed in (20, 21):
        models["b1"] = build_mlp2(ARCH, 5, 1, seed=seed)
        hot_swap_model(models["b1"], tmp_path / "b1.rnm",
                       [engine, server.fleet])
        before = len(passes)
        outs = _wave(server, MEMBERS, x)
        assert len(passes) == before                 # still the program
        for name in MEMBERS:
            assert np.array_equal(outs[name], _own(models[name], x)), name
    server.close()


def test_swap_away_serves_singly_and_swap_back_rides_again(tmp_path):
    """A member swapped to a model its fleet cannot stack is served on
    the single-model path from that very wave; swapped back to one that
    fits, it is re-adopted into its old row — one row copy, its peers'
    rows untouched — and rides again, bitwise its own plan."""
    server, engine, models = _fleet(tmp_path)
    x = np.random.default_rng(2).random((4, 5))
    for _ in range(3):
        _wave(server, MEMBERS, x)
    fleet = server.fleet
    member, group = fleet.member("b1"), fleet.member("b1").group
    slab = group.plan.slab.copy()
    rides = member.invocations
    models["b1"] = build_mlp2(SMALL, 5, 1, seed=9)
    hot_swap_model(models["b1"], tmp_path / "b1.rnm", [engine, fleet])
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
        assert np.array_equal(outs["b1"], _own(models["b1"], x))
    assert fleet.ungrouped == ["b1"] and member.group is None
    assert member.invocations == rides
    models["b1"] = build_mlp2(ARCH, 5, 1, seed=10)
    hot_swap_model(models["b1"], tmp_path / "b1.rnm", [engine, fleet])
    for wave in range(4):
        outs = _wave(server, MEMBERS, x)
        for name in MEMBERS:
            assert np.array_equal(outs[name], _own(models[name], x)), name
        assert member.invocations == rides + wave + 1
    assert fleet.ungrouped == [] and member.group is group
    assert member.row == 1 and group.members == [
        fleet.member(name) for name in MEMBERS]
    rows = [0, 2, 3]
    assert np.array_equal(group.plan.slab[rows], slab[rows])
    assert not np.array_equal(group.plan.slab[1], slab[1])
    assert server._waves[MEMBERS][0] is not None
    server.close()


@pytest.mark.parametrize("attach", ["qos", "breaker", "stream", "precision"])
def test_a_governed_member_leaves_the_program_until_detached(tmp_path,
                                                             attach):
    from repro.obs import read_stream
    from repro.qos import QoSController

    server, engine, models, passes, x = _programmed(tmp_path)
    region = server.region("b2")
    consulted = []

    def counting(owner, hook):
        method = getattr(owner, hook)
        setattr(owner, hook, lambda *args: (consulted.append(hook),
                                            method(*args))[1])

    if attach == "qos":
        controller = QoSController(shadow_rate=0.0)
        counting(controller, "decide")
        server.attach_qos(controller, names=["b2"])
    elif attach == "breaker":
        counting(server.attach_breakers(names=["b2"])["b2"], "allow")
    elif attach == "stream":
        server.attach_stream(tmp_path / "decisions.rh5")
    else:
        region.config.precision = "float32"
    for _ in range(3):
        before = len(passes)
        outs = _wave(server, MEMBERS, x)
        assert len(passes) == before + 1             # the passes served
    want = _own(models["b2"], x, np.float32 if attach == "precision"
                else np.float64)
    assert np.array_equal(outs["b2"], want)
    if attach in ("qos", "breaker"):
        assert len(consulted) == 3                   # once per wave
        setattr(region.config, attach, None)
    elif attach == "stream":
        server.detach_stream()
        assert len(read_stream(tmp_path / "decisions.rh5")["binomial"]) \
            == 3 * len(MEMBERS)
    else:
        region.config.precision = None
    before = len(passes)
    outs = _wave(server, MEMBERS, x)
    assert len(passes) == before                     # the program again
    assert np.array_equal(outs["b2"], _own(models["b2"], x))
    server.close()


def test_disable_and_enable_fleets_drop_the_programs(tmp_path):
    server, engine, models, passes, x = _programmed(tmp_path)
    old = server.fleet
    launches = old.device.kernel_launches
    server.disable_fleets()
    singles = engine.device.kernel_launches
    outs = _wave(server, MEMBERS, x)
    assert old.device.kernel_launches == launches    # nothing rode
    assert engine.device.kernel_launches == singles + len(MEMBERS)
    server.enable_fleets()
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
    assert server.fleet.device.kernel_launches == 3
    assert old.device.kernel_launches == launches
    for name in MEMBERS:
        assert np.array_equal(outs[name], _own(models[name], x))
    server.close()


def test_another_signature_takes_the_passes(tmp_path):
    """Another order of the same names, or a subset, is another
    signature: the passes serve it until it has a program of its own,
    and the first signature's program keeps serving its own waves."""
    server, _, models, passes, x = _programmed(tmp_path)
    assert server.invoke_fleet([]) == {}
    swapped = ("b1", "b0", "b2", "b3")
    for names in (swapped, SUBSET):
        for attempt in range(3):
            before = len(passes)
            outs = _wave(server, names, x)
            assert len(passes) - before == (attempt < 2)
            for name in names:
                assert np.array_equal(outs[name], _own(models[name], x))
        before = len(passes)
        _wave(server, MEMBERS, x)
        assert len(passes) == before
    server.close()


# ----------------------------------------------------------------------
# A hot swap re-warming the fleet from another thread
# ----------------------------------------------------------------------

@pytest.mark.serving
def test_a_swap_from_another_thread_never_tears_a_wave(tmp_path):
    """``hot_swap_model(model, path, [engine, server.fleet])`` is what a
    ``RetrainWorker`` does from its own thread.  While one thread serves
    4-row waves, 200 same-architecture swaps of ``b1`` alternate between
    two models: every output of ``b1`` is one model's plan or the
    other's (never a slab row half rewritten under a forward), and its
    peers' are their own."""
    server, engine, models = _fleet(tmp_path)
    x = np.random.default_rng(4).random((4, 5))
    swaps = [build_mlp2(ARCH, 5, 1, seed=s) for s in (30, 31)]
    allowed = [_own(m, x) for m in [models["b1"]] + swaps]
    own = {name: _own(models[name], x) for name in MEMBERS}
    stop, seen, bad = threading.Event(), [0], []

    def serve():
        try:
            while not stop.is_set():
                outs = _wave(server, MEMBERS, x)
                seen[0] += 1
                if not any(np.array_equal(outs["b1"], a) for a in allowed):
                    bad.append(("torn", seen[0]))
                bad.extend(("peer", name) for name in ("b0", "b2", "b3")
                           if not np.array_equal(outs[name], own[name]))
        except Exception as exc:                     # pragma: no cover
            bad.append(("raised", repr(exc)))

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        for i in range(200):
            hot_swap_model(swaps[i % 2], tmp_path / "b1.rnm",
                           [engine, server.fleet])
    finally:
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert bad == []
    assert seen[0] > 0
    outs = _wave(server, MEMBERS, x)
    assert np.array_equal(outs["b1"], allowed[2])    # the last swap serves
    server.close()
