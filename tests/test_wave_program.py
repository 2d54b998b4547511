"""Differential: a fleet wave's generated program ≡ the single path.

``RegionServer.invoke_fleet`` serves every wave on a server with fleets
by the generated program of its signature (its names and each call's
geometry key).  Its twin here is a server without fleets serving the
same calls one by one through ``server.invoke``: a program must land
the same bits, leave the same records (path, notes, phases, finished)
and serving counters, and raise the same errors; the fleet's launches
and members served are checked on their own.  A wave some call of
which cannot be bound is served call by call on the single path, so
there the twins agree record for record.  Every writer of what a
program captures (the staging batch, the membership, the regions'
configuration, the fleet itself) must be seen by the next wave.  Also
here: the hot swap that re-warms a fleet from another thread, a member
swapped away and back, and one rebound in place while outside the wave.

(Test names that say "the passes" name the reference the program is
checked against: the call-by-call single path that replaced the
interpreted passes.)
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


def _fleet(tmp_path, members=MEMBERS, dtype=None, fleets=True):
    """A server whose ``members`` are 48-24 binomial regions grouped into
    one fleet (none when not ``fleets``: the twin), each with its own
    event log; the single path's engine; the models by name."""
    engine, server, models = InferenceEngine(), RegionServer(), {}
    for k, name in enumerate(members):
        models[name] = build_mlp2(ARCH, 5, 1, seed=k)
        save_model(models[name], tmp_path / f"{name}.rnm")
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(tmp_path / f"{name}.rnm"), event_log=EventLog(),
            engine=engine), name=name)
    if fleets:
        server.enable_fleets(dtype=dtype)
    elif dtype is not None:                 # what the slab serves at
        for name in members:
            server.region(name).config.precision = "float32"
    return server, engine, models


def _twins(tmp_path, dtype=None):
    """A fleet server and its twin without fleets, over the same models."""
    return (_fleet(tmp_path / "fleet", dtype=dtype)[0],
            _fleet(tmp_path / "twin", dtype=dtype, fleets=False)[0])


@pytest.fixture
def generated(monkeypatch) -> list:
    """A list that grows by one per wave program generated."""
    from repro.runtime import program as program_module

    programs, compile_program = [], program_module.compile_program
    monkeypatch.setattr(program_module, "compile_program", lambda *args: (
        len(args) > 1 and programs.append(tuple(
            call.served.name for call in args[0])),
        compile_program(*args))[1])
    return programs


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


def _observe(server, names, x, outs=None, use_model=None):
    """Everything a wave leaves behind that a program and the single
    path must agree on, as one comparable dict (the stopwatch readings
    aside: riders' shares are checked equal instead).  The twin without
    fleets serves the calls one by one through ``server.invoke``."""
    served = {name: server.served(name) for name in MEMBERS}
    logs = {name: served[name].region.events for name in MEMBERS}
    before = {"served": {n: s.invocations for n, s in served.items()},
              "records": {n: len(log.records) for n, log in logs.items()}}
    rows = len(x)
    outs = outs or {name: np.zeros(rows) for name in names}
    use_model = use_model or {}
    calls = [(name, (x, outs[name], rows),
              {"use_model": use_model.get(name, True)}) for name in names]
    result = {}
    try:
        if server.fleet is not None:
            result = server.invoke_fleet(calls)
        else:
            for name, args, kwargs in calls:
                result[name] = server.invoke(name, *args, **kwargs)
        error = None
    except Exception as exc:
        result, error = None, (type(exc), str(exc))
    records = {n: log.records[before["records"][n]:]
               for n, log in logs.items()}
    if server.fleet is not None and error is None:
        shares = {tuple(rec.times.values()) for recs in records.values()
                  for rec in recs if rec.path == "infer"}
        assert len(shares) <= 1                      # equal shares
        staging = server.fleet.member(MEMBERS[0]).group.staging
        covered = {server.fleet.member(n).row: rows for n in names
                   if use_model.get(n, True)}
        for row in range(len(staging)):             # uncovered rows: zero
            assert not staging[row, covered.get(row, 0):].any()
    return {
        "result": result, "error": error,
        "outputs": {n: np.asarray(out).tobytes() for n, out in outs.items()},
        "records": {n: [(r.path, r.region, list(r.times), r.notes,
                         r.finished) for r in recs]
                    for n, recs in records.items()},
        "served": {n: s.invocations - before["served"][n]
                   for n, s in served.items()},
    }


def _fleet_counts(server, wave) -> tuple:
    """``(launches, members served, per-member rides)`` of ``wave()``."""
    fleet = server.fleet
    launches = fleet.device.kernel_launches
    rides = {name: fleet.member(name).invocations for name in MEMBERS}
    wave()
    return (fleet.device.kernel_launches - launches,
            fleet.last_timing["members_served"],
            {name: fleet.member(name).invocations - rides[name]
             for name in MEMBERS})


#: (names, rows): all members and a subset, at 4, 6 and 4 rows — the
#: staging batch grows in between.
SPECS = [(MEMBERS, 4), (SUBSET, 4), (MEMBERS, 6), (SUBSET, 6), (MEMBERS, 4),
         (SUBSET, 4)]


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_program_waves_match_the_passes(tmp_path, generated, dtype):
    """A fleet server and its twin without fleets serve the same waves:
    every one by a program on the first, generated at each signature's
    first wave (the growth to 6 rows moves the fleet's ``version``, so
    the 4-row programs are generated again), and every observation
    agrees exactly — also for a narrowed slab, against a twin whose
    regions ask for float32."""
    fast, twin = _twins(tmp_path, dtype)
    rng = np.random.default_rng(0)
    for names, rows in SPECS:
        for attempt in range(4):
            x = rng.random((rows, 5))
            before = len(generated)
            observed = []
            counts = _fleet_counts(fast, lambda: observed.append(
                _observe(fast, names, x)))
            assert observed[0] == _observe(twin, names, x)
            assert counts == (1, len(names), {n: int(n in names)
                                              for n in MEMBERS})
            assert len(generated) - before == (attempt == 0)
    for server in (fast, twin):
        server.close()


def _warm_twins(tmp_path):
    fast, twin = _twins(tmp_path)
    x = np.random.default_rng(1).random((4, 5))
    for _ in range(3):
        for server in (fast, twin):
            _wave(server, MEMBERS, x) if server is fast else [
                server.invoke(name, x, np.zeros(4), 4, use_model=True)
                for name in MEMBERS]
    assert MEMBERS in fast._waves
    return fast, twin, x


class _Unlanding(np.ndarray):
    """An output array that refuses every write."""

    def __setitem__(self, key, value):
        raise RuntimeError("this array takes no outputs")


@pytest.mark.parametrize("bad", ["list", "read-only", "none", "unlanding"])
def test_a_failing_warm_wave_fails_as_the_passes_do(tmp_path, generated,
                                                    bad):
    """A list argument, a read-only ``out`` and a ``None`` out fail the
    program's guards, and no program can be generated for them: the
    wave is served call by call on the single path, so the calls before
    the refused one are served, it raises its own ``BridgeError``, and
    everything agrees with the twin.  Outputs that cannot land fail
    inside the program, which aborts every record it opened, with the
    twin's error.  The next wave is served normally on both."""
    fast, twin, x = _warm_twins(tmp_path)

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
    failed = [_observe(server, MEMBERS, arg, outs())
              for server in (fast, twin)]
    expected = RuntimeError if bad == "unlanding" else BridgeError
    assert failed[0]["error"] == failed[1]["error"]
    assert failed[0]["error"][0] is expected
    assert generated == [MEMBERS]                    # the warm one only
    if bad == "unlanding":
        opened = [recs for recs in failed[0]["records"].values() if recs]
        assert len(opened) == len(MEMBERS)           # every rider opened
        assert all(rec[3] == {"error": "RuntimeError"} and rec[4]
                   for recs in opened for rec in recs)
    else:
        assert failed[0] == failed[1]
    assert _observe(fast, MEMBERS, x) == _observe(twin, MEMBERS, x)
    for server in (fast, twin):
        server.close()


def test_a_call_decided_off_the_surrogate_hands_the_wave_to_the_passes(
        tmp_path, generated):
    """A call of a warm signature that its directive sends to the
    accurate kernel is decided and served inside the program by
    ``invoke_decided`` — the single path — while the rest ride one
    forward; everything agrees with the twin, and nothing is
    generated."""
    fast, twin, x = _warm_twins(tmp_path)
    program = fast._waves[MEMBERS]
    for accurate in MEMBERS:
        use_model = {accurate: False}
        observed = []
        counts = _fleet_counts(fast, lambda: observed.append(
            _observe(fast, MEMBERS, x, use_model=use_model)))
        assert observed[0] == _observe(twin, MEMBERS, x,
                                       use_model=use_model)
        assert counts == (1, len(MEMBERS) - 1, {n: int(n != accurate)
                                                for n in MEMBERS})
        assert [rec[0] for rec in observed[0]["records"][accurate]] == \
            ["accurate"]
    assert generated == [MEMBERS] and fast._waves[MEMBERS] is program
    for server in (fast, twin):
        server.close()


def test_a_repeated_name_rides_once_and_a_later_call_may_ride(tmp_path,
                                                             generated):
    """At most one call of a name rides a wave: the first one decided
    onto the surrogate.  When the first call of ``b1`` goes to the
    accurate kernel, its repeat rides in its place — the rule is read
    per wave, in one program — and the twin agrees on everything."""
    fast, twin = _twins(tmp_path)
    names = ("b0", "b1", "b1", "b2")
    rng = np.random.default_rng(5)
    for first in (True, False, True):
        x = rng.random((4, 5))
        outs = {name: np.zeros(4) for name in MEMBERS}
        second = np.zeros(4)
        observed = []
        for server in (fast, twin):
            calls = [(name, (x, second if i == 2 else outs[name], 4),
                      {"use_model": first if i == 1 else True})
                     for i, name in enumerate(names)]
            before = {n: len(server.region(n).events.records)
                      for n in MEMBERS}
            if server is fast:
                rides = {n: fast.fleet.member(n).invocations
                         for n in MEMBERS}
                server.invoke_fleet(calls)
                assert {n: fast.fleet.member(n).invocations - rides[n]
                        for n in MEMBERS} == {"b0": 1, "b1": 1, "b2": 1,
                                              "b3": 0}
            else:
                for name, args, kwargs in calls:
                    server.invoke(name, *args, **kwargs)
            observed.append((
                {n: o.tobytes() for n, o in outs.items()}, second.tobytes(),
                {n: [(r.path, list(r.times), r.notes, r.finished) for r in
                     server.region(n).events.records[before[n]:]]
                 for n in MEMBERS}))
        assert observed[0] == observed[1]
    assert generated == [names]
    for server in (fast, twin):
        server.close()


def test_two_geometries_under_one_name_list_generate_twice(tmp_path,
                                                          generated):
    """Waves of one name list alternating between two geometries (4 and
    3 rows) run two programs, each generated once: a miss looks the
    wave's signature up, and the other geometry's program is kept.
    Every output is bitwise its member's own plan."""
    server, _, models = _fleet(tmp_path)
    rng = np.random.default_rng(6)
    for wave in range(10):
        x = rng.random((4 - wave % 2, 5))
        outs = _wave(server, MEMBERS, x)
        for name in MEMBERS:
            assert np.array_equal(outs[name], _own(models[name], x)), name
    assert generated == [MEMBERS, MEMBERS]
    assert len(server._programs) == 2
    server.close()


def test_a_ragged_wave_runs_the_widest_rider_s_batch(tmp_path, generated):
    """Riders of one fleet at 4, 2, 3 and 1 rows: the forward runs the
    widest rows that ride (4, or 3 while ``b0`` goes to the accurate
    kernel), shorter rows read zero past their own, and every rider's
    output is bitwise its own plan over its rows zero-padded to that
    width."""
    server, _, models = _fleet(tmp_path)
    rng = np.random.default_rng(8)
    for wave in range(4):
        xs = {name: rng.random((rows, 5))
              for name, rows in zip(MEMBERS, (4, 2, 3, 1))}
        outs = {name: np.zeros(len(x)) for name, x in xs.items()}
        server.invoke_fleet([(name, (x, outs[name], len(x)),
                              {"use_model": wave % 2 == 0 or name != "b0"})
                             for name, x in xs.items()])
        width = 4 - wave % 2
        for name in MEMBERS[wave % 2:]:
            padded = np.zeros((width, 5))
            padded[:len(xs[name])] = xs[name]
            assert np.array_equal(outs[name], _own(models[name], padded)[
                :len(xs[name])]), (wave, name)
        group = server.fleet.member("b0").group
        assert group.filled == [4 if wave % 2 == 0 else 0, 2, 3, 1]
        assert not group.staging[1, 2:].any()
        assert server.fleet.last_timing["members_served"] == 4 - wave % 2
    assert generated == [MEMBERS]
    server.close()


# ----------------------------------------------------------------------
# Every writer of what a program captures is seen by the next wave
# ----------------------------------------------------------------------

def _programmed(tmp_path, generated):
    server, engine, models = _fleet(tmp_path)
    x = np.random.default_rng(2).random((4, 5))
    _wave(server, MEMBERS, x)
    assert generated == [MEMBERS]
    _wave(server, MEMBERS, x)
    assert generated == [MEMBERS]                    # the program served
    return server, engine, models, x


@pytest.mark.parametrize("writer", ["growth", "build", "add_member"])
def test_a_new_batch_or_grouping_moves_the_program_along(tmp_path, generated,
                                                         writer):
    """Waves after the staging batch grows, or after the fleet regroups,
    are composed in the batch the fleet's plan now reads, by a program
    generated for it."""
    server, _, models, x = _programmed(tmp_path, generated)
    fleet = server.fleet
    if writer == "growth":
        _wave(server, SUBSET, np.random.default_rng(3).random((6, 5)))
        assert fleet.member("b0").group.staging.shape[1] == 6
    elif writer == "build":
        fleet.build()
    else:
        fleet.add_member("extra", tmp_path / "b0.rnm")
    before = len(generated)
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
    assert generated[before:] == [MEMBERS]
    group = fleet.member("b0").group
    for name in MEMBERS:
        assert np.array_equal(outs[name], _own(models[name], x))
        assert fleet.member(name).group is group
        row = fleet.member(name).row
        assert np.array_equal(group.staging[row, :4], x)  # the live batch
    assert not group.staging[:, 4:].any()
    if writer == "add_member":
        assert fleet.member("extra").group is group
    server.close()


def test_same_architecture_swap_serves_the_new_weights_next_wave(tmp_path,
                                                                 generated):
    server, engine, models, x = _programmed(tmp_path, generated)
    for seed in (20, 21):
        models["b1"] = build_mlp2(ARCH, 5, 1, seed=seed)
        hot_swap_model(models["b1"], tmp_path / "b1.rnm",
                       [engine, server.fleet])
        outs = _wave(server, MEMBERS, x)
        assert generated == [MEMBERS]                # still the program
        for name in MEMBERS:
            assert np.array_equal(outs[name], _own(models[name], x)), name
    server.close()


def test_a_member_rebound_outside_the_wave_is_refreshed(tmp_path, generated):
    """Regression: a member whose parameters are rebound in place
    (``load_state_dict``) while it sits out the waves was never
    refreshed — the re-sync refreshed only the wave's own rows — so the
    plan stayed stale and every later wave missed its program.  One
    subset wave now folds the rebind into the member's slab row, keeps
    its program, and the member's next ride is its new weights."""
    server, _, models = _fleet(tmp_path)
    x = np.random.default_rng(7).random((4, 5))
    pair = ("b0", "b1")
    for _ in range(2):
        _wave(server, pair, x)
    plan = server.fleet.member("b3").group.plan
    models["b3"] = build_mlp2(ARCH, 5, 1, seed=40)
    server.fleet.member("b3").model.load_state_dict(
        models["b3"].state_dict())
    assert plan.stale()
    _wave(server, pair, x)
    assert not plan.stale()
    assert generated == [pair]                       # the program served
    outs = _wave(server, MEMBERS, x)
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
    assert MEMBERS in server._waves
    server.close()


@pytest.mark.parametrize("attach", ["qos", "breaker", "stream", "precision"])
def test_a_governed_member_leaves_the_program_until_detached(
        tmp_path, generated, attach):
    """Attaching a controller, a breaker, a stream or a ``precision`` to
    one member moves the wave off the program generated for the plain
    configuration (its guards compare what they captured by identity):
    the next wave generates one for the governed configuration, which
    serves every wave until the attachment is detached, when a plain
    one is generated again.  Governed, the member is decided once per
    wave and served as its single invocation would be — a float32
    ``precision`` on a float64 slab by its own forward, a controller, a
    breaker or a stream riding with the notes they add."""
    from repro.obs import read_stream
    from repro.qos import QoSController

    server, engine, models, x = _programmed(tmp_path, generated)
    plain = server._waves[MEMBERS]
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
    rides = server.fleet.member("b2").invocations
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
        assert server._waves[MEMBERS] is not plain
    assert len(generated) == 2                       # once, governed
    want = _own(models["b2"], x, np.float32 if attach == "precision"
                else np.float64)
    assert np.array_equal(outs["b2"], want)
    single = attach == "precision"
    assert server.fleet.member("b2").invocations == rides + 3 * (not single)
    assert server.fleet.last_timing["members_served"] == 4 - single
    if attach in ("qos", "breaker"):
        assert len(consulted) == 3                   # once per wave
        setattr(region.config, attach, None)
    elif attach == "stream":
        server.detach_stream()
        assert len(read_stream(tmp_path / "decisions.rh5")["binomial"]) \
            == 3 * len(MEMBERS)
    else:
        region.config.precision = None
    outs = _wave(server, MEMBERS, x)
    assert len(generated) == 3                       # plain again
    assert np.array_equal(outs["b2"], _own(models["b2"], x))
    server.close()


def test_disable_and_enable_fleets_drop_the_programs(tmp_path, generated):
    server, engine, models, x = _programmed(tmp_path, generated)
    old = server.fleet
    launches = old.device.kernel_launches
    server.disable_fleets()
    assert server._waves == server._programs == {}
    singles = engine.device.kernel_launches
    outs = _wave(server, MEMBERS, x)
    assert old.device.kernel_launches == launches    # nothing rode
    assert engine.device.kernel_launches == singles + len(MEMBERS)
    server.enable_fleets()
    for _ in range(3):
        outs = _wave(server, MEMBERS, x)
    assert server.fleet.device.kernel_launches == 3
    assert old.device.kernel_launches == launches
    assert generated == [MEMBERS, MEMBERS]
    for name in MEMBERS:
        assert np.array_equal(outs[name], _own(models[name], x))
    server.close()


def test_another_signature_gets_a_program_of_its_own(tmp_path, generated):
    """Another order of the same names, or a subset, is another
    signature: its first wave generates its program, which serves its
    later waves, and the first signature's program keeps serving its
    own waves."""
    server, _, models, x = _programmed(tmp_path, generated)
    assert server.invoke_fleet([]) == {}
    swapped = ("b1", "b0", "b2", "b3")
    for names in (swapped, SUBSET):
        for _ in range(3):
            outs = _wave(server, names, x)
            for name in names:
                assert np.array_equal(outs[name], _own(models[name], x))
        assert generated[-1] == names
        _wave(server, MEMBERS, x)
    assert generated == [MEMBERS, swapped, SUBSET]
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
