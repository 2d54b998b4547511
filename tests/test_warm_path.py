"""Differential: the warm plain invocation ≡ the general path.

A *plain* call — the directive decides INFER, the engine is an immediate
``InferenceEngine``, and no QoS controller, breaker, ``precision`` or
decision stream is attached — runs ``ApproxRegion._run_infer``'s plain
branch straight from ``__call__``: the warm bind, the engine's
epoch-keyed plan memo and the plan's generated straight-line body.  The
general path is ``invoke_decided``.  Both must land the same bits, the
same record phases in the same order and the same errors; every writer
of what the warm path caches (the configuration, the model cache's
hot-swap points, parameter rebinding, in-place updates, the working
directory of a relative model path, the fleet's staging batch) must be
seen by the next call.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.apps import binomial
from repro.bridge import BridgeError
from repro.nn import compile_fleet_inference, compile_inference, save_model
from repro.runtime import EventLog
from repro.runtime.batch import BatchedInferenceEngine
from repro.search.builders import build_mlp2
from repro.serving import RegionServer, hot_swap_model

ARCH = {"hidden1_features": 48, "hidden2_features": 24}


def _model(seed):
    return build_mlp2(ARCH, 5, 1, seed=seed)


def _region(tmp_path, model_path, name="m"):
    return binomial.build_region(
        mode="infer", n_steps=16, db_path=str(tmp_path / f"{name}.rh5"),
        model_path=str(model_path), event_log=EventLog())


@pytest.fixture
def warm(tmp_path):
    path = tmp_path / "m.rnm"
    save_model(_model(0), path)
    region = _region(tmp_path, path)
    spy = []
    general = region.invoke_decided

    def counted(*args, **kwargs):
        spy.append(1)
        return general(*args, **kwargs)

    region.invoke_decided = counted
    yield region, path, spy
    region.close()


def _general(region, *args, **kwargs):
    env = region._bind_env(args, kwargs)
    path, decision = region.path_decision(env)
    return region.invoke_decided(env, path, decision, args, kwargs)


def _expect(model, x):
    return compile_inference(model)(x).reshape(-1)


def test_warm_call_matches_general_path_bitwise(warm):
    region, _, spy = warm
    rng = np.random.default_rng(1)
    for rows in (16, 16, 16, 7, 16, 7, 7):     # warm, then geometry moves
        x = rng.random((rows, 5))
        fast, slow = np.zeros(rows), np.zeros(rows)
        region(x, fast, rows, use_model=True)
        fast_phases = list(region.events.records[-1].times)
        _general(region, x, slow, rows, use_model=True)
        assert np.array_equal(fast, slow)
        assert fast_phases == list(region.events.records[-1].times)
        assert all(rec.finished for rec in region.events.records)
    assert len(spy) == 7                        # the general calls only


@pytest.mark.parametrize("case", ["not_ndarray", "read_only", "missing"])
def test_warm_and_general_refuse_alike(warm, case):
    region, _, _ = warm
    x, out = np.random.default_rng(2).random((4, 5)), np.zeros(4)
    region(x, out, 4, use_model=True)           # warm
    if case == "not_ndarray":
        args = (x.tolist(), out, 4)
    elif case == "read_only":
        out.flags.writeable = False
        args = (x, out, 4)
    else:
        args = (x, None, 4)
    errors = []
    for call in (region, lambda *a, **k: _general(region, *a, **k)):
        with pytest.raises(BridgeError) as info:
            call(*args, use_model=True)
        errors.append((type(info.value), str(info.value)))
        assert region.events.records[-1].notes == {"error": "BridgeError"}
    assert errors[0] == errors[1]


def test_attached_governance_leaves_the_warm_path(warm, tmp_path):
    from repro.obs import DecisionStream
    from repro.qos import QoSController
    from repro.resilience import CircuitBreaker

    region, _, spy = warm
    x, out = np.random.default_rng(3).random((8, 5)), np.zeros(8)
    region(x, out, 8, use_model=True)
    assert spy == []
    config = region.config
    stream = DecisionStream(tmp_path / "d.rh5")
    attachments = [
        ("qos", lambda: setattr(config, "qos", QoSController(seed=0)),
         lambda: setattr(config, "qos", None)),
        ("breaker", lambda: setattr(config, "breaker", CircuitBreaker()),
         lambda: setattr(config, "breaker", None)),
        ("precision", lambda: setattr(config, "precision", "float64"),
         lambda: setattr(config, "precision", None)),
        ("stream", lambda: setattr(region.events, "stream", stream),
         lambda: setattr(region.events, "stream", None)),
        ("engine", lambda: region.swap_engine(
            BatchedInferenceEngine(region.engine)),
         lambda: region.swap_engine(region.engine.inner)),
    ]
    for name, attach, detach in attachments:
        attach()
        region(x, out, 8, use_model=True)
        region.flush()
        assert len(spy) == 1, name
        detach()
        region(x, out, 8, use_model=True)       # warm again
        assert len(spy) == 1, name
        spy.clear()
    stream.close()


@pytest.mark.parametrize("hold_old", [False, True])
def test_hot_swap_serves_the_new_weights_next_call(warm, hold_old):
    """A swapped-out model someone still holds keeps its plan current:
    only the cache's epoch tells the memo that the path moved on."""
    region, path, _ = warm
    x, out = np.random.default_rng(4).random((16, 5)), np.zeros(16)
    for _ in range(3):
        region(x, out, 16, use_model=True)
    old = region.engine.cache.get(path) if hold_old else None
    new = _model(7)
    hot_swap_model(new, path, [region.engine])
    region(x, out, 16, use_model=True)
    assert np.array_equal(out, _expect(new, x))
    assert old is None or region.engine.cache.get(path) is not old


def test_load_state_dict_recompiles_and_in_place_updates_flow(warm):
    region, path, _ = warm
    engine = region.engine
    x, out = np.random.default_rng(5).random((16, 5)), np.zeros(16)
    for _ in range(3):
        region(x, out, 16, use_model=True)
    model = engine.cache.get(path)
    old = engine.plan_for(model)
    model.load_state_dict(_model(9).state_dict())       # rebinds arrays
    region(x, out, 16, use_model=True)
    assert engine.plan_for(model) is not old
    assert np.array_equal(out, _expect(_model(9), x))
    for _ in range(2):
        region(x, out, 16, use_model=True)              # body again
    plan = engine.plan_for(model)
    assert plan._bodies[x.shape, x.dtype] is not None
    weight = model.parameters()[0].data
    weight += 0.25                                      # in place
    region(x, out, 16, use_model=True)
    assert engine.plan_for(model) is plan
    assert np.array_equal(out, _expect(model, x))


def test_relative_model_path_re_resolves_per_working_directory(
        tmp_path, monkeypatch):
    for name, seed in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        save_model(_model(seed), tmp_path / name / "m.rnm")
    region = _region(tmp_path, "m.rnm")
    x, out = np.random.default_rng(6).random((16, 5)), np.zeros(16)
    for name, seed in (("a", 1), ("b", 2), ("a", 1), ("b", 2)):
        monkeypatch.chdir(tmp_path / name)
        for _ in range(3):
            region(x, out, 16, use_model=True)
            assert np.array_equal(out, _expect(_model(seed), x))
    assert not any(os.path.basename(str(key[0])) == "m.rnm"
                   for key in region.engine._memo)
    region.close()


def test_first_forward_after_hot_swap_adopts_the_retired_scratch(warm):
    """Regression: a plan memo that held the model kept a swapped-out
    model alive, so no dead donor existed and the post-swap plan
    allocated fresh scratch."""
    region, path, _ = warm
    engine = region.engine
    x, out = np.random.default_rng(8).random((16, 5)), np.zeros(16)
    for _ in range(3):
        region(x, out, 16, use_model=True)
    old_model = weakref.ref(engine.cache.get(path))
    old_plan = engine.plan_for(old_model())
    scratch = [dict(step._bufs) for step in old_plan._steps]
    assert any(scratch)
    del old_plan
    gc.disable()
    try:
        engine.cache.invalidate(path)
        assert old_model() is None               # no cycle, no memo pin
        region(x, out, 16, use_model=True)       # first forward: adopts
    finally:
        gc.enable()
    plan = engine.plan_for(engine.cache.get(path))
    for step, bufs in zip(plan._steps, scratch):
        for n, arr in bufs.items():
            assert step._bufs[n] is arr


def test_fleet_riders_stay_bitwise_member_plans(tmp_path):
    server = RegionServer()
    models = [_model(seed) for seed in range(4)]
    for k, model in enumerate(models):
        path = tmp_path / f"m{k}.rnm"
        save_model(model, path)
        server.register(_region(tmp_path, path, name=f"r{k}"), name=f"b{k}")
    server.enable_fleets()
    rng = np.random.default_rng(10)
    for rows in (4, 4, 4, 6, 6, 4, 4):          # restage, realloc, back
        x = rng.random((rows, 5))
        outs = [np.zeros(rows) for _ in models]
        server.invoke_fleet([(name, (x, out, rows), {"use_model": True})
                             for name, out in zip(server.names, outs)])
        for model, out in zip(models, outs):
            assert np.array_equal(out, _expect(model, x))
    swapped = _model(11)
    hot_swap_model(swapped, tmp_path / "m2.rnm", [server.fleet])
    models[2] = swapped
    for _ in range(3):
        x = rng.random((4, 5))
        outs = [np.zeros(4) for _ in models]
        server.invoke_fleet([(name, (x, out, 4), {"use_model": True})
                             for name, out in zip(server.names, outs)])
        for model, out in zip(models, outs):
            assert np.array_equal(out, _expect(model, x))
    server.close()


# ----------------------------------------------------------------------
# The plan bodies are derived copies: each writer of what they capture
# drops them (DESIGN.md §5).
# ----------------------------------------------------------------------

def _served_twice(plan, x):
    for _ in range(2):
        plan(x)
    assert plan._bodies[x.shape, x.dtype] is not None


def test_clear_past_sixteen_batch_sizes_drops_bodies():
    model = _model(0)
    plan, rng = compile_inference(model), np.random.default_rng(12)
    x = rng.random((3, 5))
    _served_twice(plan, x)
    for rows in range(20, 37):                  # 17 new batch sizes
        plan(rng.random((rows, 5)))
    assert (x.shape, x.dtype) not in plan._bodies
    for _ in range(3):
        assert np.array_equal(plan(x), _expect(model, x).reshape(-1, 1))


def test_bind_params_drops_bodies():
    models = [_model(seed) for seed in range(3)]
    plan = compile_fleet_inference(models)
    x = np.random.default_rng(13).random((3, 4, 5))
    _served_twice(plan, x)
    step = plan._steps[0]
    step.bind_params([step.w, step.b[..., 0, :]])
    assert not plan._bodies


def test_adopt_scratch_drops_both_plans_bodies():
    x = np.random.default_rng(14).random((4, 5))
    old, new = compile_inference(_model(0)), compile_inference(_model(1))
    _served_twice(old, x)
    _served_twice(new, x)
    assert new.adopt_scratch(old)
    assert not old._bodies and not new._bodies
    assert np.array_equal(new(x), _expect(_model(1), x).reshape(-1, 1))


def test_refresh_member_drops_bodies_and_serves_the_new_row():
    models = [_model(seed) for seed in range(3)]
    plan = compile_fleet_inference(models)
    x = np.random.default_rng(15).random((3, 4, 5))
    _served_twice(plan, x)
    models[1].load_state_dict(_model(21).state_dict())
    assert plan.stale_members([0, 1, 2]) == [1]
    plan.refresh_member(1)
    assert not plan._bodies
    for _ in range(3):
        out = plan(x)
    for k, model in enumerate(models):
        assert np.array_equal(out[k], compile_inference(model)(x[k]))
