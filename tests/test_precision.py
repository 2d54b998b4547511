"""Mixed-precision inference: float32 plans under QoS governance.

The acceptance contract of the precision axis:

* ``compile_inference(model, dtype=np.float32)`` casts weights once at
  compile time and serves float32 end to end; the float64 default is
  untouched (same fingerprint, bitwise-identical outputs);
* engines key their plan caches on ``(model, dtype)`` and fall back to
  the float64 plan when narrowing is refused (conv-bearing models);
* a :class:`~repro.qos.PrecisionPolicy` governs ``precision="auto"``
  regions: shadow-sampled fp32-vs-fp64 divergence charges the error
  budget, trips a breaker-style demotion on breach, and probes back;
* decision streams, the fleet slab, and the shm transport all carry
  the negotiated dtype (the latter shipping half the bytes).
"""

import json
import math
import multiprocessing as mp

import numpy as np
import pytest

from repro import obs
from repro.api import approx_ml
from repro.h5 import File
from repro.nn import (Conv2d, Flatten, Linear, Module, Parameter, PlanStep,
                      ReLU, Sequential, Tanh, UnsupportedLayerError,
                      compile_fleet_inference, compile_inference,
                      register_lowering, save_model)
from repro.nn.plan import _buf
from repro.qos import (BudgetArbitrationPolicy, PrecisionPolicy,
                       QoSController)
from repro.runtime import BatchedInferenceEngine, InferenceEngine
from repro.serving.shm import RemoteEngineClient, WorkerHandle

pytestmark = pytest.mark.precision


def _mlp(seed=0, n_in=6, n_hidden=32, n_out=2):
    r = np.random.default_rng(seed)
    return Sequential(Linear(n_in, n_hidden, rng=r), Tanh(),
                      Linear(n_hidden, n_out, rng=r))


def _conv(seed=0):
    r = np.random.default_rng(seed)
    return Sequential(Conv2d(1, 4, 3, rng=r), ReLU(), Flatten(),
                      Linear(4 * 6 * 6, 2, rng=r))


# ----------------------------------------------------------------------
# Compiled-plan dtype parameterization
# ----------------------------------------------------------------------

def test_fp64_default_is_unchanged_by_dtype_machinery():
    """The float64 path must stay bitwise-identical to the historical
    plans: no input cast shim, float16 coercion."""
    model = _mlp()
    x = np.random.default_rng(1).standard_normal((16, 6))
    default = compile_inference(model)
    explicit = compile_inference(model, dtype=np.float64)
    assert default.dtype == np.float64 and default._cast is None
    assert np.array_equal(default(x), explicit(x))
    assert default(x).dtype == np.float64
    # The pre-existing float16 coercion survives on the default path.
    assert default(x.astype(np.float16)).dtype == np.float64


def test_f32_plan_serves_float32_and_tracks_f64():
    model = _mlp()
    x = np.random.default_rng(2).standard_normal((64, 6))
    p64 = compile_inference(model)
    p32 = compile_inference(model, dtype=np.float32)
    assert p32.dtype == np.float32
    y64, y32 = p64(x), p32(x)
    assert y32.dtype == np.float32
    rel = np.abs(y32 - y64).max() / (np.abs(y64).max() + 1e-12)
    assert rel < 1e-5


def test_f32_plan_casts_float64_inputs_once_at_entry():
    model = _mlp()
    p32 = compile_inference(model, dtype=np.float32)
    out = p32(np.ones((4, 6), dtype=np.float64))
    assert out.dtype == np.float32
    out16 = p32(np.ones((4, 6), dtype=np.float16))
    assert out16.dtype == np.float32


class _Undeclared(Module):
    """A layer whose plan step reads its weight without declaring it."""

    def __init__(self, n):
        super().__init__()
        self.weight = Parameter(np.eye(n))

    def forward(self, x):
        return x @ self.weight


class _UndeclaredStep(PlanStep):
    def __init__(self, layer, training):
        super().__init__(training)
        self.w = layer.weight.data

    def forward(self, x, n):
        return x @ self.w


@register_lowering(_Undeclared)
def _lower_undeclared(layer, ctx):
    ctx.emit(_UndeclaredStep(layer, ctx.training), "_Undeclared: matmul")


def _undeclared():
    return Sequential(Linear(6, 2, rng=np.random.default_rng(0)),
                      _Undeclared(2))


def test_f32_refused_for_a_step_that_declares_no_tensors():
    compile_inference(_undeclared())            # float64 reads live arrays
    with pytest.raises(UnsupportedLayerError, match="_Undeclared"):
        compile_inference(_undeclared(), dtype=np.float32)


def test_f32_conv_plan_narrows():
    x = np.random.default_rng(1).standard_normal((3, 1, 8, 8))
    y32 = compile_inference(_conv(), dtype=np.float32)(x)
    y64 = compile_inference(_conv())(x)
    assert y32.dtype == np.float32
    assert np.abs(y32 - y64).max() / (np.abs(y64).max() + 1e-12) < 1e-5


def _captured_arrays(plan) -> list:
    """The arrays every generated body of ``plan`` captures."""
    return [value for body in plan._bodies.values() if body is not None
            for value in body.__globals__.values()
            if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("fleet", [False, True])
@pytest.mark.parametrize("rows", [4, 64])
def test_narrowed_bodies_capture_no_float64_array(fleet, rows):
    """A float32 body's ReLU runs float32's loop: the 0-d zero it binds
    is of the plan's dtype (a float64 one promotes the ufunc to
    float64's loop with buffered casts), like every other array a
    narrowed body captures, single or fleet; the outputs do not move,
    a maximum with +0 being exact in either loop."""
    models = [_mlp(seed) for seed in range(3)]
    models.append(_conv())
    rng = np.random.default_rng(2)
    if fleet:
        plans = [compile_fleet_inference(models[:3], dtype=np.float32)]
        inputs = [rng.standard_normal((3, rows, 6))]
    else:
        plans = [compile_inference(models[0], dtype=np.float32),
                 compile_inference(models[3], dtype=np.float32)]
        inputs = [rng.standard_normal((rows, 6)),
                  rng.standard_normal((rows, 1, 8, 8))]
    for plan, x in zip(plans, inputs):
        first = plan(x).copy()
        for _ in range(2):                      # the second call: its body
            assert np.array_equal(plan(x), first)
        captured = _captured_arrays(plan)
        assert captured and not [a.dtype for a in captured
                                 if a.dtype == np.float64]


def test_unsupported_dtype_rejected():
    with pytest.raises(ValueError):
        compile_inference(_mlp(), dtype=np.int32)


# ----------------------------------------------------------------------
# Satellite: dtype promotion in plan scratch buffers
# ----------------------------------------------------------------------

def test_buf_reuses_same_dtype_scratch():
    s = {}
    a = _buf(s, "k", (4, 4))
    assert _buf(s, "k", (4, 4)) is a
    assert a.dtype == np.float64


def test_buf_reallocates_on_dtype_change():
    s = {}
    a = _buf(s, "k", (4, 4))
    b = _buf(s, "k", (4, 4), np.float32)
    assert b is not a and b.dtype == np.float32
    # And back: the narrow buffer must not leak into a wide reuse.
    c = _buf(s, "k", (4, 4))
    assert c is not b and c.dtype == np.float64


def test_f32_plan_keeps_dtype_across_batch_sizes():
    """Scratch reallocation on batch-size change must stay float32 —
    no silent promotion through ``result_type`` on mixed operands."""
    model = _mlp()
    p32 = compile_inference(model, dtype=np.float32)
    for n in (4, 32, 4, 128):
        out = p32(np.ones((n, 6)))
        assert out.dtype == np.float32


# ----------------------------------------------------------------------
# Engine plan caches keyed on dtype
# ----------------------------------------------------------------------

def test_engine_cache_keys_plans_on_dtype():
    engine = InferenceEngine()
    model = _mlp()
    p64 = engine.plan_for(model)
    p32 = engine.plan_for(model, dtype=np.float32)
    assert p64 is not p32
    assert engine.plan_for(model) is p64
    assert engine.plan_for(model, dtype=np.float32) is p32


def test_engine_f32_refusal_falls_back_to_cached_f64_plan():
    engine = InferenceEngine()
    model = _undeclared()
    p64 = engine.plan_for(model)
    fallback = engine.plan_for(model, dtype=np.float32)
    assert fallback is p64                  # served the wide plan
    # The refusal is cached: asking again must not re-lower the model.
    assert engine.plan_for(model, dtype=np.float32) is p64


def test_engine_infer_dtype_roundtrip(tmp_path):
    model = _mlp()
    save_model(model, tmp_path / "m.rnm")
    engine = InferenceEngine()
    x = np.random.default_rng(3).standard_normal((32, 6))
    y64 = engine.infer(tmp_path / "m.rnm", x)
    assert engine.last_timing["dtype"] == "float64"
    y32 = engine.infer(tmp_path / "m.rnm", x, dtype=np.float32)
    assert y32.dtype == np.float32
    assert engine.last_timing["dtype"] == "float32"
    assert np.abs(y32 - y64).max() < 1e-4


_MLP_DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:6] = ([i, 0:6]))
#pragma approx tensor functor(fo: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model}")
"""


def test_batched_engine_flushes_on_dtype_change(tmp_path):
    """A dtype switch is a batch boundary: of two regions sharing one
    queue at different precisions, the float64 call queued first lands
    before the float32 one enqueues, so one forward never mixes
    dtypes."""
    save_model(_mlp(), tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=1024)

    def region_at(name, precision):
        @approx_ml(_MLP_DIRECTIVES.format(model=tmp_path / "m.rnm"),
                   name=name, engine=engine, precision=precision)
        def region(x, y, N):
            y[:N] = 0.0
        return region

    wide, narrow = region_at("wide", None), region_at("narrow", "float32")
    x = np.ones((8, 6))
    a, b = np.zeros((8, 2)), np.zeros((8, 2))
    wide(x, a, 8)
    assert not a.any()                      # still queued
    narrow(x, b, 8)
    assert a.any() and not b.any()          # flushed by the switch
    assert engine.batches_flushed == 1
    assert engine.last_timing["dtype"] == "float64"
    engine.flush()
    assert engine.last_timing["dtype"] == "float32"
    assert narrow.events.records[-1].notes["precision"] == "float32"
    assert np.abs(b - a).max() < 1e-4


# ----------------------------------------------------------------------
# Fleet slab narrowing
# ----------------------------------------------------------------------

def test_fleet_plan_f32_stacks_and_tracks_members():
    models = [_mlp(seed=s) for s in range(3)]
    x = np.random.default_rng(4).standard_normal((16, 6))
    plan = compile_fleet_inference(models, dtype=np.float32)
    assert plan.dtype == np.float32 and plan.slab.dtype == np.float32
    out = plan(x)
    assert out.dtype == np.float32 and out.shape[0] == 3
    for k, model in enumerate(models):
        ref = compile_inference(model)(x)
        rel = np.abs(out[k] - ref).max() / (np.abs(ref).max() + 1e-12)
        assert rel < 1e-5


@pytest.mark.parametrize("k", [4, 8, 16])
def test_fleet_f32_slab_is_half_the_f64_slab(k):
    models = [_mlp(seed=s) for s in range(k)]
    wide = compile_fleet_inference(models)
    narrow = compile_fleet_inference(models, dtype=np.float32)
    assert wide.slab.shape == narrow.slab.shape and wide.slab.shape[0] == k
    assert 2 * narrow.slab.nbytes == wide.slab.nbytes


def test_fleet_f32_hot_swap_casts_on_row_copy():
    models = [_mlp(seed=s) for s in range(3)]
    plan = compile_fleet_inference(models, dtype=np.float32)
    before = plan.member_digest(1)
    replacement = _mlp(seed=9)              # float64 weights
    plan.replace_member(1, replacement)
    assert plan.member_digest(1) != before
    assert plan.slab.dtype == np.float32    # cast landed on the copy
    x = np.random.default_rng(5).standard_normal((8, 6))
    ref = compile_inference(replacement)(x)
    got = plan(x)[1]
    rel = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-12)
    assert rel < 1e-5


# ----------------------------------------------------------------------
# PrecisionPolicy governance
# ----------------------------------------------------------------------

def test_policy_warmup_always_samples():
    pol = PrecisionPolicy(warmup=3, sample_rate=0.0)
    for _ in range(3):
        assert pol.precision_for("r") == "float32"
        assert pol.should_sample("r")
        pol.observe("r", np.zeros(4), np.zeros(4))
    # Past warmup, the 0.0 Bernoulli rate never samples again.
    assert not pol.should_sample("r")


def test_policy_trips_probes_and_recovers():
    pol = PrecisionPolicy(high=1e-3, low=1e-4, warmup=1,
                          probe_interval=4, alpha=1.0)
    ones = np.ones(8)
    assert pol.precision_for("r") == "float32"
    pol.observe("r", ones * 1.01, ones)     # 1e-2 rel error > high
    assert pol.tripped("r")
    # Demoted: float64 until recovery, probing every 4th invocation.
    probes = [pol.precision_for("r") == "float64" and
              pol.should_sample("r") for _ in range(8)]
    assert sum(probes) == 2                 # since 1..8 -> probes at 4, 8
    pol.observe("r", ones, ones)            # clean probe: err 0 <= low
    assert not pol.tripped("r")
    snap = pol.snapshot()["regions"]["r"]
    assert snap["demotions"] == 1 and snap["promotions"] == 1


def test_policy_charges_divergence_to_qos_budget():
    charges = []

    class FakeQoS:
        def charge_budget(self, region, err):
            charges.append((region, err))
            return True

    pol = PrecisionPolicy(warmup=1)
    err = pol.observe("r", np.ones(4) * 1.001, np.ones(4), qos=FakeQoS())
    assert charges == [("r", err)] and err > 0


def test_policy_ctor_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(high=0.0)
    with pytest.raises(ValueError):
        PrecisionPolicy(high=1e-5, low=1e-4)
    with pytest.raises(ValueError):
        PrecisionPolicy(probe_interval=0)


def test_controller_charge_budget_spends_arbiter_ledger():
    arb = BudgetArbitrationPolicy(1.0, charge="linear")
    qos = QoSController(policy=arb)
    assert qos.charge_budget("r", 0.25)
    assert arb._global_spent == pytest.approx(0.25)
    assert arb._region("r")["spent"] == pytest.approx(0.25)
    # Controllers without a chargeable policy refuse gracefully.
    assert not QoSController().charge_budget("r", 0.1)


def test_controller_snapshot_and_reset_cover_precision():
    pol = PrecisionPolicy(warmup=1)
    qos = QoSController(precision_policy=pol)
    pol.observe("r", np.ones(4), np.ones(4))
    assert "r" in qos.snapshot()["precision"]["regions"]
    qos.reset_region("r")
    assert "r" not in pol.snapshot()["regions"]


# ----------------------------------------------------------------------
# Region-level routing (the RegionConfig.precision knob)
# ----------------------------------------------------------------------

DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:flag) in(x) out(y) db("{db}") model("{model}")
"""


def _identity_model(path):
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[1.0, 1.0]])
    model[0].bias.data = np.array([0.0])
    save_model(model, path)


def _make_region(tmp_path, name, **kwargs):
    _identity_model(tmp_path / f"{name}.rnm")

    @approx_ml(DIRECTIVES.format(db=tmp_path / f"{name}.rh5",
                                 model=tmp_path / f"{name}.rnm"),
               name=name, **kwargs)
    def region(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    return region


def test_region_config_rejects_unknown_precision(tmp_path):
    with pytest.raises(ValueError):
        _make_region(tmp_path, "bad", precision="bfloat16")


def test_region_float32_serves_narrowed_plan(tmp_path):
    region = _make_region(tmp_path, "narrow", precision="float32")
    x = np.random.default_rng(6).random((32, 2))
    y = np.zeros(32)
    region(x, y, 32, flag=True)
    assert region.engine.last_timing["dtype"] == "float32"
    # Committed app outputs stay float64 (scatter into the app array).
    assert y.dtype == np.float64
    np.testing.assert_allclose(y, x.sum(axis=1), rtol=1e-5)
    region.close()


@pytest.mark.parametrize("auto_batch", [False, True],
                         ids=["immediate", "queue"])
def test_record_notes_the_precision_that_served(tmp_path, auto_batch):
    """Regression: the record noted the float32 that was asked for while
    the engine served its float64 fallback plan."""
    region = _make_region(tmp_path, "served", precision="float32",
                          auto_batch=auto_batch)
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)),
                       _Undeclared(1))
    region.engine.cache.put(tmp_path / "served.rnm", model)
    region(np.ones((8, 2)), np.zeros(8), 8, flag=True)
    region.flush()
    assert region.engine.last_timing["dtype"] == "float64"
    notes = {r.notes["precision"] for r in region.events.records
             if r.region == "served"}
    assert notes == {"float64"}
    region.close()


def test_region_auto_samples_governs_and_records(tmp_path):
    pol = PrecisionPolicy(sample_rate=1.0, warmup=0, seed=0)
    qos = QoSController(precision_policy=pol, shadow_rate=0.0)
    region = _make_region(tmp_path, "gov", precision="auto", qos=qos)
    x = np.random.default_rng(7).random((16, 2))
    y = np.zeros(16)
    for _ in range(5):
        region(x, y, 16, flag=True)
    np.testing.assert_allclose(y, x.sum(axis=1), rtol=1e-5)
    snap = pol.snapshot()["regions"]["gov"]
    assert snap["count"] == 5
    assert snap["samples"] == 5             # rate 1.0: every invocation
    assert snap["ewma"] is not None and snap["ewma"] < 1e-5
    assert not snap["tripped"]
    # Observability: the precision path counter and divergence histogram.
    metrics = obs.snapshot()["metrics"]["metrics"]
    paths = [s for s in metrics.get("precision_path", ())
             if s["labels"].get("region") == "gov"]
    assert sum(s["value"] for s in paths) >= 5
    divs = [s for s in metrics.get("precision_divergence", ())
            if s["labels"].get("region") == "gov"]
    assert divs and divs[0]["count"] >= 5
    region.close()


def test_region_auto_demotes_to_f64_on_breach(tmp_path):
    # An impossible threshold: the very first sample trips the governor.
    pol = PrecisionPolicy(high=1e-30, sample_rate=1.0, warmup=1, seed=0)
    qos = QoSController(precision_policy=pol, shadow_rate=0.0)
    region = _make_region(tmp_path, "demote", precision="auto", qos=qos)
    x = np.random.default_rng(8).random((8, 2))
    y = np.zeros(8)
    region(x, y, 8, flag=True)              # sampled, tripped
    assert pol.tripped("demote")
    region(x, y, 8, flag=True)              # demoted: wide plan serves
    assert region.engine.last_timing["dtype"] == "float64"
    region.close()


def test_region_default_path_untouched(tmp_path):
    region = _make_region(tmp_path, "plain")
    x = np.ones((8, 2))
    y = np.zeros(8)
    region(x, y, 8, flag=True)
    assert region.engine.last_timing["dtype"] == "float64"
    region.close()


@pytest.mark.parametrize("slab", [np.float64, np.float32],
                         ids=["slab64", "slab32"])
@pytest.mark.parametrize("precision", ["float64", "float32", "auto"])
def test_fleet_wave_serves_the_dtype_the_single_model_path_notes(
        tmp_path, precision, slab):
    """``invoke_fleet`` ≡ ``invoke`` for a region with a ``precision``
    knob, whatever the fleet's slab dtype: bitwise outputs and the same
    record notes.  A literal naming the slab dtype rides the stacked
    forward; ``"auto"`` and a literal the slab is not take the
    single-model path inside the wave.  (Regression: the wave used to
    serve every enrolled region at the slab dtype and note nothing.)"""
    from repro.runtime import EventLog
    from repro.serving import RegionServer

    server = RegionServer()
    logs = {name: EventLog() for name in ("wave", "solo", "peer")}
    for name, log in logs.items():
        server.register(_make_region(
            tmp_path, name, event_log=log,
            precision=None if name == "peer" else precision))
        save_model(_mlp(seed=1 if name == "peer" else 0, n_in=2, n_out=1),
                   tmp_path / f"{name}.rnm")
    formed = server.enable_fleets(["wave", "peer"], dtype=slab)
    assert list(formed.values()) == [["wave", "peer"]]
    rng = np.random.default_rng(11)
    for _ in range(6):                      # past the governor's warm-up
        x = rng.random((8, 2))
        y_wave, y_solo = np.zeros(8), np.zeros(8)
        server.invoke_fleet(
            [("wave", (x, y_wave, 8), {"flag": True}),
             ("peer", (x, np.zeros(8), 8), {"flag": True})])
        server.invoke("solo", x, y_solo, 8, flag=True)
        assert np.array_equal(y_wave, y_solo)
    rides = precision == np.dtype(slab).name
    assert server.fleet.member("wave").invocations == (6 if rides else 0)
    notes = {name: [r.notes for r in log.records]
             for name, log in logs.items()}
    assert notes["wave"] == notes["solo"]
    assert all(n["precision"] in ("float64", "float32")
               for n in notes["wave"])
    server.close()


_TABLE4_ARCHS = {
    "binomial": {"hidden1_features": 48, "hidden2_features": 24},
    "bonds": {"hidden1_features": 48, "hidden2_features": 24},
    "minibude": {"num_hidden_layers": 2, "hidden1_size": 64,
                 "feature_multiplier": 0.6},
}


@pytest.mark.parametrize("app", sorted(_TABLE4_ARCHS))
def test_governed_auto_stays_within_budget_on_table1_harness(tmp_path, app):
    """``precision="auto"`` on a deployed Table I harness: the governor
    measures at least one fp32-vs-fp64 divergence, keeps serving
    float32, and the QoI moves by at most a quarter of the float64
    deployment's own error (the cap the QoS policies are held to)."""
    from repro.apps.harness import harness_for
    from repro.nn import Trainer

    sizes = dict(n_train=256, n_test=128, deploy_chunk=16)
    if app == "binomial":
        sizes["n_steps"] = 16
    harness = harness_for(app, tmp_path, **sizes)
    harness.collect()
    (xt, yt), (xv, yv) = harness.training_arrays()
    model = harness.make_builder(xt, yt)(_TABLE4_ARCHS[app], seed=0)
    Trainer(model, max_epochs=5, lr=3e-3, batch_size=128,
            seed=0).fit(xt, yt, xv, yv)
    base = harness.evaluate(model, repeats=1)           # float64
    pol = PrecisionPolicy(sample_rate=0.1, seed=7)
    qos = QoSController(shadow_rate=0.0, seed=7, precision_policy=pol)
    region = harness.deploy_region
    region.config.precision = "auto"
    try:
        governed = harness.deploy_with_qos(model, qos)
    finally:
        region.config.precision = None
    snap = pol.snapshot()["regions"][region.name]
    assert snap["samples"] >= 1 and snap["demotions"] == 0
    assert region.engine.last_timing["dtype"] == "float32"
    assert abs(governed.qoi_error - base.qoi_error) \
        <= 0.25 * base.qoi_error


# ----------------------------------------------------------------------
# Satellite: descriptor-cache LRU (cold-key storms keep hot keys)
# ----------------------------------------------------------------------

def test_map_cache_storm_keeps_hot_keys(tmp_path):
    """Regression: the cache used to clear() wholesale past 64 entries,
    so a storm of cold buffers evicted the hot working set too.  Under
    LRU, keys touched every iteration survive any number of cold keys."""
    region = _make_region(tmp_path, "lru")
    hot_x, hot_y = np.random.default_rng(9).random((8, 2)), np.zeros(8)
    region(hot_x, hot_y, 8, flag=True)
    hot_keys = set(region._map_cache)
    assert hot_keys
    cold = [np.random.default_rng(i).random((8, 2)) for i in range(100)]
    for x in cold:
        region(hot_x, hot_y, 8, flag=True)  # touch hot
        region(x, np.zeros(8), 8, flag=True)  # one cold insert
    assert len(region._map_cache) <= 64     # bounded
    assert hot_keys <= set(region._map_cache)  # hot keys survived
    region.close()


# ----------------------------------------------------------------------
# Decision streams carry the precision column
# ----------------------------------------------------------------------

def test_stream_precision_round_trip(tmp_path):
    path = tmp_path / "s.rh5"
    with obs.DecisionStream(path) as stream:
        stream.record("r", digest=1, path="infer", precision="float32")
        stream.record("r", digest=2, path="infer")
    replay = obs.read_stream(path)
    assert replay["r"][0]["precision"] == "float32"
    assert replay["r"][1]["precision"] is None


def _write_width4_stream(path):
    """A pre-precision stream file, as the old writer laid it out."""
    with File(path, "w", atomic=True) as fh:
        fh.attrs["schema"] = "repro-decision-stream-v1"
        group = fh.require_group("r")
        group.require_dataset("codes", (4,), np.int64).append(
            np.array([[7, 0, -1, -1]], dtype=np.int64))
        group.require_dataset("values", (2,), np.float64).append(
            np.array([[math.nan, math.nan]]))
        group.attrs["paths"] = json.dumps(["infer"])
        group.attrs["reasons"] = json.dumps([])
        group.attrs["breakers"] = json.dumps([])


def test_stream_reads_pre_precision_width4_files(tmp_path):
    path = tmp_path / "old.rh5"
    _write_width4_stream(path)
    replay = obs.read_stream(path)
    assert replay["r"][0]["path"] == "infer"
    assert replay["r"][0]["precision"] is None


def test_stream_append_keeps_old_file_width(tmp_path):
    path = tmp_path / "old.rh5"
    _write_width4_stream(path)
    stream = obs.DecisionStream(path)
    stream.record("r", digest=8, path="infer", precision="float32")
    stream.close()
    replay = obs.read_stream(path)
    assert len(replay["r"]) == 2
    # The appended row dropped its precision code (width preserved).
    assert replay["r"][1]["precision"] is None


# ----------------------------------------------------------------------
# shm transport dtype negotiation
# ----------------------------------------------------------------------

def test_shm_f32_halves_shipped_bytes(tmp_path):
    model = _mlp()
    save_model(model, tmp_path / "m.rnm")
    handle = WorkerHandle(0, mp.get_context("fork"))
    try:
        client = RemoteEngineClient(handle)
        x = np.random.default_rng(10).standard_normal((64, 6))
        y64, t64 = client.infer(tmp_path / "m.rnm", x)
        b64 = client.bytes_shipped
        y32, t32 = client.infer(tmp_path / "m.rnm", x, dtype=np.float32)
        b32 = client.bytes_shipped - b64
        assert y64.dtype == np.float64 and y32.dtype == np.float32
        assert t64["dtype"] == "float64" and t32["dtype"] == "float32"
        assert b64 == 2 * b32               # exactly half the bytes
        assert np.abs(y32 - y64).max() < 1e-4
        assert client.pickle_fallbacks == 0
        client.close()
    finally:
        handle.close()

