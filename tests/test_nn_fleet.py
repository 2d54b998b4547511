"""Fleet GEMM: stacked cross-model execution for serving and NAS.

Satellite acceptance for the fleet subsystem:

* stacked forward rows are **bitwise** each member's own compiled
  forward on Table IV MLP shapes;
* batched training gradients match the autodiff graph at <= 1e-10
  for K in {1, 2, 8};
* hot-swapping one member rewrites exactly one slab row (no other
  member disturbed, no plan rebuild);
* fleet early-stopping retires each member at exactly the epoch its
  own sequential ``Trainer`` would stop, with bitwise-equal history;
* structurally mixed groups refuse (``UnsupportedLayerError``);
* the serving lane batches same-fingerprint regions through one
  stacked forward while a member decided onto the accurate path runs
  its normal single-model invocation.
"""

import functools
import warnings

import numpy as np
import pytest

from repro.nn import (GRU, SGD, Adam, BatchNorm1d, Conv2d, Destandardize,
                      Dropout,
                      Flatten, FleetTrainer, LayerNorm, LeakyReLU, Linear,
                      Module, PlanStep, ReLU, Sequential, Sigmoid,
                      Standardize, Tanh, Tensor, Trainer,
                      UnsupportedLayerError, compile_fleet_inference,
                      compile_fleet_training, compile_inference,
                      compile_training, huber_loss, l1_loss, mape_loss,
                      mse_loss, register_lowering, save_model)
from repro.search.builders import build_mlp2

pytestmark = pytest.mark.fleet

PARITY = 1e-10

#: Table IV mlp2 architectures (best-found plus a 1-hidden-layer case).
TABLE_IV_MLP2 = [(418, 333), (57, 37), (64, 0)]


# ----------------------------------------------------------------------
# Stacked forward: bitwise parity with per-member compiled plans
# ----------------------------------------------------------------------

@pytest.mark.parametrize("h1,h2", TABLE_IV_MLP2)
def test_fleet_forward_bitwise_on_table_iv_shapes(h1, h2):
    cfg = {"hidden1_features": h1, "hidden2_features": h2}
    models = [build_mlp2(cfg, 6, 1, seed=s) for s in range(4)]
    fleet = compile_fleet_inference(models)
    x = np.random.default_rng(0).normal(size=(32, 6))
    stacked = fleet(x)
    for k, model in enumerate(models):
        single = compile_inference(model)(x)
        assert np.abs(stacked[k] - single).max() == 0.0


def test_fleet_forward_accepts_stacked_member_batches():
    cfg = {"hidden1_features": 11, "hidden2_features": 5}
    models = [build_mlp2(cfg, 4, 2, seed=s) for s in range(3)]
    fleet = compile_fleet_inference(models)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(3, 16, 4))           # per-member inputs
    stacked = fleet(xs)
    for k, model in enumerate(models):
        single = compile_inference(model)(xs[k])
        assert np.abs(stacked[k] - single).max() == 0.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fleet_forward_bitwise_with_standardize_heads(dtype):
    """Regression: every harness-trained Table I surrogate carries a
    Standardize head (and usually a Destandardize tail); the fleet slab
    used to compute the standardize reciprocal before the stat views
    were bound (``1.0 / None``), so such models could not form a fleet."""
    def member(seed):
        rng = np.random.default_rng(seed)
        core = build_mlp2({"hidden1_features": 13, "hidden2_features": 7},
                          5, 2, seed=seed)
        return Sequential(
            Standardize(rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)),
            *core,
            Destandardize(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)))

    def rows_match(fleet, models):
        stacked = fleet(x)
        for k, model in enumerate(models):
            single = compile_inference(model, dtype=dtype)(x)
            assert stacked[k].dtype == single.dtype
            if dtype is np.float64:
                assert np.array_equal(stacked[k], single)   # bitwise
            else:
                # The narrowed slab takes the reciprocal in float32, the
                # single plan narrows a float64 reciprocal: last-ulp.
                np.testing.assert_allclose(stacked[k], single, rtol=1e-5)

    models = [member(s) for s in range(3)]
    fleet = compile_fleet_inference(models, dtype=dtype)
    x = np.random.default_rng(4).normal(size=(16, 5))
    rows_match(fleet, models)
    # Hot-swapping a member recomputes its reciprocal row and leaves
    # the others' untouched.
    models[1] = member(9)
    fleet.replace_member(1, models[1])
    rows_match(fleet, models)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("headed", [False, True], ids=["bare", "headed"])
def test_fleet_rows_are_member_plans_bitwise_at_either_dtype(dtype, headed):
    """Regression: a float32 slab took ``1/std`` of the rounded ``std``
    while the member's float32 plan rounds the float64 reciprocal, so
    headed rows were 1.2e-7 off.  Both now derive it from the live
    float64 array and round once."""
    def member(seed):
        r = np.random.default_rng(seed)
        core = [Linear(5, 8, rng=r), Tanh(), Linear(8, 2, rng=r)]
        if not headed:
            return Sequential(*core)
        return Sequential(
            Standardize(r.normal(size=5), r.uniform(0.5, 2.0, size=5)),
            *core,
            Destandardize(r.normal(size=2), r.uniform(0.5, 2.0, size=2)))

    models = [member(s) for s in range(6)]
    fleet = compile_fleet_inference(models, dtype=dtype)
    x = np.random.default_rng(4).normal(size=(16, 5))
    stacked = fleet(x)
    for k, model in enumerate(models):
        single = compile_inference(model, dtype=dtype)(x)
        assert stacked[k].dtype == single.dtype == dtype
        assert np.array_equal(stacked[k], single)


# ----------------------------------------------------------------------
# Batched training: gradient parity with the autodiff graph
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 8])
def test_fleet_training_grad_parity(k):
    cfg = {"hidden1_features": 12, "hidden2_features": 7}
    models = [build_mlp2(cfg, 3, 2, seed=s) for s in range(k)]
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 3))
    y = rng.normal(size=(16, 2))
    plan = compile_fleet_training(models, mse_loss)
    losses = plan.train_batch(x, y)
    for m, model in enumerate(models):
        # train_batch leaves the member models' live parameters (and
        # .grad slots) untouched, so the graph backward on the same
        # objects is an independent reference.
        model.train()
        model.zero_grad()
        loss = mse_loss(model(Tensor(x)), Tensor(y))
        loss.backward()
        row = plan.row_of[m]
        assert abs(losses[row] - loss.item()) <= PARITY
        for (step, si, lo, hi, shape) in plan._psegs:
            holder, _attr = step.param_sources()[si][row]
            got = plan.grads[row, lo:hi].reshape(shape)
            assert np.abs(got - holder.grad).max() <= PARITY


# ----------------------------------------------------------------------
# Hot swap: one slab row, nothing else
# ----------------------------------------------------------------------

def test_hot_swap_rewrites_exactly_one_slab_row():
    cfg = {"hidden1_features": 9, "hidden2_features": 5}
    models = [build_mlp2(cfg, 4, 1, seed=s) for s in range(3)]
    plan = compile_fleet_inference(models)
    before = plan.slab.copy()
    digests = [plan.member_digest(k) for k in range(3)]

    new = build_mlp2(cfg, 4, 1, seed=9)
    plan.replace_member(1, new)
    assert np.array_equal(plan.slab[0], before[0])
    assert np.array_equal(plan.slab[2], before[2])
    assert not np.array_equal(plan.slab[1], before[1])
    assert plan.member_digest(0) == digests[0]
    assert plan.member_digest(1) != digests[1]
    assert plan.member_digest(2) == digests[2]

    x = np.random.default_rng(2).normal(size=(8, 4))
    out = plan(x)
    assert np.abs(out[1] - compile_inference(new)(x)).max() == 0.0
    assert np.abs(out[0] - compile_inference(models[0])(x)).max() == 0.0


def test_hot_swap_refuses_mismatched_fingerprint():
    cfg = {"hidden1_features": 9, "hidden2_features": 5}
    plan = compile_fleet_inference(
        [build_mlp2(cfg, 4, 1, seed=s) for s in range(2)])
    other = build_mlp2({"hidden1_features": 9, "hidden2_features": 0},
                       4, 1, seed=3)
    with pytest.raises(UnsupportedLayerError):
        plan.replace_member(0, other)


# ----------------------------------------------------------------------
# Early-stop masking: lockstep fit == sequential fits
# ----------------------------------------------------------------------

#: The training surface a fleet must walk in step with its sequential
#: twins: (optimizer, fleet kwargs, loss).  Weight decay rides as a
#: per-member column, one member at zero.
TRAINING_SURFACE = {
    "adam": ("adam", {}, mse_loss),
    "adamw": ("adam", {"weight_decay": [1e-2, 0.0, 3e-2, 1e-3]}, mse_loss),
    "sgd": ("sgd", {}, mse_loss),
    "sgd-momentum-decay": ("sgd", {"momentum": 0.9, "weight_decay": 1e-3},
                           mse_loss),
    "l1": ("adam", {}, l1_loss),
    "huber": ("adam", {}, functools.partial(huber_loss, delta=0.05)),
    "mape": ("adam", {}, mape_loss),
}


def _sequential_optimizer(kind, params, lr, kwargs, member):
    wd = kwargs.get("weight_decay", 0.0)
    if not np.isscalar(wd):
        wd = wd[member]
    if kind == "adam":
        return Adam(params, lr=lr, weight_decay=wd)
    return SGD(params, lr=lr, momentum=kwargs.get("momentum", 0.0),
               weight_decay=wd)


@pytest.mark.parametrize("case", sorted(TRAINING_SURFACE))
def test_fleet_early_stop_matches_sequential_epochs(case):
    kind, kwargs, loss_fn = TRAINING_SURFACE[case]
    cfg = {"hidden1_features": 10, "hidden2_features": 6}
    lrs = [3e-3, 1e-2, 0.3, 1e-3]

    def build(seed):
        return build_mlp2(cfg, 2, 1, dropout=0.2, seed=seed)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(96, 2))
    y = x[:, :1] * np.sin(x[:, 1:]) + 0.1
    xt, yt, xv, yv = x[24:], y[24:], x[:24], y[:24]

    fleet_models = [build(s) for s in range(len(lrs))]
    fleet = FleetTrainer(fleet_models, lr=lrs, batch_size=16,
                         max_epochs=12, patience=2, seed=5,
                         loss_fn=loss_fn, optimizer=kind, **kwargs)
    fleet_results = fleet.fit(xt, yt, xv, yv)

    for s, lr in enumerate(lrs):
        seq_model = build(s)
        opt = _sequential_optimizer(kind, seq_model.parameters(), lr,
                                    kwargs, s)
        seq = Trainer(seq_model, batch_size=16, max_epochs=12, patience=2,
                      seed=5, loss_fn=loss_fn, optimizer=opt, compiled=True)
        res = seq.fit(xt, yt, xv, yv)
        assert seq.compiled_active
        fr = fleet_results[s]
        # Bitwise, not approximately: FleetTrainer promises each member
        # is its sequential twin.
        assert fr.epochs_run == res.epochs_run
        assert fr.best_val_loss == res.best_val_loss
        assert fr.history == res.history
        for pf, ps in zip(fleet_models[s].parameters(),
                          seq_model.parameters()):
            assert np.array_equal(pf.data, ps.data)
    # The masking actually triggered: members stopped at different
    # epochs, so later batched kernels ran on a shrunken prefix.
    assert len({r.epochs_run for r in fleet_results}) > 1


def test_diverged_fleet_member_steps_like_its_sequential_twin():
    """A diverged candidate's 1e200 gradient squares past the float64
    range.  The fused Adam turns that into an inf second moment and a
    zero update, silently, on a fleet row exactly as on the member's
    own plan — a search loop survives the candidate either way."""
    cfg = {"hidden1_features": 6, "hidden2_features": 0}
    models = [build_mlp2(cfg, 3, 1, seed=s) for s in range(2)]
    twin = build_mlp2(cfg, 3, 1, seed=1)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 1))
    fleet = FleetTrainer(models, lr=1e-2)
    own = compile_training(twin, mse_loss)
    fused = own.bind_optimizer(Adam(twin.parameters(), lr=1e-2))
    fleet.plan.train_batch(x, y)
    own.train_batch(x, y)
    row = fleet.plan.row_of[1]
    before = fleet.plan.pslab[row, 0]
    fleet.plan.grads[row, 0] = own.grads[0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fleet.optimizer.step()
        fused.step()
    assert np.isinf(fleet.optimizer.v[row, 0]) and np.isinf(fused.v[0])
    assert fleet.plan.pslab[row, 0] == before == twin[0].weight.data.flat[0]
    assert np.array_equal(
        fleet.plan.pslab[row],
        np.concatenate([p.data.reshape(-1) for p in twin.parameters()]))


# ----------------------------------------------------------------------
# Mixed fingerprints refuse
# ----------------------------------------------------------------------

def test_mixed_fingerprint_group_refused():
    a = build_mlp2({"hidden1_features": 8, "hidden2_features": 4},
                   3, 1, seed=0)
    b = build_mlp2({"hidden1_features": 8, "hidden2_features": 0},
                   3, 1, seed=1)
    with pytest.raises(UnsupportedLayerError):
        compile_fleet_inference([a, b])
    with pytest.raises(UnsupportedLayerError):
        compile_fleet_training([a, b], mse_loss)


# ----------------------------------------------------------------------
# Serving lane: batched fleet wave with per-member path decisions
# ----------------------------------------------------------------------

def _linear_region(tmp_path, name, weight, auto_batch=False):
    """2->1 region whose accurate kernel computes ``10 * row_sum`` and
    whose saved model predicts ``weight * row_sum``."""
    from repro.api import approx_ml
    from repro.runtime import EventLog

    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""

    @approx_ml(src, name=name, event_log=EventLog(), auto_batch=auto_batch)
    def region(x, y, N, use_model=False):
        y[:N] = x[:N].sum(axis=1) * 10.0

    return region


def _count_generated(monkeypatch) -> list:
    """A list that grows by one per wave program generated."""
    from repro.runtime import program as program_module

    generated, compile_program = [], program_module.compile_program
    monkeypatch.setattr(program_module, "compile_program", lambda *args: (
        len(args) > 1 and generated.append(args[0]),
        compile_program(*args))[1])
    return generated


def test_serving_lane_batches_fleet_and_respects_paths(tmp_path):
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
        server.register(_linear_region(tmp_path, name, w))
    formed = server.enable_fleets(min_members=2)
    assert len(formed) == 1
    assert sorted(next(iter(formed.values()))) == ["a", "b", "c"]

    x = np.arange(8.0).reshape(4, 2)
    ya, yb, yc = np.empty(4), np.empty(4), np.empty(4)
    server.invoke_fleet([
        ("a", (x, ya, 4), {"use_model": True}),
        ("b", (x, yb, 4), {"use_model": False}),    # accurate path
        ("c", (x, yc, 4), {"use_model": True}),
    ])
    rowsum = x.sum(axis=1)
    np.testing.assert_array_equal(ya, 1.0 * rowsum)
    np.testing.assert_array_equal(yb, 10.0 * rowsum)
    np.testing.assert_array_equal(yc, 3.0 * rowsum)

    members = server.snapshot()["fleets"]["groups"][0]["members"]
    assert members["a"]["invocations"] == 1
    assert members["b"]["invocations"] == 0          # served accurate
    assert members["c"]["invocations"] == 1

    # The stacked answer is bitwise the member's own single-model path.
    y_direct = np.empty(4)
    server.region("a")(x, y_direct, 4, use_model=True)
    np.testing.assert_array_equal(ya, y_direct)
    server.close()


def test_repeated_name_in_one_wave_serves_every_call(tmp_path):
    """Regression: a name repeated in one wave used to overwrite its own
    pending entry — the first call's outputs were never scattered and
    its record never finished, stalling the histogram fold behind it.
    The first call rides the stacked forward; repeats are served on the
    single-model path with their already-made decision."""
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0)]:
        server.register(_linear_region(tmp_path, name, w))
    server.enable_fleets(min_members=2)
    x1 = np.arange(8.0).reshape(4, 2)
    x2, x3 = x1 + 100.0, x1 - 7.0
    y1, y2, y3, yb = (np.full(4, np.nan) for _ in range(4))
    kw = {"use_model": True}
    results = server.invoke_fleet([("a", (x1, y1, 4), kw),
                                   ("a", (x2, y2, 4), kw),
                                   ("b", (x1, yb, 4), kw),
                                   ("a", (x3, y3, 4), {"use_model": False})])
    np.testing.assert_array_equal(y1, x1.sum(axis=1))
    np.testing.assert_array_equal(y2, x2.sum(axis=1))
    np.testing.assert_array_equal(y3, 10.0 * x3.sum(axis=1))   # accurate
    np.testing.assert_array_equal(yb, 2.0 * x1.sum(axis=1))
    assert set(results) == {"a", "b"}
    assert server.served("a").invocations == 3

    members = server.snapshot()["fleets"]["groups"][0]["members"]
    assert members["a"]["invocations"] == 1          # one row per wave
    assert members["b"]["invocations"] == 1
    for name, paths in [("a", ["infer", "infer", "accurate"]),
                        ("b", ["infer"])]:
        log = server.region(name).events
        assert [r.path for r in log.records] == paths
        assert all(r.finished for r in log.records)
        log.collect()                                # folds every record
        assert log._hist_cursor == len(paths)
    server.close()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fleet_wave_stream_digests_match_the_single_model_path(tmp_path,
                                                               dtype):
    """A wave's decision-stream digest is over the inputs as the
    application composed them — float64 here — whether the fleet's
    slab is narrowed or not, so replays join against either path."""
    from repro.obs import input_digest, read_stream
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0)]:
        server.register(_linear_region(tmp_path, name, w))
    server.enable_fleets(min_members=2, dtype=dtype)
    server.attach_stream(tmp_path / "decisions.rh5")
    xs = [np.arange(8.0).reshape(4, 2) + i for i in range(3)]
    for x in xs:                          # waves 2 and 3 find the batch
        server.invoke_fleet([(n, (x, np.empty(4), 4), {"use_model": True})
                             for n in ("a", "b")])
    y = np.empty(4)
    server.region("a")(xs[0], y, 4, use_model=True)
    server.drain()
    records = read_stream(tmp_path / "decisions.rh5")
    want = [input_digest(x) for x in xs]
    assert [r["digest"] for r in records["b"]] == want
    assert [r["digest"] for r in records["a"]] == want + want[:1]
    server.close()


def test_aborted_wave_closes_its_records_and_spares_the_next(tmp_path):
    """Member ``c``'s maps refusing its arguments (``N`` beyond its
    arrays) leave its wave to the single path, call by call: ``a`` and
    ``b`` land and finish as single invocations, ``c`` raises its own
    ``BridgeError`` with its record closed, ``d`` is never served, and
    the exception reaches the caller unchanged.  Regression: the
    failing wave used to leave the other riders' records open for good,
    freezing their histograms.  Later waves (full, then partial) read
    rows bitwise-equal to the single-model path."""
    from repro.bridge import BridgeError
    from repro.serving import RegionServer

    server = RegionServer()
    weights = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    for name, w in weights.items():
        server.register(_linear_region(tmp_path, name, w))
    server.enable_fleets(min_members=2)
    kw = {"use_model": True}
    x = np.arange(8.0).reshape(4, 2)
    ys = {name: np.zeros(4) for name in weights}
    full = [(name, (x, ys[name], 4), kw) for name in weights]
    server.invoke_fleet(full)                        # staging batch exists
    for y in ys.values():
        y[:] = -1.0
    bad = [(n, (a[0] * 1e30, a[1], 9 if n == "c" else 4), k)
           for n, a, k in full]                      # c: N beyond its arrays
    with pytest.raises(BridgeError, match="outside"):
        server.invoke_fleet(bad)
    for name in "ab":
        np.testing.assert_array_equal(
            ys[name], weights[name] * (x * 1e30).sum(axis=1))
    assert all(np.all(ys[name] == -1.0) for name in "cd")
    for name, paths in [("a", 2), ("b", 2), ("c", 2), ("d", 1)]:
        log = server.region(name).events
        assert len(log.records) == paths
        assert all(rec.finished for rec in log.records)
        log.collect()
        assert log._hist_cursor == paths
    assert [server.region(name).events.records[1].notes
            for name in "abc"] == [None, None, {"error": "BridgeError"}]
    members = server.snapshot()["fleets"]["groups"][0]["members"]
    assert [members[n]["invocations"] for n in weights] == [1, 1, 1, 1]

    server.invoke_fleet(full)
    for name, w in weights.items():
        np.testing.assert_array_equal(ys[name], w * x.sum(axis=1))
    y2 = np.zeros(2)
    server.invoke_fleet([("d", (x[:2], y2, 2), kw)])  # partial and ragged
    np.testing.assert_array_equal(y2, 4.0 * x[:2].sum(axis=1))
    group = server.fleet.member("a").group
    assert group.filled == [0, 0, 0, 2]
    assert not group.staging[:3].any() and not group.staging[3, 2:].any()
    server.close()


@pytest.mark.parametrize("path", ["immediate", "batched", "fleet"])
def test_read_only_output_is_refused_at_bind_before_any_forward(tmp_path,
                                                                path):
    """Regression: a read-only ``out`` array used to run the forward and
    die in scatter with a bare ``ValueError`` (leaving an open record).
    Every path refuses it when the maps are bound — same text cold and
    on a cache hit, naming region and argument — before any forward."""
    from repro.bridge import BridgeError
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0)]:
        server.register(_linear_region(tmp_path, name, w,
                                       auto_batch=path == "batched"))
    if path == "fleet":
        server.enable_fleets(min_members=2)
    x = np.arange(8.0).reshape(4, 2)
    frozen = np.zeros(4)
    frozen.flags.writeable = False
    kw = {"use_model": True}

    def call(y):
        if path == "fleet":
            server.invoke_fleet([("a", (x, y, 4), kw),
                                 ("b", (x, np.zeros(4), 4), kw)])
        else:
            server.invoke("a", x, y, 4, **kw)
            server.drain()

    region = server.region("a")
    device = server.fleet.device if path == "fleet" else region.engine.device
    texts = []
    for _ in range(2):                               # cold, then cache hit
        with pytest.raises(BridgeError) as err:
            call(frozen)
        texts.append(str(err.value))
        call(np.zeros(4))                            # warms the geometry
    assert texts[0] == texts[1] == \
        "region 'a': out/inout argument 'y' is read-only"
    assert device.kernel_launches == 2               # the two good calls
    assert not frozen.any()
    assert all(rec.finished for rec in region.events.records)
    server.close()


def test_multi_map_inputs_compose_into_the_wave_program_rows(tmp_path,
                                                           monkeypatch):
    """A region with two to-maps is served by the wave program, which
    composes its concatenated input tensor straight into the member's
    staging rows, like a single-map one's."""
    from repro.api import approx_ml
    from repro.runtime import EventLog
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", -2.0)]:
        model = Sequential(Linear(3, 1, rng=np.random.default_rng(0)))
        model[0].weight.data = np.array([[w, 2 * w, 3 * w]])
        model[0].bias.data = np.array([0.5])
        save_model(model, tmp_path / f"{name}.rnm")
        src = f"""
#pragma approx tensor functor(fu: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fv: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fu(u[0:N]))
#pragma approx tensor map(to: fv(v[0:N]))
#pragma approx tensor map(from: fv(y[0:N]))
#pragma approx ml(infer:use_model) in(u, v) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
        server.register(approx_ml(src, name=name, event_log=EventLog())(
            lambda u, v, y, N, use_model=False: None))
    server.enable_fleets(min_members=2)
    generated = _count_generated(monkeypatch)
    rng = np.random.default_rng(2)
    kw = {"use_model": True}
    for _ in range(4):
        u, v = rng.normal(size=(5, 2)), rng.normal(size=5)
        ya, yb, direct = np.zeros(5), np.zeros(5), np.zeros(5)
        server.invoke_fleet([("a", (u, v, ya, 5), kw),
                             ("b", (u, v, yb, 5), kw)])
        server.region("a")(u, v, direct, 5, use_model=True)
        np.testing.assert_array_equal(ya, direct)
        server.region("b")(u, v, direct, 5, use_model=True)
        np.testing.assert_array_equal(yb, direct)
        staging = server.fleet.member("a").group.staging
        np.testing.assert_array_equal(staging[0], np.column_stack([u, v]))
    assert len(generated) == 1                       # one signature
    server.close()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_region_without_precision_notes_the_slab_dtype_that_served(
        tmp_path, dtype, monkeypatch):
    """Regression: a region with no ``precision`` of its own riding a
    float32 slab was served at float32 with nothing noted.  Its record
    and stream record name the dtype that served, through the program
    generated with the stream attached (wave 1) and through the one
    generated once it is detached (waves 2-4); a float64 slab, like the
    region's own single path, notes nothing."""
    from repro.nn import load_model
    from repro.obs import read_stream
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
        server.register(_linear_region(tmp_path, name, w))
    plans = {name: compile_inference(load_model(tmp_path / f"{name}.rnm"),
                                     dtype=dtype) for name in "abc"}
    server.enable_fleets(min_members=2, dtype=dtype)
    generated = _count_generated(monkeypatch)
    server.attach_stream(tmp_path / "decisions.rh5")
    x = np.arange(8.0).reshape(4, 2) / 3.0
    want = None if dtype == np.float64 else "float32"
    for n_wave in range(4):
        ys = {name: np.zeros(4) for name in "abc"}
        server.invoke_fleet([(n, (x, ys[n], 4), {"use_model": True})
                             for n in "abc"])
        if n_wave == 0:
            server.detach_stream()
        for name, plan in plans.items():
            np.testing.assert_array_equal(ys[name],
                                          plan(x.astype(dtype))[:, 0])
            notes = server.region(name).events.records[-1].notes or {}
            assert notes.get("precision") == want, (n_wave, name)
    assert len(generated) == 2                       # with and without stream
    records = read_stream(tmp_path / "decisions.rh5")
    assert [records[n][0]["precision"] for n in "abc"] == [want] * 3
    server.close()


def test_a_wave_across_two_fleets_runs_one_forward_each(tmp_path,
                                                       monkeypatch):
    """Riders of two fleets in one server wave: one program serves every
    wave, runs one stacked forward per fleet, lands each rider's rows
    bitwise its region's single path and charges every rider of the
    wave equal shares."""
    from repro.api import approx_ml
    from repro.runtime import EventLog
    from repro.serving import RegionServer

    archs = {"p": {"hidden1_features": 7, "hidden2_features": 3},
             "q": {"hidden1_features": 4, "hidden2_features": 0}}
    server = RegionServer()
    names = ("p0", "q0", "p1", "q1")
    for seed, name in enumerate(names):
        save_model(build_mlp2(archs[name[0]], 2, 1, seed=seed),
                   tmp_path / f"{name}.rnm")
        src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
        server.register(approx_ml(src, name=name, event_log=EventLog())(
            lambda x, y, N, use_model=False: None))
    assert len(server.enable_fleets(min_members=2)) == 2
    generated = _count_generated(monkeypatch)
    device = server.fleet.device
    rng = np.random.default_rng(4)
    for n_wave in range(4):
        x = rng.normal(size=(5, 2))
        ys = {name: np.zeros(5) for name in names}
        launches = device.kernel_launches
        server.invoke_fleet([(n, (x, ys[n], 5), {"use_model": True})
                             for n in names])
        assert device.kernel_launches == launches + 2
        assert len(generated) == 1
        shares = {tuple(server.region(n).events.records[-1].times.items())
                  for n in names}
        assert len(shares) == 1, n_wave
        for name in names:
            direct = np.zeros(5)
            server.region(name)(x, direct, 5, use_model=True)
            np.testing.assert_array_equal(ys[name], direct)
    assert device.kernel_launches == 8
    server.close()


def test_wave_riders_share_each_phase_equally(tmp_path):
    """A wave times each pass once: its riders are charged equal shares
    of the gather pass (TO_TENSOR), the forward (INFERENCE) and the
    land pass (FROM_TENSOR), and nothing else, while a call the wave
    leaves to the single path keeps a record of its own."""
    from repro.runtime.events import Phase
    from repro.serving import RegionServer

    server = RegionServer()
    for name, w in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
        server.register(_linear_region(tmp_path, name, w))
    server.enable_fleets(min_members=2)
    x = np.arange(8.0).reshape(4, 2)
    for _ in range(2):
        server.invoke_fleet([("a", (x, np.zeros(4), 4), {"use_model": True}),
                             ("b", (x, np.zeros(4), 4), {}),
                             ("c", (x, np.zeros(4), 4), {"use_model": True})])
    riders = [server.region(name).events.records[-1] for name in "ac"]
    for record in riders:
        assert record.path == "infer" and record.finished
        assert list(record.times) == [Phase.TO_TENSOR, Phase.INFERENCE,
                                      Phase.FROM_TENSOR]
        assert all(seconds >= 0.0 for seconds in record.times.values())
    assert riders[0].times == riders[1].times
    single = server.region("b").events.records[-1]
    assert single.path == "accurate" and list(single.times) == [
        Phase.ACCURATE]
    server.close()


@pytest.mark.parametrize("announce", ["warmup", "invalidate"])
def test_swap_to_another_architecture_evicts_that_member_only(tmp_path,
                                                              announce):
    """Regression: hot-swapping one fleet member to a model of another
    architecture raised ``UnsupportedLayerError`` from the fleet's
    re-warm — after the file was already replaced — and every later
    wave raised it again, for every member.  The swap returns, the
    member leaves its fleet for the single-model path (in the next
    wave, also when the swap only reached the fleet's model cache),
    its peers keep riding, and every output is bitwise its own model's
    plan."""
    from repro.apps import binomial
    from repro.runtime import EventLog, InferenceEngine
    from repro.serving import RegionServer, hot_swap_model

    engine, server, models = InferenceEngine(), RegionServer(), {}
    for k in range(3):
        name, path = f"b{k}", tmp_path / f"m{k}.rnm"
        models[name] = build_mlp2(
            {"hidden1_features": 48, "hidden2_features": 24}, 5, 1, seed=k)
        save_model(models[name], path)
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=EventLog(), engine=engine),
            name=name)
    server.enable_fleets()
    x = np.random.default_rng(0).random((4, 5))

    def wave():
        outs = {name: np.zeros(4) for name in server.names}
        server.invoke_fleet([(name, (x, out, 4), {"use_model": True})
                             for name, out in outs.items()])
        for name, out in outs.items():
            own = compile_inference(models[name])(x).reshape(-1)
            assert np.array_equal(out, own), name

    wave()
    models["b1"] = build_mlp2({"hidden1_features": 6,
                               "hidden2_features": 6}, 5, 1, seed=9)
    if announce == "warmup":
        hot_swap_model(models["b1"], tmp_path / "m1.rnm",
                       [engine, server.fleet])
    else:
        hot_swap_model(models["b1"], tmp_path / "m1.rnm", [engine])
        server.fleet.cache.invalidate(tmp_path / "m1.rnm")
    wave()
    assert server.fleet.ungrouped == ["b1"]
    assert server.served("b1").member.group is None
    wave()
    members = server.snapshot()["fleets"]["groups"][0]["members"]
    assert {name: m["invocations"] for name, m in members.items()} == {
        "b0": 3, "b2": 3}
    assert [r.path for r in server.region("b1").events.records] == \
        ["infer"] * 3
    server.close()


def _relu_fleet(k=3):
    """K ``5 -> 7 -> 3 -> 2`` ReLU MLPs (fan-ins 5, 7, 3) and their
    fleet plan."""
    cfg = {"hidden1_features": 7, "hidden2_features": 3}
    models = [build_mlp2(cfg, 5, 2, seed=s) for s in range(k)]
    return models, compile_fleet_inference(models)


def _assert_rows_are_member_plans(plan, models, x):
    out = plan(x)
    for k, model in enumerate(models):
        assert np.array_equal(out[k], compile_inference(model)(x)), k


def test_full_extent_constants_follow_every_slab_write():
    """Waves at one geometry (``B`` within every fan-in) freeze each
    bias and ReLU zero at the full ``(K, B, out)`` extent; both slab
    writers after construction — ``replace_member`` (hot swap) and
    ``refresh_member`` (a ``load_state_dict`` rebind) — must drop
    them, so the next wave at the *same* geometry reads rows bitwise
    equal to each member's own plan, not a stale bias."""
    models, plan = _relu_fleet()
    x = np.random.default_rng(1).normal(size=(3, 5))
    for _ in range(2):
        _assert_rows_are_member_plans(plan, models, x)
    geoms = [step._geoms[3] for step in plan._steps]
    assert [g[2].shape for g in geoms] == [(3, 3, 7), (3, 3, 3), (3, 3, 2)]
    assert [None if g[3] is None else g[3].shape for g in geoms] == [
        (3, 3, 7), (3, 3, 3), None]

    models[1] = build_mlp2({"hidden1_features": 7, "hidden2_features": 3},
                           5, 2, seed=11)
    plan.replace_member(1, models[1])
    _assert_rows_are_member_plans(plan, models, x)

    fresh = build_mlp2({"hidden1_features": 7, "hidden2_features": 3},
                       5, 2, seed=12)
    models[0].load_state_dict(fresh.state_dict())
    assert plan.stale_members(range(3)) == [0]
    plan.refresh_member(0)
    assert plan.stale_members(range(3)) == []
    _assert_rows_are_member_plans(plan, models, x)


def test_wave_wider_than_a_fan_in_keeps_that_steps_broadcast():
    """A full-extent copy is made only while it is no larger than the
    step's own weight slab (``B`` at most the fan-in): at ``B = 6`` the
    first and last steps (fan-ins 5 and 3) keep the broadcast bias row
    and the 0-d zero, the middle one (fan-in 7) copies — and every row
    is still its member's plan, bitwise."""
    models, plan = _relu_fleet()
    x = np.random.default_rng(2).normal(size=(6, 5))
    for _ in range(2):
        _assert_rows_are_member_plans(plan, models, x)
    geoms = [step._geoms[6] for step in plan._steps]
    assert [g[2].shape for g in geoms] == [(3, 1, 7), (3, 6, 3), (3, 1, 2)]
    assert [None if g[3] is None else g[3].shape for g in geoms] == [
        (), (3, 6, 3), None]


# ----------------------------------------------------------------------
# Fleet engine: the persistent staging batch
# ----------------------------------------------------------------------

def _fleet_engine(tmp_path, k=4, dtype=np.float64, cache=None):
    from repro.runtime import FleetInferenceEngine

    cfg = {"hidden1_features": 7, "hidden2_features": 3}
    models = [build_mlp2(cfg, 5, 2, seed=s) for s in range(k)]
    engine = FleetInferenceEngine(dtype=dtype, cache=cache)
    for i, model in enumerate(models):
        save_model(model, tmp_path / f"m{i}.rnm")
        engine.add_member(f"m{i}", tmp_path / f"m{i}.rnm")
    assert len(engine.build()) == 1
    return engine, models


def _wave_inputs(engine, rng, sizes):
    """``{name: inputs}`` for members with a batch size: float64 arrays
    of the caller's own, copied (and cast) by ``infer_many``."""
    return {f"m{i}": rng.normal(size=(rows, 5)) * 3.0
            for i, rows in enumerate(sizes) if rows is not None}


#: full -> partial (K' < K) -> ragged -> grown -> full again.
WAVES = [(6, 6, 6, 6), (None, 6, None, 6), (2, 6, 1, 4), (3, None, 5, 5),
         (9, 9, 9, 9), (6, 6, 6, 6), (None, None, 1, None), (6, 6, 6, 6)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reused_staging_matches_member_plans_and_fresh_engine(
        tmp_path, dtype):
    """Differential over the reused staging batch: whatever earlier
    waves left behind, every member row is bitwise its own compiled
    plan's and a fresh engine's, and uncovered rows read zero."""
    engine, models = _fleet_engine(tmp_path, dtype=dtype)
    plans = [compile_inference(m, dtype=dtype) for m in models]
    rng = np.random.default_rng(3)
    for n_wave, sizes in enumerate(WAVES):
        if n_wave == 3:
            # What a wave program whose gather raised leaves behind:
            # dirtied rows, counted, that must not leak into the next
            # forward.
            group = engine._groups[0]
            group.staging[1, :6] = 1e30
            group.filled[1] = 6
        calls = _wave_inputs(engine, rng, sizes)
        outputs = engine.infer_many(calls)
        fresh, _ = _fleet_engine(tmp_path, dtype=dtype)
        reference = fresh.infer_many(calls)
        assert list(outputs) == list(calls)
        for name, x in calls.items():
            own = plans[int(name[1:])](x.astype(dtype))
            assert outputs[name].dtype == own.dtype
            assert np.array_equal(outputs[name], own), (n_wave, name)
            assert np.array_equal(outputs[name], reference[name])
        group = engine._groups[0]
        for row, rows in enumerate(group.filled):
            assert rows == (sizes[row] or 0)
            assert not group.staging[row, rows:].any()
    assert group.staging.shape == (4, 9, 5)           # grew once, kept
    counts = [engine.member(f"m{i}").invocations for i in range(4)]
    assert counts == [sum(s[i] is not None for s in WAVES) for i in range(4)]


def test_one_call_across_two_fleets_runs_one_forward_each(tmp_path):
    """Members of two fleets in one call run one stacked forward per
    fleet, outputs back in call order and bitwise each member's plan;
    a call holding an ungrouped member raises ``KeyError`` naming it
    before any forward runs."""
    from repro.runtime import FleetInferenceEngine

    archs = {"a": {"hidden1_features": 7, "hidden2_features": 3},
             "b": {"hidden1_features": 4, "hidden2_features": 0},
             "c": {"hidden1_features": 9, "hidden2_features": 2}}
    engine, models = FleetInferenceEngine(), {}
    for name in ("a0", "b0", "a1", "b1", "c0"):
        models[name] = build_mlp2(archs[name[0]], 5, 2, seed=len(models))
        save_model(models[name], tmp_path / f"{name}.rnm")
        engine.add_member(name, tmp_path / f"{name}.rnm")
    assert len(engine.build(min_members=2)) == 2
    assert engine.ungrouped == ["c0"]
    rng = np.random.default_rng(8)
    calls = {name: rng.normal(size=(rows, 5))
             for name, rows in [("b1", 3), ("a0", 2), ("b0", 4), ("a1", 3)]}
    outputs = engine.infer_many(calls)
    assert list(outputs) == list(calls)
    for name, x in calls.items():
        own = compile_inference(models[name])(x)
        assert np.array_equal(outputs[name], own), name
    assert engine.device.kernel_launches == 2
    assert engine.last_timing["members_served"] == 4
    with pytest.raises(KeyError, match="'c0' is ungrouped"):
        engine.infer_many({"a0": calls["a0"], "c0": calls["a0"]})
    assert engine.device.kernel_launches == 2


def test_infer_many_outputs_survive_the_next_wave(tmp_path):
    """The public contract: arrays returned for wave i are views of that
    wave's own host result — wave i+1 must not write through them, and
    they never alias the staging batch the next wave is composed in."""
    engine, _ = _fleet_engine(tmp_path)
    rng = np.random.default_rng(5)
    held = []
    for sizes in [(4, 4, 4, 4), (4, 4, 4, 4), (2, None, 4, 1), (4, 4, 4, 4)]:
        calls = _wave_inputs(engine, rng, sizes)
        outputs = engine.infer_many(calls)
        for out, snapshot in held:
            assert np.array_equal(out, snapshot)
            assert not any(np.shares_memory(out, new)
                           for new in outputs.values())
        staging = engine._groups[0].staging
        assert not any(np.shares_memory(out, staging)
                       for out in outputs.values())
        held += [(out, out.copy()) for out in outputs.values()]


def test_engine_hot_swap_is_one_row_copy_seen_by_the_next_wave(tmp_path):
    engine, models = _fleet_engine(tmp_path)
    rng = np.random.default_rng(6)
    engine.infer_many(_wave_inputs(engine, rng, (3, 3, 3, 3)))
    slab = engine._groups[0].plan.slab
    before = slab.copy()

    cfg = {"hidden1_features": 7, "hidden2_features": 3}
    swapped = build_mlp2(cfg, 5, 2, seed=40)
    save_model(swapped, tmp_path / "m2.rnm")          # file replaced ...
    engine.cache.invalidate(tmp_path / "m2.rnm")      # ... and announced
    rebound = build_mlp2(cfg, 5, 2, seed=41)          # in-place rebind
    engine.member("m0").model.load_state_dict(rebound.state_dict())

    calls = _wave_inputs(engine, rng, (3, 3, 3, 3))
    outputs = engine.infer_many(calls)
    assert engine._groups[0].plan.slab is slab        # no rebuild
    assert np.array_equal(slab[1], before[1])
    assert np.array_equal(slab[3], before[3])
    assert not np.array_equal(slab[0], before[0])
    assert not np.array_equal(slab[2], before[2])
    for i, model in enumerate([rebound, models[1], swapped, models[3]]):
        assert np.array_equal(outputs[f"m{i}"],
                              compile_inference(model)(calls[f"m{i}"]))


def test_members_are_re_resolved_only_when_the_cache_epoch_moved(tmp_path):
    """A wave with no swap asks the model cache nothing; every way a
    member's model can change — ``invalidate``, ``put``, ``clear``,
    ``load_state_dict``, a swap made through a second engine sharing
    the cache — is seen by the very next wave, even a wave the swapped
    member sits out, bitwise-equal to the new model's own plan."""
    from repro.runtime import ModelCache

    class CountingCache(ModelCache):
        gets = 0

        def get(self, path):
            self.gets += 1
            return super().get(path)

    cache = CountingCache()
    engine, models = _fleet_engine(tmp_path, cache=cache)
    other, _ = _fleet_engine(tmp_path, cache=cache)   # same files, same cache
    cfg = {"hidden1_features": 7, "hidden2_features": 3}
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 5))
    paths = [tmp_path / f"m{i}.rnm" for i in range(4)]

    def wave(names=("m0", "m1", "m2", "m3")):
        before = cache.gets
        outputs = engine.infer_many({name: x for name in names})
        return outputs, cache.gets - before

    def check(outputs):
        for name, out in outputs.items():
            own = compile_inference(models[int(name[1:])])(x)
            assert np.array_equal(out, own), name

    outputs, gets = wave()
    check(outputs)
    assert gets == 0                                 # nothing moved
    assert wave()[1] == 0

    swaps = {
        "invalidate": lambda m: (save_model(m, paths[0]),
                                 cache.invalidate(paths[0])),
        "put": lambda m: cache.put(paths[0], m),
        "clear": lambda m: (save_model(m, paths[0]), cache.clear()),
        "second engine": lambda m: (save_model(m, paths[0]),
                                    other.cache.invalidate(paths[0]),
                                    other.warmup(paths[0])),
    }
    for seed, (how, swap) in enumerate(swaps.items(), start=50):
        models[0] = build_mlp2(cfg, 5, 2, seed=seed)
        swap(models[0])
        if how == "clear":                           # every file reloads
            models[1:] = [cache.get(path) for path in paths[1:]]
        outputs, gets = wave(("m1", "m3"))           # m0 sits this one out
        check(outputs)
        assert gets == 4, how                        # the whole group, once
        outputs, gets = wave()
        check(outputs)                               # ... and m0 was synced
        assert gets == 0, how

    rebound = build_mlp2(cfg, 5, 2, seed=60)         # in place: no epoch move
    engine.member("m2").model.load_state_dict(rebound.state_dict())
    models[2] = rebound
    outputs, gets = wave()
    check(outputs)
    assert gets == 0


def test_swap_landing_during_a_sync_is_seen_by_the_following_wave(tmp_path):
    """The epoch is read *before* the members are resolved: a swap that
    lands while they are being resolved — after its member was looked
    up — leaves the group behind the cache, so the next wave
    re-resolves instead of serving the old weights for good."""
    from repro.runtime import ModelCache

    cfg = {"hidden1_features": 7, "hidden2_features": 3}
    late = build_mlp2(cfg, 5, 2, seed=70)

    class RacingCache(ModelCache):
        armed = False

        def get(self, path):
            model = super().get(path)
            if self.armed and str(path).endswith("m3.rnm"):
                self.armed = False                   # m0 was resolved already
                self.put(tmp_path / "m0.rnm", late)
            return model

    cache = RacingCache()
    engine, models = _fleet_engine(tmp_path, cache=cache)
    x = np.random.default_rng(4).normal(size=(3, 5))
    calls = {f"m{i}": x for i in range(4)}
    engine.infer_many(calls)
    fresh = build_mlp2(cfg, 5, 2, seed=71)
    cache.put(tmp_path / "m1.rnm", fresh)            # moves the epoch ...
    cache.armed = True                               # ... and m0 swaps mid-sync
    outputs = engine.infer_many(calls)
    assert np.array_equal(outputs["m1"], compile_inference(fresh)(x))
    assert np.array_equal(outputs["m0"], compile_inference(models[0])(x))
    outputs = engine.infer_many(calls)               # the following wave
    assert np.array_equal(outputs["m0"], compile_inference(late)(x))


# ----------------------------------------------------------------------
# Every stackable layer: fleet row == the member's own plan, bitwise
# ----------------------------------------------------------------------

def _bn(features, rng):
    bn = BatchNorm1d(features)
    bn.running_mean = rng.normal(size=features)
    bn.running_var = rng.uniform(0.5, 2.0, size=features)
    bn.weight.data[...] = rng.uniform(0.5, 1.5, size=features)
    bn.bias.data[...] = rng.normal(size=features)
    return bn


def _standalone(act):
    # The Tanh fuses into the Linear before it; ``act`` stays a step.
    return lambda r: Sequential(Linear(4, 6, rng=r), Tanh(), act(),
                                Linear(6, 2, rng=r))


#: name -> (member feature shape, member factory over a seeded rng).
STACKABLE = {
    "batchnorm": ((4,), lambda r: Sequential(
        Linear(4, 6, rng=r), _bn(6, r), ReLU(), Linear(6, 2, rng=r))),
    "layernorm": ((4,), lambda r: Sequential(
        Linear(4, 6, rng=r), LayerNorm(6), Linear(6, 2, rng=r))),
    "relu": ((4,), _standalone(ReLU)),
    "tanh": ((4,), _standalone(Tanh)),
    "sigmoid": ((4,), _standalone(Sigmoid)),
    "leaky": ((4,), _standalone(lambda: LeakyReLU(0.1))),
    "flatten": ((2, 3), lambda r: Sequential(
        Flatten(), Linear(6, 5, rng=r), ReLU(), Linear(5, 2, rng=r))),
    "dropout": ((4,), lambda r: Sequential(
        Linear(4, 6, rng=r), ReLU(),
        Dropout(0.3, rng=np.random.default_rng(r.integers(1 << 30))),
        Linear(6, 2, rng=r))),
    # The Motivation's fleet: feature rank 2 in front of a BatchNorm.
    "flatten_batchnorm": ((2, 3), lambda r: Sequential(
        Flatten(), Linear(6, 8, rng=r), _bn(8, r), ReLU(),
        Linear(8, 3, rng=r))),
}


def _members(name, k):
    """K members of one stackable family (rebuilt equal for equal k)."""
    features, build = STACKABLE[name]
    return features, [build(np.random.default_rng(100 + s)) for s in range(k)]


def _member_inputs(features, k, stacked, batch=7, seed=11):
    """``(fleet input, [member k's input])`` — one shared batch, or K
    stacked member batches."""
    rng = np.random.default_rng(seed)
    if stacked:
        xs = rng.normal(size=(k, batch) + features)
        return xs, list(xs)
    x = rng.normal(size=(batch,) + features)
    return x, [x] * k


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(STACKABLE))
def test_stackable_layer_forward_rows_match_member_plans(name, k, stacked):
    features, models = _members(name, k)
    x, member_x = _member_inputs(features, k, stacked)
    out = compile_fleet_inference(models)(x)
    assert out.shape[:2] == (k, 7)
    for row, model in enumerate(models):
        own = compile_inference(model)(member_x[row])
        assert np.array_equal(out[row], own), (name, row)


#: Every stackable family under every compiled loss; mse keeps the bare
#: family name as its id.
FAMILY_LOSSES = [
    pytest.param(name, fn, id=name if loss == "mse" else f"{name}-{loss}")
    for name in sorted(STACKABLE)
    for loss, fn in [("mse", mse_loss), ("l1", l1_loss),
                     ("huber", huber_loss), ("mape", mape_loss)]]


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name,loss_fn", FAMILY_LOSSES)
def test_stackable_layer_train_batch_matches_member_plans(name, loss_fn, k,
                                                          stacked):
    features, models = _members(name, k)
    _, twins = _members(name, k)          # same seeds: same weights, RNGs
    x, member_x = _member_inputs(features, k, stacked)
    y = np.random.default_rng(12).normal(
        size=(7, models[0][-1].weight.data.shape[0]))
    fleet = compile_fleet_training(models, loss_fn)
    own_plans = [compile_training(twin, loss_fn) for twin in twins]
    for _ in range(2):                    # second batch: running stats moved
        losses = fleet.train_batch(x, y)
        for row, own in enumerate(own_plans):
            assert losses[row] == own.train_batch(member_x[row], y)
            assert np.array_equal(fleet.grads[row], own.grads), (name, row)
    fleet.sync_members()
    for model, twin in zip(models, twins):
        for layer, ref in zip(model, twin):
            if isinstance(layer, BatchNorm1d):
                assert np.array_equal(layer.running_mean, ref.running_mean)
                assert np.array_equal(layer.running_var, ref.running_var)


def test_batchnorm_fleet_running_stats_round_trip_through_compaction():
    """``deactivate`` swaps slab rows and step-owned running stats to
    the tail; snapshot / restore / sync must follow a member there."""
    _, models = _members("batchnorm", 3)
    _, twins = _members("batchnorm", 3)
    rng = np.random.default_rng(13)
    batches = [(rng.normal(size=(7, 4)), rng.normal(size=(7, 2)))
               for _ in range(3)]
    fleet = compile_fleet_training(models, mse_loss)
    fleet.train_batch(*batches[0])
    snap = fleet.snapshot_member(0)
    fleet.train_batch(*batches[1])
    fleet.deactivate(0)                   # member 0 <-> last row
    assert fleet.row_of == [2, 1, 0] and fleet.n_active == 2
    fleet.restore_member(0, snap)
    losses = fleet.train_batch(*batches[2])
    assert losses.shape == (2,)
    fleet.sync_members()
    for member, steps_run in enumerate([1, 3, 3]):
        own = compile_training(twins[member], mse_loss)
        for x, y in batches[:steps_run]:
            own.train_batch(x, y)
        got, ref = models[member][1], twins[member][1]
        assert np.array_equal(got.running_mean, ref.running_mean), member
        assert np.array_equal(got.running_var, ref.running_var), member
    # Member 0's parameters are the snapshot's: no optimizer stepped.
    for p, q in zip(models[0].parameters(), twins[0].parameters()):
        assert np.array_equal(p.data, q.data)


def test_batchnorm_fleet_replace_member_rewrites_one_slab_row():
    _, models = _members("batchnorm", 3)
    plan = compile_fleet_inference(models)
    before = plan.slab.copy()
    new = STACKABLE["batchnorm"][1](np.random.default_rng(500))
    plan.replace_member(1, new)
    assert np.array_equal(plan.slab[0], before[0])
    assert np.array_equal(plan.slab[2], before[2])
    assert not np.array_equal(plan.slab[1], before[1])
    x = np.random.default_rng(14).normal(size=(5, 4))
    out = plan(x)
    for row, model in enumerate([models[0], new, models[2]]):
        assert np.array_equal(out[row], compile_inference(model)(x))


def test_shared_input_of_the_wrong_shape_is_refused_at_plan_entry():
    """Shared vs stacked is decided once, at entry: a shape that is
    neither raises naming the accepted ones — not a gufunc error from
    inside a step."""
    _, models = _members("flatten_batchnorm", 3)
    plan = compile_fleet_inference(models)
    for bad in [(7, 5), (3, 7, 2, 2), (4, 7, 2, 3), (6,)]:
        with pytest.raises(ValueError, match=r"shared .* stacked"):
            plan(np.zeros(bad))
    train = compile_fleet_training(models, mse_loss)
    with pytest.raises(ValueError, match=r"shared .* stacked"):
        train.train_batch(np.zeros((7, 5)), np.zeros((7, 3)))


class _OutOfTree(Module):
    def forward(self, x):
        return x * 1.0


class _OutOfTreeStep(PlanStep):
    def forward(self, x, n):
        return x


@register_lowering(_OutOfTree)
def _lower_out_of_tree(layer, ctx):
    ctx.emit(_OutOfTreeStep(ctx.training), "_OutOfTree: passthrough")


UNSTACKABLE = {
    "Conv2d": lambda r: Sequential(Conv2d(2, 3, 3, padding=1, rng=r)),
    "GRU": lambda r: Sequential(GRU(3, 4, rng=r), Linear(4, 1, rng=r)),
    "_OutOfTree": lambda r: Sequential(Linear(3, 2, rng=r), _OutOfTree()),
}


@pytest.mark.parametrize("name", sorted(UNSTACKABLE))
def test_layers_without_a_stacked_form_stay_on_the_single_path(name,
                                                               tmp_path):
    from repro.runtime import FleetInferenceEngine

    models = [UNSTACKABLE[name](np.random.default_rng(s)) for s in range(2)]
    compile_inference(models[0])          # the single-model lowering works
    with pytest.raises(UnsupportedLayerError, match=name):
        compile_fleet_inference(models)
    with pytest.raises(UnsupportedLayerError, match=name):
        compile_fleet_training(models, mse_loss)
    engine = FleetInferenceEngine()
    for i, model in enumerate(models):
        engine.cache.put(tmp_path / f"m{i}.rnm", model)
        engine.add_member(f"m{i}", tmp_path / f"m{i}.rnm")
    assert engine.build() == {}
    assert sorted(engine.ungrouped) == ["m0", "m1"]
