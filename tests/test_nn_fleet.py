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

import numpy as np
import pytest

from repro.nn import (Destandardize, FleetTrainer, Linear, Sequential,
                      Standardize, Tensor, Trainer, UnsupportedLayerError,
                      compile_fleet_inference, compile_fleet_training,
                      compile_inference, mse_loss, save_model)
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

def test_fleet_early_stop_matches_sequential_epochs():
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
                         max_epochs=12, patience=2, seed=5)
    fleet_results = fleet.fit(xt, yt, xv, yv)

    for s, lr in enumerate(lrs):
        seq_model = build(s)
        seq = Trainer(seq_model, lr=lr, batch_size=16, max_epochs=12,
                      patience=2, seed=5, compiled=True)
        res = seq.fit(xt, yt, xv, yv)
        assert seq.compiled_active
        fr = fleet_results[s]
        assert fr.epochs_run == res.epochs_run
        assert fr.best_val_loss == pytest.approx(res.best_val_loss,
                                                 abs=PARITY)
        for hf, hs in zip(fr.history, res.history):
            assert hf["train"] == pytest.approx(hs["train"], abs=PARITY)
            assert hf["val"] == pytest.approx(hs["val"], abs=PARITY)
        for pf, ps in zip(fleet_models[s].parameters(),
                          seq_model.parameters()):
            assert np.abs(pf.data - ps.data).max() <= PARITY
    # The masking actually triggered: members stopped at different
    # epochs, so later batched kernels ran on a shrunken prefix.
    assert len({r.epochs_run for r in fleet_results}) > 1


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

def _linear_region(tmp_path, name, weight):
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

    @approx_ml(src, name=name, event_log=EventLog())
    def region(x, y, N, use_model=False):
        y[:N] = x[:N].sum(axis=1) * 10.0

    return region


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
