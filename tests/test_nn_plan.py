"""Unified plan IR: GRU/conv training lowerings, fingerprints, warm restarts.

The acceptance contract of the plan-IR refactor:

* both compilers run through one lowering registry, and the newly
  registered training lowerings — GRU (full-window BPTT) and Conv1d
  (plus the Conv2d/MaxPool2d/CropPad2d steps the CNN apps need) —
  match the autodiff graph at <= 1e-10, including BPTT over >= 3
  timesteps;
* training plans carry structural fingerprints: equal for
  same-structure rebuilds, different across architectures/losses/modes;
* fused-optimizer moments survive a same-fingerprint recompile (warm
  restarts) — in the Trainer, across ``RetrainWorker`` hot-swap
  retrains, and via ``FusedAdam``/``FusedSGD`` ``state_dict()``;
* the Trainer's compile-failure latch is keyed on the fingerprint, so
  a swapped-in supported model re-attempts compilation.
"""

import numpy as np
import pytest

from repro.nn import (GRU, Adam, AvgPool2d, Conv1d, Conv2d, CropPad2d,
                      Destandardize, Flatten, LayerNorm, Linear, MaxPool1d,
                      MaxPool2d, ReLU, SGD, Sequential, Standardize, Tensor,
                      Trainer, UnsupportedLayerError, compile_inference,
                      compile_training, mse_loss, structural_fingerprint,
                      training_fingerprint)

pytestmark = pytest.mark.compile

PARITY = 1e-10


def graph_gradients(model, loss_fn, x, y):
    model.train()
    model.zero_grad()
    loss = loss_fn(model(Tensor(x)), Tensor(y))
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


def assert_parity(build, x, y, loss_fn=mse_loss):
    ref_loss, ref_grads = graph_gradients(build(), loss_fn, x, y)
    plan = compile_training(build(), loss_fn)
    got_loss = plan.train_batch(x, y)
    assert got_loss == pytest.approx(ref_loss, abs=PARITY)
    assert len(ref_grads) == len(plan.grad_views)
    for ref, got in zip(ref_grads, plan.grad_views):
        assert np.abs(ref - got).max() <= PARITY
    return plan


# ----------------------------------------------------------------------
# GRU training lowering (BPTT)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seq_len", [3, 7])
def test_gru_final_state_bptt_parity(seq_len):
    def build():
        r = np.random.default_rng(3)
        return Sequential(Standardize(np.zeros(4), np.ones(4)),
                          GRU(4, 8, rng=r), Linear(8, 2, rng=r),
                          Destandardize(np.zeros(2), np.ones(2)))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, seq_len, 4))
    y = rng.normal(size=(16, 2))
    plan = assert_parity(build, x, y)
    assert any("BPTT" in s for s in plan.summary)


def test_gru_return_sequence_bptt_parity():
    def build():
        r = np.random.default_rng(4)
        return Sequential(GRU(3, 6, return_sequence=True, rng=r),
                          Flatten(), Linear(5 * 6, 2, rng=r))
    rng = np.random.default_rng(1)
    assert_parity(build, rng.normal(size=(8, 5, 3)),
                  rng.normal(size=(8, 2)))


def test_gru_multi_batch_training_matches_graph():
    """Fused Adam over several BPTT batches tracks the graph trainer."""
    def build():
        r = np.random.default_rng(5)
        return Sequential(GRU(3, 5, rng=r), Linear(5, 1, rng=r))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(24, 4, 3))
    y = rng.normal(size=(24, 1))

    graph = build()
    gopt = Adam(graph.parameters(), lr=3e-3)
    for _ in range(4):
        gopt.zero_grad()
        loss = mse_loss(graph(Tensor(x)), Tensor(y))
        loss.backward()
        gopt.step()

    compiled = build()
    plan = compile_training(compiled, mse_loss)
    fused = plan.bind_optimizer(Adam(compiled.parameters(), lr=3e-3))
    for _ in range(4):
        plan.train_batch(x, y)
        fused.step()
    for pg, pc in zip(graph.parameters(), compiled.parameters()):
        assert np.abs(pg.data - pc.data).max() <= PARITY


def test_runtime_fallback_preserves_fixed_seed_equivalence():
    # The aborted compiled attempt consumes shuffle + Dropout RNG draws
    # before a step rejects at run time; the graph retry must restore
    # those states, or fixed-seed runs diverge between compiled=True
    # (with fallback) and compiled=False.  The 3-D affine rejection
    # that used to exercise this seam is gone (batched affine steps),
    # so a test-local layer whose step fails at forward time stands in.
    from repro.nn import Dropout, Module, PlanStep, register_lowering

    class Brittle(Module):
        def forward(self, x):
            return x * 1.0

    class BrittleStep(PlanStep):
        def forward(self, x, n):
            if self.training:
                raise UnsupportedLayerError("Brittle: rejects at run time")
            return x

    @register_lowering(Brittle)
    def _lower_brittle(layer, ctx):
        ctx.emit(BrittleStep(ctx.training), "Brittle: runtime-fails")

    def build():
        r = np.random.default_rng(2)
        return Sequential(GRU(3, 4, return_sequence=True, rng=r),
                          Dropout(0.3, rng=np.random.default_rng(5)),
                          Brittle(), Linear(4, 1, rng=r))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(24, 5, 3))
    y = rng.normal(size=(24, 5, 1))
    results = []
    for compiled in (False, True):
        trainer = Trainer(build(), batch_size=8, max_epochs=3,
                          patience=3, seed=7, compiled=compiled)
        results.append(trainer.fit(x, y, x[:8], y[:8]))
        assert not trainer.compiled_active
    graph, fell_back = results
    for hg, hf in zip(graph.history, fell_back.history):
        assert hf["train"] == pytest.approx(hg["train"], abs=PARITY)
        assert hf["val"] == pytest.approx(hg["val"], abs=PARITY)


def test_gru_sequence_into_affine_trains_compiled():
    # GRU(return_sequence) feeding a Linear directly produces 3-D
    # activations; the batched affine step now trains them on the
    # compiled path — no runtime rejection, no fallback latch.
    def build():
        r = np.random.default_rng(0)
        return Sequential(GRU(3, 4, return_sequence=True, rng=r),
                          Linear(4, 1, rng=r))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 5, 3))
    y = rng.normal(size=(16, 5, 1))
    assert_parity(build, x, y)
    trainer = Trainer(build(), batch_size=8, max_epochs=2, compiled=True)
    result = trainer.fit(x, y, x[:4], y[:4])
    assert trainer.compiled_active
    assert trainer.compile_fallback is None
    assert np.isfinite(result.best_val_loss)


# ----------------------------------------------------------------------
# Conv lowerings
# ----------------------------------------------------------------------

def test_conv1d_training_parity():
    def build():
        r = np.random.default_rng(6)
        return Sequential(Conv1d(2, 4, 3, rng=r), ReLU(), Flatten(),
                          Linear(4 * 14, 1, rng=r))
    rng = np.random.default_rng(3)
    assert_parity(build, rng.normal(size=(6, 2, 16)),
                  rng.normal(size=(6, 1)))


def test_conv1d_stride_no_bias_parity():
    def build():
        r = np.random.default_rng(7)
        return Sequential(Conv1d(3, 5, 4, stride=2, bias=False, rng=r),
                          ReLU(), Flatten(),
                          Linear(5 * 7, 2, rng=r))
    rng = np.random.default_rng(4)
    assert_parity(build, rng.normal(size=(5, 3, 16)),
                  rng.normal(size=(5, 2)))


def test_conv2d_miniweather_style_parity():
    """Grid-to-grid CNN (padded convs + CropPad2d), loss on 4-D output."""
    def build():
        r = np.random.default_rng(8)
        return Sequential(Conv2d(4, 6, 3, padding=1, rng=r), ReLU(),
                          Conv2d(6, 4, 1, rng=r), CropPad2d(8, 8))
    rng = np.random.default_rng(5)
    assert_parity(build, rng.normal(size=(4, 4, 8, 8)),
                  rng.normal(size=(4, 4, 8, 8)))


def test_conv2d_particlefilter_style_parity():
    """Strided conv + max-pool + FC head (the PF regressor family)."""
    def build():
        r = np.random.default_rng(9)
        return Sequential(Conv2d(1, 8, 3, stride=2, rng=r), ReLU(),
                          MaxPool2d(2), Flatten(),
                          Linear(8 * 3 * 3, 2, rng=r))
    rng = np.random.default_rng(6)
    assert_parity(build, rng.normal(size=(5, 1, 14, 14)),
                  rng.normal(size=(5, 2)))


@pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
def test_maxpool1d_training_parity(kernel, stride):
    """Scatter adjoint: upstream grads land on the argmax positions."""
    def build():
        r = np.random.default_rng(11)
        pooled = (8 - kernel) // (stride or kernel) + 1  # conv out L = 8
        return Sequential(Conv1d(2, 4, 3, rng=r), ReLU(),
                          MaxPool1d(kernel, stride), Flatten(),
                          Linear(4 * pooled, 2, rng=r))
    rng = np.random.default_rng(8)
    assert_parity(build, rng.normal(size=(6, 2, 10)),
                  rng.normal(size=(6, 2)))


@pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
def test_avgpool2d_training_parity(kernel, stride):
    """Average adjoint: upstream grads spread evenly over each window."""
    def build():
        r = np.random.default_rng(12)
        pooled = (6 - kernel) // (stride or kernel) + 1
        return Sequential(Conv2d(1, 3, 3, rng=r), ReLU(),
                          AvgPool2d(kernel, stride), Flatten(),
                          Linear(3 * pooled * pooled, 2, rng=r))
    rng = np.random.default_rng(9)
    assert_parity(build, rng.normal(size=(5, 1, 8, 8)),
                  rng.normal(size=(5, 2)))


def test_croppad_pad_direction_parity():
    # Crop in one dim and pad in the other in a single CropPad2d.
    def build():
        r = np.random.default_rng(10)
        return Sequential(Conv2d(2, 3, 3, rng=r), CropPad2d(4, 8))
    rng = np.random.default_rng(7)
    assert_parity(build, rng.normal(size=(3, 2, 8, 8)),
                  rng.normal(size=(3, 3, 4, 8)))


def test_app_builders_compile_for_training():
    """The MiniWeather/ParticleFilter Table IV builders — previously
    graph-only for training — lower end to end."""
    from repro.search.builders import (build_miniweather_cnn,
                                       build_particlefilter_cnn)
    rng = np.random.default_rng(8)
    mw = build_miniweather_cnn({"conv1_kernel": 3, "conv1_channels": 6,
                                "conv2_kernel": 2}, nz=8, nx=8, seed=0)
    assert_parity(lambda: build_miniweather_cnn(
        {"conv1_kernel": 3, "conv1_channels": 6, "conv2_kernel": 2},
        nz=8, nx=8, seed=0),
        rng.normal(size=(2, 4, 8, 8)), rng.normal(size=(2, 4, 8, 8)))
    assert mw is not None
    assert_parity(lambda: build_particlefilter_cnn(
        {"conv_kernel": 4, "conv_stride": 2, "maxpool_kernel": 2,
         "fc2_size": 16}, height=16, width=16, seed=0),
        rng.normal(size=(3, 1, 16, 16)), rng.normal(size=(3, 2)))


# ----------------------------------------------------------------------
# Structural fingerprints
# ----------------------------------------------------------------------

def _mlp(seed=0, hidden=8):
    r = np.random.default_rng(seed)
    return Sequential(Linear(5, hidden, rng=r), ReLU(),
                      Linear(hidden, 1, rng=r))


def test_fingerprint_stable_across_same_structure():
    # Different weights, same structure: equal fingerprints.
    assert structural_fingerprint(_mlp(0)) == structural_fingerprint(_mlp(9))


def test_fingerprint_differs_across_structures_and_modes():
    fp = structural_fingerprint(_mlp())
    assert fp != structural_fingerprint(_mlp(hidden=16))
    assert training_fingerprint(_mlp()) != structural_fingerprint(_mlp())
    from repro.nn import l1_loss
    assert training_fingerprint(_mlp(), mse_loss) != \
        training_fingerprint(_mlp(), l1_loss)


def test_fingerprint_survives_state_dict_load():
    model = _mlp()
    fp = training_fingerprint(model)
    model.load_state_dict(model.state_dict())
    assert training_fingerprint(model) == fp
    plan = compile_training(model, mse_loss)
    assert plan.fingerprint == fp


def _scratch_arrays(plan) -> list:
    """Every scratch array a plan's steps hold, at every batch size."""
    return [arr for step in plan._steps for bufs in step._bufs.values()
            for arr in bufs.values() if isinstance(arr, np.ndarray)]


def _share_scratch(a, b) -> bool:
    return any(np.shares_memory(x, y) for x in a for y in b)


def test_no_two_live_plans_share_scratch(tmp_path):
    """A plan's scratch is its own: no live plan of one engine shares a
    buffer with another after a ``load_state_dict``, a hot swap whose
    old model died, or a float32 plan compiled beside a float64 one."""
    import gc
    import weakref
    from repro.nn import save_model
    from repro.runtime import InferenceEngine
    from repro.serving import hot_swap_model
    engine = InferenceEngine()
    x = np.random.default_rng(3).normal(size=(4, 5))
    model = _mlp(0)
    for _ in range(3):                          # cold, body, body
        engine.infer_with_model(model, x)
        engine.infer_with_model(model, x, dtype=np.float32)
    p64, p32 = engine.plan_for(model), engine.plan_for(model, np.float32)
    model.load_state_dict({k: v * 2.0 for k, v in
                           model.state_dict().items()})
    engine.infer_with_model(model, x)
    rebound = engine.plan_for(model)
    assert rebound is not p64

    path = tmp_path / "m.rnm"
    save_model(_mlp(1), path)
    for _ in range(3):
        engine.infer(path, x)
    swapped_out = engine.plan_for(engine.cache.get(path))
    old_model = weakref.ref(engine.cache.get(path))
    hot_swap_model(_mlp(2), path, engines=(engine,))
    gc.collect()
    assert old_model() is None
    swapped_in = engine.plan_for(engine.cache.get(path))
    np.testing.assert_allclose(engine.infer(path, x),
                               _mlp(2).forward_compiled(x), rtol=1e-12)

    plans = [p64, p32, rebound, swapped_out, swapped_in]
    scratch = [_scratch_arrays(plan) for plan in plans]
    assert all(scratch)
    for i in range(len(plans)):
        for j in range(i + 1, len(plans)):
            assert not _share_scratch(scratch[i], scratch[j]), (i, j)


def test_engine_plan_cache_recompiles_on_same_model_rebind():
    from repro.runtime import InferenceEngine
    engine = InferenceEngine()
    model = _mlp()
    x = np.random.default_rng(1).normal(size=(3, 5))
    first = engine.infer_with_model(model, x)
    plan_a = engine.plan_for(model)
    model.load_state_dict({k: v * 2.0 for k, v in
                           model.state_dict().items()})
    second = engine.infer_with_model(model, x)
    plan_b = engine.plan_for(model)
    assert plan_b is not plan_a
    assert np.abs(second - first).max() > 0     # new weights served
    model.eval()
    from repro.nn import no_grad
    with no_grad():
        ref = model(Tensor(x)).numpy()
    np.testing.assert_allclose(second, ref, rtol=1e-12)


def test_engine_serves_new_weights_across_real_hot_swap(tmp_path):
    """The actual RetrainWorker flow — invalidate + warmup loads a NEW
    model object — serves the new weights on the next call."""
    from repro.nn import save_model
    from repro.runtime import InferenceEngine
    from repro.serving import hot_swap_model

    path = tmp_path / "swap.rnm"
    save_model(_mlp(), path)
    engine = InferenceEngine()
    x = np.random.default_rng(2).normal(size=(4, 5))
    first = engine.infer(path, x)
    # Swap in a retrained same-architecture model; the engine drops and
    # reloads the model, so the plan cache entry's weakref dies.
    hot_swap_model(_mlp(seed=9), path, engines=(engine,))
    second = engine.infer(path, x)
    assert np.abs(second - first).max() > 0     # new weights served
    np.testing.assert_allclose(
        second, engine.cache.get(path).forward_compiled(x), rtol=1e-12)


# ----------------------------------------------------------------------
# Warm restarts: moments survive recompiles
# ----------------------------------------------------------------------

def test_fused_adam_state_dict_roundtrip():
    model = _mlp()
    plan = compile_training(model, mse_loss)
    fused = plan.bind_optimizer(Adam(model.parameters(), lr=1e-3))
    rng = np.random.default_rng(0)
    for _ in range(3):
        plan.train_batch(rng.normal(size=(8, 5)), rng.normal(size=(8, 1)))
        fused.step()
    state = fused.state_dict()
    assert state["t"] == 3 and state["m"].any()

    other = _mlp(seed=5)
    plan2 = compile_training(other, mse_loss)
    fused2 = plan2.bind_optimizer(Adam(other.parameters(), lr=1e-3))
    fused2.load_state_dict(state)
    assert fused2.t == 3
    np.testing.assert_array_equal(fused2.m, state["m"])
    np.testing.assert_array_equal(fused2.v, state["v"])

    small = Sequential(Linear(2, 1))
    plan3 = compile_training(small, mse_loss)
    fused3 = plan3.bind_optimizer(Adam(small.parameters(), lr=1e-3))
    with pytest.raises(ValueError):
        fused3.load_state_dict(state)


def test_fused_sgd_state_dict_roundtrip():
    model = _mlp()
    plan = compile_training(model, mse_loss)
    fused = plan.bind_optimizer(SGD(model.parameters(), lr=1e-2,
                                    momentum=0.9))
    rng = np.random.default_rng(0)
    plan.train_batch(rng.normal(size=(8, 5)), rng.normal(size=(8, 1)))
    fused.step()
    state = fused.state_dict()
    assert state["vel"].any()
    fused.load_state_dict({"vel": np.zeros_like(state["vel"])})
    assert not fused.vel.any()


def test_trainer_moments_survive_recompile():
    """load_state_dict makes the plan stale; the recompiled plan's
    fused optimizer must carry the moments instead of resetting."""
    model = _mlp()
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 5)), rng.normal(size=(64, 1))
    trainer = Trainer(model, batch_size=16, max_epochs=3, compiled=True)
    trainer.fit(x, y, x[:16], y[:16])
    old_fused = trainer._fused
    old_state = old_fused.state_dict()
    assert old_state["m"].any()

    model.load_state_dict(model.state_dict())   # stale, same structure
    assert trainer._plan.stale()
    assert trainer._ensure_compiled(x, y)
    assert trainer._fused is not old_fused
    assert trainer._fused.t == old_state["t"]
    np.testing.assert_array_equal(trainer._fused.m, old_state["m"])
    np.testing.assert_array_equal(trainer._fused.v, old_state["v"])


def test_trainer_warm_start_applies_across_instances():
    model = _mlp()
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 5)), rng.normal(size=(64, 1))
    first = Trainer(model, batch_size=16, max_epochs=3, compiled=True)
    first.fit(x, y, x[:16], y[:16])
    state = first.optimizer_state()
    assert state is not None and state["state"]["m"].any()

    fresh = _mlp(seed=7)                      # same structure, new weights
    second = Trainer(fresh, batch_size=16, max_epochs=1, compiled=True,
                     warm_start=state)
    assert second._ensure_compiled(x, y)
    assert second._fused.t == state["state"]["t"]
    np.testing.assert_array_equal(second._fused.m, state["state"]["m"])

    # A different architecture must ignore the foreign state.
    other = _mlp(seed=1, hidden=16)
    third = Trainer(other, batch_size=16, max_epochs=1, compiled=True,
                    warm_start=state)
    assert third._ensure_compiled(x, y)
    assert third._fused.t == 0
    assert not third._fused.m.any()


def test_warm_start_incompatible_state_degrades_to_cold():
    # Same fingerprint and optimizer kind, but the donor carried
    # momentum velocity and the recipient runs momentum=0: the load is
    # rejected and training starts cold instead of crashing fit().
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(32, 5)), rng.normal(size=(32, 1))
    donor_model = _mlp()
    donor = Trainer(donor_model, batch_size=16, max_epochs=2,
                    compiled=True,
                    optimizer=SGD(donor_model.parameters(), lr=1e-2,
                                  momentum=0.9))
    donor.fit(x, y, x[:8], y[:8])
    state = donor.optimizer_state()
    assert state["kind"] == "FusedSGD" and state["state"]["vel"].any()

    cold_model = _mlp(seed=3)
    cold = Trainer(cold_model, batch_size=16, max_epochs=1, compiled=True,
                   optimizer=SGD(cold_model.parameters(), lr=1e-2),
                   warm_start=state)
    result = cold.fit(x, y, x[:8], y[:8])
    assert cold.compiled_active
    assert np.isfinite(result.best_val_loss)


def test_retrain_worker_warm_start_carries_moments(tmp_path):
    from repro.nn import load_model, save_model
    from repro.runtime import DataCollector
    from repro.serving import RetrainWorker

    rng = np.random.default_rng(0)
    db = tmp_path / "warm.rh5"
    collector = DataCollector(db)
    x = rng.random((96, 2))
    y = x.sum(axis=1, keepdims=True)
    for xi, yi in zip(x, y):
        collector.record("warm", (xi,), (yi,), 0.0)
    collector.close()

    def build(xt, yt):
        return Sequential(Linear(2, 1, rng=np.random.default_rng(1)))

    model_path = tmp_path / "warm.rnm"
    save_model(build(None, None), model_path)
    worker = RetrainWorker(seed=0)
    spec = worker.watch("warm", db, model_path, build=build,
                        trainer_kwargs=dict(lr=0.05, batch_size=32,
                                            max_epochs=4, patience=4),
                        warm_start=True)
    event1 = worker.retrain_now("warm")
    assert event1.compiled
    state1 = spec.opt_state
    assert state1 is not None and state1["state"]["m"].any()
    event2 = worker.retrain_now("warm")
    assert event2.compiled
    # Second retrain produced fresh state, continuing from the first.
    assert spec.opt_state is not state1
    assert spec.opt_state["state"]["t"] > state1["state"]["t"]
    assert load_model(model_path) is not None


def test_retrain_worker_require_compiled_raises(tmp_path):
    from repro.nn import save_model
    from repro.runtime import DataCollector
    from repro.serving import RetrainWorker

    rng = np.random.default_rng(0)
    db = tmp_path / "strict.rh5"
    collector = DataCollector(db)
    for xi in rng.random((48, 2)):
        collector.record("strict", (xi,), (xi.sum(keepdims=True),), 0.0)
    collector.close()

    def build(xt, yt):
        r = np.random.default_rng(1)
        return Sequential(Linear(2, 4, rng=r), LayerNorm(4),
                          Linear(4, 1, rng=r))

    # An unrecognized loss fn has no training lowering, so the trainer
    # falls back to the graph path (the model itself must stay
    # serializable for the swap, hence the loss is the trigger).
    def custom_loss(pred, target):
        return mse_loss(pred, target)

    model_path = tmp_path / "strict.rnm"
    save_model(build(None, None), model_path)
    worker = RetrainWorker(seed=0)
    worker.watch("strict", db, model_path, build=build,
                 trainer_kwargs=dict(max_epochs=1, patience=1,
                                     loss_fn=custom_loss),
                 require_compiled=True)
    with pytest.raises(RuntimeError, match="graph path"):
        worker.retrain_now("strict")
    assert worker.errors and "strict" in worker.errors[0]
    # The retrain itself still completed (event recorded, model swapped).
    assert worker.events and not worker.events[0].compiled


# ----------------------------------------------------------------------
# Compile-failure latch keyed on fingerprint
# ----------------------------------------------------------------------

def test_compile_latch_rekeys_on_model_swap():
    from repro.nn import Module

    class Opaque(Module):                  # no lowering registered
        def forward(self, x):
            return x * 1.0

    unsupported = Sequential(Linear(5, 4), Opaque(), Linear(4, 1))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(32, 5)), rng.normal(size=(32, 1))
    trainer = Trainer(unsupported, batch_size=16, max_epochs=1,
                      compiled=True)
    assert not trainer._ensure_compiled(x, y)
    assert trainer._failed_fingerprint is not None
    # Latched: the same structure does not recompile...
    assert not trainer._ensure_compiled(x, y)
    # ...but a swapped-in supported model re-attempts immediately,
    # without waiting for the next fit() to clear a per-fit latch.
    supported = _mlp()
    trainer.model = supported
    trainer.optimizer = Adam(supported.parameters(), lr=1e-3)
    assert trainer._ensure_compiled(x, y)
    assert trainer.compiled_active
    assert trainer._failed_fingerprint is None


def test_fit_rejects_model_swap_without_optimizer_swap():
    # Gradients would flow into the new model while the optimizer steps
    # the old one — a silent no-op fit.  Must raise instead.
    a, b = _mlp(0), _mlp(1)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(32, 5)), rng.normal(size=(32, 1))
    trainer = Trainer(a, batch_size=16, max_epochs=1, compiled=True)
    trainer.fit(x, y, x[:8], y[:8])
    trainer.model = b                        # optimizer still holds a's params
    with pytest.raises(ValueError, match="optimizer"):
        trainer.fit(x, y, x[:8], y[:8])


def test_trainer_recompiles_when_model_object_replaced():
    # Replacing trainer.model with a same-structure model must not keep
    # training the old model through the cached plan.
    a, b = _mlp(0), _mlp(1)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(32, 5)), rng.normal(size=(32, 1))
    trainer = Trainer(a, batch_size=16, max_epochs=1, compiled=True)
    assert trainer._ensure_compiled(x, y)
    plan_a = trainer._plan
    trainer.model = b
    trainer.optimizer = Adam(b.parameters(), lr=1e-3)
    assert trainer._ensure_compiled(x, y)
    assert trainer._plan is not plan_a
    assert all(p is q for p, q in zip(trainer._plan.params, b.parameters()))
