"""Compiled inference fast path: graph-path equivalence + plan behavior."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn import (AvgPool2d, BatchNorm1d, Conv1d, Conv2d, CompiledPlan,
                      CropPad2d, Destandardize, Dropout, Flatten, GRU,
                      Identity, LayerNorm, LeakyReLU, Linear, MaxPool1d,
                      MaxPool2d, Module, ReLU, Sequential, Sigmoid,
                      Standardize, Tanh, Tensor, UnsupportedLayerError,
                      compile_inference, load_model, no_grad, save_model)

pytestmark = pytest.mark.compile

RTOL = 1e-12


def graph_forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).numpy()


def assert_equivalent(model, x):
    ref = graph_forward(model, x)
    plan = compile_inference(model)
    out = np.array(plan(x))              # plan output may be scratch
    np.testing.assert_allclose(out, ref, rtol=RTOL, atol=1e-300)
    # Second call reuses scratch buffers; must still match — and no
    # step may write the input it borrowed (DESIGN.md §1).
    borrowed = _as_layout(x.copy(), "readonly")
    np.testing.assert_allclose(np.array(plan(borrowed)), ref, rtol=RTOL,
                               atol=1e-300)
    assert np.array_equal(borrowed, x)
    # The third call runs the body generated at the second: it replays
    # the steps' forwards bit for bit and still writes no input.
    assert np.array_equal(plan(borrowed), out)
    assert np.array_equal(borrowed, x)
    assert_narrowed(model, x, out)
    return plan


def assert_narrowed(model, x, ref):
    """The float32 plan of ``model``: every step keeps the stream in
    float32 (no mid-plan promotion) and the output is within 1e-5,
    relative to its largest magnitude, of the float64 plan's ``ref``."""
    plan = compile_inference(model, dtype=np.float32)
    h = x.astype(np.float32)
    for label, step in zip(plan.summary, plan._steps):
        h = step.forward(h, x.shape[0])
        assert h.dtype == np.float32, label
    out = np.array(plan(x))
    assert out.dtype == np.float32
    assert np.abs(out - ref).max() <= 1e-5 * np.abs(ref).max()
    for _ in range(2):                   # the second call generates a body
        assert np.array_equal(plan(x), out)


def mlp_model(rng):
    return Sequential(
        Standardize(rng.normal(size=6), np.abs(rng.normal(size=6)) + 0.5),
        Linear(6, 32, rng=rng), ReLU(),
        Dropout(0.4, rng=np.random.default_rng(7)),
        Linear(32, 16, rng=rng), Tanh(),
        BatchNorm1d(16),
        LayerNorm(16),
        Linear(16, 8, rng=rng), Sigmoid(),
        LeakyReLU(0.02),
        Identity(),
        Linear(8, 3, rng=rng),
        Destandardize(rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1),
    )


def cnn2d_model(rng):
    return Sequential(
        Conv2d(2, 4, 3, padding=1, rng=rng), ReLU(),
        MaxPool2d(2),
        Conv2d(4, 3, 2, rng=rng), Tanh(),
        CropPad2d(4, 4),
        AvgPool2d(2),
        Flatten(),
        Linear(12, 2, rng=rng),
    )


def cnn1d_model(rng):
    return Sequential(
        Conv1d(2, 3, 3, rng=rng), ReLU(),
        MaxPool1d(2),
        Flatten(),
        Linear(21, 2, rng=rng), Sigmoid(),
    )


# ----------------------------------------------------------------------
# Equivalence across the serialized layer zoo
# ----------------------------------------------------------------------

def test_mlp_equivalence_all_layer_types():
    rng = np.random.default_rng(0)
    model = mlp_model(rng)
    # Give batch norm non-trivial running stats before eval comparison.
    model.train()
    with no_grad():
        model(Tensor(rng.normal(size=(64, 6))))
    x = rng.normal(size=(5, 6))
    plan = assert_equivalent(model, x)
    assert plan.n_fused >= 3             # Linear+act pairs fused


def test_cnn2d_equivalence():
    rng = np.random.default_rng(1)
    assert_equivalent(cnn2d_model(rng), rng.normal(size=(3, 2, 8, 8)))


def test_cnn1d_equivalence():
    rng = np.random.default_rng(2)
    assert_equivalent(cnn1d_model(rng), rng.normal(size=(4, 2, 16)))


def test_equivalence_batch_one_and_large():
    rng = np.random.default_rng(3)
    model = mlp_model(rng)
    for batch in (1, 2, 17):
        assert_equivalent(model, rng.normal(size=(batch, 6)))


def test_equivalence_after_serialization_roundtrip(tmp_path):
    """Compiled(load(save(m))) must match the loaded model's graph path
    for every serializable layer type."""
    rng = np.random.default_rng(4)
    for build, shape in ((mlp_model, (3, 6)), (cnn2d_model, (2, 2, 8, 8)),
                         (cnn1d_model, (2, 2, 16))):
        model = build(rng)
        path = tmp_path / f"{build.__name__}.rnm"
        save_model(model, path)
        loaded = load_model(path)
        assert_equivalent(loaded, rng.normal(size=shape))


def test_maxpool1d_unit_kernel():
    rng = np.random.default_rng(5)
    model = Sequential(MaxPool1d(1), Flatten(), Linear(12, 2, rng=rng))
    assert_equivalent(model, rng.normal(size=(3, 3, 4)))


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_maxpool1d_unit_kernel_honours_stride(stride):
    """1-wide windows are the identity only at stride 1: the graph, the
    inference plan and the training plan all return ``x[..., ::stride]``."""
    from repro.nn import compile_training, mse_loss
    x = np.random.default_rng(13).normal(size=(2, 3, 8))
    want = x[..., ::stride]
    model = Sequential(MaxPool1d(1, stride))
    assert np.array_equal(graph_forward(model, x), want)
    assert np.array_equal(compile_inference(model)(x), want)
    head = Conv1d(3, 3, 1, rng=np.random.default_rng(0))   # exact identity
    head.weight.data[...] = np.eye(3)[:, :, None]
    head.bias.data[...] = 0.0
    tplan = compile_training(Sequential(head, MaxPool1d(1, stride)), mse_loss)
    assert tplan.train_batch(x, want) == 0.0


def test_linear_without_bias():
    rng = np.random.default_rng(6)
    model = Sequential(Linear(4, 3, bias=False, rng=rng), ReLU())
    assert_equivalent(model, rng.normal(size=(2, 4)))


# ----------------------------------------------------------------------
# Plan lifecycle
# ----------------------------------------------------------------------

class _OpaqueLayer(Module):                     # a Module with no lowering
    def forward(self, x):
        return x


def test_unsupported_layer_raises():
    model = Sequential(Linear(4, 4), _OpaqueLayer())
    with pytest.raises(UnsupportedLayerError):
        compile_inference(model)


def test_forward_compiled_falls_back_for_unsupported():
    rng = np.random.default_rng(7)
    model = Sequential(Linear(4, 4, rng=rng), _OpaqueLayer(),
                       Linear(4, 1, rng=rng))
    x = rng.normal(size=(2, 4))
    ref = graph_forward(model, x)
    np.testing.assert_allclose(model.forward_compiled(x), ref, rtol=RTOL)


# ----------------------------------------------------------------------
# GRU lowering (the recurrent branch of the serialized zoo)
# ----------------------------------------------------------------------

def test_gru_final_state_equivalence():
    rng = np.random.default_rng(30)
    model = Sequential(GRU(4, 8, rng=rng), Linear(8, 2, rng=rng))
    assert_equivalent(model, rng.normal(size=(3, 7, 4)))


def test_gru_sequence_output_equivalence():
    rng = np.random.default_rng(31)
    model = Sequential(GRU(3, 6, return_sequence=True, rng=rng),
                       Flatten(), Linear(5 * 6, 2, rng=rng))
    assert_equivalent(model, rng.normal(size=(2, 5, 3)))


def test_gru_serialization_roundtrip_parity(tmp_path):
    """Compiled(load(save(m))) matches the graph path <= 1e-12 for
    sequence surrogates — the fast-path acceptance bit for GRUs."""
    rng = np.random.default_rng(32)
    model = Sequential(GRU(5, 10, rng=rng), Linear(10, 3, rng=rng))
    path = tmp_path / "gru.rnm"
    save_model(model, path)
    loaded = load_model(path)
    x = rng.normal(size=(4, 9, 5))
    ref = graph_forward(loaded, x)
    plan = compile_inference(loaded)
    assert np.abs(np.array(plan(x)) - ref).max() <= 1e-12


def test_gru_plan_tracks_in_place_updates():
    rng = np.random.default_rng(33)
    model = Sequential(GRU(3, 4, rng=rng), Linear(4, 1, rng=rng))
    plan = compile_inference(model)
    x = rng.normal(size=(2, 6, 3))
    plan(x)
    model[0].cell.weight_hh.data[...] *= 1.1      # in place
    assert not plan.stale()
    np.testing.assert_allclose(np.array(plan(x)), graph_forward(model, x),
                               rtol=RTOL, atol=1e-300)


def test_gru_engine_uses_compiled_plan(tmp_path):
    """The engine no longer falls back to the graph path for GRUs."""
    from repro.runtime import InferenceEngine
    rng = np.random.default_rng(34)
    model = Sequential(GRU(4, 6, rng=rng), Linear(6, 1, rng=rng))
    path = tmp_path / "gru.rnm"
    save_model(model, path)
    engine = InferenceEngine()
    loaded = engine.warmup(path)
    assert engine.plan_for(loaded) is not None
    x = rng.normal(size=(3, 5, 4))
    out = engine.infer(path, x)
    np.testing.assert_allclose(out, graph_forward(loaded, x), rtol=RTOL,
                               atol=1e-300)
    assert engine.last_timing["compiled"]


def test_forward_compiled_caches_and_matches():
    rng = np.random.default_rng(8)
    model = mlp_model(rng)
    model.eval()
    x = rng.normal(size=(2, 6))
    ref = graph_forward(model, x)
    np.testing.assert_allclose(np.array(model.forward_compiled(x)), ref,
                               rtol=RTOL, atol=1e-300)
    assert isinstance(model.__dict__["_plan_cache"], CompiledPlan)


def test_plan_stale_on_state_dict_load():
    rng = np.random.default_rng(9)
    model = Sequential(Linear(3, 2, rng=rng))
    plan = compile_inference(model)
    assert not plan.stale()
    state = {k: v * 2.0 for k, v in model.state_dict().items()}
    model.load_state_dict(state)
    assert plan.stale()
    x = rng.normal(size=(1, 3))
    # forward_compiled recompiles transparently.
    np.testing.assert_allclose(np.array(model.forward_compiled(x)),
                               graph_forward(model, x), rtol=RTOL)


def test_plan_tracks_in_place_updates():
    """Optimizer-style in-place writes flow through without recompiling."""
    rng = np.random.default_rng(10)
    model = Sequential(Linear(3, 2, rng=rng))
    plan = compile_inference(model)
    x = rng.normal(size=(2, 3))
    plan(x)
    model[0].weight.data[...] *= 1.5     # in place: same array object
    model[0].bias.data[...] += 0.25
    assert not plan.stale()
    np.testing.assert_allclose(np.array(plan(x)), graph_forward(model, x),
                               rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize("head", ["affine", "conv"])
def test_rebound_params_reach_the_next_call(head):
    """A step's ``bind_params`` after the plan's body exists: the next
    three calls (the steps, the body generated again, that body) all
    read the new arrays, bitwise the graph of the rebound model."""
    rng = np.random.default_rng(11)
    if head == "affine":
        model = Sequential(Linear(5, 8, rng=rng), ReLU(),
                           Linear(8, 2, rng=rng))
        x = rng.normal(size=(4, 5))
    else:
        model = Sequential(Conv2d(2, 3, 3, padding=1, rng=rng), ReLU(),
                           Flatten(), Linear(48, 2, rng=rng))
        x = rng.normal(size=(4, 2, 4, 4))
    plan = compile_inference(model)
    for _ in range(3):
        plan(x)
    assert plan._bodies[x.shape, x.dtype] is not None
    layer = model[0]
    layer.weight.data = layer.weight.data * -1.5
    layer.bias.data = layer.bias.data + 0.25
    plan._steps[0].bind_params([layer.weight.data, layer.bias.data])
    ref = graph_forward(model, x)
    for _ in range(3):
        assert np.array_equal(plan(x), ref)


@pytest.mark.parametrize("layer", [Standardize, Destandardize])
def test_rebound_stats_reach_the_next_call(layer):
    """``bind_consts`` on an unfolded standardize-family step drops its
    full-extent copies of the old statistics: every later call reads the
    new ones, bitwise the graph of the rebound model."""
    rng = np.random.default_rng(12)
    model = Sequential(layer(rng.normal(size=4),
                             np.abs(rng.normal(size=4)) + 0.5), Tanh())
    x = rng.normal(size=(3, 4))
    plan = compile_inference(model)
    for _ in range(3):
        plan(x)
    step, stats = plan._steps[0], model[0]
    stats.mean = stats.mean + 1.0
    stats.std = stats.std * 2.0
    step.bind_consts([step.derive_const(si, arr)
                      for si, arr in enumerate((stats.mean, stats.std))])
    ref = graph_forward(model, x)
    for _ in range(3):
        assert np.array_equal(plan(x), ref)


def test_plan_stale_on_structural_mutation():
    """Appending a layer must trip staleness in *any* plan holder (the
    engine's cache watches stale(), not the module's own cache)."""
    rng = np.random.default_rng(20)
    model = Sequential(Linear(4, 4, rng=rng), ReLU())
    plan = compile_inference(model)
    assert not plan.stale()
    model.append(Linear(4, 2, rng=rng))
    assert plan.stale()


def test_engine_recompiles_after_append(tmp_path):
    """Reviewer repro: engine must not serve a stale plan after append."""
    from repro.runtime import InferenceEngine
    rng = np.random.default_rng(21)
    model = Sequential(Linear(4, 4, rng=rng), ReLU())
    engine = InferenceEngine()
    x = rng.normal(size=(1, 4))
    assert engine.infer_with_model(model, x).shape == (1, 4)
    model.append(Linear(4, 2, rng=rng))
    out = engine.infer_with_model(model, x)
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out, graph_forward(model, x), rtol=RTOL,
                               atol=1e-300)


def test_sequential_append_invalidates_cached_plan():
    rng = np.random.default_rng(11)
    model = Sequential(Linear(3, 3, rng=rng))
    x = rng.normal(size=(1, 3))
    model.forward_compiled(x)
    model.append(ReLU())
    np.testing.assert_allclose(np.array(model.forward_compiled(x)),
                               graph_forward(model, x), rtol=RTOL,
                               atol=1e-300)


def test_plan_output_isolated_from_next_call():
    """Scratch reuse must not corrupt a copied previous result."""
    rng = np.random.default_rng(12)
    model = mlp_model(rng)
    plan = compile_inference(model)
    x1 = rng.normal(size=(2, 6))
    x2 = rng.normal(size=(2, 6))
    out1 = np.array(plan(x1))
    plan(x2)
    np.testing.assert_allclose(out1, graph_forward(model, x1), rtol=RTOL,
                               atol=1e-300)


# ----------------------------------------------------------------------
# Conv steps: geometry differential + scratch lifecycle
# ----------------------------------------------------------------------

def _as_layout(x, layout):
    """``x``'s values behind a C-ordered, Fortran-ordered, strided
    (every other element of a wider buffer) or read-only view."""
    if layout == "readonly":
        x = x.view()
        x.setflags(write=False)
        return x
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return x


@given(c_in=st.integers(1, 5), c_out=st.integers(1, 5), k=st.integers(1, 5),
       stride=st.integers(1, 3), padding=st.integers(0, 2),
       h=st.integers(1, 12), w=st.integers(1, 12), batch=st.integers(1, 5),
       bias=st.booleans(), act=st.sampled_from([None, ReLU, Tanh]),
       one_d=st.booleans(), scale=st.floats(-3.0, 3.0),
       layout=st.sampled_from(["c", "fortran", "strided", "readonly"]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_conv_geometry_matches_graph_property(c_in, c_out, k, stride, padding,
                                              h, w, batch, bias, act, one_d,
                                              scale, layout, seed):
    """Property: for any conv geometry the compiled forward equals the
    graph forward bitwise (first call and on reused scratch), and the
    training plan's gradients stay within the 1e-10 pin."""
    from repro.nn import compile_training, mse_loss
    if one_d:
        assume(w >= k)
        shape = (batch, c_in, w)

        def conv(r, out, kernel, stride, padding):
            return Conv1d(c_in, out, kernel, stride=stride, bias=bias, rng=r)
    else:
        assume(h + 2 * padding >= k and w + 2 * padding >= k)
        shape = (batch, c_in, h, w)

        def conv(r, out, kernel, stride, padding):
            return Conv2d(c_in, out, kernel, stride=stride, padding=padding,
                          bias=bias, rng=r)

    def build():
        r = np.random.default_rng(seed)
        # A leading 1x1 conv makes the conv under test compute its
        # input gradient (col2im) too.
        layers = [conv(r, c_in, 1, 1, 0), conv(r, c_out, k, stride, padding)]
        if act is not None:
            layers.append(act())
        return Sequential(*layers)

    rng = np.random.default_rng(seed + 1)
    model = build()
    plan = compile_inference(model)
    for _ in range(2):
        values = rng.normal(size=shape) * 10.0 ** scale
        x = _as_layout(values.copy(), layout)
        assert np.array_equal(plan(x), graph_forward(model, x))
        assert np.array_equal(x, values)    # borrowed, never written

    x = _as_layout(rng.normal(size=shape), layout)
    model.train()
    model.zero_grad()
    pred = model(Tensor(x))
    y = rng.normal(size=pred.shape)
    mse_loss(pred, Tensor(y)).backward()
    twin = build()
    tplan = compile_training(twin, mse_loss)
    tplan.train_batch(x, y)
    for p, got in zip(model.parameters(), tplan.grad_views):
        assert np.abs(p.grad - got).max() <= 1e-10


@pytest.mark.parametrize("layout", ["c", "readonly", "fortran", "strided"])
def test_pointwise_conv_reads_contiguous_input_in_place(layout, monkeypatch):
    """A 1x1, stride-1, unpadded conv's columns are its input reshaped:
    the inference step hands a C-contiguous input straight to its GEMM —
    read, never written, never kept — and copies any other layout; a
    training step always copies (its backward reads the columns)."""
    from repro.nn import compile_training, mse_loss
    rng = np.random.default_rng(34)
    model = Sequential(Conv2d(3, 4, 1, rng=rng), ReLU())
    values = rng.normal(size=(2, 3, 5, 6))
    x = _as_layout(values.copy(), layout)
    plan = compile_inference(model)
    tplan = compile_training(model, mse_loss)
    y = rng.normal(size=(2, 4, 5, 6))
    plan(x)
    tplan.train_batch(x, y)
    operands = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: (
        operands.append(b), matmul(a, b, **kw))[1])
    out = plan(x)
    tplan.train_batch(x, y)            # forward GEMM first, then backward
    monkeypatch.undo()
    assert np.array_equal(out, graph_forward(model, x))
    assert np.shares_memory(operands[0], x) == (layout in ("c", "readonly"))
    assert not np.shares_memory(operands[1], x)
    assert np.array_equal(x, values)
    for step in (plan._steps[0], tplan._steps[0]):
        kept = [a for a in step._bufs[2]["conv"] if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, x) for a in kept)


def fcn_model(seed=0):
    """Shape-preserving, fully-convolutional: any grid, any batch."""
    r = np.random.default_rng(seed)
    return Sequential(Conv2d(3, 5, 3, padding=1, rng=r), ReLU(),
                      Conv2d(5, 3, 1, rng=r))


def test_conv_steady_state_reuses_buffers():
    rng = np.random.default_rng(30)
    model = fcn_model()
    plan = compile_inference(model)
    x = rng.normal(size=(1, 3, 16, 32))
    first = plan(x)
    scratch = [step._bufs[1]["conv"] for step in plan._steps]
    for _ in range(3):
        x = rng.normal(size=x.shape)
        out = plan(x)
        assert out is first              # same buffer, call after call
        assert np.array_equal(out, graph_forward(model, x))
    for step, conv in zip(plan._steps, scratch):
        assert step._bufs[1]["conv"] is conv     # nothing was rebuilt


def test_conv_same_batch_other_grid_rebuilds():
    """The plan keys scratch by batch size only; a new H x W at the same
    batch size must never gather through the old index."""
    rng = np.random.default_rng(31)
    model = fcn_model()
    plan = compile_inference(model)
    grids = [(8, 8), (6, 10), (8, 8), (12, 3), (6, 10)]
    for h, w in grids:
        x = rng.normal(size=(2, 3, h, w))
        assert np.array_equal(plan(x), graph_forward(model, x))
    x32 = rng.normal(size=(2, 3, 6, 10)).astype(np.float32)
    assert np.array_equal(plan(x32), graph_forward(model, x32))


def test_conv_interleaved_batch_sizes_and_eviction():
    rng = np.random.default_rng(32)
    model = fcn_model()
    plan = compile_inference(model)
    held = {}
    for n in (1, 3, 0, 1, 2, 3, 1, 0, 2):
        x = rng.normal(size=(n, 3, 5, 7))
        out = plan(x)
        assert np.array_equal(out, graph_forward(model, x))
        assert held.setdefault(n, out) is out   # one buffer per batch size
    for n in range(1, 21):               # more than 16 keys: evicts
        x = rng.normal(size=(n, 3, 5, 7))
        assert np.array_equal(plan(x), graph_forward(model, x))
    assert len(plan._steps[0]._bufs) < 20
    x = rng.normal(size=(1, 3, 5, 7))
    assert np.array_equal(plan(x), graph_forward(model, x))


@pytest.mark.parametrize("model", [
    fcn_model(), Sequential(Conv2d(3, 3, 3, padding=1,
                                   rng=np.random.default_rng(1))),
    Sequential(Conv2d(3, 3, 1, rng=np.random.default_rng(2)))],
    ids=["two-conv", "single-conv", "single-1x1"])
def test_conv_plan_fed_its_own_output(model):
    """``plan(plan(x))``: the input aliases the plan's output buffer (for
    the 1x1 conv, its GEMM's column operand is its own output)."""
    x = np.random.default_rng(33).normal(size=(2, 3, 6, 6))
    plan = compile_inference(model)
    ref = graph_forward(model, graph_forward(model, x))
    assert np.array_equal(plan(plan(x)), ref)


def test_conv_hot_swap_serves_new_weights_on_scratch_of_its_own(tmp_path):
    from repro.runtime import InferenceEngine
    from repro.serving import hot_swap_model
    path = tmp_path / "fcn.rnm"
    save_model(fcn_model(), path)
    engine = InferenceEngine()
    x = np.random.default_rng(34).normal(size=(2, 3, 6, 6))
    first = engine.infer(path, x)
    old_scratch = engine.plan_for(engine.cache.get(path))._steps[0]._bufs[2]
    retrained = fcn_model(seed=9)
    hot_swap_model(retrained, path, engines=(engine,))
    second = engine.infer(path, x)
    new_plan = engine.plan_for(engine.cache.get(path))
    assert new_plan._steps[0]._bufs[2] is not old_scratch   # its own
    assert np.abs(second - first).max() > 0
    assert np.array_equal(second, graph_forward(retrained, x))


def test_conv_training_after_inference_at_same_batch():
    """``Trainer`` alternates ``train_batch`` and ``forward_compiled``
    at whatever batch sizes the data gives; the two plans' scratch must
    not interact."""
    from repro.nn import compile_training, mse_loss
    rng = np.random.default_rng(35)
    x, x_val = rng.normal(size=(2, 4, 3, 6, 6))
    y = rng.normal(size=(4, 3, 6, 6))
    ref = fcn_model()
    ref.train()
    mse_loss(ref(Tensor(x)), Tensor(y)).backward()
    model = fcn_model()
    plan = compile_training(model, mse_loss)
    for _ in range(2):
        val = model.forward_compiled(x_val)
        plan.train_batch(x, y)
        for p, got in zip(ref.parameters(), plan.grad_views):
            assert np.abs(p.grad - got).max() <= 1e-10
        assert np.array_equal(val, graph_forward(model, x_val))


# ----------------------------------------------------------------------
# Plan constants across a hot-swap (DESIGN.md §5)
# ----------------------------------------------------------------------

def _stats(rng, shape):
    return rng.normal(size=shape), np.abs(rng.normal(size=shape)) + 0.5


def _headed_conv(seed):
    """The MiniWeather shape: per-channel stats around a conv core."""
    r = np.random.default_rng(seed)
    return Sequential(Standardize(*_stats(r, (3, 1, 1))),
                      Conv2d(3, 4, 3, padding=1, rng=r), ReLU(),
                      Conv2d(4, 3, 1, rng=r), CropPad2d(6, 6),
                      Destandardize(*_stats(r, (3, 1, 1))))


def _headed_mlp(seed):
    r = np.random.default_rng(seed)
    return Sequential(Standardize(*_stats(r, 5)), Linear(5, 8, rng=r),
                      ReLU(), Linear(8, 2, rng=r),
                      Destandardize(*_stats(r, 2)))


def _scratch_of(plan):
    return [buf for step in plan._steps for buf in step._bufs.values()]


@pytest.mark.parametrize("build,shape", [(_headed_conv, (1, 3, 6, 6)),
                                         (_headed_mlp, (1, 5))],
                         ids=["conv", "mlp"])
@pytest.mark.parametrize("path", ["stale-same-model", "dead-predecessor"])
def test_hot_swap_serves_the_new_standardization_stats(build, shape, path):
    """The new model's stats are what the first post-swap call applies,
    on scratch of its own — whether the plan was recompiled for the same
    model (stale) or for a new one whose predecessor died."""
    import gc
    from repro.runtime import InferenceEngine
    engine = InferenceEngine()
    x = np.random.default_rng(40).normal(size=shape)
    model = build(0)
    engine.plan_for(model)(x)
    old = _scratch_of(engine.plan_for(model))
    fresh = build(1)
    if path == "stale-same-model":
        for mine, theirs in ((model[0], fresh[0]), (model[-1], fresh[-1])):
            mine.mean, mine.std = theirs.mean, theirs.std   # rebinds: stale
        new = model
    else:
        del model
        gc.collect()
        new = fresh
    plan = engine.plan_for(new)
    assert np.array_equal(plan(x), graph_forward(new, x))
    assert np.array_equal(plan(x), graph_forward(new, x))
    assert old and _scratch_of(plan) and not \
        {id(b) for b in _scratch_of(plan)} & {id(b) for b in old}


# ----------------------------------------------------------------------
# Folded neighbours: graph ≡ compiled at the edges of the fold
# ----------------------------------------------------------------------

def assert_bitwise_twice(model, x):
    """Graph ≡ compiled bitwise on two consecutive calls (the second on
    warm scratch and constants), the input left as it was."""
    plan = compile_inference(model)
    before = x.copy()
    for _ in range(2):
        assert np.array_equal(plan(x), graph_forward(model, x))
    assert np.array_equal(x, before)
    return plan


def _r(seed=0):
    return np.random.default_rng(seed)


def test_fold_scalar_stats():
    r = _r(50)
    assert_bitwise_twice(
        Sequential(Standardize(0.5, 2.0), Linear(4, 3, rng=r), Tanh(),
                   Destandardize(-1.0, 3.0)), r.normal(size=(3, 4)))


def test_fold_one_row_batch():
    r = _r(51)
    assert_bitwise_twice(_headed_mlp(51), r.normal(size=(1, 5)))


def test_fold_float32_input_to_float64_plan():
    r = _r(52)
    for model, shape in ((_headed_mlp(52), (4, 5)),
                         (_headed_conv(52), (2, 3, 6, 6))):
        x = r.normal(size=shape).astype(np.float32)
        assert assert_bitwise_twice(model, x)(x).dtype == np.float64


def test_fold_conv1d_channel_column_stats():
    r = _r(53)
    model = Sequential(Standardize(*_stats(r, (2, 1))),
                       Conv1d(2, 3, 3, rng=r), ReLU(),
                       Destandardize(*_stats(r, (3, 1))))
    assert_bitwise_twice(model, r.normal(size=(2, 2, 10)))


def test_fold_even_kernel_conv_then_crop():
    r = _r(54)
    model = Sequential(Standardize(*_stats(r, (3, 1, 1))),
                       Conv2d(3, 3, 4, padding=2, rng=r), CropPad2d(6, 6),
                       Destandardize(*_stats(r, (3, 1, 1))))
    assert graph_forward(model, np.zeros((1, 3, 6, 6))).shape[-1] == 6
    assert_bitwise_twice(model, r.normal(size=(2, 3, 6, 6)))


def test_fold_unpadded_conv_then_pad_then_destandardize():
    """The pad lands before the tail: the border reads ``mean``."""
    r = _r(55)
    mean, std = _stats(r, (3, 1, 1))
    model = Sequential(Conv2d(3, 3, 3, rng=r), CropPad2d(6, 6),
                       Destandardize(mean, std))
    out = assert_bitwise_twice(model, r.normal(size=(2, 3, 6, 6)))(
        r.normal(size=(2, 3, 6, 6)))
    assert np.array_equal(out[:, :, 4:, :],
                          np.broadcast_to(mean, (2, 3, 2, 6)))


def test_fold_destandardize_only_plan_leaves_input():
    r = _r(56)
    model = Sequential(Destandardize(*_stats(r, 4)))
    x = _as_layout(r.normal(size=(3, 4)), "readonly")
    assert_bitwise_twice(model, x)


def test_fold_leaky_relu_conv():
    r = _r(57)
    model = Sequential(Standardize(*_stats(r, (3, 1, 1))),
                       Conv2d(3, 4, 3, padding=1, rng=r), LeakyReLU(0.1),
                       Destandardize(*_stats(r, (4, 1, 1))))
    assert_bitwise_twice(model, r.normal(size=(2, 3, 5, 5)))


def test_fold_strided_conv_pool_linear():
    r = _r(58)
    model = Sequential(Standardize(*_stats(r, (1, 1, 1))),
                       Conv2d(1, 4, 3, stride=2, rng=r), ReLU(),
                       MaxPool2d(2), Flatten(), Linear(4 * 3 * 3, 2, rng=r),
                       Destandardize(*_stats(r, 2)))
    assert_bitwise_twice(model, r.normal(size=(2, 1, 13, 13)))


def test_fold_one_plan_two_grids_at_batch_one():
    r = _r(59)
    model = Sequential(Standardize(*_stats(r, (3, 1, 1))),
                       Conv2d(3, 4, 3, padding=1, rng=r), ReLU(),
                       Conv2d(4, 3, 1, rng=r),
                       Destandardize(*_stats(r, (3, 1, 1))))
    plan = compile_inference(model)
    for h, w in ((8, 8), (6, 10), (8, 8), (6, 10)):
        x = r.normal(size=(1, 3, h, w))
        assert np.array_equal(plan(x), graph_forward(model, x))


def test_fold_narrowed_mlp_head_and_tail():
    r = _r(60)
    model = _headed_mlp(60)
    x = r.normal(size=(64, 5))
    y64 = graph_forward(model, x)
    plan = compile_inference(model, dtype=np.float32)
    for _ in range(2):
        y32 = plan(x)
        assert y32.dtype == np.float32
        assert np.abs(y32 - y64).max() / (np.abs(y64).max() + 1e-12) < 1e-5


def _miniweather_plan():
    from repro.search.builders import build_miniweather_cnn
    r = _r(61)
    core = build_miniweather_cnn({"conv1_kernel": 3, "conv1_channels": 4,
                                  "conv2_kernel": 0}, nz=16, nx=32)
    model = Sequential(Standardize(*_stats(r, (4, 1, 1))), *core,
                       Destandardize(*_stats(r, (4, 1, 1))))
    return compile_inference(model), r.normal(size=(1, 4, 16, 32))


def _binomial_plan():
    from repro.search.builders import build_mlp2
    r = _r(62)
    core = build_mlp2({"hidden1_features": 48, "hidden2_features": 24}, 5, 1)
    model = Sequential(Standardize(*_stats(r, 5)), *core,
                       Destandardize(*_stats(r, 1)))
    return compile_inference(model), r.normal(size=(16, 5))


@pytest.mark.parametrize("build,rows", [
    (_miniweather_plan, ("Standardize→Conv2d+ReLU: im2col",
                         "Conv2d+CropPad2d+Destandardize: im2col")),
    (_binomial_plan, ("Standardize→Linear+ReLU: affine", "Linear+ReLU: affine",
                      "Linear+Destandardize: affine"))],
    ids=["miniweather", "binomial"])
def test_profile_names_each_folded_step_on_one_row(build, rows):
    plan, x = build()
    out, timings = plan.profile(x)
    assert np.array_equal(out, plan(x))
    assert len(timings) == len(plan.summary) == len(plan._steps)
    assert tuple(t["step"] for t in timings) == plan.summary == rows
    assert not any("fused" in row for row in plan.summary)
