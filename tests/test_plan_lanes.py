"""Row lanes and row blocks: a large one-model plan forward as row pieces.

A qualifying geometry's body becomes a dispatcher over contiguous row
pieces cut at multiples of 192 rows (``DESIGN.md`` §4); a batch of at
least two row blocks runs each lane's rows as blocks through that lane's
own block-sized scratch, no block under the floor of the body's GEMMs.
Every test here checks split ≡ whole (≡ graph at float64) on inputs the
plans never saw.

The width probe (``plan._lane_width``) is forced to two lanes, so the
tests split on any runner; the zoo tests also lower the flop threshold,
because their models are small.  The ``lane_rule`` and ``block_rule``
tests read the real probe too: CI runs them under a pinned, a one-CPU
and a threaded BLAS.
"""

import ctypes
import functools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import (GRU, AvgPool2d, BatchNorm1d, Conv1d, Conv2d, CropPad2d,
                      Destandardize, Dropout, Flatten, LayerNorm, Linear,
                      MaxPool1d, MaxPool2d, ReLU, Sequential, Sigmoid,
                      Standardize, Tanh, Tensor, no_grad, save_model)
from repro.nn import plan as P
from repro.nn.compile import compile_inference
from repro.runtime import InferenceEngine
from repro.search.builders import build_mlp2, build_particlefilter_cnn
from repro.serving import (ProcessPoolBackend, RegionServer,
                           ThreadPoolBackend, hot_swap_model)

WAIT = 60.0     # hang guard, never reached when lanes work


def _openblas_setter():
    """``openblas_set_num_threads`` of the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                return setter
    return None


@pytest.fixture
def one_thread_blas():
    """A BLAS running one thread, as the lane and block rules require: a
    threaded BLAS may partition a whole batch's GEMM unlike its pieces'
    (lanes and blocks then never apply)."""
    threads = P._blas_threads()
    setter = _openblas_setter() if threads is not None else None
    if setter is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    setter(1)
    yield
    setter(threads)


@pytest.fixture
def two_lanes(monkeypatch, one_thread_blas):
    """Two lanes."""
    monkeypatch.setattr(P, "_lane_width", lambda: 2)
    return monkeypatch


@pytest.fixture
def small_lanes(two_lanes):
    """Two lanes, and any GEMM work is enough to split."""
    two_lanes.setattr(P, "_LANE_FLOPS", 1.0)
    return two_lanes


def graph(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).numpy()


def served(plan, x):
    """Three calls (the third runs the generated body): the last output,
    copied, and the lanes that call ran on."""
    for _ in range(3):
        out = plan(x)
    split, plan.last_split = plan.last_split, None
    return out.copy(), 1 if split is None else split[0]


def whole_and_split(model, x, dtype=np.float64):
    """``x`` through a plan warmed on one lane without blocks and one
    warmed on the patched width: (whole output, split output, the
    split's lanes)."""
    whole_plan = compile_inference(model, dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_lane_width", lambda: 1)
        mp.setattr(P, "_BLOCK_BYTES", 1 << 60)
        whole, lanes = served(whole_plan, x)
    assert lanes == 1
    split, lanes = served(compile_inference(model, dtype), x)
    return whole, split, lanes


def bits(a):
    return a.dtype, a.shape, a.tobytes()


def floor_of(model, dtype=np.float64):
    """The largest floor of ``model``'s 2-D GEMMs on this BLAS."""
    steps = compile_inference(model, dtype)._steps
    return max((P._floor(step.wt) for step in steps
                if isinstance(step, P.AffineStep)), default=192)


def _stats(rng, n):
    return rng.normal(size=n), np.abs(rng.normal(size=n)) + 0.5


def mlp_heads(rng):
    return Sequential(Standardize(*_stats(rng, 6)), Linear(6, 40, rng=rng),
                      ReLU(), Linear(40, 24, rng=rng), Tanh(),
                      Linear(24, 3, rng=rng), Destandardize(*_stats(rng, 3)))


def norms(rng):
    bn = BatchNorm1d(24)
    bn.running_mean, bn.running_var = _stats(rng, 24)
    # Each activation folds into the GEMM before it: a standalone one
    # (behind a norm) keeps the body whole.
    return Sequential(Linear(8, 24, rng=rng), ReLU(), bn, Dropout(0.3),
                      Linear(24, 16, rng=rng), Sigmoid(), LayerNorm(16),
                      Linear(16, 2, rng=rng))


def conv2d(rng):
    return Sequential(Conv2d(2, 4, 3, padding=1, rng=rng), ReLU(),
                      MaxPool2d(2), Conv2d(4, 3, 3, padding=1, rng=rng),
                      CropPad2d(3, 5), AvgPool2d(1), Flatten(),
                      Linear(45, 2, rng=rng))


def conv1d(rng):
    return Sequential(Conv1d(3, 4, 3, rng=rng), ReLU(), MaxPool1d(2),
                      Conv1d(4, 4, 1, rng=rng), Flatten(),
                      Linear(28, 2, rng=rng))


ZOO = {"mlp_heads": (mlp_heads, (6,)), "norms": (norms, (8,)),
       "conv2d": (conv2d, (2, 8, 8)), "conv1d": (conv1d, (3, 16))}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [383, 384, 2047, 2048, 4099])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_split_is_bitwise_the_whole_body(small_lanes, name, rows, dtype):
    build, features = ZOO[name]
    rng = np.random.default_rng(rows)
    model = build(rng)
    x = rng.normal(size=(rows, *features))
    whole, split, lanes = whole_and_split(model, x, dtype)
    assert lanes == (2 if rows >= 2 * floor_of(model, dtype) else 1)
    assert bits(split) == bits(whole)
    if dtype == np.float64:
        assert bits(split) == bits(graph(model, x))


def test_cuts_fall_on_192_rows_where_a_halving_cut_would_not_be_bitwise(
        two_lanes):
    """``Linear(512, 410)`` at 2048 rows: halves at row 1024 change
    N-tail columns on some BLAS builds; the cut lands on row 960."""
    rng = np.random.default_rng(1)
    model = Sequential(Linear(512, 410, rng=rng))
    x = rng.normal(size=(2048, 512))
    whole, split, lanes = whole_and_split(model, x)
    assert lanes == 2
    assert bits(split) == bits(whole) == bits(graph(model, x))
    plan = compile_inference(model)
    served(plan, x)
    pieces = plan._bodies[x.shape, x.dtype].args[0]
    assert [(lo, hi) for lo, hi, _ in pieces] == [(0, 960), (960, 2048)]


def test_a_step_without_a_body_form_keeps_the_body_whole(small_lanes):
    rng = np.random.default_rng(2)
    model = Sequential(GRU(4, 8, rng=rng), Linear(8, 2, rng=rng))
    x = rng.normal(size=(768, 5, 4))
    whole, split, lanes = whole_and_split(model, x)
    assert lanes == 1 and bits(split) == bits(whole)


def skew_the_floor_check(monkeypatch):
    """A floor check whose reference is one candidate long, so no
    candidate runs under it: every GEMM, measured afresh, has no floor."""
    monkeypatch.setattr(P, "_FLOORS", {})
    monkeypatch.setattr(P, "_FLOOR_REF", P._LANE_ROWS)


def test_a_gemm_without_a_floor_keeps_the_body_whole(small_lanes):
    skew_the_floor_check(small_lanes)
    rng = np.random.default_rng(3)
    model = mlp_heads(rng)
    x = rng.normal(size=(768, 6))
    plan = compile_inference(model)
    out, lanes = served(plan, x)
    assert lanes == 1
    assert not isinstance(plan._bodies[x.shape, x.dtype], functools.partial)
    assert bits(out) == bits(graph(model, x))


def deploy_mlp(rng, dims):
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        layers += [Linear(fan_in, fan_out, rng=rng), ReLU()]
    return Sequential(*layers[:-1])


def test_lane_rule_leaves_small_forwards_whole_and_splits_large_ones(
        two_lanes):
    """``proc_slab``'s 256-row 5-160-96-1 forward (8.3 MFLOP) stays
    whole; ``deploy_gemm``'s 2048-row 6-512-410-328-262-1 one (1.78
    GFLOP) splits."""
    rng = np.random.default_rng(4)
    small = deploy_mlp(rng, [5, 160, 96, 1])
    out, lanes = served(compile_inference(small),
                        rng.normal(size=(256, 5)))
    assert lanes == 1
    large = deploy_mlp(rng, [6, 512, 410, 328, 262, 1])
    x = rng.normal(size=(2048, 6))
    out, lanes = served(compile_inference(large), x)
    assert lanes == 2 and bits(out) == bits(graph(large, x))


def test_lane_rule_width_follows_the_cpus_and_the_blas():
    """One lane per usable CPU when the BLAS runs one thread; one lane
    when it is threaded (``OPENBLAS_NUM_THREADS`` > 1 or unset on a
    multi-core box) or pinned to one CPU (``taskset -c 0``)."""
    if P._blas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be read")
    cpus = len(os.sched_getaffinity(0))
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    pinned = blas == "1" if blas is not None else P._blas_threads() == 1
    width = cpus if pinned else 1
    assert P._lane_width() == width
    rng = np.random.default_rng(5)
    large = deploy_mlp(rng, [6, 512, 410, 328, 262, 1])
    x = rng.normal(size=(2048, 6))
    out, lanes = served(compile_inference(large), x)
    assert lanes == min(width, 2048 // 192)
    assert bits(out) == bits(graph(large, x))


def test_lane_rule_an_unreadable_blas_counts_as_threaded(monkeypatch):
    monkeypatch.setattr(P, "_blas_threads", lambda: None)
    assert P._lane_width() == 1


def test_forward_device_is_the_pieces_busy_time(small_lanes):
    """The modeled device time of a split forward is its pieces' summed
    busy time, not the elapsed wall; ``lanes`` says which ran."""
    busy = []
    real = P._run_split

    def recorded(pieces, out, plan, x):
        result = real(pieces, out, plan, x)
        busy.append(plan().last_split[1])
        return result

    small_lanes.setattr(P, "_run_split", recorded)
    rng = np.random.default_rng(6)
    model = mlp_heads(rng)
    engine = InferenceEngine()
    for rows in (768, 64):
        for _ in range(3):
            engine.infer_with_model(model, rng.normal(size=(rows, 6)))
        timing = engine.last_timing
        if rows == 768:
            assert timing["lanes"] == 2
            assert timing["forward_device"] == \
                engine.device.dense_time(busy[-1])
        else:
            assert timing["lanes"] == 1
            assert timing["forward_device"] == \
                engine.device.dense_time(timing["forward_wall"])


# ----------------------------------------------------------------------
# Piece bodies are derived copies, like bodies: each writer of what they
# capture drops them, and the next calls serve the new values bitwise
# (DESIGN.md §5).
# ----------------------------------------------------------------------

ROWS = 768


def writer_model(seed):
    """Affine steps (bind_params) and an unfolded Destandardize
    (bind_consts, behind a LayerNorm) that writes the output."""
    rng = np.random.default_rng(seed)
    return Sequential(Linear(6, 32, rng=rng), ReLU(),
                      Linear(32, 8, rng=rng), LayerNorm(8),
                      Destandardize(*_stats(rng, 8)))


def split_warm(plan, x):
    out, lanes = served(plan, x)
    assert lanes == 2
    assert isinstance(plan._bodies[x.shape, x.dtype], functools.partial)
    return out


def serves_split(plan, model, x):
    """The next calls: bitwise the model's graph, split again once the
    body is generated anew."""
    assert bits(plan(x).copy()) == bits(graph(model, x))
    assert bits(split_warm(plan, x)) == bits(graph(model, x))


@pytest.fixture
def x_rows():
    return np.random.default_rng(7).normal(size=(ROWS, 6))


def test_bind_params_drops_the_pieces(small_lanes, x_rows):
    model = writer_model(0)
    plan = compile_inference(model)
    split_warm(plan, x_rows)
    layer = model[0]
    layer.weight.data = layer.weight.data * -1.5
    layer.bias.data = layer.bias.data + 0.25
    plan._steps[0].bind_params([layer.weight.data, layer.bias.data])
    assert not plan._bodies
    serves_split(plan, model, x_rows)


def test_bind_consts_drops_the_pieces(small_lanes, x_rows):
    model = writer_model(1)
    plan = compile_inference(model)
    split_warm(plan, x_rows)
    step, stats = plan._steps[-1], model[-1]
    assert isinstance(step, P.StandardizeStep)
    stats.mean = stats.mean + 1.0
    stats.std = stats.std * 2.0
    step.bind_consts([step.derive_const(si, arr)
                      for si, arr in enumerate((stats.mean, stats.std))])
    assert not plan._bodies
    serves_split(plan, model, x_rows)


def test_load_state_dict_recompiles_and_in_place_updates_flow(
        small_lanes, x_rows):
    model, engine = writer_model(2), InferenceEngine()
    for _ in range(3):
        engine.infer_with_model(model, x_rows)
    old = engine.plan_for(model)
    assert engine.last_timing["lanes"] == 2
    model.load_state_dict(writer_model(3).state_dict())
    expect = graph(model, x_rows)
    for _ in range(3):
        out = engine.infer_with_model(model, x_rows)
        assert bits(out) == bits(expect)
    plan = engine.plan_for(model)
    assert plan is not old
    assert engine.last_timing["lanes"] == 2
    weight = model.parameters()[0].data
    weight += 0.25                                    # in place
    out = engine.infer_with_model(model, x_rows)
    assert engine.plan_for(model) is plan and engine.last_timing["lanes"] == 2
    assert bits(out) == bits(graph(model, x_rows))


def test_hot_swap_serves_the_new_weights_split(small_lanes, x_rows, tmp_path):
    path, engine = tmp_path / "m.rnm", InferenceEngine()
    save_model(writer_model(4), path)
    for _ in range(3):
        engine.infer(path, x_rows)
    assert engine.last_timing["lanes"] == 2
    hot_swap_model(writer_model(5), path, [engine])
    for _ in range(3):
        out = engine.infer(path, x_rows)
        assert bits(out) == bits(graph(writer_model(5), x_rows))
    assert engine.last_timing["lanes"] == 2


def test_clear_past_sixteen_batch_sizes_drops_the_pieces(small_lanes,
                                                         x_rows):
    model = writer_model(8)
    plan = compile_inference(model)
    split_warm(plan, x_rows)
    rng = np.random.default_rng(9)
    for rows in range(20, 37):                  # 17 new batch sizes
        plan(rng.normal(size=(rows, 6)))
    assert (x_rows.shape, x_rows.dtype) not in plan._bodies
    serves_split(plan, model, x_rows)


# ----------------------------------------------------------------------
# Row blocks: a batch of at least two blocks never holds scratch of its
# rows (DESIGN.md §4)
# ----------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch, one_thread_blas):
    """384-row blocks (any scratch is over the budget), on the lanes the
    runner has, and any GEMM work is enough to split."""
    monkeypatch.setattr(P, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(P, "_LANE_FLOPS", 1.0)
    return monkeypatch


def whole(model, x, dtype=np.float64):
    """``x`` through a plan that neither blocks nor splits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_lane_width", lambda: 1)
        mp.setattr(P, "_BLOCK_BYTES", 1 << 60)
        return served(compile_inference(model, dtype), x)[0]


def blocks_of(plan, x):
    """The ``(start, stop)`` rows of the blocks ``x``'s body runs, in
    order; None when its body does not run blocks."""
    body = plan._bodies.get((x.shape, x.dtype))
    if not isinstance(body, functools.partial):
        return None
    if body.func is P._run_blocks:
        return [(lo, hi) for lo, hi, _ in body.args[0]]
    lanes = body.args[0]
    if not all(isinstance(fn, functools.partial) for _, _, fn in lanes):
        return None                             # row lanes of one body
    return [(lo + a, lo + b) for lo, _, fn in lanes for a, b, _ in fn.args[0]]


def arrays_in(value):
    """Every array held in nested dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def minibude_mlp(rng):
    """6-128-102-82-1 with standardize heads: ``serve_governed``'s
    minibude surrogate."""
    return Sequential(Standardize(*_stats(rng, 6)),
                      *deploy_mlp(rng, [6, 128, 102, 82, 1]).layers,
                      Destandardize(*_stats(rng, 1)))


def conv2d_wide(rng):
    """``conv2d`` with an 8-wide head: every GEMM keeps its kernel from
    192 rows up (see the kernel-switch test below)."""
    return Sequential(*conv2d(rng).layers[:-1], Linear(45, 8, rng=rng))


BLOCK_ZOO = {**ZOO, "conv2d_wide": (conv2d_wide, (2, 8, 8))}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [868, 1637, 4099])
@pytest.mark.parametrize("name", sorted(BLOCK_ZOO))
def test_block_rule_blocked_is_bitwise_the_whole_body(small_blocks, name,
                                                      rows, dtype):
    build, features = BLOCK_ZOO[name]
    rng = np.random.default_rng(rows + 1)
    model = build(rng)
    x = rng.normal(size=(rows, *features))
    plan = compile_inference(model, dtype)
    out, lanes = served(plan, x)
    assert_blocks_past_the_floor(plan, x, lanes)
    assert bits(out) == bits(whole(model, x, dtype))
    if dtype == np.float64:
        assert bits(out) == bits(graph(model, x))


def assert_blocks_past_the_floor(plan, x, lanes):
    """``x``'s blocks, if any, tile its rows, each between the floor and
    the block rows, on the lanes its GEMM work takes up to one per floor
    of rows; without blocks, one lane runs the batch under two blocks."""
    rule = plan._bodies["rows", x.shape[1:], x.dtype]
    rows, cuts = len(x), blocks_of(plan, x)
    assert lanes == max(1, min(P._lane_width(), rows // rule.floor,
                               int(2 * rule.flops * rows // P._LANE_FLOPS)))
    if cuts is None:
        assert lanes == 1 and rows < 2 * rule.rows
        return
    assert [lo for lo, _ in cuts[1:]] == [hi for _, hi in cuts[:-1]]
    assert cuts[0][0] == 0 and cuts[-1][1] == rows
    assert all(rule.floor <= hi - lo <= rule.rows for lo, hi in cuts)


def test_block_rule_a_gemm_that_switches_kernels_blocks_past_its_floor(
        small_blocks):
    """``conv2d``'s last GEMM, ``(rows, 45) @ (45, 2)``: OpenBLAS 0.3.31
    on an AVX-512 Xeon runs 384 rows on another kernel than 604 or more
    (the first 192 rows differ in the last ulp), so its floor is past
    384 rows (768 there) and the body's blocks are at least two floors."""
    rng = np.random.default_rng(44)
    model = conv2d(rng)
    x = rng.normal(size=(4099, 2, 8, 8))
    a, w = rng.normal(size=(1024, 45)), rng.normal(size=(2, 45))
    switches = bits(np.dot(a[:384], w.T)) != bits(np.dot(a, w.T)[:384])
    plan = compile_inference(model)
    out, lanes = served(plan, x)
    rule = plan._bodies["rows", x.shape[1:], x.dtype]
    assert rule.floor == floor_of(model) and rule.rows == 2 * rule.floor
    assert (rule.floor > 384) == switches
    assert blocks_of(plan, x) is not None
    assert_blocks_past_the_floor(plan, x, lanes)
    assert bits(out) == bits(graph(model, x))


def bonds_mlp():
    """Bonds' surrogate, 5-64-48-2."""
    return build_mlp2({"hidden1_features": 64, "hidden2_features": 48}, 5, 2)


def particlefilter_cnn(out_features=2):
    """ParticleFilter's frame CNN on 10x10 frames: Conv2d(1, 8, 5),
    MaxPool2d(2), Linear(72, out_features)."""
    return build_particlefilter_cnn(
        {"conv_kernel": 5, "conv_stride": 1, "maxpool_kernel": 2,
         "fc2_size": 0}, 10, 10, out_features)


TABLE_I = {"bonds": (bonds_mlp, (5,)),
           "particlefilter": (particlefilter_cnn, (1, 10, 10))}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [5037, 6151])
@pytest.mark.parametrize("name", sorted(TABLE_I))
def test_block_rule_table_i_heads_block_past_their_floors(one_thread_blas,
                                                          name, rows, dtype):
    """Bonds and ParticleFilter regress 2 outputs, a GEMM whose kernel
    changes with the row count: at the real budget each runs blocks, none
    under its floor, through a short tail."""
    build, features = TABLE_I[name]
    model = build()
    x = np.random.default_rng(rows).normal(size=(rows, *features))
    plan = compile_inference(model, dtype)
    out, lanes = served(plan, x)
    assert len(blocks_of(plan, x)) >= 3
    assert_blocks_past_the_floor(plan, x, lanes)
    assert bits(out) == bits(whole(model, x, dtype))
    if dtype == np.float64:
        assert bits(out) == bits(graph(model, x))


@pytest.mark.parametrize("out_features", [2, 8])
def test_block_rule_a_cnn_s_first_call_peaks_near_its_warm_call(
        one_thread_blas, monkeypatch, out_features):
    """4,099 frames through the ParticleFilter CNN: the first call, which
    measures the floors and builds the lanes' block bodies, holds no
    scratch of the batch's rows either."""
    monkeypatch.setattr(P, "_FLOORS", {})
    plan = compile_inference(particlefilter_cnn(out_features))
    x = np.random.default_rng(48).normal(size=(4099, 1, 10, 10))
    tracemalloc.start()
    try:
        plan(x)
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        plan(x)
        warm = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks_of(plan, x) is not None
    assert first <= 1.25 * warm


def test_block_rule_a_second_batch_size_runs_no_forward_outside_its_lane_bodies(
        small_blocks):
    rng = np.random.default_rng(47)
    model = conv2d_wide(rng)
    plan = compile_inference(model)
    served(plan, rng.normal(size=(4099, 2, 8, 8)))
    keys = []

    def recording(forward):
        def recorded(step, x, n):
            keys.append(n)
            return forward(step, x, n)
        return recorded

    for cls in {type(step) for step in plan._steps}:
        small_blocks.setattr(cls, "forward", recording(cls.forward))
    x = rng.normal(size=(5037, 2, 8, 8))
    out, _ = served(plan, x)
    assert blocks_of(plan, x) is not None
    assert all(isinstance(n, int) and n < 0 for n in keys), keys
    assert bits(out) == bits(graph(model, x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_block_rule_no_plan_gemm_switches_kernels_above_two_blocks(
        one_thread_blas, dtype):
    """A floor is checked by one run per candidate against a 960-row
    reference, so a block at least its floor is the batch's rows only if
    no GEMM a plan runs (``rows @ W.T``) picks its kernel by a size past
    that.  On this BLAS: every 192-row-aligned run from the floor up is
    the same rows of a 16,384-row GEMM, and every one ending at the end
    of a 5,037-row GEMM its rows, bitwise, for the narrow heads where the
    switch lives (up to 576 rows on OpenBLAS 0.3.31, AVX-512)."""
    rng = np.random.default_rng(46)
    for fan_in in (6, 32, 45, 72, 82, 262, 512):
        a = rng.normal(size=(16384, fan_in)).astype(dtype)
        for fan_out in (1, 2, 3, 4, 8):
            w = rng.normal(size=(fan_out, fan_in)).astype(dtype)
            floor = P._floor(w.T)
            if floor == float("inf"):
                continue               # a body with it never blocks
            for end in (16384, 5037):
                ref = np.dot(a[:end], w.T)
                runs = [(lo, lo + rows) for lo in (0, 960)
                        for rows in range(floor, 4097, 192)] \
                    if end == 16384 else \
                    [(lo, end) for lo in range(3264, end - floor + 1, 192)]
                for lo, hi in runs:
                    assert bits(np.dot(a[lo:hi], w.T)) == \
                        bits(ref[lo:hi]), (fan_in, fan_out, lo, hi)


@pytest.mark.parametrize("rows", [2048, 16384])
def test_block_rule_blocked_is_bitwise_a_whole_body_at_the_bench_batches(
        one_thread_blas, rows):
    """``deploy_gemm``'s 2,048-row 6-512-410-328-262-1 forward and
    ``serve_governed``'s 16,384-row minibude check, at the real block
    rule on the runner's lanes: bitwise a body run whole at the batch's
    rows, and the graph."""
    rng = np.random.default_rng(rows)
    model = deploy_mlp(rng, [6, 512, 410, 328, 262, 1]) if rows == 2048 \
        else minibude_mlp(rng)
    x = rng.normal(size=(rows, 6))
    plan = compile_inference(model)
    out, _ = served(plan, x)
    assert blocks_of(plan, x) is not None
    assert bits(out) == bits(whole(model, x)) == bits(graph(model, x))


def test_block_rule_a_float32_gemv_past_16384_rows_is_its_whole_body(
        one_thread_blas, request):
    """Float32 GEMVs of fan-in 2, 6 and 8 switch OpenBLAS 0.3.31 kernels
    (AVX-512) at 16,385 rows, past the 960-row floor check, so their
    blocks are not a longer batch's rows.  Known defect where the
    runner's BLAS switches (CHANGES.md FOUND, ROADMAP lesson o)."""
    rng = np.random.default_rng(49)
    a, w = rng.normal(size=(16421, 8)).astype(np.float32), \
        rng.normal(size=(1, 8)).astype(np.float32)
    switches = bits(np.dot(a[:192], w.T)) != bits(np.dot(a, w.T)[:192])
    request.node.add_marker(pytest.mark.xfail(
        switches, reason="a switch past the floor check", strict=True))
    model = Sequential(Linear(6, 64, rng=rng), ReLU(), Linear(64, 8, rng=rng),
                       ReLU(), Linear(8, 1, rng=rng))
    x = rng.normal(size=(16421, 6))
    plan = compile_inference(model, np.float32)
    out, _ = served(plan, x)
    assert blocks_of(plan, x) is not None
    assert bits(out) == bits(whole(model, x, np.float32))


def test_block_rule_block_rows_are_the_body_s_scratch_under_the_budget(
        one_thread_blas):
    """The largest multiple of 192 rows whose batch-major scratch fits
    1 MiB, at least 384: ``mlp_heads`` holds 91 float64s a row (1,344
    rows), ``serve_governed``'s minibude MLP 333 (384 rows)."""
    rng = np.random.default_rng(33)
    for build, rows in ((mlp_heads, 1344), (minibude_mlp, 384)):
        plan = compile_inference(build(rng))
        x = rng.normal(size=(2 * rows + 5, 6))
        out = plan(x)
        assert plan._bodies["rows", (6,), x.dtype].rows == rows
        assert blocks_of(plan, x) is not None


def test_block_rule_a_short_last_block_takes_192_rows_from_the_one_before(
        small_blocks):
    small_blocks.setattr(P, "_lane_width", lambda: 1)
    rng = np.random.default_rng(34)
    model = mlp_heads(rng)
    x = rng.normal(size=(3 * 384 + 50, 6))
    plan = compile_inference(model)
    out = plan(x).copy()
    assert blocks_of(plan, x) == [(0, 384), (384, 768), (768, 960),
                                  (960, 1202)]
    assert bits(out) == bits(graph(model, x))


def test_block_rule_a_batch_under_two_blocks_is_a_block_a_lane(
        small_blocks):
    """On one lane it runs the whole body; on two, a block a lane."""
    rng = np.random.default_rng(35)
    model = mlp_heads(rng)
    x = rng.normal(size=(767, 6))
    for width, cuts in ((1, None), (2, [(0, 384), (384, 767)])):
        small_blocks.setattr(P, "_lane_width", lambda: width)
        plan = compile_inference(model)
        out, lanes = served(plan, x)
        assert lanes == width and blocks_of(plan, x) == cuts
        assert bits(out) == bits(graph(model, x))


def test_block_rule_blocks_only_under_a_one_thread_blas():
    """Under the real BLAS: blocks where it reports one thread, the whole
    body where it is threaded (or its count cannot be read)."""
    rng = np.random.default_rng(36)
    model = minibude_mlp(rng)
    x = rng.normal(size=(4099, 6))
    plan = compile_inference(model)
    out, _ = served(plan, x)
    assert (blocks_of(plan, x) is not None) == (P._blas_threads() == 1)
    assert bits(out) == bits(graph(model, x))


def test_block_rule_a_threaded_blas_keeps_the_batch_whole(monkeypatch):
    monkeypatch.setattr(P, "_blas_threads", lambda: 2)
    monkeypatch.setattr(P, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(37)
    model = mlp_heads(rng)
    x = rng.normal(size=(1202, 6))
    plan = compile_inference(model)
    out, lanes = served(plan, x)
    assert blocks_of(plan, x) is None and lanes == 1
    assert bits(out) == bits(graph(model, x))


def test_block_rule_a_gemm_without_a_floor_serves_the_batch_whole(
        small_blocks):
    skew_the_floor_check(small_blocks)
    small_blocks.setattr(P, "_lane_width", lambda: 1)
    rng = np.random.default_rng(38)
    model = mlp_heads(rng)
    x = rng.normal(size=(1202, 6))
    plan = compile_inference(model)
    out, _ = served(plan, x)
    assert blocks_of(plan, x) is None
    assert bits(out) == bits(graph(model, x))


def test_block_rule_a_large_forward_compiled_peaks_at_blocks(one_thread_blas):
    """16,384 rows through ``serve_governed``'s minibude MLP: its whole
    body holds about 44 MB of scratch, its blocks a few."""
    rng = np.random.default_rng(39)
    model = minibude_mlp(rng)
    x = rng.normal(size=(16384, 6))
    tracemalloc.start()
    try:
        for _ in range(3):
            out = model.forward_compiled(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6
    assert bits(out) == bits(graph(model, x))


def test_block_rule_retained_scratch_stays_bounded_over_sixteen_batch_sizes(
        one_thread_blas):
    """Each batch size keeps its output and nothing else of its rows: 16
    sizes of 4,096-6,991 rows would keep ~230 MB of whole-body scratch."""
    rng = np.random.default_rng(40)
    plan = compile_inference(minibude_mlp(rng))
    sizes = [4096 + 193 * i for i in range(16)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for rows in sizes:
            plan(rng.normal(size=(rows, 6)))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(plan._keys) == 16
    assert held <= 8 * sum(sizes) + 10e6


def test_block_rule_no_step_holds_the_batch_rows(small_blocks):
    written = []
    real = P._RowBlocks.body

    def recorded(rule, rows, n):
        written.append(rows)
        return real(rule, rows, n)

    small_blocks.setattr(P._RowBlocks, "body", recorded)
    rng = np.random.default_rng(41)
    for model, features in ((mlp_heads(rng), (6,)),
                            (conv2d_wide(rng), (2, 8, 8))):
        x = rng.normal(size=(5037, *features))
        plan = compile_inference(model)
        out, _ = served(plan, x)
        assert blocks_of(plan, x) is not None
        assert written and max(written) <= 384
        for step in plan._steps:
            held = list(arrays_in((step._bufs, step._geoms)))
            assert all(len(a) <= 384 for a in held if a.ndim)
        assert bits(out) == bits(graph(model, x))


def test_block_rule_writers_drop_the_blocks(small_blocks):
    """``bind_params`` drops the lanes' block bodies; an in-place update
    flows through them."""
    rng = np.random.default_rng(42)
    model = mlp_heads(rng)
    x = rng.normal(size=(1637, 6))
    plan = compile_inference(model)
    plan(x)
    layer = model[1]
    layer.weight.data = layer.weight.data * -1.5
    plan._steps[0].bind_params([layer.weight.data, layer.bias.data])
    assert not plan._bodies
    assert bits(plan(x).copy()) == bits(graph(model, x))
    assert blocks_of(plan, x) is not None
    layer.bias.data += 0.25                              # in place
    assert bits(plan(x).copy()) == bits(graph(model, x))


# ----------------------------------------------------------------------
# Concurrency and processes
# ----------------------------------------------------------------------

def _region(tmp_path, name, model):
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:6] = ([i, 0:6]))
#pragma approx tensor functor(fo: [i, 0:8] = ([i, 0:8]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""

    @approx_ml(src, name=name)
    def region(x, y, N, use_model=False):
        y[:N] = 0.0

    return region


def run_threads(targets):
    errors = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:       # reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,))
               for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)
    assert not any(t.is_alive() for t in threads), "a thread hung"
    return errors


@pytest.mark.serving
def test_concurrent_split_calls_on_thread_backend_lanes(small_lanes,
                                                        tmp_path):
    """Two regions on ``ThreadPoolBackend`` lanes, each invoked from its
    own thread: both offer pieces to the one lane thread, a caller runs
    any piece the lane has not claimed, every answer is bitwise."""
    models = {f"r{i}": writer_model(10 + i) for i in range(2)}
    server = RegionServer(backend=ThreadPoolBackend())
    for name, model in models.items():
        server.register(_region(tmp_path, name, model))
    rng = np.random.default_rng(12)
    x = {name: rng.normal(size=(ROWS, 6)) for name in models}

    def client(name):
        def run():
            expect = graph(models[name], x[name])
            for _ in range(12):
                y = np.zeros((ROWS, 8))
                server.invoke(name, x[name], y, ROWS,
                              use_model=True).result(WAIT)
                assert bits(y) == bits(expect)
        return run

    try:
        assert run_threads([client(name) for name in models]) == []
        for name in models:
            assert server.region(name).engine.last_timing["lanes"] == 2
    finally:
        server.close()


@pytest.mark.serving
def test_concurrent_split_calls_from_more_threads_than_cores(small_lanes,
                                                             x_rows):
    """More callers than cores, each with its own plan, offer and claim
    pieces on the one lane pool at a 1 us switch interval: every answer,
    the probes' included, is bitwise its model's."""
    plans = many_callers(x_rows)
    assert all(plan.last_split[0] == 2 for plan in plans)


def many_callers(x):
    """``x`` through its own plan from each of more threads than cores,
    eight times each at a 1 us switch interval, every answer checked
    bitwise; the plans."""
    n = max(4, 2 * len(os.sched_getaffinity(0)))
    models = [writer_model(20 + i) for i in range(n)]
    plans = [compile_inference(model) for model in models]
    expect = [graph(model, x) for model in models]

    def caller(i):
        def run():
            for _ in range(8):
                assert bits(plans[i](x)) == bits(expect[i])
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_threads([caller(i) for i in range(n)])
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    return plans


@pytest.mark.serving
def test_block_rule_concurrent_calls_from_more_threads_than_cores(
        small_blocks):
    """The same with batches of blocks: each plan's lanes run their own
    block scratch while the lane pool is shared."""
    x = np.random.default_rng(45).normal(size=(1637, 6))
    for plan in many_callers(x):
        assert blocks_of(plan, x) is not None


@pytest.mark.serving
def test_a_busy_lane_never_blocks_another_caller(small_lanes, x_rows):
    """Caller-helps claiming: while one split call's piece holds the lane
    thread, another split call still completes (its caller runs its own
    offered piece)."""
    held, release = threading.Event(), threading.Event()
    plans = [compile_inference(writer_model(seed)) for seed in (13, 14)]
    for plan in plans:
        split_warm(plan, x_rows)
    key = (x_rows.shape, x_rows.dtype)
    split = plans[0]._bodies[key]
    pieces = list(split.args[0])
    lo, hi, fn = pieces[1]

    def hold(x):
        held.set()
        assert release.wait(WAIT)
        return fn(x)

    pieces[1] = (lo, hi, hold)
    plans[0]._bodies[key] = functools.partial(split.func, tuple(pieces),
                                              *split.args[1:])
    first = threading.Thread(target=plans[0], args=(x_rows,))
    first.start()
    try:
        assert held.wait(WAIT)
        out, lanes = served(plans[1], x_rows)
        assert lanes == 2 and bits(out) == bits(graph(writer_model(14),
                                                      x_rows))
    finally:
        release.set()
        first.join(WAIT)
    assert not first.is_alive()


@pytest.mark.serving
def test_a_raising_piece_propagates_once_and_the_next_call_splits(
        small_lanes, x_rows):
    model = writer_model(15)
    plan = compile_inference(model)
    split_warm(plan, x_rows)
    key = (x_rows.shape, x_rows.dtype)
    split = plan._bodies[key]
    pieces = list(split.args[0])
    lo, hi, fn = pieces[1]
    raised = []

    def fail_once(x):
        if not raised:
            raised.append(1)
            raise RuntimeError("piece failed")
        return fn(x)

    pieces[1] = (lo, hi, fail_once)
    plan._bodies[key] = functools.partial(split.func, tuple(pieces),
                                          *split.args[1:])
    with pytest.raises(RuntimeError, match="piece failed"):
        plan(x_rows)
    assert plan.last_split is None
    out = plan(x_rows)
    assert plan.last_split[0] == 2
    assert bits(out) == bits(graph(model, x_rows))


@pytest.mark.serving
def test_a_worker_forked_after_a_split_serves_on_one_lane(small_lanes,
                                                          tmp_path):
    model = writer_model(16)
    region = _region(tmp_path, "forked", model)
    x = np.random.default_rng(17).normal(size=(ROWS, 6))
    expect = graph(model, x)
    for _ in range(3):                          # split in this process
        y = np.zeros((ROWS, 8))
        region(x, y, ROWS, use_model=True)
    assert region.engine.last_timing["lanes"] == 2
    assert bits(y) == bits(expect)
    backend = ProcessPoolBackend(workers=1)
    server = RegionServer(backend=backend)
    try:
        server.register(region)
        for _ in range(3):
            y = np.zeros((ROWS, 8))
            server.invoke("forked", x, y, ROWS, use_model=True).result(WAIT)
            assert bits(y) == bits(expect)
            assert region.engine.last_timing["lanes"] == 1
    finally:
        server.close()


@pytest.mark.serving
def test_block_rule_concurrent_calls_on_thread_backend(small_blocks,
                                                       tmp_path):
    """Two regions on ``ThreadPoolBackend`` lanes, each invoked from its
    own thread with a batch of blocks: every answer is bitwise."""
    rows = 1637
    models = {f"b{i}": writer_model(30 + i) for i in range(2)}
    server = RegionServer(backend=ThreadPoolBackend())
    for name, model in models.items():
        server.register(_region(tmp_path, name, model))
    rng = np.random.default_rng(43)
    x = {name: rng.normal(size=(rows, 6)) for name in models}

    def client(name):
        def run():
            expect = graph(models[name], x[name])
            for _ in range(8):
                y = np.zeros((rows, 8))
                server.invoke(name, x[name], y, rows,
                              use_model=True).result(WAIT)
                assert bits(y) == bits(expect)
        return run

    try:
        assert run_threads([client(name) for name in models]) == []
        for name in models:
            engine = server.region(name).engine
            plan = engine.plan_for(engine.warmup(tmp_path / f"{name}.rnm"))
            assert blocks_of(plan, x[name]) is not None
    finally:
        server.close()
