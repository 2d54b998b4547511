"""Row lanes: a large one-model plan forward split into row pieces.

A qualifying geometry's body becomes a dispatcher over contiguous row
pieces cut at multiples of 192 rows (``DESIGN.md`` §4).  A split is
kept only when it is bitwise the whole body, so every test here checks
split ≡ whole (≡ graph at float64) on inputs the probe never saw.

The width probe (``plan._lane_width``) is forced to two lanes, so the
tests split on any runner; the zoo tests also lower the flop threshold,
because their models are small.  The ``lane_rule`` tests read the real
probe too: CI runs them under a pinned, a one-CPU and a threaded BLAS.
"""

import ctypes
import functools
import os
import sys
import threading

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
def two_lanes(monkeypatch):
    """Two lanes, under a BLAS running one thread as the lane rule
    requires: a threaded BLAS may partition a whole batch's GEMM unlike
    its pieces', and the probe then keeps the body whole."""
    threads = P._blas_threads()
    setter = _openblas_setter() if threads is not None else None
    if setter is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    monkeypatch.setattr(P, "_lane_width", lambda: 2)
    setter(1)
    yield monkeypatch
    setter(threads)


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
    """``x`` through a plan warmed on one lane and one warmed on the
    patched width: (whole output, split output, the split's lanes)."""
    whole_plan = compile_inference(model, dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_lane_width", lambda: 1)
        whole, lanes = served(whole_plan, x)
    assert lanes == 1
    split, lanes = served(compile_inference(model, dtype), x)
    return whole, split, lanes


def bits(a):
    return a.dtype, a.shape, a.tobytes()


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
    assert lanes == (1 if rows < 384 else 2)
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


def test_a_probe_that_sees_a_mismatch_keeps_the_body_whole(small_lanes):
    real = P._run_split

    def skewed(*args):
        out = real(*args)
        out[-1] += 1.0
        return out

    small_lanes.setattr(P, "_run_split", skewed)
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
    n = max(4, 2 * len(os.sched_getaffinity(0)))
    models = [writer_model(20 + i) for i in range(n)]
    plans = [compile_inference(model) for model in models]
    expect = [graph(model, x_rows) for model in models]

    def caller(i):
        def run():
            for _ in range(8):
                assert bits(plans[i](x_rows)) == bits(expect[i])
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_threads([caller(i) for i in range(n)])
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert all(plan.last_split[0] == 2 for plan in plans)


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
