"""``InferenceEngine.plan_for`` when one engine is shared by threads.

Neither a hit nor a miss takes a lock.  A miss drops the entries whose
model died, compiles and inserts; every plan allocates its own scratch,
so threads that miss together never write one buffer, and at worst
compile the same model twice.
"""

import gc
import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential, Tensor, no_grad, save_model
from repro.runtime import InferenceEngine
from repro.serving import hot_swap_model

pytestmark = pytest.mark.serving

F64 = np.dtype(np.float64)


def mlp(seed, hidden=8):
    r = np.random.default_rng(seed)
    return Sequential(Linear(5, hidden, rng=r), ReLU(),
                      Linear(hidden, 1, rng=r))


def graph_forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).numpy()


def scratch_ids(plan) -> set:
    return {id(buf) for step in plan._steps for buf in step._bufs.values()}


def run_threads(targets: dict, timeout=60.0) -> list:
    """Run ``{name: fn}`` on named threads; return what they raised."""
    errors = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:       # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,), name=name)
               for name, fn in targets.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "thread did not finish"
    return errors


def test_concurrent_hot_swaps_serve_their_own_models(tmp_path):
    """Two threads hot-swap two same-architecture models on one shared
    engine at once: each serves its own model bitwise, on scratch the
    other plan does not hold."""
    paths = [tmp_path / "a.rnm", tmp_path / "b.rnm"]
    engine = InferenceEngine()
    x = np.random.default_rng(0).normal(size=(4, 5))
    for seed, path in enumerate(paths):
        save_model(mlp(seed), path)
        engine.infer(path, x)
    barrier = threading.Barrier(2, timeout=30.0)

    def swap(i):
        model = mlp(10 + i)
        barrier.wait()                      # both miss together
        hot_swap_model(model, paths[i], engines=(engine,))
        for _ in range(3):
            out = engine.infer(paths[i], x)
            assert np.array_equal(out, graph_forward(model, x))

    assert run_threads({"swap-a": partial(swap, 0),
                        "swap-b": partial(swap, 1)}) == []
    plan_a, plan_b = (engine.plan_for(engine.cache.get(p)) for p in paths)
    assert not scratch_ids(plan_a) & scratch_ids(plan_b)
    out_a = engine.infer(paths[0], x)
    out_b = engine.infer(paths[1], x)       # must not write into out_a
    assert np.array_equal(out_a, graph_forward(mlp(10), x))
    assert np.array_equal(out_b, graph_forward(mlp(11), x))


def test_hot_swap_hammer_on_one_shared_engine(tmp_path):
    """More threads than cores, each hot-swapping and serving its own
    model on one engine: every answer is the current model's, and no two
    live plans ever hold the same scratch buffer."""
    n_threads, rounds = 4, 25
    engine = InferenceEngine()
    x = np.random.default_rng(1).normal(size=(4, 5))
    paths = [tmp_path / f"m{i}.rnm" for i in range(n_threads)]
    for i, path in enumerate(paths):
        save_model(mlp(i), path)
        engine.infer(path, x)
    barrier = threading.Barrier(n_threads, timeout=30.0)

    def worker(i):
        try:
            for r in range(rounds):
                model = mlp(1000 * (r + 1) + i)
                barrier.wait()              # all miss together
                hot_swap_model(model, paths[i], engines=(engine,))
                for _ in range(3):
                    out = engine.infer(paths[i], x)
                    assert np.array_equal(out, graph_forward(model, x))
        except BaseException:
            barrier.abort()                 # do not strand the others
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_threads({f"w{i}": partial(worker, i)
                              for i in range(n_threads)})
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    live = [scratch_ids(engine.plan_for(engine.cache.get(p))) for p in paths]
    assert sum(map(len, live)) == len(set().union(*live))


def test_reused_model_id_never_serves_the_dead_models_plan():
    """The cache key is ``(id(model), dtype)`` and CPython hands a
    collected model's address to the next one: the entry's weakref, not
    the key, decides whether a cached plan belongs to this model.
    Whether the allocator reuses an address is its business, so the
    dead model's entry is planted under the new model's key."""
    engine = InferenceEngine()
    x = np.random.default_rng(2).normal(size=(3, 5))
    model = mlp(0)
    for seed in range(1, 8):
        engine.infer_with_model(model, x)
        dead_key = (id(model), F64)
        del model
        gc.collect()
        # No miss runs between the two models, so the dead entry is
        # still cached when "its" id comes round again.
        model = mlp(seed, hidden=4 + seed)
        dead = engine._plans.pop(dead_key)
        assert dead[0]() is None
        engine._plans[(id(model), F64)] = dead
        out = engine.infer_with_model(model, x)
        assert np.array_equal(out, graph_forward(model, x))
        assert engine._plans[(id(model), F64)][0]() is model
