"""``InferenceEngine.plan_for`` when one engine is shared by threads.

A warm hit is lock-free.  The miss path — compile, adopt a retired
donor's scratch, retire the donor, insert — mutates the plan cache and
must be atomic: two threads that hot-swap two same-architecture models
at once would otherwise both adopt the *same* dead plan's buffers (two
live plans writing one set of scratch) and both ``del`` its entry.
"""

import gc
import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential, Tensor, no_grad, save_model
from repro.nn.compile import CompiledPlan
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


def test_concurrent_hot_swaps_never_adopt_the_same_donor(
        tmp_path, monkeypatch):
    paths = [tmp_path / "a.rnm", tmp_path / "b.rnm"]
    engine = InferenceEngine()
    x = np.random.default_rng(0).normal(size=(4, 5))
    for seed, path in enumerate(paths):     # two warm plans, one fingerprint
        save_model(mlp(seed), path)
        engine.infer(path, x)

    # Force the interleaving: swap-a stops right after adopting its
    # retired donor (entry not yet deleted) until swap-b has tried to
    # adopt too — or 0.3 s, which is what a fixed engine costs here,
    # because swap-b is then waiting for the lock swap-a holds.
    first_adopted, second_tried = threading.Event(), threading.Event()
    real_adopt = CompiledPlan.adopt_scratch

    def adopt_then_yield(plan, old):
        adopted = real_adopt(plan, old)
        if old is not None:
            if threading.current_thread().name != "swap-a":
                second_tried.set()
            elif adopted:
                first_adopted.set()
                second_tried.wait(0.3)
        return adopted

    monkeypatch.setattr(CompiledPlan, "adopt_scratch", adopt_then_yield)

    def swap_b():
        assert first_adopted.wait(30.0)
        hot_swap_model(mlp(11), paths[1], engines=(engine,))

    errors = run_threads({
        "swap-a": lambda: hot_swap_model(mlp(10), paths[0],
                                         engines=(engine,)),
        "swap-b": swap_b})
    assert errors == []
    assert second_tried.is_set()

    plan_a, plan_b = (engine.plan_for(engine.cache.get(p)) for p in paths)
    assert 4 in plan_a._keys and 4 in plan_b._keys      # both adopted, warm
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
        # A different width each time: no same-fingerprint donor
        # retires the dead entry, so it is still cached when "its" id
        # comes round again.
        model = mlp(seed, hidden=4 + seed)
        dead = engine._plans.pop(dead_key)
        assert dead[0]() is None
        engine._plans[(id(model), F64)] = dead
        out = engine.infer_with_model(model, x)
        assert np.array_equal(out, graph_forward(model, x))
        assert engine._plans[(id(model), F64)][0]() is model
