"""The one codegen helper: generated lines are visible, scopes hold no
cycle.

Every generated function — a region's binder and geometry key, a plan's
staleness check and its straight-line bodies — comes from
:func:`repro.codegen.generate`.  Its source is registered with
``linecache`` (tracebacks, ``cProfile`` and ``inspect.getsource`` show
the generated lines), and the function is not left in its own globals:
a function <-> globals cycle would keep everything its scope captures —
a plan's scratch — alive until the cyclic collector ran.
"""

import gc
import inspect
import traceback
import weakref

import numpy as np
import pytest

from repro.codegen import generate
from repro.nn import Linear, ReLU, Sequential, compile_inference


def test_generated_line_appears_in_traceback_and_source():
    fn = generate("boom", "def boom(x):\n    y = x + 1\n"
                  "    return y / zero\n", {"zero": 0})
    with pytest.raises(ZeroDivisionError) as info:
        fn(1)
    text = "".join(traceback.format_exception(info.value))
    assert "return y / zero" in text
    assert "<repro.codegen boom " in text
    assert "y = x + 1" in inspect.getsource(fn)
    assert "boom" not in fn.__globals__


def test_same_source_shares_one_filename():
    a = generate("f", "def f():\n    return k\n", {"k": 1})
    b = generate("f", "def f():\n    return k\n", {"k": 2})
    assert (a(), b()) == (1, 2)
    assert a.__code__.co_filename == b.__code__.co_filename


def _plan_with_body():
    rng = np.random.default_rng(0)
    plan = compile_inference(Sequential(Linear(5, 8, rng=rng), ReLU(),
                                        Linear(8, 2, rng=rng)))
    x = rng.random((4, 5))
    for _ in range(3):
        plan(x)
    assert plan._bodies[x.shape, x.dtype] is not None
    return plan


def test_dropped_plan_frees_its_scratch_without_gc():
    plan = _plan_with_body()
    scratch = [weakref.ref(a) for step in plan._steps
               for a in step._bufs.values()]
    body = weakref.ref(next(iter(plan._bodies.values())))
    check = weakref.ref(plan.stale)
    assert scratch
    gc.disable()
    try:
        del plan
        assert body() is None and check() is None
        assert all(ref() is None for ref in scratch)
    finally:
        gc.enable()
