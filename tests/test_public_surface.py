"""Public-symbol counts are a tracked size metric (ROADMAP, design
aim): a name added to ``repro.nn``, its plan IR, ``repro.serving``,
``repro.runtime`` or ``repro.device`` is an API decision, made by
raising the ceiling here in review — not a side effect.  The serving
and runtime ceilings are the numbers the engine/executor collapse
(ROADMAP item 2) lowers."""

import repro.device
import repro.nn
import repro.nn.plan
import repro.runtime
import repro.serving

NN_CEILING = 73
PLAN_CEILING = 11
SERVING_CEILING = 21
RUNTIME_CEILING = 15
DEVICE_CEILING = 3
ENGINE_CLASS_CEILING = 4


def _assert_surface(package, ceiling):
    names = package.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(package, name) for name in names)
    assert len(names) <= ceiling, sorted(names)


def test_nn_public_symbol_count_does_not_grow():
    _assert_surface(repro.nn, NN_CEILING)


def test_plan_ir_public_symbol_count_does_not_grow():
    _assert_surface(repro.nn.plan, PLAN_CEILING)


def test_serving_public_symbol_count_does_not_grow():
    _assert_surface(repro.serving, SERVING_CEILING)


def test_runtime_public_symbol_count_does_not_grow():
    _assert_surface(repro.runtime, RUNTIME_CEILING)


def test_engine_class_count_does_not_grow():
    # Engines compose (DESIGN.md §3): a new delivery mode or transport
    # goes in front of / behind an engine, not into a fifth class.
    engines = {name for package in (repro.runtime, repro.serving)
               for name in package.__all__
               if name.endswith("InferenceEngine")}
    assert len(engines) <= ENGINE_CLASS_CEILING, sorted(engines)


def test_device_public_symbol_count_does_not_grow():
    _assert_surface(repro.device, DEVICE_CEILING)
