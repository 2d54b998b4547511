"""Public-symbol counts are a tracked size metric (ROADMAP, design
aim): a name added to ``repro.nn`` or its plan IR is an API decision,
made by raising the ceiling here in review — not a side effect."""

import repro.nn
import repro.nn.plan

NN_CEILING = 75
PLAN_CEILING = 12


def test_nn_public_symbol_count_does_not_grow():
    names = repro.nn.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(repro.nn, name) for name in names)
    assert len(names) <= NN_CEILING, sorted(names)


def test_plan_ir_public_symbol_count_does_not_grow():
    names = repro.nn.plan.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(repro.nn.plan, name) for name in names)
    assert len(names) <= PLAN_CEILING, sorted(names)
