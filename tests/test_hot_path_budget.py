"""A wall-clock-free guard on the invocation hot path.

Timing asserts flake on a shared box; the number of calls a warm
invocation makes does not.  ``sys.setprofile`` counts every Python-level
call plus every call into a C function for one warm K=8 x 4-row
``invoke_fleet`` wave and one warm 16-row ``server.invoke``, and the
ceilings below are committed: a change that re-introduces a per-member
wrapper, a second descriptor probe or a context manager per phase fails
here deterministically instead of showing up as benchmark noise.

History of the same harness (wave / invoke): 1,132 / 164 before the
slab-direct fleet waves, 704 / 119 after them, 394 / 89 once a warm
call gathers and scatters straight from its cached geometry entry,
decides through a compiled closure and re-resolves fleet members only
when the model cache moved.  The ceilings sit ~3 % above the measured
counts (Python 3.11), so a plan step that adds a Python call per
forward fails here.  Raising one is a decision to make in review, with
the benchmark's ``fleet_wave`` / ``deploy_chunk16`` rows next to it.
"""

import sys

import numpy as np
import pytest

from repro.apps import binomial
from repro.nn import save_model
from repro.runtime import EventLog
from repro.search.builders import build_mlp2
from repro.serving import RegionServer

WAVE_CEILING = 404
INVOKE_CEILING = 92
MEMBERS, WAVE_ROWS, INVOKE_ROWS = 8, 4, 16


def _count_calls(fn, *args, **kwargs) -> int:
    """``call`` + ``c_call`` profile events of one ``fn(*args)``
    (the closing ``sys.setprofile`` itself included)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture
def fleet_server(tmp_path):
    server = RegionServer()
    log = EventLog()
    arch = {"hidden1_features": 48, "hidden2_features": 24}
    for k in range(MEMBERS):
        path = tmp_path / f"m{k}.rnm"
        save_model(build_mlp2(arch, 5, 1, seed=k), path)
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=log), name=f"b{k}")
    formed = server.enable_fleets()
    assert sorted(n for names in formed.values() for n in names) \
        == sorted(server.names)
    yield server
    server.close()


def test_warm_fleet_wave_call_budget(fleet_server):
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    outs = [np.zeros(WAVE_ROWS) for _ in range(MEMBERS)]
    wave = [(name, (x, out, WAVE_ROWS), {"use_model": True})
            for name, out in zip(fleet_server.names, outs)]
    for _ in range(3):                      # layouts, staging, plan scratch
        fleet_server.invoke_fleet(wave)
    calls = _count_calls(fleet_server.invoke_fleet, wave)
    assert all(np.all(out != 0.0) for out in outs)
    assert calls <= WAVE_CEILING, (
        f"one warm {MEMBERS}x{WAVE_ROWS}-row invoke_fleet wave made {calls} "
        f"calls, ceiling {WAVE_CEILING}")


def test_warm_single_invoke_call_budget(fleet_server):
    x = np.random.default_rng(1).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)
    for _ in range(3):
        fleet_server.invoke("b0", x, out, INVOKE_ROWS, use_model=True)
    calls = _count_calls(fleet_server.invoke, "b0", x, out, INVOKE_ROWS,
                         use_model=True)
    assert np.all(out != 0.0)
    assert calls <= INVOKE_CEILING, (
        f"one warm {INVOKE_ROWS}-row server.invoke made {calls} calls, "
        f"ceiling {INVOKE_CEILING}")
