"""Differential: a governed call's program ≡ its interpreted twin.

A call with a QoS controller, a breaker, a decision stream, a
``precision`` or a queue in front of its engine runs the generated
program of its region, geometry and configuration (``DESIGN.md`` §4):
one ``decide``, one ``allow()``, the stream's digest and spend notes and
the precision tier, each once and in the interpreted path's order, and
a call its decisions move off the plain surrogate (accurate, collect,
shadowed, breaker-denied) handed, decided, to ``invoke_decided``.  Twin
regions — one never generating, so ``invoke_decided`` serves every call
— driven through the same calls must land the same bits and leave the
same records, stream bytes, and controller, breaker and precision
governor state, random generators included: a second draw or probe
would show there.  Then a test per writer of what a program captures or
guards (lesson k), and a race: a governed program serving while another
thread attaches and detaches QoS and hot-swaps the model.
"""

import sys
import threading

import numpy as np
import pytest

from repro.apps import binomial, bonds
from repro.nn import compile_inference, save_model
from repro.obs import DecisionStream, read_stream
from repro.qos import PolicyAction, PrecisionPolicy, QoSController, QoSPolicy
from repro.resilience import SURROGATE, CircuitBreaker, FaultInjector
from repro.runtime import EventLog, ExecutionPath, InferenceEngine, Phase
from repro.runtime.batch import BatchedInferenceEngine
from repro.search.builders import build_mlp2
from repro.serving import QoSArbiter, RegionServer, hot_swap_model

ARCH = {"hidden1_features": 16, "hidden2_features": 8}
ROWS, CALLS = 16, 14


class _Scripted(QoSPolicy):
    """Routes decision ``k`` per ``script[k % len(script)]``: ``None``
    (the surrogate), accurate, collect or a forced shadow."""

    def __init__(self, script):
        self.script, self.k = script, 0

    def decide(self, region_name, stats):
        step = self.script[self.k % len(self.script)]
        self.k += 1
        if step == "shadow":
            return PolicyAction(force_shadow=True, reason="scripted")
        return None if step is None else PolicyAction(step, reason=step)


def _configure(region, case, tmp):
    """Attach what ``case`` governs with; returns the injector script."""
    config, kind = region.config, case.split("-")[0]
    if kind == "qos":
        config.qos = {
            "qos-infer": lambda: QoSController(shadow_rate=0.0, seed=0),
            "qos-offpath": lambda: QoSController(
                policy=_Scripted([None, ExecutionPath.ACCURATE, None,
                                  ExecutionPath.COLLECT, "shadow"]),
                shadow_rate=0.0, seed=0),
            "qos-shadow": lambda: QoSController(shadow_rate=0.4, seed=3),
            "qos-sampled": lambda: QoSController(shadow_rate=0.4, seed=3,
                                                 shadow_rows=4),
        }[case]()
    if kind == "breaker":
        config.breaker = CircuitBreaker(failure_threshold=1,
                                        recovery_successes=1,
                                        probe_interval=2)
    if kind in ("stream", "queue"):
        region.events.stream = DecisionStream(tmp / "d.rh5")
        config.qos = QoSArbiter(global_budget=2.0, shadow_rate=0.3,
                                shadow_rows=4, seed=7)
    if kind == "precision":
        config.precision = "float32" if case == "precision-f32" else "auto"
        config.qos = QoSController(
            shadow_rate=0.0, seed=0, precision_policy={
                "precision-f32": None,
                "precision-demoted": PrecisionPolicy(
                    high=1e-30, warmup=1, sample_rate=0.0,
                    probe_interval=3),
                "precision-sampled": PrecisionPolicy(
                    high=1.0, warmup=1, sample_rate=0.5, seed=1),
            }[case])
    return {"breaker-healthy": [], "breaker-open": [2, 3, 7],
            "breaker-trip": [1, 5]}.get(case, [])


def _state(region) -> str:
    """The governors' state, random generators included (repr: NaN
    compares equal to itself there)."""
    qos, breaker = region.config.qos, region.config.breaker
    state = {"breaker": breaker.snapshot() if breaker else None}
    if qos is not None:
        state["qos"] = qos.snapshot()
        state["rng"] = qos.validator._rng.bit_generator.state
        precision = qos.precision_policy
        if precision is not None:
            state["precision"] = precision.snapshot()
            state["precision_rng"] = \
                precision.validator._rng.bit_generator.state
    return repr(state)


def _run(tmp, case, app, never):
    """Drive one twin through CALLS calls of ``case``; everything the
    two twins must agree on."""
    tmp.mkdir(parents=True)
    path, outputs = tmp / "m.rnm", 2 if app == "bonds" else 1
    save_model(build_mlp2(ARCH, 5, outputs, seed=1), path)
    build = bonds.build_region if app == "bonds" else binomial.build_region
    kwargs = {} if app == "bonds" else {"n_steps": 8}
    region = build(mode="infer", db_path=str(tmp / "db.rh5"),
                   model_path=str(path), event_log=EventLog(),
                   auto_batch=case.startswith("queue"), max_batch_rows=48,
                   **kwargs)
    if never:
        region._program_for = lambda env: None
    faults = _configure(region, case, tmp)
    rng = np.random.default_rng(11)
    X = rng.random((64, 5)) + 0.5
    outs = [[np.zeros(ROWS) for _ in range(outputs)] for _ in range(CALLS)]
    results = []
    injector = FaultInjector(seed=0)
    injector.script(SURROGATE, "nan", at=faults)
    with injector:
        for k, out in enumerate(outs):
            lo = 3 * k % 48
            results.append(region(X[lo:lo + ROWS], *out, ROWS,
                                  use_model=True))
        region.flush()
    stream = region.events.stream
    if stream is not None:
        stream.close()
    records = [(r.path, r.region, list(r.times), r.notes, r.finished)
               for r in region.events.records]
    return {"results": results, "records": repr(records),
            "outputs": [[o.tobytes() for o in out] for out in outs],
            "state": _state(region), "collected": region._collector
            is not None,
            "stream": (tmp / "d.rh5").read_bytes() if stream else None,
            "programs": region._program is not None}


CASES = ["qos-infer", "qos-offpath", "qos-shadow", "qos-sampled",
         "breaker-healthy", "breaker-open", "breaker-trip", "stream",
         "precision-f32", "precision-demoted", "precision-sampled",
         "queue"]


@pytest.mark.parametrize("app", ["binomial", "bonds"])
@pytest.mark.parametrize("case", CASES)
def test_governed_program_matches_its_twin(tmp_path, case, app):
    fast = _run(tmp_path / "fast", case, app, never=False)
    slow = _run(tmp_path / "slow", case, app, never=True)
    assert fast.pop("programs") and not slow.pop("programs")
    assert fast == slow


def test_the_twin_cases_reach_what_they_name(tmp_path):
    """Each case exercises its feature: hand-offs, denials, trips,
    demotions and samples happen (the differential above would pass
    vacuously otherwise)."""
    seen = {}
    for case in ("qos-offpath", "breaker-open", "breaker-trip",
                 "precision-demoted", "precision-sampled", "stream"):
        run = _run(tmp_path / case, case, "binomial", never=False)
        seen[case] = run["records"]
    assert "'accurate'" in seen["qos-offpath"]
    assert "'collect'" in seen["qos-offpath"]
    assert "'breaker_open'" in seen["breaker-open"]
    assert "'NonFiniteOutput'" in seen["breaker-trip"]
    assert "'float64'" in seen["precision-demoted"]
    assert "'float32'" in seen["precision-demoted"]
    assert "<Phase.SHADOW" in seen["precision-sampled"]
    assert "'digest'" in seen["stream"] and "'spend'" in seen["stream"]


def test_finite_outputs_whose_sum_overflows_do_not_trip(tmp_path):
    """Two rows of 1e308 sum to inf; every element is finite, so the
    breaker's guard passes on the program and on the twin."""
    from repro.nn import Linear, Sequential
    from repro.runtime.region import _all_finite
    huge = np.full((2, 1), 1e308)
    assert _all_finite(huge) and not _all_finite(np.array([[1.0], [np.inf]]))
    for never in (False, True):
        path = tmp_path / f"huge{never}.rnm"
        model = Sequential(Linear(5, 1, rng=np.random.default_rng(0)))
        model[0].weight.data[...] = 0.0
        model[0].bias.data[...] = 1e308
        save_model(model, path)
        region = binomial.build_region(
            mode="infer", n_steps=8, db_path=str(tmp_path / "db.rh5"),
            model_path=str(path), event_log=EventLog())
        if never:
            region._program_for = lambda env: None
        breaker = region.config.breaker = CircuitBreaker(failure_threshold=1)
        x, out = np.ones((2, 5)), np.zeros(2)
        for _ in range(3):
            region(x, out, 2, use_model=True)
        assert np.array_equal(out, [1e308, 1e308])
        assert breaker.failures == 0 and breaker.successes == 3
        assert (region._program is not None) != never


# ----------------------------------------------------------------------
# Each writer of what a governed program captures or guards is seen by
# the next call (DESIGN.md §5).
# ----------------------------------------------------------------------

@pytest.fixture
def governed(tmp_path):
    """A server whose binomial region runs its governed program (QoS at
    ``shadow_rate=0``, a breaker, a stream); a spy on ``invoke_decided``."""
    path = tmp_path / "m.rnm"
    save_model(build_mlp2(ARCH, 5, 1, seed=1), path)
    server = RegionServer()
    region = binomial.build_region(
        mode="infer", n_steps=8, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog())
    server.register(region, name="b")
    qos = QoSController(shadow_rate=0.0, seed=0)
    server.attach_qos(qos)
    server.attach_breakers()
    server.attach_stream(tmp_path / "d.rh5")
    general, invoke_decided = [], region.invoke_decided

    def spied(*args, **kwargs):
        general.append(1)
        return invoke_decided(*args, **kwargs)

    region.invoke_decided = spied
    x, out = np.random.default_rng(5).random((ROWS, 5)), np.zeros(ROWS)
    for _ in range(3):
        server.invoke("b", x, out, ROWS, use_model=True)
    assert region._program is not None and general == []
    yield server, region, path, qos, x, out, general
    server.detach_stream()
    server.close()


def _expect(seed, x):
    return compile_inference(build_mlp2(ARCH, 5, 1, seed=seed))(x).reshape(-1)


def test_attach_and_detach_qos_are_seen(governed):
    server, region, _, qos, x, out, general = governed
    other = QoSController(shadow_rate=0.0, seed=1)
    server.attach_qos(other)
    server.invoke("b", x, out, ROWS, use_model=True)
    assert other.validator.offered == 1 and qos.validator.offered == 3
    server.detach_qos()
    server.invoke("b", x, out, ROWS, use_model=True)
    assert other.validator.offered == 1
    assert region.events.records[-1].notes.get("policy") is None
    assert general == []


def test_attach_breakers_is_seen(governed):
    server, region, _, _, x, out, general = governed
    old, region.config.breaker = region.config.breaker, None
    server.invoke("b", x, out, ROWS, use_model=True)
    assert "breaker" not in region.events.records[-1].notes
    new = server.attach_breakers()["b"]
    server.invoke("b", x, out, ROWS, use_model=True)
    assert (old.successes, new.successes) == (3, 1)
    assert region.events.records[-1].notes["breaker"] == "healthy"
    assert general == []


def test_attach_and_detach_stream_are_seen(governed, tmp_path):
    server, region, _, _, x, out, general = governed
    first = region.events.stream
    second = server.attach_stream(tmp_path / "e.rh5")
    first.close()
    server.invoke("b", x, out, ROWS, use_model=True)
    server.detach_stream()
    server.invoke("b", x, out, ROWS, use_model=True)
    assert len(read_stream(first.path)["binomial"]) == 3
    assert len(read_stream(second.path)["binomial"]) == 1
    assert "digest" not in region.events.records[-1].notes
    server.attach_stream(tmp_path / "f.rh5")        # the fixture detaches
    assert general == []


def test_attach_stream_closes_the_stream_it_replaces(governed, tmp_path):
    """A replaced stream's buffered records reach its file without the
    caller closing it: ``attach_stream`` flushes and closes it, as
    ``detach_stream`` does."""
    server, region, _, _, x, out, _ = governed
    first = region.events.stream
    server.attach_stream(tmp_path / "e.rh5")
    assert len(read_stream(first.path)["binomial"]) == 3
    server.invoke("b", x, out, ROWS, use_model=True)
    assert len(read_stream(first.path)["binomial"]) == 3


def test_precision_assignment_is_seen(governed):
    server, region, _, _, x, out, general = governed
    for precision, served in (("float32", "float32"), (None, None),
                              ("auto", "float32"), ("float64", "float64")):
        region.config.precision = precision
        server.invoke("b", x, out, ROWS, use_model=True)
        assert region.events.records[-1].notes.get("precision") == served
    assert region.events.records[-2].times.keys() == {    # a warmup sample
        Phase.TO_TENSOR, Phase.INFERENCE, Phase.SHADOW, Phase.FROM_TENSOR}
    assert general == []


def test_swap_engine_is_seen(governed):
    """To a fresh engine (the same program, the old engine freed) and to
    a queue (its queued program: submitted, landed at the drain)."""
    import gc
    import weakref
    server, region, _, _, x, _, general = governed
    program, fresh = region._program, InferenceEngine()
    old = weakref.ref(region.swap_engine(fresh))
    gc.collect()
    assert old() is None
    out = np.zeros(ROWS)
    server.invoke("b", x, out, ROWS, use_model=True)
    assert np.array_equal(out, _expect(1, x))
    assert fresh.device.kernel_launches == 1 and region._program is program
    region.swap_engine(BatchedInferenceEngine(fresh))
    out = np.zeros(ROWS)
    server.invoke("b", x, out, ROWS, use_model=True)
    assert region._program is not program           # the queue's program:
    assert np.array_equal(out, _expect(1, x))       # guarded, so no defer
    region.config.breaker = None
    out = np.zeros(ROWS)
    server.invoke("b", x, out, ROWS, use_model=True)
    assert not out.any()                            # queued
    server.drain()
    assert np.array_equal(out, _expect(1, x)) and general == []


def test_hot_swap_is_seen(governed):
    server, region, path, _, x, out, general = governed
    hot_swap_model(build_mlp2(ARCH, 5, 1, seed=4), path, [region.engine])
    server.invoke("b", x, out, ROWS, use_model=True)
    assert np.array_equal(out, _expect(4, x)) and general == []


def test_a_queued_governed_call_runs_its_program(tmp_path):
    path = tmp_path / "m.rnm"
    save_model(build_mlp2(ARCH, 5, 1, seed=1), path)
    region = binomial.build_region(
        mode="infer", n_steps=8, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog(), auto_batch=True,
        max_batch_rows=64)
    region.config.qos = QoSController(shadow_rate=0.0, seed=0)
    region.invoke_decided = None                    # never reached
    x = np.random.default_rng(6).random((ROWS, 5))
    outs = [np.zeros(ROWS) for _ in range(6)]
    for out in outs:
        region(x, out, ROWS, use_model=True)
    region.flush()
    assert region.engine.batches_flushed == 2
    for out in outs:
        assert np.array_equal(out, _expect(1, x))
    assert all(r.finished for r in region.events.records)


# ----------------------------------------------------------------------
# Writers racing a governed program on another thread
# ----------------------------------------------------------------------

@pytest.mark.serving
def test_governed_calls_while_another_thread_attaches_and_swaps(tmp_path):
    """One thread serves governed calls (a breaker, a stream) while
    another attaches and detaches QoS controllers and hot-swaps the
    model between two seeds: every call is served, its outputs are one
    model's or the other's, and every record is finished."""
    path = tmp_path / "m.rnm"
    save_model(build_mlp2(ARCH, 5, 1, seed=1), path)
    server = RegionServer()
    region = binomial.build_region(
        mode="infer", n_steps=8, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog())
    server.register(region, name="b")
    server.attach_breakers()
    server.attach_stream(tmp_path / "d.rh5")
    x = np.random.default_rng(7).random((ROWS, 5))
    allowed = [_expect(seed, x) for seed in (1, 2, 3)]
    stop, seen, bad = threading.Event(), [0], []

    def serve():
        try:
            while not stop.is_set():
                out = np.zeros(ROWS)
                server.invoke("b", x, out, ROWS, use_model=True)
                seen[0] += 1
                if not any(np.array_equal(out, a) for a in allowed):
                    bad.append(("torn", seen[0]))
        except Exception as exc:                     # pragma: no cover
            bad.append(("raised", repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)                 # interleave more often
    thread = threading.Thread(target=serve)
    thread.start()
    try:
        for i in range(60):
            if i % 3 == 2:
                hot_swap_model(build_mlp2(ARCH, 5, 1, seed=2 + i % 2), path,
                               [region.engine])
            elif i % 3:
                server.detach_qos()
            else:
                server.attach_qos(QoSController(shadow_rate=0.0, seed=i))
    finally:
        stop.set()
        thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert bad == [] and seen[0] > 0
    server.drain()
    assert all(r.finished and "error" not in (r.notes or {})
               for r in region.events.records)
    assert region.config.breaker.failures == 0
    server.detach_stream()
    server.close()
