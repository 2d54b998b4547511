"""One surrogate invocation, every combination (``DESIGN.md`` §4).

engine {immediate, ``auto_batch`` queue} x validate {none, full-batch
shadow at both ``commit`` values, sampled shadow, ``precision="float32"``,
``precision="auto"`` sampled} x {breaker on, off} x {stream attached or
not}, each cell driven through the same eight calls.  Under a breaker
the third call's surrogate emits NaN and the fourth's raises (scripted
at the ``SURROGATE`` seam), which demotes the region: the fifth call is
denied, the sixth is the probe that recovers it; the first kernel run
through ``_run_accurate`` is scripted slow at the ``ACCURATE`` seam.
Per cell: every call served with finite rows that are the surrogate's
or the kernel's, the exact ``(path, breaker verdict, phases)`` record
sequence, the accurate kernel's calls and rows, the seam firings, the
breaker's counters, what the queue engine deferred, and one stream
record per finished record in call order.

Then the legs of the guard rule the matrix does not reach, the two
behaviour changes of the merged path, and the fleet rows: members a
wave serves singly leave the records of their single-path invocation.
"""

import numpy as np
import pytest

from repro.api import approx_ml
from repro.bridge import BridgeError
from repro.nn import Linear, Sequential, save_model
from repro.obs import DecisionStream, read_stream
from repro.qos import PolicyAction, PrecisionPolicy, QoSController, QoSPolicy
from repro.resilience import (ACCURATE, SURROGATE, CircuitBreaker,
                              FaultInjector)
from repro.runtime import EventLog, ExecutionPath, Phase
from repro.serving import RegionServer

T, I, F, A, S = (Phase.TO_TENSOR, Phase.INFERENCE, Phase.FROM_TENSOR,
                 Phase.ACCURATE, Phase.SHADOW)
ROWS, CALLS, WEIGHT = 4, 8, 2.0
KINDS = ("none", "shadow_surrogate", "shadow_accurate", "sampled", "f32",
         "auto")
FULL = ("shadow_surrogate", "shadow_accurate")
#: Phases of a served infer-path record, sampled rows validated.
OK_PHASES = {"none": {T, I, F}, "f32": {T, I, F}, "auto": {T, I, S, F},
             "shadow_surrogate": {T, S, I, F}, "shadow_accurate": {T, S, I},
             "sampled": {T, I, F, S}}
#: The eight calls under a breaker; without one every call is "ok".
SCRIPT = ("ok", "ok", "nan", "raise", "denied", "ok", "ok", "ok")


def _linear(weight, n_in=2, n_out=1):
    model = Sequential(Linear(n_in, n_out, rng=np.random.default_rng(0)))
    model[0].weight.data = np.full((n_out, n_in), float(weight))
    model[0].bias.data = np.zeros(n_out)
    return model


def _region(tmp_path, name, *, weight=WEIGHT, stream=False, **config):
    """2 -> 1 row-batched infer region: the surrogate predicts ``weight *
    row_sum``, the kernel computes ``row_sum``.  Returns the region and
    the row counts of every kernel call made."""
    save_model(_linear(weight), tmp_path / f"{name}.rnm")
    log = EventLog(stream=DecisionStream(tmp_path / f"{name}.stream.rh5")
                   if stream else None)

    @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{tmp_path}/{name}.rnm")
""", name=name, event_log=log, **config)
    def region(x, y, N):
        y[:N] = x[:N].sum(axis=1)

    kernel, rows = region.func, []

    def counted(*args, **kwargs):
        rows.append(region.signature.bind(*args, **kwargs).arguments["N"])
        return kernel(*args, **kwargs)

    region.func = counted
    return region, rows


def _govern(region, kind, seed=0):
    """Attach what ``kind`` validates with; returns the controller."""
    if kind in ("f32", "auto"):
        region.config.precision = "float32" if kind == "f32" else "auto"
    if kind == "auto":
        region.config.qos = QoSController(
            shadow_rate=0.0, seed=seed, precision_policy=PrecisionPolicy(
                high=1.0, sample_rate=1.0, seed=seed))
    elif kind in FULL or kind == "sampled":
        region.config.qos = QoSController(
            shadow_rate=1.0, seed=seed,
            commit="accurate" if kind == "shadow_accurate" else "surrogate",
            shadow_rows=2 if kind == "sampled" else None)
    return region.config.qos


def _breaker():
    return CircuitBreaker(failure_threshold=2, quarantine_threshold=8,
                          recovery_successes=1, probe_interval=2)


def _fail_next_forward(injector, fault, offset=0):
    """Script the next surrogate forward (plus ``offset``) to fail."""
    injector.script(SURROGATE, fault,
                    at=[injector.count(SURROGATE) + offset])


def _seen(log):
    return [(r.path, (r.notes or {}).get("breaker"), set(r.times))
            for r in log.records]


def _expected_records(kind, guarded):
    ok = OK_PHASES[kind]
    if not guarded:
        return [("infer", None, ok)] * CALLS
    kernel_ran = {S} if kind in FULL else set()
    records = [("infer", "healthy", ok)] * 2
    # NaN is seen after the forward's time is booked; a raise before.
    for failure, phases, state in (("NonFiniteOutput", {T, I}, "healthy"),
                                   ("InjectedFault", {T}, "degraded")):
        records.append(("infer", failure, phases | kernel_ran))
        if kind not in FULL:        # a full-batch shadow's kernel result stands
            records.append(("accurate", state, {A}))
    return records + [("accurate", "breaker_open", {A}),
                      ("infer", "degraded", ok),
                      ("infer", "healthy", ok), ("infer", "healthy", ok)]


def _expected_kernel_rows(kind, guarded):
    if kind in FULL:                # every call: shadow run or denial
        return [ROWS] * CALLS
    fallbacks = [ROWS] * 3 if guarded else []
    if kind != "sampled":
        return fallbacks
    # Two 2-row samples fill one 4-row kernel call; the odd one waits
    # for the flush.  Guarded: calls 0-1 | three fallbacks | 5-6 | 7.
    return [ROWS] + fallbacks + [ROWS, 2] if guarded else [ROWS] * 4


@pytest.mark.parametrize("stream", [False, True], ids=["nostream", "stream"])
@pytest.mark.parametrize("guarded", [False, True], ids=["open", "breaker"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("auto_batch", [False, True],
                         ids=["immediate", "queue"])
def test_composition_cell(tmp_path, auto_batch, kind, guarded, stream):
    region, kernel_rows = _region(tmp_path, "cell", stream=stream,
                                  auto_batch=auto_batch)
    _govern(region, kind)
    breaker = region.config.breaker = _breaker() if guarded else None
    deferred = auto_batch and not guarded and kind in ("none", "f32")
    script = SCRIPT if guarded else ("ok",) * CALLS

    rng = np.random.default_rng(3)
    xs = [rng.random((ROWS, 2)) for _ in range(CALLS)]
    ys = [np.full(ROWS, np.nan) for _ in range(CALLS)]
    injector = FaultInjector(seed=0)
    injector.script(ACCURATE, "slow", at=[0], seconds=0.0)
    with injector:
        for step, x, y in zip(script, xs, ys):
            if step in ("nan", "raise"):
                _fail_next_forward(injector, step)
            assert region(x, y, ROWS) is None
            assert deferred or np.all(np.isfinite(y))
        region.flush()

    # Served: the surrogate's rows, or the kernel's where it stood in.
    for step, x, y in zip(script, xs, ys):
        by_kernel = kind == "shadow_accurate" or step != "ok"
        np.testing.assert_allclose(
            y, x.sum(axis=1) * (1.0 if by_kernel else WEIGHT), rtol=1e-6)

    log = region.events
    assert _seen(log) == _expected_records(kind, guarded)
    assert all(r.finished and "error" not in (r.notes or {})
               for r in log.records)
    assert kernel_rows == _expected_kernel_rows(kind, guarded)

    # Seams: both surrogate faults fired; the first _run_accurate (a
    # fallback, or the denial after a shadow's own kernel run) was slow.
    fired = [(f.seam, f.kind) for f in injector.fired]
    if guarded:
        assert fired.count((SURROGATE, "nan")) == 1
        assert fired.count((SURROGATE, "raise")) == 1
        assert fired.count((ACCURATE, "slow")) == 1
        assert injector.count(ACCURATE) == (1 if kind in FULL else 3)
        snap = breaker.snapshot()
        assert (snap["failures"], snap["denials"], snap["fallbacks"]) \
            == (2, 1, 3)
        assert snap["state"] == CircuitBreaker.HEALTHY
    else:
        assert fired == [] and injector.count(ACCURATE) == 0

    # What defers: an invocation carrying nothing to validate.
    if auto_batch:
        assert (region.engine.batches_flushed, region.engine.rows_flushed) \
            == ((1, CALLS * ROWS) if deferred else (0, 0))

    region.close()
    if stream:
        log.stream.close()
        streamed = read_stream(tmp_path / "cell.stream.rh5")["cell"]
        assert [(r["path"], r["breaker"], r["shadow_error"] is not None,
                 r["precision"]) for r in streamed] \
            == [(r.path, r.notes.get("breaker"), "shadow" in r.notes,
                 r.notes.get("precision")) for r in log.records]
        assert all(r["digest"] for r in streamed if r["path"] == "infer")


def test_a_shadowed_invocation_never_precision_samples(tmp_path):
    region, _ = _region(tmp_path, "both", precision="auto")
    pol = PrecisionPolicy(high=1.0, sample_rate=1.0, seed=0)
    region.config.qos = QoSController(shadow_rate=1.0, seed=0,
                                      precision_policy=pol)
    x, y = np.ones((ROWS, 2)), np.zeros(ROWS)
    for _ in range(3):
        region(x, y, ROWS)
    assert pol.snapshot()["regions"]["both"]["samples"] == 0
    assert [r.notes["precision"] for r in region.events.records] \
        == ["float32"] * 3
    region.close()


# ----------------------------------------------------------------------
# The guard rule: from the forward on it is the surrogate's failure,
# before it (and the kernel itself) it is the caller's
# ----------------------------------------------------------------------

def test_failing_divergence_sample_is_a_breaker_failure(tmp_path):
    region, kernel_rows = _region(tmp_path, "div")
    _govern(region, "auto")
    breaker = region.config.breaker = _breaker()
    x, y = np.ones((ROWS, 2)), np.full(ROWS, np.nan)
    injector = FaultInjector()
    with injector:
        _fail_next_forward(injector, "raise", offset=1)   # the fp64 plan
        region(x, y, ROWS)
    np.testing.assert_array_equal(y, 2.0)                 # the kernel's
    assert _seen(region.events) == [("infer", "InjectedFault", {T, I}),
                                    ("accurate", "healthy", {A})]
    assert breaker.snapshot()["failures"] == 1 and kernel_rows == [ROWS]
    region.close()


@pytest.mark.parametrize("kind", ["none", "shadow_surrogate", "sampled"])
def test_hot_swapped_model_of_the_wrong_width_is_a_breaker_failure(
        tmp_path, kind):
    """The scatter is part of the surrogate invocation: a model whose
    outputs do not fit the from-maps fails the breaker, and the kernel
    serves the call — on every path alike."""
    region, kernel_rows = _region(tmp_path, "wide")
    _govern(region, kind)
    breaker = region.config.breaker = _breaker()
    x, y = np.ones((ROWS, 2)), np.full(ROWS, np.nan)
    region(x, y, ROWS)
    save_model(_linear(WEIGHT, n_out=3), tmp_path / "wide.rnm")
    region.engine.cache.invalidate(tmp_path / "wide.rnm")
    y[:] = np.nan
    region(x, y, ROWS)
    region.flush()
    np.testing.assert_array_equal(y, 2.0)                 # the kernel's
    assert breaker.snapshot()["failures"] == 1
    verdicts = [n for _, n, _ in _seen(region.events)]
    assert verdicts[0] == "healthy" and verdicts[1] not in (None, "healthy")
    assert [p for p, _, _ in _seen(region.events)] == (
        ["infer", "infer"] if kind in FULL
        else ["infer", "infer", "accurate"])
    assert all(r.finished for r in region.events.records)
    region.close()


def test_guarded_sampled_shadow_failure_reserves_on_an_accurate_record(
        tmp_path):
    """Behaviour change (a): the parent ran the kernel inside the INFER
    record, timed ACCURATE, past the ``ACCURATE`` fault seam."""
    region, kernel_rows = _region(tmp_path, "sampled")
    qos = _govern(region, "sampled")
    breaker = region.config.breaker = _breaker()
    x, y = np.ones((ROWS, 2)), np.full(ROWS, np.nan)
    injector = FaultInjector()
    injector.script(ACCURATE, "slow", at=[0], seconds=0.0)
    with injector:
        _fail_next_forward(injector, "raise")
        region(x, y, ROWS)
        region.flush()
    np.testing.assert_array_equal(y, 2.0)
    assert _seen(region.events) == [("infer", "InjectedFault", {T}),
                                    ("accurate", "healthy", {A})]
    assert [f.seam for f in injector.fired] == [SURROGATE, ACCURATE]
    assert breaker.snapshot()["failures"] == 1
    # Nothing of the failed call is validated.
    assert kernel_rows == [ROWS] and qos.stats_for("sampled").count == 0
    assert not region._shadow_queue
    region.close()


@pytest.mark.parametrize("kind", ["none", "shadow_surrogate", "sampled"])
@pytest.mark.parametrize("bad", ["read_only_out", "not_an_array"])
def test_staging_errors_under_a_breaker_are_the_callers(tmp_path, kind, bad):
    """Behaviour change (b): binding the arguments is not the surrogate.
    The parent's plain guard counted a read-only ``out`` array as a
    surrogate failure, then died as ``ValueError`` in the re-serve."""
    region, kernel_rows = _region(tmp_path, "staging")
    _govern(region, kind)
    breaker = region.config.breaker = _breaker()
    x, y = np.ones((ROWS, 2)), np.zeros(ROWS)
    if bad == "read_only_out":
        y.setflags(write=False)
    else:
        x = x.tolist()
    with pytest.raises(BridgeError):
        region(x, y, ROWS)
    assert breaker.snapshot()["failures"] == 0
    assert kernel_rows == [] and not np.any(y)
    (record,) = region.events.records
    assert record.finished and record.notes["error"] == "BridgeError"
    region.close()


def test_kernel_errors_under_a_breaker_propagate(tmp_path):
    region, _ = _region(tmp_path, "kernel")
    _govern(region, "shadow_surrogate")
    breaker = region.config.breaker = _breaker()

    def broken(x, y, N):
        raise ZeroDivisionError("kernel bug")

    region.func = broken
    with pytest.raises(ZeroDivisionError):
        region(np.ones((ROWS, 2)), np.zeros(ROWS), ROWS)
    assert breaker.snapshot()["failures"] == 0
    region.close()


# ----------------------------------------------------------------------
# The accurate path checks what it needs before it runs the kernel
# ----------------------------------------------------------------------

class _ForceCollect(QoSPolicy):
    def decide(self, region_name, stats):
        return PolicyAction(ExecutionPath.COLLECT, reason="forced")


def test_collect_override_without_db_raises_before_the_kernel_runs(tmp_path):
    """A policy may route an ``ml(infer)`` region with no ``db(...)``
    onto the collect path (``DriftBurstPolicy`` does).  The parent ran
    the kernel, *then* raised: two calls stepped an ``inout`` array
    twice and served neither."""
    save_model(_linear(1.0, n_in=1), tmp_path / "step.rnm")
    ran = []

    @approx_ml(f"""
#pragma approx tensor functor(f: [i, 0:1] = ([i]))
#pragma approx tensor map(to: f(u[0:N]))
#pragma approx tensor map(from: f(u[0:N]))
#pragma approx ml(infer) inout(u) model("{tmp_path}/step.rnm")
""", name="step", event_log=EventLog(),
               qos=QoSController(policy=_ForceCollect(), shadow_rate=0.0))
    def step(u, N):
        ran.append(N)
        u[:N] += 1.0

    u = np.zeros(ROWS)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no db path configured"):
            step(u, ROWS)
    assert ran == [] and not np.any(u)
    assert [(r.path, r.finished, r.notes["error"])
            for r in step.events.records] \
        == [("collect", True, "RuntimeError")] * 2
    step.close()


# ----------------------------------------------------------------------
# Fleet rows: what a wave serves singly is the single path
# ----------------------------------------------------------------------

FLEET_WEIGHTS = {"plain": 1.5, "guarded": 2.0, "shadowed": 3.0,
                 "mismatched": 4.0}


def _fleet_member(tmp_path, name, role):
    region, _ = _region(tmp_path, name, weight=FLEET_WEIGHTS[role])
    if role == "guarded":
        region.config.breaker = _breaker()
    elif role == "shadowed":
        _govern(region, "shadow_surrogate")
    elif role == "mismatched":
        region.config.precision = "float32"       # the slab is float64
    return region


def test_wave_members_served_singly_leave_their_single_path_records(
        tmp_path):
    roles = ("guarded", "shadowed", "mismatched")
    server, twins = RegionServer(), {}
    for name in ("p", "pp"):
        server.register(_fleet_member(tmp_path, name, "plain"))
    for role in roles:
        server.register(_fleet_member(tmp_path, f"wave_{role}", role),
                        name=role)
        twins[role] = _fleet_member(tmp_path, f"solo_{role}", role)
    formed = server.enable_fleets()
    assert sorted(next(iter(formed.values()))) == sorted(server.names)

    rng = np.random.default_rng(5)
    for wave in range(3):
        x = rng.random((ROWS, 2))
        outs = {name: np.full(ROWS, np.nan) for name in server.names}
        solo = {role: np.full(ROWS, np.nan) for role in roles}
        injector = FaultInjector()
        with injector:
            if wave == 1:           # the wave's first single-path forward
                _fail_next_forward(injector, "raise")
            server.invoke_fleet([(name, (x, out, ROWS), {})
                                 for name, out in outs.items()])
        injector = FaultInjector()
        with injector:
            if wave == 1:
                _fail_next_forward(injector, "raise")
            for role in roles:
                twins[role](x, solo[role], ROWS)
        for role in roles:
            np.testing.assert_array_equal(outs[role], solo[role])
        assert all(np.all(np.isfinite(out)) for out in outs.values())

    def story(region):
        return [(r.path, set(r.times), r.notes) for r in region.events.records]

    for role in roles:
        assert story(server.region(role)) == story(twins[role])
        assert server.fleet.member(role).invocations == 0
        twins[role].close()
    assert [p for p, _, _ in story(server.region("guarded"))] \
        == ["infer", "infer", "accurate", "infer"]
    assert server.fleet.member("p").invocations == 3
    server.close()
