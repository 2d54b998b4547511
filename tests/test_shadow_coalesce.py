"""Coalesced shadow validation: one accurate-kernel call per
invocation's worth of sampled rows, records released in call order.

A sub-sampled shadow validation (``QoSController(shadow_rows=k)`` on a
row-batched region) queues its sampled rows; the kernel runs once per
``batch / k`` samples.  ``region.flush()`` after every call is the
immediate reference the differential below compares against — there is
no second code path.  The decision stream must stay one record per
invocation, in call order per region, each shadowed record carrying its
own error, whatever interleaving of samples, plain inferences,
full-batch validations, flushes and hot swaps produced it.
"""

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.obs import input_digest, read_stream
from repro.qos import QoSController
from repro.qos.monitor import PathDecision
from repro.runtime import EventLog, Phase
from repro.serving import RegionServer, ThreadPoolBackend, hot_swap_model

ROWS, BATCH = 4, 16                    # window: 4 samples per kernel call


def linear_model(weight):
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    return model


def linear_region(tmp_path, name, *, qos, weight=2.0, calls=None, log=None,
                  auto_batch=False):
    """A 2->1 region: the kernel computes ``scale * row_sum`` (and
    returns a value no infer-path caller may see), the saved model
    predicts ``weight * row_sum``.  ``calls`` records each kernel
    invocation's row count; a ``"raise"`` entry makes the next one
    fail."""
    save_model(linear_model(weight), tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
    log = log if log is not None else EventLog()

    @approx_ml(src, name=name, event_log=log, qos=qos, auto_batch=auto_batch)
    def region(x, y, N, scale=1.0, use_model=False):
        if calls is not None:
            if calls and calls[-1] == "raise":
                calls.pop()
                raise FloatingPointError("kernel blew up")
            calls.append(N)
        y[:N] = x[:N].sum(axis=1) * scale
        return "kernel result"

    return region, log


class ListStream:
    """Duck-typed decision stream keeping records in memory."""

    def __init__(self):
        self.records = []

    def record(self, region, **columns):
        self.records.append(dict(columns, region=region))


class ObservingController(QoSController):
    """Logs every observation, in the order the policy would see it."""

    def __init__(self, **kwargs):
        kwargs.setdefault("shadow_rate", 1.0)
        kwargs.setdefault("shadow_rows", ROWS)
        kwargs.setdefault("metric", "max_abs")
        super().__init__(seed=0, **kwargs)
        self.observed = []

    def observe_shadow(self, region_name, predicted, accurate):
        err = super().observe_shadow(region_name, predicted, accurate)
        self.observed.append(err)
        return err


def batch(i, rows=BATCH):
    """Call ``i``'s inputs: distinct per call, so digests name calls and
    ``max_abs`` errors (the largest sampled row sum) differ."""
    return np.random.default_rng(1000 + i).random((rows, 2)) + i


def invoke(region, i, rows=BATCH, **kwargs):
    x = batch(i, rows)
    y = np.full(rows, np.nan)
    result = region(x, y, rows, use_model=True, **kwargs)
    return x, y, result


# ----------------------------------------------------------------------
# The window, the return value, the telemetry
# ----------------------------------------------------------------------

def test_kernel_runs_once_per_window_and_each_record_gets_its_own_error(
        tmp_path):
    calls = []
    ctrl = ObservingController()
    region, log = linear_region(tmp_path, "win", qos=ctrl, calls=calls)
    log.stream = stream = ListStream()
    for i in range(8):
        x, y, result = invoke(region, i)
        # Satellite bug: the sub-call's return value used to leak out.
        assert result is None
        np.testing.assert_allclose(y, 2.0 * x.sum(axis=1))   # committed
        assert calls == [BATCH] * ((i + 1) // 4)
    assert len(ctrl.observed) == 8
    # pred = 2 * sum, accurate = sum: max_abs error is the largest
    # sampled row sum — a number only that call's rows produce.
    for i, rec in enumerate(stream.records):
        assert rec["digest"] == input_digest(batch(i))
        assert rec["shadow_error"] == ctrl.observed[i]
        sums = batch(i).sum(axis=1)
        assert sums.min() - 1e-9 <= rec["shadow_error"] <= sums.max() + 1e-9
    assert all(r.finished and r.times[Phase.SHADOW] > 0 for r in log.records)
    snap = ctrl.telemetry.snapshot()["win"]
    assert snap["pending_shadow"] == 0
    assert snap["shadow_kernel_calls"] == 2
    assert snap["shadow_rows_validated"] == 2 * BATCH


def test_pending_gauge_and_rows_histogram_follow_the_queue(tmp_path):
    ctrl = ObservingController()
    region, _ = linear_region(tmp_path, "gauge", qos=ctrl)
    for i in range(3):
        invoke(region, i)
        assert ctrl.telemetry.snapshot()["gauge"]["pending_shadow"] == i + 1
    assert ctrl.telemetry.snapshot()["gauge"]["shadow_kernel_calls"] == 0
    region.flush()
    snap = ctrl.telemetry.snapshot()["gauge"]
    assert (snap["pending_shadow"], snap["shadow_kernel_calls"],
            snap["shadow_rows_validated"]) == (0, 1, 3 * ROWS)


# ----------------------------------------------------------------------
# (a) Differential: coalesced run == flush-after-every-call run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app", ["binomial", "bonds", "minibude"])
def test_coalesced_errors_equal_the_immediate_reference(tmp_path, app):
    from repro.apps.harness import harness_for
    from repro.search.builders import builder_for

    arch = {"num_hidden_layers": 2, "hidden1_size": 32,
            "feature_multiplier": 0.6} if app == "minibude" \
        else {"hidden1_features": 16, "hidden2_features": 8}
    sizes = dict(n_train=32, n_test=384)
    if app == "binomial":
        sizes["n_steps"] = 16

    def run(immediate: bool):
        workdir = tmp_path / ("immediate" if immediate else "coalesced")
        harness = harness_for(app, workdir, **sizes)
        harness.install_model(builder_for(app)(
            arch, seed=3, **harness.builder_kwargs()))
        server, region = harness.server, harness.region
        server.attach_qos(QoSController(shadow_rate=0.5, seed=7,
                                        shadow_rows=4))
        server.attach_stream(workdir / "decisions.rh5")
        kernel_calls = []
        kernel = region.func
        region.func = lambda *a, **k: (kernel_calls.append(1),
                                       kernel(*a, **k))[1]
        rows = harness.test_inputs()
        outs = [np.empty((len(rows), *shape))
                for shape in harness.output_shapes]
        for lo in range(0, len(rows), 16):
            server.invoke(app, np.ascontiguousarray(rows[lo:lo + 16]),
                          *[o[lo:lo + 16] for o in outs], 16,
                          *harness.extra_invoke_args(), use_model=True)
            if immediate:
                region.flush()
        server.close()
        return read_stream(workdir / "decisions.rh5")[app], \
            len(kernel_calls), outs

    reference, reference_calls, reference_outs = run(immediate=True)
    coalesced, coalesced_calls, outs = run(immediate=False)
    assert len(reference) == len(coalesced) == 24
    columns = ("digest", "path", "reason", "shadow_error", "precision")
    assert [[r[c] for c in columns] for r in coalesced] == \
        [[r[c] for c in columns] for r in reference]
    shadowed = sum(r["shadow_error"] is not None for r in reference)
    assert shadowed >= 8 and reference_calls == shadowed
    assert coalesced_calls <= -(-shadowed // 4) + 1 < reference_calls
    for got, want in zip(outs, reference_outs):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# (b) Stream order and count under both backends
# ----------------------------------------------------------------------

@pytest.mark.serving
@pytest.mark.parametrize("backend", [None, ThreadPoolBackend])
def test_stream_is_one_record_per_call_in_call_order(tmp_path, backend):
    server = RegionServer(backend=backend() if backend else None)
    ctrl = QoSController(shadow_rate=0.3, seed=5, shadow_rows=ROWS)
    log = EventLog()                          # shared by both regions
    for name, auto_batch in (("plain", False), ("batched", True)):
        region, _ = linear_region(tmp_path, name, qos=ctrl, log=log,
                                  auto_batch=auto_batch)
        server.register(region)
    server.attach_stream(tmp_path / "decisions.rh5")
    n = 60
    futures = [server.invoke(name, batch(i), np.empty(BATCH), BATCH,
                             use_model=True)
               for i in range(n) for name in ("plain", "batched")]
    server.drain()
    for future in futures:
        if future is not None:
            assert future.exception(timeout=30) is None
    server.close()
    records = read_stream(tmp_path / "decisions.rh5")
    want = [input_digest(batch(i)) for i in range(n)]
    for name in ("plain", "batched"):
        assert [r["digest"] for r in records[name]] == want
        assert sum(r["shadow_error"] is not None for r in records[name]) >= 5
    assert all(r.finished for r in log.records)


# ----------------------------------------------------------------------
# (c) Validate-now points
# ----------------------------------------------------------------------

@pytest.mark.parametrize("how", ["flush", "close", "server.flush",
                                 "server.drain", "server.close",
                                 "swap_engine"])
def test_flush_and_close_validate_the_queue(tmp_path, how):
    calls = []
    ctrl = ObservingController()
    region, log = linear_region(tmp_path, "drainme", qos=ctrl, calls=calls)
    server = RegionServer()
    server.register(region)
    invoke(region, 0)
    assert calls == [] and not log.records[0].finished
    if how == "swap_engine":
        region.swap_engine(region.engine)
    elif how.startswith("server."):
        getattr(server, how.split(".")[1])()
    else:
        getattr(region, how)()
    assert calls == [ROWS] and len(ctrl.observed) == 1
    assert log.records[0].finished and log.records[0].notes["shadow"] > 0
    region.flush()                                        # idempotent
    assert calls == [ROWS]


def test_full_batch_shadow_validates_queued_samples_first(tmp_path):
    calls = []
    ctrl = ObservingController()
    region, log = linear_region(tmp_path, "order", qos=ctrl, calls=calls)
    log.stream = stream = ListStream()
    invoke(region, 0)
    invoke(region, 1)
    # A batch no larger than shadow_rows is validated whole, at once —
    # after the two samples queued before it.
    _, _, result = invoke(region, 2, rows=ROWS)
    assert result == "kernel result"          # the real call's, as before
    assert calls == [2 * ROWS, ROWS]
    assert [r["digest"] for r in stream.records] == \
        [input_digest(batch(0)), input_digest(batch(1)),
         input_digest(batch(2, ROWS))]
    assert [r["shadow_error"] for r in stream.records] == ctrl.observed
    assert ctrl.observed[2] == pytest.approx(batch(2, ROWS).sum(axis=1).max())


def test_sample_with_other_kernel_arguments_validates_the_queue_first(
        tmp_path):
    calls = []
    ctrl = ObservingController()
    region, _ = linear_region(tmp_path, "args", qos=ctrl, calls=calls)
    invoke(region, 0)
    invoke(region, 1)
    invoke(region, 2, scale=5.0)       # cannot share scale=1.0's call
    assert calls == [2 * ROWS] and len(ctrl.observed) == 2
    region.flush()
    assert calls == [2 * ROWS, ROWS]
    # |2 s - 5 s| = 3 s on the third call's rows, |2 s - s| = s before.
    lo, hi = batch(2).sum(axis=1).min(), batch(2).sum(axis=1).max()
    assert 3 * lo - 1e-9 <= ctrl.observed[2] <= 3 * hi + 1e-9
    assert ctrl.observed[1] <= batch(1).sum(axis=1).max() + 1e-9


def test_hot_swap_between_sample_and_validation_is_noted_not_observed(
        tmp_path):
    ctrl = ObservingController()
    region, log = linear_region(tmp_path, "swap", qos=ctrl)
    invoke(region, 0)
    hot_swap_model(linear_model(1.0), region.model_path, [region.engine])
    ctrl.reset_region("swap")           # what RetrainWorker does next
    invoke(region, 1)                   # sampled on the new weights
    region.flush()
    stale, fresh = log.records
    assert stale.finished and stale.notes["shadow"] > 1.0   # old model's
    assert fresh.notes["shadow"] == pytest.approx(0.0, abs=1e-9)
    # The replaced model's error reached neither the stats nor the policy.
    assert ctrl.observed == [fresh.notes["shadow"]]
    assert ctrl.stats_for("swap").count == 1


def test_raising_kernel_aborts_the_samples_and_releases_the_rest(tmp_path):
    calls = []
    ctrl = ObservingController()
    region, log = linear_region(tmp_path, "boom", qos=ctrl, calls=calls)
    log.stream = stream = ListStream()
    invoke(region, 0)
    ctrl.validator.rate = 0.0
    invoke(region, 1)                            # plain infer, held
    assert stream.records == []
    calls.append("raise")
    with pytest.raises(FloatingPointError):
        region.flush()
    sampled, plain = log.records
    assert sampled.finished and sampled.notes["error"] == "FloatingPointError"
    assert [r["digest"] for r in stream.records] == [input_digest(batch(1))]
    assert plain.finished and ctrl.observed == []
    region.flush()                               # nothing left to retry
    assert calls == []
    # The window trigger re-raises to the sampled call that reached it.
    ctrl.validator.rate = 1.0
    for i in range(2, 5):
        invoke(region, i)
    calls.append("raise")
    with pytest.raises(FloatingPointError):
        invoke(region, 5)
    assert all(r.finished for r in log.records)
    assert len(stream.records) == 1 and ctrl.observed == []


# ----------------------------------------------------------------------
# (d) Any interleaving: no record lost, none twice, none out of order
# ----------------------------------------------------------------------

class ScriptedController(ObservingController):
    """The next decision is whatever the state machine says."""

    shadow = False

    def decide(self, region_name, base_path):
        return PathDecision(base_path, shadow=self.shadow)


class ShadowQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.ctrl = ScriptedController()
        self.region, self.log = linear_region(
            Path(self.tmp.name), "machine", qos=self.ctrl)
        self.log.stream = self.stream = ListStream()
        self.issued = []               # (digest, shadowed) in call order
        self.swaps = 0

    def teardown(self):
        self.region.close()
        self.check(everything=True)
        self.tmp.cleanup()

    def call(self, shadow, rows=BATCH, **kwargs):
        self.ctrl.shadow = shadow
        x, _, _ = invoke(self.region, len(self.issued), rows, **kwargs)
        self.issued.append((input_digest(x), shadow))

    @rule(scale=st.sampled_from([1.0, 1.0, 1.0, 3.0]))
    def sample(self, scale):
        self.call(True, scale=scale)

    @rule()
    def plain_infer(self):
        self.call(False)

    @rule()
    def full_batch_shadow(self):
        self.call(True, rows=ROWS)
        assert not self.region._shadow_queue

    @rule()
    def flush(self):
        self.region.flush()
        self.check(everything=True)

    @precondition(lambda self: self.swaps < 3)
    @rule()
    def swap(self):
        self.swaps += 1
        hot_swap_model(linear_model(2.0 + self.swaps),
                       self.region.model_path, [self.region.engine])
        self.ctrl.reset_region("machine")

    @invariant()
    def check(self, everything=False):
        streamed = [r["digest"] for r in self.stream.records]
        issued = [d for d, _ in self.issued]
        # In order, none twice: the stream is a prefix of the calls...
        assert streamed == issued[:len(streamed)]
        # ...none lost: what is missing is exactly what the queue holds.
        queue = self.region._shadow_queue
        assert len(queue) < BATCH // ROWS
        if queue:
            first = self.log.records.index(queue[0].record)
            assert len(streamed) == first
        else:
            assert len(streamed) == len(issued)
        assert not (everything and queue)
        for rec, (_, shadowed) in zip(self.stream.records, self.issued):
            assert (rec["shadow_error"] is not None) == shadowed
        finished = [r.finished for r in self.log.records]
        assert finished == [True] * len(streamed) + \
            [False] * (len(issued) - len(streamed))


ShadowQueueMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=24, deadline=None)
test_shadow_queue_state_machine = ShadowQueueMachine.TestCase


# ----------------------------------------------------------------------
# Concurrent flush against invoke
# ----------------------------------------------------------------------

@pytest.mark.serving
def test_finish_racing_a_release_lands_after_the_released_records():
    """Forced interleaving: a release is stopped half-way (inside the
    stream append of its first record) while another thread finishes a
    new record of the same region — which must wait, not overtake."""
    entered, gate = threading.Event(), threading.Event()

    class GatedStream(ListStream):
        def record(self, region, **columns):
            super().record(region, **columns)
            if len(self.records) == 1:
                entered.set()
                assert gate.wait(30)

    log = EventLog()
    log.stream = stream = GatedStream()
    sample, parked, late = (log.new_record("infer", "r") for _ in range(3))
    for i, rec in enumerate((sample, parked, late)):
        rec.note("digest", i)
    log.hold(sample)
    log.finish(parked)
    assert stream.records == [] and not parked.finished
    releaser = threading.Thread(target=log.release, args=("r",))
    finisher = threading.Thread(target=log.finish, args=(late,))
    releaser.start()
    assert entered.wait(30)
    finisher.start()
    finisher.join(0.2)                 # long enough to overtake, if it could
    gate.set()
    for t in (releaser, finisher):
        t.join(30)
        assert not t.is_alive()
    assert [r["digest"] for r in stream.records] == [0, 1, 2]
    assert sample.finished and parked.finished and late.finished
    assert log._held == {}


@pytest.mark.serving
@pytest.mark.parametrize("auto_batch", [False, True])
def test_flush_racing_sampled_invocations_keeps_the_stream_ordered(
        tmp_path, auto_batch):
    ctrl = ObservingController(shadow_rate=0.5)
    region, log = linear_region(tmp_path, "race", qos=ctrl,
                                auto_batch=auto_batch)
    log.stream = stream = ListStream()
    n, errors, done = 300, [], threading.Event()

    def serve():
        try:
            for i in range(n):
                invoke(region, i)
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    def flusher():
        try:
            while not done.is_set():
                region.flush()
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=serve)] + \
            [threading.Thread(target=flusher) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    region.flush()
    assert errors == []
    assert [r["digest"] for r in stream.records] == \
        [input_digest(batch(i)) for i in range(n)]
    shadowed = [r["shadow_error"] for r in stream.records
                if r["shadow_error"] is not None]
    assert shadowed == ctrl.observed and len(shadowed) > n // 4
    assert all(r.finished for r in log.records)
