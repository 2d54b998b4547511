"""BatchedInferenceEngine: ordering, flush triggers, region integration."""

import threading

import numpy as np
import pytest

from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.runtime import (BatchedInferenceEngine, EventLog, InferenceEngine,
                           Phase)


def linear_model(path, scale=1.0):
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[scale, scale]])
    model[0].bias.data = np.array([0.0])
    save_model(model, path)
    return path


# ----------------------------------------------------------------------
# Queue semantics, driven through the regions that queue
# ----------------------------------------------------------------------

DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:flag) in(x) out(y) db("{db}") model("{model}")
"""


def make_region(db, model, engine, log=None):
    @approx_ml(DIRECTIVES.format(db=db, model=model), event_log=log,
               engine=engine)
    def region(x, y, N, flag=True):
        y[:N] = x[:N].sum(axis=1)

    return region


def queued(region, x):
    """Invoke ``region`` on ``x``; return the output buffer it lands in."""
    y = np.zeros(len(x))
    region(x, y, len(x))
    return y


def served(record):
    """Closed without an error note: the call landed."""
    return record.finished and "error" not in (record.notes or {})


def test_flush_matches_unbatched_and_preserves_order(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    rng = np.random.default_rng(1)
    chunks = [rng.normal(size=(n, 2)) for n in (1, 3, 2)]
    immediate = make_region(tmp_path / "d.rh5", path, InferenceEngine())
    expected = [queued(immediate, c) for c in chunks]

    engine = BatchedInferenceEngine(max_batch_rows=100)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    ys = [queued(region, c) for c in chunks]
    assert engine.pending_rows == 6 and engine.pending_invocations == 3
    assert not any(r.finished for r in log.records)
    engine.flush()
    assert engine.pending_rows == 0 and engine.pending_invocations == 0
    for got, want in zip(ys, expected, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert all(served(r) for r in log.records)
    assert engine.batches_flushed == 1
    assert engine.rows_flushed == 6


def test_size_triggered_flush(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=4)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    ys = [queued(region, np.full((1, 2), float(i))) for i in range(5)]
    assert engine.batches_flushed == 1      # fired on the 4th row
    assert engine.pending_rows == 1
    assert [r.finished for r in log.records] == [True] * 4 + [False]
    engine.flush()
    assert engine.batches_flushed == 2
    for i, y in enumerate(ys):
        np.testing.assert_allclose(y, [2.0 * i], rtol=1e-12)


def test_region_triggered_flush_on_model_switch(tmp_path):
    a = linear_model(tmp_path / "a.rnm", scale=1.0)
    b = linear_model(tmp_path / "b.rnm", scale=3.0)
    engine = BatchedInferenceEngine(max_batch_rows=100)
    ya = queued(make_region(tmp_path / "d.rh5", a, engine), np.ones((2, 2)))
    yb = queued(make_region(tmp_path / "d.rh5", b, engine), np.ones((1, 2)))
    assert engine.batches_flushed == 1      # different model: a flushed
    np.testing.assert_allclose(ya, [2.0, 2.0], rtol=1e-12)
    assert not yb.any()
    engine.flush()
    np.testing.assert_allclose(yb, [6.0], rtol=1e-12)


def test_immediate_infer_is_a_barrier(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    y = queued(make_region(tmp_path / "d.rh5", path, engine), np.ones((1, 2)))
    out = engine.infer(path, np.full((1, 2), 2.0))
    np.testing.assert_allclose(y, [2.0], rtol=1e-12)   # drained first
    np.testing.assert_allclose(out, [[4.0]], rtol=1e-12)


def test_callback_seconds_share_sums_to_forward(tmp_path):
    """Each landed call's INFERENCE is its row share of the forward."""
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    queued(region, np.ones((1, 2)))
    queued(region, np.ones((3, 2)))
    engine.flush()
    shares = [r.times[Phase.INFERENCE] for r in log.records]
    assert len(shares) == 2
    assert shares[1] == pytest.approx(3 * shares[0])
    assert sum(shares) == pytest.approx(
        engine.last_timing["forward_device"])


def test_submission_snapshot_allows_buffer_reuse(tmp_path):
    """The staging copy is the defer-safe one: the identity functor's
    gather is a view of ``buf``, which the caller overwrites before
    the flush."""
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    buf = np.ones((1, 2))
    y = queued(make_region(tmp_path / "d.rh5", path, engine), buf)
    buf[:] = 100.0                          # mutate before flush
    engine.flush()
    np.testing.assert_allclose(y, [2.0], rtol=1e-12)


def test_staging_batch_grows_for_a_call_bigger_than_its_free_rows(
        tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=4)
    region = make_region(tmp_path / "d.rh5", path, engine)
    small = queued(region, np.ones((3, 2)))
    big = queued(region, np.full((6, 2), 2.0))   # 9 rows: one forward
    assert engine.batches_flushed == 1 and engine.rows_flushed == 9
    np.testing.assert_allclose(small, [2.0] * 3, rtol=1e-12)
    np.testing.assert_allclose(big, [4.0] * 6, rtol=1e-12)
    again = queued(region, np.full((2, 2), 3.0))
    engine.flush()
    np.testing.assert_allclose(again, [6.0, 6.0], rtol=1e-12)


def test_staging_batch_takes_the_dtype_a_concatenation_would(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    seen = []

    class Spy(InferenceEngine):
        def infer(self, model_path, inputs, dtype=None):
            seen.append(inputs.dtype)
            return super().infer(model_path, inputs, dtype=dtype)

    engine = BatchedInferenceEngine(Spy(), max_batch_rows=100)
    region = make_region(tmp_path / "d.rh5", path, engine)
    narrow = queued(region, np.ones((1, 2), np.float32))
    wide = queued(region, np.full((1, 2), 2.0))       # promotes the batch
    engine.flush()
    alone = queued(region, np.full((2, 2), 3.0, np.float32))
    engine.flush()
    assert seen == [np.float64, np.float32]
    np.testing.assert_allclose(narrow, [2.0], rtol=1e-12)
    np.testing.assert_allclose(wide, [4.0], rtol=1e-12)
    np.testing.assert_allclose(alone, [6.0, 6.0], rtol=1e-12)


def test_flush_failure_preserves_queue(tmp_path):
    """A failing forward must not drop queued invocations."""
    path = tmp_path / "m.rnm"
    linear_model(path)
    engine = BatchedInferenceEngine(max_batch_rows=100)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    engine.warmup(path)                     # resolve before sabotage
    engine.cache.clear()
    y = queued(region, np.ones((2, 2)))
    path.unlink()                           # model file vanishes
    with pytest.raises(FileNotFoundError):
        region.flush()
    assert engine.pending_rows == 2         # queue intact
    assert not log.records[-1].finished
    linear_model(path)                      # repair the file
    region.flush()
    np.testing.assert_allclose(y, [2.0, 2.0], rtol=1e-12)
    assert served(log.records[-1])


def test_callback_error_does_not_block_other_deliveries(tmp_path):
    """A delivery that raises closes its own record only; the others
    land and the first error re-raises after them."""
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    bad = queued(region, np.ones((1, 2)))
    good = queued(region, np.ones((1, 2)))
    bad.setflags(write=False)               # its scatter will raise
    with pytest.raises(ValueError, match="read-only"):
        engine.flush()
    np.testing.assert_allclose(good, [2.0], rtol=1e-12)   # still landed
    assert engine.pending_rows == 0
    first, second = log.records
    assert first.finished and first.notes["error"] == "ValueError"
    assert served(second)


def test_later_batch_cannot_overtake_one_still_being_delivered(tmp_path):
    """Forced interleaving of the race a ``region.flush()`` on one
    thread and a size/barrier flush on the serving thread can hit: the
    first batch is stopped inside its first delivery while a second
    thread queues and flushes a later batch.  Batches must land in the
    order they were consumed."""
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    engine.warmup(path)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    order, tags = [], {}
    inside, gate = threading.Event(), threading.Event()
    complete = region.complete_infer

    def delivering(record, bound, outputs, seconds=0.0):
        tag = tags[id(record)]
        if tag == "a":
            inside.set()
            assert gate.wait(10.0)
        order.append(tag)
        complete(record, bound, outputs, seconds)

    region.complete_infer = delivering

    def call(tag):
        queued(region, np.ones((1, 2)))
        tags[id(log.records[-1])] = tag

    call("a")
    call("b")

    def later():
        call("c")
        engine.flush()

    flusher = threading.Thread(target=engine.flush)
    overtaker = threading.Thread(target=later)
    flusher.start()
    assert inside.wait(10.0)
    overtaker.start()
    overtaker.join(0.3)         # long enough to deliver "c", were it free to
    gate.set()
    for thread in (flusher, overtaker):
        thread.join(10.0)
        assert not thread.is_alive()
    assert order == ["a", "b", "c"]
    assert engine.pending_rows == 0 and engine.batches_flushed == 2


def test_flush_empty_queue_is_noop(tmp_path):
    engine = BatchedInferenceEngine()
    engine.flush()
    region = make_region(tmp_path / "d.rh5",
                         linear_model(tmp_path / "m.rnm"), engine)
    region.flush()
    assert engine.batches_flushed == 0


def test_bad_max_batch_rows():
    with pytest.raises(ValueError):
        BatchedInferenceEngine(max_batch_rows=0)


# ----------------------------------------------------------------------
# Region integration: deferred scatter through the data bridge
# ----------------------------------------------------------------------

def test_region_defers_scatter_until_flush(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=100)
    log = EventLog()
    region = make_region(tmp_path / "d.rh5", path, engine, log)
    rng = np.random.default_rng(2)
    xs = [rng.normal(size=(3, 2)) for _ in range(4)]
    ys = [np.zeros(3) for _ in range(4)]
    for x, y in zip(xs, ys):
        region(x, y, 3)
    assert all(np.all(y == 0.0) for y in ys)    # not yet delivered
    region.flush()
    for x, y in zip(xs, ys):
        np.testing.assert_allclose(y, x.sum(axis=1), rtol=1e-12)
    # One batched forward served all four invocations...
    assert engine.batches_flushed == 1
    # ...and each invocation record carries its share of inference time.
    infer_records = [r for r in log.records if r.path == "infer"]
    assert len(infer_records) == 4
    assert all(r.times.get(Phase.INFERENCE, 0.0) > 0 for r in infer_records)


def test_region_size_trigger_delivers_midstream(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=4)
    region = make_region(tmp_path / "d.rh5", path, engine)
    xs = [np.full((2, 2), float(i)) for i in range(3)]
    ys = [np.zeros(2) for _ in range(3)]
    for x, y in zip(xs, ys):
        region(x, y, 2)
    # Rows 0-3 flushed automatically; the third invocation still queued.
    np.testing.assert_allclose(ys[0], [0.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(ys[1], [2.0, 2.0], rtol=1e-12)
    assert np.all(ys[2] == 0.0)
    region.flush()
    np.testing.assert_allclose(ys[2], [4.0, 4.0], rtol=1e-12)


# ----------------------------------------------------------------------
# RegionConfig(auto_batch=...): the region wraps its own engine
# ----------------------------------------------------------------------

def test_region_auto_batch_wraps_engine(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    base = InferenceEngine()

    @approx_ml(DIRECTIVES.format(db=tmp_path / "d.rh5", model=path),
               engine=base, auto_batch=True, max_batch_rows=8)
    def region(x, y, N, flag=True):
        y[:N] = x[:N].sum(axis=1)

    wrapped = region.engine
    assert isinstance(wrapped, BatchedInferenceEngine)
    assert wrapped is not base
    assert wrapped.max_batch_rows == 8
    # Shared device + model cache: one load serves both engines.
    assert wrapped.device is base.device
    assert wrapped.cache is base.cache

    xs = [np.full((2, 2), float(i)) for i in range(3)]
    ys = [np.zeros(2) for _ in range(3)]
    for x, y in zip(xs, ys):
        region(x, y, 2)
    region.flush()
    for i, y in enumerate(ys):
        np.testing.assert_allclose(y, [2.0 * i, 2.0 * i], rtol=1e-12)
    assert wrapped.batches_flushed >= 1


@pytest.mark.parametrize("precision", [None, "float32"])
def test_auto_batched_region_and_its_engine_share_one_plan_cache(
        tmp_path, monkeypatch, precision):
    """One compile per (model, dtype): the queue ``auto_batch`` puts in
    front of the given engine runs its fused forward *on* that engine,
    so a warm-up of either is a warm-up of both."""
    from repro.runtime import infer as infer_module

    compiles = []
    real = infer_module.compile_inference

    def counting(model, dtype):
        compiles.append(np.dtype(dtype))
        return real(model, dtype=dtype)

    monkeypatch.setattr(infer_module, "compile_inference", counting)
    path = linear_model(tmp_path / "m.rnm")
    base = InferenceEngine()
    dtype = np.dtype(precision or "float64")

    @approx_ml(DIRECTIVES.format(db=tmp_path / "d.rh5", model=path),
               engine=base, auto_batch=True, precision=precision)
    def region(x, y, N, flag=True):
        y[:N] = x[:N].sum(axis=1)

    base.warmup(path, dtype=dtype)
    y = np.zeros(2)
    region(np.ones((2, 2)), y, 2)
    region.flush()
    np.testing.assert_allclose(y, [2.0, 2.0], rtol=1e-6)
    assert compiles == [dtype]
    assert region.engine.inner is base
    assert list(base._plans) == [(id(base.cache.get(path)), dtype)]
    assert region.engine.last_timing["dtype"] == dtype.name


def test_region_auto_batch_keeps_existing_batched_engine(tmp_path):
    path = linear_model(tmp_path / "m.rnm")
    engine = BatchedInferenceEngine(max_batch_rows=16)

    @approx_ml(DIRECTIVES.format(db=tmp_path / "d.rh5", model=path),
               engine=engine, auto_batch=True)
    def region(x, y, N, flag=True):
        y[:N] = x[:N].sum(axis=1)

    assert region.engine is engine            # no double wrapping


def test_harness_auto_batch_matches_unbatched(tmp_path):
    """End-to-end: an auto-batched chunked deploy loop reproduces the
    single-invocation surrogate output exactly."""
    from repro.apps.harness import harness_for
    from repro.search.builders import builder_for

    model = builder_for("binomial")(
        {"hidden1_features": 12, "hidden2_features": 0}, seed=0)
    plain = harness_for("binomial", tmp_path / "plain",
                        n_train=32, n_test=48, n_steps=16)
    plain.install_model(model)
    ref = plain.run_surrogate()

    batched = harness_for("binomial", tmp_path / "batched",
                          n_train=32, n_test=48, n_steps=16,
                          auto_batch=True, batch_rows=16, deploy_chunk=6)
    assert isinstance(batched.deploy_region.engine, BatchedInferenceEngine)
    batched.install_model(model)
    out = batched.run_surrogate()
    np.testing.assert_allclose(out, ref, rtol=1e-12)
    assert batched.deploy_region.engine.batches_flushed >= 3
    # The accurate path is unaffected by batching.
    np.testing.assert_allclose(batched.run_accurate(), plain.run_accurate(),
                               rtol=1e-12)


def test_miniweather_harness_rejects_auto_batch(tmp_path):
    from repro.apps.harness import harness_for
    with pytest.raises(ValueError):
        harness_for("miniweather", tmp_path, nx=8, nz=4, train_steps=2,
                    test_steps=2, auto_batch=True)



def test_a_failed_swap_closes_its_regions_queued_records(tmp_path):
    """``swap_engine`` whose drain raises (the model file is gone)
    closes the swapping region's queued records with the error and
    drops its calls from the old queue; another region's call on the
    same queue stays queued and lands once the file is back."""
    import os
    path = linear_model(tmp_path / "m.rnm", scale=2.0)
    queue = BatchedInferenceEngine(max_batch_rows=64)
    a = make_region(tmp_path / "d.rh5", path, queue, EventLog())
    b = make_region(tmp_path / "d.rh5", path, queue, EventLog())
    xa, xb = np.random.default_rng(0).random((2, 4, 2))
    ya, yb = queued(a, xa), queued(b, xb)
    os.replace(path, tmp_path / "hidden")
    with pytest.raises(FileNotFoundError):
        a.swap_engine(InferenceEngine())
    os.replace(tmp_path / "hidden", path)
    record = a.events.records[-1]
    assert record.finished and record.notes == {"error": "FileNotFoundError"}
    assert (queue.pending_invocations, queue.pending_rows) == (1, 4)
    a.flush()
    assert not ya.any()                         # dropped, never landed
    queue.flush()
    np.testing.assert_allclose(yb, 2.0 * xb.sum(axis=1), rtol=1e-12)
    assert served(b.events.records[-1])
    a.events.collect()                          # folds the histograms
    assert a.events._hist_cursor == len(a.events.records)
