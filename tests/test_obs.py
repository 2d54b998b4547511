"""Observability layer: registry, tracing, streams, lazy folding.

The cross-region aggregation test under concurrent ThreadPoolBackend
traffic is the subsystem's acceptance story: totals computed from a
concurrent run must equal a serial run record-for-record — the ring,
the collector counters, and the folded histograms may lose nothing.
Everything here carries the ``obs`` marker so CI can run it as a
dedicated lane.
"""

import gc
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.api import approx_ml
from repro.nn import Linear, Sequential, save_model
from repro.runtime import EventLog, Phase
from repro.serving import RegionServer, ThreadPoolBackend

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test sees an empty default registry/tracer, enabled."""
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def linear_region(tmp_path, name, *, weight=1.0, stream=None,
                  auto_batch=False):
    """The test-suite 2->1 region idiom, with a fresh EventLog."""
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / f"{name}.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{tmp_path}/{name}.rh5") model("{tmp_path}/{name}.rnm")
"""
    log = EventLog(stream=stream)

    @approx_ml(src, name=name, event_log=log, auto_batch=auto_batch)
    def region(x, y, N, use_model=False):
        y[:N] = x[:N].sum(axis=1) * weight

    return region, log


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_counter_gauge_basics_and_handle_stability():
    reg = obs.MetricsRegistry()
    c = reg.counter("requests", region="a")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert reg.counter("requests", region="a") is c      # stable handle
    assert reg.counter("requests", region="b") is not c  # labels split

    g = reg.gauge("breaker_state", region="a")
    assert g.value is None
    g.set("open")
    assert g.value == "open"
    g.set(1.0)
    g.add(2.0)
    assert g.value == 3.0


def test_histogram_quantiles_and_sample():
    reg = obs.MetricsRegistry()
    hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0), region="r")
    for v in (0.5, 1.5, 1.5, 3.0, 7.0):
        hist.observe(v)
    assert hist.count == 5
    assert hist.sum == pytest.approx(13.5)
    assert hist.min == 0.5 and hist.max == 7.0
    # p50 rank lands in the (1, 2] bucket; interpolation stays inside.
    assert 1.0 <= hist.quantile(0.5) <= 2.0
    assert hist.quantile(1.0) == 7.0
    sample = hist.sample()
    assert sample["count"] == 5
    assert sample["buckets"]["1.0"] == 1
    assert sample["buckets"]["2.0"] == 2
    assert sample["buckets"]["+inf"] == 0
    assert 1.0 <= sample["p50"] <= 2.0

    empty = reg.histogram("lat2")
    assert math.isnan(empty.quantile(0.5))
    assert empty.sample()["min"] is None
    with pytest.raises(ValueError):
        empty.quantile(1.5)
    with pytest.raises(ValueError):
        reg.histogram("bad", buckets=(2.0, 1.0))


def test_rollup_sums_counters_and_merges_histograms():
    reg = obs.MetricsRegistry()
    reg.counter("decisions", region="a", path="infer").inc(3)
    reg.counter("decisions", region="b", path="infer").inc(4)
    reg.counter("decisions", region="a", path="accurate").inc(10)
    assert reg.rollup("decisions")["value"] == 17
    assert reg.rollup("decisions", path="infer")["value"] == 7
    assert reg.rollup("decisions", region="a")["samples"] == 2
    assert reg.rollup("missing") == {"name": "missing", "samples": 0}

    for region, values in (("a", (0.5, 1.5)), ("b", (3.0, 7.0))):
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0),
                          region=region)
        for v in values:
            h.observe(v)
    merged = reg.rollup("lat")
    assert merged["count"] == 4
    assert merged["min"] == 0.5 and merged["max"] == 7.0
    assert merged["sum"] == pytest.approx(12.0)

    with pytest.raises(ValueError):
        obs.merge_histograms([
            reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0),
                          region="a").sample(),
            reg.histogram("other", buckets=(1.0, 2.0)).sample(),
        ])


def test_registry_export_is_json_clean(tmp_path):
    import json
    reg = obs.MetricsRegistry()
    reg.counter("n", region="a").inc()
    reg.histogram("lat", region="a").observe(1e-3)
    out = tmp_path / "metrics.json"
    reg.export(out)
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(reg.snapshot()))
    assert {s["type"] for ss in on_disk["metrics"].values() for s in ss} \
        == {"counter", "histogram"}


def test_dropped_collector_leaves_snapshot():
    reg = obs.MetricsRegistry()

    class Source:
        def collect(self):
            return [{"type": "counter", "name": "x", "labels": {},
                     "value": 1}]

    source = Source()
    reg.register_collector(source)
    assert reg.snapshot()["metrics"]["x"][0]["value"] == 1
    del source
    gc.collect()
    assert "x" not in reg.snapshot()["metrics"]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_span_nesting_and_error_annotation():
    tracer = obs.Tracer()
    with tracer.span("retrain", region="r"):
        with tracer.span("fit"):
            pass
        tracer.record_span("swap", 0.25, model="m.rnm")
    trace = tracer.last()
    assert trace["kind"] == "span" and trace["name"] == "retrain"
    children = [c["name"] for c in trace["root"]["children"]]
    assert children == ["fit", "swap"]
    assert tracer.seen == 1                 # children are not roots

    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert tracer.last()["root"]["attrs"]["error"] == "RuntimeError"


def test_ring_bounds_and_seen_totals():
    tracer = obs.Tracer(capacity=4)
    for i in range(10):
        tracer.record_span("flush", 1e-5, rows=i)
    assert len(tracer) == 4
    assert tracer.seen == 10
    snap = tracer.snapshot()
    assert snap["buffered"] == 4 and snap["seen"] == 10
    ids = [t["trace_id"] for t in snap["traces"]]
    assert ids == [7, 8, 9, 10]             # most recent, monotone
    assert [t["root"]["attrs"]["rows"] for t in snap["traces"]] == \
        [6, 7, 8, 9]

    tracer.record_span("swap", 1e-4)        # no live parent: ring root
    assert tracer.last()["name"] == "swap"

    with pytest.raises(ValueError):
        obs.Tracer(capacity=0)


def test_seen_is_exact_with_lock_free_writers():
    """Ring appends tick a counter without taking a lock; ``seen``
    stays exact however reads interleave with concurrent writers, and
    ``reset`` zeroes it."""
    tracer = obs.Tracer(capacity=8)
    per_thread, readings = 2000, []

    def write():
        for _ in range(per_thread):
            tracer.record_span("flush", 1e-6, rows=1)
            tracer.record_span("swap", 1e-6)

    threads = [threading.Thread(target=write) for _ in range(4)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        readings.append(tracer.seen)
    for t in threads:
        t.join()
    assert readings == sorted(readings)             # reads never count
    assert tracer.seen == tracer.seen == 4 * 2 * per_thread
    assert tracer.snapshot()["seen"] == 4 * 2 * per_thread
    tracer.reset()
    assert tracer.seen == 0
    tracer.record_span("flush", 1e-6)
    assert tracer.seen == 1


def test_event_log_is_a_trace_source():
    log = EventLog()
    for i in range(3):
        rec = log.new_record("infer", region="src")
        rec.add(Phase.TO_TENSOR, 1e-6)
        rec.add(Phase.INFERENCE, 2e-6)
        rec.note("policy", "within_budget")
        log.finish(rec)
    unfinished = log.new_record("infer", region="src")   # never finished

    traces = obs.tracer().traces(region="src")
    assert [t["trace_id"] for t in traces] == [1, 2, 3]  # skips in-flight
    root = traces[-1]["root"]
    names = [c["name"] for c in root["children"]]
    assert names == ["to_tensor", "inference", "policy"]
    assert traces[-1]["seconds"] == pytest.approx(3e-6)
    assert obs.tracer().traces(region="elsewhere") == []
    assert unfinished in log.records


def test_disabling_obs_stops_spans():
    tracer = obs.tracer()
    obs.set_enabled(False)
    tracer.record_span("hidden", 1.0)
    with tracer.span("also_hidden"):
        pass
    assert tracer.snapshot()["seen"] == 0


# ----------------------------------------------------------------------
# EventLog ring + lazy folding
# ----------------------------------------------------------------------

def test_bounded_ring_keeps_exact_totals():
    log = EventLog(capacity=8)
    for i in range(30):
        rec = log.new_record("infer" if i % 3 else "accurate", region="r")
        rec.add(Phase.INFERENCE, 0.5)
        rec.add(Phase.TO_TENSOR, 0.25)
        log.finish(rec)
    assert log.seen == 30
    assert log.dropped > 0
    assert len(log.records) <= log.capacity
    # Aggregates stay exact across eviction.
    assert log.count() == 30
    assert log.count("infer") == 20
    assert log.total() == pytest.approx(30 * 0.75)
    assert log.total(Phase.INFERENCE) == pytest.approx(15.0)
    window = log.seen
    rec = log.new_record("infer", region="r")
    rec.add(Phase.INFERENCE, 1.0)
    log.finish(rec)
    assert log.records_since(window) == [rec]

    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_snapshot_folds_each_record_exactly_once():
    log = EventLog(capacity=4)
    for i in range(10):
        rec = log.new_record("infer", region="fold")
        rec.add(Phase.INFERENCE, 1e-4)
        log.finish(rec)

    def hist_sample():
        samples = obs.snapshot()["metrics"]["metrics"]
        return [s for s in samples["region_invocation_seconds"]
                if s["labels"]["region"] == "fold"][0]

    first = hist_sample()
    # Every record observed once — including the ones evicted before
    # the first scrape — and a second scrape does not re-fold.
    assert first["count"] == 10
    assert first["sum"] == pytest.approx(10 * 1e-4)
    assert hist_sample() == first

    counters = obs.snapshot()["metrics"]["metrics"]["region_invocations"]
    assert [c["value"] for c in counters
            if c["labels"]["region"] == "fold"] == [10]


def test_finish_is_idempotent_for_stream_records(tmp_path):
    stream = obs.DecisionStream(tmp_path / "s.rh5")
    log = EventLog(stream=stream)
    rec = log.new_record("infer", region="r")
    rec.add(Phase.INFERENCE, 1e-5)
    rec.note("policy", "within_budget")
    log.finish(rec)
    log.finish(rec)                          # double finish: one record
    obs.set_enabled(False)
    disabled = log.new_record("infer", region="r")
    log.finish(disabled)                     # gated off: no stream row
    obs.set_enabled(True)
    stream.close()
    replay = obs.read_stream(tmp_path / "s.rh5")
    assert len(replay["r"]) == 1
    assert replay["r"][0]["reason"] == "within_budget"


@pytest.mark.parametrize("auto_batch", [False, True],
                         ids=["immediate", "batched"])
def test_failed_invocation_closes_its_record(tmp_path, auto_batch):
    """Regression: an invocation that raised after its record was
    opened left it unfinished, and the histogram fold stops at the
    first unfinished record — one bad call froze a region's latency
    histogram for good.  The failed call's record is closed with the
    exception type, stays out of the latency histogram, appends
    nothing to the decision stream, and the exception reaches the
    caller unchanged."""
    from repro.bridge import BridgeError
    stream = obs.DecisionStream(tmp_path / "s.rh5")
    region, log = linear_region(tmp_path, "r", weight=2.0, stream=stream,
                                auto_batch=auto_batch)
    x, y = np.ones((4, 2)), np.zeros(4)
    for _ in range(5):
        region(x, y, 4, use_model=True)
    with pytest.raises(BridgeError, match="outside"):
        region(x, y, 9, use_model=True)          # N larger than the arrays

    def broken(x, y, N, use_model=False):
        raise KeyError("kernel bug")
    kernel, region.func = region.func, broken
    with pytest.raises(KeyError, match="kernel bug"):
        region(x, y, 4, use_model=False)         # accurate path raises too
    region.func = kernel
    for _ in range(5):
        region(x, y, 4, use_model=True)
    region.flush()

    assert all(rec.finished for rec in log.records)
    assert [rec.notes for rec in log.records[5:7]] == [
        {"error": "BridgeError"}, {"error": "KeyError"}]
    log.collect()
    assert log._hist_cursor == 12
    infer = [s for s in obs.snapshot()["metrics"]["metrics"][
        "region_invocation_seconds"] if s["labels"] == {
            "region": "r", "path": "infer"}]
    assert [s["count"] for s in infer] == [10]    # the failed call is not
    stream.close()                                # a served latency
    assert len(obs.read_stream(tmp_path / "s.rh5")["r"]) == 10


# ----------------------------------------------------------------------
# Decision streams
# ----------------------------------------------------------------------

def test_stream_round_trip_decodes_none_and_values(tmp_path):
    path = tmp_path / "stream.rh5"
    with obs.DecisionStream(path) as stream:
        stream.record("a", digest=7, path="infer", reason="within_budget",
                      breaker="healthy", shadow_error=0.25, spend=0.1)
        stream.record("a", digest=8, path="accurate")
        stream.record("b", digest=9, path="infer", reason="forced")
    replay = obs.read_stream(path)
    assert set(replay) == {"a", "b"}
    first, second = replay["a"]
    assert first == {"seq": 0, "digest": 7, "path": "infer",
                     "reason": "within_budget", "breaker": "healthy",
                     "precision": None, "shadow_error": 0.25, "spend": 0.1}
    assert second["reason"] is None and second["shadow_error"] is None
    assert replay["b"][0]["reason"] == "forced"

    with pytest.raises(RuntimeError):
        stream.record("a")                   # closed stream refuses

    not_a_stream = tmp_path / "other.rh5"
    from repro.h5 import File
    with File(not_a_stream, "w") as fh:
        fh.attrs["schema"] = "something-else"
    with pytest.raises(ValueError):
        obs.read_stream(not_a_stream)


def test_input_digest_is_stable_and_shape_sensitive():
    x = np.arange(6.0)
    assert obs.input_digest(x) == obs.input_digest(x.copy())
    assert obs.input_digest(x) != obs.input_digest(x.reshape(2, 3))
    assert obs.input_digest(x) != obs.input_digest(x + 1)
    assert 0 <= obs.input_digest(x) < 2 ** 63


def test_input_digest_golden_values():
    """Recorded streams are joined to replays by digest, so the encoding
    (dtype text, shape text, bytes — per array, in order) is a format:
    pinned values, so a faster header encoder cannot drift from it."""
    a = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    b = np.arange(10, dtype=np.float32).reshape(5, 2) - 3.5
    for _ in range(2):                   # second pass rides the memo
        assert obs.input_digest(a) == 3798629461506558282
        assert obs.input_digest(b) == 2747602707856519376
        assert obs.input_digest(a, b) == 6007495500271610821
        # Same geometry, other bytes; same bytes, other geometry.
        assert obs.input_digest(a + 1.0) != obs.input_digest(a)
        assert obs.input_digest(a.reshape(4, 3)) != obs.input_digest(a)
        assert obs.input_digest(a.T) == 1568240937623958373


def test_fixed_seed_recording_replays_bit_identically(tmp_path):
    def record(path):
        rng = np.random.default_rng(3)
        with obs.DecisionStream(path, flush_every=4) as stream:
            for i in range(10):
                stream.record(
                    "r", digest=obs.input_digest(rng.random(4)),
                    path="infer" if i % 2 else "accurate",
                    reason="within_budget", shadow_error=i / 10)
        return path

    a = record(tmp_path / "a.rh5")
    b = record(tmp_path / "b.rh5")
    assert a.read_bytes() == b.read_bytes()
    assert obs.read_stream(a) == obs.read_stream(b)


# ----------------------------------------------------------------------
# Cross-region aggregation under concurrent traffic (acceptance)
# ----------------------------------------------------------------------

@pytest.mark.serving
def test_concurrent_traffic_loses_no_updates(tmp_path):
    blocks, rows, regions = 24, 8, ("a", "b")

    def drive(backend):
        server = RegionServer(backend=backend)
        logs = {}
        for name in regions:
            region, logs[name] = linear_region(tmp_path / "conc", name,
                                               auto_batch=True)
            server.register(region)
        rng = np.random.default_rng(0)
        buffers = {name: np.empty(rows) for name in regions}
        for _ in range(blocks):
            block = rng.random((rows, 2))
            for name in regions:
                server.invoke(name, block, buffers[name], rows,
                              use_model=True)
        server.drain()
        rollup = obs.metrics().rollup("region_invocations")
        per_region = {
            name: obs.metrics().rollup("region_invocations",
                                       region=name)["value"]
            for name in regions}
        latency = obs.metrics().rollup("region_invocation_seconds")
        server.close()
        obs.reset()
        return logs, rollup, per_region, latency

    obs.reset()
    logs, rollup, per_region, latency = drive(ThreadPoolBackend())
    serial = drive(None)

    # No lost updates: every ring is exact, and the registry roll-up
    # over the concurrent run equals the serial run's totals.
    assert all(log.seen == blocks for log in logs.values())
    assert rollup["value"] == blocks * len(regions) == serial[1]["value"]
    assert per_region == serial[2] == {name: blocks for name in regions}
    assert latency["count"] == serial[3]["count"] == blocks * len(regions)
    assert latency["min"] > 0


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------

def test_engine_profile_reports_per_step_timings(tmp_path):
    from repro.runtime import InferenceEngine
    model = Sequential(Linear(2, 8, rng=np.random.default_rng(0)),
                       Linear(8, 1, rng=np.random.default_rng(1)))
    path = tmp_path / "m.rnm"
    save_model(model, path)
    engine = InferenceEngine()
    x = np.random.default_rng(0).random((16, 2))
    prof = engine.profile(path, x)
    assert prof["compiled"]
    assert len(prof["steps"]) >= 2
    assert sum(s["seconds"] for s in prof["steps"]) \
        <= prof["total_seconds"] + 1e-9
    np.testing.assert_allclose(prof["outputs"], engine.infer(path, x),
                               rtol=1e-6)
