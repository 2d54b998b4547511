"""Runtime: events, path decisions, collection, inference engine."""

import numpy as np
import pytest

from repro.directives import parse_directive
from repro.nn import Linear, Sequential, save_model
from repro.runtime import (ApproxRegion, DataCollector, EventLog,
                           ExecutionPath, InferenceEngine, ModelCache, Phase,
                           decide_path, eval_condition, load_training_data)

# ----------------------------------------------------------------------
# EventLog
# ----------------------------------------------------------------------

def test_event_log_breakdown_fractions():
    log = EventLog()
    rec = log.new_record("infer")
    rec.add(Phase.TO_TENSOR, 1.0)
    rec.add(Phase.INFERENCE, 8.0)
    rec.add(Phase.FROM_TENSOR, 1.0)
    rec2 = log.new_record("collect")       # must not count toward breakdown
    rec2.add(Phase.ACCURATE, 100.0)
    br = log.breakdown()
    assert br["to_tensor"] == pytest.approx(0.1)
    assert br["inference"] == pytest.approx(0.8)
    assert br["from_tensor"] == pytest.approx(0.1)
    assert log.bridge_overhead() == pytest.approx(0.25)


def test_event_log_counts_and_totals():
    log = EventLog()
    log.new_record("infer").add(Phase.INFERENCE, 2.0)
    log.new_record("accurate").add(Phase.ACCURATE, 3.0)
    assert log.count() == 2
    assert log.count("infer") == 1
    assert log.total() == pytest.approx(5.0)
    assert log.total(Phase.ACCURATE) == pytest.approx(3.0)
    log.reset()
    assert log.count() == 0


def test_event_log_timed_contextmanager():
    log = EventLog()
    rec = log.new_record("infer")
    with log.timed(rec, Phase.INFERENCE):
        sum(range(1000))
    assert rec.times[Phase.INFERENCE] > 0


def test_breakdown_empty_is_zero():
    assert sum(EventLog().breakdown().values()) == 0.0


# ----------------------------------------------------------------------
# decide_path / eval_condition
# ----------------------------------------------------------------------

def ml(src: str):
    return parse_directive(f"#pragma approx {src}")


def test_decide_path_matrix():
    assert decide_path(ml('ml(infer) in(a) model("m")'), {}) == \
        ExecutionPath.INFER
    assert decide_path(ml('ml(collect) in(a) db("d")'), {}) == \
        ExecutionPath.COLLECT
    pred = ml('ml(predicated:flag) in(a) db("d") model("m")')
    assert decide_path(pred, {"flag": True}) == ExecutionPath.INFER
    assert decide_path(pred, {"flag": False}) == ExecutionPath.COLLECT


def test_decide_path_infer_condition():
    node = ml('ml(infer:flag) in(a) model("m")')
    assert decide_path(node, {"flag": True}) == ExecutionPath.INFER
    assert decide_path(node, {"flag": False}) == ExecutionPath.ACCURATE


def test_decide_path_if_clause_gates_everything():
    node = ml('ml(predicated:flag) in(a) db("d") model("m") if(step < 5)')
    assert decide_path(node, {"flag": True, "step": 3}) == \
        ExecutionPath.INFER
    assert decide_path(node, {"flag": True, "step": 7}) == \
        ExecutionPath.ACCURATE
    assert decide_path(node, {"flag": False, "step": 3}) == \
        ExecutionPath.COLLECT


def test_eval_condition_expressions():
    assert eval_condition("step % 3 == 0", {"step": 9})
    assert not eval_condition("x > y", {"x": 1, "y": 2})
    with pytest.raises(RuntimeError):
        eval_condition("undefined_name", {})


def test_eval_condition_no_builtins():
    with pytest.raises(RuntimeError):
        eval_condition("open('/etc/passwd')", {})


def _reference_decide_path(ml, env):
    """The decision rule as it was written before it was lowered to a
    closure: every condition ``eval``-ed against a copy of the binding,
    builtins stripped."""
    def holds(expr):
        try:
            return bool(eval(compile(expr, "<directive>", "eval"),
                             {"__builtins__": {}}, dict(env)))
        except Exception as exc:
            raise RuntimeError(f"failed to evaluate directive condition "
                               f"{expr!r}: {exc}") from exc

    if ml.if_condition is not None and not holds(ml.if_condition):
        return ExecutionPath.ACCURATE
    if ml.mode == "infer":
        if ml.condition is not None and not holds(ml.condition):
            return ExecutionPath.ACCURATE
        return ExecutionPath.INFER
    if ml.mode == "collect":
        return ExecutionPath.COLLECT
    return ExecutionPath.INFER if holds(ml.condition) \
        else ExecutionPath.COLLECT


_CONDITIONS = [None, "flag", " flag ", "flag and step % 2 == 0", "not flag",
               "True", "__debug__", "ﬂag", "flag +"]
_ENVS = [{"flag": True, "step": 4}, {"flag": False, "step": 4},
         {"flag": True, "step": 3}, {"step": 4}, {},
         {"flag": 0.0, "step": 4}, {"flag": "yes", "step": 4},
         {"flag": np.ones(3), "step": 4}, {"flag": np.bool_(True), "step": 1},
         {"flag": None, "step": 4}, {"ﬂag": True, "flag": False, "step": 2}]


@pytest.mark.parametrize("mode", ["infer", "collect", "predicated"])
def test_compiled_decision_matches_the_evaluated_rule(mode):
    """Differential: the closure a region decides with — bare
    identifiers read straight from the binding, anything else
    ``eval``-ed — picks the path, or fails with the text, of the plain
    evaluated rule, for every mode condition x ``if`` clause over
    bindings with the flag true, false, missing and non-bool."""
    from repro.directives.ast_nodes import MLDirective
    from repro.runtime.control import compile_decision
    # The analyzer rejects ml(predicated) without a condition.
    conditions = _CONDITIONS[mode == "predicated":]
    for condition in conditions:
        for if_condition in _CONDITIONS:
            node = MLDirective(loc=None, mode=mode, condition=condition,
                               if_condition=if_condition)
            decide = compile_decision(node)
            for env in _ENVS:
                case = (condition, if_condition, env)
                frozen = dict(env)
                try:
                    want = _reference_decide_path(node, env)
                except RuntimeError as exc:
                    for lowered in (decide, lambda e: decide_path(node, e)):
                        with pytest.raises(RuntimeError) as err:
                            lowered(env)
                        assert str(err.value) == str(exc), case
                else:
                    assert decide(env) == want == decide_path(node, env), \
                        case
                assert env.keys() == frozen.keys()   # the binding is not ours


# ----------------------------------------------------------------------
# DataCollector
# ----------------------------------------------------------------------

def test_collector_appends_and_loads(tmp_path):
    db = tmp_path / "c.rh5"
    coll = DataCollector(db)
    coll.record("r", np.ones((3, 2)), np.zeros((3, 1)), 0.5)
    coll.record("r", np.full((2, 2), 2.0), np.ones((2, 1)), 0.25)
    coll.close()
    x, y, t = load_training_data(db, "r")
    assert x.shape == (5, 2)
    assert y.shape == (5, 1)
    np.testing.assert_allclose(t, [0.5] * 3 + [0.25] * 2)


def test_collector_batch_mismatch(tmp_path):
    coll = DataCollector(tmp_path / "m.rh5")
    with pytest.raises(ValueError):
        coll.record("r", np.ones((3, 2)), np.zeros((2, 1)), 0.1)


def test_collector_multiple_regions(tmp_path):
    db = tmp_path / "multi.rh5"
    coll = DataCollector(db)
    coll.record("alpha", np.ones((1, 2)), np.ones((1, 1)), 0.0)
    coll.record("beta", np.ones((1, 4)), np.ones((1, 2)), 0.0)
    coll.close()
    xa, _, _ = load_training_data(db, "alpha")
    xb, _, _ = load_training_data(db, "beta")
    assert xa.shape == (1, 2) and xb.shape == (1, 4)


def test_collector_bytes_written(tmp_path):
    coll = DataCollector(tmp_path / "b.rh5")
    coll.record("r", np.zeros((100, 10)), np.zeros((100, 2)), 0.0)
    assert coll.bytes_written > 100 * 10 * 8


def test_collector_rejects_mismatch_against_existing_db(tmp_path):
    """Shape conflicts with a pre-existing database fail at record()."""
    db = tmp_path / "pre.rh5"
    first = DataCollector(db)
    first.record("r", np.ones((2, 4)), np.ones((2, 1)), 0.1)
    first.close()
    second = DataCollector(db)
    with pytest.raises(ValueError):
        second.record("r", np.ones((2, 3)), np.ones((2, 1)), 0.1)
    # A matching shape still appends fine.
    second.record("r", np.full((1, 4), 2.0), np.ones((1, 1)), 0.2)
    second.close()
    x, _, _ = load_training_data(db, "r")
    assert x.shape == (3, 4)


def test_collector_buffers_until_flush(tmp_path):
    """record() is append-cheap: database work happens at flush time."""
    db = tmp_path / "buf.rh5"
    coll = DataCollector(db)
    src = np.ones((2, 3))
    coll.record("r", src, np.zeros((2, 1)), 0.1)
    src[:] = 99.0                        # caller reuses its buffer
    coll.record("r", np.full((2, 3), 2.0), np.ones((2, 1)), 0.2)
    assert not db.exists()               # nothing persisted yet
    coll.flush()
    assert db.exists()
    coll.record("r", np.full((1, 3), 3.0), np.ones((1, 1)), 0.3)
    coll.close()                         # close flushes the tail
    x, y, t = load_training_data(db, "r")
    np.testing.assert_allclose(x[:2], 1.0)   # snapshot, not the mutation
    np.testing.assert_allclose(x[2:4], 2.0)
    np.testing.assert_allclose(x[4:], 3.0)
    np.testing.assert_allclose(t, [0.1, 0.1, 0.2, 0.2, 0.3])


# ----------------------------------------------------------------------
# InferenceEngine / ModelCache
# ----------------------------------------------------------------------

def test_model_cache_loads_once(tmp_path):
    path = tmp_path / "m.rnm"
    save_model(Sequential(Linear(2, 1)), path)
    cache = ModelCache()
    m1 = cache.get(path)
    m2 = cache.get(path)
    assert m1 is m2
    assert len(cache) == 1
    cache.clear()
    assert cache.get(path) is not m1


def _weighted(path, weight):
    """Save a 2->1 model predicting ``weight * row_sum`` at ``path``."""
    model = Sequential(Linear(2, 1))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, path)
    return model


def _served(cache_or_engine, path):
    engine = cache_or_engine if isinstance(cache_or_engine, InferenceEngine) \
        else InferenceEngine(cache=cache_or_engine)
    return float(engine.infer(path, np.ones((1, 2)))[0, 0])


def test_model_cache_replace_then_invalidate_serves_new_weights(tmp_path):
    """The hot-swap protocol through the memoised key: ``os.replace`` a
    new file into place, ``invalidate(path)``, next ``get`` reloads."""
    import os
    path = tmp_path / "m.rnm"
    _weighted(path, 1.0)
    engine = InferenceEngine()
    for _ in range(3):                      # memo + model + plan all warm
        assert _served(engine, path) == 2.0
    _weighted(tmp_path / "next.rnm", 5.0)
    os.replace(tmp_path / "next.rnm", path)
    assert _served(engine, path) == 2.0     # not invalidated yet
    assert engine.cache.invalidate(path)
    assert _served(engine, path) == 10.0
    assert _served(engine, str(path)) == 10.0
    assert len(engine.cache) == 1


def test_model_cache_put_hits_under_another_spelling(tmp_path):
    cache = ModelCache()
    model = Sequential(Linear(2, 1))
    (tmp_path / "sub").mkdir()
    cache.put(tmp_path / "m.rnm", model)    # no file: a miss would raise
    assert cache.get(str(tmp_path / "sub" / ".." / "m.rnm")) is model
    assert cache.get(f"{tmp_path}//m.rnm") is model
    other = Sequential(Linear(2, 1))
    cache.put(f"{tmp_path}/./m.rnm", other)  # re-seed by a third spelling
    assert cache.get(tmp_path / "m.rnm") is other
    assert len(cache) == 1


def test_model_cache_relative_path_follows_chdir(tmp_path, monkeypatch):
    """A relative spelling names a different file after ``os.chdir``; the
    memo must never carry it across."""
    for name, weight in (("a", 1.0), ("b", 5.0)):
        (tmp_path / name).mkdir()
        _weighted(tmp_path / name / "m.rnm", weight)
    cache = ModelCache()
    monkeypatch.chdir(tmp_path / "a")
    assert _served(cache, "m.rnm") == 2.0
    assert _served(cache, "m.rnm") == 2.0
    monkeypatch.chdir(tmp_path / "b")
    assert _served(cache, "m.rnm") == 10.0
    assert cache.get("m.rnm") is cache.get(tmp_path / "b" / "m.rnm")
    assert len(cache) == 2


def test_model_cache_follows_retargeted_symlink_after_invalidate(tmp_path):
    import os
    _weighted(tmp_path / "a.rnm", 1.0)
    _weighted(tmp_path / "b.rnm", 5.0)
    link = tmp_path / "live.rnm"
    other_spelling = f"{tmp_path}/./live.rnm"
    link.symlink_to(tmp_path / "a.rnm")
    cache = ModelCache()
    assert _served(cache, link) == 2.0
    assert _served(cache, other_spelling) == 2.0
    (tmp_path / "next").symlink_to(tmp_path / "b.rnm")
    os.replace(tmp_path / "next", link)     # atomic retarget
    cache.invalidate(link)
    assert _served(cache, link) == 10.0
    assert _served(cache, other_spelling) == 10.0   # every spelling follows
    assert _served(cache, tmp_path / "a.rnm") == 2.0  # a.rnm itself intact


def test_engine_roundtrip(tmp_path):
    model = Sequential(Linear(3, 2))
    path = tmp_path / "e.rnm"
    save_model(model, path)
    engine = InferenceEngine()
    x = np.random.default_rng(0).normal(size=(5, 3))
    out = engine.infer(path, x)
    model.eval()
    np.testing.assert_allclose(out, model(x).numpy(), atol=1e-12)
    assert engine.device.bytes_to_device > 0
    assert engine.device.bytes_to_host > 0


def test_engine_marches_conv_surrogate_bitwise(tmp_path):
    """The miniweather deployment shape: batch 1, the same inout buffer
    fed back every step.  Every marched state — not only the first —
    equals the graph forward of the state before it."""
    from repro.search.builders import build_miniweather_cnn
    model = build_miniweather_cnn(
        {"conv1_kernel": 3, "conv1_channels": 4, "conv2_kernel": 0},
        nz=16, nx=32, seed=0)
    model.eval()
    path = tmp_path / "mw.rnm"
    save_model(model, path)
    engine = InferenceEngine()
    u = np.random.default_rng(0).normal(size=(1, 4, 16, 32))
    for _ in range(3):
        want = model(u).numpy()
        u[...] = engine.infer(path, u)
        assert engine.last_timing["compiled"]
        assert np.array_equal(u, want)


# ----------------------------------------------------------------------
# ApproxRegion construction errors
# ----------------------------------------------------------------------

GOOD = """
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:flag) in(x) out(y) db("d.rh5") model("m.rnm")
"""


def test_region_requires_ml_directive():
    with pytest.raises(ValueError):
        ApproxRegion(lambda x, y, N, flag=False: None,
                     "#pragma approx tensor functor(f: [i] = ([i]))")


def test_region_requires_maps():
    src = ('#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))\n'
           '#pragma approx tensor map(to: fi(x[0:N]))\n'
           '#pragma approx ml(collect) in(x) db("d")')
    with pytest.raises(ValueError):
        ApproxRegion(lambda x, N: None, src)


def test_region_map_must_match_inout_lists():
    src = GOOD.replace("in(x) out(y)", "in(x) out(x)")
    with pytest.raises(ValueError):
        ApproxRegion(lambda x, y, N, flag=False: None, src)


def test_region_missing_array_argument():
    region = ApproxRegion(lambda x, y, N, flag=False: None, GOOD)
    from repro.bridge import BridgeError
    with pytest.raises(TypeError):
        region(np.zeros((3, 2)), flag=False)   # y, N missing


def test_region_non_array_argument():
    region = ApproxRegion(lambda x, y, N, flag=False: None, GOOD)
    from repro.bridge import BridgeError
    with pytest.raises(BridgeError):
        region("not an array", np.zeros(3), 3, flag=False)


def test_region_infer_without_model(tmp_path):
    src = GOOD.replace('model("m.rnm")', f'model("{tmp_path}/absent.rnm")')
    region = ApproxRegion(lambda x, y, N, flag=False: None, src)
    with pytest.raises(FileNotFoundError):
        region(np.zeros((3, 2)), np.zeros(3), 3, flag=True)
