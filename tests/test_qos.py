"""Online QoS subsystem: monitors, policies, region integration."""

import numpy as np
import pytest

from repro.api import approx_ml
from repro.directives import parse_directive
from repro.nn import Linear, Sequential, save_model
from repro.qos import (CompositePolicy, DriftBurstPolicy, ErrorBudgetPolicy,
                       EwmaStats, P2Quantile, PageHinkley,
                       PeriodicRecalibrationPolicy, QoSController,
                       RegionErrorStats, ShadowValidator, ThresholdPolicy)
from repro.runtime import (EventLog, ExecutionPath, Phase, decide_path,
                           load_training_data)

# ----------------------------------------------------------------------
# Rolling statistics
# ----------------------------------------------------------------------

def test_ewma_seeds_and_tracks():
    s = EwmaStats(alpha=0.5)
    s.update(1.0)
    assert s.mean == 1.0 and s.var == 0.0
    for _ in range(50):
        s.update(3.0)
    assert s.mean == pytest.approx(3.0, abs=1e-6)
    assert s.std < 0.1


def test_p2_quantile_approximates_empirical():
    rng = np.random.default_rng(0)
    stream = rng.normal(size=5000)
    sketch = P2Quantile(0.9)
    for v in stream:
        sketch.update(v)
    exact = float(np.quantile(stream, 0.9))
    assert abs(sketch.value - exact) < 0.1


def test_p2_quantile_small_stream_falls_back():
    sketch = P2Quantile(0.5)
    for v in (1.0, 2.0, 3.0):
        sketch.update(v)
    assert sketch.value == pytest.approx(2.0)


def test_page_hinkley_fires_on_shift_not_on_stationary():
    det = PageHinkley(delta=0.005, threshold=0.2, burn_in=5)
    rng = np.random.default_rng(1)
    fired = [det.update(v) for v in 0.05 + 0.01 * rng.random(100)]
    assert not any(fired)
    fired = [det.update(v) for v in 0.5 + 0.01 * rng.random(20)]
    assert any(fired)


def test_region_error_stats_snapshot():
    stats = RegionErrorStats()
    for v in (0.1, 0.2, 0.3):
        stats.update(v)
    snap = stats.snapshot()
    assert snap["count"] == 3
    assert snap["worst"] == pytest.approx(0.3)
    assert snap["lifetime_mean"] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Shadow sampling determinism
# ----------------------------------------------------------------------

def test_shadow_sampling_deterministic_under_seed():
    a = ShadowValidator(rate=0.3, seed=42)
    b = ShadowValidator(rate=0.3, seed=42)
    seq_a = [a.should_sample() for _ in range(200)]
    seq_b = [b.should_sample() for _ in range(200)]
    assert seq_a == seq_b
    assert 0 < sum(seq_a) < 200
    c = ShadowValidator(rate=0.3, seed=43)
    assert [c.should_sample() for _ in range(200)] != seq_a
    a.reset()
    assert [a.should_sample() for _ in range(200)] == seq_a


def test_shadow_rate_extremes():
    always = ShadowValidator(rate=1.0, seed=0)
    never = ShadowValidator(rate=0.0, seed=0)
    assert all(always.should_sample() for _ in range(10))
    assert not any(never.should_sample() for _ in range(10))
    assert always.sampled == 10 and never.sampled == 0


def test_shadow_error_metrics():
    v = ShadowValidator(metric="relative")
    assert v.error([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
    assert v.error([2.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    rmse = ShadowValidator(metric="rmse")
    assert rmse.error([1.0, 3.0], [0.0, 0.0]) == pytest.approx(
        np.sqrt(5.0))
    with pytest.raises(ValueError):
        ShadowValidator(metric="nope")


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------

def _fed(policy, errors, name="r"):
    """Feed errors through fresh stats; return the stats object."""
    stats = RegionErrorStats(alpha=0.5)
    for e in errors:
        stats.update(e)
        policy.observe(name, e, stats)
    return stats


def test_threshold_policy_trips_and_recovers():
    policy = ThresholdPolicy(high=0.1, low=0.02, probe_interval=4,
                             warmup=0)
    stats = _fed(policy, [0.5, 0.5])
    action = policy.decide("r", stats)
    assert action.path == ExecutionPath.ACCURATE
    assert policy.trips == 1
    # Errors drop below low -> recovery, inference resumes.
    _fed(policy, [0.001] * 8)
    assert policy.recoveries == 1
    stats2 = RegionErrorStats()
    stats2.update(0.001)
    assert policy.decide("r", stats2) is None


def test_threshold_policy_hysteresis_no_flapping():
    """Estimates oscillating inside (low, high) must not flip the path."""
    policy = ThresholdPolicy(high=0.1, low=0.02, probe_interval=1,
                             warmup=0)
    # Trip once with a high error...
    stats = RegionErrorStats(alpha=0.5)
    stats.update(0.5)
    policy.observe("r", 0.5, stats)
    assert policy.trips == 1
    # ...then feed mid-band errors: inside the hysteresis band nothing
    # transitions, in either direction.
    for e in (0.05, 0.07, 0.04, 0.06) * 10:
        stats.update(e)
        policy.observe("r", e, stats)
    assert policy.trips == 1
    assert policy.recoveries == 0
    assert policy.decide("r", stats).path in (ExecutionPath.ACCURATE, None) \
        or policy.decide("r", stats).force_shadow


def test_threshold_policy_probes_while_tripped():
    policy = ThresholdPolicy(high=0.1, low=0.02, probe_interval=3,
                             warmup=0)
    stats = _fed(policy, [0.9])
    kinds = []
    for _ in range(9):
        action = policy.decide("r", stats)
        kinds.append("probe" if action.force_shadow else action.path)
    assert kinds.count("probe") == 3          # every 3rd decision
    probe = [a for a in (policy.decide("r", stats) for _ in range(3))
             if a.force_shadow][0]
    assert probe.commit == "accurate"


def test_threshold_policy_warmup_probes_first():
    policy = ThresholdPolicy(high=0.1, warmup=2)
    empty = RegionErrorStats()
    action = policy.decide("r", empty)
    assert action.force_shadow and action.commit == "accurate"


def test_error_budget_policy_caps_mean_charge():
    policy = ErrorBudgetPolicy(budget=0.1, headroom=1.0, warmup=1)
    stats = RegionErrorStats(alpha=0.5)
    stats.update(0.4)                        # estimate: 0.4 per inference
    decisions = [policy.decide("r", stats) for _ in range(40)]
    st = policy._state["r"]
    # Mean admitted charge stays within the budget.
    assert st["spent"] / st["decisions"] <= 0.1
    assert st["denied"] > st["inferred"]     # high error: mostly accurate
    accurate = [d for d in decisions
                if d is not None and d.path == ExecutionPath.ACCURATE]
    assert accurate, "high estimate must deny some inferences"


def test_error_budget_policy_admits_when_cheap():
    policy = ErrorBudgetPolicy(budget=0.1, headroom=1.0, warmup=1)
    stats = RegionErrorStats(alpha=0.5)
    stats.update(0.001)
    assert all(policy.decide("r", stats) is None for _ in range(20))


def test_drift_burst_policy_bursts_after_detection():
    policy = DriftBurstPolicy(burst=5, threshold=0.1, delta=0.0, burn_in=2)
    stats = RegionErrorStats(alpha=0.5)
    for e in [0.01] * 6 + [0.8] * 4:
        stats.update(e)
        policy.observe("r", e, stats)
    assert policy.drifts == 1
    overrides = [policy.decide("r", stats) for _ in range(8)]
    collects = [a for a in overrides
                if a is not None and a.path == ExecutionPath.COLLECT]
    assert len(collects) == 5                # exactly one burst


def test_periodic_recalibration_policy_cycles():
    policy = PeriodicRecalibrationPolicy(period=4, n_accurate=1)
    stats = RegionErrorStats()
    paths = [getattr(policy.decide("r", stats), "path", None)
             for _ in range(8)]
    assert paths == [ExecutionPath.ACCURATE, None, None, None] * 2


def test_composite_policy_first_override_wins():
    policy = CompositePolicy(
        PeriodicRecalibrationPolicy(period=2, n_accurate=1),
        ThresholdPolicy(high=0.01, warmup=0))
    stats = _fed(policy, [0.9])              # threshold is tripped
    first = policy.decide("r", stats)
    second = policy.decide("r", stats)
    assert first.reason == "recalibration"
    assert second.reason in ("threshold", "probe")


# ----------------------------------------------------------------------
# decide_path override semantics
# ----------------------------------------------------------------------

def ml(src: str):
    return parse_directive(f"#pragma approx {src}")


def test_decide_path_override_applies_only_to_infer():
    node = ml('ml(predicated:flag) in(a) db("d") model("m") if(step < 5)')
    env = {"flag": True, "step": 3}
    assert decide_path(node, env, override=ExecutionPath.COLLECT) == \
        ExecutionPath.COLLECT
    # A false if-clause gates approximation entirely: no override.
    env_gated = {"flag": True, "step": 9}
    assert decide_path(node, env_gated, override=ExecutionPath.COLLECT) == \
        ExecutionPath.ACCURATE
    # predicated-false means the app asked for collection: no override.
    env_collect = {"flag": False, "step": 3}
    assert decide_path(node, env_collect, override=ExecutionPath.INFER) == \
        ExecutionPath.COLLECT


# ----------------------------------------------------------------------
# Region integration
# ----------------------------------------------------------------------

def make_region(tmp_path, qos, scale=1.0, weight=1.0):
    """A 2->1 region whose accurate kernel computes scale * row-sum and
    whose model predicts weight * row-sum."""
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[weight, weight]])
    model[0].bias.data = np.array([0.0])
    save_model(model, tmp_path / "m.rnm")
    src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{tmp_path}/d.rh5") model("{tmp_path}/m.rnm")
"""
    log = EventLog()

    @approx_ml(src, name="reg", event_log=log, qos=qos)
    def region(x, y, N, use_model=False):
        y[:N] = x[:N].sum(axis=1) * scale

    return region, log


def test_region_without_qos_records_no_shadow(tmp_path):
    region, log = make_region(tmp_path, qos=None)
    x = np.ones((3, 2))
    y = np.empty(3)
    region(x, y, 3, use_model=True)
    np.testing.assert_allclose(y, 2.0)
    assert all(Phase.SHADOW not in r.times for r in log.records)


def test_shadow_commit_surrogate_keeps_deployment_output(tmp_path):
    ctrl = QoSController(shadow_rate=1.0, seed=0, commit="surrogate")
    region, log = make_region(tmp_path, ctrl, scale=2.0)  # model off by 2x
    x = np.ones((3, 2))
    y = np.empty(3)
    region(x, y, 3, use_model=True)
    np.testing.assert_allclose(y, 2.0)       # surrogate result committed
    stats = ctrl.stats_for("reg")
    assert stats.count == 1
    assert stats.last == pytest.approx(0.5)  # |2-4|/4 relative
    rec = log.records[-1]
    assert rec.path == "infer"
    assert rec.times[Phase.SHADOW] > 0
    assert Phase.ACCURATE not in rec.times


def test_shadow_commit_accurate_corrects_state(tmp_path):
    ctrl = QoSController(shadow_rate=1.0, seed=0, commit="accurate")
    region, _log = make_region(tmp_path, ctrl, scale=2.0)
    x = np.ones((3, 2))
    y = np.empty(3)
    region(x, y, 3, use_model=True)
    np.testing.assert_allclose(y, 4.0)       # accurate result stays
    assert ctrl.stats_for("reg").count == 1


def test_shadow_sampling_schedule_matches_validator(tmp_path):
    ctrl = QoSController(shadow_rate=0.5, seed=11)
    region, log = make_region(tmp_path, ctrl)
    reference = ShadowValidator(rate=0.5, seed=11)
    expected = [reference.should_sample() for _ in range(30)]
    for _ in range(30):
        x = np.ones((2, 2))
        y = np.empty(2)
        region(x, y, 2, use_model=True)
    shadowed = [Phase.SHADOW in r.times for r in log.records]
    assert shadowed == expected


def test_drift_burst_writes_new_rows_to_db(tmp_path):
    policy = DriftBurstPolicy(burst=3, threshold=0.05, delta=0.0, burn_in=2)
    ctrl = QoSController(policy=policy, shadow_rate=1.0, seed=0)
    region, _log = make_region(tmp_path, ctrl, scale=1.0)
    rng = np.random.default_rng(2)
    for _ in range(6):                       # in-distribution: near-zero err
        x = rng.normal(size=(4, 2))
        y = np.empty(4)
        region(x, y, 4, use_model=True)
    assert not (tmp_path / "d.rh5").exists()
    # Drift: the accurate semantics change under the region.
    region.func = lambda x, y, N, use_model=False: \
        y.__setitem__(slice(None, N), x[:N].sum(axis=1) * 3.0)
    for _ in range(12):
        x = rng.normal(size=(4, 2))
        y = np.empty(4)
        region(x, y, 4, use_model=True)
    region.flush()
    assert policy.drifts >= 1
    xs, ys, _t = load_training_data(tmp_path / "d.rh5", "reg")
    assert len(xs) == 3 * 4                  # one burst of 3 invocations
    np.testing.assert_allclose(ys.ravel(), xs.sum(axis=1) * 3.0)
    snap = ctrl.snapshot()
    assert snap["telemetry"]["reg"]["final_paths"]["collect"] == 3


def test_threshold_policy_region_no_flapping(tmp_path):
    """End-to-end hysteresis: once tripped on a bad model, the region
    stays on the accurate path (plus probes) — the path sequence has a
    single infer->accurate transition, not a flap."""
    policy = ThresholdPolicy(high=0.1, low=0.01, probe_interval=4,
                             warmup=1)
    ctrl = QoSController(policy=policy, shadow_rate=0.2, seed=3)
    region, log = make_region(tmp_path, ctrl, scale=2.0)   # err 0.5 always
    for _ in range(40):
        x = np.ones((2, 2))
        y = np.empty(2)
        region(x, y, 2, use_model=True)
    assert policy.trips == 1
    assert policy.recoveries == 0
    # After the trip, nothing runs as trusted inference: every record is
    # accurate or a shadow-validated probe.
    tripped_at = next(i for i, r in enumerate(log.records)
                      if r.path == "accurate")
    for rec in log.records[tripped_at:]:
        assert rec.path == "accurate" or Phase.SHADOW in rec.times


def test_telemetry_summary_and_export(tmp_path):
    ctrl = QoSController(shadow_rate=1.0, seed=0)
    region, log = make_region(tmp_path, ctrl)
    for _ in range(4):
        x = np.ones((2, 2))
        y = np.empty(2)
        region(x, y, 2, use_model=True)
    out = ctrl.telemetry.export(tmp_path / "telemetry.json", log)
    import json
    data = json.loads(out.read_text())
    reg = data["regions"]["reg"]
    assert reg["invocations"] == 4
    assert reg["shadow_invocations"] == 4
    assert data["phases"]["paths"]["infer"]["count"] == 4
    assert data["phases"]["validation_overhead"] > 0


def test_qos_snapshot_json_clean(tmp_path):
    import json
    policy = CompositePolicy(ThresholdPolicy(high=0.1),
                             DriftBurstPolicy())
    ctrl = QoSController(policy=policy, shadow_rate=0.5, seed=0)
    region, _log = make_region(tmp_path, ctrl)
    for _ in range(8):
        x = np.ones((2, 2))
        y = np.empty(2)
        region(x, y, 2, use_model=True)
    snap = ctrl.snapshot()
    assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# Harness deployment path
# ----------------------------------------------------------------------

def test_deploy_with_qos_metrics(tmp_path):
    from repro.apps.harness import MiniBudeHarness
    from repro.search.builders import builder_for

    harness = MiniBudeHarness(tmp_path, n_train=32, n_test=64,
                              deploy_chunk=16)
    model = builder_for("minibude")(
        {"num_hidden_layers": 2, "hidden1_size": 16,
         "feature_multiplier": 0.5}, seed=0)
    ctrl = QoSController(shadow_rate=0.5, seed=0)
    metrics = harness.deploy_with_qos(model, ctrl)
    assert metrics.benchmark == "minibude"
    assert metrics.deployed_time > 0
    assert metrics.accurate_time > 0
    assert 0 < metrics.validation_overhead < 1
    assert metrics.shadow_invocations >= 1
    assert metrics.path_counts.get("infer", 0) == 4      # 64 / 16
    assert harness.deploy_region.config.qos is None      # detached
    assert metrics.qos["regions"]["minibude"]["count"] >= 1


@pytest.mark.parametrize("app", ["binomial", "bonds", "minibude"])
def test_threshold_policy_caps_untrained_surrogate_on_table1_harness(
        tmp_path, app):
    """An untrained surrogate (the limit case of a deployment drifted
    fully off its training set) under a threshold policy at shadow rate
    0.1: the deployed QoI error stays under a quarter of what pure
    inference with the same weights costs."""
    from repro.apps.harness import harness_for

    sizes = dict(n_train=256, n_test=128, deploy_chunk=16)
    if app == "binomial":
        sizes["n_steps"] = 16
    arch = {"num_hidden_layers": 2, "hidden1_size": 64,
            "feature_multiplier": 0.6} if app == "minibude" \
        else {"hidden1_features": 48, "hidden2_features": 24}
    harness = harness_for(app, tmp_path, **sizes)
    harness.collect()
    (xt, yt), _ = harness.training_arrays()
    weak = harness.make_builder(xt, yt)(arch, seed=3)
    pure = harness.evaluate(weak, repeats=1)
    assert pure.qoi_error > 0
    # Charge in the app's own QoI units: MAPE apps are judged per row.
    mape = harness.info.metric == "mape"
    policy = ThresholdPolicy(high=10.0 if mape else 0.1,
                             low=4.0 if mape else 0.04,
                             probe_interval=8, warmup=1)
    ctrl = QoSController(policy=policy, shadow_rate=0.1, seed=7,
                         metric="mape" if mape else "relative")
    deployed = harness.deploy_with_qos(weak, ctrl)
    assert policy.trips >= 1
    assert deployed.qoi_error < 0.25 * pure.qoi_error
