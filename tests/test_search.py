"""Search stack: spaces, GP, acquisition, BO, Pareto, builders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor
from repro.search import (BayesianOptimizer, Choice, Continuous,
                          GaussianProcess, Integer, Space, arch_space_for,
                          builder_for, chebyshev_scalarize,
                          expected_improvement, hyperparameter_space,
                          hypervolume_2d, lower_confidence_bound,
                          pareto_front_mask)

# ----------------------------------------------------------------------
# Spaces
# ----------------------------------------------------------------------

def test_continuous_unit_roundtrip():
    p = Continuous("x", 2.0, 10.0)
    assert p.from_unit(p.to_unit(6.0)) == pytest.approx(6.0)
    assert p.from_unit(0.0) == 2.0 and p.from_unit(1.0) == 10.0


def test_continuous_log_scale():
    p = Continuous("lr", 1e-4, 1e-2, log=True)
    assert p.from_unit(0.5) == pytest.approx(1e-3)
    assert p.to_unit(1e-3) == pytest.approx(0.5)


def test_continuous_validation():
    with pytest.raises(ValueError):
        Continuous("x", 5.0, 1.0)
    with pytest.raises(ValueError):
        Continuous("x", -1.0, 1.0, log=True)


def test_integer_snapping():
    p = Integer("n", 2, 12)
    assert p.from_unit(0.0) == 2 and p.from_unit(1.0) == 12
    assert isinstance(p.from_unit(0.5), int)


def test_choice_roundtrip():
    p = Choice("size", (64, 128, 256))
    assert p.from_unit(p.to_unit(128)) == 128
    assert p.from_unit(0.0) == 64 and p.from_unit(1.0) == 256


def test_space_sample_and_encode():
    space = Space([Continuous("a", 0.0, 1.0), Integer("b", 1, 5),
                   Choice("c", ("x", "y"))])
    rng = np.random.default_rng(0)
    for _ in range(20):
        cfg = space.sample(rng)
        u = space.to_unit(cfg)
        assert u.shape == (3,)
        assert np.all((u >= 0) & (u <= 1))
        back = space.from_unit(u)
        assert back["b"] == cfg["b"] and back["c"] == cfg["c"]


def test_space_validate():
    space = Space([Integer("n", 1, 3)])
    with pytest.raises(KeyError):
        space.validate({})
    with pytest.raises(ValueError):
        space.from_unit(np.zeros(2))


def test_table4_spaces_match_paper():
    mb = arch_space_for("minibude")
    assert {p.name for p in mb.params} == \
        {"num_hidden_layers", "hidden1_size", "feature_multiplier"}
    hidden1 = next(p for p in mb.params if p.name == "hidden1_size")
    assert hidden1.values[0] == 64 and hidden1.values[-1] == 4096

    for name in ("binomial", "bonds"):
        sp = arch_space_for(name)
        h1 = next(p for p in sp.params if p.name == "hidden1_features")
        assert (h1.lo, h1.hi) == (5, 512)

    pf = arch_space_for("particlefilter")
    ck = next(p for p in pf.params if p.name == "conv_kernel")
    assert (ck.lo, ck.hi) == (2, 14)

    with pytest.raises(KeyError):
        arch_space_for("unknown")


def test_table5_hyperparameter_space():
    hp = hyperparameter_space()
    names = {p.name for p in hp.params}
    assert names == {"learning_rate", "weight_decay", "dropout",
                     "batch_size"}
    bs = next(p for p in hp.params if p.name == "batch_size")
    assert (bs.lo, bs.hi) == (32, 512)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_space_from_unit_in_bounds_property(u1, u2):
    space = Space([Continuous("lr", 1e-4, 1e-2, log=True),
                   Integer("n", 2, 12)])
    cfg = space.from_unit(np.array([u1, u2]))
    assert 1e-4 <= cfg["lr"] <= 1e-2 * (1 + 1e-9)
    assert 2 <= cfg["n"] <= 12


# ----------------------------------------------------------------------
# GP
# ----------------------------------------------------------------------

def test_gp_interpolates_noiselessly():
    rng = np.random.default_rng(0)
    x = rng.random((20, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
    gp = GaussianProcess().fit(x, y)
    mean, std = gp.predict(x)
    np.testing.assert_allclose(mean, y, atol=0.05)
    assert np.all(std < 0.3)


def test_gp_uncertainty_grows_away_from_data():
    x = np.array([[0.1], [0.2], [0.3]])
    y = np.array([1.0, 2.0, 3.0])
    gp = GaussianProcess(optimize_hypers=False).fit(x, y)
    _, std_near = gp.predict(np.array([[0.2]]))
    _, std_far = gp.predict(np.array([[0.9]]))
    assert std_far[0] > std_near[0]


def test_gp_predict_before_fit():
    with pytest.raises(RuntimeError):
        GaussianProcess().predict(np.zeros((1, 2)))


def test_gp_input_validation():
    with pytest.raises(ValueError):
        GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))


# ----------------------------------------------------------------------
# Acquisition
# ----------------------------------------------------------------------

def test_expected_improvement_prefers_low_mean_high_std():
    mean = np.array([1.0, 0.5, 1.0])
    std = np.array([0.1, 0.1, 1.0])
    ei = expected_improvement(mean, std, best=1.0)
    assert ei[1] > ei[0]    # lower mean wins
    assert ei[2] > ei[0]    # higher uncertainty wins


def test_ei_zero_when_hopeless():
    ei = expected_improvement(np.array([10.0]), np.array([1e-9]), best=0.0)
    assert ei[0] == pytest.approx(0.0, abs=1e-6)


def test_lcb():
    util = lower_confidence_bound(np.array([1.0, 1.0]),
                                  np.array([0.0, 1.0]), kappa=2.0)
    assert util[1] > util[0]


# ----------------------------------------------------------------------
# BayesianOptimizer
# ----------------------------------------------------------------------

def test_bo_beats_random_on_quadratic():
    space = Space([Continuous("x", -5.0, 5.0), Continuous("y", -5.0, 5.0)])

    def objective(cfg):
        return (cfg["x"] - 1.0) ** 2 + (cfg["y"] + 2.0) ** 2

    bo = BayesianOptimizer(space, n_init=6, seed=0)
    result = bo.minimize(objective, n_iterations=35)
    assert result.best_value < 0.5
    assert abs(result.best_config["x"] - 1.0) < 1.0


def test_bo_early_stopping():
    space = Space([Continuous("x", 0.0, 1.0)])
    calls = []

    def objective(cfg):
        calls.append(cfg)
        return 1.0   # flat: nothing ever improves after the first

    bo = BayesianOptimizer(space, n_init=2, stale_limit=4, seed=1)
    bo.minimize(objective, n_iterations=50)
    assert len(calls) <= 2 + 4 + 1


def test_bo_handles_nan_objective():
    space = Space([Continuous("x", 0.0, 1.0)])

    def objective(cfg):
        return float("nan") if cfg["x"] > 0.5 else cfg["x"]

    result = BayesianOptimizer(space, n_init=4, seed=2).minimize(
        objective, n_iterations=12)
    assert np.isfinite(result.best_value)


def test_bo_extra_payload():
    space = Space([Continuous("x", 0.0, 1.0)])
    result = BayesianOptimizer(space, seed=3).minimize(
        lambda c: (c["x"], {"tag": round(c["x"], 2)}), n_iterations=4)
    assert all("tag" in t.extra for t in result.trials)


# ----------------------------------------------------------------------
# Pareto utilities
# ----------------------------------------------------------------------

def test_pareto_front_mask_basic():
    obj = np.array([[1.0, 5.0], [2.0, 2.0], [5.0, 1.0],
                    [3.0, 3.0], [2.0, 2.0]])
    mask = pareto_front_mask(obj)
    assert mask.tolist() == [True, True, True, False, True]


def test_pareto_single_point():
    assert pareto_front_mask(np.array([[1.0, 1.0]])).tolist() == [True]


def test_chebyshev_scalarize_ranks():
    obj = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    s = chebyshev_scalarize(obj, np.array([0.5, 0.5]))
    assert s[2] > s[0] and s[2] > s[1]   # dominated point scores worst


def test_hypervolume_2d():
    obj = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    hv = hypervolume_2d(obj, reference=(4.0, 4.0))
    # Staircase area: (4-1)(4-3) + (4-2)(3-2) + (4-3)(2-1) = 3+2+1.
    assert hv == pytest.approx(6.0)
    assert hypervolume_2d(np.array([[9.0, 9.0]]), (4.0, 4.0)) == 0.0
    with pytest.raises(ValueError):
        hypervolume_2d(np.zeros((2, 3)), (1, 1))


@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_pareto_front_is_mutually_nondominated(points):
    obj = np.array(points)
    front = obj[pareto_front_mask(obj)]
    for a in front:
        for b in front:
            strictly_better = np.all(b <= a) and np.any(b < a)
            assert not strictly_better


# ----------------------------------------------------------------------
# Builders sample the whole Table IV space without crashing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bench,kwargs,in_shape", [
    ("minibude", {}, (3, 6)),
    ("binomial", {}, (3, 5)),
    ("bonds", {}, (3, 5)),
    ("miniweather", {"nz": 16, "nx": 32}, (2, 4, 16, 32)),
])
def test_builders_over_space_samples(bench, kwargs, in_shape):
    space = arch_space_for(bench)
    build = builder_for(bench)
    rng = np.random.default_rng(0)
    for _ in range(8):
        cfg = space.sample(rng)
        model = build(cfg, dropout=0.2, **kwargs)
        out = model(Tensor(np.random.default_rng(1).normal(size=in_shape)))
        assert len(out.shape) >= 2 and out.shape[0] == in_shape[0]
        if bench == "miniweather":
            assert out.shape == in_shape   # grid-to-grid preserves shape


def test_particlefilter_builder_valid_and_invalid():
    build = builder_for("particlefilter")
    model = build({"conv_kernel": 6, "conv_stride": 3, "maxpool_kernel": 2,
                   "fc2_size": 16}, height=32, width=32)
    out = model(Tensor(np.zeros((2, 1, 32, 32))))
    assert out.shape == (2, 2)
    with pytest.raises(ValueError):
        build({"conv_kernel": 14, "conv_stride": 14, "maxpool_kernel": 1,
               "fc2_size": 0}, height=8, width=8)


def test_minibude_builder_depth_and_decay():
    build = builder_for("minibude")
    model = build({"num_hidden_layers": 4, "hidden1_size": 64,
                   "feature_multiplier": 0.5})
    from repro.nn import Linear
    widths = [l.out_features for l in model if isinstance(l, Linear)]
    assert widths == [64, 32, 16, 8, 1]


def test_mlp2_builder_drops_second_layer():
    build = builder_for("binomial")
    from repro.nn import Linear
    one = build({"hidden1_features": 32, "hidden2_features": 0})
    two = build({"hidden1_features": 32, "hidden2_features": 16})
    assert sum(isinstance(l, Linear) for l in one) == 2
    assert sum(isinstance(l, Linear) for l in two) == 3


# ----------------------------------------------------------------------
# Population-mode inner loop: lockstep fleets, same selection
# ----------------------------------------------------------------------

def test_population_search_selects_the_sequential_best_architecture():
    """``NestedSearch(population=8)`` trains each inner round's eight
    hyperparameter candidates as one stacked fleet; on a fixed-seed
    Table IV mlp2 slice it must pick the architecture the exact
    sequential search (``population=1``) picks."""
    from repro.search.builders import build_mlp2
    from repro.search.nested import NestedSearch

    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(300, 1))
    y = np.sin(6.0 * x) + 0.01 * rng.normal(size=x.shape)
    space = Space([Integer("hidden1_features", 5, 64),
                   Integer("hidden2_features", 0, 64)])

    def build(arch, dropout=0.0, seed=0):
        return build_mlp2(arch, 1, 1, dropout=dropout, seed=seed)

    best, fleet_sizes = {}, {}
    for population in (1, 8):
        search = NestedSearch(space, build, x[:240], y[:240], x[240:],
                              y[240:], n_inner=8, max_epochs=12, seed=3,
                              population=population)
        result = search.run(n_outer=2, n_init=2)
        assert len(result.trials) > 0
        assert result.compiled_fraction() == 1.0   # every trial compiled
        best[population] = result.best_by_error().arch
        fleet_sizes[population] = max(t.fleet_size for t in result.trials)
    assert best[8] == best[1]
    assert fleet_sizes == {1: 1, 8: 8}
