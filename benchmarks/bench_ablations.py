"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these quantify why the implementation is built the
way it is:

* **Zero-copy tensor wrapping** (Fig. 4) vs a naive per-entry gather
  loop: the strided-view bridge is the reason layout transformation
  stays a small fraction of inference time (Fig. 6).
* **Descriptor caching** in the region runtime: iterative applications
  (MiniWeather) re-enter the same region thousands of times; caching
  concretized maps removes symbolic resolution from the hot path.
* **Dense-op device model sensitivity**: how the Fig. 5 speedup story
  depends on the simulated accelerator's dense-vs-scattered advantage.
"""

import numpy as np
import pytest

from repro.bridge import SweepRange, TensorFunctor, concretize

STENCIL = ("#pragma approx tensor functor(ifn: [i, j, 0:5] = "
           "(([i-1, j], [i+1, j], [i, j-1:j+2])))")


def naive_gather(arr: np.ndarray) -> np.ndarray:
    """The loop a developer writes without the data bridge."""
    n, m = arr.shape
    out = np.empty((n - 2, m - 2, 5))
    for i in range(1, n - 1):
        for j in range(1, m - 1):
            out[i - 1, j - 1, 0] = arr[i - 1, j]
            out[i - 1, j - 1, 1] = arr[i + 1, j]
            out[i - 1, j - 1, 2] = arr[i, j - 1]
            out[i - 1, j - 1, 3] = arr[i, j]
            out[i - 1, j - 1, 4] = arr[i, j + 1]
    return out


@pytest.fixture(scope="module")
def grid():
    return np.random.default_rng(0).normal(size=(128, 128))


def test_bridge_matches_naive_gather(grid):
    f = TensorFunctor.parse(STENCIL)
    cm = concretize(f, grid, [SweepRange(1, 127), SweepRange(1, 127)])
    np.testing.assert_allclose(cm.gather(), naive_gather(grid))


@pytest.mark.benchmark(group="ablation-gather")
def bench_bridge_gather(benchmark, grid):
    f = TensorFunctor.parse(STENCIL)
    cm = concretize(f, grid, [SweepRange(1, 127), SweepRange(1, 127)])
    out = benchmark(cm.gather)
    assert out.shape == (126, 126, 5)


@pytest.mark.benchmark(group="ablation-gather")
def bench_naive_gather(benchmark, grid):
    out = benchmark(naive_gather, grid)
    assert out.shape == (126, 126, 5)


# ----------------------------------------------------------------------
# Descriptor cache
# ----------------------------------------------------------------------

def _make_region(tmp_path):
    from repro.api import approx_ml
    from repro.nn import Linear, Sequential, save_model
    model_path = tmp_path / "m.rnm"
    save_model(Sequential(Linear(5, 1)), model_path)

    @approx_ml(f"""
#pragma approx tensor functor(fi: [i, 0:5] = ([i, 0:5]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model_path}")
""")
    def region(x, y, N):
        y[:N] = x[:N].sum(axis=1)

    return region


@pytest.mark.benchmark(group="ablation-cache")
def bench_region_invocation_cached(benchmark, tmp_path):
    region = _make_region(tmp_path)
    x = np.random.default_rng(0).normal(size=(64, 5))
    y = np.zeros(64)
    region(x, y, 64)           # warm the descriptor cache
    benchmark(region, x, y, 64)


@pytest.mark.benchmark(group="ablation-cache")
def bench_region_invocation_cold(benchmark, tmp_path):
    region = _make_region(tmp_path)
    x = np.random.default_rng(0).normal(size=(64, 5))
    y = np.zeros(64)

    def cold_call():
        region._drop_caches()
        region(x, y, 64)

    benchmark(cold_call)


def test_cache_speeds_up_repeat_invocations(tmp_path):
    import time
    region = _make_region(tmp_path)
    x = np.random.default_rng(0).normal(size=(64, 5))
    y = np.zeros(64)
    region(x, y, 64)

    start = time.perf_counter()
    for _ in range(50):
        region(x, y, 64)
    warm = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(50):
        region._drop_caches()
        region(x, y, 64)
    cold = time.perf_counter() - start
    print(f"\n50 invocations: warm {warm * 1e3:.1f}ms vs cold "
          f"{cold * 1e3:.1f}ms ({cold / warm:.2f}x)")
    assert warm < cold


# ----------------------------------------------------------------------
# Device dense-op model sensitivity
# ----------------------------------------------------------------------

def test_dense_speedup_sensitivity(tmp_path):
    """The qualitative Fig. 5 story (surrogate wins) must not hinge on
    an aggressive dense-op factor: binomial already wins at 1x (no
    dense advantage), and the factor only scales the margin."""
    from repro.apps.harness import BinomialHarness
    from repro.device import Device
    from repro.nn import Trainer
    from repro.runtime import InferenceEngine

    h = BinomialHarness(tmp_path / "base", n_train=1024, n_test=256,
                        n_steps=64)
    h.collect()
    (xt, yt), (xv, yv) = h.training_arrays()
    build = h.make_builder(xt, yt)
    model = build({"hidden1_features": 64, "hidden2_features": 32})
    Trainer(model, lr=3e-3, batch_size=128, max_epochs=40,
            patience=12).fit(xt, yt, xv, yv)

    rows = []
    for factor in (1.0, 4.0, 8.0, 16.0):
        h.device.dense_speedup = factor
        metrics = h.evaluate(model, repeats=2)
        rows.append({"dense_speedup": factor, "speedup": metrics.speedup})
    print()
    for row in rows:
        print(f"  dense_speedup={row['dense_speedup']:>4}: "
              f"end-to-end {row['speedup']:.1f}x")
    assert rows[0]["speedup"] > 1.0          # wins even with no advantage
    assert rows[-1]["speedup"] > rows[0]["speedup"]
