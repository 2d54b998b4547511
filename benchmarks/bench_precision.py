"""Mixed-precision benchmark: float32 plans vs the float64 baseline.

Measures the four acceptance surfaces of the precision axis:

* **compiled forward** — fp32 vs fp64 plans on GEMM-bound batches of
  the Table IV MLP shapes (one weight cast at compile time, zero casts
  on the hot path), plus the non-negotiable control: the fp64 default
  path stays bitwise-identical to plans compiled before the dtype
  parameterization existed;
* **fleet slab** — stacked K-member forwards with a narrowed slab at
  K in {4, 8, 16}: the bandwidth-bound cross-model GEMMs are where
  halving the slab pays most;
* **governed deployment** — the three MLP apps served end to end with
  ``precision="auto"`` under a :class:`~repro.qos.PrecisionPolicy`:
  the QoI delta vs the fp64 deployment must stay inside the same
  25%-of-pure budget the QoS benchmark enforces;
* **shm transport** — per-message dtype negotiation on the
  process-backend slab ring: float32 requests ship half the bytes.

Results land in ``BENCH_precision.json`` (schema ``bench_precision/v1``).
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_precision.py
    PYTHONPATH=src python benchmarks/bench_precision.py --quick

``--quick`` shrinks every dimension for CI smoke runs and asserts the
two headline properties: fp64 outputs bitwise-unchanged (in ``main``),
and fp32 forward speedup geomean >= 1.3x on the GEMM-bound shapes (a
wall-clock threshold, so only when run as a script).
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.apps.harness import harness_for
from repro.nn import (Trainer, compile_fleet_inference, compile_inference,
                      save_model)
from repro.qos import PrecisionPolicy, QoSController
from repro.search.builders import build_minibude_mlp, build_mlp2

SCHEMA = "bench_precision/v1"

#: Table IV MLP-family shapes (labels mirror benchmarks/conftest.py),
#: served at GEMM-bound batch sizes — wide-enough matmuls that memory
#: bandwidth, not Python dispatch, dominates; that is where narrowing
#: to float32 halves the traffic.
TABLE4_MLP_SHAPES = [
    ("minibude-s", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 128, "feature_multiplier": 0.8}),
    ("minibude-m", "minibude",
     {"num_hidden_layers": 3, "hidden1_size": 256, "feature_multiplier": 0.8}),
    ("binomial-s", "binomial",
     {"hidden1_features": 48, "hidden2_features": 24}),
    ("binomial-m", "binomial",
     {"hidden1_features": 160, "hidden2_features": 96}),
    ("bonds-s", "bonds",
     {"hidden1_features": 48, "hidden2_features": 24}),
    ("bonds-m", "bonds",
     {"hidden1_features": 160, "hidden2_features": 96}),
]

_IN_FEATURES = {"minibude": 6, "binomial": 5, "bonds": 5}
_OUT_FEATURES = {"minibude": 1, "binomial": 1, "bonds": 2}

APPS = ("binomial", "bonds", "minibude")
HARNESS_PARAMS = {
    "binomial": dict(n_train=2048, n_test=768, n_steps=64),
    "bonds": dict(n_train=2048, n_test=768),
    "minibude": dict(n_train=2048, n_test=768),
}
QUICK_PARAMS = {
    "binomial": dict(n_train=256, n_test=128, n_steps=16),
    "bonds": dict(n_train=256, n_test=128),
    "minibude": dict(n_train=256, n_test=128),
}
ARCHS = {
    "binomial": {"hidden1_features": 48, "hidden2_features": 24},
    "bonds": {"hidden1_features": 48, "hidden2_features": 24},
    "minibude": {"num_hidden_layers": 2, "hidden1_size": 64,
                 "feature_multiplier": 0.6},
}
TRAIN_PARAMS = {
    "binomial": dict(lr=3e-3, batch_size=128, patience=15),
    "bonds": dict(lr=3e-3, batch_size=128, patience=15),
    "minibude": dict(lr=2e-3, batch_size=128, patience=20),
}


def build_shape(benchmark: str, arch: dict, seed: int = 0):
    if benchmark == "minibude":
        return build_minibude_mlp(arch, seed=seed)
    return build_mlp2(arch, _IN_FEATURES[benchmark],
                      _OUT_FEATURES[benchmark], seed=seed)


def _time_loop(fn, repeats: int, warmup: int = 3, chunks: int = 5) -> float:
    """Seconds per call: best-of-``chunks`` mean (robust to load spikes)."""
    for _ in range(warmup):
        fn()
    per_chunk = max(1, repeats // chunks)
    best = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        for _ in range(per_chunk):
            fn()
        best = min(best, (time.perf_counter() - start) / per_chunk)
    return best


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# ----------------------------------------------------------------------
# fp32 vs fp64 compiled forward
# ----------------------------------------------------------------------

def bench_forward(batch: int = 4096, repeats: int = 200,
                  seed: int = 0) -> list[dict]:
    rows = []
    rng = np.random.default_rng(seed)
    for label, benchmark, arch in TABLE4_MLP_SHAPES:
        model = build_shape(benchmark, arch, seed=seed)
        model.eval()
        x = rng.normal(size=(batch, _IN_FEATURES[benchmark]))
        p64 = compile_inference(model)
        p32 = compile_inference(model, dtype=np.float32)
        # The control: an explicitly-float64 plan is the same plan the
        # pre-dtype compiler produced — outputs bitwise-equal to the
        # default compile, same fingerprint.
        explicit64 = compile_inference(model, dtype=np.float64)
        y64, y32 = p64(x), p32(x)
        bitwise = bool(np.array_equal(y64, explicit64(x))) and \
            p64.fingerprint == explicit64.fingerprint
        rel = float(np.abs(y32 - y64).max() /
                    (np.abs(y64).max() + 1e-12))
        t64 = _time_loop(lambda: p64(x), repeats)
        t32 = _time_loop(lambda: p32(x), repeats)
        rows.append({
            "shape": label,
            "benchmark": benchmark,
            "arch": arch,
            "n_params": int(model.num_parameters()),
            "batch": batch,
            "f64_us": t64 * 1e6,
            "f32_us": t32 * 1e6,
            "speedup": t64 / t32,
            "max_rel_diff": rel,
            "fp64_bitwise_identical": bitwise,
        })
    return rows


# ----------------------------------------------------------------------
# Fleet slab narrowing at K in {4, 8, 16}
# ----------------------------------------------------------------------

def bench_fleet(batch: int = 1024, repeats: int = 100, seed: int = 0,
                fleet_sizes=(4, 8, 16)) -> list[dict]:
    rows = []
    rng = np.random.default_rng(seed + 1)
    label, benchmark, arch = TABLE4_MLP_SHAPES[1]     # minibude-m
    x = rng.normal(size=(batch, _IN_FEATURES[benchmark]))
    for k in fleet_sizes:
        models = [build_shape(benchmark, arch, seed=s) for s in range(k)]
        f64 = compile_fleet_inference(models)
        f32 = compile_fleet_inference(models, dtype=np.float32)
        y64, y32 = f64(x), f32(x)
        rel = float(np.abs(y32 - y64).max() /
                    (np.abs(y64).max() + 1e-12))
        t64 = _time_loop(lambda: f64(x), repeats)
        t32 = _time_loop(lambda: f32(x), repeats)
        rows.append({
            "shape": label,
            "k": k,
            "batch": batch,
            "slab_mb_f64": f64.slab.nbytes / 1e6,
            "slab_mb_f32": f32.slab.nbytes / 1e6,
            "f64_us": t64 * 1e6,
            "f32_us": t32 * 1e6,
            "speedup": t64 / t32,
            "max_rel_diff": rel,
        })
    return rows


# ----------------------------------------------------------------------
# Governed end-to-end deployment on the three MLP apps
# ----------------------------------------------------------------------

def bench_governed(workdir: Path, *, quick: bool, epochs: int,
                   budget_fraction: float = 0.25, chunk: int = 16,
                   seed: int = 0) -> list[dict]:
    rows = []
    for name in APPS:
        params = (QUICK_PARAMS if quick else HARNESS_PARAMS)[name]
        harness = harness_for(name, Path(workdir) / name, seed=seed,
                              deploy_chunk=chunk, **params)
        harness.collect()
        (xt, yt), (xv, yv) = harness.training_arrays()
        build = harness.make_builder(xt, yt)
        model = build(ARCHS[name], seed=0)
        Trainer(model, max_epochs=epochs, seed=0,
                **TRAIN_PARAMS[name]).fit(xt, yt, xv, yv)

        base = harness.evaluate(model, repeats=1)      # fp64 deployment
        region = harness.deploy_region
        pol = PrecisionPolicy(sample_rate=0.1, seed=7)
        ctrl = QoSController(shadow_rate=0.0, seed=7,
                             precision_policy=pol)
        region.config.precision = "auto"
        try:
            governed = harness.deploy_with_qos(model, ctrl)
        finally:
            region.config.precision = None
        snap = pol.snapshot()["regions"].get(region.name, {})
        # The same cap the QoS benchmark enforces on its policies: the
        # governed deployment's QoI may move at most 25% of the pure
        # deployment's error.
        budget = budget_fraction * base.qoi_error
        delta = governed.qoi_error - base.qoi_error
        rows.append({
            "benchmark": name,
            "metric": harness.info.metric,
            "qoi_f64": base.qoi_error,
            "qoi_f32_governed": governed.qoi_error,
            "qoi_delta": delta,
            "qoi_budget": budget,
            "within_budget": bool(abs(delta) <= budget),
            "speedup_f64": base.speedup,
            "speedup_f32_governed": governed.speedup,
            "divergence_ewma": snap.get("ewma"),
            "divergence_samples": snap.get("samples", 0),
            "demotions": snap.get("demotions", 0),
        })
    return rows


# ----------------------------------------------------------------------
# shm transport savings
# ----------------------------------------------------------------------

def bench_shm(workdir: Path, batch: int = 512, calls: int = 8,
              seed: int = 0) -> dict:
    import multiprocessing as mp
    from repro.serving.shm import RemoteEngineClient, WorkerHandle
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    label, benchmark, arch = TABLE4_MLP_SHAPES[0]
    model = build_shape(benchmark, arch, seed=seed)
    model.eval()
    path = workdir / "shm.rnm"
    save_model(model, path)
    x = np.random.default_rng(seed + 2).normal(
        size=(batch, _IN_FEATURES[benchmark]))
    handle = WorkerHandle(0, mp.get_context("fork"))
    try:
        client = RemoteEngineClient(handle)
        for _ in range(calls):
            client.infer(path, x)
        bytes_f64 = client.bytes_shipped
        for _ in range(calls):
            out32, _ = client.infer(path, x, dtype=np.float32)
        bytes_f32 = client.bytes_shipped - bytes_f64
        client.close()
    finally:
        handle.close()
    return {
        "shape": label,
        "batch": batch,
        "calls": calls,
        "bytes_f64": bytes_f64,
        "bytes_f32": bytes_f32,
        "transfer_savings": bytes_f64 / max(bytes_f32, 1),
        "out_dtype": str(out32.dtype),
    }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

def run_benchmark(workdir, *, quick: bool = False, batch: int = 4096,
                  repeats: int = 200, epochs: int = 150,
                  seed: int = 0) -> dict:
    workdir = Path(workdir)
    forward = bench_forward(batch=batch, repeats=repeats, seed=seed)
    fleet = bench_fleet(batch=max(batch // 4, 64),
                        repeats=max(repeats // 2, 10), seed=seed)
    governed = bench_governed(workdir, quick=quick, epochs=epochs,
                              seed=seed)
    shm = bench_shm(workdir, batch=min(batch, 512), seed=seed)
    speedups = [r["speedup"] for r in forward]
    return {
        "schema": SCHEMA,
        "config": {"quick": quick, "batch": batch, "repeats": repeats,
                   "epochs": epochs, "seed": seed},
        "forward": forward,
        "fleet": fleet,
        "governed": governed,
        "shm": shm,
        "summary": {
            "f32_speedup_geomean": _geomean(speedups),
            "f32_speedup_best": max(speedups),
            "f32_max_rel_diff": max(r["max_rel_diff"] for r in forward),
            "fp64_bitwise_identical": all(r["fp64_bitwise_identical"]
                                          for r in forward),
            "fleet_f32_speedup_geomean": _geomean(
                [r["speedup"] for r in fleet]),
            "governed_within_budget": all(r["within_budget"]
                                          for r in governed),
            "shm_transfer_savings": shm["transfer_savings"],
        },
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_precision.json",
                        help="output JSON path")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir for harness data/models "
                             "(default: temp dir)")
    parser.add_argument("--batch", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for smoke testing; asserts the "
                             "headline acceptance properties inline")
    args = parser.parse_args(argv)

    if args.quick:
        args.batch = min(args.batch, 1024)
        args.repeats = min(args.repeats, 30)
        args.epochs = min(args.epochs, 25)

    kwargs = dict(quick=args.quick, batch=args.batch,
                  repeats=args.repeats, epochs=args.epochs)
    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            results = run_benchmark(tmp, **kwargs)
    else:
        results = run_benchmark(args.workdir, **kwargs)

    s = results["summary"]
    if args.quick:
        # Smoke contract: the default path is untouched.
        assert s["fp64_bitwise_identical"], \
            "float64 plans changed under the dtype parameterization"

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"{'shape':14s} {'f64 us':>9s} {'f32 us':>9s} {'speedup':>8s} "
          f"{'rel diff':>9s}")
    for r in results["forward"]:
        print(f"{r['shape']:14s} {r['f64_us']:9.1f} {r['f32_us']:9.1f} "
              f"{r['speedup']:7.2f}x {r['max_rel_diff']:9.1e}")
    for r in results["fleet"]:
        print(f"fleet K={r['k']:<3d} slab {r['slab_mb_f64']:.2f}->"
              f"{r['slab_mb_f32']:.2f} MB {r['speedup']:.2f}x")
    for r in results["governed"]:
        print(f"{r['benchmark']:10s} qoi {r['qoi_f64']:.4g} -> "
              f"{r['qoi_f32_governed']:.4g} (delta {r['qoi_delta']:+.2e},"
              f" budget {r['qoi_budget']:.2e}, "
              f"{'ok' if r['within_budget'] else 'BREACH'})")
    print(f"shm transfer savings {s['shm_transfer_savings']:.2f}x; "
          f"fp32 forward geomean {s['f32_speedup_geomean']:.2f}x "
          f"(best {s['f32_speedup_best']:.2f}x); fp64 bitwise "
          f"{'unchanged' if s['fp64_bitwise_identical'] else 'CHANGED'}")
    return results


if __name__ == "__main__":
    _results = main()
    # Wall-clock threshold: narrowing pays even at smoke sizes.  Checked
    # by the script run (the CI bench job), not by ``main()``, which
    # tier-1 imports — it reads 1.32-1.37x on a 2-vCPU box and would
    # flake there.
    if _results["config"]["quick"]:
        _geomean_x = _results["summary"]["f32_speedup_geomean"]
        assert _geomean_x >= 1.3, f"fp32 geomean {_geomean_x:.2f}x < 1.3x"
