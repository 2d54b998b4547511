"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's A3/A4 driver scripts without writing
code:

* ``list``       — show the benchmark suite (Table I).
* ``loc``        — print the Table II annotation accounting.
* ``collect``    — run a benchmark in data-collection mode.
* ``evaluate``   — collect, train a default surrogate, deploy, and
  report speedup/error (a one-benchmark Fig. 5 row).
* ``search``     — run the nested BO architecture search (§V-C) and
  print the Pareto front.
* ``serve``      — collect/train several benchmarks, then serve all of
  their regions from one ``RegionServer`` under a single
  ``QoSArbiter`` error budget and print the fleet roll-up.
* ``stats``      — render the observability dashboard: metrics
  registry, recent traces, and the decision stream, from a small
  in-process demo workload or an exported snapshot JSON.
"""

from __future__ import annotations

import argparse
import sys
import tempfile


def _cmd_list(_args) -> int:
    from .analysis import render_table
    from .apps import REGISTRY
    rows = [{"benchmark": i.name, "metric": i.metric.upper(),
             "family": i.surrogate_family.upper(),
             "qoi": i.qoi[:60]} for i in REGISTRY.values()]
    print(render_table(rows, title="HPAC-ML benchmark suite (Table I)"))
    return 0


def _cmd_loc(_args) -> int:
    from .analysis import render_table, table2_rows
    print(render_table(table2_rows(),
                       title="Annotation impact (Table II)"))
    return 0


def _workdir(args) -> str:
    return args.workdir or tempfile.mkdtemp(prefix="hpacml_cli_")


def _cmd_collect(args) -> int:
    from .apps.harness import harness_for
    harness = harness_for(args.benchmark, _workdir(args), seed=args.seed)
    harness.collect()
    print(f"collected training data for {args.benchmark!r} into "
          f"{harness.db_path} ({harness.db_path.stat().st_size / 1e6:.2f} MB)")
    return 0


#: Mid-sized default architecture per benchmark for `evaluate`.
_DEFAULT_ARCH = {
    "minibude": {"num_hidden_layers": 3, "hidden1_size": 256,
                 "feature_multiplier": 0.8},
    "binomial": {"hidden1_features": 160, "hidden2_features": 96},
    "bonds": {"hidden1_features": 160, "hidden2_features": 96},
    "miniweather": {"conv1_kernel": 5, "conv1_channels": 8,
                    "conv2_kernel": 3},
    "particlefilter": {"conv_kernel": 4, "conv_stride": 2,
                       "maxpool_kernel": 2, "fc2_size": 64},
}


def _cmd_evaluate(args) -> int:
    from .apps.harness import harness_for
    from .nn import Trainer
    harness = harness_for(args.benchmark, _workdir(args), seed=args.seed)
    print("collecting...")
    harness.collect()
    (xt, yt), (xv, yv) = harness.training_arrays()
    build = harness.make_builder(xt, yt)
    model = build(_DEFAULT_ARCH[args.benchmark], seed=args.seed)
    print(f"training ({model.num_parameters()} parameters)...")
    result = Trainer(model, lr=2e-3, batch_size=64,
                     max_epochs=args.epochs,
                     patience=max(5, args.epochs // 4),
                     seed=args.seed).fit(xt, yt, xv, yv)
    metrics = harness.evaluate(model)
    print(f"validation loss : {result.best_val_loss:.5g}")
    print(f"speedup         : {metrics.speedup:.2f}x")
    print(f"QoI error       : {metrics.qoi_error:.5g} "
          f"({harness.info.metric.upper()})")
    return 0


def _cmd_search(args) -> int:
    from .apps.harness import harness_for
    from .search import NestedSearch, arch_space_for
    harness = harness_for(args.benchmark, _workdir(args), seed=args.seed)
    print("collecting...")
    harness.collect()
    (xt, yt), (xv, yv) = harness.training_arrays()
    build = harness.make_builder(xt, yt)
    search = NestedSearch(arch_space_for(args.benchmark), build,
                          xt, yt, xv, yv, n_inner=args.inner,
                          max_epochs=args.epochs, seed=args.seed)
    print(f"searching ({args.outer} outer x {args.inner} inner trials)...")
    result = search.run(n_outer=args.outer)
    print("Pareto front (latency s, validation error):")
    for t in sorted(result.pareto_trials(), key=lambda t: t.latency):
        print(f"  {t.latency:.5f}s  {t.val_error:.5g}  "
              f"params={t.n_params}  arch={t.arch}")
    return 0


#: Laptop-scale harness sizes for `serve` (keyed by --rows for the
#: row-batched apps; miniweather is step-bounded instead).
def _serve_params(name: str, rows: int) -> dict:
    return {
        "minibude": dict(n_train=1024, n_test=rows),
        "binomial": dict(n_train=1024, n_test=rows, n_steps=48),
        "bonds": dict(n_train=1024, n_test=rows),
        "particlefilter": dict(n_train_frames=192,
                               n_test_frames=min(rows, 64)),
        "miniweather": dict(nx=32, nz=16, train_steps=120, test_steps=30),
    }[name]


def _cmd_serve(args) -> int:
    from pathlib import Path

    from .apps.harness import harness_for
    from .nn import Trainer
    from .serving import (ProcessPoolBackend, QoSArbiter, RegionServer,
                          SerialBackend, ThreadPoolBackend)

    workdir = Path(_workdir(args))
    if args.backend == "process":
        backend = ProcessPoolBackend(workers=args.workers)
    elif args.backend == "thread":
        backend = ThreadPoolBackend()
    else:
        backend = SerialBackend()
    server = RegionServer(backend=backend)
    harnesses = []
    for name in args.benchmarks:
        print(f"[{name}] collecting + training...")
        harness = harness_for(name, workdir / name, seed=args.seed,
                              deploy_chunk=args.chunk, server=server,
                              **_serve_params(name, args.rows))
        harness.collect()
        (xt, yt), (xv, yv) = harness.training_arrays()
        model = harness.make_builder(xt, yt)(_DEFAULT_ARCH[name],
                                             seed=args.seed)
        Trainer(model, lr=2e-3, batch_size=128, max_epochs=args.epochs,
                patience=max(5, args.epochs // 4),
                seed=args.seed).fit(xt, yt, xv, yv)
        harness.install_model(model)
        harnesses.append(harness)

    precision = getattr(args, "precision", "float64")
    precision_policy = None
    if precision == "auto":
        from .qos import PrecisionPolicy
        precision_policy = PrecisionPolicy(seed=args.seed)
    arbiter = QoSArbiter(args.budget, shadow_rate=args.shadow_rate,
                         seed=args.seed, shadow_rows=args.shadow_rows,
                         precision_policy=precision_policy)
    server.attach_qos(arbiter)
    if precision != "float64":
        for name in server.names:
            server.region(name).config.precision = precision
    print(f"serving {len(harnesses)} region(s) on "
          f"{type(backend).__name__} under a global error budget "
          f"of {args.budget} (precision {precision})...")
    for harness in harnesses:
        harness.run_surrogate()
    server.drain()

    snap = arbiter.snapshot()
    for name, st in snap["arbitration"]["regions"].items():
        stats = snap["regions"].get(name, {})
        ewma = stats.get("ewma_mean")
        ewma = "n/a" if ewma is None else f"{ewma:.4g}"
        print(f"  {name:14s} decisions {st['decisions']:5d}  "
              f"inferred {st['inferred']:5d}  denied {st['denied']:5d}  "
              f"ewma err {ewma}")
    rollup = snap["rollup"]
    print(f"global mean charge {snap['arbitration']['global_mean_charge']:.4g}"
          f" (budget {args.budget}); infer fraction "
          f"{rollup['infer_fraction']:.2f}; "
          f"{rollup['shadow_invocations']} shadow validations")
    prec_snap = snap.get("precision")
    if prec_snap:
        for name, st in prec_snap["regions"].items():
            ewma = st.get("ewma")
            ewma = "n/a" if ewma is None else f"{ewma:.3g}"
            print(f"  {name:14s} fp32 divergence ewma {ewma}  "
                  f"samples {st['samples']}  demotions {st['demotions']}")
    server.detach_qos()
    server.backend.close()
    return 0


def _obs_demo(args) -> dict:
    """Serve two tiny regions in-process to populate the registry,
    tracer, and a decision stream; return the combined snapshot."""
    from pathlib import Path

    import numpy as np

    from . import obs
    from .api import approx_ml
    from .nn import (Destandardize, Linear, Sequential, Standardize,
                     save_model)
    from .runtime import EventLog
    from .serving import QoSArbiter, RegionServer

    obs.reset()           # drops prior collector registrations, so each
    workdir = Path(_workdir(args))   # region gets a fresh EventLog below
    server = RegionServer()

    def make_region(name, weight):
        # Identity stats: exact, and the plan shows its fold.
        model = Sequential(Standardize(0.0, 1.0),
                           Linear(2, 1, rng=np.random.default_rng(0)),
                           Destandardize(0.0, 1.0))
        model[1].weight.data = np.array([[weight, weight]])
        model[1].bias.data = np.array([0.0])
        save_model(model, workdir / f"{name}.rnm")
        src = f"""
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer:use_model) in(x) out(y) \\
    db("{workdir}/{name}.rh5") model("{workdir}/{name}.rnm")
"""

        @approx_ml(src, name=name, event_log=EventLog())
        def region(x, y, N, use_model=False):
            y[:N] = x[:N].sum(axis=1) * weight

        return region

    for name, weight in (("demo_a", 1.0), ("demo_b", 2.0)):
        server.register(make_region(name, weight))
    server.attach_qos(QoSArbiter(0.5, shadow_rate=0.5, seed=args.seed))
    server.attach_breakers()
    server.attach_stream(workdir / "decisions.rh5")

    rng = np.random.default_rng(args.seed)
    for _ in range(args.invocations):
        x = rng.random((8, 2))
        for name in server.names:
            y = np.empty(8)
            server.invoke(name, x, y, 8, use_model=True)
    server.drain()

    snap = obs.snapshot()
    snap["server"] = server.snapshot()
    snap["plans"] = {                   # one row per compiled plan step
        name: [(s["step"], s["seconds"]) for s in server.region(
            name).engine.profile(workdir / f"{name}.rnm", x)["steps"]]
        for name in server.names}
    server.close()
    return snap


def _cmd_stats(args) -> int:
    import json
    from pathlib import Path

    if args.snapshot_file:
        snap = json.loads(Path(args.snapshot_file).read_text())
    else:
        snap = _obs_demo(args)
    if args.out:
        from .ioutil import atomic_write_text
        atomic_write_text(args.out, json.dumps(snap, indent=2, default=str))
        print(f"wrote snapshot to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(snap, indent=2, default=str))
    else:
        from .obs import render_dashboard
        print(render_dashboard(snap, max_traces=args.traces), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HPAC-ML reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the benchmark suite")
    sub.add_parser("loc", help="Table II annotation accounting")

    def add_common(p):
        p.add_argument("benchmark", choices=sorted(_DEFAULT_ARCH))
        p.add_argument("--workdir", default=None)
        p.add_argument("--seed", type=int, default=0)

    p_collect = sub.add_parser("collect", help="run data collection")
    add_common(p_collect)

    p_eval = sub.add_parser("evaluate",
                            help="collect, train, deploy, measure")
    add_common(p_eval)
    p_eval.add_argument("--epochs", type=int, default=40)

    p_search = sub.add_parser("search", help="nested BO NAS (§V-C)")
    add_common(p_search)
    p_search.add_argument("--outer", type=int, default=6)
    p_search.add_argument("--inner", type=int, default=3)
    p_search.add_argument("--epochs", type=int, default=12)

    p_serve = sub.add_parser(
        "serve", help="multi-region RegionServer under one QoS arbiter")
    p_serve.add_argument("benchmarks", nargs="+",
                         choices=sorted(_DEFAULT_ARCH))
    p_serve.add_argument("--workdir", default=None)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--budget", type=float, default=0.05,
                         help="global error budget (shadow-metric units)")
    p_serve.add_argument("--shadow-rate", type=float, default=0.2)
    p_serve.add_argument("--shadow-rows", type=int, default=None,
                         help="validate at most N rows per shadowed "
                              "invocation (row-batched regions); one "
                              "accurate-kernel call then validates "
                              "chunk/N sampled invocations' rows")
    p_serve.add_argument("--backend",
                         choices=("serial", "thread", "process"),
                         default="serial")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="worker processes for --backend process")
    p_serve.add_argument("--epochs", type=int, default=20)
    p_serve.add_argument("--chunk", type=int, default=32)
    p_serve.add_argument("--rows", type=int, default=512,
                         help="test rows per row-batched benchmark")
    p_serve.add_argument("--precision",
                         choices=("float64", "float32", "auto"),
                         default="float64",
                         help="compiled-plan dtype: float64 (default, "
                              "bitwise-identical to historical serving), "
                              "float32 (narrowed plans, ~2x GEMM "
                              "bandwidth, ungoverned), or auto (float32 "
                              "governed by a PrecisionPolicy — fp32/fp64 "
                              "divergence is shadow-sampled, charged to "
                              "the error budget, and a drifting region "
                              "is demoted back to float64)")

    p_stats = sub.add_parser(
        "stats", help="observability dashboard (in-process demo, or "
                      "render an exported snapshot)")
    p_stats.add_argument("--from", dest="snapshot_file", default=None,
                         metavar="FILE",
                         help="render a previously exported snapshot JSON "
                              "instead of running the demo workload")
    p_stats.add_argument("--json", action="store_true",
                         help="dump the snapshot as JSON instead of the "
                              "text dashboard")
    p_stats.add_argument("--out", default=None, metavar="FILE",
                         help="also write the snapshot JSON to FILE "
                              "(crash-safe)")
    p_stats.add_argument("--traces", type=int, default=5,
                         help="recent traces to show in the dashboard")
    p_stats.add_argument("--invocations", type=int, default=24,
                         help="demo invocations per region")
    p_stats.add_argument("--workdir", default=None)
    p_stats.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {"list": _cmd_list, "loc": _cmd_loc, "collect": _cmd_collect,
             "evaluate": _cmd_evaluate, "search": _cmd_search,
             "serve": _cmd_serve, "stats": _cmd_stats}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
