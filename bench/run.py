"""One command that sets up, runs and checks the named workloads.

One workload, as the benchmark driver calls it (``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ledger; the last
line of standard output is the result object)::

    python3 bench/run.py --workload deploy_gemm --seed 3 --seconds 10 --trace 0

All seven, each in its own child process, untraced then traced, with
one document of every number written under ``bench/out/``::

    python3 bench/run.py --seed 0
    python3 bench/run.py --seed 0 --workloads deploy_gemm,proc_slab --quick

Metric names, units and bounds come from ``BENCHMARK.json`` at the root
of the checkout; see ``bench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Timed repetitions a run makes at least, however short ``--seconds``.
MIN_REPS = 5
MAX_REPS = 64
#: Set-ups a ``--trace 0`` run makes; ``setup_s`` reports their median.
SETUPS = 3
BLAS_THREADS = "1"


def spec() -> dict:
    """The benchmark contract: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bootstrap() -> None:
    """Make ``bench`` and ``repro`` importable from a bare checkout and
    pin the BLAS pool, both before NumPy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # Run as a script, sys.path[0] is this directory, where trace.py
    # would shadow the standard library's module of the same name.
    sys.path[:] = [p for p in sys.path
                   if Path(p or os.curdir).resolve() != HERE]
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


#: One repetition: the meter of its base slice, the meter of its run
#: (None if it raised before metering), whether it ran and checked clean.
Rep = namedtuple("Rep", "base meter ok")


def repetition(wl, tracer=None) -> Rep:
    """Base slice, then one repetition, each from the reset state.

    The base slice runs next to the repetition it is compared with, so
    ``speedup_vs_accurate`` is a ratio of two walls taken within the
    same second.
    """
    from bench.meter import Meter, probe
    wl.reset()
    gc.collect()
    base = Meter()
    wl.run_base(base)
    wl.reset()
    gc.collect()
    meter = None
    ok = True
    if tracer is not None:
        tracer.install(wl.regions())
    try:
        with tracer.root() if tracer is not None else nullcontext():
            meter = Meter(probe if tracer is None
                          else tracer.wrap_probe(probe))
            wl.run(meter)
    except Exception:
        # A raising call fails its whole repetition; the run goes on so
        # the result still counts failures against calls attempted.
        traceback.print_exc()
        ok = False
    finally:
        if tracer is not None:
            tracer.remove()
    return Rep(base, meter, ok and wl.check())


def reap_children() -> None:
    """Stop every process the run started and wait until each has ended.

    A clean ``wl.close()`` has already joined the workers.  What is left
    is the ``multiprocessing`` resource tracker that the shared-memory
    slabs spawn: left alone it ends only once it sees this process gone,
    so it would outlive the run by a moment.
    """
    import multiprocessing
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe and waits for it to exit; the next
        # SharedMemory created in this process starts a new one.
        tracker._resource_tracker._stop()


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, boot=None) -> dict:
    """Set up one workload, run it, check it; returns the run document.

    ``metrics`` holds every end-to-end metric (``trace`` false) or
    every per-layer metric (``trace`` true) of ``BENCHMARK.json``.
    ``boot`` is the meter that timed the imports, when the caller has
    one; the set-ups are metered on it too.
    """
    from bench.meter import Meter
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS
    contract = spec()
    boot = boot if boot is not None else Meter()
    import_segments = len(boot.seg_wall)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    min_reps = 2 if quick else MIN_REPS
    wl = None
    try:
        for _ in range(1 if quick or trace else SETUPS):
            if wl is not None:
                wl.close()
            shutil.rmtree(work, ignore_errors=True)
            wl = WORKLOADS[name](seed, work, quick)
            boot.step(wl.setup)
        if not quick:
            repetition(wl)                           # warm-up, untimed
        # A traced run spends half its time untraced, to have the wall
        # the traced repetition's overhead is measured against.
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        reps = []
        while len(reps) < min_reps or (time.perf_counter() < deadline
                                       and len(reps) < MAX_REPS):
            reps.append(repetition(wl))
        counts = wl.counts() if trace else {}
        tracer = traced = None
        if trace:
            tracer = Tracer(wl.calls * wl.spans_per_call + 20000)
            traced = repetition(wl, tracer)
        qoi = wl.qoi()
    finally:
        try:
            if wl is not None:
                wl.close()
        finally:
            reap_children()
            shutil.rmtree(work, ignore_errors=True)

    # Every time below is at reference speed (see bench/meter.py).
    timed = [r for r in reps if r.meter is not None]
    walls = [r.meter.wall() for r in timed]
    wall_s = statistics.median(walls)
    raw = sum(r.meter.raw_wall for r in timed)
    doc = {"workload": name, "seed": seed, "quick": quick,
           "base": wl.base, "qoi_metric": wl.qoi_metric,
           "calls_per_rep": wl.calls, "rows_per_rep": wl.rows,
           "reps": len(timed), "machine_slowdown": raw / sum(walls),
           "qoi_err": qoi}
    if trace:
        values = ledger_metrics(wl, tracer, counts,
                                contract["per_layer"])
        values["apps.qoi_err"] = qoi
        values["bench.trace_overhead_frac"] = \
            traced.meter.wall() / wall_s - 1.0
        values["bench.machine_slowdown"] = doc["machine_slowdown"]
        tracer.write(OUT / f"trace_{name}.json",
                     {"workload": name, "seed": seed, "quick": quick,
                      "wall_s": tracer.wall, "missing": tracer.missing})
        doc["trace_missing"] = tracer.missing
        listed = contract["per_layer"]
    else:
        import_s = sum(boot.walls()[:import_segments])
        setups = boot.walls()[import_segments:]
        lats = [r.meter.latencies() for r in timed]
        pooled = sorted(x for lat in lats for x in lat)
        speedups = [r.base.wall() * wl.base_scale / w
                    for r, w in zip(timed, walls)]
        usage = resource.getrusage
        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": wall_s,
            "invoke_p50_us": percentile(pooled, 50) * 1e6,
            "invoke_p95_us": percentile(pooled, 95) * 1e6,
            "speedup_vs_accurate": statistics.median(speedups),
            "peak_rss_mb": (usage(resource.RUSAGE_SELF).ru_maxrss
                            + usage(resource.RUSAGE_CHILDREN).ru_maxrss)
            / 1024.0,
            "rows_per_s": wl.rows / wall_s,
        }
        doc["samples"] = {
            "setup_s": [import_s + s for s in setups],
            "wall_s": walls,
            "speedup_vs_accurate": speedups,
            "rows_per_s": [wl.rows / w for w in walls],
            "invoke_p50_us": [percentile(sorted(lat), 50) * 1e6
                              for lat in lats],
            "invoke_p95_us": [percentile(sorted(lat), 95) * 1e6
                              for lat in lats],
        }
        doc["latency_samples"] = len(pooled)
        listed = contract["end_to_end"]
    if traced is not None:
        reps.append(traced)
    failed = sum(wl.calls for r in reps if not r.ok)
    doc.update(
        correct=failed == 0, attempted=wl.calls * len(reps), failed=failed,
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in listed})
    return doc


def ledger_metrics(wl, tracer, counts: dict, listed: list) -> dict:
    """Every per-layer metric in ``listed``: the traced repetition's
    self times and call counts, the counters of the last untraced
    repetition, and the numbers computed from both."""
    from bench.trace import DRIVER, LAYERS, PROBE
    ledger = tracer.ledger()
    total = sum(row["self_s"] for row in ledger.values())
    if abs(total - tracer.wall) > 0.01 * tracer.wall:
        raise AssertionError(
            f"layer self times sum to {total:.6f}s, traced wall is "
            f"{tracer.wall:.6f}s")
    values = {m["name"]: 0.0 for m in listed}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = ledger[layer]["self_s"]
        values[f"{layer}.calls"] = ledger[layer]["calls"]
    values.update(wl.setup_ms)
    values.update(counts)
    plan_s = tracer.layer_total("nn.plan")
    if plan_s and wl.plan_rows:
        values["nn.plan.gflops_per_s"] = \
            values["nn.plan.flops_per_row"] * wl.plan_rows / plan_s / 1e9
    forwards = values["runtime.engine.forwards"]
    if forwards:
        values["runtime.engine.rows_per_forward"] = wl.plan_rows / forwards
    lookups = ledger["bridge.gather"]["calls"] \
        + ledger["bridge.scatter"]["calls"]
    if lookups:
        values["bridge.concretize_miss_frac"] = \
            tracer.count_named("concretize") / lookups
    h5_s = tracer.layer_total("h5.file")
    if h5_s:
        values["h5.write_mb_per_s"] = \
            values["h5.bytes_written"] / h5_s / 1e6
    if values["nn.train.steps"]:
        values["nn.train.step_us"] = tracer.layer_total("nn.train") \
            / values["nn.train.steps"] * 1e6
    values["apps.kernel.rows"] = tracer.kernel_rows
    # The probe runs inside the root span but is no part of the wall.
    values["bench.unattributed_frac"] = ledger[DRIVER]["self_s"] \
        / (tracer.wall - ledger[PROBE]["self_s"])
    return values


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def print_run(doc: dict) -> None:
    """The run's metrics by name and unit, quartiles where sampled."""
    print(f"== {doc['workload']}  seed={doc['seed']}  reps={doc['reps']}"
          f"  calls/rep={doc['calls_per_rep']}  base={doc['base']}"
          f"  machine_slowdown={doc['machine_slowdown']:.3f}"
          f"{'  quick' if doc['quick'] else ''}")
    samples = doc.get("samples", {})
    for metric, entry in doc["metrics"].items():
        line = f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}"
        if len(samples.get(metric, ())) > 1:
            q1, _, q3 = statistics.quantiles(samples[metric], n=4)
            line += f"   [q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[metric])}]"
        if metric.startswith("invoke_p"):
            line += f"   pooled n={doc['latency_samples']}"
        if metric == "apps.qoi_err":
            line += f"   ({doc['qoi_metric']})"
        print(line)
    print(f"  attempted={doc['attempted']}  failed={doc['failed']}"
          f"  correct={doc['correct']}")


def environment(seed: int) -> dict:
    """Where the numbers were taken."""
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "numpy": np.__version__, "python": platform.python_version(),
            "commit": commit or "unknown", "seed": seed,
            "timing": "measured"}


def run_child(name: str, seed: int, seconds: int, trace: int,
              quick: bool) -> dict | None:
    """One workload in a process of its own, so ``setup_s`` and
    ``peak_rss_mb`` are that workload's alone; echoes its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--detail"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    doc = None
    for line in proc.stdout.splitlines():
        if line.startswith("DETAIL "):
            doc = json.loads(line[len("DETAIL "):])
        elif not line.startswith("{"):
            print(line)
    return doc if proc.returncode == 0 else None


def run_all(names, seed: int, seconds: int, quick: bool, out: Path) -> int:
    """Every workload sequentially (one generating process at a time),
    untraced then traced; writes the document ``bench.compare`` reads."""
    if quick and out.name == "BASELINE.json":
        raise SystemExit("a --quick run is never written as the baseline")
    bootstrap()
    result = {"schema": "bench/v1", "env": environment(seed),
              "seconds": seconds, "quick": quick, "workloads": {}}
    status = 0
    for name in names:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = run_child(name, seed, seconds, trace, quick)
            if doc is None or not doc["correct"]:
                status = 1
            if doc is not None:
                entry[key] = doc
        result["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload and "
                        "print the result object as the last line")
    parser.add_argument("--workloads", help="comma-separated subset for "
                        "the all-workloads mode (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="how long a run measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="operation counts / 20, 2 repetitions")
    parser.add_argument("--detail", action="store_true",
                        help="also print the full run document")
    parser.add_argument("--out", type=Path, default=None,
                        help="all-workloads mode: where the document goes")
    args = parser.parse_args(argv)
    contract = spec()
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    listed = [w["name"] for w in contract["workloads"]]
    if args.workload is None:
        names = args.workloads.split(",") if args.workloads else listed
        unknown = sorted(set(names) - set(listed))
        if unknown:
            parser.error(f"unknown workloads {unknown}; known: {listed}")
        out = args.out or OUT / f"run_seed{args.seed}.json"
        return run_all(names, args.seed, seconds, args.quick, out)
    if args.workload not in listed:
        parser.error(f"unknown workload {args.workload!r}; known: {listed}")
    bootstrap()
    from bench.meter import Meter
    boot = Meter()
    boot.step(lambda: __import__("bench.workloads"))
    doc = measure(args.workload, args.seed, 0 if args.quick else seconds,
                  bool(args.trace), args.quick, boot)
    print_run(doc)
    if args.detail:
        print("DETAIL " + json.dumps(doc))
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
