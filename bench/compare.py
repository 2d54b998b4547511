"""Compare two documents written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json        # A = parent, B = change

Applies each end-to-end metric's bound from ``BENCHMARK.json`` to every
(metric, workload) row and prints one verdict per row:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  a side's spread between repetitions (quartile distance
                over median) is wider than the bound, and not every
                repetition of B reads better than every one of A
``improved``    B is better by more than the bound
``unchanged``   anything else

Exits non-zero on a regression, or when B failed a larger share of the
calls it attempted than A did.  Counters that must repeat exactly at a
fixed seed are listed when they differ (not an error by itself: a
change may move them on purpose).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that are timings, or depend on one; every other
#: per-layer metric is a count that repeats exactly at a fixed seed.
_TIMED = {"directives.parse_ms", "nn.compile_ms", "nn.plan.gflops_per_s",
          "h5.write_mb_per_s", "nn.train.step_us", "bench.probe.calls",
          "bench.trace_overhead_frac", "bench.unattributed_frac",
          "bench.machine_slowdown"}


def exact_metrics(contract: dict) -> list:
    """Names of the per-layer metrics that must repeat exactly."""
    return [m["name"] for m in contract["per_layer"]
            if m["name"] not in _TIMED and not m["name"].endswith(".self_s")]


def spread(samples) -> float:
    """Quartile distance over median; 0 without at least two samples."""
    if not samples or len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(metric: dict, a: dict, b: dict) -> tuple:
    """(verdict, relative change for the worse, widest spread)."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
    worse = (vb - va) / va if lower else (va - vb) / va
    sa = a.get("samples", {}).get(name, [])
    sb = b.get("samples", {}).get(name, [])
    wide = max(spread(sa), spread(sb))
    if wide > bound:
        all_better = sa and sb and (max(sb) < min(sa) if lower
                                    else min(sb) > max(sa))
        return ("improved" if all_better else "unresolved"), worse, wide
    if worse > bound:
        return "regressed", worse, wide
    return ("improved" if worse < -bound else "unchanged"), worse, wide


def compare(a: dict, b: dict, contract: dict, out=sys.stdout) -> int:
    status = 0
    exact = exact_metrics(contract)
    for name in (w["name"] for w in contract["workloads"]):
        wa = a["workloads"].get(name, {})
        wb = b["workloads"].get(name, {})
        if "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name}: missing on one side, skipped", file=out)
            continue
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        print(f"{name}", file=out)
        for metric in contract["end_to_end"]:
            word, worse, wide = verdict(metric, ea, eb)
            if word == "regressed":
                status = 1
            va = ea["metrics"][metric["name"]]["value"]
            vb = eb["metrics"][metric["name"]]["value"]
            print(f"  {metric['name']:22s} {va:>12.6g} -> {vb:>12.6g} "
                  f"{metric['unit']:7s} worse by {worse:+7.1%} "
                  f"(bound {metric['bound']:.0%}, spread {wide:.1%})  "
                  f"{word}", file=out)
        fa = ea["failed"] / ea["attempted"]
        fb = eb["failed"] / eb["attempted"]
        if fb > fa:
            status = 1
        print(f"  {'failed_frac':22s} {fa:>12.6g} -> {fb:>12.6g}         "
              f"{'FAILED MORE' if fb > fa else 'unchanged'}", file=out)
        la = wa.get("per_layer", {}).get("metrics", {})
        lb = wb.get("per_layer", {}).get("metrics", {})
        for metric in exact:
            if metric in la and metric in lb and \
                    la[metric]["value"] != lb[metric]["value"]:
                print(f"  count {metric}: {la[metric]['value']} -> "
                      f"{lb[metric]['value']}", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(json.loads(args.parent.read_text()),
                   json.loads(args.change.read_text()), contract)


if __name__ == "__main__":
    sys.exit(main())
