"""Alternating parent/change pairs of one benchmark workload.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fleet_wave --seeds 1-10

``PARENT`` and ``CHANGE`` are two checkouts of this repository (clones
or ``git worktree`` paths).  For every seed, each checkout's own,
unmodified ``bench/run.py --workload W --seed S --trace 0`` runs once
in a process of its own, for the ``run_seconds`` its ``BENCHMARK.json``
fixes; which side goes first alternates from pair to pair, so slow
drift of the machine does not favour one.
Per end-to-end metric the report gives both sides' median, quartiles,
minimum and maximum, how many pairs the change won (a tie counts for
neither side), and the verdict of the choosing-metrics guide, section
8: a **gain** needs the change ahead in at least nine tenths of the
pairs *and* the medians further apart than the distance between the
parent's own quartiles (**loss** is the mirror image; anything else —
and anything from fewer than ten pairs — is **no claim**).  A change
that failed more operations than the parent cannot be credited with a
gain.

Nothing here measures: the numbers are whatever ``bench/run.py``
printed, and the metric directions are read from the parent checkout's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def parse_seeds(text: str) -> list:
    """``"1-10"``, ``"0,3,7"`` or a mix of both -> the list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One run of ``checkout``'s benchmark; the result object it prints
    as its last line (``correct``, ``attempted``, ``failed``,
    ``metrics``)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, seeds: list,
              runner=run_bench, progress=None) -> list:
    """``[(seed, parent result, change result)]``, one pair per seed,
    the side that runs first alternating."""
    pairs = []
    for index, seed in enumerate(seeds):
        sides = {"parent": parent, "change": change}
        order = ("parent", "change") if index % 2 == 0 \
            else ("change", "parent")
        results = {}
        for side in order:
            results[side] = runner(sides[side], workload, seed)
            if progress is not None:
                progress(seed, side, results[side])
        pairs.append((seed, results["parent"], results["change"]))
    return pairs


def spread(values: list) -> dict:
    """Median, quartiles, minimum and maximum of one side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def summarize(metric: dict, pairs: list) -> dict:
    """One metric over every pair: both sides' spread, the pairs won,
    and the verdict."""
    name, lower = metric["name"], metric["better"] == "lower"
    a = [p["metrics"][name]["value"] for _, p, _ in pairs]
    b = [c["metrics"][name]["value"] for _, _, c in pairs]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    sa, sb = spread(a), spread(b)
    ahead = sb["median"] < sa["median"] if lower \
        else sb["median"] > sa["median"]
    apart = abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]
    verdict = "no claim"
    if len(pairs) < MIN_PAIRS:
        verdict = f"no claim (fewer than {MIN_PAIRS} pairs)"
    elif apart and ahead and wins >= WIN_SHARE * len(pairs):
        verdict = "gain"
    elif apart and not ahead and losses >= WIN_SHARE * len(pairs):
        verdict = "loss"
    return {"metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent": sa, "change": sb, "pairs": len(pairs), "wins": wins,
            "losses": losses,
            "change_rel": (sb["median"] - sa["median"]) / sa["median"],
            "verdict": verdict}


def compare(pairs: list, contract: dict) -> dict:
    """The report: one :func:`summarize` row per end-to-end metric plus
    the failed-operation totals, which can veto a gain."""
    failed = {"parent": sum(p["failed"] for _, p, _ in pairs),
              "change": sum(c["failed"] for _, _, c in pairs)}
    rows = [summarize(metric, pairs) for metric in contract["end_to_end"]]
    if failed["change"] > failed["parent"]:
        for row in rows:
            if row["verdict"] == "gain":
                row["verdict"] = "no claim (change failed more)"
    return {"seeds": [seed for seed, _, _ in pairs], "failed": failed,
            "rows": rows}


def print_report(report: dict, workload: str, out=sys.stdout) -> None:
    print(f"{workload}: {len(report['seeds'])} pairs, seeds "
          f"{report['seeds']}; failed parent {report['failed']['parent']}, "
          f"change {report['failed']['change']}", file=out)
    for row in report["rows"]:
        print(f"  {row['metric']} [{row['unit']}, {row['better']} is better]"
              f"  change ahead {row['wins']}/{row['pairs']}, behind "
              f"{row['losses']}  median {row['change_rel']:+.1%}  "
              f"{row['verdict']}", file=out)
        for side in ("parent", "change"):
            s = row[side]
            print(f"    {side:6s} median {s['median']:.6g}  quartiles "
                  f"{s['q1']:.6g}-{s['q3']:.6g}  min {s['min']:.6g}  "
                  f"max {s['max']:.6g}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help='e.g. "1-10" or "0,3,7" (one pair per seed)')
    args = parser.parse_args(argv)
    contract = json.loads((args.parent / "BENCHMARK.json").read_text())

    def progress(seed, side, result):
        wall = result["metrics"]["wall_s"]["value"]
        print(f"seed {seed} {side}: wall_s {wall:.6g}  failed "
              f"{result['failed']}", file=sys.stderr)

    pairs = run_pairs(args.parent, args.change, args.workload,
                      parse_seeds(args.seeds), progress=progress)
    print_report(compare(pairs, contract), args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
