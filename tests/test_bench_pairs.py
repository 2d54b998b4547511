"""``tools/bench_pairs.py`` driven with a stubbed runner: the pairing,
the alternation and the section-8 verdicts, with no timing involved."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(failed=0, **values):
    """A ``bench/run.py`` result object; unnamed metrics read 1.0."""
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 1.0),
                                    "unit": m["unit"]}
                        for m in CONTRACT["end_to_end"]}}


def rows_of(tool, pairs):
    report = tool.compare(pairs, CONTRACT)
    return report, {row["metric"]: row for row in report["rows"]}


def test_seed_ranges_parse(tool):
    assert tool.parse_seeds("1-4") == [1, 2, 3, 4]
    assert tool.parse_seeds("0,3,7") == [0, 3, 7]
    assert tool.parse_seeds("2,5-6") == [2, 5, 6]


def test_pairs_alternate_which_side_runs_first(tool):
    calls = []

    def runner(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return result(wall_s=1.0 if checkout.name == "parent" else 0.5)

    pairs = tool.run_pairs(Path("/x/parent"), Path("/x/change"),
                           "fleet_wave", [3, 4, 5], runner=runner)
    assert calls == [("parent", "fleet_wave", 3),
                     ("change", "fleet_wave", 3),
                     ("change", "fleet_wave", 4),
                     ("parent", "fleet_wave", 4),
                     ("parent", "fleet_wave", 5),
                     ("change", "fleet_wave", 5)]
    assert [seed for seed, _, _ in pairs] == [3, 4, 5]
    assert all(p["metrics"]["wall_s"]["value"] == 1.0
               and c["metrics"]["wall_s"]["value"] == 0.5
               for _, p, c in pairs)


def test_gain_needs_nine_tenths_of_the_pairs_and_medians_apart(tool):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    pairs = [(s, result(wall_s=a, rows_per_s=100 / a),
              result(wall_s=a * 0.8, rows_per_s=100 / (a * 0.8)))
             for s, a in enumerate(parent)]
    report, rows = rows_of(tool, pairs)
    wall = rows["wall_s"]
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (10, 0, 10)
    assert wall["verdict"] == "gain"
    assert wall["change_rel"] == pytest.approx(-0.2)
    assert wall["parent"]["median"] == pytest.approx(1.0)
    assert wall["parent"]["min"] == 0.97 and wall["parent"]["max"] == 1.03
    assert rows["rows_per_s"]["verdict"] == "gain"   # higher is better
    assert rows["setup_s"]["verdict"] == "no claim"  # every pair a tie
    assert (rows["setup_s"]["wins"], rows["setup_s"]["losses"]) == (0, 0)

    # Eight wins of ten is not nine tenths, whatever the medians say.
    for seed in (0, 1):
        pairs[seed] = (seed, pairs[seed][1], result(wall_s=1.5))
    assert rows_of(tool, pairs)[1]["wall_s"]["verdict"] == "no claim"

    # ... and fewer than ten pairs decide nothing, however one-sided.
    assert rows_of(tool, pairs[2:])[1]["wall_s"]["verdict"] == \
        "no claim (fewer than 10 pairs)"

    out = io.StringIO()
    tool.print_report(report, "fleet_wave", out=out)
    assert "wall_s [s, lower is better]  change ahead 10/10" in out.getvalue()


def test_medians_inside_the_parents_spread_claim_nothing(tool):
    parent = [1.0, 1.4, 0.6, 1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.0]
    pairs = [(s, result(wall_s=a), result(wall_s=a - 0.01))
             for s, a in enumerate(parent)]
    wall = rows_of(tool, pairs)[1]["wall_s"]
    assert wall["wins"] == 10 and wall["verdict"] == "no claim"


def test_loss_is_the_mirror_image_and_failures_veto_a_gain(tool):
    pairs = [(s, result(wall_s=1.0 + s / 1000), result(wall_s=1.3))
             for s in range(10)]
    assert rows_of(tool, pairs)[1]["wall_s"]["verdict"] == "loss"
    pairs = [(s, result(wall_s=1.0 + s / 1000),
              result(wall_s=0.5, failed=3 if s == 4 else 0))
             for s in range(10)]
    report, rows = rows_of(tool, pairs)
    assert report["failed"] == {"parent": 0, "change": 3}
    assert rows["wall_s"]["verdict"] == "no claim (change failed more)"
