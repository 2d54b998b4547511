"""The benchmark keeps its own contract, in quick mode.

Collected by tier-1 (``python -m pytest``).  Every workload runs twice
at the same seed with operation counts / 20 and one traced repetition;
``run.measure`` itself asserts that the layer self times sum to the
traced wall, so that check rides along.
"""

from __future__ import annotations

import re

import pytest

from bench import compare, run
from bench.trace import LAYERS
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
CONTRACT = run.spec()


def test_names_follow_the_contract():
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert workloads == list(WORKLOADS)
    end_to_end = [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    names = workloads + end_to_end + per_layer
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in end_to_end
    for layer in LAYERS:
        assert f"{layer}.self_s" in per_layer
        assert f"{layer}.calls" in per_layer
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_traced_run_checks_and_repeats(name):
    first, second = (run.measure(name, seed=0, seconds=0, trace=True,
                                 quick=True) for _ in range(2))
    listed = [m["name"] for m in CONTRACT["per_layer"]]
    for doc in (first, second):
        assert doc["quick"] and doc["correct"] and doc["failed"] == 0
        assert doc["attempted"] >= 1
        assert list(doc["metrics"]) == listed
        assert not doc["trace_missing"]
    for metric in compare.exact_metrics(CONTRACT):
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_quick_untraced_run_reports_every_end_to_end_metric():
    doc = run.measure("deploy_chunk16", seed=1, seconds=0, trace=False,
                      quick=True)
    assert doc["correct"] and doc["failed"] == 0
    assert list(doc["metrics"]) == [m["name"]
                                    for m in CONTRACT["end_to_end"]]
    assert all(entry["value"] > 0 for entry in doc["metrics"].values())
