"""Tier-1 smoke run of the mixed-precision benchmark.

Runs ``benchmarks/bench_precision.py`` at tiny sizes and validates the
``BENCH_precision.json`` schema plus the acceptance properties that do
not depend on the clock: the float64 default path is bitwise-unchanged
by the dtype parameterization, the narrowed plan is what actually ran
(outputs differ from float64, by less than 1e-5; the worker answered in
float32), every governed app deployment stays inside the 25%-of-pure
QoI budget, and the shm transport ships exactly half the bytes for
float32 requests.  The wall-clock threshold (fp32 geomean >= 1.3x)
belongs to the script run in the CI bench job — it sits at 1.32-1.37x
on a 2-vCPU box and has no place in tier-1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.precision

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_precision.py"


def load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_precision", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_precision_bench_smoke_writes_valid_schema(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_precision.json"
    results = bench.main(["--quick", "--out", str(out)])
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "bench_precision/v1"
    assert on_disk == json.loads(json.dumps(results))    # JSON-clean
    assert on_disk["config"]["quick"] is True

    summary = on_disk["summary"]
    # The non-negotiable control: dtype parameterization left the
    # float64 default path bitwise-identical.
    assert summary["fp64_bitwise_identical"] is True
    assert summary["f32_speedup_geomean"] > 0            # reported, not gated

    for row in on_disk["forward"]:
        assert row["fp64_bitwise_identical"] is True
        assert row["speedup"] > 0
        assert 0 < row["max_rel_diff"] < 1e-5            # narrowed plan ran
    assert [r["k"] for r in on_disk["fleet"]] == [4, 8, 16]
    for row in on_disk["fleet"]:
        assert row["slab_mb_f32"] == pytest.approx(
            row["slab_mb_f64"] / 2)
        assert row["max_rel_diff"] < 1e-5

    governed = on_disk["governed"]
    assert {r["benchmark"] for r in governed} == \
        {"binomial", "bonds", "minibude"}
    for row in governed:
        assert row["within_budget"] is True
        assert row["divergence_samples"] >= 1

    assert summary["shm_transfer_savings"] == pytest.approx(2.0)
    assert on_disk["shm"]["out_dtype"] == "float32"
