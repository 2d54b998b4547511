"""Generated code is reviewed code: the committed program sources.

``tools/programs.py`` builds the region and wave programs the benchmark
workloads run, and two row block bodies, and compares their sources with
``tests/golden/programs/``.  A change to a program emitter fails here
until ``PYTHONPATH=src python3 tools/programs.py --update`` rewrites the
files, so the change carries the generated hot path as a source diff.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "programs", REPO_ROOT / "tools" / "programs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_programs_match_the_committed_sources(tool):
    sources = tool.render()
    assert set(sources) == set(tool.CASES)
    diffs = tool.differences(sources)
    assert not diffs, "".join(diffs) + (
        "\nregenerate with: PYTHONPATH=src python3 tools/programs.py "
        "--update")


def test_a_source_is_the_same_when_built_twice(tool, tmp_path):
    build = tool.CASES["wave_governed"]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert build(first) == build(second)


def test_a_block_body_is_lane_0_s_under_one_blas_thread(tool, tmp_path):
    """The block cases run each step without a body form at lane 0's
    key, and leave the BLAS thread count as they found it."""
    get, _ = tool._openblas_threads()
    threads = get()
    source = tool.CASES["block_conv2d_wide"](tmp_path)
    assert get() == threads
    assert source.startswith("def body(x):") and ", -1)" in source


def test_a_changed_source_is_reported_as_a_diff(tool, tmp_path):
    (tmp_path / "case.txt").write_text("def program():\n    pass\n")
    diffs = tool.differences({"case": "def program():\n    return 1\n"},
                             tmp_path)
    assert len(diffs) == 1 and "+    return 1" in diffs[0]
    assert tool.differences({"case": "def program():\n    pass\n"},
                            tmp_path) == []
