"""``tools/replay_digest.py``: the comparison with a stubbed runner, and
one real (small) replay of this checkout in a process of its own."""

import importlib.util
import io
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "replay_digest", REPO_ROOT / "tools" / "replay_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(tool, **changed):
    """A worker's result; ``governed_stream="x"`` changes one digest."""
    out = {s: {d: f"{s}-{d}" for d in tool.DIGESTS[s]}
           for s in tool.SCENARIOS}
    for key, value in changed.items():
        scenario, digest = key.split("_")
        out[scenario][digest] = value
    return out


def test_agreeing_checkouts_exit_zero(tool):
    seen, out = [], io.StringIO()

    def runner(checkout, calls):
        seen.append((checkout.name, calls))
        return result(tool)

    assert tool.main(["/x/parent", "/x/change", "--calls", "90"],
                     runner=runner, out=out) == 0
    assert seen == [("parent", 90), ("change", 90)]
    assert "2 replay(s) agree on all 13 digests" in out.getvalue()
    assert out.getvalue().count("governed-stream") == 2


def test_one_differing_digest_exits_nonzero_and_is_named(tool):
    results = iter([result(tool), result(tool, faults_outputs="other"),
                    result(tool)])
    out = io.StringIO()
    assert tool.main(["a", "b", "c"], runner=lambda c, n: next(results),
                     out=out) == 1
    assert "DIFFER: faults outputs" in out.getvalue()
    assert "agree" not in out.getvalue()
    assert tool.disagreements([result(tool), result(tool)]) == []
    assert tool.disagreements(
        [result(tool), result(tool, governed_schedule="s",
                              faults_stream="t")]) \
        == [("governed", "schedule"), ("faults", "stream")]


def test_this_checkout_replays_in_its_own_process(tool):
    digests = tool.run_checkout(REPO_ROOT, 48)
    assert set(digests) == set(tool.SCENARIOS)
    for scenario in tool.SCENARIOS:
        assert set(digests[scenario]) == set(tool.DIGESTS[scenario])
        assert all(len(d) == 64 and int(d, 16) >= 0
                   for d in digests[scenario].values())
    # The fault script fired: an empty schedule hashes to a known value.
    assert digests["faults"]["schedule"] != tool._sha(b"[]")
