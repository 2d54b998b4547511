"""Import-layering guard: third-party cost is paid on first use.

The runtime is linked into the application, so everything ``import
repro.apps.harness`` pulls in is start-up time and resident memory of
every harness, workflow, example and benchmark process.  SciPy (~0.7 s,
~62 MB) is needed by three Gaussian-process helpers in ``repro.search``
and by nothing that collects, trains, deploys or serves — so it must
load at the first GP fit, never at import.

Each case runs in a fresh interpreter (``sys.modules`` is the thing
under test) with ``sys.modules["scipy"] = None``, which makes any
``import scipy`` raise.  No timing is asserted.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None\n'
IMPORT_ALL = ("import repro, repro.serving, repro.apps.harness, "
              "repro.workflow, repro.search\n")


def run_python(code: str, *argv) -> str:
    """Run ``code`` in a fresh interpreter; return stdout, fail loudly."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_harness_builds_and_serves_without_scipy(tmp_path):
    out = run_python(BLOCK_SCIPY + IMPORT_ALL + textwrap.dedent('''
        import numpy as np
        from repro.apps import binomial
        from repro.nn import Tensor, no_grad, save_model
        from repro.search import build_mlp2
        from repro.serving import RegionServer

        workdir = sys.argv[1]
        model = build_mlp2({"hidden1_features": 48, "hidden2_features": 24},
                           5, 1, seed=0)
        save_model(model, workdir + "/m.rnm")
        server = RegionServer()
        server.register(binomial.build_region(
            mode="infer", n_steps=16, db_path=workdir + "/db.rh5",
            model_path=workdir + "/m.rnm"), name="b0")
        x = np.random.default_rng(0).random((16, 5))
        out = np.zeros(16)
        server.invoke("b0", x, out, 16, use_model=True)
        server.close()
        model.eval()
        with no_grad():
            ref = model(Tensor(x)).numpy().reshape(-1)
        assert np.array_equal(out, ref), np.abs(out - ref).max()
        print("served 16 rows bitwise")
        '''), tmp_path)
    assert "served 16 rows bitwise" in out


def test_scipy_loads_at_the_first_gp_fit_not_at_import():
    out = run_python("import sys\n" + IMPORT_ALL + textwrap.dedent('''
        import numpy as np
        from repro.search import GaussianProcess
        print("after import:", "scipy" in sys.modules)
        x = np.linspace(0.0, 1.0, 6)[:, None]
        GaussianProcess().fit(x, np.sin(3.0 * x).ravel())
        print("after fit:", "scipy" in sys.modules)
        '''))
    assert "after import: False" in out
    assert "after fit: True" in out


def test_optimiser_entry_points_raise_importerror_without_scipy():
    # An ordinary ImportError naming scipy, at the call that needs it —
    # not an AttributeError out of a half-initialised module.
    out = run_python(BLOCK_SCIPY + textwrap.dedent('''
        import numpy as np
        from repro.search import GaussianProcess, expected_improvement
        x = np.linspace(0.0, 1.0, 6)[:, None]
        calls = {
            "fit": lambda: GaussianProcess().fit(x, x.ravel()),
            "predict": lambda: GaussianProcess().predict(x),
            "ei": lambda: expected_improvement(x.ravel(), x.ravel(), 0.5),
        }
        for name, call in calls.items():
            try:
                call()
            except ImportError as exc:
                assert "scipy" in str(exc), exc
                print(name, "ImportError")
        '''))
    assert out.split() == ["fit", "ImportError", "predict", "ImportError",
                           "ei", "ImportError"]


@pytest.mark.parametrize("command", [
    "--help", "stats --invocations 2 --workdir {tmp}"], ids=["help", "stats"])
def test_informational_cli_commands_load_no_harness_or_optimiser(
        tmp_path, command):
    # cli.py keeps its subsystem imports inside the command functions;
    # a top-level ``from .apps.harness import ...`` would fail here.
    run_python(BLOCK_SCIPY + textwrap.dedent('''
        import runpy
        sys.argv = ["repro"] + sys.argv[1:]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
        heavy = [m for m in sys.modules
                 if m.startswith(("repro.apps.harness", "repro.search"))]
        assert not heavy, heavy
        '''), *command.format(tmp=tmp_path).split())
