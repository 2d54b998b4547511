#!/usr/bin/env python3
"""Golden sources of the generated programs the benchmark workloads run.

    PYTHONPATH=src python3 tools/programs.py            # diff, exit 1 on one
    PYTHONPATH=src python3 tools/programs.py --update   # rewrite the files

A region or wave program is Python source generated per region, geometry
and configuration (``DESIGN.md`` §4); a review of the emitter
never shows what it emits.  This tool builds one warm program per case
below and writes its source to ``tests/golden/programs/<case>.txt``, so
a change to the emitter commits the hot path it produces as a source
diff.  ``tests/test_golden_programs.py`` regenerates and compares.

Cases: the plain 16-row binomial region (``deploy_chunk16``), the 1-row
miniweather conv region on its inout buffer (``stencil_march``), a
binomial region under QoS, a breaker, a decision stream and
``precision="auto"`` (``serve_governed``'s features on one region), the
same region behind an ``auto_batch`` queue, the K=8 x 4-row wave
(``fleet_wave``) plain and under QoS and a stream, and lane 0's row block
body (``DESIGN.md`` §4) of an MLP with standardize heads and of a conv
net with pooling, cropping and an 8-wide head, built under a one-thread
OpenBLAS.
"""

from __future__ import annotations

import argparse
import ctypes
import difflib
import linecache
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" \
    / "programs"
ARCH = {"hidden1_features": 48, "hidden2_features": 24}
MEMBERS, WAVE_ROWS, INVOKE_ROWS = 8, 4, 16


def _source(function) -> str:
    return "".join(linecache.getlines(function.__code__.co_filename))


def _binomial(workdir: Path, name: str, seed: int = 0, **config):
    from repro.apps import binomial
    from repro.nn import save_model
    from repro.runtime import EventLog
    from repro.search.builders import build_mlp2

    path = workdir / f"{name}.rnm"
    save_model(build_mlp2(ARCH, 5, 1, seed=seed), path)
    return binomial.build_region(
        mode="infer", n_steps=16, db_path=str(workdir / "db.rh5"),
        model_path=str(path), event_log=EventLog(), **config)


def _region_program(workdir: Path, governed: bool = False, **config):
    import numpy as np
    from repro.qos import QoSController
    from repro.serving import RegionServer

    server = RegionServer()
    region = _binomial(workdir, "region", **config)
    server.register(region, name="deploy")
    if governed:
        region.config.precision = "auto"
        server.attach_qos(QoSController(shadow_rate=0.0, seed=0))
        server.attach_breakers()
        server.attach_stream(workdir / "region.rh5")
    x = np.random.default_rng(0).random((INVOKE_ROWS, 5))
    out = np.zeros(INVOKE_ROWS)
    try:
        for _ in range(3):
            server.invoke("deploy", x, out, INVOKE_ROWS, use_model=True)
        return _source(region._program)
    finally:
        server.close()


def _stencil_program(workdir: Path) -> str:
    import numpy as np
    from repro.apps.harness import harness_for
    from repro.nn import Destandardize, Sequential, Standardize
    from repro.search.builders import build_miniweather_cnn

    nz, nx = 16, 32
    harness = harness_for("miniweather", workdir, nx=nx, nz=nz,
                          train_steps=1, test_steps=2)
    stats = (np.zeros((4, 1, 1)), np.ones((4, 1, 1)))
    core = build_miniweather_cnn({"conv1_kernel": 3, "conv1_channels": 4,
                                  "conv2_kernel": 0}, nz=nz, nx=nx)
    harness.install_model(Sequential(Standardize(*stats), *core,
                                     Destandardize(*stats)))
    u = np.ascontiguousarray(harness.workload.state.q[None].copy())
    try:
        for _ in range(3):
            harness.server.invoke("miniweather", u, nz, nx, use_model=True)
        return _source(harness.deploy_region._program)
    finally:
        harness.server.close()


def _wave_program(workdir: Path, governed: bool) -> str:
    import numpy as np
    from repro.qos import QoSController
    from repro.serving import RegionServer

    server = RegionServer()
    for k in range(MEMBERS):
        server.register(_binomial(workdir, f"b{k}", seed=k), name=f"b{k}")
    server.enable_fleets()
    if governed:
        server.attach_qos(QoSController(shadow_rate=0.0, seed=0))
        server.attach_stream(workdir / "wave.rh5")
    x = np.random.default_rng(0).random((WAVE_ROWS, 5))
    wave = [(name, (x, np.zeros(WAVE_ROWS), WAVE_ROWS), {"use_model": True})
            for name in server.names]
    try:
        for _ in range(3):
            server.invoke_fleet(wave)
        return _source(server._waves[server.names])
    finally:
        server.close()


def _openblas_threads():
    """The loaded OpenBLAS's thread-count getter and setter."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in map(ctypes.CDLL, sorted(paths)):
        for suffix in ("", "64_"):
            for prefix in ("", "scipy_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                if get is not None:
                    return get, getattr(
                        lib, f"{prefix}openblas_set_num_threads{suffix}")
    raise RuntimeError("block bodies need an OpenBLAS whose thread count "
                       "can be set")


def _block_body(build, features, rows: int) -> str:
    """Lane 0's block body after one ``rows``-row call of ``build``'s
    model, under a one-thread OpenBLAS (the block rule's condition)."""
    import numpy as np
    from repro.nn.compile import compile_inference

    rng = np.random.default_rng(0)
    model = build(rng)
    x = rng.standard_normal((rows, *features))
    get, set_threads = _openblas_threads()
    threads = get()
    set_threads(1)
    try:
        plan = compile_inference(model)
        plan(x)
        return _source(plan._bodies["rows", x.shape[1:], x.dtype].lanes[0][1])
    finally:
        set_threads(threads)


def _stats(rng, n):
    import numpy as np

    return rng.normal(size=n), np.abs(rng.normal(size=n)) + 0.5


def _mlp_heads(rng):
    from repro.nn import Destandardize, Linear, ReLU, Sequential, \
        Standardize, Tanh

    return Sequential(Standardize(*_stats(rng, 6)), Linear(6, 40, rng=rng),
                      ReLU(), Linear(40, 24, rng=rng), Tanh(),
                      Linear(24, 3, rng=rng), Destandardize(*_stats(rng, 3)))


def _conv2d_wide(rng):
    from repro.nn import AvgPool2d, Conv2d, CropPad2d, Flatten, Linear, \
        MaxPool2d, ReLU, Sequential

    return Sequential(Conv2d(2, 4, 3, padding=1, rng=rng), ReLU(),
                      MaxPool2d(2), Conv2d(4, 3, 3, padding=1, rng=rng),
                      CropPad2d(3, 5), AvgPool2d(1), Flatten(),
                      Linear(45, 8, rng=rng))


CASES = {
    "region_plain": lambda d: _region_program(d),
    "region_stencil": _stencil_program,
    "region_governed": lambda d: _region_program(d, governed=True),
    "region_queued": lambda d: _region_program(d, auto_batch=True),
    "wave_plain": lambda d: _wave_program(d, governed=False),
    "wave_governed": lambda d: _wave_program(d, governed=True),
    "block_mlp_heads": lambda d: _block_body(_mlp_heads, (6,), 4099),
    "block_conv2d_wide": lambda d: _block_body(_conv2d_wide, (2, 8, 8),
                                               4099),
}


def render() -> dict:
    """``{case: program source}``, each built in a fresh directory."""
    sources = {}
    with tempfile.TemporaryDirectory(prefix="programs_") as workdir:
        for case, build in CASES.items():
            directory = Path(workdir) / case
            directory.mkdir()
            sources[case] = build(directory)
    return sources


def differences(sources: dict, golden: Path = GOLDEN) -> list:
    """Unified diffs of ``sources`` against the committed files."""
    out = []
    for case, source in sources.items():
        path = golden / f"{case}.txt"
        committed = path.read_text() if path.exists() else ""
        if committed != source:
            out.append("".join(difflib.unified_diff(
                committed.splitlines(True), source.splitlines(True),
                f"a/{path.name}", f"b/{path.name}")))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed sources")
    args = parser.parse_args(argv)
    sources = render()
    if args.update:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for case, source in sources.items():
            (GOLDEN / f"{case}.txt").write_text(source)
        return 0
    diffs = differences(sources)
    sys.stdout.write("".join(diffs))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
