"""The ownership rule (DESIGN.md §1), pinned on every path a caller
can reach.

An engine *borrows* its inputs for the duration of the call — reads
them, never writes them, keeps no reference (a queue's ``submit``
copies them into its staging batch, the named input-side copy) — and
every array it hands back is *caller-owned*: nothing the engine does
later changes it.  One body per clause, run over local immediate,
batched (a queued region call landed by a flush or an ``infer``
barrier, and the rows the flush hands ``complete_infer``), fleet and
process-backend engines at float64 and float32, plus
``InferenceEngine.profile``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import approx_ml
from repro.apps import binomial
from repro.apps.harness import harness_for
from repro.nn import Flatten, Identity, Sequential, save_model
from repro.runtime import (BatchedInferenceEngine, EventLog,
                           FleetInferenceEngine, InferenceEngine)
from repro.search.builders import build_mlp2, builder_for
from repro.serving import ProcessPoolBackend, RegionServer, hot_swap_model

ARCH = {"hidden1_features": 12, "hidden2_features": 6}
ROWS, OTHER_ROWS, FEATURES = 6, 3, 5


def _model(seed):
    return build_mlp2(ARCH, FEATURES, 1, seed=seed)


def _rows(seed, rows=ROWS):
    return np.random.default_rng(seed).random((rows, FEATURES))


# ----------------------------------------------------------------------
# One driver per path: ``infer(x, then=None)`` answers ``x`` and calls
# ``then()`` at the earliest moment the rule lets the caller reuse its
# buffer — after the queued region call returned (before the flush) on
# the deferred paths, after ``infer`` returned on the others.
# ``engines`` is what ``hot_swap_model`` refreshes.
# ----------------------------------------------------------------------

def _immediate(forward):
    """``infer(x, then)`` for a path whose result exists on return."""
    def infer(x, then=None):
        out = forward(x)
        if then is not None:
            then()
        return out
    return infer


@contextmanager
def _local(path, dtype, tmp_path):
    engine = InferenceEngine()
    yield _immediate(lambda x: engine.infer(path, x, dtype=dtype)), (engine,)


_ROWS_DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:5] = ([i, 0:5]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model}")
"""


@contextmanager
def _queued_region(path, dtype):
    """A region over a fresh queue, at ``dtype``'s precision; its
    gather is a view of the caller's ``x``."""
    engine = BatchedInferenceEngine()

    @approx_ml(_ROWS_DIRECTIVES.format(model=path), name="rows",
               engine=engine,
               precision=None if dtype is None else np.dtype(dtype).name)
    def region(x, y, N):
        y[:N] = x[:N].sum(axis=1)

    try:
        yield region, engine
    finally:
        region.close()


def _call(region, x):
    y = np.zeros(len(x))
    region(x, y, len(x))
    return y


def _batched(deliver):
    """Deliveries of a queued region call: ``flush`` / ``barrier`` land
    it in the caller's ``y``; ``handed`` returns the rows the flush
    handed ``complete_infer`` (a slice of the fused forward's result)."""
    @contextmanager
    def driver(path, dtype, tmp_path):
        with _queued_region(path, dtype) as (region, engine):
            sibling = _rows(99, 2)
            handed = []
            complete = region.complete_infer

            def spy(record, bound, outputs, seconds=0.0):
                handed.append(outputs)
                complete(record, bound, outputs, seconds)
            region.complete_infer = spy

            def infer(x, then=None):
                handed.clear()
                y = _call(region, x)
                if then is not None:
                    then()
                # A second queued call: what the first is handed is a
                # slice of the fused forward's result, not the whole.
                _call(region, sibling)
                if deliver == "barrier":
                    engine.infer(path, sibling, dtype=dtype)
                else:
                    region.flush()
                assert len(handed) == 2
                return handed[0] if deliver == "handed" else y
            yield infer, (engine,)
    return driver


@contextmanager
def _barrier_infer(path, dtype, tmp_path):
    with _queued_region(path, dtype) as (region, engine):
        def forward(x):
            _call(region, _rows(98, 2))
            return engine.infer(path, x, dtype=dtype)
        yield _immediate(forward), (engine,)


@contextmanager
def _fleet(path, dtype, tmp_path):
    engine = FleetInferenceEngine(dtype=dtype or np.float64)
    other = tmp_path / "other.rnm"
    save_model(_model(7), other)
    members = [engine.add_member("a", path), engine.add_member("b", other)]
    engine.build()
    assert not engine.ungrouped
    neighbour = _rows(97, OTHER_ROWS)
    yield _immediate(lambda x: engine.infer_members(
        members, [x, neighbour])[0]), (engine,)


@contextmanager
def _process(path, dtype, tmp_path):
    server = RegionServer(backend=ProcessPoolBackend(workers=1))
    region = binomial.build_region(
        mode="infer", n_steps=4, db_path=str(tmp_path / "db.rh5"),
        model_path=str(path), event_log=EventLog())
    server.register(region, name="b")
    engine = region.engine            # the backend's ProcessInferenceEngine
    try:
        yield _immediate(
            lambda x: engine.infer(path, x, dtype=dtype)), (engine,)
    finally:
        server.close()


@contextmanager
def _profile(path, dtype, tmp_path):
    engine = InferenceEngine()
    yield _immediate(lambda x: engine.profile(path, x)["outputs"]), (engine,)


def _cases():
    drivers = {"local": _local, "batched-flush": _batched("flush"),
               "batched-callback": _batched("handed"),
               "batched-barrier-delivers": _batched("barrier"),
               "batched-infer": _barrier_infer, "fleet": _fleet,
               "process": _process}
    for name, driver in drivers.items():
        marks = [pytest.mark.serving] if name == "process" else []
        for dtype in (None, np.float32):
            label = "float32" if dtype is not None else "float64"
            yield pytest.param((driver, dtype), id=f"{name}-{label}",
                               marks=marks)
    yield pytest.param((_profile, None), id="profile")


@pytest.fixture(params=list(_cases()))
def path_under_test(request, tmp_path):
    driver, dtype = request.param
    model_path = tmp_path / "m.rnm"
    save_model(_model(0), model_path)
    with driver(model_path, dtype, tmp_path) as (infer, engines):
        yield infer, engines, model_path


def test_returned_array_is_caller_owned(path_under_test):
    """(a) Further forwards at the same and at another batch size, and
    a hot swap, leave a delivered output bitwise unchanged."""
    infer, engines, model_path = path_under_test
    x = _rows(1)
    out = infer(x)
    delivered = out.tobytes()
    infer(_rows(2))                           # same batch size
    assert out.tobytes() == delivered
    infer(_rows(3, OTHER_ROWS))               # another batch size
    assert out.tobytes() == delivered
    hot_swap_model(_model(5), model_path, engines=engines)
    swapped = infer(x)
    assert out.tobytes() == delivered
    assert swapped.tobytes() != delivered     # the swap did land


def test_inputs_are_borrowed_read_only(path_under_test):
    """(b) A read-only input is accepted and bitwise unchanged."""
    infer, _, _ = path_under_test
    x = _rows(4)
    before = x.tobytes()
    x.setflags(write=False)
    out = infer(x)
    assert out.shape[0] == ROWS and np.all(np.isfinite(out))
    assert x.tobytes() == before


def test_caller_may_reuse_its_input_buffer(path_under_test):
    """(c) Overwriting the input once ``infer`` / ``submit`` returned
    changes no delivered output."""
    infer, _, _ = path_under_test
    pristine = _rows(6)
    expected = infer(pristine.copy()).tobytes()
    x = pristine.copy()

    def overwrite():
        x[...] = 777.0
    out = infer(x, then=overwrite)
    assert out.tobytes() == expected
    x[...] = -1.0                             # and again after delivery
    assert out.tobytes() == expected


@pytest.mark.parametrize("layer", [Flatten, Identity])
def test_plan_without_a_compute_step_still_returns_an_owned_array(
        tmp_path, layer):
    """A plan with no compute step hands back a view of its *input*;
    the engine's output must not be one."""
    path = tmp_path / "pass.rnm"
    save_model(Sequential(layer()), path)
    engine = InferenceEngine()
    x = _rows(8)
    out = engine.infer(path, x)
    assert not np.shares_memory(out, x)
    x[...] = 0.0
    assert np.array_equal(out, _rows(8))


# ----------------------------------------------------------------------
# (d) Region level: `in` arrays after an infer-path invocation
# ----------------------------------------------------------------------

_APPS = {
    "binomial": (dict(n_train=8, n_test=16, n_steps=4, deploy_chunk=8),
                 ARCH),
    "bonds": (dict(n_train=8, n_test=16, deploy_chunk=8), ARCH),
    "minibude": (dict(n_train=8, n_test=16, deploy_chunk=8),
                 {"num_hidden_layers": 2, "hidden1_size": 8,
                  "feature_multiplier": 0.5}),
    "particlefilter": (dict(n_train_frames=2, n_test_frames=4,
                            frame_size=16, n_particles=8),
                       {"conv_kernel": 3, "conv_stride": 2,
                        "maxpool_kernel": 2, "fc2_size": 4}),
    "miniweather": (dict(nx=8, nz=4, train_steps=1, test_steps=2),
                    {"conv1_kernel": 3, "conv1_channels": 4,
                     "conv2_kernel": 0}),
}


@pytest.mark.parametrize("app", sorted(_APPS))
def test_region_leaves_in_arrays_untouched(tmp_path, app):
    sizes, arch = _APPS[app]
    harness = harness_for(app, tmp_path, **sizes)
    model = builder_for(app)(arch, seed=0, **harness.builder_kwargs())
    harness.install_model(model)
    region = harness.deploy_region
    if app == "miniweather":
        # No `in`-only array: `u` is inout through an identity functor,
        # so the forward reads a view of the memory the scatter then
        # overwrites.  The step must equal the forward of the old `u`.
        assert not region.ml.in_arrays
        assert tuple(region.ml.inout_arrays) == ("u",)
        u = harness._fresh_u()
        expected = InferenceEngine().infer(harness.model_path, u.copy())
        harness._step(u, use_model=True)
        assert np.array_equal(u, expected)
        return
    assert len(region.ml.in_arrays) == 1      # the rows below are all of it
    rows = harness.test_inputs()
    before = rows.tobytes()
    qoi = harness.run_surrogate()
    assert np.all(np.isfinite(qoi))
    assert rows.tobytes() == before


_IDENTITY_DIRECTIVES = """
#pragma approx tensor functor(same: [i, 0:3] = ([i, 0:3]))
#pragma approx tensor map(to: same(x[0:N]))
#pragma approx tensor map(from: same(y[0:N]))
#pragma approx ml(infer) in(x) out(y) model("{model}")
"""


class _SpyEngine(InferenceEngine):
    """Records what the region handed the engine and got back."""

    def infer(self, model_path, inputs, dtype=None):
        self.seen = inputs
        self.returned = super().infer(model_path, inputs, dtype=dtype)
        return self.returned


def test_identity_functor_region_over_a_passthrough_model(tmp_path):
    """The worst case for aliasing: the gather is a view of application
    memory and the plan has no compute step, so without the engine's
    copy the "output" would be the `in` array itself."""
    path = tmp_path / "pass.rnm"
    save_model(Sequential(Identity()), path)
    engine = _SpyEngine()

    @approx_ml(_IDENTITY_DIRECTIVES.format(model=path), name="same",
               engine=engine)
    def region(x, y, N):
        y[:N] = x[:N]

    x = np.random.default_rng(11).random((4, 3))
    before = x.tobytes()
    y = np.zeros((4, 3))
    region(x, y, 4)
    assert np.shares_memory(engine.seen, x)           # borrowed, not copied
    assert not np.shares_memory(engine.returned, x)   # owned
    assert x.tobytes() == before
    assert np.array_equal(y, x)
    region.close()
