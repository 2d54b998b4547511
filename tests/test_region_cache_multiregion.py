"""Descriptor-cache correctness and multi-region databases."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import approx_ml
from repro.bridge import BridgeError, concretize, evaluate_ranges
from repro.bridge.slices import EmptySweep
from repro.nn import Linear, Sequential, save_model
from repro.runtime import EventLog, load_training_data

DIRECTIVES = """
#pragma approx tensor functor(fi: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:1] = ([i]))
#pragma approx tensor map(to: fi(x[0:N]))
#pragma approx tensor map(from: fo(y[0:N]))
#pragma approx ml(predicated:flag) in(x) out(y) db("{db}") model("{model}")
"""


def make_region(db, model, log=None):
    @approx_ml(DIRECTIVES.format(db=db, model=model), event_log=log)
    def region(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    return region


def identity_model(path):
    model = Sequential(Linear(2, 1, rng=np.random.default_rng(0)))
    model[0].weight.data = np.array([[1.0, 1.0]])
    model[0].bias.data = np.array([0.0])
    save_model(model, path)


def test_cache_reuses_descriptors_for_same_buffer(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.random.default_rng(0).normal(size=(8, 2))
    y = np.zeros(8)
    for _ in range(5):
        region(x, y, 8, flag=True)
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    # One cached entry (both directions' layouts) per geometry.
    assert len(region._map_cache) == 1


def test_cache_sees_fresh_data_in_same_buffer(tmp_path):
    """Views alias the buffer: new data must flow through cached maps."""
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.zeros((4, 2))
    y = np.zeros(4)
    region(x, y, 4, flag=True)
    np.testing.assert_allclose(y, np.zeros(4), atol=1e-12)
    x[:] = 3.0                         # mutate in place
    region(x, y, 4, flag=True)
    np.testing.assert_allclose(y, np.full(4, 6.0), atol=1e-12)


def test_cache_invalidated_by_new_array(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    y = np.zeros(4)
    a = np.ones((4, 2))
    b = np.full((4, 2), 2.0)
    region(a, y, 4, flag=True)
    np.testing.assert_allclose(y, np.full(4, 2.0), atol=1e-12)
    region(b, y, 4, flag=True)         # different buffer, same shape
    np.testing.assert_allclose(y, np.full(4, 4.0), atol=1e-12)


def test_cache_invalidated_by_changed_extent(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.arange(16.0).reshape(8, 2)
    y = np.zeros(8)
    region(x, y, 8, flag=True)
    y2 = np.zeros(8)
    region(x, y2, 4, flag=True)        # N shrinks: only 4 entries written
    np.testing.assert_allclose(y2[:4], x[:4].sum(axis=1), atol=1e-12)
    assert y2[4:].sum() == 0.0


def test_cache_hits_on_fresh_views_of_one_geometry(tmp_path):
    """A deploy loop hands in a new slice view every call: same shape,
    strides and dtype, different buffer — all geometry hits."""
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.random.default_rng(0).normal(size=(64, 2))
    y = np.zeros(64)
    for lo in range(0, 64, 8):
        region(x[lo:lo + 8], y[lo:lo + 8], 8, flag=True)
    np.testing.assert_allclose(y, x.sum(axis=1), atol=1e-12)
    assert len(region._map_cache) == 1


def test_warm_cache_still_rejects_non_contiguous_and_out_of_bounds(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.random.default_rng(1).normal(size=(16, 4))
    y = np.zeros(16)
    region(np.ascontiguousarray(x[:8, :2]), y[:8], 8, flag=True)   # warm
    before = y.copy()
    with pytest.raises(BridgeError, match="C-contiguous"):
        region(x[:8, :2], y[:8], 8, flag=True)       # same shape, strided
    with pytest.raises(BridgeError, match="C-contiguous"):
        region(np.ascontiguousarray(x[:8, :2]), y[::2], 8, flag=True)
    with pytest.raises(BridgeError, match="outside"):
        region(np.ascontiguousarray(x[:7, :2]), y[:8], 8, flag=True)
    with pytest.raises(BridgeError, match="outside"):
        region(np.ascontiguousarray(x[:8, :2]), y[:7], 8, flag=True)
    np.testing.assert_array_equal(y, before)         # nothing scattered
    region(np.ascontiguousarray(x[8:, :2]), y[8:], 8, flag=True)  # still hot
    np.testing.assert_allclose(y[8:], x[8:, :2].sum(axis=1), atol=1e-12)


def test_warm_cache_read_only_output_still_refuses_scatter(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    x = np.ones((4, 2))
    region(x, np.zeros(4), 4, flag=True)             # warm, writable
    frozen = np.zeros(4)
    frozen.flags.writeable = False
    with pytest.raises(BridgeError, match="argument 'y' is read-only"):
        region(x, frozen, 4, flag=True)
    assert frozen.sum() == 0.0


def test_cache_stays_bounded_over_many_geometries(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    for n in range(1, 120):                          # 119 geometries
        x = np.full((n, 2), float(n))
        y = np.zeros(n)
        region(x, y, n, flag=True)
        np.testing.assert_allclose(y, 2.0 * n, atol=1e-12)
        assert len(region._map_cache) <= 64
    assert len(region._map_cache) == 64


def test_cache_evicts_in_recency_order(tmp_path):
    """The 64-entry bound is an LRU: a hit moves its geometry to the
    recent end, so the next insert evicts the stalest key instead."""
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")

    def serve(n):
        region(np.ones((n, 2)), np.zeros(n), n, flag=True)

    def cached_rows():            # keys lead with the integer env (N)
        return [key[0] for key in region._map_cache]

    for n in range(1, 65):
        serve(n)
    assert cached_rows() == list(range(1, 65))
    serve(1)                                         # hit: now most recent
    assert cached_rows() == list(range(2, 65)) + [1]
    serve(65)                                        # miss: evicts n == 2
    assert cached_rows() == list(range(3, 65)) + [1, 65]
    serve(3)
    serve(66)
    assert cached_rows() == list(range(5, 65)) + [1, 65, 3, 66]
    assert len(region._map_cache) == 64


class _DuckArray:
    """Exposes the geometry a cached layout is keyed on, but is no
    ndarray — binding a view over it would read arbitrary memory."""

    def __init__(self, like):
        self.shape, self.strides, self.dtype = \
            like.shape, like.strides, like.dtype


@pytest.mark.parametrize("bad, text", [
    (lambda y: None, "array 'y' not among call arguments"),
    (lambda y: y.tolist(), "argument 'y' is list, expected ndarray"),
    (_DuckArray, "argument 'y' is _DuckArray, expected ndarray"),
], ids=["missing", "list", "duck"])
@pytest.mark.parametrize("arg", ["x", "y"])
def test_warm_cache_rejects_non_arrays_with_the_cold_message(tmp_path, bad,
                                                             text, arg):
    """The hit path re-checks what the cold path checks: same error,
    same text, whether the bad argument feeds a to- or a from-map."""
    text = text.replace("'y'", f"'{arg}'")
    x, y = np.ones((4, 2)), np.zeros(4)

    def call(region):
        args = {"x": x, "y": y}
        args[arg] = bad(args[arg])
        region(args["x"], args["y"], 4, flag=True)

    cold = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    with pytest.raises(BridgeError) as cold_err:
        call(cold)
    warm = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    warm(x, y, 4, flag=True)                         # geometry now cached
    with pytest.raises(BridgeError) as warm_err:
        call(warm)
    assert str(warm_err.value) == str(cold_err.value)
    assert text in str(warm_err.value)
    assert y.sum() == 4 * 2.0                        # only the warm-up wrote


def test_cache_does_not_pin_served_arrays(tmp_path):
    """The cache holds geometry, never buffers: arrays an application
    served and dropped must be collectable."""
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    identity_model(tmp_path / "m.rnm")
    refs = []
    for n in (4, 6, 8):
        x, y = np.ones((n, 2)), np.zeros(n)
        region(x, y, n, flag=True)
        refs += [weakref.ref(x), weakref.ref(y)]
    del x, y
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(region._map_cache) == 3


STENCIL = """
#pragma approx tensor functor(fi: [i, 0:3] = ([i-1, 0], [i, 0:2]))
#pragma approx tensor functor(fo: [i, 0:2] = ([i, 1], [i+1, 0]))
#pragma approx tensor map(to: fi(x[1:N-1:S]))
#pragma approx tensor map(from: fo(y[1:N-1:S]))
#pragma approx ml(predicated:flag) in(x) out(y) db("d.rh5") model("m.rnm")
"""


def _uncached(m, env, writable):
    return concretize(m.functor, env[m.array_name],
                      evaluate_ranges(m.spec, env), env=env,
                      writable=writable)


@given(calls=st.lists(
    st.tuples(st.integers(3, 14),                    # rows of the views
              st.integers(0, 6),                     # view offset
              st.integers(-1, 2),                    # N - rows
              st.integers(1, 3),                     # S
              st.sampled_from([np.float64, np.float32, np.int64])),
    min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_cached_layouts_match_uncached_concretize_property(calls):
    """Differential property: over any sequence of geometries — fresh
    views at varying offsets, changed shape, integer environment and
    dtype — the region's cached layouts gather and scatter bit-for-bit
    like an uncached ``concretize``, and refuse exactly what it refuses,
    except a sweep of no entries, which binds to no entry (served)."""
    region = approx_ml(STENCIL)(lambda x, y, N, S, flag=False: None)
    rng = np.random.default_rng(len(calls))
    for rows, off, extra, step, dtype in calls:
        base_x = (rng.normal(size=(24, 2)) * 100).astype(dtype)
        base_y = np.zeros((24, 2), dtype=dtype)
        env = {"x": base_x[off:off + rows], "y": base_y[off:off + rows],
               "N": rows + extra, "S": step, "flag": True}
        try:
            want = [[_uncached(m, env, writable) for m in maps]
                    for maps, writable in ((region._in_maps, False),
                                           (region._out_maps, True))]
        except EmptySweep:                  # no entries: served, no entry
            assert region._bind_maps(env) is None
            continue
        except BridgeError:
            with pytest.raises(BridgeError):
                region._bind_maps(env)
            continue
        entry = region._bind_maps(env)
        for got, refs, maps, writable in zip(
                (entry.ins, entry.outs), want,
                (region._in_maps, region._out_maps), (False, True)):
            for (name, layout), ref in zip(got, refs):
                a = layout.gather(env[name])
                b = ref.gather(flatten_batch=True)
                assert a.dtype == b.dtype and np.array_equal(a, b)
                if writable:
                    payload = (rng.normal(size=b.shape) * 100).astype(dtype)
                    expect = base_y.copy()
                    _uncached(maps[0], dict(env, y=expect[off:off + rows]),
                              True).scatter(payload)
                    layout.scatter(env[name], payload)
                    assert np.array_equal(base_y, expect)
        assert len(region._map_cache) <= 64


def test_two_regions_share_one_database(tmp_path):
    db = tmp_path / "shared.rh5"
    log = EventLog()

    @approx_ml(DIRECTIVES.format(db=db, model=tmp_path / "a.rnm"),
               name="alpha", event_log=log)
    def alpha(x, y, N, flag=False):
        y[:N] = x[:N].sum(axis=1)

    @approx_ml(DIRECTIVES.format(db=db, model=tmp_path / "b.rnm"),
               name="beta", event_log=log)
    def beta(x, y, N, flag=False):
        y[:N] = x[:N].prod(axis=1)

    x = np.random.default_rng(1).normal(size=(6, 2))
    alpha(x, np.zeros(6), 6)
    alpha.flush()
    beta(x, np.zeros(6), 6)
    beta.flush()

    xa, ya, _ = load_training_data(db, "alpha")
    xb, yb, _ = load_training_data(db, "beta")
    np.testing.assert_allclose(ya[:, 0], x.sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(yb[:, 0], x.prod(axis=1), atol=1e-12)


def test_region_repr_and_flush_idempotent(tmp_path):
    region = make_region(tmp_path / "d.rh5", tmp_path / "m.rnm")
    assert "region" in repr(region)
    region(np.ones((3, 2)), np.zeros(3), 3)
    region.flush()
    region.flush()
    region.close()
    region.close()
