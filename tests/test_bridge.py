"""Data bridge: Fig. 4 pipeline — views, composition, scatter, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bridge import (BridgeError, ConcretizedMap, SweepRange,
                          TensorFunctor, concretize, evaluate_ranges,
                          parse_map)
from repro.directives.parser import parse_directive


def functor(src: str) -> TensorFunctor:
    return TensorFunctor.parse(f"#pragma approx tensor functor({src})")


# ----------------------------------------------------------------------
# SweepRange / evaluate_ranges
# ----------------------------------------------------------------------

def test_sweep_range_count():
    assert SweepRange(0, 10).count == 10
    assert SweepRange(1, 10, 2).count == 5
    assert SweepRange(0, 7, 3).count == 3


def test_sweep_range_validation():
    with pytest.raises(BridgeError):
        SweepRange(5, 5)
    with pytest.raises(BridgeError):
        SweepRange(0, 4, 0)


def test_evaluate_ranges_with_env():
    node = parse_directive("#pragma approx tensor map(to: f(t[1:N-1, 0:M:2]))")
    ranges = evaluate_ranges(node.targets[0].spec, {"N": 10, "M": 8})
    assert (ranges[0].lo, ranges[0].hi) == (1, 9)
    assert ranges[1].step == 2


def test_evaluate_ranges_unresolved():
    node = parse_directive("#pragma approx tensor map(to: f(t[0:Q]))")
    with pytest.raises(BridgeError):
        evaluate_ranges(node.targets[0].spec, {})


def test_evaluate_ranges_ignores_non_int_env():
    node = parse_directive("#pragma approx tensor map(to: f(t[0:N]))")
    env = {"N": 4, "t": np.zeros(4), "flag": True}
    ranges = evaluate_ranges(node.targets[0].spec, env)
    assert ranges[0].hi == 4


# ----------------------------------------------------------------------
# Gather: identity, stencil, window, stride
# ----------------------------------------------------------------------

def test_identity_gather_1d():
    f = functor("f: [i, 0:3] = ([i, 0:3])")
    arr = np.arange(12.0).reshape(4, 3)
    out = concretize(f, arr, [SweepRange(0, 4)]).gather()
    np.testing.assert_array_equal(out, arr)


def test_gather_is_zero_copy_until_composition():
    f = functor("f: [i, 0:3] = ([i, 0:3])")
    arr = np.arange(12.0).reshape(4, 3)
    cm = concretize(f, arr, [SweepRange(0, 4)])
    views = cm.views()
    assert all(v.view.base is not None for v in views)   # aliases arr
    arr[0, 0] = 99.0
    assert views[0].view[0, 0] == 99.0                   # sees the write


def test_stencil_gather_offsets():
    f = functor("st: [i, 0:2] = ([i-1], [i+1])")
    arr = np.arange(10.0)
    out = concretize(f, arr, [SweepRange(1, 9)]).gather()
    assert out.shape == (8, 2)
    np.testing.assert_array_equal(out[:, 0], arr[0:8])
    np.testing.assert_array_equal(out[:, 1], arr[2:10])


def test_window_gather():
    f = functor("w: [i, 0:3] = ([i-1:i+2])")
    arr = np.arange(8.0)
    out = concretize(f, arr, [SweepRange(1, 7)]).gather()
    for k, i in enumerate(range(1, 7)):
        np.testing.assert_array_equal(out[k], arr[i - 1:i + 2])


def test_strided_sweep():
    f = functor("f: [i, 0:1] = ([i]))".rstrip(")") + ")")
    arr = np.arange(10.0)
    out = concretize(f, arr, [SweepRange(0, 10, 3)]).gather()
    np.testing.assert_array_equal(out[:, 0], arr[::3])


def test_2d_stencil_fig2():
    f = functor("ifn: [i, j, 0:5] = ([i-1, j], [i+1, j], [i, j-1:j+2])")
    N, M = 6, 7
    arr = np.arange(float(N * M)).reshape(N, M)
    out = concretize(f, arr, [SweepRange(1, N - 1),
                              SweepRange(1, M - 1)]).gather()
    assert out.shape == (N - 2, M - 2, 5)
    i, j = 2, 3
    np.testing.assert_array_equal(
        out[i - 1, j - 1],
        [arr[i - 1, j], arr[i + 1, j], arr[i, j - 1], arr[i, j],
         arr[i, j + 1]])


def test_gather_flatten_batch():
    f = functor("f: [i, j, 0:1] = ([i, j])")
    arr = np.arange(12.0).reshape(3, 4)
    cm = concretize(f, arr, [SweepRange(0, 3), SweepRange(0, 4)])
    flat = cm.gather(flatten_batch=True)
    assert flat.shape == (12, 1)
    np.testing.assert_array_equal(flat[:, 0], arr.ravel())


def test_deferred_variable_functor_gather():
    f = functor("fr: [t, 0:1, 0:H, 0:W] = ([t, 0:H, 0:W])")
    frames = np.arange(2 * 3 * 4.0).reshape(2, 3, 4)
    cm = concretize(f, frames, [SweepRange(0, 2)], env={"H": 3, "W": 4})
    out = cm.gather(flatten_batch=True)
    assert out.shape == (2, 1, 3, 4)
    np.testing.assert_array_equal(out[:, 0], frames)


def test_diagonal_access():
    """Two dims driven by the same symbol: matrix diagonal."""
    f = functor("d: [i, 0:1] = ([i, i])")
    arr = np.arange(16.0).reshape(4, 4)
    out = concretize(f, arr, [SweepRange(0, 4)]).gather()
    np.testing.assert_array_equal(out[:, 0], np.diag(arr))


# ----------------------------------------------------------------------
# Bounds and validation
# ----------------------------------------------------------------------

def test_out_of_bounds_detected():
    f = functor("st: [i, 0:2] = ([i-1], [i+1])")
    arr = np.arange(10.0)
    with pytest.raises(BridgeError):
        concretize(f, arr, [SweepRange(0, 9)]).gather()   # i-1 -> -1
    with pytest.raises(BridgeError):
        concretize(f, arr, [SweepRange(1, 10)]).gather()  # i+1 -> 10


def test_rank_mismatch():
    f = functor("f: [i, 0:1] = ([i]))".rstrip(")") + ")")
    with pytest.raises(BridgeError):
        concretize(f, np.zeros((3, 3)), [SweepRange(0, 3)]).gather()


def test_range_count_mismatch():
    f = functor("f: [i, j, 0:1] = ([i, j])")
    with pytest.raises(BridgeError):
        ConcretizedMap(f, np.zeros((3, 3)), [SweepRange(0, 3)])


def test_non_contiguous_rejected():
    f = functor("f: [i, 0:1] = ([i]))".rstrip(")") + ")")
    arr = np.arange(20.0)[::2]
    with pytest.raises(BridgeError):
        concretize(f, arr, [SweepRange(0, 5)]).gather()


# ----------------------------------------------------------------------
# Scatter (from-direction)
# ----------------------------------------------------------------------

def test_scatter_roundtrip():
    f = functor("f: [i, j, 0:1] = ([i, j])")
    src = np.random.default_rng(0).normal(size=(4, 5))
    dst = np.zeros((6, 7))
    cm = concretize(f, dst, [SweepRange(1, 5), SweepRange(1, 6)],
                    writable=True)
    cm.scatter(src.reshape(4, 5, 1))
    np.testing.assert_array_equal(dst[1:5, 1:6], src)
    assert dst[0].sum() == 0 and dst[5].sum() == 0


def test_scatter_accepts_flat_batch():
    f = functor("f: [i, 0:2] = ([i, 0:2])")
    dst = np.zeros((3, 2))
    cm = concretize(f, dst, [SweepRange(0, 3)], writable=True)
    cm.scatter(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(dst, np.arange(6.0).reshape(3, 2))


def test_scatter_multi_slice_feature_split():
    f = functor("f: [i, 0:2] = ([i, 0], [i, 1])")
    dst = np.zeros((4, 2))
    cm = concretize(f, dst, [SweepRange(0, 4)], writable=True)
    tensor = np.stack([np.arange(4.0), np.arange(4.0) * 10], axis=1)
    cm.scatter(tensor.reshape(4, 2))
    np.testing.assert_array_equal(dst[:, 0], np.arange(4.0))
    np.testing.assert_array_equal(dst[:, 1], np.arange(4.0) * 10)


def test_scatter_requires_writable():
    f = functor("f: [i, 0:1] = ([i]))".rstrip(")") + ")")
    cm = concretize(f, np.zeros(4), [SweepRange(0, 4)])
    with pytest.raises(BridgeError):
        cm.scatter(np.zeros((4, 1)))


def test_scatter_shape_mismatch():
    f = functor("f: [i, 0:1] = ([i]))".rstrip(")") + ")")
    cm = concretize(f, np.zeros(4), [SweepRange(0, 4)], writable=True)
    with pytest.raises(BridgeError):
        cm.scatter(np.zeros((5, 1)))


def test_gather_scatter_inverse_property():
    """scatter(gather(x)) restores x on the swept region."""
    f = functor("ifn: [i, j, 0:5] = ([i-1, j], [i+1, j], [i, j-1:j+2])")
    g = functor("ofn: [i, j, 0:5] = ([i-1, j], [i+1, j], [i, j-1:j+2])")
    # Use a functor whose slices don't overlap for exact inversion:
    f2 = functor("p: [i, j, 0:1] = ([i, j])")
    arr = np.random.default_rng(1).normal(size=(5, 5))
    gathered = concretize(f2, arr, [SweepRange(0, 5),
                                    SweepRange(0, 5)]).gather()
    dst = np.zeros_like(arr)
    concretize(f2, dst, [SweepRange(0, 5), SweepRange(0, 5)],
               writable=True).scatter(gathered)
    np.testing.assert_array_equal(dst, arr)


# ----------------------------------------------------------------------
# parse_map
# ----------------------------------------------------------------------

def test_parse_map_resolves_functor():
    f = functor("fi: [i, 0:3] = ([i, 0:3])")
    specs = parse_map("#pragma approx tensor map(to: fi(x[0:N]))",
                      {"fi": f})
    assert len(specs) == 1
    assert specs[0].direction == "to"
    assert specs[0].array_name == "x"


def test_parse_map_unknown_functor():
    from repro.directives import SemanticError
    with pytest.raises(SemanticError):
        parse_map("#pragma approx tensor map(to: nope(x[0:N]))", {})


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

@given(n=st.integers(4, 40), lo=st.integers(0, 3), step=st.integers(1, 3),
       off=st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_point_slice_gather_property(n, lo, step, off):
    """Property: gathering [i+off] over lo:hi:step equals fancy indexing."""
    hi = n - 3
    if hi <= lo:
        return
    idx = np.arange(lo, hi, step) + off
    if idx.min() < 0 or idx.max() >= n:
        return
    f = functor(f"f: [i, 0:1] = ([i{'+' if off >= 0 else ''}{off}])") \
        if off != 0 else functor("f: [i, 0:1] = ([i])")
    arr = np.arange(float(n))
    out = concretize(f, arr, [SweepRange(lo, hi, step)]).gather()
    np.testing.assert_array_equal(out[:, 0], arr[idx])


@given(rows=st.integers(3, 10), cols=st.integers(3, 10),
       w=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_window_gather_property(rows, cols, w):
    """Property: row windows [j:j+w] match direct slicing everywhere."""
    if cols - w < 1:
        return
    f = functor(f"f: [i, j, 0:{w}] = ([i, j:j+{w}])")
    arr = np.random.default_rng(rows * cols).normal(size=(rows, cols))
    out = concretize(f, arr, [SweepRange(0, rows),
                              SweepRange(0, cols - w)]).gather()
    for i in range(rows):
        for j in range(cols - w):
            np.testing.assert_array_equal(out[i, j], arr[i, j:j + w])


# ----------------------------------------------------------------------
# MapLayout: geometry resolved once, buffers bound per call
# ----------------------------------------------------------------------

def test_layout_binds_fresh_views_of_one_geometry():
    f = functor("st: [i, 0:3] = ([i-1, 0], [i, 0:2])")
    base = np.arange(40.0).reshape(20, 2)
    ranges = [SweepRange(1, 5)]
    layout = concretize(f, base[0:6], ranges).layout
    for off in (0, 3, 14):
        view = base[off:off + 6]
        bound = layout.bind(view)
        assert bound.layout is layout
        np.testing.assert_array_equal(
            bound.gather(), concretize(f, view, ranges).gather())
        assert all(np.shares_memory(sv.view, view) for sv in bound.views())


def test_layout_holds_no_reference_to_its_array():
    import gc
    import weakref
    f = functor("f: [i, 0:2] = ([i, 0:2])")
    arr = np.zeros((4, 2))
    ref = weakref.ref(arr)
    layout = concretize(f, arr, [SweepRange(0, 4)]).layout
    del arr
    gc.collect()
    assert ref() is None
    other = np.ones((4, 2))
    np.testing.assert_array_equal(layout.bind(other).gather(), other)


def test_layout_validates_at_construction():
    """Bounds, rank and contiguity are checked when the layout is built,
    so every later bind is pre-validated."""
    from repro.bridge import MapLayout
    st_f = functor("st: [i, 0:2] = ([i-1], [i+1])")
    with pytest.raises(BridgeError):
        MapLayout(st_f, np.arange(10.0), [SweepRange(0, 9)])
    with pytest.raises(BridgeError):
        MapLayout(st_f, np.arange(20.0)[::2], [SweepRange(1, 9)])
    with pytest.raises(BridgeError):
        MapLayout(st_f, np.zeros((3, 3)), [SweepRange(1, 2)])


@given(rows=st.integers(4, 12), cols=st.integers(2, 5),
       lo=st.integers(0, 2), step=st.integers(1, 3),
       offsets=st.lists(st.integers(0, 20), min_size=1, max_size=4),
       dtype=st.sampled_from([np.float64, np.float32, np.int64]),
       writable=st.booleans())
@settings(max_examples=60, deadline=None)
def test_layout_bind_matches_concretize_property(rows, cols, lo, step,
                                                 offsets, dtype, writable):
    """Property: a layout bound to a fresh view at any offset gathers and
    scatters bit-for-bit like a from-scratch concretization of it."""
    f = functor(f"f: [i, 0:{cols + 1}] = ([i+1, 0], [i, 0:{cols}])")
    ranges = [SweepRange(lo, rows - 1, step)]
    base = (np.random.default_rng(rows * cols).normal(size=(rows + 20, cols))
            * 100).astype(dtype)
    layout = concretize(f, base[:rows], ranges, writable=writable).layout
    for off in offsets:
        view = base[off:off + rows]
        bound = layout.bind(view)
        fresh = concretize(f, view, ranges, writable=writable)
        got = bound.gather(flatten_batch=True)
        want = fresh.gather(flatten_batch=True)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if writable:
            a, b = base.copy(), base.copy()
            payload = (want[::-1] + 1).astype(dtype)
            layout.bind(a[off:off + rows]).scatter(payload)
            concretize(f, b[off:off + rows], ranges,
                       writable=True).scatter(payload)
            assert np.array_equal(a, b)
        else:
            with pytest.raises(BridgeError):
                bound.scatter(want)


# ----------------------------------------------------------------------
# gather(out=): the one copy lands in caller-owned memory
# ----------------------------------------------------------------------

def _case(kind, data):
    """(functor source, array, ranges) for one family of access shapes."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]))
    step = data.draw(st.integers(1, 3))
    if kind == "multi_slice":
        n = data.draw(st.integers(5, 12))
        src, shape = "f: [i, 0:4] = ([i-1, 0], [i, 0:2], [i+1, 1])", (n, 2)
        ranges = [SweepRange(1, n - 1, step)]
    elif kind == "window_1d":
        n, w = data.draw(st.integers(6, 14)), data.draw(st.integers(1, 4))
        src, shape = f"f: [i, 0:{w}] = ([i:i+{w}])", (n,)
        ranges = [SweepRange(0, n - w, step)]
    elif kind == "window_2d":
        n, m = data.draw(st.integers(4, 8)), data.draw(st.integers(4, 8))
        src = "f: [i, j, 0:2, 0:3] = ([i:i+2, j:j+3])"
        shape = (n, m)
        ranges = [SweepRange(0, n - 1, step), SweepRange(0, m - 2)]
    elif kind == "window_3d":
        n = data.draw(st.integers(3, 6))
        src = "f: [i, 0:2, 0:2, 0:3] = ([i:i+2, 0:2, 1:4])"
        shape = (n, 2, 4)
        ranges = [SweepRange(0, n - 1, step)]
    else:                                  # window_4d: MiniWeather-shaped
        n = data.draw(st.integers(2, 4))
        src = "f: [b, 0:2, 0:3, 0:4] = ([b, 0:2, 0:3, 0:4])"
        shape = (n, 2, 3, 4)
        ranges = [SweepRange(0, n, step)]
    arr = (rng.normal(size=shape) * 100).astype(dtype)
    return functor(src), arr, ranges


@given(kind=st.sampled_from(["multi_slice", "window_1d", "window_2d",
                             "window_3d", "window_4d"]),
       flatten=st.booleans(),
       out_dtype=st.sampled_from([None, np.float64, np.float32]),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_gather_out_matches_plain_gather_property(kind, flatten, out_dtype,
                                                  data):
    """Property: ``gather(out=dst)`` fills ``dst`` — a row of a larger
    batch, as the fleet engine hands it in — with exactly the bytes a
    plain ``gather()`` returns (cast like ``astype`` when the dtypes
    differ), returns ``dst`` itself and touches nothing around it; and
    scattering the round trip restores the source."""
    f, arr, ranges = _case(kind, data)
    cm = concretize(f, arr, ranges, writable=True)
    want = cm.gather(flatten_batch=flatten)
    dtype = np.dtype(out_dtype) if out_dtype is not None else want.dtype
    slab = np.full((3, want.shape[0] + 2) + want.shape[1:], 7, dtype=dtype)
    dst = slab[1, :want.shape[0]]
    got = cm.gather(flatten_batch=flatten, out=dst)
    assert got is dst
    assert np.array_equal(dst, want.astype(dtype))
    probe = slab.copy()
    probe[1, :want.shape[0]] = 7
    assert np.all(probe == 7)                       # neighbours untouched

    if dtype == want.dtype:
        source = arr.copy()
        arr[...] = 0
        cm.scatter(dst)
        # Every element a view reaches is restored; the rest stay zero.
        reached = np.zeros(arr.shape, dtype=bool)
        mask = concretize(f, reached, ranges, writable=True)
        mask.scatter(np.ones(want.shape, dtype=bool))
        assert np.array_equal(arr[reached], source[reached])
        assert not arr[~reached].any()


def test_gather_out_rejects_wrong_shape_strided_and_non_arrays():
    f = functor("f: [i, 0:3] = ([i, 0:3])")
    cm = concretize(f, np.arange(12.0).reshape(4, 3), [SweepRange(0, 4)])
    with pytest.raises(BridgeError, match="C-contiguous ndarray of shape"):
        cm.gather(out=np.zeros((4, 2)))
    with pytest.raises(BridgeError, match="C-contiguous"):
        cm.gather(out=np.zeros((4, 6))[:, ::2])         # right shape, strided
    with pytest.raises(BridgeError, match="got list"):
        cm.gather(out=[[0.0] * 3] * 4)
    # The two layouts of one call have different shapes: each is checked
    # against the shape *that* call returns.
    g = functor("g: [i, j, 0:1] = ([i, j])")
    cm2 = concretize(g, np.zeros((2, 3)), [SweepRange(0, 2), SweepRange(0, 3)])
    assert cm2.gather(out=np.ones((2, 3, 1))).sum() == 0.0
    assert cm2.gather(True, np.ones((6, 1))).sum() == 0.0
    with pytest.raises(BridgeError):
        cm2.gather(flatten_batch=True, out=np.ones((2, 3, 1)))


# ----------------------------------------------------------------------
# MapLayout.gather / scatter: the stateless lowering of a bound map
# ----------------------------------------------------------------------

def _reference_gather(layout, array, flatten):
    """A bound map's gather as it was written before it was lowered
    onto the layout: one strided view per RHS slice, each flattened to
    ``sweep + (features,)``, concatenated along the feature axis."""
    views = [sl.view_of(array, layout.writable) for sl in layout.slices]
    parts = [view.reshape(layout.sweep_shape + (sl.feature_count,))
             for view, sl in zip(views, layout.slices)]
    composed = np.ascontiguousarray(parts[0]) if len(parts) == 1 \
        else np.concatenate(parts, axis=-1)
    return composed.reshape(layout.flat_shape if flatten
                            else layout.tensor_shape)


def _reference_scatter(layout, array, tensor):
    flat = np.asarray(tensor).reshape(layout.sweep_shape + (-1,))
    offset = 0
    for sl in layout.slices:
        view = sl.view_of(array, True)
        view[...] = flat[..., offset:offset + sl.feature_count].reshape(
            view.shape)
        offset += sl.feature_count


@given(kind=st.sampled_from(["multi_slice", "window_1d", "window_2d",
                             "window_3d", "window_4d"]),
       flatten=st.booleans(), offset=st.integers(0, 3),
       out_dtype=st.sampled_from([np.float64, np.float32]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_layout_gather_scatter_match_the_bound_map_property(
        kind, flatten, offset, out_dtype, data):
    """Differential property: a layout run on any array of its geometry
    — here a view at an offset into a larger buffer, not the array it
    was built from — gathers (plain and ``out=``) and scatters bit for
    bit like the per-call bound views did, over multi-slice, strided
    and 1-4-D window functors; a plain gather that aliases application
    memory is a read-only view exactly where the bound map's was, and
    one that copies aliases nothing."""
    f, arr, ranges = _case(kind, data)
    pad = np.full((offset,) + arr.shape[1:], 99, dtype=arr.dtype)
    base = np.concatenate([pad, arr, pad])
    view = base[offset:offset + len(arr)]
    layout = concretize(f, arr, ranges, writable=True).layout

    want = _reference_gather(layout, view, flatten)
    got = layout.gather(view, None, flatten)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and np.array_equal(got, want)
    aliases = np.shares_memory(got, base)
    assert aliases == np.shares_memory(want, base)
    assert got.flags.writeable != aliases
    assert np.array_equal(
        concretize(f, view, ranges).gather(flatten_batch=flatten), want)

    slab = np.full((3, want.shape[0] + 2) + want.shape[1:], 7,
                   dtype=out_dtype)
    dst = slab[1, :want.shape[0]]
    assert layout.gather(view, dst, flatten) is dst
    assert np.array_equal(dst, want.astype(out_dtype))
    dst[...] = 7
    assert np.all(slab == 7)                        # neighbours untouched
    for bad in (np.zeros(want.shape[:-1] + (want.shape[-1] + 1,)),
                np.zeros(want.shape + (2,))[..., 0], want.tolist()):
        with pytest.raises(BridgeError, match="gather out= must be"):
            layout.gather(view, bad, flatten)

    rng = np.random.default_rng(offset)
    for shape in (layout.tensor_shape, layout.flat_shape,
                  (layout.entry_count, layout.functor.total_features)):
        payload = (rng.normal(size=shape) * 100).astype(arr.dtype)
        expect = base.copy()
        _reference_scatter(layout, expect[offset:offset + len(arr)], payload)
        layout.scatter(view, payload)
        assert np.array_equal(base, expect)
    with pytest.raises(BridgeError, match="matches neither"):
        layout.scatter(view, np.zeros(layout.flat_shape + (2,)))
    with pytest.raises(BridgeError, match="writable"):
        concretize(f, arr, ranges).layout.scatter(view, want)
    frozen = view.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        layout.scatter(frozen, want)
