"""Fig. 4 pipeline: symbolic shape extraction/resolution, tensor wrapping.

Given an analyzed functor, a target ndarray, and the concrete sweep
ranges bound to each symbolic constant, this module realizes each RHS
slice as a **zero-copy strided view** of application memory:

1. *Symbolic shape extraction* — per RHS slice, compute the base index
   in every array dimension (the paper's per-dimension offsets) and the
   element count each dimension contributes.
2. *Symbolic shape resolution* — derive the view's shape: one **sweep
   dim** per symbolic constant (extent = number of sweep points) plus
   one **window dim** per range sub-slice (extent = its constant width).
3. *Tensor wrapping* — materialize the view via NumPy strides over the
   original buffer: stride of a sweep dim is the sum over array dims of
   ``array_stride[d] * coeff * sweep_step``; no data is copied.

Composition (concatenating RHS views into the LHS tensor) lives in
:mod:`repro.bridge.tensor_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..directives.ast_nodes import LinearForm
from ..directives.semantic import AnalyzedFunctor, AnalyzedSlice

__all__ = ["SweepRange", "SliceLayout", "SliceView", "BridgeError",
           "slice_layout", "sweep_shape"]


class BridgeError(RuntimeError):
    """Raised when a functor cannot be applied to the given memory."""


class EmptySweep(BridgeError):
    """A sweep range of no entries (``lo == hi``)."""


@dataclass(frozen=True)
class SweepRange:
    """Concrete range bound to one symbolic constant: ``lo:hi:step``."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self):
        if self.step <= 0:
            raise BridgeError(f"sweep step must be positive: {self.step}")
        if self.hi <= self.lo:
            raise (EmptySweep if self.hi == self.lo else BridgeError)(
                f"empty sweep range [{self.lo}:{self.hi}]")

    @property
    def count(self) -> int:
        return (self.hi - self.lo + self.step - 1) // self.step


def sweep_shape(ranges: list[SweepRange]) -> tuple:
    return tuple(r.count for r in ranges)


@dataclass(frozen=True)
class SliceLayout:
    """Where one RHS slice lives inside arrays of one geometry.

    The resolved form of the Fig. 4 pipeline for a fixed
    ``(shape, strides)``: the strided view's ``shape``/``strides``/byte
    ``offset``, bounds-checked once.  :meth:`bind` re-fills it with a
    buffer — the per-call half of tensor wrapping.
    """

    shape: tuple
    strides: tuple
    offset: int
    sweep_dims: int
    window_shape: tuple
    feature_count: int

    def view_of(self, array: np.ndarray, writable: bool = False) -> np.ndarray:
        """The strided view of ``array`` (of the geometry this layout
        was built for) — the whole per-call cost of tensor wrapping."""
        # Positional: np.ndarray parses keyword arguments ~3x slower.
        view = np.ndarray(self.shape, array.dtype, array, self.offset,
                          self.strides)
        if not writable:
            view.setflags(False)
        return view

    def bind(self, array: np.ndarray, writable: bool = False) -> "SliceView":
        """:meth:`view_of` wrapped as a :class:`SliceView`."""
        return SliceView(self.view_of(array, writable), self.sweep_dims,
                         self.window_shape)


@dataclass
class SliceView:
    """One RHS slice wrapped over application memory.

    ``view`` has shape ``sweep_shape + window_shape``; it aliases the
    target array (no copy).  ``window_shape`` flattens to the slice's
    feature contribution.
    """

    view: np.ndarray
    sweep_dims: int
    window_shape: tuple

    @property
    def feature_count(self) -> int:
        n = 1
        for w in self.window_shape:
            n *= w
        return n


def _eval_at_minimum(form: LinearForm, bindings: dict) -> int:
    """Evaluate a linear form with every symbol at its sweep minimum."""
    value = form.const
    for sym, coeff in form.coeffs:
        value += coeff * bindings[sym].lo
    return value


def slice_layout(array: np.ndarray, analyzed: AnalyzedSlice,
                 symbols: tuple, bindings: dict) -> SliceLayout:
    """Resolve one RHS slice against ``array``'s geometry.

    Reads only ``array.shape``/``strides``/contiguity — the result holds
    no reference to the buffer and is valid for every array that shares
    them.

    Parameters
    ----------
    array:
        Target application array (must be C-contiguous so the buffer
        can be re-wrapped; scientific application state arrays are).
    analyzed:
        The semantic analysis of the RHS slice.
    symbols:
        Functor symbol order (defines sweep-dim order).
    bindings:
        ``{symbol: SweepRange}`` from the map target's cs-specifier.
    """
    if len(analyzed.dims) != array.ndim:
        raise BridgeError(
            f"RHS slice has {len(analyzed.dims)} dims but target array has "
            f"{array.ndim}")
    if not array.flags.c_contiguous:
        raise BridgeError("target array must be C-contiguous")
    missing = [s for s in symbols if s not in bindings]
    if missing:
        raise BridgeError(f"unbound symbolic constants: {missing}")

    ndim = array.ndim
    # base index per array dim (symbolic shape extraction)
    base = [0] * ndim
    # sweep stride contributions: per symbol, per array dim, index step
    sweep_steps = {s: [0] * ndim for s in symbols}
    window_dims: list[tuple[int, int]] = []  # (array_dim, extent, step) triples

    for d, dim in enumerate(analyzed.dims):
        base[d] = _eval_at_minimum(dim.start, bindings)
        for sym, coeff in dim.start.coeffs:
            sweep_steps[sym][d] += coeff * bindings[sym].step
        if not dim.is_point:
            window_dims.append((d, dim.extent, dim.step))

    # Symbolic shape resolution: view shape and index-space strides.
    shape: list[int] = []
    index_steps: list[list[int]] = []  # per view dim: array-index advance per dim
    for sym in symbols:
        rng = bindings[sym]
        shape.append(rng.count)
        index_steps.append(sweep_steps[sym])
    window_shape: list[int] = []
    for d, extent, step in window_dims:
        steps = [0] * ndim
        steps[d] = step
        shape.append(extent)
        index_steps.append(steps)
        window_shape.append(extent)

    # Bounds validation per array dim (precise min/max reachable index).
    for d in range(ndim):
        lo = hi = base[d]
        for v, dim_shape in enumerate(shape):
            reach = (dim_shape - 1) * index_steps[v][d]
            if reach < 0:
                lo += reach
            else:
                hi += reach
        if lo < 0 or hi >= array.shape[d]:
            raise BridgeError(
                f"slice sweeps array dim {d} over indices [{lo}, {hi}] "
                f"outside [0, {array.shape[d]})")

    strides = tuple(
        sum(array.strides[d] * index_steps[v][d] for d in range(ndim))
        for v in range(len(shape)))
    offset = sum(base[d] * array.strides[d] for d in range(ndim))
    return SliceLayout(shape=tuple(shape), strides=strides, offset=offset,
                       sweep_dims=len(symbols),
                       window_shape=tuple(window_shape),
                       feature_count=math.prod(window_shape))
