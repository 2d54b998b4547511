"""Tensor mapping: memory concretization, composition, and scatter-back.

Implements the ``tensor map`` semantics of §III/IV: applying a functor
to application memory sweeps the symbolic constants over the concrete
ranges of the map target (*memory concretization*), wraps each RHS
slice as a strided view (:mod:`repro.bridge.slices`), and — for the
``to`` direction — performs *tensor composition*: flattening window
dims and concatenating the RHS views along the feature axis to build
the single LHS tensor.  The ``from`` direction reverses the flow,
scattering a model-output tensor back into application memory through
the same (writable) views without composition, exactly as §IV-A notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..directives.ast_nodes import SliceSpec, TensorMapDirective
from ..directives.parser import parse_directive
from ..directives.semantic import SemanticError, linearize
from .functor import TensorFunctor
from .slices import (BridgeError, SliceView, SweepRange, slice_layout,
                     sweep_shape)

__all__ = ["ConcretizedMap", "MapLayout", "concretize", "evaluate_ranges",
           "MapSpec", "parse_map"]


def evaluate_ranges(spec: SliceSpec, env: dict) -> list[SweepRange]:
    """Evaluate a cs-specifier against declared integer variables.

    E.g. ``[1:N-1, 1:M-1]`` with ``env={'N': 64, 'M': 32}`` yields
    ``[SweepRange(1, 63), SweepRange(1, 31)]``.
    """
    # The region environment also carries arrays and flags; only plain
    # integers participate in slice arithmetic.
    env = {k: int(v) for k, v in env.items()
           if isinstance(v, (int, np.integer))}
    ranges = []
    for sl in spec.slices:
        if sl.is_point:
            raise BridgeError(f"map target dims must be ranges, got point "
                              f"access at {sl.loc}")
        lo = linearize(sl.start, env)
        hi = linearize(sl.stop, env)
        step = linearize(sl.step, env) if sl.step is not None else None
        if not lo.is_constant() or not hi.is_constant() or \
                (step is not None and not step.is_constant()):
            unresolved = set(lo.symbols) | set(hi.symbols) | \
                (set(step.symbols) if step is not None else set())
            raise BridgeError(
                f"map target range uses undeclared variables {sorted(unresolved)}")
        ranges.append(SweepRange(lo.const, hi.const,
                                 step.const if step is not None else 1))
    return ranges


@dataclass(frozen=True)
class MapSpec:
    """A parsed+validated ``tensor map`` directive bound to a functor."""

    direction: str            # 'to' | 'from'
    functor: TensorFunctor
    array_name: str
    target_spec: SliceSpec


def parse_map(source: str, functors: dict) -> list[MapSpec]:
    """Parse a ``tensor map`` directive; resolve its functor by name.

    Returns one :class:`MapSpec` per map target (the grammar allows a
    target list).
    """
    node = parse_directive(source)
    if not isinstance(node, TensorMapDirective):
        raise TypeError(f"expected a tensor map directive, got "
                        f"{type(node).__name__}")
    functor = functors.get(node.functor)
    if functor is None:
        raise SemanticError(f"tensor map references undeclared functor "
                            f"{node.functor!r}")
    if not isinstance(functor, TensorFunctor):
        functor = TensorFunctor.from_analyzed(functor)
    return [MapSpec(direction=node.direction, functor=functor,
                    array_name=t.array, target_spec=t.spec)
            for t in node.targets]


def _check_out(out, shape: tuple) -> None:
    """Refuse a gather destination that is not a C-contiguous ndarray of
    ``shape``."""
    if type(out) is not np.ndarray and not isinstance(out, np.ndarray) \
            or out.shape != shape or not out.flags.c_contiguous:
        raise BridgeError(
            f"gather out= must be a C-contiguous ndarray of shape "
            f"{shape}, got {type(out).__name__} of shape "
            f"{getattr(out, 'shape', None)}")


class MapLayout:
    """The geometry half of memory concretization — and its executable.

    Everything a functor applied over concrete ranges needs that does
    not depend on *which* buffer it is applied to: the sweep ranges,
    each RHS slice's view shape/strides/offset
    (:class:`~repro.bridge.slices.SliceLayout`), the composed tensor
    shapes, and the bounds / C-contiguity / feature-count validation.
    It is a pure function of the (resolved) functor, the ranges,
    ``array.shape``, ``array.strides``, ``array.dtype`` and
    ``writable`` and holds no reference to the array it was built from.
    :meth:`gather` and :meth:`scatter` are stateless: they run the
    layout on any array of that geometry, building at most one strided
    view per RHS slice — none for a slice that *is* the array — which
    is the paper's runtime "allocat[ing] the slice descriptors once and
    re-fill[ing] them per call" (§IV-A).
    """

    __slots__ = ("functor", "ranges", "writable", "slices", "sweep_shape",
                 "entry_count", "tensor_shape", "flat_shape", "_part_shapes",
                 "_composed_shape", "_columns", "_whole", "_single",
                 "_alias")

    def __init__(self, functor: TensorFunctor, array: np.ndarray,
                 ranges: list[SweepRange], writable: bool = False):
        if len(ranges) != len(functor.symbols):
            raise BridgeError(
                f"functor {functor.name!r} declares {len(functor.symbols)} "
                f"symbols but {len(ranges)} ranges were supplied")
        self.functor = functor
        self.ranges = list(ranges)
        self.writable = writable
        analyzed = functor.analyzed
        bindings = dict(zip(functor.symbols, ranges))
        self.slices = tuple(
            slice_layout(array, sl, analyzed.symbols, bindings)
            for sl in analyzed.rhs)
        total = sum(sl.feature_count for sl in self.slices)
        if total != functor.total_features:
            raise BridgeError(
                f"composition produced {total} features, LHS declares "
                f"{functor.total_features}")
        sweep = sweep_shape(ranges)
        self.sweep_shape = sweep
        self.entry_count = count = math.prod(sweep)
        #: Shape of the composed LHS tensor: sweep dims + feature dims.
        self.tensor_shape = sweep + functor.feature_shape
        #: Model-facing layout: (batch, *features).
        self.flat_shape = (count,) + functor.feature_shape
        self._part_shapes = tuple(sweep + (sl.feature_count,)
                                  for sl in self.slices)
        self._composed_shape = sweep + (total,)
        #: Each RHS slice's column span of the composed feature axis.
        columns, offset = [], 0
        for sl in self.slices:
            columns.append(slice(offset, offset + sl.feature_count))
            offset += sl.feature_count
        self._columns = tuple(columns)
        #: Per slice: the slice *is* the array, so no view is built.
        self._whole = tuple(
            sl.offset == 0 and sl.shape == array.shape
            and sl.strides == array.strides for sl in self.slices)
        #: The lone RHS slice (no column split), else ``None``; and
        #: whether it is C-contiguous, i.e. the composed tensor is
        #: application memory itself and a plain gather copies nothing.
        self._single = self.slices[0] if len(self.slices) == 1 else None
        self._alias = self._single is not None and \
            self._single.view_of(array).flags.c_contiguous

    @property
    def alias_offset(self):
        """Offset of the view a gather without ``out`` is (None: a copy)."""
        return self._single.offset if self._alias else None

    def _views(self, array: np.ndarray) -> list:
        """One strided view of ``array`` per RHS slice (``array`` itself
        where the slice covers it)."""
        dtype = array.dtype
        # Positional: np.ndarray parses keyword arguments ~3x slower.
        return [array if whole else
                np.ndarray(sl.shape, dtype, array, sl.offset, sl.strides)
                for sl, whole in zip(self.slices, self._whole)]

    # -- to-direction ----------------------------------------------------------
    def gather(self, array: np.ndarray, out: np.ndarray | None = None,
               flatten_batch: bool = True) -> np.ndarray:
        """Compose the LHS tensor from ``array`` (the one copy).

        ``array`` must have the shape, strides and dtype of the array
        the layout was built from; callers key their layout caches on
        exactly that.  The result is ``(batch, *features)`` — the layout
        inference engines consume — or, with ``flatten_batch=False``,
        keeps the sweep dims.

        Without ``out``, a functor whose single RHS slice is contiguous
        copies nothing: the result is a **read-only view** of
        ``array``.  Every other result is a fresh array that aliases
        nothing.

        ``out`` makes the one copy land in caller-owned memory (a row
        of a batch being assembled for a stacked forward) instead: it
        must be C-contiguous and have exactly the shape this call would
        return; values are cast to its dtype the way ``ndarray.astype``
        would, so the contents equal ``gather(array).astype(out.dtype)``
        bit for bit.  ``out`` itself is returned.
        """
        shape = self.flat_shape if flatten_batch else self.tensor_shape
        single = self._single
        if out is None:
            if self._alias:
                view = np.ndarray(shape, array.dtype, array, single.offset)
                view.setflags(False)
                return view
            out = np.empty(shape, array.dtype)
        else:
            _check_out(out, shape)
        # ``out`` is C-contiguous, so these reshapes are views of it.
        if single is not None:     # no column split: one strided copy
            dst = out if shape == single.shape else out.reshape(single.shape)
            dst[...] = array if self._whole[0] else self._views(array)[0]
            return out
        composed = out if shape == self._composed_shape \
            else out.reshape(self._composed_shape)
        for view, part, columns in zip(self._views(array),
                                       self._part_shapes, self._columns):
            composed[..., columns] = view.reshape(part)
        return out

    def destination(self, out: np.ndarray):
        """The view of ``out`` (checked as :meth:`gather`'s ``out=``)
        that a gather of any array of this geometry lands in as one
        plain whole-array copy, ``dst[...] = array`` — or ``None`` when
        the gather takes more (a strided view or a column split).  A
        caller composing many calls into the same rows (a fleet
        member's rows of a staging batch) keeps it and copies."""
        single = self._single
        if single is None or not self._whole[0]:
            return None
        _check_out(out, self.flat_shape)
        return out if out.shape == single.shape \
            else out.reshape(single.shape)

    # -- from-direction -----------------------------------------------------------
    def scatter(self, array: np.ndarray, tensor: np.ndarray) -> None:
        """Write an LHS-shaped (or batch-flattened) tensor into
        ``array`` (of this layout's geometry) — no composition step."""
        if not self.writable:
            raise BridgeError("scatter requires a writable (from-direction) map")
        if type(tensor) is not np.ndarray:
            tensor = np.asarray(tensor)
        shape = tensor.shape
        if shape != self.flat_shape and shape != self.tensor_shape and \
                shape != (self.entry_count, self._composed_shape[-1]):
            raise BridgeError(
                f"scatter tensor shape {shape} matches neither LHS "
                f"shape {self.tensor_shape} nor batch shape "
                f"{self.flat_shape}")
        single = self._single
        if single is not None:     # no column split: one strided copy
            dst = array if self._whole[0] else self._views(array)[0]
            dst[...] = tensor if shape == single.shape \
                else tensor.reshape(single.shape)
            return
        flat = tensor.reshape(self._composed_shape)
        for view, sl, columns in zip(self._views(array), self.slices,
                                     self._columns):
            view[...] = flat[..., columns].reshape(sl.shape)

    def bind(self, array: np.ndarray) -> "ConcretizedMap":
        """Pair the layout with ``array`` (same geometry contract as
        :meth:`gather`)."""
        cm = ConcretizedMap.__new__(ConcretizedMap)
        cm.layout = self
        cm.array = array
        return cm


class ConcretizedMap:
    """A functor applied to one concrete array over concrete ranges.

    A :class:`MapLayout` paired with a buffer.  The ``to`` direction
    uses :meth:`gather` → LHS tensor (one copy, at composition).  The
    ``from`` direction uses :meth:`scatter` to write a tensor back
    through writable views (no composition step).
    """

    __slots__ = ("layout", "array")

    def __init__(self, functor: TensorFunctor, array: np.ndarray,
                 ranges: list[SweepRange], writable: bool = False):
        self.layout = MapLayout(functor, array, ranges, writable)
        self.array = array

    # -- wrapping -----------------------------------------------------------
    def views(self) -> list[SliceView]:
        """The tensor-wrapped RHS slices (zero-copy)."""
        return [sl.bind(self.array, self.layout.writable)
                for sl in self.layout.slices]

    def gather(self, flatten_batch: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`MapLayout.gather` of the bound array; by default the
        sweep dims are kept (``flatten_batch`` collapses them into the
        batch axis)."""
        return self.layout.gather(self.array, out, flatten_batch)

    def scatter(self, tensor: np.ndarray) -> None:
        """:meth:`MapLayout.scatter` into the bound array."""
        self.layout.scatter(self.array, tensor)


def concretize(functor: TensorFunctor, array: np.ndarray,
               ranges: list[SweepRange] | SliceSpec, env: dict | None = None,
               writable: bool = False) -> ConcretizedMap:
    """Memory concretization: bind a functor to memory and sweep ranges.

    ``ranges`` is either explicit :class:`SweepRange` objects or a
    cs-specifier AST evaluated against ``env``.  Deferred integer
    variables in the functor (e.g. ``0:H``) resolve against ``env`` —
    the same binding a compiler performs for program variables.
    """
    if isinstance(ranges, SliceSpec):
        ranges = evaluate_ranges(ranges, env or {})
    if not functor.analyzed.resolved:
        int_env = {k: int(v) for k, v in (env or {}).items()
                   if isinstance(v, (int, np.integer))}
        functor = TensorFunctor.from_analyzed(functor.analyzed.resolve(int_env))
    return ConcretizedMap(functor, array, list(ranges), writable=writable)
