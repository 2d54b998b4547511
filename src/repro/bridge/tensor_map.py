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


class MapLayout:
    """The geometry half of memory concretization.

    Everything a functor applied over concrete ranges needs that does
    not depend on *which* buffer it is applied to: the sweep ranges,
    each RHS slice's view shape/strides/offset
    (:class:`~repro.bridge.slices.SliceLayout`), the composed tensor
    shapes, and the bounds / C-contiguity / feature-count validation.
    It is a pure function of the (resolved) functor, the ranges,
    ``array.shape``, ``array.strides``, ``array.dtype`` and
    ``writable``, holds no reference to the array it was built from,
    and :meth:`bind` re-fills it with any array of that geometry at the
    cost of one ``np.ndarray`` per RHS slice (the paper's runtime
    "allocates the slice descriptors once and re-fills them per call",
    §IV-A).
    """

    __slots__ = ("functor", "ranges", "writable", "slices", "sweep_shape",
                 "entry_count", "tensor_shape", "flat_shape", "_part_shapes",
                 "_window_shapes", "_composed_shape", "_columns")

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
        self._window_shapes = tuple(sweep + sl.window_shape
                                    for sl in self.slices)
        self._composed_shape = sweep + (total,)
        #: Each RHS slice's column span of the composed feature axis.
        columns, offset = [], 0
        for sl in self.slices:
            columns.append(slice(offset, offset + sl.feature_count))
            offset += sl.feature_count
        self._columns = tuple(columns)

    def bind(self, array: np.ndarray) -> "ConcretizedMap":
        """Apply the layout to ``array``.

        ``array`` must have the shape, strides and dtype of the array
        the layout was built from; callers key their layout caches on
        exactly that.
        """
        cm = ConcretizedMap.__new__(ConcretizedMap)
        cm.layout = self
        cm.array = array
        writable = self.writable
        cm._arrays = [sl.view_of(array, writable) for sl in self.slices]
        return cm


class ConcretizedMap:
    """A functor applied to one concrete array over concrete ranges.

    A :class:`MapLayout` bound to a buffer.  The ``to`` direction uses
    :meth:`gather` → LHS tensor (one copy, at composition).  The
    ``from`` direction uses :meth:`scatter` to write a tensor back
    through writable views (no composition step).
    """

    __slots__ = ("layout", "array", "_arrays")

    def __init__(self, functor: TensorFunctor, array: np.ndarray,
                 ranges: list[SweepRange], writable: bool = False):
        layout = MapLayout(functor, array, ranges, writable)
        self.layout = layout
        self.array = array
        self._arrays = [sl.view_of(array, writable) for sl in layout.slices]

    # -- geometry (delegated to the layout) ---------------------------------
    @property
    def functor(self) -> TensorFunctor:
        return self.layout.functor

    @property
    def ranges(self) -> list:
        return self.layout.ranges

    @property
    def writable(self) -> bool:
        return self.layout.writable

    @property
    def sweep_shape(self) -> tuple:
        return self.layout.sweep_shape

    @property
    def entry_count(self) -> int:
        return self.layout.entry_count

    @property
    def tensor_shape(self) -> tuple:
        """Shape of the composed LHS tensor: sweep dims + feature dims."""
        return self.layout.tensor_shape

    @property
    def flat_shape(self) -> tuple:
        """Model-facing layout: (batch, *features)."""
        return self.layout.flat_shape

    # -- wrapping -----------------------------------------------------------
    def views(self) -> list[SliceView]:
        """The tensor-wrapped RHS slices (zero-copy)."""
        return [SliceView(view, sl.sweep_dims, sl.window_shape)
                for view, sl in zip(self._arrays, self.layout.slices)]

    # -- to-direction ----------------------------------------------------------
    def gather(self, flatten_batch: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
        """Compose the LHS tensor from the RHS views (the one copy).

        With ``flatten_batch`` the sweep dims collapse into a single
        batch axis — the layout inference engines consume.

        ``out`` makes that one copy land in caller-owned memory (a row
        of a batch being assembled for a stacked forward) instead of a
        fresh array: it must be C-contiguous and have exactly the shape
        this call would return; values are cast to its dtype the way
        ``ndarray.astype`` would, so the contents equal
        ``gather(...).astype(out.dtype)`` bit for bit.  ``out`` itself
        is returned.
        """
        layout = self.layout
        arrays = self._arrays
        shape = layout.flat_shape if flatten_batch else layout.tensor_shape
        if out is None:
            if len(arrays) == 1:
                composed = np.ascontiguousarray(
                    arrays[0].reshape(layout._part_shapes[0]))
            else:
                composed = np.concatenate(
                    [view.reshape(part) for view, part
                     in zip(arrays, layout._part_shapes)], axis=-1)
            return composed if composed.shape == shape \
                else composed.reshape(shape)
        if not isinstance(out, np.ndarray) or out.shape != shape \
                or not out.flags.c_contiguous:
            raise BridgeError(
                f"gather out= must be a C-contiguous ndarray of shape "
                f"{shape}, got {type(out).__name__} of shape "
                f"{getattr(out, 'shape', None)}")
        # C-contiguous, so this reshape is a view of ``out``.
        composed = out if shape == layout._composed_shape \
            else out.reshape(layout._composed_shape)
        if len(arrays) == 1:       # no column split: one reshape, one copy
            composed[...] = arrays[0].reshape(layout._part_shapes[0])
            return out
        for view, part, columns in zip(arrays, layout._part_shapes,
                                       layout._columns):
            composed[..., columns] = view.reshape(part)
        return out

    # -- from-direction -----------------------------------------------------------
    def scatter(self, tensor: np.ndarray) -> None:
        """Write an LHS-shaped (or batch-flattened) tensor back to memory."""
        layout = self.layout
        if not layout.writable:
            raise BridgeError("scatter requires a writable (from-direction) map")
        tensor = np.asarray(tensor)
        composed = layout._composed_shape
        if tensor.shape != layout.tensor_shape and \
                tensor.shape != layout.flat_shape and \
                tensor.shape != (layout.entry_count, composed[-1]):
            raise BridgeError(
                f"scatter tensor shape {tensor.shape} matches neither LHS "
                f"shape {layout.tensor_shape} nor batch shape "
                f"{layout.flat_shape}")
        arrays = self._arrays
        if len(arrays) == 1:       # no column split: one reshape, one copy
            arrays[0][...] = tensor.reshape(layout._window_shapes[0])
            return
        flat = tensor.reshape(composed)
        for view, columns, shape in zip(arrays, layout._columns,
                                        layout._window_shapes):
            view[...] = flat[..., columns].reshape(shape)


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
