"""The lowered invocation: what a region's geometry cache holds and runs.

:meth:`ApproxRegion._bind_maps <repro.runtime.region.ApproxRegion>`
keys a 64-entry LRU on what tensor-map layouts are a function of — the
integer variables the maps reference plus every mapped array's shape /
strides / dtype.  A :class:`GeometryEntry` is the value: the
:class:`~repro.bridge.MapLayout` objects of both map directions, with
the composition of several maps into one model tensor resolved up
front, so a warm call gathers and scatters straight from it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from ..bridge import BridgeError
from .events import Phase

__all__ = ["GeometryEntry"]


class GeometryEntry:
    """One geometry-cache entry — and what a warm invocation runs.

    The ``(array name, MapLayout)`` pairs of both map directions for
    one invocation geometry, with everything composing several maps
    into one model tensor needs resolved up front: the composed input
    shape and dtype (what a fleet's staging rows are checked against),
    the batch agreement of the to-maps, the column split of the
    from-maps.  Stateless like the layouts it holds — every method
    takes the call's ``env`` and reads the arrays from it, so the entry
    pins no buffer and any arrays of the geometry can run it.
    """

    __slots__ = ("region", "ins", "outs", "in_shape", "in_dtype",
                 "out_width", "_in", "_out")

    def __init__(self, region: str, env: dict, ins: tuple, outs: tuple):
        self.region = region
        self.ins, self.outs = ins, outs
        self._in = ins[0] if len(ins) == 1 else None
        self._out = outs[0] if len(outs) == 1 else None
        batch = ins[0][1].entry_count
        for _, layout in ins:
            if layout.entry_count != batch:
                raise BridgeError(
                    f"region {region!r}: input maps disagree on batch "
                    f"size ({batch} vs {layout.entry_count})")
        self.in_shape = ins[0][1].flat_shape if self._in is not None else (
            batch, sum(math.prod(l.flat_shape[1:]) for _, l in ins))
        self.in_dtype = np.result_type(*(env[name].dtype for name, _ in ins))
        self.out_width = sum(l.functor.total_features for _, l in outs)

    def gather_inputs(self, env: dict, record, out=None) -> np.ndarray:
        """Compose the model input tensor (timed as TO_TENSOR), into
        ``out`` — of :attr:`in_shape` and :attr:`in_dtype`, e.g. a
        member's rows of a fleet's staging batch — when given."""
        start = perf_counter()
        if self._in is not None:
            name, layout = self._in
            inputs = layout.gather(env[name], out)
        else:
            batch = self.in_shape[0]
            inputs = np.concatenate(
                [layout.gather(env[name]).reshape(batch, -1)
                 for name, layout in self.ins], axis=-1, out=out)
        record.add(Phase.TO_TENSOR, perf_counter() - start)
        return inputs

    def gather_outputs(self, env: dict) -> np.ndarray:
        """Read output arrays through the from-maps (collection path)."""
        if self._out is not None:
            name, layout = self._out
            return layout.gather(env[name])
        return np.concatenate(
            [layout.gather(env[name]).reshape(layout.entry_count, -1)
             for name, layout in self.outs], axis=-1)

    def scatter_outputs(self, env: dict, tensor: np.ndarray, record) -> None:
        """Land a model output tensor in application memory (timed as
        FROM_TENSOR)."""
        start = perf_counter()
        if self._out is not None:
            name, layout = self._out
            layout.scatter(env[name], tensor)
        else:
            flat = tensor.reshape(len(tensor), -1)
            if flat.shape[-1] != self.out_width:
                raise BridgeError(
                    f"region {self.region!r}: model produced "
                    f"{flat.shape[-1]} features, out maps consume "
                    f"{self.out_width}")
            offset = 0
            for name, layout in self.outs:
                width = layout.functor.total_features
                layout.scatter(env[name], flat[:, offset:offset + width])
                offset += width
        record.add(Phase.FROM_TENSOR, perf_counter() - start)
