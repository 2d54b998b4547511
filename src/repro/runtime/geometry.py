"""The lowered invocation: what a region's geometry cache holds and runs.

:meth:`ApproxRegion._bind_maps <repro.runtime.region.ApproxRegion>`
keys a 64-entry LRU on what tensor-map layouts are a function of — the
integer variables the maps reference plus every mapped array's shape /
strides / dtype — read by the region's :func:`compile_geometry_key`
closure.  A :class:`GeometryEntry` is the value: the
:class:`~repro.bridge.MapLayout` objects of both map directions, with
the composition of several maps into one model tensor resolved up
front, so a warm call gathers and scatters straight from it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from numpy import ndarray

from ..bridge import BridgeError
from ..codegen import generate

__all__ = ["GeometryEntry", "compile_geometry_key"]


def _as_int(value):
    return int(value) if isinstance(value, (int, np.integer)) else None


def compile_geometry_key(region: str, int_symbols: tuple,
                         map_arrays: tuple):
    """``key(env) -> tuple``: one invocation's geometry-cache key.

    The key is the integer symbols' values (``None`` for a non-integer)
    followed by ``shape, strides, dtype`` of each mapped array, in
    ``map_arrays`` order (``(name, written)`` pairs).  What is not
    geometry is checked on every call, hit or miss, with one text: a
    mapped argument must be an ndarray, and one a from-map writes
    (``written``) must be writable.  A generated function, like the
    region's binder, so a warm call reads its key in one call instead
    of a loop over symbols and arrays; an argument that is missing or
    fails a check takes :func:`_checked_key`, which words the error.
    """
    fetch, body, key = [], [], []
    for i, name in enumerate(int_symbols):
        fetch.append(f"s{i} = env[{name!r}]")
        body.append(f"if type(s{i}) is not int: s{i} = as_int(s{i})")
        key.append(f"s{i}")
    for i, (name, written) in enumerate(map_arrays):
        fetch.append(f"a{i} = env[{name!r}]")
        test = f"type(a{i}) is not ndarray and not isinstance(a{i}, ndarray)"
        if written:
            test = f"{test} or not a{i}.flags.writeable"
        body.append(f"if {test}: return checked(env)")
        key += (f"a{i}.shape", f"a{i}.strides", f"a{i}.dtype")
    lines = ["def key(env):", "    try:"]
    lines += [f"        {line}" for line in fetch]
    lines += ["    except KeyError:", "        return checked(env)"]
    lines += [f"    {line}" for line in body]
    lines.append(f"    return ({', '.join(key)},)")
    return generate("key", "\n".join(lines), {
        "ndarray": ndarray, "as_int": _as_int,
        "checked": partial(_checked_key, region, int_symbols, map_arrays)})


def _checked_key(region: str, int_symbols: tuple, map_arrays: tuple,
                 env: dict) -> tuple:
    """The key of :func:`compile_geometry_key`, read argument by
    argument: raises :class:`~repro.bridge.BridgeError` for the first
    mapped array that is missing, not an ndarray, or read-only where a
    from-map writes it."""
    key = [_as_int(env.get(name)) for name in int_symbols]
    for name, written in map_arrays:
        array = env.get(name)
        # A duck-typed object exposing shape/strides/dtype must not
        # ride a cached layout.
        if not isinstance(array, ndarray):
            raise BridgeError(
                f"region {region!r}: array {name!r} not among call "
                "arguments" if array is None else
                f"region {region!r}: argument {name!r} is "
                f"{type(array).__name__}, expected ndarray")
        if written and not array.flags.writeable:
            raise BridgeError(
                f"region {region!r}: out/inout argument {name!r} is "
                "read-only")
        key += (array.shape, array.strides, array.dtype)
    return tuple(key)


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
                 "out_width", "in_map", "out_map")

    def __init__(self, region: str, env: dict, ins: tuple, outs: tuple):
        self.region = region
        self.ins, self.outs = ins, outs
        #: The ``(array name, MapLayout)`` pair when one map composes
        #: the model input / takes the model output (``None`` for
        #: several): a caller may gather / scatter through it directly.
        self.in_map = ins[0] if len(ins) == 1 else None
        self.out_map = outs[0] if len(outs) == 1 else None
        batch = ins[0][1].entry_count
        for _, layout in ins:
            if layout.entry_count != batch:
                raise BridgeError(
                    f"region {region!r}: input maps disagree on batch "
                    f"size ({batch} vs {layout.entry_count})")
        self.in_shape = ins[0][1].flat_shape if self.in_map is not None else (
            batch, sum(math.prod(l.flat_shape[1:]) for _, l in ins))
        self.in_dtype = np.result_type(*(env[name].dtype for name, _ in ins))
        self.out_width = sum(l.functor.total_features for _, l in outs)

    def gather_inputs(self, env: dict, out=None) -> np.ndarray:
        """Compose the model input tensor, into ``out`` — of
        :attr:`in_shape` and :attr:`in_dtype`, e.g. a member's rows of a
        fleet's staging batch — when given.  Untimed: the caller times
        it as TO_TENSOR, per call or per wave."""
        if self.in_map is not None:
            name, layout = self.in_map
            inputs = layout.gather(env[name], out)
        else:
            batch = self.in_shape[0]
            inputs = np.concatenate(
                [layout.gather(env[name]).reshape(batch, -1)
                 for name, layout in self.ins], axis=-1, out=out)
        return inputs

    def gather_outputs(self, env: dict) -> np.ndarray:
        """Read output arrays through the from-maps (collection path)."""
        if self.out_map is not None:
            name, layout = self.out_map
            return layout.gather(env[name])
        return np.concatenate(
            [layout.gather(env[name]).reshape(layout.entry_count, -1)
             for name, layout in self.outs], axis=-1)

    def scatter_outputs(self, env: dict, tensor: np.ndarray) -> None:
        """Land a model output tensor in application memory.  Untimed:
        the caller times it as FROM_TENSOR, per call or per wave."""
        if self.out_map is not None:
            name, layout = self.out_map
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
