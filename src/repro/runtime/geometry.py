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
from time import perf_counter

import numpy as np
from numpy import ndarray

from ..bridge import BridgeError
from ..codegen import generate

__all__ = ["GeometryEntry", "compile_geometry_key"]


def _as_int(value):
    return int(value) if isinstance(value, (int, np.integer)) else None


PROGRAM_GLOBALS = {"ndarray": ndarray, "as_int": _as_int,  # of the lines
                   "perf_counter": perf_counter}


def key_lines(key_maps: tuple, ref, temp: str, miss: str,
              key: str | None = None) -> list:
    """A geometry key read as lines (locals ``temp``, index, ``_``;
    ``miss`` for an array not an ndarray, or read-only where written),
    then returned — or ``miss`` unless it equals the captured ``key``."""
    int_symbols, map_arrays = key_maps
    lines, parts = [], []
    for i, name in enumerate(int_symbols):
        local = f"{temp}{i}_"
        lines += [f"{local} = {ref(name)}",
                  f"if type({local}) is not int: {local} = as_int({local})"]
        parts.append(local)
    for i, (name, written) in enumerate(map_arrays, len(int_symbols)):
        local = f"{temp}{i}_"
        test = f"type({local}) is not ndarray and " \
            f"not isinstance({local}, ndarray)"
        if written:
            test = f"{test} or not {local}.flags.writeable"
        lines += [f"{local} = {ref(name)}", f"if {test}:", f"    {miss}"]
        parts += (f"{local}.shape", f"{local}.strides", f"{local}.dtype")
    read = f"({', '.join(parts)},)"
    return lines + ([f"return {read}"] if key is None else
                    [f"if {read} != {key}:", f"    {miss}"])


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
    lines = key_lines((int_symbols, map_arrays), lambda name: f"env[{name!r}]",
                      "v", "return checked(env)")
    return generate("key", "\n".join([
        "def key(env):", "    try:", *(f"        {line}" for line in lines),
        "    except KeyError:", "        return checked(env)"]), {
        **PROGRAM_GLOBALS,
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
    shape, the batch agreement of the to-maps, the column split of the
    from-maps.  Stateless like the layouts it holds — every method
    takes the call's ``env`` and reads the arrays from it, so the entry
    pins no buffer and any arrays of the geometry can run it.
    """

    __slots__ = ("region", "ins", "outs", "in_shape", "out_width",
                 "in_map", "out_map", "program")

    def __init__(self, region: str, ins: tuple, outs: tuple):
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
        self.out_width = sum(l.functor.total_features for _, l in outs)
        #: The region's generated program of this geometry, built at its
        #: first plain call (``DESIGN.md`` §4); evicted with the entry.
        self.program = None

    def gather_inputs(self, env: dict, out=None) -> np.ndarray:
        """Compose the model input tensor, into ``out`` — of
        :attr:`in_shape`, e.g. a wave program's rows of a fleet's
        staging batch — when given (cast to its dtype).  Untimed: the
        caller times it as TO_TENSOR, per call or per wave."""
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


# -- a generated program's lines (``ref(name)``: a call's argument ``name``;
# ``env``: its ``{name: value}``; ``tag`` suffixes what ``scope`` captures)

def config_guard(region: str, config: str, captured: tuple, miss: str,
                 also: str = "") -> list:
    """``miss`` unless ``region``'s QoS controller, breaker, precision
    and stream are still the ``captured`` four (by identity: ``None``
    for a plain region) and not ``also``."""
    qos, breaker, precision, stream = captured
    return [f"{config} = {region}.config",
            f"if {config}.qos is not {qos} "
            f"or {config}.breaker is not {breaker} "
            f"or {config}.precision is not {precision} "
            f"or {region}.events.stream is not {stream}{also}:",
            f"    {miss}"]


def gather_lines(entry: GeometryEntry, ref, env: str, tag: str,
                 scope: dict, into=None, out: str = "x") -> list:
    """Compose ``entry``'s model input: into the captured array ``into``
    by one plain copy, or without one as local ``out``, the read-only
    alias view a contiguous gather is; else through the entry."""
    scope[f"E{tag}"] = entry
    single = entry.in_map
    if into is not None:
        dst = single[1].destination(into) if single is not None else None
        if dst is None:
            scope[f"V{tag}"] = into
            return [f"E{tag}.gather_inputs({env}, V{tag})"]
        scope[f"D{tag}"] = dst
        return [f"D{tag}[...] = {ref(single[0])}"]
    offset = single[1].alias_offset if single is not None else None
    if offset is None:
        return [f"{out} = E{tag}.gather_inputs({env})"]
    array = ref(single[0])
    return [f"{out} = ndarray({entry.in_shape!r}, {array}.dtype, {array}, "
            f"{offset})", f"{out}.setflags(False)"]


def land_lines(entry: GeometryEntry, ref, env: str, tag: str, scope: dict,
               rows: str, column: str, features: str | None = None) -> list:
    """Land the model output ``rows`` (``column``: its first last-axis
    column) by one plain copy per whole-array from-map into its array
    while the output has the shape the maps take — read past the batch
    axis as ``features`` when given (a wave reads a fleet's output shape
    once) — else through the entry's scatter."""
    scope[f"E{tag}"] = entry
    scatter = f"E{tag}.scatter_outputs({env}, {rows})"

    def fits(shape):
        return f"{features} == {shape[1:]!r}" if features \
            else f"{rows}.shape == {shape!r}"

    if entry.out_map is not None:
        name, layout = entry.out_map
        out = np.empty(layout.flat_shape)
        dst = layout.destination(out)
        if dst is None:
            return [scatter]
        source = rows if dst.shape == out.shape else column \
            if dst.shape == out.shape[:-1] and out.shape[-1] == 1 \
            else f"{rows}.reshape({dst.shape!r})"
        return [f"if {fits(out.shape)}:", f"    {ref(name)}[...] = {source}",
                "else:", f"    {scatter}"]
    copies, offset = [], 0
    batch = entry.outs[0][1].flat_shape[0]
    for name, layout in entry.outs:
        width = layout.functor.total_features
        dst = layout.destination(np.empty(layout.flat_shape))
        if dst is None or layout.flat_shape[0] != batch:
            return [scatter]
        part = f"{rows}[:, {offset}:{offset + width}]"
        if dst.shape == (batch,) and width == 1:
            part = f"{rows}[:, {offset}]"
        elif dst.shape != (batch, width):
            part = f"{part}.reshape({dst.shape!r})"
        copies.append(f"    {ref(name)}[...] = {part}")
        offset += width
    return [f"if {fits((batch, offset))}:", *copies, "else:",
            f"    {scatter}"]


def forward_lines(plan: str, x: str, y: str, device: str, tag: str,
                  lanes: bool = False) -> list:
    """``y = plan(x)`` as ``InferenceEngine._forward`` runs it on the
    simulated ``device`` (locals suffixed ``tag``): the H2D charge of
    ``x``, the timed call — its wall ``w{tag}``; with ``lanes``, the
    row lanes' count and busy seconds taken from the plan's
    ``last_split`` as ``ln{tag}``, ``bz{tag}`` — a kernel launch and the
    D2H charge of ``y``.  A charge is ``Device.to_device`` /
    ``to_host``'s arithmetic, the transfer model read at the call."""
    def charge(array, counter):
        return [f"nb{tag} = {array}.nbytes",
                f"tm{tag} = {device}.transfer_model",
                f"{device}.clock.simulated += tm{tag}.latency_s + "
                f"nb{tag} / tm{tag}.bandwidth_bytes_per_s",
                f"{device}.{counter} += nb{tag}"]
    split = [f"ls{tag} = {plan}.last_split", f"if ls{tag} is not None:",
             f"    (ln{tag}, bz{tag}), {plan}.last_split = ls{tag}, None"]
    return [*charge(x, "bytes_to_device"),
            *([f"ln{tag}, bz{tag} = 1, None"] if lanes else []),
            f"st{tag} = perf_counter()", f"{y} = {plan}({x})",
            *(split if lanes else []), f"w{tag} = perf_counter() - st{tag}",
            f"{device}.kernel_launches += 1", *charge(y, "bytes_to_host")]
