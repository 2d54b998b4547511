"""Benchmark-side tracing: spans around the repo's public callables.

Nothing under ``src/`` is edited.  :class:`Tracer` swaps class, module
and instance attributes for span-recording wrappers for the length of
one *traced* repetition and puts the originals back afterwards.  A span
carries layer, callable name, start, end, parent span and the index of
the client call it belongs to; spans live in preallocated lists and
are written out only after the repetition ended.

A layer's ``self_s`` is its spans' duration minus the part of each
interval its child spans cover, so the layers sum to the traced wall,
with ``bench.driver`` (the root span) as the unattributed row.
End-to-end numbers are never taken from a traced repetition.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["DRIVER", "PROBE", "LAYERS", "TARGETS", "Tracer"]

DRIVER = "bench.driver"
PROBE = "bench.probe"

#: layer -> public callables wrapped, as ``module:Owner.attr`` (class
#: attribute) or ``module:name`` (module global).  A callable reached
#: through a ``from x import name`` binding is listed once per module
#: that holds such a binding, because that is the name the caller
#: resolves.  A target that no longer exists is skipped and reported in
#: ``Tracer.missing`` so a refactor shows up as a hole, not a crash.
TARGETS = {
    "serving.server": [
        "repro.serving.server:RegionServer.invoke",
        "repro.serving.server:RegionServer.invoke_fleet",
        "repro.serving.server:RegionServer.flush",
        "repro.serving.server:RegionServer.drain",
    ],
    "serving.backend": [
        "repro.serving.backends:SerialBackend.submit",
        "repro.serving.backends:SerialBackend.drain",
        "repro.serving.backends:ThreadPoolBackend.submit",
        "repro.serving.backends:ThreadPoolBackend.drain",
        "repro.serving.backends:ProcessPoolBackend.submit",
        "repro.serving.backends:ProcessPoolBackend.drain",
    ],
    "serving.shm": [
        "repro.serving.shm:RemoteEngineClient.infer",
        "repro.serving.shm:RemoteEngineClient.invalidate",
        "repro.serving.shm:RemoteEngineClient.warmup",
    ],
    "serving.retrain": [
        "repro.serving:hot_swap_model",
    ],
    "runtime.region": [
        "repro.runtime.region:ApproxRegion.__call__",
        "repro.runtime.region:ApproxRegion.path_decision",
        "repro.runtime.region:ApproxRegion.invoke_decided",
        "repro.runtime.region:ApproxRegion.prepare_infer",
        "repro.runtime.region:ApproxRegion.complete_infer",
        "repro.runtime.region:ApproxRegion.flush",
    ],
    "runtime.engine": [
        "repro.runtime.infer:InferenceEngine.infer",
        "repro.runtime.batch:BatchedInferenceEngine.infer",
        "repro.runtime.batch:BatchedInferenceEngine.submit",
        "repro.runtime.batch:BatchedInferenceEngine.flush",
        "repro.runtime.fleet:FleetInferenceEngine.infer_many",
        "repro.serving.shm:ProcessInferenceEngine.infer",
    ],
    "runtime.collect": [
        "repro.runtime.collect:DataCollector.record",
        "repro.runtime.collect:DataCollector.flush",
        "repro.runtime:load_training_data",
        "repro.apps.harness:load_training_data",
    ],
    "runtime.events": [
        "repro.runtime.events:EventLog.new_record",
        "repro.runtime.events:EventLog.finish",
    ],
    "bridge.concretize": [
        "repro.runtime.region:concretize",
        "repro.runtime.region:evaluate_ranges",
    ],
    "bridge.gather": [
        "repro.bridge.tensor_map:ConcretizedMap.gather",
    ],
    "bridge.scatter": [
        "repro.bridge.tensor_map:ConcretizedMap.scatter",
    ],
    "nn.plan": [
        "repro.nn.compile:CompiledPlan.__call__",
        "repro.nn.plan:FleetPlan.__call__",
    ],
    "nn.train": [
        "repro.nn.training:Trainer.fit",
    ],
    "nn.serialize": [
        "repro.nn:save_model",
        "repro.nn:load_model",
        "repro.runtime.infer:load_model",
        "repro.serving.retrain:save_model",
        "repro.serving.retrain:load_model",
    ],
    "device.transfer": [
        "repro.device.transfer:Device.to_device",
        "repro.device.transfer:Device.to_host",
    ],
    "qos.control": [
        "repro.qos.monitor:QoSController.decide",
        "repro.qos.monitor:QoSController.observe_shadow",
        "repro.qos.monitor:QoSController.row_subset",
        "repro.serving.arbiter:QoSArbiter.decide",
        "repro.serving.arbiter:QoSArbiter.observe_shadow",
        "repro.serving.arbiter:QoSArbiter.row_subset",
        "repro.qos.precision:PrecisionPolicy.observe",
    ],
    "resilience.breaker": [
        "repro.resilience.primitives:CircuitBreaker.allow",
        "repro.resilience.primitives:CircuitBreaker.record_success",
        "repro.resilience.primitives:CircuitBreaker.record_failure",
    ],
    "obs.stream": [
        "repro.obs.stream:DecisionStream.record",
        "repro.obs.stream:DecisionStream.flush",
    ],
    "h5.file": [
        "repro.h5.file:File.__init__",
        "repro.h5.file:File.flush",
        "repro.h5.file:Dataset.append",
        "repro.h5.file:Dataset.read",
    ],
}

#: ``apps.kernel`` wraps each region's accurate function (an instance
#: attribute, installed by :meth:`Tracer.install`); ``bench.probe`` is
#: the meter's machine-speed probe, which runs inside the repetition
#: but is no part of its wall; ``bench.driver`` is the root span.
LAYERS = tuple(TARGETS) + ("apps.kernel", PROBE, DRIVER)

#: A span of one of these starts a new client call.
_CLIENT_CALLS = ("RegionServer.invoke", "RegionServer.invoke_fleet")


def _leading_rows(args, kwargs) -> int:
    """Rows an accurate kernel was handed: its first array argument."""
    for value in itertools.chain(args, kwargs.values()):
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0])
    return 0


class Tracer:
    """Span recorder plus the wrapper install/remove machinery."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._layer = [None] * capacity
        self._name = [None] * capacity
        self._start = [0.0] * capacity
        self._end = [0.0] * capacity
        self._parent = [-1] * capacity
        self._call = [-1] * capacity
        # ``next`` on a count is atomic under the interpreter lock, so
        # backend affinity threads can allocate span slots too.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self.call_index = -1
        #: Spans recorded, root included (set when the root closes).
        self.spans = 0
        #: Rows handed to accurate kernels while installed.
        self.kernel_rows = 0
        #: Targets of :data:`TARGETS` that could not be resolved.
        self.missing: list = []

    # -- wrappers --------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn, kernel: bool = False):
        layers, names = self._layer, self._name
        starts, ends = self._start, self._end
        parents, calls = self._parent, self._call
        ids, local, clock = self._ids, self._local, time.perf_counter
        client_call = name in _CLIENT_CALLS

        def span(*args, **kwargs):
            i = next(ids)
            if i >= self.capacity:
                raise RuntimeError(
                    f"trace buffer of {self.capacity} spans overflowed")
            # A thread with no open span (a backend's affinity thread)
            # hangs its spans off the root.
            parent = getattr(local, "current", 0)
            if client_call:
                self.call_index += 1
            if kernel:
                self.kernel_rows += _leading_rows(args, kwargs)
            layers[i] = layer
            names[i] = name
            parents[i] = parent
            calls[i] = self.call_index
            local.current = i
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                local.current = parent

        span.__wrapped__ = fn
        return span

    def wrap_probe(self, probe_fn):
        """The meter's probe as a span of its own layer."""
        return self._wrap(PROBE, "probe", probe_fn)

    def install(self, regions=()) -> None:
        """Wrap every resolvable target and each region's kernel."""
        for layer, targets in TARGETS.items():
            for target in targets:
                module_name, _, dotted = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = dotted.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrap(layer, dotted, original))
                self._undo.append((owner, attr, original))
        for region in regions:
            original = region.func
            region.func = self._wrap("apps.kernel", f"{region.name}.func",
                                     original, kernel=True)
            self._undo.append((region, "func", original))

    def remove(self) -> None:
        """Put every original attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self):
        """The repetition's root span (index 0, layer ``bench.driver``)."""
        self._layer[0] = DRIVER
        self._name[0] = "repetition"
        self._local.current = 0
        self._start[0] = time.perf_counter()
        try:
            yield
        finally:
            self._end[0] = time.perf_counter()
            # The repetition is over, so nothing allocates after this
            # draw: it is the number of slots used, root included.
            self.spans = min(next(self._ids), self.capacity)

    # -- analysis --------------------------------------------------------
    @property
    def wall(self) -> float:
        """Raw seconds from the root's start to its end."""
        return self._end[0] - self._start[0]

    def ledger(self) -> dict:
        """``{layer: {"self_s", "calls"}}`` over every layer.

        Self time subtracts the union of a span's child intervals,
        clipped to the span — children recorded on another thread may
        overlap their siblings, and must not be subtracted twice.
        """
        n = self.spans
        starts, ends = self._start, self._end
        children: dict = {}
        for i in range(1, n):
            children.setdefault(self._parent[i], []).append(i)
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for i in range(n):
            lo, hi = starts[i], ends[i]
            covered = 0.0
            edge = lo
            for c in sorted(children.get(i, ()), key=starts.__getitem__):
                c_lo, c_hi = max(starts[c], edge), min(ends[c], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    edge = c_hi
            row = out[self._layer[i]]
            row["self_s"] += (hi - lo) - covered
            row["calls"] += 1
        out[DRIVER]["calls"] = 1
        return out

    def count_named(self, name: str) -> int:
        """Spans recorded for one wrapped callable."""
        return sum(1 for i in range(1, self.spans)
                   if self._name[i] == name)

    def layer_total(self, layer: str) -> float:
        """Summed duration of a layer's outermost spans (nested spans
        of the same layer are not counted twice)."""
        total = 0.0
        for i in range(1, self.spans):
            if self._layer[i] == layer and \
                    self._layer[self._parent[i]] != layer:
                total += self._end[i] - self._start[i]
        return total

    def write(self, path, header: dict) -> None:
        """Dump the spans as one JSON document (see README, *Reading a
        trace file*).  Times are microseconds since the root started."""
        n = self.spans
        t0 = self._start[0]
        names = sorted({self._name[i] for i in range(n)})
        index = {name: k for k, name in enumerate(names)}
        layer_index = {layer: k for k, layer in enumerate(LAYERS)}
        rows = [[layer_index[self._layer[i]], index[self._name[i]],
                 round((self._start[i] - t0) * 1e6, 3),
                 round((self._end[i] - t0) * 1e6, 3),
                 self._parent[i], self._call[i]] for i in range(n)]
        doc = dict(header, layers=list(LAYERS), names=names,
                   columns=["layer", "name", "start_us", "end_us",
                            "parent", "call"],
                   spans=rows)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
