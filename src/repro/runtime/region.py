"""ApproxRegion: the outlined code region and its runtime entry point.

The HPAC-ML compiler outlines the annotated statement into a function
and replaces it with a runtime call (§IV-B).  Here the "outlined
function" is the decorated Python callable; :class:`ApproxRegion` is the
runtime entry point that, per invocation:

1. binds the call arguments to the directive's array names and integer
   variables (the role Clang codegen plays when it forwards pointers);
2. concretizes the ``to``/``from`` tensor maps over those arrays;
3. decides the execution path (:mod:`repro.runtime.control`);
4. runs inference (data bridge → engine → data bridge) or the accurate
   path (plus collection), timing each phase for the Fig. 6 breakdown.
"""

from __future__ import annotations

import inspect
import threading
from collections import namedtuple
from functools import partial
from time import perf_counter

import numpy as np
from numpy import ndarray

from ..bridge import TensorFunctor, concretize, evaluate_ranges
from ..codegen import generate
from ..directives.ast_nodes import MLDirective
from ..directives.parser import parse_program
from ..directives.semantic import SemanticAnalyzer, linearize
from ..obs import input_digest
from ..resilience import faults as _faults
from ..resilience.primitives import NonFiniteOutput
from .batch import BatchedInferenceEngine
from .collect import DataCollector
from .control import ExecutionPath, compile_decision
from .events import EventLog, Phase
from .geometry import GeometryEntry, compile_geometry_key
from .infer import InferenceEngine

__all__ = ["ApproxRegion", "RegionConfig"]


class RegionConfig:
    """Mutable runtime knobs a region honors (override directive clauses).

    ``qos`` attaches a :class:`repro.qos.QoSController` (shadow
    validation + adaptive path policies).
    ``auto_batch`` puts a
    :class:`~repro.runtime.batch.BatchedInferenceEngine` queue in front
    of the region's engine so deploy loops coalesce invocations
    without the caller constructing one; only sound for invocations
    independent of each other's outputs.
    ``row_subsample`` governs QoS shadow-validation row sub-sampling
    (the controller's ``shadow_rows`` knob): ``None`` derives
    eligibility from the tensor maps (leading slice ``0:N`` with a bare
    count symbol), ``False`` disables it, ``True`` asserts it.  Only
    sound for regions whose batch entries are computed independently —
    auto-regressive or cross-row-stateful kernels must pass ``False``:
    one accurate-kernel call validates the sampled rows of ``batch /
    shadow_rows`` invocations, each error reaching the policy up to that
    many samples late (:meth:`ApproxRegion.flush` validates at once).
    ``breaker`` attaches a
    :class:`~repro.resilience.CircuitBreaker`: infer-path invocations
    are then *guarded* by one rule on every path (``DESIGN.md`` §4) —
    whatever fails from the surrogate's forward on (a raise, non-finite
    outputs caught before they reach application memory, a failing
    divergence sample or shadow observation, outputs the from-maps
    cannot take) is a breaker failure and the accurate kernel serves
    the invocation; binding the caller's arguments and the kernel
    itself are not the surrogate, and their errors propagate.  Repeated
    failures demote the region until probes recover it.  Record
    sequences are what they were before the paths merged, except that
    a failed *sampled* shadow re-serves on an ACCURATE record like a
    plain failure and a staging error no longer counts as one.
    ``precision`` selects the compiled plan's dtype: ``None`` /
    ``"float64"`` keep the historical double-precision path untouched;
    ``"float32"`` serves the narrowed plan unconditionally (every
    in-tree layer narrows; a model with a step that declares no
    tensors falls back to float64 inside the engine); and
    ``"auto"`` puts the narrowing under a
    :class:`~repro.qos.PrecisionPolicy` governor — fp32 outputs are
    shadow-sampled against the fp64 plan, the divergence is charged to
    the QoS budget, and a region whose divergence EWMA breaches its
    threshold is demoted back to float64 with breaker-style hysteresis.
    """

    def __init__(self, model_path=None, db_path=None, engine=None,
                 event_log=None, qos=None, auto_batch: bool = False,
                 max_batch_rows: int = 256,
                 row_subsample: bool | None = None, breaker=None,
                 precision: str | None = None):
        if precision not in (None, "float64", "float32", "auto"):
            raise ValueError(f"precision must be None, 'float64', "
                             f"'float32' or 'auto': {precision!r}")
        self.model_path = model_path
        self.db_path = db_path
        self.engine = engine
        self.event_log = event_log
        self.qos = qos
        self.auto_batch = auto_batch
        self.max_batch_rows = max_batch_rows
        self.row_subsample = row_subsample
        self.breaker = breaker
        self.precision = precision


class _BoundMap:
    """One map target resolved against the analyzer's functor table."""

    __slots__ = ("direction", "functor", "array_name", "spec")

    def __init__(self, direction, functor, array_name, spec):
        self.direction = direction
        self.functor = functor
        self.array_name = array_name
        self.spec = spec


class _RowPlan:
    """How to re-invoke the accurate kernel on a row subset.

    Derived once from the tensor maps: the mapped arrays whose leading
    axis is the batch dimension, and the integer symbols that carry the
    row count (the bare-symbol ``stop`` of each map's leading slice,
    e.g. ``NOPT`` in ``options[0:NOPT]``).  Shadow validation slices
    those arrays to a seeded row subset, rewrites the count symbols,
    and calls the kernel on the reduced invocation.
    """

    __slots__ = ("count_symbols", "arrays", "shared")

    def __init__(self, count_symbols: tuple, arrays: tuple, shared: tuple):
        self.count_symbols = count_symbols
        self.arrays = arrays
        self.shared = shared   # other parameters: one call needs them equal


#: One queued sub-sampled shadow validation (see ``_run_infer``).
_ShadowSample = namedtuple("_ShadowSample", "env predicted record qos epoch")


#: :meth:`ApproxRegion._run_infer`'s "the guard tripped, no kernel ran".
_TRIPPED = object()

_TO_TENSOR, _INFERENCE, _FROM_TENSOR = \
    Phase.TO_TENSOR, Phase.INFERENCE, Phase.FROM_TENSOR


def _args_differ(a, b) -> bool:
    """Whether one kernel call cannot take both (arrays: by identity)."""
    return a is not b and (isinstance(a, ndarray) or isinstance(b, ndarray)
                           or a != b)


class ApproxRegion:
    """A callable wrapping an outlined region with HPAC-ML semantics."""

    def __init__(self, func, directives: str, name: str | None = None,
                 config: RegionConfig | None = None):
        self.func = func
        self.name = name or func.__name__
        self.config = config or RegionConfig()
        self.signature = inspect.signature(func)
        self.events = self.config.event_log or EventLog()
        self._engine = self.config.engine \
            if self.config.engine is not None else InferenceEngine()
        self._collector: DataCollector | None = None
        self._map_cache: dict = {}
        #: ``(key, entry)`` of the latest bind, one tuple so a second
        #: thread never pairs one key with another's entry: a warm call
        #: at the same geometry compares keys and skips the LRU.
        self._last = (None, None)
        #: Lazily-created default governor for ``precision="auto"``
        #: regions whose controller carries no ``precision_policy``.
        self._precision_policy = None
        self._prec_counters: dict = {}        # lazy obs handles
        self._prec_hist = None

        nodes = parse_program(directives)
        analyzer = SemanticAnalyzer().analyze(nodes)
        analyzer.raise_if_errors()
        if analyzer.ml is None:
            raise ValueError(f"region {self.name!r}: annotation lacks an "
                             "ml directive")
        self.ml: MLDirective = analyzer.ml
        self.functors = {n: TensorFunctor.from_analyzed(a)
                         for n, a in analyzer.functors.items()}

        self._in_maps: list[_BoundMap] = []
        self._out_maps: list[_BoundMap] = []
        in_names = set(self.ml.in_arrays) | set(self.ml.inout_arrays)
        out_names = set(self.ml.out_arrays) | set(self.ml.inout_arrays)
        for directive in analyzer.maps:
            functor = self.functors[directive.functor]
            for target in directive.targets:
                bound = _BoundMap(directive.direction, functor,
                                  target.array, target.spec)
                if directive.direction == "to":
                    if target.array not in in_names:
                        raise ValueError(
                            f"region {self.name!r}: to-map targets "
                            f"{target.array!r} which is not an in/inout array")
                    self._in_maps.append(bound)
                else:
                    if target.array not in out_names:
                        raise ValueError(
                            f"region {self.name!r}: from-map targets "
                            f"{target.array!r} which is not an out/inout array")
                    self._out_maps.append(bound)
        if not self._in_maps:
            raise ValueError(f"region {self.name!r}: no to-direction tensor map")
        if not self._out_maps:
            raise ValueError(f"region {self.name!r}: no from-direction tensor map")

        # -- precompiled bind/concretize plan (built once, not per call)
        self._binder = self._compile_binder()
        # The geometry key reads the integer symbols and the distinct
        # mapped arrays, to-maps first, as ``(name, written)`` —
        # ``written`` when a from-map targets it.
        written = {m.array_name for m in self._out_maps}
        self._geometry_key = compile_geometry_key(
            self.name, self._collect_int_symbols(), tuple(
                (name, name in written) for name in dict.fromkeys(
                    m.array_name for m in self._in_maps + self._out_maps)))
        #: The directive's path rule, lowered once (``env -> path``).
        self._decide = compile_decision(self.ml)
        self._row_plan = self._build_row_plan()
        #: :class:`_ShadowSample`\ s awaiting their one kernel call, in
        #: arrival order.  Touched only under ``_io_lock``.
        self._shadow_queue: list = []
        # Serving backends drain regions from worker threads; flush and
        # close must therefore be idempotent and mutually exclusive.
        self._io_lock = threading.RLock()
        if self.config.auto_batch and \
                not isinstance(self._engine, BatchedInferenceEngine):
            self._engine = BatchedInferenceEngine(
                self._engine, self.config.max_batch_rows)

    def _collect_int_symbols(self) -> tuple:
        """Integer argument names the maps depend on, computed once.

        The per-call concretization cache is keyed only on these (plus
        array geometry), so unrelated arguments — mode flags, step
        counters driving ``if`` clauses — no longer churn the key.
        """
        names: set = set()
        for m in self._in_maps + self._out_maps:
            for sl in m.spec.slices:
                for expr in (sl.start, sl.stop, sl.step):
                    if expr is not None:
                        names.update(linearize(expr).symbols)
            analyzed = m.functor.analyzed
            sweep = set(analyzed.symbols)
            functor_names: set = set()
            for form in analyzed.feature_forms:
                functor_names.update(form.symbols)
            for rhs_slice in analyzed.rhs:
                for dim in rhs_slice.dims:
                    for form in (dim.start, dim.stop):
                        if form is not None:
                            functor_names.update(form.symbols)
            names |= functor_names - sweep
        return tuple(sorted(names))

    def _build_row_plan(self) -> _RowPlan | None:
        """Derive the shadow row-subsampling plan, or ``None``.

        Eligibility is structural: every in/out map's leading slice must
        be ``0:SYM`` (no step) with a bare count symbol, so batch row
        ``i`` of the gathered tensors corresponds to row ``i`` of each
        mapped array and the count can be rewritten for a sub-call.
        ``RegionConfig(row_subsample=False)`` opts out regardless (for
        kernels whose rows are not independent); ``True`` asserts
        eligibility and raises when the maps cannot support it.
        """
        if self.config.row_subsample is False:
            return None
        count_syms: set = set()
        arrays: set = set()
        eligible = True
        for m in self._in_maps + self._out_maps:
            lead = m.spec.slices[0] if m.spec.slices else None
            if lead is None or lead.is_point or lead.step is not None:
                eligible = False
                break
            try:
                start = linearize(lead.start)
                stop = linearize(lead.stop)
            except Exception:
                eligible = False
                break
            if not start.is_constant() or start.const != 0:
                eligible = False
                break
            if stop.is_constant() or len(stop.coeffs) != 1 or \
                    stop.coeffs[0][1] != 1 or stop.const != 0:
                eligible = False
                break
            count_syms.add(stop.symbols[0])
            arrays.add(m.array_name)
        if not eligible or not count_syms:
            if self.config.row_subsample:
                raise ValueError(
                    f"region {self.name!r}: row_subsample=True but the "
                    "tensor maps' leading slices are not of the "
                    "row-batched 0:SYM form")
            return None
        return _RowPlan(tuple(sorted(count_syms)), tuple(sorted(arrays)),
                        tuple(n for n in self.signature.parameters
                              if n not in count_syms and n not in arrays))

    # ------------------------------------------------------------------
    # Per-invocation plumbing
    # ------------------------------------------------------------------
    def _compile_binder(self):
        """``binder(*args, **kwargs) -> env`` for a plain signature.

        A generated function with the kernel's own parameter list whose
        body is the ``{name: value}`` display, so the interpreter's
        argument parsing binds an invocation — positionals, keywords,
        defaults — instead of ``Signature.bind`` (which dominates
        small-region call cost).  ``None`` when a parameter is not
        positional-or-keyword.
        """
        params = list(self.signature.parameters.values())
        if not all(p.kind == inspect.Parameter.POSITIONAL_OR_KEYWORD
                   for p in params):
            return None
        names = [p.name for p in params]
        bind = generate("bind", f"def bind({', '.join(names)}):\n    return "
                        f"{{{', '.join(f'{n!r}: {n}' for n in names)}}}", {})
        bind.__defaults__ = tuple(
            p.default for p in params
            if p.default is not inspect.Parameter.empty) or None
        return bind

    def _bind_env(self, args, kwargs) -> dict:
        if self._binder is not None:
            try:
                return self._binder(*args, **kwargs)
            except TypeError:
                pass                   # let ``Signature.bind`` word it
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    def _bind_maps(self, env: dict) -> GeometryEntry:
        """This invocation's :class:`GeometryEntry`, from **one** descriptor
        probe covering both map directions.

        The paper's runtime allocates the slice descriptors once and
        re-fills them per call; applications invoke a region thousands
        of times on buffers of one geometry (MiniWeather's timestep on
        the same state array, a deploy loop on fresh row-slice views)
        and would otherwise pay symbolic resolution and bounds
        validation on the hot path.  The cache maps what the layouts
        are a function of — the integer variables the maps reference
        plus every mapped array's shape / strides / dtype — to the
        entry the call then *runs*, never to the arrays themselves, so
        any buffers of a known geometry are a hit and served arrays
        stay collectable.  What is not geometry is checked on every
        call, hit or miss, by the region's generated key
        (:func:`~repro.runtime.geometry.compile_geometry_key`): a mapped
        argument must be an ndarray, and one a from-map writes must be
        writable — refused here, before any forward or kernel runs.
        """
        key = self._geometry_key(env)
        last = self._last
        return last[1] if key == last[0] else self._entry_for(key, env)

    def _entry_for(self, key, env: dict) -> GeometryEntry:
        """The cached entry of ``key`` (built on a miss), moved to the
        recent end of the 64-entry LRU and made the region's last."""
        cache = self._map_cache
        entry = cache.pop(key, None)
        if entry is None:
            entry = GeometryEntry(self.name, env, *(
                tuple((m.array_name,
                       concretize(m.functor, env[m.array_name],
                                  evaluate_ranges(m.spec, env), env=env,
                                  writable=writable).layout)
                      for m in maps)
                for maps, writable in ((self._in_maps, False),
                                       (self._out_maps, True))))
            while len(cache) >= 64:
                # Bounded LRU eviction (dicts iterate in insertion
                # order, so the first key is the least recently used).
                cache.pop(next(iter(cache)))
        # (Re)insert at the recent end so a storm of cold keys evicts
        # other cold keys, not the hot working set.
        cache[key] = entry
        self._last = (key, entry)
        return entry

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def model_path(self):
        return self.config.model_path or self.ml.model_path

    @property
    def db_path(self):
        return self.config.db_path or self.ml.db_path

    def _collector_for(self, path) -> DataCollector:
        if self._collector is None or str(self._collector.db_path) != str(path):
            if self._collector is not None:
                self._collector.close()
            self._collector = DataCollector(path)
        return self._collector

    def _effective_precision(self, allow_sample: bool = True):
        """Resolve this invocation's plan dtype.

        Returns ``(dtype, sampler)``: the dtype to hand the engine
        (``None`` = historical float64 path, untouched) and, when this
        invocation must also run the float64 plan to measure fp32
        divergence, the governing :class:`~repro.qos.PrecisionPolicy`
        to fold it into (else ``None``).  The governor of
        ``precision="auto"`` is taken from the QoS controller
        (``precision_policy``) so regions sharing a controller share
        demotion state; a region without one gets a private
        default-threshold policy.
        """
        prec = self.config.precision
        if prec is None or prec == "float64":
            return None, None
        if prec == "float32":
            return np.float32, None
        qos = self.config.qos
        pol = getattr(qos, "precision_policy", None) \
            if qos is not None else None
        if pol is None:
            pol = self._precision_policy
            if pol is None:
                from ..qos.precision import PrecisionPolicy
                pol = self._precision_policy = PrecisionPolicy()
        if pol.precision_for(self.name) == "float64":
            return None, None
        sample = allow_sample and pol.should_sample(self.name)
        return np.float32, pol if sample else None

    def _note_precision(self, record, name, divergence=None) -> None:
        """Record the precision an invocation was served at (stream +
        obs): the engine's, not the one asked for — a model whose
        narrowing is refused serves float64."""
        record.note("precision", name)
        from .. import obs
        if not obs.is_enabled():
            return
        counter = self._prec_counters.get(name)
        if counter is None:
            counter = self._prec_counters[name] = obs.metrics().counter(
                "precision_path", region=self.name, dtype=name)
        counter.inc()
        if divergence is not None:
            if self._prec_hist is None:
                self._prec_hist = obs.metrics().histogram(
                    "precision_divergence", region=self.name)
            self._prec_hist.observe(divergence)

    def _note_stream_context(self, record, inputs=None) -> None:
        """Stream-only decision context: the inputs' digest (unless
        ``inputs`` is None) and the budget spend.

        Costs a blake2b over the inputs, so callers run it only when a
        :class:`~repro.obs.DecisionStream` is attached to the log.
        """
        if inputs is not None:
            record.note("digest", input_digest(inputs))
        qos = self.config.qos
        if qos is not None:
            spend = qos.budget_spend(self.name)
            if spend is not None:
                record.note("spend", spend)

    def _stage(self, env, record, sample_ok=True):
        """The front of a single-model surrogate invocation.

        One descriptor probe; the input tensor composed (timed as
        TO_TENSOR); the stream's decision context when a stream is
        attached; the precision routing, noted here unless the
        invocation also samples fp32 divergence (its note then carries
        the divergence).  Returns ``(entry, inputs, dtype, sampler)``,
        the last two as :meth:`_effective_precision` gives them.
        Nothing here is the surrogate: under a breaker these errors
        propagate.
        """
        entry = self._bind_maps(env)
        start = perf_counter()
        inputs = entry.gather_inputs(env)
        record.add(Phase.TO_TENSOR, perf_counter() - start)
        if self.events.stream is not None:
            self._note_stream_context(record, inputs)
        dtype = sampler = None
        if self.config.precision is not None:
            dtype, sampler = self._effective_precision(sample_ok)
        return entry, inputs, dtype, sampler

    def _run_infer(self, env, record, decision, guard, args, kwargs):
        """One surrogate invocation: stage → forward → validate → land
        (``DESIGN.md`` §4 has the reasons).

        *Validate* is whatever the invocation carries of: the finite
        check under ``guard`` (before any scatter — a NaN-emitting
        model never poisons application memory); a governed-fp32
        sample (the float64 plan run as well, timed as SHADOW, the
        divergence folded into the policy and the QoS budget); a
        full-batch QoS shadow (the accurate kernel first, SHADOW too,
        then the surrogate on inputs snapshotted before it; the
        surrogate's result commits, or the kernel's with
        ``commit="accurate"``); a sampled shadow (``shadow_rows`` on
        :class:`_RowPlan` maps: the surrogate's output commits and a
        seeded row subset — array slices copied before the scatter,
        plus the surrogate's rows — is *queued*, its record on
        :meth:`EventLog.hold`, until :meth:`_validate_shadow` runs the
        kernel **once** per invocation's worth of queued rows: an
        error reaches the policy at most ``batch / shadow_rows``
        samples late, never out of order).  An invocation carrying
        none of them on a queueing engine defers — ``submit`` now,
        :meth:`complete_infer` at flush time; only sound for
        invocations independent of each other's outputs.

        The guard rule: under a breaker, whatever fails from the
        forward on is a breaker failure and the record closes with it
        as its verdict.  Returns the kernel's result when a full-batch
        shadow ran it, ``_TRIPPED`` when the guard tripped and no
        kernel ran (the caller re-serves), else ``None``.

        ``record`` None is a *plain* call (``DESIGN.md`` §4), which
        carries none of the above on an immediate engine: it opens its
        record through the warm bind and runs gather → forward →
        scatter straight, its phases set in the record's ``times`` in
        the order every infer record has them.
        """
        if record is None:
            record, entry = self.bind_infer(env)
            engine, times = self._engine, record.times
            try:
                start = perf_counter()
                inputs = entry.gather_inputs(env)
                times[_TO_TENSOR] = perf_counter() - start
                outputs = engine.infer(
                    self.config.model_path or self.ml.model_path, inputs)
                times[_INFERENCE] = engine.last_timing["forward_device"]
                start = perf_counter()
                entry.scatter_outputs(env, outputs)
                times[_FROM_TENSOR] = perf_counter() - start
            except BaseException as exc:
                self.events.abort(record, exc)
                raise
            self.events.finish(record)
            return None
        shadow = decision is not None and decision.shadow
        entry, inputs, dtype, sampler = self._stage(env, record,
                                                    sample_ok=not shadow)
        qos = self.config.qos
        engine, model_path = self._engine, self.model_path
        result = accurate = sub_env = None
        if shadow:
            subset = self._shadow_subset(qos, decision, env, len(inputs))
            if subset is None:
                with self._io_lock:
                    self._validate_shadow()        # observations stay in order
                # Gather may return a view of application memory
                # (identity functors); the accurate run below mutates
                # out/inout arrays, so snapshot before executing it.
                inputs = np.array(inputs)
                with self.events.timed(record, Phase.SHADOW):
                    result = self.func(*args, **kwargs)
                accurate = entry.gather_outputs(env)
            else:
                sub_env = dict(env)
                for name in self._row_plan.arrays:
                    sub_env[name] = np.ascontiguousarray(env[name][subset])
                for sym in self._row_plan.count_symbols:
                    sub_env[sym] = int(len(subset))
                epoch = engine.cache.epoch         # before the forward
        elif guard is None and sampler is None and \
                isinstance(engine, BatchedInferenceEngine):
            engine.submit(model_path, inputs,
                          partial(self.complete_infer, record,
                                  (entry, env, engine)),
                          dtype=dtype)
            return None
        try:
            # At the region's governed precision: a QoS shadow error
            # measures what deployment commits.  INFERENCE is the
            # engine's device-equivalent time (``DESIGN.md`` §2).
            outputs = engine.infer(model_path, inputs, dtype=dtype)
            record.add(Phase.INFERENCE, engine.last_inference_seconds)
            if self.config.precision is not None:
                served = engine.last_timing["dtype"]
                if sampler is None:
                    self._note_precision(record, served)
            if guard is not None and not np.all(np.isfinite(outputs)):
                raise NonFiniteOutput(
                    f"region {self.name!r}: surrogate emitted non-finite "
                    "outputs")
            if sampler is not None:
                start = perf_counter()
                reference = engine.infer(model_path, inputs)
                record.add(Phase.SHADOW, perf_counter() - start)
                self._note_precision(record, served, sampler.observe(
                    self.name, outputs, reference, qos=qos))
            if accurate is not None:
                record.note("shadow", qos.observe_shadow(self.name, outputs,
                                                         accurate))
            if accurate is None or decision.commit == "surrogate":
                start = perf_counter()
                entry.scatter_outputs(env, outputs)
                record.add(Phase.FROM_TENSOR, perf_counter() - start)
        except Exception as exc:
            if guard is None:
                raise
            reason = type(exc).__name__
            guard.record_failure(reason)
            self._note_fallback(reason, guard)
            # The abandoned attempt still folds into the trace, carrying
            # the failure as its breaker verdict.
            record.note("breaker", reason)
            self.events.finish(record)
            return result if accurate is not None else _TRIPPED
        if guard is not None:
            guard.record_success()
        if sub_env is None:
            self.events.finish(record)
            return result
        with self._io_lock:
            queue = self._shadow_queue
            if queue and any(_args_differ(queue[0].env[n], sub_env[n])
                             for n in self._row_plan.shared):
                self._validate_shadow()        # one call cannot serve both
                queue = self._shadow_queue
            queue.append(_ShadowSample(sub_env, outputs[subset], record,
                                       qos, epoch))
            self.events.hold(record)
            qos.telemetry.record_shadow_queue(self.name, len(queue))
            if sum(len(s.predicted) for s in queue) >= len(inputs):
                self._validate_shadow()
        return None

    def _run_accurate(self, env, record, collect: bool, args, kwargs):
        if collect:
            db_path = self.db_path
            if db_path is None:            # before the kernel moves anything
                raise RuntimeError(f"region {self.name!r}: collection "
                                   "requested but no db path configured")
            entry = self._bind_maps(env)
            start = perf_counter()
            inputs = entry.gather_inputs(env)
            record.add(Phase.TO_TENSOR, perf_counter() - start)
        with self.events.timed(record, Phase.ACCURATE):
            # ACCURATE fault seam: scripted kernel slowdowns ride inside
            # the timed phase, so they show up as real kernel time.
            fault = _faults.fire(_faults.ACCURATE)
            if fault is not None:
                _faults.apply_kernel_fault(fault)
            result = self.func(*args, **kwargs)
        if collect:
            outputs = entry.gather_outputs(env)
            region_time = record.times.get(Phase.ACCURATE, 0.0)
            with self.events.timed(record, Phase.COLLECT_IO):
                self._collector_for(db_path).record(
                    self.name, inputs, outputs, region_time)
            if self.events.stream is not None:
                self._note_stream_context(record, inputs)
        self.events.finish(record)
        return result

    def _shadow_subset(self, qos, decision, env, batch: int):
        """Pick the seeded row subset for a shadowed invocation, or None.

        Sub-sampling (the controller's ``shadow_rows`` knob) only
        applies when the surrogate result is the committed one — with
        ``commit="accurate"`` the full kernel output must land in
        application memory — and when this invocation's batch is the
        leading extent the row plan expects.
        """
        rows = getattr(qos, "shadow_rows", None)
        if (rows is None or self._row_plan is None or batch <= rows
                or decision.commit != "surrogate"):
            return None
        # Through the controller, not the validator: shared controllers
        # (QoSArbiter) serialize the RNG draw with their other hooks.
        # Drawn before the count test, so a fixed seed replays.
        subset = qos.row_subset(batch)
        # A partial invocation (counts != batch rows) validates in full.
        return subset if all(env.get(s) == batch
                             for s in self._row_plan.count_symbols) else None

    def _validate_shadow(self) -> None:
        """One accurate-kernel call over every queued shadow sample.

        Caller holds ``_io_lock``.  Row slices are concatenated, count
        symbols rewritten, the kernel's wall split by rows as SHADOW
        time; each error lands on its **own** record, observed in
        arrival order, then the held records go out in call order.  A
        sample older than the model cache's last move (a hot swap) is
        noted, not observed: ``reset_region`` must not inherit the old
        model's errors.  A raising kernel aborts the samples' records,
        releases the rest and re-raises.
        """
        queue, self._shadow_queue = self._shadow_queue, []
        if not queue:
            return
        env = dict(queue[0].env)
        for name in self._row_plan.arrays:
            env[name] = np.concatenate([s.env[name] for s in queue])
        total = sum(len(s.predicted) for s in queue)
        for sym in self._row_plan.count_symbols:
            env[sym] = total
        start = perf_counter()
        try:
            self.func(**env)
            accurate = self._bind_maps(env).gather_outputs(env)
        except BaseException as exc:
            for sample in queue:
                self.events.abort(sample.record, exc)
            self.events.release(self.name)
            raise
        seconds = perf_counter() - start
        queue[0].qos.telemetry.record_shadow_queue(self.name, 0, total)
        current = self._engine.cache.epoch
        offset = 0
        for _, predicted, record, qos, epoch in queue:
            rows = accurate[offset:offset + len(predicted)]
            offset += len(predicted)
            record.add(Phase.SHADOW, seconds * len(predicted) / total)
            record.note("shadow",
                        qos.observe_shadow(self.name, predicted, rows)
                        if epoch == current
                        else qos.validator.error(predicted, rows))
        self.events.release(self.name)

    def _note_fallback(self, reason: str, breaker) -> None:
        """Report one breaker-driven fallback to the QoS telemetry."""
        qos = self.config.qos
        if qos is not None:
            qos.telemetry.record_fallback(self.name, reason,
                                          state=breaker.state)

    # ------------------------------------------------------------------
    # Decided-path invocation (fleet serving splits decide from run)
    # ------------------------------------------------------------------
    def path_decision(self, env: dict):
        """Resolve this invocation's path without executing anything.

        Returns ``(path, decision)``: the directive-resolved (and, when
        a QoS controller is attached, policy-adjusted)
        :class:`ExecutionPath`, plus the controller's decision object
        (``None`` when unmonitored).  The QoS controller's ``decide``
        hook runs exactly once here — pass both values to
        :meth:`invoke_decided` (or the prepare/complete pair) so the
        policy is not consulted twice per invocation.
        """
        base = self._decide(env)
        qos = self.config.qos
        if qos is None:
            return base, None
        decision = qos.decide(self.name, base)
        return decision.path, decision

    def bind_infer(self, env: dict, decision=None, path=ExecutionPath.INFER,
                   precision=None):
        """Open an infer-path invocation whose forward a caller runs: the
        warm bind of every plain call and every fleet rider.

        Opens the record with the notes that do not depend on the inputs
        (the policy reason; the budget spend when a stream is attached;
        the region's ``precision``, which a rider shares with the slab)
        and binds the maps — a call at the geometry of the region's
        last compares keys and skips the LRU.  Returns ``(record,
        entry)``: the caller composes the inputs with the entry, runs
        the forward, lands the outputs, times the phases and finishes
        the record.  A failure here closes the record.

        With ``precision`` (the dtype name of a batched forward, e.g. a
        fleet slab's), the decided ``path`` / ``decision`` is first
        checked against the rule of who may join that forward, and
        ``None`` returned for one who may not: only plain surrogate
        inference batches — shadow validation runs the accurate kernel
        anyway, a circuit breaker needs the forward's individual
        outcome, accurate/collect paths never touch the engine,
        ``precision="auto"`` validates per invocation, and a literal
        ``precision`` other than the forward's would be served at a
        dtype nobody asked for.
        """
        config = self.config
        if precision is not None and not (
                path == ExecutionPath.INFER
                and (decision is None or not decision.shadow)
                and config.breaker is None
                and config.precision in (None, precision)):
            return None
        record = self.events.new_record(ExecutionPath.INFER, self.name)
        try:
            if decision is not None and decision.reason is not None:
                record.note("policy", decision.reason)
            key = self._geometry_key(env)
            last = self._last
            entry = last[1] if key == last[0] else self._entry_for(key, env)
            if self.events.stream is not None:
                self._note_stream_context(record)
            if config.precision is not None:
                self._note_precision(record, config.precision)
        except BaseException as exc:
            self.events.abort(record, exc)
            raise
        return record, entry

    def prepare_infer(self, env: dict, decision=None, stage=None):
        """Stage an infer-path invocation without running it.

        :meth:`bind_infer` plus the input composition (timed as
        TO_TENSOR, digested when a stream is attached); returns
        ``(inputs, record, bound)``, ``bound`` — opaque to the caller —
        naming where the outputs go.  ``stage(shape, dtype)`` may hand
        back a preallocated destination of that shape and dtype (a
        member's rows of a fleet's staging batch) for the inputs to be
        composed into; ``None`` from it, or no ``stage``, composes into
        memory of the region's own.  The caller runs the forward and
        lands the outputs with :meth:`complete_infer`.  A failure
        closes the record.
        """
        record, entry = self.bind_infer(env, decision)
        try:
            start = perf_counter()
            inputs = entry.gather_inputs(
                env, stage(entry.in_shape, entry.in_dtype)
                if stage is not None else None)
            record.add(Phase.TO_TENSOR, perf_counter() - start)
            if self.events.stream is not None:
                record.note("digest", input_digest(inputs))
        except BaseException as exc:
            self.events.abort(record, exc)
            raise
        return inputs, record, (entry, env, None)

    def complete_infer(self, record, bound, outputs,
                       seconds: float = 0.0) -> None:
        """Scatter a batched forward's outputs back; finish the record.

        ``record`` and ``bound`` are :meth:`prepare_infer`'s (or a
        deferred :meth:`_run_infer`'s); ``outputs`` may be a view of
        the stacked result (the scatter is the copy).  ``seconds`` is
        this invocation's share of the batched forward's device time
        (the analogue of ``engine.last_inference_seconds``).  A failure
        closes the record.
        """
        entry, env, queue = bound       # queue: whose last forward served
        try:
            if queue is not None and self.config.precision is not None:
                self._note_precision(record, queue.last_timing["dtype"])
            record.add(Phase.INFERENCE, seconds)
            start = perf_counter()
            entry.scatter_outputs(env, outputs)
            record.add(Phase.FROM_TENSOR, perf_counter() - start)
        except BaseException as exc:
            self.events.abort(record, exc)
            raise
        self.events.finish(record)

    def invoke_decided(self, env: dict, path, decision, args, kwargs):
        """Run one invocation whose path was already decided.

        The single-model completion of :meth:`path_decision` — used
        directly by ``__call__`` and by fleet serving for members the
        batched call cannot absorb (accurate/collect routing, shadow
        validation, breaker-guarded regions).  Under a breaker a denied
        invocation (open, not this denial's probe turn) goes to the
        accurate kernel outright, and one whose surrogate fails
        (:meth:`_run_infer`'s guard rule) is re-served by it on a fresh
        record: the region stays available through a broken surrogate.
        An invocation that raises leaves its record closed (``error``
        noted, nothing appended to the decision stream).
        """
        infer = path == ExecutionPath.INFER
        guard = self.config.breaker if infer else None
        verdict = None
        if guard is not None:
            if guard.allow():
                verdict = guard.state
            else:
                self._note_fallback("breaker_open", guard)
                path, verdict, infer = \
                    ExecutionPath.ACCURATE, "breaker_open", False
        record = self.events.new_record(path, self.name)
        try:
            if verdict is not None:
                record.note("breaker", verdict)
            if decision is not None and decision.reason is not None:
                record.note("policy", decision.reason)
            if infer:
                result = self._run_infer(env, record, decision, guard,
                                         args, kwargs)
                if result is not _TRIPPED:
                    return result
                path = ExecutionPath.ACCURATE
                record = self.events.new_record(path, self.name)
                record.note("breaker", guard.state)
            return self._run_accurate(
                env, record, path == ExecutionPath.COLLECT, args, kwargs)
        except BaseException as exc:
            self.events.abort(record, exc)
            raise

    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        env = self._bind_env(args, kwargs)
        config = self.config
        if config.qos is not None:
            path, decision = self.path_decision(env)
        else:
            path, decision = self._decide(env), None
            # A plain call (DESIGN.md §4) — read from the configuration
            # on every call: its writers (attach_qos, attach_breakers,
            # attach_stream, swap_engine, ``config.precision = ...``)
            # assign the attributes directly.
            if path == ExecutionPath.INFER and config.breaker is None \
                    and config.precision is None \
                    and self.events.stream is None \
                    and type(self._engine) is InferenceEngine:
                return self._run_infer(env, None, None, None, args, kwargs)
        return self.invoke_decided(env, path, decision, args, kwargs)

    @property
    def engine(self):
        """The engine this region actually invokes (post ``auto_batch``)."""
        return self._engine

    def swap_engine(self, engine):
        """Replace the region's engine; returns the previous one.

        The adoption primitive for process backends: the old engine is
        drained first (under the I/O lock, mutually exclusive with
        serving-thread flushes) so queued invocations deliver through
        the engine that queued them, then the new one takes over — also
        when the drain raised (a dead worker).  ``auto_batch`` is not
        re-applied: the caller hands over a queue in front, or not.
        """
        with self._io_lock:
            old = self._engine
            try:
                self._drain()          # stamped with the old cache's epoch
            finally:
                self._engine = engine
            return old

    def _drain(self) -> None:
        """Deliver queued inferences, then validate queued shadow
        samples.  Caller holds ``_io_lock``."""
        if isinstance(self._engine, BatchedInferenceEngine):
            self._engine.flush()
        self._validate_shadow()

    def flush(self) -> None:
        """Deliver queued batched inferences, validate queued shadow
        samples, persist collection data.

        Idempotent and thread-safe: serving backends drain regions from
        worker threads while the application may flush from its own, so
        the engine/shadow/collector flushes run under the region's I/O
        lock and a second flush of an already-drained region is a
        no-op.  Flushing after a call is how a caller gets that call's
        shadow error observed and streamed before the next one.
        """
        with self._io_lock:
            self._drain()
            if self._collector is not None:
                self._collector.flush()

    def close(self) -> None:
        """Drain queued work and release the collector.  Idempotent."""
        with self._io_lock:
            self._drain()
            if self._collector is not None:
                self._collector.close()
                self._collector = None

    def __repr__(self):
        return (f"ApproxRegion({self.name!r}, mode={self.ml.mode!r}, "
                f"in={len(self._in_maps)}, out={len(self._out_maps)})")
