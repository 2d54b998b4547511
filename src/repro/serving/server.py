"""RegionServer: one serving surface for many approximated regions.

The paper's deployment story is a long-running application serving
many approximated regions at once; until this subsystem, each
:class:`~repro.runtime.region.ApproxRegion` was driven by its own
ad-hoc loop with its own QoS controller.  A :class:`RegionServer`
owns a set of regions, schedules their invocations through a
pluggable :class:`~repro.serving.backends.ExecutionBackend`, and
hosts a single QoS controller — typically a
:class:`~repro.serving.arbiter.QoSArbiter` — shared by every region,
so one global error budget governs the whole fleet.

Lifecycle::

    server = RegionServer(backend=ThreadPoolBackend())
    server.register(region_a)
    server.register(region_b)
    server.attach_qos(QoSArbiter(global_budget=0.05))
    ...
    server.invoke("region_a", *args)       # scheduled by the backend
    server.drain()                         # flush queues, barrier
    server.snapshot()                      # fleet roll-up
    server.close()
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from ..runtime import program as programs
from .backends import ExecutionBackend, SerialBackend

__all__ = ["ServedRegion", "RegionServer"]

_name = itemgetter(0)

#: Wave programs a server keeps (past that, all are dropped), like the
#: plan bodies of one plan.
_PROGRAMS = 16


class ServedRegion:
    """One region registered with a server, plus its serving counters."""

    __slots__ = ("name", "region", "invocations", "member")

    def __init__(self, name: str, region):
        self.name = name
        self.region = region
        self.invocations = 0
        #: The region's :class:`~repro.runtime.fleet.FleetMember` while
        #: it is grouped into a fleet (:meth:`RegionServer.enable_fleets`).
        self.member = None

    def __repr__(self):
        return (f"ServedRegion({self.name!r}, "
                f"invocations={self.invocations})")


class RegionServer:
    """Owns regions, schedules invocations, hosts the shared QoS loop."""

    def __init__(self, backend: ExecutionBackend | None = None):
        self.backend = backend if backend is not None else SerialBackend()
        self._regions: dict[str, ServedRegion] = {}
        self._qos = None
        self._stream = None
        self._fleet = None
        #: Wave signatures (names, geometry keys) -> their programs, and
        #: wave names -> the program of their last wave.
        self._programs: dict = {}
        self._waves: dict = {}

    # -- registration ----------------------------------------------------
    def register(self, region, name: str | None = None) -> str:
        """Add a region under ``name`` (default: the region's own name).

        A server-level QoS controller already attached via
        :meth:`attach_qos` is wired onto the new region immediately.
        """
        name = name or region.name
        if name in self._regions:
            raise ValueError(f"region name {name!r} already registered")
        served = ServedRegion(name, region)
        self._regions[name] = served
        if self._qos is not None:
            region.config.qos = self._qos
        if self._stream is not None:
            region.events.stream = self._stream
        # Backend adoption hook: process backends take over the
        # region's engine execution (worker placement, slab ring) at
        # registration time rather than on the first invocation.
        self.backend.adopt(served)
        return name

    @property
    def names(self) -> tuple:
        return tuple(self._regions)

    def region(self, name: str):
        return self._regions[name].region

    def served(self, name: str) -> ServedRegion:
        return self._regions[name]

    # -- serving ---------------------------------------------------------
    def invoke(self, name: str, *args, **kwargs):
        """Schedule one invocation of region ``name``.

        With a :class:`SerialBackend` this returns the region's result
        directly; threaded backends return a Future.  Outputs written
        through the region's from-maps land when the invocation (and,
        for batched engines, its flush) has executed — call
        :meth:`drain` before reading them.
        """
        served = self._regions[name]
        served.invocations += 1
        return self.backend.submit(served, served.region, args, kwargs)

    def flush(self, name: str | None = None) -> None:
        """Flush one region's queues (or all), honoring backend affinity."""
        targets = [self._regions[name]] if name is not None \
            else list(self._regions.values())
        self.backend.drain(targets)

    def drain(self) -> None:
        """Flush every region and wait until all queued work landed."""
        self.flush()
        if self._stream is not None:
            self._stream.flush()

    # -- fleet grouping --------------------------------------------------
    @property
    def fleet(self):
        """The :class:`~repro.runtime.fleet.FleetInferenceEngine`
        serving fleet-grouped regions (None until :meth:`enable_fleets`)."""
        return self._fleet

    def enable_fleets(self, names=None, min_members: int = 2,
                      device=None, dtype=None) -> dict:
        """Opt ``names`` (default: all regions) into fleet grouping.

        Regions whose deployed models share a fleet fingerprint (same
        architecture, different weights) are grouped behind one
        :class:`~repro.runtime.fleet.FleetInferenceEngine`;
        :meth:`invoke_fleet` then serves each group's surrogate
        invocations as a single stacked forward.  Regions with no model
        path, no fleet lowering, or fewer than ``min_members``
        same-fingerprint peers stay on their single-model path.
        ``dtype=np.float32`` stacks narrowed slabs (the bandwidth-bound
        K-row GEMMs are where narrowing pays most).  Returns
        ``{fingerprint: [names]}`` for the fleets formed.
        """
        from ..runtime.fleet import FleetInferenceEngine
        engine = FleetInferenceEngine(
            device=device,
            dtype=np.float64 if dtype is None else dtype)
        for name in (names if names is not None else self._regions):
            region = self._regions[name].region
            if region.model_path is not None:
                engine.add_member(name, region.model_path)
        formed = engine.build(min_members=min_members)
        self.disable_fleets()
        self._fleet = engine
        for members in formed.values():
            for name in members:
                self._regions[name].member = engine.member(name)
        return formed

    def disable_fleets(self) -> None:
        """Drop fleet grouping; every region serves single-model again."""
        self._fleet = None
        self._programs, self._waves = {}, {}
        for served in self._regions.values():
            served.member = None

    def invoke_fleet(self, calls) -> dict:
        """Serve a wave of invocations, batching fleet members together.

        ``calls`` is ``{name: args_tuple}`` or an iterable of
        ``(name, args, kwargs)``.  With fleets, the wave runs the
        generated program of its signature — its names and each call's
        geometry key and arity — made the first time it is seen
        (``DESIGN.md`` §4; ``runtime/program.py``).  Past its guards
        each call is decided once, in call order, and either *rides* (a
        grouped member decided onto the plain surrogate path, the first
        of its name to) or is served right there as its single
        invocation would be.  Then each fleet's riders are composed into
        its staging rows, run as one stacked forward, landed and
        finished in call order with equal shares of the three phases,
        and every record reaches the decision stream in call order; so
        calls of one wave must not depend on each other's outputs.  A
        failure after the guards closes every record the program opened.
        Without fleets, or when a call cannot be bound
        (a refused argument), the calls are served one by one on the
        single path, the refused call raising its own error.  Returns
        ``{name: result}`` (``None`` for a rider; a repeated name
        reports its last call).
        """
        if type(calls) is not list:
            calls = [(name, args if isinstance(args, tuple) else (args,),
                      {}) for name, args in calls.items()] \
                if isinstance(calls, dict) else list(calls)
        if self._fleet is not None and calls:
            names = tuple(map(_name, calls))
            program = self._waves.get(names)
            results = program(calls) if program is not None else None
            if results is None:
                results = self._run_signature(names, calls)
            if results is not None:
                return results
        results = {}
        for name, args, kwargs in calls:
            served = self._regions[name]
            served.invocations += 1
            results[name] = served.region(*args, **kwargs)
        return results

    def _run_signature(self, names: tuple, calls: list):
        """:meth:`invoke_fleet` when the last program of ``names``
        missed: bind the calls, then run the program of their signature
        (generating it if it has none, or if it misses too) and make it
        the names'.  None when the calls cannot all be bound."""
        self._fleet.resolve()
        regions = self._regions
        try:
            envs = [regions[name].region._binder(*args, **kwargs)
                    for name, args, kwargs in calls]
            keys = tuple(regions[name].region._geometry_key(env)
                         for (name, _, _), env in zip(calls, envs))
        except Exception:
            return None
        signature = (names, keys, tuple((len(args), tuple(kwargs))
                                        for _, args, kwargs in calls))
        program = self._programs.get(signature)
        results = program(calls) if program is not None else None
        if results is None:
            wave = []
            for (name, args, kwargs), env, key in zip(calls, envs, keys):
                served = regions[name]
                try:
                    entry = served.region._bind_maps(env)
                except Exception:
                    return None
                wave.append(programs.Call(
                    served.region, key, entry,
                    programs.configuration(served.region),
                    (len(args), tuple(kwargs)), served))
            program = programs.compile_program(wave, self._fleet)
            if program is None:
                return None
            if len(self._programs) >= _PROGRAMS:
                self._programs.clear()
                self._waves.clear()
            self._programs[signature] = program
            results = program(calls)
        if results is not None:
            self._waves[names] = program
        return results

    # -- QoS wiring ------------------------------------------------------
    @property
    def qos(self):
        """The server-level controller (None when serving unmonitored)."""
        return self._qos

    def attach_qos(self, controller, names=None) -> dict:
        """Attach one controller to ``names`` (default: every region).

        Returns ``{name: previous_controller}`` so a measurement window
        can restore prior wiring via :meth:`restore_qos`.  Without
        ``names`` the controller also becomes the server default,
        inherited by regions registered later.
        """
        previous = {}
        for name in (names if names is not None else self._regions):
            region = self._regions[name].region
            previous[name] = region.config.qos
            region.config.qos = controller
        if names is None:
            self._qos = controller
        return previous

    def restore_qos(self, previous: dict) -> None:
        """Undo an :meth:`attach_qos` using its returned mapping."""
        for name, controller in previous.items():
            self._regions[name].region.config.qos = controller

    def detach_qos(self) -> None:
        """Remove the server-level controller from every region."""
        for served in self._regions.values():
            served.region.config.qos = None
        self._qos = None

    # -- telemetry-stream wiring -----------------------------------------
    def attach_stream(self, stream):
        """Record every region's per-decision telemetry to ``stream``.

        ``stream`` is a :class:`~repro.obs.DecisionStream` or a path
        (one is created).  Each invocation then appends one record —
        inputs digest, path, shadow error, policy reason, budget
        spend, breaker state — to the h5 stream file; :meth:`drain`
        and :meth:`close` flush it.  Regions registered later inherit
        the stream.  A stream it replaces is flushed and closed, as
        :meth:`detach_stream` would.  Returns the stream.
        """
        from ..obs import DecisionStream
        if not isinstance(stream, DecisionStream):
            stream = DecisionStream(stream)
        previous, self._stream = self._stream, stream
        for served in self._regions.values():
            served.region.events.stream = stream
        if previous is not None and previous is not stream:
            previous.close()
        return stream

    def detach_stream(self) -> None:
        """Stop recording; flushes and closes the current stream."""
        if self._stream is None:
            return
        for served in self._regions.values():
            if served.region.events.stream is self._stream:
                served.region.events.stream = None
        self._stream.close()
        self._stream = None

    # -- resilience wiring -----------------------------------------------
    def attach_breakers(self, names=None, **breaker_kwargs) -> dict:
        """Give each of ``names`` (default: all regions) its own
        :class:`~repro.resilience.CircuitBreaker`.

        Per-region, not shared: one region's broken surrogate must not
        demote its healthy neighbors.  ``breaker_kwargs`` parameterize
        every breaker (thresholds, probe cadence).  Returns the
        ``{name: breaker}`` mapping; regions that already carry a
        breaker keep it.
        """
        from ..resilience import CircuitBreaker
        out = {}
        for name in (names if names is not None else self._regions):
            region = self._regions[name].region
            if region.config.breaker is None:
                region.config.breaker = CircuitBreaker(name=name,
                                                       **breaker_kwargs)
            out[name] = region.config.breaker
        return out

    # -- reporting / lifecycle -------------------------------------------
    def snapshot(self) -> dict:
        """Fleet view: per-region serving counters plus the controller's
        snapshot and cross-region telemetry roll-up when attached."""
        out = {
            "backend": type(self.backend).__name__,
            "regions": {name: {"invocations": served.invocations}
                        for name, served in self._regions.items()},
        }
        backend_snapshot = getattr(self.backend, "snapshot", None)
        if callable(backend_snapshot):
            # Process backends report worker health/placement; a dead
            # worker is visible here alongside the breaker states.
            out["backend_detail"] = backend_snapshot()
        if self._fleet is not None:
            out["fleets"] = self._fleet.snapshot()
        health = {}
        for name, served in self._regions.items():
            breaker = served.region.config.breaker
            if breaker is not None:
                health[name] = breaker.snapshot()
        if health:
            out["health"] = health
        if self._qos is not None:
            telemetry = self._qos.telemetry
            for name, snap in health.items():
                # Push current states so the roll-up's health view
                # reflects recovery, not just the last fallback.
                telemetry.record_health(name, snap["state"])
            out["qos"] = self._qos.snapshot()
            out["rollup"] = telemetry.rollup()
        from .. import obs
        trace = obs.tracer().snapshot()
        out["obs"] = {
            "enabled": obs.is_enabled(),
            "traces_seen": trace["seen"],
            "traces_buffered": trace["buffered"],
            "stream": str(self._stream.path) if self._stream is not None
            else None,
        }
        return out

    def close(self) -> None:
        """Drain, release the backend, and close every region — the
        last two also when the drain raised (a dead worker), whose
        error then re-raises."""
        try:
            self.drain()
        finally:
            self.backend.close()
            for served in self._regions.values():
                served.region.close()

    def __repr__(self):
        return (f"RegionServer(backend={type(self.backend).__name__}, "
                f"regions={list(self._regions)})")
