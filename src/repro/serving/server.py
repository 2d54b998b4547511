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

from time import perf_counter

from ..obs import input_digest
from ..runtime.events import Phase
from .backends import ExecutionBackend, SerialBackend

__all__ = ["ServedRegion", "RegionServer"]

_TO_TENSOR, _INFERENCE, _FROM_TENSOR = \
    Phase.TO_TENSOR, Phase.INFERENCE, Phase.FROM_TENSOR


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

    def __contains__(self, name: str) -> bool:
        return name in self._regions

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
        import numpy as np
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
        for served in self._regions.values():
            served.member = None

    def invoke_fleet(self, calls) -> dict:
        """Serve a wave of invocations, batching fleet members together.

        ``calls`` is ``{name: args_tuple}`` or an iterable of
        ``(name, args, kwargs)``.  The wave runs as four flat passes
        (``DESIGN.md`` §4):

        1. **bind**, in call order: each call's arguments are bound and
           its QoS path decided (exactly once).  A call decided onto
           the plain surrogate path of a fleet member becomes a
           *rider*: its record opens and its maps are bound through
           the region's warm bind
           (:meth:`~repro.runtime.region.ApproxRegion.bind_infer`,
           which also holds the rule of who may ride).  Every other
           call — accurate/collect routing, shadow validation,
           breaker-guarded regions, ungrouped members,
           ``precision="auto"`` regions and a literal ``precision``
           other than the slab's (a wave never serves a region at a
           dtype its single-model path would not note) — is served
           right there by its normal single-model invocation, with the
           already-made decision.
        2. **gather**: each rider's inputs are composed straight into
           its member's rows of the fleet's staging batch, through its
           geometry's layout and the rows its member keeps for that
           geometry (:attr:`~repro.runtime.fleet.FleetMember.bound`).
        3. **forward**: one stacked forward per fleet.
        4. **land**: each rider's outputs are scattered through its
           layout, then the records finish in call order.

        Riders are charged equal shares of the gather pass
        (TO_TENSOR), the forward's device time (INFERENCE) and the
        land pass (FROM_TENSOR).  A fleet answers one call per member
        per wave: when a name repeats, its first call rides and every
        later one is served singly in the bind pass.  So single-path
        calls run before any rider's inputs are read and riders'
        outputs land after them: calls of one wave must not depend on
        each other's outputs.  Returns ``{name: result}`` (``None`` for
        infer-path invocations, whose outputs land through the
        from-maps; a repeated name reports its last call).  A wave that
        raises closes every record it opened and drops its members'
        reservations.
        """
        if isinstance(calls, dict):
            calls = [(name, args if isinstance(args, tuple) else (args,),
                      {}) for name, args in calls.items()]
        results: dict = {}
        riders: dict = {}    # name -> (region, env, member, record, entry)
        regions, fleet = self._regions, self._fleet
        if fleet is not None:
            fleet.resolve()             # a swap evicts before the bind
        try:
            for name, args, kwargs in calls:                      # bind
                served = regions[name]
                served.invocations += 1
                region = served.region
                env = region._bind_env(args, kwargs)
                path, decision = region.path_decision(env)
                member = served.member
                bound = region.bind_infer(env, decision, path,
                                          fleet.precision) \
                    if member is not None and member.group is not None \
                    and name not in riders else None
                if bound is not None:
                    riders[name] = (region, env, member) + bound
                    results[name] = None
                else:
                    results[name] = region.invoke_decided(
                        env, path, decision, args, kwargs)
            if riders:
                self._serve_riders(list(riders.values()))
        except BaseException as exc:
            for region, _, member, record, _ in riders.values():
                region.events.abort(record, exc)
                member.unstage()
            raise
        return results

    def _serve_riders(self, wave: list) -> None:
        """Passes 2-4 of :meth:`invoke_fleet` over its riders."""
        n = len(wave)
        members, xs = [None] * n, [None] * n
        start = perf_counter()                                    # gather
        for i, (_, env, member, _, entry) in enumerate(wave):
            members[i] = member
            bound = member.bound
            if bound[0] is not entry:
                bound = member.stage_entry(entry)
            _, rows, dst = bound
            if dst is not None:           # one plain whole-array copy
                dst[...] = env[entry.in_map[0]]
                xs[i] = rows
            else:
                xs[i] = entry.gather_inputs(env, rows)
        to_tensor = (perf_counter() - start) / n
        for (region, _, _, record, _), x in zip(wave, xs):
            if region.events.stream is not None:
                record.note("digest", input_digest(x))
        fleet = self._fleet                                       # forward
        outputs = fleet.infer_members(members, xs)
        inference = fleet.last_timing["forward_device"] / n
        start = perf_counter()                                    # land
        for (_, env, _, _, entry), out in zip(wave, outputs):
            single = entry.out_map
            if single is not None:
                single[1].scatter(env[single[0]], out)
            else:
                entry.scatter_outputs(env, out)
        from_tensor = (perf_counter() - start) / n
        for region, _, _, record, _ in wave:
            record.times = {_TO_TENSOR: to_tensor, _INFERENCE: inference,
                            _FROM_TENSOR: from_tensor}
            region.events.finish(record)

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
    @property
    def stream(self):
        """The attached decision stream (None when not recording)."""
        return self._stream

    def attach_stream(self, stream):
        """Record every region's per-decision telemetry to ``stream``.

        ``stream`` is a :class:`~repro.obs.DecisionStream` or a path
        (one is created).  Each invocation then appends one record —
        inputs digest, path, shadow error, policy reason, budget
        spend, breaker state — to the h5 stream file; :meth:`drain`
        and :meth:`close` flush it.  Regions registered later inherit
        the stream.  Returns the stream.
        """
        from ..obs import DecisionStream
        if not isinstance(stream, DecisionStream):
            stream = DecisionStream(stream)
        self._stream = stream
        for served in self._regions.values():
            served.region.events.stream = stream
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

    def breaker(self, name: str):
        """Region ``name``'s circuit breaker (None when unguarded)."""
        return self._regions[name].region.config.breaker

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
        """Drain, release the backend, and close every region."""
        self.drain()
        self.backend.close()
        for served in self._regions.values():
            served.region.close()

    def __repr__(self):
        return (f"RegionServer(backend={type(self.backend).__name__}, "
                f"regions={list(self._regions)})")
