"""QoS telemetry: counters and per-path/per-phase serving summaries.

Layers on :class:`~repro.runtime.events.EventLog` — the Fig. 6 timing
instrumentation — a serving-oriented view: how many invocations took
which path (and why, when a policy overrode the directive), how many
were shadow-validated, and where the time went per path including the
validation overhead (the SHADOW phase).

Since the observability PR this class is a **thin adapter over
:class:`repro.obs.MetricsRegistry`**: every count lives in a registry
metric (``qos_invocations``, ``qos_final_paths``,
``qos_shadow_error``, ``region_health``, ...) labeled by region, so
the same numbers surface through both the legacy ``snapshot()`` dict
shape (unchanged — dashboards and tests keep working) and the
registry's JSON export contract.  By default each telemetry instance
owns a private registry (test isolation); pass ``registry=`` to share
one, e.g. the process-wide ``repro.obs.metrics()``.

Snapshots are plain dicts and :meth:`QoSTelemetry.export` writes them
as JSON for dashboards — crash-safely, via the shared
tmp+fsync+replace path.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs import MetricsRegistry
from ..runtime.batch import ROW_BUCKETS
from ..runtime.control import ExecutionPath
from ..runtime.events import EventLog, Phase

__all__ = ["QoSTelemetry", "phase_summary"]


def phase_summary(event_log: EventLog,
                  start: int = 0) -> dict:
    """Per-path invocation counts and per-phase seconds of a record span.

    ``start`` slices the log (e.g. the beginning of a deployment
    window) so warm-up records do not pollute serving numbers.  It is
    an *absolute* record index (capture ``event_log.seen`` at window
    start): the bounded ring may have evicted older raw records, and
    :meth:`EventLog.records_since` converts accordingly.
    """
    per_path: dict[str, dict] = {}
    for (_, path), agg in event_log.fold(start).items():
        entry = per_path.setdefault(path, {
            "count": 0, "seconds": {p.value: 0.0 for p in Phase}})
        entry["count"] += agg.count
        for phase, seconds in agg.times.items():
            entry["seconds"][phase.value] += seconds
    total = sum(sum(e["seconds"].values()) for e in per_path.values())
    shadow = sum(e["seconds"][Phase.SHADOW.value] for e in per_path.values())
    return {
        "paths": per_path,
        "total_seconds": total,
        "shadow_seconds": shadow,
        "validation_overhead": shadow / total if total > 0 else 0.0,
    }


class _RegionMetrics:
    """Registry metric handles for one region (resolved once)."""

    __slots__ = ("registry", "region", "invocations", "overrides",
                 "shadows", "shadow_error", "fallbacks", "health",
                 "pending_shadow", "validate_rows",
                 "base_paths", "final_paths", "reasons", "fallback_reasons")

    def __init__(self, registry: MetricsRegistry, region: str):
        self.registry = registry
        self.region = region
        self.invocations = registry.counter("qos_invocations", region=region)
        self.overrides = registry.counter("qos_overrides", region=region)
        self.shadows = registry.counter("qos_shadow_invocations",
                                        region=region)
        self.shadow_error = registry.histogram("qos_shadow_error",
                                               region=region)
        self.fallbacks = registry.counter("qos_fallbacks", region=region)
        self.health = registry.gauge("region_health", region=region)
        self.pending_shadow = registry.gauge("pending_shadow", region=region)
        self.validate_rows = registry.histogram(
            "shadow_validate_rows", buckets=ROW_BUCKETS, region=region)
        # Label-keyed handle caches, filled on first use per label value.
        self.base_paths: dict = {}
        self.final_paths: dict = {}
        self.reasons: dict = {}
        self.fallback_reasons: dict = {}

    def _labeled(self, cache: dict, name: str, key: str, value: str):
        handle = cache.get(value)
        if handle is None:
            handle = cache[value] = self.registry.counter(
                name, region=self.region, **{key: value})
        return handle

    def snapshot(self) -> dict:
        shadows = int(self.shadows.value)
        return {
            "invocations": int(self.invocations.value),
            "base_paths": {p: int(c.value)
                           for p, c in self.base_paths.items()},
            "final_paths": {p: int(c.value)
                            for p, c in self.final_paths.items()},
            "overrides": int(self.overrides.value),
            "override_reasons": {r: int(c.value)
                                 for r, c in self.reasons.items()},
            "shadow_invocations": shadows,
            "shadow_error_mean": (self.shadow_error.sum / shadows
                                  if shadows else None),
            "shadow_error_max": self.shadow_error.max if shadows else None,
            "pending_shadow": int(self.pending_shadow.value or 0),
            "shadow_kernel_calls": self.validate_rows.count,
            "shadow_rows_validated": int(self.validate_rows.sum),
            "fallbacks": int(self.fallbacks.value),
            "fallback_reasons": {r: int(c.value)
                                 for r, c in self.fallback_reasons.items()},
            "health": self.health.value,
        }


class QoSTelemetry:
    """Counts QoS decisions and shadow observations per region."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._regions: dict[str, _RegionMetrics] = {}

    def _region(self, name: str) -> _RegionMetrics:
        rm = self._regions.get(name)
        if rm is None:
            rm = self._regions[name] = _RegionMetrics(self.registry, name)
        return rm

    # -- recording hooks (called by QoSController) -----------------------
    def record_decision(self, region_name: str, base_path: str,
                        final_path: str, shadow: bool = False,
                        reason: str | None = None) -> None:
        # Once per QoS decision: warm handles are read by subscript.
        try:
            rm = self._regions[region_name]
        except KeyError:
            rm = self._region(region_name)
        rm.invocations.inc()
        bases, finals = rm.base_paths, rm.final_paths
        (bases[base_path] if base_path in bases else rm._labeled(
            bases, "qos_base_paths", "path", base_path)).inc()
        (finals[final_path] if final_path in finals else rm._labeled(
            finals, "qos_final_paths", "path", final_path)).inc()
        if final_path != base_path:
            rm.overrides.inc()
        if reason is not None:
            rm._labeled(rm.reasons, "qos_override_reasons", "reason",
                        reason).inc()

    def record_shadow(self, region_name: str, error: float) -> None:
        rm = self._region(region_name)
        rm.shadows.inc()
        rm.shadow_error.observe(float(error))

    def record_shadow_queue(self, region_name: str, pending: int,
                            validated_rows: int | None = None) -> None:
        """A region's shadow queue moved: ``pending`` samples await the
        kernel, which just validated ``validated_rows`` rows if given."""
        rm = self._region(region_name)
        rm.pending_shadow.set(pending)
        if validated_rows is not None:
            rm.validate_rows.observe(validated_rows)

    def record_fallback(self, region_name: str, reason: str,
                        state: str | None = None) -> None:
        """One breaker-driven accurate fallback (denial or caught
        failure), called by the region's guarded infer path."""
        rm = self._region(region_name)
        rm.fallbacks.inc()
        rm._labeled(rm.fallback_reasons, "qos_fallback_reasons", "reason",
                    reason).inc()
        if state is not None:
            rm.health.set(state)

    def record_health(self, region_name: str, state: str) -> None:
        """Report a region's current breaker state (e.g. at snapshot
        time, so recovered regions show healthy again)."""
        self._region(region_name).health.set(state)

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict:
        return {name: rm.snapshot() for name, rm in self._regions.items()}

    def rollup(self) -> dict:
        """Cross-region aggregate: the serving-fleet view of the counters.

        Sums decisions, path outcomes, overrides, and shadow validation
        across every region a shared controller serves; the shadow
        error mean is observation-weighted.  This is what a
        multi-region server reports as one line.
        """
        invocations = overrides = shadows = fallbacks = 0
        error_sum = 0.0
        error_max = 0.0
        final_paths = {p: 0 for p in ExecutionPath.ALL}
        health: dict[str, int] = {}
        for rm in self._regions.values():
            invocations += int(rm.invocations.value)
            overrides += int(rm.overrides.value)
            shadows += int(rm.shadows.value)
            fallbacks += int(rm.fallbacks.value)
            if rm.shadow_error.count:
                error_sum += rm.shadow_error.sum
                error_max = max(error_max, rm.shadow_error.max)
            for path, counter in rm.final_paths.items():
                final_paths[path] = final_paths.get(path, 0) \
                    + int(counter.value)
            if rm.health.value is not None:
                health[rm.health.value] = health.get(rm.health.value, 0) + 1
        return {
            "regions": len(self._regions),
            "invocations": invocations,
            "final_paths": final_paths,
            "infer_fraction": (final_paths[ExecutionPath.INFER] / invocations
                               if invocations else 0.0),
            "overrides": overrides,
            "shadow_invocations": shadows,
            "shadow_error_mean": error_sum / shadows if shadows else None,
            "shadow_error_max": error_max if shadows else None,
            "fallbacks": fallbacks,
            "health": health,
        }

    def summary(self, event_log: EventLog | None = None,
                start: int = 0) -> dict:
        """Counters merged with the event log's per-path time breakdown."""
        out = {"regions": self.snapshot()}
        if event_log is not None:
            out["phases"] = phase_summary(event_log, start=start)
        return out

    def export(self, path, event_log: EventLog | None = None,
               start: int = 0) -> Path:
        """Write the summary as JSON (the serving-dashboard feed).

        Crash-safe: lands through tmp+fsync+``os.replace``, so a
        dashboard polling the file never reads a torn summary.
        """
        from ..ioutil import atomic_write_text
        return atomic_write_text(
            path, json.dumps(self.summary(event_log, start=start),
                             indent=2, sort_keys=True) + "\n")

    def reset(self) -> None:
        self._regions.clear()
