"""Fleet inference: one batched forward answering many tenants.

Multi-tenant serving runs one small surrogate per region; when several
regions deploy the *same architecture* (same plan fingerprint, different
weights), running them one at a time leaves the device doing many tiny
GEMMs.  A :class:`FleetInferenceEngine` groups its members by
:func:`~repro.nn.plan.fleet_fingerprint` and executes each group through
one :class:`~repro.nn.plan.FleetPlan` — a single ``(K, B, in) @
(K, in, out)`` stacked forward whose row ``k`` is bitwise-equal to
member ``k``'s own compiled forward.

Membership is dynamic: hot-swapping one member's model file updates one
slab row (no other member disturbed, no plan rebuild) — or evicts the
member to the single-model path when the new model does not fit, and
re-adopts it into its row when a later swap fits again — and the engine
exposes the same ``cache``/``warmup`` surface as
:class:`~repro.runtime.infer.InferenceEngine`, so
:func:`~repro.serving.retrain.hot_swap_model` can re-warm a fleet the
way it re-warms a single-model engine.  Per-member identity survives
batching: each member keeps its own invocation counter and a BLAKE2b
weight digest (memo identity) derived from its slab row alone.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np

from ..device import Device
from ..nn.plan import FleetPlan, UnsupportedLayerError, fleet_fingerprint
from .infer import _DTYPE_NAMES, ModelCache

__all__ = ["FleetMember", "FleetInferenceEngine"]


class FleetMember:
    """One tenant of a fleet: a named model path plus its serving state."""

    __slots__ = ("name", "model_path", "model", "group", "row",
                 "invocations")

    def __init__(self, name: str, model_path):
        self.name = name
        self.model_path = str(Path(model_path))
        self.model = None
        self.group: _FleetGroup | None = None
        self.row = -1
        self.invocations = 0

    def __repr__(self):
        return (f"FleetMember({self.name!r}, row={self.row}, "
                f"invocations={self.invocations})")


class _FleetGroup:
    """K same-fingerprint members sharing one :class:`FleetPlan`."""

    __slots__ = ("fingerprint", "plan", "members", "staging", "filled",
                 "epoch", "vacant")

    def __init__(self, fingerprint: str, plan: FleetPlan, members: list,
                 epoch: int):
        self.fingerprint = fingerprint
        self.plan = plan
        self.members = members
        #: The model cache's epoch when the members were last resolved.
        self.epoch = epoch
        #: The persistent ``(K, B_cap, *features)`` host batch waves are
        #: assembled in (allocated by the first wave, grown on demand),
        #: and per slab row how many leading batch rows may be non-zero.
        self.staging: np.ndarray | None = None
        self.filled = [0] * len(members)
        #: Slab row -> the member evicted from it, until a swap back to
        #: a model that fits re-adopts it there.
        self.vacant: dict = {}

    def cover(self, covered: list) -> None:
        """Count ``covered`` — per slab row, the leading batch rows the
        next forward writes — as the rows that may be non-zero, and
        re-zero what earlier waves left beyond them: absent members and
        batches shorter than ``B_max`` read zero, as a freshly
        zero-padded stack would."""
        staging = self.staging
        for row, (rows, was) in enumerate(zip(covered, self.filled)):
            if was > rows:
                staging[row, rows:was] = 0.0
        self.filled = list(covered)


class FleetInferenceEngine:
    """Answers per-member ``infer`` calls from stacked fleet forwards."""

    def __init__(self, device: Device | None = None,
                 cache: ModelCache | None = None, dtype=np.float64):
        self.device = device if device is not None else Device()
        self.cache = cache if cache is not None else ModelCache()
        #: Slab dtype for every fleet this engine compiles.  float32
        #: halves slab memory traffic on the bandwidth-bound K-row
        #: GEMMs; member models (and hot-swap sources) stay float64 —
        #: the cast happens on the slab row copies.
        self.dtype = np.dtype(dtype)
        #: Its ``RegionConfig.precision`` name.
        self.precision = _DTYPE_NAMES[self.dtype]
        self._members: dict[str, FleetMember] = {}
        self._groups: list[_FleetGroup] = []
        #: Member names whose models have no fleet lowering (or whose
        #: group fell below ``min_members``) after the last build; the
        #: server keeps these on the single-model path.
        self.ungrouped: list = []
        self._built = False
        #: Bumped by every writer of what a wave program
        #: (:meth:`RegionServer.invoke_fleet
        #: <repro.serving.RegionServer.invoke_fleet>`) captures: the
        #: membership (:meth:`add_member`, :meth:`build`, an eviction, a
        #: re-adoption) and the staging batch's (re)allocation
        #: (:meth:`staging`).
        self.version = 0
        #: Timing of the most recent batched call, mirroring
        #: :attr:`InferenceEngine.last_timing` plus the member count the
        #: forward served (callers attribute per-member cost as
        #: ``forward_device / members_served``).
        self.last_timing: dict = {}

    # -- membership --------------------------------------------------------
    def add_member(self, name: str, model_path) -> FleetMember:
        if name in self._members:
            raise ValueError(f"fleet member {name!r} already added")
        member = FleetMember(name, model_path)
        self._members[name] = member
        self._built = False
        self.version += 1
        return member

    def member(self, name: str) -> FleetMember:
        return self._members[name]

    # -- grouping ----------------------------------------------------------
    def build(self, min_members: int = 1) -> dict:
        """Group members by fleet fingerprint and compile one
        :class:`FleetPlan` per group.

        Groups smaller than ``min_members`` — and members whose model
        has no fleet lowering — are left ungrouped (their names land in
        :attr:`ungrouped`).  Returns ``{fingerprint: [names]}`` for the
        fleets formed.  Idempotent: rebuilding regroups from scratch.
        """
        by_fp: dict[str, list] = {}
        self.ungrouped = []
        epoch = self.cache.epoch              # before resolving anything
        for member in self._members.values():
            member.group = None
            member.row = -1
            member.model = self.cache.get(member.model_path)
            try:
                fp = fleet_fingerprint(member.model, extra=("infer",))
            except Exception:
                self.ungrouped.append(member.name)
                continue
            by_fp.setdefault(fp, []).append(member)
        self._groups = []
        formed = {}
        for fp, members in by_fp.items():
            if len(members) < min_members:
                self.ungrouped.extend(m.name for m in members)
                continue
            try:
                plan = FleetPlan([m.model for m in members],
                                 dtype=self.dtype)
            except UnsupportedLayerError:
                self.ungrouped.extend(m.name for m in members)
                continue
            group = _FleetGroup(fp, plan, members, epoch)
            for row, member in enumerate(members):
                member.group = group
                member.row = row
            self._groups.append(group)
            formed[fp] = [m.name for m in members]
        self._built = True
        self.version += 1
        return formed

    # -- hot-swap ----------------------------------------------------------
    def _sync(self, group: _FleetGroup) -> None:
        """Fold swapped/retrained models into the group's slab rows.

        Members are re-resolved against the model cache only when its
        epoch moved since the group last did — then all of them, the
        wave's or not, so a swap is never lost to a partial wave.  The
        epoch is read first: a swap landing while members are being
        resolved leaves the group behind it, and the next wave
        re-resolves.  Every member whose parameters were rebound in
        place is refreshed too, the wave's or not.  A member whose new
        model no longer fits the group's slab (another architecture, or
        a rebound tensor of another shape) is evicted: it leaves the
        group for :attr:`ungrouped` and the single-model path, and its
        peers keep their rows.  An evicted member swapped back to a
        model that fits is re-adopted into its old row.
        """
        plan, cache = group.plan, self.cache
        epoch = cache.epoch
        if group.epoch != epoch:
            for member in list(group.members):
                model = cache.get(member.model_path)
                if model is not member.model:
                    # Cache invalidation reloaded the file (hot swap):
                    # rebind the member's step slots and copy exactly
                    # one slab row.
                    member.model = model
                    try:
                        plan.replace_member(member.row, model)
                    except UnsupportedLayerError:
                        self._evict(group, member)
            for row, member in list(group.vacant.items()):
                model = cache.get(member.model_path)
                if model is not member.model:
                    member.model = model
                    try:
                        plan.replace_member(row, model)
                    except UnsupportedLayerError:
                        continue
                    self._adopt(group, member, row)
            group.epoch = epoch
        # In-place rebinds (load_state_dict): same model object, fresh
        # parameter arrays.
        rows = {member.row: member for member in group.members}
        for row in plan.stale_members(rows):
            try:
                plan.refresh_member(row)
            except UnsupportedLayerError:
                self._evict(group, rows[row])

    def _evict(self, group: _FleetGroup, member: FleetMember) -> None:
        group.members.remove(member)
        group.vacant[member.row] = member
        member.group, member.row = None, -1
        self.ungrouped.append(member.name)
        self.version += 1

    def _adopt(self, group: _FleetGroup, member: FleetMember,
               row: int) -> None:
        """Seat an evicted member in its old row again (whose slab row
        the caller has just rewritten)."""
        del group.vacant[row]
        member.group, member.row = group, row
        group.members.append(member)
        group.members.sort(key=attrgetter("row"))
        self.ungrouped.remove(member.name)
        self.version += 1

    def resolve(self) -> None:
        """Re-sync every fleet the model cache moved since it last did,
        or whose plan is stale (a member's parameters rebound in place),
        after regrouping if a member was added since the last
        :meth:`build`.  :meth:`RegionServer.invoke_fleet
        <repro.serving.RegionServer.invoke_fleet>` runs it before every
        wave, so a member the swap evicts is served on the single-model
        path in that very wave."""
        if not self._built:
            self.build()
        epoch = self.cache.epoch
        for group in self._groups:
            if group.epoch != epoch or group.plan.stale():
                self._sync(group)

    def warmup(self, model_path) -> None:
        """Load ``model_path`` into :attr:`cache` when a member is
        deployed from it.

        The :func:`~repro.serving.retrain.hot_swap_model` re-warm hook,
        which may run on the swapping thread while another serves
        waves — so it leaves the slab alone: only the thread running a
        wave writes slab rows.  That wave's re-sync (:meth:`resolve`)
        sees the cache's epoch moved and folds the new weights into the
        affected rows, or evicts a member the new model does not fit.
        """
        key = str(Path(model_path))
        if any(m.model_path == key for m in self._members.values()):
            self.cache.get(key)

    # -- inference ---------------------------------------------------------
    def staging(self, group: _FleetGroup, rows: int,
                features: tuple) -> np.ndarray:
        """``group``'s persistent ``(K, B_cap, *features)`` host batch,
        (re)allocated zeroed when it holds fewer than ``rows`` batch
        rows or other features — which bumps :attr:`version`."""
        staging = group.staging
        if staging is None or rows > staging.shape[1] \
                or features != staging.shape[2:]:
            staging = group.staging = np.zeros(
                (group.plan.k, rows) + features, dtype=group.plan.dtype)
            group.filled = [0] * group.plan.k
            self.version += 1
        return staging

    def infer_members(self, members: list, xs: list) -> list:
        """Answer ``members[i]`` on the ndarray ``xs[i]``; one output
        array per member, in order.

        The fleets are re-synced first (:meth:`resolve`); then an
        ungrouped member — one the re-sync evicted included — raises
        ``KeyError`` before any forward runs.  Members of one fleet
        execute as a single stacked forward, its two
        :class:`~repro.device.Device` transfers and a launch charged:
        their inputs are copied into the fleet's persistent
        ``(K, B_max, F)`` staging batch (:meth:`staging`; shorter
        batches zero-padded — inference steps are row-independent, so
        padding rows never touch real ones) and each member's output
        rows are sliced back out.  Members of different fleets batch
        independently, one forward per fleet.

        Each returned array is a view of its fleet's own copy of the
        result (the plan's is scratch: ``DESIGN.md`` §1) — one buffer
        per fleet and call, never reused, so earlier waves' outputs stay
        valid; copy a member's rows out if the rest of the wave should
        be freed.
        """
        self.resolve()
        for member in members:
            if member.group is None:
                raise KeyError(f"fleet member {member.name!r} is ungrouped "
                               "— serve it on the single-model path")
        device = self.device
        sim_before = device.clock.simulated
        outputs = [None] * len(members)
        wall = 0.0
        for group in dict.fromkeys(member.group for member in members):
            where = [i for i, m in enumerate(members) if m.group is group]
            rows = max(len(xs[i]) for i in where)
            staging = self.staging(group, rows, xs[where[0]].shape[1:])
            covered = [0] * group.plan.k
            for i in where:
                staging[members[i].row, :len(xs[i])] = xs[i]
                covered[members[i].row] = len(xs[i])
            group.cover(covered)
            device.to_device(staging[:, :rows])
            start = perf_counter()
            host = group.plan(staging[:, :rows])
            wall += perf_counter() - start
            device.kernel_launches += 1
            device.to_host(host)
            host = host.copy()
            for i in where:
                members[i].invocations += 1
                outputs[i] = host[members[i].row, :len(xs[i])]
        self.last_timing = {
            "forward_wall": wall,
            "forward_device": device.dense_time(wall),
            "transfer_sim": device.clock.simulated - sim_before,
            "compiled": True,
            "members_served": len(members),
            "dtype": self.precision,
        }
        return outputs

    def infer_many(self, calls: dict) -> dict:
        """Answer ``{name: inputs}`` with ``{name: outputs}`` — the
        name-keyed form of :meth:`infer_members`."""
        outputs = self.infer_members(
            [self._members[name] for name in calls],
            [np.asarray(x) for x in calls.values()])
        return dict(zip(calls, outputs))

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-fleet membership, invocation counters, and weight digests."""
        if not self._built:
            self.build()
        groups = []
        for group in self._groups:
            groups.append({
                "fingerprint": group.fingerprint,
                "members": {
                    m.name: {
                        "row": m.row,
                        "invocations": m.invocations,
                        "digest": group.plan.member_digest(m.row),
                    } for m in group.members
                },
            })
        return {"groups": groups, "ungrouped": list(self.ungrouped)}

    def __repr__(self):
        sizes = [len(g.members) for g in self._groups]
        return (f"FleetInferenceEngine(members={len(self._members)}, "
                f"fleets={sizes})")
