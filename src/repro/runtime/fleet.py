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
slab row (no other member disturbed, no plan rebuild), and the engine
exposes the same ``cache``/``warmup`` surface as
:class:`~repro.runtime.infer.InferenceEngine`, so
:func:`~repro.serving.retrain.hot_swap_model` can re-warm a fleet the
way it re-warms a single-model engine.  Per-member identity survives
batching: each member keeps its own invocation counter and a BLAKE2b
weight digest (memo identity) derived from its slab row alone.
"""

from __future__ import annotations

import time
from operator import is_
from pathlib import Path

import numpy as np

from ..device import Device
from ..nn.plan import FleetPlan, UnsupportedLayerError, fleet_fingerprint
from .infer import _DTYPE_NAMES, ModelCache

__all__ = ["FleetMember", "FleetInferenceEngine"]


#: :attr:`FleetMember.bound` of a member with no rows kept.
_UNBOUND = (None, None, None)


class FleetMember:
    """One tenant of a fleet: a named model path plus its serving state."""

    __slots__ = ("name", "model_path", "model", "group", "row",
                 "invocations", "bound", "_staged", "_rows")

    def __init__(self, name: str, model_path):
        self.name = name
        self.model_path = str(Path(model_path))
        self.model = None
        self.group: _FleetGroup | None = None
        self.row = -1
        self.invocations = 0
        self._staged = None
        #: ``(geometry entry, rows, destination)`` of the member's last
        #: rider (:meth:`stage_entry`): a rider at that geometry composes
        #: straight into those rows — by one plain copy into
        #: ``destination`` where its layout allows — which
        #: :meth:`_FleetGroup.assemble` then need not copy.  Reset
        #: whenever the group's staging batch is reallocated.
        self.bound = _UNBOUND
        #: The last reservation, ``(staging, shape, dtype, view)``:
        #: a wave of the same geometry is handed the same view again.
        self._rows = (None, None, None, None)

    def stage(self, shape: tuple, dtype):
        """This member's rows of its fleet's staging batch, to compose
        the next wave's ``shape = (B, *features)`` inputs into.

        Passing the returned view to
        :meth:`FleetInferenceEngine.infer_members` as the member's
        inputs skips the copy into the stacked batch — the rows are
        already there.  Returns ``None`` (compose into an array of your
        own) when the member is ungrouped, the batch does not hold that
        shape yet (the wave then grows it), or ``dtype`` is not the
        batch's: a narrowed fleet casts on the copy, so what the caller
        composed — and may digest — stays in its own dtype.
        """
        group = self.group
        if group is None or group.staging is None:
            return None
        staging, rows = group.staging, shape[0]
        known, known_shape, known_dtype, view = self._rows
        if known is not staging or known_dtype is not dtype \
                or known_shape != shape:
            if rows > staging.shape[1] or shape[1:] != staging.shape[2:] \
                    or dtype != staging.dtype:
                return None
            view = staging[self.row, :rows]
            self._rows = (staging, shape, dtype, view)
        if rows > group.filled[self.row]:
            group.filled[self.row] = rows
        group.last = None
        self._staged = view
        return view

    def stage_entry(self, entry) -> tuple:
        """:meth:`stage` for a rider's geometry ``entry`` (a
        :class:`~repro.runtime.geometry.GeometryEntry`), remembered — as
        :attr:`bound`, which it returns — with the
        :meth:`~repro.bridge.MapLayout.destination` of the entry's one
        to-map: a wave's gather pass re-reads it while the entry stays
        the same.  ``rows`` None: compose into memory of your own."""
        rows = self.stage(entry.in_shape, entry.in_dtype)
        self._staged = None                   # :attr:`bound` marks it
        dst = entry.in_map[1].destination(rows) \
            if rows is not None and entry.in_map is not None else None
        self.bound = (entry, rows, dst)
        return self.bound

    def unstage(self) -> None:
        """Drop a reservation whose wave will not run.  The rows it may
        have dirtied stay counted — a rider composing through
        :attr:`bound` counts none as it goes, so then the whole row —
        and the next wave re-zeroes whatever it does not cover."""
        group = self.group
        if self.bound[1] is not None and group is not None \
                and group.staging is not None:
            group.filled[self.row] = group.staging.shape[1]
            group.last = None
        self._staged = None

    def __repr__(self):
        return (f"FleetMember({self.name!r}, row={self.row}, "
                f"invocations={self.invocations})")


class _FleetGroup:
    """K same-fingerprint members sharing one :class:`FleetPlan`."""

    __slots__ = ("fingerprint", "plan", "members", "staging", "filled",
                 "epoch", "last")

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
        #: ``(members, xs, batch)`` of the last wave when every input
        #: was its member's bound rows: the same wave again is already
        #: assembled.  Dropped by anything else that touches the rows.
        self.last = None

    def assemble(self, members: list, xs: list) -> np.ndarray:
        """The wave's stacked ``(K, B_max, *features)`` host batch.

        Member inputs that already *are* their staged rows
        (:meth:`FleetMember.stage`) stay put; anything else is copied
        into the member's row (cast to the plan dtype).  Rows the wave
        leaves uncovered — absent members, batches shorter than
        ``B_max`` — read zero, as a freshly zero-padded stack would:
        only what an earlier wave left there is re-zeroed.
        """
        last = self.last
        if last is not None and members == last[0] \
                and all(map(is_, xs, last[1])):
            return last[2]
        self.last = None
        b_max = max(map(len, xs))
        feature_shape = xs[0].shape[1:]
        staging = self.staging
        if staging is None or b_max > staging.shape[1] \
                or feature_shape != staging.shape[2:]:
            staging = self.staging = np.zeros(
                (self.plan.k, b_max) + feature_shape, dtype=self.plan.dtype)
            self.filled = [0] * self.plan.k
            for member in self.members:
                member.bound = _UNBOUND
        filled = self.filled
        bound = True
        for member, x in zip(members, xs):
            row, rows = member.row, x.shape[0]
            # The member's bound rows are views of this very batch (a
            # reallocation resets them); staged rows are checked.
            if x is not member.bound[1]:
                bound = False
                if x is not member._staged or x.base is not staging:
                    staging[row, :rows] = x
                member._staged = None
            if filled[row] != rows:
                if filled[row] > rows:
                    staging[row, rows:filled[row]] = 0.0
                filled[row] = rows
        if len(members) < self.plan.k:
            present = {member.row for member in members}
            for row, rows in enumerate(filled):
                if rows and row not in present:
                    staging[row, :rows] = 0.0
                    filled[row] = 0
        batch = staging[:, :b_max]
        if bound:
            self.last = (members, xs, batch)
        return batch


def _refuse_ungrouped(members: list) -> None:
    """Raise ``KeyError`` naming the first ungrouped member, if any."""
    for member in members:
        if member.group is None:
            raise KeyError(f"fleet member {member.name!r} is ungrouped — "
                           "serve it on the single-model path")


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
            member.bound = _UNBOUND
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
        return formed

    # -- hot-swap ----------------------------------------------------------
    def _sync(self, group: _FleetGroup, rows) -> bool:
        """Fold swapped/retrained models into the group's slab rows.

        Members are re-resolved against the model cache only when its
        epoch moved since the group last did — then all of them, the
        wave's or not, so a swap is never lost to a partial wave.  The
        epoch is read first: a swap landing while members are being
        resolved leaves the group behind it, and the next wave
        re-resolves.  A member whose new model no longer fits the
        group's slab (another architecture, or a rebound tensor of
        another shape) is evicted: it leaves the group for
        :attr:`ungrouped` and the single-model path, and its peers keep
        their rows.  Returns whether any member was evicted.
        """
        plan, cache = group.plan, self.cache
        epoch = cache.epoch
        evicted = False
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
                        evicted = True
            group.epoch = epoch
        # In-place rebinds (load_state_dict): same model object, fresh
        # parameter arrays.
        for row in plan.stale_members(rows):
            try:
                plan.refresh_member(row)
            except UnsupportedLayerError:
                for member in group.members:
                    if member.row == row:
                        self._evict(group, member)
                        evicted = True
                        break
        return evicted

    def _evict(self, group: _FleetGroup, member: FleetMember) -> None:
        member.unstage()
        group.members.remove(member)
        member.group, member.row = None, -1
        member.bound = _UNBOUND
        self.ungrouped.append(member.name)

    def resolve(self) -> None:
        """Re-resolve every fleet the model cache moved since it last
        did (a swap announced to the cache but not re-warmed through
        :meth:`warmup`).  :meth:`RegionServer.invoke_fleet
        <repro.serving.RegionServer.invoke_fleet>` runs it before a
        wave's bind pass, so a member the swap evicts is served on the
        single-model path in that very wave."""
        epoch = self.cache.epoch
        for group in self._groups:
            if group.epoch != epoch:
                self._sync(group, ())

    def warmup(self, model_path) -> None:
        """Re-sync every member deployed from ``model_path``.

        The :func:`~repro.serving.retrain.hot_swap_model` re-warm hook:
        after the swap invalidates :attr:`cache`, this folds the new
        weights into the affected slab rows (or evicts a member the
        new model does not fit).
        """
        key = str(Path(model_path))
        for group in self._groups:
            rows = [m.row for m in group.members if m.model_path == key]
            if rows:
                self._sync(group, rows)

    # -- inference ---------------------------------------------------------
    def infer_members(self, members: list, xs: list) -> list:
        """Answer ``members[i]`` on the ndarray ``xs[i]``; one output
        array per member, in order.

        Members of one fleet execute as a single stacked forward: their
        inputs are packed into a ``(K, B_max, F)`` batch (shorter
        batches zero-padded — inference steps are row-independent, so
        padding rows never touch real ones) and each member's output
        rows are sliced back out.  Members of different fleets batch
        independently; an ungrouped member raises ``KeyError`` — also
        one that this call's re-sync evicted (a swap to a model that
        does not fit, neither re-warmed through :meth:`warmup` nor
        seen by :meth:`resolve`).

        The batch is the fleet's persistent staging buffer: inputs
        composed straight into :meth:`FleetMember.stage` rows are not
        copied again, any other array is.  Each returned array is a
        view of this wave's own result copy — one buffer per wave
        group, never reused, so earlier waves' outputs stay valid; copy
        a member's rows out if the rest of the wave should be freed.
        """
        if not self._built:
            self.build()
        device = self.device
        sim_before = device.clock.simulated
        group = members[0].group
        for member in members:
            if member.group is not group:
                group = None
                break
        if group is not None:           # one fleet: the common wave
            outputs, wall = self._forward(group, members, xs)
        else:
            outputs, wall = self._forward_groups(members, xs)
        self.last_timing = {
            "forward_wall": wall,
            "forward_device": device.dense_time(wall),
            "transfer_sim": device.clock.simulated - sim_before,
            "compiled": True,
            "members_served": len(members),
            "dtype": self.precision,
        }
        return outputs

    def _forward(self, group: _FleetGroup, members: list, xs: list):
        """One group's stacked forward: ``(outputs, forward wall)``."""
        if (group.epoch != self.cache.epoch or group.plan.stale()) and \
                self._sync(group, [member.row for member in members]):
            _refuse_ungrouped(members)
        batch = group.assemble(members, xs)
        device = self.device
        device.to_device(batch)
        start = time.perf_counter()
        result = group.plan(batch)
        wall = time.perf_counter() - start
        device.kernel_launches += 1
        device.to_host(result)
        # The one copy per wave group (DESIGN.md §1): ``result`` is the
        # fleet plan's scratch, rewritten by the next wave at this
        # shape; the members' rows are views of this copy.
        host = result.copy()
        rows = host.shape[1]
        outputs = [None] * len(members)
        for i, (member, x) in enumerate(zip(members, xs)):
            member.invocations += 1
            n = x.shape[0]
            outputs[i] = host[member.row] if n == rows \
                else host[member.row, :n]
        return outputs, wall

    def _forward_groups(self, members: list, xs: list):
        """:meth:`_forward` per group of a mixed call, outputs back in
        call order."""
        groups = dict.fromkeys(member.group for member in members)
        if None in groups:
            _refuse_ungrouped(members)
        outputs = [None] * len(members)
        total_wall = 0.0
        for group in groups:
            where = [i for i, m in enumerate(members) if m.group is group]
            g_outputs, wall = self._forward(
                group, [members[i] for i in where], [xs[i] for i in where])
            for i, out in zip(where, g_outputs):
                outputs[i] = out
            total_wall += wall
        return outputs, total_wall

    def infer_many(self, calls: dict) -> dict:
        """Answer ``{name: inputs}`` with ``{name: outputs}`` — the
        name-keyed form of :meth:`infer_members`."""
        outputs = self.infer_members(
            [self._members[name] for name in calls],
            [np.asarray(x) for x in calls.values()])
        return dict(zip(calls, outputs))

    @property
    def last_inference_seconds(self) -> float:
        """Device-equivalent time of the last batched forward."""
        return self.last_timing.get("forward_device", 0.0)

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
