"""One program generator: a region's call and a fleet wave.

A warm surrogate call runs Python source generated for what it is: its
region, geometry and configuration (``ApproxRegion``'s *program*), or a
wave of such calls served together on a server with fleets
(``RegionServer.invoke_fleet``).  Both come from :func:`compile_program`
over a list of calls; a region's call is a wave of one with no fleet
(``DESIGN.md`` §4).

Per call, in call order: the guards (its binding, configuration, engine
type and geometry key; a miss returns with nothing done), its directive
decision, ``qos.decide`` and ``breaker.allow()``, then either a *rider*
(a fleet member's call decided onto the plain surrogate: its record
opened, its rows later composed into its fleet's staging batch) or the
call served right there — by its own forward as lines, or handed to the
interpreted twin (``invoke_decided``) when its decisions move it off the
plain surrogate.  Then per fleet one stacked forward for its riders, and
their finite checks, lands and finishes in call order.
"""

from __future__ import annotations

from collections import namedtuple
from math import isfinite

import numpy as np

from ..codegen import generate
from ..obs import input_digest
from ..resilience import faults as _faults
from ..resilience.primitives import NonFiniteOutput
from .batch import BatchedInferenceEngine
from .control import ExecutionPath, decision_line
from .events import EventLog, InvocationRecord, Phase
from .geometry import (PROGRAM_GLOBALS, config_guard, forward_lines,
                       gather_lines, key_lines, land_lines)
from .infer import _DTYPE_NAMES, InferenceEngine

__all__ = ["Call", "MISS", "NONFINITE", "compile_program", "configuration",
           "programmable"]

#: One call of a program: its region, geometry key and entry (``None``:
#: the call sweeps no entries), the configuration it guards (QoS
#: controller, breaker, precision, stream, engine type) and, in a wave,
#: its arity (positional count, keyword names) and served region.
Call = namedtuple("Call", "region key entry config arity served",
                  defaults=(None, None))

#: A region program's "my guards missed, nothing done".
MISS = object()

NONFINITE = "region {!r}: surrogate emitted non-finite outputs"

#: What a program reads besides its own names (which all end in ``_``).
_READS = {*PROGRAM_GLOBALS, "type", "isinstance", "int", "len", "Exception",
          "BaseException", "isfinite", "RuntimeWarning", "InvocationRecord"}

_EXACT = (InferenceEngine, BatchedInferenceEngine)


class _Slot(list):
    """The stream appends of a call a wave serves before the riders ahead
    of it have finished, kept for its slot: the call's log streams here
    while it is served, and the wave replays them in call order."""

    __slots__ = ()

    def record(self, region, **notes):
        self.append((region, notes))

    def replay(self, stream):
        for region, notes in self:
            stream.record(region, **notes)


def configuration(region) -> tuple:
    """What a program of ``region``'s calls guards by identity: its QoS
    controller, breaker, precision, decision stream and engine type."""
    config = region.config
    return (config.qos, config.breaker, config.precision,
            region.events.stream, type(region._engine))


def programmable(region) -> bool:
    """Whether a region program can bind ``region``'s calls: every
    parameter positional-or-keyword (Python binds the program's own
    parameter list) and none spelled like a name the program reads."""
    return region._binder is not None and not any(
        name in _READS or name.endswith("_")
        for name in region.signature.parameters)


def _indent(lines, depth=1):
    return [f"{'    ' * depth}{line}" for line in lines]


def compile_program(calls: list, fleet=None):
    """The program of ``calls`` (:class:`Call`), bound as they were.

    Without ``fleet``: ``program(region, <the kernel's parameters>)``
    for one call, returning its result or :data:`MISS`.  With one:
    ``wave(calls)`` over ``(name, args, kwargs)`` triples of the calls'
    arities, returning ``{name: result}`` or ``None`` on a miss; None
    when its riders' inputs disagree in features (the wave is then
    served call by call)."""
    single = fleet is None
    miss = "return MISS_" if single else "return None"
    scope = dict(PROGRAM_GLOBALS, MISS_=MISS, INFER_=ExecutionPath.INFER,
                 ACCURATE_=ExecutionPath.ACCURATE, TO_=Phase.TO_TENSOR,
                 INF_=Phase.INFERENCE, FROM_=Phase.FROM_TENSOR,
                 SHADOW_=Phase.SHADOW, F32_=np.float32, DIGEST_=input_digest,
                 SUM_=np.add.reduce, ALL_=np.all, ISFINITE_=np.isfinite,
                 isfinite=isfinite, NONFINITE_=NonFiniteOutput,
                 FAULTS_=_faults, NAMES_=_DTYPE_NAMES, SLOT_=_Slot,
                 InvocationRecord=InvocationRecord)
    # Who may ride: a grouped member with the slab's precision (or none)
    # whose breaker guards no later call of the wave (that call's allow()
    # reads this one's outcome) and whose records no call of the wave may
    # hold (a sub-sampled shadow parks its log's records of its name: a
    # rider, finishing after the wave's later calls, would park or not
    # where call-by-call serving does the opposite).  The first call of
    # its member decided onto the plain surrogate rides; a guarded one
    # only while no FaultInjector is installed (the stacked forward has
    # no fault seam, so a schedule replays through its own forward's).
    held = {(id(c.region.events), c.region.name) for c in calls
            if c.region._row_plan is not None
            and getattr(c.config[0], "shadow_rows", None) is not None}
    fleets, falls = {}, {}        # group -> who may ride; i -> when it not
    for i, call in enumerate(calls):
        member = call.served.member if not single else None
        breaker = call.config[1]
        if member is None or member.group is None or call.entry is None \
                or call.config[2] not in (None, fleet.precision) \
                or (id(call.region.events), call.region.name) in held \
                or breaker is not None and any(
                    later.config[1] is breaker for later in calls[i + 1:]):
            continue
        falls[i] = [f"r{j}_" for j in fleets.get(member.group, ())
                    if calls[j].served.member is member]
        if breaker is not None:
            falls[i].append("FAULTS_._ACTIVE is not None")
        if falls[i] and call.config[4] not in _EXACT:
            del falls[i]                  # no forward of its own to fall to
            continue
        fleets.setdefault(member.group, []).append(i)
    batches = {}
    for group, where in fleets.items():
        features = {calls[i].entry.in_shape[1:] for i in where}
        if len(features) > 1:
            return None
        batches[group] = fleet.staging(
            group, max(calls[i].entry.in_shape[0] for i in where),
            features.pop())
    head, keyed, body, finish, opened, bound = [], [], [], [], [], {}
    for i, call in enumerate(calls):
        region, entry = call.region, call.entry
        qos, breaker, precision, stream, engine = call.config
        tag, name = f"{i}_", repr(region.name)
        reg = "region_" if single else f"R{i}_"
        scope.update({f"K{i}_": call.key, f"Q{i}_": qos, f"BR{i}_": breaker,
                      f"PR{i}_": precision, f"ST{i}_": stream,
                      f"EN{i}_": engine, f"MODEL{i}_": region.ml.model_path})
        if single:
            params = list(region.signature.parameters)
            refs = {n: n for n in params}
            args, kwargs = f"({''.join(f'{n}, ' for n in params)})", "{}"
            head.append(f"def program(region_, {', '.join(params)}):")
        else:
            scope.update({f"R{i}_": region, f"S{i}_": call.served,
                          f"N{i}_": call.served.name,
                          f"KW{i}_": call.arity[1]})
            refs, positional = {}, call.arity[0]
            for j, param in enumerate(region.signature.parameters.values()):
                local = refs[param.name] = f"v{i}_{j}_"
                if param.name in call.arity[1]:
                    keyed.append(f"{local} = kw{i}_[{param.name!r}]")
                elif j >= positional:
                    scope[local] = param.default
            named = "".join(f"kn{i}_{j}_, " for j in range(len(
                call.arity[1])))
            head += [f"{''.join(f'v{i}_{j}_, ' for j in range(positional))}"
                     f"= a{i}_" if positional else f"if a{i}_: {miss}",
                     *([f"{named}= kw{i}_", f"if ({named}) != KW{i}_:",
                        f"    {miss}"] if call.arity[1] else
                       [f"if kw{i}_: {miss}"])]
            args, kwargs = f"a{i}_", f"kw{i}_"
        env = f"{{{', '.join(f'{n!r}: {r}' for n, r in refs.items())}}}"
        ref = refs.__getitem__
        bound[i] = ref, env
        # Only a call that may run its own forward reads its engine, and
        # guards the engine's type.
        handed = entry is None or engine not in _EXACT and i not in falls
        alone = not handed and falls.get(i) != []
        head += [*([f"e{i}_ = {reg}._engine"] if alone else []),
                 *config_guard(reg, f"c{i}_", (f"Q{i}_", f"BR{i}_", f"PR{i}_",
                                               f"ST{i}_"), miss,
                               f" or type(e{i}_) is not EN{i}_" if alone
                               else "")]
        keyed += key_lines(region._key_maps, ref, f"g{i}_", miss, f"K{i}_")
        line = decision_line(region.ml, refs.get, f"p{i}_")
        decide = [] if single else [f"S{i}_.invocations += 1"]
        if line is None:
            decide.append(f"p{i}_ = {reg}._decide({env})")
        else:
            keyed.append(line)
        decision = "None"
        if qos is not None:               # decide spends: once
            decide += [f"d{i}_ = Q{i}_.decide({name}, p{i}_)",
                       f"p{i}_ = d{i}_.path"]
            decision = f"d{i}_"
        # A call served before a rider ahead of it has finished streams
        # into its slot, replayed below in call order.
        defer = stream is not None and any(j < i for j in falls)
        if defer:
            body.append(f"b{i}_ = None")
            finish += [f"if b{i}_ is not None:",
                       f"    b{i}_.replay(ST{i}_)"]

        def deferred(lines, i=i, reg=reg, defer=defer):
            if not defer:
                return lines
            return [f"{reg}.events.stream = b{i}_ = SLOT_()", "try:",
                    *_indent(lines), "finally:",
                    f"    if {reg}.events.stream is b{i}_:",
                    f"        {reg}.events.stream = ST{i}_"]

        hand = [f"s{i}_ = {reg}.invoke_decided({env}, p{i}_, {decision}, "
                f"{args}, {kwargs})"]
        if handed:
            body += decide + deferred(hand)
            continue
        off = f"p{i}_ != INFER_" + (f" or d{i}_.shadow" if qos else "")
        decide += [f"if {off}:", *_indent(deferred(hand))]
        if breaker is not None:           # allow probes: once
            decide += [f"elif not BR{i}_.allow():", *_indent(deferred([
                f"{reg}._note_fallback('breaker_open', BR{i}_)",
                f"s{i}_ = {reg}._run_accurate({env}, ACCURATE_, "
                f"'breaker_open', {decision}, {args}, {kwargs})"]))]
        # The notes in the twin's order, into the record's dict where it
        # always takes one.
        into = breaker is not None or stream is not None
        note = (f"n{i}_[{{!r}}] = {{}}" if into
                else f"q{i}_.note({{!r}}, {{}})").format
        opened.append(i)
        served = [*([f"vd{i}_ = BR{i}_.state"] if breaker else []),
                  f"l{i}_ = {reg}.events", *EventLog.open_lines(
                      f"l{i}_", f"q{i}_", "INFER_", name),
                  *([f"n{i}_ = q{i}_.notes = {{}}"] if into else []),
                  *([note("breaker", f"vd{i}_")] if breaker else []),
                  *([f"if d{i}_.reason is not None:",
                     f"    {note('policy', f'd{i}_.reason')}"] if qos else [])]
        spend = [f"sp{i}_ = Q{i}_.budget_spend({name})",
                 f"if sp{i}_ is not None:",
                 f"    {note('spend', f'sp{i}_')}"] \
            if stream is not None and qos is not None else []
        own = deferred(_own(i, call, reg, env, args, kwargs, ref, note,
                            spend, scope)) if alone else []
        if i in falls:                    # may ride
            dtype = precision or (fleet.precision
                                  if fleet.precision != "float64" else None)
            ride = [f"r{i}_ = True", f"s{i}_ = None",
                    *([f"t{i}_ = None"] if breaker else []), *spend,
                    *([f"{reg}._note_precision(q{i}_, {dtype!r})"]
                      if dtype else [])]
            body.append(f"r{i}_ = False")
            if falls[i]:
                served += [f"if not ({' or '.join(falls[i])}):",
                           *_indent(ride), "else:", *_indent(own)]
            else:
                served += ride
            finish += _rider_finish(i, reg, env, args, kwargs, breaker,
                                    stream)
        else:
            served += own
        body += decide + ["else:", *_indent(served)]
    if fleets:
        body += _fleet_lines(calls, fleets, batches, bound, fleet, scope)
    if not single:     # a fleet moved or rebound since it was resolved
        stale = "".join(f" or G{g}_.epoch != CACHE_.epoch or "
                        f"(P{g}_._stale or P{g}_.stale)()"
                        for g in range(len(fleets)))
        unpack = ", ".join(f"(_, a{i}_, kw{i}_)" for i in range(len(calls)))
        head = [f"{unpack}, = calls", f"if F_.version != VERSION_{stale}:",
                f"    {miss}", *head]
        scope.update(F_=fleet, CACHE_=fleet.cache, VERSION_=fleet.version)
    body += finish
    if opened:                            # a failure closes its records
        logs = "".join(f"({'region_' if single else f'R{i}_'}.events, "
                       f"q{i}_), " for i in opened)
        body = [" = ".join([*(f"q{i}_" for i in opened), "None"]), "try:",
                *_indent(body), "except BaseException as exc_:",
                f"    for l_, q_ in ({logs}):", "        if q_ is not None:",
                "            l_.abort(q_, exc_)", "    raise"]
    results = "s0_" if single else "{" + ", ".join(
        f"N{i}_: s{i}_" for i in range(len(calls))) + "}"
    definition = head.pop(0) if single else "def wave(calls):"
    source = "\n".join([definition, "    try:", *_indent(head + keyed, 2),
                        "    except Exception:", f"        {miss}",
                        *_indent(body), f"    return {results}"])
    program = generate("program" if single else "wave", source, scope)
    if single:
        program.__defaults__ = calls[0].region._binder.__defaults__
        program.config = calls[0].config
    return program


def _own(i, call, reg, env, args, kwargs, ref, note, spend, scope) -> list:
    """A call served on the surrogate by its own forward, as a region
    program serves it: gather, the queue's submit or the forward (the
    engine's memoised plan as lines on an exact ``InferenceEngine``),
    precision note and sample, finite check, land, finish."""
    qos, breaker, precision, stream, engine = call.config
    tag, name, entry = f"{i}_", repr(call.region.name), call.entry
    times, x, y, e = f"ts{i}_", f"x{i}_", f"y{i}_", f"e{i}_"
    auto = precision == "auto"            # the tier, read per call
    dtype = {None: "", "float64": ", None", "float32": ", F32_",
             "auto": f", dt{i}_"}[precision]
    lines = [f"{times} = q{i}_.times", *([f"t{i}_ = None"] if breaker else []),
             "sw_ = perf_counter()",
             *gather_lines(entry, ref, env, tag, scope, out=x),
             f"{times}[TO_] = perf_counter() - sw_"]
    if stream is not None:
        lines += [note("digest", f"DIGEST_({x})"), *spend]
    if auto:
        lines.append(f"dt{i}_, sm{i}_ = {reg}._effective_precision()")
    submit = [f"{e}.submit({reg}, q{i}_, (E{tag}, {env}), {x}"
              f"{dtype or ', None'})", f"s{i}_ = None"]
    if engine is BatchedInferenceEngine and breaker is None and not auto:
        return lines + submit             # the queue finishes the record
    forward = [f"m{i}_ = c{i}_.model_path or MODEL{i}_",
               f"{y} = {e}.infer(m{i}_, {x}{dtype})"]
    if engine is InferenceEngine:         # the memo's plan, run as lines
        forward = [                       # (keyed on infer's dtype argument)
            forward[0], f"o{i}_ = {e}._memo.get((m{i}_, {dtype[2:] or None}))",
            f"pl{i}_ = None", f"if o{i}_ is not None and o{i}_[0] == "
            f"{e}.cache.epoch and FAULTS_._ACTIVE is None:",
            f"    pl{i}_ = o{i}_[1]()",
            f"    if pl{i}_ is not None and pl{i}_.stale():",
            f"        pl{i}_ = None", f"if pl{i}_ is None:",
            f"    {forward[1]}",
            "else:", *_indent([
                f"dv{i}_ = {e}.device", f"ck{i}_ = dv{i}_.clock.simulated",
                *forward_lines(f"pl{i}_", x, y, f"dv{i}_", tag, lanes=True),
                f"{e}.last_timing = {{'forward_wall': w{tag}, "
                f"'forward_device': (w{tag} if bz{tag} is None else bz{tag})"
                f" / dv{i}_.dense_speedup, 'lanes': ln{tag}, 'transfer_sim': "
                f"dv{i}_.clock.simulated - ck{i}_, 'compiled': True, "
                f"'dtype': NAMES_[pl{i}_.dtype]}}"])]
    forward.append(f"{times}[INF_] = {e}.last_timing['forward_device']")
    if precision is not None:
        noted = f"{reg}._note_precision(q{i}_, pd{i}_)"
        forward += [f"pd{i}_ = {e}.last_timing['dtype']",
                    *([f"if sm{i}_ is None:", f"    {noted}"] if auto
                      else [noted])]
    if breaker is not None:
        forward += _finite(i, y, call.region.name)
    if auto:
        forward += [f"if sm{i}_ is not None:", *_indent([
            f"{y} = {y}.copy()", f"lt{i}_ = {e}.last_timing",
            "sw_ = perf_counter()", f"rf{i}_ = {e}.infer(m{i}_, {x})",
            f"{times}[SHADOW_] = perf_counter() - sw_",
            f"{e}.last_timing.update(lt{i}_)",
            f"{reg}._note_precision(q{i}_, pd{i}_, sm{i}_.observe({name}, "
            f"{y}, rf{i}_, qos=Q{i}_))"])]
    forward += ["sw_ = perf_counter()",
                *land_lines(entry, ref, env, tag, scope, y, f"{y}[..., 0]"),
                f"{times}[FROM_] = perf_counter() - sw_"]
    done = EventLog.finish_lines(f"l{i}_", f"q{i}_", stream is not None)
    if breaker is None:
        forward += [*done, f"s{i}_ = None"]
    else:                       # from the forward on: a breaker failure
        forward = ["try:", *_indent(forward), "except Exception as exc_:",
                   f"    t{i}_ = exc_", *_tripped(i, reg, env, args, kwargs,
                                                 done)]
    if engine is BatchedInferenceEngine and breaker is None:
        return lines + [f"if sm{i}_ is None:", *_indent(submit), "else:",
                        *_indent(forward)]
    return lines + forward


def _finite(i, y, region) -> list:
    """``_all_finite``'s lines: a finite sum, else the element-wise check."""
    return ["try:", f"    f{i}_ = isfinite(SUM_({y}, None))",
            "except RuntimeWarning:", f"    f{i}_ = False",
            f"if not f{i}_ and not ALL_(ISFINITE_({y})):",
            f"    raise NONFINITE_({NONFINITE.format(region)!r})"]


def _tripped(i, reg, env, args, kwargs, success) -> list:
    """The guard rule after the forward: a failure trips the breaker and
    the accurate kernel re-serves; else a success and ``success``."""
    return [f"if t{i}_ is not None:",
            f"    {reg}._trip(BR{i}_, q{i}_, t{i}_)",
            f"    s{i}_ = {reg}._run_accurate({env}, ACCURATE_, BR{i}_.state, "
            f"None, {args}, {kwargs})", "else:",
            f"    BR{i}_.record_success()", *_indent(success),
            f"    s{i}_ = None"]


def _rider_finish(i, reg, env, args, kwargs, breaker, stream) -> list:
    """A rider's record, in its slot: the wave's equal shares of the
    three phases, the guard rule, the finish."""
    done = EventLog.finish_lines(f"l{i}_", f"q{i}_", stream is not None)
    if breaker is None:
        return [f"if r{i}_:", f"    q{i}_.times = {{TO_: to_, INF_: inf_, "
                "FROM_: from_}", *_indent(done)]
    return [f"if r{i}_:", f"    q{i}_.times = {{TO_: to_, INF_: inf_}}",
            *_indent(_tripped(i, reg, env, args, kwargs,
                              [f"q{i}_.times[FROM_] = from_", *done]))]


def _fleet_lines(calls, fleets, batches, bound, fleet, scope) -> list:
    """The riders' part of a wave: per fleet its staging rows covered and
    composed, one stacked forward as lines, then each rider's finite
    check (its own rows) and land — phases timed once, shared evenly."""
    riders = sorted(i for where in fleets.values() for i in where)
    cover, gather, digest, forward, land = [], [], [], [], []
    for g, (group, where) in enumerate(fleets.items()):
        batch, slots = batches[group], [[] for _ in range(group.plan.k)]
        widths = set()
        for i in where:
            call = calls[i]
            rows, row = call.entry.in_shape[0], call.served.member.row
            widths.add(rows)
            slots[row].append(f"{rows} if r{i}_ else ")
            scope[f"M{i}_"] = call.served.member
            into, (ref, env) = batch[row, :rows], bound[i]
            if call.config[3] is None:
                lines = gather_lines(call.entry, ref, env, f"{i}_", scope,
                                     into=into)
            else:               # digested as composed, not as cast
                scope[f"V{i}_"] = into
                lines = gather_lines(call.entry, ref, env, f"{i}_", scope,
                                     out=f"x{i}_") + [f"V{i}_[...] = x{i}_"]
                digest += [f"if r{i}_:",
                           f"    n{i}_['digest'] = DIGEST_(x{i}_)"]
            gather += [f"if r{i}_:", *_indent(lines)]
            check = [*(_finite(i, f"h{g}_[{row}, :{rows}]",
                               call.region.name)
                       if call.config[1] is not None else []),
                     *land_lines(call.entry, ref, env, f"{i}_", scope,
                                 f"h{g}_[{row}, :{rows}]",
                                 f"h{g}_[{row}, :{rows}, 0]", f"hs{g}_")]
            if call.config[1] is not None:
                check = ["try:", *_indent(check), "except Exception as exc_:",
                         f"    t{i}_ = exc_"]
            land += [f"if r{i}_:", *_indent(check)]
        scope.update({f"G{g}_": group, f"P{g}_": group.plan, f"T{g}_": batch,
                      f"W{g}_": batch[:, :max(widths)]})
        cover += [f"cv{g}_ = [{', '.join(''.join(s) + '0' for s in slots)}]",
                  f"if G{g}_.filled != cv{g}_:", f"    G{g}_.cover(cv{g}_)"]
        rows = f"W{g}_" if len(widths) == 1 else f"T{g}_[:, :max(cv{g}_)]"
        forward += [f"if {' or '.join(f'r{i}_' for i in where)}:", *_indent([
            f"u{g}_ = {rows}", *forward_lines(
                f"P{g}_", f"u{g}_", f"h{g}_", "dv_", f"f{g}_"),
            f"wall_ += wf{g}_", f"hs{g}_ = h{g}_.shape[2:]",
            *(line for i in where for line in (
                f"if r{i}_:", f"    M{i}_.invocations += 1"))])]
    return [f"n_ = {' + '.join(f'r{i}_' for i in riders)}", "if n_:",
            *_indent([
                *cover, "sw_ = perf_counter()", *gather,
                "to_ = (perf_counter() - sw_) / n_", *digest,
                "dv_ = F_.device", "ck_ = dv_.clock.simulated", "wall_ = 0.0",
                *forward, "fw_ = wall_ / dv_.dense_speedup",
                "F_.last_timing = {'forward_wall': wall_, 'forward_device': "
                "fw_, 'transfer_sim': dv_.clock.simulated - ck_, 'compiled': "
                f"True, 'members_served': n_, 'dtype': {fleet.precision!r}}}",
                "inf_ = fw_ / n_", "sw_ = perf_counter()", *land,
                "from_ = (perf_counter() - sw_) / n_"])]
