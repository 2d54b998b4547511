"""Execution-path decision logic (§III-A-2, §IV-B).

HPAC generates two execution paths per annotated region — accurate and
approximate — and decides per invocation which to take.  HPAC-ML's
modes map onto that choice:

* ``infer``      → approximate path (surrogate inference), always;
* ``collect``    → accurate path *plus* data capture, always;
* ``predicated`` → evaluate the condition each invocation: true means
  inference, false means collection (paper §III-B);
* an additional ``if(...)`` clause gates approximation entirely: when
  false the accurate path runs with **no** collection — this is the
  primitive Fig. 9 uses to interleave accurate timesteps with surrogate
  steps.
"""

from __future__ import annotations

import keyword
from functools import lru_cache

from ..directives.ast_nodes import MLDirective

__all__ = ["ExecutionPath", "decide_path", "compile_decision",
           "apply_override", "eval_condition", "eval_expr"]


class ExecutionPath:
    ACCURATE = "accurate"
    COLLECT = "collect"
    INFER = "infer"

    #: Every path value, in reporting order (telemetry roll-ups).
    ALL = (ACCURATE, COLLECT, INFER)


@lru_cache(maxsize=512)
def _compile_expr(expr: str):
    """Compile a directive expression once; conditions are evaluated on
    every region invocation, so re-parsing the source string per call
    would dominate small-region serving latency."""
    return compile(expr, "<directive>", "eval")


@lru_cache(maxsize=512)
def _compile_condition(expr: str):
    """Lower an opaque bool-expr to ``condition(env) -> bool``.

    The directive grammar treats these conditions as host-language
    expressions (in C they compile into the application); here the host
    language is Python, so ``eval`` against the call's argument binding
    is the faithful analogue.  Builtins are stripped: conditions are
    arithmetic/logical expressions over region arguments, not programs.
    A bare identifier — ``use_model``, the condition of every Table I
    app — needs neither ``eval`` nor a copy of the binding: it reads
    ``env[expr]``, and fails with the text ``eval`` would produce.
    """
    # ASCII only: ``eval`` NFKC-normalises identifiers, ``env[expr]``
    # would not; ``__debug__`` compiles to a constant, not a look-up.
    if isinstance(expr, str) and expr.isascii() and expr.isidentifier() \
            and not keyword.iskeyword(expr) and expr != "__debug__":
        def condition(env: dict) -> bool:
            try:
                return bool(env[expr])
            except KeyError:
                raise RuntimeError(
                    f"failed to evaluate directive condition {expr!r}: "
                    f"name {expr!r} is not defined") from None
            except Exception as exc:
                raise RuntimeError(f"failed to evaluate directive condition "
                                   f"{expr!r}: {exc}") from exc
    else:
        def condition(env: dict) -> bool:
            try:
                return bool(eval(_compile_expr(expr), {"__builtins__": {}},
                                 dict(env)))
            except Exception as exc:
                raise RuntimeError(f"failed to evaluate directive condition "
                                   f"{expr!r}: {exc}") from exc
    return condition


def eval_condition(expr: str, env: dict) -> bool:
    """Evaluate an opaque bool-expr against the region's bound arguments."""
    return _compile_condition(expr)(env)


def eval_expr(expr: str, env: dict) -> float:
    """Evaluate an opaque host-language numeric expression (e.g. the
    rate operand of a ``perfo`` clause) against the call environment."""
    try:
        return float(eval(_compile_expr(expr), {"__builtins__": {}},
                          dict(env)))
    except Exception as exc:
        raise RuntimeError(f"failed to evaluate directive expression "
                           f"{expr!r}: {exc}") from exc


def apply_override(path: str, override: str | None) -> str:
    """Apply a dynamic QoS path request to a statically-decided path.

    The single source of the override rule: a request applies only when
    the directive's own decision is the infer path.  A false ``if``
    clause or a predicated-collect outcome expresses application intent
    the runtime must not undo, whereas "this inference is not
    trustworthy right now — run accurate/collect instead" is exactly
    the adaptation QoS is for.  Used by both :func:`decide_path` and
    :meth:`repro.qos.QoSController.decide`.
    """
    if override is not None and path == ExecutionPath.INFER:
        return override
    return path


def compile_decision(ml: MLDirective):
    """Lower the directive's path rule to ``decide(env) -> path``.

    Built once per region: which clauses exist and which mode applies
    are resolved here, so an invocation only evaluates the conditions
    the directive actually carries.
    """
    gate = _compile_condition(ml.if_condition) \
        if ml.if_condition is not None else None
    condition = None
    if ml.mode == "infer":
        on_true, on_false = ExecutionPath.INFER, ExecutionPath.ACCURATE
        if ml.condition is not None:
            condition = _compile_condition(ml.condition)
    elif ml.mode == "collect":
        on_true = on_false = ExecutionPath.COLLECT
    else:
        # predicated: true -> inference, false -> data collection
        on_true, on_false = ExecutionPath.INFER, ExecutionPath.COLLECT
        condition = _compile_condition(ml.condition)

    def decide(env: dict) -> str:
        if gate is not None and not gate(env):
            return ExecutionPath.ACCURATE
        if condition is None or condition(env):
            return on_true
        return on_false

    return decide


def decision_line(ml: MLDirective, ref, out: str) -> str | None:
    """:func:`compile_decision`'s rule as one program line assigning the
    path to ``out``, ``ref(name)`` reading parameter ``name``; None
    unless each condition is a bare ``ref``-able name (``ref`` gives
    None for another)."""
    paths = {"infer": (ExecutionPath.INFER, ExecutionPath.ACCURATE),
             "collect": (ExecutionPath.COLLECT,) * 2}
    on_true, on_false = paths.get(ml.mode, (ExecutionPath.INFER,
                                            ExecutionPath.COLLECT))
    gate, condition = ml.if_condition, \
        ml.condition if ml.mode != "collect" else None
    if any(c is not None and ref(c) is None for c in (gate, condition)):
        return None
    path = repr(on_true) if condition is None else \
        f"({on_true!r} if {ref(condition)} else {on_false!r})"
    if gate is not None:
        path = f"{path} if {ref(gate)} else {ExecutionPath.ACCURATE!r}"
    return f"{out} = {path}"


def decide_path(ml: MLDirective, env: dict, override: str | None = None) -> str:
    """Resolve which execution path this invocation takes — the
    one-shot form of :func:`compile_decision`, which a region calls
    once and keeps.

    ``override`` is a dynamic :class:`ExecutionPath` request from a QoS
    policy (:mod:`repro.qos`), applied per :func:`apply_override`.
    """
    return apply_override(compile_decision(ml)(env), override)
