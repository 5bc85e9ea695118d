"""Closed mini action language: patterns, calls, conditions, statements.

Values are integers, booleans, and finite lists (represented as tuples).
Everything here is an immutable value; evaluation never mutates its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

# Reserved names: generated input parameters, the timer flag, and the
# timer trigger injected by the do-action elimination.
TIMER_FLAG = "$timer"
TIMEOUT = "timeout"
INP_RE = re.compile(r"inp[0-9]+\Z")

Value = Union[int, bool, tuple]


def values_equal(a: "Value", b: "Value") -> bool:
    """Type-strict deep equality: True != 1, (True,) != (1,)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def is_json_value(x) -> bool:
    """Does decoded JSON `x` denote a value: an int, a boolean, or a list of
    values?"""
    return isinstance(x, int) or fits(x, [is_json_value])


def fits(data, shape) -> bool:
    """Does decoded JSON `data` have `shape`? A shape is a type, a tuple of
    types or a predicate; `[s]` is a list of `s`; `{str: s}` an object
    mapping any key to `s`; any other dict an object whose keys, where
    present, have the shapes the dict gives them."""
    if isinstance(shape, list):
        return isinstance(data, list) and all(fits(x, shape[0]) for x in data)
    if isinstance(shape, dict):
        return isinstance(data, dict) and all(
            fits(v, shape[str] if str in shape else shape.get(k, object))
            for k, v in data.items()
        )
    return isinstance(data, shape) if isinstance(shape, (type, tuple)) else shape(data)


def is_reserved(name: str) -> bool:
    return name == TIMEOUT or "$" in name or bool(INP_RE.match(name))


class ActionError(Exception):
    pass


class UnboundVariable(ActionError):
    pass


class ConflictingValuation(ActionError):
    pass


class ActionConditionViolated(ActionError):
    """An intermediate condition inserted by action sequencing failed."""


# ---------------------------------------------------------------------------
# Patterns

class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class PVar(Pattern):
    name: str


@dataclass(frozen=True)
class PLit(Pattern):
    value: Value


@dataclass(frozen=True)
class PEmpty(Pattern):
    """The empty-list pattern []."""


@dataclass(frozen=True)
class PCons(Pattern):
    head: Pattern
    tail: Pattern


@dataclass(frozen=True)
class PPlus(Pattern):
    """Constructor pattern ``var + k``: matches integer n, binding var to n - k."""

    var: str
    k: int


def pattern_vars(p: Pattern) -> list[str]:
    if isinstance(p, PVar):
        return [p.name]
    if isinstance(p, PPlus):
        return [p.var]
    if isinstance(p, PCons):
        return pattern_vars(p.head) + pattern_vars(p.tail)
    return []


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple[Pattern, ...] = ()
    exception: bool = False


@dataclass(frozen=True)
class Message:
    name: str
    args: tuple[Value, ...] = ()
    exception: bool = False


# ---------------------------------------------------------------------------
# Expressions (used in assignments, send arguments, comparisons)

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True)
class ELit(Expr):
    value: Value


@dataclass(frozen=True)
class EBin(Expr):
    op: str  # '+' or '-'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ECons(Expr):
    head: Expr
    tail: Expr


@dataclass(frozen=True)
class EList(Expr):
    items: tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Conditions

class Cond:
    __slots__ = ()


@dataclass(frozen=True)
class CTrue(Cond):
    pass


@dataclass(frozen=True)
class CFalse(Cond):
    pass


@dataclass(frozen=True)
class CVar(Cond):
    name: str


@dataclass(frozen=True)
class CNot(Cond):
    operand: Cond


@dataclass(frozen=True)
class CAnd(Cond):
    left: Cond
    right: Cond


@dataclass(frozen=True)
class COr(Cond):
    left: Cond
    right: Cond


@dataclass(frozen=True)
class CCmp(Cond):
    op: str  # '==', '<', '<='
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CMatch(Cond):
    """matchPattern(var, pattern): true iff the variable's value matches."""

    var: str
    pattern: Pattern


TRUE = CTrue()


def conj(*conds: Cond) -> Cond:
    """Right-folded conjunction; the empty conjunction is true."""
    return conj_opt(*conds) or TRUE


def conj_opt(*conds: Optional[Cond]) -> Optional[Cond]:
    """Conjunction over optional conditions; all-absent stays absent."""
    cs = [c for c in conds if c is not None]
    if not cs:
        return None
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = CAnd(c, out)
    return out


# ---------------------------------------------------------------------------
# Statements: a statement is a tuple of primitives, `&` is concatenation and
# the empty tuple is skip.

class StmtPrim:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(StmtPrim):
    var: str
    expr: Expr


@dataclass(frozen=True)
class Send(StmtPrim):
    name: str
    args: tuple[Expr, ...] = ()
    exception: bool = False


@dataclass(frozen=True)
class SetTimer(StmtPrim):
    pass


@dataclass(frozen=True)
class StopTimer(StmtPrim):
    pass


@dataclass(frozen=True)
class Check(StmtPrim):
    """Runtime check inserted when sequencing actions with `+`."""

    cond: Cond


Stmt = tuple  # tuple[StmtPrim, ...]
SKIP: Stmt = ()


@dataclass(frozen=True)
class Action:
    stmt: Stmt = SKIP
    post: Optional[Cond] = None  # absent means true


def action_stmt(a: Optional[Action]) -> Stmt:
    return a.stmt if a is not None else SKIP


def action_post(a: Optional[Action]) -> Optional[Cond]:
    return a.post if a is not None else None


# ---------------------------------------------------------------------------
# Valuations

Valuation = dict  # Ident -> Value


def merge(store: Valuation, v: Valuation) -> Valuation:
    """Union of two valuations; conflicting bindings are an error."""
    out = dict(store)
    for k, val in v.items():
        if k in out and not values_equal(out[k], val):
            raise ConflictingValuation(f"{k} bound to both {out[k]!r} and {val!r}")
        out[k] = val
    return out


# ---------------------------------------------------------------------------
# Matching

def match_pattern(p: Pattern, value: Value) -> Optional[Valuation]:
    """Bindings making p equal to value, or None if there is no match."""
    if isinstance(p, PVar):
        return {p.name: value}
    if isinstance(p, PLit):
        return {} if values_equal(p.value, value) else None
    if isinstance(p, PEmpty):
        return {} if value == () and isinstance(value, tuple) else None
    if isinstance(p, PCons):
        if not isinstance(value, tuple) or not value:
            return None
        hb = match_pattern(p.head, value[0])
        if hb is None:
            return None
        tb = match_pattern(p.tail, tuple(value[1:]))
        if tb is None:
            return None
        return merge(hb, tb)
    if isinstance(p, PPlus):
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return {p.var: value - p.k}
    raise TypeError(f"not a pattern: {p!r}")


def match_call(c: Call, m: Message) -> Optional[Valuation]:
    """The unique binding of c's pattern variables against m, if any."""
    if c.name != m.name or len(c.args) != len(m.args):
        return None
    binding: Valuation = {}
    for p, v in zip(c.args, m.args):
        b = match_pattern(p, v)
        if b is None:
            return None
        binding = merge(binding, b)
    return binding


def inp_name(i: int) -> str:
    return f"inp{i}"


def call_expr_of(c: Call) -> Call:
    """Same name/arity, with argument i replaced by the variable inp<i>."""
    return Call(c.name, tuple(PVar(inp_name(i + 1)) for i in range(len(c.args))), c.exception)


def match_cond_of(c: Call) -> Optional[Cond]:
    """Conjunction of matchPattern(inp<i>, pattern_i) over the non-variable
    arguments, or absent when every argument is a plain variable."""
    return conj_opt(*(
        CMatch(inp_name(i + 1), p) for i, p in enumerate(c.args) if not isinstance(p, PVar)
    ))


# ---------------------------------------------------------------------------
# Evaluation

def _lookup(name: str, env: Valuation) -> Value:
    try:
        return env[name]
    except KeyError:
        raise UnboundVariable(name) from None


def eval_expr(e: Expr, env: Valuation) -> Value:
    if isinstance(e, EVar):
        return _lookup(e.name, env)
    if isinstance(e, ELit):
        return e.value
    if isinstance(e, EBin):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        return left + right if e.op == "+" else left - right
    if isinstance(e, ECons):
        tail = eval_expr(e.tail, env)
        if not isinstance(tail, tuple):
            raise ActionError(f"cons onto non-list value {tail!r}")
        return (eval_expr(e.head, env),) + tail
    if isinstance(e, EList):
        return tuple(eval_expr(item, env) for item in e.items)
    raise TypeError(f"not an expression: {e!r}")


def eval_cond(c: Cond, store: Valuation, v: Valuation) -> bool:
    env = merge(store, v)
    return _eval_cond(c, env)


def holds(c: Cond, store: Valuation, v: Valuation, unbound: bool) -> bool:
    """eval_cond, answering `unbound` when the condition reads an unbound
    variable: a guard over it cannot hold (False), while an invariant or
    postcondition over it is vacuous (True)."""
    try:
        return eval_cond(c, store, v)
    except UnboundVariable:
        return unbound


def _eval_cond(c: Cond, env: Valuation) -> bool:
    if isinstance(c, CTrue):
        return True
    if isinstance(c, CFalse):
        return False
    if isinstance(c, CVar):
        return bool(_lookup(c.name, env))
    if isinstance(c, CNot):
        return not _eval_cond(c.operand, env)
    if isinstance(c, CAnd):
        return _eval_cond(c.left, env) and _eval_cond(c.right, env)
    if isinstance(c, COr):
        return _eval_cond(c.left, env) or _eval_cond(c.right, env)
    if isinstance(c, CCmp):
        left = eval_expr(c.left, env)
        right = eval_expr(c.right, env)
        if c.op == "==":
            return left == right
        if c.op == "<":
            return left < right
        if c.op == "<=":
            return left <= right
        raise TypeError(f"bad comparison operator {c.op!r}")
    if isinstance(c, CMatch):
        return match_pattern(c.pattern, _lookup(c.var, env)) is not None
    raise TypeError(f"not a condition: {c!r}")


def exec_stmt(s: Stmt, store: Valuation, v: Valuation) -> tuple[Valuation, tuple[Message, ...]]:
    """Left-to-right execution: returns the updated store and sent messages."""
    env = merge(store, v)
    out = dict(store)
    msgs: list[Message] = []
    for prim in s:
        if isinstance(prim, Assign):
            val = eval_expr(prim.expr, {**env, **out})
            out[prim.var] = val
        elif isinstance(prim, Send):
            args = tuple(eval_expr(a, {**env, **out}) for a in prim.args)
            msgs.append(Message(prim.name, args, prim.exception))
        elif isinstance(prim, SetTimer):
            out[TIMER_FLAG] = True
        elif isinstance(prim, StopTimer):
            out[TIMER_FLAG] = False
        elif isinstance(prim, Check):
            if not _eval_cond(prim.cond, {**env, **out}):
                raise ActionConditionViolated(f"intermediate condition failed: {prim.cond!r}")
        else:
            raise TypeError(f"not a statement primitive: {prim!r}")
    return out, tuple(msgs)


def seq_actions(a1: Action, a2: Action) -> Action:
    """The `+` operator: interleave a1's postcondition as a runtime check."""
    post1 = a1.post if a1.post is not None else TRUE
    return Action(a1.stmt + (Check(post1),) + a2.stmt, a2.post)


def seq_actions_all(actions: list[Action]) -> Action:
    out = actions[0]
    for a in actions[1:]:
        out = seq_actions(out, a)
    return out


def cond_vars(c: Cond) -> set[str]:
    """Free variables of a condition."""
    if isinstance(c, CVar):
        return {c.name}
    if isinstance(c, CNot):
        return cond_vars(c.operand)
    if isinstance(c, (CAnd, COr)):
        return cond_vars(c.left) | cond_vars(c.right)
    if isinstance(c, CCmp):
        return expr_vars(c.left) | expr_vars(c.right)
    if isinstance(c, CMatch):
        return {c.var}
    return set()


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, EVar):
        return {e.name}
    if isinstance(e, EBin):
        return expr_vars(e.left) | expr_vars(e.right)
    if isinstance(e, ECons):
        return expr_vars(e.head) | expr_vars(e.tail)
    if isinstance(e, EList):
        out: set[str] = set()
        for item in e.items:
            out |= expr_vars(item)
        return out
    return set()


def stmt_read_vars(s: Stmt) -> set[str]:
    """Variables read by a statement (assign targets are not reads)."""
    out: set[str] = set()
    for prim in s:
        if isinstance(prim, Assign):
            out |= expr_vars(prim.expr)
        elif isinstance(prim, Send):
            for a in prim.args:
                out |= expr_vars(a)
        elif isinstance(prim, Check):
            out |= cond_vars(prim.cond)
    return out


def stmt_sends(s: Stmt) -> list[Send]:
    return [prim for prim in s if isinstance(prim, Send)]
