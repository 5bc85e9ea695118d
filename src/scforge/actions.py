"""Closed mini action language: patterns, calls, conditions, statements.

Values are integers, booleans, and finite lists (represented as tuples).
Everything here is an immutable value; evaluation never mutates its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Union

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


def _literal_eq(self, other) -> bool:
    """Literals are equal when their values are `values_equal`, so a chart's
    sets keep `f(1)` and `f(true)` apart. The generated hash still fits: it
    merely lets the two collide."""
    return type(other) is type(self) and values_equal(self.value, other.value)


def print_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(print_value(x) for x in v) + "]"
    return str(v)


def is_json_value(x) -> bool:
    """Does decoded JSON `x` denote a value: an int, a boolean, or a list of
    values?"""
    return isinstance(x, int) or fits(x, [is_json_value])


def value_to_json(v):
    """A value as JSON data: each tuple becomes a list."""
    return [value_to_json(x) for x in v] if isinstance(v, tuple) else v


def value_from_json(x):
    """The value that decoded JSON `x` denotes: each list becomes a tuple."""
    return tuple(value_from_json(y) for y in x) if isinstance(x, list) else x


class Required(NamedTuple):
    """The shape of a key that an object must have."""

    shape: object


def fits(data, shape) -> bool:
    """Does decoded JSON `data` have `shape`? A shape is a type, a tuple of
    types or a predicate; `[s]` is a list of `s`; `{str: s}` an object
    mapping any key to `s`; any other dict an object that has each key the
    dict gives as `Required(s)`, and whose keys, where present, have the
    shapes the dict gives them."""
    if isinstance(shape, Required):
        return fits(data, shape.shape)
    if isinstance(shape, list):
        return isinstance(data, list) and all(fits(x, shape[0]) for x in data)
    if isinstance(shape, dict):
        return isinstance(data, dict) and all(
            k in data for k, s in shape.items() if isinstance(s, Required)
        ) and all(
            fits(v, shape[str] if str in shape else shape.get(k, object))
            for k, v in data.items()
        )
    return isinstance(data, shape) if isinstance(shape, (type, tuple)) else shape(data)


def value(cls):
    """Make `cls` an immutable record: a slotted dataclass that compares,
    hashes and prints by its fields as a frozen dataclass does, but builds
    without `object.__setattr__`. Nothing assigns to a field after
    construction (`tests/test_value_records.py` checks the source). Its hash
    is taken on first use and kept in a `_hash` slot: chart rewrites and
    term exploration look the same values up in sets and dicts on every
    step, and the generated hash walks the whole tree. It pickles and
    copies by its init fields, so a copy takes its hash afresh: string
    hashes differ between processes."""
    cls.__annotations__["_hash"] = "Optional[int]"
    cls._hash = field(default=None, init=False, compare=False, repr=False)
    cls = dataclass(slots=True, unsafe_hash=True)(cls)
    generated = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = generated(self)
        return h

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in cls.__match_args__)

    cls.__hash__, cls.__reduce__ = __hash__, __reduce__
    return cls


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

    def __init__(self, cond: Cond):
        super().__init__(f"intermediate condition failed: {cond!r}")
        self.cond = cond


# ---------------------------------------------------------------------------
# Patterns

class Pattern:
    __slots__ = ()


@value
class PVar(Pattern):
    name: str


@value
class PLit(Pattern):
    value: Value

    __eq__ = _literal_eq


@value
class PEmpty(Pattern):
    """The empty-list pattern []."""


@value
class PCons(Pattern):
    head: Pattern
    tail: Pattern


@value
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


@value
class Call:
    name: str
    args: tuple[Pattern, ...] = ()
    exception: bool = False


@value
class Message:
    """An event or output of both semantics: a name with concrete argument
    values, and whether it is thrown. Its text is taken on first use and
    kept, as its hash is: term exploration shares each message among many
    runs, and callers hash and render every run."""

    name: str
    args: tuple[Value, ...] = ()
    exception: bool = False
    _text: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    def __eq__(self, other):
        """Arguments compare as `values_equal`, so `f(1)` and `f(true)`
        differ; the hash merely lets the two collide."""
        return (type(other) is Message and self.name == other.name
                and self.exception == other.exception and values_equal(self.args, other.args))

    def __str__(self):
        """The message's text, `throw? name(v, …)`."""
        if self._text is None:
            throw = "throw " if self.exception else ""
            self._text = f"{throw}{self.name}(" + ", ".join(map(print_value, self.args)) + ")"
        return self._text


# ---------------------------------------------------------------------------
# Expressions (used in assignments, send arguments, comparisons)

class Expr:
    __slots__ = ()


@value
class EVar(Expr):
    name: str


@value
class ELit(Expr):
    value: Value

    __eq__ = _literal_eq


@value
class EBin(Expr):
    op: str  # '+' or '-'
    left: Expr
    right: Expr


@value
class ECons(Expr):
    head: Expr
    tail: Expr


@value
class EList(Expr):
    items: tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Conditions

class Cond:
    __slots__ = ()


@value
class CTrue(Cond):
    pass


@value
class CFalse(Cond):
    pass


@value
class CVar(Cond):
    name: str


@value
class CNot(Cond):
    operand: Cond


@value
class CAnd(Cond):
    left: Cond
    right: Cond


@value
class COr(Cond):
    left: Cond
    right: Cond


@value
class CCmp(Cond):
    op: str  # '==', '<', '<='
    left: Expr
    right: Expr


@value
class CMatch(Cond):
    """matchPattern(var, pattern): true iff the variable's value matches."""

    var: str
    pattern: Pattern


TRUE = CTrue()


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


@value
class Assign(StmtPrim):
    var: str
    expr: Expr


@value
class Send(StmtPrim):
    name: str
    args: tuple[Expr, ...] = ()
    exception: bool = False


@value
class SetTimer(StmtPrim):
    pass


@value
class StopTimer(StmtPrim):
    pass


@value
class Check(StmtPrim):
    """Runtime check inserted when sequencing actions with `+`."""

    cond: Cond


Stmt = tuple  # tuple[StmtPrim, ...]
SKIP: Stmt = ()


@value
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
    """The unique binding of c's pattern variables against m, if any; their throw flags agree."""
    if c.name != m.name or c.exception != m.exception or len(c.args) != len(m.args):
        return None
    binding: Optional[Valuation] = None
    for p, v in zip(c.args, m.args):
        b = match_pattern(p, v)
        if b is None:
            return None
        binding = b if binding is None else merge(binding, b)
    return {} if binding is None else binding


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


def _operand_error(op: str, left: Value, right: Value) -> ActionError:
    return ActionError(f"cannot apply {op} to {left!r} and {right!r}")


def eval_expr(e: Expr, env: Valuation) -> Value:
    if isinstance(e, EVar):
        return _lookup(e.name, env)
    if isinstance(e, ELit):
        return e.value
    if isinstance(e, EBin):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        try:
            return left + right if e.op == "+" else left - right
        except TypeError:
            raise _operand_error(e.op, left, right) from None
    if isinstance(e, ECons):
        tail = eval_expr(e.tail, env)
        if not isinstance(tail, tuple):
            raise ActionError(f"cons onto non-list value {tail!r}")
        return (eval_expr(e.head, env),) + tail
    if isinstance(e, EList):
        return tuple(eval_expr(item, env) for item in e.items)
    raise TypeError(f"not an expression: {e!r}")


def eval_cond(c: Cond, store: Valuation, v: Valuation) -> bool:
    return _eval_cond(c, merge(store, v) if v else store)


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
            return values_equal(left, right)
        try:
            if c.op == "<":
                return left < right
            if c.op == "<=":
                return left <= right
        except TypeError:
            raise _operand_error(c.op, left, right) from None
        raise TypeError(f"bad comparison operator {c.op!r}")
    if isinstance(c, CMatch):
        return match_pattern(c.pattern, _lookup(c.var, env)) is not None
    raise TypeError(f"not a condition: {c!r}")


def exec_stmt(s: Stmt, store, v: Valuation) -> tuple[Valuation, tuple[Message, ...]]:
    """Left-to-right execution over one scope, `store` (a valuation or its
    pairs) with its updates so far and v: the updated store and sent messages."""
    out = dict(store)
    scope = merge(out, v) if v else out
    msgs: list[Message] = []
    for prim in s:
        if isinstance(prim, Assign):
            out[prim.var] = scope[prim.var] = eval_expr(prim.expr, scope)
        elif isinstance(prim, Send):
            args = tuple(eval_expr(a, scope) for a in prim.args)
            msgs.append(Message(prim.name, args, prim.exception))
        elif isinstance(prim, (SetTimer, StopTimer)):
            out[TIMER_FLAG] = scope[TIMER_FLAG] = isinstance(prim, SetTimer)
        elif isinstance(prim, Check):
            if not _eval_cond(prim.cond, scope):
                raise ActionConditionViolated(prim.cond)
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


# ---------------------------------------------------------------------------
# Traversal: one walk serves every question about where a variable sits

_TREES = (Expr, Cond, StmtPrim, Action, tuple)


def _children(x) -> dict:
    """The direct subtrees of an expression, condition, statement or action:
    the items of a tuple by position, and the fields of a node that hold a
    node or a tuple by name. A literal's value is data, not a subtree; names,
    patterns and an absent condition are leaves."""
    if isinstance(x, tuple):
        return dict(enumerate(x))
    if not isinstance(x, _TREES) or isinstance(x, ELit):
        return {}
    return {f: v for f in x.__match_args__ if isinstance(v := getattr(x, f), _TREES)}


def reads(x) -> set[str]:
    """The variables that an expression, condition, statement or action
    reads. An assignment's target is written, not read."""
    if isinstance(x, (EVar, CVar)):
        return {x.name}
    if isinstance(x, CMatch):
        return {x.var}
    return set().union(*map(reads, _children(x).values()))


def rename(x, m: dict[str, Expr]):
    """x with each variable it reads that `m` maps replaced by its image;
    assignment targets stay. `m` maps a variable to a plain variable, or a
    `v+k` pattern variable to `inp - k`, an int. A condition's own variable
    (`CVar`, `CMatch`) takes no expression, so over `inp - k` the condition
    moves onto `inp`: the literal n becomes n + k, and every other pattern
    matches every int or none; a bare variable holds where it is not 0."""
    if isinstance(x, EVar):
        return m.get(x.name, x)
    if isinstance(x, CVar):
        r = m.get(x.name)
        if isinstance(r, EBin):
            return CNot(rename(CMatch(x.name, PLit(0)), m))
        return CVar(r.name) if isinstance(r, EVar) else x
    if isinstance(x, CMatch):
        r = m.get(x.var)
        if isinstance(r, EBin):
            p = x.pattern
            if isinstance(p, PLit) and type(p.value) is int:
                p = PLit(p.value + r.right.value)
            return CMatch(r.left.name, p)
        return CMatch(r.name, x.pattern) if isinstance(r, EVar) else x
    kids = {f: rename(v, m) for f, v in _children(x).items()}
    if isinstance(x, tuple):
        return tuple(kids.values())
    return replace(x, **kids) if kids else x
