"""Flattening of hierarchical statecharts via a system of rewrite rules.

Each rule binds elements of the chart, checks a precondition, and rewrites a
declared set of components (its "delta"), leaving everything else untouched.
`transform_fixpoint` applies rules until none changes the chart, yielding a
flat machine that `to_simplified` converts to the `SCSimp` form.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .actions import (
    Action,
    Call,
    CMatch,
    CNot,
    Cond,
    EBin,
    ECons,
    EList,
    ELit,
    EVar,
    Expr,
    PPlus,
    PVar,
    SetTimer,
    StopTimer,
    TIMEOUT,
    TRUE,
    Assign,
    Check,
    Send,
    action_post,
    action_stmt,
    call_expr_of,
    conj_opt,
    inp_name,
    match_cond_of,
    seq_actions_all,
    CAnd,
    COr,
    CCmp,
    CVar,
)
from .ast import (
    COMPLETION_CHAOS,
    COMPLETION_ERROR,
    COMPLETION_IGNORE,
    FullState,
    InternT,
    PRIO_INNER,
    PRIO_OUTER,
    PRIO_STEREOS,
    SCFull,
    SCSimp,
    SEQUENTIAL,
    SimpState,
    SimpTrans,
    Trans,
    trans_key,
)
from .printer import print_chart


class BindingStale(Exception):
    """The binding no longer matches the chart it is applied to."""


class NonTermination(Exception):
    """The rewrite loop exceeded its step budget."""


class NotSimplifiable(Exception):
    """Residual constructs prevent conversion to the flat form."""


class IllFormedInput(Exception):
    """The chart fails its static checks."""


@dataclass(frozen=True)
class Binding:
    rule: int
    items: tuple  # ordered (key, value) pairs

    def __getitem__(self, key):
        for k, v in self.items:
            if k == key:
                return v
        raise KeyError(key)

    def describe(self) -> str:
        def show(v):
            if isinstance(v, Trans):
                return f"{v.src}->{v.trg}:{v.call.name}"
            if isinstance(v, InternT):
                return f"internal:{v.call.name}"
            if isinstance(v, frozenset):
                return "{" + ", ".join(sorted(show(x) for x in v)) + "}"
            return str(v)

        return ", ".join(f"{k}={show(v)}" for k, v in self.items)


def chart_hash(sc: SCFull) -> str:
    return hashlib.sha256(print_chart(sc).encode()).hexdigest()[:16]


class _Digest:
    """`chart_hash` of one chart, computed on first read; the chart is let go
    once it is. It is kept as a copy without the chart's index, which would
    otherwise stay alive with it."""

    __slots__ = ("_chart", "_value")

    def __init__(self, chart: SCFull):
        self._chart, self._value = replace(chart), None

    @property
    def value(self) -> str:
        if self._value is None:
            self._value, self._chart = chart_hash(self._chart), None
        return self._value

    def __eq__(self, other):
        return self.value == other.value if isinstance(other, _Digest) else NotImplemented

    def __hash__(self):
        return hash(self.value)


@dataclass(frozen=True, repr=False)
class TraceEntry:
    """One rewrite step. The digests of the charts before and after it are
    computed on first read, once per chart: consecutive entries share one."""

    rule: int
    name: str
    binding: str
    before: _Digest
    after: _Digest

    @property
    def before_hash(self) -> str:
        return self.before.value

    @property
    def after_hash(self) -> str:
        return self.after.value

    def __repr__(self) -> str:
        return (f"TraceEntry(rule={self.rule!r}, name={self.name!r}, binding={self.binding!r}, "
                f"before_hash={self.before_hash!r}, after_hash={self.after_hash!r})")


# ---------------------------------------------------------------------------
# Structural queries, answered from the chart's index (`SCFull.index`)

def substates(s: FullState, sc: SCFull) -> frozenset[FullState]:
    return sc.index.children.get(s.name, frozenset())


def list_of_all_superstates(s: FullState, sc: SCFull) -> tuple[FullState, ...]:
    """The strict superstates of s, parent first."""
    return sc.index.ancestors.get(s.name, ())


def superstates(s: FullState, sc: SCFull) -> frozenset[FullState]:
    return frozenset(list_of_all_superstates(s, sc))


def ingoing_t(s: FullState, sc: SCFull) -> frozenset[Trans]:
    return sc.index.ingoing.get(s.name, frozenset())


def outgoing_t(s: FullState, sc: SCFull) -> frozenset[Trans]:
    return sc.index.outgoing.get(s.name, frozenset())


def top_initial(sc: SCFull) -> bool:
    return bool(sc.index.top_names["initial"])


def simple_state(s: FullState, sc: SCFull) -> bool:
    return not substates(s, sc) and s.do is None and not s.internT


# The states with an ingoing (outgoing) transition on themselves or on a
# superstate, by name.
_ENTERED = attrgetter("index.ingoing_at_or_above")
_LEFT = attrgetter("index.outgoing_at_or_above")


def _above(at_or_above, s: FullState, sc: SCFull) -> bool:
    """A strict superstate of s has a transition in the direction of
    `at_or_above` (`_ENTERED` or `_LEFT`): s's parent is in that set, which
    holds every state below such a superstate."""
    sups = list_of_all_superstates(s, sc)
    return bool(sups) and sups[0].name in at_or_above(sc)


def _irrelevant(mod: str, at_or_above, s: FullState, sc: SCFull) -> bool:
    """The chart has a top-level `mod` state, and neither s nor any of its
    superstates is one or has a transition in the direction of `at_or_above`.
    Of s and its superstates, only the outermost can be top-level."""
    tops = sc.index.top_names[mod]
    sups = list_of_all_superstates(s, sc)
    return (bool(tops) and (sups[-1] if sups else s).name not in tops
            and s.name not in at_or_above(sc))


def initial_irrelevant(s: FullState, sc: SCFull) -> bool:
    return _irrelevant("initial", _ENTERED, s, sc)


def final_irrelevant(s: FullState, sc: SCFull) -> bool:
    return _irrelevant("final", _LEFT, s, sc)


def call_groups(s: FullState, sc: SCFull) -> dict[str, set[Trans]]:
    """Outgoing transitions of s grouped into maximal same-call classes."""
    groups: dict[str, set[Trans]] = {}
    for t in outgoing_t(s, sc):
        groups.setdefault(t.call.name, set()).add(t)
    return groups


def lcs(s1: FullState, s2: FullState, sc: SCFull) -> Optional[FullState]:
    """Least common strict superstate: the first shared entry of the two
    ancestor chains."""
    above2 = {st.name for st in list_of_all_superstates(s2, sc)}
    return next((st for st in list_of_all_superstates(s1, sc) if st.name in above2), None)


def chain_below(s: FullState, stop: Optional[FullState], sc: SCFull) -> list[FullState]:
    """Superstates of s from the parent upward, strictly below `stop`
    (all of them when stop is absent)."""
    out = []
    for st in list_of_all_superstates(s, sc):
        if stop is not None and st.name == stop.name:
            break
        out.append(st)
    return out


def flat_and_simplified(sc: SCFull) -> bool:
    for s in sc.states:
        if s.do is not None or s.entry is not None or s.exit is not None:
            return False
        if s.internT:
            return False
        if substates(s, sc):
            if ingoing_t(s, sc) or outgoing_t(s, sc) or s.inv is not None:
                return False
        if "initial" in s.modifiers and initial_irrelevant(s, sc):
            return False
        if "final" in s.modifiers and final_irrelevant(s, sc):
            return False
    return True


def _flat(sc: SCFull) -> bool:
    return not sc.sub and flat_and_simplified(sc)


# ---------------------------------------------------------------------------
# Call normalization: replacing pattern arguments by positional input
# variables (inp1, inp2, ...) with matching conditions in the precondition.

def _subst_map(call: Call) -> dict[str, Expr]:
    out: dict[str, Expr] = {}
    for i, p in enumerate(call.args):
        if isinstance(p, PVar):
            out[p.name] = EVar(inp_name(i + 1))
        elif isinstance(p, PPlus):
            out[p.var] = EBin("-", EVar(inp_name(i + 1)), ELit(p.k))
    return out


def _subst_expr(e: Expr, m: dict[str, Expr]) -> Expr:
    if isinstance(e, EVar):
        return m.get(e.name, e)
    if isinstance(e, EBin):
        return EBin(e.op, _subst_expr(e.left, m), _subst_expr(e.right, m))
    if isinstance(e, ECons):
        return ECons(_subst_expr(e.head, m), _subst_expr(e.tail, m))
    if isinstance(e, EList):
        return EList(tuple(_subst_expr(x, m) for x in e.items))
    return e


def _subst_cond(c: Cond, m: dict[str, Expr]) -> Cond:
    if isinstance(c, CVar):
        r = m.get(c.name)
        return CVar(r.name) if isinstance(r, EVar) else c
    if isinstance(c, CNot):
        return CNot(_subst_cond(c.operand, m))
    if isinstance(c, CAnd):
        return CAnd(_subst_cond(c.left, m), _subst_cond(c.right, m))
    if isinstance(c, COr):
        return COr(_subst_cond(c.left, m), _subst_cond(c.right, m))
    if isinstance(c, CCmp):
        return CCmp(c.op, _subst_expr(c.left, m), _subst_expr(c.right, m))
    if isinstance(c, CMatch):
        r = m.get(c.var)
        return CMatch(r.name, c.pattern) if isinstance(r, EVar) else c
    return c


def _subst_stmt(s, m: dict[str, Expr]):
    out = []
    for prim in s:
        if isinstance(prim, Assign):
            out.append(Assign(prim.var, _subst_expr(prim.expr, m)))
        elif isinstance(prim, Send):
            out.append(Send(prim.name, tuple(_subst_expr(a, m) for a in prim.args), prim.exception))
        elif isinstance(prim, Check):
            out.append(Check(_subst_cond(prim.cond, m)))
        else:
            out.append(prim)
    return tuple(out)


def _subst_action(a: Optional[Action], m: dict[str, Expr]) -> Optional[Action]:
    if a is None:
        return None
    return Action(
        _subst_stmt(a.stmt, m),
        None if a.post is None else _subst_cond(a.post, m),
    )


def _fire_cond(t: Trans) -> Cond:
    """pre && match for a transition, under its own input renaming."""
    m = _subst_map(t.call)
    pre = None if t.pre is None else _subst_cond(t.pre, m)
    c = conj_opt(pre, match_cond_of(t.call))
    return c if c is not None else TRUE


def _neg_precond(ts) -> Optional[Cond]:
    """&& over ts of !(pre && match), absent for the empty set."""
    return conj_opt(*(CNot(_fire_cond(t)) for t in sorted(ts, key=trans_key)))


def normalize_trans(t: Trans, extra_pre: Optional[Cond], src: Optional[str] = None,
                    trg: Optional[str] = None, drop_prio: bool = False) -> Trans:
    """Rebuild t with its call's patterns replaced by input variables; the
    pattern constraints and `extra_pre` join the precondition."""
    m = _subst_map(t.call)
    pre = conj_opt(
        None if t.pre is None else _subst_cond(t.pre, m),
        match_cond_of(t.call),
        extra_pre,
    )
    return Trans(
        None if drop_prio else t.prio,
        src if src is not None else t.src,
        pre,
        call_expr_of(t.call),
        _subst_action(t.act, m),
        trg if trg is not None else t.trg,
    )


# ---------------------------------------------------------------------------
# The rules. A find function yields the items of each binding of its rule on
# a chart, in the order the paper strategy tries them; an apply function
# rewrites the chart for one binding. Paired rules share a function that takes
# the modifier, stereotype or action they differ in.

def _intern_key(it: InternT):
    return (it.call.name, len(it.call.args), repr(it.pre), repr(it.act))


def _each_state(pred):
    """Find function binding `s` to the name of each state with pred(s, sc)."""
    return lambda sc: ((("s", s.name),) for s in sc.sorted_states() if pred(s, sc))


def _with_timer(a: Optional[Action], prim) -> Action:
    return Action(action_stmt(a) + (prim,), action_post(a))


def _elim_do(sc: SCFull, b: Binding) -> SCFull:  # rule 1
    s = sc.state(b["s"])
    timeout = InternT(TRUE, Call(TIMEOUT, ()), Action(s.do.stmt + (SetTimer(),), s.do.post))
    return sc.replace_state(s, replace(
        s,
        internT=s.internT | {timeout},
        entry=_with_timer(s.entry, SetTimer()),
        exit=_with_timer(s.exit, StopTimer()),
        do=None,
    ))


def _find_internal(composite: bool, sc: SCFull):  # rules 2, 3
    for s in sc.sorted_states():
        if bool(substates(s, sc)) == composite:
            for it in sorted(s.internT, key=_intern_key):
                yield (("s", s.name), ("inT", it))


def _internal_to_substates(sc: SCFull, b: Binding) -> SCFull:  # rule 2
    s, it = sc.state(b["s"]), b["inT"]
    loops = {Trans(None, st.name, it.pre, it.call, it.act, st.name) for st in substates(s, sc)}
    return replace(sc.replace_state(s, replace(s, internT=s.internT - {it})),
                   trans=sc.trans | loops)


def _internal_to_inner_state(sc: SCFull, b: Binding) -> SCFull:  # rule 3
    s, it = sc.state(b["s"]), b["inT"]
    k = 0
    while sc.state_opt(f"{s.name}$inner{k}") is not None:
        k += 1
    inner = f"{s.name}$inner{k}"
    fresh = FullState(modifiers=frozenset(["initial", "final"]), name=inner)
    return replace(
        sc,
        states=(sc.states - {s}) | {replace(s, internT=s.internT - {it}), fresh},
        sub=sc.sub | {(inner, s.name)},
        trans=sc.trans | {Trans(None, inner, it.pre, it.call, it.act, inner)},
    )


def _find_add_top(mod: str, sc: SCFull):  # rules 4, 8
    tops = sc.index.children.get(None)
    if tops and all(mod not in s.modifiers for s in tops):
        yield ()


def _add_top(mod: str, sc: SCFull, b: Binding) -> SCFull:
    tops = sc.index.children.get(None, frozenset())
    marked = {replace(s, modifiers=s.modifiers | {mod}) for s in tops}
    return replace(sc, states=(sc.states - tops) | marked)


def _needs_sub_mod(mod: str, edges, s: FullState, sc: SCFull) -> bool:  # rules 5, 9
    subs = substates(s, sc)
    return (
        bool(subs)
        and all(mod not in st.modifiers for st in subs)
        and bool(mod in s.modifiers or edges(s, sc))
    )


def _add_sub_mod(mod: str, sc: SCFull, b: Binding) -> SCFull:
    subs = substates(sc.state(b["s"]), sc)
    marked = {replace(st, modifiers=st.modifiers | {mod}) for st in subs}
    return replace(sc, states=(sc.states - subs) | marked)


def _find_to_sub(mod: str, edges, wanted, sc: SCFull):  # rules 6, 10, 13
    """Each wanted transition entering (6) or leaving (10, 13) a state that
    has a `mod` substate."""
    for s in sc.sorted_states():
        if any(mod in st.modifiers for st in substates(s, sc)):
            for t in sorted(edges(s, sc), key=trans_key):
                if wanted(t, sc):
                    yield (("s", s.name), ("t", t))


def _move_to_sub(mod: str, end: str, sc: SCFull, b: Binding) -> SCFull:
    """Replace t by copies whose `end` ("trg" or "src") is each `mod`
    substate of s."""
    s, t = sc.state(b["s"]), b["t"]
    moved = {replace(t, **{end: st.name}) for st in substates(s, sc) if mod in st.modifiers}
    return replace(sc, trans=(sc.trans - {t}) | moved)


def _find_delete_sub_mod(mod: str, irrelevant, sc: SCFull):  # rules 7, 15
    found = [s for s in sc.sorted_states() if mod in s.modifiers and irrelevant(s, sc)]
    # ancestors first, so a deleted modifier cannot be re-added below
    for s in sorted(found, key=lambda s: (len(list_of_all_superstates(s, sc)), s.name)):
        yield (("s", s.name),)


def _delete_mod(mod: str, sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    return sc.replace_state(s, replace(s, modifiers=s.modifiers - {mod}))


def _final_subs(s: FullState, sc: SCFull) -> list[FullState]:
    return sorted((st for st in substates(s, sc) if "final" in st.modifiers),
                  key=lambda st: st.name)


def _find_prio_groups(stereo: str, sc: SCFull):  # rules 11, 12
    if stereo in sc.stereos:
        for s in sc.sorted_states():
            if any("final" in st.modifiers for st in substates(s, sc)):
                for _, ts in sorted(call_groups(s, sc).items()):
                    if all(t.prio is None for t in ts):
                        yield (("s", s.name), ("ts", frozenset(ts)))


def _inner_calls(st: FullState, ts, sc: SCFull) -> set[Trans]:
    """Transitions of st without a priority on the call of ts."""
    name = next(iter(ts)).call.name
    return {t for t in outgoing_t(st, sc) if t.call.name == name and t.prio is None}


def _prio_inner(sc: SCFull, b: Binding) -> SCFull:  # rule 11
    s, ts = sc.state(b["s"]), b["ts"]
    added: set[Trans] = set()
    for st in _final_subs(s, sc):
        pre_i = _neg_precond(_inner_calls(st, ts, sc))
        for t in sorted(ts, key=trans_key):
            added.add(normalize_trans(t, pre_i, src=st.name))
    return replace(sc, trans=(sc.trans - ts) | added)


def _prio_outer(sc: SCFull, b: Binding) -> SCFull:  # rule 12
    s, ts = sc.state(b["s"]), b["ts"]
    pre_outer = _neg_precond(ts)
    added: set[Trans] = set()
    removed: set[Trans] = set(ts)
    for st in _final_subs(s, sc):
        c_trans = _inner_calls(st, ts, sc)
        removed |= c_trans
        # the outer transitions move down unchanged
        for t in sorted(ts, key=trans_key):
            added.add(replace(t, src=st.name))
        # the inner ones only fire if no outer one does
        for t in sorted(c_trans, key=trans_key):
            added.add(normalize_trans(t, pre_outer))
    return replace(sc, trans=(sc.trans - removed) | added)


def _find_elim_prio(sc: SCFull):  # rule 14
    for s in sc.sorted_states():
        if simple_state(s, sc) and not _above(_LEFT, s, sc):
            for _, ts in sorted(call_groups(s, sc).items()):
                if any(t.prio is not None for t in ts):
                    yield (("s", s.name), ("ts", frozenset(ts)))


def _elim_prio(sc: SCFull, b: Binding) -> SCFull:
    ts = b["ts"]

    def prio(t: Trans) -> int:
        return t.prio if t.prio is not None else 0

    added: set[Trans] = set()
    for t in sorted(ts, key=trans_key):
        higher = {t2 for t2 in ts if prio(t2) > prio(t)}
        added.add(normalize_trans(t, _neg_precond(higher), drop_prio=True))
    return replace(sc, trans=(sc.trans - ts) | added)


# action attribute -> (the superstates whose transitions would run it, the
# transitions it moves onto, the end of such a transition away from s)
_MOVES = {
    "exit": (_LEFT, outgoing_t, attrgetter("trg")),
    "entry": (_ENTERED, ingoing_t, attrgetter("src")),
}


def _action_movable(attr: str, seq: bool, s: FullState, sc: SCFull) -> bool:  # rules 16, 17, 19, 20
    # final states may move their exit action: it only runs when the state is
    # left through a transition, which is exactly where the action moves to
    # (termination runs it in neither version)
    return (
        (SEQUENTIAL in sc.stereos) == seq
        and getattr(s, attr) is not None
        and (attr == "exit" or "initial" not in s.modifiers)
        and simple_state(s, sc)
        and not _above(_MOVES[attr][0], s, sc)
    )


def _move_action(attr: str, seq: bool, sc: SCFull, b: Binding) -> SCFull:
    """Move the `attr` actions of s and of the superstates a transition
    leaves (exit) or enters (entry) onto each such transition of s."""
    s = sc.state(b["s"])
    _, transitions_of, far_end = _MOVES[attr]
    ts = transitions_of(s, sc)
    moved = set()
    for t in sorted(ts, key=trans_key):
        chain = chain_below(s, lcs(s, sc.state(far_end(t)), sc), sc)
        own = [getattr(st, attr) for st in [s] + chain if getattr(st, attr) is not None]
        # states are left innermost first, before t's action, and entered
        # outermost first, after it
        acts = own + [t.act or Action()] if attr == "exit" else [t.act or Action()] + own[::-1]
        if not seq:
            act = Action(tuple(x for a in acts for x in a.stmt), conj_opt(*(a.post for a in acts)))
        else:
            act = seq_actions_all(acts)
            if attr == "entry":  # rule 20 also keeps t's postcondition; rule 17 does not
                act = Action(act.stmt, conj_opt(action_post(t.act), act.post))
        moved.add(replace(t, act=act))
    return replace(sc.replace_state(s, replace(s, **{attr: None})),
                   trans=(sc.trans - ts) | moved)


def _action_removable(attr: str, at_or_above, s: FullState, sc: SCFull) -> bool:  # rules 18, 21
    """s has an `attr` action, and no transition of s or of a superstate in
    the direction of `at_or_above` would run it."""
    return getattr(s, attr) is not None and s.name not in at_or_above(sc)


def _remove_action(attr: str, sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    return sc.replace_state(s, replace(s, **{attr: None}))


def _inv_movable(s: FullState, sc: SCFull) -> bool:  # rule 22
    return s.inv is not None and s.do is None and not s.internT and bool(substates(s, sc))


def _move_invariant(sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    subs = substates(s, sc)
    moved = {replace(st, inv=conj_opt(s.inv, st.inv)) for st in subs}
    return replace(sc, states=(sc.states - subs - {s}) | moved | {replace(s, inv=None)})


def _find_remove_hierarchy(sc: SCFull):  # rule 23
    if sc.sub and flat_and_simplified(sc):
        yield ()


def _remove_hierarchy(sc: SCFull, b: Binding) -> SCFull:
    leaves = frozenset(s for s in sc.states if not substates(s, sc))
    return replace(sc, states=leaves, sub=frozenset())


def _find_completion(stereo: Optional[str], sc: SCFull):  # rules 24, 25, 26
    """`stereo` is the chart stereotype the rule consumes: completion:ignore
    (24) or completion:error (25); exception completion (26) has none."""
    if (stereo is not None and stereo not in sc.stereos) or not _flat(sc):
        return
    if stereo == COMPLETION_IGNORE:
        yield ()
    elif stereo == COMPLETION_ERROR:
        errs = [s for s in sc.sorted_states() if "error" in s.sstereos]
        if errs:
            yield (("err", errs[0].name),)
        else:
            # the rule introduces the error state itself
            name = "Error"
            while sc.state_opt(name) is not None:
                name += "$"
            yield (("err", name),)
    else:
        excs = [s for s in sc.sorted_states() if "exception" in s.sstereos]
        if excs and any(t.call.exception for t in sc.trans):
            yield (("exc", excs[0].name),)


def _apply_completion(stereo: Optional[str], sc: SCFull, b: Binding) -> SCFull:
    """Every state gets a transition for each trigger it does not handle
    (exception triggers for rule 26, the others for 24 and 25), looping
    back (24) or going to the error (25) or exception (26) state."""
    exception = stereo is None
    target = None  # None: a self loop
    if stereo == COMPLETION_ERROR:
        target = b["err"]
        if sc.state_opt(target) is None:
            error = FullState(name=target, sstereos=frozenset(["error"]))
            sc = replace(sc, states=sc.states | {error})
    elif exception:
        target = b["exc"]

    # one representative call per trigger name, over the relevant trigger kind
    all_calls: dict[str, Call] = {}
    for t in sc.sorted_trans():
        if t.call.exception == exception and t.call.name not in all_calls:
            all_calls[t.call.name] = call_expr_of(t.call)

    added: set[Trans] = set()
    for s in sc.sorted_states():
        trg = target or s.name
        groups = call_groups(s, sc)
        for name in sorted(set(all_calls) - set(groups)):
            added.add(Trans(None, s.name, None, all_calls[name], None, trg))
        for name, ts in sorted(groups.items()):
            rep = min(ts, key=trans_key).call
            if rep.exception == exception:
                added.add(Trans(None, s.name, _neg_precond(ts), call_expr_of(rep), None, trg))
    # the rule consumes its stereotype; exception completion has none
    return replace(sc, trans=sc.trans | added, stereos=sc.stereos - {stereo})


# Once the chart is flat, stereotypes that have no remaining effect
# (priorities, chaos completion, sequential conditions) are dropped so the
# final result carries no stereotypes.
_DROPPABLE = frozenset({PRIO_INNER, PRIO_OUTER, COMPLETION_CHAOS, SEQUENTIAL})


def _find_drop_stereos(sc: SCFull):  # engine step 27
    if sc.stereos & _DROPPABLE and _flat(sc):
        yield ()


def _drop_stereos(sc: SCFull, b: Binding) -> SCFull:
    return replace(sc, stereos=sc.stereos - _DROPPABLE)


class Rule(NamedTuple):
    number: int
    name: str
    find: Callable[[SCFull], Iterable[tuple]]  # the items of each binding
    apply: Callable[[SCFull, Binding], SCFull]


RULES = (
    Rule(1, "elimDo", _each_state(lambda s, sc: s.do is not None), _elim_do),
    Rule(2, "elimInternalT1", partial(_find_internal, True), _internal_to_substates),
    Rule(3, "elimInternalT2", partial(_find_internal, False), _internal_to_inner_state),
    Rule(4, "addInitTop", partial(_find_add_top, "initial"), partial(_add_top, "initial")),
    Rule(5, "addInitSub", _each_state(partial(_needs_sub_mod, "initial", ingoing_t)),
         partial(_add_sub_mod, "initial")),
    Rule(6, "forwardToSub", partial(_find_to_sub, "initial", ingoing_t, lambda t, sc: True),
         partial(_move_to_sub, "initial", "trg")),
    Rule(7, "deleteInitSub", partial(_find_delete_sub_mod, "initial", initial_irrelevant),
         partial(_delete_mod, "initial")),
    Rule(8, "addFinalTop", partial(_find_add_top, "final"), partial(_add_top, "final")),
    Rule(9, "addFinalSub", _each_state(partial(_needs_sub_mod, "final", outgoing_t)),
         partial(_add_sub_mod, "final")),
    Rule(10, "backwardToSub",
         partial(_find_to_sub, "final", outgoing_t, lambda t, sc: not sc.stereos & PRIO_STEREOS),
         partial(_move_to_sub, "final", "src")),
    Rule(11, "backwardToSubPrioInner", partial(_find_prio_groups, PRIO_INNER), _prio_inner),
    Rule(12, "backwardToSubPrioOuter", partial(_find_prio_groups, PRIO_OUTER), _prio_outer),
    Rule(13, "backwardToSubPrio",
         partial(_find_to_sub, "final", outgoing_t, lambda t, sc: t.prio is not None),
         partial(_move_to_sub, "final", "src")),
    Rule(14, "elimPrio", _find_elim_prio, _elim_prio),
    Rule(15, "deleteFinalSub", partial(_find_delete_sub_mod, "final", final_irrelevant),
         partial(_delete_mod, "final")),
    Rule(16, "moveExitActions", _each_state(partial(_action_movable, "exit", False)),
         partial(_move_action, "exit", False)),
    Rule(17, "moveExitActionsSeq", _each_state(partial(_action_movable, "exit", True)),
         partial(_move_action, "exit", True)),
    Rule(18, "removeExitAction", _each_state(partial(_action_removable, "exit", _LEFT)),
         partial(_remove_action, "exit")),
    Rule(19, "moveEntryActions", _each_state(partial(_action_movable, "entry", False)),
         partial(_move_action, "entry", False)),
    Rule(20, "moveEntryActionsSeq", _each_state(partial(_action_movable, "entry", True)),
         partial(_move_action, "entry", True)),
    Rule(21, "removeEntryAction", _each_state(partial(_action_removable, "entry", _ENTERED)),
         partial(_remove_action, "entry")),
    Rule(22, "moveInvariant", _each_state(_inv_movable), _move_invariant),
    Rule(23, "removeHierarchy", _find_remove_hierarchy, _remove_hierarchy),
    Rule(24, "completionIgnore", partial(_find_completion, COMPLETION_IGNORE),
         partial(_apply_completion, COMPLETION_IGNORE)),
    Rule(25, "completionError", partial(_find_completion, COMPLETION_ERROR),
         partial(_apply_completion, COMPLETION_ERROR)),
    Rule(26, "completionException", partial(_find_completion, None),
         partial(_apply_completion, None)),
    # engine-only clean-up step, not one of the paper's rules
    Rule(27, "dropStereotypes", _find_drop_stereos, _drop_stereos),
)
_RULE_BY_NUMBER = {r.number: r for r in RULES}
ENGINE_STEP_NAMES = {r.number: r.name for r in RULES}
RULE_NAMES = {r.number: r.name for r in RULES[:-1]}
RULE_NUMBERS = {name: num for num, name in RULE_NAMES.items()}


def _rule(number: int) -> Rule:
    if number not in _RULE_BY_NUMBER:
        raise ValueError(f"unknown rule {number}")
    return _RULE_BY_NUMBER[number]


def _bindings(rule: Rule, sc: SCFull) -> Iterator[Binding]:
    return (Binding(rule.number, items) for items in rule.find(sc))


def find_bindings(rule: int, sc: SCFull) -> list[Binding]:
    return list(_bindings(_rule(rule), sc))


def apply_rule(rule: int, sc: SCFull, b: Binding) -> SCFull:
    if b not in _bindings(_rule(rule), sc):
        raise BindingStale(f"rule {rule} ({ENGINE_STEP_NAMES[rule]}): {b.describe()}")
    return _apply(rule, sc, b)


def _apply(rule: int, sc: SCFull, b: Binding) -> SCFull:
    return _rule(rule).apply(sc, b)


# ---------------------------------------------------------------------------
# Fixpoint engine

def _candidates(sc: SCFull, skip_exception: bool) -> Iterator[tuple[Rule, Binding]]:
    """Every (rule, binding) pair on sc, lowest rule number first."""
    for rule in RULES:
        if not (skip_exception and rule.number == 26):
            yield from ((rule, b) for b in _bindings(rule, sc))


def transform_fixpoint(
    sc: SCFull,
    strategy: str = "paper",
    max_steps: int = 10000,
    on_step: Optional[Callable[[int, SCFull], None]] = None,
) -> tuple[SCFull, list[TraceEntry]]:
    """Apply rules until none changes the chart.

    strategy: "paper" tries the rules lowest number first and each rule's
    bindings in order, and applies the first binding that changes the chart;
    bindings after it are not looked for. "random:<seed>" lists every binding
    of every rule, shuffles the list, and applies the first one that changes
    the chart. Applications that would leave the chart unchanged are skipped,
    and the exception-completion rule runs at most once.
    """
    rng: Optional[random.Random] = None
    if strategy.startswith("random:"):
        rng = random.Random(int(strategy.split(":", 1)[1]))
    elif strategy != "paper":
        raise ValueError(f"unknown strategy {strategy!r}")

    trace: list[TraceEntry] = []
    done_exception = False
    digest = _Digest(sc)
    while True:
        candidates: Iterable[tuple[Rule, Binding]] = _candidates(sc, done_exception)
        if rng is not None:
            candidates = list(candidates)
            rng.shuffle(candidates)
        for rule, b in candidates:
            new = rule.apply(sc, b)
            if rule.number == 26:
                done_exception = True
            if new == sc:
                continue
            if len(trace) >= max_steps:
                raise NonTermination(f"no fixpoint within {max_steps} steps")
            new_digest = _Digest(new)
            trace.append(TraceEntry(rule.number, rule.name, b.describe(), digest, new_digest))
            sc, digest = new, new_digest
            if on_step is not None:
                on_step(len(trace), sc)
            break
        else:
            return sc, trace


# ---------------------------------------------------------------------------
# Conversion to the flat form

def to_simplified(sc: SCFull) -> SCSimp:
    residual = []
    if sc.sub:
        residual.append("substate relation")
    for s in sc.sorted_states():
        if s.do is not None:
            residual.append(f"do action on {s.name}")
        if s.entry is not None:
            residual.append(f"entry action on {s.name}")
        if s.exit is not None:
            residual.append(f"exit action on {s.name}")
        if s.internT:
            residual.append(f"internal transitions on {s.name}")
    if sc.stereos:
        residual.append("stereotypes " + ", ".join(sorted(sc.stereos)))
    if not flat_and_simplified(sc):
        residual.append("superfluous modifiers or hierarchy information")
    if residual:
        raise NotSimplifiable("; ".join(residual))
    return SCSimp(
        diagram_name=sc.diagram_name,
        class_name=sc.class_name,
        inv=sc.inv if sc.inv is not None else TRUE,
        states=frozenset(
            SimpState(s.modifiers, s.name, s.inv if s.inv is not None else TRUE)
            for s in sc.states
        ),
        transitions=frozenset(
            SimpTrans(
                t.src,
                t.pre if t.pre is not None else TRUE,
                t.call,
                t.act if t.act is not None else Action(),
                t.trg,
            )
            for t in sc.trans
        ),
    )
