"""Flattening of hierarchical statecharts via a system of rewrite rules.

Each rule binds elements of the chart, checks a precondition, and rewrites a
declared set of components (its "delta"), leaving everything else untouched.
`transform_fixpoint` applies rules until none changes the chart, yielding a
flat machine that `to_simplified` converts to the `SCSimp` form.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .actions import (
    Action,
    Call,
    CNot,
    Cond,
    EBin,
    ELit,
    EVar,
    Expr,
    PPlus,
    PVar,
    SetTimer,
    StopTimer,
    TIMEOUT,
    TRUE,
    action_post,
    action_stmt,
    call_expr_of,
    conj_opt,
    inp_name,
    match_cond_of,
    rename,
    seq_actions_all,
    value,
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
    Trans,
    retarget,
    trans_key,
    updated,
)
from .printer import print_chart
from .wellformed import _on_cycle


class BindingStale(Exception):
    """The binding no longer matches the chart it is applied to."""


class NonTermination(Exception):
    """The rewrite loop exceeded its step budget."""


class NotSimplifiable(Exception):
    """Residual constructs prevent conversion to the flat form."""


class IllFormedInput(Exception):
    """The chart fails its static checks."""


@value
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


@value
class TraceEntry:
    """One rewrite step: the rule applied and the binding it was applied at."""

    rule: int
    name: str
    binding: str


# ---------------------------------------------------------------------------
# Structural queries, answered from the chart's index (`SCFull.index`)

def substates(s: FullState, sc: SCFull) -> frozenset[FullState]:
    return sc.index.children.get(s.name, frozenset())


def ingoing_t(s: FullState, sc: SCFull) -> frozenset[Trans]:
    return sc.index.ingoing.get(s.name, frozenset())


def outgoing_t(s: FullState, sc: SCFull) -> frozenset[Trans]:
    return sc.index.outgoing.get(s.name, frozenset())


def simple_state(s: FullState, sc: SCFull) -> bool:
    return not substates(s, sc) and s.do is None and not s.internT


class _Side(NamedTuple):
    """How a state is entered (`_IN`) or left (`_OUT`): one side of a mirrored pair of rules."""

    mod: str  # the modifier of the states a chart or superstate starts or ends in
    action: str  # the action that runs as the state is crossed
    edges: Callable[[FullState, SCFull], frozenset[Trans]]  # the transitions that cross it
    end: str  # the end of such a transition at the state
    far: str  # its other end
    at_or_above: str  # the `ChartIndex` set of states with such a transition at or above them


_IN = _Side("initial", "entry", ingoing_t, "trg", "src", "ingoing_at_or_above")
_OUT = _Side("final", "exit", outgoing_t, "src", "trg", "outgoing_at_or_above")


def _above(side: _Side, s: FullState, sc: SCFull) -> bool:
    """A strict superstate of s has a transition on `side`: s's parent is in
    that side's `at_or_above` set, which holds every state below such a
    superstate."""
    sups = sc.index.ancestors.get(s.name, ())
    return bool(sups) and sups[0] in getattr(sc.index, side.at_or_above)


def _irrelevant(side: _Side, s: FullState, sc: SCFull) -> bool:
    """The chart has a top-level `side.mod` state, and neither s nor any of
    its superstates is one or has a transition on `side`. Of s and its
    superstates, only the outermost can be top-level."""
    tops = sc.index.top_names[side.mod]
    sups = sc.index.ancestors.get(s.name, ())
    return (bool(tops) and (sups[-1] if sups else s.name) not in tops
            and s.name not in getattr(sc.index, side.at_or_above))


def initial_irrelevant(s: FullState, sc: SCFull) -> bool:
    return _irrelevant(_IN, s, sc)


def final_irrelevant(s: FullState, sc: SCFull) -> bool:
    return _irrelevant(_OUT, s, sc)


def call_groups(s: FullState, sc: SCFull) -> dict[str, set[Trans]]:
    """Outgoing transitions of s grouped into maximal same-call classes."""
    groups: dict[str, set[Trans]] = {}
    for t in outgoing_t(s, sc):
        groups.setdefault(t.call.name, set()).add(t)
    return groups


def crossed_superstates(s: FullState, other: str, sc: SCFull) -> list[FullState]:
    """The superstates of s, parent first, that are not superstates of the
    state named `other`: those that a transition between the two leaves or
    enters at s's end, strictly below their least common superstate."""
    ancestors = sc.index.ancestors
    shared = set(ancestors.get(other, ()))
    return [sc.state(n) for n in ancestors.get(s.name, ()) if n not in shared]


def _leftovers(s: FullState) -> list[str]:
    """The do, entry and exit actions and internal transitions s still has."""
    return [f"{what} on {s.name}" for what, there in (
        ("do action", s.do), ("entry action", s.entry), ("exit action", s.exit),
        ("internal transitions", s.internT or None)) if there is not None]


def flat_and_simplified(sc: SCFull) -> bool:
    for s in sc.states:
        if _leftovers(s) or _mod_irrelevant(_IN, s, sc) or _mod_irrelevant(_OUT, s, sc):
            return False
        if substates(s, sc) and (ingoing_t(s, sc) or outgoing_t(s, sc) or s.inv is not None):
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


def _fire_cond(t: Trans) -> Optional[Cond]:
    """match && pre for a transition, under its own input renaming. The
    pattern test comes first: `CAnd` short-circuits, so the guard's
    arithmetic only sees the values the pattern admits."""
    return conj_opt(match_cond_of(t.call), rename(t.pre, _subst_map(t.call)))


def _neg_precond(ts) -> Optional[Cond]:
    """&& over ts of !(match && pre), absent for the empty set."""
    return conj_opt(*(CNot(_fire_cond(t) or TRUE) for t in sorted(ts, key=trans_key)))


def normalize_trans(t: Trans, extra_pre: Optional[Cond], src: Optional[str] = None) -> Trans:
    """Rebuild t without a priority and with its call's patterns replaced by
    input variables; the pattern constraints and `extra_pre` join the
    precondition. Rules 11 and 12 rebuild only transitions without a
    priority, and rule 14 removes it."""
    return Trans(None, src if src is not None else t.src, conj_opt(_fire_cond(t), extra_pre),
                 call_expr_of(t.call), rename(t.act, _subst_map(t.call)), t.trg)


# ---------------------------------------------------------------------------
# The rules. Every rule but 4, 8 and 23-27 binds a state `s` first: its
# matcher lists the items of each binding at one state, and its bindings on a
# chart are those of every state in turn. The other rules have a find
# function over the whole chart. Either lists the bindings in the order the
# paper strategy tries them; an apply function rewrites the chart for one
# binding. Mirrored rules share a function that takes the side of a state
# they work on, `_IN` or `_OUT`; other paired rules take their stereotype.

def _intern_key(it: InternT):
    return (it.call.name, len(it.call.args), repr(it.pre), repr(it.act))


def _when(pred):
    """The matcher binding `s` to the state's name where pred(s, sc) holds."""
    return lambda s, sc: [(("s", s.name),)] if pred(s, sc) else []


def _with_timer(a: Optional[Action], prim) -> Action:
    return Action(action_stmt(a) + (prim,), action_post(a))


def _elim_do(sc: SCFull, b: Binding) -> SCFull:  # rule 1
    s = sc.state(b["s"])
    timeout = InternT(TRUE, Call(TIMEOUT, ()), Action(s.do.stmt + (SetTimer(),), s.do.post))
    return sc.replace_state(s, updated(
        s,
        internT=s.internT | {timeout},
        entry=_with_timer(s.entry, SetTimer()),
        exit=_with_timer(s.exit, StopTimer()),
        do=None,
    ))


def _internal_at(composite: bool, s: FullState, sc: SCFull) -> list:  # rules 2, 3
    if not s.internT or bool(substates(s, sc)) != composite:
        return []
    return [(("s", s.name), ("inT", it)) for it in sorted(s.internT, key=_intern_key)]


def _internal_to_substates(sc: SCFull, b: Binding) -> SCFull:  # rule 2
    s, it = sc.state(b["s"]), b["inT"]
    loops = {Trans(None, st.name, it.pre, it.call, it.act, st.name) for st in substates(s, sc)}
    return updated(sc, states=(sc.states - {s}) | {updated(s, internT=s.internT - {it})},
                   trans=sc.trans | loops)


def _internal_to_inner_state(sc: SCFull, b: Binding) -> SCFull:  # rule 3
    s, it = sc.state(b["s"]), b["inT"]
    k = 0
    while sc.state_opt(f"{s.name}$inner{k}") is not None:
        k += 1
    inner = f"{s.name}$inner{k}"
    fresh = FullState(modifiers=frozenset(["initial", "final"]), name=inner)
    return updated(
        sc,
        states=(sc.states - {s}) | {updated(s, internT=s.internT - {it}), fresh},
        sub=sc.sub | {(inner, s.name)},
        trans=sc.trans | {Trans(None, inner, it.pre, it.call, it.act, inner)},
    )


def _find_add_top(side: _Side, sc: SCFull):  # rules 4, 8
    tops = sc.index.children.get(None)
    if tops and all(side.mod not in s.modifiers for s in tops):
        yield ()


def _add_mod(side: _Side, states: frozenset[FullState], sc: SCFull) -> SCFull:
    marked = {updated(s, modifiers=s.modifiers | {side.mod}) for s in states}
    return updated(sc, states=(sc.states - states) | marked)


def _add_top(side: _Side, sc: SCFull, b: Binding) -> SCFull:
    return _add_mod(side, sc.index.children.get(None, frozenset()), sc)


def _needs_sub_mod(side: _Side, s: FullState, sc: SCFull) -> bool:  # rules 5, 9
    subs = substates(s, sc)
    return (bool(subs) and all(side.mod not in st.modifiers for st in subs)
            and bool(side.mod in s.modifiers or side.edges(s, sc)))


def _add_sub_mod(side: _Side, sc: SCFull, b: Binding) -> SCFull:
    return _add_mod(side, substates(sc.state(b["s"]), sc), sc)


def _mod_subs(side: _Side, s: FullState, sc: SCFull) -> list[FullState]:  # by name
    return sorted((st for st in substates(s, sc) if side.mod in st.modifiers),
                  key=lambda st: st.name)


def _to_sub_at(side: _Side, wanted, s: FullState, sc: SCFull) -> list:  # rules 6, 10, 13
    """Each wanted transition entering (6) or leaving (10, 13) s, if s has a
    `side.mod` substate."""
    if not any(side.mod in st.modifiers for st in substates(s, sc)):
        return []
    return [(("s", s.name), ("t", t))
            for t in sorted(side.edges(s, sc), key=trans_key) if wanted(t, sc)]


def _move_to_sub(side: _Side, sc: SCFull, b: Binding) -> SCFull:
    """Replace t by copies whose end at s is each `side.mod` substate of s."""
    s, t = sc.state(b["s"]), b["t"]
    moved = {retarget(t, **{side.end: st.name}) for st in _mod_subs(side, s, sc)}
    return updated(sc, trans=(sc.trans - {t}) | moved)


def _mod_irrelevant(side: _Side, s: FullState, sc: SCFull) -> bool:  # rules 7, 15
    return side.mod in s.modifiers and _irrelevant(side, s, sc)


def _delete_mod(side: _Side, sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    return sc.replace_state(s, updated(s, modifiers=s.modifiers - {side.mod}))


def _prio_groups_at(stereo: str, s: FullState, sc: SCFull) -> list:  # rules 11, 12
    if stereo not in sc.stereos or not any("final" in st.modifiers for st in substates(s, sc)):
        return []
    return [(("s", s.name), ("ts", frozenset(ts)))
            for _, ts in sorted(call_groups(s, sc).items()) if all(t.prio is None for t in ts)]


def _inner_calls(st: FullState, ts, sc: SCFull) -> set[Trans]:
    """Transitions of st without a priority on the call of ts."""
    name = next(iter(ts)).call.name
    return {t for t in outgoing_t(st, sc) if t.call.name == name and t.prio is None}


def _prio_inner(sc: SCFull, b: Binding) -> SCFull:  # rule 11
    s, ts = sc.state(b["s"]), b["ts"]
    added: set[Trans] = set()
    for st in _mod_subs(_OUT, s, sc):
        pre_i = _neg_precond(_inner_calls(st, ts, sc))
        for t in sorted(ts, key=trans_key):
            added.add(normalize_trans(t, pre_i, src=st.name))
    return updated(sc, trans=(sc.trans - ts) | added)


def _prio_outer(sc: SCFull, b: Binding) -> SCFull:  # rule 12
    s, ts = sc.state(b["s"]), b["ts"]
    pre_outer = _neg_precond(ts)
    added: set[Trans] = set()
    removed: set[Trans] = set(ts)
    for st in _mod_subs(_OUT, s, sc):
        c_trans = _inner_calls(st, ts, sc)
        removed |= c_trans
        # the outer transitions move down unchanged
        for t in sorted(ts, key=trans_key):
            added.add(retarget(t, src=st.name))
        # the inner ones only fire if no outer one does
        for t in sorted(c_trans, key=trans_key):
            added.add(normalize_trans(t, pre_outer))
    return updated(sc, trans=(sc.trans - removed) | added)


def _elim_prio_at(s: FullState, sc: SCFull) -> list:  # rule 14
    if not simple_state(s, sc) or _above(_OUT, s, sc):
        return []
    return [(("s", s.name), ("ts", frozenset(ts)))
            for _, ts in sorted(call_groups(s, sc).items()) if any(t.prio is not None for t in ts)]


def _elim_prio(sc: SCFull, b: Binding) -> SCFull:
    ts = b["ts"]

    def prio(t: Trans) -> int:
        return t.prio if t.prio is not None else 0

    added: set[Trans] = set()
    for t in sorted(ts, key=trans_key):
        higher = {t2 for t2 in ts if prio(t2) > prio(t)}
        added.add(normalize_trans(t, _neg_precond(higher)))
    return updated(sc, trans=(sc.trans - ts) | added)


def _action_movable(side: _Side, seq: bool, s: FullState, sc: SCFull) -> bool:  # rules 16, 17, 19, 20
    # final states may move their exit action: it only runs when the state is
    # left through a transition, which is exactly where the action moves to
    # (termination runs it in neither version)
    return (
        (SEQUENTIAL in sc.stereos) == seq
        and getattr(s, side.action) is not None
        and (side is _OUT or "initial" not in s.modifiers)
        and simple_state(s, sc)
        and not _above(side, s, sc)
    )


def _move_action(side: _Side, seq: bool, sc: SCFull, b: Binding) -> SCFull:
    """Move the `side.action` actions of s and of the superstates a
    transition leaves (exit) or enters (entry) onto each such transition of s."""
    s = sc.state(b["s"])
    ts = side.edges(s, sc)
    moved = set()
    for t in sorted(ts, key=trans_key):
        chain = [s, *crossed_superstates(s, getattr(t, side.far), sc)]
        own = [a for st in chain if (a := getattr(st, side.action)) is not None]
        # states are left innermost first, before t's action, and entered
        # outermost first, after it
        acts = own + [t.act or Action()] if side is _OUT else [t.act or Action()] + own[::-1]
        if not seq:
            act = Action(tuple(x for a in acts for x in a.stmt), conj_opt(*(a.post for a in acts)))
        else:
            act = seq_actions_all(acts)
            if side is _IN:  # rule 20 also keeps t's postcondition; rule 17 does not
                act = Action(act.stmt, conj_opt(action_post(t.act), act.post))
        moved.add(Trans(t.prio, t.src, t.pre, t.call, act, t.trg))
    return updated(sc, states=(sc.states - {s}) | {updated(s, **{side.action: None})},
                   trans=(sc.trans - ts) | moved)


def _action_removable(side: _Side, s: FullState, sc: SCFull) -> bool:  # rules 18, 21
    """s has a `side.action` action, and no transition of s or of a
    superstate on `side` would run it."""
    return getattr(s, side.action) is not None and s.name not in getattr(sc.index, side.at_or_above)


def _remove_action(side: _Side, sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    return sc.replace_state(s, updated(s, **{side.action: None}))


def _inv_movable(s: FullState, sc: SCFull) -> bool:  # rule 22
    return s.inv is not None and s.do is None and not s.internT and bool(substates(s, sc))


def _move_invariant(sc: SCFull, b: Binding) -> SCFull:
    s = sc.state(b["s"])
    subs = substates(s, sc)
    moved = {updated(st, inv=conj_opt(s.inv, st.inv)) for st in subs}
    return updated(sc, states=(sc.states - subs - {s}) | moved | {updated(s, inv=None)})


def _find_remove_hierarchy(sc: SCFull):  # rule 23
    if sc.sub and flat_and_simplified(sc):
        yield ()


def _remove_hierarchy(sc: SCFull, b: Binding) -> SCFull:
    leaves = frozenset(s for s in sc.states if not substates(s, sc))
    return updated(sc, states=leaves, sub=frozenset())


def _find_completion(stereo: Optional[str], sc: SCFull):  # rules 24, 25, 26
    """`stereo` is the chart stereotype the rule consumes: completion:ignore
    (24) or completion:error (25); exception completion (26) has none."""
    if (stereo is not None and stereo not in sc.stereos) or not _flat(sc):
        return
    if stereo == COMPLETION_IGNORE:
        yield ()
    elif stereo == COMPLETION_ERROR:
        errs = [s for s in sc.index.states if "error" in s.sstereos]
        if errs:
            yield (("err", errs[0].name),)
        else:
            # the rule introduces the error state itself
            name = "Error"
            while sc.state_opt(name) is not None:
                name += "$"
            yield (("err", name),)
    else:
        excs = [s for s in sc.index.states if "exception" in s.sstereos]
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
            sc = updated(sc, states=sc.states | {error})
    elif exception:
        target = b["exc"]

    # one representative call per trigger name, over the relevant trigger kind
    all_calls: dict[str, Call] = {}
    for t in sc.index.trans:
        if t.call.exception == exception and t.call.name not in all_calls:
            all_calls[t.call.name] = call_expr_of(t.call)

    added: set[Trans] = set()
    for s in sc.index.states:
        trg = target or s.name
        groups = call_groups(s, sc)
        for name in sorted(set(all_calls) - set(groups)):
            added.add(Trans(None, s.name, None, all_calls[name], None, trg))
        for name, ts in sorted(groups.items()):
            rep = min(ts, key=trans_key).call
            if rep.exception == exception:
                added.add(Trans(None, s.name, _neg_precond(ts), call_expr_of(rep), None, trg))
    # the rule consumes its stereotype; exception completion has none
    return updated(sc, trans=sc.trans | added, stereos=sc.stereos - {stereo})


# Once the chart is flat, stereotypes that have no remaining effect
# (priorities, chaos completion, sequential conditions) are dropped so the
# final result carries no stereotypes.
_DROPPABLE = frozenset({PRIO_INNER, PRIO_OUTER, COMPLETION_CHAOS, SEQUENTIAL})


def _find_drop_stereos(sc: SCFull):  # engine step 27
    if sc.stereos & _DROPPABLE and _flat(sc):
        yield ()


def _drop_stereos(sc: SCFull, b: Binding) -> SCFull:
    return updated(sc, stereos=sc.stereos - _DROPPABLE)


class Rule(NamedTuple):
    number: int
    name: str
    find: Callable[[SCFull], Iterable[tuple]]  # the items of each binding
    apply: Callable[[SCFull, Binding], SCFull]
    # rules that bind a state first: the items of each binding at one state
    at: Optional[Callable[[FullState, SCFull], list]] = None
    outer_first: bool = False  # states in (depth, name) order, not by name
    # the inputs the matcher reads at a state, named as `_advance` reports
    # their changes; every state rule reads "state", the state's own value
    reads: frozenset[str] = frozenset()


def _outer_key(name: str, sc: SCFull) -> tuple:
    """Rules 7 and 15 are tried at ancestors first, so that a deleted
    modifier cannot be re-added below."""
    return len(sc.index.ancestors.get(name, ())), name


def _find_at(at, outer_first: bool, sc: SCFull) -> Iterator[tuple]:
    states = sc.index.states
    if outer_first:
        states = sorted(states, key=lambda s: _outer_key(s.name, sc))
    for s in states:
        yield from at(s, sc)


def _state_rule(number: int, name: str, at, apply, reads: str = "",
                outer_first: bool = False) -> Rule:
    return Rule(number, name, partial(_find_at, at, outer_first), apply, at, outer_first,
                frozenset(["state", *reads.split()]))


RULES = (
    _state_rule(1, "elimDo", _when(lambda s, sc: s.do is not None), _elim_do),
    _state_rule(2, "elimInternalT1", partial(_internal_at, True), _internal_to_substates,
                "has_substates"),
    _state_rule(3, "elimInternalT2", partial(_internal_at, False), _internal_to_inner_state,
                "has_substates"),
    Rule(4, "addInitTop", partial(_find_add_top, _IN), partial(_add_top, _IN)),
    _state_rule(5, "addInitSub", _when(partial(_needs_sub_mod, _IN)), partial(_add_sub_mod, _IN),
                "substates ingoing"),
    _state_rule(6, "forwardToSub", partial(_to_sub_at, _IN, lambda t, sc: True),
                partial(_move_to_sub, _IN), "substates ingoing"),
    _state_rule(7, "deleteInitSub", _when(partial(_mod_irrelevant, _IN)),
                partial(_delete_mod, _IN), "ingoing_at_or_above superstates top_names",
                outer_first=True),
    Rule(8, "addFinalTop", partial(_find_add_top, _OUT), partial(_add_top, _OUT)),
    _state_rule(9, "addFinalSub", _when(partial(_needs_sub_mod, _OUT)), partial(_add_sub_mod, _OUT),
                "substates outgoing"),
    _state_rule(10, "backwardToSub",
                partial(_to_sub_at, _OUT, lambda t, sc: not sc.stereos & PRIO_STEREOS),
                partial(_move_to_sub, _OUT), "substates outgoing stereos"),
    _state_rule(11, "backwardToSubPrioInner", partial(_prio_groups_at, PRIO_INNER), _prio_inner,
                "substates outgoing stereos"),
    _state_rule(12, "backwardToSubPrioOuter", partial(_prio_groups_at, PRIO_OUTER), _prio_outer,
                "substates outgoing stereos"),
    _state_rule(13, "backwardToSubPrio",
                partial(_to_sub_at, _OUT, lambda t, sc: t.prio is not None),
                partial(_move_to_sub, _OUT), "substates outgoing"),
    _state_rule(14, "elimPrio", _elim_prio_at, _elim_prio,
                "has_substates outgoing outgoing_above superstates"),
    _state_rule(15, "deleteFinalSub", _when(partial(_mod_irrelevant, _OUT)),
                partial(_delete_mod, _OUT), "outgoing_at_or_above superstates top_names",
                outer_first=True),
    _state_rule(16, "moveExitActions", _when(partial(_action_movable, _OUT, False)),
                partial(_move_action, _OUT, False),
                "has_substates outgoing_above superstates stereos"),
    _state_rule(17, "moveExitActionsSeq", _when(partial(_action_movable, _OUT, True)),
                partial(_move_action, _OUT, True),
                "has_substates outgoing_above superstates stereos"),
    _state_rule(18, "removeExitAction", _when(partial(_action_removable, _OUT)),
                partial(_remove_action, _OUT), "outgoing_at_or_above"),
    _state_rule(19, "moveEntryActions", _when(partial(_action_movable, _IN, False)),
                partial(_move_action, _IN, False),
                "has_substates ingoing_above superstates stereos"),
    _state_rule(20, "moveEntryActionsSeq", _when(partial(_action_movable, _IN, True)),
                partial(_move_action, _IN, True),
                "has_substates ingoing_above superstates stereos"),
    _state_rule(21, "removeEntryAction", _when(partial(_action_removable, _IN)),
                partial(_remove_action, _IN), "ingoing_at_or_above"),
    _state_rule(22, "moveInvariant", _when(_inv_movable), _move_invariant, "has_substates"),
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

class _Matches:
    """The bindings of one state rule on the engine's current chart, kept by
    state name. The states marked since the rule was last consulted are
    re-tested when it is next consulted; at first, every state is. A step
    marks, for each input in the rule's `reads`, the names `_advance`
    reports for that input. A state's `Binding`s are built when the rule's
    list is next joined after its matches changed, and kept: a step changes
    few states' matches."""

    __slots__ = ("rule", "at_state", "bound", "dirty", "found")

    def __init__(self, rule: Rule):
        self.rule, self.at_state, self.bound = rule, {}, {}
        self.dirty: Optional[set[str]] = None  # None: every state
        self.found: Optional[list[Binding]] = None  # the bindings, once listed

    def mark(self, key: str, names: Optional[set[str]]) -> None:
        """Mark `names`, the states whose input `key` changed (None: every
        state, for a chart-wide input)."""
        if self.dirty is None:
            return
        if names is None:
            self.dirty = None
        else:
            self.dirty |= names
            if key == "superstates" and self.rule.outer_first:
                self.found = None  # the join order reads each state's depth

    def bindings(self, sc: SCFull) -> list[Binding]:
        if self.dirty is not None and not self.dirty:  # nothing marked since the last consult
            return self.found
        at, at_state = self.rule.at, self.at_state
        if self.dirty is None:
            self.at_state = at_state = {s.name: found for s in sc.index.states
                                        if (found := at(s, sc))}
            self.bound, self.found, self.dirty = {}, None, set()
        else:
            by_name = sc.index.by_name
            for name in self.dirty:
                s = by_name.get(name)
                found = at(s, sc) if s is not None else []
                if found != at_state.get(name, []):
                    self.found = None
                    self.bound.pop(name, None)
                    if found:
                        at_state[name] = found
                    else:
                        del at_state[name]
            self.dirty.clear()
        if self.found is None:
            if self.rule.outer_first:
                names = sorted(at_state, key=partial(_outer_key, sc=sc))
            else:
                names = sorted(at_state)
            rule, bound = self.rule.number, self.bound
            self.found = [b for n in names for b in bound.get(n) or bound.setdefault(
                n, [Binding(rule, items) for items in at_state[n]])]
        return self.found


def _candidates(sc: SCFull, matches: dict[int, _Matches],
                skip_exception: bool) -> Iterator[tuple[Rule, Binding]]:
    """Every (rule, binding) pair on sc, lowest rule number first; a state
    rule's `matches` are brought up to date when the rule is reached."""
    for rule in RULES:
        if not (skip_exception and rule.number == 26):
            for b in matches[rule.number].bindings(sc) if rule.at else _bindings(rule, sc):
                yield rule, b


def _advance(old: SCFull, new: SCFull) -> dict[str, Optional[set[str]]]:
    """Give `new` the index derived from `old`'s. Return, for each input a
    state rule's matcher may read (`Rule.reads`) that differs between `old`
    and `new`, the names of the states at which it differs: None for the
    chart-wide inputs "stereos" and "top_names", which every state reads.

    The names are those of the states added, removed or replaced
    ("state"); of the parents of those, or where `sub` or the state names
    changed, of every state whose substates differ ("substates", and
    "has_substates" then too); of the two ends of the changed transitions
    ("ingoing", "outgoing"); of the states that entered or left the
    `ingoing_at_or_above` or `outgoing_at_or_above` set (under the set's
    name), and of their children ("ingoing_above", "outgoing_above"); and
    where `sub` or the state names changed, of the states whose chain of
    superstates differs ("superstates"). A removed name is reported as a
    "state", which every state rule reads, so each rule drops its bindings
    there."""
    dstates = old.states ^ new.states if new.states is not old.states else frozenset()
    dtrans = old.trans ^ new.trans if new.trans is not old.trans else frozenset()
    before = old.index
    after = vars(new)["index"] = before.derive(new, dstates, dtrans)
    names = {s.name for s in dstates}
    changed: dict[str, Optional[set[str]]] = {
        "state": names, "ingoing": {t.trg for t in dtrans}, "outgoing": {t.src for t in dtrans}}
    if after.parent is before.parent:  # derived: the same tree of the same names
        parent = after.parent
        changed["substates"] = {parent[n] for n in names if n in parent}
    else:  # built afresh: `sub` or the state names changed
        was, now = before.children, after.children
        changed["substates"] = changed["has_substates"] = {
            n for n in was.keys() | now.keys() if n is not None and was.get(n) != now.get(n)}
        was, now = before.ancestors, after.ancestors
        changed["superstates"] = {n for n in was.keys() | now.keys() if was.get(n) != now.get(n)}
    for side, above in ((_IN, "ingoing_above"), (_OUT, "outgoing_above")):
        was, now = getattr(before, side.at_or_above), getattr(after, side.at_or_above)
        if now is not was and (flipped := was ^ now):
            changed[side.at_or_above] = flipped
            changed[above] = {c.name for n in flipped for c in after.children.get(n, ())}
    if new.stereos != old.stereos:
        changed["stereos"] = None
    if after.top_names != before.top_names:
        changed["top_names"] = None
    return {key: v for key, v in changed.items() if v is None or v}


def read_strategy(strategy: str) -> Optional[random.Random]:
    """The shuffler of a "random:<seed>" strategy, or None for "paper"; any
    other strategy is a ValueError."""
    if strategy.startswith("random:"):
        return random.Random(int(strategy.split(":", 1)[1]))
    if strategy != "paper":
        raise ValueError(f"unknown strategy {strategy!r}")
    return None


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
    and the exception-completion rule runs at most once. Both keep each state
    rule's bindings from step to step and re-test them only where a step
    could have changed them (`_advance`), which lists the same bindings, in
    the same order, as a scan of every state.
    """
    rng = read_strategy(strategy)
    # a name with a parent but no chain of superstates is on a substate
    # cycle, below one, or below an undeclared parent
    if sc.index.parent.keys() - sc.index.ancestors.keys() and (cycle := _on_cycle(sc.sub)):
        raise IllFormedInput(f"substate cycle through {', '.join(sorted(cycle))}")

    trace: list[TraceEntry] = []
    matches = {rule.number: _Matches(rule) for rule in RULES if rule.at}
    readers: dict[str, list[_Matches]] = {}
    for m in matches.values():
        for key in m.rule.reads:
            readers.setdefault(key, []).append(m)
    done_exception = False
    while True:
        candidates: Iterable[tuple[Rule, Binding]] = _candidates(sc, matches, done_exception)
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
            trace.append(TraceEntry(rule.number, rule.name, b.describe()))
            for key, names in _advance(sc, new).items():
                for m in readers[key]:
                    m.mark(key, names)
            sc = new
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
    for s in sc.index.states:
        residual.extend(_leftovers(s))
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
            FullState(modifiers=s.modifiers, name=s.name, inv=s.inv if s.inv is not None else TRUE)
            for s in sc.states
        ),
        trans=frozenset(
            Trans(
                None,
                t.src,
                t.pre if t.pre is not None else TRUE,
                t.call,
                t.act if t.act is not None else Action(),
                t.trg,
            )
            for t in sc.trans
        ),
    )
