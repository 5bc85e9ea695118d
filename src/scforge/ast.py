"""Abstract syntax for full (hierarchical) and simplified (flat) statecharts."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Optional

from .actions import Action, Call, Cond, value

# Chart-level stereotypes.
PRIO_INNER = "prio:inner"
PRIO_OUTER = "prio:outer"
COMPLETION_IGNORE = "completion:ignore"
COMPLETION_CHAOS = "completion:chaos"
COMPLETION_ERROR = "completion:error"
SEQUENTIAL = "action conditions:sequential"

CHART_STEREOS = {
    PRIO_INNER,
    PRIO_OUTER,
    COMPLETION_IGNORE,
    COMPLETION_CHAOS,
    COMPLETION_ERROR,
    SEQUENTIAL,
}
PRIO_STEREOS = {PRIO_INNER, PRIO_OUTER}
COMPLETION_STEREOS = {COMPLETION_IGNORE, COMPLETION_CHAOS, COMPLETION_ERROR}

# State stereotypes and modifiers.
STATE_STEREOS = {"error", "exception"}
MODIFIERS = {"initial", "final"}


@value
class InternT:
    """Internal transition: triggered like a transition, but without a state change."""

    pre: Optional[Cond]
    call: Call
    act: Optional[Action]


@value
class Trans:
    prio: Optional[int]  # the <<prio=n>> transition stereotype
    src: str
    pre: Optional[Cond]
    call: Call
    act: Optional[Action]
    trg: str
    _key: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)  # trans_key's cache


@value
class FullState:
    sstereos: frozenset[str] = frozenset()
    modifiers: frozenset[str] = frozenset()
    name: str = ""
    inv: Optional[Cond] = None
    entry: Optional[Action] = None
    exit: Optional[Action] = None
    do: Optional[Action] = None
    internT: frozenset[InternT] = frozenset()


@dataclass(frozen=True)
class SCFull:
    stereos: frozenset[str] = frozenset()
    diagram_name: str = ""
    class_name: str = ""
    inv: Optional[Cond] = None
    states: frozenset[FullState] = frozenset()
    trans: frozenset[Trans] = frozenset()
    sub: frozenset[tuple[str, str]] = frozenset()  # (child, parent) state names

    @cached_property
    def index(self) -> "ChartIndex":
        return ChartIndex(self.states, self.trans, self.sub)

    def state(self, name: str) -> FullState:
        return self.index.by_name[name]

    def state_opt(self, name: str) -> Optional[FullState]:
        return self.index.by_name.get(name)

    def replace_state(self, old: FullState, new: FullState) -> "SCFull":
        return updated(self, states=(self.states - {old}) | {new})


def updated(x, **changes):
    """`dataclasses.replace(x, **changes)` for a chart or a state, in a
    fraction of the time, without what x computed and kept (its index or
    hash)."""
    if isinstance(x, FullState):
        names = FullState.__match_args__  # its init fields, in order
        return FullState(*[changes[f] if f in changes else getattr(x, f) for f in names])
    new = object.__new__(type(x))
    fields = vars(new)
    fields.update(vars(x))
    fields.pop("index", None)
    fields.update(changes)
    return new


class ChartIndex:
    """Structural lookups over one chart value, full or simplified, built on
    first use and kept with it; each part past the name lookups is built
    when first read, unless `derive` patched it from a parent chart's.

    `children`, `ingoing` and `outgoing` map a state name to a frozenset
    (children of None are the top-level states), and `outgoing_by_call`
    maps a (source, trigger name, arity) triple to a tuple, in `trans_key`
    order, of the transitions it selects; `ancestors` maps a name to the
    names of its strict superstates, parent first. `ingoing_at_or_above`
    and `outgoing_at_or_above` are the names of the states that have such a
    transition themselves or on one of their ancestors. `top_names` maps
    each modifier to the names of the top-level states carrying it. On
    charts that break CC1 or CC12 the answers are deterministic but partial:
    one parent per name, and states not reachable from the top level (on a
    cycle or below an undeclared parent) have no ancestors.
    """

    def __init__(self, states, trans, sub: frozenset[tuple[str, str]] = frozenset()):
        self._trans, self._sub = trans, sub
        self.states = tuple(sorted(states, key=_NAME))
        self.by_name = {s.name: s for s in self.states}
        self.parent = dict(sorted(sub))

    def derive(self, chart: "SCFull", dstates: frozenset, dtrans: frozenset) -> "ChartIndex":
        """The index of `chart`, whose states and transitions differ from
        this index's chart's by the symmetric differences `dstates` and
        `dtrans`. Over the same substate relation and state names, it shares
        this index's `parent` map and patches the other parts where those
        differences fall. It shares `ancestors` too, which reads only the
        names and the substate relation, and the `*_at_or_above` sets unless a
        state gained its first or lost its last transition in their direction;
        then it patches them below those states (`_patched`). The sorted
        transitions are built on first read. Otherwise the index is built
        afresh."""
        added = {s.name: s for s in dstates if s in chart.states}
        removed = {s.name for s in dstates if s not in chart.states}
        if ((chart.sub is not self._sub and chart.sub != self._sub) or removed != added.keys()
                or len(added) + len(removed) != len(dstates)
                or len(self.by_name) != len(self.states)):
            return ChartIndex(chart.states, chart.trans, chart.sub)
        new = ChartIndex.__new__(ChartIndex)
        new._trans, new._sub, new.parent = chart.trans, self._sub, self.parent
        new.states, new.by_name, new.children = self.states, self.by_name, self.children
        new.ancestors = self.ancestors
        if all(name in self.parent for name in added):  # no top-level state changed
            new.top_names = self.top_names
        if added:
            new.by_name = {**self.by_name, **added}
            states = list(self.states)
            for name, s in added.items():
                states[bisect_left(self.states, name, key=_NAME)] = s
            new.states = tuple(states)
            new.children = _regrouped(self.children, dstates, lambda s: self.parent.get(s.name))
        for edges, end in (("ingoing", _TRG), ("outgoing", _SRC)):
            was = getattr(self, edges)
            now = vars(new)[edges] = _regrouped(was, dtrans, end)
            flipped = {end(t) for t in dtrans if (end(t) in was) != (end(t) in now)}
            at_or_above = edges + "_at_or_above"
            vars(new)[at_or_above] = new._patched(getattr(self, at_or_above), now, flipped)
        return new

    def _patched(self, was: frozenset, names, flipped: set) -> frozenset:
        """`_at_or_above(names)`, from `was`, the set before the states in
        `flipped` gained their first or lost their last name in `names`. Each
        flipped state's subtree, shallowest first, is recomputed top-down,
        down to where a state's membership did not change."""
        if not flipped:
            return was
        out, ancestors = set(was), self.ancestors
        for name in sorted(flipped, key=lambda n: len(ancestors.get(n, ()))):
            todo = [name]
            while todo:
                n = todo.pop()
                above = ancestors.get(n)  # None where the top-down pass does not reach
                member = n in names or bool(above) and above[0] in out
                if member != (n in out):
                    (out.add if member else out.discard)(n)
                    todo.extend(c.name for c in self.children.get(n, ()))
        return frozenset(out)

    @cached_property
    def trans(self) -> tuple:
        """The transitions in `trans_key` order."""
        return tuple(sorted(self._trans, key=trans_key))

    @cached_property
    def children(self) -> dict[Optional[str], frozenset]:
        return group_by(self.states, lambda s: self.parent.get(s.name))

    @cached_property
    def ingoing(self) -> dict[str, frozenset]:
        return group_by(self._trans, lambda t: t.trg)

    @cached_property
    def outgoing(self) -> dict[str, frozenset]:
        return group_by(self._trans, lambda t: t.src)

    @cached_property
    def outgoing_by_call(self) -> dict[tuple[str, str, int], tuple]:
        return group_by(self.trans, lambda t: (t.src, t.call.name, len(t.call.args)), tuple)

    @cached_property
    def top_names(self) -> dict[str, frozenset[str]]:
        """Per modifier (`initial`, `final`), the names of the top-level
        states that carry it."""
        tops = self.children.get(None, ())
        return {mod: frozenset(s.name for s in tops if mod in s.modifiers) for mod in MODIFIERS}

    @cached_property
    def ancestors(self) -> dict[str, tuple[str, ...]]:
        out, todo = {}, [(s.name, ()) for s in self.children.get(None, ())]
        while todo:
            name, above = todo.pop()
            out[name] = above
            todo.extend((c.name, (name,) + above) for c in self.children.get(name, ()))
        return out

    @cached_property
    def ingoing_at_or_above(self) -> frozenset[str]:
        return self._at_or_above(self.ingoing)

    @cached_property
    def outgoing_at_or_above(self) -> frozenset[str]:
        return self._at_or_above(self.outgoing)

    def _at_or_above(self, names) -> frozenset[str]:
        """`names` and, in one top-down pass, every state below one of them."""
        out = set(names)
        todo = list(self.children.get(None, ()))
        while todo:
            s = todo.pop()
            below = self.children.get(s.name, ())
            if s.name in out:
                out.update(c.name for c in below)
            todo.extend(below)
        return frozenset(out)


_NAME, _SRC, _TRG = attrgetter("name"), attrgetter("src"), attrgetter("trg")


def _regrouped(groups: dict, diff, key) -> dict:
    """`groups` (frozensets by key, as `group_by` builds them) after each
    item of `diff`, a symmetric difference between two versions of the
    grouped items, has entered or left its group."""
    if not diff:
        return groups
    out = dict(groups)
    for k, d in group_by(diff, key).items():
        group = out.get(k, frozenset()) ^ d
        if group:
            out[k] = group
        else:
            del out[k]
    return out


def group_by(items, key, kind=frozenset) -> dict:
    """The items by their key, in order of first appearance, each group
    collected into a `kind`."""
    groups: dict = {}
    for x in items:
        groups.setdefault(key(x), []).append(x)
    return {k: kind(v) for k, v in groups.items()}


def retarget(t: Trans, src: Optional[str] = None, trg: Optional[str] = None) -> Trans:
    """t with its source or target replaced, built directly. It keeps t's
    sort key with the two ends replaced, as nothing else in the key changes."""
    src, trg = t.src if src is None else src, t.trg if trg is None else trg
    new = Trans(t.prio, src, t.pre, t.call, t.act, trg)
    new._key = (src, trg) + trans_key(t)[2:]
    return new


def trans_key(t: Trans):
    """One total order on a chart's transitions. Each transition computes
    its key once, on first use, and keeps it: the rewrite engine sorts the
    same transitions on every step."""
    key = t._key
    if key is None:
        key = t._key = (t.src, t.trg, t.call.name, len(t.call.args), repr(t.pre), repr(t.act),
                        repr(t.prio), repr(t.call.args), t.call.exception)
    return key


@dataclass(frozen=True)
class SCSimp(SCFull):
    """A flat chart in the simplified form: its states carry only modifiers
    and an invariant, its transitions no priority, and every invariant,
    guard and action is present."""

    @property
    def transitions(self) -> frozenset[Trans]:
        return self.trans

    def initial_states(self) -> list[FullState]:
        return [s for s in self.index.states if "initial" in s.modifiers]


def triggers(sc: SCFull) -> set[str]:
    """All trigger names: calls on transitions and internal transitions."""
    names = {t.call.name for t in sc.index.trans}
    for s in sc.index.states:
        names |= {it.call.name for it in s.internT}
    return names
