"""Term-based operational semantics for statemachines.

A statemachine is a nested term: basic states, or-states (one active child,
a set of named transitions between children), and and-states (all children
active). Two levels of steps drive it: judgments `t --e/alpha-->_f t'`,
whose flag f (1 when t fires on e) belongs to t and e, as a term that does
not fire has one step, the stutter that merely consumes e; and Kripke steps
over (term, event queue) nodes, which feed a step's outputs into the queue.

Includes an encoder from guard-free statecharts to terms: each hierarchy
level becomes an or-term, and the states that carry a flat chart's data
variable are expanded over a finite value domain (state `NonEmpty` holding v
becomes the family `NonEmpty(v)`). The chart must keep these rules:

- guard-free: no guards, postconditions, do actions or internal transitions;
- no `throw` triggers or sends: the term semantics has no exception events;
- one data variable at most, and only on flat charts: a flat chart's
  transitions match a single variable event pattern, send and assign, and
  read only the data variable and the event parameter; a hierarchical
  chart's transitions carry no event data and only send ground values;
- transitions join sibling states only;
- entry and exit actions are ground send sequences;
- every level has an initial state;
- no state has the chart's name, which the top or-term takes.

A chart that breaks a rule raises `NotGuardFree`, and one whose data needs a
domain that is missing or too small raises `UnboundedValueDomain`;
`scforge vdb-run` reports either as one `error:` line at exit 2.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import replace
from typing import Iterable, Iterator, Optional, Union

from .actions import (
    Assign,
    CTrue,
    ELit,
    Message,
    PVar,
    Send,
    action_post,
    action_stmt,
    exec_stmt,
    print_value,
    reads,
    value,
    values_equal,
)
from .ast import SCFull, group_by


class UnknownTargetName(Exception):
    pass


class StateSpaceBound(Exception):
    """Exploration went past a bound; `argument` names the `run_bounded`
    argument that set it, `max_nodes` or `max_runs`."""

    def __init__(self, message: str, argument: str):
        super().__init__(message)
        self.argument = argument


class NotGuardFree(Exception):
    """The chart uses constructs the term encoding cannot express."""

    def __init__(self, offending: list):
        self.offending = list(offending)
        super().__init__("; ".join(self.offending))


class UnboundedValueDomain(Exception):
    pass


# -- terms ------------------------------------------------------------------

NONE, DEEP, SHALLOW = "none", "deep", "shallow"
HISTORY_TYPES = (NONE, DEEP, SHALLOW)


Sym = Message  # the name the benchmark's workloads build term messages by


@value
class VdbTransition:
    tname: str
    i: int  # source child index, 1-based
    ns: frozenset  # source restriction
    e: Message  # trigger
    alpha: tuple  # output actions, in order
    nt: frozenset  # target determinator
    j: int  # target child index, 1-based
    ht: str = NONE


@value
class Basic:
    name: str
    entry: tuple = ()
    exit: tuple = ()


@value
class And:
    name: str
    subterms: tuple
    entry: tuple = ()
    exit: tuple = ()


@value
class Or:
    name: str
    subterms: tuple
    active: int  # 1-based
    transitions: frozenset = frozenset()
    entry: tuple = ()
    exit: tuple = ()


Term = Union[Basic, And, Or]


def validate_term(t: Term) -> None:
    """State and transition names must be pairwise distinct; or-terms must
    pass `_check_or`."""
    seen_states: set = set()
    seen_trans: set = set()

    def walk(t: Term):
        if t.name in seen_states:
            raise ValueError(f"duplicate state name {t.name!r}")
        seen_states.add(t.name)
        if isinstance(t, Basic):
            return
        if not t.subterms:
            raise ValueError(f"{t.name!r} has no subterms")
        if isinstance(t, Or):
            _check_or(t)
            for tr in t.transitions:
                if tr.tname in seen_trans:
                    raise ValueError(f"duplicate transition name {tr.tname!r}")
                seen_trans.add(tr.tname)
        for s in t.subterms:
            walk(s)

    walk(t)


def _check_or(t: Or) -> None:
    """Indices in range, known history types, source-restriction names inside
    their source and target-determinator names inside their target: what
    exploration needs to run the or-term."""
    if not 1 <= t.active <= len(t.subterms):
        raise ValueError(f"{t.name!r}: active index {t.active} out of range")
    for tr in sorted(t.transitions, key=lambda tr: tr.tname):
        for idx in (tr.i, tr.j):
            if not 1 <= idx <= len(t.subterms):
                raise ValueError(f"{tr.tname!r}: index {idx} out of range")
        if tr.ht not in HISTORY_TYPES:
            raise ValueError(f"{tr.tname!r}: bad history type {tr.ht!r}")
        for names, idx, what, end in ((tr.ns, tr.i, "source restriction", "source"),
                                      (tr.nt, tr.j, "target determinator", "target")):
            for name in sorted(names):
                if _force_active(t.subterms[idx - 1], name) is None:
                    raise ValueError(f"{tr.tname!r}: {what} {name!r} is not in its {end}")


# -- configuration, entry/exit, next ----------------------------------------

def conf_of(t: Term) -> frozenset:
    if isinstance(t, Basic):
        return frozenset([t.name])
    if isinstance(t, And):
        return frozenset([t.name]).union(*(conf_of(s) for s in t.subterms))
    return frozenset([t.name]) | conf_of(t.subterms[t.active - 1])


def _action_orders(t: Term, exiting: bool) -> Iterator[tuple]:
    """The action sequences of entering (exiting) t, one at a time: entering
    t runs its entry actions before those of its active children, exiting
    runs its exit actions after theirs; the children of an and-term take
    turns in every order (`_orders`)."""
    own = t.exit if exiting else t.entry
    if isinstance(t, Basic):
        inner = ((),)
    elif isinstance(t, Or):
        inner = _action_orders(t.subterms[t.active - 1], exiting)
    else:
        kids = [functools.partial(_action_orders, s, exiting) for s in t.subterms]
        inner = (seq for parts in _product(kids) for seq in _orders(parts))
    for b in inner:
        yield b + own if exiting else own + b


def _reset(t: Term, keep_top: bool) -> Term:
    if isinstance(t, Basic):
        return t
    subs = tuple(_reset(s, False) for s in t.subterms)
    if isinstance(t, Or) and not keep_top:
        return replace(t, subterms=subs, active=1)
    return replace(t, subterms=subs)


def _force_active(t: Term, target: str) -> Optional[Term]:
    """Adjust Or indices so that `target` is in the active configuration.
    Returns None when the name does not occur in t."""
    if isinstance(t, Basic):
        return t if t.name == target else None
    if t.name == target:
        return t
    for idx, s in enumerate(t.subterms):
        forced = _force_active(s, target)
        if forced is not None:
            subs = t.subterms[:idx] + (forced,) + t.subterms[idx + 1:]
            if isinstance(t, And):
                return replace(t, subterms=subs)
            return replace(t, subterms=subs, active=idx + 1)
    return None


def next_state(ht: str, nt: Iterable[str], s: Term) -> Term:
    """The state that becomes active when a transition enters s.

    deep: the stored configuration is restored unchanged; shallow: only the
    top-level active index survives; none: every or-index resets to its
    default 1. Afterwards each target-determinator name is forced active.
    """
    if ht == DEEP:
        out = s
    elif ht == SHALLOW:
        out = _reset(s, keep_top=True)
    elif ht == NONE:
        out = _reset(s, keep_top=False)
    else:
        raise ValueError(f"bad history type {ht!r}")
    for name in sorted(nt):
        forced = _force_active(out, name)
        if forced is None:
            raise UnknownTargetName(name)
        out = forced
    return out


def _orders(parts: list) -> Iterator[tuple]:
    """The concatenations of the sequences `parts` in every order, one at a
    time. Only the non-empty ones are permuted, as the empty ones add
    nothing, and equal ones are ordered once (the distinct permutations of
    a multiset in lexicographic order: D. Knuth, "The Art of Computer
    Programming" 4A, 2011, 7.2.1.2, Algorithm L), so silent children and
    children with equal outputs cost no time."""
    parts = [p for p in parts if p]
    kinds = list(dict.fromkeys(parts))
    rank = {p: k for k, p in enumerate(kinds)}
    perm = sorted(rank[p] for p in parts)
    while True:
        yield tuple(itertools.chain.from_iterable(map(kinds.__getitem__, perm)))
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = perm[:i:-1]


def _product(factors: list) -> Iterator[tuple]:
    """The tuples of `itertools.product(*(f() for f in factors))`, one at a
    time. Each factor is a function that enumerates its items afresh, and
    none is materialised: a factor is enumerated again for each choice to
    its left. Every factor yields at least one item, and none yields None."""
    its = [f() for f in factors]
    combo = [next(it) for it in its]
    while True:
        yield tuple(combo)
        k = len(its) - 1
        while k >= 0:
            x = next(its[k], None)
            if x is not None:
                combo[k] = x
                break
            its[k] = factors[k]()
            combo[k] = next(its[k])
            k -= 1
        if k < 0:
            return


# -- auxiliary step judgments -----------------------------------------------

def aux_step(t: Term, e: Message) -> frozenset:
    """All derivable judgments t --e/alpha-->_f t' as (alpha, f, t') triples."""
    fires, steps = _steps(t, e, {})
    return frozenset((alpha, fires, term) for alpha, term in steps())


def _steps(t: Term, e: Message, memo: dict) -> tuple:
    """memo[t, e], made on first use from the children's entries: whether t
    fires on e, 1 or 0 (an or-term's inner transitions take priority), and a
    function that enumerates t's steps on e afresh as (alpha, t') pairs
    (`_derive`, given the own transitions that fire). A term that does not
    fire has one step, the stutter; a basic term takes no entry."""
    if isinstance(t, Basic):
        return _stutter(t)
    entry = memo.get((t, e))
    if entry is None:
        if isinstance(t, And):
            fires, fired = any(_steps(s, e, memo)[0] for s in t.subterms), ()
        else:
            fires = _steps(t.subterms[t.active - 1], e, memo)[0]
            fired = () if fires else tuple(_fired(t, e))
        steps = functools.partial(_derive, t, e, memo, fired)
        entry = memo[t, e] = (1, steps) if fires or fired else _stutter(t)
    return entry


def _stutter(t: Term) -> tuple:  # the entry of a term that does not fire
    return 0, (((), t),).__iter__


def _fired(t: Or, e: Message) -> Iterator[tuple]:
    """The (alpha, t') of t's enabled transitions on e."""
    for tr in t.transitions:
        if tr.i == t.active and tr.e == e and tr.ns <= conf_of(t.subterms[t.active - 1]):
            target = next_state(tr.ht, tr.nt, t.subterms[tr.j - 1])
            subs = t.subterms[:tr.j - 1] + (target,) + t.subterms[tr.j:]
            yield tr.alpha, replace(t, subterms=subs, active=tr.j)


def _derive(t: Term, e: Message, memo: dict, fired: tuple) -> Iterator[tuple]:
    """A firing term's steps on e, possibly repeated, given its own firing
    transitions: an and-term's combinations of its children's steps in every
    output order; an or-term's own steps, or else its active child's."""
    if isinstance(t, And):
        for combo in _product([_steps(s, e, memo)[1] for s in t.subterms]):
            term = replace(t, subterms=tuple(tj for _, tj in combo))
            for alpha in _orders([a for a, _ in combo]):
                yield alpha, term
    elif fired:
        for alpha, term in fired:  # exit the active child, enter the target
            for e1 in _action_orders(t.subterms[t.active - 1], exiting=True):
                for e2 in _action_orders(term.subterms[term.active - 1], exiting=False):
                    yield e1 + alpha + e2, term
    else:  # the active child's steps
        k = t.active
        for alpha, s_new in _steps(t.subterms[k - 1], e, memo)[1]():
            yield alpha, replace(t, subterms=t.subterms[:k - 1] + (s_new,) + t.subterms[k:])


# -- Kripke steps -----------------------------------------------------------

@value
class KripkeNode:
    """A term and its queue of messages."""

    term: Term
    queue: tuple  # of Message


def run_bounded(
    start: KripkeNode,
    max_steps: int,
    max_nodes: int = 10000,
    max_runs: int = 100000,
) -> frozenset:
    """All maximal step sequences of length <= max_steps from start; each
    step consumes the queue's head and appends its outputs at the tail.

    Raises `StateSpaceBound` when more than `max_nodes` distinct nodes are
    reachable within max_steps, as soon as one node too many is found, and
    otherwise when there are more than `max_runs` runs. Every reachable
    node's successors are found first, breadth-first, and the runs are
    enumerated after, so which bound is reported does not depend on the
    order of exploration.

    The search runs over numbers: each distinct term and message, and each
    node's key (its term's number, then its queue's), is numbered once, in
    the order found. Each (term, head) pair's distinct steps are numbered
    as `_steps` enumerates them, so the node bound stops even a step with
    n! output orders. The `KripkeNode`s are built after the search, none
    when the node bound stops it, and the runs walk a path of them.
    """
    memo: dict = {}  # (term, message) -> its steps, see `_steps`
    number, value = {}, []  # each distinct term and message -> its index in `value`
    steps: dict = {}  # (term, head) numbers -> the distinct (alpha, term) numbers of its steps

    def num(x) -> int:
        n = number.setdefault(x, len(value))
        if n == len(value):
            value.append(x)
        return n

    def numbered(u: int, h: int) -> Iterator[tuple]:  # fills steps[u, h] as `_steps` yields
        found = steps[u, h] = set()
        for alpha, t in _steps(value[u], value[h], memo)[1]():
            step = tuple(map(num, alpha)), num(t)
            if step not in found:
                found.add(step)
                yield step

    first = num(start.term), *map(num, start.queue)
    index = {first: 0}  # each distinct key -> its node's index, in the order found
    succs: list = []  # by index: the indices of a node's successors, for the nodes runs may extend
    level, depth = [first], 0
    while level and depth < max_steps:
        depth += 1
        deeper = []
        for key in level:  # in the order of their indices, so succs[i] is node i's
            succs.append(nxt := [])  # distinct, as the steps are
            if len(key) == 1:  # an empty queue
                continue
            pair, rest = key[:2], key[2:]
            for alpha, t in steps[pair] if pair in steps else numbered(*pair):
                n = (t, *rest, *alpha)
                size = len(index)
                j = index.setdefault(n, size)
                nxt.append(j)
                if j == size:
                    if j >= max_nodes:
                        raise StateSpaceBound(f"more than {max_nodes} distinct nodes", "max_nodes")
                    deeper.append(n)
        level = deeper
    nodes = [start]  # by index; the start is the caller's
    nodes += [KripkeNode(value[key[0]], tuple(map(value.__getitem__, key[1:])))
              for key in itertools.islice(index, 1, None)]

    # one path of nodes, and below each of them the successors not yet walked
    runs, path, below, i = [], [], [], 0
    while True:
        path.append(nodes[i])
        nxt = succs[i] if len(path) <= max_steps else ()
        if nxt:
            below.append(iter(nxt))
        else:
            runs.append(tuple(path))
            if len(runs) > max_runs:
                raise StateSpaceBound(f"more than {max_runs} runs", "max_runs")
            path.pop()
        while below:
            i = next(below[-1], None)
            if i is not None:
                break
            below.pop()
            path.pop()
        else:
            return frozenset(runs)


def run_outputs(run: tuple) -> tuple:
    """The actions each step appended to the queue. Each step consumes the
    queue's head, so the queue's whole stream is the head of every node but
    the last, then the last node's queue; the outputs are that stream past
    the first node's queue: a tail of the last node's queue while the steps
    consume only the first's."""
    k, last = len(run[0].queue), run[-1].queue
    if len(run) <= k + 1:
        return last[k + 1 - len(run):]
    return tuple(node.queue[0] for node in run[k:-1]) + last


def node_to_json(node: KripkeNode) -> dict:
    return {
        "term-conf": sorted(conf_of(node.term)),
        "queue": [str(e) for e in node.queue],
    }


def _node_reprs():
    """A function that returns `repr(node)`, built from the reprs of the
    node's term and messages. Nodes share their terms and messages, so each
    distinct one's repr is rendered once, as is each node's."""
    reprs: dict = {}  # id of a term or message -> its repr; the caller keeps each alive

    def piece(x) -> str:  # keyed by identity: equal messages need not compare
        text = reprs.get(id(x))
        if text is None:
            text = reprs[id(x)] = repr(x)
        return text

    @functools.cache
    def node_repr(node: KripkeNode) -> str:
        q = node.queue
        return (f"KripkeNode(term={piece(node.term)}, queue=("
                + ", ".join(map(piece, q)) + ("," if len(q) == 1 else "") + "))")
    return node_repr


def sorted_runs(runs: Iterable[tuple], by_length: bool = False) -> list:
    """The runs in the order of their repr (after their length, with
    `by_length`), built from each distinct node's repr (`_node_reprs`)."""
    node_repr = _node_reprs()

    def text(run: tuple) -> str:  # repr(run)
        return "(" + ", ".join(map(node_repr, run)) + ("," if len(run) == 1 else "") + ")"

    if by_length:
        return sorted(runs, key=lambda run: (len(run), text(run)))
    return sorted(runs, key=text)


def runs_to_json(runs: Iterable[tuple]) -> str:
    """`json.dumps` of the runs' node lists with `indent=2`. Runs share their
    nodes, so each node's text is rendered once and the lists are joined
    here."""
    @functools.cache
    def node_text(node: KripkeNode) -> str:
        return json.dumps(node_to_json(node), indent=2).replace("\n", "\n    ")

    def run_text(run: tuple) -> str:
        return "[\n    " + ",\n    ".join(map(node_text, run)) + "\n  ]" if run else "[]"

    texts = [run_text(run) for run in sorted_runs(runs)]
    return "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"


# -- encoding guard-free statecharts ----------------------------------------

def _is_trivial(cond) -> bool:
    return cond is None or isinstance(cond, CTrue)


def _ground_syms(stmt) -> Optional[tuple]:
    """The messages of a statement that only sends literals, or None."""
    if all(isinstance(p, Send) and all(isinstance(a, ELit) for a in p.args) for p in stmt):
        return exec_stmt(stmt, {}, {})[1]
    return None


def encode_guard_free(sc: SCFull, domain: Optional[tuple] = None) -> Term:
    """Translate a guard-free statechart into a statemachine term.

    Each hierarchy level becomes an or-term whose children are numbered
    initial states first (active index 1 = an initial state); a flat chart is
    the one-level case. The carrying states of a flat chart's data variable
    are expanded over the finite `domain` (state S holding d becomes S(d)),
    each value once (`true` and `1` are two), in order of first occurrence.
    The rules a chart must keep are listed in the module docstring.
    """
    index = sc.index
    hier = bool(index.parent)
    problems, actions = [], {}  # actions: state name -> its entry and exit messages
    for s in index.states:
        if s.do is not None:
            problems.append(f"state {s.name} has a do action")
        if s.internT:
            problems.append(f"state {s.name} has internal transitions")
        stmts = action_stmt(s.entry), action_stmt(s.exit)
        actions[s.name] = tuple(map(_ground_syms, stmts))
        for seq, stmt, what in zip(actions[s.name], stmts, ("entry", "exit")):
            if seq is None:
                problems.append(f"state {s.name} {what} is not a ground send sequence")
            if any(isinstance(p, Send) and p.exception for p in stmt):
                problems.append(f"state {s.name} {what} sends an exception")
    if sc.diagram_name in index.by_name:
        problems.append(f"state {sc.diagram_name} has the chart's name")
    if problems:
        raise NotGuardFree(problems)

    assigns, uses = {}, {}  # flat charts: per transition, the variables it writes and reads
    for t in index.trans:
        where, stmt = f"transition {t.src}->{t.trg}", action_stmt(t.act)
        if not _is_trivial(t.pre):
            problems.append(f"{where} has a guard")
        if not _is_trivial(action_post(t.act)):
            problems.append(f"{where} has a postcondition")
        if t.call.exception:
            problems.append(f"{where} has a throw trigger")
        if any(isinstance(p, Send) and p.exception for p in stmt):
            problems.append(f"{where} sends an exception")
        params = {a.name for a in t.call.args if isinstance(a, PVar)}
        if hier and t.call.args:
            problems.append(f"{where} carries event data in a hierarchical chart")
        elif len(t.call.args) > 1 or any(not isinstance(a, PVar) for a in t.call.args):
            problems.append(f"{where}: only a single variable event pattern is supported")
        if index.parent.get(t.src) != index.parent.get(t.trg):
            problems.append(f"{where} crosses hierarchy levels")
        if hier:
            if _ground_syms(stmt) is None:
                problems.append(f"{where} action is not a ground send sequence")
            continue
        problems += [f"{where} uses a non send/assign statement"
                     for p in stmt if not isinstance(p, (Send, Assign))]
        assigns[t] = {p.var for p in stmt if isinstance(p, Assign)}
        uses[t] = reads(stmt) - params
    data_vars = set().union(*assigns.values())
    if len(data_vars) > 1:
        problems.append(f"more than one data variable: {', '.join(sorted(data_vars))}")
    # reads are checked on charts that pass the other checks
    problems = problems or [f"transition {t.src}->{t.trg} reads {name}, which is neither "
                            "the data variable nor the event parameter"
                            for t, names in uses.items() for name in sorted(names - data_vars)]
    if problems:
        raise NotGuardFree(problems)

    var = next(iter(data_vars), None)
    domain = tuple(domain or ())  # each value once, type-strictly: `true` is not `1`
    domain = tuple(x for n, x in enumerate(domain) if not any(values_equal(x, y) for y in domain[:n]))
    if (var is not None or any(t.call.args for t in index.trans)) and not domain:
        raise UnboundedValueDomain("chart carries data; supply a finite value domain")
    # a state carries the variable when an ingoing transition assigns it or
    # an outgoing one reads it
    carriers = ({t.trg for t, names in assigns.items() if var in names}
                | {t.src for t, names in uses.items() if var in names})
    counter = itertools.count(1)
    level_trans = group_by(index.trans, lambda t: index.parent.get(t.src), tuple)

    positions = range(len(domain))  # a carrying state's slots, one per domain value

    def child(s, d) -> Term:
        en, ex = actions[s.name]
        if s.name in index.children:
            return level(s.name, s.name, en, ex)
        return Basic(s.name if d is None else f"{s.name}({print_value(domain[d])})", en, ex)

    def level(parent: Optional[str], name: str, en: tuple = (), ex: tuple = ()) -> Or:
        """The or-term of the states directly below `parent`: its own
        transitions are numbered before those of its composite children."""
        kids = sorted(index.children.get(parent, ()),
                      key=lambda s: ("initial" not in s.modifiers, s.name))
        if not kids or "initial" not in kids[0].modifiers:
            raise NotGuardFree([f"{name} has no initial (sub)state" if hier
                                else "chart has no initial state"])
        slots = [(s, d) for s in kids for d in (positions if s.name in carriers else (None,))]
        pos = {(s.name, d): k + 1 for k, (s, d) in enumerate(slots)}
        transitions = set()
        for t in level_trans.get(parent, ()):
            param = t.call.args[0].name if t.call.args else None
            for d in (positions if t.src in carriers else (None,)):
                for i in (domain if param is not None else (None,)):
                    env = {var: None if d is None else domain[d], param: i}
                    store, alpha = exec_stmt(action_stmt(t.act), {}, env)
                    final = None
                    if t.trg in carriers:
                        value = store.get(var, env.get(var))
                        if value is None:
                            raise NotGuardFree([f"transition {t.src}->{t.trg}: value of {var}"
                                                " in target undetermined"])
                        # the position of the domain value the target holds
                        final = next((n for n in positions if values_equal(domain[n], value)), None)
                        if final is None:
                            raise UnboundedValueDomain(
                                f"value {value!r} escapes the supplied domain")
                    transitions.add(VdbTransition(
                        tname=f"t{next(counter)}",
                        i=pos[(t.src, d)],
                        ns=frozenset(),
                        e=Message(t.call.name, () if param is None else (i,)),
                        alpha=alpha,
                        nt=frozenset(),
                        j=pos[(t.trg, final)],
                    ))
        return Or(name, tuple(child(s, d) for s, d in slots), 1, frozenset(transitions), en, ex)

    term = level(None, sc.diagram_name)
    validate_term(term)
    return term


# -- term text format -------------------------------------------------------
# A term or transition is its kind, then its fields in declaration order.

_PLAIN = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-$")


def _atom(name: str) -> str:
    if name and all(c in _PLAIN for c in name) and not name[0].isdigit():
        return name
    return "|" + name.replace("\\", "\\\\").replace("|", "\\|") + "|"


def _value_sexpr(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return "(" + " ".join(_value_sexpr(x) for x in v) + ")"
    raise TypeError(f"bad payload value {v!r}")


def _paren(items: Iterable[str]) -> str:
    return "(" + " ".join(items) + ")"


def _read_list(tree) -> list:
    if not isinstance(tree, list):
        raise ValueError(f"expected a list, not {tree!r}")
    return tree


def _read_atom(tree) -> str:
    if isinstance(tree, list):
        raise ValueError(f"expected an atom, not the list {tree!r}")
    return tree


def _read_int(tree) -> int:
    try:
        return int(_read_atom(tree))
    except ValueError:
        raise ValueError(f"expected an integer, not {tree!r}") from None


def _read_value(tree):
    if isinstance(tree, list):
        return tuple(map(_read_value, tree))
    if tree in ("true", "false"):
        return tree == "true"
    return _read_int(tree)


def _write_sym(m: Message) -> str:
    if m.exception:
        raise ValueError(f"the term text has no exception messages: {m}")
    return _paren([_atom(m.name)] + [_value_sexpr(v) for v in m.args])


def _read_sym(tree) -> Message:
    items = _read_list(tree)
    if not items:
        raise ValueError("expected a symbol, not ()")
    return Message(_read_atom(items[0]), tuple(map(_read_value, items[1:])))


_KINDS = {"basic": Basic, "and": And, "or": Or, "trans": VdbTransition}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}
_NAME = (_atom, _read_atom)
_INT = (str, _read_int)
_SEQ = (lambda seq: _paren(map(_write_sym, seq)),
        lambda tree: tuple(map(_read_sym, _read_list(tree))))
_NAMES = (lambda names: _paren(map(_atom, sorted(names))),
          lambda tree: frozenset(map(_read_atom, _read_list(tree))))
# field name -> (write, read)
_FIELDS = {
    "name": _NAME, "tname": _NAME,
    "active": _INT, "i": _INT, "j": _INT,
    "entry": _SEQ, "exit": _SEQ, "alpha": _SEQ,
    "ns": _NAMES, "nt": _NAMES,
    "e": (_write_sym, _read_sym),
    "ht": (str, _read_atom),
    "subterms": (lambda subs: _paren(map(term_to_sexpr, subs)), tuple),
    "transitions": (lambda trans: _paren(map(term_to_sexpr, sorted(trans, key=lambda tr: tr.tname))),
                    frozenset),
}
_NESTED = {"subterms": ("basic", "and", "or"), "transitions": ("trans",)}  # the kinds of their items


def term_to_sexpr(t: Union[Term, VdbTransition]) -> str:
    return _paren([_KIND_OF[type(t)]] + [_FIELDS[f][0](getattr(t, f)) for f in t.__match_args__])


def _read(tree, kinds: tuple):
    """The term or transition `tree` spells, whose kind is one of `kinds`."""
    items = _read_list(tree)
    if not items or items[0] not in kinds:
        raise ValueError(f"expected {'/'.join(kinds)}, not {tree!r}")
    cls = _KINDS[items[0]]
    names = cls.__match_args__  # the init fields, in order
    if len(items) != 1 + len(names):
        raise ValueError(f"{items[0]} takes {len(names)} fields, not {len(items) - 1}")
    args = []
    for f, x in zip(names, items[1:]):
        if f in _NESTED:  # map adds no frame where a generator would: one frame a term level
            x = map(_read, _read_list(x), itertools.repeat(_NESTED[f]))
        args.append(_FIELDS[f][1](x))
    return cls(*args)


# Parenthesis tokens; a quoted atom `|(|` is the string "(", not one of them.
_OPEN, _CLOSE = object(), object()


# One token after optional whitespace: a parenthesis, a |...| atom whose
# backslash escapes the next character, a plain atom, a stray | that opens
# no complete atom, or the end of the text.
_TOKEN = re.compile(r"\s*(?:([()])|\|((?:[^|\\]|\\.)*)\||([^\s()|]+)|(\|)|\Z)", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _sexpr_tokens(text: str):
    for paren, quoted, plain, stray in (m.groups() for m in _TOKEN.finditer(text)):
        if stray:
            raise ValueError("unterminated |...| atom")
        if paren:
            yield _OPEN if paren == "(" else _CLOSE
        elif quoted is not None:
            yield _ESCAPE.sub(r"\1", quoted)
        elif plain:
            yield plain


def _read_sexpr(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ValueError("unexpected end of input")
    tok = tokens[pos]
    if tok is _OPEN:
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] is not _CLOSE:
            item, pos = _read_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ValueError("missing closing parenthesis")
        return items, pos + 1
    if tok is _CLOSE:
        raise ValueError("unexpected closing parenthesis")
    return tok, pos + 1


def term_from_sexpr(text: str) -> Term:
    tokens = list(_sexpr_tokens(text))
    tree, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing input after term")
    term = _read(tree, _NESTED["subterms"])
    validate_term(term)
    return term
