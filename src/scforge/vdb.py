"""Term-based operational semantics for statemachines.

A statemachine is a nested term: basic states, or-states (one active child,
a set of named transitions between children), and and-states (all children
active). A two-level semantics drives it: auxiliary judgments
`t --e/alpha-->_f t'` (flag f=1 when a transition fired, f=0 for a stutter
that merely consumes the event) and, on top, Kripke steps over (term, event
queue) nodes where the outputs of a step are fed back into the queue.

Includes an encoder from guard-free statecharts to terms: each hierarchy
level becomes an or-term, and the states that carry a flat chart's data
variable are expanded over a finite value domain (state `NonEmpty` holding v
becomes the family `NonEmpty(v)`). The chart must keep these rules:

- guard-free: no guards, postconditions, do actions or internal transitions;
- one data variable at most, and only on flat charts: a flat chart's
  transitions match a single variable event pattern, send and assign, and
  read only the data variable and the event parameter; a hierarchical
  chart's transitions carry no event data and only send ground values;
- transitions join sibling states only;
- entry and exit actions are ground send sequences;
- every level has an initial state.

A chart that breaks a rule raises `NotGuardFree`, and one whose data needs a
domain that is missing or too small raises `UnboundedValueDomain`;
`scforge vdb-run` reports either as one `error:` line at exit 2.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Union

from .actions import (
    Assign,
    CTrue,
    ELit,
    PVar,
    Send,
    action_post,
    action_stmt,
    exec_stmt,
    stmt_read_vars,
)
from .ast import SCFull, SCSimp, hash_once
from .printer import print_value


class UnknownTargetName(Exception):
    pass


class StateSpaceBound(Exception):
    """Exploration went past a bound; `variable` names the environment
    variable through which `scforge vdb-run` sets the bound."""

    def __init__(self, message: str, variable: str):
        super().__init__(message)
        self.variable = variable


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


# Terms, symbols and Kripke nodes hash once: exploration looks the same
# values up in sets and dicts on every step.

@hash_once
@dataclass(frozen=True)
class Sym:
    """An event or action symbol: a name with concrete payload values."""

    name: str
    payload: tuple = ()

    def __str__(self):
        """The symbol's text, rendered on first use and kept: exploration
        shares each symbol among many runs, and callers render every run."""
        try:
            return self._text
        except AttributeError:
            text = f"{self.name}(" + ", ".join(print_value(p) for p in self.payload) + ")"
            object.__setattr__(self, "_text", text)
            return text


@hash_once
@dataclass(frozen=True)
class VdbTransition:
    tname: str
    i: int  # source child index, 1-based
    ns: frozenset  # source restriction
    e: Sym  # trigger
    alpha: tuple  # output actions, in order
    nt: frozenset  # target determinator
    j: int  # target child index, 1-based
    ht: str = NONE


@hash_once
@dataclass(frozen=True)
class Basic:
    name: str
    entry: tuple = ()
    exit: tuple = ()


@hash_once
@dataclass(frozen=True)
class And:
    name: str
    subterms: tuple
    entry: tuple = ()
    exit: tuple = ()


@hash_once
@dataclass(frozen=True)
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
    """Indices in range, known history types, and target-determinator names
    inside their target: what exploration needs to run the or-term."""
    if not 1 <= t.active <= len(t.subterms):
        raise ValueError(f"{t.name!r}: active index {t.active} out of range")
    for tr in sorted(t.transitions, key=lambda tr: tr.tname):
        for idx in (tr.i, tr.j):
            if not 1 <= idx <= len(t.subterms):
                raise ValueError(f"{tr.tname!r}: index {idx} out of range")
        if tr.ht not in HISTORY_TYPES:
            raise ValueError(f"{tr.tname!r}: bad history type {tr.ht!r}")
        for name in sorted(tr.nt):
            if _force_active(t.subterms[tr.j - 1], name) is None:
                raise ValueError(f"{tr.tname!r}: target determinator {name!r} is not in its target")


# -- configuration, entry/exit, next ----------------------------------------

def conf_of(t: Term) -> frozenset:
    if isinstance(t, Basic):
        return frozenset([t.name])
    if isinstance(t, And):
        return frozenset([t.name]).union(*(conf_of(s) for s in t.subterms))
    return frozenset([t.name]) | conf_of(t.subterms[t.active - 1])


def _action_seqs(t: Term, exiting: bool) -> frozenset:
    """Entering t runs its entry actions before those of its active
    children, exiting runs its exit actions after theirs; the children of an
    and-term take turns in every order."""
    own = t.exit if exiting else t.entry
    if isinstance(t, Basic):
        inner = [()]
    elif isinstance(t, Or):
        inner = _action_seqs(t.subterms[t.active - 1], exiting)
    else:
        inner = (tuple(x for part in parts for x in part)
                 for perm in itertools.permutations(t.subterms)
                 for parts in itertools.product(*(_action_seqs(s, exiting) for s in perm)))
    return frozenset(b + own if exiting else own + b for b in inner)


def entry_seqs(t: Term) -> frozenset:
    return _action_seqs(t, exiting=False)


def exit_seqs(t: Term) -> frozenset:
    return _action_seqs(t, exiting=True)


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


# -- auxiliary step judgments -----------------------------------------------

def aux_step(t: Term, e: Sym) -> frozenset:
    """All derivable judgments t --e/alpha-->_f t' as (alpha, f, t') triples."""
    if isinstance(t, Basic):
        return frozenset([((), 0, t)])  # stutter
    if isinstance(t, And):
        child_steps = [sorted(aux_step(s, e), key=repr) for s in t.subterms]
        out = set()
        for combo in itertools.product(*child_steps):
            f = 1 if any(fj for _, fj, _ in combo) else 0
            subs = tuple(tj for _, _, tj in combo)
            term = replace(t, subterms=subs)
            for perm in itertools.permutations(range(len(combo))):
                alpha = tuple(x for k in perm for x in combo[k][0])
                out.add((alpha, f, term))
        return frozenset(out)

    # or-term
    active = t.subterms[t.active - 1]
    inner = aux_step(active, e)
    inner_fired = [(a, f, s) for a, f, s in inner if f == 1]
    out = set()
    # inner transitions take priority and propagate
    for alpha, _, s_new in inner_fired:
        subs = t.subterms[:t.active - 1] + (s_new,) + t.subterms[t.active:]
        out.add((alpha, 1, replace(t, subterms=subs)))
    if not inner_fired:
        # own transitions fire only when the active child cannot
        for tr in sorted(t.transitions, key=lambda tr: tr.tname):
            if tr.i != t.active or tr.e != e:
                continue
            if not tr.ns <= conf_of(active):
                continue
            target = next_state(tr.ht, tr.nt, t.subterms[tr.j - 1])
            subs = t.subterms[:tr.j - 1] + (target,) + t.subterms[tr.j:]
            term = replace(t, subterms=subs, active=tr.j)
            for e1 in exit_seqs(active):
                for e2 in entry_seqs(target):
                    out.add((e1 + tr.alpha + e2, 1, term))
    if not any(f == 1 for _, f, _ in out):
        out.add(((), 0, t))  # stutter
    return frozenset(out)


# -- Kripke steps -----------------------------------------------------------

@hash_once
@dataclass(frozen=True)
class KripkeNode:
    term: Term
    queue: tuple  # of Sym


def fifo_sel(queue: tuple):
    """Remove the head message; undefined on an empty queue."""
    if queue:
        yield queue[0], queue[1:]


def fifo_join(alpha: tuple, queue: tuple) -> tuple:
    """Append the outputs, element-wise in order, at the tail."""
    return queue + tuple(alpha)


def drop_join(alphabet: Iterable[str]):
    """A join that silently discards outputs outside the event alphabet."""
    allowed = frozenset(alphabet)

    def join(alpha: tuple, queue: tuple) -> tuple:
        return queue + tuple(a for a in alpha if a.name in allowed)

    return join


def consume_input(node: KripkeNode, sel=fifo_sel, join=fifo_join,
                  memo: Optional[dict] = None) -> frozenset:
    """All successor nodes: pick an event via sel, take any auxiliary step,
    merge the outputs back into the queue via join. A `memo` dict shared
    between calls lets each (term, event) pair derive its steps once."""
    memo = {} if memo is None else memo
    out = set()
    for e, rest in sel(node.queue):
        steps = memo.get((node.term, e))
        if steps is None:
            steps = memo[node.term, e] = aux_step(node.term, e)
        for alpha, _, term in steps:
            out.add(KripkeNode(term, join(alpha, rest)))
    return frozenset(out)


def run_bounded(
    start: KripkeNode,
    max_steps: int,
    sel=fifo_sel,
    join=fifo_join,
    max_nodes: int = 10000,
    max_runs: int = 100000,
) -> frozenset:
    """All maximal step sequences of length <= max_steps from start.

    Raises `StateSpaceBound` when more than `max_nodes` distinct nodes are
    reachable within max_steps, and otherwise when there are more than
    `max_runs` runs. Every reachable node's successors are derived first,
    breadth-first, and the runs are enumerated after, so which bound is
    reported does not depend on the order of exploration.
    """
    memo: dict = {}  # (term, event) -> its auxiliary steps
    succs: dict = {}  # node -> its successors, for the nodes runs may extend
    nodes_seen = {start}
    level, depth = [start], 0
    while level and depth < max_steps:
        depth += 1
        deeper = []
        for node in level:
            succs[node] = nxt = consume_input(node, sel, join, memo)
            for n in nxt:
                if n not in nodes_seen:
                    nodes_seen.add(n)
                    deeper.append(n)
            if len(nodes_seen) > max_nodes:
                raise StateSpaceBound(f"more than {max_nodes} distinct nodes",
                                      "SCFORGE_MAX_NODES")
        level = deeper

    # paths on the stack are pairwise distinct, so no run is found twice
    runs = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        nxt = succs[path[-1]] if len(path) <= max_steps else ()
        if not nxt:
            runs.append(path)
            if len(runs) > max_runs:
                raise StateSpaceBound(f"more than {max_runs} runs", "SCFORGE_MAX_RUNS")
            continue
        stack.extend(path + (node,) for node in nxt)
    return frozenset(runs)


def run_outputs(run: tuple) -> tuple:
    """The actions each step appended to the queue (FIFO sel/join assumed)."""
    out = []
    for a, b in zip(run, run[1:]):
        out.extend(b.queue[len(a.queue) - 1:])
    return tuple(out)


def node_to_json(node: KripkeNode) -> dict:
    return {
        "term-conf": sorted(conf_of(node.term)),
        "queue": [str(e) for e in node.queue],
    }


def sorted_runs(runs: Iterable[tuple], by_length: bool = False) -> list:
    """The runs in the order of their repr (after their length, with
    `by_length`). Runs share their nodes, so each node's repr is computed
    once."""
    node_repr = functools.cache(repr)

    def text(run: tuple) -> str:  # repr(run)
        return "(" + ", ".join(map(node_repr, run)) + ("," if len(run) == 1 else "") + ")"

    if by_length:
        return sorted(runs, key=lambda run: (len(run), text(run)))
    return sorted(runs, key=text)


def runs_to_json(runs: Iterable[tuple]) -> str:
    data = [[node_to_json(n) for n in run] for run in sorted_runs(runs)]
    return json.dumps(data, indent=2)


# -- encoding guard-free statecharts ----------------------------------------

def _is_trivial(cond) -> bool:
    return cond is None or isinstance(cond, CTrue)


def _data_name(state: str, value) -> str:
    return f"{state}({print_value(value)})"


def _ground_syms(stmt) -> Optional[tuple]:
    """A statement as a ground action-symbol sequence, or None if impossible."""
    out = []
    for prim in stmt:
        if not isinstance(prim, Send):
            return None
        args = []
        for a in prim.args:
            if not isinstance(a, ELit):
                return None
            args.append(a.value)
        out.append(Sym(prim.name, tuple(args)))
    return tuple(out)


def encode_guard_free(sc: Union[SCFull, SCSimp], domain: Optional[tuple] = None) -> Term:
    """Translate a guard-free statechart into a statemachine term.

    Each hierarchy level becomes an or-term whose children are numbered
    initial states first (active index 1 = an initial state); a flat chart is
    the one-level case. The carrying states of a flat chart's data variable
    are expanded over the finite `domain` (state S holding d becomes S(d)).
    The rules a chart must keep are listed in the module docstring.
    """
    index = sc.index
    hier = bool(index.parent)
    problems, actions = [], {}  # actions: state name -> its entry and exit symbols
    for s in index.states:
        if s.do is not None:
            problems.append(f"state {s.name} has a do action")
        if s.internT:
            problems.append(f"state {s.name} has internal transitions")
        actions[s.name] = _ground_syms(action_stmt(s.entry)), _ground_syms(action_stmt(s.exit))
        for seq, what in zip(actions[s.name], ("entry", "exit")):
            if seq is None:
                problems.append(f"state {s.name} {what} is not a ground send sequence")
    if problems:
        raise NotGuardFree(problems)

    assigns, reads = {}, {}  # flat charts: per transition, the variables it writes and reads
    sends = {}  # hierarchical charts: per transition, its ground send symbols
    for t in index.trans:
        where, stmt = f"transition {t.src}->{t.trg}", action_stmt(t.act)
        if not _is_trivial(t.pre):
            problems.append(f"{where} has a guard")
        if not _is_trivial(action_post(t.act)):
            problems.append(f"{where} has a postcondition")
        params = {a.name for a in t.call.args if isinstance(a, PVar)}
        if hier and t.call.args:
            problems.append(f"{where} carries event data in a hierarchical chart")
        elif len(t.call.args) > 1 or any(not isinstance(a, PVar) for a in t.call.args):
            problems.append(f"{where}: only a single variable event pattern is supported")
        if index.parent.get(t.src) != index.parent.get(t.trg):
            problems.append(f"{where} crosses hierarchy levels")
        if hier:
            sends[t] = _ground_syms(stmt)
            if sends[t] is None:
                problems.append(f"{where} action is not a ground send sequence")
            continue
        problems += [f"{where} uses a non send/assign statement"
                     for p in stmt if not isinstance(p, (Send, Assign))]
        assigns[t] = {p.var for p in stmt if isinstance(p, Assign)}
        reads[t] = stmt_read_vars(stmt) - params
    data_vars = set().union(*assigns.values())
    if len(data_vars) > 1:
        problems.append(f"more than one data variable: {', '.join(sorted(data_vars))}")
    # reads are checked on charts that pass the other checks
    problems = problems or [f"transition {t.src}->{t.trg} reads {name}, which is neither "
                            "the data variable nor the event parameter"
                            for t, names in reads.items() for name in sorted(names - data_vars)]
    if problems:
        raise NotGuardFree(problems)

    var = next(iter(data_vars), None)
    if (var is not None or any(t.call.args for t in index.trans)) and not domain:
        raise UnboundedValueDomain("chart carries data; supply a finite value domain")
    # a state carries the variable when an ingoing transition assigns it or
    # an outgoing one reads it
    carriers = ({t.trg for t, names in assigns.items() if var in names}
                | {t.src for t, names in reads.items() if var in names})
    counter = itertools.count(1)

    def child(s, d) -> Term:
        en, ex = actions[s.name]
        if s.name in index.children:
            return level(s.name, s.name, en, ex)
        return Basic(s.name if d is None else _data_name(s.name, d), en, ex)

    def level(parent: Optional[str], name: str, en: tuple = (), ex: tuple = ()) -> Or:
        """The or-term of the states directly below `parent`: its own
        transitions are numbered before those of its composite children."""
        kids = sorted(index.children.get(parent, ()),
                      key=lambda s: ("initial" not in s.modifiers, s.name))
        if not kids or "initial" not in kids[0].modifiers:
            raise NotGuardFree([f"{name} has no initial (sub)state" if hier
                                else "chart has no initial state"])
        slots = [(s, d) for s in kids for d in (domain if s.name in carriers else (None,))]
        pos = {(s.name, d): k + 1 for k, (s, d) in enumerate(slots)}
        transitions = set()
        for t in index.trans:
            if index.parent.get(t.src) != parent:
                continue
            param = t.call.args[0].name if t.call.args else None
            for d in (domain if t.src in carriers else (None,)):
                for i in (domain if param is not None else (None,)):
                    env = {var: d, param: i}
                    if t in sends:
                        store, alpha = {}, sends[t]
                    else:
                        store, msgs = exec_stmt(action_stmt(t.act), {}, env)
                        alpha = tuple(Sym(m.name, m.args) for m in msgs)
                    final = None
                    if t.trg in carriers:
                        final = store.get(var, env.get(var))
                        if final is None:
                            raise NotGuardFree([f"transition {t.src}->{t.trg}: value of {var}"
                                                " in target undetermined"])
                        if final not in domain:
                            raise UnboundedValueDomain(
                                f"value {final!r} escapes the supplied domain")
                    transitions.add(VdbTransition(
                        tname=f"t{next(counter)}",
                        i=pos[(t.src, d)],
                        ns=frozenset(),
                        e=Sym(t.call.name, () if param is None else (i,)),
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


def _write_sym(s: Sym) -> str:
    return _paren([_atom(s.name)] + [_value_sexpr(p) for p in s.payload])


def _read_sym(tree) -> Sym:
    items = _read_list(tree)
    if not items:
        raise ValueError("expected a symbol, not ()")
    return Sym(_read_atom(items[0]), tuple(map(_read_value, items[1:])))


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
    "subterms": (lambda subs: _paren(map(term_to_sexpr, subs)),
                 lambda tree: tuple(_read(x, ("basic", "and", "or")) for x in _read_list(tree))),
    "transitions": (lambda trans: _paren(map(term_to_sexpr, sorted(trans, key=lambda tr: tr.tname))),
                    lambda tree: frozenset(_read(x, ("trans",)) for x in _read_list(tree))),
}


def term_to_sexpr(t: Union[Term, VdbTransition]) -> str:
    return _paren([_KIND_OF[type(t)]] + [_FIELDS[f.name][0](getattr(t, f.name)) for f in fields(t)])


def _read(tree, kinds: tuple):
    """The term or transition `tree` spells, whose kind is one of `kinds`."""
    items = _read_list(tree)
    if not items or items[0] not in kinds:
        raise ValueError(f"expected {'/'.join(kinds)}, not {tree!r}")
    cls = _KINDS[items[0]]
    if len(items) != 1 + len(fields(cls)):
        raise ValueError(f"{items[0]} takes {len(fields(cls))} fields, not {len(items) - 1}")
    out = cls(*(_FIELDS[f.name][1](x) for f, x in zip(fields(cls), items[1:])))
    if isinstance(out, Or):
        _check_or(out)
    return out


# Parenthesis tokens; a quoted atom `|(|` is the string "(", not one of them.
_OPEN, _CLOSE = object(), object()


def _sexpr_tokens(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield _OPEN if c == "(" else _CLOSE
            i += 1
        elif c == "|":
            j = i + 1
            buf = []
            while j < n and text[j] != "|":
                if text[j] == "\\" and j + 1 < n:
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= n:
                raise ValueError("unterminated |...| atom")
            yield "".join(buf)
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()|":
                j += 1
            yield text[i:j]
            i = j


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
    return _read(tree, ("basic", "and", "or"))
