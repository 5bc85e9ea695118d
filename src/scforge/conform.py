"""Conformance of finite system-model fragments against statecharts.

A fragment is an explicit finite graph of object-group states: per object a
variable store, thread stacks of in-processing messages, and an event buffer;
edges carry the messages output during that step. Checking asks whether the
fragment is a possible realization of a chart: invariants hold on projected
nodes, initial states project into initial nodes, run-to-completion holds,
and every enabled chart transition is implementable as a bounded chain of
microsteps. A second family of checks relates term-level macrosteps to
fragment runs (index conditions on consumption and emission).
"""

from __future__ import annotations

import json
from dataclasses import field
from typing import Iterable, Optional

from .actions import (ActionConditionViolated, Message, Required, exec_stmt, fits, holds,
                      is_json_value, match_call, value, value_from_json, values_equal)
from .ast import SCSimp, triggers
from .parse import LexError, StatechartSyntaxError, parse_message
from .printer import print_cond
from .vdb import Basic, Or, Term


class UnknownObject(Exception):
    pass


class IncompleteProjection(Exception):
    """A projection that misses a chart state or names an unknown state or node."""


# -- fragment data model ----------------------------------------------------

@value
class ObjectState:
    vars: dict = field(default_factory=dict)  # name -> value
    threads: dict = field(default_factory=dict)  # threadId -> stack of Message, bottom first
    buffer: tuple = ()  # Messages

    def stack_tops(self):
        return [stack[-1] for stack in self.threads.values() if stack]


@value
class OGSNode:
    id: str
    objects: dict  # oid -> ObjectState


@value
class SystemFragment:
    """Built by `make`, which indexes the nodes by id, in id order, and the
    (from, to, Messages) edges by source."""

    nodes: dict  # id -> OGSNode
    successors: dict  # id -> (to, Messages) pairs, in edge order
    init: frozenset
    main: str

    @classmethod
    def make(cls, nodes, edges, init, main):
        by_id = {}
        for n in sorted(nodes, key=lambda n: n.id):
            if n.id in by_id:
                raise ValueError(f"duplicate node id {n.id!r}")
            by_id[n.id] = n
        successors = {id: [] for id in by_id}
        for frm, to, m in edges:
            for end in (frm, to):
                if end not in by_id:
                    raise ValueError(f"edge endpoint {end!r} is not a node")
            successors[frm].append((to, m))
        for i in init:
            if i not in by_id:
                raise ValueError(f"initial id {i!r} is not a node")
        for n in nodes:
            if main not in n.objects:
                raise ValueError(f"node {n.id!r} has no main object {main!r}")
        return cls(by_id, successors, frozenset(init), main)

    @classmethod
    def from_json(cls, text: str) -> "SystemFragment":
        data = json.loads(text)
        shape = {
            "main": Required(str),
            "init": [str],
            "nodes": Required([{"id": Required(str), "objects": {str: {
                "vars": {str: is_json_value}, "threads": {str: [str]}, "buffer": [str],
            }}}]),
            "edges": [{"from": Required(str), "to": Required(str), "M": [str]}],
        }
        if not fits(data, shape):
            raise ValueError(
                "not a fragment: expected {main, init: [ids], nodes: [{id, objects: "
                "{oid: {vars, threads, buffer}}}], edges: [{from, to, M}]} with "
                "string ids and messages"
            )
        nodes = []
        for nd in data["nodes"]:
            objects = {}
            for oid, body in nd.get("objects", {}).items():
                where = f"node {nd['id']!r}, object {oid!r}"
                objects[oid] = ObjectState(
                    vars={k: value_from_json(v) for k, v in body.get("vars", {}).items()},
                    threads={
                        tid: _messages(stack, f"{where}, thread {tid!r}")
                        for tid, stack in body.get("threads", {}).items()
                    },
                    buffer=_messages(body.get("buffer", []), f"{where}, buffer"),
                )
            nodes.append(OGSNode(nd["id"], objects))
        edges = tuple(
            (e["from"], e["to"],
             _messages(e.get("M", []), f"edge {e['from']!r} -> {e['to']!r}, M"))
            for e in data.get("edges", [])
        )
        return cls.make(nodes, edges, data.get("init", []), data["main"])


def _messages(texts, where: str) -> tuple:
    """The messages of one fragment field; `where` names the field."""
    out = []
    for text in texts:
        try:
            out.append(parse_message(text))
        except (LexError, StatechartSyntaxError) as e:
            raise ValueError(f"{where}: malformed message {text!r}: {e}") from None
    return tuple(out)


def load_projection(text: str) -> dict:
    data = json.loads(text)
    if not fits(data, {str: [str]}):
        raise ValueError("not a projection: expected an object mapping names to lists of node ids")
    return {name: frozenset(ids) for name, ids in data.items()}


# -- basic queries ----------------------------------------------------------

def _levels(start, step, bound: int):
    """Breadth-first search from `start` to depth `bound`: the states first
    reached at each depth, one set per depth, each state once. Stops early
    when a depth adds nothing; `step` gives a state's successors."""
    level, seen = {start}, {start}
    yield level
    for _ in range(bound):
        level = {nxt for state in level for nxt in step(state)} - seen
        if not level:
            return
        seen |= level
        yield level


def proc_check(node: OGSNode, oid: str, m: Message) -> bool:
    """True iff m is on top of some thread stack of the object."""
    if oid not in node.objects:
        raise UnknownObject(oid)
    return any(top == m for top in node.objects[oid].stack_tops())


# -- chart-level conformance (five numbered conditions) ---------------------

def check_system_conformance(
    sc: SCSimp,
    frag: SystemFragment,
    proj: dict,
    bound: Optional[int] = None,
) -> list:
    """One report entry per condition: {condition, pass, witnesses}.

    1. the chart invariant holds at every projected node;
    2. projections of initial states are initial fragment nodes;
    3. each state invariant holds on that state's projection;
    4. run-to-completion: no node processes two distinct trigger messages;
    5. every enabled transition at a projected source node is realized by a
       bounded microstep chain ending in the target's projection, with the
       statement's store effect and exactly its emissions in between.
    """
    states = sc.index.by_name
    missing = sorted(states.keys() - proj.keys())
    if missing:
        raise IncompleteProjection(f"no projection for {', '.join(missing)}")
    for name, ids in proj.items():
        # term-level names S(value) project the data states of a chart state S
        if name not in states and not (name.endswith(")") and name.partition("(")[0] in states):
            raise IncompleteProjection(f"{name} is neither a chart state nor S(value) "
                                       "for a chart state S")
        stray = ids - frag.nodes.keys()
        if stray:
            raise IncompleteProjection(
                f"{name} projects to unknown nodes {sorted(stray)}"
            )
    if bound is None:
        bound = len(frag.nodes)
    mains = {nid: node.objects[frag.main] for nid, node in frag.nodes.items()}

    report = []

    # 1: chart invariant on the union of all projections
    witnesses = []
    for nid in sorted(set().union(*proj.values()) if proj else set()):
        if not holds(sc.inv, mains[nid].vars, {}, unbound=True):
            witnesses.append(f"chart invariant fails at {nid}")
    report.append({"condition": 1, "pass": not witnesses, "witnesses": witnesses})

    # 2: initial states project into initial fragment nodes
    witnesses = []
    for s in sc.index.states:
        if "initial" in s.modifiers:
            for nid in sorted(proj[s.name] - frag.init):
                witnesses.append(f"{nid} in projection of initial {s.name} but not initial")
    report.append({"condition": 2, "pass": not witnesses, "witnesses": witnesses})

    # 3: state invariants on their projections
    witnesses = []
    for s in sc.index.states:
        for nid in sorted(proj[s.name]):
            if not holds(s.inv, mains[nid].vars, {}, unbound=True):
                witnesses.append(f"invariant of {s.name} fails at {nid}")
    report.append({"condition": 3, "pass": not witnesses, "witnesses": witnesses})

    # 4: run-to-completion — at most one trigger message in processing
    trig = triggers(sc)
    witnesses = []
    for nid, obj in mains.items():
        distinct = {m for m in obj.stack_tops() if m.name in trig}
        if len(distinct) > 1:
            names = ", ".join(sorted(map(str, distinct)))
            witnesses.append(f"{nid} processes {names} simultaneously")
    report.append({"condition": 4, "pass": not witnesses, "witnesses": witnesses})

    # 5: enabled transitions are realized by microstep chains
    witnesses = []
    for t in sc.index.trans:
        for nid in sorted(proj[t.src]):
            for m in mains[nid].buffer:
                v = match_call(t.call, m)
                if v is None or not holds(t.pre, mains[nid].vars, v, unbound=False):
                    continue
                try:
                    if _transition_realized(frag, mains, proj, t, nid, m, v, bound):
                        continue
                    why = f"but not realized within {bound} steps"
                except ActionConditionViolated as e:
                    why = f"fails the intermediate condition {print_cond(e.cond)} of its action"
                witnesses.append(f"transition {t.src}->{t.trg} on {m} enabled at {nid} {why}")
    report.append({"condition": 5, "pass": not witnesses, "witnesses": witnesses})
    return report


def conformance_passed(report: list) -> bool:
    return all(entry["pass"] for entry in report)


def _transition_realized(frag, mains, proj, t, start, m, v, bound) -> bool:
    """Breadth-first search, to depth `bound`, of the product of the fragment
    and the statement's emissions (M. Vardi, P. Wolper, LICS 1986). A product
    state (node, k, shown) has matched the first k emissions in order, and
    records whether some node so far shows the store effect. `mains` maps
    each node id to its main object."""
    store = mains[start].vars
    new_store, emitted = exec_stmt(t.act.stmt, store, v)
    delta = {
        k: val for k, val in new_store.items()
        if k not in store or not values_equal(store[k], val)
    }
    sent_names = {e.name for e in emitted}

    def shows(nid):
        return all(values_equal(mains[nid].vars.get(k), val) for k, val in delta.items())

    def accepting(nid, k, shown):
        end_obj = mains[nid]
        # the trigger message must have been consumed
        return (k == len(emitted) and shown and nid in proj[t.trg] and m not in end_obj.buffer
                and (t.act.post is None or holds(t.act.post, end_obj.vars, v, unbound=True)))

    def step(state):
        nid, k, shown = state
        for to, mlabel in frag.successors[nid]:
            # exactly the statement's emissions (over its message names) occur
            out = tuple(o for o in mlabel if o.name in sent_names)
            if emitted[k:k + len(out)] == out:
                yield to, k + len(out), shown or shows(to)

    levels = _levels((start, 0, shows(start)), step, bound)
    return any(accepting(*state) for level in levels for state in level)


def report_to_json(report: list) -> str:
    return json.dumps(report, indent=2)


# -- term-level macrostep checks --------------------------------------------

def proj_of_term(term: Term, proj: dict) -> frozenset:
    """The projection of a statemachine term: an or-term projects through its
    active subterm; a name not in the map projects to nothing."""
    if isinstance(term, Basic):
        return proj.get(term.name, frozenset())
    if isinstance(term, Or):
        return proj_of_term(term.subterms[term.active - 1], proj)
    out = [proj_of_term(s, proj) for s in term.subterms]
    return frozenset.intersection(*out) if out else frozenset()


def fragment_run(frag: SystemFragment, ids: Iterable[str]) -> list:
    """A run as (node, M) pairs along the given node ids; M is the label of
    the edge taken into each node (empty for the first)."""
    ids = list(ids)
    out = [(frag.nodes[ids[0]], ())]
    for a, b in zip(ids, ids[1:]):
        labels = [m for to, m in frag.successors[a] if to == b]
        if not labels:
            raise ValueError(f"no edge {a!r} -> {b!r}")
        out.append((frag.nodes[b], labels[0]))
    return out


def check_run_satisfaction(
    s1: Term,
    s2: Term,
    e: Message,
    alpha: tuple,
    run: list,
    proj: dict,
    main: str,
) -> bool:
    """Does the microstep run implement the macrostep s1 --e/alpha--> s2?

    Requires the run to start in the projection of s1, a smallest index k
    with run[k] in the projection of s2, a unique index r where the input
    event e is present and then consumed, and - when alpha is non-empty - a
    unique emission index s (r <= s <= k) whose output label carries exactly
    alpha, `throw` flags included.
    """
    p2 = proj_of_term(s2, proj)
    k = next((i for i, (node, _) in enumerate(run) if node.id in p2), None)
    if k is None or run[0][0].id not in proj_of_term(s1, proj):
        return False
    present = [e in node.objects[main].buffer for node, _ in run[:k + 1]]
    consumed = [r for r in range(k) if present[r] and not present[r + 1]]
    if len(consumed) != 1:
        return False
    r = consumed[0]

    if not alpha:
        return True
    alpha_names = {a.name for a in alpha}
    emitting = [
        i for i in range(1, k + 1)
        if any(out.name in alpha_names for out in run[i][1])
    ]
    if len(emitting) != 1 or emitting[0] < r:
        return False
    observed = tuple(out for out in run[emitting[0]][1] if out.name in alpha_names)
    return observed == tuple(alpha)


def check_macro_micro_refinement(
    kripke_edges: Iterable[tuple],
    frag: SystemFragment,
    proj: dict,
    bound: Optional[int] = None,
) -> dict:
    """For every macro edge (s1, s2) and every projected node of s1, some
    microstep chain of bounded length must end in the projection of s2."""
    if bound is None:
        bound = len(frag.nodes)
    failures = []
    for idx, (s1, s2) in enumerate(kripke_edges):
        p1, p2 = proj_of_term(s1, proj), proj_of_term(s2, proj)
        for st in sorted(p1):
            levels = _levels(st, lambda nid: (to for to, _ in frag.successors[nid]), bound)
            if all(p2.isdisjoint(level) for level in levels):
                failures.append({"edge": idx, "from": st})
    return {"pass": not failures, "failures": failures}
