"""Static well-formedness checks CC1..CC14 for statecharts.

Checks CC5, CC6, CC8, CC9, and CC11 need a class signature (attributes and
methods of the class the chart belongs to); without one they are reported as
skipped diagnostics rather than silently dropped.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Iterator, Optional

from .actions import (
    Assign,
    Call,
    Required,
    Send,
    action_post,
    action_stmt,
    fits,
    pattern_vars,
    reads,
    value,
)
from .ast import (
    COMPLETION_ERROR,
    COMPLETION_STEREOS,
    PRIO_STEREOS,
    InternT,
    SCFull,
    SCSimp,
    triggers,
)


@value
class Violation:
    code: str  # "CC1" .. "CC14"
    subject: str  # path to the offending element
    message: str
    skipped: bool = False  # a check that could not run, not a finding

    def to_json(self) -> str:
        data = {"code": self.code, "subject": self.subject, "message": self.message}
        if self.skipped:
            data["skipped"] = True
        return json.dumps(data)


@value
class SignatureContext:
    """The class signature a chart is checked against."""

    class_name: str
    methods: frozenset[tuple[str, int]] = frozenset()  # (name, arity)
    attributes: frozenset[str] = frozenset()

    @classmethod
    def from_json(cls, text: str) -> "SignatureContext":
        data = json.loads(text)
        shape = {"class": Required(str), "attributes": [str],
                 "methods": [{"name": Required(str), "arity": Required((int, str))}]}
        if not fits(data, shape):
            raise ValueError(
                "not a class signature: expected {class, methods: [{name, arity}], attributes: [names]}"
            )
        return cls(
            class_name=data["class"],
            methods=frozenset((m["name"], int(m["arity"])) for m in data.get("methods", [])),
            attributes=frozenset(data.get("attributes", [])),
        )


CTX_CODES = ("CC5", "CC6", "CC8", "CC9", "CC11")


def _sort(violations: list[Violation]) -> list[Violation]:
    return sorted(violations, key=lambda v: (int(v.code[2:]), v.subject, v.message))


def _on_cycle(sub: Iterable[tuple[str, str]]) -> set[str]:
    """The names that are a (transitive) substate of themselves: those on a
    cycle of the child-to-parent relation. A chart that CC12 rejects gives a
    name several parents, so the relation is a graph, not a forest; one pass
    finds its strongly connected components (R. Tarjan, "Depth-first search
    and linear graph algorithms", SIAM J. Comput. 1(2), 1972), and a name is
    on a cycle when its component has another name or it is its own parent."""
    parents: dict[str, set[str]] = {}
    for child, parent in sub:
        parents.setdefault(child, set()).add(parent)
    number: dict[str, int] = {}  # name -> its order of discovery
    low: dict[str, int] = {}  # name -> the least number it reaches on the stack
    stack, on_stack, out = [], set(), set()
    walk: list = []  # the depth-first path, each name with the parents left to visit

    def visit(name: str) -> None:
        number[name] = low[name] = len(number)
        stack.append(name)
        on_stack.add(name)
        walk.append((name, iter(parents.get(name, ()))))

    for root in parents:
        if root not in number:
            visit(root)
        while walk:
            name, todo = walk[-1]
            for p in todo:
                if p not in number:
                    visit(p)
                    break
                if p in on_stack:
                    low[name] = min(low[name], number[p])
            else:
                walk.pop()
                if walk:
                    above = walk[-1][0]
                    low[above] = min(low[above], low[name])
                if low[name] == number[name]:
                    component = set()
                    while name not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    if len(component) > 1 or name in parents.get(name, ()):
                        out |= component
    return out


def _triggered(sc: SCFull) -> Iterator[tuple]:
    """Each transition and internal transition, with the subject its
    violations name."""
    for t in sc.index.trans:
        yield t, f"transition {t.src}->{t.trg}"
    for s in sc.index.states:
        for it in s.internT:
            yield it, f"state {s.name}"


def _call_vars(call: Call) -> list[str]:
    return [v for a in call.args for v in pattern_vars(a)]


def _actions(sc: SCFull) -> Iterator[tuple]:
    """Each action of the chart, as (its precondition, the names its event
    binds, the subject its violations name, the action itself): the possibly
    absent action of every transition and internal transition, and every
    entry, do and exit action of a state."""
    for x, subject in _triggered(sc):
        yield x.pre, set(_call_vars(x.call)), subject, x.act
    for s in sc.index.states:
        for act, what in ((s.entry, "entry"), (s.do, "do"), (s.exit, "exit")):
            if act is not None:
                yield None, set(), f"state {s.name} {what}", act


def _check_shared(sc: SCFull) -> list[Violation]:
    """CC4, CC7 and CC12, which apply to both chart kinds."""
    out: list[Violation] = []

    # CC4: transition endpoints are declared.
    names = {s.name for s in sc.states}
    for t in sc.index.trans:
        for n in (t.src, t.trg):
            if n not in names:
                out.append(
                    Violation("CC4", f"transition {t.src}->{t.trg}", f"undeclared state {n}")
                )

    # CC7: event parameters are pairwise different.
    for x, subject in _triggered(sc):
        seen: set[str] = set()
        for v in _call_vars(x.call):
            if v in seen:
                out.append(Violation("CC7", subject, f"duplicate event parameter {v}"))
            seen.add(v)

    # CC12: state names pairwise distinct.
    by_name = Counter(s.name for s in sc.states)
    for n, count in sorted(by_name.items()):
        if count > 1:
            out.append(Violation("CC12", f"state {n}", f"{count} states share this name"))
    return out


def check_all(sc: SCFull, ctx: Optional[SignatureContext] = None) -> list[Violation]:
    out = _check_shared(sc)
    names = {s.name for s in sc.states}
    chart = f"statechart {sc.diagram_name}"

    # CC1: Sub+ is irreflexive, and the relation only mentions declared states.
    for a in _on_cycle(sc.sub):
        out.append(Violation("CC1", f"state {a}", "state is a (transitive) substate of itself"))
    parents: dict[str, list[str]] = {}
    for a, b in sorted(sc.sub):
        parents.setdefault(a, []).append(b)
        for n in (a, b):
            if n not in names:
                out.append(
                    Violation("CC1", f"sub ({a}, {b})", f"substate relation references undeclared state {n}")
                )

    # CC12 across the hierarchy: a name declared under two parents is two
    # states, even where their declarations are equal and collapse into one.
    for a, ps in parents.items():
        if len(ps) > 1:
            out.append(Violation("CC12", f"state {a}", f"declared under {len(ps)} parents: {', '.join(ps)}"))

    # CC2: exception triggers require an exception state.
    if not any("exception" in s.sstereos for s in sc.states):
        for x, subject in _triggered(sc):
            if x.call.exception:
                internal = "internal " if isinstance(x, InternT) else ""
                out.append(
                    Violation(
                        "CC2",
                        subject,
                        f"{internal}exception trigger but no state carries stereotype exception",
                    )
                )

    # CC3: at most one priority and one completion stereotype; a completion
    # stereotype forbids error states (except completion:error, which itself
    # introduces one during transformation).
    if len(sc.stereos & PRIO_STEREOS) > 1:
        out.append(Violation("CC3", chart, "At most one priority stereotype"))
    completion = sc.stereos & COMPLETION_STEREOS
    if len(completion) > 1:
        out.append(Violation("CC3", chart, "At most one completion stereotype"))
    if completion and completion != {COMPLETION_ERROR}:
        for s in sc.index.states:
            if "error" in s.sstereos:
                out.append(
                    Violation(
                        "CC3",
                        f"state {s.name}",
                        "completion stereotype excludes error states",
                    )
                )

    # CC5/CC6/CC8/CC9/CC11 need the class signature.
    if ctx is None:
        for code in CTX_CODES:
            out.append(
                Violation(code, chart, "skipped: no signature context supplied", skipped=True)
            )
    else:
        out.extend(_check_with_ctx(sc, ctx))

    # CC10 (direct approximation): statements may not send a message whose
    # name is one of the chart's triggers.
    trig = triggers(sc)
    for _, _, subject, act in _actions(sc):
        for prim in action_stmt(act):
            if isinstance(prim, Send) and prim.name in trig:
                out.append(
                    Violation(
                        "CC10",
                        subject,
                        f"statement sends {prim.name}, a trigger of this statechart "
                        "(direct-call approximation)",
                    )
                )

    # CC13/CC14: constructor and finalize call life-cycle restrictions.
    ingoing, outgoing = sc.index.ingoing, sc.index.outgoing
    for s in sc.index.states:
        if "initial" in s.modifiers and any(
            t.call.name == sc.class_name for t in outgoing.get(s.name, ())
        ):
            if ingoing.get(s.name):
                out.append(
                    Violation(
                        "CC13",
                        f"state {s.name}",
                        "initial state with outgoing constructor call has ingoing transitions",
                    )
                )
        if "final" in s.modifiers and any(
            t.call.name == "finalize" for t in ingoing.get(s.name, ())
        ):
            if outgoing.get(s.name):
                out.append(
                    Violation(
                        "CC14",
                        f"state {s.name}",
                        "final state with ingoing finalize call has outgoing transitions",
                    )
                )

    return _sort(out)


def _check_with_ctx(sc: SCFull, ctx: SignatureContext) -> list[Violation]:
    out: list[Violation] = []
    chart = f"statechart {sc.diagram_name}"

    # CC5: the chart's class is the one described by the signature.
    if sc.class_name != ctx.class_name:
        out.append(
            Violation("CC5", chart, f"class {sc.class_name} not declared (signature is for {ctx.class_name})")
        )

    # CC6: triggers are declared methods (constructor calls use the class name).
    for x, subject in _triggered(sc):
        call = x.call
        if call.name != sc.class_name and (call.name, len(call.args)) not in ctx.methods:
            out.append(Violation("CC6", subject, f"event {call.name}/{len(call.args)} not declared"))

    attrs = set(ctx.attributes)

    # CC8: invariants refer only to declared attributes.
    for inv, subject in [(sc.inv, chart)] + [(s.inv, f"state {s.name}") for s in sc.index.states]:
        for v in sorted(reads(inv) - attrs):
            out.append(Violation("CC8", subject, f"invariant refers to undeclared {v}"))

    # CC9: pre/postconditions may additionally use the event's arguments.
    # CC11: statements read/write declared attributes and call declared methods.
    for pre, args, subject, act in _actions(sc):
        for cond, what in ((pre, "precondition"), (action_post(act), "postcondition")):
            for v in sorted(reads(cond) - attrs - args):
                out.append(Violation("CC9", subject, f"{what} refers to undeclared {v}"))
        for v in sorted(reads(action_stmt(act)) - attrs - args):
            out.append(Violation("CC11", subject, f"statement reads undeclared {v}"))
        for prim in action_stmt(act):
            if isinstance(prim, Assign) and prim.var not in attrs:
                out.append(Violation("CC11", subject, f"statement assigns undeclared {prim.var}"))
            if isinstance(prim, Send) and (prim.name, len(prim.args)) not in ctx.methods:
                out.append(
                    Violation("CC11", subject, f"statement calls undeclared {prim.name}/{len(prim.args)}")
                )

    return out


def check_simp(sc: SCSimp) -> list[Violation]:
    """The hierarchy-free subset: CC4, CC7, CC12."""
    return _sort(_check_shared(sc))
