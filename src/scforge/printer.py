"""Canonical text, JSON, and DOT output for statecharts.

The text printer is deterministic (states and transitions sorted) and
round-trips through the parser: ``parse(print_chart(sc)) == sc``.
"""

from __future__ import annotations

import json
from typing import Optional

from .actions import (
    Action,
    Assign,
    Call,
    CAnd,
    CCmp,
    Check,
    CMatch,
    CNot,
    Cond,
    COr,
    CTrue,
    CFalse,
    CVar,
    EBin,
    ECons,
    EList,
    ELit,
    EVar,
    Expr,
    Pattern,
    PCons,
    PEmpty,
    PLit,
    PPlus,
    PVar,
    Send,
    SetTimer,
    StopTimer,
    Stmt,
    print_value,
)
from .ast import FullState, SCFull, SCSimp, Trans


# -- values, patterns, expressions, conditions ------------------------------

def print_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PLit):
        return print_value(p.value)
    if isinstance(p, PEmpty):
        return "[]"
    if isinstance(p, PPlus):
        return f"{p.var}+{p.k}"
    if isinstance(p, PCons):
        head = print_pattern(p.head)
        if isinstance(p.head, PCons):
            head = f"({head})"
        return f"{head}:{print_pattern(p.tail)}"
    raise TypeError(p)


def print_expr(e: Expr) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ELit):
        return print_value(e.value)
    if isinstance(e, EList):
        return "[" + ", ".join(print_expr(x) for x in e.items) + "]"
    if isinstance(e, ECons):
        head = print_expr(e.head)
        if isinstance(e.head, ECons):
            head = f"({head})"
        return f"{head}:{print_expr(e.tail)}"
    if isinstance(e, EBin):
        left = print_expr(e.left)
        if isinstance(e.left, ECons):
            left = f"({left})"
        right = print_expr(e.right)
        if isinstance(e.right, (EBin, ECons)):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(e)


def print_cond(c: Cond, level: int = 0) -> str:
    # level: 0 = or-context, 1 = and-context, 2 = atom-context
    if isinstance(c, CTrue):
        return "true"
    if isinstance(c, CFalse):
        return "false"
    if isinstance(c, CVar):
        return c.name
    if isinstance(c, CCmp):
        return f"{print_expr(c.left)} {c.op} {print_expr(c.right)}"
    if isinstance(c, CMatch):
        return f"matches({c.var}, {print_pattern(c.pattern)})"
    if isinstance(c, CNot):
        return f"!{print_cond(c.operand, 2)}"
    if isinstance(c, CAnd):
        # `&&` is left-associative, so a right-nested conjunct needs parens
        text = f"{print_cond(c.left, 1)} && {print_cond(c.right, 2)}"
        return f"({text})" if level >= 2 else text
    if isinstance(c, COr):
        text = f"{print_cond(c.left, 0)} || {print_cond(c.right, 1)}"
        return f"({text})" if level >= 1 else text
    raise TypeError(c)


def print_call(c: Call) -> str:
    throw = "throw " if c.exception else ""
    return f"{throw}{c.name}(" + ", ".join(print_pattern(p) for p in c.args) + ")"


def print_stmt(s: Stmt) -> str:
    if not s:
        return "skip"
    parts = []
    for prim in s:
        if isinstance(prim, Assign):
            parts.append(f"{prim.var} = {print_expr(prim.expr)}")
        elif isinstance(prim, Send):
            throw = "throw " if prim.exception else ""
            parts.append(f"{throw}{prim.name}(" + ", ".join(print_expr(e) for e in prim.args) + ")")
        elif isinstance(prim, SetTimer):
            parts.append("setTimer")
        elif isinstance(prim, StopTimer):
            parts.append("stopTimer")
        elif isinstance(prim, Check):
            parts.append(f"check({print_cond(prim.cond)})")
        else:
            raise TypeError(prim)
    return " & ".join(parts)


def print_action(a: Action) -> str:
    text = f"/ {print_stmt(a.stmt)}"
    if a.post is not None:
        text += f" [{print_cond(a.post)}]"
    return text


def _trans_body(pre: Optional[Cond], call: Call, act: Optional[Action]) -> str:
    parts = []
    if pre is not None:
        parts.append(f"[{print_cond(pre)}]")
    parts.append(print_call(call))
    if act is not None:
        parts.append(print_action(act))
    return " ".join(parts)


# -- full statecharts -------------------------------------------------------

def _print_trans(t: Trans) -> str:
    stereo = f"<<prio={t.prio}>> " if t.prio is not None else ""
    return f"{stereo}{t.src} -> {t.trg} : {_trans_body(t.pre, t.call, t.act)};"


def _print_state(sc: SCFull, s: FullState, indent: str) -> list[str]:
    head = ""
    if s.sstereos:
        head += "<<" + ", ".join(sorted(s.sstereos)) + ">> "
    for m in ("initial", "final"):
        if m in s.modifiers:
            head += m + " "
    head += f"state {s.name}"
    body: list[str] = []
    inner = indent + "    "
    if s.inv is not None:
        body.append(f"{inner}[{print_cond(s.inv)}];")
    for kw, a in (("entry", s.entry), ("do", s.do), ("exit", s.exit)):
        if a is not None:
            body.append(f"{inner}{kw} {print_action(a)};")
    for it in sorted(s.internT, key=lambda it: _trans_body(it.pre, it.call, it.act)):
        body.append(f"{inner}-> {_trans_body(it.pre, it.call, it.act)};")
    for child in _children(sc, s.name):
        body.extend(_print_state(sc, child, inner))
    if not body:
        return [f"{indent}{head};"]
    return [f"{indent}{head} {{"] + body + [f"{indent}}}"]


def _children(sc: SCFull, name: Optional[str]) -> list[FullState]:
    return sorted(sc.index.children.get(name, ()), key=lambda s: s.name)


def print_chart(sc: SCFull) -> str:
    lines = []
    head = f"statechart {sc.diagram_name} for {sc.class_name}"
    if sc.stereos:
        head += " <<" + ", ".join(sorted(sc.stereos)) + ">>"
    lines.append(head + " {")
    if sc.inv is not None:
        lines.append(f"    [{print_cond(sc.inv)}];")
    for s in _children(sc, None):
        lines.extend(_print_state(sc, s, "    "))
    for t in sc.index.trans:
        lines.append("    " + _print_trans(t))
    lines.append("}")
    return "\n".join(lines) + "\n"


# Simplified charts are the flat fragment of full ones and print the same way.
print_simp = print_chart


# -- JSON -------------------------------------------------------------------

def _opt(f, x):
    return None if x is None else f(x)


def chart_to_dict(sc: SCFull) -> dict:
    return {
        "kind": "full",
        "diagram": sc.diagram_name,
        "class": sc.class_name,
        "stereotypes": sorted(sc.stereos),
        "invariant": _opt(print_cond, sc.inv),
        "states": [
            {
                "name": s.name,
                "stereotypes": sorted(s.sstereos),
                "modifiers": sorted(s.modifiers),
                "invariant": _opt(print_cond, s.inv),
                "entry": _opt(print_action, s.entry),
                "do": _opt(print_action, s.do),
                "exit": _opt(print_action, s.exit),
                "internal": sorted(
                    _trans_body(it.pre, it.call, it.act) for it in s.internT
                ),
                "parent": sc.index.parent.get(s.name),
            }
            for s in sc.index.states
        ],
        "transitions": [
            {
                "prio": t.prio,
                "source": t.src,
                "target": t.trg,
                "guard": _opt(print_cond, t.pre),
                "trigger": print_call(t.call),
                "action": _opt(print_action, t.act),
            }
            for t in sc.index.trans
        ],
    }


def simp_to_dict(sc: SCSimp) -> dict:
    """The full chart's JSON less the fields a simplified chart cannot carry.
    The rest coincide, as a simplified chart holds every invariant, guard
    and action."""
    data = chart_to_dict(sc)
    data["kind"] = "simplified"
    del data["stereotypes"]
    for s in data["states"]:
        for key in ("stereotypes", "entry", "do", "exit", "internal", "parent"):
            del s[key]
    for t in data["transitions"]:
        del t["prio"]
    return data


def to_json(sc) -> str:
    data = simp_to_dict(sc) if isinstance(sc, SCSimp) else chart_to_dict(sc)
    return json.dumps(data, indent=2) + "\n"


# -- DOT --------------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(sc: SCFull) -> str:
    """Graphviz output; nested states become clusters."""
    lines = ["digraph statechart {", "    compound=true;", "    rankdir=LR;"]

    def emit(state: FullState, indent: str):
        children = _children(sc, state.name)
        label = state.name
        if "initial" in state.modifiers:
            label = "● " + label
        if "final" in state.modifiers:
            label = label + " ◉"
        if children:
            lines.append(f'{indent}subgraph "cluster_{_dot_escape(state.name)}" {{')
            lines.append(f'{indent}    label="{_dot_escape(label)}";')
            lines.append(
                f'{indent}    "{_dot_escape(state.name)}" [shape=point, style=invis];'
            )
            for c in children:
                emit(c, indent + "    ")
            lines.append(f"{indent}}}")
        else:
            lines.append(
                f'{indent}"{_dot_escape(state.name)}" [label="{_dot_escape(label)}", shape=box, style=rounded];'
            )

    for s in _children(sc, None):
        emit(s, "    ")
    for t in sc.index.trans:
        label = print_call(t.call)
        if t.pre is not None:
            label = f"[{print_cond(t.pre)}] " + label
        lines.append(
            f'    "{_dot_escape(t.src)}" -> "{_dot_escape(t.trg)}" [label="{_dot_escape(label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
