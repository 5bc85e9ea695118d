"""Seeded random chart generators for testing and fixtures.

`gen_chart` produces arbitrary well-formed hierarchical charts exercising the
whole construct inventory (actions, guards, stereotypes, internal
transitions). `gen_guard_free` produces the restricted shape whose semantics
survives both the flattening pipeline and the term encoding unchanged:
guard-free, data-free, sibling-only transitions, one initial state per level,
with inner priority and ignore-completion fixed.
"""

from __future__ import annotations

import random
from typing import Optional

from .actions import (
    Action,
    Assign,
    Call,
    CCmp,
    ELit,
    EVar,
    PVar,
    Send,
)
from .ast import FullState, InternT, SCFull, Trans, group_by


TRIGGERS = ("f", "g", "h")
SENDS = ("out1", "out2", "out3")


def _tree(rng: random.Random, n_states: int, max_depth: int):
    """Random state forest: returns (names, parent map name->parent|None)."""
    names = [f"S{i}" for i in range(n_states)]
    parent: dict = {}
    depth: dict = {}
    for k, name in enumerate(names):
        candidates = [None] + [p for p in names[:k] if depth[p] < max_depth - 1]
        p = rng.choice(candidates)
        parent[name] = p
        depth[name] = 0 if p is None else depth[p] + 1
    return names, parent


def _mark_initials(rng: random.Random, names, parent) -> dict:
    """Each level gets exactly one initial state; returns name -> modifiers."""
    mods = {n: set() for n in names}
    for group in group_by(names, parent.get, list).values():
        mods[rng.choice(group)].add("initial")
        for n in group:
            if "initial" not in mods[n] and rng.random() < 0.2:
                mods[n].add("final")
    return mods


def _send(rng: random.Random, vars=()):
    args = []
    for _ in range(rng.randint(0, 2)):
        if vars and rng.random() < 0.5:
            args.append(EVar(rng.choice(vars)))
        else:
            args.append(ELit(rng.randint(-2, 3)))
    return Send(rng.choice(SENDS), tuple(args))


def _stmt(rng: random.Random, params=()):
    prims = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.4:
            src = EVar(rng.choice(params)) if params and rng.random() < 0.5 else ELit(rng.randint(0, 3))
            prims.append(Assign("v", src))
        else:
            prims.append(_send(rng, vars=("v",) + tuple(params) if rng.random() < 0.3 else ()))
    return tuple(prims)


def _action(rng: random.Random, params=()) -> Optional[Action]:
    if rng.random() < 0.4:
        return None
    post = CCmp("<=", ELit(-5), EVar("v")) if rng.random() < 0.15 else None
    return Action(_stmt(rng, params), post)


def _call(rng: random.Random) -> Call:
    name = rng.choice(TRIGGERS)
    arity = rng.randint(0, 2)
    params = ("a", "b")[:arity]
    return Call(name, tuple(PVar(p) for p in params))


def _pre(rng: random.Random):
    if rng.random() < 0.3:
        return CCmp(rng.choice(("==", "<", "<=")), EVar("v"), ELit(rng.randint(0, 2)))
    return None


def gen_chart(seed: int, max_states: int = 8, max_depth: int = 3) -> SCFull:
    """A random well-formed hierarchical chart."""
    rng = random.Random(seed)
    n = rng.randint(3, max_states)
    names, parent = _tree(rng, n, max_depth)
    mods = _mark_initials(rng, names, parent)

    stereos = set()
    if rng.random() < 0.4:
        stereos.add(rng.choice(("prio:inner", "prio:outer")))
    if rng.random() < 0.4:
        stereos.add(rng.choice(("completion:ignore", "completion:chaos", "completion:error")))

    states = []
    for name in names:
        intern = []
        if rng.random() < 0.2:
            call = _call(rng)
            intern.append(
                InternT(_pre(rng), call, _action(rng, tuple(p.name for p in call.args)))
            )
        states.append(
            FullState(
                modifiers=frozenset(mods[name]),
                name=name,
                inv=CCmp("<=", ELit(-9), EVar("v")) if rng.random() < 0.1 else None,
                entry=_action(rng) if "initial" not in mods[name] and rng.random() < 0.3 else None,
                exit=_action(rng) if "final" not in mods[name] and rng.random() < 0.3 else None,
                do=_action(rng) if "final" not in mods[name] and rng.random() < 0.2 else None,
                internT=frozenset(intern),
            )
        )

    trans = []
    for _ in range(rng.randint(1, n + 2)):
        call = _call(rng)
        trans.append(
            Trans(
                prio=rng.randint(1, 3) if rng.random() < 0.15 else None,
                src=rng.choice(names),
                pre=_pre(rng),
                call=call,
                act=_action(rng, tuple(p.name for p in call.args)),
                trg=rng.choice(names),
            )
        )

    return SCFull(
        stereos=frozenset(stereos),
        diagram_name=f"Gen{seed}",
        class_name="C",
        inv=None,
        states=frozenset(states),
        trans=frozenset(trans),
        sub=frozenset((c, p) for c, p in parent.items() if p is not None),
    )


def gen_guard_free(seed: int, max_states: int = 6) -> SCFull:
    """A random guard-free chart: no data, no guards, no entry/exit/do,
    sibling-only transitions, fixed <<prio:inner, completion:ignore>>."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    names, parent = _tree(rng, n, max_depth=2)
    triggers = TRIGGERS[: rng.randint(1, len(TRIGGERS))]

    mods = {nm: set() for nm in names}
    for group in group_by(names, parent.get, list).values():
        mods[min(group)].add("initial")

    states = [
        FullState(modifiers=frozenset(mods[nm]), name=nm) for nm in names
    ]

    trans = []
    siblings = [
        (a, b)
        for a in names
        for b in names
        if parent[a] == parent[b]
    ]
    for _ in range(rng.randint(1, n + 2)):
        src, trg = rng.choice(siblings)
        sends = tuple(
            Send(rng.choice(SENDS), (ELit(rng.randint(0, 2)),))
            for _ in range(rng.randint(0, 2))
        )
        trans.append(
            Trans(
                prio=None,
                src=src,
                pre=None,
                call=Call(rng.choice(triggers), ()),
                act=Action(sends, None) if sends else None,
                trg=trg,
            )
        )

    return SCFull(
        stereos=frozenset(["prio:inner", "completion:ignore"]),
        diagram_name=f"GF{seed}",
        class_name="C",
        inv=None,
        states=frozenset(states),
        trans=frozenset(trans),
        sub=frozenset((c, p) for c, p in parent.items() if p is not None),
    )


def initial_leaf(sc: SCFull) -> str:
    """The leaf reached by descending initial states from the top."""
    current = None
    while True:
        kids = sorted(s.name for s in sc.index.children.get(current, ())
                      if "initial" in s.modifiers)
        if not kids:
            if current is None:
                raise ValueError("no initial top state")
            return current
        current = kids[0]
