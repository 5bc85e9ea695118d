"""Reference interpreter for flat statecharts.

One object, one FIFO event buffer, run-to-completion steps: each step consumes
one buffered message, fires one enabled transition atomically (statements,
state change, postcondition and invariant checks), and appends the emitted
messages to the output. If a buffered message enables nothing, the machine
falls into chaos — reported as an explicit outcome that drops the message,
so completion behavior stays observable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .actions import (
    ActionConditionViolated,
    Message,
    TIMEOUT,
    TIMER_FLAG,
    exec_stmt,
    holds,
    match_call,
)
from .ast import SCSimp, SimpTrans
from .parse import parse_message  # noqa: F401 -- re-exported: it reads what format_message writes
from .printer import print_value


class BadInitialState(Exception):
    pass


@dataclass(frozen=True)
class Configuration:
    current: str
    store: tuple  # sorted (name, value) pairs
    buffer: tuple  # FIFO of Message, head first
    emitted: tuple  # Messages emitted so far, in order

    @classmethod
    def make(cls, current: str, store: Optional[dict] = None,
             buffer: Iterable[Message] = (), emitted: Iterable[Message] = ()):
        return cls(current, _freeze(store or {}), tuple(buffer), tuple(emitted))

    def store_dict(self) -> dict:
        return dict(self.store)


def _freeze(store: dict) -> tuple:
    return tuple(sorted(store.items(), key=lambda kv: kv[0]))


# -- outcomes ---------------------------------------------------------------
#
# Every outcome records the message its step consumed; only the quiescent
# `Step` of an empty buffer consumed none.

@dataclass(frozen=True)
class Step:
    next: Configuration
    consumed: Optional[Message] = None


@dataclass(frozen=True)
class Chaos:
    reason: str
    next: Configuration  # with the offending message dropped
    consumed: Optional[Message] = None


@dataclass(frozen=True)
class PostconditionViolated:
    transition: SimpTrans
    next: Configuration
    consumed: Optional[Message] = None


@dataclass(frozen=True)
class InvariantViolated:
    state: str
    next: Configuration
    consumed: Optional[Message] = None


Outcome = Union[Step, Chaos, PostconditionViolated, InvariantViolated]


# -- schedulers -------------------------------------------------------------

def _choice_key(choice):
    t, m, v = choice
    return (t.src, t.trg, t.call.name, repr(t.pre), repr(t.act), repr(m), repr(sorted(v.items())))


class LexScheduler:
    """Deterministic: smallest choice in a fixed lexicographic order."""

    def choose(self, choices):
        return min(choices, key=_choice_key)


class RandomScheduler:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, choices):
        return self.rng.choice(sorted(choices, key=_choice_key))


def scheduler_from_spec(spec: str):
    if spec == "lex":
        return LexScheduler()
    if spec.startswith("rand:"):
        return RandomScheduler(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown scheduler {spec!r}")


# -- enabling and firing ----------------------------------------------------

def enabled(conf: Configuration, sc: SCSimp, match: str = "fifo"):
    """All (transition, message, valuation) triples that may fire.

    "fifo": only the head message is eligible. "anywhere": any buffered
    message may be selected.
    """
    store = conf.store_dict()
    if match == "fifo":
        candidates = conf.buffer[:1]
    elif match == "anywhere":
        candidates = conf.buffer
    else:
        raise ValueError(f"unknown match mode {match!r}")
    outgoing = sc.index.outgoing_in_order.get(conf.current, ())
    out = []
    for m in candidates:
        for t in outgoing:
            v = match_call(t.call, m)
            if v is None:
                continue
            if holds(t.pre, store, v, unbound=False):
                out.append((t, m, v))
    return out


def fire(conf: Configuration, choice, sc: SCSimp) -> Outcome:
    t, m, v = choice
    store = conf.store_dict()
    i = conf.buffer.index(m)
    buffer = conf.buffer[:i] + conf.buffer[i + 1:]
    try:
        new_store, msgs = exec_stmt(t.act.stmt, store, v)
    except ActionConditionViolated:
        nxt = Configuration.make(t.trg, store, buffer, conf.emitted)
        return PostconditionViolated(t, nxt, m)
    nxt = Configuration.make(t.trg, new_store, buffer, conf.emitted + msgs)
    if t.act.post is not None and not holds(t.act.post, new_store, v, unbound=True):
        return PostconditionViolated(t, nxt, m)
    if not holds(sc.inv, new_store, v, unbound=True):
        return InvariantViolated("<chart>", nxt, m)
    target = sc.state(t.trg)
    if not holds(target.inv, new_store, v, unbound=True):
        return InvariantViolated(t.trg, nxt, m)
    return Step(nxt, m)


def _forced_or_enabled(conf: Configuration, sc: SCSimp, match: str):
    """The outcome the head message forces, or else the enabled choices.

    The buffer must be non-empty. A timeout whose timer was never set (or
    was stopped) evaporates; a head that enables nothing is chaos.
    """
    head = conf.buffer[0]
    if head.name == TIMEOUT and not dict(conf.store).get(TIMER_FLAG, False):
        return Step(replace(conf, buffer=conf.buffer[1:]), head)
    choices = enabled(conf, sc, match)
    if not choices:
        dropped = replace(conf, buffer=conf.buffer[1:])
        return Chaos(f"no enabled transition for {head.name} in {conf.current}", dropped, head)
    return choices


def step(conf: Configuration, sc: SCSimp, scheduler=None, match: str = "fifo") -> Outcome:
    if not conf.buffer:
        return Step(conf)  # quiescent
    forced = _forced_or_enabled(conf, sc, match)
    if not isinstance(forced, list):
        return forced
    return fire(conf, (scheduler or LexScheduler()).choose(forced), sc)


@dataclass
class RunResult:
    start: Configuration
    steps: list  # one outcome per consumed message, in order
    outcome: Outcome  # Step(last) when the run ended quiescent

    @property
    def trajectory(self) -> list:
        """Configurations, initial first."""
        return [self.start] + [o.next for o in self.steps]

    @property
    def emissions(self) -> tuple:
        """All emitted Messages in order."""
        return self.final.emitted

    @property
    def quiescent(self) -> bool:
        return isinstance(self.outcome, Step)

    @property
    def final(self) -> Configuration:
        return self.outcome.next


def _start(sc: SCSimp, init: str, inputs: Iterable[Message]) -> Configuration:
    if "initial" not in sc.state(init).modifiers:
        raise BadInitialState(init)
    return Configuration.make(init, {}, tuple(inputs))


def run(
    sc: SCSimp,
    init: str,
    inputs: Iterable[Message],
    scheduler=None,
    match: str = "fifo",
    max_steps: int = 10000,
) -> RunResult:
    start = conf = _start(sc, init, inputs)
    steps = []
    outcome: Outcome = Step(conf)
    for _ in range(max_steps):
        if not conf.buffer:
            outcome = Step(conf)
            break
        outcome = step(conf, sc, scheduler, match)
        steps.append(outcome)
        conf = outcome.next
        if not isinstance(outcome, Step):
            break
    return RunResult(start, steps, outcome)


def run_all_initials(sc: SCSimp, inputs, scheduler=None, match: str = "fifo",
                     max_steps: int = 10000) -> dict:
    """Run from every initial state; keys sorted by state name."""
    return {
        s.name: run(sc, s.name, inputs, scheduler, match, max_steps)
        for s in sc.initial_states()
    }


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def run_log_lines(result: RunResult) -> list:
    """One JSON-ready dict per step: {step, state, consumed, emitted, storeDiff}."""
    out = []
    prev = result.start
    for i, outcome in enumerate(result.steps, start=1):
        conf = outcome.next
        emitted = [format_message(m) for m in conf.emitted[len(prev.emitted):]]
        before, after = dict(prev.store), dict(conf.store)
        diff = {
            k: _json_value(after[k])
            for k in sorted(after)
            if k not in before or before[k] != after[k]
        }
        out.append(
            {"step": i, "state": conf.current, "consumed": format_message(outcome.consumed),
             "emitted": emitted, "storeDiff": diff}
        )
        prev = conf
    return out


def explore_emissions(
    sc: SCSimp,
    init: str,
    inputs: Iterable[Message],
    match: str = "fifo",
    max_steps: int = 10000,
) -> set:
    """All (emissions, outcome-kind) pairs reachable over every scheduler
    choice, by exhaustive branching."""
    out: set = set()
    stack = [(_start(sc, init, inputs), 0)]
    seen = set()
    while stack:
        conf, depth = stack.pop()
        if (conf, depth) in seen:
            continue
        seen.add((conf, depth))
        if not conf.buffer or depth >= max_steps:
            out.add((conf.emitted, "quiescent"))
            continue
        forced = _forced_or_enabled(conf, sc, match)
        outcomes = [fire(conf, c, sc) for c in forced] if isinstance(forced, list) else [forced]
        for res in outcomes:
            if isinstance(res, Step):
                stack.append((res.next, depth + 1))
            else:
                out.add((res.next.emitted, type(res).__name__.lower()))
    return out


# -- message text format ----------------------------------------------------

def format_message(m: Message) -> str:
    throw = "throw " if m.exception else ""
    return f"{throw}{m.name}(" + ", ".join(print_value(a) for a in m.args) + ")"
