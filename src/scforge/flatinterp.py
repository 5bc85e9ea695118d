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
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .actions import (
    ActionConditionViolated,
    CTrue,
    Message,
    TIMEOUT,
    TIMER_FLAG,
    exec_stmt,
    holds,
    match_call,
    merge,
    value,
    value_to_json,
    values_equal,
)
from .ast import SCSimp, Trans
from .parse import parse_message  # noqa: F401 -- re-exported: it reads what format_message writes


class BadInitialState(Exception):
    pass


# Configurations derived from one start share its input tuple, so a step
# costs O(1) in the run length, in time and in retained memory; `buffer` is
# built when read. What a step emits labels its outcome, not the
# configuration it reaches. The emission search (`explore_emissions`) keeps
# its configurations level by level, each beside the set of emitted prefixes
# that reach it: `_Emitted` chains, which compare and hash by their messages.

_MASK = (1 << 61) - 1


class _Emitted:
    """The messages emitted so far, as a persistent chain (C. Okasaki,
    *Purely Functional Data Structures*, 1998): each node holds one step's
    messages on top of the node before it, the running length and a hash of
    the whole sequence, computed once and independent of how it is split
    into steps."""

    __slots__ = ("prev", "msgs", "length", "hash")

    def __init__(self, prev: Optional[_Emitted], msgs: tuple):
        self.prev = prev
        self.msgs = msgs
        h = prev.hash if prev else 0
        for m in msgs:
            h = (h * 1000003 + hash(m)) & _MASK
        self.hash = h
        self.length = (prev.length if prev else 0) + len(msgs)

    def then(self, msgs: tuple) -> _Emitted:
        return _Emitted(self, msgs) if msgs else self

    def to_tuple(self) -> tuple:
        chunks = []
        node = self
        while node is not None:
            chunks.append(node.msgs)
            node = node.prev
        return tuple(m for chunk in reversed(chunks) for m in chunk)

    def __eq__(self, other):
        return self is other or (self.length == other.length and self.hash == other.hash
                                 and self.to_tuple() == other.to_tuple())

    def __hash__(self):
        return self.hash


_NOTHING = _Emitted(None, ())


class Configuration:
    """One object's state, store and pending buffer.

    The buffer is the run's input tuple `inputs` from the `head` offset on,
    less the indices in `skipped`: messages past the head consumed out of
    order under "anywhere" matching. The head is always the first unconsumed
    message. `store` holds sorted (name, value) pairs. Equality and hashing
    are by the value of (current, store, buffer). A plain slotted
    class, as a frozen dataclass costs several times as much to build;
    nothing assigns to a configuration once it is built."""

    __slots__ = ("current", "store", "inputs", "head", "skipped")

    def __init__(self, current: str, store: tuple, inputs: tuple, head: int = 0,
                 skipped: frozenset = frozenset()):
        self.current, self.store, self.inputs = current, store, inputs
        self.head, self.skipped = head, skipped

    @classmethod
    def make(cls, current: str, store: Optional[dict] = None, buffer: Iterable[Message] = ()):
        return cls(current, _freeze(store or {}), tuple(buffer))

    @property
    def buffer(self) -> tuple:
        """The pending messages, head first."""
        if not self.skipped:
            return self.inputs[self.head:]
        return tuple(m for i, m in enumerate(self.inputs[self.head:], self.head)
                     if i not in self.skipped)

    def pending(self) -> bool:
        """Whether a message waits in the buffer."""
        return self.head < len(self.inputs)

    def _index(self, m: Message) -> int:
        """The input index of the first pending message equal to m."""
        for i in range(self.head, len(self.inputs)):
            if i not in self.skipped and self.inputs[i] == m:
                return i
        raise ValueError(f"{m!r} is not in the buffer")

    def _after(self, i: int, current: str, store: tuple) -> Configuration:
        """The configuration in `current` with `store` once input i is consumed."""
        head, skipped = self.head, self.skipped
        if i == head:
            head += 1
            while head in skipped:
                skipped = skipped - {head}
                head += 1
        else:
            skipped = skipped | {i}
        return Configuration(current, store, self.inputs, head, skipped)

    def _size(self) -> int:
        return len(self.inputs) - self.head - len(self.skipped)

    def _same_buffer(self, other: Configuration) -> bool:
        if (self.inputs is other.inputs and self.head == other.head
                and self.skipped == other.skipped):
            return True
        return self._size() == other._size() and self.buffer == other.buffer

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.current == other.current and values_equal(self.store, other.store)
                and self._same_buffer(other))

    def __hash__(self):
        # The buffer is hashed by its length and its head: O(1), and equal
        # for equal buffers whatever inputs and offsets they come from.
        first = self.inputs[self.head] if self.pending() else None
        return hash((self.current, self.store, self._size(), first))

    def __repr__(self):
        return (f"Configuration(current={self.current!r}, store={self.store!r}, "
                f"buffer={self.buffer!r})")


def _freeze(store: dict, was: tuple = ()) -> tuple:
    """The store's sorted pairs: `was` itself when the store binds exactly
    its names, each to the identical object."""
    if len(store) == len(was) and all(k in store and store[k] is x for k, x in was):
        return was
    return tuple(sorted(store.items(), key=lambda kv: kv[0]))


# -- outcomes ---------------------------------------------------------------
#
# Every outcome records the message its step consumed, and the messages it
# emitted; only the quiescent `Step` of an empty buffer consumed none.

@value
class Step:
    next: Configuration
    consumed: Optional[Message] = None
    emitted: tuple = ()


@value
class Chaos:
    reason: str
    next: Configuration  # with the offending message dropped
    consumed: Optional[Message] = None
    emitted: tuple = ()


@value
class PostconditionViolated:
    transition: Trans
    next: Configuration
    consumed: Optional[Message] = None
    emitted: tuple = ()


@value
class InvariantViolated:
    state: str
    next: Configuration
    consumed: Optional[Message] = None
    emitted: tuple = ()


Outcome = Union[Step, Chaos, PostconditionViolated, InvariantViolated]


# -- schedulers -------------------------------------------------------------

def _choice_key(choice):
    t, m, v = choice
    return (t.src, t.trg, t.call.name, repr(t.pre), repr(t.act), repr(m), repr(sorted(v.items())))


class LexScheduler:
    """Deterministic: smallest choice in a fixed lexicographic order."""

    def choose(self, choices):
        return choices[0] if len(choices) == 1 else min(choices, key=_choice_key)


class RandomScheduler:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, choices):
        # A lone choice needs no sort, but still draws from the generator.
        if len(choices) > 1:
            choices = sorted(choices, key=_choice_key)
        return self.rng.choice(choices)


_LEX = LexScheduler()


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
    if match == "fifo":
        candidates = conf.inputs[conf.head:conf.head + 1]
    elif match == "anywhere":
        candidates = conf.buffer
    else:
        raise ValueError(f"unknown match mode {match!r}")
    store = dict(conf.store)
    by_call = sc.index.outgoing_by_call
    out = []
    for m in candidates:
        for t in by_call.get((conf.current, m.name, len(m.args)), ()):
            v = match_call(t.call, m)
            if v is not None and holds(t.pre, store, v, unbound=False):
                out.append((t, m, v))
    return out


def fire(conf: Configuration, choice, sc: SCSimp) -> Outcome:
    t, m, v = choice
    # Only an out-of-order pick under "anywhere" searches the buffer.
    i = conf.head if m is conf.inputs[conf.head] else conf._index(m)
    try:
        new_store, msgs = exec_stmt(t.act.stmt, conf.store, v)
    except ActionConditionViolated:
        return PostconditionViolated(t, conf._after(i, t.trg, conf.store), m)
    nxt = conf._after(i, t.trg, _freeze(new_store, conf.store))
    env = merge(new_store, v) if v else new_store  # one scope for the three checks
    if t.act.post is None and type(sc.inv) is CTrue and type(sc.state(t.trg).inv) is CTrue:
        return Step(nxt, m, msgs)  # none of the three checks can fail
    if t.act.post is not None and not holds(t.act.post, env, {}, unbound=True):
        return PostconditionViolated(t, nxt, m, msgs)
    if not holds(sc.inv, env, {}, unbound=True):
        return InvariantViolated("<chart>", nxt, m, msgs)
    if not holds(sc.state(t.trg).inv, env, {}, unbound=True):
        return InvariantViolated(t.trg, nxt, m, msgs)
    return Step(nxt, m, msgs)


def successors(conf: Configuration, sc: SCSimp, match: str = "fifo", choose=None) -> list:
    """The outcomes of one step from `conf`, whose buffer must be non-empty:
    the outcome the head message forces, or else one per enabled choice, in
    `enabled` order, or only the one `choose` picks from them.

    A timeout whose timer was never set (or was stopped) evaporates; a head
    that enables nothing is chaos.
    """
    head = conf.inputs[conf.head]
    if head.name == TIMEOUT and not dict(conf.store).get(TIMER_FLAG, False):
        return [Step(conf._after(conf.head, conf.current, conf.store), head)]
    choices = enabled(conf, sc, match)
    if not choices:
        dropped = conf._after(conf.head, conf.current, conf.store)
        return [Chaos(f"no enabled transition for {head.name} in {conf.current}", dropped, head)]
    if choose is not None:
        choices = [choose(choices)]
    return [fire(conf, c, sc) for c in choices]


def step(conf: Configuration, sc: SCSimp, scheduler=None, match: str = "fifo") -> Outcome:
    if not conf.pending():
        return Step(conf)  # quiescent
    return successors(conf, sc, match, (scheduler or _LEX).choose)[0]


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
        return tuple(m for o in self.steps for m in o.emitted)

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
        if not conf.pending():
            outcome = Step(conf)
            break
        outcome = step(conf, sc, scheduler, match)
        steps.append(outcome)
        conf = outcome.next
        if not isinstance(outcome, Step):
            break
    return RunResult(start, steps, outcome)


def run_log_lines(result: RunResult) -> list:
    """One JSON-ready dict per step: {step, state, consumed, emitted, storeDiff}."""
    out = []
    prev = result.start
    for i, outcome in enumerate(result.steps, start=1):
        conf = outcome.next
        diff = {}
        if conf.store is not prev.store:  # a step that rebinds nothing keeps its store tuple
            before = dict(prev.store)
            diff = {k: value_to_json(v) for k, v in conf.store  # pairs in key order
                    if k not in before or not values_equal(before[k], v)}
        out.append(
            {"step": i, "state": conf.current, "consumed": str(outcome.consumed),
             "emitted": [str(m) for m in outcome.emitted], "storeDiff": diff}
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
    choice, by exhaustive branching.

    The search runs level by level, one level per consumed input message.
    Emitted messages leave the object and never re-enter its buffer, so what
    a configuration can still do depends on its state, store and buffer
    alone. Each level therefore maps a configuration to the set of distinct
    emitted prefixes that reach it, each extended by the `emitted` label of
    the step it takes, and `successors` runs once per configuration, not
    once per prefix."""
    out: set = set()
    level, depth = {_start(sc, init, inputs): {_NOTHING}}, 0
    while level:
        after: dict = {}
        for conf, prefixes in level.items():
            if not conf.pending() or depth >= max_steps:
                out.update((p.to_tuple(), "quiescent") for p in prefixes)
                continue
            for res in successors(conf, sc, match):
                if not isinstance(res, Step):
                    kind = type(res).__name__.lower()
                    out.update((p.then(res.emitted).to_tuple(), kind) for p in prefixes)
                    continue
                after.setdefault(res.next, set()).update(p.then(res.emitted) for p in prefixes)
        level, depth = after, depth + 1
    return out


# The message text, `str(m)`, under the name the benchmark and tests call.
format_message = Message.__str__
