"""Reproducibility of the flat interpreter: the same chart and input give the
same run log, emissions, outcome and final configuration, and the same
emission sets under exhaustive exploration.

`PYTHONPATH=src python tests/test_run_golden.py` prints the digests of the
corpus as JSON, in the format of `fixtures/run_golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from scforge.actions import ActionError, Message
from scforge.flatinterp import (
    explore_emissions,
    format_message,
    parse_message,
    run,
    run_log_lines,
    scheduler_from_spec,
)
from scforge.gen import gen_chart
from scforge.parse import parse
from scforge.transform import NotSimplifiable, to_simplified, transform_fixpoint

RUN_GOLDEN = Path(__file__).resolve().parent / "fixtures" / "run_golden.json"

BUFFER_SC = """statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}"""

# Guards, nested entry and exit actions, completion:ignore.
PUMP_SC = """statechart Pump for PumpClass <<completion:ignore>> {
    initial state Off;
    state On {
        exit / stopped(n);
        initial state Idle {
            exit / leaving(n);
        }
        state Busy {
            entry / busy(n);
            exit / free(n);
        }
        Idle -> Busy : [0 < x] job(x) / n = n + x;
        Idle -> Idle : [x <= 0] job(x) / rejected(x);
        Busy -> Busy : job(x) / queued(x);
        Busy -> Idle : done() / finished(n);
    }
    Off -> On : power() / n = 0 & started();
    On -> Off : power();
}"""

# Two transitions for one trigger: the scheduler's choice shows.
FORK_SC = """statechart Fork for C {
    initial state A;
    state B;
    state Z;
    A -> B : f() / send(1);
    A -> Z : f() / send(2);
    B -> A : g() / skip;
    Z -> A : g() / send(3);
}"""

# Hand-written charts, each with a stream that ends in the named outcome.
OUTCOME_CASES = {
    "chaos": ("""statechart D for C {
        initial state A;
        state B;
        A -> B : f() / send(1);
        B -> A : g() / send(2);
    }""", "A", ["f()", "g()", "g()", "f()"]),
    "timeout-evaporates": ("""statechart D for C {
        initial state Idle;
        state Armed;
        Idle -> Armed : arm() / setTimer;
        Armed -> Idle : timeout() / send(0);
        Armed -> Idle : disarm() / stopTimer & send(1);
    }""", "Idle", ["timeout()", "arm()", "timeout()", "arm()", "disarm()", "timeout()"]),
    "postcondition": ("""statechart D for C {
        initial state A;
        A -> A : f(x) / v = x & send(x) [v < 3];
    }""", "A", ["f(1)", "f(2)", "f(3)", "f(0)"]),
    "invariant": ("""statechart D for C {
        [0 <= v];
        initial state A;
        state B { [v < 5]; }
        A -> B : f(x) / v = x;
        B -> A : g(x) / v = v - x & send(v);
    }""", "A", ["f(1)", "g(1)", "f(4)", "g(5)", "f(0)"]),
}

SCHEDULERS = ("lex", "rand:1", "rand:2", "rand:3")
BUFFER_LENGTHS = (0, 1, 2, 5, 17, 64, 300)
ANYWHERE_LONGEST = 40  # anywhere matching tries every buffered message per step
EXPLORE_LONGEST = 6  # exploration branches on every choice


def _text(m: Message) -> str:
    return format_message(m)


def run_digest(sc, init, inputs, scheduler, match, max_steps=10000) -> str:
    """sha256 of the run log, emissions, outcome kind, final state and the
    messages left in the buffer, or of the action error the run raised."""
    try:
        result = run(sc, init, inputs, scheduler_from_spec(scheduler), match, max_steps)
        record = {
            "log": run_log_lines(result),
            "emitted": [_text(m) for m in result.emissions],
            "outcome": type(result.outcome).__name__.lower(),
            "state": result.final.current,
            "store": repr(result.final.store),
            "left": [_text(m) for m in result.final.buffer],
        }
    except ActionError as e:
        record = {"error": f"{type(e).__name__} {e}"}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def explore_digest(sc, init, inputs, match, max_steps=10000) -> str:
    """sha256 of the sorted (emissions, outcome kind) set, or of the action
    error exploration raised."""
    try:
        found = sorted(([_text(m) for m in em], kind)
                       for em, kind in explore_emissions(sc, init, inputs, match, max_steps))
    except ActionError as e:
        found = f"{type(e).__name__} {e}"
    return hashlib.sha256(json.dumps(found).encode()).hexdigest()


def _buffer_stream(rng, length):
    return tuple(Message("put", (rng.randint(0, 9),)) if rng.random() < 0.5
                 else Message("get", ()) for _ in range(length))


def _pump_stream(rng, length):
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.05:
            out.append(Message("power", ()))
        elif r < 0.65:
            out.append(Message("job", (rng.randint(-1, 4),)))
        else:
            out.append(Message("done", ()))
    return tuple(out)


def _walk_stream(rng, sc, init, length):
    """Calls of the triggers along a random walk of the chart from `init`,
    with small integer arguments, and now and then a message no transition
    takes. Guards are ignored, so a run may still leave the walk."""
    out, state = [], init
    for _ in range(length):
        outgoing = tuple(t for t in sc.index.trans if t.src == state)
        if not outgoing or rng.random() < 0.05:
            out.append(Message("stray", ()))
            continue
        t = rng.choice(outgoing)
        out.append(Message(t.call.name, tuple(rng.randint(0, 3) for _ in t.call.args)))
        state = t.trg
    return tuple(out)


def _simplified(sc):
    return to_simplified(transform_fixpoint(sc)[0])


def _chart_cases(out, label, sc, init, streams):
    """One digest per stream and match mode, over the runs under every
    scheduler and, for a short stream, exploration."""
    for k, inputs in enumerate(streams):
        for match in ("fifo", "anywhere"):
            if match == "anywhere" and len(inputs) > ANYWHERE_LONGEST:
                continue
            parts = [run_digest(sc, init, inputs, sched, match) for sched in SCHEDULERS]
            if len(inputs) <= EXPLORE_LONGEST:
                parts.append(explore_digest(sc, init, inputs, match))
            key = f"{label}/{k}:{len(inputs)}/{match}"
            out[key] = hashlib.sha256(" ".join(parts).encode()).hexdigest()


def run_golden_digests() -> dict[str, str]:
    """The Buffer, Pump and Fork charts on seeded streams of 0-300 events;
    gen_chart seeds 0-99 flattened, on a short and a long walk stream from
    each initial state; the outcome cases; and runs and explorations cut by
    a step bound."""
    out: dict[str, str] = {}
    rng = random.Random(20140101)
    buffer, pump, fork = (_simplified(parse(t)) for t in (BUFFER_SC, PUMP_SC, FORK_SC))
    _chart_cases(out, "buffer", buffer, "Empty",
                 [_buffer_stream(rng, n) for n in BUFFER_LENGTHS])
    _chart_cases(out, "pump", pump, "Off",
                 [_pump_stream(rng, n) for n in BUFFER_LENGTHS])
    _chart_cases(out, "fork", fork, "A",
                 [tuple(Message(rng.choice("fg"), ()) for _ in range(n)) for n in (3, 6, 30)])
    for seed in range(100):
        try:
            sc = _simplified(gen_chart(seed))
        except NotSimplifiable as e:
            out[f"gen/{seed}"] = hashlib.sha256(f"NotSimplifiable {e}".encode()).hexdigest()
            continue
        for s in sc.initial_states():
            streams = [_walk_stream(rng, sc, s.name, rng.randint(0, EXPLORE_LONGEST)),
                       _walk_stream(rng, sc, s.name, rng.randint(EXPLORE_LONGEST + 1, 300))]
            _chart_cases(out, f"gen/{seed}/{s.name}", sc, s.name, streams)
    for name, (text, init, events) in OUTCOME_CASES.items():
        _chart_cases(out, f"outcome/{name}", to_simplified(parse(text)), init,
                     [tuple(parse_message(e) for e in events)])
    long_buffer = _buffer_stream(rng, 50)
    fork_word = tuple(Message("fg"[i % 2], ()) for i in range(12))
    for bound in (0, 1, 10, 49, 50):
        out[f"bound/{bound}/run"] = run_digest(buffer, "Empty", long_buffer, "lex", "fifo", bound)
        out[f"bound/{bound}/explore"] = explore_digest(fork, "A", fork_word, "fifo", bound)
    return out


def test_runs_match_golden_digests():
    expected = json.loads(RUN_GOLDEN.read_text())
    actual = run_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} runs differ, first: {differing[:5]}"


if __name__ == "__main__":
    print(json.dumps(run_golden_digests(), indent=1))
