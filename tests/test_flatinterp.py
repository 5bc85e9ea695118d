"""Tests for the flat-chart interpreter."""

from __future__ import annotations

import functools
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from scforge import flatinterp
from scforge.actions import ActionError, Message, UnboundVariable
from scforge.flatinterp import (
    BadInitialState,
    Chaos,
    Configuration,
    InvariantViolated,
    LexScheduler,
    PostconditionViolated,
    RandomScheduler,
    RunResult,
    Step,
    enabled,
    explore_emissions,
    fire,
    format_message,
    parse_message,
    run,
    run_log_lines,
    scheduler_from_spec,
    step,
    successors,
)
from scforge.gen import gen_chart, gen_guard_free
from scforge.parse import KEYWORDS, parse
from scforge.transform import to_simplified, transform_fixpoint


def simp(text):
    return to_simplified(parse(text))


BUFFER = simp(
    """
    statechart Buffer for BufferClass {
        initial state Empty;
        state NonEmpty;
        Empty -> NonEmpty : put(x) / v = x;
        Empty -> Empty : get() / send(-1);
        NonEmpty -> Empty : get() / send(v);
        NonEmpty -> NonEmpty : put(x) / skip;
    }
    """
)


def msgs(*texts):
    return tuple(parse_message(t) for t in texts)


# -- enabled ----------------------------------------------------------------

def test_enabled_empty_buffer_is_empty():
    conf = Configuration.make("Empty")
    assert enabled(conf, BUFFER) == []


def test_enabled_matches_head_with_binding():
    conf = Configuration.make("Empty", buffer=msgs("put(3)"))
    [(t, m, v)] = enabled(conf, BUFFER)
    assert t.src == "Empty" and t.trg == "NonEmpty"
    assert m == Message("put", (3,))
    assert v == {"x": 3}


def test_enabled_excludes_false_guard():
    sc = simp(
        """
        statechart D for C {
            initial state A;
            A -> A : [x == 1] f() / skip;
        }
        """
    )
    conf = Configuration.make("A", {"x": 0}, msgs("f()"))
    assert enabled(conf, sc) == []
    conf2 = Configuration.make("A", {"x": 1}, msgs("f()"))
    assert len(enabled(conf2, sc)) == 1


def test_enabled_fifo_only_sees_the_head():
    conf = Configuration.make("Empty", buffer=msgs("bogus()", "put(3)"))
    assert enabled(conf, BUFFER, match="fifo") == []
    anywhere = enabled(conf, BUFFER, match="anywhere")
    assert [m.name for _, m, _ in anywhere] == ["put"]


def test_enabled_and_explored_emissions_match_the_throw_flag():
    sc = simp(
        """
        statechart T for C {
            initial state A;
            state P;
            state X;
            A -> P : f() / o(1);
            A -> X : throw f() / o(2);
        }
        """
    )
    for text, target, out in (("f()", "P", 1), ("throw f()", "X", 2)):
        [(t, _, _)] = enabled(Configuration.make("A", buffer=msgs(text)), sc)
        assert t.trg == target
        assert explore_emissions(sc, "A", msgs(text)) == {((Message("o", (out,)),), "quiescent")}


def test_enabled_rejects_unknown_match_mode():
    with pytest.raises(ValueError):
        enabled(Configuration.make("Empty"), BUFFER, match="fancy")


# -- fire -------------------------------------------------------------------

def test_fire_put_then_get_reproduces_buffer_run():
    conf = Configuration.make("Empty", buffer=msgs("put(3)", "get()"))
    [choice] = enabled(conf, BUFFER)
    out = fire(conf, choice, BUFFER)
    assert isinstance(out, Step)
    mid = out.next
    assert mid.current == "NonEmpty"
    assert dict(mid.store) == {"v": 3}
    assert out.emitted == ()
    [choice2] = enabled(mid, BUFFER)
    out2 = fire(mid, choice2, BUFFER)
    assert isinstance(out2, Step)
    assert out2.next.current == "Empty"
    assert out2.emitted == (Message("send", (3,)),)


def test_fire_false_postcondition():
    sc = simp(
        """
        statechart D for C {
            initial state A;
            A -> A : f() / skip [false];
        }
        """
    )
    conf = Configuration.make("A", buffer=msgs("f()"))
    [choice] = enabled(conf, sc)
    out = fire(conf, choice, sc)
    assert isinstance(out, PostconditionViolated)
    assert out.transition.src == "A"


def test_fire_failed_intermediate_check_reports_the_transition():
    sc = simp(
        """
        statechart D for C {
            initial state A;
            A -> A : f() / check(false) & send(1);
        }
        """
    )
    conf = Configuration.make("A", buffer=msgs("f()"))
    [choice] = enabled(conf, sc)
    out = fire(conf, choice, sc)
    assert isinstance(out, PostconditionViolated)
    assert out.emitted == ()  # nothing escapes a failed atomic step


def test_fire_chart_invariant_violation():
    sc = simp(
        """
        statechart D for C {
            [0 <= v];
            initial state A;
            A -> A : f() / v = -1;
        }
        """
    )
    conf = Configuration.make("A", buffer=msgs("f()"))
    [choice] = enabled(conf, sc)
    out = fire(conf, choice, sc)
    assert isinstance(out, InvariantViolated)
    assert out.state == "<chart>"


def test_fire_target_state_invariant_violation():
    sc = simp(
        """
        statechart D for C {
            initial state A;
            state B { [v == 1]; }
            A -> B : f() / v = 2;
        }
        """
    )
    conf = Configuration.make("A", buffer=msgs("f()"))
    [choice] = enabled(conf, sc)
    out = fire(conf, choice, sc)
    assert isinstance(out, InvariantViolated)
    assert out.state == "B"


def test_unbound_variables_fail_guards_and_satisfy_invariants():
    sc = simp(
        """
        statechart D for C {
            [w < 1];
            initial state A;
            state B { [v == 1]; }
            A -> B : f() / send(1) [u == 1];
            A -> A : [z < 1] g();
        }
        """
    )
    assert enabled(Configuration.make("A", buffer=msgs("g()")), sc) == []
    conf = Configuration.make("A", buffer=msgs("f()"))
    [choice] = enabled(conf, sc)
    out = fire(conf, choice, sc)
    assert isinstance(out, Step) and out.next.current == "B"


# -- step -------------------------------------------------------------------

def test_step_quiescent_on_empty_buffer():
    conf = Configuration.make("Empty")
    out = step(conf, BUFFER)
    assert out == Step(conf)


def test_step_chaos_drops_the_head():
    sc = simp(
        """
        statechart D for C {
            initial state A;
            state B;
            A -> B : f() / skip;
        }
        """
    )
    conf = Configuration.make("B", buffer=msgs("f()", "g()"))
    out = step(conf, sc)
    assert isinstance(out, Chaos)
    assert out.next.buffer == msgs("g()")
    assert "f" in out.reason and "B" in out.reason


def test_step_on_completed_chart_never_chaos():
    sc = parse(
        """
        statechart D for C <<completion:ignore>> {
            initial state A;
            state B;
            A -> B : [x == 1] f(x) / skip;
            B -> A : g() / send(0);
        }
        """
    )
    flat, _ = transform_fixpoint(sc)
    machine = to_simplified(flat)
    for inputs in itertools.product(["f(0)", "f(1)", "g()"], repeat=3):
        result = run(machine, "A", msgs(*inputs))
        assert result.quiescent, inputs


def test_step_fires_only_the_choice_it_picks():
    sc = simp("statechart D for C { initial state A; state B; state C;"
              " A -> B : f() / o(1); A -> C : f() / o(u); }")
    conf = Configuration.make("A", buffer=msgs("f()"))
    with pytest.raises(UnboundVariable):
        successors(conf, sc)  # fires the choice into C too
    out = step(conf, sc, LexScheduler())
    assert isinstance(out, Step) and out.next.current == "B"
    assert out.emitted == msgs("o(1)")


def test_successors_give_one_outcome_per_choice_in_enabled_order():
    conf = Configuration.make("A", buffer=msgs("f()"))
    outs = successors(conf, FORK)
    assert [o.next.current for o in outs] == [t.trg for t, _, _ in enabled(conf, FORK)] == ["B", "Z"]
    assert [o.emitted for o in outs] == [msgs("send(1)"), msgs("send(2)")]
    assert all(isinstance(o, Step) and o.consumed == Message("f", ()) for o in outs)


# -- run --------------------------------------------------------------------

def test_run_buffer_put_get():
    result = run(BUFFER, "Empty", msgs("put(3)", "get()"))
    assert result.emissions == (Message("send", (3,)),)
    assert result.final.current == "Empty"
    assert result.quiescent


@pytest.mark.parametrize("event, outcome, current, emissions", [
    ("f(3)", Step, "B", (Message("o", (3,)),)),
    ("f(-2)", Step, "B", (Message("o", (-2,)),)),
    ("f(1)", Chaos, "A", ()),
])
def test_run_evaluates_an_or_guard(event, outcome, current, emissions):
    chart = simp("statechart G for C { initial state A; state B; "
                 "A -> B : [x < 0 || 2 < x] f(x) / o(x); }")
    result = run(chart, "A", msgs(event))
    assert type(result.outcome) is outcome
    assert result.final.current == current
    assert result.emissions == emissions


def test_run_empty_inputs():
    result = run(BUFFER, "Empty", ())
    assert result.emissions == ()
    assert result.final.current == "Empty"
    assert result.trajectory == [result.final]


def test_run_get_on_empty_buffer_sends_minus_one():
    result = run(BUFFER, "Empty", msgs("get()"))
    assert result.emissions == (Message("send", (-1,)),)


def test_run_rejects_non_initial_start():
    with pytest.raises(BadInitialState):
        run(BUFFER, "NonEmpty", ())


def test_run_consumes_one_message_per_step():
    result = run(BUFFER, "Empty", msgs("put(1)", "put(2)", "get()", "get()"))
    lengths = [len(c.buffer) for c in result.trajectory]
    assert lengths == [4, 3, 2, 1, 0]


def test_run_is_deterministic_under_lex_scheduler():
    inputs = msgs("put(7)", "get()", "get()", "put(2)")
    a = run(BUFFER, "Empty", inputs, LexScheduler())
    b = run(BUFFER, "Empty", inputs, LexScheduler())
    assert a.trajectory == b.trajectory and a.emissions == b.emissions


# -- configurations share their run's input ---------------------------------

def test_configurations_compare_by_value_whatever_their_inputs():
    f, g = Message("f"), Message("g")
    derived = Configuration.make("A", buffer=(f, g))._after(0, "A", ())
    fresh = Configuration.make("A", buffer=(g,))
    assert derived.buffer == (g,) and derived.inputs == (f, g)
    assert derived == fresh and hash(derived) == hash(fresh)
    assert derived != Configuration.make("A", buffer=(f,))
    assert derived != Configuration.make("A", {"v": 1}, buffer=(g,))


def test_emitted_hash_ignores_how_steps_split_the_messages():
    a, b = Message("a"), Message("b")
    one_step = flatinterp._NOTHING.then((a, b))
    two_steps = flatinterp._NOTHING.then((a,)).then((b,))
    assert two_steps.to_tuple() == one_step.to_tuple() == (a, b)
    assert one_step == two_steps and hash(one_step) == hash(two_steps)


def test_anywhere_consumption_keeps_the_head_on_the_first_pending_message():
    conf = Configuration.make("A", buffer=msgs("f()", "g()", "h()", "k()"))
    past = conf._after(2, "A", ())._after(1, "A", ())
    assert (past.head, past.skipped, past.buffer) == (0, {1, 2}, msgs("f()", "k()"))
    caught_up = past._after(0, "A", ())
    assert (caught_up.head, caught_up.skipped, caught_up.buffer) == (3, frozenset(), msgs("k()"))
    assert caught_up == Configuration.make("A", buffer=msgs("k()"))


def test_equal_messages_consumed_at_different_places_leave_equal_buffers():
    conf = Configuration.make("A", buffer=msgs("f()", "f()"))
    a, b = conf._after(0, "A", ()), conf._after(1, "A", ())
    assert (a.head, b.head) == (1, 0)
    assert a == b and hash(a) == hash(b)


def test_anywhere_consumes_the_chosen_message_not_one_equal_to_it_in_value():
    sc = simp("statechart D for C { initial state A; state B;"
              " A -> B : f(true) / o(1); B -> B : f(1) / o(2); }")
    result = run(sc, "A", msgs("f(1)", "f(true)"), match="anywhere")
    assert [format_message(m) for m in result.emissions] == ["o(1)", "o(2)"]
    assert result.quiescent


def _retained_bytes(sc, init, inputs):
    tracemalloc.start()
    try:
        result = run(sc, init, inputs, max_steps=len(inputs) + 1)
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


def test_run_retains_memory_linear_in_its_length():
    """Four times the events retain four times the memory; a run that copies
    its buffer into every configuration retains about sixteen times."""
    rng = random.Random(8)
    stream = tuple(Message("put", (rng.randint(0, 9),)) if rng.random() < 0.5
                   else Message("get") for _ in range(8000))
    run(BUFFER, "Empty", stream[:10])  # builds the chart's index outside the measurement
    small, _ = _retained_bytes(BUFFER, "Empty", stream[:2000])
    large, result = _retained_bytes(BUFFER, "Empty", stream)
    assert len(result.steps) == 8000 and result.quiescent
    assert large / small <= 6, (small, large)
    assert all(conf.inputs is result.start.inputs for conf in result.trajectory)


# -- timers -----------------------------------------------------------------

TIMER = simp(
    """
    statechart D for C {
        initial state Idle;
        state Armed;
        Idle -> Armed : arm() / setTimer;
        Armed -> Idle : timeout() / send(0);
        Armed -> Idle : disarm() / stopTimer & send(1);
    }
    """
)


def test_timeout_ignored_while_timer_unset():
    result = run(TIMER, "Idle", msgs("timeout()", "arm()"))
    assert result.quiescent
    assert result.final.current == "Armed"
    assert result.emissions == ()


def test_timeout_fires_while_timer_set():
    result = run(TIMER, "Idle", msgs("arm()", "timeout()"))
    assert result.emissions == (Message("send", (0,)),)
    assert result.final.current == "Idle"


def test_timeout_ignored_after_stop_timer():
    result = run(TIMER, "Idle", msgs("arm()", "disarm()", "timeout()"))
    assert result.quiescent
    assert result.emissions == (Message("send", (1,)),)
    assert result.final.current == "Idle"


# -- scheduler choice and exploration ---------------------------------------

FORK = simp(
    """
    statechart D for C {
        initial state A;
        state B;
        state Z;
        A -> B : f() / send(1);
        A -> Z : f() / send(2);
        B -> A : g() / skip;
        Z -> A : g() / skip;
    }
    """
)


def test_explore_emissions_enumerates_all_choices():
    out = explore_emissions(FORK, "A", msgs("f()", "g()", "f()"))
    expected = {
        ((Message("send", (a,)), Message("send", (b,))), "quiescent")
        for a in (1, 2)
        for b in (1, 2)
    }
    assert out == expected


def test_explore_emissions_keeps_stores_that_differ_in_true_and_one():
    sc = simp("statechart D for C { initial state A; state B;"
              " A -> B : f() / v = 1; A -> B : f() / v = true; B -> B : g() / o(v); }")
    out = explore_emissions(sc, "A", msgs("f()", "g()"))
    assert sorted(format_message(m) for em, _ in out for m in em) == ["o(1)", "o(true)"]


def test_seeded_runs_cover_exactly_the_explored_emissions():
    inputs = msgs("f()", "g()", "f()")
    explored = {em for em, kind in explore_emissions(FORK, "A", inputs)}
    seeded = {run(FORK, "A", inputs, RandomScheduler(seed)).emissions for seed in range(64)}
    assert seeded == explored


def naive_explore_emissions(sc, init, inputs, match="fifo", max_steps=10000):
    """`explore_emissions` as it was before it ran level by level: a depth-first
    search over configurations together with their emitted prefixes, which
    steps a configuration once per distinct emitted prefix that reaches it."""
    out = set()
    stack = [(Configuration.make(init, {}, tuple(inputs)), (), 0)]
    seen = set()
    while stack:
        key = conf, emitted, depth = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        if not conf.pending() or depth >= max_steps:
            out.add((emitted, "quiescent"))
            continue
        for res in successors(conf, sc, match):
            if isinstance(res, Step):
                stack.append((res.next, emitted + res.emitted, depth + 1))
            else:
                out.add((emitted + res.emitted, type(res).__name__.lower()))
    return out


def explored_or_error(explore, *args):
    # Which of several failing configurations a search meets first depends
    # on its order, so only the failure itself is compared.
    try:
        return explore(*args)
    except ActionError:
        return "action error"


GENERATORS = {"gen_chart": lambda seed: gen_chart(seed, max_states=6),
              "gen_guard_free": gen_guard_free}


@functools.lru_cache(maxsize=None)
def flat_generated(generator, seed, strategy):
    return to_simplified(transform_fixpoint(GENERATORS[generator](seed), strategy)[0])


@st.composite
def generated_explorations(draw, generator):
    """A flattened chart of `generator`, one of its initial states and a word
    of 0-5 of its own triggers with small arguments."""
    seed = draw(st.integers(0, 149))
    sc = flat_generated(generator, seed, draw(st.sampled_from(["paper", f"random:{seed}"])))
    init = draw(st.sampled_from(sorted(s.name for s in sc.initial_states())))
    triggers = sorted({(t.call.name, len(t.call.args)) for t in sc.trans})
    symbol = st.sampled_from(triggers).flatmap(
        lambda call: st.tuples(*[st.integers(0, 2)] * call[1]).map(
            lambda args: Message(call[0], args)))
    return sc, init, tuple(draw(symbol) for _ in range(draw(st.sampled_from(range(6)))))


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), match=st.sampled_from(["fifo", "anywhere"]),
       max_steps=st.sampled_from([10000, 0, 1, 2, 3]))
def test_explore_emissions_matches_the_depth_first_search(generator, data, match, max_steps):
    args = (*data.draw(generated_explorations(generator)), match, max_steps)
    assert (explored_or_error(explore_emissions, *args)
            == explored_or_error(naive_explore_emissions, *args))


# Every outcome kind: a postcondition and both invariants fail on some
# choice, a g() in A is chaos, and a timeout with no timer set evaporates.
OUTCOMES = simp(
    """
    statechart K for C {
        [0 <= v];
        initial state A;
        state B { [v < 5]; }
        state T;
        A -> B : f(x) / v = x & send(x);
        A -> A : f(x) / v = x & send(x) [v < 3];
        B -> A : g(x) / v = v - x & send(v);
        A -> T : arm() / setTimer;
        T -> A : timeout() / send(0);
        T -> A : disarm() / stopTimer;
    }
    """
)
OUTCOME_WORDS = [msgs("f(1)", "g(1)", "f(2)"), msgs("f(4)", "g(5)"), msgs("f(6)", "f(1)"),
                 msgs("timeout()", "arm()", "timeout()", "arm()", "disarm()", "timeout()")]


@pytest.mark.parametrize("match", ["fifo", "anywhere"])
@pytest.mark.parametrize("max_steps", [0, 1, 2, 3, 10000])
def test_explore_emissions_matches_the_depth_first_search_on_every_outcome(match, max_steps):
    kinds = set()
    for word in OUTCOME_WORDS:
        explored = explore_emissions(OUTCOMES, "A", word, match, max_steps)
        assert explored == naive_explore_emissions(OUTCOMES, "A", word, match, max_steps)
        kinds |= {kind for _, kind in explored}
    if max_steps >= 2:
        assert kinds == {"quiescent", "chaos", "postconditionviolated", "invariantviolated"}
    if max_steps == 10000 and match == "fifo":
        assert explore_emissions(OUTCOMES, "A", OUTCOME_WORDS[-1]) == {
            ((Message("send", (0,)),), "quiescent")}


# perfbench's branch chart: two f() transitions with different outputs per
# state, so L f() symbols have 2**L emission sequences.
BRANCH = simp(
    "statechart Branch for C { initial state B0; state B1; state B2; state B3; "
    + " ".join(f"B{i} -> B{(i + 1) % 4} : f() / out1(1); B{i} -> B{(i + 2) % 4} : f() / out2(2);"
               for i in range(4))
    + " }"
)


def test_explore_emissions_steps_each_configuration_once(monkeypatch):
    calls = []

    def counted(conf, *rest):
        calls.append(conf)
        return successors(conf, *rest)

    monkeypatch.setattr(flatinterp, "successors", counted)
    explored = explore_emissions(BRANCH, "B0", msgs(*["f()"] * 12))
    assert len(explored) == 2 ** 12
    assert len(calls) <= 4 * 12


def test_scheduler_from_spec():
    assert isinstance(scheduler_from_spec("lex"), LexScheduler)
    assert isinstance(scheduler_from_spec("rand:7"), RandomScheduler)
    with pytest.raises(ValueError):
        scheduler_from_spec("coinflip")


# -- run log and message format ---------------------------------------------

@pytest.mark.parametrize(
    "sc, init, inputs, match, expected",
    [
        pytest.param(BUFFER, "Empty", ("put(3)", "get()"), "fifo", [
            {"step": 1, "state": "NonEmpty", "consumed": "put(3)", "emitted": [],
             "storeDiff": {"v": 3}},
            {"step": 2, "state": "Empty", "consumed": "get()", "emitted": ["send(3)"],
             "storeDiff": {}},
        ], id="fifo"),
        pytest.param(BUFFER, "Empty", ("put(3)", "bogus()", "get()"), "fifo", [
            {"step": 1, "state": "NonEmpty", "consumed": "put(3)", "emitted": [],
             "storeDiff": {"v": 3}},
            {"step": 2, "state": "NonEmpty", "consumed": "bogus()", "emitted": [],
             "storeDiff": {}},
        ], id="chaos-drops-the-head"),
        pytest.param(TIMER, "Idle", ("timeout()", "arm()"), "fifo", [
            {"step": 1, "state": "Idle", "consumed": "timeout()", "emitted": [],
             "storeDiff": {}},
            {"step": 2, "state": "Armed", "consumed": "arm()", "emitted": [],
             "storeDiff": {"$timer": True}},
        ], id="timeout-evaporates"),
        pytest.param(BUFFER, "Empty", ("bogus()", "put(3)", "get()"), "anywhere", [
            {"step": 1, "state": "Empty", "consumed": "get()", "emitted": ["send(-1)"],
             "storeDiff": {}},
            {"step": 2, "state": "NonEmpty", "consumed": "put(3)", "emitted": [],
             "storeDiff": {"v": 3}},
            {"step": 3, "state": "NonEmpty", "consumed": "bogus()", "emitted": [],
             "storeDiff": {}},
        ], id="anywhere-consumes-past-the-head"),
    ],
)
def test_run_log_lines(sc, init, inputs, match, expected):
    result = run(sc, init, msgs(*inputs), match=match)
    assert run_log_lines(result) == expected


def test_run_log_shows_a_store_change_from_one_to_true():
    sc = simp("statechart D for C { initial state A; A -> A : f() / v = 1; A -> A : g() / v = true; }")
    log = run_log_lines(run(sc, "A", msgs("f()", "g()")))
    assert [json.dumps(line["storeDiff"]) for line in log] == ['{"v": 1}', '{"v": true}']


def test_a_step_that_rebinds_nothing_keeps_its_store():
    sc = simp("statechart D for C { initial state A; A -> A : f(x) / v = x; }")
    result = run(sc, "A", msgs("f(1)", "f(1)", "f(true)"))
    first, second, third = (o.next.store for o in result.steps)
    assert second is first and third == (("v", True),)
    assert [line["storeDiff"] for line in run_log_lines(result)] == [{"v": 1}, {}, {"v": True}]


@pytest.mark.parametrize(
    "text",
    ["put(3)", "get()", "f(-1, true, [1, 2, [false]])", "throw oops(0)"],
)
def test_message_text_round_trip(text):
    assert format_message(parse_message(text)) == text


message_values = st.recursive(
    st.integers(-1000, 1000) | st.booleans(),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)
messages = st.builds(
    Message,
    st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True).filter(
        lambda name: name not in KEYWORDS),
    st.lists(message_values, max_size=4).map(tuple),
    st.booleans(),
)


@given(messages)
def test_generated_message_round_trip(m):
    text = format_message(m)
    assert parse_message(text) == m
    # == identifies True with 1; the text tells them apart
    assert format_message(parse_message(text)) == text


def test_parse_message_rejects_garbage():
    from scforge.parse import StatechartSyntaxError

    with pytest.raises(StatechartSyntaxError):
        parse_message("put(x)")
    with pytest.raises(StatechartSyntaxError):
        parse_message("put(1) extra")


# -- properties -------------------------------------------------------------

@st.composite
def small_machines(draw):
    names = ["A", "B", "C", "D"][: draw(st.integers(2, 4))]
    lines = [f"initial state {names[0]};"]
    lines += [f"state {n};" for n in names[1:]]
    n_trans = draw(st.integers(1, 5))
    for i in range(n_trans):
        src = draw(st.sampled_from(names))
        trg = draw(st.sampled_from(names))
        ev = draw(st.sampled_from(["f", "g"]))
        lines.append(f"{src} -> {trg} : {ev}() / send({i});")
    text = "statechart D for C { " + " ".join(lines) + " }"
    return simp(text)


input_seqs = st.lists(st.sampled_from(["f()", "g()"]), max_size=3).map(lambda xs: msgs(*xs))


@settings(max_examples=60, deadline=None)
@given(small_machines(), input_seqs, st.integers(0, 2**16))
def test_every_scheduled_run_is_in_the_exhaustive_exploration(sc, inputs, seed):
    explored = explore_emissions(sc, "A", inputs)
    for scheduler in (LexScheduler(), RandomScheduler(seed)):
        result = run(sc, "A", inputs, scheduler)
        kind = "quiescent" if result.quiescent else type(result.outcome).__name__.lower()
        assert (result.emissions, kind) in explored


@settings(max_examples=40, deadline=None)
@given(small_machines(), input_seqs)
def test_run_log_emissions_concatenate_to_the_run_emissions(sc, inputs):
    result = run(sc, "A", inputs)
    logged = [m for line in run_log_lines(result) for m in line["emitted"]]
    assert logged == [format_message(m) for m in result.emissions]


# One trigger per outcome kind; each violating step sends before its check fails.
LABELS = simp(
    """
    statechart L for C {
        [0 <= v];
        initial state A;
        state B { [v < 5]; }
        A -> A : s(x) / send(x) & send(0);
        A -> A : p() / send(1) [false];
        A -> A : n() / v = -1 & send(2);
        A -> B : b() / v = 7 & send(3);
        A -> A : c() / send(4) & check(false) & send(5);
    }
    """
)


@pytest.mark.parametrize("event, kind, emitted", [
    ("s(7)", Step, ("send(7)", "send(0)")),
    ("p()", PostconditionViolated, ("send(1)",)),
    ("n()", InvariantViolated, ("send(2)",)),
    ("b()", InvariantViolated, ("send(3)",)),
    ("c()", PostconditionViolated, ()),
    ("z()", Chaos, ()),
    ("timeout()", Step, ()),
    (None, Step, ()),
])
def test_each_outcome_kind_carries_what_its_step_emitted(event, kind, emitted):
    out = step(Configuration.make("A", buffer=msgs(event) if event else ()), LABELS)
    assert type(out) is kind
    assert tuple(map(format_message, out.emitted)) == emitted
