"""Tests for the term-based statemachine semantics."""

from __future__ import annotations

import itertools
import json
import pickle
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from scforge import vdb
from scforge.actions import Message
from scforge.flatinterp import explore_emissions, parse_message
from scforge.gen import gen_guard_free
from scforge.parse import parse, parse_messages
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import (
    And,
    Basic,
    KripkeNode,
    NotGuardFree,
    Or,
    StateSpaceBound,
    Term,
    UnboundedValueDomain,
    UnknownTargetName,
    VdbTransition,
    aux_step,
    conf_of,
    encode_guard_free,
    entry_seqs,
    exit_seqs,
    next_state,
    node_to_json,
    run_bounded,
    run_outputs,
    runs_to_json,
    term_from_sexpr,
    term_to_sexpr,
    validate_term,
)


DOMAIN = (-1, 3)


def data(state, value):
    return f"{state}({value})"


def buffer_term(active="Empty", domain=DOMAIN):
    """The one-place buffer as a statemachine term, expanded over `domain`:
    transitions t1 (get on empty sends -1), t2 (put stores), t3 (get sends the
    stored value), t4 (put overwrites)."""
    children = [Basic("Empty")] + [Basic(data("NonEmpty", d)) for d in domain]
    index = {c.name: k + 1 for k, c in enumerate(children)}
    trans = set()
    n = itertools.count(1)
    trans.add(VdbTransition(f"t{next(n)}", 1, frozenset(), Message("get"),
                            (Message("send", (-1,)),), frozenset(), 1))
    for i in domain:
        trans.add(VdbTransition(f"t{next(n)}", 1, frozenset(), Message("put", (i,)),
                                (), frozenset(), index[data("NonEmpty", i)]))
    for v in domain:
        src = index[data("NonEmpty", v)]
        trans.add(VdbTransition(f"t{next(n)}", src, frozenset(), Message("get"),
                                (Message("send", (v,)),), frozenset(), 1))
        for i in domain:
            trans.add(VdbTransition(f"t{next(n)}", src, frozenset(), Message("put", (i,)),
                                    (), frozenset(), index[data("NonEmpty", i)]))
    return Or("Buffer", tuple(children), index[active], frozenset(trans))


# -- conf, entry/exit -------------------------------------------------------

def test_conf_of_basic():
    assert conf_of(Basic("Empty")) == {"Empty"}


def test_conf_of_buffer_term():
    assert conf_of(buffer_term()) == {"Buffer", "Empty"}
    assert conf_of(buffer_term(active=data("NonEmpty", 3))) == {"Buffer", data("NonEmpty", 3)}


def test_conf_of_and_term():
    t = And("n", (Basic("a"), Basic("b")))
    assert conf_of(t) == {"n", "a", "b"}


def test_entry_seqs_basic():
    assert entry_seqs(Basic("A")) == {()}
    assert entry_seqs(Basic("A", entry=(Message("p"),))) == {(Message("p"),)}


def test_entry_seqs_and_permutes_children():
    t = And("n", (Basic("a", entry=(Message("p"),)), Basic("b", entry=(Message("q"),))))
    assert entry_seqs(t) == {(Message("p"), Message("q")), (Message("q"), Message("p"))}


def test_exit_seqs_children_before_self():
    t = Or("n", (Basic("a", exit=(Message("p"),)),), 1, frozenset(), exit=(Message("x"),))
    assert exit_seqs(t) == {(Message("p"), Message("x"))}
    t2 = And("n", (Basic("a", exit=(Message("p"),)), Basic("b", exit=(Message("q"),))),
             exit=(Message("x"),))
    assert exit_seqs(t2) == {(Message("p"), Message("q"), Message("x")), (Message("q"), Message("p"), Message("x"))}


def test_buffer_term_entry_seqs_trivial():
    assert entry_seqs(buffer_term()) == {()}
    assert exit_seqs(buffer_term()) == {()}


# -- next_state -------------------------------------------------------------

def test_next_state_on_basic_is_identity():
    b = Basic(data("NonEmpty", 3))
    assert next_state("none", frozenset(), b) == b


def test_next_state_none_resets_or_index():
    t = Or("n", (Basic("a"), Basic("b")), 2, frozenset())
    assert next_state("none", frozenset(), t).active == 1


def test_next_state_deep_preserves():
    inner = Or("m", (Basic("a"), Basic("b")), 2, frozenset())
    t = Or("n", (inner, Basic("c")), 2, frozenset())
    assert next_state("deep", frozenset(), t) == t


def test_next_state_shallow_keeps_top_index_only():
    inner = Or("m", (Basic("a"), Basic("b")), 2, frozenset())
    t = Or("n", (inner, Basic("c")), 2, frozenset())
    out = next_state("shallow", frozenset(), t)
    assert out.active == 2
    assert out.subterms[0].active == 1


def test_next_state_forces_target_names_active():
    inner = Or("m", (Basic("a"), Basic("b")), 1, frozenset())
    t = Or("n", (inner, Basic("c")), 2, frozenset())
    out = next_state("none", frozenset(["b"]), t)
    assert conf_of(out) >= {"b"}


def test_next_state_unknown_target():
    with pytest.raises(UnknownTargetName):
        next_state("none", frozenset(["ghost"]), Basic("a"))


# -- aux_step ---------------------------------------------------------------

def test_aux_step_basic_stutters():
    b = Basic("Empty")
    assert aux_step(b, Message("anything")) == {((), 0, b)}


def test_aux_step_buffer_put():
    out = aux_step(buffer_term(), Message("put", (3,)))
    assert out == {((), 1, buffer_term(active=data("NonEmpty", 3)))}


def test_aux_step_buffer_get_after_put():
    out = aux_step(buffer_term(active=data("NonEmpty", 3)), Message("get"))
    assert out == {((Message("send", (3,)),), 1, buffer_term(active="Empty"))}


def test_aux_step_unmatched_event_stutters():
    t = buffer_term()
    assert aux_step(t, Message("zap")) == {((), 0, t)}


def test_aux_step_inner_priority():
    inner = Or(
        "A",
        (Basic("X"), Basic("Y")),
        1,
        frozenset([VdbTransition("ti", 1, frozenset(), Message("f"), (Message("in_"),), frozenset(), 2)]),
    )
    outer = Or(
        "Root",
        (inner, Basic("B")),
        1,
        frozenset([VdbTransition("to", 1, frozenset(), Message("f"), (Message("out_"),), frozenset(), 2)]),
    )
    out = aux_step(outer, Message("f"))
    assert all(f == 1 for _, f, _ in out)
    # only the inner transition fires; the outer one is pre-empted
    assert {a for a, _, _ in out} == {(Message("in_"),)}
    # once X cannot react, the outer transition takes over
    inner2 = Or("A", (Basic("X"), Basic("Y")), 2, inner.transitions)
    outer2 = Or("Root", (inner2, Basic("B")), 1, outer.transitions)
    out2 = aux_step(outer2, Message("f"))
    assert {a for a, _, _ in out2} == {(Message("out_"),)}


def test_aux_step_or1_wraps_exit_and_entry_actions():
    src = Basic("S", exit=(Message("xs"),))
    trg = Basic("T", entry=(Message("et"),))
    t = Or("n", (src, trg), 1,
           frozenset([VdbTransition("t1", 1, frozenset(), Message("f"), (Message("a"),), frozenset(), 2)]))
    out = aux_step(t, Message("f"))
    assert {a for a, _, _ in out} == {(Message("xs"), Message("a"), Message("et"))}


def test_aux_step_and_ors_flags_and_permutes_outputs():
    fires = Or("L", (Basic("x"), Basic("y")), 1,
               frozenset([VdbTransition("t1", 1, frozenset(), Message("f"), (Message("a"),), frozenset(), 2)]))
    t = And("n", (fires, Basic("z")))
    out = aux_step(t, Message("f"))
    assert {f for _, f, _ in out} == {1}
    # the stuttering sibling contributes an empty block in every order
    assert {a for a, _, _ in out} == {(Message("a"),)}


def test_aux_step_source_restriction():
    inner = Or("A", (Basic("X"), Basic("Y")), 1, frozenset())
    t = Or(
        "n",
        (inner, Basic("B")),
        1,
        frozenset([VdbTransition("t1", 1, frozenset(["Y"]), Message("f"), (), frozenset(), 2)]),
    )
    # X is active, not Y: the source restriction blocks the transition
    assert aux_step(t, Message("f")) == {((), 0, t)}
    t2 = Or("n", (Or("A", inner.subterms, 2, frozenset()), Basic("B")), 1, t.transitions)
    assert {f for _, f, _ in aux_step(t2, Message("f"))} == {1}


def test_aux_step_keeps_outputs_that_differ_in_true_and_one():
    t = Or("n", (Basic("A"), Basic("B")), 1, frozenset(
        VdbTransition(f"t{k}", 1, frozenset(), Message("f"), (Message("o", (v,)),), frozenset(), 2)
        for k, v in ((1, 1), (2, True))))
    assert Message("o", (1,)) != Message("o", (True,))
    assert sorted(str(a[0]) for a, _, _ in aux_step(t, Message("f"))) == ["o(1)", "o(true)"]
    assert aux_step(t, Message("f", (True,))) == {((), 0, t)}


# -- Kripke steps and runs --------------------------------------------------

def test_consume_input_buffer_run_steps():
    # one step consumes the queue's head; outputs go to the tail
    n0 = KripkeNode(buffer_term(), (Message("put", (3,)), Message("get")))
    [(_, n1)] = run_bounded(n0, max_steps=1)
    assert n1 == KripkeNode(buffer_term(active=data("NonEmpty", 3)), (Message("get"),))
    [(_, n2)] = run_bounded(n1, max_steps=1)
    assert n2 == KripkeNode(buffer_term(active="Empty"), (Message("send", (3,)),))


def test_consume_input_empty_queue():
    idle = KripkeNode(buffer_term(), ())
    assert run_bounded(idle, max_steps=5) == {(idle,)}


def test_run_bounded_reproduces_the_buffer_run():
    start = KripkeNode(buffer_term(), (Message("put", (3,)), Message("get")))
    [run] = run_bounded(start, max_steps=2)
    assert [conf_of(n.term) for n in run] == [
        {"Buffer", "Empty"},
        {"Buffer", data("NonEmpty", 3)},
        {"Buffer", "Empty"},
    ]
    assert run[-1].queue == (Message("send", (3,)),)
    assert run_outputs(run) == (Message("send", (3,)),)


def test_run_bounded_zero_steps():
    start = KripkeNode(buffer_term(), (Message("get"),))
    assert run_bounded(start, max_steps=0) == {(start,)}


def test_run_bounded_stutter_chain_shrinks_queue():
    start = KripkeNode(buffer_term(), (Message("zap"), Message("zap"), Message("zap")))
    [run] = run_bounded(start, max_steps=10)
    assert [len(n.queue) for n in run] == [3, 2, 1, 0]
    assert all(n.term == buffer_term() for n in run)
    assert run_outputs(run) == ()


def test_run_outputs_equals_what_each_step_appended():
    """`run_outputs` reads a run's outputs off the queue heads; they equal
    the tail each step left past the previous queue's rest."""
    def appended(run):
        out = []
        for a, b in zip(run, run[1:]):
            out.extend(b.queue[len(a.queue) - 1:])
        return tuple(out)

    starts = [branch_start("ffgffgff"), KripkeNode(
        encode_guard_free(parse(BUFFER_SC), domain=(-1, 1)),
        tuple(parse_messages("put(1), get(), get(), put(-1), zap(), get()")))]
    for seed in range(30):
        sc = gen_guard_free(seed)
        word = sorted({t.call.name for t in sc.trans}) * 2
        starts.append(KripkeNode(encode_guard_free(sc), tuple(Message(c) for c in word)))
    outputs = 0
    for start in starts:
        for run in run_bounded(start, max_steps=12):
            assert run_outputs(run) == appended(run)
            outputs += len(run_outputs(run))
    assert outputs > 0


def test_run_bounded_ends_with_the_queue_under_a_large_step_bound():
    start = KripkeNode(buffer_term(), (Message("put", (3,)), Message("get")))
    assert run_bounded(start, max_steps=10**12) == run_bounded(start, max_steps=3)


def test_run_bounded_node_cap():
    start = KripkeNode(buffer_term(), (Message("put", (3,)), Message("get")))
    with pytest.raises(StateSpaceBound):
        run_bounded(start, max_steps=5, max_nodes=1)


def test_run_json_output():
    start = KripkeNode(buffer_term(), (Message("put", (3,)),))
    runs = run_bounded(start, max_steps=1)
    data_out = json.loads(runs_to_json(runs))
    assert data_out == [[
        {"term-conf": ["Buffer", "Empty"], "queue": ["put(3)"]},
        {"term-conf": ["Buffer", "NonEmpty(3)"], "queue": []},
    ]]
    assert node_to_json(start)["queue"] == ["put(3)"]


# -- exploration cost: hashes, derivations and runs -------------------------

BRANCH_SC = """
statechart Branch for C <<prio:inner, completion:ignore>> {
    initial state B0;
    state B1;
    state B2;
    B0 -> B1 : f() / out1(1);
    B0 -> B2 : f() / out2(2);
    B1 -> B2 : f() / out1(1);
    B1 -> B0 : f() / out2(2);
    B2 -> B0 : f() / out1(1);
    B2 -> B1 : f() / out2(2);
    B2 -> B0 : g();
}
"""


def branch_start(word="ffgff") -> KripkeNode:
    """Two f() transitions with different outputs leave each state, so a
    word with L f() symbols has 2**L runs."""
    return KripkeNode(encode_guard_free(parse(BRANCH_SC)), tuple(Message(c) for c in word))


def test_terms_symbols_and_nodes_hash_once_to_the_generated_value():
    inner = Or("In", (Basic("a", (Message("en"),)), Basic("b")), 2, frozenset())
    both = And("Both", (inner, Basic("c")), (), (Message("ex", (1,)),))
    [run] = run_bounded(KripkeNode(buffer_term(), (Message("put", (3,)),)), max_steps=1)
    values = [Message("m", (1, (2, True))), *buffer_term().transitions, inner, both,
              Or("Top", (both, Basic("d")), 1, frozenset()), *run]
    slotted = {KripkeNode: ("term", "queue"), Message: ("name", "args", "exception")}
    for x in values:
        names = slotted.get(type(x)) or [f.name for f in fields(x) if f.compare]
        generated = hash(tuple(getattr(x, name) for name in names))
        assert hash(x) == generated and x._hash == generated
        x._hash = -7
        assert hash(x) == -7  # the second hash reads the kept value
        copy = pickle.loads(pickle.dumps(x))  # pickled while the kept value is -7
        x._hash = generated
        # String hashes differ between processes. A node takes its hash at
        # construction; a message keeps empty caches until first use.
        if type(x) is Message:
            assert copy._hash is None and copy._text is None
        elif type(x) is not KripkeNode:
            assert copy._hash is None
        assert copy == x and hash(copy) == generated  # the copy takes its hash afresh


def test_symbol_text_is_rendered_once():
    nested = Message("m", (1, (2, (3, True)), (), False))
    for sym, text in [(Message("get"), "get()"), (Message("put", (-1,)), "put(-1)"),
                      (nested, "m(1, [2, [3, true]], [], false)")]:
        assert str(sym) == text
        assert str(sym) is str(sym)
        assert str(Message(sym.name, sym.args)) == text  # a fresh rendering
        copy = pickle.loads(pickle.dumps(sym))
        assert copy._text is None and str(copy) == text


def test_run_bounded_derives_each_term_and_symbol_step_once(monkeypatch):
    """The steps of every (term, message) pair of an and-free term are
    derived once per exploration, those of the nodes' terms' children
    included: they share the exploration's memo."""
    real, calls = vdb._derive, Counter()

    def counting(t, e, memo, fired):
        calls[t, e] += 1
        return real(t, e, memo, fired)

    monkeypatch.setattr(vdb, "_derive", counting)
    # S0 has substates S1 and S3, and S2 is active while S0 holds either: the
    # pairs of S2 are reached from two top terms
    substate = encode_guard_free(gen_guard_free(173))
    for start, n_runs in [(branch_start("ffgfff"), 2 ** 5),
                          (KripkeNode(substate, tuple(map(Message, "fhfhff"))), 8)]:
        calls.clear()
        runs = run_bounded(start, max_steps=100)
        assert len(runs) == n_runs
        nodes = {n for r in runs for n in r}
        assert len(calls) < len(nodes) and set(calls.values()) == {1}
        assert {t for t, _ in calls} - {n.term for n in nodes}  # children's pairs
        # the derivations are kept for one exploration only
        assert run_bounded(start, max_steps=100) == runs
        assert set(calls.values()) == {2}


def test_run_bounded_builds_each_node_once_after_the_search(monkeypatch):
    """The search runs over numbered terms and messages: a `KripkeNode` is
    built once per distinct node but the start, which is the caller's, and
    none when the node bound stops the search."""
    start, bounded = branch_start("ffgfff"), branch_start("f" * 10)
    real, built = vdb.KripkeNode.__init__, []

    def counting(node, term, queue):
        built.append(node)
        real(node, term, queue)

    monkeypatch.setattr(vdb.KripkeNode, "__init__", counting)
    runs = run_bounded(start, max_steps=100)
    nodes = {n for r in runs for n in r}
    assert len(built) == len(nodes) - 1 and set(built) == nodes - {start}
    assert all(r[0] is start for r in runs)
    built.clear()
    with pytest.raises(StateSpaceBound):
        run_bounded(bounded, max_steps=100, max_nodes=50)
    assert built == []


def test_sorted_runs_orders_by_repr():
    for word in ("", "f", "ffgff"):
        runs = run_bounded(branch_start(word), max_steps=100)
        assert vdb.sorted_runs(runs) == sorted(runs, key=repr)
        assert vdb.sorted_runs(runs, by_length=True) == sorted(runs, key=lambda r: (len(r), repr(r)))


def test_node_text_is_the_node_repr():
    listy = Message("m", ((1, (2, True)), (), -3))
    inner = Or("In", (Basic("a", (listy,)), Basic("b")), 2, frozenset(
        [VdbTransition("t1", 2, frozenset(["b"]), Message("f"), (listy, Message("g")), frozenset(), 1)]))
    both = And("Both", (inner, Basic("c", (), (Message("x", (True,)),))), (listy,), ())
    node_repr = vdb._node_reprs()
    for term in (Basic("solo"), inner, both, Or("Top", (both, Basic("d")), 1, frozenset())):
        for queue in ((), (listy,), (Message("f"), listy, Message("m", ((1, (2, True)), (), -3)))):
            node = KripkeNode(term, queue)
            assert node_repr(node) == repr(node)
            assert node_repr(node) is node_repr(KripkeNode(term, queue))  # built once


def or_senders(n: int) -> And:
    """An and-term of n or-children, child i sending o(i) on f: one f() step
    has n! output orders."""
    return And("A", tuple(
        Or(f"L{i}", (Basic(f"A{i}"), Basic(f"B{i}")), 1, frozenset(
            [VdbTransition(f"t{i}", 1, frozenset(), Message("f"), (Message("o", (i,)),), frozenset(), 2)]))
        for i in range(n)))


def test_and_term_orders_stop_at_the_node_bound():
    # 12! orders: the bound must stop the enumeration, not follow it
    with pytest.raises(StateSpaceBound) as bound:
        run_bounded(KripkeNode(or_senders(12), (Message("f"),)), 100, max_nodes=1000)
    assert str(bound.value) == "more than 1000 distinct nodes"
    assert bound.value.argument == "max_nodes"
    [(_, one)] = run_bounded(KripkeNode(or_senders(1), (Message("f"),)), 1)
    assert one.queue == (Message("o", (0,)),)
    assert len(run_bounded(KripkeNode(or_senders(4), (Message("f"),)), 1)) == 24


def test_run_bounded_run_cap():
    start = branch_start("ffgff")
    assert len(run_bounded(start, max_steps=100, max_runs=16)) == 16
    with pytest.raises(StateSpaceBound) as bound:
        run_bounded(start, max_steps=100, max_runs=15)
    assert str(bound.value) == "more than 15 runs"
    assert bound.value.argument == "max_runs"


def test_run_bounded_reads_no_bound_from_the_environment(monkeypatch):
    start = branch_start("ffgff")
    monkeypatch.setenv("SCFORGE_MAX_RUNS", "4")
    monkeypatch.setenv("SCFORGE_MAX_NODES", "2")
    assert len(run_bounded(start, max_steps=100)) == 16


def test_run_bounded_node_cap_is_reported_before_the_run_cap():
    start = branch_start("ffgff")
    with pytest.raises(StateSpaceBound) as bound:
        run_bounded(start, max_steps=100, max_nodes=10, max_runs=1)
    assert str(bound.value) == "more than 10 distinct nodes"
    assert bound.value.argument == "max_nodes"


# -- encoding ---------------------------------------------------------------

BUFFER_SC = """
statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}
"""


def shape(term):
    """A term with transition names erased, for isomorphism checks."""
    if isinstance(term, Basic):
        return term
    subs = tuple(shape(s) for s in term.subterms)
    if isinstance(term, And):
        return And(term.name, subs, term.entry, term.exit)
    trans = frozenset(
        (tr.i, tr.ns, tr.e, tr.alpha, tr.nt, tr.j, tr.ht) for tr in term.transitions
    )
    return Or(term.name, subs, term.active, trans, term.entry, term.exit)


def test_encode_buffer_matches_the_handwritten_term():
    sc = parse(BUFFER_SC)
    term = encode_guard_free(sc, domain=DOMAIN)
    assert shape(term) == shape(buffer_term())


def test_encode_single_state_no_transitions():
    sc = parse("statechart D for C { initial state A; }")
    term = encode_guard_free(sc)
    assert term == Or("D", (Basic("A"),), 1, frozenset())


def test_encode_rejects_guards():
    sc = parse("statechart D for C { initial state A; A -> A : [v == 1] f(); }")
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(sc)
    assert any("guard" in msg for msg in e.value.offending)


@pytest.mark.parametrize("text", [
    "statechart A for C { initial state A; A -> A : f(); }",
    "statechart A for C { initial state B { initial state A; } B -> B : f(); }",
], ids=["flat", "nested"])
def test_encode_rejects_a_state_named_as_the_chart(text):
    # the top or-term takes the chart's name, so the state could not keep its own
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(parse(text))
    assert e.value.offending == ["state A has the chart's name"]


@pytest.mark.parametrize("text, problem", [
    ("<<exception>> state X; A -> X : throw f();", "transition A->X has a throw trigger"),
    ("A -> A : f() / throw o();", "transition A->A sends an exception"),
    ("state B { entry / throw o(); } A -> B : f();", "state B entry sends an exception"),
    ("state B { initial state In { exit / throw o(); } } A -> B : f();",
     "state In exit sends an exception"),
], ids=["trigger", "send", "entry", "nested-exit"])
def test_encode_rejects_exception_events(text, problem):
    # the term semantics has no exception events, so the flag cannot be kept
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(parse(f"statechart D for C {{ initial state A; {text} }}"))
    assert e.value.offending == [problem]


@pytest.mark.parametrize("body, problem", [
    ("state B { do / d(); }", "state B has a do action"),
    ("state B { -> g() / o(); }", "state B has internal transitions"),
    ("state B { entry / v = 1; }", "state B entry is not a ground send sequence"),
    ("state B { exit / o(v); }", "state B exit is not a ground send sequence"),
], ids=["do", "internal", "entry-assign", "exit-reads"])
def test_encode_rejects_state_actions_the_term_cannot_keep(body, problem):
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(parse(f"statechart D for C {{ initial state A; {body} A -> B : f(); }}"))
    assert e.value.offending == [problem]


def test_encode_rejects_multiple_data_variables():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : f(x) / v = x & w = x;
        }
        """
    )
    with pytest.raises(NotGuardFree):
        encode_guard_free(sc, domain=(0, 1))


def test_encode_requires_domain_for_data():
    sc = parse(BUFFER_SC)
    with pytest.raises(UnboundedValueDomain):
        encode_guard_free(sc)


def test_encode_value_escaping_domain():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            state B;
            A -> B : f(x) / v = x + 1;
            B -> A : g() / send(v);
        }
        """
    )
    with pytest.raises(UnboundedValueDomain):
        encode_guard_free(sc, domain=(0, 1))


def test_encode_tells_a_true_value_from_the_domain_value_one():
    """`v = true` holds no value of the domain (1,), so the encoding cannot
    put `N(1)` in its place and later send `o(1)` where the chart sends
    `o(true)`."""
    sc = parse("statechart B for C { initial state E; state N; "
               "E -> N : f() / v = true; N -> E : g() / o(v); }")
    with pytest.raises(UnboundedValueDomain, match="^value True escapes the supplied domain$"):
        encode_guard_free(sc, domain=(1,))


@pytest.mark.parametrize("domain", [(1, True), (True, 1), (1, True, 1, True)])
def test_encode_keeps_true_and_one_apart_in_the_domain(domain):
    """`true` and `1` are two domain values, each held once in its own
    state: `v = true` goes to `N(true)`, whose `g()` sends `o(true)`."""
    sc = parse("statechart B for C { initial state E; state N; "
               "E -> N : f() / v = true; N -> E : g() / o(v); }")
    term = encode_guard_free(sc, domain=domain)
    names = [s.name for s in term.subterms]
    assert sorted(names) == ["E", "N(1)", "N(true)"]
    assert names[1:] == (["N(true)", "N(1)"] if domain[0] is True else ["N(1)", "N(true)"])
    runs = run_bounded(KripkeNode(term, (Message("f"), Message("g"))), 10)
    assert [run_outputs(r) for r in runs] == [(Message("o", (True,)),)]


@pytest.mark.parametrize("action, domain, name", [
    ("f() / send(v)", None, "v"),
    ("f(x) / send(w)", (0, 1), "w"),
    ("f(x) / v = w & send(v)", (0, 1), "w"),
])
def test_encode_rejects_reads_of_unassigned_variables(action, domain, name):
    sc = parse(f"statechart D for C {{ initial state A; A -> A : {action}; }}")
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(sc, domain=domain)
    assert e.value.offending == [
        f"transition A->A reads {name}, which is neither the data variable nor the event parameter"
    ]


def test_encode_hierarchy_to_nested_or():
    sc = parse(
        """
        statechart D for C {
            initial state Top {
                initial state In1;
                state In2;
                In1 -> In2 : f() / send(1);
            }
            state Other;
            Top -> Other : g() / send(2);
        }
        """
    )
    term = encode_guard_free(sc)
    assert isinstance(term, Or) and term.name == "D"
    [top, other] = term.subterms
    assert isinstance(top, Or) and top.name == "Top"
    assert [s.name for s in top.subterms] == ["In1", "In2"]
    assert other == Basic("Other")
    validate_term(term)


def test_encode_hierarchy_rejects_interlevel_transitions():
    sc = parse(
        """
        statechart D for C {
            initial state Top { initial state In1; }
            state Other;
            In1 -> Other : f();
        }
        """
    )
    with pytest.raises(NotGuardFree) as e:
        encode_guard_free(sc)
    assert any("crosses" in m for m in e.value.offending)


def test_encode_entry_exit_to_action_seqs():
    sc = parse(
        """
        statechart D for C {
            initial state A { exit / bye(); }
            state B { entry / hi(1); }
            A -> B : f();
        }
        """
    )
    term = encode_guard_free(sc)
    [a, b] = term.subterms
    assert a == Basic("A", (), (Message("bye"),))
    assert b == Basic("B", (Message("hi", (1,)),), ())
    out = aux_step(term, Message("f"))
    assert {alpha for alpha, _, _ in out} == {(Message("bye"), Message("hi", (1,)))}


def test_validate_term_rejects_duplicates():
    with pytest.raises(ValueError):
        validate_term(Or("n", (Basic("a"), Basic("a")), 1, frozenset()))
    with pytest.raises(ValueError):
        validate_term(Or("n", (Basic("n"),), 1, frozenset()))


# -- agreement with the flat interpreter ------------------------------------

def test_hierarchical_chart_agrees_with_flattened_interpretation():
    text = """
    statechart D for C <<prio:inner, completion:ignore>> {
        initial state Top {
            initial state In1;
            state In2;
            In1 -> In2 : f() / send(1);
            In2 -> In1 : g() / send(2);
        }
        state Other;
        Top -> Other : g() / send(3);
        Other -> Top : f() / send(4);
    }
    """
    term = encode_guard_free(parse(text))
    flat, _ = transform_fixpoint(parse(text))
    machine = to_simplified(flat)
    for inputs in itertools.product(["f()", "g()"], repeat=3):
        syms = tuple(Message(i[:-2]) for i in inputs)
        runs = run_bounded(KripkeNode(term, syms), max_steps=10)
        vdb_emissions = {run_outputs(r) for r in runs}
        msgs = tuple(parse_message(i) for i in inputs)
        flat_emissions = {
            tuple(Message(m.name, m.args) for m in em)
            for em, kind in explore_emissions(machine, "In1", msgs)
            if kind == "quiescent"
        }
        assert vdb_emissions == flat_emissions, inputs


def test_term_and_flat_outputs_compare_as_values():
    """Both semantics emit `Message` values, so their output sets compare
    as they are."""
    sc = parse(BUFFER_SC)
    msgs = parse_messages("put(1), get(), get()")
    runs = run_bounded(KripkeNode(encode_guard_free(sc, domain=(-1, 1)), tuple(msgs)), 10)
    flat, _ = transform_fixpoint(sc)
    explored = explore_emissions(to_simplified(flat), "Empty", msgs)
    quiescent = {em for em, kind in explored if kind == "quiescent"}
    assert {run_outputs(r) for r in runs} == quiescent == {
        (Message("send", (1,)), Message("send", (-1,)))}


# -- s-expression format ----------------------------------------------------

def test_sexpr_round_trip_buffer():
    t = buffer_term()
    assert term_from_sexpr(term_to_sexpr(t)) == t


def test_sexpr_quotes_nonplain_names():
    text = term_to_sexpr(Basic("NonEmpty(3)"))
    assert "|NonEmpty(3)|" in text
    assert term_from_sexpr(text) == Basic("NonEmpty(3)")


@pytest.mark.parametrize("name", ["(", ")", "\\", "a\\b", "|", "a|b", "\\|", "( )", ""])
def test_sexpr_round_trips_names_with_delimiters_and_escapes(name):
    t = Basic(name, (Message(name, (1,)),), ())
    assert term_from_sexpr(term_to_sexpr(t)) == t


def test_sexpr_refuses_a_thrown_message():
    """The term semantics has no exception events, so the text does not
    write `throw o(1)` as the plain `o(1)` it would read back as."""
    with pytest.raises(ValueError, match=r"^the term text has no exception messages: throw o\(1\)$"):
        term_to_sexpr(Basic("A", (Message("o", (1,), True),), ()))
    assert term_to_sexpr(Basic("A", (Message("o", (1,)),), ())) == "(basic A ((o 1)) ())"


def test_sexpr_errors():
    with pytest.raises(ValueError, match=r"^expected basic/and/or, not \['bogus', 'A', \[\], \[\]\]$"):
        term_from_sexpr("(bogus A () ())")
    with pytest.raises(ValueError, match="^basic takes 3 fields, not 2$"):
        term_from_sexpr("(basic A ())")


@pytest.mark.parametrize("text, message", [
    ("|abc", "unterminated |...| atom"),
    ("(basic |a\\", "unterminated |...| atom"),
    ("(basic A ()", "missing closing parenthesis"),
    (")", "unexpected closing parenthesis"),
    ("", "unexpected end of input"),
    (" \n\t\u3000", "unexpected end of input"),
    ("(basic A () ()) x", "trailing input after term"),
    ("(basic A\u2003B () ())", "basic takes 3 fields, not 4"),  # the blank ends A
    ("(or Root ((basic A () ()) (basic A () ())) 1 ((trans t1 1 () (f) ((o)) () 2 none)) () ())",
     "duplicate state name 'A'"),
    ("(and Root ((basic Root () ())) () ())", "duplicate state name 'Root'"),
    ("(or R ((or A ((basic B () ())) 1 ((trans t 1 () (f) () () 1 none)) () ()) (basic C () ()))"
     " 1 ((trans t 1 () (g) () () 2 none)) () ())", "duplicate transition name 't'"),
    ("(or Root ((basic A () ()) (basic B () ())) 1 ((trans t1 1 (Zed) (f) ((o)) () 2 none)) () ())",
     "'t1': source restriction 'Zed' is not in its source"),
    ("(or Root ((basic A () ()) (basic B () ())) 1 ((trans t1 1 (B) (f) ((o)) () 2 none)) () ())",
     "'t1': source restriction 'B' is not in its source"),
], ids=["open-quote", "escaped-end", "unclosed", "stray-close", "empty", "blank", "trailing",
        "blank-ends-atom", "sibling-states", "parent-and-child", "transitions",
        "restriction-unknown", "restriction-in-a-sibling"])
def test_sexpr_error_lines(text, message):
    with pytest.raises(ValueError) as err:
        term_from_sexpr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, term", [
    ("(basic |a\\|b| () ())", Basic("a|b")),
    ("(basic |a\\\nb| () ())", Basic("a\nb")),
    ("(basic\u2003A\x0b()\u3000())", Basic("A")),
], ids=["escaped-bar", "escaped-newline", "unicode-blanks"])
def test_sexpr_escapes_and_unicode_blanks(text, term):
    assert term_from_sexpr(text) == term


names = st.sampled_from(["a", "b", "c", "d", "e", "f-1", "weird name!"])
syms = st.builds(Message, names, st.tuples(st.integers(-3, 3)) | st.just(()))
seqs = st.lists(syms, max_size=2).map(tuple)


@st.composite
def terms(draw, depth=2):
    kind = draw(st.sampled_from(["basic", "or", "and"] if depth else ["basic"]))
    # names get uniquified after construction; use placeholders here
    if kind == "basic":
        return Basic(draw(names), draw(seqs), draw(seqs))
    subs = tuple(draw(terms(depth=depth - 1)) for _ in range(draw(st.integers(1, 2))))
    if kind == "and":
        return And(draw(names), subs, draw(seqs), draw(seqs))
    k = len(subs)
    n_trans = draw(st.integers(0, 2))
    trans = frozenset(
        VdbTransition(
            f"t{idx}",
            draw(st.integers(1, k)),
            frozenset(),
            draw(syms),
            draw(seqs),
            frozenset(),
            draw(st.integers(1, k)),
            draw(st.sampled_from(["none", "deep", "shallow"])),
        )
        for idx in range(n_trans)
    )
    return Or(draw(names), subs, draw(st.integers(1, k)), trans, draw(seqs), draw(seqs))


def uniquify(term, counter=None):
    """term with pairwise distinct state and transition names, as
    `validate_term` requires."""
    counter = counter if counter is not None else itertools.count()
    fresh = f"{term.name}#{next(counter)}"
    if isinstance(term, Basic):
        return Basic(fresh, term.entry, term.exit)
    subs = tuple(uniquify(s, counter) for s in term.subterms)
    if isinstance(term, And):
        return And(fresh, subs, term.entry, term.exit)
    trans = frozenset(replace(tr, tname=f"{fresh}.{tr.tname}") for tr in term.transitions)
    return Or(fresh, subs, term.active, trans, term.entry, term.exit)


@settings(max_examples=80, deadline=None)
@given(terms(), syms)
def test_stutter_soundness(t, e):
    t = uniquify(t)
    out = aux_step(t, e)
    assert out
    for alpha, f, t2 in out:
        if f == 0:
            assert alpha == () and t2 == t


def every_order_seqs(t, exiting):
    """Entry or exit sequences with the children of an and-term taking turns
    in every order, silent ones included."""
    own = t.exit if exiting else t.entry
    if isinstance(t, Basic):
        inner = [()]
    elif isinstance(t, Or):
        inner = every_order_seqs(t.subterms[t.active - 1], exiting)
    else:
        inner = [sum(parts, ()) for perm in itertools.permutations(t.subterms)
                 for parts in itertools.product(*(every_order_seqs(s, exiting) for s in perm))]
    return {b + own if exiting else own + b for b in inner}


@settings(max_examples=80, deadline=None)
@given(st.lists(terms(depth=1), min_size=1, max_size=4), seqs, syms)
def test_and_terms_interleave_their_children_in_every_order(kids, own, e):
    t = uniquify(And("n", tuple(kids), own, own))
    assert entry_seqs(t) == every_order_seqs(t, exiting=False)
    assert exit_seqs(t) == every_order_seqs(t, exiting=True)
    steps = [aux_step(s, e) for s in t.subterms]
    assert aux_step(t, e) == {
        (sum((combo[k][0] for k in perm), ()), max(f for _, f, _ in combo),
         replace(t, subterms=tuple(s for _, _, s in combo)))
        for combo in itertools.product(*steps) for perm in itertools.permutations(range(len(combo)))
    }


@settings(max_examples=80, deadline=None)
@given(terms())
def test_sexpr_round_trip_random_terms(t):
    t = uniquify(t)
    assert term_from_sexpr(term_to_sexpr(t)) == t


@settings(max_examples=60, deadline=None)
@given(terms())
def test_forced_names_become_active(t):
    t = uniquify(t)
    for target in sorted(conf_of(t)):
        out = next_state("none", frozenset([target]), t)
        assert target in conf_of(out)


# -- the eager exploration, kept as a reference ------------------------------

def naive_aux_step(t, e):
    """The auxiliary steps derived eagerly: every combination of the
    children's steps and every order of all children of an and-term."""
    if isinstance(t, Basic):
        return {((), 0, t)}
    if isinstance(t, And):
        out = set()
        for combo in itertools.product(*(naive_aux_step(s, e) for s in t.subterms)):
            f = max(f for _, f, _ in combo)
            term = replace(t, subterms=tuple(s for _, _, s in combo))
            out.update((sum((combo[k][0] for k in perm), ()), f, term)
                       for perm in itertools.permutations(range(len(combo))))
        return out
    active = t.subterms[t.active - 1]
    out = {(a, 1, replace(t, subterms=t.subterms[:t.active - 1] + (s,) + t.subterms[t.active:]))
           for a, f, s in naive_aux_step(active, e) if f == 1}
    if not out:
        for tr in t.transitions:
            if tr.i == t.active and tr.e == e and tr.ns <= conf_of(active):
                target = next_state(tr.ht, tr.nt, t.subterms[tr.j - 1])
                term = replace(t, subterms=t.subterms[:tr.j - 1] + (target,) + t.subterms[tr.j:],
                               active=tr.j)
                out |= {(e1 + tr.alpha + e2, 1, term) for e1 in every_order_seqs(active, True)
                        for e2 in every_order_seqs(target, False)}
    return out or {((), 0, t)}


def naive_run_bounded(start, max_steps, max_nodes=10000, max_runs=100000):
    """`run_bounded` as it was before exploration went lazy: each node's
    successors derived eagerly, breadth first, then every run prefix copied
    onto a stack."""
    memo, succs, nodes_seen = {}, {}, {start}
    level, depth = [start], 0
    while level and depth < max_steps:
        depth += 1
        deeper = []
        for node in level:
            succs[node] = nxt = set()
            if not node.queue:
                continue
            e, rest = node.queue[0], node.queue[1:]
            if (node.term, e) not in memo:
                memo[node.term, e] = naive_aux_step(node.term, e)
            for alpha, _, term in memo[node.term, e]:
                n = KripkeNode(term, rest + alpha)
                nxt.add(n)
                if n not in nodes_seen:
                    nodes_seen.add(n)
                    if len(nodes_seen) > max_nodes:
                        raise StateSpaceBound(f"more than {max_nodes} distinct nodes", "max_nodes")
                    deeper.append(n)
        level = deeper
    runs, stack = [], [(start,)]
    while stack:
        path = stack.pop()
        nxt = succs[path[-1]] if len(path) <= max_steps else ()
        if not nxt:
            runs.append(path)
            if len(runs) > max_runs:
                raise StateSpaceBound(f"more than {max_runs} runs", "max_runs")
            continue
        stack.extend(path + (node,) for node in nxt)
    return frozenset(runs)


# few messages, so that outputs trigger transitions and children's outputs repeat
FEW = (Message("f"), Message("g"), Message("o", (1,)), Message("o", (True,)))
few_syms = st.sampled_from(FEW)
few_seqs = st.lists(few_syms, max_size=2).map(tuple)
words = st.lists(st.sampled_from(FEW[:1] * 3 + FEW), min_size=1, max_size=3).map(tuple)


@st.composite
def emitting_terms(draw, depth=2, kinds=("and", "or", "basic")):
    """Terms over `few_syms` whose transitions mostly leave the active child;
    and-terms have up to five children."""
    kind = draw(st.sampled_from(kinds if depth else ["basic"]))
    if kind == "basic":
        return Basic("s", draw(few_seqs), draw(few_seqs))
    subs = tuple(draw(emitting_terms(depth - 1))
                 for _ in range(draw(st.integers(1, 5 if kind == "and" else 3))))
    if kind == "and":
        return And("n", subs, draw(few_seqs), draw(few_seqs))
    k = len(subs)
    active = draw(st.integers(1, k))
    trans = frozenset(
        VdbTransition(f"t{idx}", draw(st.sampled_from([active, *range(1, k + 1)])), frozenset(),
                      draw(st.sampled_from(FEW[:1] * 3 + FEW)), draw(few_seqs), frozenset(),
                      draw(st.integers(1, k)),
                      draw(st.sampled_from(["none", "deep", "shallow"])))
        for idx in range(draw(st.integers(1, 3))))
    return Or("n", subs, active, trans, draw(few_seqs), draw(few_seqs))


# an and-term of up to five children that mostly send on a step
and_of_senders = st.builds(
    And, st.just("n"),
    st.lists(emitting_terms(depth=1, kinds=("or",)) | emitting_terms(depth=1), min_size=2, max_size=5)
    .map(tuple), few_seqs, few_seqs)


def outcome(explore, *args):
    try:
        return explore(*args)
    except StateSpaceBound as bound:
        return str(bound), bound.argument


@settings(max_examples=200, deadline=None)
@given(and_of_senders | emitting_terms(), words, st.integers(0, 3), st.integers(1, 80),
       st.integers(1, 20))
def test_run_bounded_matches_the_eager_exploration(t, word, max_steps, max_nodes, max_runs):
    t = uniquify(t)
    for e in set(word):
        assert aux_step(t, e) == naive_aux_step(t, e)
    args = KripkeNode(t, word), max_steps, max_nodes, max_runs
    assert outcome(run_bounded, *args) == outcome(naive_run_bounded, *args)
