"""Tests for the term-based statemachine semantics."""

from __future__ import annotations

import itertools
import json
import pickle
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from scforge import vdb
from scforge.flatinterp import explore_emissions, parse_message
from scforge.parse import parse
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import (
    And,
    Basic,
    KripkeNode,
    NotGuardFree,
    Or,
    StateSpaceBound,
    Sym,
    Term,
    UnboundedValueDomain,
    UnknownTargetName,
    VdbTransition,
    aux_step,
    conf_of,
    consume_input,
    drop_join,
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
    trans.add(VdbTransition(f"t{next(n)}", 1, frozenset(), Sym("get"),
                            (Sym("send", (-1,)),), frozenset(), 1))
    for i in domain:
        trans.add(VdbTransition(f"t{next(n)}", 1, frozenset(), Sym("put", (i,)),
                                (), frozenset(), index[data("NonEmpty", i)]))
    for v in domain:
        src = index[data("NonEmpty", v)]
        trans.add(VdbTransition(f"t{next(n)}", src, frozenset(), Sym("get"),
                                (Sym("send", (v,)),), frozenset(), 1))
        for i in domain:
            trans.add(VdbTransition(f"t{next(n)}", src, frozenset(), Sym("put", (i,)),
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
    assert entry_seqs(Basic("A", entry=(Sym("p"),))) == {(Sym("p"),)}


def test_entry_seqs_and_permutes_children():
    t = And("n", (Basic("a", entry=(Sym("p"),)), Basic("b", entry=(Sym("q"),))))
    assert entry_seqs(t) == {(Sym("p"), Sym("q")), (Sym("q"), Sym("p"))}


def test_exit_seqs_children_before_self():
    t = Or("n", (Basic("a", exit=(Sym("p"),)),), 1, frozenset(), exit=(Sym("x"),))
    assert exit_seqs(t) == {(Sym("p"), Sym("x"))}
    t2 = And("n", (Basic("a", exit=(Sym("p"),)), Basic("b", exit=(Sym("q"),))),
             exit=(Sym("x"),))
    assert exit_seqs(t2) == {(Sym("p"), Sym("q"), Sym("x")), (Sym("q"), Sym("p"), Sym("x"))}


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
    assert aux_step(b, Sym("anything")) == {((), 0, b)}


def test_aux_step_buffer_put():
    out = aux_step(buffer_term(), Sym("put", (3,)))
    assert out == {((), 1, buffer_term(active=data("NonEmpty", 3)))}


def test_aux_step_buffer_get_after_put():
    out = aux_step(buffer_term(active=data("NonEmpty", 3)), Sym("get"))
    assert out == {((Sym("send", (3,)),), 1, buffer_term(active="Empty"))}


def test_aux_step_unmatched_event_stutters():
    t = buffer_term()
    assert aux_step(t, Sym("zap")) == {((), 0, t)}


def test_aux_step_inner_priority():
    inner = Or(
        "A",
        (Basic("X"), Basic("Y")),
        1,
        frozenset([VdbTransition("ti", 1, frozenset(), Sym("f"), (Sym("in_"),), frozenset(), 2)]),
    )
    outer = Or(
        "Root",
        (inner, Basic("B")),
        1,
        frozenset([VdbTransition("to", 1, frozenset(), Sym("f"), (Sym("out_"),), frozenset(), 2)]),
    )
    out = aux_step(outer, Sym("f"))
    assert all(f == 1 for _, f, _ in out)
    # only the inner transition fires; the outer one is pre-empted
    assert {a for a, _, _ in out} == {(Sym("in_"),)}
    # once X cannot react, the outer transition takes over
    inner2 = Or("A", (Basic("X"), Basic("Y")), 2, inner.transitions)
    outer2 = Or("Root", (inner2, Basic("B")), 1, outer.transitions)
    out2 = aux_step(outer2, Sym("f"))
    assert {a for a, _, _ in out2} == {(Sym("out_"),)}


def test_aux_step_or1_wraps_exit_and_entry_actions():
    src = Basic("S", exit=(Sym("xs"),))
    trg = Basic("T", entry=(Sym("et"),))
    t = Or("n", (src, trg), 1,
           frozenset([VdbTransition("t1", 1, frozenset(), Sym("f"), (Sym("a"),), frozenset(), 2)]))
    out = aux_step(t, Sym("f"))
    assert {a for a, _, _ in out} == {(Sym("xs"), Sym("a"), Sym("et"))}


def test_aux_step_and_ors_flags_and_permutes_outputs():
    fires = Or("L", (Basic("x"), Basic("y")), 1,
               frozenset([VdbTransition("t1", 1, frozenset(), Sym("f"), (Sym("a"),), frozenset(), 2)]))
    t = And("n", (fires, Basic("z")))
    out = aux_step(t, Sym("f"))
    assert {f for _, f, _ in out} == {1}
    # the stuttering sibling contributes an empty block in every order
    assert {a for a, _, _ in out} == {(Sym("a"),)}


def test_aux_step_source_restriction():
    inner = Or("A", (Basic("X"), Basic("Y")), 1, frozenset())
    t = Or(
        "n",
        (inner, Basic("B")),
        1,
        frozenset([VdbTransition("t1", 1, frozenset(["Y"]), Sym("f"), (), frozenset(), 2)]),
    )
    # X is active, not Y: the source restriction blocks the transition
    assert aux_step(t, Sym("f")) == {((), 0, t)}
    t2 = Or("n", (Or("A", inner.subterms, 2, frozenset()), Basic("B")), 1, t.transitions)
    assert {f for _, f, _ in aux_step(t2, Sym("f"))} == {1}


# -- Kripke steps and runs --------------------------------------------------

def test_consume_input_buffer_run_steps():
    n0 = KripkeNode(buffer_term(), (Sym("put", (3,)), Sym("get")))
    [n1] = consume_input(n0)
    assert n1 == KripkeNode(buffer_term(active=data("NonEmpty", 3)), (Sym("get"),))
    [n2] = consume_input(n1)
    assert n2 == KripkeNode(buffer_term(active="Empty"), (Sym("send", (3,)),))


def test_consume_input_empty_queue():
    assert consume_input(KripkeNode(buffer_term(), ())) == frozenset()


def test_run_bounded_reproduces_the_buffer_run():
    start = KripkeNode(buffer_term(), (Sym("put", (3,)), Sym("get")))
    [run] = run_bounded(start, max_steps=2)
    assert [conf_of(n.term) for n in run] == [
        {"Buffer", "Empty"},
        {"Buffer", data("NonEmpty", 3)},
        {"Buffer", "Empty"},
    ]
    assert run[-1].queue == (Sym("send", (3,)),)
    assert run_outputs(run) == (Sym("send", (3,)),)


def test_run_bounded_zero_steps():
    start = KripkeNode(buffer_term(), (Sym("get"),))
    assert run_bounded(start, max_steps=0) == {(start,)}


def test_run_bounded_stutter_chain_shrinks_queue():
    start = KripkeNode(buffer_term(), (Sym("zap"), Sym("zap"), Sym("zap")))
    [run] = run_bounded(start, max_steps=10)
    assert [len(n.queue) for n in run] == [3, 2, 1, 0]
    assert all(n.term == buffer_term() for n in run)
    assert run_outputs(run) == ()


def test_run_bounded_ends_with_the_queue_under_a_large_step_bound():
    start = KripkeNode(buffer_term(), (Sym("put", (3,)), Sym("get")))
    assert run_bounded(start, max_steps=10**12) == run_bounded(start, max_steps=3)


def test_run_bounded_node_cap():
    start = KripkeNode(buffer_term(), (Sym("put", (3,)), Sym("get")))
    with pytest.raises(StateSpaceBound):
        run_bounded(start, max_steps=5, max_nodes=1)


def test_drop_join_filters_outputs():
    start = KripkeNode(buffer_term(), (Sym("get"),))
    [n1] = consume_input(start, join=drop_join(["put", "get"]))
    assert n1.queue == ()  # send(-1) is not in the event alphabet


def test_run_json_output():
    start = KripkeNode(buffer_term(), (Sym("put", (3,)),))
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
    return KripkeNode(encode_guard_free(parse(BRANCH_SC)), tuple(Sym(c) for c in word))


def test_terms_symbols_and_nodes_hash_once_to_the_generated_value():
    inner = Or("In", (Basic("a", (Sym("en"),)), Basic("b")), 2, frozenset())
    both = And("Both", (inner, Basic("c")), (), (Sym("ex", (1,)),))
    [run] = run_bounded(KripkeNode(buffer_term(), (Sym("put", (3,)),)), max_steps=1)
    values = [Sym("m", (1, (2, True))), *buffer_term().transitions, inner, both,
              Or("Top", (both, Basic("d")), 1, frozenset()), *run]
    for x in values:
        generated = hash(tuple(getattr(x, f.name) for f in fields(x)))
        assert hash(x) == generated and vars(x)["_hash"] == generated
        object.__setattr__(x, "_hash", -7)
        assert hash(x) == -7  # the second hash reads the kept value
        object.__setattr__(x, "_hash", generated)
        copy = pickle.loads(pickle.dumps(x))
        assert "_hash" not in vars(copy)  # string hashes differ between processes
        assert copy == x and hash(copy) == generated


def test_symbol_text_is_rendered_once():
    nested = Sym("m", (1, (2, (3, True)), (), False))
    for sym, text in [(Sym("get"), "get()"), (Sym("put", (-1,)), "put(-1)"),
                      (nested, "m(1, [2, [3, true]], [], false)")]:
        assert str(sym) == text
        assert str(sym) is str(sym)
        assert str(Sym(sym.name, sym.payload)) == text  # a fresh rendering
        copy = pickle.loads(pickle.dumps(sym))
        assert "_text" not in vars(copy) and str(copy) == text


def test_run_bounded_derives_each_term_and_symbol_step_once(monkeypatch):
    real, depth, calls = vdb.aux_step, [0], Counter()

    def counting(t, e):
        if not depth[0]:  # count calls from outside aux_step only
            calls[t, e] += 1
        depth[0] += 1
        try:
            return real(t, e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(vdb, "aux_step", counting)
    start = branch_start("ffgfff")
    runs = run_bounded(start, max_steps=100)
    assert len(runs) == 2 ** 5
    nodes = {n for r in runs for n in r}
    assert len(calls) < len(nodes) and set(calls.values()) == {1}
    # the derivations are kept for one exploration only
    assert run_bounded(start, max_steps=100) == runs
    assert set(calls.values()) == {2}


def test_sorted_runs_orders_by_repr():
    for word in ("", "f", "ffgff"):
        runs = run_bounded(branch_start(word), max_steps=100)
        assert vdb.sorted_runs(runs) == sorted(runs, key=repr)
        assert vdb.sorted_runs(runs, by_length=True) == sorted(runs, key=lambda r: (len(r), repr(r)))


def test_run_bounded_run_cap():
    start = branch_start("ffgff")
    assert len(run_bounded(start, max_steps=100, max_runs=16)) == 16
    with pytest.raises(StateSpaceBound) as bound:
        run_bounded(start, max_steps=100, max_runs=15)
    assert str(bound.value) == "more than 15 runs"
    assert bound.value.variable == "SCFORGE_MAX_RUNS"


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
    assert bound.value.variable == "SCFORGE_MAX_NODES"


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
    assert a == Basic("A", (), (Sym("bye"),))
    assert b == Basic("B", (Sym("hi", (1,)),), ())
    out = aux_step(term, Sym("f"))
    assert {alpha for alpha, _, _ in out} == {(Sym("bye"), Sym("hi", (1,)))}


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
        syms = tuple(Sym(i[:-2]) for i in inputs)
        runs = run_bounded(KripkeNode(term, syms), max_steps=10)
        vdb_emissions = {run_outputs(r) for r in runs}
        msgs = tuple(parse_message(i) for i in inputs)
        flat_emissions = {
            tuple(Sym(m.name, m.args) for m in em)
            for em, kind in explore_emissions(machine, "In1", msgs)
            if kind == "quiescent"
        }
        assert vdb_emissions == flat_emissions, inputs


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
    t = Basic(name, (Sym(name, (1,)),), ())
    assert term_from_sexpr(term_to_sexpr(t)) == t


def test_sexpr_errors():
    with pytest.raises(ValueError):
        term_from_sexpr("(basic A ()")  # unbalanced
    with pytest.raises(ValueError):
        term_from_sexpr("(bogus A () ())")
    with pytest.raises(ValueError):
        term_from_sexpr("(basic A () ()) trailing")


names = st.sampled_from(["a", "b", "c", "d", "e", "f-1", "weird name!"])
syms = st.builds(Sym, names, st.tuples(st.integers(-3, 3)) | st.just(()))
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
    counter = counter if counter is not None else itertools.count()
    fresh = f"{term.name}#{next(counter)}"
    if isinstance(term, Basic):
        return Basic(fresh, term.entry, term.exit)
    subs = tuple(uniquify(s, counter) for s in term.subterms)
    if isinstance(term, And):
        return And(fresh, subs, term.entry, term.exit)
    return Or(fresh, subs, term.active, term.transitions, term.entry, term.exit)


@settings(max_examples=80, deadline=None)
@given(terms(), syms)
def test_stutter_soundness(t, e):
    t = uniquify(t)
    out = aux_step(t, e)
    assert out
    for alpha, f, t2 in out:
        if f == 0:
            assert alpha == () and t2 == t


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
