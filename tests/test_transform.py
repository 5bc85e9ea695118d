"""Tests for the rewrite rules, structural queries, and the fixpoint engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from scforge.actions import (
    Action,
    Assign,
    Call,
    CAnd,
    CCmp,
    CFalse,
    Check,
    CMatch,
    CNot,
    COr,
    CTrue,
    CVar,
    EBin,
    ECons,
    ELit,
    EList,
    EVar,
    Message,
    PCons,
    PEmpty,
    PLit,
    PPlus,
    PVar,
    Send,
    SetTimer,
    StopTimer,
    TIMEOUT,
    TRUE,
    reads,
)
import gc
import importlib
import pickle
import pkgutil
import random
from collections import Counter
from copy import deepcopy
from dataclasses import fields, replace
from functools import cached_property

import scforge
from scforge import transform
from scforge.vdb import And, Basic, KripkeNode, Or, VdbTransition
from scforge.wellformed import SignatureContext, Violation
from scforge.flatinterp import (Chaos, Configuration, InvariantViolated, PostconditionViolated, Step,
                                explore_emissions, parse_message, run)
from scforge.ast import ChartIndex, FullState, InternT, SCFull, SCSimp, Trans, trans_key, updated
from scforge.gen import gen_chart, gen_guard_free
from scforge.parse import parse
from scforge.printer import print_call, print_chart, print_cond, print_stmt
from scforge.transform import (
    Binding,
    BindingStale,
    NotSimplifiable,
    TraceEntry,
    ENGINE_STEP_NAMES,
    RULE_NAMES,
    RULES,
    IllFormedInput,
    apply_rule,
    chart_hash,
    crossed_superstates,
    find_bindings,
    flat_and_simplified,
    final_irrelevant,
    initial_irrelevant,
    simple_state,
    substates,
    to_simplified,
    transform_fixpoint,
)
from scforge.wellformed import check_all


RULE_NUMBERS = {name: num for num, name in RULE_NAMES.items()}


def rule(name: str) -> int:
    return RULE_NUMBERS[name]


NESTED = parse(
    """
    statechart D for C {
        initial state A {
            initial state X;
            state Y;
        }
        state B;
        A -> B : f();
    }
    """
)


# -- structural queries -----------------------------------------------------

def test_substates_superstates():
    a, x = NESTED.state("A"), NESTED.state("X")
    assert substates(a, NESTED) == {x, NESTED.state("Y")}
    assert NESTED.index.ancestors["X"] == ("A",)
    assert substates(x, NESTED) == set()


def test_top_initial():
    assert NESTED.index.top_names["initial"] == {"A"}
    no_init = parse("statechart D for C { state A; }")
    assert not no_init.index.top_names["initial"]


def test_simple_state():
    assert not simple_state(NESTED.state("A"), NESTED)
    assert simple_state(NESTED.state("X"), NESTED)
    with_do = parse("statechart D for C { initial state A { do / d(); } }")
    assert not simple_state(with_do.state("A"), with_do)


def test_lcs():
    sc = NESTED
    x, y, a, b = sc.state("X"), sc.state("Y"), sc.state("A"), sc.state("B")
    assert crossed_superstates(x, "Y", sc) == []  # siblings meet at their parent
    assert crossed_superstates(a, "B", sc) == []  # two top-level states share nothing
    assert crossed_superstates(x, "X", sc) == []  # strict superstates only
    assert crossed_superstates(x, "B", sc) == [a]  # X -> B leaves A


def test_chart_index_answers_structural_queries():
    sc = parse(
        """statechart D for C {
            initial state A { initial state B { initial state X; } state Y; }
            state Z;
            X -> Y : f();
            Y -> Z : g();
        }"""
    )
    idx = sc.index
    assert sc.index is idx  # built once per chart value
    assert [s.name for s in idx.states] == ["A", "B", "X", "Y", "Z"]
    assert idx.parent == {"B": "A", "X": "B", "Y": "A"}
    assert {s.name for s in idx.children[None]} == {"A", "Z"}
    assert idx.ancestors["X"] == ("B", "A")
    assert {t.call.name for t in idx.outgoing["Y"]} == {"g"}
    assert {t.call.name for t in idx.ingoing["Y"]} == {"f"}
    assert crossed_superstates(sc.state("X"), "Y", sc) == [sc.state("B")]
    assert replace(sc, sub=frozenset()).index.parent == {}


def test_simplified_chart_index_keeps_the_old_orders():
    simp = to_simplified(transform_fixpoint(parse(
        """statechart D for C {
            initial state B;
            initial state A;
            state C;
            B -> A : [0 < x] g(x) / send(2);
            B -> A : g(x) / send(1);
            A -> C : f();
            A -> B : h(1);
            A -> B : h(2);
        }"""
    ))[0])
    assert simp.index is simp.index  # built once per chart value
    assert simp.state("C").name == "C"
    with pytest.raises(KeyError):
        simp.state("Nowhere")
    assert [s.name for s in simp.index.states] == ["A", "B", "C"]
    assert [s.name for s in simp.initial_states()] == ["A", "B"]
    # the order of the former SCSimp key, with its ties broken by the call patterns
    old_key = lambda t: (t.src, t.trg, t.call.name, len(t.call.args), repr(t.pre), repr(t.act))
    ordered = simp.index.trans
    assert [old_key(t) for t in ordered] == sorted(old_key(t) for t in simp.transitions)
    assert [print_call(t.call) for t in ordered[:2]] == ["h(1)", "h(2)"]
    assert [t.call.name for t in ordered if t.src == "A"] == ["h", "h", "f"]
    by_call = simp.index.outgoing_by_call
    assert [print_call(t.call) for t in by_call["A", "h", 1]] == ["h(1)", "h(2)"]
    assert [t.act for t in by_call["B", "g", 1]] == [t.act for t in ordered if t.src == "B"]
    assert ("A", "h", 0) not in by_call


def _value_classes() -> set:
    """Every class of scforge that `actions.value` made: those whose
    dataclass fields include the `_hash` cache."""
    modules = [importlib.import_module(f"scforge.{m.name}") for m in pkgutil.iter_modules(scforge.__path__)]
    return {c for m in modules for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__
            and "_hash" in getattr(c, "__dataclass_fields__", {})}


def _one_value_of_each_class() -> list:
    tr = VdbTransition("t1", 1, frozenset({"a"}), Message("f"), (Message("o", (1,)),), frozenset(), 2)
    basic = Basic("a", (Message("en"),))
    inner = Or("In", (basic, Basic("b")), 1, frozenset({tr}))
    var, lit, plus = EVar("v"), ELit(1), PPlus("y", 2)
    cons, match = ECons(ELit(True), EList((lit,))), CMatch("x", PLit(3))
    add = EBin("+", var, lit)
    cmp, assign = CCmp("<=", cons, var), Assign("v", add)
    state, trans = FullState(name="A", modifiers=frozenset({"initial"})), Trans(2, "A", CTrue(), Call("f"), None, "B")
    conf, msg = Configuration.make("A", {"v": 1}, [Message("g", (2,))]), Message("f", (1, (True,)), True)
    return [
        # patterns, calls, expressions, conditions, statements and actions
        PVar("x"), PLit(1), PEmpty(), PCons(plus, PEmpty()), plus, Call("f", (PVar("x"),), True),
        var, lit, add, cons, cons.tail, CTrue(), CFalse(), CVar("b"), CNot(CVar("b")),
        CAnd(CVar("b"), cmp), COr(CFalse(), match), cmp, match, assign, Send("o", (var,)),
        SetTimer(), StopTimer(), Check(CTrue()), Action((assign, SetTimer()), CVar("b")),
        # chart elements, rewrite steps and findings
        InternT(None, Call("g"), Action()), trans, state, Binding(3, (("s", "A"), ("t", 1))),
        TraceEntry(3, "rule", "s=A"), Violation("CC1", "A", "message", True),
        SignatureContext("C", frozenset({("f", 1)}), frozenset({"v"})),
        SCFull(frozenset({"prio:inner"}), "D", "C", CTrue(), frozenset({state}), frozenset({trans})),
        SCSimp(diagram_name="D", states=frozenset({state})),
        # messages, flat outcomes, terms and Kripke nodes
        msg, Step(conf), Chaos("no enabled transition", conf, msg), PostconditionViolated(trans, conf, msg),
        InvariantViolated("A", conf, msg, (msg,)),
        tr, basic, inner, And("Both", (inner, Basic("c"))), KripkeNode(inner, (msg,)),
    ]


def test_chart_elements_hash_once_to_the_generated_value():
    sc = gen_chart(3, max_states=10)
    for x in [*sc.states, *sc.trans]:
        generated = hash(tuple(getattr(x, f.name) for f in fields(x) if f.compare))
        assert hash(x) == hash(x) == generated
        copy = pickle.loads(pickle.dumps(x))
        assert copy._hash is None  # string hashes differ between processes
        assert copy == x and hash(copy) == generated
    values = _one_value_of_each_class()
    assert {type(x) for x in values} == _value_classes()
    for x in values:
        generated = hash(x)
        for copy in pickle.loads(pickle.dumps(x)), deepcopy(x):
            assert type(copy) is type(x) and copy == x and copy._hash is None
            assert hash(copy) == generated
    simp = next(x for x in values if type(x) is SCSimp)
    assert simp.index is simp.index  # built once and kept
    copy = updated(simp, inv=CTrue())
    assert type(copy) is SCSimp and copy._index is None and copy.inv == CTrue()


def test_transitions_compute_their_sort_key_once():
    flat, _ = transform_fixpoint(gen_chart(3, max_states=10))
    for t in [*gen_chart(3, max_states=10).trans, *to_simplified(flat).transitions]:
        key = trans_key(t)
        assert trans_key(t) is key
        assert key == (t.src, t.trg, t.call.name, len(t.call.args), repr(t.pre), repr(t.act),
                       repr(t.prio), repr(t.call.args), t.call.exception)
        copy = pickle.loads(pickle.dumps(t))
        assert copy._key is None and copy == t and trans_key(copy) == key


def test_chart_index_keeps_the_top_level_modifier_names():
    sc = parse("""statechart D for C {
        initial state A { initial state A1; final state A2; A1 -> A2 : f(); }
        state B;
        final state F;
        A -> B : g();
        B -> F : h();
    }""")
    assert sc.index.top_names == {"initial": {"A"}, "final": {"F"}}
    assert sc.index.top_names is sc.index.top_names
    assert replace(sc, states=sc.states - {sc.state("A")}).index.top_names["initial"] == set()


def test_chart_index_terminates_on_a_substate_cycle():
    sc = SCFull(
        states=frozenset([FullState(name="A"), FullState(name="B")]),
        sub=frozenset([("A", "B"), ("B", "A")]),
    )
    assert sc.index.ancestors == {}  # unreachable from the top


@pytest.mark.parametrize("sub, names", [
    ([("A", "A")], "A"),  # its own parent
    ([("A", "B"), ("B", "A")], "A, B"),
])
def test_fixpoint_rejects_a_substate_cycle_before_rewriting(sub, names):
    sc = SCFull(
        states=frozenset([FullState(name="A", modifiers=frozenset(["initial"])), FullState(name="B")]),
        sub=frozenset(sub),
    )
    steps = []
    with pytest.raises(IllFormedInput, match=f"substate cycle through {names}$"):
        transform_fixpoint(sc, on_step=lambda _, c: steps.append(c))
    assert steps == []


# -- the index's ancestor predicates against a naive walk --------------------

def naive_superstates(s, sc):
    """Walk up the parent relation, one parent per name as the index keeps
    it; a state whose walk meets a cycle or an undeclared parent has none."""
    parent, by_name = dict(sorted(sc.sub)), {st.name: st for st in sc.states}
    chain, name = [], s.name
    while name in parent:
        name = parent[name]
        if name not in by_name or name in (s.name, *(st.name for st in chain)):
            return ()
        chain.append(by_name[name])
    return tuple(chain)


def naive_has_edge(end, x, sc):
    return any(getattr(t, end) == x.name for t in sc.trans)


def naive_irrelevant(mod, end, s, sc):
    parent = dict(sc.sub)
    tops = {st.name for st in sc.states if st.name not in parent and mod in st.modifiers}
    return bool(tops) and not any(
        x.name in tops or naive_has_edge(end, x, sc) for x in (s, *naive_superstates(s, sc))
    )


def naive_removable(attr, end, s, sc):
    return getattr(s, attr) is not None and not any(
        naive_has_edge(end, x, sc) for x in (s, *naive_superstates(s, sc))
    )


def mutate(sc, kind, i, j):
    """A substate cycle, an undeclared parent, a second parent, or a new
    initial or final modifier, on the states at positions i and j."""
    names = sorted(st.name for st in sc.states)
    a, b = names[i % len(names)], names[j % len(names)]
    if kind == "cycle":
        return replace(sc, sub=sc.sub | {(a, b), (b, a)})
    if kind == "ghost":
        return replace(sc, sub=sc.sub | {(a, "Ghost")})
    if kind == "second":
        return replace(sc, sub=sc.sub | {(a, b)})
    st_a = sc.state(a)
    return sc.replace_state(st_a, replace(st_a, modifiers=st_a.modifiers | {kind}))


def assert_predicates_match_naive_walk(sc):
    for s in sc.states:
        assert initial_irrelevant(s, sc) == naive_irrelevant("initial", "trg", s, sc), s.name
        assert final_irrelevant(s, sc) == naive_irrelevant("final", "src", s, sc), s.name
        assert transform._action_removable(transform._IN, s, sc) == \
            naive_removable("entry", "trg", s, sc), s.name
        assert transform._action_removable(transform._OUT, s, sc) == \
            naive_removable("exit", "src", s, sc), s.name
        sups = naive_superstates(s, sc)
        assert transform._above(transform._IN, s, sc) == \
            any(naive_has_edge("trg", x, sc) for x in sups), s.name
        assert transform._above(transform._OUT, s, sc) == \
            any(naive_has_edge("src", x, sc) for x in sups), s.name


mutations = st.lists(st.tuples(
    st.sampled_from(["cycle", "ghost", "second", "initial", "final"]),
    st.integers(0, 63), st.integers(0, 63),
), max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 12), mutations)
def test_index_predicates_match_a_naive_ancestor_walk(seed, states, muts):
    sc = gen_chart(seed, max_states=states)
    steps = []
    transform_fixpoint(sc, on_step=lambda _, c: steps.append(c))
    mutant = sc
    for kind, i, j in muts:
        mutant = mutate(mutant, kind, i, j)
    for chart in [sc, mutant, *steps[::3]]:
        assert_predicates_match_naive_walk(chart)


def test_initial_irrelevant_rule7_example():
    sc = parse(
        """
        statechart D for C {
            state B {
                initial state Z;
            }
            initial state A {
                initial state X;
                state Y;
            }
            B -> A : f();
        }
        """
    )
    assert initial_irrelevant(sc.state("Z"), sc)
    assert not initial_irrelevant(sc.state("X"), sc)


def test_initial_irrelevant_trivial_cases():
    # a top-level initial state is never irrelevant
    assert not initial_irrelevant(NESTED.state("A"), NESTED)
    # without any top-level initial state nothing is irrelevant
    sc = parse("statechart D for C { state A { initial state X; } }")
    assert not initial_irrelevant(sc.state("X"), sc)


def test_flat_and_simplified():
    flat = parse(
        """
        statechart D for C {
            initial state A;
            final state B;
            A -> B : f();
        }
        """
    )
    assert flat_and_simplified(flat)
    with_do = parse("statechart D for C { initial state A { do / d(); } }")
    assert not flat_and_simplified(with_do)
    assert not flat_and_simplified(NESTED)  # A has an outgoing transition


# -- bindings ---------------------------------------------------------------

def test_elim_do_binding():
    sc = parse("statechart D for C { initial state A { do / d(); } }")
    assert len(find_bindings(rule("elimDo"), sc)) == 1


def test_add_init_top_not_applicable_when_initial_exists():
    assert find_bindings(rule("addInitTop"), NESTED) == []


def test_backward_to_sub_blocked_by_priority_stereotype():
    sc = parse(
        """
        statechart D for C <<prio:inner>> {
            initial state A {
                initial final state X;
            }
            state B;
            A -> B : f();
        }
        """
    )
    assert find_bindings(rule("backwardToSub"), sc) == []
    assert find_bindings(rule("backwardToSubPrioInner"), sc) != []
    assert find_bindings(rule("backwardToSubPrioOuter"), sc) == []


# -- individual rule applications -------------------------------------------

def test_rule1_elim_do():
    sc = parse(
        """
        statechart D for C {
            initial state A {
                entry / e();
                do / d() [v == 1];
            }
        }
        """
    )
    [b] = find_bindings(1, sc)
    out = apply_rule(1, sc, b)
    a = out.state("A")
    assert a.do is None
    assert a.entry.stmt[-1] == SetTimer()
    assert a.exit.stmt == (StopTimer(),)
    [it] = a.internT
    assert it.pre == TRUE
    assert it.call == Call(TIMEOUT, ())
    assert it.act.stmt == (Send("d", ()), SetTimer())
    assert it.act.post is not None  # keeps the do postcondition


def test_rule3_fresh_substate():
    sc = parse(
        """
        statechart D for C {
            initial state A {
                -> f() / out();
            }
        }
        """
    )
    [b] = find_bindings(3, sc)
    out = apply_rule(3, sc, b)
    fresh = out.state("A$inner0")
    assert fresh.modifiers == {"initial", "final"}
    assert ("A$inner0", "A") in out.sub
    assert any(t.src == t.trg == "A$inner0" and t.call.name == "f" for t in out.trans)
    assert out.state("A").internT == frozenset()


def test_rule4_all_top_states_become_initial():
    sc = parse("statechart D for C { state A; state B { state X; } }")
    [b] = find_bindings(4, sc)
    out = apply_rule(4, sc, b)
    assert "initial" in out.state("A").modifiers
    assert "initial" in out.state("B").modifiers
    assert "initial" not in out.state("X").modifiers  # only top level


def test_rule6_forwarding_duplicates_per_initial_substate():
    sc = parse(
        """
        statechart D for C {
            initial state Q;
            state A {
                initial state S1;
                initial state S2;
            }
            Q -> A : f();
        }
        """
    )
    [b] = find_bindings(6, sc)
    out = apply_rule(6, sc, b)
    targets = {t.trg for t in out.trans if t.src == "Q"}
    assert targets == {"S1", "S2"}
    assert not any(t.trg == "A" for t in out.trans)


EXIT_MOVER_BODY = ("initial state P { exit / p() [p == 1]; initial state S { exit / s() [s == 1]; } }"
                   " state Q; S -> Q : f() / t() [t == 1];")
ENTRY_MOVER_BODY = ("initial state Q; state P { entry / p() [p == 1]; initial state I;"
                    " state S { entry / s() [s == 1]; } } Q -> S : f() / t() [t == 1];")


@pytest.mark.parametrize("number, body, seq, stmt, post", [
    (16, EXIT_MOVER_BODY, False, "s() & p() & t()", "s == 1 && (p == 1 && t == 1)"),
    (17, EXIT_MOVER_BODY, True, "s() & check(s == 1) & p() & check(p == 1) & t()", "t == 1"),
    (19, ENTRY_MOVER_BODY, False, "t() & p() & s()", "t == 1 && (p == 1 && s == 1)"),
    # no postcondition: whether rule 20 keeps t's where rule 17 does not is
    # still open (ROADMAP item 1)
    (20, ENTRY_MOVER_BODY, True, "t() & check(t == 1) & p() & check(p == 1) & s()", None),
])
def test_action_movers_run_the_superstate_chain_in_order(number, body, seq, stmt, post):
    """S's own action and its superstate P's move onto S's one transition:
    states are left innermost first, before the transition's action, and
    entered outermost first, after it."""
    stereo = "<<action conditions:sequential>> " if seq else ""
    sc = parse(f"statechart M for C {stereo}{{ {body} }}")
    [b] = find_bindings(number, sc)
    assert b.describe() == "s=S"
    out = apply_rule(number, sc, b)
    [t] = out.trans
    assert print_stmt(t.act.stmt) == stmt
    if post is not None:
        assert print_cond(t.act.post) == post
    attr = "exit" if number < 19 else "entry"
    assert getattr(out.state("S"), attr) is None
    assert getattr(out.state("P"), attr) == getattr(sc.state("P"), attr)


def test_rule23_removes_superstates():
    sc = parse(
        """
        statechart D for C {
            state A {
                initial final state X;
            }
        }
        """
    )
    # make it flat-and-simplified first: A must carry no information
    out, _ = transform_fixpoint(sc)
    assert out.sub == frozenset()
    assert out.state_opt("A") is None
    assert out.state_opt("X") is not None


def test_rule24_completion_ignore():
    sc = parse(
        """
        statechart D for C <<completion:ignore>> {
            initial state A;
            final state B;
            A -> B : f();
            B -> A : g();
        }
        """
    )
    [b] = find_bindings(24, sc)
    out = apply_rule(24, sc, b)
    # A misses g: gains an unguarded self-loop
    miss = [t for t in out.trans if t.src == "A" and t.call.name == "g"]
    assert len(miss) == 1 and miss[0].trg == "A" and miss[0].pre is None
    # A handles f: gains a self-loop guarded by the negated firing condition
    comp = [t for t in out.trans if t.src == "A" and t.trg == "A" and t.call.name == "f"]
    assert len(comp) == 1
    assert isinstance(comp[0].pre, CNot)
    # the stereotype is consumed so the rule cannot re-fire
    assert "completion:ignore" not in out.stereos
    assert find_bindings(24, out) == []


def test_rule25_completion_error_targets_error_state():
    sc = parse(
        """
        statechart D for C <<completion:error>> {
            <<error>> state E;
            initial state A;
            A -> A : f();
        }
        """
    )
    [b] = find_bindings(25, sc)
    out = apply_rule(25, sc, b)
    comp = [t for t in out.trans if t.src == "A" and t.call.name == "f" and t.trg == "E"]
    assert len(comp) == 1
    # the error state itself is completed too
    assert any(t.src == "E" and t.call.name == "f" for t in out.trans)


def test_rule25_names_its_error_state_past_a_state_called_error():
    """With no <<error>> state, rule 25 adds one, named `Error` and then
    `$` until the name is free."""
    sc = parse(
        """
        statechart D for C <<completion:error>> {
            initial state Error;
            state B;
            Error -> B : f();
        }
        """
    )
    [b] = find_bindings(25, sc)
    assert b["err"] == "Error$"
    out = apply_rule(25, sc, b)
    assert {s.name for s in out.states} == {"Error", "B", "Error$"}
    assert "error" in out.state("Error$").sstereos and not out.state("Error").sstereos
    # every state completes into the added state, and none into `Error`
    assert {t.src for t in out.trans if t.trg == "Error$"} == {"Error", "B", "Error$"}
    assert not any(t.trg == "Error" for t in out.trans)


def test_rule26_completion_exception():
    sc = parse(
        """
        statechart D for C {
            <<exception>> state X;
            initial state A;
            state B;
            A -> X : throw boom();
            A -> B : f();
        }
        """
    )
    [b] = find_bindings(26, sc)
    out = apply_rule(26, sc, b)
    # B misses the exception trigger: it leads to the exception state
    added = [t for t in out.trans if t.src == "B" and t.call.name == "boom"]
    assert len(added) == 1 and added[0].trg == "X"
    # plain triggers are not completed by this rule
    assert not any(t.src == "B" and t.call.name == "f" for t in out.trans)


def test_binding_stale():
    sc = parse("statechart D for C { initial state A { do / d(); } }")
    [b] = find_bindings(1, sc)
    out = apply_rule(1, sc, b)
    with pytest.raises(BindingStale):
        apply_rule(1, out, b)


# -- call normalization -----------------------------------------------------

def test_elim_prio_negates_higher_priorities():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            state B;
            <<prio=2>> A -> A : [v == 0] f(x) / out(x);
            <<prio=1>> A -> B : f(y);
        }
        """
    )
    [b] = find_bindings(14, sc)
    out = apply_rule(14, sc, b)
    assert all(t.prio is None for t in out.trans)
    low = next(t for t in out.trans if t.trg == "B")
    high = next(t for t in out.trans if t.trg == "A")
    # the call now uses positional input variables
    assert low.call == Call("f", (PVar("inp1"),))
    assert high.call == Call("f", (PVar("inp1"),))
    # the lower-priority transition may only fire when the higher one cannot
    assert isinstance(low.pre, CNot) or "inp1" in repr(low.pre)
    # the action was renamed along with the call
    from scforge.actions import EVar

    assert high.act.stmt == (Send("out", (EVar("inp1"),)),)


# A guard over a `v+k` pattern variable: normalisation replaces the variable
# by `inp1 - 1`, so a condition left on the variable would read it unbound.
@pytest.mark.parametrize("stereo, body, events, expected", [
    ("completion:ignore", "A -> B : [matches(x, 2)] f(x+1) / o(x);", "f(4), f(3)", ["o(2)"]),
    ("completion:ignore", "A -> B : [x] f(x+1) / o(x);", "f(1), f(3)", ["o(2)"]),
    ("completion:ignore", "A -> B : [x] f(x+1) / o(x);", "f([1]), f(true), f(3)", ["o(2)"]),
    ("prio:inner", "<<prio=2>> A -> B : [x] f(x+1) / o(x); <<prio=1>> A -> A : f(y) / p(y);",
     "f(1), f(3)", ["p(1)", "o(2)"]),
])
def test_normalised_guards_over_offset_variables_keep_behaviour(stereo, body, events, expected):
    text = f"statechart P for C <<{stereo}>> {{ initial state A; state B; {body} }}"
    flat = to_simplified(transform_fixpoint(parse(text))[0])
    normalised = [t for t in flat.transitions if t.call == Call("f", (PVar("inp1"),))]
    assert normalised and all(reads(t.pre) <= {"inp1"} for t in normalised)
    printed = print_chart(flat)
    inputs = [parse_message(m) for m in events.split(", ")]
    emitted = tuple(parse_message(m) for m in expected)
    for sc in (flat, to_simplified(parse(printed, allow_reserved=True))):
        result = run(sc, "A", inputs)
        assert result.quiescent and result.final.current == "B"
        assert result.emissions == emitted
        assert explore_emissions(sc, "A", inputs) == {(emitted, "quiescent")}


def test_prio_inner_vs_outer_structural():
    inner_txt = """
    statechart D for C <<prio:%s>> {
        initial state A {
            initial final state X;
        }
        state B;
        A -> B : f();
        X -> X : f();
    }
    """
    inner, _ = transform_fixpoint(parse(inner_txt % "inner"))
    outer, _ = transform_fixpoint(parse(inner_txt % "outer"))
    # inner priority: the outer transition X->B is guarded by the inner loop
    xb_inner = next(t for t in inner.trans if t.src == "X" and t.trg == "B")
    assert xb_inner.pre is not None
    xx_inner = next(t for t in inner.trans if t.src == "X" and t.trg == "X")
    assert xx_inner.pre is None
    # outer priority: the inner loop is guarded by the outer transition
    xb_outer = next(t for t in outer.trans if t.src == "X" and t.trg == "B")
    assert xb_outer.pre is None
    xx_outer = next(t for t in outer.trans if t.src == "X" and t.trg == "X")
    assert xx_outer.pre is not None


# -- fixpoint engine --------------------------------------------------------

def test_fixpoint_identity_on_flat_chart():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            final state B;
            A -> B : f();
        }
        """
    )
    out, trace = transform_fixpoint(sc)
    assert out == sc
    assert trace == []


def test_fixpoint_flattens_single_hierarchy():
    sc = parse(
        """
        statechart D for C {
            initial state Q;
            state A {
                initial final state X;
            }
            Q -> A : f();
            A -> Q : g();
        }
        """
    )
    out, trace = transform_fixpoint(sc)
    names = [e.name for e in trace]
    assert "forwardToSub" in names
    assert "backwardToSub" in names
    assert "removeHierarchy" in names
    assert flat_and_simplified(out)
    assert out.sub == frozenset()


def test_fixpoint_result_has_no_residual_constructs():
    sc = parse(
        """
        statechart D for C <<prio:inner, completion:ignore>> {
            initial state A {
                entry / e();
                do / d();
                -> h() / out();
                initial state X {
                    exit / x();
                }
                final state Y;
                X -> Y : go();
            }
            state B;
            A -> B : f();
            B -> A : back();
        }
        """
    )
    out, trace = transform_fixpoint(sc)
    assert out.sub == frozenset()
    assert out.stereos == frozenset()
    for s in out.states:
        assert s.do is None and s.entry is None and s.exit is None
        assert s.internT == frozenset()
    assert flat_and_simplified(out)
    to_simplified(out)  # must not raise


def test_fixpoint_trace_is_replayable():
    sc = NESTED
    charts = []
    out, trace = transform_fixpoint(sc, on_step=lambda _, c: charts.append(c))
    assert trace, "expected at least one step"
    assert len(charts) == len(trace) and charts[-1] == out
    for e, after in zip(trace, charts):
        [b] = [b for b in find_bindings(e.rule, sc) if b.describe() == e.binding]
        sc = apply_rule(e.rule, sc, b)
        assert chart_hash(sc) == chart_hash(after)


def test_fixpoint_never_prints_a_chart(monkeypatch):
    printed = []
    monkeypatch.setattr(transform, "print_chart", printed.append)
    traces = [transform_fixpoint(gen_chart(seed, max_states=10))[1] for seed in range(4)]
    assert all(traces) and printed == []


def test_trace_holds_no_chart():
    _, trace = transform_fixpoint(chain_chart(25))
    seen, todo = set(), [trace]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, SCFull)
        todo.extend(gc.get_referents(obj))
    assert len(trace) > 25


def test_fixpoint_random_strategy_also_flattens():
    sc = parse(
        """
        statechart D for C {
            initial state A {
                do / d();
                initial state X;
                final state Y;
                X -> Y : go();
            }
            state B;
            A -> B : f();
        }
        """
    )
    for seed in (0, 1, 2):
        out, _ = transform_fixpoint(sc, strategy=f"random:{seed}")
        assert flat_and_simplified(out)
        assert out.sub == frozenset()


def test_read_strategy():
    assert transform.read_strategy("paper") is None
    assert transform.read_strategy("random:7").random() == random.Random(7).random()
    for spec in ("bogus", "random:abc", "random:", "Paper"):
        with pytest.raises(ValueError):
            transform.read_strategy(spec)


# -- the incremental engine against a reference that re-lists everything -----

def naive_fixpoint(sc, strategy):
    """The engine without incremental matching: every rule's bindings are
    listed afresh on every chart, whose index is built anew."""
    rng = random.Random(int(strategy.split(":")[1])) if strategy != "paper" else None
    trace, done_exception = [], False
    while True:
        candidates = [(r, b) for r in RULES if not (done_exception and r.number == 26)
                      for b in find_bindings(r.number, sc)]
        if rng is not None:
            rng.shuffle(candidates)
        for r, b in candidates:
            new = r.apply(sc, b)
            done_exception = done_exception or r.number == 26
            if new != sc:
                trace.append((r.number, b.describe(), chart_hash(new)))
                sc = new
                break
        else:
            return sc, trace


def chain_chart(depth: int) -> SCFull:
    """A nesting chain of initial states with entry actions, a leaf
    transition, and a sibling of the chain that re-enters its top."""
    text = "".join(f"initial state L{d} {{ entry / e{d}({d % 4}); " for d in range(depth))
    text += "initial state Leaf; state Other; Leaf -> Other : f() / out(1); " + "} " * depth
    return parse(f"statechart Chain for C {{ {text} state Out; Out -> L0 : g(); L0 -> Out : h(); }}")


# A below an undeclared parent (CC12): once rule 4 marks T initial, A's own
# initial modifier is irrelevant, though no step touched A.
GHOST_PARENT = SCFull(
    states=frozenset([FullState(name="T"), FullState(name="A", modifiers=frozenset(["initial"]))]),
    trans=frozenset([Trans(None, "T", None, Call("f", ()), None, "T")]),
    sub=frozenset([("A", "Ghost")]),
)
# Charts on which the rules the generated ones leave out fire under every
# strategy, each at a state whose matcher answer an earlier step changed:
# the sequential movers 17 and 20, once the state's parent has lost its
# transitions on that side; exception completion (26); addInitSub (5) on a
# composite state without an initial substate, directly and once rule 2
# gave it an ingoing loop; rule 12 once rule 9 made substates final;
# addInitTop (4) on a flat chart without an initial state; and rule 15 at a
# final state below an undeclared parent (CC12) once rule 8 marks T final.
COVERAGE_CHARTS = [parse(text) for text in (
    """statechart Seq for C <<action conditions:sequential>> {
        initial state A {
            exit / xa();
            initial state A1 { exit / x1(); }
            state A2 { exit / x2(); }
            A1 -> A2 : g() / o(1);
        }
        state B {
            entry / nb();
            initial state B1;
            state B2 { entry / n2(); }
            B1 -> B2 : k() / o(2);
        }
        A -> B : f();
        B2 -> A : h();
    }""",
    """statechart Exc for C {
        initial state A { initial state A1; state A2; A1 -> A2 : throw e(); }
        <<exception>> state X;
        A -> X : throw boom();
        X -> A : f();
    }""",
    """statechart NoInitSub for C {
        initial state A { state X; state Y; X -> Y : g(); }
        state B;
        B -> A : f();
        A -> B : h();
    }""",
    """statechart Loops for C {
        initial state P {
            -> tick() / o(1);
            initial state I;
            state A { state X; state Y; X -> Y : g(); }
        }
    }""",
    """statechart PrioOuter for C <<prio:outer>> {
        initial state A { initial state A1; state A2; A1 -> A2 : f(); }
        state B;
        A -> B : f();
    }""",
    "statechart NoInitTop for C { state A; state B; A -> B : f(); }",
)] + [SCFull(
    diagram_name="GhostFinal",
    states=frozenset([FullState(name="T"), FullState(name="A", modifiers=frozenset(["final"]))]),
    trans=frozenset([Trans(None, "T", None, Call("f", ()), None, "T")]),
    sub=frozenset([("A", "Ghost")]),
)]
ORACLE_CHARTS = (
    [gen_chart(seed, max_states=n) for n in (6, 10, 16) for seed in range(0, 24, 3)]
    + [gen_guard_free(seed) for seed in range(0, 40, 4)]
    + [chain_chart(depth) for depth in (10, 25, 40)]
    + [GHOST_PARENT]
    + COVERAGE_CHARTS
)
STRATEGIES = ("paper", "random:1", "random:2", "random:3")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_rule_fires_on_the_oracle_charts(strategy):
    """A rule that never fires on them could read a wrong input unseen."""
    fired = set()
    for sc in ORACLE_CHARTS:
        fired.update(e.rule for e in transform_fixpoint(sc, strategy=strategy)[1])
    assert fired == set(ENGINE_STEP_NAMES)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_incremental_engine_matches_the_naive_reference(strategy):
    for sc in ORACLE_CHARTS:
        digests = []
        flat, trace = transform_fixpoint(
            sc, strategy=strategy, on_step=lambda _, c: digests.append(chart_hash(c)))
        assert (flat, [(e.rule, e.binding, d) for e, d in zip(trace, digests)]) == \
            naive_fixpoint(sc, strategy), sc.diagram_name


def matcher_calls(monkeypatch, sc):
    """Flatten sc under the paper strategy, counting the state rules'
    matcher calls. Returns the trace and, for each step k (0: before the
    first), the calls made after it by rule number, all of them and those
    at a state the rule had tested before (its re-tests)."""
    tested: set = set()
    calls, retests = [Counter()], [Counter()]

    def counted(rule):
        def at(s, sc):
            calls[-1][rule.number] += 1
            if (rule.number, s.name) in tested:
                retests[-1][rule.number] += 1
            tested.add((rule.number, s.name))
            return rule.at(s, sc)
        return rule._replace(at=at)

    def on_step(*_):
        calls.append(Counter())
        retests.append(Counter())

    with monkeypatch.context() as m:
        m.setattr(transform, "RULES", tuple(counted(r) if r.at else r for r in RULES))
        _, trace = transform_fixpoint(sc, on_step=on_step)
    return trace, calls, retests


def test_a_forwarded_transition_retests_no_state_for_rules_1_2_3_and_22(monkeypatch):
    """Rules 1, 2, 3 and 22 read a state's own value and whether it has
    substates, which a forwarded transition leaves as they were."""
    trace, _, retests = matcher_calls(monkeypatch, chain_chart(10))
    forwards = [k + 1 for k, e in enumerate(trace) if e.rule == 6]
    assert len(forwards) >= 10
    for k in forwards:
        assert not {1, 2, 3, 22} & retests[k].keys(), (k, retests[k])


def test_matcher_calls_per_step_stay_flat_over_the_chain_depth(monkeypatch):
    """When every step re-tested its changed names for every state rule,
    the engine made 29.9, 28.8 and 28.5 matcher calls per step on
    `chain_chart` at depth 10, 25 and 40."""
    per_step = {}
    for depth in (10, 25, 40):
        trace, calls, _ = matcher_calls(monkeypatch, chain_chart(depth))
        per_step[depth] = sum(sum(c.values()) for c in calls) / len(trace)
    assert max(per_step.values()) <= 1.1 * min(per_step.values()), per_step
    assert per_step[40] < 20, per_step


INDEX_PARTS = ["states", "by_name", "parent"] + [
    name for name, v in vars(ChartIndex).items() if isinstance(v, cached_property)]


def assert_index_is_fresh(step, sc):
    fresh = ChartIndex(sc.states, sc.trans, sc.sub)
    for part in INDEX_PARTS:
        assert getattr(sc.index, part) == getattr(fresh, part), (step, part)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_derived_index_equals_a_fresh_one_at_every_step(strategy):
    for sc in ORACLE_CHARTS:
        transform_fixpoint(sc, strategy=strategy, on_step=assert_index_is_fresh)


def test_derived_index_shares_what_a_step_left_unchanged():
    sc = NESTED
    a = sc.state("A")
    new = sc.replace_state(a, replace(a, entry=Action((Send("e", ()),))))
    idx = sc.index
    derived = idx.derive(new, sc.states ^ new.states, frozenset())
    assert derived.parent is idx.parent  # the same tree
    assert derived.ingoing_at_or_above is idx.ingoing_at_or_above
    assert derived.ancestors is idx.ancestors  # chains of names: the values may change
    assert derived.ancestors["X"] == ("A",)
    for part in INDEX_PARTS:
        assert getattr(derived, part) == getattr(ChartIndex(new.states, new.trans, new.sub), part)
    # other state names: built afresh
    grown = replace(new, states=new.states | {FullState(name="Z")})
    assert idx.derive(grown, grown.states ^ sc.states, frozenset()).parent is not idx.parent


def test_derived_index_patches_the_at_or_above_sets_below_a_flipped_top():
    """One step drops the transitions into and out of a deep chain's top,
    so the whole chain leaves both `*_at_or_above` sets, and adds one into a
    level halfway down, whose subtree stays in; the step back puts them
    back. `derive` patches the sets below the flipped states."""
    sc = chain_chart(60)
    top = frozenset(t for t in sc.trans if "L0" in (t.src, t.trg))
    cut = replace(sc, trans=(sc.trans - top) | {Trans(None, "Out", None, Call("k", ()), None, "L30")})
    for old, new in [(sc, cut), (cut, sc)]:
        idx = old.index
        derived = idx.derive(new, frozenset(), old.trans ^ new.trans)
        assert derived.parent is idx.parent  # derived, not built afresh
        assert {"ingoing_at_or_above", "outgoing_at_or_above"} <= vars(derived).keys()
        assert derived.ingoing_at_or_above != idx.ingoing_at_or_above
        assert derived.outgoing_at_or_above != idx.outgoing_at_or_above
        fresh = ChartIndex(new.states, new.trans, new.sub)
        for part in INDEX_PARTS:
            assert getattr(derived, part) == getattr(fresh, part), part
        new._index = derived
    chain = {f"L{d}" for d in range(60)} | {"Leaf", "Other"}
    assert chain & cut.index.ingoing_at_or_above == chain - {f"L{d}" for d in range(30)}
    assert chain & cut.index.outgoing_at_or_above == {"Leaf"}


def test_fixpoint_preserves_wellformedness():
    sc = parse(
        """
        statechart D for C <<completion:ignore>> {
            initial state A {
                do / d();
                initial final state X;
            }
            state B;
            A -> B : f();
        }
        """
    )
    assert [v for v in check_all(sc) if not v.skipped] == []
    out, trace = transform_fixpoint(sc)
    assert [v for v in check_all(out) if not v.skipped] == []


# -- conversion -------------------------------------------------------------

def test_to_simplified_buffer():
    sc = parse(
        """
        statechart Buffer for BufferClass {
            initial state Empty;
            state NonEmpty;
            Empty -> Empty : get() / send(-1);
            Empty -> NonEmpty : put(i) / v = i;
            NonEmpty -> Empty : get() / send(v);
            NonEmpty -> NonEmpty : put(i) / v = i;
        }
        """
    )
    flat, _ = transform_fixpoint(sc)
    simp = to_simplified(flat)
    assert len(simp.states) == 2
    assert len(simp.transitions) == 4
    assert simp.inv == CTrue()  # absent invariant normalizes to true


def test_to_simplified_rejects_residual_do():
    sc = parse("statechart D for C { initial state A { do / d(); } }")
    with pytest.raises(NotSimplifiable) as exc:
        to_simplified(sc)
    assert "do action" in str(exc.value)


def test_rule_names_bijective():
    assert len(RULE_NAMES) == 26
    assert sorted(RULE_NAMES) == list(range(1, 27))
    assert len(set(RULE_NAMES.values())) == 26


def test_rule_table_has_one_entry_per_engine_step():
    assert [r.number for r in RULES] == list(range(1, 28))
    assert ENGINE_STEP_NAMES == {**RULE_NAMES, 27: "dropStereotypes"}
    with pytest.raises(ValueError):
        find_bindings(28, NESTED)
