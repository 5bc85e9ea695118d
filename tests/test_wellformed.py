"""Tests for the CC1..CC14 static checks."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from scforge.ast import FullState, SCFull, SCSimp, Trans
from scforge.actions import TRUE, Action, Assign, Call, ELit, EVar, PVar, Send, SKIP
from scforge.parse import parse
from scforge.wellformed import SignatureContext, Violation, _on_cycle, check_all, check_simp


def findings(violations):
    return [v for v in violations if not v.skipped]


def codes(violations):
    return [v.code for v in findings(violations)]


def make(**kw) -> SCFull:
    base = dict(
        diagram_name="D",
        class_name="C",
        states=frozenset([FullState(modifiers=frozenset(["initial"]), name="A")]),
    )
    base.update(kw)
    return SCFull(**base)


CTX = SignatureContext(
    class_name="C",
    methods=frozenset([("f", 0), ("g", 1), ("out", 1), ("finalize", 0)]),
    attributes=frozenset(["v", "w"]),
)


@pytest.mark.parametrize("data", [
    {"methods": [{"name": "f", "arity": 0}]},
    {"class": "C", "methods": [{"arity": 0}]},
    {"class": "C", "methods": [{"name": "f"}]},
], ids=["class", "method-name", "method-arity"])
def test_signature_without_a_required_key_is_not_a_class_signature(data):
    with pytest.raises(ValueError, match=r"^not a class signature: expected \{class, "):
        SignatureContext.from_json(json.dumps(data))


def test_signature_methods_and_attributes_are_optional():
    assert SignatureContext.from_json('{"class": "C"}') == SignatureContext("C")
    ctx = SignatureContext.from_json('{"class": "C", "methods": [{"name": "f", "arity": "2"}]}')
    assert ctx.methods == {("f", 2)}


def test_clean_chart_has_no_findings():
    sc = parse(
        """
        statechart D for C {
            [0 <= v];
            initial state A;
            final state B;
            A -> B : g(i) / v = i & out(v) [v == i];
        }
        """
    )
    assert findings(check_all(sc, CTX)) == []
    # without a signature context the signature checks are reported as skipped
    skipped = [v for v in check_all(sc) if v.skipped]
    assert [v.code for v in skipped] == ["CC5", "CC6", "CC8", "CC9", "CC11"]


def test_cc1_reflexive_sub():
    a = FullState(name="A", modifiers=frozenset(["initial"]))
    sc = make(states=frozenset([a]), sub=frozenset([("A", "A")]))
    assert "CC1" in codes(check_all(sc, CTX))


def test_cc1_cycle():
    sts = frozenset(FullState(name=n) for n in "AB")
    sc = make(states=sts, sub=frozenset([("A", "B"), ("B", "A")]))
    assert codes(check_all(sc, CTX)).count("CC1") >= 2


def _naive_cycle_names(sub):
    """The names a with (a, a) in the transitive closure of `sub`."""
    closure = set(sub)
    while True:
        step = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not step:
            return {a for a, b in closure if a == b}
        closure |= step


@given(st.frozensets(st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF")), max_size=12))
def test_cc1_cycles_match_the_transitive_closure(sub):
    # Some names get two parents, and some pairs name undeclared states.
    sc = make(states=frozenset(FullState(name=n) for n in "ABCD"), sub=sub)
    cyclic = {
        v.subject.removeprefix("state ")
        for v in check_all(sc)
        if v.code == "CC1" and v.message == "state is a (transitive) substate of itself"
    }
    assert cyclic == _naive_cycle_names(sub)


def test_cc1_cycle_through_a_second_parent():
    # B's parents are A and C; the cycle B < C < B runs through the second one.
    sts = frozenset(FullState(name=n) for n in "ABC")
    sc = make(states=sts, sub=frozenset([("B", "A"), ("B", "C"), ("C", "B")]))
    cyclic = {v.subject for v in check_all(sc) if v.code == "CC1"}
    assert cyclic == {"state B", "state C"}


def walk_cycle_names(sub):
    """The names that are a (transitive) substate of themselves, found by
    walking every name's whole ancestor chain: O(names × depth), the
    reference for the one-pass `_on_cycle`."""
    parents = {}
    for child, parent in sub:
        parents.setdefault(child, set()).add(parent)
    out = set()
    for start in parents:
        seen = set()
        todo = list(parents[start])
        while todo and start not in seen:
            n = todo.pop()
            if n not in seen:
                seen.add(n)
                todo.extend(parents.get(n, ()))
        if start in seen:
            out.add(start)
    return out


@st.composite
def parent_relations(draw):
    """Random pairs over a few names, so that names get several parents and
    self-loops occur, plus cycles with a tail of substates hanging off them."""
    names = [f"S{k}" for k in range(draw(st.integers(1, 12)))]
    name = st.sampled_from(names)
    sub = draw(st.lists(st.tuples(name, name), max_size=20))
    for _ in range(draw(st.integers(0, 2))):
        ring = draw(st.lists(name, min_size=1, max_size=5, unique=True))
        sub += list(zip(ring, ring[1:] + ring[:1]))
        tail = draw(st.lists(name, max_size=4))
        sub += list(zip(tail, [ring[0]] + tail))
    return draw(st.permutations(sub))


@given(parent_relations())
def test_cc1_one_pass_matches_the_ancestor_walk(sub):
    assert _on_cycle(sub) == walk_cycle_names(sub)


def test_cc1_long_chains_need_no_recursion():
    chain = [(f"S{k + 1}", f"S{k}") for k in range(5000)]
    assert _on_cycle(chain) == set()
    assert _on_cycle(chain + [("S0", "S5000")]) == {f"S{k}" for k in range(5001)}
    assert _on_cycle(chain + [("S2500", "S4000")]) == {f"S{k}" for k in range(2500, 4001)}


def test_cc1_dangling_sub():
    sc = make(sub=frozenset([("Ghost", "A")]))
    assert "CC1" in codes(check_all(sc, CTX))


def test_cc2_exception_trigger_needs_exception_state():
    sc = make(
        trans=frozenset([Trans(None, "A", None, Call("f", (), exception=True), None, "A")])
    )
    assert "CC2" in codes(check_all(sc, CTX))
    # adding an exception state clears it
    exc = FullState(sstereos=frozenset(["exception"]), name="X")
    sc2 = replace(sc, states=sc.states | {exc})
    assert "CC2" not in codes(check_all(sc2, CTX))


def test_cc3_two_priority_stereotypes():
    sc = make(stereos=frozenset(["prio:inner", "prio:outer"]))
    found = [v for v in findings(check_all(sc, CTX)) if v.code == "CC3"]
    assert any("priority" in v.message for v in found)


def test_cc3_two_completion_stereotypes():
    sc = make(stereos=frozenset(["completion:ignore", "completion:chaos"]))
    found = [v for v in findings(check_all(sc, CTX)) if v.code == "CC3"]
    assert [v.message for v in found] == ["At most one completion stereotype"]


def test_cc3_completion_excludes_error_states():
    err = FullState(sstereos=frozenset(["error"]), name="E")
    sc = make(
        stereos=frozenset(["completion:ignore"]),
        states=frozenset([FullState(name="A"), err]),
    )
    assert "CC3" in codes(check_all(sc, CTX))
    # completion:error is exempt: it introduces an error state itself
    sc2 = replace(sc, stereos=frozenset(["completion:error"]))
    assert "CC3" not in codes(check_all(sc2, CTX))


def test_cc4_dangling_transition():
    sc = make(trans=frozenset([Trans(None, "A", None, Call("f"), None, "Ghost")]))
    assert "CC4" in codes(check_all(sc, CTX))


def test_cc5_wrong_class():
    sc = make(class_name="Other")
    assert "CC5" in codes(check_all(sc, CTX))


def test_cc6_undeclared_event():
    sc = make(trans=frozenset([Trans(None, "A", None, Call("nope"), None, "A")]))
    assert "CC6" in codes(check_all(sc, CTX))
    # arity matters
    sc2 = make(trans=frozenset([Trans(None, "A", None, Call("f", (PVar("x"),)), None, "A")]))
    assert "CC6" in codes(check_all(sc2, CTX))
    # constructor calls use the class name and are always fine
    sc3 = make(trans=frozenset([Trans(None, "A", None, Call("C"), None, "A")]))
    assert "CC6" not in codes(check_all(sc3, CTX))


def test_cc7_duplicate_event_parameters():
    sc = make(
        trans=frozenset([Trans(None, "A", None, Call("g", (PVar("a"), PVar("a"))), None, "A")])
    )
    assert "CC7" in codes(check_all(sc, CTX))


def test_cc8_invariant_uses_undeclared_name():
    sc = parse("statechart D for C { [q == 1]; initial state A; }")
    assert "CC8" in codes(check_all(sc, CTX))


def test_cc9_precondition_may_use_event_arguments():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : [i < 3] g(i) / skip [i == 0];
        }
        """
    )
    assert findings(check_all(sc, CTX)) == []
    sc2 = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : [other < 3] g(i);
        }
        """
    )
    assert "CC9" in codes(check_all(sc2, CTX))


def test_cc10_sending_a_trigger():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : g(i) / g(1);
        }
        """
    )
    assert "CC10" in codes(check_all(sc, CTX))


def test_cc11_undeclared_reads_writes_calls():
    sc = make(
        trans=frozenset(
            [
                Trans(
                    None,
                    "A",
                    None,
                    Call("f"),
                    Action((Assign("q", ELit(1)), Send("mystery", (EVar("v"),))), None),
                    "A",
                )
            ]
        )
    )
    msgs = [v.message for v in findings(check_all(sc, CTX)) if v.code == "CC11"]
    assert any("assigns undeclared q" in m for m in msgs)
    assert any("calls undeclared mystery/1" in m for m in msgs)


def test_cc12_duplicate_state_names():
    sc = make(
        states=frozenset(
            [FullState(name="A"), FullState(name="A", modifiers=frozenset(["initial"]))]
        )
    )
    assert "CC12" in codes(check_all(sc, CTX))


def test_cc12_state_under_two_parents():
    # the two declarations of X are equal, so the chart holds one X value
    sc = parse("statechart D for C { initial state A { initial state X; } "
               "state B { initial state X; } A -> B : f(); }")
    assert len(sc.states) == 3 and {("X", "A"), ("X", "B")} <= sc.sub
    found = [v for v in findings(check_all(sc, CTX)) if v.code == "CC12"]
    assert found == [Violation("CC12", "state X", "declared under 2 parents: A, B")]


def test_cc13_constructor_initial_state_with_ingoing():
    sc = make(
        states=frozenset(
            [FullState(name="A", modifiers=frozenset(["initial"])), FullState(name="B")]
        ),
        trans=frozenset(
            [
                Trans(None, "A", None, Call("C"), None, "B"),
                Trans(None, "B", None, Call("f"), None, "A"),
            ]
        ),
    )
    assert "CC13" in codes(check_all(sc, CTX))


def test_cc14_finalize_final_state_with_outgoing():
    sc = make(
        states=frozenset(
            [
                FullState(name="A", modifiers=frozenset(["initial"])),
                FullState(name="B", modifiers=frozenset(["final"])),
            ]
        ),
        trans=frozenset(
            [
                Trans(None, "A", None, Call("finalize"), None, "B"),
                Trans(None, "B", None, Call("f"), None, "A"),
            ]
        ),
    )
    assert "CC14" in codes(check_all(sc, CTX))


def test_output_is_sorted_and_serializable():
    sc = make(
        stereos=frozenset(["prio:inner", "prio:outer"]),
        states=frozenset([FullState(name="A"), FullState(name="A", inv=TRUE)]),
        sub=frozenset([("A", "A")]),
    )
    out = check_all(sc)
    nums = [int(v.code[2:]) for v in out]
    assert nums == sorted(nums)
    for v in out:
        data = json.loads(v.to_json())
        assert set(data) >= {"code", "subject", "message"}


# -- simplified charts ------------------------------------------------------

def flat(states, transitions):
    return SCSimp(
        diagram_name="D",
        class_name="C",
        inv=TRUE,
        states=frozenset(states),
        trans=frozenset(transitions),
    )


def test_check_simp_dangling_target():
    sc = flat(
        [FullState(modifiers=frozenset(["initial"]), name="A", inv=TRUE)],
        [Trans(None, "A", TRUE, Call("f"), Action(SKIP, None), "Ghost")],
    )
    assert [v.code for v in check_simp(sc)] == ["CC4"]


def test_check_simp_duplicate_params():
    sc = flat(
        [FullState(modifiers=frozenset(["initial"]), name="A", inv=TRUE)],
        [Trans(None, "A", TRUE, Call("f", (PVar("a"), PVar("a"))), Action(SKIP, None), "A")],
    )
    assert [v.code for v in check_simp(sc)] == ["CC7"]


def test_check_simp_duplicate_names():
    sc = flat(
        [FullState(modifiers=frozenset(["initial"]), name="A", inv=TRUE),
         FullState(name="A", inv=TRUE)],
        [],
    )
    assert [v.code for v in check_simp(sc)] == ["CC12"]


# -- properties -------------------------------------------------------------

state_names = st.sampled_from(["A", "B", "C", "D", "E"])


@st.composite
def small_charts(draw):
    names = draw(st.sets(state_names, min_size=1, max_size=4))
    states = frozenset(FullState(name=n) for n in names)
    pool = sorted(names) + ["Ghost"]
    trans = frozenset(
        Trans(None, draw(st.sampled_from(pool)), None, Call("f"), None, draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0, 3)))
    )
    subs = frozenset(
        (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return make(states=states, trans=trans, sub=subs)


@given(small_charts())
def test_check_all_is_deterministic_and_total(sc):
    first = check_all(sc)
    assert check_all(sc) == first


@given(small_charts(), st.data())
def test_removing_elements_never_adds_structural_violations(sc, data):
    before = {v.code for v in findings(check_all(sc))}
    smaller = sc
    if sc.trans:
        drop = data.draw(st.sampled_from(sorted(sc.trans, key=repr)))
        smaller = replace(sc, trans=sc.trans - {drop})
    after = {v.code for v in findings(check_all(smaller))}
    for code in ("CC1", "CC3", "CC7", "CC12"):
        if code in after:
            assert code in before
