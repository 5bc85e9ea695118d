"""Tests for fragment conformance checking."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from scforge.actions import Message
from scforge.conform import (
    IncompleteProjection,
    ObjectState,
    OGSNode,
    SystemFragment,
    UnknownObject,
    check_macro_micro_refinement,
    check_run_satisfaction,
    check_system_conformance,
    conformance_passed,
    fragment_run,
    load_projection,
    proc_check,
    proj_of_term,
    report_to_json,
)
from scforge.flatinterp import parse_message
from scforge.parse import parse
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import And, Basic, Or

FIXTURES = Path(__file__).parent / "fixtures"

BUFFER = to_simplified(parse(
    """
    statechart Buffer for BufferClass {
        initial state Empty;
        state NonEmpty;
        Empty -> NonEmpty : put(x) / v = x;
        Empty -> Empty : get() / send(-1);
        NonEmpty -> Empty : get() / send(v);
        NonEmpty -> NonEmpty : put(x) / v = x;
    }
    """
))


def fragment(name):
    return SystemFragment.from_json((FIXTURES / name).read_text())


def projection():
    return load_projection((FIXTURES / "buffer_projection.json").read_text())


OK_FRAG = fragment("fig_ok_fragment.json")
BAD_FRAG = fragment("fig_double_send_fragment.json")
PROJ = projection()


def buffer_term(active):
    children = (Basic("Empty"), Basic("NonEmpty(3)"))
    idx = {"Empty": 1, "NonEmpty(3)": 2}
    return Or("Buffer", children, idx[active], frozenset())


# -- bounded reachability and processing --------------------------------------------

def reached_from_s1(bound):
    """The nodes that an edge from s1 may refine to within `bound` microsteps:
    one refinement check per node, each projected to itself."""
    ids = sorted(OK_FRAG.nodes)
    proj = {nid: frozenset([nid]) for nid in ids}
    edges = [(Basic("s1"), Basic(nid)) for nid in ids]
    out = check_macro_micro_refinement(edges, OK_FRAG, proj, bound)
    assert all(f["from"] == "s1" for f in out["failures"])
    reached = set(ids) - {ids[f["edge"]] for f in out["failures"]}
    assert out["pass"] == (reached == set(ids))
    return reached


def test_reachable_zero_steps():
    assert reached_from_s1(0) == {"s1"}


def test_reachable_linear_chain():
    assert reached_from_s1(2) == {"s1", "s2", "s3"}


def test_reachable_whole_fragment():
    assert reached_from_s1(5) == {"s1", "s2", "s3", "s4", "s5", "s6"}


def test_reachable_is_monotone_and_stabilizes():
    sets = [reached_from_s1(n) for n in range(8)]
    for a, b in zip(sets, sets[1:]):
        assert a <= b
    assert sets[len(OK_FRAG.nodes)] == sets[-1]


def test_proc_check():
    get = parse_message("get()")
    put = parse_message("put(1)")
    empty = OGSNode("n", {"o": ObjectState()})
    assert not proc_check(empty, "o", get)
    one = OGSNode("n", {"o": ObjectState(threads={"t": (get,)})})
    assert proc_check(one, "o", get)
    two = OGSNode("n", {"o": ObjectState(threads={"t": (put, get)})})
    assert proc_check(two, "o", get)  # get is on top
    assert not proc_check(two, "o", put)  # put is buried, not processed
    with pytest.raises(UnknownObject):
        proc_check(empty, "ghost", get)


# -- system conformance -----------------------------------------------------

def test_well_behaved_fragment_passes_all_conditions():
    report = check_system_conformance(BUFFER, OK_FRAG, PROJ)
    assert [e["condition"] for e in report] == [1, 2, 3, 4, 5]
    assert conformance_passed(report), report
    # report serializes
    assert json.loads(report_to_json(report)) == report


def test_double_send_fragment_fails_condition_five_only():
    report = check_system_conformance(BUFFER, BAD_FRAG, PROJ)
    by_cond = {e["condition"]: e for e in report}
    assert by_cond[5]["pass"] is False
    assert any("NonEmpty->Empty" in w for w in by_cond[5]["witnesses"])
    for c in (1, 2, 3, 4):
        assert by_cond[c]["pass"], by_cond[c]


def test_a_store_effect_of_true_is_not_shown_by_one():
    # the fragment's one step sets v from 1 to 2; no node shows v = true
    chart = to_simplified(parse("statechart T for C { initial state A; state B;"
                                " A -> B : f() / v = true; }"))
    frag = fragment("bool_store_fragment.json")
    proj = load_projection((FIXTURES / "bool_store_projection.json").read_text())
    by_cond = {e["condition"]: e for e in check_system_conformance(chart, frag, proj)}
    assert [by_cond[c]["pass"] for c in (1, 2, 3, 4, 5)] == [True, True, True, True, False]
    assert by_cond[5]["witnesses"] == ["transition A->B on f() enabled at s0 but not realized within 2 steps"]


def test_a_failed_intermediate_condition_is_a_condition_five_witness():
    chart = to_simplified(transform_fixpoint(parse(
        "statechart S for C <<action conditions:sequential>> {"
        " initial state A { exit / v = 1 [v == 2]; } state B; A -> B : f(); }"))[0])
    frag = SystemFragment.make(
        nodes=[OGSNode("n1", {"o": ObjectState(vars={"v": 0}, buffer=(parse_message("f()"),))}),
               OGSNode("n2", {"o": ObjectState(vars={"v": 1})})],
        edges=[("n1", "n2", ())], init=["n1"], main="o",
    )
    report = check_system_conformance(chart, frag, {"A": frozenset(["n1"]), "B": frozenset(["n2"])})
    assert [e["pass"] for e in report] == [True, True, True, True, False]
    assert report[4]["witnesses"] == [
        "transition A->B on f() enabled at n1 fails the intermediate condition v == 2 of its action"
    ]


def test_two_processed_triggers_fail_condition_four():
    get, put = parse_message("get()"), parse_message("put(1)")
    bad = SystemFragment.make(
        nodes=[OGSNode("n1", {"o": ObjectState(threads={"a": (get,), "b": (put,)})})],
        edges=[],
        init=["n1"],
        main="o",
    )
    proj = {"Empty": frozenset(["n1"]), "NonEmpty": frozenset()}
    report = check_system_conformance(BUFFER, bad, proj)
    by_cond = {e["condition"]: e for e in report}
    assert by_cond[4]["pass"] is False


def test_chart_and_state_invariants_checked_on_projections():
    sc = to_simplified(parse(
        """
        statechart Buffer for BufferClass {
            [v == v];
            initial state Empty { [v == -1]; }
            state NonEmpty { [v == 3]; }
            Empty -> NonEmpty : put(x) / v = x;
            Empty -> Empty : get() / send(-1);
            NonEmpty -> Empty : get() / send(v);
            NonEmpty -> NonEmpty : put(x) / v = x;
        }
        """
    ))
    assert conformance_passed(check_system_conformance(sc, OK_FRAG, PROJ))
    wrong = to_simplified(parse(
        """
        statechart Buffer for BufferClass {
            initial state Empty;
            state NonEmpty { [v == 7]; }
            NonEmpty -> Empty : get() / send(v);
        }
        """
    ))
    report = check_system_conformance(wrong, OK_FRAG, PROJ)
    by_cond = {e["condition"]: e for e in report}
    assert by_cond[3]["pass"] is False
    assert any("s1" in w for w in by_cond[3]["witnesses"])


def test_initial_projection_must_be_initial_nodes():
    proj = dict(PROJ)
    proj["Empty"] = frozenset(["s1"])  # s1 is not an initial node
    report = check_system_conformance(BUFFER, OK_FRAG, proj)
    by_cond = {e["condition"]: e for e in report}
    assert by_cond[2]["pass"] is False


def test_incomplete_projection_raises():
    with pytest.raises(IncompleteProjection):
        check_system_conformance(BUFFER, OK_FRAG, {"Empty": frozenset(["s6"])})
    with pytest.raises(IncompleteProjection):
        check_system_conformance(
            BUFFER, OK_FRAG,
            {"Empty": frozenset(["ghost"]), "NonEmpty": frozenset()},
        )


def test_projection_keys_must_name_chart_states():
    proj = {"Empty": frozenset(["s6"]), "NonEmpty": frozenset(["s1"])}
    for key in ("Ghost", "Ghost(3)", "NonEmpty)", "Empty3)"):
        with pytest.raises(IncompleteProjection, match="neither a chart state"):
            check_system_conformance(BUFFER, OK_FRAG, {**proj, key: frozenset(["s2"])})
    report = check_system_conformance(BUFFER, OK_FRAG, {**proj, "NonEmpty(3)": frozenset(["s1"])})
    assert conformance_passed(report)


def test_fragment_names_the_place_of_a_malformed_message():
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    frag["edges"][2]["M"] = ["send(3"]
    with pytest.raises(ValueError, match=r"^edge 's3' -> 's4', M: malformed message 'send\(3'"):
        SystemFragment.from_json(json.dumps(frag))


def test_conformance_pass_is_monotone_in_bound():
    for bound in (5, 6, 10):
        assert conformance_passed(
            check_system_conformance(BUFFER, OK_FRAG, PROJ, bound=bound)
        )
    # too small a bound cannot reach the target projection
    report = check_system_conformance(BUFFER, OK_FRAG, PROJ, bound=2)
    assert not conformance_passed(report)


def test_weakening_invariants_preserves_a_pass():
    strong = to_simplified(parse(
        """
        statechart Buffer for BufferClass {
            initial state Empty { [v == -1]; }
            state NonEmpty { [v == 3]; }
            Empty -> NonEmpty : put(x) / v = x;
            Empty -> Empty : get() / send(-1);
            NonEmpty -> Empty : get() / send(v);
            NonEmpty -> NonEmpty : put(x) / v = x;
        }
        """
    ))
    assert conformance_passed(check_system_conformance(strong, OK_FRAG, PROJ))
    assert conformance_passed(check_system_conformance(BUFFER, OK_FRAG, PROJ))


# -- run satisfaction -------------------------------------------------------

RUN_IDS = ["s1", "s2", "s3", "s4", "s5", "s6"]


def test_valid_run_satisfies_the_macrostep():
    run = fragment_run(OK_FRAG, RUN_IDS)
    assert check_run_satisfaction(
        buffer_term("NonEmpty(3)"), buffer_term("Empty"),
        Message("get"), (Message("send", (3,)),), run, PROJ, "o",
    )


def test_run_never_reaching_target_projection_fails():
    run = fragment_run(OK_FRAG, RUN_IDS[:4])  # stops before s6
    assert not check_run_satisfaction(
        buffer_term("NonEmpty(3)"), buffer_term("Empty"),
        Message("get"), (Message("send", (3,)),), run, PROJ, "o",
    )


def test_double_emission_fails_uniqueness_of_s():
    run = fragment_run(BAD_FRAG, RUN_IDS)
    assert not check_run_satisfaction(
        buffer_term("NonEmpty(3)"), buffer_term("Empty"),
        Message("get"), (Message("send", (3,)),), run, PROJ, "o",
    )


def test_unconsumed_input_fails():
    # single-node run: the event is never consumed
    run = fragment_run(OK_FRAG, ["s6"])
    assert not check_run_satisfaction(
        buffer_term("Empty"), buffer_term("Empty"),
        Message("get"), (), run, PROJ, "o",
    )


def test_run_starting_outside_the_source_projection_fails():
    """The run starts at s1, which projects NonEmpty(3), not Empty (s6); so
    it does not implement the macrostep Empty --get()/send(3)--> Empty."""
    run = fragment_run(OK_FRAG, RUN_IDS)
    steps = Message("get"), (Message("send", (3,)),), run, PROJ, "o"
    assert check_run_satisfaction(buffer_term("NonEmpty(3)"), buffer_term("Empty"), *steps)
    assert not check_run_satisfaction(buffer_term("Empty"), buffer_term("Empty"), *steps)


def test_emission_before_the_consumption_fails():
    """get() stays buffered until s3 -> s4, so it is consumed at r = 2; an
    emission on s1 -> s2 (s = 1) comes before it, one on s3 -> s4 does not."""
    data = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    for node in data["nodes"][1:3]:
        node["objects"]["o"]["buffer"] = ["get()"]
    late = fragment_run(SystemFragment.from_json(json.dumps(data)), RUN_IDS)
    data["edges"][0]["M"], data["edges"][2]["M"] = ["send(3)"], []
    early = fragment_run(SystemFragment.from_json(json.dumps(data)), RUN_IDS)
    steps = buffer_term("NonEmpty(3)"), buffer_term("Empty"), Message("get")
    assert check_run_satisfaction(*steps, (Message("send", (3,)),), late, PROJ, "o")
    assert not check_run_satisfaction(*steps, (Message("send", (3,)),), early, PROJ, "o")


def test_a_thrown_output_does_not_satisfy_a_plain_one():
    """The emitting step outputs `throw send(3)`: that is not the
    macrostep's `send(3)`, only its own thrown twin."""
    data = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    for edge in data["edges"]:
        edge["M"] = ["throw " + m for m in edge["M"]]
    thrown = fragment_run(SystemFragment.from_json(json.dumps(data)), RUN_IDS)
    steps = buffer_term("NonEmpty(3)"), buffer_term("Empty"), Message("get")
    send, throw_send = Message("send", (3,)), Message("send", (3,), True)
    assert check_run_satisfaction(*steps, (send,), fragment_run(OK_FRAG, RUN_IDS), PROJ, "o")
    assert not check_run_satisfaction(*steps, (send,), thrown, PROJ, "o")
    assert check_run_satisfaction(*steps, (throw_send,), thrown, PROJ, "o")


def test_proj_of_term_follows_active_subterm():
    assert proj_of_term(buffer_term("NonEmpty(3)"), PROJ) == {"s1"}
    assert proj_of_term(buffer_term("Empty"), PROJ) == {"s6"}
    assert proj_of_term(Basic("Unknown"), PROJ) == frozenset()


def test_proj_of_term_intersects_the_children_of_an_and_term():
    both = And("P", (Basic("NonEmpty"), buffer_term("NonEmpty(3)")))
    assert proj_of_term(both, PROJ) == {"s1"}
    assert proj_of_term(And("Q", (Basic("NonEmpty"), Basic("Empty"))), PROJ) == frozenset()


# -- macro/micro refinement -------------------------------------------------

def test_refinement_over_the_fragment():
    edges = [(buffer_term("NonEmpty(3)"), buffer_term("Empty"))]
    out = check_macro_micro_refinement(edges, OK_FRAG, PROJ)
    assert out == {"pass": True, "failures": []}


def test_refinement_failure_carries_witness():
    edges = [(buffer_term("Empty"), buffer_term("NonEmpty(3)"))]
    out = check_macro_micro_refinement(edges, OK_FRAG, PROJ)
    assert out["pass"] is False
    assert out["failures"] == [{"edge": 0, "from": "s6"}]


def test_refinement_single_delta_edge():
    get = parse_message("get()")
    frag = SystemFragment.make(
        nodes=[
            OGSNode("a", {"o": ObjectState(buffer=[get])}),
            OGSNode("b", {"o": ObjectState()}),
        ],
        edges=[("a", "b", ())],
        init=["a"],
        main="o",
    )
    proj = {"X": frozenset(["a"]), "Y": frozenset(["b"])}
    out = check_macro_micro_refinement([(Basic("X"), Basic("Y"))], frag, proj)
    assert out["pass"]


# -- fragment plumbing ------------------------------------------------------

def test_fragment_json_round_trip_essentials():
    assert OK_FRAG.main == "o"
    assert OK_FRAG.init == {"s6"}
    s1 = OK_FRAG.nodes["s1"]
    assert s1.objects["o"].buffer == (Message("get", ()),)
    assert OK_FRAG.successors["s3"] == [("s4", (Message("send", (3,)),))]


@pytest.mark.parametrize("edit", [
    lambda f: f.pop("main"),
    lambda f: f.pop("nodes"),
    lambda f: f["nodes"][0].pop("id"),
    lambda f: f["edges"][0].pop("from"),
    lambda f: f["edges"][0].pop("to"),
], ids=["main", "nodes", "node-id", "edge-from", "edge-to"])
def test_fragment_without_a_required_key_is_not_a_fragment(edit):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    edit(frag)
    with pytest.raises(ValueError, match=r"^not a fragment: expected \{main, "):
        SystemFragment.from_json(json.dumps(frag))


def test_fragment_keys_past_main_nodes_and_ids_are_optional():
    frag = SystemFragment.from_json('{"main": "o", "nodes": [{"id": "a", "objects": {"o": {}}}]}')
    assert (frag.init, frag.successors) == (frozenset(), {"a": []})
    assert frag.nodes["a"].objects["o"] == ObjectState()


def test_fragment_rejects_dangling_edges():
    with pytest.raises(ValueError):
        SystemFragment.make(
            nodes=[OGSNode("a", {"o": ObjectState()})],
            edges=[("a", "ghost", ())],
            init=["a"],
            main="o",
        )


def test_fragment_rejects_a_duplicate_node_id():
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    frag["nodes"].append({**frag["nodes"][1], "objects": {"o": {"vars": {"v": 4}}}})
    with pytest.raises(ValueError, match=r"^duplicate node id 's2'$"):
        SystemFragment.from_json(json.dumps(frag))


def test_fragment_rejects_a_node_without_the_main_object():
    with pytest.raises(ValueError, match="main object"):
        SystemFragment.make(
            nodes=[
                OGSNode("a", {"o": ObjectState()}),
                OGSNode("b", {"other": ObjectState()}),
            ],
            edges=[("a", "b", ())],
            init=["a"],
            main="o",
        )


def test_fragment_run_requires_existing_edges():
    with pytest.raises(ValueError):
        fragment_run(OK_FRAG, ["s1", "s3"])
