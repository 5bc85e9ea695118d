"""Tests for the command-line interface: exit codes and output formats."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scforge import conform
from scforge.actions import Message
from scforge.cli import _events, main
from scforge.flatinterp import format_message, parse_message
from scforge.parse import parse
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import Basic, term_from_sexpr

FIXTURES = Path(__file__).parent / "fixtures"

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

HIER_SC = """
statechart Nested for C {
    initial state Top {
        entry / v = 0;
        initial state In;
        state Deep;
        In -> Deep : f() / send(1);
    }
    final state Done;
    Deep -> Done : g();
}
"""

DUP_SC = """
statechart Dup for C {
    initial state A;
    state A;
    A -> A : f();
}
"""

# X is declared identically under A and under B: one state value, two parents
DUP_PARENTS_SC = """
statechart D for C { initial state A { initial state X; } state B { initial state X; } A -> B : f(); }
"""


NOWHERE_SC = """
statechart Dangling for C {
    initial state A;
    A -> Nowhere : f();
}
"""


@pytest.fixture
def buffer_file(tmp_path):
    p = tmp_path / "buffer.sc"
    p.write_text(BUFFER_SC)
    return str(p)


@pytest.fixture
def hier_file(tmp_path):
    p = tmp_path / "nested.sc"
    p.write_text(HIER_SC)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse -------------------------------------------------------------------

def test_parse_text_round_trips(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "parse", buffer_file)
    assert code == 0
    assert "statechart Buffer for BufferClass" in out
    assert "NonEmpty -> Empty : get() / send(v);" in out


def test_parse_json_and_dot(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "parse", buffer_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["diagram"] == "Buffer"
    code, out, _ = run_cli(capsys, "parse", buffer_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


@pytest.mark.parametrize("actions", [("f(1) / o(1)", "f(true) / o(1)"),
                                     ("f() / v = 1", "f() / v = true"),
                                     ("f() / o(0)", "f() / o(false)")])
def test_transitions_that_differ_in_a_true_or_one_literal_are_both_kept(capsys, tmp_path, actions):
    p = tmp_path / "k4.sc"
    p.write_text("statechart K4 for C { initial state A; state B; "
                 f"A -> B : {actions[0]}; A -> B : {actions[1]}; }}")
    code, out, _ = run_cli(capsys, "parse", str(p))
    assert code == 0
    assert f"    A -> B : {actions[0]};\n    A -> B : {actions[1]};\n" in out


def test_a_true_event_takes_the_transition_on_true(capsys, tmp_path):
    p = tmp_path / "k4.sc"
    p.write_text("statechart K4 for C { initial state A; state B; "
                 "A -> B : f(1) / o(1); A -> B : f(true) / o(1); }")
    code, out, _ = run_cli(capsys, "run", str(p), "--events", "f(true)")
    assert code == 0
    assert "outcome: step in B, emitted o(1)" in out


def test_parse_syntax_error_is_usage(capsys, tmp_path):
    p = tmp_path / "bad.sc"
    p.write_text("statechart Broken {")
    code, _, err = run_cli(capsys, "parse", str(p))
    assert code == 2
    assert "error:" in err


def test_digits_that_are_not_decimal_are_lex_errors(capsys, tmp_path, buffer_file):
    p = tmp_path / "sup.sc"
    p.write_text("statechart S for C { initial state S; S -> S : f(²); }")
    code, out, err = run_cli(capsys, "parse", str(p))
    assert (code, out, err) == (2, "", f"error: {p}: 1:50: unexpected character '²'\n")
    code, out, err = run_cli(capsys, "run", buffer_file, "--events", "f(¹)")
    assert (code, out, err) == (2, "", "error: bad event 'f(¹)': 1:3: unexpected character '¹'\n")
    # decimal digits of other scripts are ints, as before
    code, out, _ = run_cli(capsys, "run", buffer_file, "--events", "put(٣), get()")
    assert code == 0 and "emitted send(3)" in out


@pytest.mark.parametrize("chart, message", [
    ("statechart D for C { initial state A; initial state A; A -> A : f(); }",
     "1:53: state A declared twice"),
    ("statechart D for C { initial state X; state A { initial state X; } X -> A : f(); }",
     "1:63: state X declared twice"),
], ids=["one-parent", "top-level-and-nested"])
def test_identical_state_declarations_are_usage(capsys, tmp_path, chart, message):
    p = tmp_path / "dup.sc"
    p.write_text(chart)
    for command in ("parse", "check", "simplify"):
        assert run_cli(capsys, command, str(p)) == (2, "", f"error: {p}: {message}\n")


DEEP = 3000  # levels of nesting, well past the interpreter's recursion limit


@pytest.mark.parametrize("kind", ["negations", "parentheses", "event", "term", "vars"])
def test_deeply_nested_input_is_usage(capsys, tmp_path, buffer_file, kind):
    chart, other = tmp_path / "deep.sc", tmp_path / "deep.other"
    if kind == "negations":
        chart.write_text("statechart S for C { initial state S; S -> S : ["
                         + "!" * DEEP + "true] f(); }")
        argv = ["check", str(chart)]
    elif kind == "parentheses":
        chart.write_text("statechart S for C { initial state S; S -> S : ["
                         + "(" * DEEP + "1" + ")" * DEEP + " == 1] f(); }")
        argv = ["check", str(chart)]
    elif kind == "event":
        argv = ["run", buffer_file, "--events", "put(" + "[" * DEEP + "]" * DEEP + ")"]
    elif kind == "term":
        other.write_text("(" * DEEP + ")" * DEEP)
        argv = ["vdb-run", str(other), "--events", "f()"]
    else:
        frag = _fragment_with(lambda f: f["nodes"][0]["objects"]["o"]["vars"].update(v="deep"))
        other.write_text(json.dumps(frag).replace('"deep"', "[" * DEEP + "]" * DEEP))
        argv = ["conform", buffer_file, str(other), str(FIXTURES / "buffer_projection.json")]
    assert run_cli(capsys, *argv) == (2, "", "error: input nested too deeply\n")


# an and-term whose one or-child fires on f
FIRING_AND = "(and P ((or Q ((basic A () ()) (basic B () ())) 1 ((trans t 1 () (f) () () 2 none)) () ())) () ())"


def chain(kind: str, levels: int, core: str = "(basic X () ())") -> str:
    """A term file of `levels` or- or and-terms, each the one child of the
    next, around `core`."""
    text = core
    for i in range(levels):
        text = f"(or L{i} ({text}) 1 () () ())" if kind == "or" else f"(and L{i} ({text}) () ())"
    return text


@pytest.mark.parametrize("kind, core", [("or", "(basic X () ())"), ("and", "(basic X () ())"),
                                        ("or", FIRING_AND)], ids=["or", "and", "or-firing-and"])
@pytest.mark.parametrize("levels, code, err", [
    (200, 0, ""),
    (2000, 2, "error: input nested too deeply\n"),
])
def test_vdb_run_explores_a_deep_term_within_the_recursion_limit(capsys, tmp_path, kind, core,
                                                                 levels, code, err):
    """Reading, exploring and printing a term spend a few frames per term
    level: a 200-level chain runs, and one past the recursion limit is
    refused in one line. Each or-level looks once whether its active child
    fires, so an or-chain around a firing and-term takes its step at once,
    where looking twice a level takes 2^levels steps."""
    p = tmp_path / "chain.sexpr"
    p.write_text(chain(kind, levels, core))
    got, out, got_err = run_cli(capsys, "vdb-run", str(p), "--events", "f(), f()")
    assert (got, got_err) == (code, err)
    assert bool(out) == (code == 0)


def test_term_reader_spends_one_frame_a_term_level(capsys, tmp_path):
    """The term reader reads nested lists through `map`, one frame a term
    level, so a 300-level or-chain reads; its token tree, two frames a
    level, refuses at about 500 levels. `vdb-run` still refuses the chain
    in one line: printing the term's repr spends about four frames a level."""
    term, levels = term_from_sexpr(chain("or", 300)), 0
    while not isinstance(term, Basic):
        term, levels = term.subterms[0], levels + 1
    assert levels == 300
    p = tmp_path / "chain.sexpr"
    p.write_text(chain("or", 300))
    assert run_cli(capsys, "vdb-run", str(p), "--events", "f()") == (
        2, "", "error: input nested too deeply\n")


def test_missing_file_is_usage(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent/x.sc")
    assert code == 2
    assert "cannot read" in err


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 2


# -- check -------------------------------------------------------------------

def test_check_clean_chart_exits_zero(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "check", buffer_file)
    assert code == 0
    assert "0 violation(s)" in out


def test_check_duplicate_state_names_exits_one(capsys, tmp_path):
    p = tmp_path / "dup.sc"
    p.write_text(DUP_SC)
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "CC12" in out


def test_state_declared_under_two_parents_is_ill_formed(capsys, tmp_path):
    p = tmp_path / "dup2p.sc"
    p.write_text(DUP_PARENTS_SC)
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "violation CC12 state X: declared under 2 parents: A, B" in out
    code, out, err = run_cli(capsys, "simplify", str(p))
    assert (code, out, err) == (2, "", f"error: {p}: ill-formed chart (CC12)\n")


def test_check_json_lists_violations(capsys, tmp_path):
    p = tmp_path / "dup.sc"
    p.write_text(DUP_SC)
    code, out, _ = run_cli(capsys, "check", str(p), "--format", "json")
    assert code == 1
    codes = {v["code"] for v in json.loads(out) if not v.get("skipped")}
    assert "CC12" in codes


def test_check_with_signature_context(capsys, buffer_file, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({
        "class": "BufferClass",
        "methods": [
            {"name": "put", "arity": 1},
            {"name": "get", "arity": 0},
            {"name": "send", "arity": 1},
        ],
        "attributes": ["v"],
    }))
    code, out, _ = run_cli(capsys, "check", buffer_file, "--ctx", str(sig))
    assert code == 0
    assert "skipped" not in out


# -- transform / simplify ----------------------------------------------------

def test_transform_reaches_flat_simplified(capsys, hier_file):
    code, out, _ = run_cli(capsys, "transform", hier_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["flatAndSimplified"] is True
    assert data["trace"]  # at least one rewrite happened


def test_transform_exhausting_step_bound_exits_three(capsys, hier_file):
    code, _, err = run_cli(capsys, "transform", hier_file, "--max-steps", "1")
    assert code == 3
    assert "bound exceeded" in err


def test_simplify_emits_flat_chart(capsys, hier_file):
    code, out, _ = run_cli(capsys, "simplify", hier_file)
    assert code == 0
    assert "state Top" not in out  # hierarchy gone
    code, out, _ = run_cli(capsys, "simplify", hier_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["diagram"] == "Nested"



def test_simplify_reports_a_chart_that_does_not_flatten(capsys, tmp_path):
    """An entry action on an initial substate is left in the flat chart, so
    it has no simplified form: exit 1 and one `not simplifiable` line."""
    p = tmp_path / "entry.sc"
    p.write_text(
        "statechart InitEntry for C <<completion:ignore>> { initial state Off; "
        "state On { initial state Idle { entry / idle(); } state Busy; Idle -> Busy : job(); } "
        "Off -> On : power(); }"
    )
    code, out, err = run_cli(capsys, "simplify", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("not simplifiable: ") and err.count("\n") == 1, err

# -- run ---------------------------------------------------------------------

def test_run_buffer_put_get(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "put(3), get()"
    )
    assert code == 0
    assert "emitted send(3)" in out
    assert "outcome: step in Empty" in out


def test_run_json_log(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "get()", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["Empty"]["emitted"] == ["send(-1)"]
    assert data["Empty"]["outcome"] == "step"


def test_run_unhandled_trigger_exits_one(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "unknown()"
    )
    assert code == 1
    assert "chaos" in out


BOOM_SC = """
statechart Boom for C {
    initial state A;
    <<exception>> state X;
    A -> X : throw boom();
}
"""


@pytest.mark.parametrize("chart, events, code, outcome", [
    (BUFFER_SC, "throw put(1), get()", 1, "outcome: chaos in Empty, emitted (nothing)"),
    (BOOM_SC, "boom()", 1, "outcome: chaos in A, emitted (nothing)"),
    (BOOM_SC, "throw boom()", 0, "outcome: step in X, emitted (nothing)"),
], ids=["throw-put", "plain-boom", "throw-boom"])
def test_run_matches_the_throw_flag(capsys, tmp_path, chart, events, code, outcome):
    p = tmp_path / "chart.sc"
    p.write_text(chart)
    got, out, _ = run_cli(capsys, "run", str(p), "--events", events)
    assert got == code and out.endswith(f"  {outcome}\n")


def test_run_events_from_file(capsys, buffer_file, tmp_path):
    ev = tmp_path / "events.txt"
    ev.write_text("put(3)\n# a comment\nget()\n")
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", f"@{ev}"
    )
    assert code == 0
    assert "emitted send(3)" in out


def test_run_events_with_several_arguments(capsys, tmp_path):
    chart = tmp_path / "two.sc"
    chart.write_text(
        "statechart Two for C { initial state A; A -> A : f(x, y) / send(y); }"
    )
    code, out, _ = run_cli(
        capsys, "run", str(chart), "--events", "f(1, 2), f([3, 4], 5)"
    )
    assert code == 0
    assert "emitted send(2), send(5)" in out


def test_run_stopped_by_the_step_bound_exits_three(capsys, buffer_file, tmp_path):
    ev = tmp_path / "events.txt"
    ev.write_text("put(1), get()\n" * 6000)
    code, out, err = run_cli(capsys, "run", buffer_file, "--events", f"@{ev}")
    assert code == 3
    assert out == ""
    assert err == ("bound exceeded: run from Empty consumed 10000 of 12000 events"
                   " in 10000 steps; --max-steps raises the bound\n")
    code, out, _ = run_cli(capsys, "run", buffer_file, "--events", f"@{ev}",
                           "--max-steps", "12000", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["Empty"]["log"]) == 12000


def test_run_bound_counts_only_unconsumed_events(capsys, buffer_file):
    code, _, _ = run_cli(capsys, "run", buffer_file, "--events", "put(1), get()",
                         "--max-steps", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "run", buffer_file, "--events", "put(1), get()",
                           "--max-steps", "1")
    assert code == 3
    assert "consumed 1 of 2 events" in err


def _split_top_level(line: str) -> list:
    """The bracket-counting splitter that event lines were once cut with:
    split at the commas outside parentheses and brackets."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(line):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(line[start:i])
            start = i + 1
    return parts + [line[start:]]


def _split_events(text: str) -> list:
    """Event text read by splitting each line, then parsing each part."""
    parts = [p.strip() for line in text.splitlines() if not line.lstrip().startswith("#")
             for p in _split_top_level(line)]
    return [parse_message(p) for p in parts if p]


def _random_value(rng, depth=0):
    kind = rng.random()
    if kind < 0.5 or depth == 2:
        return rng.randint(-12, 12)
    if kind < 0.7:
        return rng.random() < 0.5
    return tuple(_random_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))


def _random_event_line(rng) -> str:
    items = [format_message(Message(rng.choice(["f", "get", "put", "timeout", "inp1"]),
                                    tuple(_random_value(rng) for _ in range(rng.randint(0, 3))),
                                    rng.random() < 0.2))
             for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.3:
        items.insert(rng.randint(0, len(items)), rng.choice(["", " "]))  # an empty item
    line = "".join(item + rng.choice([",", ", ", " , "]) for item in items[:-1]) + (
        items[-1] if items else "")
    if rng.random() < 0.2:
        line += rng.choice([",", ", "])  # a trailing comma
    return rng.choice(["", " ", "\t"]) + line + rng.choice(["", " "])


def test_event_lines_read_as_the_splitter_read_them():
    rng = random.Random(7)
    for _ in range(400):
        text = "\n".join(_random_event_line(rng) for _ in range(rng.randint(1, 3)))
        assert _events(text) == _split_events(text), text


def test_event_line_reading(capsys, buffer_file, tmp_path):
    code, out, err = run_cli(capsys, "run", buffer_file, "--events", "get(), put(x)")
    assert (code, out, err) == (2, "", "error: bad event 'get(), put(x)': 1:12: expected value\n")
    # a comment runs to the end of its line, commas and all
    assert _events("put(1) // note, get()") == [Message("put", (1,))]
    ev = tmp_path / "events.txt"
    ev.write_text("# put(9)\nput(1), , get(),\n  # get()\n\nthrow f([-1, true])\n")
    assert _events(f"@{ev}") == [Message("put", (1,)), Message("get", ()),
                                 Message("f", ((-1, True),), True)]


@pytest.mark.parametrize("char", ["\f", "\v", "\x85", "\u2028"])
def test_event_lines_break_at_newline_only(capsys, buffer_file, tmp_path, char):
    """Other line breaks and blanks are characters the message grammar
    refuses, inside a line or around it."""
    for events in (f"put(1){char}get()", f"{char}put(1), get()"):
        code, out, err = run_cli(capsys, "run", buffer_file, "--events", events)
        assert (code, out) == (2, "") and err.startswith("error: bad event ")
        assert err.count("\n") == 1 and f"unexpected character {char!r}" in err, err
    ev = tmp_path / "events.txt"
    ev.write_text(f"put(1){char}get()\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", buffer_file, "--events", f"@{ev}")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_crlf_events_file_runs_as_its_lf_spelling(capsys, buffer_file, tmp_path):
    text = "# put(9)\n  # get()\nput(1), get()\n\t, put(2),\nget()\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    runs = [run_cli(capsys, "run", buffer_file, "--events", f"@{ev}") for ev in (lf, crlf)]
    assert runs[0] == runs[1] == run_cli(capsys, "run", buffer_file, "--events",
                                         "put(1), get(), put(2), get()")
    assert runs[0][0] == 0 and "emitted send(1), send(2)" in runs[0][1]
    # an indented `#` line is a comment, whatever blanks indent it
    assert _events(" \t\r# put(9)\r\nget()") == [Message("get", ())]


def test_run_text_log_prints_json_values(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "run", buffer_file, "--events", "put([1, [true]]), get()")
    assert code == 0
    assert out.splitlines() == [
        "from Empty:",
        '  step 1: NonEmpty  consumed=put([1, [true]]) emitted=[] store={"v": [1, [true]]}',
        '  step 2: Empty  consumed=get() emitted=["send([1, [true]])"] store={}',
        "  outcome: step in Empty, emitted send([1, [true]])",
    ]


@pytest.mark.parametrize("command", [["run"], ["vdb-run", "--domain=-1,3"]])
def test_malformed_event_is_usage(capsys, buffer_file, command):
    code, out, err = run_cli(
        capsys, *command, buffer_file, "--events", "put(x)"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad event 'put(x)'") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["run", "--events", "f()"], ["simplify"], ["transform"], ["vdb-run", "--events", "f()"],
])
def test_ill_formed_chart_is_usage(capsys, tmp_path, command):
    chart = tmp_path / "nowhere.sc"
    chart.write_text(NOWHERE_SC)
    code, out, err = run_cli(capsys, command[0], str(chart), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {chart}: ill-formed chart (CC4)\n"


def test_run_unbound_variable_is_usage(capsys, tmp_path):
    chart = tmp_path / "unbound.sc"
    chart.write_text("statechart U for C { initial state A; state B; A -> B : f() / send(v); }")
    code, out, err = run_cli(capsys, "run", str(chart), "--events", "f()")
    assert code == 2
    assert out == ""
    assert err == "error: unbound variable v\n"


@pytest.mark.parametrize("chart, events, message", [
    ("statechart L2 for C { initial state A; state B; A -> B : [x < 2] f(x) / o(x); }",
     "f([1])", "cannot apply < to (1,) and 2"),
])
def test_run_ill_typed_guard_is_usage(capsys, tmp_path, chart, events, message):
    path = tmp_path / "typed.sc"
    path.write_text(chart)
    code, out, err = run_cli(capsys, "run", str(path), "--events", events)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_run_completion_guard_tests_the_pattern_before_the_arithmetic(capsys, tmp_path):
    path = tmp_path / "r.sc"
    path.write_text("statechart R for C <<completion:ignore>> { initial state A; state B;"
                    " A -> B : [x == 2] f(x+1) / o(x); }")
    code, out, err = run_cli(capsys, "run", str(path), "--events", "f([1]), f(3)")
    assert (code, err) == (0, "")
    assert out.endswith("outcome: step in B, emitted o(2)\n")


def test_run_guard_equality_tells_true_from_one(capsys, tmp_path):
    path = tmp_path / "t.sc"
    path.write_text("statechart T for C { initial state A; state B; state C;"
                    " A -> B : f() / v = true; B -> C : [v == 1] g() / o(); }")
    code, out, err = run_cli(capsys, "run", str(path), "--events", "f(), g()")
    assert (code, err) == (1, "")
    assert out.endswith("outcome: chaos in B, emitted (nothing)\n")


@pytest.mark.parametrize("chart, events, message", [
    ("A -> A : f(x) / v = x; A -> B : [v == 2] g(v) / o(v);", "f(1), g(2)",
     "v bound to both 1 and 2"),
    ("A -> B : f(x) / x = 2;", "f(1)", "x bound to both 2 and 1"),
])
def test_run_event_binding_that_clashes_with_the_store_is_usage(capsys, tmp_path, chart,
                                                                events, message):
    path = tmp_path / "k.sc"
    path.write_text(f"statechart K for C {{ initial state A; state B; {chart} }}")
    code, out, err = run_cli(capsys, "run", str(path), "--events", events)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_vdb_run_ill_typed_statement_is_usage(capsys, tmp_path):
    chart = tmp_path / "typed.sc"
    chart.write_text("statechart V for C { initial state A; state B; A -> B : f(x) / o(x + [1]); }")
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f(1)", "--domain=1,2")
    assert (code, out, err) == (2, "", "error: cannot apply + to 1 and (1,)\n")


def test_run_starts_from_every_initial_state(capsys, tmp_path):
    chart = tmp_path / "two.sc"
    chart.write_text("statechart D for C { initial state A; initial state B;"
                     " A -> A : f() / send(1); B -> B : f() / send(2); }")
    code, out, _ = run_cli(capsys, "run", str(chart), "--events", "f()", "--format", "json")
    assert code == 0
    assert {init: r["emitted"] for init, r in json.loads(out).items()} == {
        "A": ["send(1)"], "B": ["send(2)"]}


def test_run_on_a_chart_without_states_is_usage(capsys, tmp_path):
    # Flattening marks every top-level state initial when none is (rule 4,
    # addInitTop), so only a chart without states reaches the run with none.
    chart = tmp_path / "empty.sc"
    chart.write_text("statechart S for C { }")
    code, out, err = run_cli(capsys, "run", str(chart), "--events", "f()")
    assert (code, out, err) == (2, "", "error: chart has no initial state\n")


def test_run_bad_init_is_usage(capsys, buffer_file):
    code, _, err = run_cli(
        capsys, "run", buffer_file, "--events", "get()", "--init", "NonEmpty"
    )
    assert code == 2


def test_run_bad_scheduler_is_usage(capsys, buffer_file):
    code, out, err = run_cli(
        capsys, "run", buffer_file, "--events", "get()",
        "--scheduler", "mystery",
    )
    assert (code, out, err) == (
        2, "", "error: scforge run: argument --scheduler: invalid scheduler value: 'mystery'\n")


# -- vdb-run -----------------------------------------------------------------

def test_vdb_run_shows_the_buffer_run(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "put(3), get()",
        "--domain=-1,3", "--max-steps", "2",
    )
    assert code == 0
    assert "{Buffer, Empty} | put(3), get()" in out
    assert "{Buffer, NonEmpty(3)} | get()" in out
    assert "{Buffer, Empty} | send(3)" in out


def test_vdb_run_json(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "put(3), get()",
        "--domain=-1,3", "--max-steps", "2", "--format", "json",
    )
    assert code == 0
    json.loads(out)


def test_vdb_run_uses_a_repeated_domain_value_once(capsys, buffer_file):
    argv = ["vdb-run", buffer_file, "--events", "put(1), get()"]
    once = run_cli(capsys, *argv, "--domain=-1,1")
    assert once[0] == 0
    assert run_cli(capsys, *argv, "--domain=-1,1,1") == once
    assert run_cli(capsys, *argv, "--domain=1,-1,1,-1") == run_cli(capsys, *argv, "--domain=1,-1")


def test_vdb_run_silent_and_term_children_are_not_permuted(capsys, tmp_path):
    p = tmp_path / "and.sexpr"
    p.write_text("(and A (" + " ".join(f"(basic B{i} () ())" for i in range(12)) + ") () ())")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "vdb-run", str(p), "--events", "f()")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("| (empty)")


def test_vdb_run_data_chart_without_domain_is_usage(capsys, buffer_file):
    code, _, err = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "get()"
    )
    assert code == 2


@pytest.mark.parametrize("action, domain, name", [
    ("f() / send(v)", [], "v"),
    ("f(x) / send(w)", ["--domain=0,1"], "w"),
])
def test_vdb_run_read_of_unassigned_variable_is_usage(capsys, tmp_path, action, domain, name):
    chart = tmp_path / "unbound.sc"
    chart.write_text(f"statechart D for C {{ initial state A; A -> A : {action}; }}")
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f()", *domain)
    assert code == 2
    assert out == ""
    assert err == (f"error: {chart}: transition A->A reads {name}, which is neither "
                   "the data variable nor the event parameter\n")


# Every state has two f() transitions with different outputs: 2**L runs.
BRANCH_SC = "\n".join(
    ["statechart Branch for C <<prio:inner, completion:ignore>> {"]
    + [f"    {'initial ' if i == 0 else ''}state B{i};" for i in range(4)]
    + [line for i in range(4) for line in (f"    B{i} -> B{(i + 1) % 4} : f() / out1(1);",
                                           f"    B{i} -> B{(i + 2) % 4} : f() / out2(2);",
                                           f"    B{i} -> B{(i + 3) % 4} : g();")]
    + ["}"]) + "\n"


@pytest.mark.parametrize("events, text_digest, json_digest", [
    ("f(), g(), f(), f()",
     "422a570d12fd5b825ac58579ab86c527ad15ee90667080a1344464da912c735a",
     "028279c3209d582b96bf56ed5c1d5a7a25c6f8b990839017c8dda1209c2255e3"),
    ("f(), f(), g(), f(), f(), f()",
     "001ad3cbfe846595dd705be5fe68917b220760ad07749ba72ab1e344652f4d70",
     "a12aaa792b3dc5ab135842944ed2421d12945de07693c3d522314a1a216df4ec"),
])
def test_vdb_run_outputs_on_a_branching_chart(capsys, tmp_path, events, text_digest, json_digest):
    """Text runs are ordered by length and then repr, JSON runs by repr; the
    digests pin both outputs byte for byte."""
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events)
    assert code == 0 and out.count("run ") == 2 ** events.count("f")
    assert hashlib.sha256(out.encode()).hexdigest() == text_digest
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events, "--format", "json")
    assert code == 0 and len(json.loads(out)) == 2 ** events.count("f")
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest


@pytest.mark.parametrize("variable, value, message", [
    ("SCFORGE_MAX_NODES", "5", "more than 5 distinct nodes"),
    ("SCFORGE_MAX_RUNS", "7", "more than 7 runs"),
])
def test_vdb_run_bounds_exit_three_naming_their_variable(capsys, tmp_path, monkeypatch,
                                                         variable, value, message):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv(variable, value)
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f(), f(), f()")
    assert code == 3
    assert out == ""
    assert err == f"bound exceeded: {message}; {variable} raises the bound\n"
    monkeypatch.setenv(variable, "100")
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", "f(), f(), f()")
    assert code == 0 and out.count("run ") == 8


def test_vdb_run_run_bound_from_the_environment(capsys, tmp_path, monkeypatch):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv("SCFORGE_MAX_RUNS", "4")
    events = "f(), f(), g(), f(), f()"
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", events)
    assert (code, out) == (3, "")
    assert err == "bound exceeded: more than 4 runs; SCFORGE_MAX_RUNS raises the bound\n"
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events, "--max-steps", "2")
    assert code == 0 and out.count("run ") == 4


@pytest.mark.parametrize("variable", ["SCFORGE_MAX_NODES", "SCFORGE_MAX_RUNS"])
@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-5", "", "2.5"])
def test_vdb_run_rejects_a_bound_that_is_no_positive_integer(capsys, tmp_path, monkeypatch,
                                                             variable, value):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv(variable, value)
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f()")
    assert (code, out) == (2, "")
    assert err == f"error: {variable} must be a positive integer, not {value!r}\n"


@pytest.mark.parametrize("text, message", [
    ("(basic (x) () ())", "expected an atom, not the list ['x']"),
    ("(or A ((basic B () ())) 5 () () ())", "'A': active index 5 out of range"),
    ("(or A ((basic B () ()) (basic C () ())) 1 ((trans t 1 () (f) () () 7 none)) () ())",
     "'t': index 7 out of range"),
    ("(or A ((basic B () ()) (basic C () ())) 1 ((trans t 1 () (f) () (Zed) 2 none)) () ())",
     "'t': target determinator 'Zed' is not in its target"),
    ("(or A ((basic B () ())) 1 ((trans t 1 () (f) () () 1 sideways)) () ())",
     "'t': bad history type 'sideways'"),
    ("(or A ((trans t 1 () (f) () () 1 none)) 1 () () ())",
     "expected basic/and/or, not ['trans', 't', '1', [], ['f'], [], [], '1', 'none']"),
    ("(or A ((basic B () ())) 1 ((basic C () ())) () ())",
     "expected trans, not ['basic', 'C', [], []]"),
    ("(or A ((basic B () ())) x () () ())", "expected an integer, not 'x'"),
    ("(basic A (()) ())", "expected a symbol, not ()"),
    ("(basic A ((f x)) ())", "expected an integer, not 'x'"),
    ("(basic A () () ())", "basic takes 3 fields, not 4"),
    ("(or A (basic B () ()) 1 () () ())", "expected a list, not 'basic'"),
    ("()", "expected basic/and/or, not []"),
    ("(or Root ((basic A () ()) (basic A () ())) 1 ((trans t1 1 () (f) ((o)) () 2 none)) () ())",
     "duplicate state name 'A'"),
    ("(or R ((or A ((basic B () ())) 1 ((trans t 1 () (f) () () 1 none)) () ()) (basic C () ()))"
     " 1 ((trans t 1 () (g) () () 2 none)) () ())", "duplicate transition name 't'"),
    ("(and A () () ())", "'A' has no subterms"),
    ("(or Root ((basic A () ()) (basic B () ())) 1 ((trans t1 1 (Zed) (f) ((o)) () 2 none)) () ())",
     "'t1': source restriction 'Zed' is not in its source"),
])
def test_vdb_run_rejects_a_term_file_exploration_cannot_run(capsys, tmp_path, text, message):
    p = tmp_path / "term.sexpr"
    p.write_text(text)
    code, out, err = run_cli(capsys, "vdb-run", str(p), "--events", "f()")
    assert (code, out) == (2, "")
    assert err == f"error: {p}: {message}\n"


def test_vdb_run_keeps_outputs_that_differ_in_true_and_one(capsys, tmp_path):
    p = tmp_path / "k5.sc"
    p.write_text("statechart K5 for C { initial state A; state B; "
                 "A -> B : f() / o(1); A -> B : f() / o(true); }")
    code, out, _ = run_cli(capsys, "vdb-run", str(p), "--events", "f()")
    assert code == 0
    assert out.count("run ") == 2 and "{B, K5} | o(1)\n" in out and "{B, K5} | o(true)\n" in out


def test_vdb_run_refuses_an_exception_event(capsys, buffer_file):
    code, out, err = run_cli(capsys, "vdb-run", buffer_file, "--events", "throw put(1)",
                             "--domain=-1,1")
    assert (code, out) == (2, "")
    assert err == "error: no exception events in vdb-run: throw put(1)\n"


@pytest.mark.parametrize("events, bad", [("put(5), get()", "put(5)"),
                                         ("put(1), put(true)", "put(true)")])
def test_vdb_run_refuses_an_event_value_outside_the_domain(capsys, buffer_file, events, bad):
    code, out, err = run_cli(capsys, "vdb-run", buffer_file, "--events", events, "--domain=-1,1")
    assert (code, out) == (2, "")
    assert err == f"error: event {bad} carries a value outside the domain -1,1\n"


def test_vdb_run_accepts_term_sexpr(capsys, tmp_path):
    p = tmp_path / "term.sexpr"
    p.write_text("(basic Idle () ())")
    code, out, _ = run_cli(
        capsys, "vdb-run", str(p), "--events", "f()", "--max-steps", "1"
    )
    assert code == 0
    assert "{Idle}" in out


# -- conform -----------------------------------------------------------------

def test_conform_ok_fragment(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_ok_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 0
    assert out.count("pass") == 5


def test_conform_double_send_fails_condition_five(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_double_send_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 1
    assert "condition 5: FAIL" in out
    assert "witness" in out


def test_conform_json_format_prints_the_report(capsys, buffer_file):
    fragment = FIXTURES / "fig_double_send_fragment.json"
    projection = FIXTURES / "buffer_projection.json"
    code, out, _ = run_cli(capsys, "conform", buffer_file, str(fragment), str(projection),
                           "--format", "json")
    report = conform.check_system_conformance(
        to_simplified(transform_fixpoint(parse(BUFFER_SC))[0]),
        conform.SystemFragment.from_json(fragment.read_text()),
        conform.load_projection(projection.read_text()))
    assert code == 1
    assert out == conform.report_to_json(report) + "\n"
    assert [(e["condition"], e["pass"]) for e in json.loads(out)] == [
        (1, True), (2, True), (3, True), (4, True), (5, False)]


def test_conform_incomplete_projection_is_usage(capsys, buffer_file, tmp_path):
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({"Empty": ["s6"]}))
    code, _, err = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_ok_fragment.json"), str(proj),
    )
    assert code == 2


def test_conform_unbound_variable_is_usage(capsys, tmp_path):
    chart = tmp_path / "unbound.sc"
    chart.write_text(BUFFER_SC.replace("send(v)", "send(w)"))
    code, out, err = run_cli(
        capsys, "conform", str(chart),
        str(FIXTURES / "fig_ok_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: unbound variable w\n"


def test_conform_ill_typed_statement_is_usage(capsys, tmp_path):
    chart = tmp_path / "typed.sc"
    chart.write_text(BUFFER_SC.replace("send(v)", "send(v + [1])"))
    code, out, err = run_cli(
        capsys, "conform", str(chart),
        str(FIXTURES / "fig_ok_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert (code, out, err) == (2, "", "error: cannot apply + to 3 and (1,)\n")


def test_conform_fragment_without_main_object_is_usage(capsys, buffer_file, tmp_path):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    frag["main"] = "ghost"
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(frag))
    code, _, err = run_cli(
        capsys, "conform", buffer_file, str(path),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert "no main object 'ghost'" in err


def test_conform_failed_intermediate_condition_fails_condition_five(capsys, tmp_path):
    chart = tmp_path / "seq.sc"
    chart.write_text("statechart S for C <<action conditions:sequential>> {"
                     " initial state A { exit / v = 1 [v == 2]; } state B; A -> B : f(); }")
    frag, proj = tmp_path / "frag.json", tmp_path / "proj.json"
    frag.write_text(json.dumps({"main": "o", "init": ["n1"], "nodes": [
        {"id": "n1", "objects": {"o": {"vars": {"v": 0}, "buffer": ["f()"]}}},
        {"id": "n2", "objects": {"o": {"vars": {"v": 1}}}},
    ], "edges": [{"from": "n1", "to": "n2", "M": []}]}))
    proj.write_text(json.dumps({"A": ["n1"], "B": ["n2"]}))
    code, out, err = run_cli(capsys, "conform", str(chart), str(frag), str(proj))
    assert (code, err) == (1, "")
    assert out.endswith("condition 5: FAIL\n  witness: transition A->B on f() enabled at n1 fails"
                        " the intermediate condition v == 2 of its action\n")


@pytest.mark.parametrize("command, bad, expected", [
    ("conform", {"init": [], "nodes": [], "edges": []}, "not a fragment: expected"),
    ("check", {"methods": []}, "not a class signature: expected"),
], ids=["fragment-main", "signature-class"])
def test_json_input_without_a_required_key_names_its_shape(capsys, buffer_file, tmp_path,
                                                           command, bad, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    argv = (["conform", buffer_file, str(path), str(FIXTURES / "buffer_projection.json")]
            if command == "conform" else ["check", buffer_file, "--ctx", str(path)])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {expected} ") and err.count("\n") == 1


def test_conform_fragment_with_a_duplicate_node_id_is_usage(capsys, buffer_file, tmp_path):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    frag["nodes"].append({**frag["nodes"][1], "objects": {"o": {"vars": {"v": 4}}}})
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(frag))
    code, out, err = run_cli(
        capsys, "conform", buffer_file, str(path), str(FIXTURES / "buffer_projection.json"),
    )
    assert (code, out, err) == (2, "", f"error: {path}: duplicate node id 's2'\n")


@pytest.mark.parametrize("edit, where", [
    (lambda o, f: o.update(buffer=["get()", "put(x)"]), "node 's1', object 'o', buffer"),
    (lambda o, f: o.update(threads={"th1": ["put(x)"]}), "node 's1', object 'o', thread 'th1'"),
    (lambda o, f: f["edges"][0].update(M=["put(x)"]), "edge 's1' -> 's2', M"),
])
def test_conform_malformed_fragment_message_names_its_place(capsys, buffer_file, tmp_path,
                                                            edit, where):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    edit(frag["nodes"][0]["objects"]["o"], frag)
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(frag))
    code, out, err = run_cli(
        capsys, "conform", buffer_file, str(path), str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {where}: malformed message 'put(x)': 1:5: expected value\n"


def test_conform_projection_naming_no_chart_state_is_usage(capsys, buffer_file, tmp_path):
    proj = json.loads((FIXTURES / "buffer_projection.json").read_text())
    proj["Ghost"] = ["s2"]
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(proj))
    code, out, err = run_cli(
        capsys, "conform", buffer_file, str(FIXTURES / "fig_ok_fragment.json"), str(path),
    )
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: Ghost is neither a chart state nor S(value) "
                   "for a chart state S\n")


def _fragment_with(edit):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    edit(frag)
    return frag


@pytest.mark.parametrize("command, bad", [
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["edges"][0].update(M=5)), id="edge-label-not-a-list"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["nodes"][0]["objects"]["o"].update(vars=3)), id="vars-not-an-object"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f.update(nodes=5)), id="nodes-not-a-list"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["nodes"][0]["objects"]["o"].update(buffer=["put(x)"])),
        id="buffer-message-malformed"),
    pytest.param("conform-projection", ["s1"], id="projection-a-list"),
    pytest.param("conform-projection", {"Empty": 3, "NonEmpty": ["s1"]},
                 id="projection-to-a-number"),
    pytest.param("check-ctx", {"class": "C", "methods": [3]}, id="method-a-number"),
    pytest.param("check-ctx", [1], id="signature-a-list"),
])
def test_malformed_json_input_is_usage(capsys, buffer_file, tmp_path, command, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    argv = {
        "conform-fragment": ["conform", buffer_file, str(path),
                             str(FIXTURES / "buffer_projection.json")],
        "conform-projection": ["conform", buffer_file,
                               str(FIXTURES / "fig_ok_fragment.json"), str(path)],
        "check-ctx": ["check", buffer_file, "--ctx", str(path)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# -- gen ---------------------------------------------------------------------

def test_gen_output_parses_and_checks_clean(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--seed", "7")
    assert code == 0
    p = tmp_path / "gen.sc"
    p.write_text(out)
    assert run_cli(capsys, "check", str(p))[0] == 0


def test_gen_guard_free_flag(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "1", "--guard-free")
    assert code == 0
    assert "prio:inner" in out and "completion:ignore" in out


# -- stability and entry point ----------------------------------------------

def test_outputs_are_byte_stable(capsys, hier_file):
    outs = set()
    for _ in range(3):
        outs.add(run_cli(capsys, "transform", hier_file, "--format", "json")[1])
        outs.add(run_cli(capsys, "transform", hier_file)[1])
    assert len(outs) == 2


def test_module_entry_point(buffer_file):
    proc = subprocess.run(
        [sys.executable, "-m", "scforge.cli", "parse", buffer_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "statechart Buffer" in proc.stdout


def test_closed_stdout_ends_quietly(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "scforge.cli", "gen", "--guard-free", "--seed", "36"],
        capture_output=True, text=True, check=True,
    )
    chart = tmp_path / "gf.sc"
    chart.write_text(gen.stdout)
    # about 950 KB of runs, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "scforge.cli", "vdb-run", str(chart),
         "--events", ", ".join(["f()"] * 10)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"run 1:\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("argv, message", [
    (["gen", "--states", "1"], "--states must be at least 3, not 1"),
    (["gen", "--states", "2"], "--states must be at least 3, not 2"),
    (["gen", "--states", "1", "--guard-free"], "--states must be at least 2, not 1"),
    (["conform", "{chart}", "f.json", "p.json", "--bound", "-2"],
     "--bound must be at least 0, not -2"),
    (["transform", "{chart}", "--max-steps", "-1"], "--max-steps must be at least 0, not -1"),
    (["run", "{chart}", "--events", "put(1)", "--max-steps", "-1"],
     "--max-steps must be at least 0, not -1"),
    (["vdb-run", "{chart}", "--events", "get()", "--max-steps", "-1"],
     "--max-steps must be at least 0, not -1"),
])
def test_out_of_range_numbers_are_one_line_usage_errors(capsys, buffer_file, argv, message):
    code, out, err = run_cli(capsys, *(a.format(chart=buffer_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["gen", "--seed", "abc"], "scforge gen: argument --seed: invalid int value: 'abc'"),
    (["run"], "scforge run: the following arguments are required: chart, --events"),
    # how argparse lists the choices differs between Python versions
    (["run", "{chart}", "--events", "get()", "--match", "nope"],
     "scforge run: argument --match: invalid choice: 'nope' (choose from "),
    ([], "scforge: the following arguments are required: command"),
    (["run", "{chart}", "--events", "get()", "--max-steps", "abc"],
     "scforge run: argument --max-steps: invalid int value: 'abc'"),
    (["conform", "{chart}", "f.json", "p.json", "--bound", "1.5"],
     "scforge conform: argument --bound: invalid int value: '1.5'"),
])
def test_argument_errors_are_one_line_usage_errors(capsys, buffer_file, argv, message):
    code, out, err = run_cli(capsys, *(a.format(chart=buffer_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: scforge") and err == ""


def test_smallest_numbers_are_accepted(capsys, buffer_file):
    assert run_cli(capsys, "gen", "--states", "3")[0] == 0
    assert run_cli(capsys, "gen", "--states", "2", "--guard-free")[0] == 0
    assert run_cli(capsys, "vdb-run", buffer_file, "--events", "get()", "--max-steps", "0",
                   "--domain", "0")[0] == 0
    code, out, _ = run_cli(capsys, "conform", buffer_file,
                           str(FIXTURES / "fig_ok_fragment.json"),
                           str(FIXTURES / "buffer_projection.json"), "--bound", "0")
    assert code == 1 and "not realized within 0 steps" in out


# -- specs checked when parsed, long literals, names, encodings -------------

FLATTENING = {
    "transform": [],
    "simplify": [],
    "run": ["--events", "get()"],
    "conform": [str(FIXTURES / "fig_ok_fragment.json"), str(FIXTURES / "buffer_projection.json")],
}


@pytest.mark.parametrize("spec", ["bogus", "random:abc"])
@pytest.mark.parametrize("command", list(FLATTENING))
def test_bad_strategy_is_one_line_usage_error(capsys, buffer_file, command, spec):
    argv = [command, buffer_file, *FLATTENING[command], "--strategy", spec]
    assert run_cli(capsys, *argv) == (
        2, "", f"error: scforge {command}: argument --strategy: invalid strategy value: {spec!r}\n")


LONG = "9" * 5000  # past the 4300 digits int() converts by default


def test_integer_literal_past_the_digit_limit_is_usage(capsys, tmp_path, buffer_file,
                                                       monkeypatch):
    p = tmp_path / "long.sc"
    p.write_text(f"statechart S for C {{ initial state S; S -> S : f({LONG}); }}")
    assert run_cli(capsys, "parse", str(p)) == (
        2, "", f"error: {p}: 1:50: integer literal of 5000 digits is too long\n")
    assert run_cli(capsys, "run", buffer_file, "--events", f"put({LONG})") == (
        2, "", f"error: bad event 'put({LONG})': 1:5: integer literal of 5000 digits is too long\n")
    monkeypatch.setenv("SCFORGE_MAX_NODES", LONG)
    assert run_cli(capsys, "vdb-run", buffer_file, "--events", "get()", "--domain", "0") == (
        2, "", f"error: SCFORGE_MAX_NODES must be a positive integer, not {LONG!r}\n")


@pytest.mark.parametrize("chart", [
    "statechart A for C { initial state A; A -> A : f(); }",
    "statechart A for C { initial state B { initial state A; } B -> B : f(); }",
], ids=["flat", "nested"])
def test_vdb_run_state_named_as_the_chart_is_usage(capsys, tmp_path, chart):
    p = tmp_path / "same.sc"
    p.write_text(chart)
    assert run_cli(capsys, "vdb-run", str(p), "--events", "f()") == (
        2, "", f"error: {p}: state A has the chart's name\n")


@pytest.mark.parametrize("kind", ["chart", "events", "term", "fragment", "projection", "ctx"])
def test_input_that_is_not_utf8_is_usage(capsys, tmp_path, buffer_file, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"put(1)\xff\n")
    argv = {
        "chart": ["parse", str(bad)],
        "events": ["run", buffer_file, "--events", f"@{bad}"],
        "term": ["vdb-run", str(bad), "--events", "f()"],
        "fragment": ["conform", buffer_file, str(bad), str(FIXTURES / "buffer_projection.json")],
        "projection": ["conform", buffer_file, str(FIXTURES / "fig_ok_fragment.json"), str(bad)],
        "ctx": ["check", buffer_file, "--ctx", str(bad)],
    }[kind]
    assert run_cli(capsys, *argv) == (
        2, "", f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
        " in position 6: invalid start byte\n")


def test_vdb_run_bad_domain_names_the_value(capsys, buffer_file):
    assert run_cli(capsys, "vdb-run", buffer_file, "--events", "get()", "--domain", "1,x") == (
        2, "", "error: bad domain '1,x': invalid literal for int() with base 10: 'x'\n")


def test_run_from_a_state_the_chart_lacks_is_usage(capsys, buffer_file):
    assert run_cli(capsys, "run", buffer_file, "--events", "get()", "--init", "Nope") == (
        2, "", "error: Nope is not an initial state\n")
