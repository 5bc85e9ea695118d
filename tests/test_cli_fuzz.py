"""A fuzz gate for the command line: mutated chart texts, term files and
event strings, run through `cli.main` in this process, end at exit 0-3 with
at most one stderr line, and no exception leaves `main`.

The examples are derandomized, so the gate checks the same inputs on every
run; each case starts no subprocess or thread.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scforge.cli import main
from scforge.gen import gen_guard_free
from scforge.printer import print_chart
from scforge.vdb import encode_guard_free, term_to_sexpr

# seed charts, each with events it reads
SEEDS = [
    ("""statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}""", "put(3), get(), put([1, 2]), get()"),
    ("""statechart Nested for C <<prio:inner>> {
    initial state Top {
        entry / send(0);
        exit / send(2);
        initial state In;
        state Deep;
        In -> Deep : f() / send(1);
    }
    final state Done;
    Deep -> Done : g();
}""", "f(), g()"),
    ("""statechart P for C <<completion:ignore>> {
    initial state A;
    state B;
    A -> B : [matches(x, 2) && x < 9] f(x+1) / o(x) & v = [x, 1] [v == 3];
    B -> A : g(h:t) / send(t);
}""", "f(4), f(3), g([1, 7])"),
    (print_chart(gen_guard_free(1)), "f(), g(), f()"),
]

LONG = "9" * 5000  # past the 4300 digits int() converts by default

# fragments a mutation inserts: tokens of the chart language, and a few
# texts known to be hard to read
PIECES = ["(", ")", "{", "}", "[", "]", ";", ",", ":", "/", "->", "<<", ">>", "&&", "!",
          "==", "+", "-", "state", "initial", "final", "statechart", "entry", "exit", "do",
          "matches", "true", "x", "A", "B", "Empty", "Top", "f()", "0", "-1", LONG, "²",
          "\xff", "\udcff", "\n", "#", "//", "<<prio:outer>>", "<<completion:chaos>>", "(" * 40]

# words a mutation puts in place of a word, so the text mostly still parses
WORDS = ["A", "B", "S0", "S1", "S2", "Empty", "Top", "Deep", "x", "v", "t", "f", "g", "put",
         "send", "0", "2", "-1", LONG, "initial", "final", "state", "true"]

BOUNDS = ["300", "2", "abc", "0", "", " 7 ", LONG]

# term files: encoded guard-free charts, and hand-built and/or terms with
# entry and exit actions, source restrictions, target determinators and
# history
TERMS = [term_to_sexpr(encode_guard_free(gen_guard_free(seed))) for seed in (1, 3, 7)] + [
    "(and P ((or L ((basic x () ()) (basic y ((e 1)) ())) 1 ((trans t1 1 () (f) ((a)) () 2 none))"
    " () ()) (basic z ((p)) ((q))) (basic w () ())) () ((x)))",
    "(or O ((and Q ((basic u () ((o 2))) (or R ((basic r1 () ()) (basic r2 () ())) 1"
    " ((trans t3 1 () (g) () () 2 none)) () ())) () ()) (basic v ((i true)) ())) 1"
    " ((trans t1 1 (u) (f) ((o 1)) () 2 deep) (trans t2 2 () (g) () (r2) 1 shallow)) () ())",
]

TERM_PIECES = ["(", ")", "()", "|", "\\", " ", "basic", "and", "or", "trans", "none", "deep",
               "shallow", "true", "(f)", "((a))", "(basic b () ())", "0", "1", "2", "-1", "9",
               LONG, "\udcff", "(" * 40]
TERM_WORDS = ["S0", "S1", "x", "u", "r2", "t1", "t2", "f", "g", "o", "0", "1", "2", "3", "-1",
              LONG, "none", "deep", "basic", "or", "and", "trans", "true"]


@st.composite
def mutated(draw, text, pieces=PIECES, words=WORDS):
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(st.sampled_from(["word"] * 3 + ["delete", "insert", "duplicate", "replace"]))
        found = list(re.finditer(r"\w+", text))[1:]  # keep `statechart`, or the term's kind
        if op == "word" and found:
            w = draw(st.sampled_from(found))
            text = text[:w.start()] + draw(st.sampled_from(words)) + text[w.end():]
        elif op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            piece = draw(st.sampled_from(pieces) | st.text(max_size=3))
            text = text[:i] + piece + text[j if op == "replace" else i:]
    return text


@st.composite
def inputs(draw):
    """A seed chart and its events, each mutated."""
    chart, events = draw(st.sampled_from(SEEDS))
    return draw(mutated(chart)), draw(mutated(events))


COMMANDS = {
    "parse": lambda chart, events: ["parse", chart, "--format", "json"],
    "check": lambda chart, events: ["check", chart],
    "simplify": lambda chart, events: ["simplify", chart, "--max-steps", "300"],
    "run": lambda chart, events: ["run", chart, "--events", events, "--max-steps", "300"],
    "vdb-run": lambda chart, events: ["vdb-run", chart, "--events", events, "--max-steps", "6",
                                      "--domain=-1,3"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_case(argv, env):
    """Run one command line; it must end at exit 0-3 with at most one
    stderr line, and at exit 2 or 3 with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n"))
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.startswith("error: " if code == 2 else "bound exceeded: ")


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(COMMANDS)), case=inputs(),
       bound=st.just("300") | st.sampled_from(BOUNDS))
def test_cli_ends_every_mutated_input_in_one_line(workdir, command, case, bound):
    chart, events = case
    path = workdir / "chart.sc"
    path.write_text(chart, encoding="utf-8", errors="surrogateescape")
    run_case(COMMANDS[command](str(path), events),
             {"SCFORGE_MAX_NODES": bound, "SCFORGE_MAX_RUNS": "300"})


@st.composite
def term_inputs(draw):
    """A term file's text, mutated, and events its terms read."""
    text = draw(mutated(draw(st.sampled_from(TERMS)), TERM_PIECES, TERM_WORDS))
    return text, draw(mutated("f(), g(), f()"))


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(case=term_inputs())
def test_vdb_run_ends_every_mutated_term_file_in_one_line(workdir, case):
    text, events = case
    path = workdir / "term.sexpr"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    run_case(["vdb-run", str(path), "--events", events, "--max-steps", "6"],
             {"SCFORGE_MAX_NODES": "300", "SCFORGE_MAX_RUNS": "300"})
