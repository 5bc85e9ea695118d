"""Parser and printer tests, including print/parse round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from scforge.actions import (
    Action,
    Assign,
    Call,
    CAnd,
    CCmp,
    Check,
    CMatch,
    CNot,
    COr,
    CTrue,
    CVar,
    EBin,
    ECons,
    EList,
    ELit,
    EVar,
    PCons,
    PEmpty,
    PLit,
    PPlus,
    PVar,
    Send,
    SetTimer,
    StopTimer,
)
from scforge.ast import FullState, InternT, SCFull, Trans
from scforge.flatinterp import format_message
from scforge.parse import (
    LexError,
    Parser,
    ReservedIdentifier,
    StatechartSyntaxError,
    _by_grammar,
    parse,
    parse_message,
    parse_messages,
    tokenize,
)
from scforge.printer import print_chart, to_dot, to_json

BUFFER_TEXT = """
// A one-place buffer.
statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> Empty : get() / send(-1);
    Empty -> NonEmpty : put(i) / v = i;
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(i) / v = i;
}
"""


def test_parse_buffer():
    sc = parse(BUFFER_TEXT)
    assert sc.diagram_name == "Buffer"
    assert sc.class_name == "BufferClass"
    assert {s.name for s in sc.states} == {"Empty", "NonEmpty"}
    assert "initial" in sc.state("Empty").modifiers
    assert len(sc.trans) == 4
    get_loop = next(
        t for t in sc.trans if t.src == "Empty" and t.trg == "Empty"
    )
    assert get_loop.call == Call("get", ())
    assert get_loop.act == Action((Send("send", (ELit(-1),)),), None)
    put = next(t for t in sc.trans if t.src == "Empty" and t.trg == "NonEmpty")
    assert put.call == Call("put", (PVar("i"),))
    assert put.act == Action((Assign("v", EVar("i")),), None)


def test_parse_nesting_and_features():
    text = """
    statechart D for C <<prio:inner, completion:ignore>> {
        [0 <= v];
        <<error>> state Err;
        initial state A {
            [v == 0];
            entry / setTimer [v == 0];
            do / poll();
            exit / stopTimer;
            -> [v < 3] bump(k) / v = v + k;
            initial state A1;
            final state A2 {
                entry / log(v);
            }
            A1 -> A2 : go();
        }
        state B;
        <<prio=2>> A -> B : [v == 1] f(x:xs, 1) / out(x) & v = 0 [v == 0];
        A -> Err : throw oops();
    }
    """
    sc = parse(text)
    assert sc.stereos == {"prio:inner", "completion:ignore"}
    assert sc.inv == CCmp("<=", ELit(0), EVar("v"))
    assert sc.sub == {("A1", "A"), ("A2", "A")}
    a = sc.state("A")
    assert a.inv == CCmp("==", EVar("v"), ELit(0))
    assert a.entry == Action((SetTimer(),), CCmp("==", EVar("v"), ELit(0)))
    assert a.do == Action((Send("poll", ()),), None)
    assert a.exit == Action((StopTimer(),), None)
    [it] = a.internT
    assert it.pre == CCmp("<", EVar("v"), ELit(3))
    assert it.call == Call("bump", (PVar("k"),))
    assert sc.state("Err").sstereos == {"error"}
    assert sc.state("A2").modifiers == {"final"}
    prio_t = next(t for t in sc.trans if t.prio is not None)
    assert prio_t.prio == 2
    assert prio_t.call == Call("f", (PCons(PVar("x"), PVar("xs")), PLit(1)))
    throw_t = next(t for t in sc.trans if t.trg == "Err")
    assert throw_t.call.exception
    # the transition declared inside A still belongs to the chart
    assert any(t.src == "A1" and t.trg == "A2" for t in sc.trans)


def test_parse_sequential_stereotype():
    sc = parse(
        "statechart D for C <<action conditions:sequential>> { initial state A; }"
    )
    assert sc.stereos == {"action conditions:sequential"}


def test_parse_condition_operators():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : [!(a && b) || c == 1 && matches(x, h:t)] f();
        }
        """
    )
    [t] = list(sc.trans)
    assert t.pre == COr(
        CNot(CAnd(CVar("a"), CVar("b"))),
        CAnd(CCmp("==", EVar("c"), ELit(1)), CMatch("x", PCons(PVar("h"), PVar("t")))),
    )


@pytest.mark.parametrize("guard, left", [
    ("(x + 1) == 2", EBin("+", EVar("x"), ELit(1))),
    ("(x) == 1", EVar("x")),
], ids=["sum", "variable"])
def test_parse_parenthesised_expression_compared_in_a_guard(guard, left):
    """`(` opens a condition first; one that ends before `==` is read again
    as an expression."""
    [t] = parse(f"statechart D for C {{ initial state A; A -> A : [{guard}] f(x); }}").trans
    assert t.pre == CCmp("==", left, ELit(int(guard[-1])))


def test_parse_patterns_and_lists():
    sc = parse(
        """
        statechart D for C {
            initial state A;
            A -> A : f([1, 2], n+3, [], true) / xs = 1:[2, 3] & out([]);
        }
        """
    )
    [t] = list(sc.trans)
    assert t.call.args == (
        PCons(PLit(1), PCons(PLit(2), PEmpty())),
        PPlus("n", 3),
        PEmpty(),
        PLit(True),
    )
    assert t.act.stmt == (
        Assign("xs", ECons(ELit(1), EList((ELit(2), ELit(3))))),
        Send("out", (EList(()),)),
    )


# -- errors -----------------------------------------------------------------

def test_syntax_error_reports_position():
    with pytest.raises(StatechartSyntaxError) as exc:
        parse("statechart D for C {\n  state ;\n}")
    assert exc.value.line == 2
    assert exc.value.expected == "identifier"


def test_lex_error():
    with pytest.raises(LexError):
        parse("statechart D for C { state A; @ }")


def test_integer_literal_past_the_digit_limit_is_a_lex_error():
    # int() converts at most 4300 digits under the interpreter's default limit
    digits = "9" * 5000
    with pytest.raises(LexError) as exc:
        parse(f"statechart D for C {{ initial state A; A -> A : f({digits}); }}")
    assert str(exc.value) == "1:50: integer literal of 5000 digits is too long"
    assert tokenize("9" * 4000)[0].value == int("9" * 4000)


# The lexer's corner cases: each text's tokens as (kind, value, line, col),
# the end of the text included, or the text of its LexError.
LEX_CASES = {
    # a comment does not advance the column, so `eof` is reported at its start
    "a  // c": [("ident", "a", 1, 1), ("eof", None, 1, 4)],
    "a // c\n b": [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("eof", None, 2, 3)],
    "x\t\r y": [("ident", "x", 1, 1), ("ident", "y", 1, 5), ("eof", None, 1, 6)],
    # an int ends where its decimal digits do
    "9abc": [("int", 9, 1, 1), ("ident", "abc", 1, 2), ("eof", None, 1, 5)],
    "\u0663\u0664": [("int", 34, 1, 1), ("eof", None, 1, 3)],
    # a non-decimal digit may continue a word but not start one
    "x\u00b2\u00bd": [("ident", "x\u00b2\u00bd", 1, 1), ("eof", None, 1, 4)],
    "_$a": [("ident", "_$a", 1, 1), ("eof", None, 1, 4)],
    "f(\u00b2)": "1:3: unexpected character '\u00b2'",
    "\u00bd": "1:1: unexpected character '\u00bd'",
    "9\u00b2": "1:2: unexpected character '\u00b2'",
    "a\x0bb": "1:2: unexpected character '\\x0b'",
    "a\u3000b": "1:2: unexpected character '\\u3000'",
    "a | b": "1:3: unexpected character '|'",
    "x " + "9" * 4301: "1:3: integer literal of 4301 digits is too long",
    # two-character punctuation first, then one character
    "<<=>>->": [("<<", "<<", 1, 1), ("=", "=", 1, 3), (">>", ">>", 1, 4),
                ("->", "->", 1, 6), ("eof", None, 1, 8)],
    "<=<&&&": [("<=", "<=", 1, 1), ("<", "<", 1, 3), ("&&", "&&", 1, 4),
               ("&", "&", 1, 6), ("eof", None, 1, 7)],
    "state x": [("kw", "state", 1, 1), ("ident", "x", 1, 7), ("eof", None, 1, 8)],
}


@pytest.mark.parametrize("text", list(LEX_CASES), ids=lambda text: repr(text[:16]))
def test_lexer_corner_cases(text):
    expected = LEX_CASES[text]
    if isinstance(expected, str):
        with pytest.raises(LexError) as exc:
            tokenize(text)
        assert str(exc.value) == expected
    else:
        tokens = tokenize(text)
        assert [(t.kind, t.value, t.line, t.col) for t in tokens] == expected
        assert all(type(t.value) is int for t in tokens if t.kind == "int")


def test_transition_requires_body():
    with pytest.raises(StatechartSyntaxError):
        parse("statechart D for C { state A; A -> A; }")


# Each rejected text, with the reserved name and its (line, col).
RESERVED_TEXTS = {
    "statechart D for C { state timeout; }": ("timeout", (1, 28)),
    "statechart D for C { state inp1; }": ("inp1", (1, 28)),
    "statechart D for C { state A$x; }": ("A$x", (1, 28)),
    "statechart D for C { state A; A -> A : f(inp1); }": ("inp1", (1, 42)),
    "statechart D for C { state A; A -> A : f() / timeout = 1; }": ("timeout", (1, 46)),
    "statechart D for C { state A; A -> A : f() / inp2(); }": ("inp2", (1, 46)),
    "statechart D for C { state A; A -> A : inp1(); }": ("inp1", (1, 40)),
    "statechart D for C { state A; A -> A : f() / throw timeout(); }": ("timeout", (1, 52)),
    "statechart D for C {\n  state A {\n    -> g([1, x$y + 2]);\n  }\n}": ("x$y", (3, 14)),
}


@pytest.mark.parametrize("text", list(RESERVED_TEXTS))
def test_reserved_identifiers_rejected(text):
    name, pos = RESERVED_TEXTS[text]
    with pytest.raises(ReservedIdentifier) as err:
        parse(text)
    assert (err.value.line, err.value.col) == pos
    assert str(err.value) == f"{pos[0]}:{pos[1]}: reserved identifier {name!r}"


def test_reserved_identifiers_allowed_when_requested():
    sc = parse(
        "statechart D for C { state A; A -> A : f(inp1); }",
        allow_reserved=True,
    )
    [t] = list(sc.trans)
    assert t.call == Call("f", (PVar("inp1"),))


def test_timeout_is_a_legal_trigger():
    sc = parse("statechart D for C { state A; A -> A : timeout(); }")
    [t] = list(sc.trans)
    assert t.call == Call("timeout", ())
    sc = parse("statechart D for C { state A; A -> A : throw timeout(); }")
    [t] = list(sc.trans)
    assert t.call == Call("timeout", (), exception=True)


def test_unknown_chart_stereotype_rejected():
    with pytest.raises(StatechartSyntaxError):
        parse("statechart D for C <<bogus:thing>> { state A; }")


def test_unknown_state_stereotype_rejected():
    with pytest.raises(StatechartSyntaxError):
        parse("statechart D for C { <<prio:inner>> state A; }")


# -- round-trips ------------------------------------------------------------

def test_round_trip_rich_chart():
    text = """
    statechart D for C <<completion:error, prio:outer>> {
        [0 <= v && v <= 5];
        <<exception>> state Exc;
        initial state A {
            entry / v = 0 & setTimer [v == 0];
            do / tick();
            exit / stopTimer;
            -> [v < 3] bump(k+1) / v = v + k;
            initial state A1 {
                state A11;
            }
            final state A2;
            A1 -> A2 : go([1, x]);
        }
        final state B {
            [v == 9];
        }
        <<prio=1>> A -> B : [matches(xs, h:t)] f(x) / out(x, -2) & throw err() [true];
        A -> Exc : throw boom();
    }
    """
    sc = parse(text)
    printed = print_chart(sc)
    assert parse(printed) == sc
    # printing is deterministic and idempotent
    assert print_chart(parse(printed)) == printed


@pytest.mark.parametrize("body", [
    "initial state B; [v == 1];",
    "entry / a(); [v == 1];",
    "-> g(); [v == 1];",
])
def test_state_invariant_after_nested_items_is_kept(body):
    sc = parse("statechart D for C { initial state A { [v < 9]; " + body + " } A -> A : f(); }")
    assert sc.state("A").inv == CAnd(CCmp("<", EVar("v"), ELit(9)), CCmp("==", EVar("v"), ELit(1)))
    assert parse(print_chart(sc)) == sc


def test_round_trip_buffer():
    sc = parse(BUFFER_TEXT)
    assert parse(print_chart(sc)) == sc


def test_json_and_dot_outputs():
    import json

    sc = parse(BUFFER_TEXT)
    data = json.loads(to_json(sc))
    assert data["kind"] == "full"
    assert [s["name"] for s in data["states"]] == ["Empty", "NonEmpty"]
    dot = to_dot(sc)
    assert "digraph" in dot
    assert '"Empty" -> "NonEmpty"' in dot


def test_dot_draws_nested_states_as_clusters_and_marks_final_states():
    sc = parse(
        """
        statechart Nested for C {
            initial state Top {
                initial state In;
                state Deep;
                In -> Deep : f();
            }
            final state Done;
            Deep -> Done : g();
        }
        """
    )
    dot = to_dot(sc).splitlines()
    top = dot.index('    subgraph "cluster_Top" {')
    assert dot[top + 1:top + 6] == [
        '        label="● Top";',
        '        "Top" [shape=point, style=invis];',
        '        "Deep" [label="Deep", shape=box, style=rounded];',
        '        "In" [label="● In", shape=box, style=rounded];',
        "    }",
    ]
    assert '    "Done" [label="Done ◉", shape=box, style=rounded];' in dot
    assert '    "Deep" -> "Done" [label="g()"];' in dot


# -- property round-trip on generated fragments -----------------------------

names = st.sampled_from(["a", "b", "v", "x9", "_u"])

# Every operand may be any expression, so the printer's parentheses (a cons
# as a cons head or as either operand of `+`/`-`, a sum as a right operand)
# are printed and read back.
exprs = st.deferred(
    lambda: st.one_of(
        names.map(EVar),
        st.integers(-5, 5).map(ELit),
        st.booleans().map(ELit),
        st.builds(EBin, st.sampled_from(["+", "-"]), exprs, exprs),
        st.builds(ECons, exprs, exprs),
        st.lists(exprs, max_size=2).map(lambda xs: EList(tuple(xs))),
    )
)
patterns = st.deferred(
    lambda: st.one_of(
        names.map(PVar),
        st.integers(-5, 5).map(PLit),
        st.booleans().map(PLit),
        st.just(PEmpty()),
        st.builds(PPlus, names, st.integers(0, 3)),
        st.builds(PCons, patterns, patterns),
    )
)
conds = st.deferred(
    lambda: st.one_of(
        st.just(CTrue()),
        names.map(CVar),
        st.builds(CCmp, st.sampled_from(["==", "<", "<="]), exprs, exprs),
        st.builds(CMatch, names, patterns),
        st.builds(CNot, conds),
        st.builds(CAnd, conds, conds),
        st.builds(COr, conds, conds),
    )
)


@given(conds, patterns)
def test_fragment_round_trip(cond, pat):
    sc = SCFull(
        diagram_name="D",
        class_name="C",
        states=frozenset(
            [FullState(modifiers=frozenset(["initial"]), name="A")]
        ),
        trans=frozenset([Trans(None, "A", cond, Call("f", (pat,)), None, "A")]),
    )
    assert parse(print_chart(sc)) == sc


@pytest.mark.parametrize("trigger, send, text", [
    # a cons as a cons head
    (PCons(PCons(PVar("a"), PVar("b")), PVar("c")), ECons(ECons(EVar("a"), EVar("b")), EVar("c")),
     "A -> A : f((a:b):c) / o((a:b):c);"),
    # a cons as the left operand of `-`, a sum as its right operand
    (PVar("a"), EBin("-", ECons(EVar("a"), EList(())), EBin("+", ELit(1), EVar("a"))),
     "A -> A : f(a) / o((a:[]) - (1 + a));"),
])
def test_round_trip_prints_the_parentheses_a_tree_needs(trigger, send, text):
    sc = SCFull(
        diagram_name="D",
        class_name="C",
        states=frozenset([FullState(modifiers=frozenset(["initial"]), name="A")]),
        trans=frozenset([Trans(None, "A", None, Call("f", (trigger,)),
                               Action((Send("o", (send,)),)), "A")]),
    )
    printed = print_chart(sc)
    assert text in printed
    assert parse(printed) == sc


# -- message text: the flat reader against the grammar -------------------------

def _read(read, text):
    """What `read` makes of the text: its messages and their texts, or the
    type and text of what it raised."""
    try:
        out = read(text)
    except (LexError, StatechartSyntaxError) as e:
        return type(e), str(e)
    return out, [format_message(m) for m in (out if isinstance(out, list) else [out])]


# What the pattern reads, and, by the part of a message it takes the place
# of, what it must leave to the grammar: blanks the tokenizer refuses and
# comments, keywords and other words as names, digits outside ASCII, ints
# past `int()`'s digit limit, nested lists and other junk.
_FLAT = dict(
    blanks=st.lists(st.sampled_from(" \t\r\n"), max_size=2).map("".join),
    throw=st.sampled_from(["", "throw ", "throw\n"]),
    name=st.sampled_from(["put", "get", "f", "$x", "_a1", "throwput"]),
    value=st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                    st.sampled_from(["true", "false", "- 4", "-\n0", "007", "9" * 4300])),
)
_ODD = dict(
    blanks=["\f", "\v", "\u00a0", "\u3000", "//c\n"],
    throw=["throw\f", "throw"],
    name=["putä", "x٣", "²f", "throw", "true", "state", "1f"],
    value=["٣", "1٣", "9" * 4301, "- " + "9" * 4301, "-true", "+1", "truex", "--1", "[]",
           "[1, [true, -2]]", "[ -3 ,[]]", "[٣]"],
)
_ODD_PARTS = [(key, text) for key, texts in _ODD.items() for text in texts]


@st.composite
def _message_texts(draw):
    """`throw? name(value, ...)` with blanks between the tokens. Its parts
    are flat, or one of them, or each with a chance of three in ten, is
    odd."""
    n = draw(st.integers(0, 3))
    args = ["value"] + ["blanks", ",", "blanks", "value"] * (n - 1) if n else []
    keys = ["blanks", "throw", "name", "blanks", "(", "blanks", *args, "blanks", ")", "blanks"]
    odd = draw(st.sampled_from(["none", "one", "some"]))
    if odd == "one":
        key, text = draw(st.sampled_from([p for p in _ODD_PARTS if p[0] in keys]))
        the_one = draw(st.sampled_from([i for i, k in enumerate(keys) if k == key]))

    def part(i, key):
        if key in ("(", ",", ")"):
            return key
        if odd == "one" and i == the_one:
            return text
        if odd == "some" and draw(st.integers(0, 9)) >= 7:
            return draw(st.sampled_from(_ODD[key]))
        return draw(_FLAT[key])

    return "".join(part(i, key) for i, key in enumerate(keys))


@st.composite
def _event_texts(draw):
    """One message, or a comma-separated list of messages and empty items,
    perhaps with a piece of junk, a comment or a bracket put in somewhere."""
    item = st.one_of(_message_texts(), _FLAT["blanks"], st.sampled_from(_ODD["blanks"]))
    text = draw(st.one_of(_message_texts(), st.lists(item, max_size=4).map(",".join)))
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from(["// note", "//c\n", ",", "(", ")", "[", "]", "-", ";",
                                     "²", "x", "throw ", "1", "\f", "\n"]))
        text = text[:at] + junk + text[at:]
    return text


@settings(max_examples=500)
@given(_event_texts())
def test_flat_reader_reads_as_the_grammar_does(text):
    """Text the pattern reads gives what the grammar gives; any other text
    goes to the grammar, so both raise the same error."""
    assert _read(parse_message, text) == _read(lambda t: _by_grammar(t, Parser.message), text)
    assert _read(parse_messages, text) == _read(lambda t: _by_grammar(t, Parser.messages), text)


class _ParserBuilt(Exception):
    pass


@pytest.mark.parametrize("read, text, flat", [
    (parse_message, "put(3)", True),
    (parse_message, " throw\tput( - 4 ,true,false )\r\n", True),
    (parse_message, "put(-" + "9" * 4300 + ")", True),
    (parse_messages, "f(), , g(1),", True),
    (parse_messages, "", True),
    (parse_message, "f(), g(1)", False),
    (parse_messages, "put([1, [true]])", False),
    (parse_messages, "put(1) // note", False),
    (parse_messages, "put(٣)", False),
    (parse_messages, "f(), state(1)", False),
    (parse_message, "²f(1)", False),
    (parse_message, "put(" + "9" * 4301 + ")", False),
    (parse_messages, "put(1)\f", False),
], ids=lambda x: x.__name__ if callable(x) else repr(x)[:20])
def test_flat_text_builds_no_parser(monkeypatch, read, text, flat):
    """Flat message text is read without the grammar; other text needs it."""
    def no_parser(self, *args, **kwargs):
        raise _ParserBuilt

    monkeypatch.setattr(Parser, "__init__", no_parser)
    try:
        read(text)
        built = False
    except _ParserBuilt:
        built = True
    assert built is not flat
