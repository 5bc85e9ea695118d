"""Recursive-descent parser for the textual statechart format.

The dialect, in brief (`//` starts a line comment):

    statechart Name for Class <<prio:inner, completion:ignore>> {
        [chart-invariant];
        initial state A {
            [state-invariant];
            entry / x = 1 [x == 1];
            do / ping();
            exit / stopTimer;
            -> f(i) [i < 3] / x = i;          // internal transition
            state Inner;                      // nesting populates `sub`
        }
        <<prio=2>> A -> B : f(i + 1) [x == 0] / send(i) & x = i [x == i];
    }

Transitions may appear at any nesting level; they always belong to the chart.
"""

from __future__ import annotations

import re
from typing import NoReturn, Optional

from . import actions as act
from .actions import (
    Action,
    Assign,
    Call,
    CAnd,
    CCmp,
    Check,
    CMatch,
    CNot,
    Cond,
    COr,
    CTrue,
    CFalse,
    CVar,
    EBin,
    ECons,
    EList,
    ELit,
    EVar,
    Expr,
    Message,
    Pattern,
    PCons,
    PEmpty,
    PLit,
    PPlus,
    PVar,
    Send,
    SetTimer,
    StopTimer,
    Stmt,
)
from .ast import (
    CHART_STEREOS,
    FullState,
    InternT,
    SCFull,
    STATE_STEREOS,
    Trans,
)


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line, self.col, self.message = line, col, message


class StatechartSyntaxError(Exception):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"{line}:{col}: expected {expected}")
        self.line, self.col, self.expected = line, col, expected


class ReservedIdentifier(Exception):
    def __init__(self, line: int, col: int, name: str):
        super().__init__(f"{line}:{col}: reserved identifier {name!r}")
        self.line, self.col, self.name = line, col, name


class DuplicateState(Exception):
    """A state declared exactly as an earlier one, which the chart value,
    a set of states, cannot tell apart from it."""

    def __init__(self, line: int, col: int, name: str):
        super().__init__(f"{line}:{col}: state {name} declared twice")
        self.line, self.col, self.name = line, col, name


KEYWORDS = set(
    "statechart for state entry exit do initial final skip setTimer stopTimer"
    " check throw true false matches".split()
)

NO_LITERAL = object()  # Parser.literal found no literal


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r})"


# After blanks: a newline, a comment, an int, a word, two- then
# one-character punctuation, any other character (an error), or the end.
_TOKEN = re.compile(r"[ \t\r]*(?:(\n)|(//[^\n]*)|(\d+)|([\w$]+)"
                    r"|(<<|>>|->|&&|\|\||<=|==|[{}()\[\];,:/&!=<+-])|(.)|\Z)")
_NEWLINE, _COMMENT, _INT, _WORD, _PUNCT = range(1, 6)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # the line's number and the offset where it starts
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        start = m.start(group) if group else m.end()
        value, col = text[start:m.end()], start - line_start + 1
        if group == _WORD and (value[0].isalpha() or value[0] in "_$"):
            tokens.append(Token("kw" if value in KEYWORDS else "ident", value, line, col))
        elif group == _PUNCT:
            tokens.append(Token(value, value, line, col))
        elif group == _NEWLINE:
            line, line_start = line + 1, m.end()
        elif group == _INT:
            try:
                tokens.append(Token("int", int(value), line, col))
            except ValueError:  # more digits than the interpreter converts
                raise LexError(line, col, f"integer literal of {len(value)} digits is too long") from None
        elif group == _COMMENT:
            # A comment does not advance the column: the end of the text
            # after one is reported where the comment starts.
            line_start += len(value)
        elif group is None:  # the end of the text
            break
        else:  # any other character, or a word that starts with one: `\w`
            # also takes digits that are not decimal, such as `²`
            raise LexError(line, col, f"unexpected character {value[0]!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens


class Parser:
    def __init__(self, text: str, allow_reserved: bool = False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved
        # what the chart declares, in text order, and each state's parents
        self.states: list[FullState] = []
        self.trans: list[Trans] = []
        self.sub: list[tuple[str, str]] = []
        self.parents: dict[FullState, set] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # Never past `eof`: `next` stops there, and `peek(1)` is only called
        # while the current token is `-`, `+`, `true` or `false`.
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value=None) -> bool:
        """Consume the next token if it is a `kind` (of `value`)."""
        if self.at(kind, value):
            self.next()
            return True
        return False

    def fail(self, expected: str) -> NoReturn:
        tok = self.peek()
        raise StatechartSyntaxError(tok.line, tok.col, expected)

    def expect(self, kind: str, value=None) -> Token:
        if not self.at(kind, value):
            self.fail(value or kind)
        return self.next()

    # -- shared grammar rules ----------------------------------------------

    def ident(self, declaring: bool = False, exempt: str = "") -> str:
        """A name. A declaring name (a state, a pattern or assigned variable,
        a trigger or a sent message other than `exempt`) must not be
        reserved, unless the parser allows reserved names."""
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("identifier")
        name = self.next().value
        if declaring and not self.allow_reserved and name != exempt and act.is_reserved(name):
            raise ReservedIdentifier(tok.line, tok.col, name)
        return name

    def items(self, item, close: str) -> list:
        """`item, item, ...` (possibly none), then the `close` token."""
        out = []
        if not self.at(close):
            out.append(item())
            while self.accept(","):
                out.append(item())
        self.expect(close)
        return out

    def literal(self):
        """An int, a negative int, `true` or `false`; NO_LITERAL if none is next."""
        if self.at("int"):
            return self.next().value
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return -self.next().value
        if self.peek().value in ("true", "false"):
            return self.next().value == "true"
        return NO_LITERAL

    def throw(self) -> bool:
        """Reads an optional `throw` prefix; True if it was there."""
        return self.accept("kw", "throw")

    def check_stereotype(self, values, prio, allowed, what: str) -> None:
        if prio is not None:
            self.fail(f"{what} stereotype")
        for v in values:
            if v not in allowed:
                self.fail(f"{what} stereotype (got {v!r})")

    # -- entry point -------------------------------------------------------

    def parse_chart(self) -> SCFull:
        self.expect("kw", "statechart")
        diagram = self.ident()
        self.expect("kw", "for")
        class_name = self.ident()
        stereos: frozenset[str] = frozenset()
        if self.at("<<"):
            values, prio = self.parse_stereotype()
            self.check_stereotype(values, prio, CHART_STEREOS, "chart")
            stereos = frozenset(values)
        self.expect("{")
        invs: list[Cond] = []
        while not self.at("}"):
            self.parse_item(None, invs)
        self.expect("}")
        return SCFull(
            stereos=stereos,
            diagram_name=diagram,
            class_name=class_name,
            inv=act.conj_opt(*invs),
            states=frozenset(self.states),
            trans=frozenset(self.trans),
            sub=frozenset(self.sub),
        )

    def parse_item(self, parent: Optional[str], invs: list) -> None:
        """A state, a transition, or an invariant of the enclosing scope,
        which `invs` collects."""
        if self.at("["):
            invs.append(self.parse_bracket_cond())
            self.expect(";")
            return
        # stereotype may precede either a state or a transition
        stereo_vals: list[str] = []
        prio: Optional[int] = None
        if self.at("<<"):
            stereo_vals, prio = self.parse_stereotype()
        if self.peek().value in ("state", "initial", "final"):
            self.parse_state(parent, stereo_vals, prio)
        else:
            self.parse_transition(stereo_vals, prio)

    def parse_state(self, parent, stereo_vals, prio) -> None:
        self.check_stereotype(stereo_vals, prio, STATE_STEREOS, "state")
        modifiers: set[str] = set()
        while self.peek().value in ("initial", "final"):
            modifiers.add(self.next().value)
        self.expect("kw", "state")
        name_tok = self.peek()
        name = self.ident(declaring=True)
        if parent is not None:
            self.sub.append((name, parent))
        invs: list[Cond] = []
        actions: dict[str, Action] = {}
        internT: list[InternT] = []
        if not self.accept(";"):
            self.expect("{")
            while self.at("["):
                self.parse_item(name, invs)
            while self.peek().value in ("entry", "do", "exit"):
                kw = self.next().value
                actions[kw] = self.parse_action_part()
                self.expect(";")
            while not self.at("}"):
                if self.accept("->"):
                    self.accept(":")
                    internT.append(InternT(*self.parse_trans_body()))
                    self.expect(";")
                else:
                    self.parse_item(name, invs)
            self.expect("}")
        state = FullState(
            sstereos=frozenset(stereo_vals),
            modifiers=frozenset(modifiers),
            name=name,
            inv=act.conj_opt(*invs),
            entry=actions.get("entry"),
            exit=actions.get("exit"),
            do=actions.get("do"),
            internT=frozenset(internT),
        )
        # An identical declaration is kept apart only by a second parent.
        parents = self.parents.setdefault(state, set())
        if parents and (parent is None or None in parents or parent in parents):
            raise DuplicateState(name_tok.line, name_tok.col, name)
        parents.add(parent)
        self.states.append(state)

    def parse_transition(self, stereo_vals, prio) -> None:
        if stereo_vals:
            self.fail("transition stereotype <<prio=n>>")
        src = self.ident()
        self.expect("->")
        trg = self.ident()
        if not self.accept(":"):
            self.fail("': <transition body>'")
        pre, call, action = self.parse_trans_body()
        self.expect(";")
        self.trans.append(Trans(prio, src, pre, call, action, trg))

    def parse_trans_body(self):
        pre = None
        if self.at("["):
            pre = self.parse_bracket_cond()
        call = self.parse_call_pattern()
        action = None
        if self.at("/"):
            action = self.parse_action_part()
        return pre, call, action

    def parse_call_pattern(self) -> Call:
        exception = self.throw()
        # `timeout` is a legitimate trigger (the timer expiry event); the other
        # reserved names stay off-limits.
        name = self.ident(declaring=True, exempt=act.TIMEOUT)
        self.expect("(")
        return Call(name, tuple(self.items(self.parse_pattern, ")")), exception)

    def parse_action_part(self) -> Action:
        self.expect("/")
        stmt = self.parse_stmt_seq()
        post = None
        if self.at("["):
            post = self.parse_bracket_cond()
        return Action(stmt, post)

    # -- stereotypes -------------------------------------------------------

    def parse_stereotype(self) -> tuple[list[str], Optional[int]]:
        """Returns (canonical values, prio) where prio comes from <<prio=n>>."""
        self.expect("<<")
        if self.at(">>"):
            self.fail("identifier")  # a stereotype list is never empty
        entries = self.items(self.parse_stereotype_entry, ">>")
        prios = [e for e in entries if isinstance(e, int)]
        return [e for e in entries if isinstance(e, str)], (prios[-1] if prios else None)

    def parse_stereotype_entry(self):
        """A stereotype value, or the int n of `prio=n`."""
        word = self.ident()
        if word == "prio" and self.accept("="):
            return self.expect("int").value
        if self.accept(":"):
            return f"{word}:{self.ident()}"
        if word == "action":
            # the two-word stereotype "action conditions:sequential"
            second = self.ident()
            self.expect(":")
            return f"{word} {second}:{self.ident()}"
        return word

    # -- conditions --------------------------------------------------------

    def parse_bracket_cond(self) -> Cond:
        self.expect("[")
        c = self.parse_cond()
        self.expect("]")
        return c

    def parse_cond(self) -> Cond:
        left = self.parse_conj()
        while self.accept("||"):
            left = COr(left, self.parse_conj())
        return left

    def parse_conj(self) -> Cond:
        left = self.parse_unary()
        while self.accept("&&"):
            left = CAnd(left, self.parse_unary())
        return left

    def parse_unary(self) -> Cond:
        if self.accept("!"):
            return CNot(self.parse_unary())
        return self.parse_cond_atom()

    EXPR_FOLLOW = ("==", "<", "<=", "+", "-", ":")

    def parse_cond_atom(self) -> Cond:
        save = self.pos
        if self.accept("("):
            # could be a parenthesized condition or a parenthesized expression
            try:
                c = self.parse_cond()
                self.expect(")")
                if self.peek().kind in self.EXPR_FOLLOW:
                    self.fail("condition")
                return c
            except StatechartSyntaxError:
                self.pos = save  # re-parse as an expression comparison
        if self.peek().value in ("true", "false") and self.peek(1).kind not in self.EXPR_FOLLOW:
            return CTrue() if self.next().value == "true" else CFalse()
        if self.accept("kw", "matches"):
            self.expect("(")
            var = self.ident()
            self.expect(",")
            pat = self.parse_pattern()
            self.expect(")")
            return CMatch(var, pat)
        expr = self.parse_expr()
        for op in ("==", "<=", "<"):
            if self.accept(op):
                return CCmp(op, expr, self.parse_expr())
        if isinstance(expr, EVar):
            return CVar(expr.name)
        self.fail("comparison operator")

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> Expr:
        left = self.parse_arith()
        if self.accept(":"):
            return ECons(left, self.parse_expr())
        return left

    def parse_arith(self) -> Expr:
        left = self.parse_expr_atom()
        while self.at("+") or self.at("-"):
            op = self.next().value
            left = EBin(op, left, self.parse_expr_atom())
        return left

    def parse_expr_atom(self) -> Expr:
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        value = self.literal()
        if value is not NO_LITERAL:
            return ELit(value)
        if self.accept("["):
            return EList(tuple(self.items(self.parse_expr, "]")))
        if self.at("ident"):
            return EVar(self.ident())
        self.fail("expression")

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        left = self.parse_pattern_atom()
        if self.accept(":"):
            return PCons(left, self.parse_pattern())
        return left

    def parse_pattern_atom(self) -> Pattern:
        if self.accept("("):
            p = self.parse_pattern()
            self.expect(")")
            return p
        value = self.literal()
        if value is not NO_LITERAL:
            return PLit(value)
        if self.accept("["):
            out: Pattern = PEmpty()
            for item in reversed(self.items(self.parse_pattern, "]")):
                out = PCons(item, out)
            return out
        if self.at("ident"):
            name = self.ident(declaring=True)
            if self.at("+") and self.peek(1).kind == "int":
                self.next()
                return PPlus(name, self.next().value)
            return PVar(name)
        self.fail("pattern")

    # -- statements --------------------------------------------------------

    def parse_stmt_seq(self) -> Stmt:
        prims = [self.parse_stmt_prim()]
        while self.accept("&"):
            prims.append(self.parse_stmt_prim())
        return tuple(p for p in prims if p is not None)

    def parse_stmt_prim(self):
        """A primitive statement, or None for `skip`."""
        if self.accept("kw", "skip"):
            return None
        if self.accept("kw", "setTimer"):
            return SetTimer()
        if self.accept("kw", "stopTimer"):
            return StopTimer()
        if self.accept("kw", "check"):
            self.expect("(")
            c = self.parse_cond()
            self.expect(")")
            return Check(c)
        exception = self.throw()
        name = self.ident(declaring=True)
        if not exception and self.accept("="):
            return Assign(name, self.parse_expr())
        self.expect("(")
        return Send(name, tuple(self.items(self.parse_expr, ")")), exception)

    # -- message text ------------------------------------------------------

    def parse_value(self):
        """A message argument: a literal or a [list] of values."""
        value = self.literal()
        if value is not NO_LITERAL:
            return value
        if self.accept("["):
            return tuple(self.items(self.parse_value, "]"))
        self.fail("value")

    def message(self) -> Message:
        """`throw? name(value, ...)`: one message of event text."""
        exception = self.throw()
        name = self.ident()
        self.expect("(")
        return Message(name, tuple(self.items(self.parse_value, ")")), exception)

    def messages(self) -> list[Message]:
        """`message? ("," message?)*`: an empty item between commas, or
        after the last, is skipped."""
        out = []
        while True:
            if not (self.at(",") or self.at("eof")):
                out.append(self.message())
            if not self.accept(","):
                return out


def parse(text: str, allow_reserved: bool = False) -> SCFull:
    """Parse statechart text. Strict mode rejects the reserved names `inp<k>`,
    `timeout` (except as a trigger) and `$`-names wherever the chart
    introduces a name; `allow_reserved` lifts that."""
    parser = Parser(text, allow_reserved=allow_reserved)
    sc = parser.parse_chart()
    parser.expect("eof")
    return sc


# -- flat message text --------------------------------------------------------
#
# Most message text is flat: `throw? name(v, ...)` whose arguments are ints,
# negative ints, `true` or `false`. One pattern reads such a message, or one
# item of a comma-separated list of them, with no token list and no parser.
# Any other text goes whole to the grammar, which stays the reference and the
# one source of error positions: nested lists, comments, letters or digits
# outside ASCII, a keyword as a name, an int too long for `int()`, and every
# error. Blanks are the tokenizer's `[ \t\r\n]`, not `\s`, which also takes
# `\f`, `\v` and Unicode spaces; digits are `[0-9]`, not `\d`.

_B = r"[ \t\r\n]*"
_VALUE = r"(?:-[ \t\r\n]*)?[0-9]+|true|false"
# blanks, then optionally a message and blanks, then a comma or the end;
# groups 1-4: `throw`, the name, the arguments' text and the comma
_FLAT_ITEM = re.compile(
    rf"{_B}(?:(?:(throw)[ \t\r\n]+)?([A-Za-z_$][A-Za-z0-9_$]*){_B}\({_B}"
    rf"((?:{_VALUE}){_B}(?:,{_B}(?:{_VALUE}){_B})*)?\){_B})?(,|\Z)")


def _flat_value(text: str):
    """The value of one argument's text that `_FLAT_ITEM` matched."""
    text = text.strip(" \t\r\n")
    if text[0] == "-":
        return -int(text[1:])
    return text == "true" if text[0] in "tf" else int(text)  # `true` or `false`


def _flat_message(m: re.Match) -> Optional[Message]:
    """The message of an item `_FLAT_ITEM` matched, or None when the grammar
    must read it: its name is a keyword or an int is too long."""
    throw, name, args, _ = m.groups()
    if name in KEYWORDS:
        return None
    try:
        values = tuple(map(_flat_value, args.split(","))) if args else ()
    except ValueError:  # more digits than the interpreter converts
        return None
    return Message(name, values, throw is not None)


def _by_grammar(text: str, rule):
    """What the grammar rule (`Parser.message` or `Parser.messages`) reads
    from the whole text."""
    p = Parser(text, allow_reserved=True)
    out = rule(p)
    p.expect("eof")
    return out


def parse_message(text: str) -> Message:
    """Parse `name(arg, ...)` with integer, boolean, and [list] arguments."""
    m = _FLAT_ITEM.match(text)
    msg = _flat_message(m) if m is not None and m[2] is not None and not m[4] else None
    return msg if msg is not None else _by_grammar(text, Parser.message)


def parse_messages(line: str) -> list[Message]:
    """Parse `message? ("," message?)*`: an empty item between commas, or
    after the last, is skipped. Flat items are matched one by one, each from
    where the last ended."""
    out, pos = [], 0
    while (m := _FLAT_ITEM.match(line, pos)) is not None:
        if m[2] is not None:  # not an empty item
            msg = _flat_message(m)
            if msg is None:
                break
            out.append(msg)
        if not m[4]:  # the end of the line
            return out
        pos = m.end()
    return _by_grammar(line, Parser.messages)
