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

from typing import Optional

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


KEYWORDS = {
    "statechart",
    "for",
    "state",
    "entry",
    "exit",
    "do",
    "initial",
    "final",
    "skip",
    "setTimer",
    "stopTimer",
    "check",
    "throw",
    "true",
    "false",
    "matches",
}

PUNCT2 = {"<<", ">>", "->", "&&", "||", "<=", "=="}
PUNCT1 = set("{}()[];,:/&!=<+-")


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch in "_$":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                i += 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("int", int(text[start:i]), line, col))
            col += i - start
            continue
        two = text[i : i + 2]
        if two in PUNCT2:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in PUNCT1:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens


class Parser:
    def __init__(self, text: str, allow_reserved: bool = False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value=None) -> Token:
        if not self.at(kind, value):
            tok = self.peek()
            raise StatechartSyntaxError(tok.line, tok.col, value or kind)
        return self.next()

    def ident(self, declaring: bool = False) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise StatechartSyntaxError(tok.line, tok.col, "identifier")
        tok = self.next()
        name = tok.value
        if declaring and not self.allow_reserved and act.is_reserved(name):
            raise ReservedIdentifier(tok.line, tok.col, name)
        return name

    # -- entry point -------------------------------------------------------

    def parse_chart(self) -> SCFull:
        self.expect("kw", "statechart")
        diagram = self.ident()
        self.expect("kw", "for")
        class_name = self.ident()
        stereos: frozenset[str] = frozenset()
        if self.at("<<"):
            values, prio = self.parse_stereotype()
            if prio is not None:
                tok = self.peek()
                raise StatechartSyntaxError(tok.line, tok.col, "chart stereotype")
            for v in values:
                if v not in CHART_STEREOS:
                    tok = self.peek()
                    raise StatechartSyntaxError(tok.line, tok.col, f"chart stereotype (got {v!r})")
            stereos = frozenset(values)
        self.expect("{")
        states: list[FullState] = []
        trans: list[Trans] = []
        sub: list[tuple[str, str]] = []
        invs: list[Cond] = []
        while not self.at("}"):
            self.parse_item(None, states, trans, sub, invs)
        self.expect("}")
        inv = act.conj_opt(*invs)
        return SCFull(
            stereos=stereos,
            diagram_name=diagram,
            class_name=class_name,
            inv=inv,
            states=frozenset(states),
            trans=frozenset(trans),
            sub=frozenset(sub),
        )

    def parse_item(self, parent: Optional[str], states, trans, sub, invs) -> None:
        if self.at("["):
            invs.append(self.parse_bracket_cond())
            self.expect(";")
            return
        # stereotype may precede either a state or a transition
        save = self.pos
        stereo_vals: list[str] = []
        prio: Optional[int] = None
        if self.at("<<"):
            stereo_vals, prio = self.parse_stereotype()
        if self.at("kw", "state") or self.at("kw", "initial") or self.at("kw", "final"):
            self.parse_state(parent, stereo_vals, prio, states, trans, sub)
        else:
            self.parse_transition(stereo_vals, prio, trans)

    def parse_state(self, parent, stereo_vals, prio, states, trans, sub) -> None:
        tok = self.peek()
        if prio is not None:
            raise StatechartSyntaxError(tok.line, tok.col, "state stereotype")
        for v in stereo_vals:
            if v not in STATE_STEREOS:
                raise StatechartSyntaxError(tok.line, tok.col, f"state stereotype (got {v!r})")
        modifiers: set[str] = set()
        while self.at("kw", "initial") or self.at("kw", "final"):
            modifiers.add(self.next().value)
        self.expect("kw", "state")
        tok = self.peek()
        name = self.ident(declaring=True)
        pos = (tok.line, tok.col)
        if parent is not None:
            sub.append((name, parent))
        inv: Optional[Cond] = None
        entry = exit_ = do = None
        internT: list[InternT] = []
        if self.at(";"):
            self.next()
        else:
            self.expect("{")
            invs_local: list[Cond] = []
            while self.at("["):
                invs_local.append(self.parse_bracket_cond())
                self.expect(";")
            inv = act.conj_opt(*invs_local)
            while self.at("kw", "entry") or self.at("kw", "do") or self.at("kw", "exit"):
                kw = self.next().value
                action = self.parse_action_part()
                self.expect(";")
                if kw == "entry":
                    entry = action
                elif kw == "do":
                    do = action
                else:
                    exit_ = action
            while not self.at("}"):
                if self.at("->"):
                    self.next()
                    if self.at(":"):
                        self.next()
                    pre, call, action = self.parse_trans_body()
                    self.expect(";")
                    internT.append(InternT(pre, call, action))
                else:
                    self.parse_item(name, states, trans, sub, [])
            self.expect("}")
        states.append(
            FullState(
                sstereos=frozenset(stereo_vals),
                modifiers=frozenset(modifiers),
                name=name,
                inv=inv,
                entry=entry,
                exit=exit_,
                do=do,
                internT=frozenset(internT),
                pos=pos,
            )
        )

    def parse_transition(self, stereo_vals, prio, trans) -> None:
        tok = self.peek()
        if stereo_vals:
            raise StatechartSyntaxError(tok.line, tok.col, "transition stereotype <<prio=n>>")
        src = self.ident()
        self.expect("->")
        trg = self.ident()
        pre = call = action = None
        if self.at(":"):
            self.next()
            pre, call, action = self.parse_trans_body()
        else:
            tok2 = self.peek()
            raise StatechartSyntaxError(tok2.line, tok2.col, "': <transition body>'")
        self.expect(";")
        trans.append(Trans(prio, src, pre, call, action, trg, pos=(tok.line, tok.col)))

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
        exception = False
        if self.at("kw", "throw"):
            self.next()
            exception = True
        tok = self.peek()
        name = self.ident()
        # `timeout` is a legitimate trigger (the timer expiry event); the other
        # reserved names stay off-limits.
        if not self.allow_reserved and name != act.TIMEOUT and act.is_reserved(name):
            raise ReservedIdentifier(tok.line, tok.col, name)
        self.expect("(")
        args: list[Pattern] = []
        if not self.at(")"):
            args.append(self.parse_pattern())
            while self.at(","):
                self.next()
                args.append(self.parse_pattern())
        self.expect(")")
        return Call(name, tuple(args), exception)

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
        values: list[str] = []
        prio: Optional[int] = None
        while True:
            tok = self.peek()
            word = self.ident()
            if word == "prio" and self.at("="):
                self.next()
                prio = self.expect("int").value
            elif self.at(":"):
                self.next()
                second = self.ident()
                values.append(f"{word}:{second}")
            elif word == "action":
                # the two-word stereotype "action conditions:sequential"
                second = self.ident()
                self.expect(":")
                third = self.ident()
                values.append(f"{word} {second}:{third}")
            else:
                values.append(word)
            if self.at(","):
                self.next()
                continue
            break
        self.expect(">>")
        return values, prio

    # -- conditions --------------------------------------------------------

    def parse_bracket_cond(self) -> Cond:
        self.expect("[")
        c = self.parse_cond()
        self.expect("]")
        return c

    def parse_cond(self) -> Cond:
        left = self.parse_conj()
        while self.at("||"):
            self.next()
            left = COr(left, self.parse_conj())
        return left

    def parse_conj(self) -> Cond:
        left = self.parse_unary()
        while self.at("&&"):
            self.next()
            left = CAnd(left, self.parse_unary())
        return left

    def parse_unary(self) -> Cond:
        if self.at("!"):
            self.next()
            return CNot(self.parse_unary())
        return self.parse_cond_atom()

    EXPR_FOLLOW = ("==", "<", "<=", "+", "-", ":")

    def parse_cond_atom(self) -> Cond:
        if self.at("("):
            # could be a parenthesized condition or a parenthesized expression
            save = self.pos
            try:
                self.next()
                c = self.parse_cond()
                self.expect(")")
                if self.peek().kind in self.EXPR_FOLLOW:
                    tok = self.peek()
                    raise StatechartSyntaxError(tok.line, tok.col, "condition")
                return c
            except StatechartSyntaxError:
                self.pos = save  # re-parse as an expression comparison
        if (self.at("kw", "true") or self.at("kw", "false")) and self.peek(
            1
        ).kind not in self.EXPR_FOLLOW:
            return CTrue() if self.next().value == "true" else CFalse()
        if self.at("kw", "matches"):
            self.next()
            self.expect("(")
            var = self.ident()
            self.expect(",")
            pat = self.parse_pattern()
            self.expect(")")
            return CMatch(var, pat)
        expr = self.parse_expr()
        for op in ("==", "<=", "<"):
            if self.at(op):
                self.next()
                return CCmp(op, expr, self.parse_expr())
        if isinstance(expr, EVar):
            return CVar(expr.name)
        tok = self.peek()
        raise StatechartSyntaxError(tok.line, tok.col, "comparison operator")

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> Expr:
        left = self.parse_arith()
        if self.at(":"):
            self.next()
            return ECons(left, self.parse_expr())
        return left

    def parse_arith(self) -> Expr:
        left = self.parse_expr_atom()
        while self.at("+") or self.at("-"):
            op = self.next().value
            left = EBin(op, left, self.parse_expr_atom())
        return left

    def parse_expr_atom(self) -> Expr:
        if self.at("("):
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("int"):
            return ELit(self.next().value)
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return ELit(-self.next().value)
        if self.at("kw", "true"):
            self.next()
            return ELit(True)
        if self.at("kw", "false"):
            self.next()
            return ELit(False)
        if self.at("["):
            self.next()
            items: list[Expr] = []
            if not self.at("]"):
                items.append(self.parse_expr())
                while self.at(","):
                    self.next()
                    items.append(self.parse_expr())
            self.expect("]")
            return EList(tuple(items))
        if self.at("ident"):
            return EVar(self.ident())
        tok = self.peek()
        raise StatechartSyntaxError(tok.line, tok.col, "expression")

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        left = self.parse_pattern_atom()
        if self.at(":"):
            self.next()
            return PCons(left, self.parse_pattern())
        return left

    def parse_pattern_atom(self) -> Pattern:
        if self.at("("):
            self.next()
            p = self.parse_pattern()
            self.expect(")")
            return p
        if self.at("int"):
            return PLit(self.next().value)
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return PLit(-self.next().value)
        if self.at("kw", "true"):
            self.next()
            return PLit(True)
        if self.at("kw", "false"):
            self.next()
            return PLit(False)
        if self.at("["):
            self.next()
            items: list[Pattern] = []
            if not self.at("]"):
                items.append(self.parse_pattern())
                while self.at(","):
                    self.next()
                    items.append(self.parse_pattern())
            self.expect("]")
            out: Pattern = PEmpty()
            for item in reversed(items):
                out = PCons(item, out)
            return out
        if self.at("ident"):
            tok = self.peek()
            name = self.ident()
            if not self.allow_reserved and act.is_reserved(name):
                raise ReservedIdentifier(tok.line, tok.col, name)
            if self.at("+") and self.peek(1).kind == "int":
                self.next()
                k = self.next().value
                return PPlus(name, k)
            return PVar(name)
        tok = self.peek()
        raise StatechartSyntaxError(tok.line, tok.col, "pattern")

    # -- statements --------------------------------------------------------

    def parse_stmt_seq(self) -> Stmt:
        prims: list = []
        self.parse_stmt_prim(prims)
        while self.at("&"):
            self.next()
            self.parse_stmt_prim(prims)
        return tuple(prims)

    def parse_stmt_prim(self, prims: list) -> None:
        if self.at("kw", "skip"):
            self.next()
            return
        if self.at("kw", "setTimer"):
            self.next()
            prims.append(SetTimer())
            return
        if self.at("kw", "stopTimer"):
            self.next()
            prims.append(StopTimer())
            return
        if self.at("kw", "check"):
            self.next()
            self.expect("(")
            c = self.parse_cond()
            self.expect(")")
            prims.append(Check(c))
            return
        exception = False
        if self.at("kw", "throw"):
            self.next()
            exception = True
        tok = self.peek()
        name = self.ident()
        if self.at("=") and not exception:
            if not self.allow_reserved and act.is_reserved(name):
                raise ReservedIdentifier(tok.line, tok.col, name)
            self.next()
            prims.append(Assign(name, self.parse_expr()))
            return
        if not self.allow_reserved and act.is_reserved(name):
            raise ReservedIdentifier(tok.line, tok.col, name)
        self.expect("(")
        args: list[Expr] = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        prims.append(Send(name, tuple(args), exception))


def parse(text: str, allow_reserved: bool = False) -> SCFull:
    """Parse statechart text. Strict mode rejects reserved identifiers
    (inp<k>, timeout, the timer flag, $-names are fine for states only when
    allow_reserved is set)."""
    parser = Parser(text, allow_reserved=allow_reserved)
    sc = parser.parse_chart()
    parser.expect("eof")
    return sc
