"""Tests for the action mini-language: matching, evaluation, execution."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from scforge.actions import (
    Action,
    ActionConditionViolated,
    ActionError,
    Assign,
    Call,
    CAnd,
    CCmp,
    CFalse,
    Check,
    CMatch,
    CNot,
    ConflictingValuation,
    COr,
    CTrue,
    CVar,
    EBin,
    ECons,
    EList,
    ELit,
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
    TIMER_FLAG,
    UnboundVariable,
    call_expr_of,
    conj_opt,
    eval_cond,
    eval_expr,
    exec_stmt,
    holds,
    is_reserved,
    match_call,
    match_cond_of,
    match_pattern,
    merge,
    pattern_vars,
    reads,
    rename,
    seq_actions,
    values_equal,
)


# -- reference implementations used as oracles ------------------------------

def instantiate(p, binding):
    """Apply a binding to a pattern, producing the matched value."""
    if isinstance(p, PVar):
        return binding[p.name]
    if isinstance(p, PLit):
        return p.value
    if isinstance(p, PEmpty):
        return ()
    if isinstance(p, PCons):
        tail = instantiate(p.tail, binding)
        assert isinstance(tail, tuple)
        return (instantiate(p.head, binding),) + tail
    if isinstance(p, PPlus):
        n = binding[p.var]
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError("var + k requires an integer")
        return n + p.k
    raise TypeError(p)


def oracle_match(p, value, universe):
    """Generate-and-test matcher: try every binding over `universe`.

    Returns the set of bindings b with instantiate(p, b) == value, where
    equality is type-strict (True != 1).
    """
    vars_ = pattern_vars(p)
    found = []

    # Any sub-value of `value` (elements, suffixes) may be needed as a
    # binding, and PPlus variables can need value - k.
    def parts(v):
        yield v
        if isinstance(v, tuple) and v:
            yield from parts(v[0])
            yield from parts(v[1:])

    pool = list(universe) + list(parts(value))
    if isinstance(value, int) and not isinstance(value, bool):
        for k in range(0, 4):
            pool.append(value - k)
    for combo in itertools.product(pool, repeat=len(vars_)):
        b = dict(zip(vars_, combo))
        try:
            got = instantiate(p, b)
        except (AssertionError, TypeError):
            continue
        if values_equal(got, value):
            if not any(
                b.keys() == f.keys()
                and all(values_equal(b[k], f[k]) for k in b)
                for f in found
            ):
                found.append(b)
    return found


SMALL_VALUES = [0, 1, 2, -1, True, False, (), (1,), (1, 2)]


def small_patterns(depth):
    """All patterns up to the given nesting depth over a tiny vocabulary."""
    atoms = [
        PVar("x"),
        PLit(1),
        PLit(True),
        PEmpty(),
        PPlus("y", 1),
    ]
    if depth == 0:
        return atoms
    smaller = small_patterns(depth - 1)
    out = list(atoms)
    for h in smaller:
        for t in smaller:
            if set(pattern_vars(h)) & set(pattern_vars(t)):
                continue  # keep patterns linear
            out.append(PCons(h, t))
    return out


def test_match_pattern_against_generate_and_test_oracle():
    for p in small_patterns(1):
        for v in SMALL_VALUES:
            got = match_pattern(p, v)
            expected = oracle_match(p, v, SMALL_VALUES)
            if got is None:
                assert expected == [], (p, v, expected)
            else:
                assert expected == [got], (p, v, got, expected)


# -- matching basics --------------------------------------------------------

def test_pvar_binds_anything():
    assert match_pattern(PVar("x"), (1, 2)) == {"x": (1, 2)}


def test_plit_is_type_strict():
    assert match_pattern(PLit(1), 1) == {}
    assert match_pattern(PLit(1), True) is None
    assert match_pattern(PLit(True), 1) is None
    assert match_pattern(PLit(True), True) == {}


def test_pempty():
    assert match_pattern(PEmpty(), ()) == {}
    assert match_pattern(PEmpty(), (1,)) is None
    assert match_pattern(PEmpty(), 0) is None


def test_pcons():
    p = PCons(PVar("h"), PVar("t"))
    assert match_pattern(p, (1, 2, 3)) == {"h": 1, "t": (2, 3)}
    assert match_pattern(p, ()) is None
    assert match_pattern(p, 5) is None


def test_pplus_binds_difference():
    assert match_pattern(PPlus("n", 2), 5) == {"n": 3}
    assert match_pattern(PPlus("n", 2), True) is None
    assert match_pattern(PPlus("n", 2), ()) is None


def test_nonlinear_pattern_conflict():
    p = PCons(PVar("x"), PCons(PVar("x"), PEmpty()))
    assert match_pattern(p, (1, 1, )) == {"x": 1}
    with pytest.raises(ConflictingValuation):
        match_pattern(p, (1, 2))


def test_match_call():
    c = Call("f", (PLit(1), PVar("x")))
    assert match_call(c, Message("f", (1, 7))) == {"x": 7}
    assert match_call(c, Message("f", (2, 7))) is None
    assert match_call(c, Message("g", (1, 7))) is None
    assert match_call(c, Message("f", (1,))) is None
    assert match_call(c, Message("f", (1, 7), exception=True)) is None
    throw = Call("f", c.args, exception=True)
    assert match_call(throw, Message("f", (1, 7))) is None
    assert match_call(throw, Message("f", (1, 7), exception=True)) == {"x": 7}


def test_message_is_a_value_with_a_dataclass_repr_and_caches_filled_on_first_use():
    # `sorted_runs` and `flatinterp._choice_key` order by this text.
    assert repr(Message("put", (3,))) == "Message(name='put', args=(3,), exception=False)"
    assert repr(Message("e", (True, ()), True)) == "Message(name='e', args=(True, ()), exception=True)"
    one, true = Message("f", (1,)), Message("f", (True,))
    assert one != true and hash(one) == hash(true)
    m = Message("f", (1, (2,)))
    assert m._hash is None and m._text is None
    assert hash(m) == hash(("f", (1, (2,)), False)) == m._hash
    assert str(m) == "f(1, [2])" == m._text
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and copy._hash is None and copy._text is None


def test_merge_conflict():
    assert merge({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}
    assert merge({"a": 1}, {"a": 1}) == {"a": 1}
    with pytest.raises(ConflictingValuation):
        merge({"a": 1}, {"a": 2})


# -- trigger normalisation --------------------------------------------------

def test_call_expr_of_replaces_args_with_input_variables():
    c = Call("f", (PLit(3), PVar("x")), exception=True)
    assert call_expr_of(c) == Call("f", (PVar("inp1"), PVar("inp2")), exception=True)


def test_match_cond_of():
    c = Call("f", (PLit(3), PVar("x")))
    cond = match_cond_of(c)
    assert cond == CMatch("inp1", PLit(3))
    assert eval_cond(cond, {"inp1": 3, "inp2": 9}, {}) is True
    assert eval_cond(cond, {"inp1": 4, "inp2": 9}, {}) is False
    assert match_cond_of(Call("f", (PVar("x"), PVar("y")))) is None


def test_is_reserved():
    assert is_reserved("inp1")
    assert is_reserved("inp42")
    assert is_reserved("timeout")
    assert is_reserved(TIMER_FLAG)
    assert is_reserved("A$inner0")
    assert not is_reserved("input")
    assert not is_reserved("inp")
    assert not is_reserved("x")


# -- evaluation -------------------------------------------------------------

def test_eval_expr():
    env = {"x": 3, "xs": (1, 2)}
    assert eval_expr(EBin("+", EVar("x"), ELit(4)), env) == 7
    assert eval_expr(EBin("-", EVar("x"), ELit(4)), env) == -1
    assert eval_expr(ECons(EVar("x"), EVar("xs")), env) == (3, 1, 2)
    assert eval_expr(EList((ELit(1), EVar("x"))), env) == (1, 3)
    with pytest.raises(UnboundVariable):
        eval_expr(EVar("nope"), env)


@pytest.mark.parametrize("term, message", [
    (EBin("+", EVar("x"), EVar("xs")), "cannot apply + to 3 and (1, 2)"),
    (EBin("-", EVar("xs"), ELit(1)), "cannot apply - to (1, 2) and 1"),
    (CCmp("<", EVar("xs"), ELit(2)), "cannot apply < to (1, 2) and 2"),
    (CCmp("<=", ELit(2), EVar("xs")), "cannot apply <= to 2 and (1, 2)"),
])
def test_ill_typed_operands_raise_an_action_error(term, message):
    env = {"x": 3, "xs": (1, 2)}
    with pytest.raises(ActionError) as exc:
        eval_expr(term, env) if isinstance(term, EBin) else eval_cond(term, env, {})
    assert str(exc.value) == message
    # lists still concatenate and compare in order
    assert eval_expr(EBin("+", EVar("xs"), EVar("xs")), env) == (1, 2, 1, 2)
    assert eval_cond(CCmp("<", EVar("xs"), ELit((2,))), env, {}) is True


def test_holds_answers_unbound_for_an_unbound_variable():
    c = CCmp("<", EVar("x"), ELit(3))
    assert holds(c, {"x": 1}, {}, unbound=False) is True
    assert holds(c, {"x": 5}, {}, unbound=True) is False
    assert holds(c, {}, {}, unbound=False) is False
    assert holds(c, {}, {}, unbound=True) is True


def test_eval_cond_merges_store_and_valuation():
    c = CCmp("==", EVar("x"), EVar("i"))
    assert eval_cond(c, {"x": 5}, {"i": 5}) is True
    assert eval_cond(c, {"x": 5}, {"i": 6}) is False
    with pytest.raises(ConflictingValuation):
        eval_cond(c, {"x": 5}, {"x": 6})


def test_equality_in_a_condition_is_type_strict():
    eq = lambda a, b: eval_cond(CCmp("==", EVar("v"), ELit(b)), {"v": a}, {})
    assert eq(1, 1) is True and eq((True, (2,)), (True, (2,))) is True
    assert eq(True, 1) is False and eq(0, False) is False and eq((1,), (True,)) is False
    # the orderings keep Python's: a bool compares as its int
    assert eval_cond(CCmp("<", EVar("v"), ELit(2)), {"v": True}, {}) is True
    assert eval_cond(CCmp("<=", EVar("v"), ELit(0)), {"v": False}, {}) is True


def test_conj_opt():
    assert conj_opt() is None and conj_opt(None, None) is None
    assert conj_opt(CVar("a"), None) == CVar("a")
    assert conj_opt(CVar("a"), None, CVar("b"), CVar("c")) == CAnd(CVar("a"), CAnd(CVar("b"), CVar("c")))


# -- execution --------------------------------------------------------------

def test_exec_assign_and_send():
    stmt = (Assign("x", ELit(2)), Send("out", (EBin("+", EVar("x"), EVar("i")),)))
    store, msgs = exec_stmt(stmt, {"x": 0}, {"i": 10})
    assert store == {"x": 2}
    assert msgs == (Message("out", (12,)),)


def test_exec_reads_updated_store():
    stmt = (Assign("x", ELit(1)), Assign("x", EBin("+", EVar("x"), ELit(1))))
    store, msgs = exec_stmt(stmt, {}, {})
    assert store == {"x": 2}
    assert msgs == ()


def test_exec_reads_one_scope_and_leaves_its_inputs_alone():
    stmt = (Assign("i", ELit(5)), Send("out", (EVar("i"), EVar("x"))), SetTimer(),
            Check(CVar(TIMER_FLAG)))
    store, v = {"x": 0}, {"i": 1}
    out, msgs = exec_stmt(stmt, store, v)
    assert out == {"x": 0, "i": 5, TIMER_FLAG: True}
    assert msgs == (Message("out", (5, 0)),)
    assert (store, v) == ({"x": 0}, {"i": 1})
    assert exec_stmt(stmt, tuple(store.items()), v) == (out, msgs)  # the store's pairs do too
    with pytest.raises(ConflictingValuation):
        exec_stmt(stmt, {"i": 2}, v)


def test_exec_timer_primitives():
    store, _ = exec_stmt((SetTimer(),), {}, {})
    assert store[TIMER_FLAG] is True
    store, _ = exec_stmt((StopTimer(),), store, {})
    assert store[TIMER_FLAG] is False


def test_exec_check_failure():
    stmt = (Assign("x", ELit(1)), Check(CCmp("==", EVar("x"), ELit(2))))
    with pytest.raises(ActionConditionViolated) as e:
        exec_stmt(stmt, {}, {})
    assert e.value.cond == CCmp("==", EVar("x"), ELit(2))


def test_seq_actions_checks_intermediate_condition():
    a1 = Action((Assign("x", ELit(1)),), CCmp("==", EVar("x"), ELit(1)))
    a2 = Action((Assign("y", EVar("x")),), None)
    combined = seq_actions(a1, a2)
    store, _ = exec_stmt(combined.stmt, {}, {})
    assert store == {"x": 1, "y": 1}

    bad = seq_actions(Action((Assign("x", ELit(1)),), CCmp("==", EVar("x"), ELit(9))), a2)
    with pytest.raises(ActionConditionViolated):
        exec_stmt(bad.stmt, {}, {})


# -- the one traversal: reads and rename -------------------------------------

V, W = EVar("v"), EVar("w")
INP1, INP2_1 = EVar("inp1"), EBin("-", EVar("inp2"), ELit(1))
RENAMING = {"v": INP1, "w": INP2_1}
CONS = PCons(PVar("h"), PVar("t"))

# (term, the variables it reads, the term under RENAMING)
TRAVERSAL_TABLE = [
    (W, {"w"}, INP2_1),
    (ELit((1, (2, True))), set(), ELit((1, (2, True)))),
    (EBin("+", V, EVar("u")), {"v", "u"}, EBin("+", INP1, EVar("u"))),
    (ECons(W, EVar("t")), {"w", "t"}, ECons(INP2_1, EVar("t"))),
    (EList((V, ELit(3))), {"v"}, EList((INP1, ELit(3)))),
    (CTrue(), set(), CTrue()),
    (CFalse(), set(), CFalse()),
    (CVar("v"), {"v"}, CVar("inp1")),
    (CNot(CVar("u")), {"u"}, CNot(CVar("u"))),
    (CAnd(CVar("v"), CCmp("<", W, ELit(2))), {"v", "w"},
     CAnd(CVar("inp1"), CCmp("<", INP2_1, ELit(2)))),
    (COr(CFalse(), CVar("v")), {"v"}, COr(CFalse(), CVar("inp1"))),
    (CCmp("==", W, V), {"w", "v"}, CCmp("==", INP2_1, INP1)),
    # a pattern's variables are bound by the match, not read
    (CMatch("v", CONS), {"v"}, CMatch("inp1", CONS)),
    # over `inp2 - 1` a condition moves onto inp2: w is an int, a literal
    # shifts by 1, any other pattern matches every int or none, and a bare w
    # holds where it is not 0
    (CMatch("w", PLit(2)), {"w"}, CMatch("inp2", PLit(3))),
    (CMatch("w", PLit(True)), {"w"}, CMatch("inp2", PLit(True))),
    (CMatch("w", CONS), {"w"}, CMatch("inp2", CONS)),
    (CMatch("w", PPlus("y", 4)), {"w"}, CMatch("inp2", PPlus("y", 4))),
    (CVar("w"), {"w"}, CNot(CMatch("inp2", PLit(1)))),
    # an assignment's target is neither read nor renamed
    (Assign("v", W), {"w"}, Assign("v", INP2_1)),
    (Send("o", (V, ELit(1)), True), {"v"}, Send("o", (INP1, ELit(1)), True)),
    (SetTimer(), set(), SetTimer()),
    (StopTimer(), set(), StopTimer()),
    (Check(CVar("v")), {"v"}, Check(CVar("inp1"))),
    ((Assign("u", V), Send("o", (EVar("u"),))), {"v", "u"},
     (Assign("u", INP1), Send("o", (EVar("u"),)))),
    (Action((Assign("x", V),), CCmp("==", W, EVar("x"))), {"v", "w", "x"},
     Action((Assign("x", INP1),), CCmp("==", INP2_1, EVar("x")))),
    (Action((SetTimer(),)), set(), Action((SetTimer(),))),
    (None, set(), None),
]


@pytest.mark.parametrize("term, read, renamed", TRAVERSAL_TABLE)
def test_reads_and_rename_visit_every_node_type(term, read, renamed):
    assert reads(term) == read
    assert rename(term, RENAMING) == renamed
    assert rename(term, {}) == term


def test_rename_onto_an_offset_input_keeps_what_a_condition_means():
    # w is bound to inp2 - 1 exactly when inp2 is an int; over every such
    # int, a condition on w holds where its renaming holds on inp2
    conds = [CVar("w")] + [CMatch("w", p) for p in small_patterns(1)]
    conds += [CMatch("w", PLit(n)) for n in range(-2, 3)]
    for c in conds:
        for n in range(-3, 4):
            renamed = rename(c, RENAMING)
            assert eval_cond(c, {}, {"w": n}) == eval_cond(renamed, {}, {"inp2": n + 1}), (c, n)


# -- properties -------------------------------------------------------------

values = st.recursive(
    st.integers(-3, 3) | st.booleans(),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)


@st.composite
def linear_patterns(draw, depth=2):
    names = iter(f"v{i}" for i in range(20))

    def go(d):
        choices = ["var", "lit", "empty", "plus"]
        if d > 0:
            choices.append("cons")
        kind = draw(st.sampled_from(choices))
        if kind == "var":
            return PVar(next(names))
        if kind == "lit":
            return PLit(draw(st.integers(-3, 3) | st.booleans()))
        if kind == "empty":
            return PEmpty()
        if kind == "plus":
            return PPlus(next(names), draw(st.integers(0, 3)))
        return PCons(go(d - 1), go(d - 1))

    return go(depth)


@given(linear_patterns(), st.data())
def test_match_inverts_instantiation(p, data):
    binding = {
        v: data.draw(values, label=v) for v in pattern_vars(p)
    }
    # PPlus variables must be integers for instantiation to make sense.
    def fix(pat):
        if isinstance(pat, PPlus):
            binding[pat.var] = data.draw(st.integers(-5, 5), label=pat.var)
        elif isinstance(pat, PCons):
            fix(pat.head)
            fix(pat.tail)

    fix(p)
    try:
        value = instantiate(p, binding)
    except AssertionError:
        return  # cons onto a non-list: not a representable value
    assert match_pattern(p, value) == binding


@given(values, values)
def test_merge_is_commutative_on_disjoint(v1, v2):
    a, b = {"a": v1}, {"b": v2}
    assert merge(a, b) == merge(b, a)
