"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL verdict line (run with -s or check captured output).
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from pathlib import Path

from scforge import flatinterp
from scforge.actions import (
    Call,
    Message,
    PCons,
    PEmpty,
    PLit,
    PPlus,
    PVar,
    TRUE,
    eval_cond,
    inp_name,
    match_call,
    match_cond_of,
)
from scforge.conform import (
    SystemFragment,
    check_run_satisfaction,
    check_system_conformance,
    conformance_passed,
    fragment_run,
    load_projection,
)
from scforge.gen import gen_chart, gen_guard_free, initial_leaf
from scforge.parse import parse
from scforge.transform import (
    _apply,
    chart_hash,
    find_bindings,
    flat_and_simplified,
    to_simplified,
    transform_fixpoint,
)
from scforge.vdb import Basic, KripkeNode, Or, conf_of, encode_guard_free, run_bounded, run_outputs
from scforge.wellformed import check_all

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


def _verdict(n: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}")
    assert ok, f"criterion {n} failed: {desc} {detail}"


@lru_cache(maxsize=1)
def buffer_simp():
    return to_simplified(parse(BUFFER_SC))


@lru_cache(maxsize=1)
def corpus():
    return tuple(gen_chart(seed) for seed in range(200))


def violations(sc):
    return [v for v in check_all(sc) if not v.skipped]


# -- criterion 1: term-level buffer run --------------------------------------

def test_criterion_1_buffer_term_two_step_run():
    t0 = time.time()
    term = encode_guard_free(parse(BUFFER_SC), domain=(-1, 3))
    start = KripkeNode(term, (Message("put", (3,)), Message("get")))
    runs = run_bounded(start, max_steps=2)
    expected = [
        ({"Buffer", "Empty"}, (Message("put", (3,)), Message("get"))),
        ({"Buffer", "NonEmpty(3)"}, (Message("get"),)),
        ({"Buffer", "Empty"}, (Message("send", (3,)),)),
    ]
    ok = any(
        [(set(conf_of(n.term)), n.queue) for n in r] == expected for r in runs
    ) and time.time() - t0 < 1.0
    _verdict(1, "buffer term reproduces the two-step reference run", ok,
             str(sorted(runs, key=len)[-1:]))


# -- criterion 2: flat interpreter on the buffer -----------------------------

def test_criterion_2_flat_buffer_runs():
    sc = buffer_simp()
    r1 = flatinterp.run(sc, "Empty", [Message("put", (3,)), Message("get", ())])
    r2 = flatinterp.run(sc, "Empty", [Message("get", ())])
    ok = (
        r1.quiescent
        and r1.emissions == (Message("send", (3,)),)
        and r1.final.current == "Empty"
        and r2.quiescent
        and r2.emissions == (Message("send", (-1,)),)
    )
    _verdict(2, "flattened buffer emits send(3) / send(-1) as specified", ok)


# -- criterion 3: conformance fixtures ---------------------------------------

def test_criterion_3_conformance_fixtures():
    sc = buffer_simp()
    ok_frag = SystemFragment.from_json((FIXTURES / "fig_ok_fragment.json").read_text())
    bad_frag = SystemFragment.from_json(
        (FIXTURES / "fig_double_send_fragment.json").read_text()
    )
    proj = load_projection((FIXTURES / "buffer_projection.json").read_text())

    good = conformance_passed(check_system_conformance(sc, ok_frag, proj))
    children = (Basic("Empty"), Basic("NonEmpty(3)"))
    macro_src = Or("Buffer", children, 2, frozenset())
    macro_trg = Or("Buffer", children, 1, frozenset())
    run_ok = check_run_satisfaction(
        macro_src, macro_trg, Message("get"), (Message("send", (3,)),),
        fragment_run(ok_frag, ["s1", "s2", "s3", "s4", "s5", "s6"]), proj, "o",
    )
    report = check_system_conformance(sc, bad_frag, proj)
    cond5 = next(e for e in report if e["condition"] == 5)
    bad_fails = not cond5["pass"] and any(
        "NonEmpty->Empty" in w for w in cond5["witnesses"]
    )
    _verdict(3, "well-behaved fragment conforms; double-send fails "
                "condition 5 with a witness", good and run_ok and bad_fails)


# -- criterion 4: corpus flattening ------------------------------------------

def test_criterion_4_corpus_flattens_completely():
    t0 = time.time()
    ok = True
    detail = ""
    for seed, sc in enumerate(corpus()):
        if violations(sc):
            ok, detail = False, f"seed {seed} not well-formed"
            break
        flat, trace = transform_fixpoint(sc, max_steps=10000)
        simp = to_simplified(flat)  # raises NotSimplifiable on residue
        if not (flat_and_simplified(flat) and not flat.sub and not flat.stereos):
            ok, detail = False, f"seed {seed} left residue"
            break
        assert simp.states
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _verdict(4, "200-chart corpus flattens and simplifies within budget "
                f"({elapsed:.1f}s)", ok, detail)


# -- criterion 5: per-rule metamorphic suite ---------------------------------

def _diff_compartments(a, b):
    out = set()
    if a.stereos != b.stereos:
        out.add("stereos")
    if a.sub != b.sub:
        out.add("sub")
    if a.trans != b.trans:
        out.add("trans")
    if (a.diagram_name, a.class_name, a.inv) != (b.diagram_name, b.class_name, b.inv):
        out.add("chart")
    sa = {s.name: s for s in a.states}
    sb = {s.name: s for s in b.states}
    if set(sa) != set(sb):
        out.add("states")
    for n in set(sa) & set(sb):
        x, y = sa[n], sb[n]
        for f in ("modifiers", "inv", "entry", "exit", "do", "internT", "sstereos"):
            if getattr(x, f) != getattr(y, f):
                out.add(f"state.{f}")
    return out


# which chart compartments each rewrite rule is allowed to touch
ALLOWED_DIFFS = {
    1: {"state.do", "state.entry", "state.exit", "state.internT"},
    2: {"state.internT", "trans"},
    3: {"state.internT", "states", "sub", "trans"},
    4: {"state.modifiers"},
    5: {"state.modifiers"},
    6: {"trans"},
    7: {"state.modifiers"},
    8: {"state.modifiers"},
    9: {"state.modifiers"},
    10: {"trans"},
    11: {"trans"},
    12: {"trans"},
    13: {"trans"},
    14: {"trans"},
    15: {"state.modifiers"},
    16: {"trans", "state.exit"},
    17: {"trans", "state.exit"},
    18: {"state.exit"},
    19: {"trans", "state.entry"},
    20: {"trans", "state.entry"},
    21: {"state.entry"},
    22: {"state.inv"},
    23: {"states", "sub"},
    24: {"trans", "stereos"},
    25: {"trans", "stereos", "states"},
    26: {"trans"},
}

# handcrafted charts exercising rules the random corpus cannot reach:
# missing initial markers (rules 4/5), sequential action composition
# (rules 17/20), exception completion (rule 26)
EXTRA_CHARTS = (
    """statechart NoInit for C {
        state A { state B; }
        state D;
        D -> A : f();
        B -> D : g();
    }""",
    """statechart Seq for C <<action conditions:sequential>> {
        initial state Top {
            initial state In { exit / v = 1; }
            state Deep { entry / send(v); }
            In -> Deep : f() / v = 2;
        }
        state Out;
        Deep -> Out : g();
    }""",
    """statechart Exc for C {
        initial state A;
        state B;
        <<exception>> state X;
        A -> X : throw boom();
        A -> B : f();
    }""",
)


def test_criterion_5_rules_touch_only_allowed_compartments():
    charts: dict = {}

    def collect(sc):
        charts[chart_hash(sc)] = sc
        transform_fixpoint(
            sc, on_step=lambda step, c: charts.__setitem__(chart_hash(c), c)
        )

    for sc in corpus():
        collect(sc)
    for text in EXTRA_CHARTS:
        collect(parse(text))

    rules_seen: set = set()
    bad_diffs = []
    wf_regressions = []
    for sc in charts.values():
        clean = not violations(sc)
        for rule in ALLOWED_DIFFS:
            for b in find_bindings(rule, sc):
                out = _apply(rule, sc, b)
                rules_seen.add(rule)
                extra = _diff_compartments(sc, out) - ALLOWED_DIFFS[rule]
                if extra:
                    bad_diffs.append((rule, sorted(extra)))
                if clean and violations(out):
                    wf_regressions.append((rule, violations(out)[:1]))
    ok = (
        rules_seen == set(ALLOWED_DIFFS)
        and not bad_diffs
        and not wf_regressions
    )
    _verdict(5, "every rule application changes only its compartments and "
                "preserves well-formedness", ok,
             f"missing={sorted(set(ALLOWED_DIFFS) - rules_seen)} "
             f"diffs={bad_diffs[:3]} wf={wf_regressions[:3]}")


# -- criterion 6: semantic preservation on guard-free charts -----------------

def test_criterion_6_guard_free_semantics_preserved():
    mismatches = []
    for seed in range(30):
        sc = gen_guard_free(seed)
        term = encode_guard_free(sc)
        flat, _ = transform_fixpoint(sc)
        machine = to_simplified(flat)
        init = initial_leaf(sc)
        triggers = sorted({t.call.name for t in sc.trans})
        for n in range(1, 5):
            for names in itertools.product(triggers, repeat=n):
                syms = tuple(Message(name) for name in names)
                runs = run_bounded(KripkeNode(term, syms), max_steps=20)
                vdb_out = {run_outputs(r) for r in runs}
                msgs = tuple(Message(name, ()) for name in names)
                flat_out = {
                    tuple(Message(m.name, m.args) for m in em)
                    for em, kind in flatinterp.explore_emissions(machine, init, msgs)
                    if kind == "quiescent"
                }
                if vdb_out != flat_out:
                    mismatches.append((seed, names, vdb_out, flat_out))
    _verdict(6, "term semantics equals flat-interpreter semantics on the "
                "guard-free corpus", not mismatches, str(mismatches[:2]))


# -- criterion 7: priority scheme differentiation ----------------------------

PRIO_TEMPLATE = """
statechart P for C <<{prio}, completion:ignore>> {{
    initial state Top {{
        initial state In;
        state InT;
        In -> InT : f() / send(1);
    }}
    state OutT;
    Top -> OutT : f() / send(2);
}}
"""


def _prio_emissions(prio: str):
    sc = parse(PRIO_TEMPLATE.format(prio=prio))
    flat, _ = transform_fixpoint(sc)
    machine = to_simplified(flat)
    result = flatinterp.run(machine, "In", [Message("f", ())])
    assert result.quiescent
    return result.emissions, result.final.current


def test_criterion_7_priority_schemes_differ():
    inner = _prio_emissions("prio:inner")
    outer = _prio_emissions("prio:outer")
    ok = (
        inner == ((Message("send", (1,)),), "InT")
        and outer == ((Message("send", (2,)),), "OutT")
    )
    _verdict(7, "prio:inner routes to the inner target, prio:outer to the "
                "outer one", ok, f"inner={inner} outer={outer}")


COMPLETION_SC = """
statechart Q for C {stereo}{{
    initial state A;
    state B;
    A -> B : f();
}}
"""


def test_criterion_8_completion_ignore_eliminates_chaos():
    ignore_sc = parse(COMPLETION_SC.format(stereo="<<completion:ignore>> "))
    flat, _ = transform_fixpoint(ignore_sc)
    transformed = to_simplified(flat)
    plain = to_simplified(parse(COMPLETION_SC.format(stereo="")))

    # exhaustive over the chart's trigger alphabet ({f}): completion closes
    # the chart over the triggers it mentions, not over arbitrary names
    no_chaos = True
    for n in range(1, 4):
        for names in itertools.product(("f",), repeat=n):
            msgs = [Message(name, ()) for name in names]
            outcomes = flatinterp.explore_emissions(transformed, "A", msgs)
            if any(kind != "quiescent" for _, kind in outcomes):
                no_chaos = False

    # untransformed: the second f arrives in B, which does not handle it
    unhandled = flatinterp.explore_emissions(
        plain, "A", [Message("f", ()), Message("f", ())]
    )
    one_chaos = unhandled == {((), "chaos")}
    _verdict(8, "completion:ignore never reaches chaos; the untransformed "
                "chart yields exactly one chaos outcome",
             no_chaos and one_chaos)


# -- criterion 9: action-language oracles ------------------------------------

def _patterns(var_prefix, depth):
    """All patterns up to the given constructor depth with fresh variables."""
    atoms = [
        PVar(f"{var_prefix}v"),
        PLit(0),
        PLit(1),
        PLit(True),
        PEmpty(),
        PPlus(f"{var_prefix}p", 1),
    ]
    if depth == 0:
        return atoms
    inner = _patterns(var_prefix + "i", depth - 1)
    out = list(atoms)
    for i, head in enumerate(inner):
        out.append(PCons(head, PVar(f"{var_prefix}t{i}")))
        out.append(PCons(head, PEmpty()))
    return out


VALUES = [
    0, 1, 2, -1, True, False,
    (), (0,), (1, 2), (0, 1, 2), ((0,), 1), (True, (0, 1)),
]


def _instantiate(p, val):
    if isinstance(p, PVar):
        return val[p.name]
    if isinstance(p, PLit):
        return p.value
    if isinstance(p, PEmpty):
        return ()
    if isinstance(p, PCons):
        return (_instantiate(p.head, val),) + tuple(_instantiate(p.tail, val))
    if isinstance(p, PPlus):
        return val[p.var] + p.k
    raise TypeError(p)


def test_criterion_9_action_language_oracles():
    failures = []
    checked = 0
    for p1 in _patterns("a", 1):
        for p2 in _patterns("b", 1):
            call = Call("m", (p1, p2))
            cond = match_cond_of(call) or TRUE
            for v1 in VALUES:
                for v2 in VALUES:
                    msg = Message("m", (v1, v2))
                    env = {inp_name(1): v1, inp_name(2): v2}
                    val = match_call(call, msg)
                    cond_holds = eval_cond(cond, {}, env)
                    checked += 1
                    # agreement: the match condition holds iff the call matches
                    if (val is not None) != cond_holds:
                        failures.append(("agree", p1, p2, v1, v2))
                    # round trip: bindings reproduce the matched values
                    elif val is not None and (
                        _instantiate(p1, val) != v1 or _instantiate(p2, val) != v2
                    ):
                        failures.append(("round-trip", p1, p2, v1, v2))
    ok = not failures and checked > 10000
    _verdict(9, f"pattern matching oracles agree on {checked} exhaustive "
                "cases", ok, str(failures[:3]))
