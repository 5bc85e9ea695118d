"""The three workloads: their seeded inputs, their ops, and the checks of
each op's output against an independent reference.

An op is one CLI-equivalent request. It calls the library's public
functions in the order the matching `scforge` subcommand calls them, and
wraps each call in a span (a no-op unless the run is traced). Every op
returns its output text, which is exactly what the subcommand prints, and
the evidence its check needs.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

from scforge import cli, flatinterp, vdb  # cli: served by the parity check in run.py
from scforge.conform import (SystemFragment, check_system_conformance,
                             conformance_passed, load_projection, report_to_json)
from scforge.gen import gen_chart, gen_guard_free, initial_leaf
from scforge.parse import parse
from scforge.printer import print_chart, print_simp
from scforge.transform import NonTermination, to_simplified, transform_fixpoint
from scforge.wellformed import check_all, check_simp

import models

# The documented "undecided" outcomes: CLI exit 3.
UNDECIDED = (NonTermination, vdb.StateSpaceBound)
MAX_NODES = 10000  # the default of SCFORGE_MAX_NODES
VDB_MAX_STEPS = 100  # the default of `scforge vdb-run --max-steps`

BUFFER_SC = """statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}
"""

# Guards, entry and exit actions, two levels of nesting, completion:ignore.
# Entry and exit actions sit where the flattener moves them (see `probes` for
# the placements it does not handle).
PUMP_SC = """statechart Pump for PumpClass <<completion:ignore>> {
    initial state Off;
    state On {
        exit / stopped(n);
        initial state Idle {
            exit / leaving(n);
        }
        state Busy {
            entry / busy(n);
            exit / free(n);
        }
        Idle -> Busy : [0 < x] job(x) / n = n + x;
        Idle -> Idle : [x <= 0] job(x) / rejected(x);
        Busy -> Busy : job(x) / queued(x);
        Busy -> Idle : done() / finished(n);
    }
    Off -> On : power() / n = 0 & started();
    On -> Off : power();
}
"""

FIXTURES = "tests/fixtures"


@dataclass
class Op:
    kind: str
    label: str
    bucket: str
    data: dict = field(default_factory=dict)


def _text(events) -> str:
    return ", ".join(models.msg_text(n, a) for n, a in events)


def _events(text: str):
    # the splitting `scforge run --events` applies
    parts = [p.strip() for line in text.splitlines() or [text]
             for p in line.split(",") if not line.lstrip().startswith("#")]
    return [flatinterp.parse_message(p) for p in parts if p]


def _stratified(rng, n, lo, hi, power=1.0, jitter=0.1):
    """n values spread over [lo, hi] at fixed quantiles of a log-uniform law
    (bent by `power` towards lo), each moved by a seeded jitter inside its
    stratum. The spread of sizes is the same for every seed."""
    out = []
    for i in range(n):
        u = (i + 0.5 + rng.uniform(-jitter, jitter)) / n
        out.append(round(lo * (hi / lo) ** (u ** power)))
    return out


# -- spans around the layer calls -------------------------------------------

def _parse(text, tr):
    with tr.span("parse", kb=len(text) / 1024):
        return parse(text)


def _flatten(sc, tr, strategy="paper", bucket=None):
    """transform_fixpoint + to_simplified; when traced, each rewrite step is
    timed from the previous `on_step` callback to its own."""
    stamps = [] if tr.enabled else None
    on_step = (lambda _step, _sc: stamps.append(time.perf_counter())) if tr.enabled else None
    with tr.span("transform.fixpoint", bucket=bucket) as sp:
        start = time.perf_counter()
        flat, trace = transform_fixpoint(sc, strategy=strategy, on_step=on_step)
    if tr.enabled:
        rules: dict = {}
        prev = start
        for entry, stamp in zip(trace, stamps):
            steps, secs = rules.get(entry.rule, (0, 0.0))
            rules[entry.rule] = (steps + 1, secs + stamp - prev)
            prev = stamp
        sp.set(steps=len(trace), rules=rules)
    with tr.span("transform.to_simplified") as sp:
        simp = to_simplified(flat)
        sp.set(states_out=len(simp.states), trans_out=len(simp.transitions))
    return flat, simp


# -- flatten-corpus: the `scforge simplify` path ----------------------------

def _score(sc) -> float:
    """How much flattening work a chart carries: states x transitions x
    (1 + summed nesting depth), and each do action or internal transition
    counts as a factor of e**0.5. On gen_chart draws it predicts the
    flattening time to within a factor of 1.4 (one standard deviation)."""
    parent = dict(sc.sub)

    def depth(name):
        d = 0
        while name in parent:
            name, d = parent[name], d + 1
        return d

    nesting = sum(depth(s.name) for s in sc.states)
    eliminated = sum((s.do is not None) + len(s.internT) for s in sc.states)
    return math.log(len(sc.states) * len(sc.trans) * (1 + nesting)) + 0.5 * eliminated


POOL_FACTOR = 4  # candidates drawn per chart kept


def _evenly_ranked(pool, count):
    """`count` members of `pool` at evenly spaced ranks by (score, seed)."""
    pool = sorted(pool, key=lambda c: c[:2])
    return [pool[(2 * j + 1) * len(pool) // (2 * count)] for j in range(count)]


def _gen_strata(rng, sizes, per_size, max_states):
    """gen_chart draws with exactly the given state counts; for each count,
    `per_size` charts at evenly spaced work-score ranks of a seeded pool, so
    that the mix of chart sizes and shapes is much the same for every seed."""
    base = rng.randrange(10**9)
    pools: dict = {n: [] for n in sizes}
    want = POOL_FACTOR * per_size
    k = 0
    while any(len(p) < want for p in pools.values()):
        sc = gen_chart(base + k, max_states=max_states)
        pool = pools.get(len(sc.states))
        if pool is not None and len(pool) < want:
            pool.append((_score(sc), base + k, sc))
        k += 1
    return [c for n in sizes for c in _evenly_ranked(pools[n], per_size)]


def _big_strata(rng, count):
    """`count` gen_chart draws with 17 to 32 states, at evenly spaced
    work-score ranks of a seeded pool."""
    base = rng.randrange(10**9)
    pool = []
    k = 0
    while len(pool) < POOL_FACTOR * count:
        sc = gen_chart(base + k, max_states=32)
        if len(sc.states) >= 17:
            pool.append((_score(sc), base + k, sc))
        k += 1
    return _evenly_ranked(pool, count)


def chain_chart(depth: int, rng) -> str:
    """A linear nesting chain: every level is an initial state with an entry
    action (seeded values), the leaf level has one transition, and the middle
    level is left for a sibling of the chain, which re-enters the top."""
    ind = "    "
    lines = [f"statechart Chain{depth} for C {{"]
    for d in range(depth):
        lines.append(ind * (d + 1) + f"initial state L{d} {{")
        lines.append(ind * (d + 2) + f"entry / e{d}({rng.randint(0, 3)});")
    lines.append(ind * (depth + 1) + "initial state Leaf;")
    lines.append(ind * (depth + 1) + "state Other;")
    lines.append(ind * (depth + 1) + f"Leaf -> Other : f() / out({rng.randint(0, 3)});")
    for d in reversed(range(depth)):
        lines.append(ind * (d + 1) + "}")
    lines.append(ind + "state Out;")
    lines.append(ind + "Out -> L0 : g();")
    lines.append(ind + f"L{depth // 2} -> Out : h();")
    lines.append("}")
    return "\n".join(lines) + "\n"


CHAIN_DEPTHS = (10, 13, 16, 19, 22, 25)
PER_SIZE = 20  # gen_chart charts per state count, 3 to 16
BIG = 6  # gen_chart charts with 17 to 32 states


def flatten_inputs(rng):
    ops = [Op("simplify", "buffer", "n1-8", {"text": BUFFER_SC})]
    for score, gseed, sc in _gen_strata(rng, range(3, 17), PER_SIZE, 16):
        bucket = "n1-8" if len(sc.states) <= 8 else "n9-16"
        ops.append(Op("simplify", f"gen:{gseed}", bucket, {"text": print_chart(sc)}))
    for score, gseed, sc in _big_strata(rng, BIG):
        ops.append(Op("simplify", f"gen32:{gseed}", "n17-32", {"text": print_chart(sc)}))
    for depth in CHAIN_DEPTHS:
        ops.append(Op("simplify", f"chain:{depth}", "chain", {"text": chain_chart(depth, rng)}))
    return ops


def simplify_op(op, tr):
    sc = _parse(op.data["text"], tr)
    with tr.span("wellformed.check_all") as sp:
        findings = [v for v in check_all(sc) if not v.skipped]
        sp.set(findings=len(findings))
    flat, simp = _flatten(sc, tr, bucket=op.bucket)
    with tr.span("printer"):
        out = print_simp(simp)
    return out + "\n", (flat, simp)


def simplify_check(op, text, evidence):
    """Reference: a flat chart with no hierarchy left and no findings."""
    flat, simp = evidence
    return not flat.sub and not flat.stereos and not check_simp(simp)


# -- long-runs: the `scforge run` path --------------------------------------

def _buffer_stream(rng, length):
    return [("put", (rng.randint(0, 9),)) if rng.random() < 0.5 else ("get", ())
            for _ in range(length)]


def _pump_stream(rng, length):
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.05:
            out.append(("power", ()))
        elif r < 0.65:
            out.append(("job", (rng.randint(-1, 4),)))
        else:
            out.append(("done", ()))
    return out


def _chart_calls(sc):
    """The chart's triggers that `--events` can express: it splits the list
    at every comma, so a message cannot carry two arguments."""
    calls = {(t.call.name, len(t.call.args)) for t in sc.trans}
    calls |= {(it.call.name, len(it.call.args)) for s in sc.states for it in s.internT}
    return sorted(c for c in calls if c[1] <= 1)


def _own_stream(rng, calls, length):
    out = []
    for _ in range(length):
        name, arity = rng.choice(calls)
        out.append((name, tuple(rng.randint(0, 3) for _ in range(arity))))
    return out


STREAMS_PER_CHART = 42
LONGEST = 2000  # events
# Blocks of equal-length Pump streams hold the median and the 90th
# percentile of the pass, whatever the seed draws elsewhere.
PLATEAUS = ((30, 20), (12, 650))  # (streams, events)
GEN_RUNS = 16
GEN_CANDIDATES = 4


def long_run_inputs(rng):
    ops = []
    for name, text, init, make in (("buffer", BUFFER_SC, "Empty", _buffer_stream),
                                   ("pump", PUMP_SC, "Off", _pump_stream)):
        lengths = _stratified(rng, STREAMS_PER_CHART, 5, LONGEST, power=2.0, jitter=0.02)
        if name == "pump":
            lengths += [events for count, events in PLATEAUS for _ in range(count)]
        for length in lengths:
            events = make(rng, length)
            ops.append(Op("run", f"{name}:{length}", name, {
                "text": text, "init": init, "events": events, "events_text": _text(events)}))
    base = rng.randrange(10**9)
    for stratum, length in enumerate(_stratified(rng, GEN_RUNS, 10, 100)):
        for k in range(GEN_CANDIDATES):
            gseed = base + stratum * GEN_CANDIDATES + k
            sc = gen_chart(gseed, max_states=8)
            calls = _chart_calls(sc) or [("f", 0)]
            events = _own_stream(rng, calls, length)
            ops.append(Op("run", f"gen:{gseed}:{length}", "gen", {
                "text": print_chart(sc), "init": None, "events": events,
                "events_text": _text(events), "stratum": stratum}))
    return ops


def long_run_prepare(ops):
    """Attach each op's expected output. Of the gen_chart candidates of a
    stratum the first whose behaviour is defined is measured; the ones before
    it, whose runs read an unassigned variable, become defect probes."""
    kept, undefined = [], []
    done = set()
    for op in ops:
        stratum = op.data.get("stratum")
        if stratum in done:
            continue
        try:
            op.data["expected"] = run_reference(op)
        except models.Undefined as e:
            undefined.append((f"undefined-{op.label}", op, f"ends in a documented outcome ({e})"))
            continue
        kept.append(op)
        if stratum is not None:
            done.add(stratum)
    return kept, undefined


def run_op(op, tr):
    sc = _parse(op.data["text"], tr)
    flat, simp = _flatten(sc, tr)
    with tr.span("flatinterp.parse_message"):
        msgs = _events(op.data["events_text"])
    inits = [op.data["init"]] if op.data["init"] else sorted(
        s.name for s in simp.initial_states())
    results = {}
    for init in inits:
        with tr.span("flatinterp.run", events=len(msgs)) as sp:
            result = flatinterp.run(simp, init, msgs)
            sp.set(steps=len(result.trajectory) - 1,
                   outcome=type(result.outcome).__name__.lower())
        with tr.span("flatinterp.run_log_lines", events=len(msgs)) as sp:
            log = flatinterp.run_log_lines(result)
            sp.set(steps=len(log))
        results[init] = (result, log)
    with tr.span("printer"):
        out = {init: {"outcome": type(r.outcome).__name__.lower(),
                      "state": r.final.current,
                      "emitted": [flatinterp.format_message(m) for m in r.emissions],
                      "log": log}
               for init, (r, log) in results.items()}
        text = json.dumps(out, indent=2)
    return text + "\n", None


def run_reference(op):
    """The expected `scforge run --format json` output of a long-runs op."""
    if op.bucket == "buffer":
        expected = models.buffer_model(op.data["events"])
    elif op.bucket == "pump":
        expected = models.pump_model(op.data["events"])
    else:
        simp = to_simplified(transform_fixpoint(parse(op.data["text"]))[0])
        msgs = [flatinterp.parse_message(models.msg_text(n, a)) for n, a in op.data["events"]]
        expected = {s: models.reference_run(simp, s, msgs)
                    for s in sorted(s.name for s in simp.initial_states())}
    return json.dumps(expected, indent=2) + "\n"


# -- verify: queries with known answers -------------------------------------

TERM_OPS = 400
NONDET_WORD = 5
# f() symbols per branch_chart word: a plateau of equal costs holds the 90th
# percentile of the pass; 12 or more exceed the node bound, 11 does so for
# some orders of the word, so it is left out.
BRANCH_WORDS = (8,) * 48 + (9, 10, 12, 13) * 4
FRAGMENTS = 16


def buffer_fragment(rng, n_events, n_diamonds, double_send):
    """A fragment in the shape of tests/fixtures/fig_ok_fragment.json for a
    simulated Buffer run: per event an arrival node (projected), a dequeue,
    the store update or send, and a quiescent node (projected). Some put
    chains get an interleaving diamond (v and t assigned in either order).
    With double_send, one get() in NonEmpty sends a second message."""
    events = _buffer_stream(rng, n_events)
    first_put = rng.randrange(n_events // 2)
    events[first_put] = ("put", (rng.randint(0, 9),))
    events[first_put + 1] = ("get", ())
    nodes, edges = [], []
    proj: dict = {"Empty": [], "NonEmpty": []}

    def node(vars, msg=None, buffer=()):
        nid = f"s{len(nodes) + 1}"
        nodes.append({"id": nid, "objects": {"o": {
            "vars": dict(vars), "threads": {"th1": [msg]} if msg else {},
            "buffer": list(buffer)}}})
        return nid

    def edge(a, b, sent=()):
        edges.append({"from": a, "to": b, "M": list(sent)})

    state, store = "Empty", {}
    put_chains = [k for k, (name, _) in enumerate(events) if name == "put"]
    diamonds = set(rng.sample(put_chains, min(n_diamonds, len(put_chains))))
    injected = None
    q = node(store)
    proj[state].append(q)
    for k, (name, args) in enumerate(events):
        m = models.msg_text(name, args)
        a = node(store, buffer=[m])
        edge(q, a)
        proj[state].append(a)
        b = node(store, msg=m)
        edge(a, b)
        if name == "put":
            new = {"v": args[0], "t": args[0]}
            if k in diamonds:
                c1 = node({**store, "v": args[0]}, msg=m)
                c2 = node({**store, "t": args[0]}, msg=m)
                d = node(new, msg=m)
                edge(b, c1), edge(b, c2), edge(c1, d), edge(c2, d)
            else:
                d = node(new, msg=m)
                edge(b, d)
            store, state = new, "NonEmpty"
        else:
            sent = models.msg_text("send", (store["v"] if state == "NonEmpty" else -1,))
            d = node(store, msg=m)
            edge(b, d, [sent])
            if double_send and state == "NonEmpty" and injected is None:
                injected = k
                d2 = node(store, msg=m)
                edge(d, d2, [models.msg_text("send", (-1,))])
                d = d2
            state = "Empty"
        q = node(store)
        edge(d, q)
        proj[state].append(q)
    if double_send and injected is None:
        raise ValueError("no get() in NonEmpty to inject a double send into")
    frag = {"main": "o", "init": proj["Empty"], "nodes": nodes, "edges": edges}
    return json.dumps(frag, indent=1), json.dumps(proj, indent=1)


def branch_chart() -> str:
    """A flat guard-free chart in which every state has two f() transitions
    with different outputs, so a word with L f() symbols has 2**L runs. Its
    shape is fixed, so that the cost of a word depends on its length only."""
    states = 4
    lines = ["statechart Branch for C <<prio:inner, completion:ignore>> {"]
    lines += [f"    {'initial ' if i == 0 else ''}state B{i};" for i in range(states)]
    for i in range(states):
        lines.append(f"    B{i} -> B{(i + 1) % states} : f() / out1(1);")
        lines.append(f"    B{i} -> B{(i + 2) % states} : f() / out2(2);")
        lines.append(f"    B{i} -> B{(i + 3) % states} : g();")
    return "\n".join(lines + ["}"]) + "\n"


def _nondeterministic(sc) -> bool:
    seen = set()
    for t in sc.trans:
        if (t.src, t.call.name) in seen:
            return True
        seen.add((t.src, t.call.name))
    return False


def verify_inputs(rng, root):
    ops = []
    base = rng.randrange(10**9)
    for k, length in enumerate(_stratified(rng, TERM_OPS, 1, 14, jitter=0.45)):
        sc = gen_guard_free(base + k)
        if _nondeterministic(sc):
            # runs double with each branching step; longer words make the
            # op's cost depend on the draw more than on the program
            length = min(length, NONDET_WORD)
        triggers = sorted({t.call.name for t in sc.trans})
        word = [(rng.choice(triggers), ()) for _ in range(length)]
        strategy = "paper" if k % 2 == 0 else f"random:{rng.randrange(1000)}"
        ops.append(Op("term-flat", f"gf:{base + k}:{length}:{strategy}", "term-flat", {
            "text": print_chart(sc), "init": initial_leaf(sc),
            "events_text": _text(word), "strategy": strategy}))
    for copy, f_count in enumerate(BRANCH_WORDS):
        word = [("f", ())] * f_count + [("g", ())] * 2
        rng.shuffle(word)
        ops.append(Op("term-flat", f"branch:{copy}:{f_count}", "branch", {
            "text": branch_chart(), "init": "B0", "events_text": _text(word),
            "strategy": "paper"}))
    for n_events in _stratified(rng, FRAGMENTS, 8, 30, power=1.0, jitter=0.3):
        frag_seed = rng.randrange(10**9)
        for double_send in (False, True):
            frag, proj = buffer_fragment(random.Random(frag_seed), n_events, 3, double_send)
            ops.append(Op("conform", f"frag:{frag_seed}:{n_events}:{double_send}", "conform", {
                "fragment": frag, "projection": proj,
                "expect": "fail5" if double_send else "pass"}))
    proj = (root / FIXTURES / "buffer_projection.json").read_text()
    for name, expect in (("fig_ok_fragment.json", "pass"),
                         ("fig_double_send_fragment.json", "fail5")):
        ops.append(Op("conform", f"fixture:{name}", "conform", {
            "fragment": (root / FIXTURES / name).read_text(), "projection": proj,
            "expect": expect}))
    return ops


def _emission_sets(runs, explored):
    term = {tuple(str(s) for s in vdb.run_outputs(r)) for r in runs}
    flat = {tuple(flatinterp.format_message(m) for m in em)
            for em, kind in explored if kind == "quiescent"}
    return term, flat


def term_flat_op(op, tr):
    sc = _parse(op.data["text"], tr)
    with tr.span("vdb.encode_guard_free"):
        term = vdb.encode_guard_free(sc)
    with tr.span("flatinterp.parse_message"):
        msgs = _events(op.data["events_text"])
    queue = tuple(vdb.Sym(m.name, tuple(m.args)) for m in msgs)
    with tr.span("vdb.run_bounded") as sp:
        try:
            runs = vdb.run_bounded(vdb.KripkeNode(term, queue), VDB_MAX_STEPS,
                                   max_nodes=MAX_NODES)
        except vdb.StateSpaceBound:
            sp.set(bound_hit=1)
            raise
    if tr.enabled:
        sp.set(runs=len(runs), distinct_nodes=len({n for r in runs for n in r}),
               path_nodes=sum(len(r) for r in runs))
    flat, simp = _flatten(sc, tr, strategy=op.data["strategy"])
    with tr.span("flatinterp.explore_emissions") as sp:
        explored = flatinterp.explore_emissions(simp, op.data["init"], msgs)
        sp.set(results=len(explored))
    term_set, flat_set = _emission_sets(runs, explored)
    return json.dumps(sorted(flat_set)) + "\n", term_set


def term_flat_check(op, text, term_set):
    """Reference: the quiescent emission sets of the term semantics."""
    return {tuple(x) for x in json.loads(text)} == term_set


def conform_op(op, tr):
    with tr.span("conform.from_json"):
        frag = SystemFragment.from_json(op.data["fragment"])
        proj = load_projection(op.data["projection"])
    sc = _parse(BUFFER_SC, tr)
    flat, simp = _flatten(sc, tr)
    with tr.span("conform.check") as sp:
        report = check_system_conformance(simp, frag, proj)
        sp.set(fragment_nodes=len(frag.nodes),
               witnesses=sum(len(e["witnesses"]) for e in report))
    with tr.span("conform.report_to_json"):
        text = report_to_json(report)
    return text + "\n", report


def conform_check(op, text, report):
    """Known answer: conformance, or a condition-5 failure on NonEmpty->Empty."""
    if op.data["expect"] == "pass":
        return conformance_passed(report)
    status = {e["condition"]: e["pass"] for e in report}
    cond5 = report[-1]
    return (all(status[c] for c in (1, 2, 3, 4)) and not status[5]
            and any("NonEmpty->Empty" in w for w in cond5["witnesses"]))


def verify_op(op, tr):
    return (term_flat_op if op.kind == "term-flat" else conform_op)(op, tr)


def verify_check(op, text, evidence):
    return (term_flat_check if op.kind == "term-flat" else conform_check)(op, text, evidence)


# -- known defects, run outside the measured ops ----------------------------

# Entry and exit actions only on the composite state: the flattener drops them
# (rule 21 / 18 fire because no simple substate carries its own action), so
# the first job() reads an unassigned n.
PUMP_COMPOSITE_SC = """statechart PumpC for PumpClass <<completion:ignore>> {
    initial state Off;
    state On {
        entry / n = 0 & started();
        exit / stopped(n);
        initial state Idle;
        state Busy;
        Idle -> Busy : [0 < x] job(x) / n = n + x;
        Busy -> Idle : done() / finished(n);
    }
    Off -> On : power();
    On -> Off : power();
}
"""

# An entry action on an initial substate is never moved (rule 19 excludes
# initial states), so the chart does not flatten.
INITIAL_ENTRY_SC = """statechart InitEntry for C <<completion:ignore>> {
    initial state Off;
    state On {
        initial state Idle {
            entry / idle();
        }
        state Busy;
        Idle -> Busy : job();
    }
    Off -> On : power();
}
"""


def probes(workload):
    """(name, op, expectation) triples; each is run once per run, untimed,
    and its outcome printed."""
    if workload == "flatten-corpus":
        return [("initial-substate-entry", Op("simplify", "probe", "probe",
                                              {"text": INITIAL_ENTRY_SC}),
                 "flattens completely")]
    if workload == "long-runs":
        gen3 = print_chart(gen_chart(3, max_states=8))
        return [
            ("composite-entry-exit", Op("run", "probe", "probe", {
                "text": PUMP_COMPOSITE_SC, "init": "Off", "events": None,
                "events_text": "power(), job(2), done(), power()"}),
             "runs, first step emits started()"),
            ("gen-3-unassigned", Op("run", "probe", "probe", {
                "text": gen3, "init": None, "events": None, "events_text": "h(), g()"}),
             "ends in a documented outcome"),
        ]
    return []


# -- CLI parity -------------------------------------------------------------

def cli_argv(op, tmp):
    """The `scforge` command line that serves the same request as `op`."""
    chart = tmp / "chart.sc"
    chart.write_text(op.data.get("text", BUFFER_SC))
    if op.kind == "simplify":
        return ["simplify", str(chart)]
    if op.kind == "run":
        (tmp / "events.txt").write_text(op.data["events_text"])
        argv = ["run", str(chart), "--events", f"@{tmp / 'events.txt'}", "--format", "json"]
        return argv + (["--init", op.data["init"]] if op.data["init"] else [])
    (tmp / "fragment.json").write_text(op.data["fragment"])
    (tmp / "projection.json").write_text(op.data["projection"])
    return ["conform", str(chart), str(tmp / "fragment.json"),
            str(tmp / "projection.json"), "--format", "json"]


def parity_op(workload, ops) -> Op:
    """A short op of each workload: the Buffer chart / shortest Buffer run /
    the shipped passing fixture."""
    if workload == "flatten-corpus":
        return next(op for op in ops if op.label == "buffer")
    if workload == "long-runs":
        return min((op for op in ops if op.bucket == "buffer"),
                   key=lambda op: len(op.data["events"]))
    return next(op for op in ops if op.label == "fixture:fig_ok_fragment.json")


@dataclass
class Workload:
    make: object  # (rng, checkout root) -> ops
    op: object  # (op, tracer) -> (output text, evidence)
    check: object  # (op, output text, evidence) -> bool
    prepare: object = None  # ops -> (measured ops, extra probes); untimed


WORKLOADS = {
    "flatten-corpus": Workload(lambda rng, root: flatten_inputs(rng),
                               simplify_op, simplify_check),
    "long-runs": Workload(lambda rng, root: long_run_inputs(rng), run_op,
                          lambda op, text, _: text == op.data["expected"],
                          long_run_prepare),
    "verify": Workload(verify_inputs, verify_op, verify_check),
}
