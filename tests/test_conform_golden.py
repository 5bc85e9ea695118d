"""Conformance reports of a seeded fragment corpus, pinned byte for byte.

The corpus has Buffer fragments with 0, 3 and 6 interleaving diamonds, with
and without a double send and with and without back edges, and random
fragments checked against a chart whose statements send several messages.
Each is checked at the bounds None, 0, 1, 2, half the node count and the
node count.

`PYTHONPATH=src python tests/test_conform_golden.py` prints the digests as
JSON, in the format of `fixtures/conform_golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from scforge.conform import (
    IncompleteProjection,
    SystemFragment,
    check_system_conformance,
    load_projection,
    report_to_json,
)
from scforge.parse import parse
from scforge.transform import to_simplified

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "conform_golden.json"

BUFFER = to_simplified(parse("""statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}"""))

# Statements with two and three emissions in a fixed order, a postcondition,
# and a transition with no store effect.
PAIR = to_simplified(parse("""statechart Pair for C {
    initial state A;
    state B;
    A -> B : f(x) / v = x & out(x) & out(v);
    A -> A : g() / ack() & out(0) & ack();
    B -> A : f(x) / v = 0 & out(x) [v == 0];
    B -> B : g() / ack();
}"""))


def buffer_fragment(seed: int, n_events: int, diamonds: int, double_send: bool,
                    back_edges: bool) -> tuple[str, str]:
    """A simulated Buffer run: per event an arrival node (projected), a
    dequeue, the store update or send, and a quiescent node (projected).
    Some put chains get an interleaving diamond (v and t assigned in either
    order). With double_send, the first get() in NonEmpty sends a second
    message; with back_edges, some quiescent nodes get an edge back to an
    earlier quiescent node of the same chart state."""
    rng = random.Random(seed)
    events = [("put", rng.randint(0, 9)) if rng.random() < 0.5 else ("get", None)
              for _ in range(n_events)]
    events[0], events[1] = ("put", rng.randint(0, 9)), ("get", None)
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

    puts = [k for k, (name, _) in enumerate(events) if name == "put"]
    diamond_at = set(rng.sample(puts, min(diamonds, len(puts))))
    state, store, sent_twice = "Empty", {}, False
    quiescent = {"Empty": [], "NonEmpty": []}
    q = node(store)
    proj[state].append(q)
    for k, (name, arg) in enumerate(events):
        m = f"put({arg})" if name == "put" else "get()"
        a = node(store, buffer=[m])
        edge(q, a)
        proj[state].append(a)
        b = node(store, msg=m)
        edge(a, b)
        if name == "put":
            new = {"v": arg, "t": arg}
            if k in diamond_at:
                c1 = node({**store, "v": arg}, msg=m)
                c2 = node({**store, "t": arg}, msg=m)
                d = node(new, msg=m)
                edge(b, c1), edge(b, c2), edge(c1, d), edge(c2, d)
            else:
                d = node(new, msg=m)
                edge(b, d)
            store, state = new, "NonEmpty"
        else:
            d = node(store, msg=m)
            edge(b, d, [f"send({store['v'] if state == 'NonEmpty' else -1})"])
            if double_send and state == "NonEmpty" and not sent_twice:
                sent_twice = True
                d2 = node(store, msg=m)
                edge(d, d2, ["send(-1)"])
                d = d2
            state = "Empty"
        q = node(store)
        edge(d, q)
        proj[state].append(q)
        if back_edges and quiescent[state] and rng.random() < 0.3:
            edge(q, rng.choice(quiescent[state]))
        quiescent[state].append(q)
    frag = {"main": "o", "init": proj["Empty"], "nodes": nodes, "edges": edges}
    return json.dumps(frag), json.dumps(proj)


RANDOM_MESSAGES = ["f(1)", "f(2)", "g()"]
RANDOM_LABELS = [[], [], ["out(1)"], ["out(1)", "out(1)"], ["ack()"], ["out(0)", "ack()"],
                 ["ack()", "out(0)"], ["out(2)", "out(2)"], ["out(1)", "out(0)"]]


def random_fragment(seed: int) -> tuple[str, str]:
    """A random graph of 3-8 nodes with random stores, buffers, thread
    stacks and output labels, and a random projection of Pair's states."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    ids = [f"n{i}" for i in range(n)]
    nodes = []
    for nid in ids:
        vars = {v: rng.choice([0, 1, 2]) for v in ("v", "w") if rng.random() < 0.7}
        buffer = [m for m in RANDOM_MESSAGES if rng.random() < 0.3]
        threads = {"th1": [rng.choice(RANDOM_MESSAGES)]} if rng.random() < 0.3 else {}
        nodes.append({"id": nid, "objects": {"o": {
            "vars": vars, "threads": threads, "buffer": buffer}}})
    edges = [{"from": a, "to": b, "M": rng.choice(RANDOM_LABELS)}
             for a in ids for b in ids if rng.random() < 0.3]
    init = [nid for nid in ids if rng.random() < 0.3]
    proj = {name: [nid for nid in ids if rng.random() < 0.4] for name in ("A", "B")}
    frag = {"main": "o", "init": init, "nodes": nodes, "edges": edges}
    return json.dumps(frag), json.dumps(proj)


def report_digest(sc, frag_text: str, proj_text: str, bound) -> str:
    """sha256 of the report's JSON, or of the projection error."""
    frag = SystemFragment.from_json(frag_text)
    try:
        text = report_to_json(check_system_conformance(
            sc, frag, load_projection(proj_text), bound=bound))
    except IncompleteProjection as e:
        text = f"IncompleteProjection {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def bounds(frag_text: str) -> list:
    n = len(json.loads(frag_text)["nodes"])
    return [None, 0, 1, 2, n // 2, n]


def conform_golden_digests() -> dict[str, str]:
    out = {}
    for seed in range(2):
        for diamonds in (0, 3, 6):
            for double_send in (False, True):
                for back_edges in (False, True):
                    n_events = 8 if back_edges else 16
                    frag, proj = buffer_fragment(seed, n_events, diamonds, double_send,
                                                 back_edges)
                    key = (f"buffer/{seed}/d{diamonds}/{'double' if double_send else 'ok'}"
                           f"/{'cycles' if back_edges else 'dag'}")
                    for bound in bounds(frag):
                        out[f"{key}/{bound}"] = report_digest(BUFFER, frag, proj, bound)
    for seed in range(100):
        frag, proj = random_fragment(seed)
        for bound in bounds(frag):
            out[f"random/{seed}/{bound}"] = report_digest(PAIR, frag, proj, bound)
    return out


def test_conformance_reports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = conform_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} reports differ, first: {differing[:5]}"


if __name__ == "__main__":
    print(json.dumps(conform_golden_digests(), indent=1))
    sys.exit(0)
