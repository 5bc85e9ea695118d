"""Reproducibility of term-level exploration: the same term and event queue
give the same set of Kripke runs, or the same bound or encoding error.

`PYTHONPATH=src python tests/test_kripke_golden.py` prints the digests of the
corpus as JSON, in the format of `fixtures/kripke_golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from scforge.actions import Message
from scforge.gen import gen_guard_free
from scforge.parse import parse
from scforge.vdb import (
    KripkeNode,
    NotGuardFree,
    StateSpaceBound,
    UnboundedValueDomain,
    encode_guard_free,
    run_bounded,
    runs_to_json,
)

KRIPKE_GOLDEN = Path(__file__).resolve().parent / "fixtures" / "kripke_golden.json"

MAX_STEPS = 100  # the default of `scforge vdb-run --max-steps`
MAX_NODES = 10000  # the default of SCFORGE_MAX_NODES

BUFFER_SC = """statechart Buffer for BufferClass {
    initial state Empty;
    state NonEmpty;
    Empty -> NonEmpty : put(x) / v = x;
    Empty -> Empty : get() / send(-1);
    NonEmpty -> Empty : get() / send(v);
    NonEmpty -> NonEmpty : put(x) / v = x;
}"""
BUFFER_DOMAIN = (-1, 0, 3)


def branch_chart() -> str:
    """A flat guard-free chart in which every state has two f() transitions
    with different outputs, so a word with L f() symbols has 2**L runs (the
    branching chart of the benchmark's verify workload)."""
    states = 4
    lines = ["statechart Branch for C <<prio:inner, completion:ignore>> {"]
    lines += [f"    {'initial ' if i == 0 else ''}state B{i};" for i in range(states)]
    for i in range(states):
        lines.append(f"    B{i} -> B{(i + 1) % states} : f() / out1(1);")
        lines.append(f"    B{i} -> B{(i + 2) % states} : f() / out2(2);")
        lines.append(f"    B{i} -> B{(i + 3) % states} : g();")
    return "\n".join(lines + ["}"]) + "\n"


def runs_digest(term, word, max_nodes=MAX_NODES) -> str:
    """sha256 of the JSON runs of `term` on the queue `word`, or of the
    bound error exploration raised."""
    try:
        text = runs_to_json(run_bounded(KripkeNode(term, tuple(word)), MAX_STEPS,
                                        max_nodes=max_nodes))
    except StateSpaceBound as e:
        text = f"{type(e).__name__} {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def _error_digest(e: Exception) -> str:
    return hashlib.sha256(f"{type(e).__name__} {e}".encode()).hexdigest()


def kripke_golden_digests() -> dict[str, str]:
    """gen_guard_free seeds 0-99 on two seeded words of 1-10 symbols each;
    the branching chart on shuffled words of 4-9 f() and two g(); the Buffer
    chart over a domain on seeded put/get words; and the branching chart cut
    by the node bound."""
    out: dict[str, str] = {}
    rng = random.Random(20020101)
    for seed in range(100):
        sc = gen_guard_free(seed)
        try:
            term = encode_guard_free(sc)
        except (NotGuardFree, UnboundedValueDomain) as e:
            out[f"gen/{seed}"] = _error_digest(e)
            continue
        triggers = sorted({t.call.name for t in sc.trans})
        for k in range(2):
            word = [Message(rng.choice(triggers)) for _ in range(rng.randint(1, 10))]
            out[f"gen/{seed}/{k}:{len(word)}"] = runs_digest(term, word)
    branch = encode_guard_free(parse(branch_chart()))
    for f_count in range(4, 10):
        word = [Message("f")] * f_count + [Message("g")] * 2
        rng.shuffle(word)
        out[f"branch/{f_count}"] = runs_digest(branch, word)
    buffer = encode_guard_free(parse(BUFFER_SC), domain=BUFFER_DOMAIN)
    for length in (0, 1, 3, 6, 12, 25):
        word = [Message("put", (rng.choice(BUFFER_DOMAIN),)) if rng.random() < 0.5
                else Message("get") for _ in range(length)]
        out[f"buffer/{length}"] = runs_digest(buffer, word)
    word = [Message("f")] * 10
    for max_nodes in (1, 100, 500):
        out[f"bound/{max_nodes}"] = runs_digest(branch, word, max_nodes)
    return out


def test_kripke_runs_match_golden_digests():
    expected = json.loads(KRIPKE_GOLDEN.read_text())
    actual = kripke_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} explorations differ, first: {differing[:5]}"


if __name__ == "__main__":
    print(json.dumps(kripke_golden_digests(), indent=1))
