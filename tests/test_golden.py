"""Reproducibility of flattening and term encoding: the same chart flattens
to the same flat chart and trace, and encodes to the same term, in every
process.

`PYTHONPATH=src python tests/test_golden.py` prints the flattening digests
of the golden corpus as JSON, in the format of `fixtures/flatten_golden.json`;
with the argument `encode` it prints the term encoding digests, in the format
of `fixtures/encode_golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from scforge.ast import SEQUENTIAL
from scforge.gen import gen_chart, gen_guard_free
from scforge.parse import parse
from scforge.printer import print_chart
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import NotGuardFree, UnboundedValueDomain, encode_guard_free, term_to_sexpr
from test_acceptance import EXTRA_CHARTS, corpus
from test_vdb import BUFFER_SC

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "flatten_golden.json"
ENCODE_GOLDEN = Path(__file__).resolve().parent / "fixtures" / "encode_golden.json"

# Flattens gen_chart seeds 0-59 at 6 and 10 states and prints each flat chart
# followed by its trace.
FLATTEN_SCRIPT = """
from scforge.gen import gen_chart
from scforge.printer import print_chart
from scforge.transform import transform_fixpoint

for states in (6, 10):
    for seed in range(60):
        flat, trace = transform_fixpoint(gen_chart(seed, max_states=states))
        print(f"== seed {seed} states {states}")
        print(print_chart(flat))
        for e in trace:
            print(e)
"""


# Encodes gen_guard_free seeds 0-59 as written and gen_chart seeds 0-59 at 6
# states after flattening; prints each term, or the error the encoder raised.
ENCODE_SCRIPT = """
from scforge.gen import gen_chart, gen_guard_free
from scforge.transform import transform_fixpoint
from scforge.vdb import NotGuardFree, UnboundedValueDomain, encode_guard_free, term_to_sexpr

def show(label, sc):
    try:
        print(label, term_to_sexpr(encode_guard_free(sc)))
    except (NotGuardFree, UnboundedValueDomain) as e:
        print(label, type(e).__name__, e)

for seed in range(60):
    show(f"guard-free {seed}", gen_guard_free(seed))
    show(f"flat {seed}", transform_fixpoint(gen_chart(seed, max_states=6))[0])
"""


# Prints a chart whose transitions differ only in their call patterns.
TIE_SCRIPT = '''
from scforge.parse import parse
from scforge.printer import print_chart

print(print_chart(parse("""statechart Tie for C {
    initial state A;
    state B;
    A -> B : f(k) / send(1);
    A -> B : f(1) / send(1);
    A -> B : f(2) / send(1);
    A -> B : f([]) / send(1);
}""")))
'''


def _run_in_fresh_process(script: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_flattening_is_identical_across_processes():
    first = _run_in_fresh_process(FLATTEN_SCRIPT, "1")
    second = _run_in_fresh_process(FLATTEN_SCRIPT, "2")
    assert first.count("== seed") == 120
    differing = [
        "seed " + a.split("\n", 1)[0]
        for a, b in zip(first.split("== seed "), second.split("== seed "))
        if a != b
    ]
    assert not differing, f"{len(differing)} charts differ, first: {differing[:3]}"


def test_term_encoding_is_identical_across_processes():
    first = _run_in_fresh_process(ENCODE_SCRIPT, "1").splitlines()
    second = _run_in_fresh_process(ENCODE_SCRIPT, "2").splitlines()
    assert len(first) == len(second) == 120
    differing = [a.split(" ", 2)[:2] for a, b in zip(first, second) if a != b]
    assert not differing, f"{len(differing)} encodings differ, first: {differing[:3]}"


def test_transitions_tied_but_for_their_patterns_print_identically_across_processes():
    first = _run_in_fresh_process(TIE_SCRIPT, "1")
    assert first.count(" -> B : f(") == 4
    assert _run_in_fresh_process(TIE_SCRIPT, "2") == first


def flatten_digest(sc, strategy: str) -> str:
    """sha256 of the printed flat chart followed by its trace entries."""
    flat, trace = transform_fixpoint(sc, strategy=strategy)
    lines = [print_chart(flat)] + [
        f"{e.rule}\t{e.name}\t{e.binding}\t{e.before_hash}\t{e.after_hash}" for e in trace
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sequential(sc):
    """sc with the stereotype that makes rules 17 and 20 move its actions."""
    return replace(sc, stereos=sc.stereos | {SEQUENTIAL})


def golden_digests() -> dict[str, str]:
    """The acceptance corpus and extra charts under `paper`, the first 50
    corpus charts under `random:1`, and gen_chart seeds 0-99 at 6 and 10
    states with sequential action conditions under `paper`."""
    out = {}
    for seed, sc in enumerate(corpus()):
        out[f"paper/corpus/{seed}"] = flatten_digest(sc, "paper")
    for i, text in enumerate(EXTRA_CHARTS):
        out[f"paper/extra/{i}"] = flatten_digest(parse(text), "paper")
    for seed, sc in enumerate(corpus()[:50]):
        out[f"random:1/corpus/{seed}"] = flatten_digest(sc, "random:1")
    for states in (6, 10):
        for seed in range(100):
            out[f"paper/sequential/{states}/{seed}"] = flatten_digest(
                sequential(gen_chart(seed, max_states=states)), "paper")
    return out


def test_flattening_matches_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} charts differ, first: {differing[:5]}"


ENCODE_DOMAIN = (-1, 0, 1, 2, 3)

# One chart for each reason the encoder rejects a chart, with the domain it
# is encoded over.
REJECTED_CHARTS = {
    "guard": ("statechart D for C { initial state A; A -> A : [v == 1] f(); }", None),
    "postcondition": ("statechart D for C { initial state A; A -> A : f() / send(1) [v == 1]; }",
                      None),
    "cross-level": ("""statechart D for C {
        initial state Top { initial state In1; }
        state Other;
        In1 -> Other : f();
    }""", None),
    "data-in-hierarchy": ("""statechart D for C {
        initial state Top { initial state In1; }
        state Other;
        Top -> Other : f(x) / v = x;
    }""", ENCODE_DOMAIN),
    "two-data-variables": ("statechart D for C { initial state A; A -> A : f(x) / v = x & w = x; }",
                           ENCODE_DOMAIN),
    "value-escapes-domain": ("""statechart D for C {
        initial state A;
        state B;
        A -> B : f(x) / v = x + 1;
        B -> A : g() / send(v);
    }""", ENCODE_DOMAIN),
    "no-initial-state": ("statechart D for C { state A; state B; A -> B : f(); }", None),
    "no-initial-substate": ("""statechart D for C {
        initial state Top { state In1; state In2; In1 -> In2 : f(); }
    }""", None),
}


def encode_digest(sc, domain=None) -> str:
    """sha256 of the encoded term's text, or of the error type and its
    offending list (its message, for a domain error)."""
    try:
        text = term_to_sexpr(encode_guard_free(sc, domain=domain))
    except NotGuardFree as e:
        text = f"NotGuardFree {json.dumps(e.offending)}"
    except UnboundedValueDomain as e:
        text = f"UnboundedValueDomain {e}"
    return hashlib.sha256(text.encode()).hexdigest()


# A flat chart the encoder accepts: a data variable, event parameters, an
# entry action, and transitions that share source, target and trigger.
ACCEPTED_FLAT = """statechart Multi for C {
    initial state A;
    state B { entry / hi(); }
    A -> B : f(x) / v = x & send(x);
    A -> B : f(y) / v = 1;
    A -> A : f() / send(2);
    B -> A : g() / send(v);
    B -> B : f(x) / send(x, v);
}"""


def encode_golden_digests() -> dict[str, str]:
    """gen_guard_free seeds 0-99 as written, flattened and simplified;
    gen_chart seeds 0-99 at 6 states flattened and simplified, over a domain;
    the Buffer chart and a hand-written flat chart over a domain; and the
    rejected charts."""
    out = {}
    for seed in range(100):
        sc = gen_guard_free(seed)
        flat = transform_fixpoint(sc)[0]
        out[f"guard-free/{seed}"] = encode_digest(sc)
        out[f"guard-free/{seed}/flattened"] = encode_digest(flat)
        out[f"guard-free/{seed}/simplified"] = encode_digest(to_simplified(flat))
    for seed in range(100):
        flat = transform_fixpoint(gen_chart(seed, max_states=6))[0]
        out[f"chart/{seed}/flattened"] = encode_digest(flat, ENCODE_DOMAIN)
        out[f"chart/{seed}/simplified"] = encode_digest(to_simplified(flat), ENCODE_DOMAIN)
    buffer = parse(BUFFER_SC)
    out["buffer"] = encode_digest(buffer, ENCODE_DOMAIN)
    out["buffer/simplified"] = encode_digest(
        to_simplified(transform_fixpoint(buffer)[0]), ENCODE_DOMAIN)
    out["accepted-flat"] = encode_digest(parse(ACCEPTED_FLAT), ENCODE_DOMAIN)
    for name, (text, domain) in REJECTED_CHARTS.items():
        out[f"rejected/{name}"] = encode_digest(parse(text), domain)
    return out


def test_term_encoding_matches_golden_digests():
    expected = json.loads(ENCODE_GOLDEN.read_text())
    actual = encode_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} encodings differ, first: {differing[:5]}"


if __name__ == "__main__":
    encode = sys.argv[1:] == ["encode"]
    print(json.dumps(encode_golden_digests() if encode else golden_digests(), indent=1))
