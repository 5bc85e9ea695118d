"""Reproducibility of the two text writers: the simplified-chart printer and
the term text format.

`PYTHONPATH=src python tests/test_text_golden.py simp` prints the digests of
the printed simplified charts as JSON, in the format of
`fixtures/simp_golden.json`; with the argument `simp-json` it prints the
digests of their JSON form and of their `check_simp` findings, in the format
of `fixtures/simp_json_golden.json`; with the argument `sexpr` it prints the
digests of the seeded random terms, in the format of
`fixtures/sexpr_golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from scforge.actions import Message
from scforge.gen import gen_chart, gen_guard_free
from scforge.parse import parse
from scforge.printer import print_simp, to_json
from scforge.transform import to_simplified, transform_fixpoint
from scforge.vdb import HISTORY_TYPES, And, Basic, Or, VdbTransition, term_from_sexpr, term_to_sexpr
from scforge.wellformed import check_simp
from test_vdb import BUFFER_SC

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SIMP_GOLDEN = FIXTURES / "simp_golden.json"
SIMP_JSON_GOLDEN = FIXTURES / "simp_json_golden.json"
SEXPR_GOLDEN = FIXTURES / "sexpr_golden.json"


def _simplified(sc):
    return to_simplified(transform_fixpoint(sc)[0])


@lru_cache(maxsize=1)
def simplified_corpus() -> dict:
    """gen_chart seeds 0-199 at 10 states and gen_guard_free seeds 0-199,
    flattened and simplified, and the Buffer chart."""
    out = {}
    for seed in range(200):
        out[f"chart/{seed}"] = _simplified(gen_chart(seed, max_states=10))
        out[f"guard-free/{seed}"] = _simplified(gen_guard_free(seed))
    out["buffer"] = _simplified(parse(BUFFER_SC))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def simp_golden_digests() -> dict[str, str]:
    """The printed text of the first 100 charts of each generator, and of
    the Buffer chart."""
    return {
        key: _digest(print_simp(simp))
        for key, simp in simplified_corpus().items()
        if key == "buffer" or int(key.rsplit("/", 1)[1]) < 100
    }


def test_printed_simplified_charts_match_golden_digests():
    expected = json.loads(SIMP_GOLDEN.read_text())
    actual = simp_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} charts differ, first: {differing[:5]}"


def simp_json_golden_digests() -> dict[str, str]:
    """For every chart of the corpus, its JSON form (`simplify --format
    json`) and its `check_simp` findings."""
    out = {}
    for key, simp in simplified_corpus().items():
        out[f"json/{key}"] = _digest(to_json(simp))
        out[f"check/{key}"] = _digest(json.dumps([v.to_json() for v in check_simp(simp)]))
    return out


def test_simplified_chart_json_and_findings_match_golden_digests():
    expected = json.loads(SIMP_JSON_GOLDEN.read_text())
    actual = simp_json_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} charts differ, first: {differing[:5]}"


def test_printed_simplified_charts_parse_back_to_themselves():
    corpus = simplified_corpus()
    differing = [key for key, simp in corpus.items()
                 if to_simplified(parse(print_simp(simp), allow_reserved=True)) != simp]
    assert len(corpus) == 401
    assert not differing, f"{len(differing)} charts differ, first: {differing[:5]}"


# Names, among them ones the writer must quote: a space, parentheses, a
# leading digit, a bar, and the empty name.
NAMES = ("a", "B", "f-1", "x_2", "$v", "weird name!", "NonEmpty(3)", "1st", "a|b", "")


def _value(rng: random.Random, depth: int = 1):
    kind = rng.choice(("int", "int", "bool", "tuple") if depth else ("int", "bool"))
    if kind == "int":
        return rng.randint(-3, 12)
    if kind == "bool":
        return rng.random() < 0.5
    return tuple(_value(rng, depth - 1) for _ in range(rng.randint(0, 2)))


def _sym(rng: random.Random) -> Message:
    return Message(rng.choice(NAMES), tuple(_value(rng) for _ in range(rng.randint(0, 2))))


def _seq(rng: random.Random) -> tuple:
    return tuple(_sym(rng) for _ in range(rng.randint(0, 2)))


def _names_in(t) -> list:
    out = [t.name]
    for s in getattr(t, "subterms", ()):
        out += _names_in(s)
    return out


def random_term(rng: random.Random, depth: int = 3):
    """A seeded random term with distinct state names. Transition names
    repeat across or-terms; source restrictions and target determinators
    name states of their source and target."""
    kind = rng.choice(("basic", "or", "and") if depth else ("basic",))
    name = f"{rng.choice(NAMES)}#{rng.randrange(10 ** 6)}"
    if kind == "basic":
        return Basic(name, _seq(rng), _seq(rng))
    subs = tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    if kind == "and":
        return And(name, subs, _seq(rng), _seq(rng))
    transitions = set()
    for k in range(rng.randint(0, 3)):
        i, j = rng.randint(1, len(subs)), rng.randint(1, len(subs))
        src, trg = _names_in(subs[i - 1]), _names_in(subs[j - 1])
        transitions.add(VdbTransition(
            f"{rng.choice(NAMES)}t{k}", i,
            frozenset(rng.sample(src, rng.randint(0, min(2, len(src))))),
            _sym(rng), _seq(rng),
            frozenset(rng.sample(trg, rng.randint(0, min(2, len(trg))))),
            j, rng.choice(HISTORY_TYPES),
        ))
    return Or(name, subs, rng.randint(1, len(subs)), frozenset(transitions), _seq(rng), _seq(rng))


@lru_cache(maxsize=1)
def random_terms() -> tuple:
    rng = random.Random(20020102)
    return tuple(random_term(rng) for _ in range(200))


def sexpr_golden_digests() -> dict[str, str]:
    return {f"term/{k}": _digest(term_to_sexpr(t)) for k, t in enumerate(random_terms())}


def test_term_text_matches_golden_digests():
    expected = json.loads(SEXPR_GOLDEN.read_text())
    actual = sexpr_golden_digests()
    assert actual.keys() == expected.keys()
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} terms differ, first: {differing[:5]}"


def test_golden_terms_cover_the_term_format():
    texts = [term_to_sexpr(t) for t in random_terms()]
    assert any(text.startswith("(and ") for text in texts)
    for ht in HISTORY_TYPES:
        assert any(f" {ht})" in text for text in texts)
    ors = [t for t in random_terms() if isinstance(t, Or)]
    assert any(tr.ns and tr.nt for t in ors for tr in t.transitions)
    assert any("|weird name!" in text and "\\|" in text and "||" in text for text in texts)


def _distinct_transition_names(t):
    """t with each transition name prefixed by the name of its or-term."""
    if isinstance(t, Basic):
        return t
    subs = tuple(map(_distinct_transition_names, t.subterms))
    if isinstance(t, And):
        return replace(t, subterms=subs)
    return replace(t, subterms=subs, transitions=frozenset(
        replace(tr, tname=f"{t.name}/{tr.tname}") for tr in t.transitions))


def test_golden_terms_read_back_to_themselves():
    # The reader rejects the golden terms that repeat a transition name
    # across or-terms; each reads back once its names are made distinct.
    differing, rejected = [], []
    for k, t in enumerate(random_terms()):
        try:
            back = term_from_sexpr(term_to_sexpr(t))
        except ValueError as e:
            assert str(e).startswith("duplicate transition name "), (k, e)
            rejected.append(k)
            t = _distinct_transition_names(t)
            back = term_from_sexpr(term_to_sexpr(t))
        if back != t:
            differing.append(k)
    assert not differing, f"{len(differing)} terms differ, first: {differing[:5]}"
    assert len(rejected) == 16


if __name__ == "__main__":
    which = {"simp": simp_golden_digests, "simp-json": simp_json_golden_digests,
             "sexpr": sexpr_golden_digests}
    print(json.dumps(which[sys.argv[1]](), indent=1))
