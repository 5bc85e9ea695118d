"""Tests for the seeded chart generators."""

from __future__ import annotations

import pytest

from scforge.gen import gen_chart, gen_guard_free, initial_leaf
from scforge.transform import flat_and_simplified, to_simplified, transform_fixpoint
from scforge.wellformed import check_all

SEEDS = range(40)


def violations(sc):
    return [v for v in check_all(sc) if not v.skipped]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_charts_are_well_formed(seed):
    assert violations(gen_chart(seed)) == []


def test_generation_is_deterministic_per_seed():
    for seed in SEEDS:
        assert gen_chart(seed) == gen_chart(seed)
        assert gen_guard_free(seed) == gen_guard_free(seed)


def test_distinct_seeds_vary():
    charts = {gen_chart(seed) for seed in SEEDS}
    assert len(charts) == len(set(SEEDS))


def test_size_and_depth_bounds():
    for seed in SEEDS:
        sc = gen_chart(seed, max_states=8, max_depth=3)
        assert len(sc.states) <= 8
        for s in sc.states:
            depth, cur = 0, sc.index.parent.get(s.name)
            while cur is not None:
                depth, cur = depth + 1, sc.index.parent.get(cur)
            assert depth < 3


def test_every_sibling_group_has_an_initial_state():
    for seed in SEEDS:
        sc = gen_chart(seed)
        groups: dict = {}
        for s in sc.states:
            groups.setdefault(sc.index.parent.get(s.name), []).append(s)
        for group in groups.values():
            assert sum("initial" in s.modifiers for s in group) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_guard_free_charts_have_the_restricted_shape(seed):
    sc = gen_guard_free(seed)
    assert violations(sc) == []
    assert sc.stereos == {"prio:inner", "completion:ignore"}
    for s in sc.states:
        assert s.entry is None and s.exit is None and s.do is None
        assert not s.internT and s.inv is None
    for t in sc.trans:
        assert t.pre is None and t.prio is None
        assert t.call.args == ()
        assert sc.index.parent.get(t.src) == sc.index.parent.get(t.trg)
        if t.act is not None:
            assert t.act.post is None


@pytest.mark.parametrize("seed", range(20))
def test_guard_free_charts_flatten(seed):
    flat, _ = transform_fixpoint(gen_guard_free(seed))
    assert flat_and_simplified(flat) and not flat.sub
    to_simplified(flat)


def test_initial_leaf_descends_the_initial_chain():
    for seed in SEEDS:
        sc = gen_chart(seed)
        leaf = initial_leaf(sc)
        s = sc.state(leaf)
        assert "initial" in s.modifiers
        assert not any(
            "initial" in st.modifiers and sc.index.parent.get(st.name) == leaf
            for st in sc.states
        )
