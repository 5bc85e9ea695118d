"""Known defects, each pinned by the outcome it should have, as a strict
expected failure. A change that mends one makes its test pass, which fails
the suite under `strict=True` until that change removes the mark; so a fix
shows at once, and a mended defect cannot return unseen. A mark is never
added to hide a new failure. Each reason names the ROADMAP item that holds
the defect's evidence and its fix."""

from __future__ import annotations

import json

import pytest

from scforge.cli import main


def known_defect(item: int, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


def run_cli(capsys, tmp_path, name: str, text: str, *argv: str):
    path = tmp_path / name
    path.write_text(text)
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, tmp_path, text: str, events: str, *argv: str) -> dict:
    code, out, err = run_cli(capsys, tmp_path, "chart.sc", text, "run", "--events", events,
                             "--format", "json", *argv)
    assert (code, err) == (0, "")
    return json.loads(out)


# Found defect 1: the composite state's entry and exit actions are dropped.
POWER_SC = """statechart Power for C {
    initial state Off;
    state On {
        entry / started();
        exit / stopped();
        initial state Idle;
        state Busy;
        Idle -> Busy : job() / working();
    }
    Off -> On : power();
    On -> Off : power();
}
"""

# Found defect 2: an entry action on an initial substate is never moved.
INIT_ENTRY_SC = """statechart InitEntry for C <<completion:ignore>> {
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

# Charts K and K2: the variables of a list pattern stay unbound.
K_SC = """statechart K for C <<completion:ignore>> {
    initial state A;
    state B;
    A -> B : [h == 1] f(h:t) / o(t);
}
"""

K2_SC = """statechart K2 for C {
    initial state A;
    state B;
    <<prio=2>> A -> B : f(h:t) / o(t);
    <<prio=1>> A -> A : f(x) / p(x);
}
"""


@known_defect(1, "rules 18 and 21 drop a composite state's entry and exit actions")
def test_flat_chart_keeps_a_composite_states_entry_and_exit_actions(capsys, tmp_path):
    [(start, result)] = run_json(capsys, tmp_path, POWER_SC, "power(), job(), power()",
                                 "--init", "Off").items()
    assert (start, result["outcome"], result["state"]) == ("Off", "step", "Off")
    assert result["emitted"] == ["started()", "working()", "stopped()"]


@known_defect(1, "rule 19 never moves an initial substate's entry action")
def test_an_initial_substates_entry_action_flattens(capsys, tmp_path):
    code, out, err = run_cli(capsys, tmp_path, "entry.sc", INIT_ENTRY_SC, "simplify")
    assert (code, err) == (0, "")
    assert "idle()" in out


@known_defect(9, "list-pattern variables stay unbound in the completion guard")
def test_completion_ignores_a_list_that_fails_the_guard(capsys, tmp_path):
    [(start, result)] = run_json(capsys, tmp_path, K_SC, "f([2, 5]), f([1, 7])").items()
    assert (start, result["outcome"], result["state"]) == ("A", "step", "B")
    assert result["emitted"] == ["o([7])"]


@known_defect(9, "list-pattern variables stay unbound under priorities")
def test_a_prioritised_list_pattern_binds_its_tail(capsys, tmp_path):
    [(start, result)] = run_json(capsys, tmp_path, K2_SC, "f([2, 5])").items()
    assert (start, result["outcome"], result["state"]) == ("A", "step", "B")
    assert result["emitted"] == ["o([5])"]


@known_defect(20, "vdb-run renders each node's term through the recursive repr")
def test_vdb_run_explores_a_450_level_or_chain(capsys, tmp_path):
    text = "(basic X () ())"
    for i in range(450):
        text = f"(or L{i} ({text}) 1 () () ())"
    code, out, err = run_cli(capsys, tmp_path, "chain.sexpr", text, "vdb-run", "--events", "f()")
    assert (code, err) == (0, "") and out
