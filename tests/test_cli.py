"""Tests for the command-line interface: exit codes and output formats."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from scforge.cli import main

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

HIER_SC = """
statechart Nested for C {
    initial state Top {
        entry / v = 0;
        initial state In;
        state Deep;
        In -> Deep : f() / send(1);
    }
    final state Done;
    Deep -> Done : g();
}
"""

DUP_SC = """
statechart Dup for C {
    initial state A;
    state A;
    A -> A : f();
}
"""


NOWHERE_SC = """
statechart Dangling for C {
    initial state A;
    A -> Nowhere : f();
}
"""


@pytest.fixture
def buffer_file(tmp_path):
    p = tmp_path / "buffer.sc"
    p.write_text(BUFFER_SC)
    return str(p)


@pytest.fixture
def hier_file(tmp_path):
    p = tmp_path / "nested.sc"
    p.write_text(HIER_SC)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse -------------------------------------------------------------------

def test_parse_text_round_trips(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "parse", buffer_file)
    assert code == 0
    assert "statechart Buffer for BufferClass" in out
    assert "NonEmpty -> Empty : get() / send(v);" in out


def test_parse_json_and_dot(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "parse", buffer_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["diagram"] == "Buffer"
    code, out, _ = run_cli(capsys, "parse", buffer_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_parse_syntax_error_is_usage(capsys, tmp_path):
    p = tmp_path / "bad.sc"
    p.write_text("statechart Broken {")
    code, _, err = run_cli(capsys, "parse", str(p))
    assert code == 2
    assert "error:" in err


def test_missing_file_is_usage(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent/x.sc")
    assert code == 2
    assert "cannot read" in err


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 2


# -- check -------------------------------------------------------------------

def test_check_clean_chart_exits_zero(capsys, buffer_file):
    code, out, _ = run_cli(capsys, "check", buffer_file)
    assert code == 0
    assert "0 violation(s)" in out


def test_check_duplicate_state_names_exits_one(capsys, tmp_path):
    p = tmp_path / "dup.sc"
    p.write_text(DUP_SC)
    code, out, _ = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "CC12" in out


def test_check_json_lists_violations(capsys, tmp_path):
    p = tmp_path / "dup.sc"
    p.write_text(DUP_SC)
    code, out, _ = run_cli(capsys, "check", str(p), "--format", "json")
    assert code == 1
    codes = {v["code"] for v in json.loads(out) if not v.get("skipped")}
    assert "CC12" in codes


def test_check_with_signature_context(capsys, buffer_file, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({
        "class": "BufferClass",
        "methods": [
            {"name": "put", "arity": 1},
            {"name": "get", "arity": 0},
            {"name": "send", "arity": 1},
        ],
        "attributes": ["v"],
    }))
    code, out, _ = run_cli(capsys, "check", buffer_file, "--ctx", str(sig))
    assert code == 0
    assert "skipped" not in out


# -- transform / simplify ----------------------------------------------------

def test_transform_reaches_flat_simplified(capsys, hier_file):
    code, out, _ = run_cli(capsys, "transform", hier_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["flatAndSimplified"] is True
    assert data["trace"]  # at least one rewrite happened


def test_transform_exhausting_step_bound_exits_three(capsys, hier_file):
    code, _, err = run_cli(capsys, "transform", hier_file, "--max-steps", "1")
    assert code == 3
    assert "bound exceeded" in err


def test_simplify_emits_flat_chart(capsys, hier_file):
    code, out, _ = run_cli(capsys, "simplify", hier_file)
    assert code == 0
    assert "state Top" not in out  # hierarchy gone
    code, out, _ = run_cli(capsys, "simplify", hier_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["diagram"] == "Nested"


# -- run ---------------------------------------------------------------------

def test_run_buffer_put_get(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "put(3), get()"
    )
    assert code == 0
    assert "emitted send(3)" in out
    assert "outcome: step in Empty" in out


def test_run_json_log(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "get()", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["Empty"]["emitted"] == ["send(-1)"]
    assert data["Empty"]["outcome"] == "step"


def test_run_unhandled_trigger_exits_one(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", "unknown()"
    )
    assert code == 1
    assert "chaos" in out


def test_run_events_from_file(capsys, buffer_file, tmp_path):
    ev = tmp_path / "events.txt"
    ev.write_text("put(3)\n# a comment\nget()\n")
    code, out, _ = run_cli(
        capsys, "run", buffer_file, "--events", f"@{ev}"
    )
    assert code == 0
    assert "emitted send(3)" in out


def test_run_events_with_several_arguments(capsys, tmp_path):
    chart = tmp_path / "two.sc"
    chart.write_text(
        "statechart Two for C { initial state A; A -> A : f(x, y) / send(y); }"
    )
    code, out, _ = run_cli(
        capsys, "run", str(chart), "--events", "f(1, 2), f([3, 4], 5)"
    )
    assert code == 0
    assert "emitted send(2), send(5)" in out


def test_run_stopped_by_the_step_bound_exits_three(capsys, buffer_file, tmp_path):
    ev = tmp_path / "events.txt"
    ev.write_text("put(1), get()\n" * 6000)
    code, out, err = run_cli(capsys, "run", buffer_file, "--events", f"@{ev}")
    assert code == 3
    assert out == ""
    assert err == ("bound exceeded: run from Empty consumed 10000 of 12000 events"
                   " in 10000 steps; --max-steps raises the bound\n")
    code, out, _ = run_cli(capsys, "run", buffer_file, "--events", f"@{ev}",
                           "--max-steps", "12000", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["Empty"]["log"]) == 12000


def test_run_bound_counts_only_unconsumed_events(capsys, buffer_file):
    code, _, _ = run_cli(capsys, "run", buffer_file, "--events", "put(1), get()",
                         "--max-steps", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "run", buffer_file, "--events", "put(1), get()",
                           "--max-steps", "1")
    assert code == 3
    assert "consumed 1 of 2 events" in err


@pytest.mark.parametrize("command", [["run"], ["vdb-run", "--domain=-1,3"]])
def test_malformed_event_is_usage(capsys, buffer_file, command):
    code, out, err = run_cli(
        capsys, *command, buffer_file, "--events", "put(x)"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad event 'put(x)'") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["run", "--events", "f()"], ["simplify"], ["transform"], ["vdb-run", "--events", "f()"],
])
def test_ill_formed_chart_is_usage(capsys, tmp_path, command):
    chart = tmp_path / "nowhere.sc"
    chart.write_text(NOWHERE_SC)
    code, out, err = run_cli(capsys, command[0], str(chart), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {chart}: ill-formed chart (CC4)\n"


def test_run_unbound_variable_is_usage(capsys, tmp_path):
    chart = tmp_path / "unbound.sc"
    chart.write_text("statechart U for C { initial state A; state B; A -> B : f() / send(v); }")
    code, out, err = run_cli(capsys, "run", str(chart), "--events", "f()")
    assert code == 2
    assert out == ""
    assert err == "error: unbound variable v\n"


def test_run_bad_init_is_usage(capsys, buffer_file):
    code, _, err = run_cli(
        capsys, "run", buffer_file, "--events", "get()", "--init", "NonEmpty"
    )
    assert code == 2


def test_run_bad_scheduler_is_usage(capsys, buffer_file):
    code, _, _ = run_cli(
        capsys, "run", buffer_file, "--events", "get()",
        "--scheduler", "mystery",
    )
    assert code == 2


# -- vdb-run -----------------------------------------------------------------

def test_vdb_run_shows_the_buffer_run(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "put(3), get()",
        "--domain=-1,3", "--max-steps", "2",
    )
    assert code == 0
    assert "{Buffer, Empty} | put(3), get()" in out
    assert "{Buffer, NonEmpty(3)} | get()" in out
    assert "{Buffer, Empty} | send(3)" in out


def test_vdb_run_json(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "put(3), get()",
        "--domain=-1,3", "--max-steps", "2", "--format", "json",
    )
    assert code == 0
    json.loads(out)


def test_vdb_run_data_chart_without_domain_is_usage(capsys, buffer_file):
    code, _, err = run_cli(
        capsys, "vdb-run", buffer_file, "--events", "get()"
    )
    assert code == 2


@pytest.mark.parametrize("action, domain, name", [
    ("f() / send(v)", [], "v"),
    ("f(x) / send(w)", ["--domain=0,1"], "w"),
])
def test_vdb_run_read_of_unassigned_variable_is_usage(capsys, tmp_path, action, domain, name):
    chart = tmp_path / "unbound.sc"
    chart.write_text(f"statechart D for C {{ initial state A; A -> A : {action}; }}")
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f()", *domain)
    assert code == 2
    assert out == ""
    assert err == (f"error: {chart}: transition A->A reads {name}, which is neither "
                   "the data variable nor the event parameter\n")


# Every state has two f() transitions with different outputs: 2**L runs.
BRANCH_SC = "\n".join(
    ["statechart Branch for C <<prio:inner, completion:ignore>> {"]
    + [f"    {'initial ' if i == 0 else ''}state B{i};" for i in range(4)]
    + [line for i in range(4) for line in (f"    B{i} -> B{(i + 1) % 4} : f() / out1(1);",
                                           f"    B{i} -> B{(i + 2) % 4} : f() / out2(2);",
                                           f"    B{i} -> B{(i + 3) % 4} : g();")]
    + ["}"]) + "\n"


@pytest.mark.parametrize("events, text_digest, json_digest", [
    ("f(), g(), f(), f()",
     "422a570d12fd5b825ac58579ab86c527ad15ee90667080a1344464da912c735a",
     "028279c3209d582b96bf56ed5c1d5a7a25c6f8b990839017c8dda1209c2255e3"),
    ("f(), f(), g(), f(), f(), f()",
     "001ad3cbfe846595dd705be5fe68917b220760ad07749ba72ab1e344652f4d70",
     "a12aaa792b3dc5ab135842944ed2421d12945de07693c3d522314a1a216df4ec"),
])
def test_vdb_run_outputs_on_a_branching_chart(capsys, tmp_path, events, text_digest, json_digest):
    """Text runs are ordered by length and then repr, JSON runs by repr; the
    digests pin both outputs byte for byte."""
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events)
    assert code == 0 and out.count("run ") == 2 ** events.count("f")
    assert hashlib.sha256(out.encode()).hexdigest() == text_digest
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events, "--format", "json")
    assert code == 0 and len(json.loads(out)) == 2 ** events.count("f")
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest


@pytest.mark.parametrize("variable, value, message", [
    ("SCFORGE_MAX_NODES", "5", "more than 5 distinct nodes"),
    ("SCFORGE_MAX_RUNS", "7", "more than 7 runs"),
])
def test_vdb_run_bounds_exit_three_naming_their_variable(capsys, tmp_path, monkeypatch,
                                                         variable, value, message):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv(variable, value)
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f(), f(), f()")
    assert code == 3
    assert out == ""
    assert err == f"bound exceeded: {message}; {variable} raises the bound\n"
    monkeypatch.setenv(variable, "100")
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", "f(), f(), f()")
    assert code == 0 and out.count("run ") == 8


def test_vdb_run_run_bound_from_the_environment(capsys, tmp_path, monkeypatch):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv("SCFORGE_MAX_RUNS", "4")
    events = "f(), f(), g(), f(), f()"
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", events)
    assert (code, out) == (3, "")
    assert err == "bound exceeded: more than 4 runs; SCFORGE_MAX_RUNS raises the bound\n"
    code, out, _ = run_cli(capsys, "vdb-run", str(chart), "--events", events, "--max-steps", "2")
    assert code == 0 and out.count("run ") == 4


@pytest.mark.parametrize("variable", ["SCFORGE_MAX_NODES", "SCFORGE_MAX_RUNS"])
@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-5", "", "2.5"])
def test_vdb_run_rejects_a_bound_that_is_no_positive_integer(capsys, tmp_path, monkeypatch,
                                                             variable, value):
    chart = tmp_path / "branch.sc"
    chart.write_text(BRANCH_SC)
    monkeypatch.setenv(variable, value)
    code, out, err = run_cli(capsys, "vdb-run", str(chart), "--events", "f()")
    assert (code, out) == (2, "")
    assert err == f"error: {variable} must be a positive integer, not {value!r}\n"


@pytest.mark.parametrize("text, message", [
    ("(basic (x) () ())", "expected an atom, not the list ['x']"),
    ("(or A ((basic B () ())) 5 () () ())", "'A': active index 5 out of range"),
    ("(or A ((basic B () ()) (basic C () ())) 1 ((trans t 1 () (f) () () 7 none)) () ())",
     "'t': index 7 out of range"),
    ("(or A ((basic B () ()) (basic C () ())) 1 ((trans t 1 () (f) () (Zed) 2 none)) () ())",
     "'t': target determinator 'Zed' is not in its target"),
    ("(or A ((basic B () ())) 1 ((trans t 1 () (f) () () 1 sideways)) () ())",
     "'t': bad history type 'sideways'"),
    ("(or A ((trans t 1 () (f) () () 1 none)) 1 () () ())",
     "expected basic/and/or, not ['trans', 't', '1', [], ['f'], [], [], '1', 'none']"),
    ("(or A ((basic B () ())) 1 ((basic C () ())) () ())",
     "expected trans, not ['basic', 'C', [], []]"),
    ("(or A ((basic B () ())) x () () ())", "expected an integer, not 'x'"),
    ("(basic A (()) ())", "expected a symbol, not ()"),
    ("(basic A ((f x)) ())", "expected an integer, not 'x'"),
    ("(basic A () () ())", "basic takes 3 fields, not 4"),
    ("(or A (basic B () ()) 1 () () ())", "expected a list, not 'basic'"),
    ("()", "expected basic/and/or, not []"),
])
def test_vdb_run_rejects_a_term_file_exploration_cannot_run(capsys, tmp_path, text, message):
    p = tmp_path / "term.sexpr"
    p.write_text(text)
    code, out, err = run_cli(capsys, "vdb-run", str(p), "--events", "f()")
    assert (code, out) == (2, "")
    assert err == f"error: {p}: {message}\n"


def test_vdb_run_accepts_term_sexpr(capsys, tmp_path):
    p = tmp_path / "term.sexpr"
    p.write_text("(basic Idle () ())")
    code, out, _ = run_cli(
        capsys, "vdb-run", str(p), "--events", "f()", "--max-steps", "1"
    )
    assert code == 0
    assert "{Idle}" in out


# -- conform -----------------------------------------------------------------

def test_conform_ok_fragment(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_ok_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 0
    assert out.count("pass") == 5


def test_conform_double_send_fails_condition_five(capsys, buffer_file):
    code, out, _ = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_double_send_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 1
    assert "condition 5: FAIL" in out
    assert "witness" in out


def test_conform_incomplete_projection_is_usage(capsys, buffer_file, tmp_path):
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({"Empty": ["s6"]}))
    code, _, err = run_cli(
        capsys, "conform", buffer_file,
        str(FIXTURES / "fig_ok_fragment.json"), str(proj),
    )
    assert code == 2


def test_conform_unbound_variable_is_usage(capsys, tmp_path):
    chart = tmp_path / "unbound.sc"
    chart.write_text(BUFFER_SC.replace("send(v)", "send(w)"))
    code, out, err = run_cli(
        capsys, "conform", str(chart),
        str(FIXTURES / "fig_ok_fragment.json"),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: unbound variable w\n"


def test_conform_fragment_without_main_object_is_usage(capsys, buffer_file, tmp_path):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    frag["main"] = "ghost"
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(frag))
    code, _, err = run_cli(
        capsys, "conform", buffer_file, str(path),
        str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert "no main object 'ghost'" in err


@pytest.mark.parametrize("edit, where", [
    (lambda o, f: o.update(buffer=["get()", "put(x)"]), "node 's1', object 'o', buffer"),
    (lambda o, f: o.update(threads={"th1": ["put(x)"]}), "node 's1', object 'o', thread 'th1'"),
    (lambda o, f: f["edges"][0].update(M=["put(x)"]), "edge 's1' -> 's2', M"),
])
def test_conform_malformed_fragment_message_names_its_place(capsys, buffer_file, tmp_path,
                                                            edit, where):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    edit(frag["nodes"][0]["objects"]["o"], frag)
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(frag))
    code, out, err = run_cli(
        capsys, "conform", buffer_file, str(path), str(FIXTURES / "buffer_projection.json"),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {where}: malformed message 'put(x)': 1:5: expected value\n"


def test_conform_projection_naming_no_chart_state_is_usage(capsys, buffer_file, tmp_path):
    proj = json.loads((FIXTURES / "buffer_projection.json").read_text())
    proj["Ghost"] = ["s2"]
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(proj))
    code, out, err = run_cli(
        capsys, "conform", buffer_file, str(FIXTURES / "fig_ok_fragment.json"), str(path),
    )
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: Ghost is neither a chart state nor S(value) "
                   "for a chart state S\n")


def _fragment_with(edit):
    frag = json.loads((FIXTURES / "fig_ok_fragment.json").read_text())
    edit(frag)
    return frag


@pytest.mark.parametrize("command, bad", [
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["edges"][0].update(M=5)), id="edge-label-not-a-list"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["nodes"][0]["objects"]["o"].update(vars=3)), id="vars-not-an-object"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f.update(nodes=5)), id="nodes-not-a-list"),
    pytest.param("conform-fragment", _fragment_with(
        lambda f: f["nodes"][0]["objects"]["o"].update(buffer=["put(x)"])),
        id="buffer-message-malformed"),
    pytest.param("conform-projection", ["s1"], id="projection-a-list"),
    pytest.param("conform-projection", {"Empty": 3, "NonEmpty": ["s1"]},
                 id="projection-to-a-number"),
    pytest.param("check-ctx", {"class": "C", "methods": [3]}, id="method-a-number"),
    pytest.param("check-ctx", [1], id="signature-a-list"),
])
def test_malformed_json_input_is_usage(capsys, buffer_file, tmp_path, command, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    argv = {
        "conform-fragment": ["conform", buffer_file, str(path),
                             str(FIXTURES / "buffer_projection.json")],
        "conform-projection": ["conform", buffer_file,
                               str(FIXTURES / "fig_ok_fragment.json"), str(path)],
        "check-ctx": ["check", buffer_file, "--ctx", str(path)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# -- gen ---------------------------------------------------------------------

def test_gen_output_parses_and_checks_clean(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--seed", "7")
    assert code == 0
    p = tmp_path / "gen.sc"
    p.write_text(out)
    assert run_cli(capsys, "check", str(p))[0] == 0


def test_gen_guard_free_flag(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "1", "--guard-free")
    assert code == 0
    assert "prio:inner" in out and "completion:ignore" in out


# -- stability and entry point ----------------------------------------------

def test_outputs_are_byte_stable(capsys, hier_file):
    outs = set()
    for _ in range(3):
        outs.add(run_cli(capsys, "transform", hier_file, "--format", "json")[1])
        outs.add(run_cli(capsys, "transform", hier_file)[1])
    assert len(outs) == 2


def test_module_entry_point(buffer_file):
    proc = subprocess.run(
        [sys.executable, "-m", "scforge.cli", "parse", buffer_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "statechart Buffer" in proc.stdout


def test_closed_stdout_ends_quietly(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "scforge.cli", "gen", "--guard-free", "--seed", "36"],
        capture_output=True, text=True, check=True,
    )
    chart = tmp_path / "gf.sc"
    chart.write_text(gen.stdout)
    # about 950 KB of runs, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "scforge.cli", "vdb-run", str(chart),
         "--events", ", ".join(["f()"] * 10)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"run 1:\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("argv, message", [
    (["gen", "--states", "1"], "--states must be at least 3, not 1"),
    (["gen", "--states", "2"], "--states must be at least 3, not 2"),
    (["gen", "--states", "1", "--guard-free"], "--states must be at least 2, not 1"),
    (["conform", "{chart}", "f.json", "p.json", "--bound", "-2"],
     "--bound must be at least 0, not -2"),
    (["transform", "{chart}", "--max-steps", "-1"], "--max-steps must be at least 0, not -1"),
    (["run", "{chart}", "--events", "put(1)", "--max-steps", "-1"],
     "--max-steps must be at least 0, not -1"),
    (["vdb-run", "{chart}", "--events", "get()", "--max-steps", "-1"],
     "--max-steps must be at least 0, not -1"),
])
def test_out_of_range_numbers_are_one_line_usage_errors(capsys, buffer_file, argv, message):
    code, out, err = run_cli(capsys, *(a.format(chart=buffer_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_smallest_numbers_are_accepted(capsys, buffer_file):
    assert run_cli(capsys, "gen", "--states", "3")[0] == 0
    assert run_cli(capsys, "gen", "--states", "2", "--guard-free")[0] == 0
    assert run_cli(capsys, "vdb-run", buffer_file, "--events", "get()", "--max-steps", "0",
                   "--domain", "0")[0] == 0
    code, out, _ = run_cli(capsys, "conform", buffer_file,
                           str(FIXTURES / "fig_ok_fragment.json"),
                           str(FIXTURES / "buffer_projection.json"), "--bound", "0")
    assert code == 1 and "not realized within 0 steps" in out
