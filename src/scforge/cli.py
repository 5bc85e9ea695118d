"""Command-line front door: parse, check, transform, simplify, run, vdb-run,
conform, and gen subcommands wired over the library modules.

Exit codes: 0 success, 1 violations or failed checks, 2 usage or input
errors (an ill-formed chart, or an action that cannot be evaluated on the
given events, among them), 3 an internal exploration bound was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import conform as conform_mod
from . import flatinterp, vdb
from .actions import ActionError, UnboundVariable
from .parse import LexError, ReservedIdentifier, StatechartSyntaxError, parse
from .printer import print_chart, print_simp, to_dot, to_json
from .transform import (
    IllFormedInput,
    NonTermination,
    NotSimplifiable,
    flat_and_simplified,
    to_simplified,
    transform_fixpoint,
)
from .wellformed import SignatureContext, check_all

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


class UsageError(Exception):
    pass


class BoundError(Exception):
    pass


SYNTAX_ERRORS = (LexError, StatechartSyntaxError, ReservedIdentifier)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")


def _parse_chart(path: str, text: Optional[str] = None):
    """The chart in `path`, whose `text` the caller may have read already."""
    try:
        return parse(_read(path) if text is None else text)
    except SYNTAX_ERRORS as e:
        raise UsageError(f"{path}: {e}")


def _events(spec: str):
    """Messages from a comma/newline-separated string, or from a file
    when the argument starts with `@`."""
    text = _read(spec[1:]) if spec.startswith("@") else spec
    parts = [
        p.strip()
        for line in text.splitlines() or [text]
        if not line.lstrip().startswith("#")
        for p in _split_top_level(line)
    ]
    events = []
    for p in filter(None, parts):
        try:
            events.append(flatinterp.parse_message(p))
        except SYNTAX_ERRORS as e:
            raise UsageError(f"bad event {p!r}: {e}")
    return events


def _split_top_level(line: str) -> list:
    """Split at the commas outside parentheses and brackets."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(line):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(line[start:i])
            start = i + 1
    return parts + [line[start:]]


def _checked(sc, path: str):
    """sc, unless the CC checks find something wrong with it."""
    codes = list(dict.fromkeys(v.code for v in check_all(sc) if not v.skipped))
    if codes:
        raise IllFormedInput(f"{path}: ill-formed chart ({', '.join(codes)})")
    return sc


def _action_error(e: ActionError) -> UsageError:
    """An action that cannot be evaluated on the given input."""
    return UsageError(f"unbound variable {e}" if isinstance(e, UnboundVariable) else str(e))


def _flatten(args):
    """Parse and check `args.chart`, then flatten it."""
    sc = _checked(_parse_chart(args.chart), args.chart)
    try:
        return transform_fixpoint(sc, strategy=args.strategy, max_steps=args.max_steps)
    except NonTermination as e:
        raise BoundError(str(e))


def _simplified(args):
    flat, _ = _flatten(args)
    try:
        return to_simplified(flat)
    except NotSimplifiable as e:
        raise UsageError(f"chart does not flatten: {e}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args) -> int:
    sc = _parse_chart(args.chart)
    if args.format == "json":
        print(to_json(sc))
    elif args.format == "dot":
        print(to_dot(sc))
    else:
        print(print_chart(sc))
    return EXIT_OK


def cmd_check(args) -> int:
    sc = _parse_chart(args.chart)
    ctx = None
    if args.ctx:
        try:
            ctx = SignatureContext.from_json(_read(args.ctx))
        except (ValueError, KeyError) as e:
            raise UsageError(f"{args.ctx}: {e}")
    violations = check_all(sc, ctx)
    findings = [v for v in violations if not v.skipped]
    if args.format == "json":
        print(json.dumps([json.loads(v.to_json()) for v in violations], indent=2))
    else:
        for v in violations:
            mark = "skipped" if v.skipped else "violation"
            print(f"{mark} {v.code} {v.subject}: {v.message}")
        print(f"{len(findings)} violation(s)")
    return EXIT_VIOLATIONS if findings else EXIT_OK


def cmd_transform(args) -> int:
    flat, trace = _flatten(args)
    if args.format == "json":
        print(json.dumps({
            "chart": json.loads(to_json(flat)),
            "flatAndSimplified": flat_and_simplified(flat) and not flat.sub,
            "trace": [
                {"step": i + 1, "rule": t.rule, "name": t.name, "binding": t.binding}
                for i, t in enumerate(trace)
            ],
        }, indent=2))
    else:
        for i, t in enumerate(trace):
            print(f"# step {i + 1}: rule {t.rule} {t.name} {t.binding}")
        print(print_chart(flat))
    return EXIT_OK


def cmd_simplify(args) -> int:
    flat, _ = _flatten(args)
    try:
        simp = to_simplified(flat)
    except NotSimplifiable as e:
        print(f"not simplifiable: {e}", file=sys.stderr)
        return EXIT_VIOLATIONS
    print(to_json(simp) if args.format == "json" else print_simp(simp))
    return EXIT_OK


def cmd_run(args) -> int:
    simp = _simplified(args)
    try:
        scheduler = flatinterp.scheduler_from_spec(args.scheduler)
    except ValueError as e:
        raise UsageError(str(e))
    events = _events(args.events)
    inits = [args.init] if args.init else [s.name for s in simp.initial_states()]
    if not inits:
        raise UsageError("chart has no initial state")
    ok = True
    out = {}
    for init in inits:
        try:
            result = flatinterp.run(
                simp, init, events, scheduler, args.match, args.max_steps
            )
        except flatinterp.BadInitialState:
            raise UsageError(f"{init} is not an initial state")
        except ActionError as e:
            raise _action_error(e)
        if result.quiescent and result.final.pending():
            raise BoundError(
                f"run from {init} consumed {len(result.steps)} of {len(events)} events"
                f" in {args.max_steps} steps; --max-steps raises the bound")
        kind = type(result.outcome).__name__.lower()
        ok = ok and result.quiescent
        out[init] = {
            "outcome": kind,
            "state": result.final.current,
            "emitted": [flatinterp.format_message(m) for m in result.emissions],
            "log": flatinterp.run_log_lines(result),
        }
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for init, r in out.items():
            print(f"from {init}:")
            for line in r["log"]:
                print(
                    f"  step {line['step']}: {line['state']}"
                    f"  consumed={line['consumed']} emitted={line['emitted']}"
                    f" store={line['storeDiff']}"
                )
            print(f"  outcome: {r['outcome']} in {r['state']},"
                  f" emitted {', '.join(r['emitted']) or '(nothing)'}")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _load_term(path: str, domain):
    text = _read(path)
    if text.lstrip().startswith("statechart"):
        sc = _checked(_parse_chart(path, text), path)
        try:
            return vdb.encode_guard_free(sc, domain=domain)
        except (vdb.NotGuardFree, vdb.UnboundedValueDomain) as e:
            raise UsageError(f"{path}: {e}")
    try:
        return vdb.term_from_sexpr(text)
    except ValueError as e:
        raise UsageError(f"{path}: {e}")


# The environment variables that set `vdb.run_bounded`'s bounds, by keyword.
VDB_BOUNDS = {"max_nodes": "SCFORGE_MAX_NODES", "max_runs": "SCFORGE_MAX_RUNS"}


def _env_bounds() -> dict:
    """The bounds set in the environment; each must be a positive integer."""
    bounds = {}
    for key, variable in VDB_BOUNDS.items():
        text = os.environ.get(variable)
        if text is None:
            continue
        if not text.strip().isdecimal() or int(text) < 1:
            raise UsageError(f"{variable} must be a positive integer, not {text!r}")
        bounds[key] = int(text)
    return bounds


def cmd_vdb_run(args) -> int:
    bounds = _env_bounds()
    domain = None
    if args.domain:
        try:
            domain = tuple(int(x) for x in args.domain.split(","))
        except ValueError:
            raise UsageError(f"bad domain {args.domain!r}: expected integers")
    term = _load_term(args.input, domain)
    queue = tuple(
        vdb.Sym(m.name, tuple(m.args)) for m in _events(args.events)
    )
    try:
        runs = vdb.run_bounded(vdb.KripkeNode(term, queue), args.max_steps, **bounds)
    except vdb.StateSpaceBound as e:
        raise BoundError(f"{e}; {e.variable} raises the bound")
    if args.format == "json":
        print(vdb.runs_to_json(runs))
    else:
        for i, r in enumerate(vdb.sorted_runs(runs, by_length=True)):
            print(f"run {i + 1}:")
            for node in r:
                conf = ", ".join(sorted(vdb.conf_of(node.term)))
                q = ", ".join(str(s) for s in node.queue) or "(empty)"
                print(f"  {{{conf}}} | {q}")
    return EXIT_OK


def cmd_conform(args) -> int:
    simp = _simplified(args)
    try:
        frag = conform_mod.SystemFragment.from_json(_read(args.fragment))
    except (ValueError, KeyError) as e:
        raise UsageError(f"{args.fragment}: {e}")
    try:
        proj = conform_mod.load_projection(_read(args.projection))
    except ValueError as e:
        raise UsageError(f"{args.projection}: {e}")
    try:
        report = conform_mod.check_system_conformance(
            simp, frag, proj, bound=args.bound
        )
    except conform_mod.IncompleteProjection as e:
        raise UsageError(f"{args.projection}: {e}")
    except ActionError as e:
        raise _action_error(e)
    if args.format == "json":
        print(conform_mod.report_to_json(report))
    else:
        for entry in report:
            status = "pass" if entry["pass"] else "FAIL"
            print(f"condition {entry['condition']}: {status}")
            for w in entry["witnesses"]:
                print(f"  witness: {w}")
    return EXIT_OK if conform_mod.conformance_passed(report) else EXIT_VIOLATIONS


def cmd_gen(args) -> int:
    from .gen import gen_chart, gen_guard_free

    _at_least("--states", args.states, 2 if args.guard_free else 3)
    if args.guard_free:
        sc = gen_guard_free(args.seed, max_states=args.states)
    else:
        sc = gen_chart(args.seed, max_states=args.states, max_depth=args.depth)
    print(to_json(sc) if args.format == "json" else print_chart(sc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring

def _at_least(flag: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, not {value}")
    return value


def _int_at_least(flag: str, minimum: int):
    """argparse type: an integer of at least `minimum`. A smaller one is a
    one-line usage error; a non-integer stays argparse's own error."""
    return lambda text: _at_least(flag, int(text), minimum)


def _add_format(p, choices=("text", "json")):
    p.add_argument("--format", choices=choices, default="text",
                   help="output format (default text)")


def _add_transform_flags(p, max_steps_help="rewrite step bound (default 10000)"):
    p.add_argument("--strategy", default="paper",
                   help="rule strategy: paper | random:<seed> (default paper)")
    p.add_argument("--max-steps", type=_int_at_least("--max-steps", 0), default=10000,
                   help=max_steps_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scforge",
        description="Statechart toolkit: parse, check, flatten, run, and "
        "compare charts against system-model fragments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a chart and dump it")
    p.add_argument("chart")
    _add_format(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="run static well-formedness checks")
    p.add_argument("chart")
    p.add_argument("--ctx", help="class signature JSON for context checks")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="flatten a chart to a fixpoint")
    p.add_argument("chart")
    _add_transform_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("simplify", help="flatten and emit the simplified chart")
    p.add_argument("chart")
    _add_transform_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("run", help="flatten a chart and run an event sequence")
    p.add_argument("chart")
    p.add_argument("--events", required=True,
                   help="comma-separated messages, or @file")
    p.add_argument("--init", help="start state (default: every initial state)")
    p.add_argument("--scheduler", default="lex",
                   help="choice scheduler: lex | rand:<seed> (default lex)")
    p.add_argument("--match", choices=("fifo", "anywhere"), default="fifo",
                   help="buffer matching discipline (default fifo)")
    _add_transform_flags(p, "bound on rewrite steps, and on the events a run consumes;"
                         " a run that stops at it with events left exits 3 (default 10000)")
    _add_format(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("vdb-run", help="explore term-level runs of a chart "
                       "or an s-expression term")
    p.add_argument("input", help=".sc chart or term s-expression file")
    p.add_argument("--events", required=True,
                   help="comma-separated messages, or @file")
    p.add_argument("--max-steps", type=_int_at_least("--max-steps", 0), default=100,
                   help="maximum run length (default 100)")
    p.add_argument("--domain",
                   help="comma-separated integer value domain for data charts")
    _add_format(p)
    p.set_defaults(func=cmd_vdb_run)

    p = sub.add_parser("conform", help="check a system-model fragment against "
                       "a chart")
    p.add_argument("chart")
    p.add_argument("fragment", help="fragment JSON file")
    p.add_argument("projection", help="projection JSON file")
    p.add_argument("--bound", type=_int_at_least("--bound", 0), default=None,
                   help="microstep search bound (default: node count)")
    _add_transform_flags(p)
    _add_format(p)
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser("gen", help="generate a random well-formed chart")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=8, help="state bound")
    p.add_argument("--depth", type=int, default=3, help="nesting bound")
    p.add_argument("--guard-free", action="store_true",
                   help="restricted guard-free shape")
    _add_format(p)
    p.set_defaults(func=cmd_gen)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (UsageError, IllFormedInput) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BoundError as e:
        print(f"bound exceeded: {e}", file=sys.stderr)
        return EXIT_BOUND
    except BrokenPipeError:
        # the reader closed stdout early: end quietly, and point stdout at
        # devnull so that the interpreter's final flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
