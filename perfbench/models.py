"""Independent references for the `long-runs` ops.

Each reference produces the per-initial-state result that `scforge run
--format json` prints: outcome, final state, emissions and the step log.
The Buffer and Pump models are written by hand from the charts' meaning and
use nothing from scforge. `reference_run` re-states the flat
run-to-completion semantics directly (one store dict, one buffer position);
it shares only the action-language evaluator with the program.
"""

from __future__ import annotations


def value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(value_text(x) for x in v) + "]"
    return str(v)


def msg_text(name: str, args=(), exception: bool = False) -> str:
    return ("throw " if exception else "") + f"{name}(" + ", ".join(
        value_text(a) for a in args) + ")"


def json_value(v):
    return [json_value(x) for x in v] if isinstance(v, tuple) else v


class _Log:
    """Accumulates the run result in the shape the CLI prints."""

    def __init__(self, state):
        self.state = state
        self.store: dict = {}
        self.lines: list = []
        self.emitted: list = []

    def step(self, consumed: str, target: str, sends=(), assign=None):
        diff = {}
        for k, v in sorted((assign or {}).items()):
            if k not in self.store or self.store[k] != v:
                diff[k] = json_value(v)
            self.store[k] = v
        self.state = target
        self.emitted += sends
        self.lines.append({"step": len(self.lines) + 1, "state": target,
                           "consumed": consumed, "emitted": list(sends),
                           "storeDiff": diff})

    def result(self, outcome: str) -> dict:
        return {"outcome": outcome, "state": self.state,
                "emitted": list(self.emitted), "log": self.lines}


def buffer_model(events) -> dict:
    """Buffer: put(x) stores x; get() emits the stored value, or -1 when empty."""
    log = _Log("Empty")
    for name, args in events:
        text = msg_text(name, args)
        if name == "put":
            log.step(text, "NonEmpty", assign={"v": args[0]})
        elif log.state == "NonEmpty":
            log.step(text, "Empty", [msg_text("send", (log.store["v"],))])
        else:
            log.step(text, "Empty", [msg_text("send", (-1,))])
    return {"Empty": log.result("step")}


def pump_model(events) -> dict:
    """Pump (see workloads.PUMP_SC): power() toggles Off/On and resets the job
    total n; in On, a positive job(x) adds x and makes the pump Busy, done()
    returns it to Idle. Leaving Idle sends leaving(n), leaving Busy free(n),
    leaving On stopped(n), entering Busy busy(n). Events a state does not
    handle are consumed without effect (completion:ignore)."""
    log = _Log("Off")
    for name, args in events:
        text = msg_text(name, args)
        state = log.state
        n = log.store.get("n")
        leave = [msg_text("leaving" if state == "Idle" else "free", (n,))]
        if name == "power" and state == "Off":
            log.step(text, "Idle", [msg_text("started")], {"n": 0})
        elif name == "power":
            log.step(text, "Off", leave + [msg_text("stopped", (n,))])
        elif name == "job" and state == "Idle" and args[0] > 0:
            total = n + args[0]
            log.step(text, "Busy", leave + [msg_text("busy", (total,))], {"n": total})
        elif name == "job" and state == "Idle":
            log.step(text, "Idle", leave + [msg_text("rejected", args)])
        elif name == "job" and state == "Busy":
            log.step(text, "Busy", leave + [msg_text("queued", args), msg_text("busy", (n,))])
        elif name == "done" and state == "Busy":
            log.step(text, "Idle", leave + [msg_text("finished", (n,))])
        else:
            log.step(text, state)
    return {"Off": log.result("step")}


class Undefined(Exception):
    """The run reads a variable that was never assigned: the chart's
    behaviour is not defined for this input, so no answer can be checked."""


def _choice_key(t, m, v):
    # the documented lexicographic scheduler order
    return (t.src, t.trg, t.call.name, repr(t.pre), repr(t.act), repr(m),
            repr(sorted(v.items())))


MAX_STEPS = 10000  # the default step bound of `scforge run`


def reference_run(simp, init, msgs) -> dict:
    """The flat run-to-completion semantics, FIFO matching, lexicographic
    choice, for one initial state of a flat chart."""
    from scforge.actions import (TIMEOUT, TIMER_FLAG, ActionConditionViolated,
                                 UnboundVariable, eval_cond, exec_stmt, match_call)

    def holds(cond, store, v, unbound):
        try:
            return eval_cond(cond, store, v)
        except UnboundVariable:
            return unbound

    states = {s.name: s for s in simp.states}
    by_src: dict = {}
    for t in simp.transitions:
        by_src.setdefault(t.src, []).append(t)
    log = _Log(init)
    outcome = "step"
    for pos in range(min(MAX_STEPS, len(msgs))):
        m = msgs[pos]
        text = msg_text(m.name, m.args, m.exception)
        store = log.store
        if m.name == TIMEOUT and not store.get(TIMER_FLAG, False):
            log.step(text, log.state)
            continue
        choices = []
        for t in by_src.get(log.state, ()):
            v = match_call(t.call, m)
            if v is not None and holds(t.pre, store, v, False):
                choices.append((_choice_key(t, m, v), t, v))
        if not choices:
            log.step(text, log.state)
            outcome = "chaos"
            break
        _, t, v = min(choices, key=lambda c: c[0])
        try:
            new_store, sent = exec_stmt(t.act.stmt, store, v)
        except ActionConditionViolated:
            log.step(text, t.trg)
            outcome = "postconditionviolated"
            break
        except UnboundVariable as e:
            raise Undefined(f"{t.src}->{t.trg} on {text} reads unassigned {e}") from None
        assign = {k: x for k, x in new_store.items() if store.get(k, object()) != x}
        log.step(text, t.trg, [msg_text(s.name, s.args, s.exception) for s in sent], assign)
        if t.act.post is not None and not holds(t.act.post, new_store, v, True):
            outcome = "postconditionviolated"
        elif not holds(simp.inv, new_store, v, True) or not holds(
                states[t.trg].inv, new_store, v, True):
            outcome = "invariantviolated"
        if outcome != "step":
            break
    return log.result(outcome)
