"""Span recording for the traced run, and the per-layer numbers derived from it.

A span is one call from the benchmark into a layer of the program: name,
start, end, parent span and op id, plus counters the call site attaches.
Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same do-nothing object."""

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def begin_op(self, op_id):
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tr = self.tracer
        self.record[3] = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def set(self, **attrs):
        self.record[5].update(attrs)


class Tracer:
    """Tracing on: records [name, start, end, parent, op_id, attrs] lists."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op_id = None

    def begin_op(self, op_id):
        self.op_id = op_id

    def span(self, name, **attrs):
        return _Span(self, [name, 0.0, 0.0, None, self.op_id, dict(attrs)])

    def write(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "attrs": a}
            for n, s, e, p, o, a in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


LAYERS = ("parse", "wellformed", "transform", "printer", "flatinterp", "vdb", "conform")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Self time per layer (span time not covered by child spans), plus the
    total time of the root `op` spans under the key "op.total"."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        out[layer_of(name)] += (end - start) - child_time[i]
        if parent is None:
            out["op.total"] += end - start
    return out


TRANSFORM_BUCKETS = ("n1-8", "n9-16", "n17-32", "chain")
EVENT_BUCKETS = ((1, 255, "e1-255"), (256, 1023, "e256-1023"), (1024, math.inf, "e1024-up"))
RULES = range(1, 28)  # the 26 rules and the engine's stereotype clean-up step
OUTCOMES = ("step", "chaos", "postconditionviolated", "invariantviolated")


def _event_bucket(events: int) -> str:
    return next(name for lo, hi, name in EVENT_BUCKETS if events <= hi)


def per_layer(spans, overhead_frac: float) -> dict:
    """The per-layer metrics of a traced pass over the inputs. `X.ms` is the
    mean time of one call of X; counts are totals over the pass;
    `us_per_step` is total time over total steps."""
    by_name = defaultdict(list)
    for name, start, end, _, _, attrs in spans:
        by_name[name].append((end - start, attrs))

    def calls(name, where=lambda a: True):
        return [(d, a) for d, a in by_name[name] if where(a)]

    def mean_ms(rows):
        return 1e3 * sum(d for d, _ in rows) / len(rows) if rows else 0.0

    def total(rows, key):
        return sum(a.get(key, 0) for _, a in rows)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    parse = calls("parse")
    put("parse.ms", mean_ms(parse), "ms")
    put("parse.kb_per_s", ratio(total(parse, "kb"), sum(d for d, _ in parse)), "KB/s")
    check = calls("wellformed.check_all")
    put("wellformed.check_all.ms", mean_ms(check), "ms")
    put("wellformed.check_all.findings", total(check, "findings"), "count")

    fix = calls("transform.fixpoint")
    put("transform.fixpoint.ms", mean_ms(fix), "ms")
    for b in TRANSFORM_BUCKETS:
        put(f"transform.fixpoint.ms.{b}",
            mean_ms(calls("transform.fixpoint", lambda a: a.get("bucket") == b)), "ms")
    steps = total(fix, "steps")
    put("transform.steps", steps, "count")
    put("transform.us_per_step", ratio(1e6 * sum(d for d, _ in fix), steps), "us")
    simp = calls("transform.to_simplified")
    put("transform.to_simplified.ms", mean_ms(simp), "ms")
    put("transform.states_out", ratio(total(simp, "states_out"), len(simp)), "count")
    put("transform.trans_out", ratio(total(simp, "trans_out"), len(simp)), "count")
    for rule in RULES:
        fired = [a["rules"][rule] for _, a in fix if rule in a.get("rules", {})]
        put(f"transform.rule.{rule}.steps", sum(n for n, _ in fired), "count")
        put(f"transform.rule.{rule}.ms", 1e3 * sum(s for _, s in fired), "ms")

    for name in ("flatinterp.run", "flatinterp.run_log_lines"):
        rows = calls(name)
        put(f"{name}.ms", mean_ms(rows), "ms")
        for _, _, b in EVENT_BUCKETS:
            sub = calls(name, lambda a: _event_bucket(a.get("events", 0)) == b)
            put(f"{name}.ms.{b}", mean_ms(sub), "ms")
            put(f"{name}.us_per_step.{b}",
                ratio(1e6 * sum(d for d, _ in sub), total(sub, "steps")), "us")
    runs = calls("flatinterp.run")
    put("flatinterp.run.steps", total(runs, "steps"), "count")
    for kind in OUTCOMES:
        put(f"flatinterp.run.outcome.{kind}",
            sum(1 for _, a in runs if a.get("outcome") == kind), "count")
    put("printer.ms", mean_ms(calls("printer")), "ms")

    explore = calls("flatinterp.explore_emissions")
    put("flatinterp.explore_emissions.ms", mean_ms(explore), "ms")
    put("flatinterp.explore_emissions.results", total(explore, "results"), "count")
    put("vdb.encode_guard_free.ms", mean_ms(calls("vdb.encode_guard_free")), "ms")
    bounded = calls("vdb.run_bounded")
    done = [(d, a) for d, a in bounded if not a.get("bound_hit")]
    distinct, path = total(done, "distinct_nodes"), total(done, "path_nodes")
    put("vdb.run_bounded.ms", mean_ms(bounded), "ms")
    put("vdb.runs", total(done, "runs"), "count")
    put("vdb.distinct_nodes", distinct, "count")
    put("vdb.path_nodes", path, "count")
    put("vdb.distinct_node_ratio", ratio(distinct, path), "frac")
    put("vdb.nodes_per_s", ratio(distinct, sum(d for d, _ in done)), "1/s")
    put("vdb.bound_hits", total(bounded, "bound_hit"), "count")

    check = calls("conform.check")
    put("conform.from_json.ms", mean_ms(calls("conform.from_json")), "ms")
    put("conform.check.ms", mean_ms(check), "ms")
    put("conform.fragment_nodes", ratio(total(check, "fragment_nodes"), len(check)), "count")
    put("conform.witnesses", total(check, "witnesses"), "count")

    selfs = self_times(spans)
    for layer in LAYERS:
        put(f"{layer}.self_frac", ratio(selfs[layer], selfs["op.total"]), "frac")
    put("trace.overhead_frac", overhead_frac, "frac")
    return out
