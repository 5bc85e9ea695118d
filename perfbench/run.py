"""scforge benchmark: one workload, one seed, one process.

Usage, from the root of an scforge checkout:

    python3 perfbench/run.py --workload flatten-corpus --seed 1 --seconds 30 --trace 0

Set-up imports scforge from ./src and generates the workload's inputs from
the seed; it runs SETUPS times and its median is setup_s. The measured loop
is closed: one client sends ops back to back, in whole passes over the
inputs (in a seeded order), until --seconds have passed. Times are given at
a reference machine speed (see clock.py). The last line of standard output
is one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
from clock import CAL_REF_S, Clock

SETUPS = 7
MIN_OPS = 100


def _purge_modules():
    for name in list(sys.modules):
        if name.split(".")[0] in ("scforge", "workloads", "models"):
            del sys.modules[name]


def setup(workload: str, seed: int, root: Path, clock: Clock):
    """Import scforge and build the inputs SETUPS times; keep the last.
    Returns the modules, the inputs and each set-up's (start, end)."""
    times = []
    for _ in range(SETUPS):
        _purge_modules()
        clock.calibrate()
        t0 = time.perf_counter()
        wl = importlib.import_module("workloads")
        ops = wl.WORKLOADS[workload].make(random.Random(seed), root)
        times.append((t0, time.perf_counter()))
    clock.calibrate()
    return wl, ops, times


class Stats:
    def __init__(self):
        self.records: list = []  # (input index, start, end)
        self.counts = {"ok": 0, "failed": 0, "undecided": 0, "wrong": 0}
        self.first_message: dict = {}
        self.outputs: dict = {}

    def add(self, i, op, t0, t1, status, text):
        self.records.append((i, t0, t1))
        self.counts[status] += 1
        if status != "ok":
            kind = status if status == "wrong" else f"{status} {text.split(':')[0]}"
            self.first_message.setdefault(kind, f"{op.label}: {text.strip()[:300]}")
        self.outputs.setdefault(i, text)

    @property
    def attempted(self) -> int:
        return len(self.records)

    def raw_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1 in self.records)

    def reference_seconds(self, clock) -> dict:
        """Input index -> its op times at reference speed, one per pass."""
        out: dict = {}
        for i, t0, t1 in self.records:
            out.setdefault(i, []).append(clock.reference_seconds(t0, t1))
        return out


def run_one(wl, workload, op, tracer):
    """Run one op; classify it as ok, wrong, undecided or failed."""
    try:
        with tracer.span("op", kind=op.kind):
            text, evidence = workload.op(op, tracer)
    except wl.UNDECIDED as e:
        return "undecided", f"{type(e).__name__}: {e}\n"
    except Exception as e:  # an op may fail in any way; the run goes on
        return "failed", f"{type(e).__name__}: {e}\n"
    return ("ok" if workload.check(op, text, evidence) else "wrong"), text


def run_ops(wl, workload, ops, order, tracer, stats, clock):
    for i in order:
        clock.calibrate()
        tracer.begin_op(i)
        t0 = time.perf_counter()
        status, text = run_one(wl, workload, ops[i], tracer)
        stats.add(i, ops[i], t0, time.perf_counter(), status, text)
    clock.calibrate()


def percentile(values, q):
    """Nearest rank: with n >= 100 inputs, at least 10 lie beyond p90."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cli_parity(wl, workload_name, ops, root):
    """Serve one op through `scforge.cli.main` in-process; its stdout must
    equal the benchmark's own serialization of the same op."""
    op = wl.parity_op(workload_name, ops)
    expected, _ = wl.WORKLOADS[workload_name].op(op, spans.NullTracer())
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as tmp:
        argv = wl.cli_argv(op, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wl.cli.main(argv)
    return f"cli parity ({argv[0]} on {op.label}, exit {code}): " + (
        "ok" if out.getvalue() == expected else "MISMATCH"), out.getvalue() == expected


def run_probes(wl, workload_name, extra):
    lines = []
    workload = wl.WORKLOADS[workload_name]
    for name, op, expectation in wl.probes(workload_name) + extra:
        status, text = run_one(wl, workload, op, spans.NullTracer())
        if status == "ok" and name == "composite-entry-exit":
            first = json.loads(text)["Off"]["log"][0]["emitted"]
            status = "ok" if first == ["started()"] else "wrong"
            text = f"first step emitted {first}"
        elif status == "ok" and name == "initial-substate-entry":
            text = "flattened"
        lines.append(f"defect probe {name}: expected {expectation}; got {status}: "
                     f"{text.strip().splitlines()[-1][:200]}")
    return lines


def end_to_end(stats, clock, setups, peak_rss_mb) -> dict:
    setup_s = statistics.median(clock.reference_seconds(t0, t1) for t0, t1 in setups)
    per_input = stats.reference_seconds(clock)
    op_ms = [statistics.median(v) * 1e3 for v in per_input.values()]
    total = sum(sum(v) for v in per_input.values())
    frac = {k: n / stats.attempted for k, n in stats.counts.items()}
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (stats.attempted / total, "ops/s"),
        # per input, the median over the passes
        "op_ms_p50": (percentile(op_ms, 0.5), "ms"),
        "op_ms_p90": (percentile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (frac["ok"], "frac"),
        "failed_frac": (frac["failed"], "frac"),
        "undecided_frac": (frac["undecided"], "frac"),
        "wrong_frac": (frac["wrong"], "frac"),
    }


# Zero on most workloads, so no relative bound fits them: printed, and
# covered in the JSON by ok_frac, `failed` and `correct`.
PRINTED_ONLY = ("failed_frac", "undecided_frac", "wrong_frac")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("flatten-corpus", "long-runs", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "scforge" / "__init__.py").is_file():
        print(f"perfbench: no scforge sources under {src}; run from the root of "
              "an scforge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("SCFORGE_MAX_NODES", None)  # the documented default bound

    clock, stats, null = Clock(), Stats(), spans.NullTracer()
    wl, ops, setups = setup(args.workload, args.seed, root, clock)
    workload = wl.WORKLOADS[args.workload]
    extra_probes = []
    if workload.prepare is not None:
        ops, extra_probes = workload.prepare(ops)
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)

    start = time.perf_counter()
    if args.trace:
        # every op runs untraced and traced back to back, in alternating
        # order, so that both sides see the same warm state
        tracer, traced = spans.Tracer(), Stats()
        for k, i in enumerate(order):
            for tr, st in ((null, stats), (tracer, traced))[::1 if k % 2 == 0 else -1]:
                run_ops(wl, workload, ops, [i], tr, st, clock)
        passes = 1
    else:
        # whole passes, while another one fits in --seconds
        passes, last = 0, 0.0
        while stats.attempted < MIN_OPS or time.perf_counter() - start + last <= args.seconds:
            t0 = time.perf_counter()
            run_ops(wl, workload, ops, order, null, stats, clock)
            passes, last = passes + 1, time.perf_counter() - t0
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    parity_line, parity_ok = cli_parity(wl, args.workload, ops, root)
    probe_lines = run_probes(wl, args.workload, extra_probes)

    e2e = end_to_end(stats, clock, setups, peak_rss_mb)
    digest = hashlib.sha256()
    for i in range(len(ops)):
        digest.update(stats.outputs[i].encode() + b"\0")
    mode = " untraced (each also ran traced)" if args.trace else ""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} inputs, {stats.attempted} ops{mode} in {passes} passes, "
          f"{stats.raw_seconds():.3f} s op time as measured, {wall:.3f} s wall, "
          f"machine at {statistics.median(clock.unit_s) / CAL_REF_S:.2f}x "
          "the reference time")
    for name, (value, unit) in e2e.items():
        print(f"  {name:15s} {value:.6g} {unit}")
    print(f"  latency samples: {len(ops)} inputs, the median of {passes} passes each "
          f"(p90 has {len(ops) - math.ceil(0.9 * len(ops))} beyond it)")
    print(f"outputs sha256 {digest.hexdigest()} ({len(ops)} inputs in input order)")
    print(parity_line)
    for kind, message in sorted(stats.first_message.items()):
        print(f"first {kind}: {message}")
    for line in probe_lines:
        print(line)

    attempted, failed = stats.attempted, stats.counts["failed"]
    wrong = stats.counts["wrong"]
    if args.trace:
        tracer.write(root / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.json")
        overhead = traced.raw_seconds() / stats.raw_seconds() - 1
        metrics = spans.per_layer(tracer.spans, overhead)
        attempted += traced.attempted
        failed += traced.counts["failed"]
        wrong += traced.counts["wrong"]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()
                   if k not in PRINTED_ONLY}
    print(json.dumps({"correct": wrong == 0 and parity_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
