"""The incremental rewrite engine against the naive reference, on more charts
than tier-1 runs.

Flattens `gen_chart` seeds 0-199 at 6, 10 and 16 states, `gen_guard_free`
seeds 0-99 and the coverage charts of `test_transform.py` under the paper
strategy and random:1 to random:3, once with `transform_fixpoint` and once
with `naive_fixpoint`, which lists every rule's bindings afresh on every
chart. Prints each chart whose flat chart or trace differs, and exits 1 if
any does. Run from the root of a checkout:

    PYTHONPATH=src python tests/engine_oracle.py
"""

from __future__ import annotations

import sys
import time

from scforge.gen import gen_chart, gen_guard_free
from scforge.transform import chart_hash, transform_fixpoint
from test_transform import COVERAGE_CHARTS, STRATEGIES, naive_fixpoint


def charts():
    for n in (6, 10, 16):
        for seed in range(200):
            yield f"gen_chart {seed} at {n} states", gen_chart(seed, max_states=n)
    for seed in range(100):
        yield f"gen_guard_free {seed}", gen_guard_free(seed)
    for sc in COVERAGE_CHARTS:
        yield sc.diagram_name, sc


def main() -> int:
    start, checked, differ = time.perf_counter(), 0, 0
    for label, sc in charts():
        for strategy in STRATEGIES:
            digests: list[str] = []
            flat, trace = transform_fixpoint(
                sc, strategy=strategy, on_step=lambda _, c: digests.append(chart_hash(c)))
            engine = (flat, [(e.rule, e.binding, d) for e, d in zip(trace, digests)])
            checked += 1
            if engine != naive_fixpoint(sc, strategy):
                differ += 1
                print(f"differs: {label} under {strategy}", flush=True)
    print(f"{checked} flattenings, {differ} differ from the naive reference, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
