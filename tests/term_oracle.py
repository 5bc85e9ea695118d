"""The lazy term exploration against the eager reference, on more terms than
tier-1 runs.

Runs the body of `test_vdb.test_run_bounded_matches_the_eager_exploration`
on 5000 generated terms and words, where tier-1 runs 200: `aux_step`
against `naive_aux_step`, the one flag that all steps of a term on a
message share, and `run_bounded` against `naive_run_bounded` under random
bounds. On the first example that differs, hypothesis prints it shrunk and
the script exits 1. Run from the root of a checkout:

    PYTHONPATH=src python tests/term_oracle.py
"""

from __future__ import annotations

import sys
import time

from hypothesis import given, settings
from test_vdb import EAGER_EXPLORATION_ARGS, test_run_bounded_matches_the_eager_exploration

EXAMPLES = 5000


def main() -> int:
    start = time.perf_counter()
    check = settings(max_examples=EXAMPLES, deadline=None, database=None)(
        given(*EAGER_EXPLORATION_ARGS)(test_run_bounded_matches_the_eager_exploration.hypothesis.inner_test))
    check()
    print(f"{EXAMPLES} examples agree with the eager reference, {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
