#!/usr/bin/env python
"""Smoke-check the parallelization IR + auto-select layer end-to-end.

Fast gate (wired into ``make test`` as ``make ir-smoke``) over one
irregular nested loop and one recursive tree:

1. **golden decision table** — building the IR and running the pass
   pipeline must reproduce the expected promote/consolidate decisions
   (a split inner loop whose large side consolidates for the loop; both
   child loops demoted below the threshold for the tree) and the
   expected lowering (a load-balancing-family race for the loop, an
   unambiguous ``flat`` pick with no race for the tree);
2. **fingerprint stability** — re-deriving the selection from scratch
   (analysis + selection caches cleared) reproduces the same selection
   fingerprint, the property the disk-cache keys rely on;
3. **auto overhead** — with the selection cached, ``repro.run(workload)``
   must stay within 5% (plus a small absolute slack) of naming the
   selected template directly, measured as the median of repeated warm
   trials.

Exit code 0 = all checks passed.  Keep this under a few seconds.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.plancache import clear_caches  # noqa: E402
from repro.core.recursive import RecursiveTreeWorkload  # noqa: E402
from repro.core.workload import NestedLoopWorkload  # noqa: E402
from repro.ir import auto_select, clear_selection_cache  # noqa: E402
from repro.trees.generator import generate_tree  # noqa: E402

TRIALS = 15
MAX_OVERHEAD = 0.05      # warm auto vs named, relative
ABS_SLACK_S = 0.002      # absolute timer-noise allowance per trial

#: expected (pass, node, action) rows per workload — the golden table
GOLDEN_DECISIONS = {
    "loop": [
        ("promote", "inner", "split"),
        ("consolidate", "inner@large", "consolidate-block"),
    ],
    "tree": [
        ("promote", "grandchildren", "demote-thread"),
        ("promote", "children", "demote-thread"),
    ],
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def build_workloads():
    rng = np.random.default_rng(11)
    loop = NestedLoopWorkload("ir-smoke-loop", rng.integers(0, 40, size=200))
    tree = RecursiveTreeWorkload(generate_tree(depth=5, outdegree=3, seed=3))
    return loop, tree


def check_decisions(tag: str, selection) -> None:
    table = [(d.pass_name, d.node, d.action) for d in selection.decisions]
    if table != GOLDEN_DECISIONS[tag]:
        fail(f"{tag}: decision table {table} != golden {GOLDEN_DECISIONS[tag]}")


def check_loop(loop) -> None:
    selection = auto_select(loop)
    check_decisions("loop", selection)
    if selection.template not in ("dual-queue", "dbuf-global", "dbuf-shared"):
        fail(f"loop: expected a load-balancing pick, got {selection.template}")
    if len(selection.raced) != 12:
        fail(f"loop: expected a 12-candidate race, got {selection.raced}")
    if selection.params.lb_threshold not in (32, 64, 128, 256):
        fail(f"loop: winner threshold {selection.params.lb_threshold} "
             "outside the ladder")
    print(f"loop ok: {selection.template} "
          f"(lbTHRES={selection.params.lb_threshold}) "
          f"from {len(selection.raced)} candidates")


def check_tree(tree) -> None:
    selection = auto_select(tree)
    check_decisions("tree", selection)
    if selection.template != "flat":
        fail(f"tree: expected flat, got {selection.template}")
    if selection.raced:
        fail(f"tree: expected an unambiguous pick, raced {selection.raced}")
    print(f"tree ok: {selection.template} picked without a race")


def check_fingerprint_stability(loop) -> None:
    first = auto_select(loop).fingerprint
    clear_caches()
    second = auto_select(loop).fingerprint
    if first != second:
        fail(f"selection fingerprint unstable: {first} != {second}")
    print(f"fingerprint ok: {first}")


def median_wall_s(fn) -> float:
    fn()  # warm every cache the path touches
    samples = []
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def check_overhead(loop) -> None:
    selection = auto_select(loop)
    auto_s = median_wall_s(lambda: repro.run(loop))
    named_s = median_wall_s(
        lambda: repro.run(loop, selection.template, params=selection.params))
    budget = named_s * (1 + MAX_OVERHEAD) + ABS_SLACK_S
    if auto_s > budget:
        fail(f"warm auto run {auto_s * 1e3:.3f} ms exceeds "
             f"{budget * 1e3:.3f} ms budget "
             f"(named {named_s * 1e3:.3f} ms + 5% + slack)")
    print(f"overhead ok: auto {auto_s * 1e3:.3f} ms vs "
          f"named {named_s * 1e3:.3f} ms (warm medians)")


def main() -> int:
    clear_selection_cache()
    loop, tree = build_workloads()
    check_loop(loop)
    check_tree(tree)
    check_fingerprint_stability(loop)
    check_overhead(loop)
    print("ir smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
