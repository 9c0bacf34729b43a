"""The two input regimes and the seeded inputs of each phase.

Every run has three phases -- ``paper_sweep``, ``front_door`` and
``serve_stream``.  The regime picks the inputs of the first two.
``heavy_tailed`` uses CiteSeer-like power-law graphs: every cold
front-door call runs a 12-candidate selection race, and plan
construction is a large share of the Fig. 4/5 sweep.  ``regular`` uses
trees and low-degree uniform graphs: selection lowers directly without
a race, and the Fig. 7/9 sweep is executor-bound.  The serve phase
streams heavy-tailed graphs in both, as the write->race stall it
measures needs them.  See README.md for why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
from repro.apps import (
    PageRankApp,
    SpMVApp,
    TreeDescendantsApp,
    TreeHeightsApp,
)
from repro.core.mutation import MutationBatch, PairInserts
from repro.graphs import generators
from repro.trees import generator as tree_generator


@dataclass(frozen=True)
class Regime:
    #: figures of the paper sweep, in run order
    figures: tuple[str, ...]
    #: the figure re-run on the exact engine by the output check
    exact_figure: str
    sweep_scale: float
    #: distinct front-door workloads; each gets one cold call
    front_door_n: int


REGIMES = {
    "heavy_tailed": Regime(("fig4", "fig5"), "fig4", 0.01, 40),
    "regular": Regime(("fig7", "fig9"), "fig7", 0.005, 48),
}

#: serve phase: reads per second, seconds between writes, pairs each
#: write deletes and inserts, and the latency limit a read must meet to
#: count toward goodput
READ_RATE = 40.0
WRITE_PERIOD_S = 1.0
WRITE_PAIRS = 8
GOODPUT_LIMIT_MS = 100.0
#: share of ``--seconds`` given to the serve window; the sweep and the
#: front door are fixed work sized to fill the rest
SERVE_SHARE = 0.45
#: front-door workloads re-checked on the exact engine
EXACT_SAMPLE = 4


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _uniform(n: int, seed: int, name: str):
    return generators.uniform_random_graph(n, (1, 16), seed=seed, name=name)


def _spread(i: int) -> float:
    """A fixed low-discrepancy point in [0, 1) for slot ``i``: sizes vary
    smoothly over the slots and identically for every seed, so latency
    quantiles do not sit on a gap between size clusters."""
    return (i * 0.6180339887) % 1.0


def front_door_workloads(regime: str, seed: int) -> list:
    """Distinct workloads in a fixed mix of kinds and sizes; only the
    graph randomness follows the seed."""
    spec = REGIMES[regime]
    out = []
    for i in range(spec.front_door_n):
        s = seed * 1000 + i
        if regime == "heavy_tailed":
            graph = generators.citeseer_like(
                scale=0.0024 + 0.001 * _spread(i), seed=s)
            app = SpMVApp(graph) if i % 2 == 0 else PageRankApp(graph)
        elif i % 4 == 0:
            # a full tree (no seed in its shape) with an outdegree below
            # the promotion threshold: flat, no race
            k = i // 4
            tree = tree_generator.generate_tree(5, 10 + k % 6, seed=s)
            app = (TreeDescendantsApp if k < 6 else TreeHeightsApp)(tree)
        else:
            graph = _uniform(24000 + int(16000 * _spread(i)), s,
                             f"uniform-{i}")
            app = PageRankApp(graph) if i % 4 == 2 else SpMVApp(graph)
        out.append(app.workload())
    return out


def stream_workloads(seed: int) -> dict:
    """The serve phase's registered streams, by name: heavy-tailed in both
    regimes.  (Streams of small uniform graphs answer in a few ms, where
    the 95th percentile is set by the interpreter's 5 ms thread switch
    interval and the host, not by the program.)"""
    s = seed * 1000 + 900
    graphs = [generators.citeseer_like(scale=sc, seed=s + k)
              for k, sc in enumerate((0.003, 0.003, 0.0025))]
    apps = (SpMVApp(graphs[0]), PageRankApp(graphs[1]), SpMVApp(graphs[2]))
    return {f"stream{k}": app.workload() for k, app in enumerate(apps)}


def write_batches(seed: int, workloads: dict, per_stream: int):
    """Seeded insert+delete batches for each stream, and the stream's
    versions they produce (``versions[name][k]`` is version ``k``)."""
    pairs = WRITE_PAIRS
    batches, versions = {}, {}
    for j, (name, wl) in enumerate(workloads.items()):
        rng = _rng(seed, 77, j)
        chain, out = [wl], []
        for _ in range(per_stream):
            head = chain[-1]
            donors = rng.integers(0, head.n_pairs, size=pairs)
            inserts = PairInserts(
                outer_ids=rng.integers(0, head.outer_size, size=pairs),
                stream_addresses=[s.addresses[donors] for s in head.streams],
                atomic_targets=(None if head.atomic_targets is None
                                else head.atomic_targets[donors]),
            )
            batch = MutationBatch(
                inserts=inserts,
                delete_pairs=rng.choice(head.n_pairs, size=pairs,
                                        replace=False),
            )
            child, _ = head.mutated(batch)
            chain.append(child)
            out.append(batch)
        batches[name], versions[name] = out, chain
    return batches, versions


@dataclass
class Inputs:
    front_door: list
    streams: dict
    writes: dict
    versions: dict
    handle: object


def build(regime: str, seed: int, seconds: float, writes=None) -> Inputs:
    """Dataset/workload generation plus service start: the set-up.

    ``writes`` reuses the ``(batches, versions)`` of an earlier build with
    the same arguments; the stream versions are reference data for the
    output check, not work the program does.
    """
    streams = stream_workloads(seed)
    if writes is None:
        window = SERVE_SHARE * seconds
        per_stream = -(-int(window / WRITE_PERIOD_S) // len(streams))
        writes = write_batches(seed, streams, per_stream)
    writes, versions = writes
    handle = repro.serve()
    for name, wl in streams.items():
        handle.register_workload(name, wl)
    return Inputs(front_door_workloads(regime, seed), streams, writes,
                  versions, handle)
