"""Batch execution: the functions that run one batch's template.

:func:`execute_batch` runs one batch, :func:`execute_batch_fused` runs a
scheduling window's batches as one fused executor pass.  The service calls
both on a worker thread of its event loop (``asyncio.to_thread``), so they
share this process's plan caches and disk artifact cache.  Each returns the
same result summary per batch (see :func:`_summary`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backends import SimBackend
from repro.core.artifactcache import get_artifact_cache
from repro.core.params import TemplateParams
from repro.core.plancache import default_cache
from repro.core.registry import resolve
from repro.gpusim.config import DeviceConfig, KEPLER_K20

__all__ = [
    "BatchSpec",
    "execute_batch",
    "execute_batch_fused",
]


@dataclass
class BatchSpec:
    """Everything one batch execution needs."""

    template: object  # canonical name or template instance
    workload: object
    kind: str
    device: DeviceConfig = KEPLER_K20
    params: TemplateParams = field(default_factory=TemplateParams)
    engine: str = "fast"
    #: device this batch was routed to by the service's DeviceGroup;
    #: None on a single-device service (no per-device obs counters)
    device_index: int | None = None
    #: execution model: "sim" (bulk-synchronous) or "queue" (persistent
    #: task queues, single-device; see docs/taskqueue.md)
    backend: str = "sim"


def _template_of(spec: BatchSpec):
    if isinstance(spec.template, str):
        return resolve(spec.template, kind=spec.kind)
    return spec.template


def _cache_counters(disk) -> tuple[int, int, int, int]:
    """``(plan hits, plan misses, disk hits, disk misses)`` so far in
    this process."""
    stats = default_cache().stats
    if disk is None:
        return stats.hits, stats.misses, 0, 0
    snap = disk.snapshot()
    return stats.hits, stats.misses, snap["hits"], snap["misses"]


def _cache_delta(disk, before: tuple) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(_cache_counters(disk), before))


def _summary(spec: BatchSpec, run, delta: tuple, wall_s: float) -> dict:
    """The result summary that answers every request of one batch.

    The requests need only the timing/metrics payload, not the full
    :class:`TemplateRun` with its launch graph.  ``cache_hits``/
    ``cache_misses`` and ``disk_hits``/``disk_misses`` are the plan-cache
    and disk-cache probe deltas of the batch (disk zero when no disk cache
    is configured); under concurrent batches the attribution is
    approximate, since the counters are process-global.
    """
    hits, misses, disk_hits, disk_misses = delta
    return {
        "template": run.template,
        "workload": run.workload,
        "time_ms": run.time_ms,
        "metrics": run.metrics.as_dict(),
        "wall_s": wall_s,
        "cache_hits": hits,
        "cache_misses": misses,
        "disk_hits": disk_hits,
        "disk_misses": disk_misses,
        "device": spec.device_index or 0,
    }


def execute_batch(spec: BatchSpec) -> dict:
    """Run one batch's template once; return its result summary."""
    disk = get_artifact_cache()
    before = _cache_counters(disk)
    tmpl = _template_of(spec)
    if spec.backend == "queue":
        from repro.queue.backend import QueueBackend

        backend = QueueBackend(spec.device, engine=spec.engine)
    else:
        backend = SimBackend(spec.device, engine=spec.engine,
                             device_index=spec.device_index)
    start = time.perf_counter()
    run = tmpl.run(spec.workload, spec.device, spec.params, executor=backend)
    wall = time.perf_counter() - start
    return _summary(spec, run, _cache_delta(disk, before), wall)


def execute_batch_fused(specs: list[BatchSpec]) -> list[dict]:
    """Run several batches as **one** fused executor pass; summaries align
    with ``specs``.

    The fused sibling of :func:`execute_batch`: all specs must share a
    device config, engine and backend ``"sim"`` (the service's fusion
    grouping guarantees this).  Plans resolve per spec through the normal
    cache ladder (:meth:`~repro.core.base.NestedLoopTemplate._prepare` —
    plan cache, disk plan tier, run-tier probe); the run-tier misses then
    execute as a single fused event loop on one :class:`SimBackend`, which
    is bit-identical to running them sequentially.  Per-spec cache deltas
    are measured around each spec's own prepare step, so attribution
    matches the sequential path.

    Templates that don't expose the prepare seam (custom instances) run
    sequentially within the same call.
    """
    if not specs:
        return []
    disk = get_artifact_cache()
    backend = SimBackend(specs[0].device, engine=specs[0].engine,
                         device_index=specs[0].device_index)
    start = time.perf_counter()
    runs: list = []
    deltas: list[tuple] = []
    pending: list[tuple[int, object]] = []  # (spec index, _PreparedRun)
    for spec in specs:
        tmpl = _template_of(spec)
        before = _cache_counters(disk)
        prepare = getattr(tmpl, "_prepare", None)
        if prepare is None:
            run = tmpl.run(spec.workload, spec.device, spec.params,
                           executor=backend)
        else:
            prep = prepare(spec.workload, spec.device, spec.params, backend)
            if prep.result is None:
                pending.append((len(runs), prep))
                run = None
            else:
                run = prep.finish()
        deltas.append(_cache_delta(disk, before))
        runs.append(run)
    if pending:
        # one fused event loop over every run-tier miss in the window
        results = backend.submit_many([prep.graph for _, prep in pending])
        for (idx, prep), result in zip(pending, results):
            prep.record(result)
            runs[idx] = prep.finish()
    wall = time.perf_counter() - start
    return [_summary(spec, run, delta, wall)
            for spec, run, delta in zip(specs, runs, deltas)]
