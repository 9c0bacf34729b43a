"""Template + threshold auto-tuning.

The paper frames the templates as compiler-emitted code variants and notes
that "the optimal load balancing threshold will depend on the underlying
dataset and algorithm".  This module performs the selection a compiler
runtime would: sweep (template, lbTHRES) on the simulated device and keep
the fastest combination.  Templates requiring dynamic parallelism are
skipped automatically on devices without it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.analysis import get_analysis
from repro.core.base import TemplateRun
from repro.core.params import TemplateParams
from repro.core.plancache import cache_stats
from repro.core.registry import LOAD_BALANCING_TEMPLATES, resolve
from repro.core.workload import NestedLoopWorkload
from repro.errors import PlanError
from repro.gpusim.config import DeviceConfig, supports_dynamic_parallelism

__all__ = ["autotune", "best_run", "sweep"]

#: default lbTHRES candidates (the paper's sweep, warp size upward)
DEFAULT_THRESHOLDS = (32, 64, 128, 256)


def sweep(
    workload: NestedLoopWorkload,
    config: DeviceConfig,
    templates: Iterable[str] = LOAD_BALANCING_TEMPLATES,
    thresholds: Iterable[int] = DEFAULT_THRESHOLDS,
    base_params: TemplateParams | None = None,
) -> list[TemplateRun]:
    """Run every (template, threshold) combination; returns all runs.

    The workload analysis is fetched once up front, so every candidate
    build is a pure specialize stage against the same cached
    :class:`~repro.core.analysis.WorkloadAnalysis` artifact.
    """
    base_params = base_params or TemplateParams()
    get_analysis(workload)  # prime the analysis cache for all candidates
    runs: list[TemplateRun] = []
    for name in templates:
        template = resolve(name, kind="nested-loop")
        if (template.uses_dynamic_parallelism
                and not supports_dynamic_parallelism(config)):
            continue
        for lbt in thresholds:
            params = base_params.replace(lb_threshold=int(lbt))
            runs.append(template.run(workload, config, params))
    if not runs:
        raise PlanError(
            "no (template, threshold) combination is runnable on "
            f"{config.name}"
        )
    return runs


def best_run(runs: Iterable[TemplateRun]) -> TemplateRun:
    """The fastest run, with deterministic tie-breaking.

    Ties on ``time_ms`` (bit-equal simulated times do occur — e.g. two
    thresholds both above every trip count produce identical plans) are
    broken on ``(template name, lb_threshold)``, so repeated sweeps — and
    sweeps fed the same candidates in a different order — pick the same
    winner.
    """
    def key(run: TemplateRun):
        lbt = run.params.lb_threshold if run.params is not None else 0
        return (run.time_ms, run.template, lbt)

    runs = list(runs)
    if not runs:
        raise PlanError("best_run() needs at least one run")
    return min(runs, key=key)


def autotune(
    workload: NestedLoopWorkload,
    config: DeviceConfig,
    templates: Iterable[str] = LOAD_BALANCING_TEMPLATES,
    thresholds: Iterable[int] = DEFAULT_THRESHOLDS,
    base_params: TemplateParams | None = None,
) -> TemplateRun:
    """The fastest (template, threshold) combination for a workload.

    Tie-breaking is deterministic (see :func:`best_run`).  The winning run
    carries a ``tuning_report`` attribute summarizing the sweep: candidate
    count and the analysis-cache hit/miss counters accumulated while the
    sweep specialized every candidate against one shared analysis.
    """
    before = cache_stats()["analysis"]
    runs = sweep(workload, config, templates, thresholds, base_params)
    winner = best_run(runs)
    after = cache_stats()["analysis"]
    winner.tuning_report = {
        "candidates": len(runs),
        "analysis_cache": {
            k: after[k] - before[k] for k in ("hits", "misses")
        },
    }
    return winner
