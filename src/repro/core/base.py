"""Template base classes and the run wrapper."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro import obs
from repro.backends import coerce_backend, effective_backend, run_sharded
from repro.core.analysis import WorkloadAnalysis, get_analysis
from repro.core.artifactcache import get_artifact_cache
from repro.core.params import TemplateParams
from repro.core.plancache import get_or_build, tier
from repro.core.workload import NestedLoopWorkload
from repro.errors import PlanError
from repro.gpusim.config import DeviceConfig
from repro.gpusim.executor import ExecutionResult, get_default_engine
from repro.gpusim.kernels import LaunchGraph
from repro.gpusim.profiler import ProfileMetrics, profile

__all__ = [
    "TemplateRun", "NestedLoopTemplate", "check_schedule", "plan_key",
    "run_many",
]

#: the plan tier
_PLAN = tier("plan")


def plan_key(
    template: "NestedLoopTemplate | object",
    workload_fingerprint: str,
    config: DeviceConfig,
    params: TemplateParams,
) -> tuple:
    """Cache key for one template build.

    Only the params fields named in the template's ``PLAN_RELEVANT_PARAMS``
    enter the key (None means all fields): sweeping a parameter the
    template's plan never reads keeps hitting the same entry.  The device
    enters as its content fingerprint string, so equal configs constructed
    in different processes produce identical (and repr-stable) keys — the
    disk artifact cache depends on this.
    """
    relevant = getattr(template, "PLAN_RELEVANT_PARAMS", None)
    if relevant is None:
        relevant = tuple(f.name for f in dataclass_fields(params))
    param_items = tuple((name, getattr(params, name)) for name in relevant)
    return (workload_fingerprint, template.name, config.fingerprint(), param_items)


@dataclass
class TemplateRun:
    """Everything one template execution produced."""

    template: str
    workload: str
    graph: LaunchGraph
    result: ExecutionResult
    metrics: ProfileMetrics
    #: phase name -> outer iteration ids handled by that phase
    schedule: dict[str, np.ndarray] = field(default_factory=dict)
    params: TemplateParams | None = None
    #: per-shard runs of a multi-device execution (None for single-device)
    device_runs: list["TemplateRun"] | None = None
    #: the auto-select decision behind a ``template="auto"`` run
    #: (:class:`~repro.ir.select.Selection`; None for named-template runs)
    selection: object | None = None

    @property
    def time_ms(self) -> float:
        """End-to-end simulated time."""
        return self.result.time_ms


def check_schedule(schedule: dict[str, np.ndarray], outer_size: int) -> None:
    """Every outer iteration must be scheduled exactly once across phases.

    This is the work-conservation invariant templates must uphold: load
    balancing may *move* iterations between phases, never drop or
    duplicate them.
    """
    if not schedule:
        raise PlanError("schedule is empty")
    allx = np.concatenate([np.asarray(v, dtype=np.int64) for v in schedule.values()])
    if allx.size != outer_size:
        raise PlanError(
            f"schedule covers {allx.size} iterations, expected {outer_size}"
        )
    seen = np.zeros(outer_size, dtype=bool)
    if allx.size and (allx.min() < 0 or allx.max() >= outer_size):
        raise PlanError("schedule contains out-of-range iterations")
    seen[allx] = True
    if allx.size != np.count_nonzero(seen):
        raise PlanError("schedule assigns some iteration twice")
    if not seen.all():
        raise PlanError("schedule drops iterations")


@dataclass
class _PreparedRun:
    """A template run with its plan resolved but execution still pending.

    The single-device half of a template run, split out so batch entry
    points (:func:`run_many`, the service fusion path) can resolve many
    plans first, execute every run-tier miss as **one** fused backend
    pass, and only then finalize — without duplicating any of the
    plan-cache / disk-cache / run-tier logic.
    """

    template: "_CachedTemplate"
    workload: NestedLoopWorkload
    config: DeviceConfig
    params: TemplateParams
    graph: LaunchGraph
    schedule: dict[str, np.ndarray]
    #: run-tier key when the disk run tier applies to this run, else None
    run_key: tuple | None
    #: cached execution result (run-tier hit), or None when a live
    #: execution is still needed
    result: ExecutionResult | None

    def record(self, result: ExecutionResult) -> None:
        """Attach a live execution result, persisting it to the run tier."""
        self.result = result
        if self.run_key is not None:
            disk = get_artifact_cache()
            if disk is not None:
                disk.put("run", self.run_key, result)

    def finish(self) -> TemplateRun:
        """Profile the (now present) result and assemble the TemplateRun."""
        metrics = profile(self.graph, self.result, self.config)
        return TemplateRun(
            template=self.template.name,
            workload=self.workload.name,
            graph=self.graph,
            result=self.result,
            metrics=metrics,
            schedule=self.schedule,
            params=self.params,
        )


class _CachedTemplate:
    """``run()`` and the caching ladder shared by every template family.

    Subclasses supply ``build()``; a plan is whatever it returns, stored
    in the ``plan`` tier of :mod:`~repro.core.plancache` (and its disk
    tier).  ``_check`` validates a fresh plan, ``_unpack`` turns a plan
    into ``(graph, schedule)``.
    """

    #: template identifier (paper name)
    name: str = "abstract"
    #: whether the template needs CC >= 3.5 nested launches
    uses_dynamic_parallelism: bool = False
    #: whether the plan is legal under persistent-queue execution; False
    #: for templates whose correctness depends on launch-wide barrier
    #: semantics (see repro.backends.effective_backend)
    queue_compatible: bool = True
    #: :class:`TemplateParams` fields this template's build() reads; the
    #: plan cache keys only on these (None = key on every field)
    PLAN_RELEVANT_PARAMS: tuple[str, ...] | None = None

    def _check(self, plan, workload) -> None:
        """Validate a freshly built plan (no-op by default)."""

    def _unpack(self, plan, workload) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """``(graph, schedule)`` of a plan."""
        return plan

    def _plan(self, workload, config: DeviceConfig, params: TemplateParams):
        """A plan-tier miss: build and validate one plan."""
        with obs.span("plan.build", template=self.name,
                      workload=workload.name):
            plan = self.build(workload, config, params)
            self._check(plan, workload)
        return plan

    def run(
        self,
        workload,
        config: DeviceConfig,
        params: TemplateParams | None = None,
        executor=None,
        *,
        backend=None,
    ) -> TemplateRun:
        """Build, validate, execute and profile in one call.

        Execution goes through a :class:`~repro.backends.Backend` —
        resolved from ``backend``, a legacy ``executor`` (wrapped
        unchanged), or the process's default device topology.  A
        multi-device backend shards the workload and merges the
        per-device runs (see :func:`repro.backends.run_sharded`).

        Plans are served from the plan tier when an identical (workload,
        template, plan-relevant params, device) build was done before,
        falling back to the disk artifact cache (shared across
        bench/service worker processes) when one is configured; cached
        graphs are shared, so treat them as read-only.  Execution results
        are themselves cached in the disk ``run`` tier — the simulator is
        deterministic — except when a timeline is requested, which needs
        a live run.  This is :func:`run_many` of one item.
        """
        return run_many([(self, workload, params)], config,
                        backend=backend, executor=executor)[0]

    def _prepare(
        self,
        workload,
        config: DeviceConfig,
        params: TemplateParams,
        backend,
    ) -> _PreparedRun:
        """Resolve the plan and probe the run tier; execution stays pending.

        The plan goes through :func:`~repro.core.plancache.get_or_build`;
        then the disk run tier is probed (skipped when a timeline is
        requested, which needs a live run).  The returned
        :class:`_PreparedRun` carries ``result`` when the run tier hit;
        callers execute the graph themselves otherwise (:func:`run_many`
        fuses every miss of a batch into one pass).
        """
        key = plan_key(self, workload.fingerprint(), config, params)
        graph, schedule = self._unpack(
            get_or_build(_PLAN, key,
                         lambda: self._plan(workload, config, params)),
            workload,
        )
        disk = get_artifact_cache()
        run_key = None
        result = None
        if disk is not None and not backend.record_timeline:
            run_key = (key, backend.engine or get_default_engine())
            # non-BSP execution models tag their run entries; sim
            # backends add nothing
            tag = backend.run_cache_tag
            if tag is not None:
                run_key = run_key + (tag,)
            result = disk.get("run", run_key)
        return _PreparedRun(
            template=self,
            workload=workload,
            config=config,
            params=params,
            graph=graph,
            schedule=schedule,
            run_key=run_key,
            result=result,
        )


class NestedLoopTemplate(_CachedTemplate, ABC):
    """A parallelization template for irregular nested loops (Fig. 1)."""

    def build(
        self,
        workload: NestedLoopWorkload,
        config: DeviceConfig,
        params: TemplateParams,
    ) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """Produce the launch graph + phase schedule for a workload.

        Two-stage pipeline: fetch (or compute) the workload-invariant
        :class:`WorkloadAnalysis` from the fingerprint-keyed analysis
        cache, then :meth:`specialize` it to this concrete ``(config,
        params)`` point.  A parameter sweep over N points therefore pays
        the analysis once and runs only the cheap specialize stage N times.
        """
        return self.specialize(workload, get_analysis(workload), config, params)

    @abstractmethod
    def specialize(
        self,
        workload: NestedLoopWorkload,
        analysis: WorkloadAnalysis,
        config: DeviceConfig,
        params: TemplateParams,
    ) -> tuple[LaunchGraph, dict[str, np.ndarray]]:
        """Assemble the launch graph for one concrete parameter point.

        ``analysis`` holds everything that depends on the workload alone
        (sorted trip order, threshold partitions, per-stream segment ids);
        implementations must not mutate it — it is shared across templates,
        parameter points and (via the disk cache) processes.
        """

    def _check(self, plan, workload) -> None:
        check_schedule(plan[1], workload.outer_size)

    # convenience used by all subclasses
    @staticmethod
    def _grid_for(n_threads: int, block_size: int, max_blocks: int) -> int:
        if n_threads <= 0:
            raise PlanError("grid needs at least one thread")
        blocks = -(-n_threads // block_size)
        if blocks > max_blocks:
            raise PlanError(
                f"grid of {blocks} blocks exceeds the configured clamp "
                f"({max_blocks}); enlarge TemplateParams.max_grid_blocks"
            )
        return blocks


def run_many(
    items,
    config: DeviceConfig,
    *,
    backend=None,
    executor=None,
) -> list[TemplateRun]:
    """Execute several template runs, fusing executor passes where legal.

    ``items`` is a sequence of ``(template, workload)`` or ``(template,
    workload, params)`` tuples sharing one device config.  Every item goes
    through the plan tier and the disk run tier; the run-tier *misses*
    that land on the same single-device backend are then executed as
    **one** fused event-loop pass via
    :meth:`~repro.backends.Backend.submit_many` instead of N sequential
    passes.  Results are bit-identical to running each item alone (fused
    lanes share only the event heap, never state) and come back in input
    order.  :meth:`NestedLoopTemplate.run` is this function of one item.

    Items on a multi-device group shard their whole workload
    (:func:`~repro.backends.run_sharded`); when sharding does not apply,
    they run on the group's first member like any single-device item.
    """
    base = coerce_backend(backend, executor, config)
    runs: list[TemplateRun | None] = [None] * len(items)
    pending: list[tuple[int, object, _PreparedRun]] = []
    for idx, item in enumerate(items):
        template, workload = item[0], item[1]
        params = (item[2] if len(item) > 2 else None) or TemplateParams()
        eff = effective_backend(base, template)
        if eff.n_devices > 1:
            runs[idx] = run_sharded(template, workload, eff, config, params)
            if runs[idx] is not None:
                continue
            eff = eff.members[0]
        prep = template._prepare(workload, config, params, eff)
        if prep.result is not None:
            runs[idx] = prep.finish()
        else:
            pending.append((idx, eff, prep))
    # one fused pass per distinct backend object (queue->sim fallbacks may
    # materialize per item; identity grouping keeps each pass coherent)
    groups: dict[int, tuple[object, list[tuple[int, _PreparedRun]]]] = {}
    for idx, eff, prep in pending:
        groups.setdefault(id(eff), (eff, []))[1].append((idx, prep))
    for eff, members in groups.values():
        results = eff.submit_many([prep.graph for _, prep in members])
        for (idx, prep), result in zip(members, results):
            prep.record(result)
            runs[idx] = prep.finish()
    return runs
