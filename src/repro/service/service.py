"""The asyncio serving runtime: admission, batching, execution policy.

:class:`TemplateService` turns the one-shot ``repro.run`` facade into a
long-lived server.  The life of a request:

1. **Admission** — ``submit()`` resolves the template eagerly and applies
   backpressure: beyond ``max_pending`` in-flight requests, the answer is
   an immediate structured *rejection* response (never an indefinite
   block) so callers can shed or retry upstream.
2. **Collection** — the batch loop drains the queue for up to
   ``batch_window_s`` (or ``max_batch`` requests) and hands the window to
   :func:`~repro.service.batcher.coalesce`, which coalesces requests
   sharing a batch key into one execution.
3. **Execution** — each batch runs once on a worker thread of the event
   loop (:func:`~repro.service.workers.execute_batch`), under a
   per-request timeout with bounded exponential-backoff retries.
4. **Degradation** — when every attempt failed and the template uses
   dynamic parallelism, the batch re-runs on the family's
   non-nested fallback (``thread-mapped`` / ``flat``) and the responses
   carry ``degraded=True``; otherwise the responses are ``failed`` with
   the last error as the reason.

Everything observable lands in ``stats()``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.params import TemplateParams
from repro.core.plancache import cache_stats
from repro.errors import ServiceError
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.executor import resolve_engine
from repro.service.admission import PriorityClassQueue
from repro.service.batcher import Batch, coalesce
from repro.service.metrics import ServiceStats
from repro.service.request import (
    DEGRADE_FALLBACK,
    PRIORITIES,
    PRIORITY_RANK,
    Request,
    Response,
)
from repro.service.streams import WorkloadStream
from repro.service.workers import (
    BatchSpec,
    execute_batch,
    execute_batch_fused,
)

__all__ = ["ServiceConfig", "TemplateService"]


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`TemplateService`."""

    #: admission bound: in-flight requests beyond this are rejected
    max_pending: int = 256
    #: most requests one collection window may gather
    max_batch: int = 16
    #: how long the batch loop waits for co-travellers (seconds)
    batch_window_s: float = 0.002
    #: per-attempt execution timeout (None = unbounded)
    request_timeout_s: float | None = 30.0
    #: retries after the first failed attempt
    max_retries: int = 2
    #: base backoff between attempts (doubles per retry)
    retry_backoff_s: float = 0.05
    #: fall back to thread-mapped/flat when a dynamic-parallelism
    #: template keeps failing
    degrade: bool = True
    #: default executor engine for requests that don't specify one
    engine: str = "fast"
    #: execution model every batch runs on: ``"sim"`` (bulk-synchronous,
    #: the default) or ``"queue"`` (persistent task queues — single
    #: device; queue-incompatible templates are routed back to sim and
    #: counted, see docs/taskqueue.md)
    backend: str = "sim"
    #: fuse the sim batches of one scheduling window — different
    #: fingerprints, same device/engine — into a single executor pass
    #: (``execute_fused``) instead of one event loop each; results are
    #: bit-identical, only wall time changes (see docs/performance.md)
    fuse_batches: bool = True
    #: template used when ``submit`` is not given one: ``"auto"`` routes
    #: through the IR auto-select pipeline (see ``docs/ir.md``); any
    #: canonical name pins every defaulted request to that template
    default_template: str = "auto"
    #: default simulated device
    device: DeviceConfig = field(default_factory=lambda: KEPLER_K20)
    #: simulated devices serving this process: 1 behaves exactly as the
    #: single-device service always has; N > 1 routes each coalesced
    #: batch to the least-loaded device of a
    #: :class:`~repro.backends.DeviceGroup` (see docs/architecture.md)
    devices: int = 1
    #: latency/batch-size window kept for percentile stats
    stats_window: int = 4096
    #: disk artifact cache of the serving process: None inherits the
    #: process default (REPRO_CACHE_DIR), "" disables it, a path enables it
    cache_dir: str | None = None
    #: bound on how long ``stop(drain=True)`` waits for in-flight work
    #: before answering stragglers with structured failures (None waits
    #: forever — the pre-bound behaviour)
    drain_timeout_s: float | None = 30.0
    # ------------------------------------------------- SLO / multi-tenant
    #: priority class stamped on requests that don't specify one
    default_priority: str = "normal"
    #: per-priority-class in-flight bounds, e.g. ``{"low": 64}``; classes
    #: absent from the dict are bounded only by ``max_pending``
    max_pending_per_class: dict | None = None
    #: max in-flight requests per tenant (None = unlimited); rejections
    #: are structured and counted as ``quota_rejected``
    tenant_quota: int | None = None
    #: per-tenant overrides of ``tenant_quota``, e.g. ``{"acme": 8}``
    tenant_quotas: dict | None = None
    #: deadline stamped on requests that don't carry one (seconds from
    #: admission; None = no implicit deadline)
    default_deadline_s: float | None = None
    #: shed batches whose deadline has passed (or provably cannot be met)
    #: instead of executing them; responses carry ``status="shed"``
    shed_deadlines: bool = True
    #: in-flight depth beyond which low-priority dynamic-parallelism
    #: batches are proactively degraded to their non-nested fallback
    #: (None disables overload degradation)
    degrade_pending_threshold: int | None = None
    # ------------------------------------------------------- autoscaling
    #: autoscale the device group between ``min_devices``/``max_devices``
    #: from queue-depth and rolling-p99 signals (see docs/serving.md)
    autoscale: bool = False
    #: autoscaler floor (defaults to ``devices``)
    min_devices: int | None = None
    #: autoscaler ceiling (defaults to ``devices``)
    max_devices: int | None = None
    #: seconds between autoscaler evaluations
    scale_check_interval_s: float = 0.05
    #: scale up when in-flight depth exceeds this many requests per device
    scale_up_pending_per_device: int = 8
    #: also scale up when rolling p99 latency (ms) exceeds this (None
    #: disables the latency trigger)
    scale_up_p99_ms: float | None = None
    #: minimum seconds between consecutive autoscaler resizes
    scale_cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ServiceError("max_pending must be >= 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if self.batch_window_s < 0:
            raise ServiceError("batch_window_s cannot be negative")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ServiceError(
                "request_timeout_s must be positive "
                "(None disables the timeout)"
            )
        if self.stats_window < 1:
            raise ServiceError("stats_window must be >= 1")
        if self.max_retries < 0:
            raise ServiceError("max_retries cannot be negative")
        if self.retry_backoff_s < 0:
            raise ServiceError("retry_backoff_s cannot be negative")
        if self.drain_timeout_s is not None and self.drain_timeout_s <= 0:
            raise ServiceError(
                "drain_timeout_s must be positive (None waits forever)"
            )
        resolve_engine(self.engine, error=ServiceError)
        from repro.backends import resolve_backend

        resolve_backend(self.backend, error=ServiceError)
        if self.devices < 1:
            raise ServiceError(f"devices must be >= 1, got {self.devices}")
        if self.backend == "queue" and self.devices > 1:
            raise ServiceError(
                "the queue backend is single-device; use devices=1"
            )
        if self.default_priority not in PRIORITY_RANK:
            raise ServiceError(
                f"unknown priority {self.default_priority!r}; "
                f"known: {', '.join(PRIORITIES)}"
            )
        for name, bound in (self.max_pending_per_class or {}).items():
            if name not in PRIORITY_RANK:
                raise ServiceError(
                    f"unknown priority {name!r} in max_pending_per_class; "
                    f"known: {', '.join(PRIORITIES)}"
                )
            if bound < 1:
                raise ServiceError(
                    f"max_pending_per_class[{name!r}] must be >= 1"
                )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ServiceError("tenant_quota must be >= 1 (None disables it)")
        for tenant, quota in (self.tenant_quotas or {}).items():
            if quota < 1:
                raise ServiceError(
                    f"tenant_quotas[{tenant!r}] must be >= 1"
                )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServiceError("default_deadline_s must be positive")
        if self.degrade_pending_threshold is not None \
                and self.degrade_pending_threshold < 1:
            raise ServiceError("degrade_pending_threshold must be >= 1")
        if self.min_devices is None:
            self.min_devices = self.devices
        if self.max_devices is None:
            self.max_devices = max(self.devices, self.min_devices)
        if self.autoscale:
            if self.backend == "queue":
                raise ServiceError(
                    "the queue backend is single-device; autoscale needs sim"
                )
            if not 1 <= self.min_devices <= self.devices <= self.max_devices:
                raise ServiceError(
                    f"autoscale bounds must satisfy 1 <= min_devices "
                    f"({self.min_devices}) <= devices ({self.devices}) <= "
                    f"max_devices ({self.max_devices})"
                )
            if self.scale_check_interval_s <= 0:
                raise ServiceError("scale_check_interval_s must be positive")
            if self.scale_up_pending_per_device < 1:
                raise ServiceError(
                    "scale_up_pending_per_device must be >= 1"
                )
            if self.scale_cooldown_s < 0:
                raise ServiceError("scale_cooldown_s cannot be negative")

    def tenant_quota_of(self, tenant: str) -> int | None:
        """Effective in-flight quota of one tenant (None = unlimited)."""
        if self.tenant_quotas and tenant in self.tenant_quotas:
            return self.tenant_quotas[tenant]
        return self.tenant_quota


class TemplateService:
    """Async template-serving runtime (see module docstring).

    ``run_fn`` is injectable for fault testing: it replaces
    :func:`~repro.service.workers.execute_batch` for every batch, and a
    service given one never fuses windows.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        run_fn=None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.cache_dir is not None:
            from repro.core.artifactcache import configure_artifact_cache

            configure_artifact_cache(self.config.cache_dir or None)
        self.stats = ServiceStats(window=self.config.stats_window)
        #: device topology: None for the classic single-device service, a
        #: DeviceGroup tracking per-device load when devices > 1 (or when
        #: the autoscaler may grow past one device)
        self.device_group = None
        if self.config.devices > 1 or (
            self.config.autoscale and self.config.max_devices > 1
        ):
            from repro.backends import DeviceGroup

            self.device_group = DeviceGroup(
                self.config.device, self.config.devices,
                engine=self.config.engine,
            )
        #: None runs the module's execute_batch, looked up per call so a
        #: tracer that rebinds it observes every batch
        self._run_fn = run_fn
        #: window fusion, decided once here: fused passes need the default
        #: batch function and a single device
        self._fuse = (self.config.fuse_batches and run_fn is None
                      and self.device_group is None)
        self._queue: PriorityClassQueue | None = None
        self._loop_task: asyncio.Task | None = None
        self._scale_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._pending = 0
        #: in-flight requests per priority class / per tenant (admission
        #: bounds check these; decremented in _finish)
        self._class_pending = {name: 0 for name in PRIORITIES}
        self._tenant_pending: dict[str, int] = {}
        self._next_id = 0
        self._running = False
        #: named versioned workload streams (see register_workload)
        self._streams: dict[str, WorkloadStream] = {}

    @property
    def running(self) -> bool:
        return self._running

    @property
    def pending(self) -> int:
        """Admitted requests not yet answered."""
        return self._pending

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bring the batch loop up (idempotent)."""
        if self._running:
            return
        self._queue = PriorityClassQueue()
        self._running = True
        self._loop_task = asyncio.create_task(
            self._batch_loop(), name="repro-service-batch-loop"
        )
        if self.config.autoscale and self.device_group is not None:
            self._scale_task = asyncio.create_task(
                self._autoscale_loop(), name="repro-service-autoscaler"
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` wait for in-flight work first.

        The drain wait is bounded by ``drain_timeout_s``: a dispatch path
        that wedged (or a run_fn that never returns) cannot hang shutdown
        forever.  Whatever is still unanswered at the bound — queued or
        mid-dispatch — gets a structured ``rejected``/``failed`` response
        instead of a leaked future.
        """
        if not self._running:
            return
        self._running = False
        drain_timed_out = False
        if drain:
            loop = asyncio.get_running_loop()
            bound = self.config.drain_timeout_s
            deadline = None if bound is None else loop.time() + bound
            while self._pending:
                if deadline is not None and loop.time() >= deadline:
                    drain_timed_out = True
                    obs.instant("service.drain_timeout",
                                pending=self._pending)
                    break
                await asyncio.sleep(0.005)
        if self._scale_task is not None:
            self._scale_task.cancel()
            try:
                await self._scale_task
            except asyncio.CancelledError:
                pass
            self._scale_task = None
        self._loop_task.cancel()
        try:
            await self._loop_task
        except asyncio.CancelledError:
            pass
        if self._dispatch_tasks:
            if drain_timed_out:
                # the drain bound fired: whatever is wedged mid-dispatch
                # is cancelled, and the dispatch wrapper answers its
                # requests with structured failures
                for task in list(self._dispatch_tasks):
                    task.cancel()
            await asyncio.gather(*self._dispatch_tasks, return_exceptions=True)
        # anything still queued (stop(drain=False) or a timed-out drain)
        # gets a structured answer
        while self._queue is not None and not self._queue.empty():
            request, future = self._queue.get_nowait()
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="rejected",
                    template=str(getattr(request.template_obj, "name", "")),
                    workload=getattr(request.workload, "name", ""),
                    reason="service stopped before execution",
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    # ----------------------------------------------------------- streams
    def register_workload(
        self,
        name: str,
        workload,
        keep_versions: int = 8,
    ) -> WorkloadStream:
        """Register a named, versioned workload stream.

        Afterwards ``submit`` accepts the stream *name* in place of a
        workload object (optionally with ``version=`` to pin a retained
        snapshot), and :meth:`mutate_workload` advances the stream.
        """
        if not isinstance(name, str) or not name:
            raise ServiceError("stream name must be a non-empty string")
        if name in self._streams:
            raise ServiceError(f"workload stream {name!r} already registered")
        stream = WorkloadStream(name, workload, keep_versions=keep_versions)
        self._streams[name] = stream
        obs.instant("service.stream_register", stream=name,
                    version=stream.version)
        return stream

    def mutate_workload(self, name: str, batch, *,
                        warm_analysis: bool = True):
        """Apply one mutation batch to a registered stream.

        The new head is derived functionally — requests pinned to retained
        versions keep executing against their exact snapshots.  With
        ``warm_analysis`` (the default) the head's analysis is derived
        incrementally right here via :meth:`WorkloadAnalysis.apply_delta
        <repro.core.analysis.WorkloadAnalysis.apply_delta>`, so the next
        query on the new version pays a delta update, not a cold rebuild.
        Returns the :class:`~repro.core.mutation.MutationDelta`.
        """
        stream = self._stream_of(name)
        with obs.span("service.mutate", stream=name):
            delta = stream.mutate(batch)
        self.stats.record_mutation()
        if warm_analysis:
            from repro.core.analysis import get_analysis

            get_analysis(stream.head)
        return delta

    def _stream_of(self, name: str) -> WorkloadStream:
        stream = self._streams.get(name)
        if stream is None:
            known = ", ".join(sorted(self._streams)) or "none"
            raise ServiceError(
                f"unknown workload stream {name!r} (registered: {known})"
            )
        return stream

    # ---------------------------------------------------------- admission
    async def submit(
        self,
        template,
        workload=None,
        *,
        device: DeviceConfig | None = None,
        params: TemplateParams | None = None,
        engine: str | None = None,
        tenant: str = "",
        priority: str | None = None,
        deadline_s: float | None = None,
        version: int | None = None,
    ) -> Response:
        """Admit one query and await its response.

        ``template`` may be omitted by passing the workload alone
        (``submit(workload)``) or ``None`` — both fall back to the
        config's ``default_template`` (``"auto"`` unless overridden), so
        the service front door matches ``repro.run(workload)``.

        ``workload`` may be a registered stream name (a string), resolved
        to that stream's head — or, with ``version=``, to a pinned
        retained snapshot.  Snapshots are immutable, so a request admitted
        against version ``v`` executes against exactly ``v``'s trace even
        while the mutation stream advances.

        ``tenant``/``priority``/``deadline_s`` are the SLO knobs: tenant
        quotas and per-class bounds act at admission, the priority class
        orders scheduling, and the deadline arms deadline-aware shedding
        (defaults come from the config; see docs/serving.md).
        """
        if workload is None:
            template, workload = None, template
        if isinstance(workload, str):
            workload = self._stream_of(workload).get(version)
        elif version is not None:
            raise ServiceError(
                "version= requires a registered stream name as the workload"
            )
        request = Request(
            template=self.config.default_template if template is None else template,
            workload=workload,
            device=device or self.config.device,
            params=params or TemplateParams(),
            engine=engine or self.config.engine,
            backend=self.config.backend,
            tenant=tenant,
            priority=priority or self.config.default_priority,
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.default_deadline_s
            ),
        )
        return await self.submit_request(request)

    def _reject(self, request: Request, kind: str, reason: str) -> Response:
        """Build one structured admission rejection (counted by kind)."""
        self.stats.record_rejected(kind=kind, priority=request.priority)
        obs.instant("service.reject", kind=kind, pending=self._pending,
                    priority=request.priority)
        return Response(
            id=request.id,
            status="rejected",
            template=str(getattr(request.template_obj, "name", "")),
            workload=getattr(request.workload, "name", ""),
            reason=reason,
            priority=request.priority,
            tenant=request.tenant,
        )

    async def submit_request(self, request: Request) -> Response:
        """Admit an already-built :class:`Request` and await its response.

        Admission control is immediate: over ``max_pending`` in-flight
        requests — or over the request's class bound or its tenant's
        quota — the return value is a ``rejected`` response carrying the
        queue state in ``reason``; the caller is never blocked on a full
        queue.  Every response, rejections included, carries a real
        monotonic ``id``.
        """
        if not self._running:
            raise ServiceError("service is not running (call start())")
        # ids are assigned before any admission check so every structured
        # rejection is correlatable (no more id=-1 responses)
        request.id = self._next_id
        self._next_id += 1
        if self._pending >= self.config.max_pending:
            return self._reject(
                request, "pending",
                f"queue full: {self._pending} in-flight requests >= "
                f"max_pending={self.config.max_pending}",
            )
        class_bound = (self.config.max_pending_per_class or {}).get(
            request.priority
        )
        if class_bound is not None \
                and self._class_pending[request.priority] >= class_bound:
            return self._reject(
                request, "class",
                f"class full: {self._class_pending[request.priority]} "
                f"in-flight {request.priority!r} requests >= "
                f"max_pending_per_class[{request.priority!r}]={class_bound}",
            )
        quota = self.config.tenant_quota_of(request.tenant)
        if quota is not None \
                and self._tenant_pending.get(request.tenant, 0) >= quota:
            return self._reject(
                request, "tenant",
                f"tenant quota: {self._tenant_pending.get(request.tenant, 0)} "
                f"in-flight requests of tenant {request.tenant!r} >= "
                f"quota={quota}",
            )
        loop = asyncio.get_running_loop()
        request.created_s = loop.time()
        request.created_perf = time.perf_counter()
        if request.deadline_s is not None:
            request.deadline_at = request.created_s + request.deadline_s
        self._pending += 1
        self._class_pending[request.priority] += 1
        self._tenant_pending[request.tenant] = (
            self._tenant_pending.get(request.tenant, 0) + 1
        )
        self.stats.record_admitted(self._pending, priority=request.priority)
        future = loop.create_future()
        self._queue.put_nowait((request, future))
        return await future

    # ------------------------------------------------------ batching loop
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            pending = [await self._queue.get()]
            deadline = loop.time() + self.config.batch_window_s
            try:
                while len(pending) < self.config.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        pending.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # stop() cancelled us mid-window: hand collected-but-
                # undispatched requests back so the stop path answers
                # them instead of leaving their futures pending forever
                self._queue.requeue_front(pending)
                raise
            with obs.span("service.coalesce", pending=len(pending)):
                batches = coalesce(pending)
            singles, fused_groups = self._fusion_groups(batches)
            for batch in singles:
                task = asyncio.create_task(self._dispatch(batch))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)
            for group in fused_groups:
                task = asyncio.create_task(self._dispatch_fused(group))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)

    def _fusion_groups(
        self, batches: list[Batch]
    ) -> tuple[list[Batch], list[list[Batch]]]:
        """Partition a window's batches into per-batch dispatches and
        fusable groups.

        A group fuses when >= 2 ``"sim"`` batches of the window share a
        device config and engine — they become one fused executor pass
        with per-batch result demux.  Everything else (queue backend,
        device groups, custom run_fn, fusion disabled) keeps the classic
        one-dispatch-per-batch path, bit-for-bit.
        """
        if not self._fuse:
            return batches, []
        singles: list[Batch] = []
        groups: dict[tuple, list[Batch]] = {}
        for batch in batches:
            if batch.spec.backend != "sim":
                singles.append(batch)
                continue
            key = (batch.spec.device.fingerprint(), batch.spec.engine)
            groups.setdefault(key, []).append(batch)
        fused = []
        for members in groups.values():
            if len(members) >= 2:
                fused.append(members)
            else:
                singles.extend(members)
        return singles, fused

    # -------------------------------------------------- execution policy
    async def _execute(self, spec: BatchSpec) -> dict:
        """One attempt on a worker thread.  On timeout the thread cannot
        be stopped: it runs on detached and its result is dropped."""
        run_fn = self._run_fn or execute_batch
        return await asyncio.wait_for(
            asyncio.to_thread(run_fn, spec), self.config.request_timeout_s
        )

    async def _dispatch(self, batch: Batch, record: bool = True) -> None:
        """Leak-proof dispatch: every member future is always answered.

        The policy body (`_dispatch_batch`) can fail in ways retries do
        not model — a run_fn returning a malformed summary, a bug in the
        degradation path, cancellation by a timed-out drain.  Before this
        wrapper existed, such a failure killed the dispatch task with
        member futures unanswered and ``_pending`` never decremented, so
        ``stop(drain=True)`` spun forever.  Now any escaping exception is
        converted into structured ``failed`` responses for every member
        not already answered.
        """
        try:
            await self._dispatch_batch(batch, record=record)
        except asyncio.CancelledError:
            self._fail_unanswered(batch, "cancelled during dispatch")
            raise
        except BaseException as exc:  # noqa: BLE001 - lifecycle boundary
            obs.instant("service.dispatch_error",
                        error=f"{type(exc).__name__}: {exc}")
            self._fail_unanswered(
                batch, f"dispatch error: {type(exc).__name__}: {exc}"
            )

    async def _dispatch_fused(self, batches: list[Batch]) -> None:
        """Execute one fusable group as a single fused executor pass.

        Per-batch policy (shed, overload degradation) still applies
        before fusion.  Any failure of the fused pass — a timeout, a bad
        template, an execution error — falls back to dispatching each batch
        through the classic per-batch path (which carries its own retry /
        degradation policy), so fusion can never make a request fail that
        would have succeeded unfused.  Leak-proof like :meth:`_dispatch`:
        every member future is always answered.
        """
        try:
            await self._dispatch_fused_inner(batches)
        except asyncio.CancelledError:
            for batch in batches:
                self._fail_unanswered(batch, "cancelled during dispatch")
            raise
        except BaseException as exc:  # noqa: BLE001 - lifecycle boundary
            obs.instant("service.dispatch_error",
                        error=f"{type(exc).__name__}: {exc}")
            for batch in batches:
                self._fail_unanswered(
                    batch, f"dispatch error: {type(exc).__name__}: {exc}"
                )

    async def _dispatch_fused_inner(self, batches: list[Batch]) -> None:
        live: list[Batch] = []
        for batch in batches:
            self.stats.record_batch(batch.size)
            shed_reason = self._should_shed(batch)
            if shed_reason is not None:
                self._shed(batch, shed_reason)
                continue
            self._maybe_degrade_for_load(batch)
            live.append(batch)
        if not live:
            return
        if len(live) == 1:
            # policy dropped the group to one batch: nothing to fuse
            await self._dispatch_batch(live[0], record=False)
            return
        specs = [batch.spec for batch in live]
        try:
            exec_start = time.perf_counter()
            with obs.span("service.execute_fused", batches=len(live),
                          size=sum(b.size for b in live)):
                summaries = await asyncio.wait_for(
                    asyncio.to_thread(execute_batch_fused, specs),
                    self.config.request_timeout_s,
                )
            self.stats.record_exec(time.perf_counter() - exec_start)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - policy boundary
            # the fused pass failed as a unit; re-dispatch each batch on
            # the classic path so per-batch retries/degradation apply
            obs.instant("service.fuse_fallback", batches=len(live),
                        error=f"{type(exc).__name__}: {exc}")
            for batch in live:
                await self._dispatch(batch, record=False)
            return
        self.stats.record_fused(len(live))
        obs.add_counter("service.fused_batches", len(live))
        for batch, summary in zip(live, summaries):
            self.stats.record_cache(
                summary.get("cache_hits", 0), summary.get("cache_misses", 0)
            )
            self._answer_ok(
                batch, summary, attempts=1,
                degraded=getattr(batch, "_load_degraded", False),
                device_index=0,
            )

    def _answer_ok(self, batch: Batch, summary: dict, *, attempts: int,
                   degraded: bool, device_index: int) -> None:
        """Answer every member of ``batch`` from one execution summary."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        for request, future in zip(batch.requests, batch.futures):
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="ok",
                    template=summary["template"],
                    workload=summary["workload"],
                    degraded=degraded,
                    time_ms=summary["time_ms"],
                    metrics=summary["metrics"],
                    latency_s=now - request.created_s,
                    batch_size=batch.size,
                    attempts=attempts,
                    cache_hit=summary.get("cache_hits", 0) > 0,
                    device=device_index,
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    def _fail_unanswered(self, batch: Batch, reason: str) -> None:
        """Answer (and un-count) every batch member not yet finished."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        for request, future in zip(batch.requests, batch.futures):
            if getattr(request, "_answered", False):
                continue
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="failed",
                    template=str(getattr(request.template_obj, "name", "")),
                    workload=getattr(request.workload, "name", ""),
                    reason=reason,
                    latency_s=now - request.created_s,
                    batch_size=batch.size,
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    def _shed(self, batch: Batch, reason: str) -> None:
        """Answer every member with ``status="shed"`` (deadline missed)."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        obs.instant("service.shed", size=batch.size,
                    priority=batch.priority, reason=reason)
        for request, future in zip(batch.requests, batch.futures):
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="shed",
                    template=str(getattr(request.template_obj, "name", "")),
                    workload=getattr(request.workload, "name", ""),
                    reason=reason,
                    latency_s=now - request.created_s,
                    batch_size=batch.size,
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    def _should_shed(self, batch: Batch) -> str | None:
        """Deadline-aware scheduling: reason to shed, or None to run.

        A batch is shed when its tightest member deadline already passed,
        or when the rolling mean execution time predicts the run cannot
        finish before it.  Predictive shedding drops work *before* paying
        for it — the paper's admission analogue of cutting a kernel whose
        launch latency alone would blow the budget.
        """
        if not self.config.shed_deadlines:
            return None
        deadline_at = batch.deadline_at
        if deadline_at is None:
            return None
        now = asyncio.get_running_loop().time()
        if now >= deadline_at:
            return "deadline expired before execution"
        mean = self.stats.mean_exec_s()
        if mean > 0.0 and now + mean > deadline_at:
            return (
                f"deadline unreachable: {deadline_at - now:.4f}s left, "
                f"mean execution {mean:.4f}s"
            )
        return None

    def _maybe_degrade_for_load(self, batch: Batch) -> bool:
        """Overload policy: degrade low-priority dynpar batches up front.

        When the in-flight depth crosses ``degrade_pending_threshold``,
        a ``low``-priority batch whose template uses dynamic parallelism
        is rewritten to the family's non-nested fallback *before*
        execution — trading its fidelity for queue headroom, without
        touching high/normal traffic.
        """
        if getattr(batch, "_load_degraded", False):
            # already rewritten (a fused pass that fell back re-dispatches
            # its batches); don't double-count or re-replace
            return True
        threshold = self.config.degrade_pending_threshold
        if threshold is None or self._pending < threshold:
            return False
        if batch.priority != "low":
            return False
        template_obj = batch.requests[0].template_obj
        if not getattr(template_obj, "uses_dynamic_parallelism", False):
            return False
        fallback = DEGRADE_FALLBACK[batch.requests[0].kind]
        batch.spec = replace(batch.spec, template=fallback)
        batch._load_degraded = True
        self.stats.record_degraded(priority=batch.priority, under_load=True)
        obs.instant("service.load_degrade", fallback=fallback,
                    pending=self._pending, size=batch.size)
        return True

    async def _dispatch_batch(self, batch: Batch, record: bool = True) -> None:
        if record:
            self.stats.record_batch(batch.size)
        shed_reason = self._should_shed(batch)
        if shed_reason is not None:
            self._shed(batch, shed_reason)
            return
        load_degraded = self._maybe_degrade_for_load(batch)
        if batch.spec.backend == "queue" and not getattr(
            batch.requests[0].template_obj, "queue_compatible", True
        ):
            # capability-aware routing: the queue cannot honour this
            # template's launch-wide barrier semantics, so the batch runs
            # on the BSP simulator instead (counted, never silent)
            batch.spec = replace(batch.spec, backend="sim")
            self.stats.record_queue_fallback()
            obs.instant(
                "service.queue_fallback",
                template=str(getattr(batch.requests[0].template_obj,
                                     "name", "")),
            )
        summary = None
        error: BaseException | None = None
        degraded = False
        attempts = 0
        device_index = 0
        if self.device_group is not None:
            # least-loaded routing: reserve a device for this batch; the
            # reservation is released (crediting the simulated time the
            # batch ran) after execution settles
            device_index = self.device_group.acquire()
            batch.spec.device_index = device_index
        template_name = str(getattr(batch.requests[0].template_obj, "name", ""))
        with obs.span("service.batch", size=batch.size,
                      template=template_name, device=device_index):
            for attempt in range(1 + self.config.max_retries):
                attempts += 1
                try:
                    exec_start = time.perf_counter()
                    with obs.span("service.execute", attempt=attempts,
                                  template=template_name):
                        summary = await self._execute(batch.spec)
                    self.stats.record_exec(time.perf_counter() - exec_start)
                    break
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - policy boundary
                    error = exc
                    if attempt < self.config.max_retries:
                        self.stats.record_retry(
                            isinstance(exc, asyncio.TimeoutError)
                        )
                        await asyncio.sleep(
                            self.config.retry_backoff_s * (2 ** attempt)
                        )
            template_obj = batch.requests[0].template_obj
            if (
                summary is None
                and self.config.degrade
                and getattr(template_obj, "uses_dynamic_parallelism", False)
            ):
                fallback = DEGRADE_FALLBACK[batch.requests[0].kind]
                try:
                    with obs.span("service.degrade", fallback=fallback,
                                  template=template_name):
                        summary = await self._execute(
                            replace(batch.spec, template=fallback)
                        )
                    degraded = True
                    self.stats.record_degraded(priority=batch.priority)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 - policy boundary
                    error = exc
        if self.device_group is not None:
            self.device_group.complete(
                device_index,
                busy_ms=summary["time_ms"] if summary is not None else 0.0,
            )
        if summary is not None:
            self.stats.record_cache(
                summary.get("cache_hits", 0), summary.get("cache_misses", 0)
            )
        if summary is not None:
            self._answer_ok(
                batch, summary, attempts=attempts + (1 if degraded else 0),
                degraded=degraded or load_degraded, device_index=device_index,
            )
            return
        now = asyncio.get_running_loop().time()
        for request, future in zip(batch.requests, batch.futures):
            self._finish(
                request,
                future,
                Response(
                    id=request.id,
                    status="failed",
                    template=str(getattr(template_obj, "name", "")),
                    workload=getattr(request.workload, "name", ""),
                    reason=f"{type(error).__name__}: {error}",
                    latency_s=now - request.created_s,
                    batch_size=batch.size,
                    attempts=attempts,
                    priority=request.priority,
                    tenant=request.tenant,
                ),
            )

    def _finish(self, request: Request, future, response: Response) -> None:
        if getattr(request, "_answered", False):
            return
        request._answered = True
        self._pending -= 1
        self._class_pending[request.priority] -= 1
        tenant_left = self._tenant_pending.get(request.tenant, 0) - 1
        if tenant_left > 0:
            self._tenant_pending[request.tenant] = tenant_left
        else:
            self._tenant_pending.pop(request.tenant, None)
        self.stats.record_depth(self._pending)
        self.stats.record_response(
            response.status, response.latency_s, priority=request.priority
        )
        if obs.enabled() and request.created_perf:
            now = time.perf_counter()
            obs.complete(
                "service.request", request.created_perf,
                now - request.created_perf, status=response.status,
                template=response.template, batch_size=response.batch_size,
                degraded=response.degraded,
            )
        if not future.done():
            future.set_result(response)

    # ------------------------------------------------------- autoscaling
    async def _autoscale_loop(self) -> None:
        """Elastic device-group sizing from queue-depth and p99 signals.

        Scale **up** when the in-flight depth exceeds
        ``scale_up_pending_per_device`` per device (or rolling p99 crosses
        ``scale_up_p99_ms``); scale **down** when depth would comfortably
        fit on one device fewer and latency is healthy.  Resizes respect
        ``min_devices``/``max_devices`` and a cooldown, and the group only
        ever removes an idle member, so a device with in-flight batches is
        never torn down (see DeviceGroup.remove_member).
        """
        loop = asyncio.get_running_loop()
        last_change = loop.time() - self.config.scale_cooldown_s
        while True:
            await asyncio.sleep(self.config.scale_check_interval_s)
            now = loop.time()
            if now - last_change < self.config.scale_cooldown_s:
                continue
            n = self.device_group.n_devices
            p99 = self.stats.rolling_p99_ms()
            overloaded = (
                self._pending >= self.config.scale_up_pending_per_device * n
            )
            if not overloaded and self.config.scale_up_p99_ms is not None:
                overloaded = p99 > self.config.scale_up_p99_ms
            if overloaded and n < self.config.max_devices:
                self.device_group.add_member()
                self.stats.record_scale(up=True)
                obs.instant("service.scale_up", devices=n + 1,
                            pending=self._pending)
                last_change = now
                continue
            if n > self.config.min_devices:
                fits_smaller = self._pending * 2 <= (
                    self.config.scale_up_pending_per_device * (n - 1)
                )
                latency_ok = (
                    self.config.scale_up_p99_ms is None
                    or p99 <= self.config.scale_up_p99_ms
                )
                if fits_smaller and latency_ok \
                        and self.device_group.remove_member():
                    self.stats.record_scale(up=False)
                    obs.instant("service.scale_down", devices=n - 1,
                                pending=self._pending)
                    last_change = now

    # ----------------------------------------------------------- metrics
    def snapshot(self) -> dict:
        """Every service counter in one dict (``stats()`` on handles)."""
        snap = self.stats.snapshot()
        # no batch leaves the process; perfbench/bench.py still reads this
        snap["pool"] = {"submitted": 0}
        snap["caches"] = cache_stats()
        if obs.enabled():
            # aggregated per-span-name timings of the traced region; the
            # tracer is process-wide, so concurrent traced work outside
            # this service shows up too
            snap["obs"] = obs.summary()
        if self.device_group is not None:
            snap["devices"] = self.device_group.snapshot()
        if self._queue is not None:
            snap["queue"] = {"per_class": self._queue.sizes()}
        if self._streams:
            snap["streams"] = {
                name: stream.snapshot()
                for name, stream in self._streams.items()
            }
        snap["config"] = {
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
            "batch_window_s": self.config.batch_window_s,
            "engine": self.config.engine,
            "backend": self.config.backend,
            "devices": self.config.devices,
            "default_priority": self.config.default_priority,
            "tenant_quota": self.config.tenant_quota,
            "default_deadline_s": self.config.default_deadline_s,
            "shed_deadlines": self.config.shed_deadlines,
            "degrade_pending_threshold":
                self.config.degrade_pending_threshold,
            "autoscale": self.config.autoscale,
            "min_devices": self.config.min_devices,
            "max_devices": self.config.max_devices,
            "drain_timeout_s": self.config.drain_timeout_s,
        }
        return snap
