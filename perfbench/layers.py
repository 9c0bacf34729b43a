"""The layer entry points the traced run wraps, and what it observes.

Each entry point is wrapped where the program looks it up: methods on
their classes, module functions at every module that imported them by
name (``core/base.py`` and ``ir/select.py`` each bind ``get_analysis``,
for example).  ``Tracer.unwrapped_sites`` re-checks the binding after
the run, so a site this table misses fails the run instead of silently
moving its time into the calling layer.
"""

from __future__ import annotations

import inspect


def _template_classes():
    from repro.core.base import NestedLoopTemplate
    from repro.core.recursive import _TreeTemplateBase

    seen, todo = [], [NestedLoopTemplate, _TreeTemplateBase]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer) -> None:
    """Wrap every layer entry point of the program with ``tracer``."""
    import repro.apps as apps
    import repro.core.analysis as analysis
    import repro.core.mutation as mutation
    import repro.gpusim.executor as executor
    import repro.gpusim.profiler as profiler
    import repro.graphs.generators as generators
    import repro.ir.select as select
    import repro.service.workers as workers
    import repro.trees.generator as tree_generator
    from repro.core.plancache import PlanCache
    from repro.service.handle import ServiceHandle
    from repro.service.service import TemplateService

    values = tracer.values

    # apps, with the graph and tree generators
    for name in apps.__all__:
        cls = getattr(apps, name)
        if inspect.isclass(cls):
            for attr in ("workload", "run"):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, "apps", f"{name}.{attr}")
    for name, fn in list(vars(generators).items()):
        if inspect.isfunction(fn) and fn.__module__ == generators.__name__ \
                and not name.startswith("_"):
            tracer.patch_function(generators, name, "apps", name)
    tracer.patch_function(tree_generator, "generate_tree", "apps",
                          "generate_tree")

    # core.analysis
    tracer.patch_function(analysis, "get_analysis", "core.analysis",
                          "get_analysis")
    tracer.patch_function(analysis, "get_tree_analysis", "core.analysis",
                          "get_tree_analysis")
    tracer.patch_method(analysis.WorkloadAnalysis, "apply_delta",
                        "core.analysis", "apply_delta")

    # ir.select; _select runs only on a selection-cache miss
    tracer.patch_function(select, "auto_select", "ir.select", "auto_select")
    tracer.patch_function(
        select, "_select", "ir.select", "select_miss",
        observe=lambda sel, _: values["race_candidates"].append(
            len(sel.raced)),
    )

    # core.templates: plan construction through specialize
    for cls in _template_classes():
        if "specialize" in cls.__dict__:
            tracer.patch_method(cls, "specialize", "core.templates",
                                "specialize")

    # core.plancache
    tracer.patch_method(PlanCache, "get", "core.plancache", "plancache.get")
    tracer.patch_method(PlanCache, "put", "core.plancache", "plancache.put")

    # gpusim.executor
    def one(result, _):
        values["executions"].append(
            (1, result.n_launches, result.time_ms))

    def many(results, _):
        values["executions"].append(
            (len(results), sum(r.n_launches for r in results),
             sum(r.time_ms for r in results)))

    tracer.patch_method(executor.GpuExecutor, "run", "gpusim.executor",
                        "executor.run", observe=one)
    tracer.patch_method(executor.GpuExecutor, "run_many", "gpusim.executor",
                        "executor.run_many", observe=many)
    tracer.patch_function(executor, "execute_fused", "gpusim.executor",
                          "execute_fused")

    # gpusim.profiler
    tracer.patch_function(
        profiler, "profile", "gpusim.profiler", "profile",
        observe=lambda m, _: values["profiles"].append(
            (m.kernel_calls, m.warp_execution_efficiency, m.time_ms)),
    )

    # service: the client call blocks on the loop thread, so it is a wait
    tracer.patch_method(ServiceHandle, "mutate_workload", "service",
                        "handle.mutate_workload", wait=True)
    tracer.patch_method(TemplateService, "mutate_workload", "service",
                        "service.mutate_workload")
    tracer.patch_function(workers, "execute_batch", "service",
                          "execute_batch")
    tracer.patch_function(workers, "execute_batch_fused", "service",
                          "execute_batch_fused")

    # core.mutation
    tracer.patch_function(mutation, "apply_batch", "core.mutation",
                          "apply_batch")
