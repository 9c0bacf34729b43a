"""One benchmark run in a fresh interpreter (``run.py`` starts it).

A run has three phases on one input regime (see ``workloads.py``):

``paper_sweep``
    a cold, single-process, fast-engine regeneration of the regime's
    paper figures through the experiment registry;
``front_door``
    ``repro.run(workload)`` (template ``"auto"``) once cold and then
    repeated warm on each of a seeded sequence of distinct workloads;
``serve_stream``
    one ``repro.serve()`` with three registered streams, driven open loop
    by ``loadgen.drive``: reads at a fixed rate, one write a second.

The phases are cut into parts that alternate over the run (see
``Pass.run``).

Every part starts with cold in-process caches and the disk artifact
cache disabled.  After the timed phases the outputs are checked: a fixed
sample is re-run on the exact engine with cold caches (max_rel_diff must
be 0.0), every serve answer must equal ``repro.run`` on the same stream
version, and with ``--trace 1`` the traced pass must reproduce the
untraced pass's outputs exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {where}, not from {SRC}")
    import repro.bench.experiments  # noqa: F401  (registers the figures)


# ----------------------------------------------------------- hygiene
def hygiene() -> dict:
    """Disable the disk artifact cache and pin the engine; returns the
    state recorded in the run's output."""
    from repro import obs
    from repro.core.artifactcache import (
        configure_artifact_cache,
        get_artifact_cache,
    )
    from repro.gpusim.executor import set_default_engine

    # the disk cache keys carry no code identity, so a warm directory
    # would time and check a different program
    os.environ.pop("REPRO_CACHE_DIR", None)
    configure_artifact_cache(None)
    if get_artifact_cache() is not None:
        raise SystemExit("disk artifact cache could not be disabled")
    # repro.obs changes the measured path (it skips the run tier)
    if obs.enabled():
        raise SystemExit("repro.obs must stay off")
    set_default_engine("fast")
    return {"engine": "fast", "disk_cache": "disabled",
            "memory_caches": "cleared before every phase", "obs": "off"}


def cold_caches() -> None:
    """Drop every in-process cache entry (counters keep counting)."""
    from repro.core.analysis import clear_analysis_cache
    from repro.core.mapping import clear_phase_memo
    from repro.core.plancache import default_cache
    from repro.core.sharding import clear_shard_cache
    from repro.gpusim.occupancy import _occupancy_impl
    from repro.ir.select import clear_selection_cache

    default_cache().clear()
    clear_analysis_cache()
    clear_selection_cache()
    clear_phase_memo()
    clear_shard_cache()
    _occupancy_impl.cache_clear()


def counters() -> dict:
    from repro.core.analysis import analysis_stats
    from repro.core.plancache import default_cache

    stats = default_cache().stats
    return {"analysis": analysis_stats(),
            "plan": {"hits": stats.hits, "misses": stats.misses}}


# ----------------------------------------------------------- helpers
def _flat(prefix: str, value, out: dict) -> None:
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        for key in sorted(value):
            _flat(f"{prefix}.{key}", value[key], out)
    else:
        out[prefix] = value


def summarize(run) -> dict:
    """What a front-door caller sees of one run, flattened."""
    out: dict = {"template": run.template}
    _flat("params", run.params, out)
    _flat("metrics", run.metrics.as_dict(), out)
    _flat("counters", run.result.counters, out)
    out["cycles"] = run.result.cycles
    out["time_ms"] = run.time_ms
    return out


def max_rel_diff(a: dict, b: dict) -> float:
    """Largest relative difference over the numeric fields; inf when the
    keys or any non-numeric field differ."""
    if a.keys() != b.keys():
        return float("inf")
    worst = 0.0
    for key, x in a.items():
        y = b[key]
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and not isinstance(x, bool):
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        elif x != y:
            return float("inf")
    return worst


def _table_cells(tables) -> dict:
    out = {}
    for t, table in enumerate(tables):
        for r, row in enumerate(table.rows):
            for c, cell in enumerate(row):
                out[f"{t}.{r}.{table.columns[c]}"] = cell
    return out


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------- one pass
#: warm front-door calls made after each cold call
WARM_PER_COLD = 8


class Pass:
    """The three timed phases on one set of inputs."""

    def __init__(self, regime: str, seed: int, seconds: float, inputs,
                 tracer=None) -> None:
        import workloads

        self.regime = regime
        self.spec = workloads.REGIMES[regime]
        self.seed = seed
        self.seconds = seconds
        self.inputs = inputs
        self.tracer = tracer
        #: phase windows
        self.windows: dict[str, tuple[float, float]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.outputs: dict = {}
        self.timings: dict = {}
        #: tracer value counts at the start and end of each serve part
        self.marks: list[tuple[dict, dict]] = []
        #: the sweep runs twice; the serve window is cut into parts, one
        #: between each two figure runs, and a front-door slice runs
        #: before and after each step
        figures = [(fig, repeat) for repeat in (False, True)
                   for fig in self.spec.figures]
        self.serve_parts = len(figures) - 1
        self.steps = [(self.figure, *figures[0])]
        for part, (fig, repeat) in enumerate(figures[1:]):
            self.steps += [(self.serve, part), (self.figure, fig, repeat)]
        self.slices = len(self.steps) + 1

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("bench", name):
                    yield
        finally:
            self.windows[name] = (start, time.perf_counter())

    def run(self) -> None:
        import numpy as np

        import loadgen
        import workloads

        self.counters0 = counters()
        inputs = self.inputs
        self.ops = loadgen.schedule(
            list(inputs.streams), inputs.writes,
            workloads.SERVE_SHARE * self.seconds, workloads.READ_RATE,
            workloads.WRITE_PERIOD_S, np.random.default_rng([self.seed, 5]),
        )
        self.base = {name: wl.version for name, wl in inputs.streams.items()}
        self.late_s_max = 0.0
        try:
            # the host's speed drifts over seconds: front-door slices,
            # sweep figures and serve parts alternate, so that each metric
            # samples many moments of the run
            self.front_door(0)
            for part, (step, *args) in enumerate(self.steps, 1):
                step(*args)
                self.front_door(part)
            self.serve_done()
        finally:
            inputs.handle.close()
        self.counters1 = counters()

    # ------------------------------------------------------- phases
    def figure(self, fig: str, repeat: bool) -> None:
        """Regenerate one paper figure cold; the repeat must reproduce it."""
        from repro.bench.registry import ExperimentConfig, get_experiment

        cold_caches()
        config = ExperimentConfig(scale=self.spec.sweep_scale, seed=self.seed)
        start = time.perf_counter()
        with self.phase(f"paper_sweep_{fig}" + ("_repeat" if repeat else "")):
            cells = _table_cells(get_experiment(fig).run(config))
        self.timings.setdefault("figures_s", {}).setdefault(fig, []).append(
            time.perf_counter() - start)
        self.attempted += 1
        rows = self.outputs.setdefault("sweep", {})
        if fig not in rows:
            rows[fig] = cells
        elif cells != rows[fig]:
            self.failures.append(f"paper_sweep: the repeat regenerated "
                                 f"a different {fig}")

    def front_door(self, part: int) -> None:
        import repro

        cold_caches()
        cold = self.timings.setdefault("cold_s", [])
        warm = self.timings.setdefault("warm_s", [])
        outputs = self.outputs.setdefault("front_door", {})
        wls = self.inputs.front_door
        called, next_warm = [], 0
        with self.phase(f"front_door_{part + 1}"):
            for i in range(part, len(wls), self.slices):
                wl = wls[i]
                start = time.perf_counter()
                run = repro.run(wl)
                cold.append(time.perf_counter() - start)
                outputs[i] = summarize(run)
                self.attempted += 1
                called.append(i)
                # warm calls cycle over the workloads called so far, a
                # fixed number after each cold call, so that they spread
                # evenly over the slice: the host's speed drifts over
                # seconds
                for k in range(WARM_PER_COLD):
                    j = called[(next_warm + k) % len(called)]
                    start = time.perf_counter()
                    again = repro.run(wls[j])
                    warm.append(time.perf_counter() - start)
                    if summarize(again) != outputs[j]:
                        self.failures.append(f"front_door[{j}]: warm call "
                                             "differs from the cold call")
                    self.attempted += 1
                next_warm += WARM_PER_COLD

    def serve(self, part: int) -> None:
        """One part of the serve window: the ops due in it, sent on their
        schedule (due times are relative to the part's start)."""
        import loadgen
        import workloads

        cold_caches()
        inputs, handle = self.inputs, self.inputs.handle
        width = workloads.SERVE_SHARE * self.seconds / self.serve_parts
        ops = [op for op in self.ops
               if part * width <= op.due < (part + 1) * width]
        for op in ops:
            op.due -= part * width
        with self.phase(f"serve_stream_{part + 1}"):
            start = self._value_counts()
            with self._loop_traced(handle):
                # the first query on a stream pays a one-off cold race;
                # answer it before the part so the part is steady
                for name in inputs.streams:
                    if not handle.request(name).ok:
                        self.failures.append(f"serve_stream: warm-up "
                                             f"query on {name} failed")
                gen = loadgen.drive(handle, ops, self.base, self.tracer)
            self.marks.append((start, self._value_counts()))
        self.late_s_max = max(self.late_s_max, gen["late_s_max"])

    def serve_done(self) -> None:
        """Check the serve parts' ops once all have run."""
        import loadgen

        stats = self.inputs.handle.stats()
        if self.late_s_max > loadgen.MAX_LATE_S:
            self.failures.append(
                f"serve_stream: generator fell {self.late_s_max:.2f}s "
                "behind its schedule")
        if stats["pool"]["submitted"]:
            self.failures.append("serve_stream: a batch left the process")
        self.attempted += len(self.ops)
        self.service_stats = stats
        answers = []
        for op in self.ops:
            r = op.response
            ok = op.error is None and r is not None and r.ok and op.done
            if not ok:
                self.failures.append(
                    f"serve_stream: {op.kind} on {op.stream} failed: "
                    f"{op.error or getattr(r, 'status', 'no answer')}")
            answers.append((op.kind, op.stream, op.version,
                            r.template if ok else None,
                            r.time_ms if ok else None,
                            r.metrics if ok else None))
        self.outputs["serve"] = answers

    def _value_counts(self) -> dict:
        if self.tracer is None:
            return {}
        return {k: len(v) for k, v in self.tracer.values.items()}

    def outside_serve(self, key: str) -> list:
        """Observations of ``key`` made outside the serve parts, whose
        batching depends on timing; the rest repeat exactly for a seed."""
        values, out, prev = self.tracer.values[key], [], 0
        for start, end in self.marks:
            lo = start.get(key, 0)
            out += values[prev:lo]
            prev = end.get(key, lo)
        return out + values[prev:]

    @contextlib.contextmanager
    def _loop_traced(self, handle):
        """While tracing: span the service loop thread's own work and mark
        its ``select`` waits idle, from callbacks run on that thread."""
        if self.tracer is None:
            yield
            return
        tracer, loop = self.tracer, handle._loop
        selector = loop._selector
        state = {}

        def on_loop(fn):
            done = threading.Event()

            def callback():
                try:
                    fn()
                finally:
                    done.set()

            loop.call_soon_threadsafe(callback)
            if not done.wait(10):
                raise RuntimeError("service loop did not run a callback")

        def attach():
            selector.select = tracer.wrap(selector.select, "idle",
                                          "loop.select")
            state["root"] = tracer.open("service", "service.loop")

        def detach():
            tracer.close(state["root"])
            del selector.select

        on_loop(attach)
        try:
            yield
        finally:
            on_loop(detach)

    # ------------------------------------------------------- checks
    def check(self) -> dict:
        """Output checks of the untraced pass; returns their summary."""
        import repro
        from repro.bench.registry import ExperimentConfig, get_experiment
        from repro.gpusim.executor import set_default_engine

        import workloads

        inputs, worst = self.inputs, 0.0

        def compare(label, got, want):
            nonlocal worst
            diff = max_rel_diff(got, want)
            worst = max(worst, diff)
            if diff != 0.0:
                self.failures.append(f"{label}: max_rel_diff {diff:g}")

        # (b) every ok serve answer equals repro.run on the same version
        refs, torn = {}, 0
        for kind, stream, version, template, time_ms, metrics in \
                self.outputs["serve"]:
            if template is None:
                continue
            key = (stream, version)
            if key not in refs:
                refs[key] = repro.run(inputs.versions[stream][version])
            ref = refs[key]
            if (template, time_ms, metrics) != (
                    ref.template, ref.time_ms, ref.metrics.as_dict()):
                torn += 1
                self.failures.append(
                    f"serve_stream: {kind} answer on {stream} v{version} "
                    "differs from repro.run on that version")

        # (a) a fixed sample on the exact engine with cold caches
        set_default_engine("exact")
        try:
            cold_caches()
            fig = self.spec.exact_figure
            config = ExperimentConfig(scale=self.spec.sweep_scale,
                                      seed=self.seed)
            compare(f"exact {fig}",
                    _table_cells(get_experiment(fig).run(config)),
                    self.outputs["sweep"][fig])
            n = len(inputs.front_door)
            for i in sorted({round(k * (n - 1) / (workloads.EXACT_SAMPLE - 1))
                             for k in range(workloads.EXACT_SAMPLE)}):
                cold_caches()
                run = repro.run(inputs.front_door[i], engine="exact")
                compare(f"exact front_door[{i}]", summarize(run),
                        self.outputs["front_door"][i])
            writes = [a for a in self.outputs["serve"]
                      if a[0] == "write" and a[3] is not None]
            for kind, stream, version, template, time_ms, metrics in (
                    writes[:1] + writes[-1:]):
                cold_caches()
                run = repro.run(inputs.versions[stream][version],
                                engine="exact")
                got = {"template": template, "time_ms": time_ms}
                _flat("metrics", metrics, got)
                want = {"template": run.template, "time_ms": run.time_ms}
                _flat("metrics", run.metrics.as_dict(), want)
                compare(f"exact serve {stream} v{version}", got, want)
        finally:
            set_default_engine("fast")
        return {"max_rel_diff": worst, "torn_reads": torn,
                "versions_checked": len(refs)}

    # ------------------------------------------------------ metrics
    def end_to_end(self) -> dict:
        import workloads

        ms = 1e3
        reads = [op for op in self.ops if op.kind == "read"]
        lat = [(op.done - op.due) * ms for op in reads
               if op.response is not None and op.response.ok and op.done]
        good = sum(1 for v in lat if v <= workloads.GOODPUT_LIMIT_MS)
        updates = [(op.done - op.sent) * ms for op in self.ops
                   if op.kind == "write" and op.response is not None
                   and op.response.ok and op.done]
        cold = [v * ms for v in self.timings["cold_s"]]
        warm = [v * ms for v in self.timings["warm_s"]]
        nan = float("nan")
        return {
            "sweep_wall_s": statistics.median(
                map(sum, zip(*self.timings["figures_s"].values()))),
            "run_cold_ms_p50": percentile(cold, 50),
            "run_cold_ms_p75": percentile(cold, 75),
            # a mean, not a median: the host's speed shifts between modes
            # for seconds at a time, and a median of short calls jumps
            # from one mode to the other with the share of time in each
            "run_warm_ms_mean": statistics.fmean(warm),
            "run_warm_ms_p95": percentile(warm, 95),
            "serve_latency_ms_p50": percentile(lat, 50) if lat else nan,
            "serve_latency_ms_p95": percentile(lat, 95) if lat else nan,
            "serve_goodput_frac": good / len(reads),
            "update_to_answer_ms_p50":
                percentile(updates, 50) if updates else nan,
        }, {"cold_calls": len(cold), "warm_calls": len(warm),
            "reads": len(reads), "reads_ok": len(lat),
            "updates": len(updates)}

    def busy_s(self) -> float:
        """Wall of the closed-loop phases (the trace-overhead base)."""
        return sum(hi - lo for name, (lo, hi) in self.windows.items()
                   if name.startswith(("paper_sweep", "front_door")))


# ------------------------------------------------------- per-layer
def per_layer(traced: Pass, untraced: Pass, split: dict) -> dict:
    import spans

    tracer = traced.tracer
    counts, values = tracer.counts, tracer.values
    layers = split["layers"]
    a0, a1 = traced.counters0["analysis"], traced.counters1["analysis"]
    p0, p1 = traced.counters0["plan"], traced.counters1["plan"]

    def delta(key):
        return a1[key] - a0[key]

    def frac(num, den):
        return num / den if den else 0.0

    executions = values["executions"]
    profiles = traced.outside_serve("profiles")
    det_exec = traced.outside_serve("executions")
    launches = sum(e[1] for e in executions)
    auto_calls = counts["auto_select"]
    reads = [op for op in traced.ops if op.kind == "read"
             and op.response is not None and op.response.ok and op.done]
    in_service = [op.response.latency_s * 1e3 for op in reads]
    pre_admit = [(op.done - op.due) * 1e3 - op.response.latency_s * 1e3
                 for op in reads]
    batching = traced.service_stats["batching"]
    figures = traced.timings["figures_s"]
    out = {
        "apps.self_s": layers.get("apps", 0.0),
        "core.analysis.calls":
            counts["get_analysis"] + counts["get_tree_analysis"],
        "core.analysis.self_s": layers.get("core.analysis", 0.0),
        "core.analysis.hit_frac":
            frac(delta("hits"), delta("hits") + delta("misses")),
        "core.analysis.incremental_hits": delta("incremental_hits"),
        "core.analysis.delta_fallbacks": delta("delta_fallbacks"),
        "ir.select.calls": auto_calls,
        "ir.select.self_s": layers.get("ir.select", 0.0),
        "ir.select.hit_frac":
            frac(auto_calls - counts["select_miss"], auto_calls),
        "ir.select.race_candidates": sum(values["race_candidates"]),
        "core.templates.builds": counts["specialize"],
        "core.templates.self_s": layers.get("core.templates", 0.0),
        "core.plancache.self_s": layers.get("core.plancache", 0.0),
        "core.plancache.hit_frac": frac(
            p1["hits"] - p0["hits"],
            p1["hits"] - p0["hits"] + p1["misses"] - p0["misses"]),
        "gpusim.executor.calls":
            counts["executor.run"] + counts["executor.run_many"],
        "gpusim.executor.graphs": sum(e[0] for e in executions),
        "gpusim.executor.launches": launches,
        "gpusim.executor.self_s": layers.get("gpusim.executor", 0.0),
        "gpusim.executor.host_us_per_launch":
            frac(layers.get("gpusim.executor", 0.0) * 1e6, launches),
        "gpusim.profiler.calls": counts["profile"],
        "gpusim.profiler.self_s": layers.get("gpusim.profiler", 0.0),
        "service.self_s": layers.get("service", 0.0),
        "service.batches": batching["batches"],
        "service.mean_batch": batching["mean_batch"],
        "service.fused_passes": batching["fused_passes"],
        "service.coalesced_requests": batching["coalesced_requests"],
        "service.in_service_ms_p95": percentile(in_service, 95),
        "service.pre_admit_ms_p95": percentile(pre_admit, 95),
        "core.mutation.calls": counts["apply_batch"],
        "core.mutation.self_s": layers.get("core.mutation", 0.0),
        "gpusim.sim_ms_total": sum(e[2] for e in det_exec),
        "gpusim.kernel_calls": sum(p[0] for p in profiles),
        "gpusim.warp_eff_mean":
            frac(sum(p[1] for p in profiles), len(profiles)),
        "bench.unattributed_s": layers.get("bench", 0.0),
        "bench.idle_s": layers.get(spans.IDLE, 0.0),
        "bench.trace_overhead_frac": traced.busy_s() / untraced.busy_s() - 1,
        "loadgen.late_ms_max": traced.late_s_max * 1e3,
    }
    for fig in ("fig4", "fig5", "fig7", "fig9"):
        out[f"paper.{fig}_s"] = statistics.median(figures.get(fig, [0.0]))
    return out


# ------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    _import_program()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.REGIMES:
        raise SystemExit(f"unknown workload {args.workload!r}")
    state = hygiene()
    inputs = workloads.build(args.workload, args.seed, args.seconds)
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        inputs.handle.close()
        args.out.write_text(json.dumps(result))
        return 0

    untraced = Pass(args.workload, args.seed, args.seconds, inputs)
    untraced.run()
    check = untraced.check()
    e2e, samples = untraced.end_to_end()
    failures = list(untraced.failures)
    attempted = untraced.attempted
    result.update(state=dict(state, seed=args.seed, workload=args.workload),
                  end_to_end=e2e, samples=samples, check=check,
                  figures_s=untraced.timings["figures_s"])
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)
        main_thread = threading.get_ident()
        try:
            start = time.perf_counter()
            with tracer.span("bench", "setup"):
                traced_inputs = workloads.build(
                    args.workload, args.seed, args.seconds,
                    writes=(inputs.writes, inputs.versions))
            traced = Pass(args.workload, args.seed, args.seconds,
                          traced_inputs, tracer)
            traced.windows["setup"] = (start, time.perf_counter())
            traced.run()
            missed = tracer.unwrapped_sites()
        finally:
            tracer.uninstall()
        split = tracer.report(traced.windows, main_thread)
        failures += [f"traced: {f}" for f in traced.failures]
        failures += [f"accounting: {e}" for e in split["errors"]]
        failures += [f"unwrapped entry point: {site}" for site in missed]
        for part in ("sweep", "front_door", "serve"):
            if traced.outputs[part] != untraced.outputs[part]:
                failures.append(f"traced {part} outputs differ from the "
                                "untraced pass")
        result["per_layer"] = per_layer(traced, untraced, split)
        result["split"] = split["windows"]
        result["spans"] = len(tracer.spans)
    result.update(peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, attempted=attempted,
        failures=failures)
    args.out.write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
