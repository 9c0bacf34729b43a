"""Command-line benchmark runner.

Usage::

    python -m repro.bench --list
    python -m repro.bench fig5
    python -m repro.bench fig5 fig6 --scale 0.05 --out results/
    python -m repro.bench all --scale 0.02 --jobs 4 --profile

(also installed as the ``repro-bench`` console script.)

``--jobs N`` fans independent work units — whole experiments, and the
registered variants of splittable ones like fig4 — across a
``ProcessPoolExecutor``.  Results are collected and printed in submission
order, so the output (and every table) is identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.bench.registry import (
    ExperimentConfig,
    all_experiments,
    get_experiment,
)
from repro.errors import ConfigError
from repro.gpusim.config import preset
from repro.gpusim.executor import resolve_engine

__all__ = ["main", "run_units"]

#: variant key meaning "run the whole experiment in one unit"
_WHOLE = None


def _run_unit(exp_id: str, variant, config: ExperimentConfig,
              engine: str, plan_cache: bool, trace: bool = False,
              cache_dir: str | None = None, devices: int = 1,
              backend: str = "sim"):
    """Execute one work unit; module-level so it pickles into pool workers.

    Returns ``(payload, elapsed_s, (cache_hits, cache_misses), spans,
    disk_stats)`` where the payload is the experiment's table list
    (whole-experiment unit) or one variant result, ``spans`` is the unit's
    :func:`repro.obs.export_events` delta when ``trace`` is set (None
    otherwise), and ``disk_stats`` is the unit's artifact-cache snapshot
    delta (None when no disk cache is active).

    ``cache_dir`` selects the disk artifact cache for this unit: ``None``
    leaves the process default alone (pool workers then adopt
    ``REPRO_CACHE_DIR`` from their environment), the empty string disables
    it, and a path enables it.
    """
    from repro import obs
    from repro.core.artifactcache import configure_artifact_cache
    from repro.backends import set_default_backend, set_default_devices
    from repro.core.plancache import cache_stats, set_plan_cache_enabled
    from repro.gpusim.executor import set_default_engine

    set_default_engine(engine)
    set_default_devices(devices)
    set_default_backend(backend)
    set_plan_cache_enabled(plan_cache)
    if cache_dir is not None:
        configure_artifact_cache(cache_dir or None)
    before = cache_stats()
    exp = get_experiment(exp_id)
    spans = None
    if trace:
        obs.set_enabled(True)  # idempotent; also arms fresh pool workers
        watermark = obs.mark()
    start = time.perf_counter()
    with obs.span("bench.unit", experiment=exp_id,
                  variant="whole" if variant is _WHOLE else str(variant)):
        if variant is _WHOLE:
            payload = exp.run(config)
        else:
            payload = exp.run_variant(config, variant)
    elapsed = time.perf_counter() - start
    if trace:
        spans = obs.export_events(since=watermark)
    after = cache_stats()
    disk_stats, disk0 = after["disk"], before["disk"]
    if disk_stats is not None and disk0 is not None:
        for name, tier in disk_stats["tiers"].items():
            for k in tier:
                tier[k] -= disk0["tiers"][name][k]
        for k in ("hits", "misses", "writes", "corrupt"):
            disk_stats[k] -= disk0[k]
    plan, plan0 = after["plan"], before["plan"]
    return (payload, elapsed,
            (plan["hits"] - plan0["hits"], plan["misses"] - plan0["misses"]),
            spans, disk_stats)


def run_units(units, config: ExperimentConfig, jobs: int,
              engine: str = "fast", plan_cache: bool = True,
              chunksize: int = 1, trace: bool = False,
              cache_dir: str | None = None, devices: int = 1,
              backend: str = "sim"):
    """Run ``(exp_id, variant)`` units, preserving submission order.

    ``jobs <= 1`` runs inline in this process (no pool, no pickling);
    otherwise units go through a ``ProcessPoolExecutor``.  Either way the
    returned list matches ``units`` index-for-index, so callers can merge
    deterministically.  With ``trace``, pooled units' span payloads are
    folded into this process's tracer (worker events keep their pid, so
    the Chrome trace shows one row per worker process).  ``cache_dir``
    (see :func:`_run_unit`) points every unit — pooled or inline — at one
    shared disk artifact cache.
    """
    if cache_dir:
        # export REPRO_CACHE_DIR before the pool spawns so workers inherit
        from repro.core.artifactcache import configure_artifact_cache

        configure_artifact_cache(cache_dir)
    if jobs <= 1 or len(units) <= 1:
        return [
            _run_unit(exp_id, variant, config, engine, plan_cache, trace,
                      cache_dir, devices, backend)
            for exp_id, variant in units
        ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_unit, exp_id, variant, config, engine,
                        plan_cache, trace, cache_dir, devices, backend)
            for exp_id, variant in units
        ]
        results = [f.result() for f in futures]
    if trace:
        from repro import obs

        for result in results:
            obs.merge_events(result[3])
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures on the "
                    "simulated device.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (fig2..fig9, table1, table2, baselines) or 'all'",
    )
    parser.add_argument("--experiment", action="append", default=[],
                        metavar="ID", dest="experiment_flags",
                        help="experiment id (repeatable; same as the "
                             "positional form)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale vs the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--device", default="k20",
                        help="device preset: k20 (default), k40, c2050")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent experiments "
                             "and sweep cells (default 1 = in-process)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-experiment wall time and plan-cache "
                             "hit/miss counts")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="executor engine: fast (cohort-batched, the "
                             "default) or exact (reference event-per-block)")
    parser.add_argument("--exact", action="store_true",
                        help="shorthand for --engine exact")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="simulated devices per run: every template run "
                             "shards its workload across N devices "
                             "(default 1; see docs/architecture.md)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution model: sim (bulk-synchronous, the "
                             "default) or queue (persistent task queues; "
                             "see docs/taskqueue.md)")
    parser.add_argument("--no-plan-cache", action="store_true",
                        help="disable the launch-plan cache (cold builds "
                             "every run; for measurement)")
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="persist workload analyses, plans and run "
                             "results under DIR so repeat runs and --jobs "
                             "workers share them (see docs/performance.md)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the disk artifact cache even if "
                             "REPRO_CACHE_DIR is set in the environment")
    parser.add_argument("--trace", type=Path, default=None, metavar="JSON",
                        help="enable the repro.obs tracing layer and write "
                             "a Chrome-trace (chrome://tracing / Perfetto) "
                             "of the run; see docs/observability.md")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write CSV/JSON results into")
    parser.add_argument("--plot", action="store_true",
                        help="render numeric tables as ASCII charts")
    parser.add_argument("--log-y", action="store_true",
                        help="log10 y-axis for --plot (Fig. 2/9 style)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    registry = all_experiments()
    requested = args.experiments + args.experiment_flags
    if args.list or not requested:
        print("available experiments:")
        for exp in registry.values():
            print(f"  {exp.id:10s} {exp.paper_ref:16s} {exp.title}")
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.devices < 1:
        print("--devices must be >= 1", file=sys.stderr)
        return 2

    ids = list(registry) if "all" in requested else requested
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, device=preset(args.device),
    )
    if args.exact and args.engine not in (None, "exact"):
        print("--exact conflicts with --engine "
              f"{args.engine}", file=sys.stderr)
        return 2
    try:
        # same validation (and message) as repro.run and the service
        engine = resolve_engine("exact" if args.exact else args.engine) or "fast"
        from repro.backends import resolve_backend

        backend = resolve_backend(args.backend) or "sim"
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if backend == "queue" and args.devices > 1:
        print("--backend queue is single-device; drop --devices",
              file=sys.stderr)
        return 2
    plan_cache = not args.no_plan_cache
    if args.cache_dir and args.no_disk_cache:
        print("--cache-dir and --no-disk-cache are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.no_disk_cache:
        cache_dir: str | None = ""
    elif args.cache_dir:
        cache_dir = str(args.cache_dir)
    else:
        cache_dir = None
    if args.trace:
        from repro import obs

        obs.reset()
        obs.set_enabled(True)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    # one flat unit list: splittable experiments contribute one unit per
    # registered variant when a pool is in play, everything else one unit
    units: list[tuple[str, object]] = []
    spans: list[tuple[str, int, int]] = []  # (exp_id, first unit, n units)
    for exp_id in ids:
        exp = get_experiment(exp_id)
        first = len(units)
        if args.jobs > 1 and exp.splittable:
            units.extend((exp_id, key) for key in exp.variants(config))
        else:
            units.append((exp_id, _WHOLE))
        spans.append((exp_id, first, len(units) - first))

    results = run_units(units, config, args.jobs, engine, plan_cache,
                        trace=args.trace is not None, cache_dir=cache_dir,
                        devices=args.devices, backend=backend)

    status = 0
    for exp_id, first, count in spans:
        exp = get_experiment(exp_id)
        print(f"\n### {exp.id}: {exp.title} ({exp.paper_ref})")
        chunk = results[first:first + count]
        elapsed = sum(r[1] for r in chunk)
        hits = sum(r[2][0] for r in chunk)
        misses = sum(r[2][1] for r in chunk)
        if count == 1 and units[first][1] is _WHOLE:
            tables = chunk[0][0]
        else:
            tables = exp.merge(config, [r[0] for r in chunk])
        for i, table in enumerate(tables):
            print()
            print(table.format(), end="")
            if args.plot:
                from repro.bench.plots import ascii_chart, plottable

                if plottable(table):
                    print()
                    print(ascii_chart(table, log_y=args.log_y), end="")
            if args.out:
                stem = f"{exp.id}_{i}" if len(tables) > 1 else exp.id
                table.to_csv(args.out / f"{stem}.csv")
                (args.out / f"{stem}.json").write_text(table.to_json())
        print(f"  [{exp.id} completed in {elapsed:.1f}s]")
        if args.profile:
            print(f"  [{exp.id} profile: {count} unit(s), "
                  f"plan cache {hits} hit(s) / {misses} miss(es), "
                  f"engine={engine}]")
            disk_chunks = [r[4] for r in chunk if r[4] is not None]
            if disk_chunks:
                dh = sum(d["hits"] for d in disk_chunks)
                dm = sum(d["misses"] for d in disk_chunks)
                dw = sum(d["writes"] for d in disk_chunks)
                dc = sum(d["corrupt"] for d in disk_chunks)
                per_tier = ", ".join(
                    f"{tier} {sum(d['tiers'][tier]['hits'] for d in disk_chunks)}h/"
                    f"{sum(d['tiers'][tier]['misses'] for d in disk_chunks)}m"
                    for tier in ("analysis", "plan", "run")
                )
                print(f"  [{exp.id} disk cache: {dh} hit(s) / {dm} miss(es) "
                      f"/ {dw} write(s) / {dc} corrupt ({per_tier})]")
    if args.trace:
        from repro import obs

        trace = obs.write_chrome_trace(args.trace)
        summary = obs.summary()
        print(f"\ntrace: wrote {args.trace} "
              f"({len(trace['traceEvents'])} events, "
              f"{summary['dropped']} dropped)")
        if args.profile:
            print("span summary (wall-clock, aggregated per name):")
            for name, agg in summary["wall_ms"].items():
                print(f"  {name:20s} x{agg['count']:<6d} "
                      f"total {agg['total_ms']:10.1f} ms  "
                      f"max {agg['max_ms']:8.2f} ms")
        obs.set_enabled(False)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
