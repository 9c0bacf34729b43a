"""The repo's benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, run from the repo root.

Starts ``bench.py`` in fresh interpreters -- ``SETUP_SAMPLES - 1``
set-up-only runs and then the measured run -- so that ``setup_s`` (the
median over all of them) includes interpreter start and imports.  Prints
every metric by name and unit, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a separate traced pass.  Exits non-zero without a result when the
program cannot be run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heavy_tailed", "regular")
SETUP_SAMPLES = 3
#: the whole run, builds of nothing included, must end within this
DEADLINE_S = 170.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(args, out: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    # fixed str hashing: set iteration order must not vary between runs
    env["PYTHONHASHSEED"] = "0"
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                            cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark run exceeded its deadline")
    if code != 0:
        raise SystemExit(f"benchmark worker exited with code {code}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{args.trace}"

    setups = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, out_dir / f"{stem}-setup{k}.json",
                                  deadline, True)["setup_s"])
    result = _worker(args, out_dir / f"{stem}.json", deadline, False)
    setups.append(result["setup_s"])

    spec = _spec()
    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(result["end_to_end"],
                      setup_s=statistics.median(setups),
                      peak_rss_mb=result["peak_rss_mb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failures = result["failures"]
    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        failures.append("a metric could not be measured")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  state {result['state']}")
    print(f"output check: {result['check']}  samples {result['samples']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for window, split in result.get("split", {}).items():
        total = sum(split.values()) or 1.0
        shares = ", ".join(f"{k} {v / total:.0%}" for k, v in
                           sorted(split.items(), key=lambda kv: -kv[1])
                           if v / total >= 0.005)
        print(f"  split {window}: {total:.3f}s = {shares}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": min(len(failures), result["attempted"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
