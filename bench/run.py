"""Benchmark of the superelliptic library and its CLI.

Run from the repository root (no install needed; the package is loaded
from src/):

    python3 bench/run.py --workload moduli-q --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py and listed in BENCHMARK.json.
`--trace 0` times the workload with nothing patched and reports the
end-to-end metrics.  `--trace 1` splits the seconds between an untraced
and a traced run of the same plan and reports the per-layer metrics of
the traced half (spans are also written to bench/out/).  Times are
reported at reference speed (see harness.reference), cold calls as
measured.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it describes
the inputs and sample counts and gives the unscaled figures.
Exit status is 0 on a completed run, 1 if a run fails to complete and 2
if the package cannot be found.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 9       # setup_s is the median of this many set-ups
IMPORT = ("import time; t = time.perf_counter(); "
          "import superelliptic, superelliptic.cli; print(time.perf_counter() - t)")


def import_seconds(env):
    """Import time of the package and its CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"importing superelliptic failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


def clear_caches():
    """Empty the package's lru_caches, so each set-up pays its warm-up."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("superelliptic"):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def setup(build, workload, seed, workdir, sp, scale):
    """Build the plan SETUP_REPS times; returns the plan, the median time
    of import plus input building (including cache warm-up) and the
    median import time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        imp = import_seconds(env)
        clear_caches()
        start = perf_counter()
        plan = build(random.Random(f"{workload}:{seed}"), workdir, sp, scale)
        totals.append(imp + perf_counter() - start)
        imports.append(imp)
    return plan, statistics.median(totals), statistics.median(imports)


def end_to_end(parts, setup_s, peak_rss_mb, tally, scaled=True):
    """The end-to-end metrics; times at reference speed unless not `scaled`."""
    # percentiles over the inputs of one cycle, each at its best time
    lines = harness.best(parts["batches"], scaled)
    steps = harness.best(parts["steps"], scaled)
    pct = harness.percentile
    if scaled:
        setup_s = harness.at_reference(setup_s, parts["batches"].ref)
    return {
        "setup_s": (setup_s, "s"),
        "lines_per_s": (harness.rate(parts["batches"], scaled), "lines/s"),
        "line_p50_ms": (pct(lines, 50) * 1e3, "ms"),
        "line_p99_ms": (pct(lines, 99) * 1e3, "ms"),
        "kernel_calls_per_s": (harness.rate(parts["kernel"], scaled), "calls/s"),
        "step_p50_us": (pct(steps, 50) * 1e6, "us"),
        "step_p99_us": (pct(steps, 99) * 1e6, "us"),
        # not scaled: the reference does not track process start-up, which
        # drifts with the machine on its own
        "cold_call_ms": (statistics.median(harness.best(parts["cold"], False)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; below 1 only for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "superelliptic" / "cli.py").is_file():
        print(f"bench: no package at {SRC / 'superelliptic'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import superelliptic as sp
    import superelliptic.cli  # noqa: F401  (the CLI under test)

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work")
    try:
        plan, setup_s, import_s = setup(workloads.WORKLOADS[args.workload],
                                        args.workload, args.seed, workdir, sp, args.scale)
        tally = harness.Tally()
        main_fn = sp.cli.main
        if args.trace:
            half = args.seconds / 2
            base = harness.run_plan(plan, main_fn, half, tally, str(ROOT), cold=False)
            tracer = spans.Tracer()
            tracer.install(sp)
            try:
                traced = harness.run_plan(plan, main_fn, half, tally, str(ROOT),
                                          tracer=tracer, cold=False)
            finally:
                tracer.uninstall()
            wall = sum(part.busy for part in traced.values())
            overhead = harness.rate(traced["batches"]) / harness.rate(base["batches"])
            values = tracer.metrics(wall, import_s, overhead)
            units = dict(spans.per_layer_names())
            metrics = {name: (values[name], units[name]) for name, _ in spans.per_layer_names()}
            (BENCH / "out").mkdir(exist_ok=True)
            tracer.write(BENCH / "out" / f"spans-{args.workload}.tsv")
            samples = {name: harness.samples(p) for name, p in traced.items()}
        else:
            parts = harness.run_plan(plan, main_fn, args.seconds, tally, str(ROOT))
            # the peak of set-up and the timed run, before the statistics
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(parts, setup_s, peak_rss_mb, tally)
            raw = end_to_end(parts, setup_s, peak_rss_mb, tally, scaled=False)
            unscaled = {k: v for k, (v, _) in raw.items()}
            unscaled["reference_us"] = parts["batches"].ref * 1e6
            samples = {name: harness.samples(p) for name, p in parts.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in tally.notes:
        print(f"bench: check failed: {note}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed,
            "inputs": plan.inputs, "samples": samples}
    if not args.trace:
        info["unscaled"] = unscaled
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
