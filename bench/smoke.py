"""Smoke test of the benchmark itself.

Checks that BENCHMARK.json lists the workloads of workloads.py, runs
each at a tiny size, untraced and traced, and checks that every run
passes its correctness checks and reports exactly the metrics
BENCHMARK.json names; then checks that the benchmark refuses to run
without the package next to it.  Run from the repository root:

    python3 bench/smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", wl["name"], "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--scale", "0.1"]
            proc = run(ROOT, *args)
            tag = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed\n{proc.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: {set(got) ^ set(want)}")
            for name, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{tag}: {name} is not a number")
                elif trace == 0 and v["value"] == 0:
                    problems.append(f"{tag}: {name} is 0")
            print(f"ok   {tag}: {result['attempted']} checked", flush=True)

    # with only BENCHMARK.json and the benchmark present, it must fail
    (ROOT / "bench" / "work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "bench" / "work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok   bare checkout refused", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
