"""Self-check of the benchmark: every workload, every check, both runs.

    python3 perfbench/smoke.py                     # tiny inputs, ~1 minute
    python3 perfbench/smoke.py --scale full --seconds 20 --trace 0

runs ``run.py`` on each workload with ``--trace 0`` and ``--trace 1`` (or
the one given), requires a correct result carrying exactly the metrics
BENCHMARK.json declares, and prints every metric by name and unit per
workload.  At smoke scale it also checks that the benchmark refuses to run,
printing no result, in a directory without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interval", "outerplanar", "cograph", "oracle")
SEED = 1


def run_one(root, workload, seconds, trace, scale):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", default="smoke", choices=("smoke", "full"))
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1) if a.trace is None else (a.trace,):
            proc = run_one(ROOT, workload, a.seconds, trace, a.scale)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed\n{proc.stderr}")
            record = json.loads(lines[-2])["record"]
            print(f"== {label}  samples {record['samples']}  inputs {record['input_sha256'][:12]}")
            for name, m in result["metrics"].items():
                print(f"   {name:45s} {m['value']:14.4f} {m['unit']}")
    if a.scale == "smoke":
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_one(bare, "interval", a.seconds, 0, a.scale)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py did not refuse a directory without sources")
        shutil.rmtree(bare)
    for msg in problems:
        print("PROBLEM", msg, file=sys.stderr)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
