"""Self-test of the benchmark on the tiny `selftest` job list.

    python3 perfbench/selftest.py

Checks that the metric names and units printed match BENCHMARK.json, that
two traced runs give identical counts, and that a corrupted expected answer
is caught: jobs_failed > 0 and a non-zero exit.  Prints `selftest: ok` and
exits 0, or lists what went wrong and exits 1.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import END_TO_END, EXPECTED, OUT, PER_LAYER, ROOT
from workloads import WORKLOADS


def bench(*args):
    """Run run.py on the selftest jobs; (exit code, last-line result or None)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "selftest",
         "--seconds", "1", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def metric_units(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if metric_units(spec, "end_to_end") != END_TO_END:
        problems.append("run.END_TO_END differs from BENCHMARK.json end_to_end")
    if metric_units(spec, "per_layer") != PER_LAYER:
        problems.append("run.PER_LAYER differs from BENCHMARK.json per_layer")
    missing = {w["name"] for w in spec["workloads"]} - WORKLOADS.keys()
    if missing:
        problems.append(f"workloads without a job list: {sorted(missing)}")

    code, result = bench("--trace", "0")
    if code != 0 or result is None or not result["correct"] or result["failed"]:
        problems.append(f"untraced run failed: exit {code}, result {result}")
    elif {k: m["unit"] for k, m in result["metrics"].items()} != END_TO_END:
        problems.append(f"untraced metrics {sorted(result['metrics'])} do not match")

    traced = [bench("--trace", "1") for _ in range(2)]
    for code, result in traced:
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"traced run failed: exit {code}, result {result}")
        elif {k: m["unit"] for k, m in result["metrics"].items()} != PER_LAYER:
            problems.append(f"traced metrics {sorted(result['metrics'])} do not match")
    if not problems:
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
                  for _, r in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"counts differ between two traced runs: {diff}")

    with open(EXPECTED) as fh:
        corrupt = json.load(fh)
    victim = next(job["id"] for job in WORKLOADS["selftest"] if job["seeded"] is None)
    corrupt[victim]["sha256"] = "0" * 64
    OUT.mkdir(exist_ok=True)
    corrupt_path = OUT / "expected-corrupt.json"
    with open(corrupt_path, "w") as fh:
        json.dump(corrupt, fh)
    code, result = bench("--trace", "0", "--expected", str(corrupt_path))
    if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
        problems.append(f"corrupted expected value not caught: exit {code}, result {result}")

    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
