"""skewseries benchmark: whole CLI runs per workload, untraced or traced.

    python3 perfbench/run.py --workload deciders --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30

Every job is a fresh `python -m skewseries ... --output jsonl` process, run
one after another (a closed loop with one client).  Passes over the job list
repeat until --seconds have gone by; wall and CPU time are those of the mean
pass.  --trace 1 instead alternates each job untraced and under tracer.py and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every job gave the expected answer.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (DEFAULT_SEED, WORKLOADS, check_job, expected_entry, job_argv,
                       parse_jsonl, sha256)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
STDOUT = OUT / "stdout.jsonl"  # output of the job that ran last
EXPECTED = HERE / "expected.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "rings.build.calls": "count",
    "rings.build.self_s": "s",
    "rings.enumerate_ideals.calls": "count",
    "rings.enumerate_ideals.self_s": "s",
    "rings.enumerate_ideals.found": "count",
    "rings.ideal_generated.calls": "count",
    "rings.enumerate_endomorphisms.calls": "count",
    "rings.enumerate_endomorphisms.self_s": "s",
    "rings.annihilator.calls": "count",
    "rings.annihilator.self_s": "s",
    "specfile.resolve.self_s": "s",
    "properties.decide_baer.self_s": "s",
    "properties.decide_quasi_baer.self_s": "s",
    "properties.decide_generalized.self_s": "s",
    "properties.decide.calls": "count",
    "properties.instances_accepted": "count",
    "monoids.op.calls": "count",
    "monoids.validate.calls": "count",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.construct.calls": "count",
    "series.omega.calls": "count",
    "series.armendariz_search.calls": "count",
    "series.armendariz_search.self_s": "s",
    "series.armendariz_search.pairs": "count",
    "verify.bounded_annihilator.calls": "count",
    "verify.bounded_annihilator.self_s": "s",
    "verify.bounded_annihilator.candidates": "count",
    "verify.harness.self_s": "s",
    "verify.search.self_s": "s",
    "cli.run.self_s": "s",
    "cli.records": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
SETUP_EVERY_S = 1.5
MIN_SETUP_SAMPLES = 5
GRACE_S = 140  # a run, children included, ends this long after its measuring time


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong package, timeout)."""


class Deadline:
    def __init__(self, seconds):
        self.seconds = seconds
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"run did not finish within {self.seconds} s")
        return left


def child_env():
    """Minimal, pinned environment: the tree under test and a fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }


def spawn(cmd, deadline):
    """Run cmd to completion with its output in STDOUT.

    Returns (wall_s, cpu_s, max_rss_kb, exit code, stderr text).
    """
    OUT.mkdir(exist_ok=True)
    limit = deadline.left()
    with open(STDOUT, "wb") as out, open(OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stderr


def cli_cmd(job, seed):
    return [sys.executable, "-m", "skewseries", *job_argv(job, seed)]


def traced_cmd(job, seed, trace_path):
    return [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--",
            *job_argv(job, seed)]


def preflight(deadline):
    """Check the tree under test is importable from SRC; warms the bytecode cache."""
    if not (SRC / "skewseries" / "cli.py").is_file():
        raise BenchError(f"no skewseries source tree under {SRC}")
    _, _, _, code, err = spawn(
        [sys.executable, "-c", "import skewseries.cli; print(skewseries.__file__)"], deadline)
    package = STDOUT.read_text().strip()
    if code != 0 or not Path(package).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"skewseries does not import from {SRC}: {package or err.strip()}")
    return package


def environment(package):
    digest = sha256()
    for path in sorted((SRC / "skewseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "skewseries_file": package,
        "source_sha256": digest.hexdigest(),
    }


class Outputs:
    """Job outputs, checked only after the last job of the run has ended.

    A child's max RSS as os.wait4 reports it includes the peak RSS of the
    process that started it, so the benchmark must not parse large outputs
    while jobs still run.  Each distinct output of a job is kept once.
    """

    def __init__(self):
        self.runs = []  # (job, exit code, kept file, stderr tail)
        self.kept = {}  # job id -> files with distinct outputs

    def add(self, job, code, stderr):
        files = self.kept.setdefault(job["id"], [])
        same = next((f for f in files if filecmp.cmp(STDOUT, f, shallow=False)), None)
        if same is None:
            same = OUT / f"output-{job['id']}-{len(files)}.jsonl"
            os.replace(STDOUT, same)
            files.append(same)
        self.runs.append((job, code, same, stderr.strip()[-200:]))

    def check(self, expected):
        """(attempted, failed, first few failure reasons); removes the kept files."""
        reasons = {}
        for job, code, path, _ in self.runs:
            if (code, path) not in reasons:
                reasons[code, path] = check_job(job, code, path.read_bytes(), expected)
        failures = [f"{job['id']}: {reasons[code, path]} {stderr}".strip()
                    for job, code, path, stderr in self.runs if reasons[code, path] is not None]
        for files in self.kept.values():
            for path in files:
                path.unlink()
        return len(self.runs), len(failures), failures[:5]


def setup_sample(deadline):
    """Wall time of a fresh interpreter that imports skewseries.cli and exits."""
    wall, _, _, code, err = spawn([sys.executable, "-c", "import skewseries.cli"], deadline)
    if code != 0:
        raise BenchError(f"import skewseries.cli failed: {err.strip()}")
    return wall


# A fixed program that does not touch the tree under test (-I ignores
# PYTHONPATH).  Its mean wall time in a run measures the machine's speed.
REFERENCE = """
table = {}
for i in range(100_000):
    key = (i * 7919) % 1031
    table[key] = table.get(key, 0) + (i & -i).bit_length()
"""
REFERENCE_NOMINAL_S = 0.1


def reference_sample(deadline):
    """Wall time of a fresh isolated interpreter that runs REFERENCE."""
    wall, _, _, code, err = spawn([sys.executable, "-I", "-c", REFERENCE], deadline)
    if code != 0:
        raise BenchError(f"reference program failed: {err.strip()}")
    return wall


def run_untraced(jobs, seed, seconds, deadline, outputs):
    """Passes over the job list until `seconds` have gone by.

    Returns per-job samples, set-up samples and reference samples.  Set-up
    and the reference program are sampled between jobs, at most once per
    SETUP_EVERY_S, so that they see the same stretch of machine time as the
    jobs.
    """
    samples = {job["id"]: [] for job in jobs}
    setup = []
    reference = []
    start = last_setup = time.monotonic()
    while not outputs.runs or time.monotonic() - start < seconds:
        for job in jobs:
            if not setup or time.monotonic() - last_setup >= SETUP_EVERY_S:
                setup.append(setup_sample(deadline))
                reference.append(reference_sample(deadline))
                last_setup = time.monotonic()
            wall, cpu, rss, code, err = spawn(cli_cmd(job, seed), deadline)
            outputs.add(job, code, err)
            samples[job["id"]].append({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss / 1024})
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample(deadline))
        reference.append(reference_sample(deadline))
    return samples, setup, reference


def end_to_end_metrics(samples, setup, reference):
    """Wall and CPU time of the mean pass, the median set-up time, and the
    largest per-job median RSS.

    Speed on a shared machine switches between a fast and a slow state every
    few seconds, and the share of slow time differs from run to run.  So the
    times are scaled to the speed at which REFERENCE takes
    REFERENCE_NOMINAL_S, using its mean time in the same run.  Means, not
    medians, follow the share of slow time smoothly; a median jumps between
    the two states.
    """
    scale = REFERENCE_NOMINAL_S / statistics.fmean(reference)

    def mean_pass(key):
        return sum(statistics.fmean(s[key] for s in runs) for runs in samples.values())

    return {
        "wall_s": mean_pass("wall_s") * scale,
        "cpu_s": mean_pass("cpu_s") * scale,
        "peak_rss_mb": max(statistics.median(s["rss_mb"] for s in runs)
                           for runs in samples.values()),
        "setup_s": statistics.median(setup) * scale,
    }


def run_traced(jobs, seed, seconds, deadline, outputs, workload):
    """Cycles of (untraced, traced) per job; per-layer sums per traced pass."""
    cycles = []
    spans = {}
    start = time.monotonic()
    while not cycles or time.monotonic() - start < seconds:
        layer = {}
        overhead = 0.0
        for job in jobs:
            plain, _, _, code, err = spawn(cli_cmd(job, seed), deadline)
            outputs.add(job, code, err)
            trace_path = OUT / f"trace-{workload}-{job['id']}.json"
            trace_path.unlink(missing_ok=True)
            traced, _, _, code, err = spawn(traced_cmd(job, seed, trace_path), deadline)
            outputs.add(job, code, err)
            overhead += traced - plain
            if trace_path.exists():
                with open(trace_path) as fh:
                    trace = json.load(fh)
                spans[job["id"]] = trace["spans"]
                for name, value in trace["metrics"].items():
                    layer[name] = layer.get(name, 0) + value
        layer["properties.decide.calls"] = sum(
            layer.get(f"properties.{d}.calls", 0)
            for d in ("decide_baer", "decide_quasi_baer", "decide_generalized"))
        layer["trace.overhead_s"] = overhead
        cycles.append(layer)
    return cycles, spans


def per_layer_metrics(cycles):
    """Counts from the first traced pass (every later pass must repeat them
    exactly); times as medians over passes."""
    def counts(cycle):
        return {k: v for k, v in cycle.items() if not k.endswith("_s")}

    counts_repeat = all(counts(c) == counts(cycles[0]) for c in cycles)
    metrics = {}
    for name in PER_LAYER:
        values = [c.get(name, 0) for c in cycles]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
    return metrics, counts_repeat


def module_shares(cycles):
    """Share of traced self time per package module, from the first pass."""
    self_times = {k: v for k, v in cycles[0].items() if k.endswith(".self_s")}
    total = sum(self_times.values()) or 1.0
    shares = {}
    for name, value in self_times.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + value / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_workload(workload, seed, seconds, trace, expected_path):
    """Measure one workload; returns (result dict, detail dict)."""
    deadline = Deadline(seconds + GRACE_S)
    jobs = WORKLOADS[workload]
    package = preflight(deadline)
    expected = json.loads(expected_path.read_text())
    outputs = Outputs()
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        cycles, spans = run_traced(jobs, seed, seconds, deadline, outputs, workload)
        metrics, counts_repeat = per_layer_metrics(cycles)
        detail.update(passes=cycles, spans=spans, counts_repeat=counts_repeat,
                      module_shares=module_shares(cycles))
        samples = len(cycles)
    else:
        job_samples, setup, reference = run_untraced(jobs, seed, seconds, deadline, outputs)
        metrics = end_to_end_metrics(job_samples, setup, reference)
        detail.update(job_samples=job_samples, setup_samples=setup, counts_repeat=True,
                      reference_samples=reference)
        samples = len(job_samples[jobs[0]["id"]])
    attempted, failed, failures = outputs.check(expected)
    detail["environment"] = environment(package)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and detail["counts_repeat"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail.update(result=result, failures=failures, samples=samples)
    return result, detail


def report_lines(detail):
    """Human-readable lines: every metric by name, unit and sample count."""
    result = detail["result"]
    env = detail["environment"]
    lines = [f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
             f"python={env['python']} nproc={env['nproc']} commit={env['commit']}",
             f"# skewseries={env['skewseries_file']} source_sha256={env['source_sha256'][:16]}"]
    passes = f"n={detail['samples']} {'traced passes' if detail['trace'] else 'passes'}"
    for name, m in result["metrics"].items():
        value = f"{m['value']:.6f}" if isinstance(m["value"], float) else str(m["value"])
        count = (f"n={len(detail['setup_samples'])} interpreter starts" if name == "setup_s"
                 else passes)
        lines.append(f"{name:40s} {value:>16} {m['unit']:6s} ({count})")
    lines.append(f"{'jobs_failed':40s} {result['failed']:>16} {'jobs':6s} "
                 f"(of {result['attempted']} attempted)")
    if detail["trace"]:
        shares = " ".join(f"{k}={v:.3f}" for k, v in detail["module_shares"].items())
        lines.append(f"# traced self-time share by module: {shares}")
        if not detail["counts_repeat"]:
            lines.append("# ERROR: count metrics differ between traced passes")
    else:
        reference = detail["reference_samples"]
        lines.append(f"# times scaled by {REFERENCE_NOMINAL_S} s / "
                     f"{statistics.fmean(reference):.6f} s, the reference program's "
                     f"mean over {len(reference)} runs")
    lines.extend(f"# FAILED {reason}" for reason in detail["failures"])
    return lines


def write_detail(detail):
    OUT.mkdir(exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    with open(OUT / name, "w") as fh:
        json.dump(detail, fh, indent=1)


def record_expected(path):
    """Run every fixed job once and store its answer (exit code and result digest)."""
    deadline = Deadline(GRACE_S)
    preflight(deadline)
    expected = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job["seeded"] is None:
                _, _, _, code, _ = spawn(cli_cmd(job, DEFAULT_SEED), deadline)
                expected[job["id"]] = expected_entry(code, parse_jsonl(STDOUT.read_bytes()))
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Every benchmark workload, untraced, each in a fresh process so that one
    workload's output checks do not raise the next one's RSS."""
    ok = True
    for workload in ("deciders", "transfer", "smalljobs"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--expected", str(args.expected)],
            stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        ok &= proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run deciders, transfer and smalljobs untraced, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="expected answers of the fixed jobs")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite the expected answers from the tree under test")
    args = parser.parse_args(argv)
    try:
        if args.record_expected:
            record_expected(args.expected)
            return 0
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("give --workload or --all")
        result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      args.expected)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    write_detail(detail)
    print("\n".join(report_lines(detail)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
