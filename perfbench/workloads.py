"""Workload job lists and the per-job result check.

A job is one `python -m skewseries ... --output jsonl` invocation.  Fixed jobs
are checked against the result records stored in expected.json; seeded jobs
(the sampled quasi-Baer harness runs, the only ones that take the workload
seed) are checked by exit 0, a PASS report and the entry-count rule of
acceptance criterion 07: entries == ideals * 3 + samples * 2.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 7

# Number of right ideals of each seeded job's coefficient ring: Z/n has one
# ideal per divisor of n, and Z/2 x Z/2 has four.
_IDEALS = {"zn:4": 3, "zn:6": 4, "zn:8": 4, "prod:zn:2,zn:2": 4}


def _job(job_id, *argv):
    return {"id": job_id, "argv": list(argv), "seeded": None}


def _seeded(job_id, ring, samples, *argv):
    return {
        "id": job_id,
        "argv": ["verify", "thm37-quasibaer", "--ring", ring, *argv],
        "seeded": {"ideals": _IDEALS[ring], "samples": samples},
    }


WORKLOADS = {
    "deciders": [
        _job("check-mat2z2-all", "ring", "check", "--ring", "mat2:z2", "--class", "all",
             "--side", "both"),
        _job("check-ut3z2-qb", "ring", "check", "--ring", "ut3:z2", "--class", "quasi-baer",
             "--caps", "ideal=64"),
        _job("check-ut2z4-qb", "ring", "check", "--ring", "ut2:z4", "--class", "quasi-baer",
             "--caps", "ideal=64"),
        _job("check-prod3x5-all", "ring", "check", "--ring", "prod:zn:3,zn:5", "--class", "all",
             "--side", "both"),
    ],
    "transfer": [
        _job("baer-zn8-box3", "verify", "thm37-baer", "--ring", "zn:8", "--box", "3"),
        _job("baer-zn6-nat2lex", "verify", "thm37-baer", "--ring", "zn:6", "--box", "2",
             "--monoid", "nat2:lex"),
        # At box 3 over Z/8 one sample whose six coefficients are all even
        # (about one seed in four) doubles the job's work, so this job keeps
        # a fixed seed and the seeded zn:8 job runs at box 2.
        _job("qb-zn8-box3", "verify", "thm37-quasibaer", "--ring", "zn:8", "--box", "3",
             "--seed", "0"),
        _seeded("qb-zn8-box2", "zn:8", 40, "--box", "2", "--samples", "40"),
        _seeded("qb-z2xz2-sigma1-box4", "prod:zn:2,zn:2", 20, "--sigma", "1", "--box", "4"),
    ],
    "smalljobs": [
        _job("prop34-zn6", "verify", "prop34", "--ring", "zn:6", "--box", "2"),
        _job("baer-zn4-box3", "verify", "thm37-baer", "--ring", "zn:4", "--box", "3"),
        _seeded("qb-zn6-box2", "zn:6", 20, "--box", "2", "--samples", "20"),
        _job("corollaries-zn4", "verify", "corollaries", "--ring", "zn:4", "--box", "2",
             "--samples", "3", "--seed", "5"),
        _job("search", "search"),
        _job("check-zn8-all", "ring", "check", "--ring", "zn:8", "--class", "all",
             "--side", "both"),
        _job("show-mat2z2", "ring", "show", "--ring", "mat2:z2"),
        _job("list", "ring", "list"),
    ],
    # Not a benchmark workload: a few fast jobs that still enter every traced
    # layer, used by selftest.py.
    "selftest": [
        _job("tiny-check-zn4", "ring", "check", "--ring", "zn:4", "--class", "all",
             "--side", "both"),
        _seeded("tiny-qb-zn4", "zn:4", 2, "--box", "2", "--samples", "2"),
        _job("tiny-baer-zn2-sigma0", "verify", "thm37-baer", "--ring", "zn:2", "--box", "2",
             "--sigma", "0"),
        _job("tiny-search", "search", "--catalog", "zn:2,mat2:z2"),
    ],
}


def job_argv(job, seed):
    """CLI arguments of a job; the seed reaches only the seeded jobs."""
    argv = list(job["argv"])
    if job["seeded"] is not None:
        argv += ["--seed", str(seed)]
    return argv + ["--output", "jsonl"]


def result_records(records):
    """The records that carry answers, reduced to the fields that are the answer.

    Output bytes are not compared: a key dropped from a record is not a
    wrong answer, a changed verdict, instance list or finding is.
    """
    out = []
    for r in records:
        kind = r.get("record")
        if kind == "verdict":
            out.append(["verdict", r["ring"], r["class"], r["side"], r["verdict"],
                        r["instances"], r["failing"]])
        elif kind == "report":
            out.append(["report", r["statement"], r["outcome"], r["entries"]])
        elif kind in ("finding", "search"):
            out.append([kind, r])
        elif kind == "ring":
            out.append(["ring", r["name"], r["order"]])
        elif kind == "tables":
            out.append(["tables", r["add"], r["mul"]])
        elif kind == "idempotents":
            out.append(["idempotents", r["values"]])
    return out


def _headline(result):
    kind = result[0]
    if kind == "verdict":
        _, ring, cls, side, verdict, instances, _ = result
        tail = f" ({len(instances)} instances)" if instances is not None else ""
        return f"{ring} {cls}{'[' + side + ']' if side else ''}: {'yes' if verdict else 'no'}{tail}"
    if kind == "report":
        return f"{result[1]}: {result[2]} ({result[3]} entries)"
    if kind == "search":
        return f"search: {result[1]['findings']} findings"
    return None


def sha256(data=b""):
    """A sha256 hasher.  hashlib is imported on first use, after the jobs:
    it loads OpenSSL, which adds about 4 MB to the benchmark process, and
    os.wait4 reports a job's max RSS as no less than that process's."""
    import hashlib
    return hashlib.sha256(data)


def expected_entry(exit_code, records):
    """What expected.json stores for a fixed job: the exit code, a digest of
    the result records and, for reading, their headlines."""
    results = result_records(records)
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return {
        "exit": exit_code,
        "results": len(results),
        "sha256": sha256(blob.encode()).hexdigest(),
        "headlines": [h for h in map(_headline, results) if h is not None],
    }


def parse_jsonl(data):
    """Records of a jsonl stream; None when some line is not a JSON object."""
    records = []
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            return None
        if not isinstance(rec, dict):
            return None
        records.append(rec)
    return records


def check_job(job, exit_code, stdout, expected):
    """None when the job's answer is right, else a one-line reason."""
    records = parse_jsonl(stdout)
    if records is None:
        return "output is not jsonl"
    if job["seeded"] is not None:
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        reports = [r for r in records if r.get("record") == "report"]
        if len(reports) != 1 or reports[0].get("outcome") != "PASS":
            return "no single PASS report"
        want = job["seeded"]["ideals"] * 3 + job["seeded"]["samples"] * 2
        if reports[0].get("entries") != want:
            return f"{reports[0].get('entries')} entries, expected {want}"
        return None
    want = expected.get(job["id"])
    if want is None:
        return "no expected value stored"
    got = expected_entry(exit_code, records)
    if got["exit"] != want["exit"]:
        return f"exit {got['exit']}, expected {want['exit']}"
    if got != want:
        return f"result records differ from expected.json; headlines now {got['headlines']}"
    return None
