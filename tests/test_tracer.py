"""The benchmark tracer's work counts, pinned from outside perfbench/.

perfbench/tracer.py reads the third positional argument of
armendariz_search as a scan mode, so a call site that passed the budget
positionally would make series.armendariz_search.pairs read 0 without an
error.  These runs pin the counts the tracer reports on three small jobs.
"""

import json
import os
import subprocess
import sys

import skewseries

PACKAGE_ROOT = os.path.dirname(os.path.dirname(skewseries.__file__))
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _traced_metrics(tmp_path, *argv):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, TRACER, str(out), "--", *argv, "--output", "jsonl"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["metrics"]


def test_armendariz_pairs_and_ideal_generation_counts(tmp_path):
    baer = _traced_metrics(tmp_path, "verify", "thm37-baer", "--ring", "zn:4", "--box", "3")
    assert baer["series.armendariz_search.pairs"] == 4096
    assert baer["series.armendariz_search.calls"] == 1
    qb = _traced_metrics(tmp_path, "verify", "thm37-quasibaer", "--ring", "zn:4", "--box", "2",
                         "--samples", "2")
    assert qb["rings.ideal_generated.calls"] == 2


def test_annihilator_counters_count_kernel_work(tmp_path):
    # A Thm 3.7 run reads its bridge off the box kernel's vectors, so it
    # never calls the traced bounded_annihilator_in_A and the tracer reports
    # no verify.bounded_annihilator metric.  c_e*g is read off coefficients,
    # so the only series products left are the 38 of the n-fold product sets
    # of the 255 instances of Z/8 at box 3.
    baer = _traced_metrics(tmp_path, "verify", "thm37-baer", "--ring", "zn:8", "--box", "3")
    assert not [name for name in baer if name.startswith("verify.bounded_annihilator.")]
    assert baer["series.mul.calls"] == 38
