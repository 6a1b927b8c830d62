import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import skewseries
from conftest import tables_ini, triangular, verdicts_from_jsonl
from skewseries import cli, monoids, properties, verify
from skewseries.cli import main, run
from skewseries.errors import InvariantViolation
from skewseries.monoids import OrderedMonoid
from skewseries.properties import InstanceBlocks, recheck_class_verdict
from skewseries.series import SkewContext, format_series, parse_series_literal
from skewseries.specfile import CATALOG_NAMES, builtin_ring


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), stream=buf)
    return code, buf.getvalue()


def invoke_jsonl(*argv):
    code, out = invoke(*argv, "--output", "jsonl")
    recs = [json.loads(line) for line in out.splitlines()]
    return code, recs


def summary_of(recs):
    assert recs[0]["record"] == "config"
    assert recs[-1]["record"] == "summary"
    assert recs[-1]["records"] == len(recs) - 1
    return recs[-1]


def test_ring_list_covers_the_catalog():
    code, recs = invoke_jsonl("ring", "list")
    assert code == 0
    names = [r["name"] for r in recs if r["record"] == "ring"]
    assert names == list(CATALOG_NAMES)
    assert len(names) == 10
    assert summary_of(recs)["exit"] == 0


def test_ring_show_lists_idempotents():
    code, out = invoke("ring", "show", "--ring", "zn:6")
    assert code == 0
    assert "idempotents: 0,1,3,4" in out
    assert "mul:" in out


def test_ring_check_reports_the_z4_witness():
    code, recs = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer")
    assert code == 0  # a 'no' verdict is a result, not an error
    v = next(r for r in recs if r["record"] == "verdict")
    assert v["class"] == "baer" and v["verdict"] is False
    assert v["failing"]["members"] == [2]
    assert v["failing"]["n_reached"] == 1
    assert v["failing"]["stable_annihilator"] == [0, 2]


def test_ring_check_all_classes_both_sides():
    code, recs = invoke_jsonl("ring", "check", "--ring", "zn:6",
                              "--class", "all", "--side", "both")
    assert code == 0
    verdicts = [(r["class"], r["side"]) for r in recs if r["record"] == "verdict"]
    assert verdicts == [
        ("baer", None), ("quasi-baer", None),
        ("gen-baer", "right"), ("gen-baer", "left"),
        ("gen-quasi-baer", "right"), ("gen-quasi-baer", "left"),
    ]
    assert all(r["verdict"] for r in recs if r["record"] == "verdict")


def test_verify_prop34_text_counts_idempotent_series():
    code, out = invoke("verify", "prop34", "--ring", "zn:6", "--box", "2")
    assert code == 0
    assert "prop34: PASS (4 idempotent series;" in out


def test_verify_thm37_baer_record_structure():
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zn:4", "--box", "3")
    assert code == 0
    hyp_names = [r["name"] for r in recs if r["record"] == "hypothesis"]
    assert hyp_names == ["quasitotal_order", "s_compatible",
                         "armendariz_at_box", "ring_gen_right_baer"]
    conclusions = [r for r in recs if r["record"] == "conclusion"]
    assert len(conclusions) == 45 and all(r["ok"] for r in conclusions)
    rep = next(r for r in recs if r["record"] == "report")
    assert rep["statement"] == "thm37_baer" and rep["outcome"] == "PASS"
    assert rep["entries"] == 45
    summary_of(recs)


def test_verify_refuses_non_armendariz_coefficients():
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "mat2:z2")
    assert code == 4
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "hypothesis-not-met"
    assert err["hypothesis"] == "armendariz_at_box"
    assert err["witness"]  # the refuting series pair rides along
    assert summary_of(recs)["exit"] == 4


def test_verify_corollaries_runs_all_five():
    code, recs = invoke_jsonl("verify", "corollaries", "--ring", "zn:4",
                              "--samples", "2")
    assert code == 0
    reports = [r for r in recs if r["record"] == "report"]
    assert [r["statement"] for r in reports] == [
        "cor38", "cor39", "cor310", "cor311", "cor312"]
    assert all(r["outcome"] == "PASS" for r in reports)


def test_verify_corollaries_rejects_twist_selectors():
    for selector in (("--monoid", "int:trivial"), ("--monoid", "nat:trivial"),
                     ("--monoid", "int"), ("--sigma", "0")):
        code, recs = invoke_jsonl("verify", "corollaries", "--ring", "zn:4", *selector)
        assert code == 2
        assert any(r["record"] == "error" and r["kind"] == "spec" for r in recs)
        assert "do not apply" in recs[-2]["message"]


def test_search_empty_catalog_finds_nothing():
    code, recs = invoke_jsonl("search", "--catalog", "")
    assert code == 0
    s = next(r for r in recs if r["record"] == "search")
    assert s["findings"] == 0 and s["exhausted"] is False


def test_armendariz_budget_is_inclusive_on_the_command_line():
    # zn:8 at box 2 has 8^4 = 4096 pairs: a budget of exactly that runs.
    argv = ("verify", "thm37-baer", "--ring", "zn:8", "--box", "2", "--budget")
    assert invoke_jsonl(*argv, "4096")[0] == 0
    code, recs = invoke_jsonl(*argv, "4095")
    assert code == 3 and summary_of(recs)["exit"] == 3


def test_search_gap_scan_on_named_rings():
    code, recs = invoke_jsonl("search", "--catalog", "zn:4,prod:zn:2,zn:2",
                              "--properties", "gen_baer_not_baer")
    assert code == 0
    findings = [r for r in recs if r["record"] == "finding"]
    assert [(f["kind"], f["ring"]) for f in findings] == [("gen_baer_not_baer", "zn:4")]


def test_search_reports_the_left_right_gaps_of_a_triangular_ring(tmp_path, monkeypatch):
    # [[Z/2, Z/2], [0, Z/4]] is generalized left Baer and left quasi-Baer but
    # neither on the right; zn:4 is the same on both sides.
    (tmp_path / "t.ini").write_text(tables_ini(triangular(2, 2, 4)))
    monkeypatch.chdir(tmp_path)
    code, recs = invoke_jsonl("search", "--catalog", "t.ini,zn:4", "--properties", "left_right")
    assert code == 0
    assert [r for r in recs if r["record"] == "finding"] == [
        {"record": "finding", "kind": "left_right", "ring": "t.ini", "class": cls,
         "right": False, "left": True}
        for cls in ("gen_baer", "gen_quasi_baer")]


def test_search_armendariz_single_finding_per_ring():
    code, recs = invoke_jsonl("search", "--catalog", "mat2:z2",
                              "--properties", "armendariz")
    assert code == 0
    findings = [r for r in recs if r["record"] == "finding"]
    assert len(findings) == 1
    f = findings[0]
    assert f["kind"] == "armendariz" and f["ring"] == "mat2:z2"
    assert isinstance(f["sigma_index"], int) and f["f"] and f["g"]


def test_search_budget_exhaustion_exits_3():
    code, recs = invoke_jsonl("search", "--catalog", "mat2:z2",
                              "--properties", "armendariz", "--budget", "10")
    assert code == 3
    s = next(r for r in recs if r["record"] == "search")
    assert s["exhausted"] is True and s["findings"] == 0
    assert summary_of(recs)["exit"] == 3


@pytest.mark.parametrize("body", ["kind = nat\nk = 2\norder = lex\n", "kind = int\n"])
def test_search_box_ignores_a_monoid_file_named_nat_natural(tmp_path, monkeypatch, body):
    # The search scans over N whatever files the working directory holds.
    argv = ("search", "--catalog", "zn:2", "--properties", "armendariz")
    code, clean = invoke_jsonl(*argv)
    assert code == 0 and clean[-2]["work"] == 16
    (tmp_path / "nat:natural").write_text("[monoid]\n" + body)
    monkeypatch.chdir(tmp_path)
    code, recs = invoke_jsonl(*argv)
    assert code == 0 and recs[1:] == clean[1:]


def test_nat2_product_quasi_baer_run_passes_and_a_small_budget_stops_it():
    # The run passes under the default budget, and --budget 100 stops it with
    # exit 3.  On the CLI the exhaustive Armendariz pair check trips a small
    # budget before any annihilator call, so this does not pin how the
    # annihilator kernel is charged;
    # test_verify.py::test_bounded_annihilator_budget_counts_slot_values_tried
    # does.
    argv = ("verify", "thm37-quasibaer", "--ring", "zn:6", "--box", "2",
            "--monoid", "nat2:product", "--samples", "4")
    code, recs = invoke_jsonl(*argv)
    assert code == 0
    report = next(r for r in recs if r["record"] == "report")
    assert report["outcome"] == "PASS" and report["entries"] == 20
    code, recs = invoke_jsonl(*argv, "--budget", "100")
    assert code == 3 and recs[-2]["kind"] == "cap-exceeded"


def test_bad_sigma_index_names_the_valid_range():
    code, recs = invoke_jsonl("verify", "prop34", "--ring", "zn:4", "--sigma", "7")
    assert code == 2
    err = next(r for r in recs if r["record"] == "error")
    assert "valid: 0.." in err["message"]


def test_unknown_ring_is_a_spec_error():
    code, recs = invoke_jsonl("ring", "show", "--ring", "zn:banana")
    assert code == 2
    assert recs[-2] == {
        "record": "error", "kind": "spec",
        "message": "unknown ring 'zn:banana'; builtins match zn:N, prod:zn:A,zn:B and "
                   "(mat|ut)(2|3):zN with N, A, B >= 2; a file path overrides them"}


# Each of these built a ring while builtin names were read by regular
# expressions, whose \d took any script's decimal digits and whose $ matched
# before a final newline.  They stay apart from the test above, whose literal
# argv is a case of test_command_line.py's parser-parity corpus.
@pytest.mark.parametrize("name", ["zn:\u0663", "ut2:z\u0662", "prod:zn:2,zn:\u0663", "ut2:z2\n"])
def test_a_ring_name_is_read_in_ascii_digits_to_its_end(name):
    code, recs = invoke_jsonl("ring", "show", "--ring", name)
    assert code == 2
    assert recs[-2] == {
        "record": "error", "kind": "spec",
        "message": f"unknown ring {name!r}; builtins match zn:N, prod:zn:A,zn:B and "
                   "(mat|ut)(2|3):zN with N, A, B >= 2; a file path overrides them"}


def test_a_monoid_arity_is_read_in_ascii_digits():
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zn:2", "--monoid", "nat\u0662:lex")
    assert code == 2
    assert recs[-2] == {
        "record": "error", "kind": "spec",
        "message": "monoid spec 'nat\u0662:lex' not understood; use nat, int, or natK "
                   "with an optional :order suffix"}


@pytest.mark.parametrize("digits", [1000, 5000])
def test_a_long_ring_number_gives_one_answer_under_every_digit_limit(digits):
    # A number past 640 digits is refused before int() reads it, so neither
    # the exit code nor a byte depends on int-to-str's digit limit.
    name = "zn:" + "7" * digits
    package_root = os.path.dirname(os.path.dirname(skewseries.__file__))
    runs = set()
    for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
        proc = subprocess.run(
            [sys.executable, "-m", "skewseries", "ring", "show", "--ring", name,
             "--output", "jsonl"],
            capture_output=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, **limit})
        runs.add((proc.returncode, proc.stdout, proc.stderr))
    [(code, out, err)] = runs
    assert code == 2 and err == b""
    assert json.loads(out.splitlines()[-2]) == {
        "record": "error", "kind": "spec",
        "message": f"number of {digits} digits in ring spec {name!r} is longer than 640 digits"}


def check_all_jsonl(name):
    code, out = invoke("ring", "check", "--ring", name, "--class", "all", "--side", "both",
                       "--output", "jsonl")
    assert code == 0
    return out


# mat2:z2's certificates, of up to 65,535 triples each, are rechecked in CI.
@pytest.mark.parametrize("name", [*(n for n in CATALOG_NAMES if n != "mat2:z2"),
                                  "zn:12", "prod:zn:2,zn:6"])
def test_accepting_verdict_records_recheck_from_their_bytes(name):
    verdicts = verdicts_from_jsonl(check_all_jsonl(name))
    assert len(verdicts) == 6
    for rec, cv in verdicts:
        assert cv.instance_kind == rec["instance_kind"]
        # A rejecting record rechecks False until rejections have a recheck.
        assert recheck_class_verdict(cv) is rec["verdict"]


def test_a_corrupted_triple_fails_the_recheck_from_bytes():
    out = check_all_jsonl("zn:6")
    # Each certificate ends with r(R) = 0R; claim 1R there instead.
    last, wrong = "[[0,1,2,3,4,5],1,0]]", "[[0,1,2,3,4,5],1,1]]"
    assert out.count(last) == 6
    verdicts = verdicts_from_jsonl(out.replace(last, wrong))
    assert [rec["verdict"] for rec, _ in verdicts] == [True] * 6
    assert not any(recheck_class_verdict(cv) for _, cv in verdicts)


def test_caps_flag_trips_the_subset_cap():
    code, recs = invoke_jsonl("ring", "check", "--ring", "mat2:z2",
                              "--class", "baer", "--caps", "subset=8")
    assert code == 3
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "cap-exceeded"


@pytest.mark.parametrize("entry", ["bogus=3", "subset=x", "subset", "subset=-1"])
def test_malformed_caps_entry(entry):
    code, recs = invoke_jsonl("ring", "list", "--caps", entry)
    assert code == 2
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "spec" and "--caps" in err["message"]
    assert summary_of(recs)["exit"] == 2


def test_caps_last_for_one_run_only():
    code, _ = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer",
                           "--caps", "subset=2")
    assert code == 3
    code, recs = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer")
    assert code == 0
    assert next(r for r in recs if r["record"] == "verdict")["verdict"] is False


def test_caps_come_only_from_the_flag(monkeypatch):
    # The environment is not a source of caps; only --caps stops this run.
    monkeypatch.setenv("SKEWSERIES_CAPS", "subset=2")
    assert invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer")[0] == 0
    code, _ = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer",
                           "--caps", "subset=2")
    assert code == 3


@pytest.mark.parametrize("argv,message", [
    (("ring", "check", "--ring", "zn:4", "--caps", "subset=-1"),
     "cap subset in --caps must be >= 0, got -1"),
    (("verify", "thm37-baer", "--ring", "zn:4", "--budget", "-5"),
     "--budget must be >= 0, got -5"),
    (("search", "--catalog", "zn:2", "--budget", "-5"), "--budget must be >= 0, got -5"),
    (("verify", "thm37-quasibaer", "--ring", "zn:4", "--samples", "-1"),
     "--samples must be >= 0, got -1"),
])
def test_negative_counts_are_spec_errors(argv, message):
    code, recs = invoke_jsonl(*argv)
    assert code == 2
    assert recs[-2] == {"record": "error", "kind": "spec", "message": message}
    assert summary_of(recs)["exit"] == 2


@pytest.mark.parametrize("argv,exit_code,kind,message", [
    (("verify", "prop34", "--ring", "zn:4", "--box", "0"), 2, "spec",
     "--box must be >= 1, got 0"),
    (("search", "--box", "0"), 2, "spec", "--box must be >= 1, got 0"),
    (("series", "--ring", "zn:32", "--sigma", "0", "1@0"), 3, "cap-exceeded",
     "endomorphism search capped at order 16, ring has 32"),
])
def test_refusals_before_any_work(argv, exit_code, kind, message):
    code, recs = invoke_jsonl(*argv)
    assert code == exit_code
    assert recs[-2] == {"record": "error", "kind": kind, "message": message}
    assert summary_of(recs)["exit"] == exit_code


@pytest.mark.parametrize("argv,exit_code", [
    # A zero cap or budget is a valid value that stops the run at once.
    (("ring", "check", "--ring", "zn:4", "--caps", "subset=0"), 3),
    (("verify", "thm37-baer", "--ring", "zn:4", "--budget", "0"), 3),
    (("search", "--catalog", "zn:2", "--budget", "0"), 3),
    (("verify", "thm37-quasibaer", "--ring", "zn:4", "--samples", "0"), 0),
])
def test_zero_counts_stay_valid(argv, exit_code):
    code, recs = invoke_jsonl(*argv)
    assert code == exit_code
    assert all(r.get("kind") != "spec" for r in recs)


@pytest.mark.parametrize("literal,kind,message", [
    ("9@0", "ForeignElement", "coefficient 9 not in ring of order 4"),
    ("1@0 + 2@0", "DuplicateExponent", "exponent (0,) given twice"),
    ("1@0,1", "MixedMonoids", "(0, 1) is not an arity-1 exponent"),
])
def test_an_algebra_error_is_named_by_its_class_and_exits_2(literal, kind, message):
    code, recs = invoke_jsonl("series", "--ring", "zn:4", literal)
    assert code == 2
    assert recs[-2] == {"record": "error", "kind": kind, "message": message}
    assert summary_of(recs)["exit"] == 2


def test_series_subcommand_sum_and_product():
    code, recs = invoke_jsonl("series", "--ring", "zn:4", "2@0 + 3@1", "2@1")
    assert code == 0
    ctx = SkewContext(builtin_ring("zn:4"), OrderedMonoid("nat", "natural"))
    f = parse_series_literal(ctx, "2@0 + 3@1")
    g = parse_series_literal(ctx, "2@1")
    by_role = {r["role"]: r["value"] for r in recs if r["record"] == "series"}
    assert by_role["sum"] == format_series(f + g)
    assert by_role["product"] == format_series(f * g)
    assert by_role["product"] == format_series(
        parse_series_literal(ctx, "2@2"))  # 2*2 cancels at 1; 3*2 lands at 2


def test_text_output_is_derived_from_the_same_records():
    _, text = invoke("ring", "check", "--ring", "zn:4", "--class", "baer")
    assert "zn:4 baer: verdict no" in text
    assert "witness {2}" in text and "n=1" in text


def test_repeated_runs_are_identical():
    a = invoke("verify", "thm37-quasibaer", "--ring", "zn:6", "--box", "2",
               "--samples", "5", "--seed", "1", "--output", "jsonl")
    b = invoke("verify", "thm37-quasibaer", "--ring", "zn:6", "--box", "2",
               "--samples", "5", "--seed", "1", "--output", "jsonl")
    assert a == b


def test_main_is_a_plain_exit_code_wrapper(capsys):
    assert main(["ring", "list"]) == 0
    assert "zn:2" in capsys.readouterr().out


def _child(argv, stdout, cwd=None):
    """`python -m skewseries *argv` in a fresh process, stderr captured."""
    package_root = os.path.dirname(os.path.dirname(skewseries.__file__))
    return subprocess.run(
        [sys.executable, "-m", "skewseries", *argv], stdout=stdout, stderr=subprocess.PIPE,
        cwd=cwd, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )


def _child_into_closed_pipe(argv):
    # The read end is closed before the child starts, so its first flush
    # meets a pipe with no reader, as under `| head -c 10`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _child(argv, write_end)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_1_without_a_traceback():
    proc = _child_into_closed_pipe(["ring", "show", "--ring", "ut3:z2", "--output", "jsonl"])
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_closed_stdout_exits_1_when_the_output_fits_one_buffer():
    # 200 bytes: nothing reaches the pipe before main's own flush, which
    # must meet the closed pipe inside main's try.
    proc = _child_into_closed_pipe(["ring", "show", "--ring", "zn:2"])
    assert proc.returncode == 1
    assert proc.stderr == b""


HELP_LEVELS = {"top": ["--help"], "command": ["verify", "--help"]}


@pytest.mark.parametrize("level", HELP_LEVELS)
def test_help_into_a_closed_stdout_exits_1_without_a_traceback(level):
    # --help leaves run by SystemExit; its own flush must meet the closed
    # pipe inside main's try, as the exit table of the README says.
    proc = _child_into_closed_pipe(HELP_LEVELS[level])
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("level", HELP_LEVELS)
def test_help_into_an_open_pipe_exits_0_with_the_help_text(level):
    argv = HELP_LEVELS[level]
    proc = _child(argv, subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _in_process(argv)[1]
    assert proc.stdout.startswith(f"usage: skewseries {' '.join(argv[:-1])}".encode())


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


# name -> (argv, the exit code the README gives it)
CHILD_RUNS = {
    "jsonl-5MB": (["ring", "check", "--ring", "mat2:z2", "--class", "all", "--side", "both",
                   "--output", "jsonl"], 0),
    "text": (["verify", "thm37-quasibaer", "--ring", "zn:6", "--box", "2", "--samples", "5",
              "--seed", "1"], 0),
    "help": (["verify", "--help"], 0),
    "bad-spec": (["ring", "show", "--ring", "zn:0"], 2),
    "usage-error": (["verify", "prop34"], 2),
    "budget": (["search", "--catalog", "mat2:z2", "--properties", "armendariz",
                "--budget", "10"], 3),
    "hypothesis": (["verify", "thm37-baer", "--ring", "mat2:z2", "--box", "2"], 4),
}


@pytest.mark.parametrize("sink", ["file", "pipe"])
@pytest.mark.parametrize("name", CHILD_RUNS)
def test_a_cli_process_writes_the_bytes_of_run_and_exits_with_its_code(tmp_path, name, sink):
    # The process ends through os._exit, which drops whatever no flush wrote.
    argv, readme_code = CHILD_RUNS[name]
    if sink == "file":
        with open(tmp_path / "out", "wb") as out:
            proc = _child(argv, out)
        stdout = (tmp_path / "out").read_bytes()
    else:
        proc = _child(argv, subprocess.PIPE)
        stdout = proc.stdout
    code, want_out, want_err = _in_process(argv)
    assert proc.returncode == code == readme_code
    assert proc.stderr == want_err
    assert len(stdout) == len(want_out) and stdout == want_out


def test_broken_invariant_exits_6(monkeypatch):
    real = properties._decide

    def lopsided(ring, cls, side, *args, **kwargs):
        # Flip the left walk's depth-1 result, which decides the ordinary class.
        *rest, flat = real(ring, cls, side, *args, **kwargs)
        if side == "left":
            flat = ((), 1, ()) if flat is None else None
        return (*rest, flat)

    monkeypatch.setattr(properties, "_decide", lopsided)
    # A non-commutative ring: a commutative one has no separate left walk.
    code, recs = invoke_jsonl("ring", "check", "--ring", "ut2:z2", "--class", "baer")
    assert code == 6
    assert recs[-2] == {"record": "error", "kind": "internal",
                        "message": "baer verdict must be side-symmetric"}
    assert summary_of(recs)["exit"] == 6


def test_unhandled_order_mode_exits_6(monkeypatch):
    real_init = monoids.OrderedMonoid.__init__

    def unknown_refinement(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.refined_mode = "bogus"

    monkeypatch.setattr(monoids.OrderedMonoid, "__init__", unknown_refinement)
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zn:2", "--box", "2")
    assert code == 6
    assert recs[-2] == {"record": "error", "kind": "internal",
                        "message": "unhandled mode bogus"}
    assert summary_of(recs)["exit"] == 6


def test_internal_error_in_monoid_construction_exits_6(monkeypatch):
    # Only bad input (ValueError, IllegalPairing) becomes a spec error.
    def broken(self, *args, **kwargs):
        raise InvariantViolation("monoid table lost")

    monkeypatch.setattr(monoids.OrderedMonoid, "__init__", broken)
    code, recs = invoke_jsonl("verify", "prop34", "--ring", "zn:2", "--monoid", "nat2:lex")
    assert code == 6
    assert recs[-2] == {"record": "error", "kind": "internal", "message": "monoid table lost"}
    assert summary_of(recs)["exit"] == 6


def test_pair_budget_is_checked_before_the_order_hypothesis(monkeypatch):
    # The order check costs O(points^3); a box whose Armendariz scan is over
    # budget stops before it.
    calls = []
    monkeypatch.setattr(verify, "check_refinement", lambda *args: calls.append(args))
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zn:2", "--monoid", "nat3:lex",
                              "--box", "4", "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                        "message": f"exhaustive search needs {4 ** 64} pairs, budget is 100"}
    assert calls == []


@pytest.mark.parametrize("statement", ["thm37-baer", "prop34", "corollaries"])
def test_pair_count_past_the_digit_limit_prints_as_a_power(statement):
    # 2^16000 has 4817 digits, more than int-to-str conversion allows by
    # default; the budget error must still be a cap error, not a spec error.
    code, recs = invoke_jsonl("verify", statement, "--ring", "zn:2", "--box", "8000",
                              "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                        "message": "exhaustive search needs 2^16000 pairs, budget is 100"}


@pytest.mark.parametrize("ring,box,count", [
    # A count of up to 4300 digits prints in full; from 10^4300 on, as n^p.
    ("zn:2", "7142", 2 ** 14284),
    ("zn:2", "7143", "2^14286"),
    ("zn:10", "2149", 10 ** 4298),
    ("zn:10", "2150", "10^4300"),
    ("zn:3", "5000", "3^10000"),
])
def test_pair_count_prints_in_full_below_4301_digits(ring, box, count):
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", ring, "--box", box,
                              "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                        "message": f"exhaustive search needs {count} pairs, budget is 100"}


@pytest.mark.parametrize("statement", ["thm37-baer", "prop34", "corollaries"])
def test_pair_count_power_prints_past_the_digit_limit(statement):
    # 4300 nines is the longest --box that parses; the power 2*box has 4301
    # digits, one more than str() converts by default.
    nines = "9" * 4300
    code, recs = invoke_jsonl("verify", statement, "--ring", "zn:2", "--box", nines,
                              "--budget", "100")
    assert code == 3
    power = "1" + "9" * 4299 + "8"
    assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                        "message": f"exhaustive search needs 2^{power} pairs, budget is 100"}


@pytest.mark.parametrize("statement,argv,count", [
    ("thm37-baer", ("--monoid", "nat3:lex", "--box", "2000"), "2^16000000000"),
    ("prop34", ("--monoid", "nat3:lex", "--box", "2000"), "2^16000000000"),
    ("corollaries", ("--box", "8000"), "2^16000"),
])
def test_over_budget_box_stops_before_its_points_are_built(monkeypatch, statement, argv, count):
    # The pair count comes from the number of box points alone: 2000 values
    # per axis of nat3 are 8*10^9 points, which must never be built.
    def refuse(self, bound):
        pytest.fail(f"built the bound-{bound} box of an over-budget run")

    monkeypatch.setattr(OrderedMonoid, "box", refuse)
    code, recs = invoke_jsonl("verify", statement, "--ring", "zn:2", *argv, "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                        "message": f"exhaustive search needs {count} pairs, budget is 100"}


@pytest.mark.parametrize("argv", [
    ("verify", "thm37-baer"), ("verify", "prop34"), ("verify", "corollaries"),
    ("search", "--properties", "armendariz"),
])
def test_a_one_element_ring_holds_its_box_points_to_the_budget(tmp_path, monkeypatch, argv):
    # One element has one pair at any box, so only the point count can stop
    # a box too large to build.
    def refuse(self, bound):
        pytest.fail(f"built the bound-{bound} box of an over-budget run")

    (tmp_path / "one.ini").write_text("[ring]\nkind = tables\norder = 1\nadd = 0\nmul = 0\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(OrderedMonoid, "box", refuse)
    ring = ("--catalog" if argv[0] == "search" else "--ring", "one.ini")
    code, recs = invoke_jsonl(*argv, *ring, "--box", "101", "--budget", "100")
    assert code == 3
    if argv[0] == "search":
        assert recs[-2]["work"] == 0 and recs[-2]["exhausted"] is True
    else:
        assert recs[-2] == {"record": "error", "kind": "cap-exceeded",
                            "message": "exhaustive search needs a box of 101 points, budget is 100"}


def test_over_budget_search_stops_before_its_box_is_built(monkeypatch):
    # Each twist's pair count, 2^600000, comes from the point count alone;
    # the 300000-point box must never be built.
    def refuse(self, bound):
        pytest.fail(f"built the bound-{bound} box of an over-budget search")

    monkeypatch.setattr(OrderedMonoid, "box", refuse)
    code, recs = invoke_jsonl("search", "--catalog", "zn:2", "--properties", "armendariz",
                              "--box", "300000", "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "search", "findings": 0, "exhausted": True, "work": 0}


def test_search_box_past_the_digit_limit_is_exhausted():
    code, recs = invoke_jsonl("search", "--catalog", "zn:2", "--properties", "armendariz",
                              "--box", "9" * 4300, "--budget", "100")
    assert code == 3
    assert recs[-2] == {"record": "search", "findings": 0, "exhausted": True, "work": 0}


def test_series_exponents_print_past_the_int_to_str_digit_limit():
    # The product's exponent has 4301 digits, one more than str() converts
    # by default; it still prints in exact decimal.
    nines = "9" * 4300
    code, recs = invoke_jsonl("series", "--ring", "zn:4", f"1@{nines}", f"1@{nines}")
    assert code == 0
    assert recs[-3] == {"record": "series", "role": "sum", "value": f"2@{nines}"}
    assert recs[-2] == {"record": "series", "role": "product", "value": "1@1" + "9" * 4299 + "8"}


@pytest.mark.parametrize("argv,product", [
    (("--ring", "zn:4", "1@2000", "1@3"), "1@2003"),
    (("--ring", "prod:zn:2,zn:2", "--sigma", "2", "--monoid", "int:natural",
      "1@-2001 + 2@1", "3@-1 + 1@1000000001"), "1@-2002 + 2@0 + 2@1000000002"),
], ids=["untwisted", "swap-over-int"])
def test_deep_exponents_multiply(argv, product):
    # A twist at any exponent is one lookup in the power cycle of sigma.
    code, recs = invoke_jsonl("series", *argv)
    assert code == 0
    assert recs[-2] == {"record": "series", "role": "product", "value": product}


def test_integer_box_is_centred_on_the_identity():
    # --box N over the integers is the 2N-1 points -(N-1)..N-1.
    assert OrderedMonoid("int", "natural").box(1) == [(-1,), (0,), (1,)]
    assert OrderedMonoid("nat", "natural").box(1) == [(0,), (1,)]
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zn:2", "--box", "2",
                              "--monoid", "int")
    assert code == 0
    report = next(r for r in recs if r["record"] == "report")
    assert "inside box {-1, 0, 1} of OrderedMonoid(int, natural)" in report["scope"]


def test_unknown_search_property_is_a_spec_error():
    code, recs = invoke_jsonl("search", "--catalog", "zn:2", "--properties", "armendariz,bogus")
    assert code == 2
    assert recs[-2] == {
        "record": "error", "kind": "spec",
        "message": "unknown search property 'bogus'; options: quasi_baer_not_baer, "
                   "gen_baer_not_baer, gen_quasi_baer_not_gen_baer, left_right, armendariz"}
    assert summary_of(recs)["exit"] == 2


SINGLE_CLASS_RUNS = (
    ("--class", "baer"),
    ("--class", "quasi-baer"),
    ("--class", "gen-baer", "--side", "right"),
    ("--class", "gen-baer", "--side", "left"),
    ("--class", "gen-quasi-baer", "--side", "right"),
    ("--class", "gen-quasi-baer", "--side", "left"),
)


@pytest.mark.parametrize("ring", CATALOG_NAMES + ("prod:zn:3,zn:5", "prod:zn:4,zn:2"))
def test_all_classes_in_one_run_equal_the_single_class_runs(ring):
    # One walk per side answers several classes at once; every verdict it
    # reports must be the one a run asking for that class alone reports.
    def verdicts(*argv):
        code, out = invoke("ring", "check", "--ring", ring, *argv, "--output", "jsonl")
        assert code == 0
        return [line for line in out.splitlines() if '"record":"verdict"' in line]

    singles = [v for argv in SINGLE_CLASS_RUNS for v in verdicts(*argv)]
    assert verdicts("--class", "all", "--side", "both") == singles


# zn:4 and zn:6 are commutative, so one walk per instance kind answers both
# of their sides; the non-commutative mat2:z2 is walked on each side.
@pytest.mark.parametrize("argv,walks", [
    pytest.param(("ring", "check", "--ring", "zn:4", "--class", "all", "--side", "both"), 2,
                 id="all-both"),
    pytest.param(("ring", "check", "--ring", "zn:4", "--class", "all"), 2, id="all-right"),
    pytest.param(("ring", "check", "--ring", "zn:4", "--class", "baer"), 1, id="baer"),
    pytest.param(("ring", "check", "--ring", "zn:4", "--class", "gen-quasi-baer",
                  "--side", "left"), 1, id="gen-quasi-baer-left"),
    pytest.param(("search", "--catalog", "zn:4,zn:6,mat2:z2"), 2 + 2 + 4, id="search"),
])
def test_each_ring_side_is_walked_once_per_instance_kind(argv, walks, monkeypatch):
    calls = []
    real = properties._decide

    def counted(ring, cls, side, *args, **kwargs):
        calls.append((ring.label, cls, side))
        return real(ring, cls, side, *args, **kwargs)

    monkeypatch.setattr(properties, "_decide", counted)
    code, _ = invoke_jsonl(*argv)
    assert code == 0
    assert len(set(calls)) == len(calls) == walks


@pytest.mark.parametrize("ring,cls,subset_walks,ideal_walks", [
    ("zn:8", "all", 1, 1),
    ("prod:zn:3,zn:5", "all", 1, 1),
    ("ut2:z2", "all", 2, 2),
    ("mat2:z2", "all", 2, 2),
    ("zn:8", "baer", 1, 0),
])
def test_a_commutative_ring_is_walked_once_per_instance_kind(ring, cls, subset_walks,
                                                             ideal_walks, monkeypatch):
    calls = []
    real = properties._decide

    def counted(ring, cls, side, *args, **kwargs):
        calls.append(cls)
        return real(ring, cls, side, *args, **kwargs)

    monkeypatch.setattr(properties, "_decide", counted)
    code, _ = invoke_jsonl("ring", "check", "--ring", ring, "--class", cls, "--side", "both")
    assert code == 0
    assert (calls.count("baer"), calls.count("quasi_baer")) == (subset_walks, ideal_walks)


def _dumps(r):
    # A certificate is dumped as the tuple of its triples.
    return json.dumps(r, sort_keys=True, separators=(",", ":"), default=tuple)


def _verdict(ring, instances):
    return {"record": "verdict", "ring": ring, "class": "baer", "side": None,
            "verdict": instances is not None, "instance_kind": "subset",
            "instances": instances, "failing": None}


def test_emit_writes_each_record_as_its_own_json_dumps(monkeypatch):
    encoded = []
    json_parts = InstanceBlocks.json_parts

    def counting(self):
        encoded.append(tuple(self))
        return json_parts(self)

    monkeypatch.setattr(InstanceBlocks, "json_parts", counting)
    # The triples ((0,), 1, 1), ((0, 1), 2, 0) as one block with depths.
    shared = InstanceBlocks([([(0,), (0, 1)], (), [1, 0], [1, 2])])
    alone = InstanceBlocks([([(1,)], (), [0], None)])
    records = [
        {"record": "config", "command": "ring"},
        _verdict("zn:4", shared),
        _verdict("zn:4", alone),  # unshared, between two uses of shared
        _verdict("zn:4", shared),
        _verdict('odd"instances":null.ini', shared),
        _verdict('odd"instances":null.ini', None),
        _verdict("zn:4", InstanceBlocks()),
        {"record": "summary", "records": 7, "exit": 0},
    ]
    buf = io.StringIO()
    cli._emit(records, "jsonl", buf)
    assert buf.getvalue() == "".join(_dumps(r) + "\n" for r in records)
    # The shared certificate is encoded once, though three records carry it.
    assert encoded == [(((0,), 1, 1), ((0, 1), 2, 0)), (((1,), 1, 0),), ()]


_MAT2_ALL = ("ring", "check", "--ring", "mat2:z2", "--class", "all", "--side", "both",
             "--output", "jsonl")


def _mat2_certificate_parts():
    # The block texts of each accepted mat2:z2 certificate.
    return [cv.per_instance.json_parts()
            for cls in ("baer", "quasi_baer")
            for cv in properties.class_profile(builtin_ring("mat2:z2"), cls).values()
            if cv.verdict]


class _DigestWriter:
    """A text stream that keeps only the sha256 of what it was given and the
    length of its longest write."""

    def __init__(self):
        self.sha256, self.longest = hashlib.sha256(), 0

    def write(self, text):
        self.sha256.update(text.encode())
        self.longest = max(self.longest, len(text))


def test_jsonl_certificates_are_written_block_by_block():
    out = _DigestWriter()
    assert run(list(_MAT2_ALL), stream=out) == 0
    # The mat2:z2 all-classes pin of tests/test_golden.py.
    assert out.sha256.hexdigest() == (
        "ad643757c869d43ad852db022ecbde68a9ec0380110cc3bb04800c879ee2d0cc")
    longest_part = max(len(part) for parts in _mat2_certificate_parts() for part in parts)
    assert longest_part == 9727
    assert out.longest <= longest_part


def test_jsonl_holds_one_copy_of_a_certificate():
    # The run keeps each certificate's blocks and their texts until its last
    # record, and nothing as long as the whole certificate text besides.
    longest = max(len("[" + ",".join(parts) + "]") for parts in _mat2_certificate_parts())
    tracemalloc.start()
    try:
        assert run(list(_MAT2_ALL), stream=_DigestWriter()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * longest, (peak, longest)


def test_jsonl_of_a_ring_file_named_like_a_record_key(tmp_path):
    # The second name holds the text that stands in for the certificate
    # while a verdict record is encoded.
    for name in ('zn6"instances":null.ini', 'zn6"instances":0.ini'):
        path = tmp_path / name
        path.write_text("[ring]\nkind = zn\nn = 6\n")
        code, out = invoke("ring", "check", "--ring", str(path), "--class", "all",
                           "--side", "both", "--output", "jsonl")
        assert code == 0
        lines = out.splitlines()
        verdicts = [json.loads(line) for line in lines if '"record":"verdict"' in line]
        assert [v["ring"] for v in verdicts] == [str(path)] * 6
        assert all(v["instances"] for v in verdicts)
        assert [_dumps(json.loads(line)) for line in lines] == lines


def test_zero_ring_box_over_the_order_check_budget_exits_3(tmp_path, monkeypatch):
    # A one-element ring has one Armendariz pair at any box, so only the
    # order check's bound stops --box 6 over N^3: 216 points, 216^3 triples.
    (tmp_path / "zero.ini").write_text("[ring]\nkind = tables\norder = 1\nadd = 0\nmul = 0\n")
    monkeypatch.chdir(tmp_path)

    def spy(monoid, bound):
        raise InvariantViolation("the order check ran")

    monkeypatch.setattr(verify, "check_refinement", spy)
    code, recs = invoke_jsonl("verify", "thm37-baer", "--ring", "zero.ini",
                              "--monoid", "nat3:lex", "--box", "6")
    assert code == 3
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "cap-exceeded"
    assert err["message"] == "order check needs 216^3 point triples, budget is 2000000"


def _table_ring_file(path, n, add="", mul=""):
    # Z/n as a kind = tables file, unless add and mul text is given.
    def rows(op):
        return "; ".join(" ".join(str(op(a, b) % n) for b in range(n)) for a in range(n))

    path.write_text(f"[ring]\nkind = tables\norder = {n}\n"
                    f"add = {add or rows(int.__add__)}\nmul = {mul or rows(int.__mul__)}\n")
    return str(path)


def test_table_ring_files_obey_the_order_cap(tmp_path):
    path = _table_ring_file(tmp_path / "z65.ini", 65)
    code, recs = invoke_jsonl("ring", "show", "--ring", path)
    assert code == 3
    assert recs[1:] == [
        {"record": "error", "kind": "cap-exceeded",
         "message": "constructed order 65 exceeds cap 64"},
        {"record": "summary", "records": 2, "exit": 3}]
    # The declared order is checked before the table text is read.
    junk = _table_ring_file(tmp_path / "junk.ini", 1000, add="x", mul="x")
    assert invoke_jsonl("ring", "show", "--ring", junk)[0] == 3
    code, recs = invoke_jsonl("ring", "show", "--ring", path, "--caps", "order=65")
    assert code == 0
    tables = next(r for r in recs if r["record"] == "tables")
    assert tables["add"][64][1] == 0 and tables["mul"][64][64] == 1


@pytest.mark.parametrize("files", [
    {"self.ini": "kind = product\nleft = self.ini\nright = zn:2\n"},
    {"a.ini": "kind = matrix\nbase = b.ini\n",
     "b.ini": "kind = product\nleft = zn:2\nright = a.ini\n"},
], ids=["self", "mutual"])
def test_ring_files_that_name_themselves_exit_2(tmp_path, files):
    for name, body in files.items():
        (tmp_path / name).write_text("[ring]\n" + body)
    first = next(iter(files))
    proc = _child(["ring", "show", "--ring", first, "--output", "jsonl"], subprocess.PIPE,
                  cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == b""
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["record"] for r in recs] == ["config", "error", "summary"]
    chain = [os.path.realpath(tmp_path / name) for name in (*files, first)]
    assert recs[1] == {"record": "error", "kind": "spec",
                       "message": "ring files refer to themselves: " + " -> ".join(chain)}


@pytest.mark.parametrize("plain,spaced", [
    (("search", "--catalog", "zn:2,zn:4", "--properties", "armendariz,left_right"),
     ("search", "--catalog", "zn:2, zn:4", "--properties", " armendariz, left_right ")),
    (("verify", "corollaries", "--ring", "zn:4", "--samples", "2"),
     ("verify", "corollaries", "--ring", "zn:4", "--samples", "2", "--monoid", "nat",
      "--sigma", " id")),
    (("verify", "corollaries", "--ring", "zn:2"),
     ("verify", "corollaries", "--ring", "zn:2", "--monoid", "nat: natural", "--sigma", "")),
], ids=["search", "corollaries-nat", "corollaries-nat-natural"])
def test_spellings_the_resolvers_accept_give_the_same_records(plain, spaced):
    code, recs = invoke_jsonl(*plain)
    assert code == 0
    spaced_code, spaced_recs = invoke_jsonl(*spaced)
    assert spaced_code == 0 and spaced_recs[1:] == recs[1:]


def _one_wrong_ring_annihilator(monkeypatch):
    # Over Z/4 only the Baer instance X={1} (n=1, e=0) has the product set
    # {1}; give it the annihilator {0,2} instead of {0}.
    real = verify.annihilator

    def wrong(ring, subset, side="right"):
        return frozenset({0, 2}) if set(subset) == {1} else real(ring, subset, side)

    monkeypatch.setattr(verify, "annihilator", wrong)


_FAILED_INSTANCE = ("X={1} n=1 e=0: constant slice of the series annihilator equals e*R "
                    "equals the ring annihilator")
_FAILED_WITNESS = "constants [0] vs e*R [0] vs ring [0, 2]"


def test_a_failed_conclusion_exits_5_with_its_witness(monkeypatch):
    _one_wrong_ring_annihilator(monkeypatch)
    argv = ("verify", "thm37-baer", "--ring", "zn:4", "--box", "2")
    code, recs = invoke_jsonl(*argv)
    assert code == 5
    failed = [r for r in recs if r["record"] == "conclusion" and not r["ok"]]
    assert failed == [{"record": "conclusion", "statement": "prop35_1", "ok": False,
                       "instance": _FAILED_INSTANCE, "witness": _FAILED_WITNESS}]
    assert next(r for r in recs if r["record"] == "report")["outcome"] == "FAIL"
    code, out = invoke(*argv)
    assert code == 5
    assert f"  FAIL prop35_1: {_FAILED_INSTANCE} [{_FAILED_WITNESS}]" in out.splitlines()
    assert out.splitlines()[-2].startswith("thm37_baer: FAIL (")


def test_corollaries_exit_5_when_one_sub_run_fails(monkeypatch):
    _one_wrong_ring_annihilator(monkeypatch)
    code, recs = invoke_jsonl("verify", "corollaries", "--ring", "zn:4", "--box", "2",
                              "--samples", "2")
    assert code == 5
    outcomes = {r["statement"]: r["outcome"] for r in recs if r["record"] == "report"}
    # The Baer run fails and the quasi-Baer run passes.
    assert outcomes == {"cor38": "FAIL", "cor39": "PASS", "cor310": "FAIL",
                        "cor311": "PASS", "cor312": "FAIL"}
