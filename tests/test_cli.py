import io
import json

import pytest

from skewseries.cli import _split_catalog, main, run
from skewseries.monoids import monoid_make
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
    code, recs = invoke_jsonl("verify", "corollaries", "--ring", "zn:4",
                              "--monoid", "int:trivial")
    assert code == 2
    assert any(r["record"] == "error" and r["kind"] == "spec" for r in recs)


def test_search_empty_catalog_finds_nothing():
    code, recs = invoke_jsonl("search", "--catalog", "")
    assert code == 0
    s = next(r for r in recs if r["record"] == "search")
    assert s["findings"] == 0 and s["exhausted"] is False


def test_catalog_splitting_keeps_product_names_whole():
    assert _split_catalog(",".join(CATALOG_NAMES)) == list(CATALOG_NAMES)
    assert _split_catalog(" zn:4 , prod:zn:2,zn:3 ,ut2:z2") == [
        "zn:4", "prod:zn:2,zn:3", "ut2:z2"]


def test_search_gap_scan_on_named_rings():
    code, recs = invoke_jsonl("search", "--catalog", "zn:4,prod:zn:2,zn:2",
                              "--properties", "gen_baer_not_baer")
    assert code == 0
    findings = [r for r in recs if r["record"] == "finding"]
    assert [(f["kind"], f["ring"]) for f in findings] == [("gen_baer_not_baer", "zn:4")]


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


def test_bad_sigma_index_names_the_valid_range():
    code, recs = invoke_jsonl("verify", "prop34", "--ring", "zn:4", "--sigma", "7")
    assert code == 2
    err = next(r for r in recs if r["record"] == "error")
    assert "valid: 0.." in err["message"]


def test_unknown_ring_is_a_spec_error():
    code, recs = invoke_jsonl("ring", "show", "--ring", "zn:banana")
    assert code == 2
    assert any(r["record"] == "error" and r["kind"] == "spec" for r in recs)


def test_caps_flag_trips_the_subset_cap():
    code, recs = invoke_jsonl("ring", "check", "--ring", "mat2:z2",
                              "--class", "baer", "--caps", "subset=8")
    assert code == 3
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "cap-exceeded"


def test_malformed_caps_entry():
    code, recs = invoke_jsonl("ring", "list", "--caps", "bogus=3")
    assert code == 2


def test_caps_last_for_one_run_only():
    code, _ = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer",
                           "--caps", "subset=2")
    assert code == 3
    code, recs = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer")
    assert code == 0
    assert next(r for r in recs if r["record"] == "verdict")["verdict"] is False


def test_env_caps_apply_and_the_flag_overrides_them(monkeypatch):
    monkeypatch.setenv("SKEWSERIES_CAPS", "subset=2")
    assert invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer")[0] == 3
    code, _ = invoke_jsonl("ring", "check", "--ring", "zn:4", "--class", "baer",
                           "--caps", "subset=4")
    assert code == 0


@pytest.mark.parametrize("entry", ["bogus=3", "subset=x", "subset"])
def test_bad_env_caps_entry_is_a_spec_error(monkeypatch, entry):
    monkeypatch.setenv("SKEWSERIES_CAPS", entry)
    code, recs = invoke_jsonl("ring", "list")
    assert code == 2
    err = next(r for r in recs if r["record"] == "error")
    assert err["kind"] == "spec" and "SKEWSERIES_CAPS" in err["message"]
    assert summary_of(recs)["exit"] == 2


def test_series_subcommand_sum_and_product():
    code, recs = invoke_jsonl("series", "--ring", "zn:4", "2@0 + 3@1", "2@1")
    assert code == 0
    ctx = SkewContext(builtin_ring("zn:4"), monoid_make("nat_add", "natural"))
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
