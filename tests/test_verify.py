import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    KERNEL_MONOIDS,
    full_decimal,
    galois_ring_4_2,
    gf4_dual_numbers,
    gf4_ring,
    lift_ideal_to_series,
    literal_product,
    oracle_verify_thm37,
    series_over,
    skew_boxes,
    skew_contexts,
    triangular,
)
from skewseries import properties, verify
from skewseries.errors import BudgetExceeded, HypothesisNotMet, MixedContexts
from skewseries.monoids import OrderedMonoid
from skewseries.properties import class_profile, decide_generalized
from skewseries.rings import (
    ARMENDARIZ_BUDGET,
    DEFAULT_CAPS,
    Caps,
    PropertyCertificate,
    RingEndomorphism,
    annihilator,
    enumerate_endomorphisms,
    enumerate_ideals,
    idempotents,
    ring_matrix,
    ring_product,
    ring_zn,
    subset_power,
)
from skewseries.series import (
    SkewContext,
    SkewSeries,
    all_series,
    armendariz_pair_count,
    armendariz_search,
    const_embed,
    exp_embed,
    format_series,
    normalize_box,
    series_from_pairs,
    zero_series,
)
from skewseries.specfile import CATALOG_NAMES, builtin_ring
from skewseries.verify import (
    ConclusionEntry,
    TheoremReport,
    _spanning_monomials,
    bounded_annihilator_in_A,
    coefficient_ideal_lift,
    counterexample_search,
    verify_corollaries,
    verify_prop34,
    verify_thm37,
)

NAT = OrderedMonoid("nat", "natural")
Z4 = ring_zn(4)
Z6 = ring_zn(6)
CTX4 = SkewContext(Z4, NAT)
CTX6 = SkewContext(Z6, NAT)


def test_lift_ideal_enumerates_coefficient_choices():
    fams = lift_ideal_to_series(CTX4, (0, 2), [0, 1])
    assert len(fams) == 4  # 2 ideal values on each of 2 slots
    assert all(f.support <= {(0,), (1,)} for f in fams)


def test_coefficient_ideal_lift_reads_off_the_right_ideal():
    fam = [series_from_pairs(CTX6, [(2, 0), (3, 1)])]
    assert coefficient_ideal_lift(CTX6, fam) == (0, 1, 2, 3, 4, 5)  # 2+3 = 5 is a unit
    assert coefficient_ideal_lift(CTX6, [const_embed(CTX6, 2)]) == (0, 2, 4)
    assert coefficient_ideal_lift(CTX6, [zero_series(CTX6)]) == (0,)


def test_bounded_annihilator_hand_values():
    gens = [const_embed(CTX4, 2)]
    assert len(bounded_annihilator_in_A(CTX4, gens, 2, [0, 1])) == 16
    small = bounded_annihilator_in_A(CTX4, gens, 1, [0])
    assert [g.items() for g in small] == [[], [((0,), 2)]]


@pytest.mark.parametrize("refused,error,match", [
    (lambda: bounded_annihilator_in_A(CTX4, [const_embed(CTX4, x) for x in (1, 2, 3)], 2,
                                      [0, 1], budget=8),
     BudgetExceeded, "product set growth exceeds budget"),
    (lambda: bounded_annihilator_in_A(CTX4, [], 1, [0, 1]),
     ValueError, "gens must be a nonempty series family"),
    (lambda: verify_thm37(CTX4, "bear", [0, 1]),
     ValueError, "variant must be 'baer' or 'quasi_baer', got 'bear'"),
    (lambda: counterexample_search([("zn:4", Z4)], box=0), ValueError, "box must be >= 1, got 0"),
], ids=["product-growth", "no-generators", "unknown-variant", "empty-box"])
def test_library_calls_refuse_what_they_cannot_run(refused, error, match):
    # Three generators have 9 > 8 products of two; the others name bad input.
    with pytest.raises(error, match=match):
        refused()


def test_bounded_annihilator_budget():
    gens = [const_embed(CTX4, 2)]
    with pytest.raises(BudgetExceeded):
        bounded_annihilator_in_A(CTX4, gens, 1, [0, 1, 2], budget=10)


def test_bounded_annihilator_budget_counts_slot_values_tried():
    # 2*g == 0 leaves {0, 2} at each of the three slots: 2 + 4 + 8 values tried
    gens = [const_embed(CTX4, 2)]
    assert len(bounded_annihilator_in_A(CTX4, gens, 1, [0, 1, 2], budget=14)) == 8
    with pytest.raises(BudgetExceeded, match="slot values"):
        bounded_annihilator_in_A(CTX4, gens, 1, [0, 1, 2], budget=13)


def test_prop34_counts_idempotent_series():
    rep4 = verify_prop34(CTX4, [0, 1, 2])
    rep6 = verify_prop34(CTX6, [0, 1])
    assert rep4.outcome == "PASS" and rep6.outcome == "PASS"
    assert len(rep4.conclusion_checked) - 1 == 2
    assert len(rep6.conclusion_checked) - 1 == 4


def test_scope_notes_print_deep_exponents_exactly():
    # 10**5000 is past the int-to-str digit limit, yet a valid exponent of N.
    ctx = SkewContext(ring_zn(2), NAT)
    deep = "1" + "0" * 5000
    cert = armendariz_search(ctx, [10 ** 5000])
    assert cert.notes == f"exhaustive over all 4 pairs with support in [({deep},)]"
    report = verify_prop34(ctx, [0, 10 ** 5000])
    assert report.outcome == "PASS"
    assert f"inside box {{0, {deep}}} of" in report.scope_note


def test_prop34_refuses_non_armendariz_ring():
    m2 = ring_matrix(ring_zn(2), 2)
    with pytest.raises(HypothesisNotMet) as exc:
        verify_prop34(SkewContext(m2, NAT), [0, 1])
    assert exc.value.hypothesis == "armendariz_at_box"
    assert exc.value.certificate.verdict == "no"


def test_thm37_baer_transfer_passes():
    rep = verify_thm37(CTX4, "baer", [0, 1, 2])
    assert rep.outcome == "PASS"
    assert [h[0] for h in rep.hypotheses_checked] == [
        "quasitotal_order", "s_compatible", "armendariz_at_box", "ring_gen_right_baer",
    ]
    # one instance per nonempty subset, three checks per instance
    assert len(rep.conclusion_checked) == 15 * 3
    assert {e.statement_id for e in rep.conclusion_checked} == {"prop36_1", "prop35_1"}


def test_thm37_quasi_baer_transfer_with_samples():
    rep = verify_thm37(CTX6, "quasi_baer", [0, 1], seed=3, samples=4)
    assert rep.outcome == "PASS"
    # 4 right ideals, 3 entries each, plus 2 bridge entries per sample
    assert len(rep.conclusion_checked) == 4 * 3 + 4 * 2
    assert {e.statement_id for e in rep.conclusion_checked} == {"prop36_2", "prop35_2"}


def test_thm37_reports_are_reproducible():
    a = verify_thm37(CTX6, "quasi_baer", [0, 1], seed=9, samples=6)
    b = verify_thm37(CTX6, "quasi_baer", [0, 1], seed=9, samples=6)
    assert a == b


def test_report_outcome_is_read_off_its_entries():
    rep = verify_thm37(CTX4, "baer", [0, 1])
    (first, *rest), hyps = rep.conclusion_checked, rep.hypotheses_checked
    assert rep.outcome == "PASS" and all(e.ok and e.witness is None for e in rest)
    failed = ConclusionEntry(first.statement_id, first.instance, "c_1 missing")
    assert not failed.ok and ConclusionEntry(first.statement_id, first.instance) == first
    for entries in ((failed, *rest), (*rest, failed)):
        assert TheoremReport(rep.statement_id, hyps, entries, rep.scope_note).outcome == "FAIL"
    assert TheoremReport(rep.statement_id, hyps, (first, *rest), rep.scope_note) == rep


def test_thm37_accepts_generalized_but_not_plain_quasi_baer():
    # Z/4 fails quasi-Baer at depth 1 but stabilizes at depth 2, which is
    # exactly what the generalized hypothesis asks for.
    rep = verify_thm37(CTX4, "quasi_baer", [0, 1], samples=2)
    assert rep.outcome == "PASS"


def test_thm37_hypothesis_gate_on_matrix_ring():
    m2 = ring_matrix(ring_zn(2), 2)
    with pytest.raises(HypothesisNotMet) as exc:
        verify_thm37(SkewContext(m2, NAT), "baer", [0, 1])
    f, g, s, t = exc.value.certificate.witness
    assert (f * g).is_zero


def test_reconstruction_entries_match_ring_annihilators():
    rep = verify_thm37(CTX4, "baer", [0, 1])
    recon = [e for e in rep.conclusion_checked if e.statement_id == "prop35_1"]
    assert len(recon) == 15 and all(e.ok for e in recon)
    # spot check the {2} instance against the ring-level annihilator
    ann = annihilator(Z4, subset_power(Z4, {2}, 2), "right")
    assert ann == frozenset(range(4))


def test_corollaries_all_specialize():
    reports = verify_corollaries(Z4, [0, 1], samples=2)
    assert [r.statement_id for r in reports] == [
        "cor38", "cor39", "cor310", "cor311", "cor312"]
    assert all(r.outcome == "PASS" for r in reports)
    # polynomial corollaries run under the trivial order
    assert "trivial" in reports[3].scope_note
    assert "natural" in reports[1].scope_note


COROLLARY_RUNS = (
    ("natural", ("baer", "quasi_baer")),
    ("natural", ("quasi_baer",)),
    ("natural", ("baer",)),
    ("trivial", ("quasi_baer",)),
    ("trivial", ("baer",)),
)


def test_corollaries_run_each_distinct_hypothesis_once(monkeypatch):
    # The Armendariz scan depends on the ring, twist and box only, and the
    # ring-side run on the variant only, so five corollaries need one scan
    # and two ring-side runs.
    arm_calls, ring_runs = [], []
    real_arm, real_decide = verify.armendariz_search, verify.decide_generalized

    def arm(*args, **kwargs):
        arm_calls.append(args[1:])
        return real_arm(*args, **kwargs)

    def decide(ring, cls, *args, **kwargs):
        ring_runs.append(cls)
        return real_decide(ring, cls, *args, **kwargs)

    monkeypatch.setattr(verify, "armendariz_search", arm)
    monkeypatch.setattr(verify, "decide_generalized", decide)
    reports = verify_corollaries(Z4, [0, 1], samples=2, seed=3)
    assert len(arm_calls) == 1
    assert ring_runs == ["baer", "quasi_baer"]
    # Each corollary still reports what its own Thm 3.7 runs report.
    monkeypatch.undo()
    for report, (mode, variants) in zip(reports, COROLLARY_RUNS, strict=True):
        ctx = SkewContext(Z4, OrderedMonoid("nat", mode))
        alone = [verify_thm37(ctx, v, [0, 1], samples=2, seed=3) for v in variants]
        assert report.hypotheses_checked == tuple(h for r in alone for h in r.hypotheses_checked)
        assert report.conclusion_checked == tuple(e for r in alone for e in r.conclusion_checked)


def test_corollaries_run_the_harness_once_per_variant(monkeypatch):
    # The order enters only as a hypothesis, so the five corollaries reuse
    # the two natural runs: as many box kernel runs as those two runs.
    calls = []
    real = verify._annihilating_vectors

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_annihilating_vectors", spy)
    verify_corollaries(Z4, [0, 1], samples=2, seed=3)
    corollaries = len(calls)
    calls.clear()
    for variant in ("baer", "quasi_baer"):
        verify_thm37(CTX4, variant, [0, 1], samples=2, seed=3)
    assert corollaries == len(calls) == 8


def test_thm37_hypotheses_report_a_given_armendariz_certificate(monkeypatch):
    slots = normalize_box(NAT, [0, 1])
    arm = armendariz_search(CTX4, slots)

    def scan(*args, **kwargs):
        raise AssertionError("the Armendariz scan ran though a certificate was given")

    monkeypatch.setattr(verify, "armendariz_search", scan)
    hyps, _ = verify._thm37_hypotheses(CTX4, slots, "quasi_baer", ARMENDARIZ_BUDGET,
                                       DEFAULT_CAPS, arm)
    assert dict(hyps)["armendariz_at_box"] is arm


def test_corollaries_hand_the_baer_certificate_to_the_quasi_baer_run():
    reports = verify_corollaries(Z4, [0, 1], samples=2, seed=3)
    arms = [cert for report in reports for name, cert in report.hypotheses_checked
            if name == "armendariz_at_box"]
    # cor38 carries both variants' certificates, the other four one each.
    assert len(arms) == 6
    assert all(cert is arms[0] for cert in arms)


def test_search_finds_the_z4_gap():
    out = counterexample_search([("zn:4", Z4)], properties=("gen_baer_not_baer",))
    assert [f["kind"] for f in out.findings] == ["gen_baer_not_baer"]
    assert not out.exhausted


def test_search_left_right_scan_is_quiet_on_commutative_rings():
    out = counterexample_search([("zn:4", Z4), ("zn:6", Z6)], properties=("left_right",))
    assert out.findings == ()


def test_search_armendariz_budget_exhaustion():
    out = counterexample_search([("zn:4", Z4)], properties=("armendariz",), budget=5)
    assert out.exhausted and out.findings == ()


@pytest.mark.parametrize("kinds,walks", [
    (("gen_baer_not_baer",), [("baer", "right"), ("baer", "left")]),
    (("quasi_baer_not_baer",), [("baer", "right"), ("baer", "left"),
                                ("quasi_baer", "right"), ("quasi_baer", "left")]),
    (("armendariz",), []),
    (None, [(cls, side) for cls in ("baer", "quasi_baer") for side in ("right", "left")]),
], ids=["gen-baer-gap", "quasi-baer-gap", "armendariz", "all"])
def test_search_walks_only_the_classes_it_reports(kinds, walks, monkeypatch):
    # mat2:z2 is not commutative, so each side it asks about is its own walk.
    seen = []
    real = properties._decide

    def spy(ring, cls, side, caps):
        seen.append((cls, side))
        return real(ring, cls, side, caps)

    monkeypatch.setattr(properties, "_decide", spy)
    counterexample_search([("mat2:z2", ring_matrix(ring_zn(2), 2))], properties=kinds)
    assert seen == walks


def test_search_verdicts_list_every_instance(monkeypatch):
    # The verdicts the search reads are full certificates: each accepting one
    # lists every nonempty subset or every side ideal and rechecks.
    accepted = []
    real = verify.class_profile

    def spy(ring, *args, **kwargs):
        profile = real(ring, *args, **kwargs)
        accepted.extend((ring, cv) for cv in profile.values() if cv.verdict)
        return profile

    monkeypatch.setattr(verify, "class_profile", spy)
    rings = [(name, builtin_ring(name)) for name in ("zn:4", "prod:zn:2,zn:2", "ut2:z2")]
    counterexample_search(rings, properties=("quasi_baer_not_baer", "gen_baer_not_baer",
                                             "gen_quasi_baer_not_gen_baer", "left_right"))
    assert len(accepted) == 16
    for ring, cv in accepted:
        if cv.instance_kind == "subset":
            assert len(cv.per_instance) == 2 ** ring.order - 1
        else:
            side = cv.instance_kind.split("_")[0]
            assert len(cv.per_instance) == len(enumerate_ideals(ring, side))
        assert properties.recheck_class_verdict(cv), (ring.label, cv.class_name)


def test_search_rejects_unknown_property():
    with pytest.raises(ValueError):
        counterexample_search([("zn:4", Z4)], properties=("frobenius",))


def _swap_context():
    """Z/3 x Z/3 over N, twisted by the swap of its two factors."""
    el = builtin_ring("prod:zn:3,zn:3").element_labels.index
    return next(c for c in skew_contexts("prod:zn:3,zn:3", "nat")
                if c.omega((1,)).image[el("(0,1)")] == el("(1,0)"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bounded_annihilator_matches_the_brute_filter(data):
    # Each example checks the swap context before a drawn one, so every run
    # meets a twist that moves coefficients, whatever the draws.
    for ctx, box in ((_swap_context(), [0, 1]), data.draw(skew_boxes(max_candidates=256))):
        gens = data.draw(st.lists(series_over(ctx, ctx.monoid.box(2)), min_size=1, max_size=3))
        n = data.draw(st.integers(1, 2))
        # the reference multiplies through the literal convolution, not __mul__
        prods = set(gens)
        for _ in range(n - 1):
            prods = {SkewSeries(ctx, literal_product(p, g)) for p in prods for g in gens}
        brute = [g for g in all_series(ctx, box) if all(not literal_product(p, g) for p in prods)]
        assert bounded_annihilator_in_A(ctx, gens, n, box) == tuple(brute)


def test_bounded_annihilator_with_cancelling_terms():
    # Under the swap, p = e + e*x with e = (1,0) kills c + d*x exactly when
    # c = (0,t) and d = (-t,0): the x coefficient e*d + e*swap(c) cancels.
    for ctx in skew_contexts("prod:zn:3,zn:3", "nat"):
        ring = ctx.ring
        for a, b in itertools.product(range(ring.order), repeat=2):
            p = SkewSeries(ctx, {0: a, 1: b})
            brute = [g for g in all_series(ctx, [0, 1]) if not literal_product(p, g)]
            assert bounded_annihilator_in_A(ctx, [p], 1, [0, 1]) == tuple(brute)
    el = ring.element_labels.index
    swap = _swap_context()
    e = el("(1,0)")
    killed = bounded_annihilator_in_A(swap, [SkewSeries(swap, {0: e, 1: e})], 1, [0, 1])
    assert killed == tuple(SkewSeries(swap, terms) for terms in (
        {}, {0: el("(0,1)"), 1: el("(2,0)")}, {0: el("(0,2)"), 1: el("(1,0)")}))


def test_bounded_annihilator_rejects_foreign_generators():
    with pytest.raises(MixedContexts):
        bounded_annihilator_in_A(CTX4, [const_embed(CTX6, 1)], 1, [0])


@pytest.mark.parametrize("power", [1.5, True, "2"], ids=repr)
def test_bounded_annihilator_refuses_a_power_that_is_no_int(power):
    # True equals 1 and once returned the four series killed by c_2.
    with pytest.raises(ValueError, match=f"^power exponent must be an int, got {power!r}$"):
        bounded_annihilator_in_A(CTX4, [const_embed(CTX4, 2)], power, [0, 1])


def test_thm37_refuses_a_refinement_that_is_not_total():
    monoid = OrderedMonoid("nat_k", "product", k=2)
    monoid.refined_mode = "product"  # a partial order posing as the refinement
    with pytest.raises(HypothesisNotMet) as exc:
        verify_thm37(SkewContext(Z4, monoid), "baer", monoid.box(1))
    assert exc.value.hypothesis == "quasitotal_order"
    assert exc.value.certificate.witness == ((0, 1), (1, 0), "totality")


def test_search_passes_down_the_remaining_budget(monkeypatch):
    budgets = []
    real = verify.armendariz_search

    def spy(ctx, slots, budget):
        budgets.append(budget)
        return real(ctx, slots, budget=budget)

    monkeypatch.setattr(verify, "armendariz_search", spy)
    # each Z/4 scan over a two-slot box costs 16 * 16 = 256 pairs
    out = counterexample_search([("zn:4", Z4)] * 3, properties=("armendariz",), budget=600)
    assert out.exhausted and out.findings == ()
    assert out.work == 512 <= 600
    assert budgets == [600, 344]


def _assert_spanning_families_agree(ctx, box, gens):
    """The harness's spanning families against their full versions: the
    lifts of every right ideal, and the products of `gens` with every box
    series (lift_ideal_to_series and all_series are the references)."""
    slots = normalize_box(ctx.monoid, box)
    for ideal in enumerate_ideals(ctx.ring, "right"):
        full = lift_ideal_to_series(ctx, ideal, slots)
        spanning = _spanning_monomials(ctx, ideal, slots)
        for n in (1, 2, 3):
            assert (bounded_annihilator_in_A(ctx, spanning, n, slots)
                    == bounded_annihilator_in_A(ctx, full, n, slots)), (ctx, slots, ideal, n)
    full = {g * m for g in gens for m in all_series(ctx, slots)}
    spanning = {g * m for g in gens
                for m in _spanning_monomials(ctx, range(ctx.ring.order), slots)}
    assert coefficient_ideal_lift(ctx, spanning) == coefficient_ideal_lift(ctx, full)
    for n in (1, 2):
        assert (bounded_annihilator_in_A(ctx, spanning, n, slots)
                == bounded_annihilator_in_A(ctx, full, n, slots)), (ctx, slots, gens, n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spanning_families_give_the_full_families_annihilators(data):
    ctx, box = data.draw(skew_boxes(max_candidates=16))
    gens = data.draw(st.lists(series_over(ctx, box), min_size=1, max_size=2))
    _assert_spanning_families_agree(ctx, box, gens)


@pytest.mark.parametrize("monoid_name", ["nat", "int"])
def test_spanning_families_under_every_twist_of_the_klein_ring(monoid_name):
    # Under the identity twist r(c*x^v) = r(c) for every slot v, so a family
    # missing a slot can still give the right annihilator; the twists here
    # tell the slots apart.
    for ctx in skew_contexts("prod:zn:2,zn:2", monoid_name):
        box = [0, 1] if monoid_name == "nat" else [-1, 1]
        gens = [SkewSeries(ctx, {0: a, 1: b}) for a, b in ((1, 2), (3, 0), (2, 2))]
        _assert_spanning_families_agree(ctx, box, gens)


def test_zero_ideal_entries_still_pass():
    report = verify_thm37(CTX4, "quasi_baer", [0, 1])
    zero = [e for e in report.conclusion_checked if "I={0} " in e.instance]
    assert len(zero) >= 3 and all(e.ok for e in zero)


def test_quasi_baer_samples_keep_products_past_the_box(monkeypatch):
    # A sampled family holds its generators' products with the box series,
    # which reach past the box; the ideal's spanning monomials alone would
    # stay inside it, and under the hypotheses give the same annihilator.
    families = []
    real = verify._checked

    def spy(ctx, checks, gens, *args):
        families.append(list(gens))
        return real(ctx, checks, families[-1], *args)

    monkeypatch.setattr(verify, "_checked", spy)
    box = NAT.box(1)
    assert verify_thm37(CTX4, "quasi_baer", box, samples=3).outcome == "PASS"
    assert any(e not in box for family in families for f in family for e, _ in f._terms)



NEGATIVE_COUNTS = [
    ("prop34", lambda **kw: verify_prop34(CTX4, [0, 1], **kw), "budget"),
    ("thm37-baer", lambda **kw: verify_thm37(CTX4, "baer", [0, 1], **kw), "budget"),
    ("thm37-baer", lambda **kw: verify_thm37(CTX4, "baer", [0, 1], **kw), "samples"),
    ("thm37-quasibaer", lambda **kw: verify_thm37(CTX4, "quasi_baer", [0, 1], **kw), "budget"),
    ("thm37-quasibaer", lambda **kw: verify_thm37(CTX4, "quasi_baer", [0, 1], **kw), "samples"),
    ("corollaries", lambda **kw: verify_corollaries(Z4, [0, 1], **kw), "budget"),
    ("corollaries", lambda **kw: verify_corollaries(Z4, [0, 1], **kw), "samples"),
]


@pytest.mark.parametrize("run,count", [(run, count) for _, run, count in NEGATIVE_COUNTS],
                         ids=[f"{name}-{count}" for name, _, count in NEGATIVE_COUNTS])
def test_harnesses_refuse_negative_counts(run, count):
    with pytest.raises(ValueError, match=f"^{count} must be >= 0, got -1$"):
        run(**{count: -1})


def test_zero_samples_is_a_count_like_any_other():
    rep = verify_thm37(CTX4, "quasi_baer", [0, 1], samples=0)
    assert rep.outcome == "PASS"
    assert len(rep.conclusion_checked) == len(enumerate_ideals(Z4)) * 3


def test_bridge_check_runs_once_per_distinct_annihilator(monkeypatch):
    # Over Z/8 at box 3 many Baer instances share one product set (15 subsets
    # have the whole box), so their annihilator and bridge check are done once.
    ctx = SkewContext(ring_zn(8), NAT)
    slots = NAT.box(2)
    real_kernel, real_box = verify._annihilating_vectors, verify._box_series
    real_products = verify._products
    real_mul = SkewSeries.__mul__
    anns = []
    inside = [0]
    bridge_muls = [0]

    def outside_the_bridge(real):
        def spy(*args, **kwargs):
            inside[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1
        return spy

    def kernel_spy(ctx, slots, *args):
        vecs = tuple(real_kernel(ctx, slots, *args))
        anns.append(tuple(real_box(ctx, slots, v) for v in vecs))
        return iter(vecs)

    def mul_spy(self, other):
        bridge_muls[0] += not inside[0]
        return real_mul(self, other)

    built = []

    def box_spy(*args):
        built.append(args)
        return real_box(*args)

    monkeypatch.setattr(verify, "_annihilating_vectors", kernel_spy)
    monkeypatch.setattr(verify, "_box_series", box_spy)
    monkeypatch.setattr(verify, "_products", outside_the_bridge(real_products))
    monkeypatch.setattr(SkewSeries, "__mul__", mul_spy)
    report = verify_thm37(ctx, "baer", slots)
    monkeypatch.undo()
    instances = decide_generalized(ctx.ring, "baer", "right", DEFAULT_CAPS).per_instance
    assert report.outcome == "PASS"
    assert len(instances) == 255
    # The bridge of each instance from its own annihilator: c_e in ann, and
    # the first g in ann with c_e*g != g.
    expected, per_instance = [], []
    for members, n, e in instances:
        ann = bounded_annihilator_in_A(ctx, [const_embed(ctx, x) for x in members], n, slots)
        per_instance.append(ann)
        ce = const_embed(ctx, e)
        bad = next((g for g in ann if ce * g != g), None)
        expected.append([(ce in ann, None if ce in ann else f"c_{e} missing"),
                         (bad is None, None if bad is None else f"g = {format_series(bad)}")])
    entries = report.conclusion_checked
    got = [[(x.ok, x.witness) for x in entries[i:i + 2]] for i in range(0, len(entries), 3)]
    assert got == expected
    assert [x.statement_id for x in entries] == ["prop36_1", "prop36_1", "prop35_1"] * 255
    # The run computes one annihilator per distinct (product set, e), not one
    # per instance: 12 for 255 instances.  Each is bridge-checked once off
    # its kernel vectors: c_e's membership is read off the constant slice and
    # c_e*g off the coefficients of g, so no series is multiplied outside
    # the products, and, every bridge holding, no box series is built.
    assert len(anns) == 12
    assert set(anns) == set(per_instance)
    assert built == []
    assert bridge_muls[0] == 0
    assert sum(len(ann) for ann in anns) == 523
    assert sum(len(ann) for ann in per_instance) == 7920


def _kernel_work(monkeypatch):
    """Spy on the box kernel and the box series that verify builds from its
    vectors: returns [kernel runs, box series built]."""
    work = [0, 0]
    real_kernel, real_box = verify._annihilating_vectors, verify._box_series

    def kernel(*args, **kwargs):
        work[0] += 1
        return real_kernel(*args, **kwargs)

    def box_series(*args, **kwargs):
        work[1] += 1
        return real_box(*args, **kwargs)

    monkeypatch.setattr(verify, "_annihilating_vectors", kernel)
    monkeypatch.setattr(verify, "_box_series", box_series)
    return work


@pytest.mark.parametrize("ring,monoid,box,instances,runs", [
    # 255 subsets of Z/8 at box 3 have 12 distinct product sets.
    ("zn:8", OrderedMonoid("nat", "natural"), 3, 255, 12),
    ("zn:6", OrderedMonoid("nat_k", "lex", k=2), 2, 63, 11),
])
def test_thm37_runs_the_kernel_once_per_product_set(monkeypatch, ring, monoid, box,
                                                    instances, runs):
    work = _kernel_work(monkeypatch)
    ctx = SkewContext(builtin_ring(ring), monoid)
    report = verify_thm37(ctx, "baer", monoid.box(box - 1))
    assert report.outcome == "PASS"
    assert len(decide_generalized(ctx.ring, "baer", "right").per_instance) == instances
    # One kernel run per product set; the run's table answers the repeats.
    # Every bridge holds, so none of the kernel's vectors (523 and 1,416)
    # becomes a series.
    assert work == [runs, 0]


def test_kept_annihilators_still_honour_the_budget():
    # 2*g == 0 leaves {0, 2} at each of the three slots: 2 + 4 + 8 values tried.
    ctx = SkewContext(Z4, NAT)
    gens = [const_embed(ctx, 2)]
    ann = bounded_annihilator_in_A(ctx, gens, 1, [0, 1, 2], budget=14)
    assert len(ann) == 8
    with pytest.raises(BudgetExceeded, match="^annihilator search tried more than 13 slot values$"):
        bounded_annihilator_in_A(ctx, gens, 1, [0, 1, 2], budget=13)


def test_an_annihilator_over_budget_is_not_kept(monkeypatch):
    ctx = SkewContext(Z4, NAT)
    gens = [const_embed(ctx, 2)]
    work = _kernel_work(monkeypatch)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="slot values"):
            bounded_annihilator_in_A(ctx, gens, 1, [0, 1, 2], budget=13)
    assert len(bounded_annihilator_in_A(ctx, gens, 1, [0, 1, 2])) == 8
    # Each tripped call ran the kernel; the full run is the third.
    assert work[0] == 3


def test_a_second_run_on_one_context_does_the_first_runs_work_again(monkeypatch):
    ctx = SkewContext(ring_zn(8), NAT)
    work = _kernel_work(monkeypatch)
    first = verify_thm37(ctx, "baer", NAT.box(2))
    assert work == [12, 0]
    assert verify_thm37(ctx, "baer", NAT.box(2)) == first
    assert work == [24, 0]


def test_a_quasi_baer_run_keeps_no_annihilator_series():
    # Over Z/16 at box 3 the zero ideal's annihilator is all 16^3 box
    # vectors.  The bridge reads them one at a time off the kernel and builds
    # no series for them, so the run's peak stays far below the 1.2 MB that
    # one series per vector would hold.
    ctx = SkewContext(ring_zn(16), NAT)
    tracemalloc.start()
    try:
        report = verify_thm37(ctx, "quasi_baer", NAT.box(2), budget=10 ** 8, samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcome == "PASS"
    assert peak < 500_000, peak


def test_runs_leave_their_context_as_they_found_it():
    ctx = SkewContext(ring_zn(8), NAT)
    fields = dict(vars(ctx))
    powers = list(ctx._powers)
    assert set(fields) == {"ring", "monoid", "sigma", "_cycle_start", "_powers"}
    verify_thm37(ctx, "quasi_baer", NAT.box(2), samples=4)
    armendariz_search(ctx, NAT.box(2))
    assert len(bounded_annihilator_in_A(ctx, [const_embed(ctx, 2)], 2, NAT.box(2))) == 64
    assert vars(ctx) == fields
    assert ctx._powers == powers


def test_equal_annihilator_calls_return_equal_distinct_tuples():
    ctx = SkewContext(Z4, NAT)
    gens = [const_embed(ctx, 2)]
    first, second = (bounded_annihilator_in_A(ctx, gens, 1, [0, 1]) for _ in range(2))
    assert first == second and first is not second
    assert len(first) == 4


def test_bridge_outcomes_are_kept_per_product_set_and_e():
    ctx = SkewContext(Z4, NAT)
    box = normalize_box(NAT, NAT.box(1))
    checks = {}

    def outcome(gens, e, n=1):
        bridge, _ = verify._checked(ctx, checks, gens, n, e, box, ARMENDARIZ_BUDGET)
        return [(x.ok, x.witness) for x in verify._bridge_entries(bridge, e, "X n e", "prop36_1")]

    # Same e, different product sets: each gets its own entry.
    one, two, zero = const_embed(ctx, 1), const_embed(ctx, 2), zero_series(ctx)
    assert bounded_annihilator_in_A(ctx, [one], 1, box) == (zero,)
    assert outcome([one], 0) == [(True, None), (True, None)]
    assert bounded_annihilator_in_A(ctx, [zero], 1, box) == tuple(all_series(ctx, box))
    assert outcome([zero], 0) == [(True, None), (False, "g = 1@1")]
    assert one not in bounded_annihilator_in_A(ctx, [two], 1, box)
    assert outcome([two], 1) == [(False, "c_1 missing"), (True, None)]
    assert len(checks) == 3
    # The square of zero is zero, so this product set equals that of [zero]
    # and the kept entry is reused.
    assert outcome([zero, zero], 0, n=2) == [(True, None), (False, "g = 1@1")]
    assert len(checks) == 3
    # The same product set with another e is another entry.
    assert outcome([zero], 1) == [(True, None), (True, None)]
    assert len(checks) == 4


def _answer(ctx, terms, n, box, budget):
    """bounded_annihilator_in_A's box series terms, or its BudgetExceeded message."""
    try:
        ann = bounded_annihilator_in_A(ctx, [SkewSeries(ctx, t) for t in terms], n, box, budget)
    except BudgetExceeded as exc:
        return str(exc)
    return [g._terms for g in ann]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kept_annihilators_answer_as_a_fresh_context_would(data):
    ring_name = data.draw(st.sampled_from(("zn:4", "zn:6", "zn:8", "prod:zn:2,zn:2")))
    drawn = data.draw(st.sampled_from(skew_contexts(
        ring_name, data.draw(st.sampled_from(sorted(KERNEL_MONOIDS))))))
    ring, box = drawn.ring, drawn.monoid.box(1)
    terms = st.dictionaries(st.sampled_from(box), st.integers(0, ring.order - 1), max_size=2)
    families = data.draw(st.lists(st.lists(terms, min_size=1, max_size=2), min_size=1, max_size=3))
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(families), st.integers(1, 2),
        st.integers(2, 64) | st.just(ARMENDARIZ_BUDGET)), min_size=2, max_size=10))
    ctx = SkewContext(ring, drawn.monoid, drawn.sigma)
    for family, n, budget in calls:
        fresh = SkewContext(ring, drawn.monoid, drawn.sigma)
        assert (_answer(ctx, family, n, box, budget)
                == _answer(fresh, family, n, box, budget)), (family, n, budget)


# ---------------------------------------------------------------------------
# a real twist: the Frobenius map of GF(4)

# (kind, order modes, arity, --box N); the box is monoid.box(N - 1), as in the CLI.
GF4_MONOIDS = (
    ("nat", ("natural", "trivial"), 1, 3),
    ("int", ("natural", "trivial"), 1, 2),
    ("nat_k", ("lex", "product"), 2, 2),
)


def _frobenius(gf4):
    identity, frobenius = enumerate_endomorphisms(gf4)
    assert frobenius.image == (0, 1, 3, 2)
    return frobenius


def test_frobenius_twist_acts_on_gf4(gf4):
    # x*c_2 == c_{omega_1(2)}*x: 3x under Frobenius, 2x untwisted.
    for sigma, coeff in ((None, 2), (_frobenius(gf4), 3)):
        ctx = SkewContext(gf4, NAT, sigma)
        assert exp_embed(ctx, 1) * const_embed(ctx, 2) == series_from_pairs(ctx, [(coeff, 1)])


@pytest.mark.parametrize("kind,mode,k,box", [(kind, modes[0], k, box)
                                             for kind, modes, k, box in GF4_MONOIDS])
def test_harnesses_pass_under_the_frobenius_twist(gf4, kind, mode, k, box):
    monoid = OrderedMonoid(kind, mode, k=k)
    ctx = SkewContext(gf4, monoid, _frobenius(gf4))
    slots = monoid.box(box - 1)
    reports = [verify_prop34(ctx, slots), verify_thm37(ctx, "baer", slots),
               verify_thm37(ctx, "quasi_baer", slots, samples=4)]
    assert [r.outcome for r in reports] == ["PASS"] * 3
    assert [name for name, _ in reports[2].hypotheses_checked] == [
        "quasitotal_order", "s_compatible", "armendariz_at_box", "ring_gen_right_quasi_baer"]


def test_baer_conclusions_see_neither_the_twist_nor_the_order(gf4):
    # Baer generators are constant series, and the twist at the identity
    # exponent is the identity map, so no Baer conclusion multiplies through
    # a twist; the twist and the order reach a Baer run only through its
    # hypotheses.
    entries = set()
    for sigma in enumerate_endomorphisms(gf4):
        for kind, modes, k, box in GF4_MONOIDS:
            for mode in modes:
                monoid = OrderedMonoid(kind, mode, k=k)
                report = verify_thm37(SkewContext(gf4, monoid, sigma), "baer", monoid.box(box - 1))
                assert report.outcome == "PASS"
                entries.add(report.conclusion_checked)
    assert len(entries) == 1


@pytest.mark.parametrize("name", ["zn:4", "zn:8", "prod:zn:2,zn:2"])
def test_quasi_baer_conclusions_do_not_see_the_order(name):
    # Past the order check a run only multiplies finite-support series, so
    # no entry can fail through the order: a run under the trivial order
    # checks what the natural run checks.
    ring = builtin_ring(name)
    reports = []
    for mode in ("trivial", "natural"):
        monoid = OrderedMonoid("nat", mode)
        reports.append(verify_thm37(SkewContext(ring, monoid), "quasi_baer", monoid.box(1),
                                    samples=10, seed=3))
    assert reports[0].conclusion_checked == reports[1].conclusion_checked
    assert [r.outcome for r in reports] == ["PASS", "PASS"]


# ---------------------------------------------------------------------------
# each hypothesis, bypassed on a ring where it fails, fails some entry


def _unknown(*args, **kwargs):
    return PropertyCertificate("unknown-at-bound")


def test_prop34_fails_without_the_armendariz_scan(monkeypatch):
    # The scan refutes mat2:z2 and ut2:z2.  Skipped, their non-constant
    # idempotent series fail prop34; Z/4 is Armendariz and still passes.
    monkeypatch.setattr(verify, "armendariz_search", _unknown)
    counts = {}
    for name in ("mat2:z2", "ut2:z2", "zn:4"):
        report = verify_prop34(SkewContext(builtin_ring(name), NAT), NAT.box(1))
        entries = report.conclusion_checked
        counts[name] = report.outcome, sum(not e.ok for e in entries), len(entries)
    assert counts == {"mat2:z2": ("FAIL", 13, 21), "ut2:z2": ("FAIL", 5, 11),
                      "zn:4": ("PASS", 0, 3)}


# (entries per run, {twist index: failing entries}) with the check bypassed
_COMPATIBILITY_BYPASSED = {
    "prod:zn:2,zn:2": (52, {0: 3, 2: 6, 3: 3}),
    "ut2:z2": (61, {5: 9, 6: 9, 7: 9}),
}


@pytest.mark.parametrize("name", sorted(_COMPATIBILITY_BYPASSED))
def test_quasi_baer_entries_fail_without_s_compatibility(monkeypatch, name):
    # With the compatibility check saying yes (and the Armendariz scan,
    # which these twists fail too, skipped), some non-compatible twists fail
    # sampled quasi-Baer entries.  The one compatible twist passes.  Baer
    # entries never fail this way: constant series never twist.
    compatible = verify.s_compatibility_check
    monkeypatch.setattr(verify, "armendariz_search", _unknown)
    monkeypatch.setattr(verify, "s_compatibility_check", lambda ctx: PropertyCertificate("yes"))
    entries, failures = _COMPATIBILITY_BYPASSED[name]
    ring = builtin_ring(name)
    found, passing = {}, []
    for i, sigma in enumerate(enumerate_endomorphisms(ring)):
        ctx = SkewContext(ring, NAT, sigma)
        report = verify_thm37(ctx, "quasi_baer", NAT.box(1), samples=20)
        assert len(report.conclusion_checked) == entries
        bad = sum(not e.ok for e in report.conclusion_checked)
        if bad:
            found[i] = bad
            assert report.outcome == "FAIL"
        if compatible(ctx).verdict == "yes":
            passing.append((i, report.outcome))
    assert found == failures
    assert len(passing) == 1 and passing[0][1] == "PASS"


ORACLE_MONOIDS = (("nat", "natural", 1), ("nat_k", "lex", 2), ("int", "natural", 1))


def _gf4_z2(gf4):
    """GF(4)xZ/2 and its twist (Frobenius, identity)."""
    ring = ring_product(gf4, ring_zn(2))
    frobenius = _frobenius(gf4).image
    # (a, b) has index 2a + b in the product.
    return ring, RingEndomorphism(ring, [2 * frobenius[x // 2] + x % 2 for x in range(8)])


def _oracle_grid(gf4):
    """(ctx, variant, box) of each Thm 3.7 run the oracle comparison makes:
    Baer on every twist, quasi-Baer on rings of order <= 4."""
    for ring, twists in _oracle_rings(gf4):
        variants = ("baer", "quasi_baer") if ring.order <= 4 else ("baer",)
        for sigma, (kind, mode, k) in itertools.product(twists, ORACLE_MONOIDS):
            if kind == "int" and not sigma.is_bijective:
                continue
            monoid = OrderedMonoid(kind, mode, k=k)
            for variant in variants:
                box = monoid.box(2)[:2 if ring.order == 8 or variant == "quasi_baer" else 3]
                yield SkewContext(ring, monoid, sigma), variant, box


def _oracle_rings(gf4):
    """(ring, twists): each catalog ring of order <= 8 with all its
    endomorphisms, GF(4) with both of its own, and GF(4)xZ/2 under
    (Frobenius, identity)."""
    rings = [builtin_ring(name) for name in CATALOG_NAMES]
    gf4_z2, sigma = _gf4_z2(gf4)
    return ([(ring, enumerate_endomorphisms(ring)) for ring in rings if ring.order <= 8]
            + [(gf4, enumerate_endomorphisms(gf4)), (gf4_z2, [sigma])])


@pytest.mark.parametrize("kind", ["nat", "int"])
def test_bounded_annihilators_do_not_see_the_twist(gf4, kind):
    # Under S-compatibility and the Armendariz condition f*g == 0 exactly
    # when every coefficient product is 0, so a bounded annihilator is the
    # same under both twists, though the products themselves differ.  No
    # transfer verdict can catch a twisted product that keeps annihilation.
    ring, frobenius = _gf4_z2(gf4)
    monoid = OrderedMonoid(kind, "natural")
    box = monoid.box(1)
    contexts = [SkewContext(ring, monoid, sigma) for sigma in (None, frobenius)]
    # Coefficients from the zero divisors, so most annihilators are neither
    # zero nor the whole box.
    divisors = [x for x in range(ring.order) if 0 in ring.mul_table[x][1:]]
    proper = products_differ = 0
    for i in range(200):
        rng = random.Random(i)
        vecs = [[rng.choice(divisors) for _ in box] for _ in range(rng.randint(1, 3))]
        anns, products = [], []
        for ctx in contexts:
            family = [verify._box_series(ctx, box, vec) for vec in vecs]
            anns.append([g._terms for g in bounded_annihilator_in_A(ctx, family, 1, box)])
            products.append({(f * g)._terms for f in family for g in family})
        assert anns[0] == anns[1], vecs
        proper += 1 < len(anns[0]) < ring.order ** len(box)
        products_differ += products[0] != products[1]
    assert proper > 50 and products_differ > 100


def test_thm37_reports_match_the_oracle(gf4, monkeypatch):
    # Every entry of the fast report, in order, against the one the oracle
    # rebuilds from the definitions: Baer on every twist that meets the
    # hypotheses, quasi-Baer with seeded samples on rings of order <= 4.
    # Each family the run checks, instance by instance and then sample by
    # sample, has the oracle's bounded annihilator, and the bridge outcome and
    # constant slice its run table served are the ones that annihilator gives.
    checked = []
    real = verify._checked

    def spy(ctx, checks, gens, n, e, slots, budget):
        gens = list(gens)
        checked.append((gens, n, e, real(ctx, checks, gens, n, e, slots, budget)))
        return checked[-1][3]

    monkeypatch.setattr(verify, "_checked", spy)
    compared = {"baer": 0, "quasi_baer": 0}
    for ctx, variant, box in _oracle_grid(gf4):
        checked.clear()
        try:
            report = verify_thm37(ctx, variant, box, seed=5, samples=3)
        except HypothesisNotMet as exc:
            if exc.hypothesis.startswith("ring_gen_right"):
                assert oracle_verify_thm37(ctx, variant, box, 5, 3) is None
            continue
        entries, oracle_anns = oracle_verify_thm37(ctx, variant, box, 5, 3)
        assert [(e.instance, e.ok) for e in report.conclusion_checked] == entries, ctx
        assert len(checked) == len(oracle_anns), ctx
        one_s = ctx.monoid.identity()
        for call, ((gens, n, e, served), oracle_ann) in enumerate(zip(checked, oracle_anns)):
            ann = bounded_annihilator_in_A(ctx, gens, n, box)
            assert ann == oracle_ann, (ctx, variant, call)
            ce = const_embed(ctx, e)
            consts = {g.coeff(one_s) for g in ann if g.support <= {one_s}}
            assert served == ((ce in ann, next((g for g in ann if ce * g != g), None)),
                              consts), (ctx, variant, call)
        compared[variant] += 1
    assert compared == {"baer": 33, "quasi_baer": 18}


def test_bridge_reads_c_e_times_g_off_the_coefficients(gf4, monkeypatch):
    # c_e*g is e times each coefficient of g, because the twist at the
    # identity exponent is the identity map.  For every family the oracle
    # grid's runs check, and every e (idempotent or not, zero included), the
    # bridge names the first g of the annihilator with c_e*g != g that a
    # series product names.  mat2:z2 (noncommutative, refused by the
    # Armendariz hypothesis) and the box {1, 2} without the identity reach
    # the bridge here through families built by hand.
    families = {}
    real = verify._checked

    def spy(ctx, checks, gens, n, e, slots, budget):
        gens = list(gens)
        families[ctx, frozenset(gens), n, slots] = gens
        return real(ctx, checks, gens, n, e, slots, budget)

    monkeypatch.setattr(verify, "_checked", spy)
    for ctx, variant, box in _oracle_grid(gf4):
        try:
            verify_thm37(ctx, variant, box, seed=5, samples=3)
        except HypothesisNotMet:
            pass
    monkeypatch.undo()
    m2 = builtin_ring("mat2:z2")
    for ring, sigma in [(m2, s) for s in enumerate_endomorphisms(m2)[:2]] + [(Z4, None)]:
        ctx = SkewContext(ring, NAT, sigma)
        for slots in (tuple(NAT.box(1)), ((1,), (2,))):
            for x in range(ring.order):
                for gens in ([const_embed(ctx, x)], _spanning_monomials(ctx, (x,), slots)):
                    for n in (1, 2):
                        families[ctx, frozenset(gens), n, slots] = gens
    moved = 0
    for (ctx, _, n, slots), gens in families.items():
        ann = bounded_annihilator_in_A(ctx, gens, n, slots)
        for e in range(ctx.ring.order):
            ce = const_embed(ctx, e)
            bridge, _ = verify._checked(ctx, {}, gens, n, e, slots, ARMENDARIZ_BUDGET)
            assert bridge == (ce in ann, next((g for g in ann if ce * g != g), None)), (ctx, e)
            moved += bridge[1] is not None
    assert (len(families), moved) == (751, 2075)


class OrderCheckReached(Exception):
    pass


def test_order_check_is_held_to_the_budget_before_it_runs(monkeypatch):
    # Two slots have 2^4 Armendariz pairs, but the order check runs on the
    # whole coordinate box around them: 13^2 points for (12, 12), whose
    # 169^3 point triples are over the default budget.
    def spy(monoid, bound):
        raise OrderCheckReached(bound)

    monkeypatch.setattr(verify, "check_refinement", spy)
    ctx = SkewContext(ring_zn(2), OrderedMonoid("nat_k", "lex", k=2))
    with pytest.raises(BudgetExceeded,
                       match=r"^order check needs 169\^3 point triples, budget is 2000000$"):
        verify.verify_thm37(ctx, "baer", [(0, 0), (12, 12)])
    # At bound 1 the box has 4 points: 64 triples fit a budget of 64, not 63.
    with pytest.raises(BudgetExceeded, match=r"needs 4\^3 point triples, budget is 63"):
        verify.verify_thm37(ctx, "baer", [(0, 0), (1, 1)], budget=63)
    with pytest.raises(OrderCheckReached):
        verify.verify_thm37(ctx, "baer", [(0, 0), (1, 1)], budget=64)


def test_order_check_names_a_budget_past_the_digit_limit():
    # Both numbers are printed in full past the default int-to-str limit,
    # where str() would raise ValueError.
    points, budget = 10 ** 1500 + 1, 10 ** 4400
    want = (f"order check needs {full_decimal(points)}^3 point triples, "
            f"budget is {full_decimal(budget)}")
    with pytest.raises(BudgetExceeded) as caught:
        verify_thm37(SkewContext(ring_zn(2), NAT), "baer", [(10 ** 1500,)], budget=budget)
    assert str(caught.value) == want


class _Meter:
    """A budget that never trips; it keeps the largest count checked against
    it, which is the least budget under which the same call passes."""

    most = 0

    def __lt__(self, count):
        self.most = max(self.most, count)
        return False


def test_baer_subsets_lift_through_their_additive_generators(gf4):
    # The constant series of X and the constants at X's additive generators
    # span the same series, so they have the same annihilator, and the
    # kernel tries the same values for both: the budget trips at one count.
    rings = [builtin_ring(name) for name in CATALOG_NAMES]
    monoids = [OrderedMonoid("nat", "natural"), OrderedMonoid("nat_k", "lex", k=2),
               OrderedMonoid("int", "natural")]
    cases = 0
    for ring in [r for r in rings if r.order <= 8] + [gf4]:
        for sigma in enumerate_endomorphisms(ring):
            for monoid in monoids:
                if monoid.kind == "int" and not sigma.is_bijective:
                    continue
                ctx = SkewContext(ring, monoid, sigma)
                points = monoid.box(1)
                for slots in {tuple(points[:2]), tuple(points[:3])}:
                    try:
                        _, rv = verify._thm37_hypotheses(ctx, slots, "baer", ARMENDARIZ_BUDGET,
                                                         DEFAULT_CAPS, None)
                    except HypothesisNotMet:
                        continue
                    for members, depth, _ in rv.per_instance:
                        consts = [const_embed(ctx, x) for x in sorted(set(members))]
                        spanning = _spanning_monomials(ctx, members, (monoid.identity(),))
                        meter = _Meter()
                        ann = bounded_annihilator_in_A(ctx, consts, depth, slots, meter)
                        assert bounded_annihilator_in_A(
                            ctx, spanning, depth, slots, meter.most) == ann, (ctx, members)
                        for gens in (consts, spanning):
                            with pytest.raises(BudgetExceeded, match="slot values"):
                                bounded_annihilator_in_A(ctx, gens, depth, slots, meter.most - 1)
                        cases += 1
    assert cases > 2000


def test_a_passing_armendariz_scan_forces_the_ring_side_hypotheses():
    # Under the identity twist over nat, a box of 2 or more points holds
    # f = e - a*x and g = (1 - e) + a*x for an idempotent e and a = e*r*(1 - e).
    # f*g == 0, so a scan that passes forces a = e*a = 0, and 1 - e in place
    # of e gives (1 - e)*r*e = 0: every idempotent is central, R is a product
    # of local rings, and its four generalized classes accept, each depth at
    # most the nilpotency index of N(R).  Here every maximum meets the bound.
    # Every endomorphism is scanned too.  A twisted pass has no such proof;
    # each one here lies on a ring that also passes untwisted.
    rings = [builtin_ring(name) for name in CATALOG_NAMES]
    rings += [builtin_ring(name, Caps(order=64))
              for name in ("ut2:z3", "ut2:z4", "prod:zn:4,zn:4", "zn:16", "prod:zn:3,zn:5")]
    rings += [gf4_ring(), gf4_dual_numbers(), galois_ring_4_2()]
    rings += [triangular(*acd) for acd in ((2, 2, 4), (4, 2, 2), (2, 2, 2), (3, 3, 3))]
    outcomes = {"passes": 0, "twisted passes": 0, "refutes": 0, "over budget": 0}
    passing, twisted = {}, set()
    for ring, points in itertools.product(rings, (2, 3)):
        for sigma in enumerate_endomorphisms(ring, Caps(endo=64)):
            try:
                armendariz_pair_count(ring, points, 10 ** 8)
            except BudgetExceeded:
                outcomes["over budget"] += 1
                continue
            ctx = SkewContext(ring, NAT, sigma)
            if armendariz_search(ctx, NAT.box(points - 1), 10 ** 8).verdict == "no":
                outcomes["refutes"] += 1
                continue
            outcomes["passes"] += 1
            if sigma.image == tuple(range(ring.order)):
                passing[id(ring)] = ring
            else:
                outcomes["twisted passes"] += 1
                twisted.add(id(ring))
    assert twisted <= passing.keys()
    for ring in passing.values():
        elements = range(ring.order)
        assert all(ring.mul(e, r) == ring.mul(r, e) for e in idempotents(ring) for r in elements)
        nilpotent = {x for x in elements if ring.zero in subset_power(ring, {x}, ring.order)}
        index = next(m for m in itertools.count(1)
                     if subset_power(ring, nilpotent, m) == {ring.zero})
        runs = [("quasi_baer", Caps(ideal=64))] + [("baer", DEFAULT_CAPS)] * (ring.order <= 16)
        for cls, caps in runs:
            profile = class_profile(ring, cls, caps=caps)
            for side in ("right", "left"):
                verdict = profile[f"gen_{cls}_{side}"]
                assert verdict.verdict, (ring.label, cls, side)
                assert max(n for _, n, _ in verdict.per_instance) == index, (ring.label, cls, side)
    assert outcomes == {"passes": 46, "twisted passes": 18, "refutes": 126, "over budget": 50}
