"""Mechanized checks of the transfer statements between R and its series ring.

Each harness checks its hypotheses first and refuses to run (HypothesisNotMet)
when one fails; a FAIL outcome is reserved for a conclusion that breaks under
satisfied hypotheses, which would mean an implementation bug.  All quantifiers
over series are restricted to finite supports inside an explicit box, and every
report says so in its scope note.
"""

from __future__ import annotations

import random

from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    MixedContexts,
    NonpositiveExponent,
)
from .monoids import check_refinement, monoid_make
from .properties import _GAPS, CLASS_NAMES, SEARCH_KINDS, class_profile, decide_generalized
from .rings import (
    ARMENDARIZ_BUDGET,
    DEFAULT_CAPS,
    FrozenRecord,
    PropertyCertificate,
    additive_generators,
    annihilator,
    check_counts,
    enumerate_endomorphisms,
    idempotents,
    ideal_generated,
    subset_power,
)
from .series import (
    SkewContext,
    SkewSeries,
    _annihilating_vectors,
    _box_series,
    all_series,
    armendariz_search,
    const_embed,
    format_series,
    is_idempotent_series,
    normalize_box,
    s_compatibility_check,
    zero_series,
)

ANNIHILATOR_BUDGET = 2_000_000


class ConclusionEntry(FrozenRecord):
    """One checked instance: which statement direction, what, and the verdict
    (ok), with a witness string when it failed."""

    __slots__ = ("statement_id", "instance", "ok", "witness")
    _defaults = {"witness": None}


class TheoremReport(FrozenRecord):
    """Outcome of one verification run.

    outcome is PASS only when every hypothesis certificate is consistent and
    every conclusion entry passed.  scope_note states the finite-support
    restriction under which the quantifiers were evaluated.
    hypotheses_checked holds (name, PropertyCertificate) pairs.
    """

    __slots__ = ("statement_id", "outcome", "hypotheses_checked", "conclusion_checked",
                 "scope_note")


class CoefficientIdealLift(FrozenRecord):
    """Coefficient data of a series family: per-exponent sets, union, ideal."""

    __slots__ = ("per_exponent", "union", "generated_ideal")


class SearchOutcome(FrozenRecord):
    """Findings from a counterexample scan; never asserts anything."""

    __slots__ = ("findings", "exhausted", "work")


def _fmt_box(box):
    return "{" + ", ".join(str(e[0]) if len(e) == 1 else str(e) for e in box) + "}"


def _fmt_members(members):
    return "{" + ",".join(str(x) for x in members) + "}"


def _scope_note(ctx, box):
    return (
        f"quantifiers over series restricted to finite supports inside box {_fmt_box(box)} "
        f"of {ctx.monoid!r}; coefficient ring {ctx.ring.label} (order {ctx.ring.order}); "
        "exact arithmetic, no tolerances"
    )


# ---------------------------------------------------------------------------
# lifts


def lift_subset_to_series(ctx, subset):
    """Constant series for each member of a ring subset, ascending."""
    return [const_embed(ctx, x) for x in sorted(set(subset))]


def _spanning_monomials(ctx, members, slots):
    """Monomials c*x^v: c an additive generator of members, v a slot.

    For an additive subgroup of R (an ideal, or R itself) their additive span
    is every series with support in the slots and all coefficients in
    members: a box series is the sum of its terms, and each term's
    coefficient a sum of generators.  The zero ideal has no generators, so it
    gets the zero series, the only series of that span.
    """
    return [SkewSeries._trusted(ctx, {v: c})
            for c in additive_generators(ctx.ring, members) for v in slots] or [zero_series(ctx)]


def coefficient_ideal_lift(ctx, family):
    """Per-exponent coefficient sets of a series family and the right ideal they generate.

    Exponents range over the union of supports; the generated ideal of an
    all-zero family is {0}.
    """
    family = list(family)
    ring = ctx.ring
    exps = sorted({e for f in family for e in f.support})
    per = []
    union = set()
    for e in exps:
        vals = frozenset(f._terms.get(e, ring.zero) for f in family)
        per.append((e, tuple(sorted(vals))))
        union |= vals
    ideal = ideal_generated(ring, union | {ring.zero}, "right")
    return CoefficientIdealLift(
        per_exponent=tuple(per),
        union=tuple(sorted(union)),
        generated_ideal=tuple(sorted(ideal)),
    )


def bounded_annihilator_in_A(ctx, gens, n, box, budget=ANNIHILATOR_BUDGET):
    """Box-supported series killed on the right by every n-fold product of gens.

    Products are deduplicated; the result runs in the canonical series
    enumeration order (see all_series), so it is reproducible.  The budget
    bounds the product set's growth and the slot values the kernel tries.

    Any family whose additive span equals that of gens gives the same result:
    multiplication distributes over addition (each twist is additive), so the
    n-fold products of either family span the same group, and p -> p*g is
    additive, so g kills that group exactly when it kills a spanning set.
    The harnesses pass such spanning families (see _spanning_monomials).
    """
    if n < 1:
        raise NonpositiveExponent(f"power exponent must be >= 1, got {n}")
    gens = list(gens)
    if not gens:
        raise ValueError("gens must be a nonempty series family")
    if any(not isinstance(g, SkewSeries) or g.context is not ctx for g in gens):
        raise MixedContexts("gens must be series of the given skew context")
    slots = normalize_box(ctx.monoid, box)
    prods = set(gens)
    for _ in range(n - 1):
        if len(prods) * len(gens) > budget:
            raise BudgetExceeded("product set growth exceeds budget")
        prods = {p * g for p in prods for g in gens}
    return [_box_series(ctx, slots, vec)
            for vec in _annihilating_vectors(ctx, slots, [p._terms for p in prods], budget)]


# ---------------------------------------------------------------------------
# statement harnesses


def verify_prop34(ctx, box, budget=ARMENDARIZ_BUDGET):
    """Idempotent series at the box are exactly the constant embeddings of
    ring idempotents: each one has an idempotent constant term, equals that
    constant's embedding, and the counts agree."""
    check_counts(ValueError, budget=budget)
    slots = normalize_box(ctx.monoid, box)
    arm = armendariz_search(ctx, slots, "exhaustive", budget)
    if arm.verdict == "no":
        raise HypothesisNotMet("armendariz_at_box", arm)
    hyps = (("armendariz_at_box", arm),)
    ring = ctx.ring
    one_s = ctx.monoid.identity()
    entries = []
    count = 0
    for f in all_series(ctx, slots):
        if not is_idempotent_series(f):
            continue
        count += 1
        c = f.coeff(one_s)
        ok = ring.mul(c, c) == c and f == const_embed(ctx, c)
        entries.append(ConclusionEntry(
            "prop34",
            f"idempotent series {format_series(f)} is the constant embedding of an idempotent",
            ok,
            None if ok else f"constant term {c}",
        ))
    expected = len(idempotents(ring))
    entries.append(ConclusionEntry(
        "prop34",
        f"idempotent series count at box equals ring idempotent count ({count} vs {expected})",
        count == expected,
        None if count == expected else f"{count} != {expected}",
    ))
    outcome = "PASS" if all(e.ok for e in entries) else "FAIL"
    return TheoremReport("prop34", outcome, hyps, tuple(entries), _scope_note(ctx, slots))


def _thm37_hypotheses(ctx, slots, variant, budget, caps, shared):
    """Hypothesis certificates of one Thm 3.7 run, in order, and its
    ring-side run; HypothesisNotMet names the first hypothesis that fails.

    shared keeps the Armendariz certificate (under "armendariz") and each
    variant's ring-side run (under the variant) for later runs over the same
    ring, twist and box, which is all they depend on: the Armendariz scan
    multiplies finite-support series, which never consults the order.  Each
    is computed when a run first needs it, so the hypothesis that fails
    first is the one that would fail without sharing.
    """
    order = check_refinement(ctx.monoid, max(abs(c) for e in slots for c in e))
    if order.verdict != "yes":
        raise HypothesisNotMet("quasitotal_order", order)
    hyps = [("quasitotal_order", order)]
    compat = s_compatibility_check(ctx, "compatible")
    if compat.verdict != "yes":
        raise HypothesisNotMet("s_compatible", compat)
    hyps.append(("s_compatible", compat))
    arm = shared.get("armendariz")
    if arm is None:
        arm = shared["armendariz"] = armendariz_search(ctx, slots, "exhaustive", budget)
    if arm.verdict == "no":
        raise HypothesisNotMet("armendariz_at_box", arm)
    hyps.append(("armendariz_at_box", arm))
    rv = shared.get(variant)
    if rv is None:
        rv = shared[variant] = decide_generalized(ctx.ring, variant, "right", caps)
    if not rv.verdict:
        raise HypothesisNotMet(
            f"ring_gen_right_{variant}",
            PropertyCertificate("no", witness=rv.failing_instance,
                                notes="the bridge equalities are only checkable from an accepting ring-side run"),
        )
    hyps.append((
        f"ring_gen_right_{variant}",
        PropertyCertificate("yes", notes=f"accepted on all {len(rv.per_instance)} instances"),
    ))
    return hyps, rv


def verify_thm37(ctx, variant, box, budget=ARMENDARIZ_BUDGET, seed=0, samples=20,
                 caps=DEFAULT_CAPS):
    """Transfer of the generalized right Baer / quasi-Baer property at a box.

    Forward direction: for each accepted ring instance (X or I, n, e), the
    box slice of the series-level annihilator of the lifted family's n-fold
    products is exactly c_e times the slice.  Backward direction: the
    constant series in that slice rebuild the ring-level annihilator e*R.
    The quasi-Baer variant adds seeded round-trips through finitely
    generated series families and their coefficient ideals.

    An ideal I is lifted to the series with support in the box and all
    coefficients in I.  The annihilator is computed from the monomials c*x^v
    that span that family additively (c an additive generator of I), which
    gives the same annihilator (see bounded_annihilator_in_A) from
    len(gens) * len(box) series instead of |I|**len(box).
    """
    return _run_thm37(ctx, variant, box, budget, seed, samples, caps, {})


def _run_thm37(ctx, variant, box, budget, seed, samples, caps, shared):
    """verify_thm37 with hypothesis work shared as _thm37_hypotheses says."""
    if variant not in ("baer", "quasi_baer"):
        raise ValueError(f"variant must be 'baer' or 'quasi_baer', got {variant!r}")
    check_counts(ValueError, budget=budget, samples=samples)
    slots = normalize_box(ctx.monoid, box)
    hyps, rv = _thm37_hypotheses(ctx, slots, variant, budget, caps, shared)
    forward_id = "prop36_1" if variant == "baer" else "prop36_2"
    backward_id = "prop35_1" if variant == "baer" else "prop35_2"
    entries = []
    bridges = {}
    for members, depth, e in rv.per_instance:
        if variant == "baer":
            gens = lift_subset_to_series(ctx, members)
            label = f"X={_fmt_members(members)} n={depth} e={e}"
        else:
            gens = _spanning_monomials(ctx, members, slots)
            label = f"I={_fmt_members(members)} n={depth} e={e}"
        ann = bounded_annihilator_in_A(ctx, gens, depth, slots, budget)
        entries.extend(_bridge_entries(ctx, ann, e, label, forward_id, bridges))
        entries.append(_reconstruction_entry(ctx, members, depth, e, ann, label, backward_id))
    if variant == "quasi_baer":
        entries.extend(_sampled_ideal_roundtrips(ctx, rv, slots, seed, samples, budget, bridges))
    outcome = "PASS" if all(e.ok for e in entries) else "FAIL"
    statement = "thm37_baer" if variant == "baer" else "thm37_quasibaer"
    return TheoremReport(statement, outcome, tuple(hyps), tuple(entries), _scope_note(ctx, slots))


def _bridge_entries(ctx, ann, e, label, statement_id, bridges):
    """The two halves of 'annihilator slice == c_e * slice'.

    Their outcome, whether c_e lies in ann and the first g in ann with
    c_e*g != g, depends only on e and the contents of ann.  bridges keeps it
    per e and ann's sort keys for the rest of the run, since many instances
    share one annihilator (over Z/8 at box 3, 15 subsets all have the whole
    box).
    """
    key = e, tuple(g.sort_key for g in ann)
    outcome = bridges.get(key)
    if outcome is None:
        ce = const_embed(ctx, e)
        outcome = bridges[key] = ce in ann, next((g for g in ann if ce * g != g), None)
    in_ann, bad = outcome
    yield ConclusionEntry(
        statement_id, f"{label}: c_e lies in the bounded series annihilator", in_ann,
        None if in_ann else f"c_{e} missing",
    )
    yield ConclusionEntry(
        statement_id, f"{label}: every bounded annihilating series g equals c_e*g", bad is None,
        None if bad is None else f"g = {format_series(bad)}",
    )


def _reconstruction_entry(ctx, members, depth, e, ann, label, statement_id):
    """Constants of the series-level annihilator rebuild the ring-level one."""
    ring = ctx.ring
    one_s = ctx.monoid.identity()
    consts = {g.coeff(one_s) for g in ann if g.support <= {one_s}}
    e_right = frozenset(ring.mul(e, r) for r in range(ring.order))
    ring_ann = annihilator(ring, subset_power(ring, members, depth), "right")
    ok = consts == e_right and consts == ring_ann
    return ConclusionEntry(
        statement_id,
        f"{label}: constant slice of the series annihilator equals e*R equals the ring annihilator",
        ok,
        None if ok else f"constants {sorted(consts)} vs e*R {sorted(e_right)} vs ring {sorted(ring_ann)}",
    )


def _sampled_ideal_roundtrips(ctx, rv, slots, seed, samples, budget, bridges):
    """Seeded finitely generated series families and their coefficient ideals.

    Each sample takes two random box-supported generators, closes them under
    right multiplication by every box-supported series (reaching supports
    outside the box), reads off the right ideal generated by the coefficients,
    fetches that ideal's accepted (n, b) from the ring-side run, and checks
    the bridge on the sampled products joined with the ideal's canonical box
    family.  The join keeps both bridge halves implied by the ring-side
    instance while the sampled members stretch the products past the box.

    The multipliers are the monomials spanning all box series, and the ideal
    joins through its spanning monomials.  Both families span what their
    full versions span, so the annihilator is unchanged (see
    bounded_annihilator_in_A), and so is the coefficient ideal: each product
    with a box series is a sum of products with monomials, coefficient by
    coefficient, and the monomial products are among the full family's.
    """
    ring = ctx.ring
    per_ideal = {members: (depth, e) for members, depth, e in rv.per_instance}
    multipliers = _spanning_monomials(ctx, range(ring.order), slots)
    entries = []
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)
        gens = []
        for _ in range(2):
            gens.append(_box_series(ctx, slots, [rng.randrange(ring.order) for _ in slots]))
        sampled = {g * m for g in gens for m in multipliers}
        lift = coefficient_ideal_lift(ctx, sorted(sampled, key=lambda f: f.sort_key))
        members = lift.generated_ideal
        family = sorted(sampled | set(_spanning_monomials(ctx, members, slots)),
                        key=lambda f: f.sort_key)
        depth, b = per_ideal[members]
        label = (
            f"sample {i}: gens [{format_series(gens[0])}] [{format_series(gens[1])}] "
            f"-> I={_fmt_members(members)} n={depth} b={b}"
        )
        ann = bounded_annihilator_in_A(ctx, family, depth, slots, budget)
        entries.extend(_bridge_entries(ctx, ann, b, label, "prop36_2", bridges))
    return entries


def verify_corollaries(ring, box, budget=ARMENDARIZ_BUDGET, seed=0, samples=20,
                       caps=DEFAULT_CAPS):
    """Replay the transfer flow in its untwisted special cases over N.

    cor38 covers both variants for generalized power series (natural order,
    identity twist); cor39/cor310 are the power series quasi-Baer and Baer
    cases, cor38's own runs, which run once; cor311/cor312 are the polynomial
    cases, which use the trivial order on the same finite supports.  All runs
    share one Armendariz scan and one ring-side run per variant.
    """
    runs = (
        ("cor38", "natural", ("baer", "quasi_baer")),
        ("cor39", "natural", ("quasi_baer",)),
        ("cor310", "natural", ("baer",)),
        ("cor311", "trivial", ("quasi_baer",)),
        ("cor312", "trivial", ("baer",)),
    )
    reports = []
    subs = {}
    shared = {}
    for statement, order_mode, variants in runs:
        monoid = monoid_make("nat_add", order_mode)
        ctx = SkewContext(ring, monoid)
        hyps = []
        entries = []
        slots = normalize_box(monoid, box)
        for variant in variants:
            key = order_mode, variant
            if key not in subs:
                subs[key] = _run_thm37(ctx, variant, slots, budget, seed, samples, caps, shared)
            sub = subs[key]
            hyps.extend(sub.hypotheses_checked)
            entries.extend(sub.conclusion_checked)
        outcome = "PASS" if all(e.ok for e in entries) else "FAIL"
        reports.append(TheoremReport(
            statement, outcome, tuple(hyps), tuple(entries),
            _scope_note(ctx, slots) + f"; untwisted specialization with order mode {order_mode!r}",
        ))
    return reports


# ---------------------------------------------------------------------------
# counterexample scan


def counterexample_search(catalog, properties=None, budget=10_000_000, box=(0, 1),
                          caps=DEFAULT_CAPS):
    """Scan rings (and their endomorphisms) for strict gaps and Armendariz
    failures.  Emits finding records; never asserts.  Stops early when the
    Armendariz pair budget runs out, flagging the outcome as exhausted."""
    kinds = SEARCH_KINDS if properties is None else tuple(properties)
    for kind in kinds:
        if kind not in SEARCH_KINDS:
            raise ValueError(f"unknown search property {kind!r}; options: {', '.join(SEARCH_KINDS)}")
    findings = []
    exhausted = False
    work = 0
    for name, ring in catalog:
        profile = {}
        if any(k in kinds for k in SEARCH_KINDS[:4]):
            for cls in ("baer", "quasi_baer"):
                profile.update((cname, cv.verdict) for cname, cv in class_profile(
                    ring, cls, CLASS_NAMES, caps, keep=False).items())
        for kind, (holds, fails, detail) in _GAPS.items():
            if kind in kinds and profile[holds] and not profile[fails]:
                findings.append({"kind": kind, "ring": name, "detail": detail})
        if "left_right" in kinds:
            for cls in ("baer", "quasi_baer"):
                if profile[f"gen_{cls}_right"] != profile[f"gen_{cls}_left"]:
                    findings.append({
                        "kind": "left_right", "ring": name, "class": f"gen_{cls}",
                        "right": profile[f"gen_{cls}_right"], "left": profile[f"gen_{cls}_left"],
                    })
        if "armendariz" in kinds:
            monoid = monoid_make("nat_add", "natural")
            slots = normalize_box(monoid, box)
            cost_each = (ring.order ** len(slots)) ** 2
            for idx, sigma in enumerate(enumerate_endomorphisms(ring, caps.endo)):
                remaining = budget - work
                if cost_each > remaining:
                    exhausted = True
                    break
                work += cost_each
                ctx = SkewContext(ring, monoid, sigma)
                cert = armendariz_search(ctx, slots, "exhaustive", remaining)
                if cert.verdict == "no":
                    f, g, s, t = cert.witness
                    findings.append({
                        "kind": "armendariz", "ring": name, "sigma_index": idx,
                        "f": format_series(f), "g": format_series(g),
                        "s": list(s), "t": list(t),
                        "detail": "bounded search found an Armendariz failure",
                    })
                    break
            if exhausted:
                break
    return SearchOutcome(tuple(findings), exhausted, work)
