"""Mechanized checks of the transfer statements between R and its series ring.

Each harness checks its hypotheses first and refuses to run (HypothesisNotMet)
when one fails; a FAIL outcome is reserved for a conclusion that breaks under
satisfied hypotheses, which would mean an implementation bug.  All quantifiers
over series are restricted to finite supports inside an explicit box, and every
report says so in its scope note.
"""

import random

from .errors import BudgetExceeded, HypothesisNotMet, MixedContexts
from .monoids import OrderedMonoid, check_refinement
from .properties import _GAPS, SEARCH_KINDS, class_profile, decide_generalized
from .rings import (
    ARMENDARIZ_BUDGET,
    DEFAULT_CAPS,
    SEARCH_BUDGET,
    FrozenRecord,
    PropertyCertificate,
    _decimal,
    additive_generators,
    annihilator,
    check_counts,
    check_power,
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
    _repr_exp,
    all_series,
    armendariz_pair_count,
    armendariz_search,
    const_embed,
    format_series,
    is_idempotent_series,
    normalize_box,
    s_compatibility_check,
    zero_series,
)


class ConclusionEntry(FrozenRecord):
    """One checked instance: which statement direction, what, and a witness
    string when it failed; ok when there is none."""

    __slots__ = ("statement_id", "instance", "witness")
    _defaults = {"witness": None}

    @property
    def ok(self):
        return self.witness is None


class TheoremReport(FrozenRecord):
    """Outcome of one verification run.

    outcome is PASS exactly when every conclusion entry is ok; a run whose
    hypotheses fail raises HypothesisNotMet instead.  scope_note states the
    finite-support restriction under which the quantifiers were evaluated.
    hypotheses_checked holds (name, PropertyCertificate) pairs.
    """

    __slots__ = ("statement_id", "hypotheses_checked", "conclusion_checked", "scope_note")

    @property
    def outcome(self):
        return "PASS" if all(e.ok for e in self.conclusion_checked) else "FAIL"


class SearchOutcome(FrozenRecord):
    """Findings from a counterexample scan; never asserts anything."""

    __slots__ = ("findings", "exhausted", "work")


def _fmt_box(box):
    return "{" + ", ".join(_decimal(e[0]) if len(e) == 1 else _repr_exp(e) for e in box) + "}"


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


def _spanning_monomials(ctx, members, slots):
    """Monomials c*x^v: c an additive generator of members, v a slot.

    Their additive span is every series with support in the slots and all
    coefficients in the additive subgroup that members generate (at the
    identity slot alone, the span of members' constant series): a box series
    is the sum of its terms, and each term's coefficient a sum of generators.
    {0} has no generators, so it gets the zero series, that span's one series.
    """
    return [SkewSeries._trusted(ctx, ((v, c),))
            for c in additive_generators(ctx.ring, members) for v in slots] or [zero_series(ctx)]


def coefficient_ideal_lift(ctx, family):
    """The right ideal generated by the coefficients of a series family, as
    a sorted tuple; {0} for an all-zero family."""
    ring = ctx.ring
    coeffs = {c for f in family for _, c in f._terms}
    return tuple(sorted(ideal_generated(ring, coeffs | {ring.zero}, "right")))


def _products(gens, n, budget):
    """The set of n-fold products of the series gens; the budget bounds its
    growth."""
    prods = set(gens)
    for _ in range(n - 1):
        if len(prods) * len(gens) > budget:
            raise BudgetExceeded("product set growth exceeds budget")
        prods = {p * g for p in prods for g in gens}
    return prods


def bounded_annihilator_in_A(ctx, gens, n, box, budget=ARMENDARIZ_BUDGET):
    """Box-supported series killed on the right by every n-fold product of gens.

    Products are deduplicated; the result is a tuple in the canonical series
    enumeration order (see all_series), so it is reproducible.  The budget
    bounds the product set's growth and the slot values the kernel tries.

    Any family whose additive span equals that of gens gives the same result:
    multiplication distributes over addition (each twist is additive), so the
    n-fold products of either family span the same group, and p -> p*g is
    additive, so g kills that group exactly when it kills a spanning set.
    The harnesses pass such spanning families (see _spanning_monomials).
    """
    check_power(n)
    gens = list(gens)
    if not gens:
        raise ValueError("gens must be a nonempty series family")
    if any(not isinstance(g, SkewSeries) or g.context is not ctx for g in gens):
        raise MixedContexts("gens must be series of the given skew context")
    slots = normalize_box(ctx.monoid, box)
    prods = _products(gens, n, budget)
    kernel = _annihilating_vectors(ctx, slots, [p._terms for p in prods], budget)
    return tuple(_box_series(ctx, slots, v) for v in kernel)


# ---------------------------------------------------------------------------
# statement harnesses


def verify_prop34(ctx, box, budget=ARMENDARIZ_BUDGET):
    """Idempotent series at the box are exactly the constant embeddings of
    ring idempotents: each one has an idempotent constant term, equals that
    constant's embedding, and the counts agree."""
    check_counts(ValueError, budget=budget)
    slots = normalize_box(ctx.monoid, box)
    arm = armendariz_search(ctx, slots, budget=budget)
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
        entries.append(ConclusionEntry(
            "prop34",
            f"idempotent series {format_series(f)} is the constant embedding of an idempotent",
            None if ring.mul(c, c) == c and f == const_embed(ctx, c) else f"constant term {c}",
        ))
    expected = len(idempotents(ring))
    entries.append(ConclusionEntry(
        "prop34",
        f"idempotent series count at box equals ring idempotent count ({count} vs {expected})",
        None if count == expected else f"{count} != {expected}",
    ))
    return TheoremReport("prop34", hyps, tuple(entries), _scope_note(ctx, slots))


def _order_hypothesis(monoid, slots, budget):
    """The quasitotal_order hypothesis pair of a run at slots.

    The order check runs on the coordinate box around the slots, which can
    hold far more points than the slots, so its points^3 is held to the
    budget before it runs.
    """
    bound = max(abs(c) for e in slots for c in e)
    points = monoid.box_size(bound)
    if points ** 3 > budget:
        raise BudgetExceeded(
            f"order check needs {_decimal(points)}^3 point triples, budget is {_decimal(budget)}")
    order = check_refinement(monoid, bound)
    if order.verdict != "yes":
        raise HypothesisNotMet("quasitotal_order", order)
    return "quasitotal_order", order


def _thm37_hypotheses(ctx, slots, variant, budget, caps, arm):
    """Hypothesis certificates of one Thm 3.7 run, in order, and its
    ring-side run; HypothesisNotMet names the first hypothesis that fails.

    arm is the Armendariz certificate of an earlier run over the same ring,
    twist and box, which is all it depends on (the scan multiplies
    finite-support series, which never consults the order), or None to run
    the scan here, in its place among the hypotheses.

    The Armendariz pair budget is checked before any hypothesis: the order
    check costs O(points^3), and a box over budget would only reach it to
    stop at the scan.
    """
    armendariz_pair_count(ctx.ring, len(slots), budget)
    hyps = [_order_hypothesis(ctx.monoid, slots, budget)]
    compat = s_compatibility_check(ctx)
    if compat.verdict != "yes":
        raise HypothesisNotMet("s_compatible", compat)
    hyps.append(("s_compatible", compat))
    if arm is None:
        arm = armendariz_search(ctx, slots, budget=budget)
    if arm.verdict == "no":
        raise HypothesisNotMet("armendariz_at_box", arm)
    hyps.append(("armendariz_at_box", arm))
    rv = decide_generalized(ctx.ring, variant, "right", caps)
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

    A subset X is lifted to its constant series, an ideal I to the series
    with support in the box and all coefficients in I.  The annihilator is
    computed from the monomials c*x^v that span the lift additively (c an
    additive generator of X or I, v the identity or a box slot), which gives
    the same annihilator (see bounded_annihilator_in_A) from len(gens) *
    len(box) series instead of |I|**len(box).
    """
    return _run_thm37(ctx, variant, box, budget, seed, samples, caps, None)


def _run_thm37(ctx, variant, box, budget, seed, samples, caps, arm):
    """verify_thm37, given the Armendariz certificate as _thm37_hypotheses says."""
    if variant not in ("baer", "quasi_baer"):
        raise ValueError(f"variant must be 'baer' or 'quasi_baer', got {variant!r}")
    check_counts(ValueError, budget=budget, samples=samples)
    slots = normalize_box(ctx.monoid, box)
    hyps, rv = _thm37_hypotheses(ctx, slots, variant, budget, caps, arm)
    forward_id = "prop36_1" if variant == "baer" else "prop36_2"
    backward_id = "prop35_1" if variant == "baer" else "prop35_2"
    lift, prefix = ((ctx.monoid.identity(),), "X") if variant == "baer" else (slots, "I")
    entries = []
    checks = {}
    for members, depth, e in rv.per_instance:
        gens = _spanning_monomials(ctx, members, lift)
        label = f"{prefix}={_fmt_members(members)} n={depth} e={e}"
        bridge, consts = _checked(ctx, checks, gens, depth, e, slots, budget)
        entries.extend(_bridge_entries(bridge, e, label, forward_id))
        entries.append(_reconstruction_entry(ctx, members, depth, e, consts, label, backward_id))
    if variant == "quasi_baer":
        entries.extend(_sampled_ideal_roundtrips(ctx, rv, slots, seed, samples, budget, checks))
    statement = "thm37_baer" if variant == "baer" else "thm37_quasibaer"
    return TheoremReport(statement, tuple(hyps), tuple(entries), _scope_note(ctx, slots))


def _checked(ctx, checks, gens, n, e, slots, budget):
    """(bridge outcome, constant slice) of the bounded annihilator of gens'
    n-fold products, read off the box kernel's vectors in one pass: whether
    c_e lies in it, its first g with c_e*g != g (the one series built), and
    the constants of its vectors zero off the identity slot ({0} for a box
    without the identity), so that c_e lies in it exactly when e is one.

    c_e*g is e times g's coefficients, with no series product: c_e = e*x^1
    and the twist at the identity exponent is the identity map.

    Both depend only on the product set and e, the run's slots and budget
    being fixed, so checks keeps them per (product set, e) for the run:
    instances share product sets (over Z/8 at box 3, 255 subsets have 12).
    """
    prods = _products(gens, n, budget)
    key = frozenset(prods), e
    found = checks.get(key)
    if found is None:
        zero, times_e, one_s = ctx.ring.zero, ctx.ring.mul_table[e], ctx.monoid.identity()
        at = slots.index(one_s) if one_s in slots else None
        consts, bad = set(), None
        for v in _annihilating_vectors(ctx, slots, [p._terms for p in prods], budget):
            if all(c == zero for j, c in enumerate(v) if j != at):
                consts.add(zero if at is None else v[at])
            if bad is None and any(times_e[c] != c for c in v):
                bad = _box_series(ctx, slots, v)
        found = checks[key] = (e in consts, bad), consts
    return found


def _bridge_entries(bridge, e, label, statement_id):
    """The two halves of 'annihilator slice == c_e * slice', from the bridge
    outcome of _checked."""
    in_ann, bad = bridge
    yield ConclusionEntry(statement_id, f"{label}: c_e lies in the bounded series annihilator",
                          None if in_ann else f"c_{e} missing")
    yield ConclusionEntry(statement_id,
                          f"{label}: every bounded annihilating series g equals c_e*g",
                          None if bad is None else f"g = {format_series(bad)}")


def _reconstruction_entry(ctx, members, depth, e, consts, label, statement_id):
    """Constants of the series-level annihilator (the constant slice of
    _checked) rebuild the ring-level one."""
    ring = ctx.ring
    e_right = frozenset(ring.mul_table[e])
    ring_ann = annihilator(ring, subset_power(ring, members, depth), "right")
    ok = consts == e_right and consts == ring_ann
    return ConclusionEntry(
        statement_id,
        f"{label}: constant slice of the series annihilator equals e*R equals the ring annihilator",
        None if ok else f"constants {sorted(consts)} vs e*R {sorted(e_right)} vs ring {sorted(ring_ann)}",
    )


def _sampled_ideal_roundtrips(ctx, rv, slots, seed, samples, budget, checks):
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
        members = coefficient_ideal_lift(ctx, sampled)
        family = sampled | set(_spanning_monomials(ctx, members, slots))
        depth, b = per_ideal[members]
        label = (
            f"sample {i}: gens [{format_series(gens[0])}] [{format_series(gens[1])}] "
            f"-> I={_fmt_members(members)} n={depth} b={b}"
        )
        bridge, _ = _checked(ctx, checks, family, depth, b, slots, budget)
        entries.extend(_bridge_entries(bridge, b, label, "prop36_2"))
    return entries


def verify_corollaries(ring, box, budget=ARMENDARIZ_BUDGET, seed=0, samples=20,
                       caps=DEFAULT_CAPS):
    """Replay the transfer flow in its untwisted special cases over N.

    cor38 covers both variants for generalized power series (natural order,
    identity twist); cor39/cor310 are the power series quasi-Baer and Baer
    cases; cor311/cor312 are the polynomial cases, which use the trivial
    order on the same finite supports.  Past its order check a run only
    multiplies series, so the two natural runs, Baer first, serve all five
    reports, each with its own order's certificate (listed first).
    """
    natural = SkewContext(ring, OrderedMonoid("nat", "natural"))
    trivial = SkewContext(ring, OrderedMonoid("nat", "trivial"))
    slots = normalize_box(natural.monoid, box)
    baer = _run_thm37(natural, "baer", slots, budget, seed, samples, caps, None)
    quasi_baer = _run_thm37(natural, "quasi_baer", slots, budget, seed, samples, caps,
                            dict(baer.hypotheses_checked)["armendariz_at_box"])
    subs = {"baer": baer, "quasi_baer": quasi_baer}
    orders = {natural: baer.hypotheses_checked[0],
              trivial: _order_hypothesis(trivial.monoid, slots, budget)}
    runs = (
        ("cor38", natural, ("baer", "quasi_baer")),
        ("cor39", natural, ("quasi_baer",)),
        ("cor310", natural, ("baer",)),
        ("cor311", trivial, ("quasi_baer",)),
        ("cor312", trivial, ("baer",)),
    )
    reports = []
    for statement, ctx, variants in runs:
        hyps = tuple(orders[ctx] if h[0] == "quasitotal_order" else h
                     for variant in variants for h in subs[variant].hypotheses_checked)
        entries = tuple(e for variant in variants for e in subs[variant].conclusion_checked)
        reports.append(TheoremReport(
            statement, hyps, entries,
            _scope_note(ctx, slots)
            + f"; untwisted specialization with order mode {ctx.monoid.order_mode!r}",
        ))
    return reports


# ---------------------------------------------------------------------------
# counterexample scan


def counterexample_search(catalog, properties=None, budget=SEARCH_BUDGET, box=2,
                          caps=DEFAULT_CAPS):
    """Scan rings (and their endomorphisms) for strict gaps and Armendariz
    failures.  Emits finding records; never asserts.  Stops early when the
    Armendariz pair budget runs out, flagging the outcome as exhausted.

    The Armendariz scans run over the box of exponents 0..box-1 of N.  Each
    scan's pair count comes from box alone, so a box is built only for a
    scan that fits the budget.
    """
    kinds = SEARCH_KINDS if properties is None else tuple(properties)
    for kind in kinds:
        if kind not in SEARCH_KINDS:
            raise ValueError(f"unknown search property {kind!r}; options: {', '.join(SEARCH_KINDS)}")
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    # Both sides of each instance kind that a requested gap or the
    # left-right comparison reads.
    names = {cname for kind in kinds if kind in _GAPS for cname in _GAPS[kind][:2]}
    walks = [cls for cls in ("baer", "quasi_baer")
             if "left_right" in kinds or {cls, f"gen_{cls}_right"} & names]
    findings = []
    exhausted = False
    work = 0
    monoid = OrderedMonoid("nat", "natural")
    for name, ring in catalog:
        profile = {}
        for cls in walks:
            profile.update((cname, cv.verdict) for cname, cv in class_profile(
                ring, cls, None, caps).items())
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
            for idx, sigma in enumerate(enumerate_endomorphisms(ring, caps)):
                remaining = budget - work
                try:
                    work += armendariz_pair_count(ring, box, remaining)
                except BudgetExceeded:
                    exhausted = True
                    break
                cert = armendariz_search(SkewContext(ring, monoid, sigma), monoid.box(box - 1),
                                         budget=remaining)
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
