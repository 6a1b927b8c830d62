import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    KERNEL_MONOIDS,
    full_decimal,
    literal_product,
    relabelled,
    series_over,
    skew_boxes,
    skew_contexts,
)
from skewseries import series
from skewseries.errors import (
    AxiomViolation,
    BudgetExceeded,
    DuplicateExponent,
    ForeignElement,
    MixedContexts,
    MixedMonoids,
    SpecFormatError,
)
from skewseries.monoids import OrderedMonoid
from skewseries.rings import (
    ARMENDARIZ_BUDGET,
    PropertyCertificate,
    RingEndomorphism,
    build_ring_from_tables,
    enumerate_endomorphisms,
    ring_matrix,
    ring_product,
    ring_zn,
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
    is_idempotent_series,
    normalize_box,
    parse_series_literal,
    s_compatibility_check,
    series_from_pairs,
    zero_series,
)
from skewseries.specfile import CATALOG_NAMES, builtin_ring

NAT = OrderedMonoid("nat", "natural")
Z4 = ring_zn(4)
Z6 = ring_zn(6)
CTX4 = SkewContext(Z4, NAT)
CTX6 = SkewContext(Z6, NAT)


def test_zero_coefficients_are_dropped():
    f = series_from_pairs(CTX4, [(0, 0), (2, 1)])
    assert f.support == {(1,)}
    assert f.coeff(0) == 0 and f.coeff(1) == 2


def test_duplicate_exponent_rejected():
    with pytest.raises(DuplicateExponent):
        series_from_pairs(CTX4, [(1, 2), (3, 2)])
    # A zero coefficient is dropped, but its exponent still counts as given,
    # whichever of the two spellings comes first.
    for terms in ({0: 0, (0,): 1}, {0: 1, (0,): 0}, {0: 0, (0,): 0}):
        with pytest.raises(DuplicateExponent, match=r"^exponent \(0,\) given twice$"):
            SkewSeries(CTX4, terms)


def test_foreign_coefficient_rejected():
    with pytest.raises(ForeignElement):
        series_from_pairs(CTX4, [(7, 0)])
    # True == 1 and hashes like it, but it is no ring element.
    with pytest.raises(ForeignElement):
        series_from_pairs(CTX4, [(True, 0)])


def test_mixed_contexts_rejected():
    f = const_embed(CTX4, 1)
    g = const_embed(SkewContext(Z4, NAT), 1)
    with pytest.raises(MixedContexts):
        f + g


def test_square_of_two_plus_two_x_vanishes():
    f = series_from_pairs(CTX4, [(2, 0), (2, 1)])
    assert (f * f).is_zero


def test_constant_and_exponent_embeddings_multiply():
    """e_s * c_r picks up the twist of the left exponent."""
    klein = ring_product(ring_zn(2), ring_zn(2))
    swap = next(e for e in enumerate_endomorphisms(klein) if e.image == (0, 2, 1, 3))
    ctx = SkewContext(klein, NAT, swap)
    for r in range(4):
        for s in range(4):
            lhs = exp_embed(ctx, s) * const_embed(ctx, r)
            rhs = const_embed(ctx, ctx.omega((s,)).image[r]) * exp_embed(ctx, s)
            assert lhs == rhs, (r, s)


def _twist_of(name, gf4):
    if name == "gf4-frobenius":
        return enumerate_endomorphisms(gf4)[1]
    klein = ring_product(ring_zn(2), ring_zn(2))
    image = {"klein-swap": (0, 2, 1, 3), "klein-projection": (0, 0, 3, 3)}[name]
    return next(e for e in enumerate_endomorphisms(klein) if e.image == image)


def _composed(sigma, d):
    """Image table of sigma composed with itself d times, one step at a time."""
    image = tuple(range(sigma.ring.order))
    for _ in range(d):
        image = tuple(sigma.image[y] for y in image)
    return image


def test_twist_is_a_monoid_homomorphism(gf4):
    # The projection is not bijective, so its power cycle starts at 1 and it
    # has no place over the integers.
    for twist in ("klein-swap", "klein-projection", "gf4-frobenius"):
        sigma = _twist_of(twist, gf4)
        for monoid_name, (kind, mode, k) in sorted(KERNEL_MONOIDS.items()):
            if kind == "int" and not sigma.is_bijective:
                continue
            monoid = OrderedMonoid(kind, mode, k=k)
            ctx = SkewContext(sigma.ring, monoid, sigma)
            points = monoid.box(3)
            for u in points:
                for v in points:
                    assert (ctx.omega(monoid.op(u, v)).image
                            == ctx.omega(u).compose(ctx.omega(v)).image), (twist, u, v)
            for u in monoid.box(6) + [(1001,) * k]:
                if sum(u) >= 0:
                    assert ctx.omega(u).image == _composed(sigma, sum(u)), (twist, u)
            if kind == "int":
                for d in range(14):
                    sigma_d = RingEndomorphism(sigma.ring, _composed(sigma, d))
                    assert (ctx.omega((-d,)).compose(sigma_d).image
                            == tuple(range(sigma.ring.order))), (twist, d)


def test_integer_exponents_need_an_automorphism():
    proj = enumerate_endomorphisms(ring_product(ring_zn(2), ring_zn(2)))[0]
    assert not proj.is_bijective
    with pytest.raises(AxiomViolation) as exc:
        SkewContext(proj.ring, OrderedMonoid("int", "natural"), proj)
    assert exc.value.axiom == "twist-automorphism"


def test_integer_exponent_twist_uses_the_inverse():
    klein = ring_product(ring_zn(2), ring_zn(2))
    swap = next(e for e in enumerate_endomorphisms(klein) if e.image == (0, 2, 1, 3))
    ctx = SkewContext(klein, OrderedMonoid("int", "natural"), swap)
    assert ctx.omega((-1,)).image == swap.inverse().image
    assert ctx.omega((-2,)).image == (0, 1, 2, 3)


def test_identity_series_is_neutral():
    one = const_embed(CTX6, CTX6.ring.one)
    f = series_from_pairs(CTX6, [(5, 0), (3, 2)])
    assert one * f == f and f * one == f


def test_all_series_canonical_order():
    xs = list(all_series(CTX4, [0, 1]))
    assert len(xs) == 16
    assert xs[0].is_zero
    # the last slot varies fastest in the canonical enumeration
    assert xs[1] == exp_embed(CTX4, 1)
    assert [x.coeff(1) for x in xs[:4]] == [0, 1, 2, 3]
    assert xs[4] == const_embed(CTX4, 1)


def test_format_and_parse_roundtrip_hand_cases():
    f = series_from_pairs(CTX4, [(2, 0), (3, 5)])
    assert format_series(f) == "2@0 + 3@5"
    assert parse_series_literal(CTX4, "2@0 + 3@5") == f
    assert parse_series_literal(CTX4, "0").is_zero
    assert format_series(zero_series(CTX4)) == "0"
    with pytest.raises(SpecFormatError):
        parse_series_literal(CTX4, "2*x")


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=4))
def test_format_parse_roundtrip_random(pairs):
    seen = set()
    clean = [(c, e) for c, e in pairs if not (e in seen or seen.add(e))]
    f = series_from_pairs(CTX6, clean)
    assert parse_series_literal(CTX6, format_series(f)) == f


@given(st.integers(0, 4 ** 3 - 1), st.integers(0, 4 ** 3 - 1), st.integers(0, 4 ** 3 - 1))
def test_multiplication_associates_on_random_triples(i, j, k):
    def decode(n):
        return series_from_pairs(CTX4, [(n % 4, 0), (n // 4 % 4, 1), (n // 16, 2)])
    f, g, h = decode(i), decode(j), decode(k)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_distribution_over_tuple_exponents():
    ctx = SkewContext(Z4, OrderedMonoid("nat_k", "product", k=2))
    f = series_from_pairs(ctx, [(1, (0, 1)), (2, (1, 0))])
    g = series_from_pairs(ctx, [(3, (0, 0)), (1, (1, 1))])
    assert (f * g).coeff((1, 2)) == 1
    assert (f + g).coeff((0, 1)) == 1


def test_idempotent_series_detection():
    assert is_idempotent_series(const_embed(CTX6, 3))
    assert not is_idempotent_series(const_embed(CTX6, 2))
    assert is_idempotent_series(zero_series(CTX6))


def test_armendariz_unknown_at_bound_for_z4():
    cert = armendariz_search(CTX4, [0, 1, 2])
    assert cert.verdict == "unknown-at-bound"
    assert "4096" in cert.notes  # 64 series, 4096 ordered pairs


def test_armendariz_witness_for_m2_z2():
    m2 = ring_matrix(ring_zn(2), 2)
    ctx = SkewContext(m2, NAT)
    cert = armendariz_search(ctx, [0, 1])
    assert cert.verdict == "no"
    f, g, s, t = cert.witness
    assert (f * g).is_zero
    assert m2.mul(f.coeff(s), ctx.omega(s).image[g.coeff(t)]) != 0


def test_armendariz_budget_guard():
    with pytest.raises(BudgetExceeded):
        armendariz_search(CTX6, [0, 1, 2], budget=100)


def test_armendariz_pair_count_at_the_budget_and_on_a_one_element_ring():
    # The budget is inclusive: 8^4 pairs fit a budget of exactly 4096.
    assert armendariz_pair_count(ring_zn(8), 2, 4096) == 4096
    with pytest.raises(BudgetExceeded, match="needs 4096 pairs, budget is 4095"):
        armendariz_pair_count(ring_zn(8), 2, 4095)
    # A one-element ring has one pair at any box, also past the power
    # printing limit, where 1^(2*points) must not be read as over budget.
    zero_ring = build_ring_from_tables(1, [[0]], [[0]], 0, 0)
    assert armendariz_pair_count(zero_ring, 7201, 7201) == 1
    # Its pair count never exceeds a budget, so its box points are held to it.
    with pytest.raises(BudgetExceeded) as caught:
        armendariz_pair_count(zero_ring, 7201, 7200)
    assert str(caught.value) == "exhaustive search needs a box of 7201 points, budget is 7200"


def test_armendariz_pair_count_names_a_budget_past_the_digit_limit():
    # A budget of 4,301 digits is printed in full, where str() would raise
    # ValueError under the default int-to-str limit.
    budget = 2 ** 14285
    want = f"exhaustive search needs 2^14286 pairs, budget is {full_decimal(budget)}"
    with pytest.raises(BudgetExceeded) as caught:
        armendariz_pair_count(ring_zn(2), 7143, budget)
    assert str(caught.value) == want


def test_compatibility_check_identity_twists():
    # the identity map is compatible on every ring, reduced (Z/6) or not (Z/4)
    for ctx in (CTX4, CTX6):
        assert s_compatibility_check(ctx).verdict == "yes"


def test_compatibility_check_flags_incompatible_twist():
    klein = ring_product(ring_zn(2), ring_zn(2))
    proj = enumerate_endomorphisms(klein)[0]  # collapses a coordinate
    ctx = SkewContext(klein, NAT, proj)
    assert s_compatibility_check(ctx).verdict == "no"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_the_literal_convolution(data):
    # int boxes reach down to -2, so negative exponents are covered
    ctx, _ = data.draw(skew_boxes(max_candidates=16))
    points = ctx.monoid.box(2)
    f = data.draw(series_over(ctx, points, max_terms=4))
    g = data.draw(series_over(ctx, points, max_terms=4))
    assert f * g == SkewSeries(ctx, literal_product(f, g))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_distributes_over_addition(data):
    # The spanning families of the transfer harnesses rest on this: each
    # twist is additive, so products split over sums on either side.
    ctx, _ = data.draw(skew_boxes(max_candidates=16))
    points = ctx.monoid.box(2)  # int boxes reach down to -2
    f1, f2, g1, g2 = (data.draw(series_over(ctx, points, max_terms=4)) for _ in range(4))

    def literal(f, g):
        return SkewSeries(ctx, literal_product(f, g))

    assert (f1 + f2) * g1 == f1 * g1 + f2 * g1 == literal(f1 + f2, g1)
    assert literal(f1 + f2, g1) == literal(f1, g1) + literal(f2, g1)
    assert f1 * (g1 + g2) == f1 * g1 + f1 * g2 == literal(f1, g1 + g2)
    assert literal(f1, g1 + g2) == literal(f1, g1) + literal(f1, g2)


def test_negative_integer_exponents_multiply_with_the_inverse_twist():
    klein = ring_product(ring_zn(2), ring_zn(2))
    swap = next(e for e in enumerate_endomorphisms(klein) if e.image == (0, 2, 1, 3))
    ctx = SkewContext(klein, OrderedMonoid("int", "natural"), swap)
    f = series_from_pairs(ctx, [(1, -1), (3, 2)])
    g = series_from_pairs(ctx, [(2, 1), (1, -3)])
    assert f * g == SkewSeries(ctx, literal_product(f, g))
    assert (f * g).coeff(0) == klein.mul(1, swap.inverse().image[2])


def test_public_construction_still_validates():
    with pytest.raises(MixedMonoids):
        SkewSeries(CTX4, {(0, 1): 1})
    with pytest.raises(MixedMonoids):
        SkewSeries(CTX4, {(-1,): 1})
    with pytest.raises(MixedMonoids):
        exp_embed(CTX4, (1, 0))
    with pytest.raises(MixedMonoids):
        parse_series_literal(CTX4, "1@0,1")
    with pytest.raises(DuplicateExponent):
        SkewSeries(CTX4, {1: 2, (1,): 3})
    with pytest.raises(ForeignElement):
        SkewSeries(CTX4, {0: 4})
    with pytest.raises(ForeignElement):
        series_from_pairs(CTX4, [(-1, 0)])
    square = series_from_pairs(CTX4, [(1, 1)]) * series_from_pairs(CTX4, [(3, 1)])
    assert square == series_from_pairs(CTX4, [(3, 2)])
    with pytest.raises(MixedMonoids):
        square.coeff((2, 0))


def literal_armendariz(ctx, box):
    """Pairs in (f, g) product order: the first f*g == 0 with a nonzero
    twisted coefficient product f(s)*omega_s(g(t)), as (f, g, s, t)."""
    ring = ctx.ring
    slots = sorted(box)
    vectors = list(itertools.product(range(ring.order), repeat=len(slots)))
    series = [SkewSeries(ctx, dict(zip(slots, vec))) for vec in vectors]
    for fvec, f in zip(vectors, series):
        for gvec, g in zip(vectors, series):
            if literal_product(f, g):
                continue
            for s, a in zip(slots, fvec):
                for t, b in zip(slots, gvec):
                    if ring.mul(a, ctx.omega(s).image[b]) != ring.zero:
                        return f, g, s, t
    return None


@settings(max_examples=40, deadline=None)
@given(skew_boxes(max_candidates=81))
def test_exhaustive_armendariz_matches_a_literal_pair_scan(setup):
    ctx, box = setup
    cert = armendariz_search(ctx, box)
    expected = literal_armendariz(ctx, box)
    if expected is None:
        assert cert.verdict == "unknown-at-bound" and cert.witness is None
    else:
        assert cert.verdict == "no" and cert.witness == expected


@pytest.mark.parametrize("ring_name,slots", [("prod:zn:2,zn:2", 3), ("mat2:z2", 2)])
def test_armendariz_witnesses_match_a_literal_pair_scan(ring_name, slots):
    # boxes big enough to refute these non-Armendariz rings under most twists
    refuted = 0
    for monoid_name in sorted(KERNEL_MONOIDS):
        for ctx in skew_contexts(ring_name, monoid_name):
            box = ctx.monoid.box(1)[:slots]
            cert = armendariz_search(ctx, box)
            expected = literal_armendariz(ctx, box)
            assert cert.witness == expected, (monoid_name, ctx.sigma)
            refuted += expected is not None
    assert refuted >= 7


def unit_orbit_minima(ring, slots, last=None):
    """Nonzero coefficient vectors in product order, up to and including
    last, that are least among their images c*f under the units c of ring."""
    units = [c for c in range(ring.order)
             if any(ring.mul(c, d) == ring.one == ring.mul(d, c) for d in range(ring.order))]
    minima = []
    for fvec in itertools.product(range(ring.order), repeat=len(slots)):
        if any(fvec) and fvec == min(tuple(ring.mul(c, x) for x in fvec) for c in units):
            minima.append(fvec)
        if fvec == last:
            break
    return minima


# Without the orbit skip the scan would decide all 511 nonzero f over Z/8,
# and the 18 nonzero f up to the witness 1@0 + 2@1 over M_2(Z/2).
@pytest.mark.parametrize("ring_name,size,verdict,scanned_count", [
    ("zn:8", 3, "unknown-at-bound", 147),
    ("mat2:z2", 2, "no", 7),
])
def test_armendariz_scan_decides_one_f_per_unit_orbit(
        ring_name, size, verdict, scanned_count, monkeypatch):
    ring = builtin_ring(ring_name)
    ctx = SkewContext(ring, NAT)
    slots = NAT.box(size - 1)
    real = series._armendariz_refutation
    scanned = []

    def spy(ring, slots, fvec, *caches):
        scanned.append(fvec)
        return real(ring, slots, fvec, *caches)

    def no_kernel(*args):
        raise AssertionError("the scan ran the box kernel")

    monkeypatch.setattr(series, "_armendariz_refutation", spy)
    monkeypatch.setattr(series, "_annihilating_vectors", no_kernel)
    cert = armendariz_search(ctx, slots)
    assert cert.verdict == verdict
    last = None
    if verdict == "no":
        terms = dict(cert.witness[0].sort_key)
        last = tuple(terms.get(e, ring.zero) for e in slots)
    assert scanned == unit_orbit_minima(ring, slots, last)
    assert len(scanned) == scanned_count
    # The scope note still states every pair, which the orbits cover.
    assert f"all {(ring.order ** size) ** 2} pairs" in cert.notes


def reference_armendariz_search(ctx, support_box, budget=ARMENDARIZ_BUDGET):
    """The scan as it was before the coset walk, kept as the reference: for
    each unit-orbit minimum f, every g with f*g == 0 from the box kernel."""
    ring = ctx.ring
    slots = normalize_box(ctx.monoid, support_box)
    total = armendariz_pair_count(ring, len(slots), budget)
    n = ring.order
    zero = ring.zero
    twists = {u: series._twist(ctx, u) for u in slots}
    mul_t = ring.mul_table
    scope = (f"exhaustive over all {total} pairs with support in "
             f"[{', '.join(map(series._repr_exp, slots))}]")
    one = ring.one
    unit_rows = [mul_t[c] for c in range(n) if c != one and any(
        mul_t[c][d] == one and mul_t[d][c] == one for d in range(n))]
    for fvec in itertools.product(range(n), repeat=len(slots)):
        if any(tuple(map(row.__getitem__, fvec)) < fvec for row in unit_rows):
            continue
        f = tuple((e, a) for e, a in zip(slots, fvec) if a != zero)
        if not f:
            continue
        for gvec in series._annihilating_vectors(ctx, slots, [f]):
            for u, a in f:
                for v, b in zip(slots, gvec):
                    if mul_t[a][twists[u][b]] != zero:
                        return PropertyCertificate(
                            "no",
                            witness=(SkewSeries._trusted(ctx, f),
                                     series._box_series(ctx, slots, gvec), u, v),
                            notes=f"f*g == 0 but f({series._fmt_exp(u)})*omega(g("
                                  f"{series._fmt_exp(v)})) != 0; {scope}",
                        )
    return PropertyCertificate("unknown-at-bound", notes=scope)


def _full_walk_refutation(ctx, slots, fvec):
    """(g, u, v) from every g of the box kernel with f*g == 0: the first g
    with a nonzero twisted term f(u)*omega_u(g(v)), and its first (u, v)."""
    ring = ctx.ring
    f = [(u, a) for u, a in zip(slots, fvec) if a != ring.zero]
    for gvec in series._annihilating_vectors(ctx, slots, [f]):
        for u, a in f:
            for v, b in zip(slots, gvec):
                if ring.mul(a, ctx.omega(u).image[b]) != ring.zero:
                    return gvec, u, v
    return None


def _certificate(cert):
    f, g, u, v = cert.witness or (None,) * 4
    return cert.verdict, cert.notes, f and format_series(f), g and format_series(g), u, v


def _scan_grid(gf4_eps):
    """(ring, twists, monoid, box sizes) of the coset-walk comparison."""
    rings = [builtin_ring(name) for name in CATALOG_NAMES
             if name == "mat2:z2" or builtin_ring(name).order <= 8]
    eps_to_zero = [s for s in enumerate_endomorphisms(gf4_eps) if s.image[4] == gf4_eps.zero]
    shifted = relabelled(builtin_ring("prod:zn:3,zn:5"), [(x + 10) % 15 for x in range(15)])
    nat, lex, integers = NAT, OrderedMonoid("nat_k", "lex", k=2), OrderedMonoid("int", "natural")
    grid = []
    for ring, twists in ([(r, enumerate_endomorphisms(r)) for r in rings]
                         + [(gf4_eps, eps_to_zero), (shifted, enumerate_endomorphisms(shifted))]):
        small = ring.order <= 8
        for monoid, sizes in ((nat, (2, 3) if small else (2,)), (lex, (2,) if small else ()),
                              (integers, (2,))):
            grid.extend((ring, twists, monoid, size) for size in sizes)
    return grid


def test_coset_walk_decides_every_f_as_the_full_kernel_walk(gf4_eps):
    # For every nonzero f in the box, not only the orbit minima, the walk
    # over least coset representatives names the same (g, u, v) as the first
    # refuting g among all g with f*g == 0, or none when no g refutes.
    # Grid entries with more than 8192 f over all their twists are left to
    # the certificate comparison below; the full walk is slow on them.
    refuting = cases = 0
    for ring, twists, monoid, size in _scan_grid(gf4_eps):
        if ring.order ** len(monoid.box(size - 1)) * len(twists) > 8192:
            continue
        for sigma in twists:
            if monoid.kind == "int" and not sigma.is_bijective:
                continue
            ctx = SkewContext(ring, monoid, sigma)
            slots = normalize_box(monoid, monoid.box(size - 1))
            rows_at = [[series._row(ring, series._twist(ctx, u), a) for a in range(ring.order)]
                       for u in slots]
            layouts, transversals = {}, {}
            for fvec in itertools.product(range(ring.order), repeat=len(slots)):
                if all(a == ring.zero for a in fvec):
                    continue
                got = series._armendariz_refutation(ring, slots, fvec, rows_at, layouts,
                                                    transversals)
                assert got == _full_walk_refutation(ctx, slots, fvec), (ctx, sigma, fvec)
                refuting += got is not None
                cases += 1
    assert (cases, refuting) == (24246, 562)


def test_armendariz_certificates_match_the_full_kernel_scan(gf4_eps):
    # Verdict, notes, witness series and (u, v), against the scan that
    # walked every g with f*g == 0 for each orbit minimum.
    refuted = runs = 0
    for ring, twists, monoid, size in _scan_grid(gf4_eps):
        for sigma in twists:
            if monoid.kind == "int" and not sigma.is_bijective:
                continue
            ctx = SkewContext(ring, monoid, sigma)
            box = monoid.box(size - 1)
            cert = armendariz_search(ctx, box, budget=10**9)
            expected = reference_armendariz_search(ctx, box, budget=10**9)
            assert _certificate(cert) == _certificate(expected), ctx
            refuted += cert.verdict == "no"
            runs += 1
    assert (runs, refuted) == (84, 48)
