import pytest
from hypothesis import given, strategies as st

from skewseries.errors import (
    AxiomViolation,
    BudgetExceeded,
    DuplicateExponent,
    ForeignElement,
    MixedContexts,
    SpecFormatError,
)
from skewseries.monoids import monoid_make
from skewseries.rings import (
    enumerate_endomorphisms,
    ring_matrix,
    ring_product,
    ring_zn,
)
from skewseries.series import (
    SkewContext,
    SkewSeries,
    all_series,
    armendariz_search,
    const_embed,
    exp_embed,
    format_series,
    identity_series,
    is_idempotent_series,
    parse_series_literal,
    s_compatibility_check,
    series_from_pairs,
    zero_series,
)

NAT = monoid_make("nat_add", "natural")
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


def test_foreign_coefficient_rejected():
    with pytest.raises(ForeignElement):
        series_from_pairs(CTX4, [(7, 0)])


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


def test_twist_is_a_monoid_homomorphism():
    klein = ring_product(ring_zn(2), ring_zn(2))
    swap = next(e for e in enumerate_endomorphisms(klein) if e.image == (0, 2, 1, 3))
    ctx = SkewContext(klein, NAT, swap)
    assert ctx.check_twist_homomorphism(6).verdict == "yes"


def test_integer_exponents_need_an_automorphism():
    proj = enumerate_endomorphisms(ring_product(ring_zn(2), ring_zn(2)))[0]
    assert not proj.is_bijective
    with pytest.raises(AxiomViolation) as exc:
        SkewContext(proj.ring, monoid_make("int_add", "natural"), proj)
    assert exc.value.axiom == "twist-automorphism"


def test_integer_exponent_twist_uses_the_inverse():
    klein = ring_product(ring_zn(2), ring_zn(2))
    swap = next(e for e in enumerate_endomorphisms(klein) if e.image == (0, 2, 1, 3))
    ctx = SkewContext(klein, monoid_make("int_add", "natural"), swap)
    assert ctx.omega((-1,)).image == swap.inverse().image
    assert ctx.omega((-2,)).is_identity


def test_identity_series_is_neutral():
    one = identity_series(CTX6)
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
    ctx = SkewContext(Z4, monoid_make("nat_k_add", "product", k=2))
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


def test_armendariz_sampled_mode_is_seed_stable():
    m2 = ring_matrix(ring_zn(2), 2)
    ctx = SkewContext(m2, NAT)
    a = armendariz_search(ctx, [0, 1], mode="sampled", budget=3000, seed=5)
    b = armendariz_search(ctx, [0, 1], mode="sampled", budget=3000, seed=5)
    assert a == b


def test_compatibility_check_identity_twists():
    assert s_compatibility_check(CTX6, "compatible").verdict == "yes"
    assert s_compatibility_check(CTX6, "rigid").verdict == "yes"
    cert = s_compatibility_check(CTX4, "rigid")
    assert cert.verdict == "no"
    # the generator twist is the identity map, which is not rigid on Z/4
    assert cert.witness[0] == (1,)
    assert Z4.mul(cert.witness[1], cert.witness[1]) == 0
    assert cert.witness[1] != 0


def test_compatibility_check_flags_incompatible_twist():
    klein = ring_product(ring_zn(2), ring_zn(2))
    proj = enumerate_endomorphisms(klein)[0]  # collapses a coordinate
    ctx = SkewContext(klein, NAT, proj)
    assert s_compatibility_check(ctx, "compatible").verdict == "no"
