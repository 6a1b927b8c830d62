import itertools

import pytest

from skewseries.errors import (
    AxiomViolation,
    EmptySubset,
    NonpositiveExponent,
    SizeCapExceeded,
)
from skewseries.rings import (
    FiniteRing,
    additive_closure,
    annihilator,
    build_ring_from_tables,
    endo_property,
    enumerate_endomorphisms,
    enumerate_ideals,
    ideal_generated,
    idempotent_generator_of,
    idempotents,
    identity_endomorphism,
    is_reduced,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
    subset_power,
)
from skewseries.properties import _oracle_ideals
from skewseries.specfile import CATALOG_NAMES, builtin_ring

Z4 = ring_zn(4)
Z6 = ring_zn(6)


def test_zn_arithmetic_matches_modular():
    for n in (2, 3, 4, 6, 8):
        r = ring_zn(n)
        for a in range(n):
            for b in range(n):
                assert r.add(a, b) == (a + b) % n
                assert r.mul(a, b) == (a * b) % n
        assert r.zero == 0 and r.one == 1


def test_bad_tables_rejected_with_named_axiom():
    # Break commutativity of addition on a 2-element carrier.
    add = [[0, 1], [0, 1]]
    mul = [[0, 0], [0, 1]]
    with pytest.raises(AxiomViolation) as exc:
        build_ring_from_tables(2, add, mul, 0, 1)
    assert exc.value.axiom
    assert exc.value.witness is not None


def test_nonassociative_mul_rejected():
    add = [[0, 1], [1, 0]]
    mul = [[0, 1], [1, 1]]  # 1*1=1 but 0 is not absorbing: 0*1=1
    with pytest.raises(AxiomViolation):
        build_ring_from_tables(2, add, mul, 0, 1)


def test_product_ring_coordinates():
    r = ring_product(ring_zn(2), ring_zn(3))
    assert r.order == 6
    # index of (a, b) is a*3 + b
    assert r.add(1, 3) == r.add(3, 1) == 4
    assert r.one == 1 * 3 + 1


def test_matrix_ring_m2_z2_basics():
    m2 = ring_matrix(ring_zn(2), 2)
    assert m2.order == 16
    assert m2.one == 9  # identity matrix index
    e11, e12, e21, e22 = 1, 2, 4, 8
    assert m2.mul(e11, e12) == e12
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == 0
    assert m2.add(e11, e22) == m2.one


def test_upper_triangular_order():
    ut = ring_upper_triangular(ring_zn(2), 2)
    assert ut.order == 8
    assert sorted(idempotents(ut))[0] == 0


def test_construction_cap():
    with pytest.raises(SizeCapExceeded):
        ring_zn(100)
    # explicit override allows it
    r = ring_zn(100, max_order=128)
    assert r.order == 100


def test_idempotents_frozen_values():
    assert sorted(idempotents(Z4)) == [0, 1]
    assert sorted(idempotents(Z6)) == [0, 1, 3, 4]


def test_annihilator_hand_values():
    assert annihilator(Z4, {2}, "right") == frozenset({0, 2})
    assert annihilator(Z6, {2}, "right") == frozenset({0, 3})
    assert annihilator(Z6, {0}, "right") == frozenset(range(6))


def test_annihilator_rejects_empty():
    with pytest.raises(EmptySubset):
        annihilator(Z4, set(), "right")


def test_annihilator_equals_annihilator_of_span():
    """The annihilator only sees the additive span of the subset."""
    for subset in ({2}, {2, 3}, {1, 4}, {3, 5}):
        span = additive_closure(Z6, subset)
        for side in ("right", "left"):
            assert annihilator(Z6, subset, side) == annihilator(Z6, span, side)


def test_annihilator_is_one_sided_ideal():
    ann = annihilator(Z6, {2}, "right")
    for a in ann:
        for r in range(6):
            assert Z6.mul(a, r) in ann


def test_subset_power_products():
    assert subset_power(Z4, {2}, 2) == frozenset({0})
    assert subset_power(Z4, {2, 3}, 2) == frozenset({0, 1, 2})
    with pytest.raises(NonpositiveExponent):
        subset_power(Z4, {2}, 0)


def test_annihilator_chain_ascends():
    for subset in ({2}, {2, 3}, {1, 2}):
        prev = annihilator(Z4, subset_power(Z4, subset, 1), "right")
        for n in range(2, 6):
            cur = annihilator(Z4, subset_power(Z4, subset, n), "right")
            assert prev <= cur
            prev = cur


def test_ideal_enumeration_counts():
    assert len(enumerate_ideals(Z4, "right")) == 3
    assert len(enumerate_ideals(Z6, "right")) == 4
    # ideals come back sorted by (size, members)
    sizes = [len(i) for i in enumerate_ideals(Z6, "right")]
    assert sizes == sorted(sizes)


def test_ideal_generated_closure():
    ideal = ideal_generated(Z6, {2}, "right")
    assert set(ideal) == {0, 2, 4}
    m2 = ring_matrix(ring_zn(2), 2)
    row = ideal_generated(m2, {1}, "right")  # e11 * M2 is the first row
    assert len(row) == 4


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", CATALOG_NAMES + ("prod:zn:3,zn:5",))
def test_principal_ideal_sums_match_the_brute_filter(name, side):
    ring = builtin_ring(name)
    assert enumerate_ideals(ring, side) == _oracle_ideals(ring, side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_ideal_generated_is_the_smallest_ideal_containing_the_subset(side):
    ring = ring_upper_triangular(ring_zn(2), 2)
    ideals = _oracle_ideals(ring, side)
    for size in (1, 2):
        for subset in itertools.combinations(range(ring.order), size):
            smallest = min((i for i in ideals if i >= set(subset)), key=len)
            assert ideal_generated(ring, subset, side) == smallest


def test_idempotent_generator_lookup():
    assert idempotent_generator_of(Z4, frozenset({0, 2})) is None
    assert idempotent_generator_of(Z6, frozenset({0, 3})) == 3
    assert idempotent_generator_of(Z6, frozenset({0, 2, 4})) == 4


def test_endomorphism_enumeration():
    assert [e.image for e in enumerate_endomorphisms(Z4)] == [(0, 1, 2, 3)]
    klein = ring_product(ring_zn(2), ring_zn(2))
    images = [e.image for e in enumerate_endomorphisms(klein)]
    assert len(images) == 4
    assert (0, 2, 1, 3) in images  # the coordinate swap
    assert images == sorted(images)


def test_endomorphism_validation_and_inverse():
    swap = next(e for e in enumerate_endomorphisms(ring_product(ring_zn(2), ring_zn(2)))
                if e.image == (0, 2, 1, 3))
    assert swap.is_bijective
    assert swap.inverse().image == (0, 2, 1, 3)
    assert swap.compose(swap).is_identity


def test_endo_property_certificates():
    ident = identity_endomorphism(Z6)
    assert endo_property(ident, "compatible").verdict == "yes"
    assert endo_property(ident, "rigid").verdict == "yes"
    # identity on Z4 is compatible but not rigid: 2*2 = 0 with 2 != 0
    ident4 = identity_endomorphism(Z4)
    assert endo_property(ident4, "compatible").verdict == "yes"
    cert = endo_property(ident4, "rigid")
    assert cert.verdict == "no"
    a = cert.witness[0]
    assert Z4.mul(a, a) == 0 and a != 0


def test_reducedness():
    assert is_reduced(Z6).verdict == "yes"
    cert = is_reduced(Z4)
    assert cert.verdict == "no"
    assert cert.witness == (2,)


def test_labels_roundtrip():
    m2 = ring_matrix(ring_zn(2), 2)
    assert m2.element_labels[m2.one] == "[1,0;0,1]"
    assert Z6.label == "Z/6"
