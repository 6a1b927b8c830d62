import pytest

from skewseries.errors import SizeCapExceeded
from skewseries.properties import (
    CLASS_NAMES,
    decide_baer,
    decide_generalized,
    decide_quasi_baer,
    oracle_decide_generalized,
    recheck_class_verdict,
)
from skewseries.rings import (
    FiniteRing,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
)
from skewseries.specfile import CATALOG_NAMES, builtin_ring

Z4 = ring_zn(4)
Z6 = ring_zn(6)
M2 = ring_matrix(ring_zn(2), 2)


def test_class_name_registry():
    assert len(CLASS_NAMES) == 6
    assert "gen_quasi_baer_left" in CLASS_NAMES


def test_z4_is_not_baer_with_witness_two():
    cv = decide_baer(Z4)
    assert not cv.verdict
    members, n_reached, stable = cv.failing_instance
    assert members == (2,)
    assert stable == (0, 2)


def test_z6_and_fields_are_baer():
    assert decide_baer(Z6).verdict
    for n in (2, 3, 5, 7):
        assert decide_baer(ring_zn(n)).verdict


def test_baer_is_side_symmetric():
    for ring in (Z4, Z6, M2, ring_upper_triangular(ring_zn(2), 2)):
        assert decide_baer(ring, "left").verdict == decide_baer(ring, "right").verdict


def test_z4_is_generalized_right_baer_at_depth_two():
    cv = decide_generalized(Z4, "baer", "right")
    assert cv.verdict
    triples = {m: (n, e) for m, n, e in cv.per_instance}
    assert triples[(2,)] == (2, 1)  # {2}^2 = {0}, annihilated by everything
    assert triples[(1,)] == (1, 0)


def test_z4_is_not_quasi_baer_but_is_generalized():
    assert not decide_quasi_baer(Z4).verdict
    assert decide_generalized(Z4, "quasi_baer", "right").verdict


def test_matrix_ring_is_baer_and_quasi_baer():
    assert decide_baer(M2).verdict
    assert decide_quasi_baer(M2).verdict


def test_upper_triangular_over_field_is_baer():
    # r(e12) = e11*R, r(e11+e12) = (e12+e22)*R, and so on for every subset
    ut = ring_upper_triangular(ring_zn(2), 2)
    assert decide_baer(ut).verdict
    assert decide_quasi_baer(ut).verdict


def test_generalized_decider_agrees_with_oracle_small_rings():
    """The fast bitmask route and the definition-literal route must agree
    verdict-for-verdict and instance-for-instance."""
    rings = [ring_zn(n) for n in (2, 3, 4, 6)] + [ring_product(ring_zn(2), ring_zn(2))]
    for ring in rings:
        for cls in ("baer", "quasi_baer"):
            for side in ("right", "left"):
                fast = decide_generalized(ring, cls, side)
                slow = oracle_decide_generalized(ring, cls, side)
                assert fast.verdict == slow.verdict, (ring.label, cls, side)
                assert fast.per_instance == slow.per_instance, (ring.label, cls, side)


def test_oracle_cap_guard():
    with pytest.raises(SizeCapExceeded):
        oracle_decide_generalized(M2, "quasi_baer", "right")  # default cap 8
    cv = oracle_decide_generalized(M2, "quasi_baer", "right", cap=16)
    assert cv.verdict == decide_generalized(M2, "quasi_baer", "right").verdict


def test_recheck_replays_certificates_through_public_ops():
    for ring in (Z4, Z6):
        cv = decide_generalized(ring, "baer", "right")
        recheck_class_verdict(ring, cv)
    cv = decide_generalized(Z6, "quasi_baer", "left")
    recheck_class_verdict(Z6, cv)


def test_failing_instance_chain_really_stabilizes():
    cv = decide_baer(Z4)
    members, n_reached, stable = cv.failing_instance
    from skewseries.rings import annihilator, idempotents, subset_power
    ann = annihilator(Z4, subset_power(Z4, set(members), n_reached), "right")
    assert ann == frozenset(stable)
    for e in idempotents(Z4):
        assert frozenset(Z4.mul(e, r) for r in range(4)) != ann


def test_left_and_right_generalized_classes_both_run():
    for cls in ("baer", "quasi_baer"):
        left = decide_generalized(Z6, cls, "left")
        right = decide_generalized(Z6, cls, "right")
        assert left.verdict and right.verdict
    # subsets are side-free; the quasi instances name their ideal side
    assert decide_generalized(Z6, "baer", "left").instance_kind == "subset"
    assert decide_generalized(Z6, "quasi_baer", "left").instance_kind == "left_ideal"
    assert decide_generalized(Z6, "quasi_baer", "right").instance_kind == "right_ideal"


def _opposite(ring):
    # the opposite ring, built from transposed tables rather than the
    # fast route's own side switch
    n = ring.order
    mul = [[ring.mul(b, a) for b in range(n)] for a in range(n)]
    return FiniteRing(n, ring.add_table, mul, ring.zero, ring.one, label=f"{ring.label}^op")


@pytest.mark.parametrize("cls", ["baer", "quasi_baer"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_left_side_is_the_right_side_of_the_opposite_ring(name, cls):
    ring = builtin_ring(name)
    left = decide_generalized(ring, cls, "left")
    right_op = decide_generalized(_opposite(ring), cls, "right")
    assert left.verdict == right_op.verdict
    assert left.per_instance == right_op.per_instance
    assert left.failing_instance == right_op.failing_instance
