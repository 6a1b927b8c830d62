import pytest

from skewseries.errors import IllegalPairing, MixedMonoids
from skewseries.monoids import (
    OrderVerdict,
    check_order_axioms,
    monoid_make,
    trivial_wrap,
)

NAT = monoid_make("nat_add", "natural")
NAT2 = monoid_make("nat_k_add", "product", k=2)
INT = monoid_make("int_add", "natural")


def test_kind_mode_pairings():
    with pytest.raises(IllegalPairing):
        monoid_make("nat_add", "lex")
    with pytest.raises(IllegalPairing):
        monoid_make("nat_k_add", "natural", k=2)
    with pytest.raises(ValueError):
        monoid_make("nat_k_add", "lex", k=1)


def test_identity_and_generators():
    assert NAT.identity() == (0,)
    assert NAT2.identity() == (0, 0)
    assert NAT.generators() == ((1,),)
    assert NAT2.generators() == ((1, 0), (0, 1))
    assert INT.generators() == ((1,), (-1,))


def test_validate_rejects_foreign_exponents():
    with pytest.raises(MixedMonoids):
        NAT.validate((0, 1))
    with pytest.raises(MixedMonoids):
        NAT.validate((-1,))
    with pytest.raises(MixedMonoids):
        NAT.validate(("a",))
    assert INT.validate((-3,)) == (-3,)


def test_compare_verdicts():
    assert NAT.compare((0,), (2,)) is OrderVerdict.LT
    assert NAT.compare((2,), (2,)) is OrderVerdict.EQ
    assert NAT2.compare((0, 1), (1, 0)) is OrderVerdict.INC
    assert NAT2.compare((0, 1), (1, 1)) is OrderVerdict.LT
    # lex refinement decides the incomparable product pair
    assert NAT2.compare((0, 1), (1, 0), refined=True) is OrderVerdict.LT


def test_trivial_order_is_incomparable_everywhere():
    triv = trivial_wrap(NAT)
    assert triv.order_mode == "trivial"
    assert triv.compare((0,), (5,)) is OrderVerdict.INC
    # but its shipped refinement is total
    assert triv.compare((0,), (5,), refined=True) is OrderVerdict.LT
    assert not triv.positively_ordered


def test_refinement_extends_the_base_order():
    pts = NAT2.box(3)
    for u in pts:
        for v in pts:
            if NAT2.compare(u, v) is OrderVerdict.LT:
                assert NAT2.compare(u, v, refined=True) is OrderVerdict.LT


def test_box_contents():
    assert NAT.box(2) == [(0,), (1,), (2,)]
    assert INT.box(1) == [(-1,), (0,), (1,)]
    assert len(NAT2.box(2)) == 9


def test_order_axioms_pass_on_all_kinds():
    for m in (NAT, NAT2, INT, trivial_wrap(NAT), monoid_make("nat_k_add", "lex", k=2)):
        cert = check_order_axioms(m, bound=4)
        assert cert.verdict == "yes", (m, cert)


def test_order_axiom_checker_catches_a_corrupt_comparator():
    # "less on the first coordinate only" breaks translation compatibility
    # for nat2 lex once ties appear; an always-true lt breaks irreflexivity.
    cert = check_order_axioms(NAT, bound=3, lt=lambda u, v: True)
    assert cert.verdict == "no"
    assert cert.witness[2] == "irreflexivity"
    cert = check_order_axioms(NAT, bound=3, lt=lambda u, v: u[0] <= v[0])
    assert cert.verdict == "no"


def test_monoid_equality_and_hash():
    assert monoid_make("nat", "natural") == NAT
    assert hash(monoid_make("nat", "natural")) == hash(NAT)
    assert NAT != trivial_wrap(NAT)
