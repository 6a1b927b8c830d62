import operator

import pytest
from hypothesis import given, settings, strategies as st

from conftest import literal_order_check, literal_refinement_check
from skewseries import monoids
from skewseries.errors import IllegalPairing, MixedMonoids
from skewseries.monoids import (
    _MODES,
    OrderedMonoid,
    check_order_axioms,
    check_refinement,
)

NAT = OrderedMonoid("nat", "natural")
NAT2 = OrderedMonoid("nat_k", "product", k=2)
INT = OrderedMonoid("int", "natural")


def trivial_wrap(base):
    """The same monoid with its order discarded (trivial order mode)."""
    return OrderedMonoid(base.kind, "trivial", k=base.k)


def test_kind_mode_pairings():
    with pytest.raises(IllegalPairing):
        OrderedMonoid("nat", "lex")
    with pytest.raises(IllegalPairing):
        OrderedMonoid("nat_k", "natural", k=2)
    with pytest.raises(ValueError):
        OrderedMonoid("nat_k", "lex", k=1)


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


def test_less_is_the_strict_order():
    assert NAT.less((0,), (2,))
    assert not NAT.less((2,), (0,))
    assert not NAT.less((2,), (2,))
    # an incomparable product pair is less in neither direction
    assert not NAT2.less((0, 1), (1, 0))
    assert not NAT2.less((1, 0), (0, 1))
    assert NAT2.less((0, 1), (1, 1))
    # lex refinement decides the incomparable product pair
    assert NAT2.less((0, 1), (1, 0), refined=True)
    assert not NAT2.less((1, 0), (0, 1), refined=True)


def test_trivial_order_is_incomparable_everywhere():
    triv = trivial_wrap(NAT)
    assert triv.order_mode == "trivial"
    assert not triv.less((0,), (5,))
    assert not triv.less((5,), (0,))
    # but its shipped refinement is total
    assert triv.less((0,), (5,), refined=True)


def test_refinement_extends_the_base_order():
    pts = NAT2.box(3)
    for u in pts:
        for v in pts:
            if NAT2.less(u, v):
                assert NAT2.less(u, v, refined=True)


def test_box_contents():
    assert NAT.box(2) == [(0,), (1,), (2,)]
    assert INT.box(1) == [(-1,), (0,), (1,)]
    assert len(NAT2.box(2)) == 9


@pytest.mark.parametrize("monoid", [NAT, NAT2, INT, OrderedMonoid("nat_k", "lex", k=3)],
                         ids=repr)
def test_box_size_counts_the_box_without_building_it(monoid):
    for bound in range(5):
        box = monoid.box(bound)
        assert monoid.box_size(bound) == len(box)
        assert box == sorted(box)
    with pytest.raises(ValueError):
        monoid.box_size(-1)


def test_order_axioms_pass_on_all_kinds():
    for m in (NAT, NAT2, INT, trivial_wrap(NAT), OrderedMonoid("nat_k", "lex", k=2)):
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
    assert OrderedMonoid("nat", "natural") == NAT
    assert hash(OrderedMonoid("nat", "natural")) == hash(NAT)
    assert NAT != trivial_wrap(NAT)


def test_refinement_certificates():
    for monoid in (NAT, NAT2, INT, trivial_wrap(NAT), trivial_wrap(NAT2), trivial_wrap(INT),
                   OrderedMonoid("nat_k", "lex", k=3)):
        cert = check_refinement(monoid, 2)
        assert cert.verdict == "yes", monoid
        assert f"refines to {monoid.refined_mode!r}" in cert.notes
    broken = OrderedMonoid("nat_k", "product", k=2)
    broken.refined_mode = "trivial"  # vacuously strict and compatible, but not total
    assert check_refinement(broken, 1).witness == ((0, 0), (0, 1), "totality")


@pytest.mark.parametrize("lt,witness", [
    # Not strict: the order axioms' own certificate is returned as it is.
    (lambda u, v: True, ((0, 0), (0, 0), "irreflexivity")),
    # Reverse lex is a strict compatible total order that misses (0,0) < (0,1).
    (operator.gt, ((0, 0), (0, 1), "extension")),
])
def test_refinement_check_names_a_corrupt_refinement(monkeypatch, lt, witness):
    monkeypatch.setitem(monoids._STRICT, "lex", lt)
    cert = check_refinement(NAT2, 1)
    assert (cert.verdict, cert.witness) == ("no", witness)


ORDER_MONOIDS = (NAT, INT, OrderedMonoid("nat_k", "lex", k=2), NAT2)


@st.composite
def comparators(draw):
    """(monoid, bound, lt): lt a random relation, or a refined or declared
    order with a few pairs flipped, on the points that translates reach."""
    monoid = draw(st.sampled_from(ORDER_MONOIDS))
    bound = draw(st.integers(0, 2))
    reach = monoid.box(2 * bound)
    pairs = st.tuples(st.sampled_from(reach), st.sampled_from(reach))
    if draw(st.booleans()):
        related = draw(st.frozensets(pairs, max_size=3 * len(reach)))
        return monoid, bound, lambda u, v: (u, v) in related
    refined = draw(st.booleans())
    flips = draw(st.frozensets(pairs, max_size=3))
    return monoid, bound, lambda u, v: monoid.less(u, v, refined) != ((u, v) in flips)


@settings(max_examples=300, deadline=None)
@given(comparators())
def test_order_check_matches_the_literal_scan(case):
    monoid, bound, lt = case
    assert check_order_axioms(monoid, bound, lt) == literal_order_check(monoid, bound, lt)


def _every_mode():
    """(monoid, largest bound): nat, int, nat2 and nat3 in each of their
    modes, and nat2:product posing the trivial order as its refinement."""
    cases = [(OrderedMonoid(kind, mode, k=k), top)
             for kind, k, top in (("nat", 1, 3), ("int", 1, 3), ("nat_k", 2, 3), ("nat_k", 3, 2))
             for mode in _MODES[kind]]
    broken = OrderedMonoid("nat_k", "product", k=2)
    broken.refined_mode = "trivial"
    return cases + [(broken, 3)]


@pytest.mark.parametrize("monoid,top", _every_mode(), ids=repr)
def test_order_checks_match_the_literal_scans(monoid, top):
    for bound in range(top + 1):
        assert check_order_axioms(monoid, bound) == literal_order_check(monoid, bound, monoid.less)
        assert check_refinement(monoid, bound) == literal_refinement_check(monoid, bound)


def test_default_order_checks_do_not_validate_box_points(monkeypatch):
    # Box points and their sums are valid exponents by construction.
    calls = []
    real = OrderedMonoid.validate

    def spy(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(OrderedMonoid, "validate", spy)
    assert check_refinement(NAT2, 2).verdict == "yes"
    assert check_order_axioms(NAT2, 2).verdict == "yes"
    assert calls == []
    # less still validates what it is given.
    assert NAT2.less((0, 1), (1, 1))
    assert calls == [(0, 1), (1, 1)]
