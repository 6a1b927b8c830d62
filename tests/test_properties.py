import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    galois_ring_4_2,
    gf4_dual_numbers,
    gf4_ring,
    product_rings,
    relabelled,
    triangular,
)
from skewseries.errors import SizeCapExceeded
from skewseries.properties import (
    CLASS_NAMES,
    SIDES,
    ClassVerdict,
    InstanceBlocks,
    _decide,
    _mask_members,
    _principal,
    class_profile,
    decide_baer,
    decide_generalized,
    decide_quasi_baer,
    oracle_decide_generalized,
    recheck_class_verdict,
)
from skewseries.rings import (
    DEFAULT_CAPS,
    FiniteRing,
    annihilator,
    idempotents,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
    side_table,
    subset_power,
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
    # The opposite ring's right side is the ring's left side.
    for ring in (Z4, Z6, M2, ring_upper_triangular(ring_zn(2), 2)):
        assert decide_baer(_opposite(ring)).verdict == decide_baer(ring).verdict


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


@settings(max_examples=25, deadline=None)
@given(product_rings(8))
def test_generalized_decider_agrees_with_oracle_on_random_products(ring):
    for cls in ("baer", "quasi_baer"):
        for side in SIDES:
            fast = decide_generalized(ring, cls, side)
            slow = oracle_decide_generalized(ring, cls, side)
            assert fast.verdict == slow.verdict, (ring.label, cls, side)
            assert fast.per_instance == slow.per_instance, (ring.label, cls, side)


def _literal_subset_walk(ring, side, climb):
    """(verdict, per_instance, failing_instance) of the subset decision,
    rebuilding each subset by _mask_members and its annihilator by an AND
    over the bitmask rows of its n-fold product set."""
    table = side_table(ring, side)
    n, full = ring.order, (1 << ring.order) - 1
    singles = [sum(1 << a for a in range(n) if row[a] == ring.zero) for row in table]
    generators = {}
    for e in sorted(idempotents(ring)):
        generators.setdefault(sum(1 << x for x in set(table[e])), e)
    per_instance = []
    for mask in range(1, 1 << n):
        members = _mask_members(mask)
        power, depth, previous = members, 1, None
        while True:
            ann = full
            for x in power:
                ann &= singles[x]
            if ann in generators:
                break
            if not climb or ann == previous:
                return False, (), (members, depth, _mask_members(ann))
            power = {table[p][x] for p in power for x in members}
            depth, previous = depth + 1, ann
        per_instance.append((members, depth, generators[ann]))
    return True, tuple(per_instance), None


# Z/12 is not Baer, and every subset it rejects holds 2, 6 or 10.  Stored at
# indices 8, 9 and 10, they put the first rejected mask, {2} = 1 << 8, past
# the walk's first block of 2^8 masks.
#
# The rings below store their zero at index 8 or above, where a high part
# holding only the zero has the whole ring as annihilator, and every high
# part holding a unit has annihilator {0}.  Z/3 x Z/5 is Baer, its zero at
# index 10.  GF(4)[e] has its units at indices 0 to 7, e at 8 and its zero
# at 9, so {e} = 1 << 8 is rejected first again.
_WALK_RINGS = {
    "zn:12 with 2,6,10 at 8,9,10": lambda: relabelled(
        ring_zn(12), [0, 1, 8, 3, 4, 5, 9, 7, 2, 6, 10, 11]),
    "prod:zn:3,zn:5 with 0 at 10": lambda: relabelled(
        builtin_ring("prod:zn:3,zn:5"), [(x + 10) % 15 for x in range(15)]),
    "GF(4)[e] with e,0 at 8,9": lambda: relabelled(
        gf4_dual_numbers(), [9, 0, 1, 2, 8, 3, 4, 5, 14, 6, 7, 10, 15, 11, 12, 13]),
}

# The order-16 tables rings as built, their zero at index 0.
_TABLE_RINGS = {"GF(4)[e]": gf4_dual_numbers, "GR(4,2)": galois_ring_4_2}

# (ring, deepest accepted depth); a ring accepted at depth 1 alone is Baer.
WALK_CASES = [
    ("mat2:z2", 1),
    ("zn:4", 2),
    ("zn:8", 3),
    ("prod:zn:4,zn:2", 2),
    ("zn:12 with 2,6,10 at 8,9,10", 2),
    ("zn:16", 4),
    ("GF(4)[e]", 2),
    ("GR(4,2)", 2),
    ("prod:zn:3,zn:5 with 0 at 10", 1),
    ("GF(4)[e] with e,0 at 8,9", 2),
]


def _walk_ring(name):
    return (_WALK_RINGS | _TABLE_RINGS).get(name, lambda: builtin_ring(name))()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name,deepest", WALK_CASES)
def test_subset_walk_matches_a_literal_reference(name, deepest, side):
    ring = _walk_ring(name)
    verdict, per_instance, failing = _literal_subset_walk(ring, side, True)
    assert verdict and max(depth for _, depth, _ in per_instance) == deepest
    assert _decide(ring, "baer", side, DEFAULT_CAPS)[:2] == (per_instance, failing)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name,lists,climbing", [
    ("mat2:z2", 4, 0),
    ("zn:16", 17, 16),
    ("prod:zn:4,zn:4", 29, 28),
])
def test_blocks_of_one_high_annihilator_and_length_share_a_generator_list(
        name, lists, climbing, side):
    # A block's generators are read off its high part's annihilator and its
    # low annihilators, so blocks alike in both share one list, but a block
    # where some mask climbs keeps its own.  The literal walk test above
    # checks every triple.
    blocks = _decide(builtin_ring(name), "baer", side, DEFAULT_CAPS)[0].blocks
    holders = {}
    for _, _, es, depths in blocks:
        holders.setdefault(id(es), []).append(depths)
    assert len(holders) == lists
    assert sum(depths is not None for _, _, _, depths in blocks) == climbing
    assert all(depths is None for held in holders.values() if len(held) > 1 for depths in held)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name,deepest", WALK_CASES)
def test_flat_failing_is_the_literal_walk_without_a_climb(name, deepest, side):
    # flat_failing is what the walk without a climb rejects first.
    ring = _walk_ring(name)
    flat_verdict, _, flat = _literal_subset_walk(ring, side, False)
    assert flat_verdict == (deepest == 1)
    if name in _WALK_RINGS and not flat_verdict:
        assert flat[0] == (8,)
    assert _decide(ring, "baer", side, DEFAULT_CAPS)[2] == flat


# Rings whose generalized classes accept some instance only at depth > 1.
_CLIMBING = ("zn:4", "zn:8", "zn:9", "zn:16", "prod:zn:4,zn:2", "prod:zn:4,zn:3")


@st.composite
def _relabelled_rings(draw):
    # A product or climbing ring with its zero moved off index 0.
    ring = draw(st.one_of(product_rings(12), st.sampled_from(_CLIMBING).map(builtin_ring)))
    perm = draw(st.permutations(range(ring.order)).filter(lambda p: p[ring.zero] != 0))
    return relabelled(ring, perm)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.one_of(product_rings(12), _relabelled_rings(),
                 st.sampled_from(_CLIMBING).map(builtin_ring)))
@example(builtin_ring("zn:16"))
@example(_WALK_RINGS["zn:12 with 2,6,10 at 8,9,10"]())
@example(builtin_ring("mat2:z2"))
@example(builtin_ring("prod:zn:3,zn:5"))
def test_certificate_json_text_is_the_encoders_text(ring):
    encode = json.JSONEncoder(separators=(",", ":")).encode
    for cls in ("baer", "quasi_baer"):
        for cv in class_profile(ring, cls).values():
            cert = cv.per_instance
            assert isinstance(cert, InstanceBlocks)
            text = "[" + ",".join(cert.json_parts()) + "]"
            assert text == encode(tuple(cert)), (ring.label, cv.class_name)


def test_block_certificate_is_the_sequence_of_its_triples():
    cv = decide_generalized(M2, "baer", "right")
    cert, triples = cv.per_instance, tuple(cv.per_instance)
    assert cert == triples and triples == cert and hash(cert) == hash(triples)
    assert cv == ClassVerdict(M2, cv.class_name, triples, None)
    assert len(cert) == len(triples) == 65535
    # One idempotent swapped for one generating another ideal, in the block
    # of masks 5*2^8 to 6*2^8 - 1, whose high part is {8, 10}.
    lows, high, es, depths = cert.blocks[5]
    assert high == (8, 10) and depths is None

    def principal(e):
        return frozenset(M2.mul(e, r) for r in range(M2.order))

    other = next(x for x in sorted(idempotents(M2)) if principal(x) != principal(es[3]))
    blocks = list(cert.blocks)
    blocks[5] = (lows, high, [*es[:3], other, *es[4:]], depths)
    tampered = ClassVerdict(M2, cv.class_name, InstanceBlocks(blocks), None)
    assert tampered.per_instance != cert
    assert not recheck_class_verdict(tampered)


def test_order_16_tables_rings_are_generalized_baer_at_depth_two(gf4_eps, gr42):
    # Each is local with a square-zero maximal ideal m: r(m) = m is no eR,
    # but m^2 = {0}.  Every instance outside m holds a unit.
    for ring, m, first in ((gf4_eps, (0, 4, 8, 12), (4,)), (gr42, (0, 2, 8, 10), (2,))):
        for cls in ("baer", "quasi_baer"):
            profile = class_profile(ring, cls)
            assert not profile[cls].verdict
            assert profile[cls].failing_instance[2] == m
            generalized = profile[f"gen_{cls}_right"]
            assert generalized.verdict
            assert {n for _, n, _ in generalized.per_instance} == {1, 2}
        assert profile["quasi_baer"].failing_instance[0] == m
        assert decide_baer(ring).failing_instance[0] == first


def test_oracle_cap_guard():
    with pytest.raises(SizeCapExceeded):
        oracle_decide_generalized(M2, "quasi_baer", "right")  # default cap 8
    cv = oracle_decide_generalized(M2, "quasi_baer", "right", cap=16)
    assert cv.verdict == decide_generalized(M2, "quasi_baer", "right").verdict


def test_recheck_replays_certificates_through_public_ops():
    for ring in (Z4, Z6):
        cv = decide_generalized(ring, "baer", "right")
        assert cv.per_instance and recheck_class_verdict(cv)
    cv = decide_generalized(Z6, "quasi_baer", "left")
    assert cv.per_instance and recheck_class_verdict(cv)
    # The same certificate with one triple's idempotent swapped for another.
    (members, n, e), *rest = cv.per_instance
    other = next(x for x in sorted(idempotents(Z6)) if x != e)
    tampered = ClassVerdict(Z6, cv.class_name, ((members, n, other), *rest), None)
    assert not recheck_class_verdict(tampered)


def _with_triples(cv, triples):
    return ClassVerdict(cv.ring, cv.class_name, tuple(triples), None)


def test_recheck_rejects_a_certificate_that_skips_an_instance():
    # Z/4 is not Baer, so an accepting verdict with no instances claims too much.
    assert not recheck_class_verdict(ClassVerdict(Z4, "baer", (), None))
    subsets = decide_generalized(Z4, "baer", "right")
    ideals = decide_generalized(Z4, "quasi_baer", "right")
    assert [m for m, _, _ in ideals.per_instance] == [(0,), (0, 2), (0, 1, 2, 3)]
    for cv in (subsets, ideals):
        triples = list(cv.per_instance)
        assert recheck_class_verdict(cv)
        assert not recheck_class_verdict(_with_triples(cv, triples[:-1]))
        assert not recheck_class_verdict(_with_triples(cv, triples[:1] + triples))
        assert not recheck_class_verdict(_with_triples(cv, triples[:1] + triples[2:]))
    # r({0, 1}) = {0} = 0R replays, but {0, 1} is no ideal.
    first, *rest = ideals.per_instance
    assert not recheck_class_verdict(_with_triples(ideals, [first, ((0, 1), 1, 0), *rest]))


def test_recheck_rejects_members_outside_the_ring():
    ideals = decide_generalized(Z4, "quasi_baer", "right")
    assert recheck_class_verdict(ideals)
    triples = [*ideals.per_instance, ((0, 1, 2, 3, 9), 1, 0)]
    assert not recheck_class_verdict(_with_triples(ideals, triples))
    subsets = decide_generalized(Z4, "baer", "right")
    (members, n, _), *rest = subsets.per_instance
    assert not recheck_class_verdict(_with_triples(subsets, [(members, n, 7), *rest]))


def test_recheck_counts_the_subsets_before_it_lists_them():
    # The one triple is right for {0} on Z/30, but 2^30 - 1 subsets are
    # due; the count refuses at once, before any member tuple is built.
    cv = ClassVerdict(ring_zn(30), "gen_baer_right", (((0,), 1, 1),), None)
    assert cv.verdict and cv.instance_kind == "subset"
    start = time.perf_counter()
    assert not recheck_class_verdict(cv)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("cls", ["baer", "quasi_baer"])
def test_recheck_refuses_an_empty_member_tuple(cls):
    # ((), 1, 0) is no triple: the recheck says False before an ideal of the
    # empty set is asked for (which raises EmptySubset).
    cv = decide_generalized(Z4, cls, "right")
    assert recheck_class_verdict(cv)
    assert not recheck_class_verdict(_with_triples(cv, [((), 1, 0), *cv.per_instance]))


MALFORMED_TRIPLES = [
    ("depth 0", lambda m, n, e: (m, 0, e)),
    ("depth -1", lambda m, n, e: (m, -1, e)),
    ("depth 1.5", lambda m, n, e: (m, 1.5, e)),
    ("depth '1'", lambda m, n, e: (m, "1", e)),
    ("depth True", lambda m, n, e: (m, True, e)),
    ("two entries", lambda m, n, e: (m, n)),
    ("four entries", lambda m, n, e: (m, n, e, e)),
    ("list members", lambda m, n, e: (list(m), n, e)),
    ("no members", lambda m, n, e: ((), n, e)),
    ("list triple", lambda m, n, e: [m, n, e]),
]


@pytest.mark.parametrize("tamper", [t for _, t in MALFORMED_TRIPLES],
                         ids=[name for name, _ in MALFORMED_TRIPLES])
@pytest.mark.parametrize("cls", ["baer", "quasi_baer"])
def test_recheck_refuses_a_malformed_first_triple(cls, tamper):
    # Each used to raise (NonpositiveExponent, TypeError, ValueError on
    # unpacking), except depth True, which equals 1 and rechecked True.
    cv = decide_generalized(Z4, cls, "right")
    assert recheck_class_verdict(cv)
    first, *rest = cv.per_instance
    assert not recheck_class_verdict(_with_triples(cv, [tamper(*first), *rest]))


def test_an_unknown_side_or_class_is_refused():
    # The certificate is right for gen_baer_right, but "bogus" names no class.
    cv = decide_generalized(Z4, "baer", "right")
    assert recheck_class_verdict(cv)
    assert not recheck_class_verdict(ClassVerdict(Z4, "bogus", cv.per_instance, None))
    with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'both'"):
        class_profile(Z4, "baer", "both")
    with pytest.raises(ValueError, match="cls must be 'baer' or 'quasi_baer', got 'bear'"):
        class_profile(Z4, "bear")
    # Without a side, both sides and the ordinary class; with one, that side.
    assert set(class_profile(Z4, "baer")) == {"baer", "gen_baer_right", "gen_baer_left"}
    assert set(class_profile(M2, "quasi_baer", "left")) == {"gen_quasi_baer_left"}


def test_recheck_holds_each_triple_to_what_the_walk_states():
    # Each tampered certificate rechecked True, raised or stalled while the
    # recheck took any depth n and any idempotent e with r(X^n) = eR.
    subsets = decide_generalized(Z4, "baer", "right")
    ideals = decide_generalized(Z4, "quasi_baer", "right")
    assert recheck_class_verdict(subsets) and recheck_class_verdict(ideals)
    first, *rest = subsets.per_instance
    assert first == ((0,), 1, 1)
    # A depth past log2|R| + 1 is refused before any product set is built.
    start = time.perf_counter()
    assert not recheck_class_verdict(_with_triples(subsets, [((0,), 10**9, 1), *rest]))
    assert time.perf_counter() - start < 0.5
    # r({0}) = R = 1R already at depth 1, so depth 2 is not the first.
    assert not recheck_class_verdict(_with_triples(subsets, [((0,), 2, 1), *rest]))
    # 8R = 12R on mat2:z2, and the walk names the smaller generator.
    cv = decide_generalized(M2, "baer", "right")
    triples = list(cv.per_instance)
    assert triples[1] == ((1,), 1, 8) and _principal(M2, 8, "right") == _principal(M2, 12, "right")
    assert not recheck_class_verdict(_with_triples(cv, [triples[0], ((1,), 1, 12), *triples[2:]]))
    # The class name is checked before the side is read off it.
    assert not recheck_class_verdict(ClassVerdict(Z4, None, (), None))
    assert not recheck_class_verdict(ClassVerdict(Z4, 5, subsets.per_instance, None))
    # Without {0} the other ideals still close up, but the list misses one.
    ideal_triples = tuple(ideals.per_instance)
    assert ideal_triples[0] == ((0,), 1, 1)
    assert not recheck_class_verdict(_with_triples(ideals, ideal_triples[1:]))


T = triangular(2, 2, 4)


def test_a_triangular_ring_rejects_on_the_right_after_a_climb():
    # T = [[Z/2, Z/2], [0, Z/4]]: X = {(1,0,0), (0,1,0)} and the right ideal
    # {(a,b,0)} climb to depth 2, where r(X^2) = r(X) = {0, (0,0,2)} is no eR.
    assert T.order == 16 and T.one == 5
    for cls, members in (("baer", (1, 2)), ("quasi_baer", (0, 1, 2, 3))):
        right = decide_generalized(T, cls, "right")
        assert not right.verdict and right.per_instance == ()
        assert right.failing_instance == (members, 2, (0, 8))
    assert len(decide_generalized(T, "baer", "left").per_instance) == 65535
    left = decide_generalized(T, "quasi_baer", "left")
    assert len(left.per_instance) == 12 and recheck_class_verdict(left)
    assert not decide_baer(T).verdict and not decide_quasi_baer(T).verdict


@pytest.mark.parametrize("side", SIDES)
def test_a_triangular_ring_agrees_with_the_oracle_on_ideals(side):
    fast = decide_generalized(T, "quasi_baer", side)
    slow = oracle_decide_generalized(T, "quasi_baer", side, cap=16)
    assert (fast.verdict, fast.per_instance) == (slow.verdict, slow.per_instance)
    assert fast.failing_instance == slow.failing_instance


@pytest.mark.parametrize("opposite,side", [(False, "right"), (True, "left")])
def test_triangular_rejections_are_the_oracles_whole(opposite, side):
    # The rejecting side of T and of its opposite, for both classes: the
    # failing instance, its depth (the plateau, 2) and its stable
    # annihilator all agree.
    ring = _opposite(T) if opposite else T
    for cls, members in (("baer", (1, 2)), ("quasi_baer", (0, 1, 2, 3))):
        fast = decide_generalized(ring, cls, side)
        slow = oracle_decide_generalized(ring, cls, side, cap=16)
        assert (fast.verdict, fast.per_instance) == (slow.verdict, slow.per_instance) == (
            False, ())
        assert fast.failing_instance == slow.failing_instance == (members, 2, (0, 8))


KINDS = {"baer": "subset", "gen_baer_right": "subset", "gen_baer_left": "subset",
         "quasi_baer": "right_ideal", "gen_quasi_baer_right": "right_ideal",
         "gen_quasi_baer_left": "left_ideal"}


@pytest.mark.parametrize("name", ["zn:4", "zn:8", "ut2:z2"])
def test_verdict_and_instance_kind_are_read_off_the_fields(name):
    ring = builtin_ring(name)
    verdicts = [cv for cls in ("baer", "quasi_baer")
                for cv in class_profile(ring, cls).values()]
    verdicts += [oracle_decide_generalized(ring, cls, side)
                 for cls in ("baer", "quasi_baer") for side in SIDES]
    assert sorted({cv.class_name for cv in verdicts}) == sorted(CLASS_NAMES)
    for cv in verdicts:
        assert cv.instance_kind == KINDS[cv.class_name]
        assert cv.side == ("left" if cv.class_name.endswith("_left") else "right")
        assert cv.verdict == (cv.failing_instance is None)
        assert cv.verdict == bool(cv.per_instance)


def _additive_spans(ring):
    # span[mask] is the bitmask of the additive subgroup the subset generates,
    # built by adding the cyclic subgroup of each mask's highest element.
    multiples = []
    for x in range(ring.order):
        cyclic, y = {ring.zero}, x
        while y not in cyclic:
            cyclic.add(y)
            y = ring.add(y, x)
        multiples.append(cyclic)
    span, joins = [1 << ring.zero], {}
    for mask in range(1, 1 << ring.order):
        x = mask.bit_length() - 1
        key = span[mask ^ (1 << x)], x
        if key not in joins:
            joins[key] = sum({1 << ring.add(a, b) for a in _mask_members(key[0])
                              for b in multiples[x]})
        span.append(joins[key])
    return span


_SPAN_TABLE_RINGS = {**_TABLE_RINGS, "Z/4xGF(4)": lambda: ring_product(ring_zn(4), gf4_ring())}


@pytest.mark.parametrize("name", [
    "zn:4", "zn:6", "zn:8", "zn:9", "zn:12", "zn:16", "prod:zn:2,zn:2", "prod:zn:2,zn:4",
    "prod:zn:4,zn:4", "prod:zn:3,zn:5", "ut2:z2", "mat2:z2", *_SPAN_TABLE_RINGS])
def test_subset_chains_are_the_chains_of_their_additive_spans(name):
    # r(X^n) = r(span(X)^n): annihilators are additive and products
    # distribute over sums.  So a subset's (n, e) is its span's, and the
    # span's (n, e) replays through the public operations.
    ring = _SPAN_TABLE_RINGS.get(name, lambda: builtin_ring(name))()
    span = _additive_spans(ring)
    profile = class_profile(ring, "baer")
    for side in SIDES:
        cv = profile[f"gen_baer_{side}"]
        assert cv.verdict and len(cv.per_instance) == 2 ** ring.order - 1
        found = {sum(1 << x for x in members): (n, e) for members, n, e in cv.per_instance}
        assert all(found[mask] == found[span[mask]] for mask in found), (name, side)
        generated = {_principal(ring, e, side) for e in idempotents(ring)}
        for mask in set(span[1:]):
            members = _mask_members(mask)
            n, e = found[mask]
            power = subset_power(ring, members, n)
            assert annihilator(ring, power, side) == _principal(ring, e, side)
            if n > 1:
                shallower = subset_power(ring, members, n - 1)
                assert annihilator(ring, shallower, side) not in generated, (name, side, members)


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


@pytest.mark.parametrize("name", ["zn:2", "zn:4", "zn:6", "zn:8", "prod:zn:2,zn:2"])
def test_left_verdicts_from_the_one_walk_of_a_commutative_ring(name):
    # Both sides come from one walk here; the left answers must still be the
    # oracle's, replay through the public operations and name left ideals.
    ring = builtin_ring(name)
    for cls in ("baer", "quasi_baer"):
        left = class_profile(ring, cls)[f"gen_{cls}_left"]
        slow = oracle_decide_generalized(ring, cls, "left")
        assert (left.verdict, left.per_instance) == (slow.verdict, slow.per_instance)
        assert left.instance_kind == slow.instance_kind
        assert recheck_class_verdict(left)
        assert left == decide_generalized(ring, cls, "left")
