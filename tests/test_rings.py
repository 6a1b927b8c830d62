import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    additive_closure,
    gf4_ring,
    literal_axiom_violation,
    literal_endomorphism,
    literal_matrix_tables,
    product_rings,
    quadratic_ring,
    triangular,
)
from skewseries.errors import (
    AxiomViolation,
    EmptySubset,
    InvariantViolation,
    NonpositiveExponent,
    SizeCapExceeded,
)
from skewseries.rings import (
    DEFAULT_CAPS,
    Caps,
    _matrix_like,
    FiniteRing,
    RingEndomorphism,
    additive_generators,
    annihilator,
    build_ring_from_tables,
    endo_property,
    enumerate_endomorphisms,
    enumerate_ideals,
    ideal_generated,
    idempotents,
    identity_endomorphism,
    is_reduced,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
    side_table,
    subset_power,
)
from skewseries.properties import _oracle_ideals, decide_generalized, oracle_decide_generalized
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


XOR = [[0, 1], [1, 0]]
AND = [[0, 0], [0, 1]]


@pytest.mark.parametrize("mul,zero,one", [
    ([[0, 0], [0, True]], 0, 1),
    (AND, False, 1),
    (AND, 0, True),
])
def test_bool_ring_elements_rejected(mul, zero, one):
    # True == 1 and hashes like it, but it is no element index.
    with pytest.raises(ValueError, match="True|False"):
        FiniteRing(2, XOR, mul, zero, one)
    with pytest.raises(ValueError, match="True"):
        annihilator(FiniteRing(2, XOR, AND, 0, 1), {True}, "right")


@pytest.mark.parametrize("order,zero,one,field", [
    (2, 0.0, 1, "zero"),
    (2, 0, 1.0, "one"),
    (2, "0", 1, "zero"),
    (2.0, 0, 1, "order"),
    (True, 0, 0, "order"),
])
def test_non_int_order_and_indices_rejected(order, zero, one, field):
    # A float index used to reach the axiom scan and fail there with a
    # TypeError; True used to pass as the order 1.
    add, mul = (XOR, AND) if order == 2 else ([[0]], [[0]])
    with pytest.raises(ValueError, match=f"^{field} "):
        FiniteRing(order, add, mul, zero, one)


@pytest.mark.parametrize("bad", [-1, 2, 1.0, True, "1", None], ids=repr)
def test_a_bad_table_entry_is_named(bad):
    # A row fails its whole-row test, then names its first bad entry; the
    # rows before it pass, so that is the first bad entry of the table.
    with pytest.raises(ValueError, match=rf"^mul table entry {bad!r} out of range$"):
        FiniteRing(2, XOR, [[0, 0], [bad, 5]], 0, 1)


def test_table_entries_of_an_int_subclass_are_indices():
    # Such a row fails the plain-int test, and passes entry by entry.
    class Index(int):
        pass

    ring = FiniteRing(2, XOR, [[Index(0), 0], [0, Index(1)]], 0, 1)
    assert ring.mul_table == ((0, 0), (0, 1))


def test_non_int_endomorphism_image_rejected():
    with pytest.raises(ValueError, match="one ring element per element"):
        RingEndomorphism(ring_zn(2), (0, 1.0))


# ---------------------------------------------------------------------------
# the reduced axiom proof against the literal scan

PROOF_RINGS = CATALOG_NAMES + ("ut3:z2", "ut2:z4", "ut2:z3", "prod:zn:3,zn:5")


def _axiom_outcome(order, add, mul, zero, one):
    """What building a FiniteRing from the tables raises: (axiom, witness)."""
    try:
        FiniteRing(order, add, mul, zero, one)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _corrupted(ring, table, a, b, value, symmetric=False):
    add = [list(row) for row in ring.add_table]
    mul = [list(row) for row in ring.mul_table]
    cells = add if table == "add" else mul
    cells[a][b] = value
    if symmetric:
        cells[b][a] = value
    return ring.order, add, mul, ring.zero, ring.one


@pytest.mark.parametrize("name", PROOF_RINGS)
def test_proof_accepts_the_builtin_rings(name):
    ring = builtin_ring(name)
    assert ring._proven_ring()
    assert literal_axiom_violation(ring.order, ring.add_table, ring.mul_table,
                                   ring.zero, ring.one) is None


@settings(max_examples=15, deadline=None)
@given(product_rings(64))
def test_proof_accepts_random_products(ring):
    assert ring._proven_ring(), ring.label


AXIOMS = {
    "additive-identity", "additive-inverse", "multiplicative-identity",
    "additive-commutativity", "additive-associativity", "multiplicative-associativity",
    "left-distributivity", "right-distributivity",
}


def test_every_one_cell_corruption_gets_the_literal_witness():
    # Between them these corruptions fail at every axiom; a changed diagonal
    # cell of + keeps + commutative, so associativity can be what fails.
    seen = set()
    for name in ("zn:4", "zn:6", "prod:zn:2,zn:2", "ut2:z2"):
        ring = builtin_ring(name)
        n = ring.order
        for table, a, b, value in itertools.product(("add", "mul"), range(n), range(n), range(n)):
            if (ring.add_table if table == "add" else ring.mul_table)[a][b] == value:
                continue
            tables = _corrupted(ring, table, a, b, value)
            expected = literal_axiom_violation(*tables)
            assert _axiom_outcome(*tables) == expected, (name, table, a, b, value)
            seen.add(expected and expected[0])
    assert seen == AXIOMS


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_cells_of_larger_rings_get_the_literal_witness(data):
    ring = builtin_ring(data.draw(st.sampled_from(["mat2:z2", "prod:zn:3,zn:5", "zn:8"])))
    n = ring.order
    table = data.draw(st.sampled_from(["add", "mul"]))
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    value = data.draw(st.integers(0, n - 1))
    # A symmetric pair of + cells keeps + commutative, so associativity and
    # distributivity against the changed sums are what fail.
    symmetric = table == "add" and data.draw(st.booleans())
    tables = _corrupted(ring, table, a, b, value, symmetric)
    assert _axiom_outcome(*tables) == literal_axiom_violation(*tables)


def _left_near_ring():
    """Klein group tables (0, e = 1, u = 2, e + u = 3) whose product is
    that of F2 x F2 with e = (1,1), u = (1,0), except that 0*u = 0*(e+u) = u.
    Every row is additive, so a(b + c) = ab + ac, but (0 + 0)u != 0u + 0u."""
    add = [[a ^ b for b in range(4)] for a in range(4)]
    mul = [[0, 0, 2, 2], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]]
    return add, mul


def test_one_sided_distributivity_is_not_enough():
    add, mul = _left_near_ring()
    expected = literal_axiom_violation(4, add, mul, 0, 1)
    assert expected[0] == "right-distributivity"
    assert _axiom_outcome(4, add, mul, 0, 1) == expected
    opposite = [list(col) for col in zip(*mul)]
    expected = literal_axiom_violation(4, add, opposite, 0, 1)
    assert expected[0] == "left-distributivity"
    assert _axiom_outcome(4, add, opposite, 0, 1) == expected


def test_associativity_on_the_generators_is_checked():
    # F2-span of 1, x, y (index a + 2b + 4c for a + bx + cy) with xy = 1 and
    # every other product of x, y zero: bilinear and unital, so every other
    # axiom holds, but (xy)x = x while x(yx) = 0.
    def coords(u):
        return u & 1, u >> 1 & 1, u >> 2 & 1

    def times(u, v):
        a1, b1, c1 = coords(u)
        a2, b2, c2 = coords(v)
        return ((a1 * a2 + b1 * c2) % 2 + 2 * ((a1 * b2 + b1 * a2) % 2)
                + 4 * ((a1 * c2 + c1 * a2) % 2))

    add = [[u ^ v for v in range(8)] for u in range(8)]
    mul = [[times(u, v) for v in range(8)] for u in range(8)]
    expected = literal_axiom_violation(8, add, mul, 0, 1)
    assert expected[0] == "multiplicative-associativity"
    assert _axiom_outcome(8, add, mul, 0, 1) == expected


# A commutative + with identity 0 and 0 in every row that is not
# associative (1 + 3 = 0 but 1 + (1 + 2) = 1 + 3 = 0 != 2 = (1 + 1) + 2),
# with a product that is distributive against the generators 1 and 2 and
# associative on them.  Light's test on 2 alone passes, so it must run on
# every generator.  The swap of 1 and 2 makes 1 the one that passes.
NONASSOCIATIVE_ADD = [[0, 1, 2, 3], [1, 0, 3, 0], [2, 3, 0, 1], [3, 0, 1, 0]]
DISTRIBUTIVE_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (0, 2, 1, 3)])
def test_light_test_runs_on_every_generator(perm):
    def renamed(table):
        out = [[0] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                out[perm[a]][perm[b]] = perm[table[a][b]]
        return out

    tables = 4, renamed(NONASSOCIATIVE_ADD), renamed(DISTRIBUTIVE_MUL), 0, perm[1]
    expected = literal_axiom_violation(*tables)
    assert expected[0] == "additive-associativity"
    assert _axiom_outcome(*tables) == expected


def _permuted(ring, perm):
    """The same ring with element x renamed perm[x], so zero may be nonzero."""
    inv = [0] * ring.order
    for x, y in enumerate(perm):
        inv[y] = x
    add = [[perm[ring.add(inv[a], inv[b])] for b in range(ring.order)] for a in range(ring.order)]
    mul = [[perm[ring.mul(inv[a], inv[b])] for b in range(ring.order)] for a in range(ring.order)]
    labels = [ring.element_labels[inv[y]] for y in range(ring.order)]
    return FiniteRing(ring.order, add, mul, perm[ring.zero], perm[ring.one],
                      label=f"perm({ring.label})", element_labels=labels)


MATRIX_BASES = {  # name: (order, factory)
    "zn:2": (2, lambda: ring_zn(2)),
    "zn:3": (3, lambda: ring_zn(3)),
    "zn:4": (4, lambda: ring_zn(4)),
    "prod:zn:2,zn:2": (4, lambda: ring_product(ring_zn(2), ring_zn(2))),
    "zn:2 renamed": (2, lambda: _permuted(ring_zn(2), (1, 0))),
    "zn:3 renamed": (3, lambda: _permuted(ring_zn(3), (2, 0, 1))),
    "zn:4 renamed": (4, lambda: _permuted(ring_zn(4), (3, 1, 0, 2))),
}
MATRIX_SHAPES = {  # (maker, k): free positions
    (ring_matrix, 2): [(i, j) for i in range(2) for j in range(2)],
    (ring_upper_triangular, 2): [(i, j) for i in range(2) for j in range(i, 2)],
    (ring_upper_triangular, 3): [(i, j) for i in range(3) for j in range(i, 3)],
}
# Every matrix ring over these bases up to order 81, past the default order
# cap of 64, so that M2 over Z/3 and its renaming are covered.
MATRIX_CASES = [(name, maker, k) for name, (m, _) in MATRIX_BASES.items()
                for (maker, k), pos in MATRIX_SHAPES.items() if m ** len(pos) <= 81]


@pytest.mark.parametrize("base_name,maker,k", MATRIX_CASES)
def test_matrix_tables_match_the_literal_builder(base_name, maker, k):
    base = MATRIX_BASES[base_name][1]()
    ring = maker(base, k, Caps(order=81))
    add, mul = literal_matrix_tables(base, k, MATRIX_SHAPES[maker, k])
    assert ring.add_table == tuple(map(tuple, add))
    assert ring.mul_table == tuple(map(tuple, mul))


def test_product_ring_coordinates():
    r = ring_product(ring_zn(2), ring_zn(3))
    assert r.order == 6
    # index of (a, b) is a*3 + b
    assert r.add(1, 3) == r.add(3, 1) == 4
    assert r.one == 1 * 3 + 1


def _shifted_z3():
    # Z/3 with index i standing for the residue (i + 1) % 3: zero is index 2
    # and one is index 0.
    return FiniteRing(3, [[(a + b + 1) % 3 for b in range(3)] for a in range(3)],
                      [[((a + 1) * (b + 1) + 2) % 3 for b in range(3)] for a in range(3)],
                      2, 0, label="Z/3'", element_labels=["1", "2", "0"])


PRODUCT_CASES = {
    "shifted x zn:2": lambda: (_shifted_z3(), ring_zn(2)),
    "zn:2 x shifted": lambda: (ring_zn(2), _shifted_z3()),
    "shifted x shifted": lambda: (_shifted_z3(), _shifted_z3()),
    "ut2:z2 x shifted": lambda: (builtin_ring("ut2:z2"), _shifted_z3()),
    "zn:4 x ut2:z2": lambda: (ring_zn(4), builtin_ring("ut2:z2")),
    "(shifted x zn:2) x zn:3": lambda: (ring_product(_shifted_z3(), ring_zn(2)), ring_zn(3)),
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_tables_match_the_nested_loop_reference(case):
    left, right = PRODUCT_CASES[case]()
    m, n = right.order, left.order * right.order
    add, mul, labels = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)], [None] * n
    for a1 in range(left.order):
        for b1 in range(m):
            labels[a1 * m + b1] = f"({left.element_labels[a1]},{right.element_labels[b1]})"
            for a2 in range(left.order):
                for b2 in range(m):
                    add[a1 * m + b1][a2 * m + b2] = left.add(a1, a2) * m + right.add(b1, b2)
                    mul[a1 * m + b1][a2 * m + b2] = left.mul(a1, a2) * m + right.mul(b1, b2)
    ring = ring_product(left, right)
    assert ring.add_table == tuple(map(tuple, add))
    assert ring.mul_table == tuple(map(tuple, mul))
    assert ring.element_labels == tuple(labels)
    assert (ring.zero, ring.one) == (left.zero * m + right.zero, left.one * m + right.one)
    assert ring.label == f"{left.label}x{right.label}"


def test_the_left_side_table_is_the_transpose_the_ring_stores():
    ut3 = builtin_ring("ut3:z2")
    left = side_table(ut3, "left")
    assert left == tuple(zip(*ut3.mul_table)) != ut3.mul_table
    assert side_table(ut3, "left") is left


def test_every_side_argument_is_checked_by_one_rule():
    ut2 = builtin_ring("ut2:z2")
    calls = (lambda: side_table(ut2, "up"), lambda: annihilator(ut2, {1}, "up"),
             lambda: ideal_generated(ut2, {1}, "up"), lambda: enumerate_ideals(ut2, "up"),
             lambda: decide_generalized(ut2, "baer", "up"),
             lambda: oracle_decide_generalized(ut2, "quasi_baer", "up"))
    for call in calls:
        with pytest.raises(ValueError, match=r"^side must be 'right' or 'left', got 'up'$"):
            call()


def test_matrix_ring_m2_z2_basics():
    m2 = ring_matrix(ring_zn(2), 2)
    assert m2.order == 16
    assert m2.one == 9  # identity matrix index
    e11, e12, e21, e22 = 1, 2, 4, 8
    assert m2.mul(e11, e12) == e12
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == 0
    assert m2.add(e11, e22) == m2.one


def test_a_product_off_the_matrix_shape_is_an_internal_fault():
    # The full and upper triangular position sets are closed under products,
    # so a product off its positions is a bug inside the program (exit 6),
    # not bad input (exit 2).
    with pytest.raises(InvariantViolation, match="matrix-shape"):
        _matrix_like(ring_zn(2), 2, [(0, 1), (1, 0)], "bad")
    # Strictly upper 2 x 2 matrices are closed under products, but the
    # identity leaves them.
    with pytest.raises(InvariantViolation, match=r"matrix-shape: nonzero product entry at \(0, 0\)"):
        _matrix_like(ring_zn(2), 2, [(0, 1)], "bad")


def test_a_product_off_the_matrix_shape_is_caught_when_the_identity_fits():
    # Here e01*e12 = e02 leaves the positions while the identity stays in
    # them.  Dropping e02 from every product would give a ring, the quotient
    # of UT3 by e02, so only the shape check can refuse it.
    with pytest.raises(InvariantViolation, match=r"matrix-shape: nonzero product entry at \(0, 2\)"):
        _matrix_like(ring_zn(2), 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], "bad")


def test_upper_triangular_order():
    ut = ring_upper_triangular(ring_zn(2), 2)
    assert ut.order == 8
    assert sorted(idempotents(ut))[0] == 0


def test_construction_cap():
    with pytest.raises(SizeCapExceeded):
        ring_zn(100)
    # explicit override allows it
    r = ring_zn(100, Caps(order=128))
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


def test_left_annihilators_are_the_literal_ones():
    # ut2:z2 is not commutative, so the two sides differ on some x.
    ut2 = builtin_ring("ut2:z2")
    for x in range(ut2.order):
        right = {a for a in range(ut2.order) if ut2.mul(x, a) == ut2.zero}
        left = {a for a in range(ut2.order) if ut2.mul(a, x) == ut2.zero}
        assert annihilator(ut2, {x}, "right") == right
        assert annihilator(ut2, {x}, "left") == left
    assert annihilator(ut2, {1}, "left") != annihilator(ut2, {1}, "right")


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


@pytest.mark.parametrize("power", [1.5, True, "2"], ids=repr)
def test_subset_power_refuses_a_power_that_is_no_int(power):
    # True equals 1 and once returned {2}; 1.5 raised a TypeError from range.
    with pytest.raises(ValueError, match=f"^power exponent must be an int, got {power!r}$"):
        subset_power(Z4, {2}, power)


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


@settings(max_examples=12, deadline=None)
@given(product_rings(16))
def test_principal_ideal_sums_match_the_brute_filter_on_random_products(ring):
    for side in ("right", "left"):
        assert enumerate_ideals(ring, side) == _oracle_ideals(ring, side), (ring.label, side)


def _all_principal_closure(ring, side):
    """Every ideal on side, found as enumerate_ideals found it before it
    kept only the irreducible principal ideals: {0} closed under adding any
    distinct principal ideal, each sum taken literally as {a + b}."""
    add = ring.add_table
    principals = list(dict.fromkeys(frozenset(row) for row in side_table(ring, side)))
    found = {frozenset({ring.zero})}
    queue = list(found)
    for ideal in queue:
        for p in principals:
            bigger = frozenset(add[a][b] for a in ideal for b in p)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def _opposite(ring):
    return FiniteRing(ring.order, ring.add_table, tuple(zip(*ring.mul_table)), ring.zero,
                      ring.one, label=f"{ring.label}^op")


ORDER_64_IDEAL_RINGS = {
    "ut3:z2": lambda: builtin_ring("ut3:z2"),
    "ut2:z4": lambda: builtin_ring("ut2:z4"),
    "zn:64": lambda: builtin_ring("zn:64"),
    "prod:zn:8,zn:8": lambda: builtin_ring("prod:zn:8,zn:8"),
    "T": lambda: triangular(2, 2, 4),
    "T^op": lambda: _opposite(triangular(2, 2, 4)),
}


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", ORDER_64_IDEAL_RINGS)
def test_irreducible_principal_closure_matches_the_all_principal_reference(name, side):
    # The brute filter of _oracle_ideals runs over 2^order subsets, so it
    # cannot reach order 64; this reference can.
    ring = ORDER_64_IDEAL_RINGS[name]()
    assert enumerate_ideals(ring, side, Caps(ideal=64)) == _all_principal_closure(ring, side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_ideal_generated_is_the_smallest_ideal_containing_the_subset(side):
    ring = ring_upper_triangular(ring_zn(2), 2)
    ideals = _oracle_ideals(ring, side)
    for size in (1, 2):
        for subset in itertools.combinations(range(ring.order), size):
            smallest = min((i for i in ideals if i >= set(subset)), key=len)
            assert ideal_generated(ring, subset, side) == smallest


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_additive_generators_span_each_ideal_without_redundancy(name):
    ring = builtin_ring(name)
    zero = (ring.zero,)
    targets = [frozenset(range(ring.order))]
    targets += enumerate_ideals(ring, "right") + enumerate_ideals(ring, "left")
    for ideal in targets:
        gens = additive_generators(ring, ideal)
        assert list(gens) == sorted(gens)
        assert additive_closure(ring, zero + gens) == ideal
        for i, x in enumerate(gens):
            assert x not in additive_closure(ring, zero + gens[:i])
    assert additive_generators(ring, zero) == ()


def test_additive_generators_hand_values():
    assert additive_generators(ring_zn(8), range(8)) == (1,)
    assert additive_generators(ring_zn(8), (0, 2, 4, 6)) == (2,)
    assert additive_generators(Z6, (0, 2, 3, 4)) == (2, 3)
    assert additive_generators(ring_product(ring_zn(2), ring_zn(2)), range(4)) == (1, 2)


def test_endomorphism_enumeration():
    assert [e.image for e in enumerate_endomorphisms(Z4)] == [(0, 1, 2, 3)]
    klein = ring_product(ring_zn(2), ring_zn(2))
    images = [e.image for e in enumerate_endomorphisms(klein)]
    assert len(images) == 4
    assert (0, 2, 1, 3) in images  # the coordinate swap
    assert images == sorted(images)


# Builtin rings up to order 125 from every family: the catalog, the matrix and
# triangular rings, and the products of Z/A and Z/B with A <= B <= 8.
ENDO_ORDER_RINGS = tuple(dict.fromkeys(
    CATALOG_NAMES + ("ut2:z3", "ut2:z4", "ut2:z5", "mat2:z3", "ut3:z2")
    + tuple(f"prod:zn:{a},zn:{b}" for a in range(2, 9) for b in range(a, 9))))


def test_endomorphism_search_yields_ascending_images_without_repeats():
    # The search branches on the lowest undetermined element, trying images
    # in ascending order, so the maps come out sorted and distinct.
    caps = Caps(endo=125, order=125)
    counts = {}
    for name in ENDO_ORDER_RINGS:
        images = [e.image for e in enumerate_endomorphisms(builtin_ring(name, caps), caps)]
        assert images == sorted(set(images)), name
        counts[name] = len(images)
    assert (counts["ut3:z2"], counts["ut2:z5"], counts["mat2:z3"]) == (243, 32, 24)
    assert counts["prod:zn:6,zn:6"] == 16


@pytest.mark.parametrize("ring", [
    ring_zn(4), ring_zn(6), builtin_ring("prod:zn:2,zn:2"), builtin_ring("ut2:z2"), gf4_ring(),
    quadratic_ring(ring_zn(2), 0, 0, "Z/2[e]"), triangular(2, 2, 2),
], ids=repr)
def test_endomorphism_search_equals_the_literal_scan(ring):
    # Every map that fixes 0 and 1, kept when it passes the literal n^2
    # check; the maps come out sorted, since the free entries vary in
    # ascending order.
    n = ring.order
    free = [x for x in range(n) if x not in (ring.zero, ring.one)]
    image = list(range(n))
    literal = []
    for values in itertools.product(range(n), repeat=len(free)):
        for x, y in zip(free, values):
            image[x] = y
        if literal_endomorphism(ring, image):
            literal.append(tuple(image))
    assert [e.image for e in enumerate_endomorphisms(ring)] == literal


# The sorted image lists of the endomorphism search, pinned by their count and
# one sha256 over repr([e.image for e in ...]) ring after ring: 12 builtin
# rings up to order 256, then the order-16 rings of conftest.py.
PINNED_ENDOMORPHISMS = {
    "zn:8": 1, "zn:16": 1, "prod:zn:2,zn:2": 4, "prod:zn:4,zn:4": 4, "ut2:z2": 8,
    "mat2:z2": 6, "ut2:z3": 14, "ut2:z4": 22, "ut3:z2": 243, "mat2:z3": 24, "ut2:z5": 32,
    "mat2:z4": 48,
}


def _image_digest(rings, caps=DEFAULT_CAPS):
    digest, counts = hashlib.sha256(), []
    for ring in rings:
        images = [e.image for e in enumerate_endomorphisms(ring, caps)]
        digest.update(repr(images).encode())
        counts.append(len(images))
    return counts, digest.hexdigest()


def test_endomorphism_search_is_pinned_up_to_order_256(gf4_eps, gr42):
    caps = Caps(endo=256, order=256)
    rings = [builtin_ring(name, caps) for name in PINNED_ENDOMORPHISMS]
    assert _image_digest(rings, caps) == (
        list(PINNED_ENDOMORPHISMS.values()),
        "ec6e2280991e7deafd23e0c9f5be6f04aef59c11ee40cd94715bcfa48dedeeaf")
    assert _image_digest([gf4_eps, gr42, triangular(2, 2, 4)]) == (
        [8, 2, 5], "63c521213efc377f8e0e75c33b500a58f006f399172d5138bb99f483365e4a5a")


@pytest.mark.parametrize("ring, image, message", [
    (builtin_ring("ut2:z2"), (0, 0, 1, 1, 5, 5, 4, 4), "not multiplicative at (1,2)"),
    # Additive and unital, x -> (its (1,1) entry) * I, but E10*E01 = E11 goes
    # to I while E10 and E01 go to 0: only the generator pair (4,2) fails.
    (builtin_ring("mat2:z2"), (0,) * 8 + (9,) * 8, "not multiplicative at (4,2)"),
    (Z4, (0, 1, 0, 0), "not additive at (1,1)"),
    (Z4, (1, 1, 2, 3), "endomorphism must fix 0"),
], ids=["additive-unital-not-multiplicative", "one-generator-pair", "not-additive", "moves-zero"])
def test_an_image_that_is_no_endomorphism_is_refused(ring, image, message):
    with pytest.raises(ValueError) as info:
        RingEndomorphism(ring, image)
    assert str(info.value) == message


# The catalog rings and the order-4 rings of conftest.py.
REFUSAL_RINGS = tuple(builtin_ring(name) for name in CATALOG_NAMES) + (
    gf4_ring(), quadratic_ring(ring_zn(2), 0, 0, "Z/2[e]"))


@st.composite
def generator_images(draw):
    """(ring, image): a small ring and the map that sends each additive
    generator g to g or to a drawn element, and every other element where
    the walk y -> y + g first takes it, with at most one entry then redrawn.
    Keeping some generators where the identity puts them makes maps that are
    additive and fix 1 common, so the product check is reached as well as
    the sum check."""
    ring = draw(st.sampled_from(REFUSAL_RINGS))
    n, add = ring.order, ring.add_table
    gens = additive_generators(ring, range(n))
    picks = {g: draw(st.just(g) | st.integers(0, n - 1)) for g in gens}
    image = [None] * n
    image[ring.zero] = ring.zero
    queue = [ring.zero]
    for y in queue:
        for g in gens:
            z = add[y][g]
            if image[z] is None:
                image[z] = add[image[y]][picks[g]]
                queue.append(z)
    if draw(st.booleans()):
        image[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return ring, tuple(image)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(generator_images())
def test_an_image_is_refused_exactly_when_the_literal_scan_refuses_it(case):
    ring, image = case
    try:
        RingEndomorphism(ring, image)
    except ValueError:
        assert not literal_endomorphism(ring, image)
    else:
        assert literal_endomorphism(ring, image)


def test_endomorphism_validation_and_inverse():
    swap = next(e for e in enumerate_endomorphisms(ring_product(ring_zn(2), ring_zn(2)))
                if e.image == (0, 2, 1, 3))
    assert swap.is_bijective
    assert swap.inverse().image == (0, 2, 1, 3)
    assert swap.compose(swap).image == (0, 1, 2, 3)


def test_endo_property_certificates():
    for ring in (Z6, Z4):
        assert endo_property(identity_endomorphism(ring)).verdict == "yes"


def test_reducedness():
    assert is_reduced(Z6).verdict == "yes"
    cert = is_reduced(Z4)
    assert cert.verdict == "no"
    assert cert.witness == (2,)


def test_labels_roundtrip():
    m2 = ring_matrix(ring_zn(2), 2)
    assert m2.element_labels[m2.one] == "[1,0;0,1]"
    assert Z6.label == "Z/6"


def test_annihilator_closure_is_checked_without_assert():
    class Broken:
        """x*a == 0 exactly for a in {0, 1}, but 1 + 1 == 2 lies outside."""
        order, zero = 4, 0
        mul_table = ((0, 0, 1, 1),) * 4
        add_table = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))

    with pytest.raises(InvariantViolation, match="additively closed"):
        annihilator(Broken(), {1}, "right")
