import functools
import itertools
import json
import random
import sys

import pytest
from hypothesis import strategies as st

from skewseries.errors import AxiomViolation
from skewseries.monoids import OrderedMonoid
from skewseries.properties import ClassVerdict, oracle_decide_generalized
from skewseries.rings import (
    FiniteRing,
    PropertyCertificate,
    enumerate_endomorphisms,
    ring_product,
    ring_zn,
)
from skewseries.series import (
    SkewContext,
    SkewSeries,
    _box_series,
    all_series,
    const_embed,
    format_series,
    normalize_box,
)
from skewseries.specfile import builtin_ring

GATE_LINES = []


def record_gate_line(line):
    GATE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the acceptance gate verdicts even under captured output
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared strategies for the series differential tests

# prod:zn:3,zn:3 under the swap is the odd-characteristic ring here where
# p*g == 0 needs terms that cancel rather than vanish one by one.
KERNEL_RINGS = tuple(f"zn:{n}" for n in range(2, 9)) + (
    "prod:zn:2,zn:2", "prod:zn:3,zn:3", "mat2:z2")
KERNEL_MONOIDS = {
    "nat": ("nat", "natural", 1),
    "nat2:lex": ("nat_k", "lex", 2),
    "int": ("int", "natural", 1),
}


@functools.lru_cache(maxsize=None)
def skew_contexts(ring_name, monoid_name):
    """One context per endomorphism usable as the twist (automorphisms only
    over the integers)."""
    ring = builtin_ring(ring_name)
    kind, mode, k = KERNEL_MONOIDS[monoid_name]
    monoid = OrderedMonoid(kind, mode, k=k)
    return tuple(SkewContext(ring, monoid, sigma) for sigma in enumerate_endomorphisms(ring)
                 if kind != "int" or sigma.is_bijective)


@st.composite
def skew_boxes(draw, max_candidates):
    """(context, box): a catalog ring, monoid and twist, and a nonempty box
    inside the bound-2 coordinate box with order**len(box) <= max_candidates."""
    ring_name = draw(st.sampled_from(KERNEL_RINGS))
    ctx = draw(st.sampled_from(skew_contexts(ring_name, draw(st.sampled_from(sorted(KERNEL_MONOIDS))))))
    points = ctx.monoid.box(2)
    size = 1
    while size < len(points) and ctx.ring.order ** (size + 1) <= max_candidates:
        size += 1
    box = draw(st.lists(st.sampled_from(points), min_size=1, max_size=size, unique=True))
    return ctx, sorted(box)


def series_over(ctx, points, max_terms=3):
    """Series with up to max_terms terms at the given exponents, built through
    the public constructor."""
    return st.dictionaries(st.sampled_from(points), st.integers(0, ctx.ring.order - 1),
                           max_size=max_terms).map(lambda terms: SkewSeries(ctx, terms))


def full_decimal(c):
    """str(c) with int-to-str's digit limit lifted for the one call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(c)
    finally:
        sys.set_int_max_str_digits(limit)


def literal_product(f, g):
    """f*g as a plain dict: the sum over u+v = s of f(u)*omega_u(g(v))."""
    ctx = f.context
    ring = ctx.ring
    acc = {}
    for u, a in f.items():
        for v, b in g.items():
            s = tuple(x + y for x, y in zip(u, v))
            acc[s] = ring.add(acc.get(s, ring.zero), ring.mul(a, ctx.omega(u).image[b]))
    return {s: c for s, c in acc.items() if c != ring.zero}


def oracle_verify_thm37(ctx, variant, box, seed, samples):
    """(entries, annihilators) of verify_thm37 rebuilt from the definitions,
    or None when the ring-side class does not hold: entries holds the
    (instance, ok) of every conclusion entry, and annihilators the bounded
    series annihilator of each instance and then each sample, as a tuple.

    The instances come from oracle_decide_generalized.  X lifts to the
    constant series of its members and I to every box series with
    coefficients in I; n-fold products come from literal_product, and the
    annihilator is the box series that every product kills.  The seeded
    samples follow the harness's RNG formula, each sample multiplied by every
    box series.  Nothing here runs the fast route: no series product, no box
    kernel and no verify helper.
    """
    ring = ctx.ring
    slots = normalize_box(ctx.monoid, box)
    rv = oracle_decide_generalized(ring, variant, "right")
    if not rv.verdict:
        return None
    everything = list(all_series(ctx, slots))
    one_s = ctx.monoid.identity()

    def times(f, g):
        return SkewSeries(ctx, literal_product(f, g))

    def annihilator_of(family, n):
        prods = set(family)
        for _ in range(n - 1):
            prods = {times(p, g) for p in prods for g in family}
        anns.append(tuple(g for g in everything if not any(literal_product(p, g) for p in prods)))
        return anns[-1]

    def bridge(ann, e, label):
        ce = const_embed(ctx, e)
        return [
            (f"{label}: c_e lies in the bounded series annihilator", ce in ann),
            (f"{label}: every bounded annihilating series g equals c_e*g",
             all(times(ce, g) == g for g in ann)),
        ]

    def fmt(members):
        return "{" + ",".join(map(str, members)) + "}"

    entries, anns = [], []
    for members, n, e in rv.per_instance:
        if variant == "baer":
            family, prefix = [const_embed(ctx, x) for x in members], "X"
        else:
            family, prefix = lift_ideal_to_series(ctx, members, slots), "I"
        label = f"{prefix}={fmt(members)} n={n} e={e}"
        ann = annihilator_of(family, n)
        entries += bridge(ann, e, label)
        consts = {g.coeff(one_s) for g in ann if g.support <= {one_s}}
        power = set(members)
        for _ in range(n - 1):
            power = {ring.mul(p, x) for p in power for x in members}
        ring_ann = {r for r in range(ring.order)
                    if all(ring.mul(p, r) == ring.zero for p in power)}
        e_right = {ring.mul(e, r) for r in range(ring.order)}
        entries.append((
            f"{label}: constant slice of the series annihilator equals e*R equals "
            "the ring annihilator",
            consts == e_right == ring_ann,
        ))
    if variant == "quasi_baer":
        per_ideal = {members: (n, e) for members, n, e in rv.per_instance}
        for i in range(samples):
            rng = random.Random(seed * 1_000_003 + i)
            gens = [SkewSeries(ctx, dict(zip(slots, [rng.randrange(ring.order) for _ in slots])))
                    for _ in range(2)]
            sampled = {times(g, m) for g in gens for m in everything}
            ideal = {c for f in sampled for _, c in f.items()} | {ring.zero}
            while True:
                grown = ({ring.add(a, b) for a in ideal for b in ideal}
                         | {ring.mul(a, r) for a in ideal for r in range(ring.order)})
                if grown <= ideal:
                    break
                ideal |= grown
            members = tuple(sorted(ideal))
            n, b = per_ideal[members]
            label = (f"sample {i}: gens [{format_series(gens[0])}] [{format_series(gens[1])}] "
                     f"-> I={fmt(members)} n={n} b={b}")
            family = sampled | set(lift_ideal_to_series(ctx, members, slots))
            entries += bridge(annihilator_of(family, n), b, label)
    return entries, anns


@pytest.fixture(scope="session")
def gf4():
    """The field with four elements, 2 and 3 being the roots of x^2 + x + 1.

    No catalog ring has a non-identity twist that meets the Thm 3.7
    hypotheses; here the Frobenius map x -> x^2, which swaps 2 and 3, does.
    It is endomorphism index 1, after the identity.
    """
    return gf4_ring()


@functools.lru_cache(maxsize=None)
def gf4_ring():
    add = [[a ^ b for b in range(4)] for a in range(4)]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    return FiniteRing(4, add, mul, 0, 1, label="GF(4)")


def quadratic_ring(base, c, d, label):
    """base[y]/(y^2 + c*y + d) for a commutative base ring, a + b*y stored
    at index a + base.order*b: y^2 = -c*y - d, every product worked out
    through the base ring's own operations."""
    m = base.order
    neg = [base.add_table[a].index(base.zero) for a in range(m)]
    add, mul = base.add, base.mul

    def times(x, y):
        a, b, p, q = x % m, x // m, y % m, y // m
        bq = mul(b, q)
        const = add(mul(a, p), neg[mul(d, bq)])
        linear = add(add(mul(a, q), mul(b, p)), neg[mul(c, bq)])
        return const + m * linear

    order = m * m
    add_table = [[add(x % m, y % m) + m * add(x // m, y // m) for y in range(order)]
                 for x in range(order)]
    mul_table = [[times(x, y) for y in range(order)] for x in range(order)]
    return FiniteRing(order, add_table, mul_table, base.zero, base.one, label=label)


@functools.lru_cache(maxsize=None)
def gf4_dual_numbers():
    # GF(4)[e] = GF(4)[y]/(y^2): epsilon is index 4, its multiples 8 and 12.
    return quadratic_ring(gf4_ring(), 0, 0, "GF(4)[e]")


@functools.lru_cache(maxsize=None)
def galois_ring_4_2():
    # GR(4,2) = Z/4[x]/(x^2 + x + 1): its maximal ideal 2R is {0, 2, 8, 10}.
    return quadratic_ring(ring_zn(4), 1, 1, "GR(4,2)")


@pytest.fixture(scope="session")
def gf4_eps():
    """GF(4)[e] = GF(4)[y]/(y^2), of order 16: local, commutative, with
    maximal ideal e*R = {0, 4, 8, 12}.  It is not Baer, since r(e) = eR,
    but generalized Baer at depth 2, since e^2 = 0."""
    return gf4_dual_numbers()


@pytest.fixture(scope="session")
def gr42():
    """The Galois ring GR(4,2) = Z/4[x]/(x^2 + x + 1), of order 16: local,
    commutative, with maximal ideal 2R = {0, 2, 8, 10}.  Like GF(4)[e] it is
    generalized Baer at depth 2 but not Baer, and it has characteristic 4."""
    return galois_ring_4_2()


@functools.lru_cache(maxsize=None)
def triangular(a, d, c):
    """The formal triangular ring [[Z/a, Z/d], [0, Z/c]] for d dividing a and
    c.  (x, y, z) is stored at index x + a*y + a*d*z, and
    (x, y, z)(x', y', z') = (xx', xy' + yz', zz'), where Z/a and Z/c act on
    Z/d through reduction mod d."""
    elements = [(x, y, z) for z in range(c) for y in range(d) for x in range(a)]
    index = {t: i for i, t in enumerate(elements)}
    add = [[index[(x + p) % a, (y + q) % d, (z + r) % c] for p, q, r in elements]
           for x, y, z in elements]
    mul = [[index[x * p % a, (x * q + y * r) % d, z * r % c] for p, q, r in elements]
           for x, y, z in elements]
    return FiniteRing(a * d * c, add, mul, 0, index[1 % a, 0, 1 % c],
                      label=f"[[Z/{a}, Z/{d}], [0, Z/{c}]]")


def tables_ini(ring):
    """The text of a kind = tables spec file that builds ring."""
    def rows(table):
        return "; ".join(" ".join(map(str, row)) for row in table)

    return (f"[ring]\nkind = tables\norder = {ring.order}\nadd = {rows(ring.add_table)}\n"
            f"mul = {rows(ring.mul_table)}\nlabel = {ring.label}\n")


def relabelled(ring, perm):
    """The same ring with element x stored at index perm[x]."""
    n, back = ring.order, sorted(range(ring.order), key=perm.__getitem__)
    add = [[perm[ring.add(back[a], back[b])] for b in range(n)] for a in range(n)]
    mul = [[perm[ring.mul(back[a], back[b])] for b in range(n)] for a in range(n)]
    return FiniteRing(n, add, mul, perm[ring.zero], perm[ring.one], label=f"{ring.label}'")


def verdicts_from_jsonl(text):
    """(record, ClassVerdict) for each verdict record of a `ring check`
    jsonl run.  Each ClassVerdict is rebuilt from the record's bytes alone:
    the config record's ring, the class and side, and the emitted triples or
    failing instance."""
    recs = [json.loads(line) for line in text.splitlines()]
    ring = builtin_ring(recs[0]["ring"])
    out = []
    for r in recs:
        if r["record"] == "verdict":
            name = r["class"].replace("-", "_") + (f"_{r['side']}" if r["side"] else "")
            failing = r["failing"] and (tuple(r["failing"]["members"]), r["failing"]["n_reached"],
                                        tuple(r["failing"]["stable_annihilator"]))
            triples = tuple((tuple(m), n, e) for m, n, e in r["instances"] or ())
            out.append((r, ClassVerdict(ring, name, triples, failing)))
    return out


# ---------------------------------------------------------------------------
# random rings for the decider and ideal differential tests

PRODUCT_FACTORS = tuple(f"zn:{n}" for n in range(2, 9)) + ("ut2:z2",)


@functools.lru_cache(maxsize=None)
def _catalog_ring(name):
    return builtin_ring(name)


@st.composite
def product_rings(draw, max_order):
    """A direct product of two or more rings from PRODUCT_FACTORS (Z/n and
    the upper triangular 2x2 ring over Z/2), of order at most max_order."""
    def fits(order):
        return [f for f in PRODUCT_FACTORS if order * _catalog_ring(f).order <= max_order]

    ring = _catalog_ring(draw(st.sampled_from(fits(2))))
    while True:
        ring = ring_product(ring, _catalog_ring(draw(st.sampled_from(fits(ring.order)))))
        if 2 * ring.order > max_order or draw(st.booleans()):
            return ring


# ---------------------------------------------------------------------------
# literal references for the ring layer


def literal_axiom_violation(order, add, mul, zero, one):
    """(axiom, witness) of the first failing ring axiom in the n^3 scan
    order of FiniteRing._check_axioms, or None for a ring."""
    rng = range(order)
    for a in rng:
        if add[a][zero] != a:
            return "additive-identity", (a,)
        if zero not in add[a]:
            return "additive-inverse", (a,)
        if mul[one][a] != a or mul[a][one] != a:
            return "multiplicative-identity", (a,)
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                return "additive-commutativity", (a, b)
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return "additive-associativity", (a, b, c)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return "multiplicative-associativity", (a, b, c)
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return "left-distributivity", (a, b, c)
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    return "right-distributivity", (a, b, c)
    return None


def literal_matrix_tables(base, k, positions):
    """(add, mul) tables of the matrix ring over the free entry positions,
    every entry computed from the matrices with k^3 base operations, in the
    digit encoding of rings._matrix_like."""
    m = base.order
    order = m ** len(positions)

    def decode(x):
        mat = [[base.zero] * k for _ in range(k)]
        for (i, j) in positions:
            mat[i][j] = x % m
            x //= m
        return mat

    def encode(mat):
        for i in range(k):
            for j in range(k):
                if (i, j) not in positions and mat[i][j] != base.zero:
                    raise AxiomViolation("matrix-shape", (i, j))
        return sum(mat[i][j] * m ** t for t, (i, j) in enumerate(positions))

    mats = [decode(x) for x in range(order)]
    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    for x, a in enumerate(mats):
        for y, b in enumerate(mats):
            add[x][y] = encode([[base.add(a[i][j], b[i][j]) for j in range(k)] for i in range(k)])
            p = [[base.zero] * k for _ in range(k)]
            for i in range(k):
                for j in range(k):
                    acc = base.zero
                    for t in range(k):
                        acc = base.add(acc, base.mul(a[i][t], b[t][j]))
                    p[i][j] = acc
            mul[x][y] = encode(p)
    return add, mul


def literal_endomorphism(ring, image):
    """Whether image (a tuple of indices, one per element) is a unital ring
    endomorphism, by the literal scan of all n^2 pairs."""
    rng = range(ring.order)
    add, mul = ring.add_table, ring.mul_table
    return (image[ring.zero] == ring.zero and image[ring.one] == ring.one
            and all(image[add[a][b]] == add[image[a]][image[b]]
                    and image[mul[a][b]] == mul[image[a]][image[b]] for a in rng for b in rng))


def additive_closure(ring, subset):
    """Closure of subset plus 0 under addition (a finite additive subgroup)."""
    cur = set(subset) | {ring.zero}
    changed = True
    while changed:
        changed = False
        for a in list(cur):
            for b in list(cur):
                s = ring.add(a, b)
                if s not in cur:
                    cur.add(s)
                    changed = True
    return frozenset(cur)


def lift_ideal_to_series(ctx, ideal_members, box):
    """Every series with support in the box and all coefficients in the ideal."""
    slots = normalize_box(ctx.monoid, box)
    values = sorted(set(ideal_members))
    return [_box_series(ctx, slots, vec) for vec in itertools.product(values, repeat=len(slots))]


# ---------------------------------------------------------------------------
# literal reference for the order check


def literal_order_check(monoid, bound, lt):
    """check_order_axioms as a literal scan: every axiom asks lt afresh for
    each pair or triple of box points, translation on both sides."""
    points = monoid.box(bound)
    for u in points:
        if lt(u, u):
            return PropertyCertificate("no", witness=(u, u, "irreflexivity"))
    for u in points:
        for v in points:
            if lt(u, v) and lt(v, u):
                return PropertyCertificate("no", witness=(u, v, "antisymmetry"))
    for u in points:
        for v in points:
            if not lt(u, v):
                continue
            for w in points:
                if lt(v, w) and not lt(u, w):
                    return PropertyCertificate("no", witness=(u, v, w))
            for t in points:
                if not lt(monoid.op(u, t), monoid.op(v, t)):
                    return PropertyCertificate("no", witness=(u, v, t))
                if not lt(monoid.op(t, u), monoid.op(t, v)):
                    return PropertyCertificate("no", witness=(t, u, v))
    return PropertyCertificate(
        "yes", notes=f"exhaustive on the bound-{bound} box ({len(points)} elements)",
    )


def literal_refinement_check(monoid, bound):
    """check_refinement as a literal scan: the order axioms through
    literal_order_check on less(..., refined=True), then totality and
    extension asked of less for every pair of box points."""
    def lt(u, v):
        return monoid.less(u, v, refined=True)

    cert = literal_order_check(monoid, bound, lt)
    if cert.verdict != "yes":
        return cert
    points = monoid.box(bound)
    for u in points:
        for v in points:
            if u != v and not (lt(u, v) or lt(v, u)):
                return PropertyCertificate("no", witness=(u, v, "totality"))
            if monoid.less(u, v) and not lt(u, v):
                return PropertyCertificate("no", witness=(u, v, "extension"))
    return PropertyCertificate(
        "yes",
        notes=f"order mode {monoid.order_mode!r} refines to {monoid.refined_mode!r}, a strict "
              f"compatible total order extending it; {cert.notes}",
    )
