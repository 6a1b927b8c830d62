"""Finite associative unital rings presented by Cayley tables.

Elements are the indices 0..order-1.  Construction validates the whole
ring axiom list exhaustively, so a FiniteRing that exists is a ring.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import (
    AxiomViolation,
    EmptySubset,
    NonpositiveExponent,
    SizeCapExceeded,
    SpecFormatError,
)


@dataclass(frozen=True)
class Caps:
    """Size caps of one run, each a bound on ring order.

    subset: subset enumeration in the Baer deciders; endo: endomorphism
    search; ideal: ideal enumeration; order: ring construction.
    """

    subset: int = 16
    endo: int = 16
    ideal: int = 16
    order: int = 64

    def updated(self, text, source):
        """These caps with 'name=int,...' entries from text applied.

        Blank text changes nothing; any other malformed or unknown entry is
        a SpecFormatError naming its source.
        """
        if not text.strip():
            return self
        names = sorted(f.name for f in fields(self))
        values = {}
        for part in text.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in names:
                raise SpecFormatError(
                    f"bad cap entry {part!r} in {source}; use name=int with names {names}")
            try:
                values[key] = int(value)
            except ValueError:
                raise SpecFormatError(f"cap {key} in {source} needs an integer, got {value!r}")
        return replace(self, **values)


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class PropertyCertificate:
    """Outcome of a decidable or bounded check.

    verdict is 'yes', 'no', or 'unknown-at-bound'.  Annihilator-flavored
    certificates carry the accepted exponent and generating idempotent;
    refuting certificates carry a witness.  notes records the scope of
    the scan that produced the verdict, so every certificate says what
    was actually checked.
    """

    verdict: str
    exponent: int | None = None
    idempotent: int | None = None
    witness: tuple | None = None
    notes: str = ""


class FiniteRing:
    """A finite unital ring on indices 0..order-1 with explicit tables."""

    def __init__(self, order, add_table, mul_table, zero, one, label="R", element_labels=None):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        self.order = order
        self.add_table = _normalize_table(add_table, order, "add")
        self.mul_table = _normalize_table(mul_table, order, "mul")
        if not 0 <= zero < order:
            raise ValueError(f"zero index {zero} out of range")
        if not 0 <= one < order:
            raise ValueError(f"one index {one} out of range")
        self.zero = zero
        self.one = one
        self.label = label
        if element_labels is None:
            element_labels = tuple(str(i) for i in range(order))
        self.element_labels = tuple(element_labels)
        if len(self.element_labels) != order:
            raise ValueError("element_labels length must equal order")
        self._check_axioms()
        self.neg_table = tuple(self.add_table[a].index(self.zero) for a in range(order))

    def _check_axioms(self):
        n = self.order
        add, mul = self.add_table, self.mul_table
        zero, one = self.zero, self.one
        rng = range(n)
        for a in rng:
            if add[a][zero] != a:
                raise AxiomViolation("additive-identity", (a,))
            if zero not in add[a]:
                raise AxiomViolation("additive-inverse", (a,))
            if mul[one][a] != a or mul[a][one] != a:
                raise AxiomViolation("multiplicative-identity", (a,))
        for a in rng:
            for b in rng:
                if add[a][b] != add[b][a]:
                    raise AxiomViolation("additive-commutativity", (a, b))
        for a in rng:
            for b in rng:
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AxiomViolation("additive-associativity", (a, b, c))
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AxiomViolation("multiplicative-associativity", (a, b, c))
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AxiomViolation("left-distributivity", (a, b, c))
                    if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                        raise AxiomViolation("right-distributivity", (a, b, c))

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


def _normalize_table(table, order, name):
    rows = tuple(tuple(row) for row in table)
    if len(rows) != order or any(len(row) != order for row in rows):
        raise ValueError(f"{name} table must be {order}x{order}")
    for row in rows:
        for entry in row:
            if not isinstance(entry, int) or not 0 <= entry < order:
                raise ValueError(f"{name} table entry {entry!r} out of range")
    return rows


def build_ring_from_tables(order, add_table, mul_table, zero, one, label="R", element_labels=None):
    """Validate tables exhaustively and wrap them as a FiniteRing."""
    return FiniteRing(order, add_table, mul_table, zero, one, label, element_labels)


# ---------------------------------------------------------------------------
# constructors


def ring_zn(n, max_order=None):
    """The integers mod n, elements being the residues themselves."""
    if n < 2:
        raise ValueError(f"zn needs n >= 2, got {n}")
    _check_construction(n, max_order)
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(n, add, mul, 0, 1, label=f"Z/{n}")


def ring_product(left, right, max_order=None):
    """Direct product; index of (a, b) is a*right.order + b."""
    order = left.order * right.order
    _check_construction(order, max_order)
    m = right.order

    def enc(a, b):
        return a * m + b

    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    labels = [""] * order
    for a1 in range(left.order):
        for b1 in range(m):
            i = enc(a1, b1)
            labels[i] = f"({left.element_labels[a1]},{right.element_labels[b1]})"
            for a2 in range(left.order):
                for b2 in range(m):
                    j = enc(a2, b2)
                    add[i][j] = enc(left.add(a1, a2), right.add(b1, b2))
                    mul[i][j] = enc(left.mul(a1, a2), right.mul(b1, b2))
    return FiniteRing(
        order, add, mul,
        enc(left.zero, right.zero), enc(left.one, right.one),
        label=f"{left.label}x{right.label}", element_labels=labels,
    )


def ring_matrix(base, k, max_order=None):
    """Full k x k matrices over base; k limited to 2 or 3."""
    if k not in (2, 3):
        raise ValueError(f"matrix size must be 2 or 3, got {k}")
    positions = [(i, j) for i in range(k) for j in range(k)]
    return _matrix_like(base, k, positions, f"M{k}({base.label})", max_order)


def ring_upper_triangular(base, k, max_order=None):
    """Upper triangular k x k matrices over base; k limited to 2 or 3."""
    if k not in (2, 3):
        raise ValueError(f"matrix size must be 2 or 3, got {k}")
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    return _matrix_like(base, k, positions, f"UT{k}({base.label})", max_order)


def _matrix_like(base, k, positions, label, max_order):
    """Matrix ring over the free entry positions, row-major digit encoding.

    The index of a matrix is sum over positions of entry * base.order**t,
    where t is the position's rank in `positions`.  Entries off the listed
    positions are zero and must stay zero under multiplication, which
    holds for the full and upper triangular position sets.
    """
    m = base.order
    order = m ** len(positions)
    _check_construction(order, max_order)

    def decode(x):
        mat = [[base.zero] * k for _ in range(k)]
        for (i, j) in positions:
            mat[i][j] = x % m
            x //= m
        return mat

    def encode(mat):
        x = 0
        for t, (i, j) in enumerate(positions):
            x += mat[i][j] * m ** t
        for i in range(k):
            for j in range(k):
                if (i, j) not in positions and mat[i][j] != base.zero:
                    raise AxiomViolation("matrix-shape", (i, j))
        return x

    mats = [decode(x) for x in range(order)]
    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    for x in range(order):
        for y in range(order):
            a, b = mats[x], mats[y]
            s = [[base.add(a[i][j], b[i][j]) for j in range(k)] for i in range(k)]
            p = [[base.zero] * k for _ in range(k)]
            for i in range(k):
                for j in range(k):
                    acc = base.zero
                    for t in range(k):
                        acc = base.add(acc, base.mul(a[i][t], b[t][j]))
                    p[i][j] = acc
            add[x][y] = encode(s)
            mul[x][y] = encode(p)

    zero = encode([[base.zero] * k for _ in range(k)])
    ident = [[base.zero] * k for _ in range(k)]
    for i in range(k):
        ident[i][i] = base.one
    labels = [
        "[" + ";".join(",".join(base.element_labels[mats[x][i][j]] for j in range(k)) for i in range(k)) + "]"
        for x in range(order)
    ]
    return FiniteRing(order, add, mul, zero, encode(ident), label=label, element_labels=labels)


def _check_construction(order, max_order):
    cap = DEFAULT_CAPS.order if max_order is None else max_order
    if order > cap:
        raise SizeCapExceeded(f"constructed order {order} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# subsets, annihilators, ideals


def _check_subset(ring, subset):
    xs = sorted(set(subset))
    if not xs:
        raise EmptySubset("operation needs a nonempty subset")
    for x in xs:
        if not isinstance(x, int) or not 0 <= x < ring.order:
            raise ValueError(f"element {x!r} not in ring of order {ring.order}")
    return xs


def side_table(ring, side):
    """The multiplication table that turns a side question into a right one.

    'right' gives the ring's own table.  'left' gives its transpose, the table
    of the opposite ring: there x*a is a*x of the ring, so right annihilators,
    right ideals and principal ideals eR of the opposite ring are the left
    annihilators, left ideals and Re of the ring.
    """
    if side == "right":
        return ring.mul_table
    if side == "left":
        return tuple(zip(*ring.mul_table))
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def idempotents(ring):
    """All e with e*e == e, ascending by index."""
    return tuple(e for e in range(ring.order) if ring.mul(e, e) == e)


def annihilator(ring, subset, side="right"):
    """Right (or left) annihilator of a nonempty subset, as a frozenset.

    The result is checked post hoc to be closed under addition and under
    ring multiplication on the matching side, i.e. to be a one-sided ideal.
    """
    xs = _check_subset(ring, subset)
    zero = ring.zero
    if side == "right":
        res = frozenset(a for a in range(ring.order) if all(ring.mul(x, a) == zero for x in xs))
    elif side == "left":
        res = frozenset(a for a in range(ring.order) if all(ring.mul(a, x) == zero for x in xs))
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    for a in res:
        for b in res:
            assert ring.add(a, b) in res, "annihilator not additively closed"
    for a in res:
        for r in range(ring.order):
            prod = ring.mul(a, r) if side == "right" else ring.mul(r, a)
            assert prod in res, "annihilator not an ideal on its side"
    return res


def subset_power(ring, subset, n):
    """The set of all n-fold products x1*...*xn with every xi in subset.

    This is a set of products, not their additive span.
    """
    xs = _check_subset(ring, subset)
    if n < 1:
        raise NonpositiveExponent(f"power exponent must be >= 1, got {n}")
    cur = frozenset(xs)
    for _ in range(n - 1):
        cur = frozenset(ring.mul(p, x) for p in cur for x in xs)
    return cur


def additive_closure(ring, subset):
    """Closure of subset plus 0 under addition (a finite additive subgroup)."""
    xs = _check_subset(ring, subset)
    cur = set(xs)
    cur.add(ring.zero)
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


def _ideal_sum(add, ideal, other):
    """{a + b : a in ideal, b in other} for an additive subgroup `ideal`.

    The sum is a union of cosets of `ideal`, so each b not yet covered adds
    its whole coset at once.
    """
    out = set(ideal)
    for b in other:
        if b not in out:
            row = add[b]
            out.update([row[a] for a in ideal])
    return frozenset(out)


def ideal_generated(ring, subset, side="right"):
    """Smallest one-sided ideal containing the subset.

    In a unital ring that is the sum of the members' principal ideals xR
    (right) or Rx (left), each a row of the side table.
    """
    xs = _check_subset(ring, subset)
    table = side_table(ring, side)
    out = frozenset({ring.zero})
    for x in xs:
        out = _ideal_sum(ring.add_table, out, table[x])
    return out


def enumerate_ideals(ring, side="right", cap=None):
    """All one-sided ideals, ascending by size then by sorted member tuple.

    In a unital ring every one-sided ideal is the sum of the principal ideals
    xR (right) or Rx (left) of its members, and the sum of two ideals is
    {a + b}.  So closing {0} under adding one principal ideal, a row of the
    side table, reaches every ideal and nothing else.
    """
    cap = DEFAULT_CAPS.ideal if cap is None else cap
    if ring.order > cap:
        raise SizeCapExceeded(f"ideal enumeration capped at order {cap}, ring has {ring.order}")
    principals = list(dict.fromkeys(frozenset(row) for row in side_table(ring, side)))
    found = {frozenset({ring.zero})}
    queue = list(found)
    for ideal in queue:
        for p in principals:
            bigger = _ideal_sum(ring.add_table, ideal, p)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def idempotent_generator_of(ring, subset, side="right"):
    """Smallest idempotent e with eR (right) or Re (left) equal to subset, or None."""
    target = frozenset(subset)
    for e in idempotents(ring):
        if side == "right":
            gen = frozenset(ring.mul(e, r) for r in range(ring.order))
        elif side == "left":
            gen = frozenset(ring.mul(r, e) for r in range(ring.order))
        else:
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        if gen == target:
            return e
    return None


# ---------------------------------------------------------------------------
# endomorphisms


@dataclass(frozen=True)
class RingEndomorphism:
    """A unital ring endomorphism, stored as the image tuple of 0..order-1."""

    ring: FiniteRing
    image: tuple

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        ring, image = self.ring, self.image
        n = ring.order
        if len(image) != n or any(not 0 <= y < n for y in image):
            raise ValueError("image must list one ring element per element")
        if image[ring.zero] != ring.zero:
            raise ValueError("endomorphism must fix 0")
        if image[ring.one] != ring.one:
            raise ValueError("endomorphism must fix 1")
        for a in range(n):
            for b in range(n):
                if image[ring.add(a, b)] != ring.add(image[a], image[b]):
                    raise ValueError(f"not additive at ({a},{b})")
                if image[ring.mul(a, b)] != ring.mul(image[a], image[b]):
                    raise ValueError(f"not multiplicative at ({a},{b})")

    def __call__(self, x):
        return self.image[x]

    def compose(self, inner):
        """self after inner: x maps to self(inner(x))."""
        if inner.ring is not self.ring:
            raise ValueError("cannot compose endomorphisms of different rings")
        return RingEndomorphism(self.ring, tuple(self.image[y] for y in inner.image))

    @property
    def is_identity(self):
        return all(self.image[x] == x for x in range(self.ring.order))

    @property
    def is_bijective(self):
        return len(set(self.image)) == self.ring.order

    def inverse(self):
        if not self.is_bijective:
            raise ValueError("only bijective endomorphisms have inverses")
        inv = [0] * self.ring.order
        for x, y in enumerate(self.image):
            inv[y] = x
        return RingEndomorphism(self.ring, tuple(inv))


def identity_endomorphism(ring):
    return RingEndomorphism(ring, tuple(range(ring.order)))


def enumerate_endomorphisms(ring, cap=None):
    """All unital ring endomorphisms, sorted by image tuple.

    Backtracking on the image of the lowest undetermined element.  Any
    assignment forces images across the subring generated so far (sums and
    products of determined elements have determined images), so conflicts
    are detected long before a full map is built.  The identity is always
    among the results.
    """
    cap = DEFAULT_CAPS.endo if cap is None else cap
    if ring.order > cap:
        raise SizeCapExceeded(f"endomorphism search capped at order {cap}, ring has {ring.order}")
    n = ring.order
    add, mul = ring.add_table, ring.mul_table

    def close(img, start):
        # Force img along +/* closure from start; False on conflict.
        queue = [start]
        while queue:
            x = queue.pop()
            for y in range(n):
                if img[y] is None:
                    continue
                for a, b in ((x, y), (y, x)):
                    for table in (add, mul):
                        s = table[a][b]
                        v = table[img[a]][img[b]]
                        if img[s] is None:
                            img[s] = v
                            queue.append(s)
                        elif img[s] != v:
                            return False
        return True

    found = []

    def extend(img):
        try:
            x = img.index(None)
        except ValueError:
            found.append(tuple(img))
            return
        for y in range(n):
            trial = img.copy()
            trial[x] = y
            if close(trial, x):
                extend(trial)

    seed = [None] * n
    seed[ring.zero] = ring.zero
    seed[ring.one] = ring.one
    if close(seed, ring.zero) and close(seed, ring.one):
        extend(seed)
    return [RingEndomorphism(ring, img) for img in sorted(set(found))]


def endo_property(sigma, which):
    """Certificate for 'compatible' or 'rigid' on one endomorphism.

    compatible: a*b == 0 exactly when a*sigma(b) == 0, for all pairs.
    rigid: a*sigma(a) == 0 only for a == 0.
    """
    ring = sigma.ring
    zero = ring.zero
    if which == "compatible":
        for a in range(ring.order):
            for b in range(ring.order):
                if (ring.mul(a, b) == zero) != (ring.mul(a, sigma(b)) == zero):
                    return PropertyCertificate(
                        "no", witness=(a, b),
                        notes=f"a*b and a*sigma(b) disagree on vanishing at a={a}, b={b}",
                    )
        return PropertyCertificate("yes", notes=f"exhaustive over all {ring.order}^2 pairs")
    if which == "rigid":
        for a in range(ring.order):
            if a != zero and ring.mul(a, sigma(a)) == zero:
                return PropertyCertificate(
                    "no", witness=(a,), notes=f"a*sigma(a) == 0 for nonzero a={a}",
                )
        return PropertyCertificate("yes", notes=f"exhaustive over all {ring.order} elements")
    raise ValueError(f"which must be 'compatible' or 'rigid', got {which!r}")


def is_reduced(ring):
    """Certificate: no nonzero element squares to zero."""
    for a in range(ring.order):
        if a != ring.zero and ring.mul(a, a) == ring.zero:
            return PropertyCertificate("no", witness=(a,), notes=f"a^2 == 0 for nonzero a={a}")
    return PropertyCertificate("yes", notes=f"exhaustive over all {ring.order} elements")
