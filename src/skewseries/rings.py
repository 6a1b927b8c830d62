"""Finite associative unital rings presented by Cayley tables.

Elements are the indices 0..order-1.  Construction proves every ring axiom
from the tables (FiniteRing._proven_ring, at O(n^2 * g) cost for g additive
generators), so a FiniteRing that exists is a ring.  Tables it cannot prove
go through the literal n^3 scan, which names the first failing axiom and its
witness.
"""

from .errors import (
    AxiomViolation,
    EmptySubset,
    InvariantViolation,
    NonpositiveExponent,
    SizeCapExceeded,
    SpecFormatError,
)

# Default budgets of the exhaustive Armendariz search (series.py) and of the
# counterexample search (verify.py); they live here because the CLI parser
# needs them before any series code loads.
ARMENDARIZ_BUDGET = 2_000_000
SEARCH_BUDGET = 10_000_000


class FrozenRecord:
    """Base of the package's immutable value records.

    A subclass names its fields in __slots__ and gives the defaults of
    trailing fields in _defaults.  Records are built from positional or
    keyword arguments (a missing or unknown field is a TypeError), refuse
    assignment, repr as Name(field=value, ...), and compare and hash by
    their field values, equal only to records of the same class.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)} arguments")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            kwargs[name] = value
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
        for name in names:
            if name in kwargs:
                value = kwargs[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def check_counts(error, prefix="", **counts):
    """Raise error naming the first negative count; a count may be 0."""
    for name, value in counts.items():
        if value < 0:
            raise error(f"{prefix}{name} must be >= 0, got {value}")


class Caps(FrozenRecord):
    """Size caps of one run, each a bound on ring order.

    subset: subset enumeration in the Baer deciders; endo: endomorphism
    search; ideal: ideal enumeration; order: ring construction.
    """

    __slots__ = ("subset", "endo", "ideal", "order")
    _defaults = {"subset": 16, "endo": 16, "ideal": 16, "order": 64}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_counts(ValueError, "cap ", **dict(zip(self.__slots__, self._values())))

    def updated(self, text):
        """These caps with '--caps' entries 'name=int,...' from text applied.

        Blank text changes nothing; any other malformed, unknown or negative
        entry is a SpecFormatError.
        """
        if not text.strip():
            return self
        names = sorted(self.__slots__)
        values = {name: getattr(self, name) for name in self.__slots__}
        for part in text.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in names:
                raise SpecFormatError(
                    f"bad cap entry {part!r} in --caps; use name=int with names {names}")
            try:
                values[key] = int(value)
            except ValueError:
                raise SpecFormatError(f"cap {key} in --caps needs an integer, got {value!r}")
            if values[key] < 0:
                raise SpecFormatError(f"cap {key} in --caps must be >= 0, got {values[key]}")
        return Caps(**values)


DEFAULT_CAPS = Caps()


class PropertyCertificate(FrozenRecord):
    """Outcome of a decidable or bounded check.

    verdict is 'yes', 'no', or 'unknown-at-bound'.  Refuting certificates
    carry a witness (a tuple or None).  notes records the scope of the scan
    that produced the verdict, so every certificate says what was actually
    checked.
    """

    __slots__ = ("verdict", "witness", "notes")
    _defaults = {"witness": None, "notes": ""}


class FiniteRing:
    """A finite unital ring on indices 0..order-1 with explicit tables."""

    def __init__(self, order, add_table, mul_table, zero, one, label="R", element_labels=None):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError(f"order must be a positive int, got {order!r}")
        self.order = order
        self.add_table = _normalize_table(add_table, order, "add")
        self.mul_table = _normalize_table(mul_table, order, "mul")
        for name, index in (("zero", zero), ("one", one)):
            if not _is_index(index, order):
                raise ValueError(f"{name} index {index!r} is not an int in range({order})")
        self.zero = zero
        self.one = one
        self.label = label
        if element_labels is None:
            element_labels = tuple(str(i) for i in range(order))
        self.element_labels = tuple(element_labels)
        if len(self.element_labels) != order:
            raise ValueError("element_labels length must equal order")
        # Built once for the axiom proof, side_table and the endomorphism checks.
        self._opposite = tuple(zip(*self.mul_table))
        self._generators = additive_generators(self, range(order))
        self._check_axioms()
        self.neg_table = tuple(self.add_table[a].index(self.zero) for a in range(order))

    def _check_axioms(self):
        """Prove the ring axioms, or raise AxiomViolation with a witness.

        The first four axioms are scanned literally; _proven_ring then settles
        real rings, and anything it cannot prove goes through the literal n^3
        scan below.  Each scan raises at the first failing axiom and witness.
        """
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
        if tuple(zip(*add)) != add:
            raise AxiomViolation("additive-commutativity", next(
                (a, b) for a in rng for b in rng if add[a][b] != add[b][a]))
        if self._proven_ring():
            return
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

    def _proven_ring(self):
        """True only when the tables are proven to satisfy the four n^3
        axioms, at O(n^2 * g) cost for g additive generators.  It assumes the
        checks _check_axioms makes first: zero is an additive identity found
        in every row of +, + is commutative, and one is a two-sided identity.

        1. Generators G: additive_generators of all elements, whose span
           walk assumes no axiom and reaches each element as a sum of them.
        2. Light's test: x + (g + y) == (x + g) + y for all x, y and g in G.
           The m with x + (m + y) == (x + m) + y for all x, y form a set
           closed under + that holds zero and G, so it is all of R and + is
           associative.  So (R, +) is an abelian group.
        3. a(b + g) == ab + ag and (b + g)a == ba + ga for all a, b and g in
           G.  The c that satisfy this for all a, b form a set closed under
           +; it holds G, and every element is a sum of generators, so both
           distributive laws hold and multiplication is bi-additive.
        4. (ab)c == a(bc) on G^3.  The associator is now additive in each
           argument, so it vanishes on all of R^3.

        A False leaves the tables to the literal scan of _check_axioms.
        """
        from operator import itemgetter
        add, mul, gens = self.add_table, self.mul_table, self._generators
        for g in gens:
            # pick(row) lists x + (g + y) over y, for the row of x.
            pick = itemgetter(*add[g])
            for row in add:
                if pick(row) != add[row[g]]:
                    return False
        for table in (mul, self._opposite):
            # Rows of the transposed table turn the right law into the left.
            times = [itemgetter(*row) for row in table]
            for g in gens:
                pick = itemgetter(*add[g])
                for row, row_times in zip(table, times):
                    # a(b + g) over b, against ab + ag over b.
                    if pick(row) != row_times(add[row[g]]):
                        return False
        for a in gens:
            row = mul[a]
            for b in gens:
                ab_row = mul[row[b]]
                b_row = mul[b]
                for c in gens:
                    if ab_row[c] != row[b_row[c]]:
                        return False
        return True

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


def _is_index(value, order):
    """Whether value indexes an element of a ring of that order: an int, not
    a bool (which equals 0 or 1 but prints as False or True), in range."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < order


def _normalize_table(table, order, name):
    rows = tuple(tuple(row) for row in table)
    if len(rows) != order or any(len(row) != order for row in rows):
        raise ValueError(f"{name} table must be {order}x{order}")
    for row in rows:
        # A row of plain ints within range passes at C speed; any other row
        # goes entry by entry, which names its first bad entry.
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < order:
            continue
        for entry in row:
            if not _is_index(entry, order):
                raise ValueError(f"{name} table entry {entry!r} out of range")
    return rows


def build_ring_from_tables(order, add_table, mul_table, zero, one, label="R", element_labels=None):
    """Prove the tables form a ring and wrap them as a FiniteRing."""
    return FiniteRing(order, add_table, mul_table, zero, one, label, element_labels)


# ---------------------------------------------------------------------------
# constructors


def ring_zn(n, caps=DEFAULT_CAPS):
    """The integers mod n, elements being the residues themselves."""
    if n < 2:
        raise ValueError(f"zn needs n >= 2, got {n}")
    _check_construction(n, caps)
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(n, add, mul, 0, 1, label=f"Z/{n}")


def ring_product(left, right, caps=DEFAULT_CAPS):
    """Direct product; index of (a, b) is a*right.order + b."""
    order = left.order * right.order
    _check_construction(order, caps)
    m = right.order
    return FiniteRing(
        order, _pair_table(left.add_table, right.add_table),
        _pair_table(left.mul_table, right.mul_table),
        left.zero * m + right.zero, left.one * m + right.one, label=f"{left.label}x{right.label}",
        element_labels=[f"({a},{b})" for a in left.element_labels for b in right.element_labels],
    )


def _pair_table(lt, rt):
    """The table on pairs read entrywise off lt and rt, (a, b) at index
    a*len(rt) + b."""
    m = len(rt)
    return [[x * m + y for x in lrow for y in rrow] for lrow in lt for rrow in rt]


def ring_matrix(base, k, caps=DEFAULT_CAPS):
    """Full k x k matrices over base; k limited to 2 or 3."""
    if k not in (2, 3):
        raise ValueError(f"matrix size must be 2 or 3, got {k}")
    positions = [(i, j) for i in range(k) for j in range(k)]
    return _matrix_like(base, k, positions, f"M{k}({base.label})", caps)


def ring_upper_triangular(base, k, caps=DEFAULT_CAPS):
    """Upper triangular k x k matrices over base; k limited to 2 or 3."""
    if k not in (2, 3):
        raise ValueError(f"matrix size must be 2 or 3, got {k}")
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    return _matrix_like(base, k, positions, f"UT{k}({base.label})", caps)


def _matrix_like(base, k, positions, label, caps=DEFAULT_CAPS):
    """Matrix ring over the free entry positions, row-major digit encoding.

    The index of a matrix is sum over positions of entry * base.order**t,
    where t is the position's rank in `positions`.  Entries off the listed
    positions are zero and must stay zero under multiplication, which
    holds for the full and upper triangular position sets.
    """
    m, z = base.order, base.zero
    n = len(positions)
    order = m ** n
    _check_construction(order, caps)
    rank = {p: t for t, p in enumerate(positions)}
    digits = [[x // m ** t % m for x in range(order)] for t in range(n)]
    zero = z * sum(m ** t for t in range(n))

    def place(columns, size):
        # The indices of `size` matrices, each zero but at the positions p of
        # columns, where matrix y holds entry vals[y] for each (p, vals).
        out = [zero] * size
        for p, vals in columns:
            if p in rank:
                w = m ** rank[p]
                out = [x + (v - z) * w for x, v in zip(out, vals)]
            elif any(v != z for v in vals):
                raise InvariantViolation(f"matrix-shape: nonzero product entry at {p}")
        return out

    # Addition is entrywise: widen the table by one digit position at a time.
    add = base.add_table
    for _ in positions[1:]:
        add = _pair_table(base.add_table, add)

    # A matrix is the sum of its entries at their positions, and
    # multiplication is bi-additive.  So once the digits of x after position
    # t are set, setting digit t to d adds the unit row y -> (d at t)*y to
    # x's row.  Row i of (d at (i, j))*y is d times row j of y.
    mul = [None] * order
    mul[zero] = [zero] * order
    done = [zero]
    for t in reversed(range(n)):
        i, j = positions[t]
        cols = [(l, digits[rank[j, l]]) for l in range(k) if (j, l) in rank]
        new = []
        for d in range(m):
            if d == z:
                continue
            times_d = base.mul_table[d]
            unit = place([((i, l), [times_d[v] for v in col]) for l, col in cols], order)
            for x in done:
                y = x + (d - z) * m ** t
                mul[y] = [add[a][b] for a, b in zip(mul[x], unit)]
                new.append(y)
        done += new

    names = base.element_labels
    cells = [[[names[v] for v in digits[rank[i, j]]] if (i, j) in rank else [names[z]] * order
              for j in range(k)] for i in range(k)]
    labels = ["[" + ";".join(",".join(c[x] for c in row) for row in cells) + "]"
              for x in range(order)]
    one = place([((i, i), [base.one]) for i in range(k)], 1)[0]
    return FiniteRing(order, add, mul, zero, one, label=label, element_labels=labels)


def _check_construction(order, caps):
    if order > caps.order:
        raise SizeCapExceeded(
            f"constructed order {_decimal(order)} exceeds cap {_decimal(caps.order)}")


# 640 digits is the lowest int-to-str limit the interpreter accepts, so an int
# of at most that many digits converts both ways under any limit.
_SAFE_DIGITS = 640
_DECIMAL_CHUNK = 10 ** _SAFE_DIGITS


def _decimal(c):
    """Exact decimal text of an int of any length, converted _SAFE_DIGITS
    digits at a time so that no int-to-str digit limit applies."""
    if -_DECIMAL_CHUNK < c < _DECIMAL_CHUNK:
        return str(c)
    digits, rest = [], abs(c)
    while rest >= _DECIMAL_CHUNK:
        rest, low = divmod(rest, _DECIMAL_CHUNK)
        digits.append(f"{low:0{_SAFE_DIGITS}d}")
    digits.append(str(rest))
    return ("-" if c < 0 else "") + "".join(reversed(digits))


# ---------------------------------------------------------------------------
# subsets, annihilators, ideals


def _check_subset(ring, subset):
    xs = sorted(set(subset))
    if not xs:
        raise EmptySubset("operation needs a nonempty subset")
    for x in xs:
        if not _is_index(x, ring.order):
            raise ValueError(f"element {x!r} not in ring of order {ring.order}")
    return xs


SIDES = ("right", "left")


def check_side(side):
    """Refuse, with a ValueError, any side but 'right' and 'left'."""
    if side not in SIDES:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def side_table(ring, side):
    """The multiplication table that turns a side question into a right one.

    'right' gives the ring's own table.  'left' gives its transpose, the table
    of the opposite ring: there x*a is a*x of the ring, so right annihilators,
    right ideals and principal ideals eR of the opposite ring are the left
    annihilators, left ideals and Re of the ring.
    """
    check_side(side)
    return ring.mul_table if side == "right" else ring._opposite


def idempotents(ring):
    """All e with e*e == e, ascending by index."""
    return tuple(e for e in range(ring.order) if ring.mul(e, e) == e)


def annihilator(ring, subset, side="right"):
    """Right (or left) annihilator of a nonempty subset, as a frozenset.

    The result is checked post hoc to be closed under addition and under
    ring multiplication on the matching side, i.e. to be a one-sided ideal.
    """
    xs = _check_subset(ring, subset)
    table, add, zero = side_table(ring, side), ring.add_table, ring.zero
    rows = [table[x] for x in xs]
    res = frozenset(a for a in range(ring.order) if all(row[a] == zero for row in rows))
    for a in res:
        for b in res:
            if add[a][b] not in res:
                raise InvariantViolation("annihilator not additively closed")
    for a in res:
        if not res.issuperset(table[a]):
            raise InvariantViolation("annihilator not an ideal on its side")
    return res


def check_power(n):
    """Refuse a power that is no int, or a bool (ValueError), or below 1
    (NonpositiveExponent)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"power exponent must be an int, got {n!r}")
    if n < 1:
        raise NonpositiveExponent(f"power exponent must be >= 1, got {n}")


def subset_power(ring, subset, n):
    """The set of all n-fold products x1*...*xn with every xi in subset.

    This is a set of products, not their additive span.
    """
    xs = _check_subset(ring, subset)
    check_power(n)
    cur = frozenset(xs)
    for _ in range(n - 1):
        cur = frozenset(ring.mul(p, x) for p in cur for x in xs)
    return cur


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


def additive_generators(ring, subset):
    """Members of subset, ascending, each outside the additive span of the
    ones kept before it; together they span the additive subgroup that
    subset generates.

    The span is the closure of {zero} under y -> y + g for the kept g, a
    breadth-first walk that assumes no ring axiom, so _proven_ring can use
    it on unproven tables.  {0} gives no generators.
    """
    add = ring.add_table
    span = {ring.zero}
    gens = []
    for x in _check_subset(ring, subset):
        if x in span:
            continue
        gens.append(x)
        queue = list(span)
        for y in queue:
            row = add[y]
            for g in gens:
                z = row[g]
                if z not in span:
                    span.add(z)
                    queue.append(z)
    return tuple(gens)


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


def enumerate_ideals(ring, side="right", caps=DEFAULT_CAPS):
    """All one-sided ideals, ascending by size then by sorted member tuple.

    In a unital ring every one-sided ideal is the sum of the principal ideals
    xR (right) or Rx (left) of its members, and the sum of two ideals is
    {a + b}.  A principal ideal that is the sum of the principal ideals
    strictly inside it is redundant, and each principal ideal is a sum of
    the irreducible ones (those that are not).  So closing {0} under adding
    one irreducible principal ideal reaches every ideal and nothing else.
    One pass over the distinct principal ideals, rows of the side table, in
    ascending size finds the irreducible ones: the ones inside a p are
    already known when p comes.
    """
    if ring.order > caps.ideal:
        raise SizeCapExceeded(f"ideal enumeration capped at order {caps.ideal}, ring has {ring.order}")
    add, zero = ring.add_table, frozenset({ring.zero})
    irreducible = []
    for p in sorted(dict.fromkeys(map(frozenset, side_table(ring, side))), key=len):
        below = zero
        for q in irreducible:
            if q < p:
                below = _ideal_sum(add, below, q)
        if below != p:
            irreducible.append(p)
    found = {zero}
    queue = [zero]
    for ideal in queue:
        for p in irreducible:
            if p <= ideal:
                continue
            bigger = _ideal_sum(add, ideal, p)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


# ---------------------------------------------------------------------------
# endomorphisms


class RingEndomorphism(FrozenRecord):
    """A unital ring endomorphism, stored as the image tuple of 0..order-1."""

    __slots__ = ("ring", "image")

    def __init__(self, ring, image):
        image = tuple(image)
        n = ring.order
        if len(image) != n or any(not _is_index(y, n) for y in image):
            raise ValueError("image must list one ring element per element")
        if image[ring.zero] != ring.zero:
            raise ValueError("endomorphism must fix 0")
        if image[ring.one] != ring.one:
            raise ValueError("endomorphism must fix 1")
        # Checking on the additive generators G is exact.  The b with
        # image(a + b) == image(a) + image(b) for all a are closed under +
        # and hold G, so they are all of R.  Then image(ab) - image(a)image(b)
        # is bi-additive, so it vanishes once it vanishes on G x G.
        add, mul, gens = ring.add_table, ring.mul_table, ring._generators
        for a in range(n):
            for g in gens:
                if image[add[a][g]] != add[image[a]][image[g]]:
                    raise ValueError(f"not additive at ({a},{g})")
        for g in gens:
            for h in gens:
                if image[mul[g][h]] != mul[image[g]][image[h]]:
                    raise ValueError(f"not multiplicative at ({g},{h})")
        super().__init__(ring, image)

    def __call__(self, x):
        return self.image[x]

    def compose(self, inner):
        """self after inner: x maps to self(inner(x))."""
        if inner.ring is not self.ring:
            raise ValueError("cannot compose endomorphisms of different rings")
        return RingEndomorphism(self.ring, tuple(self.image[y] for y in inner.image))

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


def enumerate_endomorphisms(ring, caps=DEFAULT_CAPS):
    """All unital ring endomorphisms, sorted by image tuple.

    A map is fixed by its images of the additive generators G, and checking
    it on G is exact (see RingEndomorphism).  So the search backtracks over
    the images of G in turn, ascending, extending the map over the span by
    the walk y -> y + g.  A sum reached twice with two different images ends
    the branch, and so does a product of chosen generators whose image is
    known and is not the product of theirs.  The full maps that fix 1 remain.
    """
    if ring.order > caps.endo:
        raise SizeCapExceeded(f"endomorphism search capped at order {caps.endo}, ring has {ring.order}")
    n, add, mul, gens = ring.order, ring.add_table, ring.mul_table, ring._generators

    def fits(img, chosen):
        return all(img[mul[g][h]] in (None, mul[img[g]][img[h]]) for g in chosen for h in chosen)

    def spread(img, span):
        # The walk from span, a subgroup on which img is additive, then g =
        # span[-1].  For y = s + m*g with s in the subgroup, img(y + h) =
        # img(s + h) + m*img(g) = img(y) + img(h) at each earlier generator h.
        plus_g, plus_v = add[span[-1]], add[img[span[-1]]]
        for y in span:
            z, w = plus_g[y], plus_v[img[y]]
            if img[z] is None:
                img[z] = w
                span.append(z)
            elif img[z] != w:
                return False
        return True

    def extend(img, span, k):
        if k == len(gens):
            yield tuple(img)
            return
        g, chosen = gens[k], gens[:k + 1]
        for v in range(n):
            trial, grown = img.copy(), span + [g]
            trial[g] = v
            # Products check before the walk, which they often spare, and after.
            if fits(trial, chosen) and spread(trial, grown) and fits(trial, chosen):
                yield from extend(trial, grown, k + 1)

    maps = extend([ring.zero if x == ring.zero else None for x in range(n)], [ring.zero], 0)
    return [RingEndomorphism(ring, img) for img in sorted(maps) if img[ring.one] == ring.one]


def endo_property(sigma):
    """Certificate that one endomorphism is compatible: a*b == 0 exactly
    when a*sigma(b) == 0, for all pairs."""
    ring = sigma.ring
    zero = ring.zero
    for a in range(ring.order):
        for b in range(ring.order):
            if (ring.mul(a, b) == zero) != (ring.mul(a, sigma(b)) == zero):
                return PropertyCertificate(
                    "no", witness=(a, b),
                    notes=f"a*b and a*sigma(b) disagree on vanishing at a={a}, b={b}",
                )
    return PropertyCertificate("yes", notes=f"exhaustive over all {ring.order}^2 pairs")


def is_reduced(ring):
    """Certificate: no nonzero element squares to zero."""
    for a in range(ring.order):
        if a != ring.zero and ring.mul(a, a) == ring.zero:
            return PropertyCertificate("no", witness=(a,), notes=f"a^2 == 0 for nonzero a={a}")
    return PropertyCertificate("yes", notes=f"exhaustive over all {ring.order} elements")
