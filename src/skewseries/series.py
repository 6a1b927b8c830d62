"""Finite-support skew series over a finite coefficient ring.

A series is a finitely supported map from exponent monoid elements to
nonzero ring elements.  Multiplication twists coefficients through the
endomorphism attached to the left factor's exponent, and all arithmetic
here is exact: finite supports make every convolution a finite sum.

Exponents and coefficients are validated where they enter: the SkewSeries
constructor, series_from_pairs, parse_series_literal, normalize_box, coeff
and exp_embed.  Sums, products, box series and the box kernel build results
from values already checked, through SkewSeries._trusted.
"""

import itertools
from operator import add

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    DuplicateExponent,
    ForeignElement,
    MixedContexts,
    SpecFormatError,
)
from .monoids import OrderedMonoid
from .rings import (
    ARMENDARIZ_BUDGET,
    FiniteRing,
    PropertyCertificate,
    RingEndomorphism,
    _decimal,
    _is_index,
    endo_property,
    identity_endomorphism,
)


class SkewContext:
    """A ring, an exponent monoid, and the twist action of the exponents.

    The twist is one endomorphism sigma of the ring: the map at exponent s
    is sigma^(s_1+...+s_k), so s -> omega(s) is a monoid homomorphism into
    End(R).  Fields: ring, monoid, sigma, _powers (sigma^0, sigma^1, ... up
    to the first repeated image, so every power is one lookup) and
    _cycle_start (where their cycle starts; 0 over the integers, where
    sigma must be an automorphism and sigma^-d is a positive power).
    """

    def __init__(self, ring: FiniteRing, monoid: OrderedMonoid, sigma=None):
        if sigma is None:
            sigma = identity_endomorphism(ring)
        if not isinstance(sigma, RingEndomorphism) or sigma.ring is not ring:
            raise ValueError("the twist must be one endomorphism of the context's ring")
        if monoid.kind == "int" and not sigma.is_bijective:
            raise AxiomViolation("twist-automorphism", None,
                                 "twist over the integers must be an automorphism")
        self.ring = ring
        self.monoid = monoid
        self.sigma = sigma
        # The first repeated power is dropped; its index starts the cycle.
        powers, index = [identity_endomorphism(ring)], {}
        while powers[-1].image not in index:
            index[powers[-1].image] = len(powers) - 1
            powers.append(sigma.compose(powers[-1]))
        self._cycle_start = index[powers.pop().image]
        self._powers = powers

    def omega(self, s) -> RingEndomorphism:
        """The twist endomorphism at exponent s: sigma to the coordinate sum."""
        return _power(self, sum(normalize_exponent(self.monoid, s)))

    def __repr__(self):
        return f"SkewContext({self.ring.label}, {self.monoid!r})"


def _power(ctx, d):
    """sigma^d, with d reduced into the cycle of the power list."""
    start, powers = ctx._cycle_start, ctx._powers
    if not 0 <= d < start:
        d = start + (d - start) % (len(powers) - start)
    return powers[d]


def _twist(ctx, u):
    """Image table of the twist at an already validated exponent u."""
    return _power(ctx, sum(u)).image


def normalize_exponent(monoid, e):
    """Accept bare ints for arity-1 monoids; validate and return a tuple."""
    if isinstance(e, int) and not isinstance(e, bool) and monoid.k == 1:
        e = (e,)
    return monoid.validate(e)


class SkewSeries:
    """An immutable finite-support series tied to one SkewContext, stored as
    _terms, the ascending tuple of its (exponent, nonzero coefficient) pairs."""

    __slots__ = ("context", "_terms")

    def __init__(self, context, terms):
        self.context = context
        ring, monoid = context.ring, context.monoid
        clean, seen = {}, set()
        for e, c in terms.items():
            e = normalize_exponent(monoid, e)
            if not _is_index(c, ring.order):
                raise ForeignElement(f"coefficient {c!r} not in ring of order {ring.order}")
            if e in seen:
                raise DuplicateExponent(f"exponent {e} given twice")
            seen.add(e)
            if c != ring.zero:
                clean[e] = c
        self._terms = tuple(sorted(clean.items()))

    @classmethod
    def _trusted(cls, context, terms):
        """Wrap terms known to be valid: ascending (exponent, nonzero
        coefficient) pairs of the context's monoid and ring.  Nothing is checked."""
        self = object.__new__(cls)
        self.context = context
        self._terms = terms
        return self

    @property
    def support(self):
        return frozenset(e for e, _ in self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def coeff(self, e):
        e = normalize_exponent(self.context.monoid, e)
        return next((c for s, c in self._terms if s == e), self.context.ring.zero)

    def items(self):
        """Terms in ascending exponent order, as (exponent, coefficient)."""
        return list(self._terms)

    @property
    def sort_key(self):
        return self._terms

    def __add__(self, other):
        self._check_context(other)
        ring = self.context.ring
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = ring.add(acc.get(e, ring.zero), c)
        return SkewSeries._trusted(
            self.context, tuple(sorted((e, c) for e, c in acc.items() if c != ring.zero)))

    def __mul__(self, other):
        # Operands are already validated, so exponents add as plain tuples and
        # the result skips the constructor's checks.
        self._check_context(other)
        ctx = self.context
        ring = ctx.ring
        add_t, mul_t, zero = ring.add_table, ring.mul_table, ring.zero
        acc = {}
        for u, a in self._terms:
            twist = _twist(ctx, u)
            row = mul_t[a]
            for v, b in other._terms:
                s = tuple(map(add, u, v))
                acc[s] = add_t[acc.get(s, zero)][row[twist[b]]]
        return SkewSeries._trusted(ctx, tuple(sorted((s, c) for s, c in acc.items() if c != zero)))

    def _check_context(self, other):
        if not isinstance(other, SkewSeries) or other.context is not self.context:
            raise MixedContexts("series belong to different skew contexts")

    def __eq__(self, other):
        return (
            isinstance(other, SkewSeries)
            and other.context is self.context
            and other._terms == self._terms
        )

    def __hash__(self):
        # Not the context's id: sets of series must iterate in the same order
        # in every run.
        return hash(self._terms)

    def __repr__(self):
        return f"<series {format_series(self)}>"


def series_from_pairs(ctx, pairs):
    """Build a series from (coefficient, exponent) pairs; zeros are dropped."""
    terms = {}
    monoid = ctx.monoid
    for c, e in pairs:
        e = normalize_exponent(monoid, e)
        if e in terms:
            raise DuplicateExponent(f"exponent {e} given twice")
        terms[e] = c
    return SkewSeries(ctx, terms)


def zero_series(ctx):
    return SkewSeries(ctx, {})


def const_embed(ctx, r):
    """The constant series with value r at the identity exponent."""
    return SkewSeries(ctx, {ctx.monoid.identity(): r})


def exp_embed(ctx, s):
    """The series with coefficient 1 at exponent s."""
    return SkewSeries(ctx, {normalize_exponent(ctx.monoid, s): ctx.ring.one})


def is_idempotent_series(f):
    return f * f == f


def normalize_box(monoid, box):
    """Sorted tuple of distinct validated exponents."""
    points = sorted({normalize_exponent(monoid, e) for e in box})
    if not points:
        raise ValueError("support box must be nonempty")
    return tuple(points)


def all_series(ctx, box):
    """Every series with support inside box, in canonical enumeration order.

    Coefficient vectors run through itertools.product over the sorted box
    slots, so the zero series comes first and the order is reproducible.
    """
    slots = normalize_box(ctx.monoid, box)
    for vec in itertools.product(range(ctx.ring.order), repeat=len(slots)):
        yield _box_series(ctx, slots, vec)


def _box_series(ctx, slots, vec):
    """The series with coefficient vec[i] at slots[i]; slots come from
    normalize_box and vec holds ring elements, so nothing is rechecked."""
    zero = ctx.ring.zero
    return SkewSeries._trusted(ctx, tuple((e, c) for e, c in zip(slots, vec) if c != zero))


def _annihilating_vectors(ctx, slots, products, budget=None):
    """Every coefficient vector g over the box slots with p*g == 0 for all p.

    `products` are sequences of (exponent, coefficient) pairs, exponents validated.
    Coefficient s of p*g is the sum over u+v = s of p(u)*omega_u(g(v)), one
    term per slot since u = s - v.  Each (p, s) is one constraint on g: a
    composed row b -> p(u)*omega_u(b) per slot.  The vectors come from _walk
    with every value allowed, in itertools.product order.
    """
    # Products share one row per distinct (u, a): terms_of[(u, a)] lists per
    # slot j the term (u + slots[j], (j, id of the row of a*omega_u)).
    rows, fits, terms_of, per_product = [], [], {}, []
    for p in products:
        terms = []
        for ua in p:
            term = terms_of.get(ua)
            if term is None:
                u, a = ua
                row, masks = _row(ctx.ring, _twist(ctx, u), a)
                rows.append(row)
                fits.append(masks)
                term = terms_of[ua] = [(tuple(map(add, u, v)), (j, len(rows) - 1))
                                       for j, v in enumerate(slots)]
            terms.append(term)
        per_product.append(terms)
    layout = _layout(len(slots), per_product)
    yield from _walk(ctx.ring, layout, rows, fits, (1 << ctx.ring.order) - 1, budget)


def _row(ring, twist, a):
    """The row b -> a*twist[b] of one twisted term, and its value masks:
    masks[t] has bit b set when the row maps b to t."""
    row_a = ring.mul_table[a]
    row = tuple(row_a[twist[b]] for b in range(ring.order))
    masks = [0] * ring.order
    for b, c in enumerate(row):
        masks[c] |= 1 << b
    return row, masks


def _layout(k, per_product):
    """The constraints of products, filed for _walk under their last slot.

    per_product[p][i][j] is (exponent, (j, row id)) for term i of product p
    at slot j, and the entries at one exponent of one product are one
    constraint.  Slot j lists (r, earliers) per row id r ending a constraint
    there, earliers being the set of those constraints' other entries.
    """
    by_last = [{} for _ in range(k)]
    for terms in per_product:
        groups = {}
        for j in range(k):
            for term in terms:
                s, entry = term[j]
                groups.setdefault(s, []).append(entry)
        for group in groups.values():
            j, r = group.pop()
            by_last[j].setdefault(r, set()).add(tuple(group))
    return [list(last.items()) for last in by_last]


def _walk(ring, layout, rows, fits, allowed, budget):
    """Every vector over the slots with values in the mask allowed that zeroes
    each constraint of layout (see _layout), in itertools.product order.

    An entry (j, r) stands for rows[r][g(j)]; fits[r][t] is the bitmask of
    values b with rows[r][b] == t.  Vectors are built depth first, in
    ascending values, trying at each slot only the allowed values that zero
    the constraints ending there.  With a budget, BudgetExceeded is raised
    once more than budget values have been tried.
    """
    zero, add_t, neg = ring.zero, ring.add_table, ring.neg_table
    k = len(layout)
    # pending[j] holds the values still to try at slot j, lowest bit first.
    vec = [zero] * k
    pending = [0] * k
    tried = 0
    j, entering = 0, True
    while j >= 0:
        if entering:
            values = allowed
            for r, earliers in layout[j]:
                fit = fits[r]
                for earlier in earliers:
                    acc = zero
                    for i, q in earlier:
                        acc = add_t[acc][rows[q][vec[i]]]
                    values &= fit[neg[acc]]
            pending[j] = values
        values = pending[j]
        if not values:
            j, entering = j - 1, False
            continue
        low = values & -values
        pending[j] = values ^ low
        vec[j] = low.bit_length() - 1
        tried += 1
        if budget is not None and tried > budget:
            raise BudgetExceeded(f"annihilator search tried more than {budget} slot values")
        if j + 1 == k:
            entering = False
            yield tuple(vec)
        else:
            j, entering = j + 1, True


# Counts from here on have more digits than int-to-str allows by default.
_EXACT_COUNT = 10 ** 4300


def armendariz_pair_count(ring, points, budget):
    """Pairs (f, g) an exhaustive Armendariz scan over a box of that many
    points covers, n^(2*points); BudgetExceeded when that is more than budget,
    or when the points are, which only a one-element ring's count allows
    (for n >= 2, n^(2p) >= 4^p > p).

    An over-budget count below _EXACT_COUNT is named in full, any other as
    the power n^p.  As n^p >= 2^(p*(bit length of n - 1)), the exponent
    alone may show the count over budget and at least _EXACT_COUNT; then
    it is never built.
    """
    n, power = ring.order, 2 * points
    total = _EXACT_COUNT  # an unbuilt count is at least this
    if power <= budget.bit_length() or power * (n.bit_length() - 1) < _EXACT_COUNT.bit_length():
        total = n ** power
        if total <= budget:
            if points <= budget:
                return total
            raise BudgetExceeded(f"exhaustive search needs a box of {_decimal(points)} points, "
                                 f"budget is {_decimal(budget)}")
    count = _decimal(total) if total < _EXACT_COUNT else f"{n}^{_decimal(power)}"
    raise BudgetExceeded(f"exhaustive search needs {count} pairs, budget is {_decimal(budget)}")


def armendariz_search(ctx, support_box, budget=ARMENDARIZ_BUDGET):
    """Exhaustive refutation search for the annihilator-splitting property.

    Scans pairs (f, g) with supports in the box; whenever f*g == 0 it checks
    that every twisted coefficient product f(s)*omega_s(g(t)) vanishes.  A
    violation yields verdict 'no' with witness (f, g, s, t).  The scan covers
    only the box, so the other verdict is 'unknown-at-bound'.  Each f is
    decided on least coset representatives, which gives the witness a scan
    of every g would (see _armendariz_refutation).
    """
    ring = ctx.ring
    slots = normalize_box(ctx.monoid, support_box)
    total = armendariz_pair_count(ring, len(slots), budget)
    n = ring.order
    mul_t = ring.mul_table
    scope = (f"exhaustive over all {total} pairs with support in "
             f"[{', '.join(map(_repr_exp, slots))}]")
    # Left multiplication by a unit c keeps f*g == 0 and each twisted
    # term's vanishing, since (c*f)(u)*omega_u(g(v)) = c*(f(u)*omega_u(g(v))).
    # So c*f refutes exactly when f does, with the same g, and the first
    # refuting f in product order is the least of its unit orbit: only
    # orbit minima are scanned, and they stand for every pair.  In a finite
    # ring c*d == 1 gives d*c == 1, so the units are the rows holding one.
    one = ring.one
    unit_rows = [row for c, row in enumerate(mul_t) if c != one and one in row]
    rows_at = [[_row(ring, _twist(ctx, u), a) for a in range(n)] for u in slots]
    layouts, transversals = {}, {}
    zero_f = (ring.zero,) * len(slots)
    for fvec in itertools.product(range(n), repeat=len(slots)):
        if fvec == zero_f or any(tuple(map(row.__getitem__, fvec)) < fvec for row in unit_rows):
            continue
        found = _armendariz_refutation(ring, slots, fvec, rows_at, layouts, transversals)
        if found is not None:
            gvec, u, v = found
            return PropertyCertificate(
                "no",
                witness=(_box_series(ctx, slots, fvec), _box_series(ctx, slots, gvec), u, v),
                notes=f"f*g == 0 but f({_fmt_exp(u)})*omega(g({_fmt_exp(v)})) != 0; {scope}",
            )
    return PropertyCertificate("unknown-at-bound", notes=scope)


def _armendariz_refutation(ring, slots, fvec, rows_at, layouts, transversals):
    """(g, u, v) for the first g in product order with f*g == 0 and a nonzero
    twisted term f(u)*omega_u(g(v)), and its first such (u, v); None when
    no g refutes the nonzero f with coefficient vector fvec.

    K = {b : f(u)*omega_u(b) == 0 for every term of f} and G = {g : f*g ==
    0} are additive groups, each twist being additive, and G holds K^k.  A
    g in G refutes exactly when it lies outside K^k.  Sending each g(v) to
    the least index of its coset g(v) + K subtracts a vector of K^k: the
    image lies in G, no later than g in product order, and outside K^k
    exactly when g does.  So the first refuting g is its own image, and the
    walk tries only least coset indices; a non-refuting f meets one vector.

    rows_at[p][a] is (row, masks) of coefficient a at slot p (see _row);
    layouts (per support pattern) and transversals (per K) fill as needed.
    """
    zero = ring.zero
    pattern = tuple(p for p, a in enumerate(fvec) if a != zero)
    rows, fits = zip(*[rows_at[p][fvec[p]] for p in pattern])
    kernel = (1 << ring.order) - 1
    for masks in fits:
        kernel &= masks[zero]
    # The constraints of f*g == 0 depend only on where f is nonzero; their
    # row ids index f's terms.
    layout = layouts.get(pattern)
    if layout is None:
        terms = [[(tuple(map(add, slots[p], v)), (j, i)) for j, v in enumerate(slots)]
                 for i, p in enumerate(pattern)]
        layout = layouts[pattern] = _layout(len(slots), [terms])
    # The one walked vector inside K^k holds the least index of K at every
    # slot; every other walked vector has a nonzero twisted term.
    transversal = transversals.get(kernel)
    if transversal is None:
        members = [x for x in range(ring.order) if kernel >> x & 1]
        transversal = transversals[kernel] = (
            sum(1 << b for b, sums in enumerate(ring.add_table)
                if all(sums[x] >= b for x in members)),
            (members[0],) * len(slots))
    least, inside = transversal
    for gvec in _walk(ring, layout, rows, fits, least, None):
        if gvec != inside:
            return gvec, *next((slots[pattern[i]], slots[j]) for i, row in enumerate(rows)
                               for j, b in enumerate(gvec) if row[b] != zero)
    return None


def s_compatibility_check(ctx):
    """Certificate that every exponent's twist map is compatible.

    Only generator maps are scanned directly.  That is enough: compatibility
    is closed under composition, and every twist is a composite of
    generator maps.
    """
    for gen in sorted(ctx.monoid.generators()):
        cert = endo_property(ctx.omega(gen))
        if cert.verdict == "no":
            return PropertyCertificate(
                "no", witness=(gen,) + cert.witness,
                notes=f"generator map at {gen} is not compatible",
            )
    return PropertyCertificate(
        "yes",
        notes="all generator maps compatible; compatibility is closed under "
              "composition, so the twist at every exponent is compatible",
    )


def _fmt_exp(e):
    return ",".join(map(_decimal, e))


def _repr_exp(e):
    """repr(e) of an exponent tuple, in exact decimal at any length."""
    return "(" + ", ".join(map(_decimal, e)) + ("," if len(e) == 1 else "") + ")"


def format_series(f):
    """Canonical text form: 'c@e + c@e' ascending, '0' for the zero series."""
    if f.is_zero:
        return "0"
    return " + ".join(f"{c}@{_fmt_exp(e)}" for e, c in f.items())


def parse_series_literal(ctx, text):
    """Parse 'coeff@exponent' terms joined by '+'; exponents int or comma tuple."""
    body = text.strip()
    if body in ("", "0"):
        return zero_series(ctx)
    pairs = []
    for chunk in body.split("+"):
        chunk = chunk.strip()
        coeff_str, sep, exp_str = chunk.partition("@")
        if not sep:
            raise SpecFormatError(f"series term {chunk!r} lacks '@'")
        try:
            coeff = int(coeff_str)
            exponent = tuple(int(p) for p in exp_str.split(","))
        except ValueError:
            raise SpecFormatError(f"cannot parse series term {chunk!r}")
        pairs.append((coeff, exponent))
    return series_from_pairs(ctx, pairs)
