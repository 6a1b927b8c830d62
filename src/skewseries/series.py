"""Finite-support skew series over a finite coefficient ring.

A series is a finitely supported map from exponent monoid elements to
nonzero ring elements.  Multiplication twists coefficients through the
endomorphism attached to the left factor's exponent, and all arithmetic
here is exact: finite supports make every convolution a finite sum.
"""

from __future__ import annotations

import itertools
import random

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
    FiniteRing,
    PropertyCertificate,
    RingEndomorphism,
    endo_property,
    identity_endomorphism,
    is_reduced,
)

ARMENDARIZ_BUDGET = 2_000_000


class SkewContext:
    """A ring, an exponent monoid, and the twist action of the exponents.

    The twist is given on monoid generators; images of arbitrary exponents
    are composites, cached per exponent.  Generators must commute as maps
    (the monoid is commutative), and over the integers the generator at 1
    must be an automorphism whose inverse is the image at -1.
    """

    def __init__(self, ring: FiniteRing, monoid: OrderedMonoid, sigma=None):
        self.ring = ring
        self.monoid = monoid
        gens = monoid.generators()
        if sigma is None:
            sigma = identity_endomorphism(ring)
        if isinstance(sigma, RingEndomorphism):
            if monoid.kind == "nat_k":
                sigmas = (sigma,) * monoid.k
            else:
                sigmas = (sigma,)
        else:
            sigmas = tuple(sigma)
        if monoid.kind == "int":
            if len(sigmas) != 1:
                raise ValueError("int exponents take a single generator map")
            base = sigmas[0]
            if not base.is_bijective:
                raise AxiomViolation("twist-automorphism", None,
                                     "twist over the integers must be an automorphism")
            self.omega_gen = {(1,): base, (-1,): base.inverse()}
        else:
            if len(sigmas) != len(gens):
                raise ValueError(f"expected {len(gens)} generator maps, got {len(sigmas)}")
            self.omega_gen = dict(zip(gens, sigmas))
        for g, s in self.omega_gen.items():
            if s.ring is not ring:
                raise ValueError("generator map acts on a different ring")
        maps = list(self.omega_gen.items())
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                gi, si = maps[i]
                gj, sj = maps[j]
                if si.compose(sj).image != sj.compose(si).image:
                    raise AxiomViolation("twist-commutativity", (gi, gj))
        self._omega_cache = {monoid.identity(): identity_endomorphism(ring)}

    def omega(self, s) -> RingEndomorphism:
        """The twist endomorphism at exponent s (composite of generators)."""
        s = normalize_exponent(self.monoid, s)
        cached = self._omega_cache.get(s)
        if cached is not None:
            return cached
        # Peel one generator step off the first nonzero coordinate.
        for i, c in enumerate(s):
            if c == 0:
                continue
            step = [0] * self.monoid.k
            step[i] = 1 if c > 0 else -1
            rest = list(s)
            rest[i] -= step[i]
            gen_map = self.omega_gen[tuple(step) if self.monoid.kind == "int" else self._unit(i)]
            result = gen_map.compose(self.omega(tuple(rest)))
            self._omega_cache[s] = result
            return result
        raise AssertionError("unreachable: identity is pre-cached")

    def _unit(self, i):
        v = [0] * self.monoid.k
        v[i] = 1
        return tuple(v)

    def check_twist_homomorphism(self, bound):
        """Assert omega(u+v) == omega(u) after omega(v) on a box; certificate."""
        box = self.monoid.box(bound)
        for u in box:
            for v in box:
                lhs = self.omega(self.monoid.op(u, v))
                rhs = self.omega(u).compose(self.omega(v))
                if lhs.image != rhs.image:
                    return PropertyCertificate("no", witness=(u, v))
        return PropertyCertificate("yes", notes=f"exhaustive on the bound-{bound} box")

    def __repr__(self):
        return f"SkewContext({self.ring.label}, {self.monoid!r})"


def normalize_exponent(monoid, e):
    """Accept bare ints for arity-1 monoids; validate and return a tuple."""
    if isinstance(e, int) and not isinstance(e, bool) and monoid.k == 1:
        e = (e,)
    return monoid.validate(e)


class SkewSeries:
    """An immutable finite-support series tied to one SkewContext."""

    __slots__ = ("context", "_terms", "_key")

    def __init__(self, context, terms):
        self.context = context
        ring, monoid = context.ring, context.monoid
        clean = {}
        for e, c in terms.items():
            e = normalize_exponent(monoid, e)
            if not isinstance(c, int) or not 0 <= c < ring.order:
                raise ForeignElement(f"coefficient {c!r} not in ring of order {ring.order}")
            if e in clean:
                raise DuplicateExponent(f"exponent {e} given twice")
            if c != ring.zero:
                clean[e] = c
        self._terms = clean
        self._key = tuple(sorted(clean.items()))

    @property
    def support(self):
        return frozenset(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def coeff(self, e):
        e = normalize_exponent(self.context.monoid, e)
        return self._terms.get(e, self.context.ring.zero)

    def items(self):
        """Terms in ascending refined order (exponent, coefficient)."""
        return list(self._key)

    @property
    def sort_key(self):
        return self._key

    def __add__(self, other):
        self._check_context(other)
        ring = self.context.ring
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = ring.add(acc.get(e, ring.zero), c)
        return SkewSeries(self.context, acc)

    def __mul__(self, other):
        self._check_context(other)
        ctx = self.context
        ring, monoid = ctx.ring, ctx.monoid
        acc = {}
        for u, a in self._terms.items():
            twist = ctx.omega(u).image
            for v, b in other._terms.items():
                s = monoid.op(u, v)
                acc[s] = ring.add(acc.get(s, ring.zero), ring.mul(a, twist[b]))
        return SkewSeries(ctx, acc)

    def __neg__(self):
        ring = self.context.ring
        return SkewSeries(self.context, {e: ring.neg(c) for e, c in self._terms.items()})

    def _check_context(self, other):
        if not isinstance(other, SkewSeries) or other.context is not self.context:
            raise MixedContexts("series belong to different skew contexts")

    def __eq__(self, other):
        return (
            isinstance(other, SkewSeries)
            and other.context is self.context
            and other._key == self._key
        )

    def __hash__(self):
        return hash((id(self.context), self._key))

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


def identity_series(ctx):
    return const_embed(ctx, ctx.ring.one)


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
    n = ctx.ring.order
    for vec in itertools.product(range(n), repeat=len(slots)):
        yield SkewSeries(ctx, dict(zip(slots, vec)))


def armendariz_search(ctx, support_box, mode="exhaustive", budget=ARMENDARIZ_BUDGET, seed=0):
    """Bounded refutation search for the annihilator-splitting property.

    Scans pairs (f, g) with supports in the box; whenever f*g == 0 it checks
    that every twisted coefficient product f(s)*omega_s(g(t)) vanishes.  A
    violation yields verdict 'no' with witness (f, g, s, t).  No search can
    certify the property, so the other verdict is 'unknown-at-bound'.
    """
    ring, monoid = ctx.ring, ctx.monoid
    slots = normalize_box(monoid, support_box)
    k = len(slots)
    n = ring.order
    zero = ring.zero
    twists = [ctx.omega(u).image for u in slots]
    add_t, mul_t = ring.add_table, ring.mul_table

    # Group slot index pairs by their exponent sum, ascending, so products
    # are checked coefficient by coefficient with early exit.
    sums = {}
    for ui in range(k):
        for vi in range(k):
            sums.setdefault(monoid.op(slots[ui], slots[vi]), []).append((ui, vi))
    sum_groups = [sums[s] for s in sorted(sums)]

    if mode == "exhaustive":
        total = (n ** k) ** 2
        if total > budget:
            raise BudgetExceeded(
                f"exhaustive search needs {total} pairs, budget is {budget}")
        vectors = list(itertools.product(range(n), repeat=k))
        pair_iter = ((f, g) for f in vectors for g in vectors)
        scope = f"exhaustive over all {total} pairs with support in {list(slots)}"
    elif mode == "sampled":
        rng = random.Random(seed * 1_000_003 + 17)
        def sample_pairs():
            for _ in range(budget):
                f = tuple(rng.randrange(n) for _ in range(k))
                g = tuple(rng.randrange(n) for _ in range(k))
                yield f, g
        pair_iter = sample_pairs()
        scope = f"{budget} sampled pairs with support in {list(slots)} (seed {seed})"
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")

    for fvec, gvec in pair_iter:
        annihilating = True
        for group in sum_groups:
            acc = zero
            for ui, vi in group:
                a = fvec[ui]
                if a == zero:
                    continue
                acc = add_t[acc][mul_t[a][twists[ui][gvec[vi]]]]
            if acc != zero:
                annihilating = False
                break
        if not annihilating:
            continue
        for ui in range(k):
            a = fvec[ui]
            if a == zero:
                continue
            for vi in range(k):
                if mul_t[a][twists[ui][gvec[vi]]] != zero:
                    f = SkewSeries(ctx, dict(zip(slots, fvec)))
                    g = SkewSeries(ctx, dict(zip(slots, gvec)))
                    return PropertyCertificate(
                        "no",
                        witness=(f, g, slots[ui], slots[vi]),
                        notes=f"f*g == 0 but f({_fmt_exp(slots[ui])})*omega(g({_fmt_exp(slots[vi])})) != 0; {scope}",
                    )
    return PropertyCertificate("unknown-at-bound", notes=scope)


def s_compatibility_check(ctx, which="compatible"):
    """Certificate that every exponent's twist map is compatible (or rigid).

    Only generator maps are scanned directly.  For 'compatible' this is
    enough: compatibility is closed under composition, and every twist is
    a composite of generator maps.  For 'rigid' the scan adds a reducedness
    check, since a compatible map on a reduced ring is rigid, and the twist
    at the identity exponent is the identity map, which is rigid only on
    reduced rings.
    """
    items = sorted(ctx.omega_gen.items())
    if which == "compatible":
        for gen, sigma in items:
            cert = endo_property(sigma, "compatible")
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
    if which == "rigid":
        for gen, sigma in items:
            cert = endo_property(sigma, "rigid")
            if cert.verdict == "no":
                return PropertyCertificate(
                    "no", witness=(gen,) + cert.witness,
                    notes=f"generator map at {gen} is not rigid",
                )
        reduced = is_reduced(ctx.ring)
        if reduced.verdict == "no":
            return PropertyCertificate(
                "no", witness=(ctx.monoid.identity(),) + reduced.witness,
                notes="ring is not reduced, so the identity twist is not rigid",
            )
        for gen, sigma in items:
            cert = endo_property(sigma, "compatible")
            if cert.verdict == "no":
                return PropertyCertificate(
                    "no", witness=(gen,) + cert.witness,
                    notes="generator map is not compatible, hence some composite twist is not rigid",
                )
        return PropertyCertificate(
            "yes",
            notes="ring reduced and all generator maps compatible; a compatible "
                  "map on a reduced ring is rigid, and compatibility is closed "
                  "under composition",
        )
    raise ValueError(f"which must be 'compatible' or 'rigid', got {which!r}")


def _fmt_exp(e):
    return str(e[0]) if len(e) == 1 else ",".join(str(c) for c in e)


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
