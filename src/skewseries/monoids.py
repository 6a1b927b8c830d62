"""Commutative exponent monoids with strict compatible orders.

Elements are int tuples of a fixed arity.  Each monoid carries its declared
order mode plus a designated total refinement, so partial modes can always
be sharpened to a compatible strict total order when one is needed.
"""

import operator

from .errors import IllegalPairing, InvariantViolation, MixedMonoids
from .rings import PropertyCertificate


_MODES = {
    "nat": ("natural", "trivial"),
    "int": ("natural", "trivial"),
    "nat_k": ("product", "lex", "trivial"),
}

_STRICT = {
    "trivial": lambda u, v: False,
    "natural": lambda u, v: u[0] < v[0],
    "lex": operator.lt,
    "product": lambda u, v: u != v and all(map(operator.le, u, v)),
}


def _strict(mode):
    """The strict order of a mode, as a function of two valid exponents."""
    if mode not in _STRICT:
        raise InvariantViolation(f"unhandled mode {mode}")
    return _STRICT[mode]


class OrderedMonoid:
    """One of (N,+), (N^k,+), (Z,+) with a strict compatible order mode."""

    def __init__(self, kind, order_mode, k=1):
        if kind not in _MODES:
            raise ValueError(f"unknown monoid kind {kind!r}")
        if order_mode not in _MODES[kind]:
            raise IllegalPairing(f"kind {kind!r} does not admit order mode {order_mode!r}")
        if kind == "nat_k":
            if k < 2:
                raise ValueError(f"nat_k needs arity k >= 2, got {k}")
        else:
            k = 1
        self.kind = kind
        self.order_mode = order_mode
        self.k = k
        # Total refinement compatible with the base order; for already total
        # modes it is the mode itself.
        self.refined_mode = order_mode if order_mode in ("natural", "lex") else (
            "natural" if k == 1 else "lex")

    def identity(self):
        return (0,) * self.k

    def generators(self):
        """Monoid generators: unit vectors, plus -1 for the integers."""
        if self.kind == "int":
            return ((1,), (-1,))
        gens = []
        for i in range(self.k):
            v = [0] * self.k
            v[i] = 1
            gens.append(tuple(v))
        return tuple(gens)

    def validate(self, u):
        if not isinstance(u, tuple) or len(u) != self.k:
            raise MixedMonoids(f"{u!r} is not an arity-{self.k} exponent")
        for c in u:
            if not isinstance(c, int) or isinstance(c, bool):
                raise MixedMonoids(f"{u!r} has a non-integer coordinate")
            if self.kind != "int" and c < 0:
                raise MixedMonoids(f"{u!r} has a negative coordinate in {self.kind}")
        return u

    def op(self, u, v):
        """Componentwise addition."""
        self.validate(u)
        self.validate(v)
        return tuple(a + b for a, b in zip(u, v))

    def less(self, u, v, refined=False):
        """u < v in the order mode, or in its total refinement if refined."""
        self.validate(u)
        self.validate(v)
        return _strict(self.refined_mode if refined else self.order_mode)(u, v)

    def box(self, bound):
        """All elements with coordinates of magnitude <= bound, sorted as the loop builds them."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        lo = -bound if self.kind == "int" else 0
        coords = range(lo, bound + 1)
        out = [()]
        for _ in range(self.k):
            out = [pre + (c,) for pre in out for c in coords]
        return out

    def box_size(self, bound):
        """len(self.box(bound)), without building the box."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        side = 2 * bound + 1 if self.kind == "int" else bound + 1
        return side ** self.k

    def __eq__(self, other):
        return (
            isinstance(other, OrderedMonoid)
            and (self.kind, self.order_mode, self.k) == (other.kind, other.order_mode, other.k)
        )

    def __hash__(self):
        return hash((self.kind, self.order_mode, self.k))

    def __repr__(self):
        arity = f"({self.k})" if self.kind == "nat_k" else ""
        return f"OrderedMonoid({self.kind}{arity}, {self.order_mode})"


def check_order_axioms(monoid, bound, lt=None):
    """Exhaustively check the strict order on a coordinate box.

    Verifies irreflexivity, antisymmetry, transitivity, and strict
    translation compatibility (addition commutes, so one side covers both).
    `lt`, which can inject a corrupted comparator for testing the checker
    itself, is asked once per pair of box points and per related pair and t.
    By default it is the declared order, unvalidated: box sums are valid.
    """
    if lt is None:
        lt = _strict(monoid.order_mode)
    points = monoid.box(bound)
    for u in points:
        if lt(u, u):
            return PropertyCertificate("no", witness=(u, u, "irreflexivity"))
    up = {u: {v for v in points if u != v and lt(u, v)} for u in points}
    pairs = [(u, v) for u in points for v in points if v in up[u]]
    for u, v in pairs:
        if u in up[v]:
            return PropertyCertificate("no", witness=(u, v, "antisymmetry"))
    for u, v in pairs:
        missing = up[v] - up[u]
        if missing:
            # The box is sorted: the least point is the first in scan order.
            return PropertyCertificate("no", witness=(u, v, min(missing)))
        for t in points:
            if not lt(tuple(map(operator.add, u, t)), tuple(map(operator.add, v, t))):
                return PropertyCertificate("no", witness=(u, v, t))
    return PropertyCertificate(
        "yes", notes=f"exhaustive on the bound-{bound} box ({len(points)} elements)",
    )


def check_refinement(monoid, bound):
    """Certificate that the designated refinement (less with refined=True)
    is a strict compatible total order extending the declared order, checked
    exhaustively on a coordinate box."""
    lt, base = _strict(monoid.refined_mode), _strict(monoid.order_mode)
    cert = check_order_axioms(monoid, bound, lt)
    if cert.verdict != "yes":
        return cert
    points = monoid.box(bound)
    for u in points:
        for v in points:
            if u != v and not (lt(u, v) or lt(v, u)):
                return PropertyCertificate("no", witness=(u, v, "totality"))
            if base(u, v) and not lt(u, v):
                return PropertyCertificate("no", witness=(u, v, "extension"))
    return PropertyCertificate(
        "yes",
        notes=f"order mode {monoid.order_mode!r} refines to {monoid.refined_mode!r}, a strict "
              f"compatible total order extending it; {cert.notes}",
    )
