"""Commutative exponent monoids with strict compatible orders.

Elements are int tuples of a fixed arity.  Each monoid carries its declared
order mode plus a designated total refinement, so partial modes can always
be sharpened to a compatible strict total order when one is needed.
"""

from __future__ import annotations

from enum import Enum

from .errors import IllegalPairing, MixedMonoids
from .rings import PropertyCertificate

AXIOM_BOUND_DEFAULT = 10


class OrderVerdict(Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INC = "INC"


_MODES = {
    "nat": ("natural", "trivial"),
    "int": ("natural", "trivial"),
    "nat_k": ("product", "lex", "trivial"),
}

_KIND_ALIASES = {
    "nat": "nat", "nat_add": "nat",
    "int": "int", "int_add": "int",
    "nat_k": "nat_k", "nat_k_add": "nat_k",
}


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
        if order_mode in ("natural", "lex"):
            self.refined_mode = order_mode
        elif order_mode == "product":
            self.refined_mode = "lex"
        else:
            self.refined_mode = "natural" if k == 1 else "lex"
        # 1_S minimal: holds for the natural order on N and for product/lex
        # on N^k, fails for trivial order and for Z.
        if order_mode == "trivial":
            self.positively_ordered = False
        elif kind == "int":
            self.positively_ordered = False
        else:
            self.positively_ordered = True

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

    def compare(self, u, v, refined=False):
        """Strict order verdict LT/GT/EQ/INC; refined=True never returns INC."""
        self.validate(u)
        self.validate(v)
        if u == v:
            return OrderVerdict.EQ
        mode = self.refined_mode if refined else self.order_mode
        if mode == "trivial":
            return OrderVerdict.INC
        if mode == "natural":
            return OrderVerdict.LT if u[0] < v[0] else OrderVerdict.GT
        if mode == "lex":
            return OrderVerdict.LT if u < v else OrderVerdict.GT
        if mode == "product":
            if all(a <= b for a, b in zip(u, v)):
                return OrderVerdict.LT
            if all(a >= b for a, b in zip(u, v)):
                return OrderVerdict.GT
            return OrderVerdict.INC
        raise AssertionError(f"unhandled mode {mode}")

    def box(self, bound):
        """All elements with coordinates of magnitude <= bound, sorted."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        lo = -bound if self.kind == "int" else 0
        coords = range(lo, bound + 1)
        out = [()]
        for _ in range(self.k):
            out = [pre + (c,) for pre in out for c in coords]
        return sorted(out)

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


def monoid_make(kind, order_mode, k=1):
    """Build a monoid, rejecting kind/order pairings that make no sense."""
    return OrderedMonoid(_KIND_ALIASES.get(kind, kind), order_mode, k=k)


def trivial_wrap(base):
    """The same monoid with its order discarded (trivial order mode)."""
    return OrderedMonoid(base.kind, "trivial", k=base.k)


def check_order_axioms(monoid, bound=AXIOM_BOUND_DEFAULT, lt=None):
    """Exhaustively check the strict order on a coordinate box.

    Verifies irreflexivity, antisymmetry, transitivity, and strict
    translation compatibility on both sides.  `lt` can inject a corrupted
    comparator for testing the checker itself.
    """
    if lt is None:
        def lt(u, v):
            return monoid.compare(u, v) is OrderVerdict.LT

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
