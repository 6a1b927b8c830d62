"""Deciders for annihilator-based ring classes, with checkable certificates.

Two routes exist on purpose.  decide_* share one bitmask routine with an
early-stopping annihilator chain; oracle_decide_generalized recomputes every
quantity from the definitions through the public ring operations.  The two
are cross-checked in the test suite and must never be merged.

The fast route asks every question on the right side.  A left-side question
is the right-side question about the opposite ring, whose multiplication
table is the transpose (rings.side_table): its right annihilators, right
ideals and principal ideals eR are the left annihilators, left ideals and
Re of the ring itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeCapExceeded
from .rings import (
    DEFAULT_CAPS,
    FiniteRing,
    annihilator,
    enumerate_ideals,
    idempotents,
    side_table,
    subset_power,
)

CLASS_NAMES = (
    "baer",
    "quasi_baer",
    "gen_baer_right",
    "gen_baer_left",
    "gen_quasi_baer_right",
    "gen_quasi_baer_left",
)

SIDES = ("right", "left")


@dataclass(frozen=True)
class ClassVerdict:
    """Decision for one ring class.

    per_instance holds (members, n, e) triples for accepting runs: the
    instance's sorted element tuple, the accepted annihilator-chain depth,
    and the generating idempotent.  failing_instance is (members, n_reached,
    stable_annihilator) for the first rejected instance, with per_instance
    left empty.  instance_kind says what the instances were.
    """

    ring: FiniteRing
    class_name: str
    verdict: bool
    instance_kind: str
    per_instance: tuple
    failing_instance: tuple | None


# ---------------------------------------------------------------------------
# fast route: one bitmask decision loop


def _mask_members(mask):
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def _decide(ring, cls, side, caps, climb, keep=True):
    """(verdict, instance_kind, per_instance, failing_instance) for one side.

    Instances are every nonempty subset in ascending bitmask order ('baer')
    or every side-matching ideal ('quasi_baer').  For each one the
    annihilator of the n-fold product set is read off bitmask tables of the
    side table.  The ordinary classes stop at n = 1; with climb the chain
    goes on until an idempotent-generated annihilator appears or the chain
    plateaus.  The chain ascends (asserted along the way) and a plateau is
    final, so stopping there is exact.  keep=False skips collecting the
    accepted triples.
    """
    table = side_table(ring, side)
    n, zero = ring.order, ring.zero
    if cls == "baer":
        if n > caps.subset:
            raise SizeCapExceeded(f"subset enumeration capped at order {caps.subset}, ring has {n}")
        kind = "subset"
        instances = (_mask_members(mask) for mask in range(1, 1 << n))
    else:
        kind = f"{side}_ideal"
        instances = (tuple(sorted(ideal)) for ideal in enumerate_ideals(ring, side, caps.ideal))
    # singles[x] has bit a set iff x*a == 0; genmap maps the mask of eR to
    # the smallest idempotent e generating it.
    singles = [sum(1 << a for a in range(n) if row[a] == zero) for row in table]
    genmap = {}
    for e in range(n):
        if table[e][e] == e:
            genmap.setdefault(sum(1 << p for p in set(table[e])), e)
    full = (1 << n) - 1
    per_instance = []
    for members in instances:
        power, ann_prev, depth = members, None, 1
        while True:
            ann = full
            for x in power:
                ann &= singles[x]
            assert ann_prev is None or ann | ann_prev == ann, "annihilator chain must ascend"
            e = genmap.get(ann)
            if e is not None:
                break
            if not climb or ann == ann_prev:
                return False, kind, (), (members, depth, _mask_members(ann))
            ann_prev = ann
            power = {table[p][x] for p in power for x in members}
            depth += 1
        if keep:
            per_instance.append((members, depth, e))
    return True, kind, tuple(per_instance), None


def _side_symmetric(ring, cls, side, caps):
    # Both sides run and must agree (the class is left-right symmetric); only
    # the reported side keeps its accepted triples.
    runs = {s: _decide(ring, cls, s, caps, climb=False, keep=s == side) for s in SIDES}
    assert runs["right"][0] == runs["left"][0], f"{cls} verdict must be side-symmetric"
    return ClassVerdict(ring, cls, *runs[side])


# ---------------------------------------------------------------------------
# deciders


def decide_baer(ring, side="right", caps=DEFAULT_CAPS):
    """Baer decision: every nonempty subset's annihilator is idempotent-generated.

    Both sides are computed and cross-asserted equal (the class is known to
    be left-right symmetric); the returned certificate reports the requested
    side.  Subsets run in ascending bitmask order, so the reported failing
    subset is the first one in that order.
    """
    _check_side(side)
    return _side_symmetric(ring, "baer", side, caps)


def decide_quasi_baer(ring, caps=DEFAULT_CAPS):
    """Quasi-Baer decision over one-sided ideals, cross-asserted on both sides.

    The certificate reports the right side: right annihilators of right
    ideals, in ascending size-then-lexicographic ideal order.
    """
    return _side_symmetric(ring, "quasi_baer", "right", caps)


def decide_generalized(ring, cls, side="right", caps=DEFAULT_CAPS):
    """Generalized Baer/quasi-Baer decision via the annihilator power chain.

    For each instance (every nonempty subset for 'baer', every side-matching
    ideal for 'quasi_baer') the chain over n-fold product sets runs until an
    idempotent-generated annihilator appears or the chain plateaus.  The two
    sides are genuinely independent classes here, so nothing is cross-asserted.
    """
    _check_cls(cls)
    return ClassVerdict(ring, f"gen_{cls}_{side}", *_decide(ring, cls, side, caps, climb=True))


def _check_side(side):
    if side not in SIDES:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def _check_cls(cls):
    if cls not in ("baer", "quasi_baer"):
        raise ValueError(f"cls must be 'baer' or 'quasi_baer', got {cls!r}")


# ---------------------------------------------------------------------------
# definition-literal oracle


def oracle_decide_generalized(ring, cls, side="right", cap=8):
    """Slow reference decision straight from the definitions.

    For each instance and each n from 1 up to ring.order, the n-fold product
    set is rebuilt from scratch through subset_power, its annihilator through
    the public annihilator scan, and every idempotent is tried as generator.
    No chain plateau logic, no bitmask tables, no ideal dedup: this is the
    independent route the fast decider is checked against.
    """
    _check_cls(cls)
    _check_side(side)
    if ring.order > cap:
        raise SizeCapExceeded(f"oracle capped at order {cap}, ring has {ring.order}")
    class_name = f"gen_{cls}_{side}"
    if cls == "baer":
        kind = "subset"
        instances = [_mask_members(mask) for mask in range(1, 1 << ring.order)]
    else:
        kind = f"{side}_ideal"
        instances = [tuple(sorted(s)) for s in _oracle_ideals(ring, side)]
    per_instance = []
    for members in instances:
        accepted = None
        last_ann = None
        for n in range(1, ring.order + 1):
            power = subset_power(ring, members, n)
            ann = annihilator(ring, power, side)
            last_ann = ann
            for e in idempotents(ring):
                if side == "right":
                    gen = frozenset(ring.mul(e, r) for r in range(ring.order))
                else:
                    gen = frozenset(ring.mul(r, e) for r in range(ring.order))
                if gen == ann:
                    accepted = (n, e)
                    break
            if accepted is not None:
                break
        if accepted is None:
            failing = (members, ring.order, tuple(sorted(last_ann)))
            return ClassVerdict(ring, class_name, False, kind, (), failing)
        per_instance.append((members, accepted[0], accepted[1]))
    return ClassVerdict(ring, class_name, True, kind, tuple(per_instance), None)


def _oracle_ideals(ring, side):
    # Brute subset filter, independent of the grow-and-close enumeration.
    n = ring.order
    out = []
    for mask in range(1, 1 << n):
        if not (mask >> ring.zero) & 1:
            continue
        members = _mask_members(mask)
        member_set = set(members)
        ok = True
        for a in members:
            for b in members:
                if ring.add(a, b) not in member_set:
                    ok = False
                    break
            if not ok:
                break
            for r in range(n):
                p = ring.mul(a, r) if side == "right" else ring.mul(r, a)
                if p not in member_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def recheck_class_verdict(ring, cv):
    """Re-derive every accepted triple with the public definitional operations."""
    side = "left" if cv.class_name.endswith("left") else "right"
    for members, n, e in cv.per_instance:
        ann = annihilator(ring, subset_power(ring, members, n), side)
        if side == "right":
            gen = frozenset(ring.mul(e, r) for r in range(ring.order))
        else:
            gen = frozenset(ring.mul(r, e) for r in range(ring.order))
        if ann != gen:
            return False
    return True
