"""Deciders for annihilator-based ring classes, with checkable certificates.

Two routes exist on purpose.  decide_* go through class_profile, which walks
each side once with one bitmask routine: a walk's first depth-1 failure
decides the ordinary class and its annihilator chains the generalized one on
that side.
oracle_decide_generalized recomputes every quantity from the definitions
through the public ring operations.  The two are cross-checked in the test
suite and must never be merged.

The fast route asks every question on the right side.  A left-side question
is the right-side question about the opposite ring, whose multiplication
table is the transpose (rings.side_table): its right annihilators, right
ideals and principal ideals eR are the left annihilators, left ideals and
Re of the ring itself.
"""

from itertools import chain, pairwise, repeat

from .errors import InvariantViolation, SizeCapExceeded
from .rings import (
    DEFAULT_CAPS,
    SIDES,
    FrozenRecord,
    _is_index,
    annihilator,
    check_side,
    enumerate_ideals,
    ideal_generated,
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

# The class gaps a counterexample search looks for: (class that holds, class
# that fails, detail).  The CLI parser lists them, so they live here, beside
# the class names, rather than in the search code.
_GAPS = {
    "quasi_baer_not_baer": ("quasi_baer", "baer", "quasi-Baer but not Baer"),
    "gen_baer_not_baer": ("gen_baer_right", "baer", "generalized right Baer but not Baer"),
    "gen_quasi_baer_not_gen_baer": (
        "gen_quasi_baer_right", "gen_baer_right",
        "generalized right quasi-Baer but not generalized right Baer"),
}
SEARCH_KINDS = (*_GAPS, "left_right", "armendariz")


class ClassVerdict(FrozenRecord):
    """Decision for one ring class.

    per_instance holds the (members, n, e) triples of an accepting run in
    walk order: the instance's sorted element tuple, the accepted
    annihilator-chain depth, and the generating idempotent.  The fast route
    keeps it as an InstanceBlocks, the oracle as a tuple; the two compare
    equal when their triples do.  failing_instance is (members, n_reached,
    stable_annihilator) for the first rejected instance, with per_instance
    left empty.  ring is the FiniteRing decided and class_name one of
    CLASS_NAMES; verdict, side and instance_kind are read off the fields.
    """

    __slots__ = ("ring", "class_name", "per_instance", "failing_instance")

    @property
    def verdict(self):
        return self.failing_instance is None

    @property
    def side(self):
        return "left" if self.class_name.endswith("left") else "right"

    @property
    def instance_kind(self):
        return f"{self.side}_ideal" if "quasi" in self.class_name else "subset"


class InstanceBlocks:
    """The (members, n, e) triples of an accepting walk, kept by block.

    blocks holds (lows, high, es, depths) entries: a block's i-th instance
    has members lows[i] + high, depth depths[i] (1 throughout when depths is
    None) and generator es[i].  The blocks of one walk share one lows list,
    so a triple is built only when it is read, and blocks of one length and
    high annihilator share one generator list.  Readers take the triples in
    walk order: it iterates them, has their count as its length, and equals,
    and hashes like, the tuple of its triples.
    """

    __slots__ = ("blocks", "_count")

    def __init__(self, blocks=()):
        self.blocks = tuple(blocks)
        self._count = sum(len(es) for _, _, es, _ in self.blocks)

    def __len__(self):
        return self._count

    def __iter__(self):
        for lows, high, es, depths in self.blocks:
            yield from zip([low + high for low in lows], depths or repeat(1), es)

    def __eq__(self, other):
        if isinstance(other, InstanceBlocks):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"{type(self).__name__}({tuple(self)!r})"

    def json_parts(self):
        """The JSON text of each block's triples, separators (",", ":").

        "[" + ",".join(parts) + "]" is the JSON array of all the triples, so
        a writer can emit it one block at a time.  Every entry is a
        non-negative int, whose decimal text is its JSON text (RFC 8259
        section 6).  The i-th triple of a block reads head_i + high +
        "],n_i,e_i]", where head_i is "[[low_i," and high the text of the
        high part, so the block's text is one join of high between the
        segments head_0, "],n_0,e_0]," + head_1, ..., "],n_last,e_last]".
        The segments are made once per lows list, depths and generators, so
        blocks that differ only in their high part share them.
        """
        heads, templates, parts = {}, {}, []
        for lows, high, es, depths in self.blocks:
            key = id(lows), bool(high)
            if key not in heads:
                sep = "," if high else ""
                heads[key] = [f"[[{','.join(map(str, low))}{sep if low else ''}" for low in lows]
            template_key = key, id(es), id(depths)
            segments = templates.get(template_key)
            if segments is None:
                block_heads = heads[key]
                tails = [f"],{d},{e}]" for d, e in zip(depths or repeat(1), es)]
                segments = [block_heads[0], *map("{},{}".format, tails, block_heads[1:]),
                            tails[-1]]
                templates[template_key] = segments
            parts.append(",".join(map(str, high)).join(segments))
        return parts


# ---------------------------------------------------------------------------
# fast route: one bitmask decision loop


def _mask_members(mask):
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def _subset_table(singles, full, first, count):
    # (annihilators, member tuples) of the subsets of first..first+count-1.
    anns, members = [full], [()]
    for x in range(first, first + count):
        anns += [ann & singles[x] for ann in anns]
        members += [m + (x,) for m in members]
    return anns, members


def _decide(ring, cls, side, caps):
    """(per_instance, failing, flat_failing) for one side; failing is None
    exactly when the walk accepts.

    Instances are every nonempty subset in ascending bitmask order ('baer')
    or every side-matching ideal ('quasi_baer').  An instance's annihilator
    is the AND of its members' bitmask annihilators on the side table.

    The subset walk goes by blocks.  A mask is its low c = min(n, 8) bits
    plus its high bits; the annihilators and member tuples of the 2^c low
    parts and of the high parts are built once, so a block (the masks with
    one high part) costs one AND and one generator lookup per mask.  A
    mask's annihilator is h & (its low part's), h being the high part's, so
    a block whose h and length were met reuses that block's generator list,
    but one where a mask climbs keeps its own.  Only the masks whose
    annihilator is not idempotent-generated go one by one.
    The ideals form one block.  per_instance is an InstanceBlocks holding
    each block as it was walked.

    An instance whose annihilator is not idempotent-generated climbs the
    chain of its n-fold product sets until one is or the chain plateaus.
    The chain ascends (checked along the way) and a plateau is final, so
    stopping there is exact.  flat_failing is the first such instance, the
    first depth-1 failure, or None.
    """
    table = side_table(ring, side)
    n, zero = ring.order, ring.zero
    if cls == "baer" and n > caps.subset:
        raise SizeCapExceeded(f"subset enumeration capped at order {caps.subset}, ring has {n}")
    # singles[x] has bit a set iff x*a == 0; genmap maps the mask of eR to
    # the smallest idempotent e generating it.
    singles = [sum(1 << a for a in range(n) if row[a] == zero) for row in table]
    genmap = {}
    for e in range(n):
        if table[e][e] == e:
            genmap.setdefault(sum(1 << p for p in set(table[e])), e)
    full = (1 << n) - 1

    def ann_of(elements):
        ann = full
        for x in elements:
            ann &= singles[x]
        return ann

    def chain_end(members, ann):
        # (depth, e, ann) where the chain of an instance whose depth-1
        # annihilator ann is not idempotent-generated stops: at its first
        # idempotent-generated one, or with e None at a plateau.
        power, depth, e = members, 1, None
        while e is None:
            power = {table[p][x] for p in power for x in members}
            depth += 1
            ann_prev, ann = ann, ann_of(power)
            if ann | ann_prev != ann:
                raise InvariantViolation("annihilator chain must ascend")
            if ann == ann_prev:
                break
            e = genmap.get(ann)
        return depth, e, ann

    per_instance, flat, shared = [], None, {}
    if cls == "baer":
        c = min(n, 8)
        low_anns, low_members = _subset_table(singles, full, 0, c)
        high_anns, high_members = _subset_table(singles, full, c, n - c)
        # Blocks are (high annihilator, low annihilators, low member tuples,
        # high member tuple).  The first block drops mask 0, the empty set.
        blocks = chain([(full, low_anns[1:], low_members[1:], ())],
                       zip(high_anns[1:], repeat(low_anns), repeat(low_members), high_members[1:]))
    else:
        ideals = [tuple(sorted(ideal)) for ideal in enumerate_ideals(ring, side, caps)]
        blocks = [(full, [ann_of(m) for m in ideals], ideals, ())]
    for h, anns, lows, high in blocks:
        key = h, len(lows)
        if key in shared:
            per_instance.append((lows, high, shared[key], None))
            continue
        anns = [h & a for a in anns]
        es, depths = list(map(genmap.get, anns)), None
        if None in es:
            depths = [1] * len(es)
            for i in [i for i, e in enumerate(es) if e is None]:
                members = lows[i] + high
                flat = flat or (members, 1, _mask_members(anns[i]))
                depths[i], es[i], ann = chain_end(members, anns[i])
                if es[i] is None:
                    return InstanceBlocks(), (members, depths[i], _mask_members(ann)), flat
        else:
            shared[key] = es
        per_instance.append((lows, high, es, depths))
    return InstanceBlocks(per_instance), None, flat


# ---------------------------------------------------------------------------
# deciders


def class_profile(ring, cls, side=None, caps=DEFAULT_CAPS):
    """{class name: ClassVerdict} on cls's instances, one climbing walk per side.

    With a side, the profile holds that side's generalized class alone, from
    one walk.  With None, both sides walk and the profile holds both
    generalized classes and the ordinary one: the right walk's first depth-1
    failure, cross-checked with the left walk's; with none, the ordinary
    certificate is the generalized one (all depth 1).  A commutative ring is
    its own opposite, so there one walk answers both sides.  Every accepting
    verdict lists all its instances.  A side outside SIDES is a ValueError.
    """
    _check_cls(cls)
    if side is not None:
        check_side(side)
        runs = {side: _decide(ring, cls, side, caps)}
    elif side_table(ring, "left") == ring.mul_table:
        runs = dict.fromkeys(SIDES, _decide(ring, cls, "right", caps))
    else:
        runs = {s: _decide(ring, cls, s, caps) for s in SIDES}
    profile = {f"gen_{cls}_{s}": ClassVerdict(ring, f"gen_{cls}_{s}", per_instance, failing)
               for s, (per_instance, failing, _) in runs.items()}
    if side is None:
        if (runs["right"][2] is None) != (runs["left"][2] is None):
            raise InvariantViolation(f"{cls} verdict must be side-symmetric")
        per_instance, _, flat = runs["right"]
        profile[cls] = ClassVerdict(ring, cls, InstanceBlocks() if flat else per_instance, flat)
    return profile


def decide_baer(ring, caps=DEFAULT_CAPS):
    """Baer decision: every nonempty subset's annihilator is idempotent-generated.

    Both sides are computed and cross-checked equal (the class is known to
    be left-right symmetric; a commutative ring has one side to compute);
    the certificate reports the right side.
    Subsets run in ascending bitmask order, so the reported failing subset
    is the first one in that order.
    """
    return class_profile(ring, "baer", None, caps)["baer"]


def decide_quasi_baer(ring, caps=DEFAULT_CAPS):
    """Quasi-Baer decision over one-sided ideals, cross-checked on both sides.

    The certificate reports the right side: right annihilators of right
    ideals, in ascending size-then-lexicographic ideal order.
    """
    return class_profile(ring, "quasi_baer", None, caps)["quasi_baer"]


def decide_generalized(ring, cls, side="right", caps=DEFAULT_CAPS):
    """Generalized Baer/quasi-Baer decision via the annihilator power chain.

    For each instance (every nonempty subset for 'baer', every side-matching
    ideal for 'quasi_baer') the chain over n-fold product sets runs until an
    idempotent-generated annihilator appears or the chain plateaus.  The two
    sides are genuinely independent classes here, so nothing is cross-checked.
    """
    check_side(side)
    return class_profile(ring, cls, side, caps)[f"gen_{cls}_{side}"]


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
    independent route the fast decider is checked against.  A rejection
    reports as n_reached the first n >= 2 whose annihilator equals the one
    at n - 1 in that list, which is what the fast route reports.
    """
    _check_cls(cls)
    check_side(side)
    if ring.order > cap:
        raise SizeCapExceeded(f"oracle capped at order {cap}, ring has {ring.order}")
    class_name = f"gen_{cls}_{side}"
    if cls == "baer":
        instances = [_mask_members(mask) for mask in range(1, 1 << ring.order)]
    else:
        instances = [tuple(sorted(s)) for s in _oracle_ideals(ring, side)]
    per_instance = []
    for members in instances:
        anns = []
        for n in range(1, ring.order + 1):
            anns.append(annihilator(ring, subset_power(ring, members, n), side))
            e = next((e for e in idempotents(ring) if _principal(ring, e, side) == anns[-1]),
                     None)
            if e is not None:
                per_instance.append((members, n, e))
                break
        else:
            n_reached = next(n for n in range(2, ring.order + 1) if anns[n - 1] == anns[n - 2])
            return ClassVerdict(ring, class_name, (), (members, n_reached, tuple(sorted(anns[-1]))))
    return ClassVerdict(ring, class_name, tuple(per_instance), None)


def _oracle_ideals(ring, side):
    # Brute subset filter, independent of the grow-and-close enumeration.
    n = ring.order
    mul = ring.mul if side == "right" else (lambda a, r: ring.mul(r, a))
    subsets = (set(_mask_members(mask)) for mask in range(1, 1 << n) if mask >> ring.zero & 1)
    out = [frozenset(m) for m in subsets
           if all(ring.add(a, b) in m for a in m for b in m)
           and all(mul(a, r) in m for a in m for r in range(n))]
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _principal(ring, e, side):
    # eR on the right side, Re on the left, through the public multiplication.
    if side == "right":
        return frozenset(ring.mul(e, r) for r in range(ring.order))
    return frozenset(ring.mul(r, e) for r in range(ring.order))


def _is_triple(triple, order):
    """Whether triple is (members, n, e) as a certificate lists it: a
    nonempty tuple of element indices, an int depth >= 1 that is no bool,
    and an element index."""
    if not isinstance(triple, tuple) or len(triple) != 3:
        return False
    members, n, e = triple
    return (isinstance(members, tuple) and len(members) > 0
            and all(_is_index(x, order) for x in members)
            and isinstance(n, int) and not isinstance(n, bool) and n >= 1 and _is_index(e, order))


def recheck_class_verdict(cv):
    """True when cv accepts and its certificate lists every instance of
    cv.ring in walk order, each triple stating what the walk states.  An
    unknown class name, or a triple that is no (nonempty tuple of elements,
    int depth >= 1, element) of the ring, makes it False.

    Subsets must be every nonempty subset in ascending bitmask order.  Ideals
    must ascend strictly by size then members, hold {0}, each be its own
    ideal_generated, and list ideal_generated(I | {x}) for every listed I
    and element x: every ideal is reached from {0} that way, so none is
    missing.

    Each (X, n, e) replays through the public definitional operations: n is
    the first depth whose r(X^n) is idempotent-generated, and e the smallest
    idempotent generating it.  Up to that depth the chain r(X) < r(X^2) < ...
    ascends strictly (a plateau is final), and each step at least doubles an
    additive group, so n <= log2|R| + 1; a deeper n is refused at once.  The
    exact bound max(1, floor(log2|R|)) would need a case for |R| = 1.
    """
    if cv.class_name not in CLASS_NAMES or not cv.verdict:
        return False
    ring, side = cv.ring, cv.side
    if not all(_is_triple(t, ring.order) and t[1] <= ring.order.bit_length()
               for t in cv.per_instance):
        return False
    listed = [members for members, _, _ in cv.per_instance]
    if cv.instance_kind == "subset":
        # The count comes first: 2^n - 1 member tuples of a large ring never end.
        complete = (len(listed) == (1 << ring.order) - 1
                    and all(m == _mask_members(mask) for mask, m in enumerate(listed, 1)))
    else:
        found = set(listed)

        def ideal(subset):
            return tuple(sorted(ideal_generated(ring, subset, side)))

        complete = ((ring.zero,) in found
                    and all((len(a), a) < (len(b), b) for a, b in pairwise(listed))
                    and all(ideal(m) == m for m in listed)
                    and all(ideal({*m, x}) in found for m in listed for x in range(ring.order)))
    generator = {}  # principal ideal -> its smallest idempotent generator
    for e in idempotents(ring):
        generator.setdefault(_principal(ring, e, side), e)
    return complete and all(
        [generator.get(annihilator(ring, subset_power(ring, members, k), side))
         for k in range(1, n + 1)] == [None] * (n - 1) + [e]
        for members, n, e in cv.per_instance)
