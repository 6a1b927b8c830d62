"""Acceptance gate: ten go/no-go checks over the whole stack.

Each criterion emits one PASS/FAIL line; the conftest terminal hook prints
them in an "acceptance gate" section after the run, past pytest's capture.
"""

import functools
import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import record_gate_line

import skewseries
from skewseries.monoids import OrderedMonoid
from skewseries.properties import (
    decide_baer,
    decide_generalized,
    decide_quasi_baer,
    oracle_decide_generalized,
)
from skewseries.rings import enumerate_endomorphisms, is_reduced
from skewseries.series import (
    SkewContext,
    SkewSeries,
    armendariz_search,
    const_embed,
    exp_embed,
)
from skewseries.errors import HypothesisNotMet
from skewseries.specfile import CATALOG_NAMES, builtin_ring
from skewseries.verify import verify_prop34, verify_thm37

NAT = OrderedMonoid("nat", "natural")
SMALL = [n for n in CATALOG_NAMES if builtin_ring(n).order <= 8]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_gate_line(f"ACCEPTANCE {num:02d} FAIL: {desc}")
                print(f"ACCEPTANCE {num:02d} FAIL: {desc}", flush=True)
                raise
            record_gate_line(f"ACCEPTANCE {num:02d} PASS: {desc}")
            print(f"ACCEPTANCE {num:02d} PASS: {desc}", flush=True)
        return wrapper
    return deco


@criterion(1, "exhaustive ring axioms on the six designated catalog rings")
def test_criterion_01_ring_axiom_suite():
    for name in ("zn:2", "zn:4", "zn:6", "prod:zn:2,zn:2", "ut2:z2", "mat2:z2"):
        ring = builtin_ring(name)
        add, mul = ring.add_table, ring.mul_table
        elems = range(ring.order)
        for a, b, c in itertools.product(elems, repeat=3):
            assert add[add[a][b]][c] == add[a][add[b][c]], (name, a, b, c)
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]], (name, a, b, c)
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], (name, a, b, c)
            assert mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]], (name, a, b, c)


@criterion(2, "fast deciders agree with the brute-force oracle on every class")
def test_criterion_02_deciders_match_oracle():
    for name in SMALL:
        ring = builtin_ring(name)
        for cls in ("baer", "quasi_baer"):
            for side in ("right", "left"):
                fast = decide_generalized(ring, cls, side)
                slow = oracle_decide_generalized(ring, cls, side)
                assert fast.verdict == slow.verdict, (name, cls, side)
                assert fast.per_instance == slow.per_instance, (name, cls, side)
                assert fast.failing_instance == slow.failing_instance, (name, cls, side)
    m2 = builtin_ring("mat2:z2")
    for side in ("right", "left"):
        fast = decide_generalized(m2, "quasi_baer", side)
        slow = oracle_decide_generalized(m2, "quasi_baer", side, cap=16)
        assert fast.verdict == slow.verdict and fast.per_instance == slow.per_instance


@criterion(3, "hand-checkable verdicts for zn:4, zn:6, and the prime fields")
def test_criterion_03_hand_checkable_verdicts():
    z4 = builtin_ring("zn:4")
    bv = decide_baer(z4)
    assert bv.verdict is False and bv.failing_instance[0] == (2,)
    gv = decide_generalized(z4, "baer", "right")
    assert gv.verdict is True
    assert ((2,), 2, 1) in gv.per_instance
    assert decide_baer(builtin_ring("zn:6")).verdict is True
    for p in (2, 3, 5, 7):
        assert decide_baer(builtin_ring(f"zn:{p}")).verdict is True, p


@criterion(4, "embedding identity e_s c_r = c_w(r) e_s across all small-ring twists")
def test_criterion_04_embedding_identity():
    box = NAT.box(5)
    for name in SMALL:
        ring = builtin_ring(name)
        for sigma in enumerate_endomorphisms(ring):
            ctx = SkewContext(ring, NAT, sigma)
            for s in box:
                for r in range(ring.order):
                    lhs = exp_embed(ctx, s) * const_embed(ctx, r)
                    rhs = const_embed(ctx, ctx.omega(s).image[r]) * exp_embed(ctx, s)
                    assert lhs == rhs, (name, sigma.image, s, r)


@criterion(5, "series multiplication associativity, exhaustive and randomized")
def test_criterion_05_series_associativity():
    slots = NAT.box(2)
    z2 = builtin_ring("zn:2")
    ctx2 = SkewContext(z2, NAT)
    all_z2 = [SkewSeries(ctx2, dict(zip(slots, vec)))
              for vec in itertools.product(range(2), repeat=3)]
    assert len(all_z2) == 8
    for f, g, h in itertools.product(all_z2, repeat=3):
        assert (f * g) * h == f * (g * h)
    for name, seed in (("zn:4", 11), ("zn:6", 12)):
        ring = builtin_ring(name)
        ctx = SkewContext(ring, NAT)
        rng = random.Random(seed)
        for _ in range(10_000):
            f, g, h = (SkewSeries(ctx, {s: rng.randrange(ring.order) for s in slots})
                       for _ in range(3))
            assert (f * g) * h == f * (g * h), (name, f, g, h)


@criterion(6, "idempotent series at the box are exactly the constant embeds")
def test_criterion_06_idempotent_series_counts():
    for name, box, expected in (("zn:4", [0, 1, 2], 2), ("zn:6", [0, 1], 4)):
        ctx = SkewContext(builtin_ring(name), NAT)
        report = verify_prop34(ctx, box)
        assert report.outcome == "PASS", name
        assert len(report.conclusion_checked) - 1 == expected, name


@criterion(7, "transfer harness passes on zn:4/zn:6 and refuses mat2:z2")
def test_criterion_07_transfer_harness():
    for name in ("zn:4", "zn:6"):
        ctx = SkewContext(builtin_ring(name), NAT)
        rep = verify_thm37(ctx, "baer", [0, 1, 2])
        assert rep.outcome == "PASS", name
        rep = verify_thm37(ctx, "quasi_baer", [0, 1], samples=20)
        assert rep.outcome == "PASS", name
        ideals = sum(1 for e in rep.conclusion_checked if e.statement_id == "prop35_2")
        assert len(rep.conclusion_checked) == ideals * 3 + 20 * 2, name
    m2ctx = SkewContext(builtin_ring("mat2:z2"), NAT)
    with pytest.raises(HypothesisNotMet) as exc:
        verify_thm37(m2ctx, "baer", [0, 1])
    assert exc.value.hypothesis == "armendariz_at_box"


@criterion(8, "bounded Armendariz search: clean zn rings, refuted matrix ring")
def test_criterion_08_armendariz_search():
    for n in range(2, 9):
        ctx = SkewContext(builtin_ring(f"zn:{n}"), NAT)
        cert = armendariz_search(ctx, [0, 1, 2])
        assert cert.verdict == "unknown-at-bound", n
    m2ctx = SkewContext(builtin_ring("mat2:z2"), NAT)
    cert = armendariz_search(m2ctx, [0, 1])
    assert cert.verdict == "no"
    f, g, s, t = cert.witness
    assert (f * g).is_zero
    assert m2ctx.ring.mul(f.coeff(s), m2ctx.omega(s).image[g.coeff(t)]) != m2ctx.ring.zero


@criterion(9, "byte-identical jsonl output across fresh interpreters")
def test_criterion_09_determinism():
    commands = (
        ["verify", "prop34", "--ring", "zn:6", "--box", "2"],
        ["verify", "thm37-baer", "--ring", "zn:4", "--box", "3"],
        ["verify", "thm37-quasibaer", "--ring", "zn:6", "--box", "2",
         "--samples", "20", "--seed", "7"],
        ["verify", "corollaries", "--ring", "zn:4", "--box", "2",
         "--samples", "3", "--seed", "5"],
        ["search"],
        ["ring", "check", "--ring", "zn:8", "--class", "all", "--side", "both"],
    )
    # over-budget pair counts of 1,205 and 4,305 digits
    refused = (
        ["verify", "thm37-baer", "--ring", "zn:2", "--box", "2000", "--budget", "100"],
        ["verify", "thm37-baer", "--ring", "zn:2", "--box", "7150", "--budget", "100"],
    )

    # the children import the package under test, installed or not
    package_root = os.path.dirname(os.path.dirname(skewseries.__file__))

    def one_pass(hash_seed, max_str_digits):
        chunks = []
        for cmd, exit_code in [(c, 0) for c in commands] + [(c, 3) for c in refused]:
            proc = subprocess.run(
                [sys.executable, "-m", "skewseries", *cmd, "--output", "jsonl"],
                capture_output=True,
                env={"PYTHONHASHSEED": hash_seed, "PYTHONINTMAXSTRDIGITS": max_str_digits,
                     "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
            )
            assert proc.returncode == exit_code, (cmd, proc.stderr.decode())
            chunks.append(proc.stdout)
        return b"".join(chunks)

    # different hash seeds so any set-order leak into the output shows up, and
    # no int-to-str digit limit (0) against the lowest one, so neither does
    # a str() of a long int
    assert one_pass("1", "0") == one_pass("2", "640")


@criterion(10, "class inclusions and the reduced-ring collapse over the catalog")
def test_criterion_10_class_inclusions():
    for name in CATALOG_NAMES:
        ring = builtin_ring(name)
        b = decide_baer(ring).verdict
        q = decide_quasi_baer(ring).verdict
        gbr = decide_generalized(ring, "baer", "right").verdict
        gqr = decide_generalized(ring, "quasi_baer", "right").verdict
        assert (not b) or q, name
        assert (not q) or gqr, name
        assert (not b) or gbr, name
        if is_reduced(ring).verdict == "yes":
            assert b == q, name
