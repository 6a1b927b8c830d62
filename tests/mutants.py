"""Standing mutants: each planted fault must make its pytest selection fail.

    python tests/mutants.py

Each entry of MUTANTS is (file under src/skewseries, exact old text, new
text, pytest selection, why).  For each entry, src/, tests/ and
pyproject.toml are copied to a temporary directory, the old text is replaced
there (it must occur exactly once), and the selection runs under `-x`.  The
mutant is killed when pytest reports a failed test (exit code 1).  A
survivor, or an old text that no longer matches the source, makes the script
exit 1, so a refactor that moves the mutated code must update this list.
pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("series.py",
     "    for gvec in _walk(ring, layout, rows, fits, least, None):",
     "    for gvec in _walk(ring, layout, rows, fits, kernel, None):",
     ["tests/test_series.py"],
     "the Armendariz scan walks K_f itself instead of its least coset representatives"),
    ("series.py",
     "if all(sums[x] >= b for x in members)",
     "if all(sums[x] <= b for x in members)",
     ["tests/test_golden.py"],
     "the greatest index per coset of K_f: a later g is found, so a pinned witness changes"),
    ("series.py",
     "    for masks in fits:\n        kernel &= masks[zero]",
     "    for p in pattern:\n        kernel &= _row(ring, range(ring.order), fvec[p])[1][zero]",
     ["tests/test_series.py"],
     "K_f built from the untwisted rows b -> f(u)*b"),
    ("series.py",
     "                    values &= fit[neg[acc]]",
     "                    values &= fit[acc]",
     ["tests/test_verify.py", "-k", "bounded_annihilator_with_cancelling_terms"],
     "the box kernel solves for acc where the earlier terms need -acc"),
    ("series.py",
     "_row(ctx.ring, _twist(ctx, u), a)",
     "_row(ctx.ring, range(ctx.ring.order), a)",
     ["tests/test_verify.py", "-k",
      "bounded_annihilator_matches_the_brute_filter or bounded_annihilator_with_cancelling_terms"],
     "the box kernel builds its rows untwisted, b -> a*b"),
    ("verify.py",
     "for c in additive_generators(ctx.ring, members) for v in slots]",
     "for c in additive_generators(ctx.ring, members) for v in slots[1:]]",
     ["tests/test_verify.py", "-k", "spanning_families"],
     "the spanning monomials leave out the first box slot"),
    ("verify.py",
     "for c in additive_generators(ctx.ring, members) for v in slots]",
     "for c in additive_generators(ctx.ring, members) for v in slots[:-1]]",
     ["tests/test_verify.py", "-k", "spanning_families"],
     "the spanning monomials leave out the last box slot"),
    ("verify.py",
     "        family = sampled | set(_spanning_monomials(ctx, members, slots))",
     "        family = set(_spanning_monomials(ctx, members, slots))",
     ["tests/test_verify.py", "-k", "quasi_baer_samples_keep_products_past_the_box"],
     "the sampled family is the ideal's spanning monomials alone, dropping the sampled products"),
    ("verify.py",
     "any(times_e[c] != c for c in v)",
     "any(ctx.ring.mul_table[c][e] != c for c in v)",
     ["tests/test_verify.py"],
     "the bridge reads c_e*g as c*e, right multiplication by e"),
    ("verify.py",
     "        found = checks[key] = (e in consts, bad), consts",
     "        found = checks[key] = (True, bad), consts",
     ["tests/test_verify.py", "-k", "bridge_reads_c_e or reports_match_the_oracle"],
     "the bridge takes c_e to lie in every annihilator"),
    ("verify.py",
     "if all(c == zero for j, c in enumerate(v) if j != at)",
     "if all(c == zero for j, c in enumerate(v) if j != 0)",
     ["tests/test_verify.py", "-k", "reports_match_the_oracle"],
     "the constant slice reads the identity at the box's first slot"),
    ("series.py",
     "        if total <= budget:",
     "        if total < budget:",
     ["tests/test_series.py", "-k", "pair_count_at_the_budget"],
     "a scan whose pair count equals the budget is refused"),
    ("series.py",
     "(n.bit_length() - 1)",
     "n.bit_length()",
     ["tests/test_series.py", "-k", "pair_count_at_the_budget"],
     "a one-element ring's count is left unbuilt and reads as over budget"),
    ("series.py",
     "            if points <= budget:",
     "            if True:",
     ["tests/test_series.py", "-k", "pair_count_at_the_budget"],
     "a one-element ring's box is not held to the budget, so any box is built"),
    ("series.py",
     "total < _EXACT_COUNT",
     "total <= _EXACT_COUNT",
     ["tests/test_cli.py", "-k", "pair_count_prints_in_full"],
     "a count of 10^4300, with 4301 digits, prints in full"),
    ("properties.py",
     "            if ann == ann_prev:\n                break",
     "            if ann == ann_prev:\n                depth += 7\n                break",
     ["tests/test_properties.py"],
     "a rejection after a climb reports its plateau depth + 7"),
    ("properties.py",
     "            if ann == ann_prev:\n                break",
     "            if ann == ann_prev:\n                raise InvariantViolation('plateau')",
     ["tests/test_properties.py"],
     "a chain that plateaus at depth >= 2 raises instead of rejecting"),
    ("properties.py",
     "        while e is None:",
     "        while e is None and depth < 2:",
     ["tests/test_properties.py"],
     "a chain stops climbing after depth 2, short of the zn:8 and zn:16 depths 3 and 4"),
    ("properties.py",
     "flat = flat or (members, 1, _mask_members(anns[i]))",
     "flat = (members, 1, _mask_members(anns[i]))",
     ["tests/test_properties.py"],
     "flat_failing keeps the last depth-1 failure instead of the first"),
    ("properties.py",
     "complete = ((ring.zero,) in found\n                    and ",
     "complete = (",
     ["tests/test_properties.py"],
     "the ideal recheck accepts a certificate without its {0} triple"),
    ("properties.py",
     "complete = (len(listed) == (1 << ring.order) - 1\n                    and all(",
     "complete = (all(",
     ["tests/test_properties.py", "-k", "counts_the_subsets"],
     "the subset recheck compares the listed prefix only, so a short certificate passes"),
    ("properties.py",
     "len(members) > 0",
     "len(members) >= 0",
     ["tests/test_properties.py", "-k", "empty_member_tuple"],
     "an empty member tuple passes as a triple, and the ideal recheck raises EmptySubset"),
    ("properties.py",
     "        key = h, len(lows)",
     "        key = h",
     ["tests/test_properties.py"],
     "blocks share generator lists by high annihilator alone, so a full-length block"
     " reuses the first block's list, one short"),
    ("properties.py",
     "        else:\n            shared[key] = es\n",
     "        shared[key] = es\n",
     ["tests/test_properties.py"],
     "a block where a mask climbs shares its list, so a later block reads its climbed"
     " generators at depth 1"),
    ("properties.py",
     'tails = [f"],{d},{e}]" for d, e in zip(depths or repeat(1), es)]',
     'tails = [f"],{d},{e}]" for d, e in zip(depths or repeat(1), [*es[1::-1], *es[2:]])]',
     ["tests/test_cli.py", "-k", "recheck_from_their_bytes"],
     "the certificate text swaps a block's first two generators, so the jsonl states"
     " what the walk did not"),
    ("rings.py",
     "                below = _ideal_sum(add, below, q)",
     "                below = _ideal_sum(add, below, p)",
     ["tests/test_rings.py", "-k", "all_principal_reference"],
     "the irreducibility pass adds p in place of q, so it keeps only minimal principal ideals"),
    ("rings.py",
     "            elif any(v != z for v in vals):",
     "            elif False:",
     ["tests/test_rings.py", "-k", "matrix_shape or literal_builder"],
     "a unit row silently drops a product entry that lands off the matrix positions"),
    ("rings.py",
     "        for g in gens:\n            # pick(row) lists x + (g + y)",
     "        for g in gens[1:]:\n            # pick(row) lists x + (g + y)",
     ["tests/test_rings.py", "-k", "light_test"],
     "Light's associativity test skips the first additive generator"),
    ("rings.py",
     "        for g in gens:\n            # pick(row) lists x + (g + y)",
     "        for g in gens[:-1]:\n            # pick(row) lists x + (g + y)",
     ["tests/test_rings.py", "-k", "light_test"],
     "Light's associativity test skips the last additive generator"),
    ("rings.py",
     "        for a in range(n):\n            for g in gens:\n                if image[add[a][g]]",
     "        for a in range(0):\n            for g in gens:\n                if image[add[a][g]]",
     ["tests/test_rings.py", "-k", "no_endomorphism"],
     "RingEndomorphism checks no sum, so a non-additive image passes"),
    ("rings.py",
     "        for a in range(n):\n            for g in gens:\n                if image[add[a][g]]",
     "        for a in gens:\n            for g in gens:\n                if image[add[a][g]]",
     ["tests/test_rings.py", "-k", "refused_exactly_when"],
     "RingEndomorphism checks sums on G x G only, so a map additive on the generators alone passes"),
    ("rings.py",
     "        for g in gens:\n            for h in gens:\n",
     "        for g in gens:\n            for h in gens[gens.index(g):]:\n",
     ["tests/test_rings.py", "-k", "no_endomorphism"],
     "RingEndomorphism checks products g*h with g <= h only, so mat2:z2's failing pair (4,2) is missed"),
    ("rings.py",
     "            if fits(trial, chosen) and spread(trial, grown) and fits(trial, chosen):",
     "            if spread(trial, grown):",
     ["tests/test_rings.py", "-k", "equals_the_literal_scan"],
     "the endomorphism search keeps additive unital maps that are not multiplicative"),
    ("rings.py",
     "        for table in (mul, self._opposite):",
     "        for table in (mul,):",
     ["tests/test_rings.py", "-k", "one_sided_distributivity"],
     "the proof checks left distributivity only, so (b + g)a == ba + ga goes unchecked"),
    ("rings.py",
     "        for a in gens:\n            row = mul[a]",
     "        for a in ():\n            row = mul[a]",
     ["tests/test_rings.py", "-k", "associativity_on_the_generators"],
     "the proof skips (ab)c == a(bc) on the generator triples"),
    ("rings.py",
     "    table, add, zero = side_table(ring, side), ring.add_table, ring.zero",
     "    check_side(side)\n    table, add, zero = ring.mul_table, ring.add_table, ring.zero",
     ["tests/test_rings.py", "-k", "literal_ones"],
     "annihilator reads the ring's own table on both sides, so a left annihilator is a right one"),
    ("specfile.py",
     "return text.isascii() and text.isdigit()",
     "return text.isdigit()",
     ["tests/test_cli.py", "-k", "ascii_digits"],
     "a builtin name or monoid arity reads any script's decimal digits, so zn:\u0663 is Z/3"),
    ("cli.py",
     "    # Flush here so a closed pipe raises inside main's try.\n    sys.stdout.flush()\n"
     "    raise SystemExit(EXIT_OK)",
     "    raise SystemExit(EXIT_OK)",
     ["tests/test_cli.py", "-k", "help_into_a_closed"],
     "--help leaves its text unflushed, so a closed pipe raises at exit, outside main's try"),
    ("cli.py",
     "        code = run(argv)\n        # Flush here so a closed pipe raises inside the try.\n"
     "        sys.stdout.flush()",
     "        code = run(argv)",
     ["tests/test_cli.py", "-k", "closed_stdout"],
     "main leaves stdout unflushed, so a closed pipe raises outside its try"),
    ("cli.py",
     "    os._exit(code)",
     "    os._exit(0)",
     ["tests/test_cli.py", "-k", "cli_process"],
     "the process exits 0 whatever main returned"),
    ("cli.py",
     'islice(r["instances"], 20)',
     'islice(r["instances"], 19)',
     ["tests/test_golden.py", "-k", "text_bytes"],
     "text shows 19 of a certificate's triples while its tail line counts from 20"),
]


def run_mutant(file, old, new, selection):
    """'killed', 'survived' or 'stale' (old text not found exactly once)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "skewseries" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return "killed" if proc.returncode == 1 else "survived"


def main():
    bad = 0
    for file, old, new, selection, why in MUTANTS:
        outcome = run_mutant(file, old, new, selection)
        bad += outcome != "killed"
        print(f"{outcome:8} {file}: {why}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
