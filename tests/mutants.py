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
    ("verify.py",
     "any(times_e[c] != c for _, c in g._terms)",
     "any(ctx.ring.mul_table[c][e] != c for _, c in g._terms)",
     ["tests/test_verify.py"],
     "the bridge reads c_e*g as c*e, right multiplication by e"),
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
     "complete = ((ring.zero,) in found\n                    and ",
     "complete = (",
     ["tests/test_properties.py"],
     "the ideal recheck accepts a certificate without its {0} triple"),
    ("properties.py",
     "        if h == trivial:",
     "        if h & trivial:",
     ["tests/test_properties.py"],
     "every block takes the trivial-annihilator shortcut, since 0 annihilates everything"),
    ("properties.py",
     "[genmap[trivial]] * len(lows)",
     "[genmap[1]] * len(lows)",
     ["tests/test_properties.py"],
     "the shortcut reads the generator of {element 0}, not of {zero}"),
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
