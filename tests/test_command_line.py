"""The command-line parser against argparse, its reference.

skewseries reads its command line from one table (cli.COMMANDS) instead of
argparse, which cost every run its import, its parser build and gettext's
locale lookups.  build_parser below is the argparse parser the CLI used to
build.  On every line of the corpus both must give the same namespace, or
both must exit with the same code: 2 for a usage error, 0 for help.  Only
the help and usage-error texts may differ.

The reference is Python 3.11's argparse.  Later releases changed how it
reads "--" and words such as -1@0, so the live comparison runs on 3.11
only, and PINNED holds 3.11's outcomes on those lines, checked on every
version: the table is the specification now.
"""

import argparse
import ast
import contextlib
import functools
import importlib.util
import io
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from skewseries import cli
from skewseries.properties import SEARCH_KINDS
from skewseries.rings import ARMENDARIZ_BUDGET, SEARCH_BUDGET
from skewseries.specfile import CATALOG_NAMES
from test_package import README_COMMANDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewseries",
        description="Exact deciders and theorem harnesses for annihilator "
                    "conditions in finite rings and their skew series rings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "jsonl"), default="text",
                        help="report format; text is derived from the jsonl records")
    common.add_argument("--caps", default="",
                        help="override size caps, e.g. subset=20,endo=12")
    sub = parser.add_subparsers(dest="command", required=True)

    ring_p = sub.add_parser("ring", help="catalog, tables, and class deciders")
    ring_sub = ring_p.add_subparsers(dest="subcmd", required=True)
    ring_sub.add_parser("list", parents=[common], help="print the builtin catalog")
    show_p = ring_sub.add_parser("show", parents=[common], help="tables and idempotents")
    show_p.add_argument("--ring", required=True)
    check_p = ring_sub.add_parser("check", parents=[common], help="run class deciders")
    check_p.add_argument("--ring", required=True)
    check_p.add_argument("--class", dest="cls", default="all",
                         choices=sorted(cli._CLASS_FLAGS + ("all",)))
    check_p.add_argument("--side", default="right", choices=("right", "left", "both"),
                         help="side for the generalized classes")

    verify_p = sub.add_parser("verify", parents=[common],
                              help="run a statement harness")
    verify_p.add_argument("statement", choices=cli.STATEMENTS)
    verify_p.add_argument("--ring", required=True)
    verify_p.add_argument("--monoid", default="nat:natural",
                          help="exponent monoid spec or file (default nat:natural)")
    verify_p.add_argument("--sigma", default="id",
                          help="'id' or an index into the endomorphism enumeration")
    verify_p.add_argument("--box", type=int, default=2,
                          help="exponent values per axis from the identity; over int, "
                               "the 2N-1 values -(N-1)..N-1 (default 2)")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--samples", type=int, default=20,
                          help="sampled series ideals for the quasi-Baer variant")
    verify_p.add_argument("--budget", type=int, default=ARMENDARIZ_BUDGET)

    search_p = sub.add_parser("search", parents=[common],
                              help="scan rings for strict gaps and Armendariz failures")
    search_p.add_argument("--catalog", default=",".join(CATALOG_NAMES),
                          help="comma-separated ring names or files; empty scans nothing")
    search_p.add_argument("--properties", default="all",
                          help="comma-separated subset of: " + ", ".join(SEARCH_KINDS))
    search_p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    search_p.add_argument("--box", type=int, default=2)

    series_p = sub.add_parser("series", parents=[common],
                              help="parse series literals; print sum and product")
    series_p.add_argument("--ring", required=True)
    series_p.add_argument("--monoid", default="nat:natural")
    series_p.add_argument("--sigma", default="id")
    series_p.add_argument("literals", nargs="+", metavar="SERIES",
                          help="literal like '2@0 + 3@1' or '1@0,1' for tuple exponents")

    ring_p.set_defaults(func=cli.cmd_ring)
    verify_p.set_defaults(func=cli.cmd_verify)
    search_p.set_defaults(func=cli.cmd_search)
    series_p.set_defaults(func=cli.cmd_series)
    return parser


def outcome(parse, argv):
    """(namespace with func by name, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return {**ns, "func": ns["func"].__name__}, out.getvalue(), err.getvalue()


def assert_parses_to(argv, want):
    got, out, err = outcome(cli.parse_args, argv)
    assert got == want, argv
    if got == 2:
        assert out == ""
        assert err.startswith("usage: skewseries") and "\nskewseries: error: " in err
    elif got == 0:
        assert out.startswith("usage: skewseries") and err == ""
    else:
        assert out == err == ""


def assert_parity(argv):
    assert_parses_to(argv, outcome(build_parser().parse_args, argv)[0])


on_the_reference_python = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the reference is Python 3.11's argparse, which later releases changed")


def _workload_argvs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.job_argv(job, seed) for jobs in workloads.WORKLOADS.values()
            for job in jobs for seed in (7, 11)]


def _test_cli_argvs():
    # Every literal command line of test_cli.py: a list of strings that starts
    # with a subcommand, or the string arguments of an invoke call.
    with open(os.path.join(ROOT, "tests", "test_cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("invoke", "invoke_jsonl"):
            words = node.args
            tail = ["--output", "jsonl"] if node.func.id == "invoke_jsonl" else []
        elif isinstance(node, ast.List):
            words, tail = node.elts, []
        else:
            continue
        if words and all(isinstance(w, ast.Constant) and isinstance(w.value, str) for w in words):
            argv = [w.value for w in words] + tail
            if argv[0] in ("ring", "verify", "search", "series"):
                found.append(argv)
    return found


HAND_CASES = [
    [], ["ring"], ["verify"], ["--"], ["-h"], ["--help"], ["ring", "-h"], ["ring", "list", "-h"],
    ["ring", "check", "--help"], ["verify", "-h"], ["search", "--he"], ["series", "-h"],
    ["verify", "prop34", "--samp", "3", "--ring", "zn:4"],
    ["verify", "prop34", "--ri", "zn:4", "--out", "jsonl", "--bo", "3"],
    ["verify", "prop34", "--ring", "zn:4", "--s", "3"],
    ["verify", "prop34", "--ring", "zn:4", "--b", "3"],
    ["ring", "check", "--ring", "zn:4", "--c", "baer"],
    ["ring", "check", "--ring=zn:4", "--class=gen-baer", "--side=both", "--output=jsonl"],
    ["verify", "prop34", "--ring=zn:4", "--box=-1"],
    ["verify", "prop34", "--ring", "zn:4", "--box", "-1"],
    ["verify", "prop34", "--ring", "zn:4", "--seed", "-3", "--samples", "-0"],
    ["verify", "prop34", "--ring", "--box", "2"],
    ["verify", "prop34", "--box", "2"],
    ["ring", "show"],
    ["ring", "check", "--ring", "zn:4", "--class", "bear"],
    ["ring", "check", "--ring", "zn:4", "--side", "up"],
    ["verify", "prop35", "--ring", "zn:4"],
    ["verify", "thm37-baer", "--ring", "zn:4", "--seed", "x"],
    ["verify", "thm37-baer", "--ring", "zn:4", "--seed", "1.5"],
    ["verify", "prop34", "extra", "--ring", "zn:4"],
    ["verify", "prop34", "--ring", "zn:4", "extra"],
    ["ring", "list", "extra"], ["ring", "bogus"], ["bogus"],
    ["--output", "jsonl", "ring", "list"], ["ring", "--output", "jsonl", "list"],
    ["--ring", "zn:4", "verify", "prop34"],
    ["verify", "--ring", "zn:4", "prop34"],
    ["verify", "--ring", "zn:4", "--", "prop34"],
    ["verify", "--", "prop34", "--ring", "zn:4"],
    ["verify", "prop34", "--ring", "zn:4", "--"],
    ["verify", "prop34", "--", "--ring", "zn:4"],
    ["--", "verify", "prop34", "--ring", "zn:4"],
    ["verify", "--ring", "--", "prop34"],
    ["series", "--ring", "zn:4", "2@0 + 3@1", "1@1"],
    ["series", "2@0", "1@1", "--ring", "zn:4", "--monoid", "int:natural"],
    ["series", "--ring", "zn:4", "--", "-1@0", "--", "1@1"],
    ["series", "--ring", "zn:4", "2@0", "--sigma", "id", "1@1"],
    ["series", "--ring", "zn:4", "-1@0"],
    ["series", "--ring", "zn:4", "-1"],
    ["series", "--ring", "zn:4"],
    ["verify", "prop34", "--ring", "zn:4", "-x"],
    ["verify", "prop34", "--ring", "zn:4", "-"],
    ["verify", "prop34", "--ring", "zn:4", "--help=yes"],
    ["verify", "prop34", "--ring", "zn:4", "--ring=", "--caps="],
    ["verify", "prop34", "--ring", "zn:4", "--=x"],
    ["verify", "prop34", "--ring", "a b", "--monoid", "-1 x"],
    ["verify", "-h", "--ring"], ["verify", "--ring", "-h"], ["verify", "bogus", "-h"],
    ["verify", "-h", "bogus"], ["verify", "--box", "x", "-h"], ["verify", "-h", "--s"],
]

CORPUS = _workload_argvs() + [argv for _, argv, _ in README_COMMANDS] + _test_cli_argvs() + \
    HAND_CASES


def test_the_corpus_covers_every_source():
    # 21 benchmark jobs at two seeds, the README's command lines and the
    # literal command lines of test_cli.py.
    assert len(_workload_argvs()) >= 2 * 21
    assert len(README_COMMANDS) >= 10 and len(_test_cli_argvs()) >= 30


@on_the_reference_python
@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) or "(none)" for argv in CORPUS])
def test_the_table_parses_as_argparse_does(argv):
    assert_parity(argv)


TOKENS = sorted({word for argv in CORPUS for word in argv})
STARTS = [[], ["ring"], ["ring", "list"], ["ring", "show"], ["ring", "check"], ["verify"],
          ["verify", "thm37-baer"], ["search"], ["series"]]


@on_the_reference_python
@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(STARTS) | st.sampled_from(CORPUS),
       st.lists(st.sampled_from(TOKENS), max_size=7))
def test_token_sequences_parse_as_argparse_does(start, words):
    # A corpus line with words appended often still parses, so both paths
    # of the comparison are walked.
    assert_parity(start + words)


_VERIFY = {"command": "verify", "output": "text", "caps": "", "statement": "prop34",
           "ring": "zn:4", "monoid": "nat:natural", "sigma": "id", "box": 2, "seed": 0,
           "samples": 20, "budget": ARMENDARIZ_BUDGET, "func": "cmd_verify"}
_SERIES = {"command": "series", "output": "text", "caps": "", "ring": "zn:4",
           "monoid": "nat:natural", "sigma": "id", "func": "cmd_series"}

# Each line's namespace or exit code.  Up to -1@0 these are Python 3.11's
# argparse outcomes; 3.12.7 and 3.13 strip a "--" before a subcommand, and
# 3.13 reads a word that starts like a negative number as a value.  The last
# three differ from 3.11 on purpose: a short option is -h alone (argparse
# read -hh as help), and --ring=-- stores "--" (argparse 3.11 stored []).
PINNED = [
    (["--"], 2),
    (["--", "verify", "prop34", "--ring", "zn:4"], 2),
    (["verify", "--", "prop34", "--ring", "zn:4"], 2),
    (["verify", "--ring", "zn:4", "--", "prop34"], _VERIFY),
    (["verify", "prop34", "--ring", "zn:4", "--"], 2),
    (["verify", "prop34", "--", "--ring", "zn:4"], 2),
    (["verify", "--ring", "--", "prop34"], 2),
    (["series", "--ring", "zn:4", "--", "-1@0", "--", "1@1"],
     {**_SERIES, "literals": ["-1@0", "--", "1@1"]}),
    (["series", "--ring", "zn:4", "--", "--"], {**_SERIES, "literals": ["--"]}),
    (["series", "--ring", "zn:4", "-1@0"], 2),
    (["verify", "prop34", "--ring", "zn:4", "-hh"], 2),
    (["verify", "prop34", "--ring", "zn:4", "-hx"], 2),
    (["verify", "prop34", "--ring=--"], {**_VERIFY, "ring": "--"}),
]


@pytest.mark.parametrize("argv, want", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_the_table_keeps_its_pinned_outcomes(argv, want):
    assert_parses_to(argv, want)


def test_a_usage_error_exits_2_with_usage_on_stderr_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "prop34"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        err.splitlines()[0],
        "skewseries: error: the following arguments are required: --ring"]
    assert err.startswith("usage: skewseries verify [-h] ")


@pytest.mark.parametrize("path", list(cli.COMMANDS))
def test_help_lists_every_option_of_its_level(path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run([*path, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: skewseries {' '.join(path)}".rstrip())
    assert all(flag in out for flag in cli.COMMANDS[path][2])
