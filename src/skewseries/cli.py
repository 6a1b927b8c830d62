"""Batch front end: resolve selectors, run deciders and harnesses, report.

Every run produces a list of JSON-safe records ending in a summary whose
count equals the number of records before it.  jsonl mode prints exactly
those records; text mode is a rendering of the same list, so the records
are the single source of truth.  Exit codes: 0 ok/PASS, 2 bad spec,
3 cap or budget exceeded, 4 hypothesis not met, 5 conclusion FAIL,
6 internal invariant broken.

The series and verify modules are imported inside the subcommands and
helpers that use them, so a `ring` command never loads them: each run is a
fresh process, and start-up is most of a small run's time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    AlgebraError,
    AxiomViolation,
    BudgetExceeded,
    HypothesisNotMet,
    InvariantViolation,
    SizeCapExceeded,
    SpecFormatError,
)
from .monoids import OrderedMonoid
from .properties import SEARCH_KINDS, SIDES, class_profile
from .rings import (ARMENDARIZ_BUDGET, DEFAULT_CAPS, SEARCH_BUDGET, PropertyCertificate,
                    check_counts, idempotents)
from .specfile import (
    CATALOG_NAMES,
    builtin_ring,
    resolve_monoid,
    resolve_ring,
    resolve_sigma,
)

EXIT_OK, EXIT_SPEC, EXIT_CAP, EXIT_HYPOTHESIS, EXIT_FAIL, EXIT_INTERNAL = 0, 2, 3, 4, 5, 6
EXIT_BROKEN_PIPE = 1

# --class values in report order; "all" runs each of them.
_CLASS_FLAGS = ("baer", "quasi-baer", "gen-baer", "gen-quasi-baer")

STATEMENTS = ("prop34", "thm37-baer", "thm37-quasibaer", "corollaries")


def _box_size(monoid, count):
    # --box N means N exponent values per axis starting at the identity over
    # N and N^k, and the 2N-1 values -(N-1)..N-1 over the integers.
    if count < 1:
        raise SpecFormatError(f"--box must be >= 1, got {count}")
    return monoid.box_size(count - 1)


def _witness_text(w):
    from .series import SkewSeries, format_series

    if w is None:
        return None
    if isinstance(w, SkewSeries):
        return format_series(w)
    if isinstance(w, tuple):
        return "(" + ", ".join(str(_witness_text(x)) for x in w) + ")"
    return str(w)


def _cert_fields(cert: PropertyCertificate):
    return {
        "verdict": cert.verdict,
        "witness": _witness_text(cert.witness),
        "notes": cert.notes,
    }


# ---------------------------------------------------------------------------
# record rendering


def _text_lines(r):
    kind = r["record"]
    if kind == "config":
        body = " ".join(f"{k}={r[k]}" for k in sorted(r) if k != "record")
        return [f"# {body}"]
    if kind == "ring":
        return [f"{r['name']}: order {r['order']} ({r['label']})"]
    if kind == "tables":
        lines = [f"elements: {' '.join(r['element_labels'])}"]
        for name in ("add", "mul"):
            lines.append(f"{name}:")
            lines.extend("  " + " ".join(str(x) for x in row) for row in r[name])
        return lines
    if kind == "idempotents":
        return ["idempotents: " + ",".join(str(x) for x in r["values"])]
    if kind == "verdict":
        side = f"[{r['side']}]" if r.get("side") else ""
        head = f"{r['ring']} {r['class']}{side}: verdict {'yes' if r['verdict'] else 'no'}"
        lines = [head]
        if r.get("instances") is not None:
            lines.append(f"  {len(r['instances'])} instances accepted")
            for members, n, e in r["instances"][:20]:
                lines.append(f"  {{{','.join(str(x) for x in members)}}}: n={n} e={e}")
            if len(r["instances"]) > 20:
                lines.append(f"  ... {len(r['instances']) - 20} more in jsonl output")
        if r.get("failing") is not None:
            f = r["failing"]
            lines.append(
                f"  witness {{{','.join(str(x) for x in f['members'])}}}: annihilator chain "
                f"stabilized by n={f['n_reached']} at "
                f"{{{','.join(str(x) for x in f['stable_annihilator'])}}} "
                "with no generating idempotent")
        return lines
    if kind == "hypothesis":
        tail = f" ({r['notes']})" if r.get("notes") else ""
        return [f"hypothesis {r['name']}: {r['verdict']}{tail}"]
    if kind == "conclusion":
        if r["ok"]:
            return []
        return [f"  FAIL {r['statement']}: {r['instance']} [{r['witness']}]"]
    if kind == "report":
        extra = ""
        if "idempotent_series" in r:
            extra = f"{r['idempotent_series']} idempotent series; "
        return [f"{r['statement']}: {r['outcome']} ({extra}{r['entries']} conclusions; {r['scope']})"]
    if kind == "finding":
        body = " ".join(f"{k}={r[k]}" for k in sorted(r) if k not in ("record",))
        return [f"finding {body}"]
    if kind == "search":
        return [f"search: {r['findings']} findings, work {r['work']}, "
                f"exhausted {'yes' if r['exhausted'] else 'no'}"]
    if kind == "series":
        return [f"{r['role']}: {r['value']}"]
    if kind == "error":
        return [f"error[{r['kind']}]: {r['message']}"]
    if kind == "summary":
        extras = " ".join(
            f"{k}={r[k]}" for k in sorted(r) if k not in ("record", "records", "exit"))
        tail = f" {extras}" if extras else ""
        return [f"done: {r['records']} records, exit {r['exit']}{tail}"]
    return [json.dumps(r, sort_keys=True)]


def _emit(records, mode, stream):
    if mode != "jsonl":
        for r in records:
            for line in _text_lines(r):
                stream.write(line + "\n")
        return
    # Records are freshly built trees, so there are no cycles to look for.
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
    # Verdicts may share one certificate (the ordinary class and its
    # generalized right side, both sides of a commutative ring).  Each is
    # encoded once, and its block texts are kept only until the last record
    # using it.
    last, texts = {id(r.get("instances")): i for i, r in enumerate(records)}, {}
    for i, r in enumerate(records):
        if r.get("instances") is None:
            stream.write(encode(r) + "\n")
            continue
        key = id(r["instances"])
        if key not in texts:
            texts[key] = r["instances"].json_parts()
        # The certificate goes block by block where its key's stand-in 0 was
        # (no string value holds a bare quote), so no text outgrows a block.
        head, _, tail = encode({**r, "instances": 0}).partition('"instances":0')
        stream.write(head + '"instances":[')
        for b, part in enumerate(texts[key]):
            if b:
                stream.write(",")
            stream.write(part)
        stream.write("]" + tail + "\n")
        if last[key] == i:
            del texts[key]


# ---------------------------------------------------------------------------
# subcommands


def _verdict_record(name, cli_class, side, cv):
    rec = {
        "record": "verdict",
        "ring": name,
        "class": cli_class,
        "side": side,
        "verdict": cv.verdict,
        "instance_kind": cv.instance_kind,
        "instances": cv.per_instance if cv.verdict else None,
        "failing": None,
    }
    if not cv.verdict:
        members, n_reached, stable = cv.failing_instance
        rec["failing"] = {
            "members": list(members),
            "n_reached": n_reached,
            "stable_annihilator": list(stable),
        }
    return rec


def cmd_ring(args, records, caps):
    if args.subcmd == "list":
        for name in CATALOG_NAMES:
            ring = builtin_ring(name, caps)
            records.append({"record": "ring", "name": name,
                            "order": ring.order, "label": ring.label})
        return EXIT_OK
    ring = resolve_ring(args.ring, caps)
    name = args.ring
    records.append({"record": "ring", "name": name,
                    "order": ring.order, "label": ring.label})
    if args.subcmd == "show":
        records.append({
            "record": "tables",
            "element_labels": list(ring.element_labels),
            "add": [list(row) for row in ring.add_table],
            "mul": [list(row) for row in ring.mul_table],
        })
        records.append({"record": "idempotents", "values": sorted(idempotents(ring))})
        return EXIT_OK
    sides = SIDES if args.side == "both" else (args.side,)
    wanted = [(flag, side, flag.replace("-", "_") + (f"_{side}" if side else ""))
              for flag in (_CLASS_FLAGS if args.cls == "all" else (args.cls,))
              for side in (sides if flag.startswith("gen-") else (None,))]
    profiles = {}
    for flag, side, cls in wanted:
        kind = "quasi_baer" if "quasi" in flag else "baer"
        if kind not in profiles:
            profiles[kind] = class_profile(ring, kind, [w[2] for w in wanted], caps)
        records.append(_verdict_record(name, flag, side, profiles[kind][cls]))
    return EXIT_OK


def _report_records(records, report):
    for hyp_name, cert in report.hypotheses_checked:
        records.append({"record": "hypothesis", "statement": report.statement_id,
                        "name": hyp_name, **_cert_fields(cert)})
    for entry in report.conclusion_checked:
        records.append({"record": "conclusion", "statement": entry.statement_id,
                        "instance": entry.instance, "ok": entry.ok,
                        "witness": entry.witness})
    rec = {"record": "report", "statement": report.statement_id,
           "outcome": report.outcome,
           "entries": len(report.conclusion_checked),
           "scope": report.scope_note}
    if report.statement_id == "prop34":
        rec["idempotent_series"] = len(report.conclusion_checked) - 1
    records.append(rec)
    return report.outcome == "PASS"


def cmd_verify(args, records, caps):
    from .series import SkewContext, armendariz_pair_count
    from .verify import verify_corollaries, verify_prop34, verify_thm37

    check_counts(SpecFormatError, "--", budget=args.budget, samples=args.samples)
    ring = resolve_ring(args.ring, caps)

    def budgeted_slots(monoid):
        # Every statement starts with the Armendariz pair budget; checking it
        # from the point count stops an over-budget box before it is built.
        armendariz_pair_count(ring, _box_size(monoid, args.box), args.budget)
        return monoid.box(args.box - 1)

    monoid = resolve_monoid(args.monoid)
    if args.statement == "corollaries":
        if monoid != OrderedMonoid("nat", "natural") or args.sigma.strip() not in ("", "id"):
            raise SpecFormatError(
                "the corollary runs are untwisted over the natural and trivial "
                "orders; --monoid/--sigma selectors do not apply")
        reports = verify_corollaries(ring, budgeted_slots(monoid),
                                     budget=args.budget, seed=args.seed, samples=args.samples,
                                     caps=caps)
        all_pass = True
        for report in reports:
            all_pass &= _report_records(records, report)
        return EXIT_OK if all_pass else EXIT_FAIL
    sigma = resolve_sigma(ring, args.sigma, caps)
    ctx = SkewContext(ring, monoid, sigma)
    slots = budgeted_slots(monoid)
    if args.statement == "prop34":
        report = verify_prop34(ctx, slots, budget=args.budget)
    else:
        variant = "baer" if args.statement == "thm37-baer" else "quasi_baer"
        report = verify_thm37(ctx, variant, slots, budget=args.budget,
                              seed=args.seed, samples=args.samples, caps=caps)
    return EXIT_OK if _report_records(records, report) else EXIT_FAIL


def _split_catalog(text):
    # prod:zn:A,zn:B carries a comma of its own, so it eats the next token.
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    names = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("prod:") and i + 1 < len(tokens):
            tok = tok + "," + tokens[i + 1]
            i += 1
        names.append(tok)
        i += 1
    return names


def cmd_search(args, records, caps):
    from .verify import counterexample_search

    check_counts(SpecFormatError, "--", budget=args.budget)
    names = _split_catalog(args.catalog)
    catalog = [(n, resolve_ring(n, caps)) for n in names]
    props = None if args.properties == "all" else tuple(
        p.strip() for p in args.properties.split(",") if p.strip())
    # The search scans over N; its box is built only once a scan fits the budget.
    out = counterexample_search(catalog, props, budget=args.budget,
                                box=_box_size(OrderedMonoid("nat", "natural"), args.box), caps=caps)
    for f in out.findings:
        records.append({"record": "finding", **f})
    records.append({"record": "search", "findings": len(out.findings),
                    "exhausted": out.exhausted, "work": out.work})
    return EXIT_CAP if out.exhausted else EXIT_OK


def cmd_series(args, records, caps):
    from .series import SkewContext, format_series, parse_series_literal

    ring = resolve_ring(args.ring, caps)
    monoid = resolve_monoid(args.monoid)
    ctx = SkewContext(ring, monoid, resolve_sigma(ring, args.sigma, caps))
    parsed = []
    for text in args.literals:
        f = parse_series_literal(ctx, text)
        parsed.append(f)
        records.append({"record": "series", "role": "term",
                        "input": text, "value": format_series(f)})
    if len(parsed) > 1:
        total, prod = parsed[0], parsed[0]
        for f in parsed[1:]:
            total = total + f
            prod = prod * f
        records.append({"record": "series", "role": "sum", "value": format_series(total)})
        records.append({"record": "series", "role": "product", "value": format_series(prod)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


def _config_record(args):
    skip = {"func", "output"}
    rec = {"record": "config", "command": args.command}
    for key, value in sorted(vars(args).items()):
        if key not in skip and key != "command" and value is not None:
            rec[key] = value if isinstance(value, (int, bool)) else str(value)
    return rec


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
                         choices=sorted(_CLASS_FLAGS + ("all",)))
    check_p.add_argument("--side", default="right", choices=("right", "left", "both"),
                         help="side for the generalized classes")

    verify_p = sub.add_parser("verify", parents=[common],
                              help="run a statement harness")
    verify_p.add_argument("statement", choices=STATEMENTS)
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

    ring_p.set_defaults(func=cmd_ring)
    verify_p.set_defaults(func=cmd_verify)
    search_p.set_defaults(func=cmd_search)
    series_p.set_defaults(func=cmd_series)
    return parser


def run(argv=None, stream=None):
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    records = [_config_record(args)]
    try:
        code = args.func(args, records, DEFAULT_CAPS.updated(args.caps))
    except HypothesisNotMet as exc:
        rec = {"record": "error", "kind": "hypothesis-not-met",
               "hypothesis": exc.hypothesis, "message": str(exc)}
        if exc.certificate is not None:
            rec.update(_cert_fields(exc.certificate))
        records.append(rec)
        code = EXIT_HYPOTHESIS
    except (SizeCapExceeded, BudgetExceeded) as exc:
        records.append({"record": "error", "kind": "cap-exceeded", "message": str(exc)})
        code = EXIT_CAP
    except InvariantViolation as exc:
        records.append({"record": "error", "kind": "internal", "message": str(exc)})
        code = EXIT_INTERNAL
    except (SpecFormatError, AxiomViolation, ValueError) as exc:
        records.append({"record": "error", "kind": "spec", "message": str(exc)})
        code = EXIT_SPEC
    except AlgebraError as exc:
        records.append({"record": "error", "kind": type(exc).__name__, "message": str(exc)})
        code = EXIT_SPEC
    records.append({"record": "summary", "records": len(records), "exit": code})
    _emit(records, args.output, stream)
    return code


def main(argv=None):
    try:
        code = run(argv)
        # Flush here so a closed pipe raises inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (say `| head`).  As the SIGPIPE note of the
        # `signal` docs advises, point stdout at devnull so the flush at exit
        # cannot fail again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
