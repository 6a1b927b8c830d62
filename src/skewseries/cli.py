"""Batch front end: resolve selectors, run deciders and harnesses, report.

Every run produces a list of JSON-safe records ending in a summary whose
count equals the number of records before it.  jsonl mode prints exactly
those records; text mode is a rendering of the same list, so the records
are the single source of truth.  Exit codes: 0 ok/PASS, 2 bad spec,
3 cap or budget exceeded, 4 hypothesis not met, 5 conclusion FAIL,
6 internal invariant broken.

The series and verify modules are imported inside the subcommands and
helpers that use them, so a `ring` command never loads them: each run is a
fresh process, and start-up is most of a small run's time.  For the same
reason there is no argparse: its import, its parser build and the gettext
lookups that load locale cost about 8 ms a run, more than most small jobs
compute.  parse_args reads the line from the COMMANDS table instead.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

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
    rec = {key: value if isinstance(value, int) else str(value)
           for key, value in vars(args).items() if key not in ("func", "output")}
    return {"record": "config", **rec}


# The command line.  COMMANDS maps each command path to (description,
# positional, options, handler).  The positional is (dest, count, choices):
# count "1" takes one word, "+" one or more, and "..." a subcommand name that
# hands the rest of the line on; the path ends at an entry with a handler.
# An option is (dest, default, choices, conversion, help), and a default of
# None makes it required.
_COMMON = {"--output": ("output", "text", ("text", "jsonl"), str, "text renders the jsonl records"),
           "--caps": ("caps", "", None, str, "override size caps, e.g. subset=20,endo=12")}
_RING = {"--ring": ("ring", None, None, str, "catalog name, ring spec or ring file")}
_TWIST = {"--monoid": ("monoid", "nat:natural", None, str, "exponent monoid spec or file"),
          "--sigma": ("sigma", "id", None, str, "'id' or an index into the endomorphisms")}
_CHECK = {"--class": ("cls", "all", sorted(_CLASS_FLAGS + ("all",)), str, "class to decide"),
          "--side": ("side", "right", (*SIDES, "both"), str, "side of the generalized classes")}
_VERIFY = {"--box": ("box", 2, None, int, "exponent values per axis; over int, -(N-1)..N-1"),
           "--seed": ("seed", 0, None, int, "seed of the sampled series ideals"),
           "--samples": ("samples", 20, None, int, "sampled series ideals (quasi-Baer variant)"),
           "--budget": ("budget", ARMENDARIZ_BUDGET, None, int, "Armendariz pair budget")}
_SEARCH = {"--catalog": ("catalog", ",".join(CATALOG_NAMES), None, str, "ring names or files"),
           "--properties": ("properties", "all", None, str, "all, or of " + ",".join(SEARCH_KINDS)),
           "--budget": ("budget", SEARCH_BUDGET, None, int, "work budget"),
           "--box": ("box", 2, None, int, "exponent values per axis")}
COMMANDS = {
    (): ("Exact deciders and theorem harnesses for annihilator conditions in finite rings "
         "and their skew series rings.", ("command", "...", ("ring", "verify", "search", "series")),
         {}, None),
    ("ring",): ("catalog, tables, and class deciders", ("subcmd", "...", ("list", "show", "check")),
                {}, None),
    ("ring", "list"): ("print the builtin catalog", None, _COMMON, cmd_ring),
    ("ring", "show"): ("tables and idempotents", None, {**_COMMON, **_RING}, cmd_ring),
    ("ring", "check"): ("run class deciders", None, {**_COMMON, **_RING, **_CHECK}, cmd_ring),
    ("verify",): ("run a statement harness", ("statement", "1", STATEMENTS),
                  {**_COMMON, **_RING, **_TWIST, **_VERIFY}, cmd_verify),
    ("search",): ("scan rings for strict gaps and Armendariz failures", None,
                  {**_COMMON, **_SEARCH}, cmd_search),
    ("series",): ("parse series literals like '2@0 + 3@1' or '1@0,1'; print sum and product",
                  ("literals", "+", None), {**_COMMON, **_RING, **_TWIST}, cmd_series),
}


def _usage(path):
    _, positional, options, _ = COMMANDS[path]
    words = ["usage: skewseries", *path, "[-h]"]
    for flag, (dest, default, choices, _, _) in options.items():
        word = f"{flag} {'{' + ','.join(choices) + '}' if choices else dest.upper()}"
        words.append(word if default is None else f"[{word}]")
    if positional:
        dest, count, choices = positional
        words.append(("{" + ",".join(choices) + "}" if choices else dest.upper())
                     + ("" if count == "1" else " ..."))
    return " ".join(words)


def _help(path):
    text, positional, options, _ = COMMANDS[path]
    lines = [("-h, --help", "show this help and exit"), *((f, o[4]) for f, o in options.items())]
    if positional and positional[1] == "...":
        lines += [(name, COMMANDS[path + (name,)][0]) for name in positional[2]]
    sys.stdout.write(f"{_usage(path)}\n\n{text}\n\n" + "".join(f"  {a:<14}{b}\n" for a, b in lines))
    raise SystemExit(EXIT_OK)


def _fail(path, message):
    sys.stderr.write(f"{_usage(path)}\nskewseries: error: {message}\n")
    raise SystemExit(EXIT_SPEC)


def _value(path, name, text, conv, choices):
    try:
        value = conv(text)
    except ValueError:
        _fail(path, f"argument {name}: invalid {conv.__name__} value: {text!r}")
    if choices and value not in choices:
        _fail(path, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _word(path, word, flags):
    # None for a value, else (flag, text glued to it); the flag is None for
    # an option this level does not know.
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return word, None
    flag, eq, glued = word.partition("=")
    if eq and flag in flags:
        return flag, glued
    # A unique prefix of a long option.  Short options are only -h.
    found = [(f, glued if eq else None) for f in flags if f.startswith(flag) and word[1] == "-"]
    if len(found) > 1:
        _fail(path, f"ambiguous option: {word} could match {', '.join(f for f, _ in found)}")
    if found:
        return found[0]
    return None if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word else (None, None)


def parse_args(argv):
    """The namespace of a command line: each dest of its command path, and
    func, the handler.  Words are read in argparse's order, so a line parses,
    asks for help or fails (exit 2, usage on stderr) where argparse would."""
    ns, path, words, extras = {}, (), list(argv), []
    while True:
        _, positional, options, func = COMMANDS[path]
        flags = {**options, "-h": None, "--help": None}
        ns.update({dest: default for dest, default, *_ in options.values()})
        # Per word: an option's (flag, glued), "A" a value, or "-" the first
        # "--", which makes every later word a value.
        sep = words.index("--") if "--" in words else len(words)
        kinds = ([_word(path, word, flags) or "A" for word in words[:sep]]
                 + ["-"] * (sep < len(words)) + ["A"] * (len(words) - sep - 1))
        i, pending = 0, positional
        while i < len(words):
            kind = kinds[i]
            if isinstance(kind, str) and pending and (kind == "A" or i + 1 < len(words)):
                dest, count, choices = pending
                end = i + 1 + (kind == "-")
                while end < len(words) and (count == "..." or kinds[end] == "-"
                                            or count == "+" and kinds[end] == "A"):
                    end += 1
                values = words[i:end]
                if count != "..." and "--" in values:
                    values.remove("--")
                _value(path, dest, values[0], str, choices)  # only "+" takes several, choice-free
                ns[dest] = values if count == "+" else values[0]
                pending, i, rest = None, end, values
            elif isinstance(kind, str) or kind[0] is None:
                extras.append(words[i])
                i += 1
            else:
                (flag, glued), i = kind, i + 1
                if flags[flag] is None:  # -h or --help
                    if glued is None:
                        _help(path)
                    _fail(path, f"argument -h/--help: ignored explicit argument {glued!r}")
                dest, _, choices, conv, _ = flags[flag]
                if glued is None:
                    if i == len(words) or kinds[i] != "A":
                        _fail(path, f"argument {flag}: expected one argument")
                    glued, i = words[i], i + 1
                ns[dest] = _value(path, flag, glued, conv, choices)
        missing = [pending[0]] if pending else []
        missing += [f for f, o in options.items() if o[1] is None and ns[o[0]] is None]
        if missing:
            _fail(path, f"the following arguments are required: {', '.join(missing)}")
        if func:
            break
        path, words = path + (rest[0],), rest[1:]
    if extras:
        _fail(path, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**ns, func=func)


def run(argv=None, stream=None):
    stream = stream if stream is not None else sys.stdout
    args = parse_args(sys.argv[1:] if argv is None else argv)
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


def exit_main():
    """Run main and end the process with its exit code through os._exit,
    once stdout and stderr are flushed.  This is the process entry point
    (`python -m skewseries` and the `skewseries` script): it skips
    interpreter teardown, which frees every module and object that nothing
    reads again and cost each run about 10 ms, so atexit handlers do not run
    either.  --help, usage errors and bugs leave main by raising and exit as
    any Python program does."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
