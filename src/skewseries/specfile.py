"""Resolution of ring, monoid, and twist selectors used by the CLI.

Builtin ring names follow fixed forms (zn:N, prod:zn:A,zn:B and
(mat|ut)(2|3):zN, with N, A, B >= 2 in at most 640 ASCII digits); a path to
an INI spec file overrides the builtin namespace.  All format problems raise
SpecFormatError so the front end can map them to one exit code.
"""

import os

from .errors import IllegalPairing, SpecFormatError
from .monoids import OrderedMonoid
from .rings import (
    DEFAULT_CAPS,
    FiniteRing,
    _SAFE_DIGITS,
    _check_construction,
    enumerate_endomorphisms,
    identity_endomorphism,
    ring_matrix,
    ring_product,
    ring_upper_triangular,
    ring_zn,
)

CATALOG_NAMES = (
    "zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "zn:7", "zn:8",
    "prod:zn:2,zn:2", "ut2:z2", "mat2:z2",
)

_RING_KEYS = {
    "zn": {"kind", "n", "label"},
    "product": {"kind", "left", "right", "label"},
    "matrix": {"kind", "base", "k", "label"},
    "upper_triangular": {"kind", "base", "k", "label"},
    "tables": {"kind", "order", "add", "mul", "label"},
}


def _digits(text):
    # str.isdigit alone also takes other scripts' digits and superscripts.
    return text.isascii() and text.isdigit()


def _is_zn(name):
    return name.startswith("zn:") and _digits(name[3:])


def builtin_ring(name, caps=DEFAULT_CAPS):
    """A catalog ring by name; SpecFormatError names the valid forms."""
    if _is_zn(name):
        return ring_zn(_modulus(name[3:], name), caps)
    kind, _, rest = name.partition(":")
    left, _, right = rest.partition(",")
    if kind == "prod" and _is_zn(left) and _is_zn(right):
        return ring_product(builtin_ring(left, caps), builtin_ring(right, caps), caps)
    if kind in ("mat2", "mat3", "ut2", "ut3") and rest.startswith("z") and _digits(rest[1:]):
        base = ring_zn(_modulus(rest[1:], name), caps)
        maker = ring_matrix if kind.startswith("mat") else ring_upper_triangular
        return maker(base, int(kind[-1]), caps)
    raise SpecFormatError(
        f"unknown ring {name!r}; builtins match zn:N, prod:zn:A,zn:B and "
        f"(mat|ut)(2|3):zN with N, A, B >= 2; a file path overrides them")


def _number(text, context):
    """int(text) of ASCII digits, refused past _SAFE_DIGITS digits, so that
    every accepted number converts both ways under any int-to-str limit."""
    if len(text) > _SAFE_DIGITS:
        raise SpecFormatError(
            f"number of {len(text)} digits in {context} is longer than {_SAFE_DIGITS} digits")
    return int(text)


def _modulus(text, context):
    n = _number(text, f"ring spec {context!r}")
    if n < 2:
        raise SpecFormatError(f"number {n} too small in ring spec {context!r}")
    return n


def split_catalog(text):
    """A comma-separated list of ring names or paths, blanks dropped."""
    # prod:zn:A,zn:B carries a comma of its own, so it eats the next token.
    names = []
    for tok in filter(None, map(str.strip, text.split(","))):
        if names and names[-1].startswith("prod:") and "," not in names[-1]:
            names[-1] += "," + tok
        else:
            names.append(tok)
    return names


def resolve_ring(spec, caps=DEFAULT_CAPS, *, _chain=()):
    """Spec string to ring: an existing file path wins, else the builtins.

    _chain holds the real paths of the ring files that led here.
    """
    if os.path.isfile(spec):
        return parse_ring_file(spec, caps, _chain=_chain)
    return builtin_ring(spec, caps)


def _read_ini(path, section):
    # Only spec files need configparser, so only they pay for its import.
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}")
    if not parser.has_section(section):
        raise SpecFormatError(f"spec file {path} lacks a [{section}] section")
    return dict(parser.items(section))


def parse_ring_file(path, caps=DEFAULT_CAPS, *, _chain=()):
    """Build a ring from an INI file with a [ring] section.

    kind selects the constructor; keys outside the kind's whitelist are
    rejected so a typoed parameter cannot be silently ignored.  A file that
    leads back to itself through the files it names is refused.
    """
    _chain += (os.path.realpath(path),)
    if _chain[-1] in _chain[:-1]:
        raise SpecFormatError(f"ring files refer to themselves: {' -> '.join(_chain)}")
    items = _read_ini(path, "ring")
    kind = items.get("kind")
    if kind not in _RING_KEYS:
        raise SpecFormatError(
            f"{path}: ring kind must be one of {sorted(_RING_KEYS)}, got {kind!r}")
    extra = set(items) - _RING_KEYS[kind]
    if extra:
        raise SpecFormatError(f"{path}: unknown keys for kind {kind}: {sorted(extra)}")
    try:
        if kind == "zn":
            ring = ring_zn(int(items["n"]), caps)
        elif kind == "product":
            ring = ring_product(resolve_ring(items["left"], caps, _chain=_chain),
                                resolve_ring(items["right"], caps, _chain=_chain), caps)
        elif kind in ("matrix", "upper_triangular"):
            base = resolve_ring(items["base"], caps, _chain=_chain)
            maker = ring_matrix if kind == "matrix" else ring_upper_triangular
            ring = maker(base, int(items.get("k", "2")), caps)
        else:
            ring = _ring_from_table_text(path, items, caps)
    except KeyError as exc:
        raise SpecFormatError(f"{path}: missing key {exc.args[0]!r} for kind {kind}")
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}")
    label = items.get("label")
    if label:
        # The ring was just built here and nothing else holds it yet.
        ring.label = label
    return ring


def _ring_from_table_text(path, items, caps):
    order = int(items["order"])
    _check_construction(order, caps)
    add = _parse_table(items["add"], order, f"{path}: add")
    mul = _parse_table(items["mul"], order, f"{path}: mul")
    zero = _neutral(add, order, f"{path}: additive identity")
    one = _neutral(mul, order, f"{path}: multiplicative identity", two_sided=True)
    return FiniteRing(order, add, mul, zero, one, items.get("label", "tables"))


def _parse_table(text, order, what):
    # Rows separated by ';' or newlines, entries by whitespace or commas.
    rows = [r for r in text.replace(";", "\n").split("\n") if r.strip()]
    if len(rows) != order:
        raise SpecFormatError(f"{what}: expected {order} rows, got {len(rows)}")
    table = []
    for r in rows:
        try:
            row = [int(x) for x in r.replace(",", " ").split()]
        except ValueError:
            raise SpecFormatError(f"{what}: non-integer entry in row {r!r}")
        if len(row) != order:
            raise SpecFormatError(f"{what}: row {r!r} has {len(row)} entries, need {order}")
        table.append(row)
    return table


def _neutral(table, order, what, two_sided=False):
    for e in range(order):
        left = all(table[e][x] == x for x in range(order))
        right = all(table[x][e] == x for x in range(order))
        if left and (right or not two_sided):
            return e
    raise SpecFormatError(f"{what}: no identity element in the table")


def parse_monoid_spec(text):
    """Shorthand 'kind:order' like nat:natural, nat2:lex, int:trivial."""
    head, sep, mode = text.partition(":")
    if not sep:
        mode = "natural"
    head = head.strip()
    base, digits = head[:3], head[3:]
    if base not in ("nat", "int") or digits and not _digits(digits):
        raise SpecFormatError(
            f"monoid spec {text!r} not understood; use nat, int, or natK "
            "with an optional :order suffix")
    if base == "int" and digits:
        raise SpecFormatError("int exponents are one-dimensional; drop the arity")
    k = _number(digits, f"monoid spec {text!r}") if digits else 1
    if k < 1:
        raise SpecFormatError(f"monoid arity must be positive, got {k}")
    kind = base if k == 1 else "nat_k"
    try:
        return OrderedMonoid(kind, mode.strip(), k=k)
    except (ValueError, IllegalPairing) as exc:
        raise SpecFormatError(f"monoid spec {text!r}: {exc}")


def parse_monoid_file(path):
    """INI file with a [monoid] section: kind, optional k, optional order."""
    items = _read_ini(path, "monoid")
    extra = set(items) - {"kind", "k", "order"}
    if extra:
        raise SpecFormatError(f"{path}: unknown monoid keys {sorted(extra)}")
    kind = items.get("kind", "nat")
    k = items.get("k", "")
    mode = items.get("order", "natural")
    return parse_monoid_spec(f"{kind}{k}:{mode}")


def resolve_monoid(spec):
    if os.path.isfile(spec):
        return parse_monoid_file(spec)
    return parse_monoid_spec(spec)


def resolve_sigma(ring, selector, caps=DEFAULT_CAPS):
    """Twist selector: 'id' or an index into the endomorphism enumeration."""
    text = selector.strip()
    if text in ("", "id"):
        return identity_endomorphism(ring)
    try:
        index = int(text)
    except ValueError:
        raise SpecFormatError(f"sigma selector {selector!r}: use 'id' or an integer index")
    endos = enumerate_endomorphisms(ring, caps)
    if not 0 <= index < len(endos):
        raise SpecFormatError(
            f"sigma index {index} out of range; {ring.label} has "
            f"{len(endos)} endomorphisms (valid: 0..{len(endos) - 1})")
    return endos[index]

