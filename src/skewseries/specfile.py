"""Resolution of ring, monoid, and twist selectors used by the CLI.

Builtin ring names follow fixed patterns (zn:N, prod:zn:A,zn:B, mat2:z2,
ut2:z2); a path to an INI spec file overrides the builtin namespace.  All
format problems raise SpecFormatError so the front end can map them to one
exit code.
"""

from __future__ import annotations

import configparser
import os
import re

from .errors import SpecFormatError
from .monoids import monoid_make
from .rings import (
    DEFAULT_CAPS,
    FiniteRing,
    build_ring_from_tables,
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

_ZN_RE = re.compile(r"^zn:(\d+)$")
_PROD_RE = re.compile(r"^prod:(zn:\d+),(zn:\d+)$")
_MAT_RE = re.compile(r"^(mat|ut)([23]):z(\d+)$")
_MONOID_RE = re.compile(r"^(nat|int)(\d*)$")


def builtin_ring(name, caps=DEFAULT_CAPS):
    """A catalog ring by name; SpecFormatError names the valid patterns."""
    m = _ZN_RE.match(name)
    if m:
        return ring_zn(_positive(m.group(1), name, low=2), caps.order)
    m = _PROD_RE.match(name)
    if m:
        return ring_product(builtin_ring(m.group(1), caps), builtin_ring(m.group(2), caps),
                            caps.order)
    m = _MAT_RE.match(name)
    if m:
        base = ring_zn(_positive(m.group(3), name, low=2), caps.order)
        k = int(m.group(2))
        maker = ring_matrix if m.group(1) == "mat" else ring_upper_triangular
        return maker(base, k, caps.order)
    raise SpecFormatError(
        f"unknown ring {name!r}; builtins match zn:N, prod:zn:A,zn:B, "
        f"mat2:z2, ut2:z2, and a file path overrides them")


def _positive(text, context, low=1):
    n = int(text)
    if n < low:
        raise SpecFormatError(f"number {n} too small in ring spec {context!r}")
    return n


def resolve_ring(spec, caps=DEFAULT_CAPS):
    """Spec string to ring: an existing file path wins, else the builtins."""
    if os.path.isfile(spec):
        return parse_ring_file(spec, caps)
    return builtin_ring(spec, caps)


def _read_ini(path, section):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}")
    if not parser.has_section(section):
        raise SpecFormatError(f"spec file {path} lacks a [{section}] section")
    return dict(parser.items(section))


def parse_ring_file(path, caps=DEFAULT_CAPS):
    """Build a ring from an INI file with a [ring] section.

    kind selects the constructor; keys outside the kind's whitelist are
    rejected so a typoed parameter cannot be silently ignored.
    """
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
            ring = ring_zn(int(items["n"]), caps.order)
        elif kind == "product":
            ring = ring_product(resolve_ring(items["left"], caps),
                                resolve_ring(items["right"], caps), caps.order)
        elif kind in ("matrix", "upper_triangular"):
            base = resolve_ring(items["base"], caps)
            maker = ring_matrix if kind == "matrix" else ring_upper_triangular
            ring = maker(base, int(items.get("k", "2")), caps.order)
        else:
            ring = _ring_from_table_text(path, items)
    except KeyError as exc:
        raise SpecFormatError(f"{path}: missing key {exc.args[0]!r} for kind {kind}")
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}")
    label = items.get("label")
    if label:
        ring = FiniteRing(ring.order, ring.add_table, ring.mul_table,
                          ring.zero, ring.one, label, ring.element_labels)
    return ring


def _ring_from_table_text(path, items):
    order = int(items["order"])
    add = _parse_table(items["add"], order, f"{path}: add")
    mul = _parse_table(items["mul"], order, f"{path}: mul")
    zero = _neutral(add, order, f"{path}: additive identity")
    one = _neutral(mul, order, f"{path}: multiplicative identity", two_sided=True)
    return build_ring_from_tables(order, add, mul, zero, one,
                                  items.get("label", "tables"))


def _parse_table(text, order, what):
    # Rows separated by ';' or newlines, entries by whitespace or commas.
    rows = [r for r in re.split(r"[;\n]", text) if r.strip()]
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
    m = _MONOID_RE.match(head.strip())
    if not m:
        raise SpecFormatError(
            f"monoid spec {text!r} not understood; use nat, int, or natK "
            "with an optional :order suffix")
    base, digits = m.groups()
    k = int(digits) if digits else 1
    if base == "int" and digits:
        raise SpecFormatError("int exponents are one-dimensional; drop the arity")
    if k < 1:
        raise SpecFormatError(f"monoid arity must be positive, got {k}")
    kind = base if k == 1 else "nat_k"
    try:
        return monoid_make(kind, mode.strip(), k=k)
    except Exception as exc:
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
    endos = enumerate_endomorphisms(ring, caps.endo)
    if not 0 <= index < len(endos):
        raise SpecFormatError(
            f"sigma index {index} out of range; {ring.label} has "
            f"{len(endos)} endomorphisms (valid: 0..{len(endos) - 1})")
    return endos[index]


def default_catalog():
    """The builtin rings in their canonical order, as (name, ring) pairs."""
    return [(name, builtin_ring(name)) for name in CATALOG_NAMES]
