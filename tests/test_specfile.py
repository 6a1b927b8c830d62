import re

import pytest
from hypothesis import given, settings, strategies as st

from skewseries import rings, specfile
from skewseries.errors import IllegalPairing, SizeCapExceeded, SpecFormatError
from skewseries.monoids import OrderedMonoid
from skewseries.specfile import (
    CATALOG_NAMES,
    builtin_ring,
    parse_monoid_spec,
    parse_ring_file,
    resolve_monoid,
    resolve_ring,
    resolve_sigma,
    split_catalog,
)


def test_builtin_patterns():
    assert builtin_ring("zn:5").order == 5
    assert builtin_ring("prod:zn:2,zn:3").order == 6
    assert builtin_ring("mat2:z2").order == 16
    assert builtin_ring("ut2:z2").order == 8
    assert builtin_ring("ut3:z2").order == 64


def test_builtin_over_the_construction_cap():
    with pytest.raises(SizeCapExceeded):
        builtin_ring("mat2:z3")  # order 81


def test_a_builtin_number_has_at_most_640_digits():
    # 640 digits is the lowest int-to-str limit the interpreter accepts, so a
    # number that long converts both ways under any limit, and a longer one is
    # refused before int() meets it.
    with pytest.raises(SizeCapExceeded, match=f"^constructed order {'7' * 640} exceeds cap 64$"):
        builtin_ring("zn:" + "7" * 640)
    long = "7" * 641
    # A product names the factor whose number is too long.
    for name, spec in (("zn:" + "0" * 639 + "22", "zn:" + "0" * 639 + "22"),
                       ("prod:zn:2,zn:" + long, "zn:" + long), ("ut2:z" + long, "ut2:z" + long)):
        with pytest.raises(SpecFormatError) as caught:
            builtin_ring(name)
        assert str(caught.value) == (
            f"number of 641 digits in ring spec {spec!r} is longer than 640 digits")
    arity = "0" * 640 + "2"
    with pytest.raises(SpecFormatError, match="^number of 641 digits in monoid spec"):
        parse_monoid_spec(f"nat{arity}:lex")
    assert parse_monoid_spec(f"nat{arity[1:]}:lex") == OrderedMonoid("nat_k", "lex", k=2)
    # An int arity is refused for being there, at any length.
    with pytest.raises(SpecFormatError, match="^int exponents are one-dimensional"):
        parse_monoid_spec(f"int{arity}")


def test_unknown_builtin_names_fail_with_the_pattern_list():
    for bad in ("zq:4", "zn:", "mat4:z2", "prod:zn:2", "zn:1"):
        with pytest.raises(SpecFormatError):
            builtin_ring(bad)


def test_default_catalog_is_stable():
    orders = {name: builtin_ring(name).order for name in CATALOG_NAMES}
    assert list(orders) == ["zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "zn:7", "zn:8",
                            "prod:zn:2,zn:2", "ut2:z2", "mat2:z2"]
    assert orders["mat2:z2"] == 16 and orders["prod:zn:2,zn:2"] == 4


# The regular expressions that read builtin names and monoid specs before the
# str-method parser, kept as its reference.  \d took any script's decimal
# digits, and $ matched before a final newline.
_ZN_RE = re.compile(r"^zn:(\d+)$")
_PROD_RE = re.compile(r"^prod:(zn:\d+),(zn:\d+)$")
_MAT_RE = re.compile(r"^(mat|ut)([23]):z(\d+)$")
_MONOID_RE = re.compile(r"^(nat|int)(\d*)$")


def unknown_ring(name):
    return (f"unknown ring {name!r}; builtins match zn:N, prod:zn:A,zn:B and "
            f"(mat|ut)(2|3):zN with N, A, B >= 2; a file path overrides them")


def not_understood(text):
    return (f"monoid spec {text!r} not understood; use nat, int, or natK "
            "with an optional :order suffix")


def regex_builtin_ring(name):
    m = _ZN_RE.match(name)
    if m:
        return rings.ring_zn(specfile._modulus(m.group(1), name))
    m = _PROD_RE.match(name)
    if m:
        return rings.ring_product(regex_builtin_ring(m.group(1)), regex_builtin_ring(m.group(2)))
    m = _MAT_RE.match(name)
    if m:
        base = rings.ring_zn(specfile._modulus(m.group(3), name))
        maker = rings.ring_matrix if m.group(1) == "mat" else rings.ring_upper_triangular
        return maker(base, int(m.group(2)))
    raise SpecFormatError(unknown_ring(name))


def regex_monoid_spec(text):
    head, sep, mode = text.partition(":")
    if not sep:
        mode = "natural"
    m = _MONOID_RE.match(head.strip())
    if not m:
        raise SpecFormatError(not_understood(text))
    base, digits = m.groups()
    k = int(digits) if digits else 1
    if base == "int" and digits:
        raise SpecFormatError("int exponents are one-dimensional; drop the arity")
    if k < 1:
        raise SpecFormatError(f"monoid arity must be positive, got {k}")
    try:
        return OrderedMonoid(base if k == 1 else "nat_k", mode.strip(), k=k)
    except (ValueError, IllegalPairing) as exc:
        raise SpecFormatError(f"monoid spec {text!r}: {exc}")


def outcome(parse, text):
    """What parse makes of text: a ring's label, order and tables, a
    monoid, or the type and message of what it raised."""
    try:
        made = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(made, rings.FiniteRing):
        return made.label, made.order, made.add_table, made.mul_table
    return made


# A start that is, or nearly is, a builtin form's head and a number after it,
# with no tail half the time, make the builtin forms and near misses common.
_STARTS = ["", "zn:", "zn", "prod:zn:", "prod:zn:2,zn:", "prod:", "prod2:zn:2,zn:", "mat2:z",
           "mat3:z", "ut3:z", "ut4:z", "ut3:", "nat", " nat", "int"]
_NUMBERS = ["", "0", "1", "2", "3", "06", "8", "64", "65", " ", "2 ", "\u0663", "\u00b2"]
_TOKENS = ["zn:", "prod:", "mat", "ut", "nat", "int", ",", ",zn:", ":z", ":", "lex", "\u0663",
           "\u00b2", "\n", " ", *"0123456789"]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.sampled_from(_STARTS), st.sampled_from(_NUMBERS),
       st.just(()) | st.lists(st.sampled_from(_TOKENS), max_size=5))
def test_names_and_monoid_specs_read_as_the_regular_expressions_did(start, number, tail):
    # Every ring is built under DEFAULT_CAPS, so none is above order 64.
    text = start + number + "".join(tail)
    ring, monoid = outcome(builtin_ring, text), outcome(parse_monoid_spec, text)
    if text.isascii() and "\n" not in text:
        assert ring == outcome(regex_builtin_ring, text)
        assert monoid == outcome(regex_monoid_spec, text)
    else:
        # Elsewhere only a refusal may differ: \d and $ no longer reach it.
        assert ring in (outcome(regex_builtin_ring, text), (SpecFormatError, unknown_ring(text)))
        assert monoid in (outcome(regex_monoid_spec, text),
                          (SpecFormatError, not_understood(text)))


def test_catalog_splitting_keeps_product_names_whole():
    assert split_catalog(",".join(CATALOG_NAMES)) == list(CATALOG_NAMES)
    assert split_catalog(" zn:4 , prod:zn:2,zn:3 ,ut2:z2") == [
        "zn:4", "prod:zn:2,zn:3", "ut2:z2"]
    # A product name takes the next token whole, whatever it holds.
    assert split_catalog("prod:zn:2, zn:3,zn:4") == ["prod:zn:2,zn:3", "zn:4"]
    assert split_catalog("prod:zn:2,prod:zn:3,zn:5") == ["prod:zn:2,prod:zn:3", "zn:5"]
    assert split_catalog("zn:2,prod:zn:2,zn:2,prod:zn:3") == [
        "zn:2", "prod:zn:2,zn:2", "prod:zn:3"]
    assert split_catalog("zn:4,prod:") == ["zn:4", "prod:"]
    # Empty tokens drop out before any gluing.
    assert split_catalog(",, prod:zn:2,, ,zn:3,,") == ["prod:zn:2,zn:3"]
    assert split_catalog("") == split_catalog(" , ,") == []


def test_ring_file_zn(tmp_path):
    p = tmp_path / "r.ini"
    p.write_text("[ring]\nkind = zn\nn = 6\n")
    assert parse_ring_file(str(p)).order == 6


def test_ring_file_overrides_builtin_namespace(tmp_path):
    p = tmp_path / "zn:4"  # a file whose *name* is a builtin
    p.write_text("[ring]\nkind = zn\nn = 9\nlabel = shadowed\n")
    ring = resolve_ring(str(p))
    assert ring.order == 9 and ring.label == "shadowed"


@pytest.mark.parametrize("body", [
    "kind = zn\nn = 6\n",
    "kind = tables\norder = 2\nadd = 0 1; 1 0\nmul = 0 0; 0 1\n",
])
def test_labeled_ring_file_builds_one_ring(tmp_path, monkeypatch, body):
    built = []
    real_init = rings.FiniteRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(rings.FiniteRing, "__init__", counting_init)
    p = tmp_path / "r.ini"
    p.write_text("[ring]\n" + body + "label = named\n")
    ring = parse_ring_file(str(p))
    assert ring.label == "named"
    assert built == [ring.order]


def test_ring_file_product_and_matrix(tmp_path):
    p = tmp_path / "p.ini"
    p.write_text("[ring]\nkind = product\nleft = zn:2\nright = zn:2\n")
    assert parse_ring_file(str(p)).order == 4
    q = tmp_path / "m.ini"
    q.write_text("[ring]\nkind = matrix\nbase = zn:2\nk = 2\n")
    assert parse_ring_file(str(q)).order == 16


def test_ring_file_tables_with_detected_identities(tmp_path):
    p = tmp_path / "f2.ini"
    p.write_text("[ring]\nkind = tables\norder = 2\nadd = 0 1; 1 0\nmul = 0 0; 0 1\nlabel = F2\n")
    ring = parse_ring_file(str(p))
    assert ring.zero == 0 and ring.one == 1 and ring.label == "F2"


def test_ring_file_rejections(tmp_path):
    # Each refusal names the file; FILE stands for its path.
    kinds = "['matrix', 'product', 'tables', 'upper_triangular', 'zn']"
    cases = {
        "nokind.ini": ("[ring]\nn = 4\n", f"FILE: ring kind must be one of {kinds}, got None"),
        "extra.ini": ("[ring]\nkind = zn\nn = 4\nbase = zn:2\n",
                      "FILE: unknown keys for kind zn: ['base']"),
        "noN.ini": ("[ring]\nkind = zn\n", "FILE: missing key 'n' for kind zn"),
        "alphaN.ini": ("[ring]\nkind = zn\nn = x\n",
                       "FILE: invalid literal for int() with base 10: 'x'"),
        "onerow.ini": ("[ring]\nkind = tables\norder = 2\nadd = 0 1\nmul = 0 0; 0 1\n",
                       "FILE: add: expected 2 rows, got 1"),
        "shortrow.ini": ("[ring]\nkind = tables\norder = 2\nadd = 0 1; 1\nmul = 0 0; 0 1\n",
                         "FILE: add: row ' 1' has 1 entries, need 2"),
        "alpha.ini": ("[ring]\nkind = tables\norder = 2\nadd = 0 x; 1 0\nmul = 0 0; 0 1\n",
                      "FILE: add: non-integer entry in row '0 x'"),
        "nosection.ini": ("[monoid]\nkind = nat\n", "spec file FILE lacks a [ring] section"),
        "noidentity.ini": ("[ring]\nkind = tables\norder = 2\nadd = 0 1; 1 0\nmul = 0 0; 0 0\n",
                           "FILE: multiplicative identity: no identity element in the table"),
    }
    for name, (body, message) in cases.items():
        p = tmp_path / name
        p.write_text(body)
        with pytest.raises(SpecFormatError) as err:
            parse_ring_file(str(p))
        assert str(err.value) == message.replace("FILE", str(p))
    # Past this prefix the text is configparser's own, which varies by version.
    p = tmp_path / "noheader.ini"
    p.write_text("kind = zn\nn = 4\n")
    with pytest.raises(SpecFormatError) as err:
        parse_ring_file(str(p))
    assert str(err.value).startswith(f"cannot read spec file {p}: ")


def test_ring_file_tables_that_are_not_a_ring(tmp_path):
    """Well-formed file, bad algebra: the axiom checker names the failure."""
    from skewseries.errors import AxiomViolation
    p = tmp_path / "broken.ini"
    p.write_text("[ring]\nkind = tables\norder = 2\nadd = 0 1; 1 0\nmul = 0 1; 1 1\n")
    with pytest.raises(AxiomViolation):
        parse_ring_file(str(p))


def test_monoid_specs():
    assert parse_monoid_spec("nat:natural").order_mode == "natural"
    assert parse_monoid_spec("nat").order_mode == "natural"
    assert parse_monoid_spec("nat:trivial").order_mode == "trivial"
    m = parse_monoid_spec("nat2:lex")
    assert m.k == 2 and m.order_mode == "lex"
    assert parse_monoid_spec("nat3:product").k == 3
    assert parse_monoid_spec("int:natural").kind == "int"


def test_monoid_spec_rejections():
    for bad in ("int2:natural", "nat2:natural", "nat:lex", "frob:natural", "nat0:trivial"):
        with pytest.raises(SpecFormatError):
            parse_monoid_spec(bad)


def test_monoid_file(tmp_path):
    p = tmp_path / "m.ini"
    p.write_text("[monoid]\nkind = nat\nk = 2\norder = product\n")
    m = resolve_monoid(str(p))
    assert m.k == 2 and m.order_mode == "product"
    q = tmp_path / "bad.ini"
    q.write_text("[monoid]\nkind = nat\nbound = 3\n")
    with pytest.raises(SpecFormatError):
        resolve_monoid(str(q))


def test_sigma_selectors():
    ring = builtin_ring("prod:zn:2,zn:2")
    assert resolve_sigma(ring, "id").image == (0, 1, 2, 3)
    assert resolve_sigma(ring, "2").image == (0, 2, 1, 3)
    with pytest.raises(SpecFormatError) as exc:
        resolve_sigma(ring, "9")
    assert "0..3" in str(exc.value)
    with pytest.raises(SpecFormatError):
        resolve_sigma(ring, "swap")
