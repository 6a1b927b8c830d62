"""Package surface: the immutable records, the lazy exports, and what
importing the CLI loads."""

import ast
import dataclasses
import glob
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import skewseries
from skewseries.errors import SpecFormatError
from skewseries.properties import ClassVerdict
from skewseries.rings import Caps, FrozenRecord, PropertyCertificate, RingEndomorphism, ring_zn
from skewseries.verify import ConclusionEntry, SearchOutcome, TheoremReport

Z2 = ring_zn(2)

# (class, a full set of field values, the defaults of its trailing fields)
RECORDS = [
    (Caps, (1, 2, 3, 4), {"subset": 16, "endo": 16, "ideal": 16, "order": 64}),
    (PropertyCertificate, ("no", (1, 2), "scan"), {"witness": None, "notes": ""}),
    (RingEndomorphism, (Z2, (0, 1)), {}),
    (ClassVerdict, (Z2, "baer", (((0,), 1, 1),), None), {}),
    (ConclusionEntry, ("prop34", "count", "1 != 2"), {"witness": None}),
    (TheoremReport, ("prop34", (), (), "box {0}"), {}),
    (SearchOutcome, ((), False, 0), {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_lists_every_record_class_of_the_package():
    # A record class missing from RECORDS would skip the frozen, equality,
    # hash and repr tests below.
    for module in pkgutil.iter_modules(skewseries.__path__):
        if module.name != "__main__":
            importlib.import_module(f"skewseries.{module.name}")
    found = {sub for sub in _subclasses(FrozenRecord) if sub.__module__.startswith("skewseries.")}
    assert found == {cls for cls, _, _ in RECORDS}


def _reference(cls, defaults):
    """The frozen dataclass these records replace, with the same fields."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(default=defaults[name])) if name in defaults
         else (name, object) for name in cls.__slots__],
        frozen=True)


@pytest.mark.parametrize("cls,values,defaults", RECORDS, ids=IDS)
def test_record_is_frozen(cls, values, defaults):
    rec = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, name) for name in cls.__slots__) == values


@pytest.mark.parametrize("cls,values,defaults", RECORDS, ids=IDS)
def test_record_equality_and_hash_stay_within_the_class(cls, values, defaults):
    rec = cls(*values)
    same = cls(**dict(zip(cls.__slots__, values)))
    assert rec == same and hash(rec) == hash(same)
    assert len({rec, same}) == 1
    # The hash is the one the frozen dataclass gave, so set orders keep.
    assert hash(rec) == hash(_reference(cls, defaults)(*values))
    assert rec != values and values != rec
    assert rec != _reference(cls, defaults)(*values)
    others = [other(*vals) for other, vals, _ in RECORDS
              if other is not cls and len(vals) == len(values)]
    assert all(rec != other for other in others)


def test_records_with_different_values_differ():
    assert PropertyCertificate("no") != PropertyCertificate("yes")
    assert Caps() != Caps(subset=15)
    assert RingEndomorphism(Z2, (0, 1)) != RingEndomorphism(ring_zn(2), (0, 1))


@pytest.mark.parametrize("cls,values,defaults", RECORDS, ids=IDS)
def test_record_repr_is_the_dataclass_repr(cls, values, defaults):
    assert repr(cls(*values)) == repr(_reference(cls, defaults)(*values))


@pytest.mark.parametrize("cls,values,defaults", RECORDS, ids=IDS)
def test_record_defaults_and_bad_fields(cls, values, defaults):
    required = len(cls.__slots__) - len(defaults)
    assert cls(*values[:required]) == cls(*values[:required], *defaults.values())
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{cls.__slots__[0]: values[0]})


def test_endomorphism_validation_is_unchanged():
    with pytest.raises(ValueError, match="must fix 1"):
        RingEndomorphism(Z2, [0, 0])
    with pytest.raises(ValueError, match="one ring element per element"):
        RingEndomorphism(Z2, (0, 1, 1))
    with pytest.raises(ValueError, match="one ring element per element"):
        RingEndomorphism(Z2, (False, True))
    assert RingEndomorphism(Z2, [0, 1]).image == (0, 1)


@pytest.mark.parametrize("kwargs", [{"subset": -1}, {"order": -3}])
def test_caps_refuses_a_negative_cap(kwargs):
    name, value = next(iter(kwargs.items()))
    with pytest.raises(ValueError, match=f"^cap {name} must be >= 0, got {value}$"):
        Caps(**kwargs)
    assert getattr(Caps(**{name: 0}), name) == 0


def test_caps_refuses_a_negative_positional_cap():
    with pytest.raises(ValueError, match="^cap order must be >= 0, got -1$"):
        Caps(16, 16, 16, -1)


def test_caps_updated_keeps_its_own_error_for_a_negative_cap():
    with pytest.raises(SpecFormatError) as info:
        Caps().updated("endo=2, subset=-1")
    assert str(info.value) == "cap subset in --caps must be >= 0, got -1"


def test_caps_updated_reads_the_slot_names():
    assert Caps().updated("endo=3, order=9") == Caps(16, 3, 16, 9)
    assert Caps().updated("subset=0").subset == 0
    caps = Caps()
    assert caps.updated("  ") is caps


def test_every_export_resolves_to_its_defining_module():
    assert len(set(skewseries.__all__)) == len(skewseries.__all__)
    for name in skewseries.__all__:
        value = getattr(skewseries, name)
        module = importlib.import_module(f"skewseries.{skewseries._EXPORTS[name]}")
        assert value is getattr(module, name)
        if hasattr(value, "__module__"):
            assert value.__module__ == module.__name__, name
    assert set(skewseries.__all__) <= set(dir(skewseries))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from skewseries import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(skewseries.__all__)
    with pytest.raises(AttributeError):
        skewseries.no_such_name


def test_submodules_stay_reachable_from_the_package():
    loaded = _modules_loaded("import skewseries\nassert skewseries.verify.verify_thm37")
    assert {"skewseries.verify", "skewseries.series"} <= loaded


def _modules_loaded(code):
    package_root = os.path.dirname(os.path.dirname(skewseries.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


# What a ring command needs beyond json.
RING_COMMAND_MODULES = {
    "__future__",
    "skewseries",
    "skewseries.cli",
    "skewseries.errors",
    "skewseries.monoids",
    "skewseries.properties",
    "skewseries.rings",
    "skewseries.specfile",
}


def test_cli_import_loads_only_what_ring_commands_need():
    # A fresh process pays for every import, so a module that creeps into
    # this set slows every run of the CLI.
    added = _modules_loaded("import skewseries.cli") - _modules_loaded("import json")
    assert added == RING_COMMAND_MODULES
    assert not {"dataclasses", "configparser", "skewseries.series", "skewseries.verify"} & added


@pytest.mark.parametrize("argv", [["ring", "list"], ["verify", "prop34", "--ring", "zn:4"]],
                         ids=["ring", "verify"])
def test_a_cli_run_loads_no_argparse_gettext_or_locale(argv):
    # The command line is read from cli.COMMANDS: argparse's import, its
    # parser build and the gettext lookups that load locale cost every run
    # more than most small jobs compute.
    loaded = _modules_loaded(
        f"import io\nfrom skewseries.cli import run\nrun({argv!r}, io.StringIO())")
    assert not {"argparse", "gettext", "locale"} & loaded


@pytest.mark.parametrize("argv", [
    ["ring", "check", "--ring", "zn:4", "--class", "all", "--side", "both"],
    ["ring", "show", "--ring", "ut2:z2"],
    ["ring", "list"],
], ids=["check", "show", "list"])
def test_ring_commands_load_no_series_code(argv):
    loaded = _modules_loaded(
        f"import io\nfrom skewseries.cli import run\nrun({argv!r}, io.StringIO())")
    assert {m for m in loaded if m.startswith("skewseries")} == RING_COMMAND_MODULES - {"__future__"}


def _modules(directory):
    # (file name, syntax tree) for every module in a directory.
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _package_nodes():
    # (file name, node) for every syntax node of the package's modules.
    for name, tree in _modules(os.path.dirname(skewseries.__file__)):
        yield from ((name, node) for node in ast.walk(tree))


def test_every_python_file_parses_at_the_declared_python_floor():
    # pyproject.toml declares Python >= 3.10, so no file may use grammar
    # that a 3.10 interpreter cannot parse (except*, type statements, ...).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    floor = re.search(r'requires-python = ">=3\.(\d+)"', _read(os.path.join(root, "pyproject.toml")))
    assert floor[1] == "10"
    paths = [os.path.join(root, directory, name) for directory in ("src", "tests", "perfbench")
             for name in glob.glob("**/*.py", root_dir=os.path.join(root, directory),
                                   recursive=True)]
    assert len(paths) > 20
    for path in paths:
        ast.parse(_read(path), filename=path, feature_version=(3, 10))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, and the invariants must hold there
    # too: they raise InvariantViolation instead.
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_caps_are_read_from_the_caps_argument():
    # A function reads its cap from the Caps it was given; a read of a
    # DEFAULT_CAPS field would ignore the run's --caps.
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr in Caps.__slots__
             and "DEFAULT_CAPS" in (getattr(node.value, "id", None),
                                    getattr(node.value, "attr", None))]
    assert found == []


def test_every_import_is_read():
    # A name imported and never read is left over from deleted code.  The
    # scan is per file, not per scope; `from __future__` imports are exempt.
    found = []
    for directory in (os.path.dirname(skewseries.__file__), os.path.dirname(__file__)):
        for name, tree in _modules(directory):
            imported, read = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        imported.setdefault(bound, node.lineno)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            found += [f"{name}:{line} {bound}" for bound, line in imported.items()
                      if bound not in read]
    assert found == []


# ---------------------------------------------------------------------------
# the README's examples

PACKAGE_ROOT = os.path.dirname(os.path.dirname(skewseries.__file__))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_examples():
    """The README's `skewseries` command lines, as (environment, argv, exit
    code), and its python blocks.

    Inside a fence a command line may start with `$ ` and with NAME=value
    words.  Its exit code is the N of a trailing `# exits N`, or the line
    after a `$ echo $?` that follows it, or else 0.
    """
    commands, blocks = [], []
    block = lang = None
    echo = False
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                if block is None:
                    block, lang = [], line[3:].strip()
                else:
                    if lang == "python":
                        blocks.append("\n".join(block))
                    block = None
                continue
            if block is None:
                continue
            block.append(line)
            text = line.removeprefix("$ ").strip()
            if echo:
                commands[-1][2], echo = int(text), False
            elif text == "echo $?":
                echo = True
            elif re.match(r"(\w+=\S*\s+)*skewseries\s", text):
                words = shlex.split(text, comments=True)
                env = dict(w.split("=", 1) for w in words[:words.index("skewseries")])
                stated = re.search(r"#\s*exits (\d+)", text)
                commands.append([env, words[len(env) + 1:], int(stated[1]) if stated else 0])
    return commands, blocks


README_COMMANDS, README_BLOCKS = _readme_examples()


def _run_example(argv, env=None):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT, **(env or {})))


def test_the_readme_shows_every_subcommand_and_a_python_block():
    assert {argv[0] for _, argv, _ in README_COMMANDS} == {"ring", "verify", "search", "series"}
    assert README_BLOCKS


@pytest.mark.parametrize("env,argv,code", README_COMMANDS,
                         ids=[" ".join(argv) for _, argv, _ in README_COMMANDS])
def test_readme_command_exits_as_stated(env, argv, code):
    proc = _run_example(["-m", "skewseries", *argv], env)
    assert proc.returncode == code, proc.stdout + proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS)
def test_readme_python_block_runs(block):
    proc = _run_example(["-c", block])
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the installed console script

PYPROJECT = os.path.join(os.path.dirname(README), "pyproject.toml")


def test_console_script_runs_the_cli():
    with open(PYPROJECT, encoding="utf-8") as fh:
        text = fh.read()
    # Python 3.10 has no tomllib, so the table is read line by line; where
    # tomllib exists, it must read the same.
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"$', table, re.M))
    if sys.version_info >= (3, 11):
        import tomllib
        assert tomllib.loads(text)["project"]["scripts"] == scripts
    assert list(scripts) == ["skewseries"]
    # The target ends its process, so it runs in a child, called as the
    # wrapper that pip writes for the script calls it.
    module, _, name = scripts["skewseries"].partition(":")
    wrapper = f"import sys\nfrom {module} import {name}\nsys.exit({name}())"
    script = _run_example(["-c", wrapper, "ring", "list"])
    assert (script.returncode, script.stderr) == (0, "")
    assert "zn:2" in script.stdout
    assert script.stdout == _run_example(["-m", "skewseries", "ring", "list"]).stdout
