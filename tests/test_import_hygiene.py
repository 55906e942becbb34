"""Import hygiene: every name a package module imports is used in it,
every attribute it stores and every public name it defines is read by the
package, a script or the benchmark (or is kept for a named test), every
default of a parameter or dataclass field that a run reaches is set by
some run, every name the benchmark's tracer wraps exists, the oracles
read the package's data and none of its routes, no package code asks a
corepresentation for its coefficients on every basis element or compares
against an unnamed tolerance, and no package code imports sympy,
statically or on a command's path."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kacforge"


def unused_imports(source):
    """Names bound by an import statement anywhere in ``source`` that no
    expression of it reads, in order of first import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in
            sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_scanner_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "def f():\n    from e import g\n    return np.pi + d + g\n")
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# write-only attributes: state that the package stores and nothing reads

ROOT = SRC.parent.parent
READERS = ("src", "scripts", "perfbench", "tests")
RUNS = ("src", "scripts", "perfbench")
# read from outside the scanned trees: numpy's flag and the bundle's config
# that the benchmark hands on
WRITE_ONLY_ALLOWED = {"flags.writeable", "InputBundle.config"}


class _Stores(ast.NodeVisitor):
    """Attributes stored in a module, as ``owner.name`` -> first line: class
    fields and ``self.name`` under their class, any other store under the
    name of what it is stored on."""

    def __init__(self):
        self.cls, self.found = None, {}

    def visit_ClassDef(self, node):
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                self.found.setdefault(f"{node.name}.{stmt.target.id}",
                                      stmt.lineno)
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "self" and self.cls:
                owner = self.cls
            elif isinstance(owner, ast.Name):
                owner = owner.id
            elif isinstance(owner, ast.Attribute):
                owner = owner.attr
            else:
                owner = ast.unparse(owner)
            self.found.setdefault(f"{owner}.{node.attr}", node.lineno)
        self.generic_visit(node)


def read_attributes(source):
    """Attribute names that ``source`` loads (an augmented store reads too)."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return read | {node.target.attr for node in ast.walk(tree)
                   if isinstance(node, ast.AugAssign)
                   and isinstance(node.target, ast.Attribute)}


def write_only_attributes(source, read):
    """Stores of ``source`` whose name is not in ``read``, as
    ``line N: owner.name``, in line order."""
    stores = _Stores()
    stores.visit(ast.parse(source))
    return [f"line {line}: {name}" for name, line in
            sorted(stores.found.items(), key=lambda kv: kv[1])
            if name.rsplit(".", 1)[1] not in read
            and name not in WRITE_ONLY_ALLOWED]


def test_scanner_finds_a_write_only_attribute():
    source = ("@dataclass\nclass R:\n    kept: int\n    dropped: int\n"
              "class S:\n    def __init__(self):\n        self.a = 1\n"
              "        self.b = 2\n        self.n = 0\n"
              "    def f(self):\n        self.n += 1\n        return self.a\n"
              "def g(c):\n    c.tag = 1\n    c.flags.writeable = False\n"
              "    return c.kept\n")
    assert write_only_attributes(source, read_attributes(source)) == [
        "line 4: R.dropped", "line 8: S.b", "line 14: c.tag"]


def unread_fields(sources, readers):
    """Stores of ``sources`` (module name -> source) whose name no source in
    ``readers`` reads, as ``module: line N: owner.name``."""
    read = set()
    for text in readers:
        read |= read_attributes(text)
    return [f"{module}: {row}" for module, source in sources.items()
            for row in write_only_attributes(source, read)]


def _sources_of(trees):
    return [path.read_text() for tree in trees
            for path in sorted((ROOT / tree).rglob("*.py"))]


def test_every_stored_attribute_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_fields(sources, _sources_of(READERS)) == []


# stored fields that only tests read, each with the test that needs it
KEPT_FIELDS = {
    "CharacterTable.class_sizes": "test_groups' class-size tests",
    "DistinctnessEntry.intertwiner": "acceptance criterion 04",
    "InvariantGroups.intrinsic_model": "the pair golden",
    "InvariantGroups.spectrum_model": "the pair golden",
    "InvariantGroups.spectrum_vectors": "test_reps' spectrum tests",
    "IrrepCatalog.equivalence_map": "test_reps' catalog identification",
    "ParseError.line": "test_parse_errors_carry_line_and_column",
    "ParseError.column": "test_parse_errors_carry_line_and_column",
    "ValidationError.invariant": "test_crossed's named-invariant tests",
}


def test_scanner_finds_a_field_only_tests_read():
    sources = {"a": ("@dataclass\nclass R:\n    run: int\n    test: int\n"
                     "class S:\n    def __init__(self):\n"
                     "        self.kept = 1\n")}
    runs = ["def f(r, s):\n    return r.run\n"]
    tests = ["def test(r, s):\n    assert r.test == s.kept\n"]
    assert unread_fields(sources, runs + tests) == []
    assert unread_fields(sources, runs) == ["a: line 4: R.test",
                                            "a: line 7: S.kept"]


def test_every_stored_field_is_read_by_a_run_or_kept():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unread_fields(sources, _sources_of(RUNS))
    unread = {row.rsplit(": ", 1)[1] for row in found}
    assert [row for row in found
            if row.rsplit(": ", 1)[1] not in KEPT_FIELDS] == []
    # a kept field that gained a reader, or went, leaves the set
    assert sorted(set(KEPT_FIELDS) - unread) == []


# ---------------------------------------------------------------------------
# dead private helpers: a top-level ``_`` name that nothing in src/ reads


def unreferenced_private_definitions(sources):
    """Top-level ``_``-private functions and classes of ``sources`` (module
    name -> source) that no other top-level statement of any of them reads,
    as ``module: line N: name``; a helper that only calls itself counts as
    unread."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defined.append((module, stmt.lineno, stmt.name))
                names.discard(stmt.name)
            read |= names
    return [f"{module}: line {line}: {name}"
            for module, line, name in defined if name not in read]


def test_scanner_finds_an_unreferenced_private_helper():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
              "class _Kept:\n    pass\n"),
        "b": ("from a import _used\nimport a\n"
              "def f():\n    return _used() + a._Kept()\n"),
    }
    assert unreferenced_private_definitions(sources) == ["a: line 3: _dead"]


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


# ---------------------------------------------------------------------------
# public surface: a public name of src/kacforge that no run reads

# public names that only tests read, each with the test that needs it
KEPT_PUBLIC = {
    "coset_space_dimension": "acceptance criterion 14",
    "compact_restriction_morphism": "acceptance criterion 14",
    "beta_kernel_elements": "acceptance criterion 14",
    "compact_subpair": "acceptance criterion 14",
    "inverse_fourier": "acceptance criterion 10",
    "special_linear_group": "acceptance criterion 7",
    "abelian_invariants": "acceptance criterion 06",
    "check_length": "the dual golden",
    "invariantize_length": "the dual golden",
}


def public_definitions(source):
    """Public top-level functions and classes of ``source`` and the public
    methods of its classes, as (line, name), a method as ``Class.method``."""
    found = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                or stmt.name.startswith("_"):
            continue
        found.append((stmt.lineno, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            found += [(sub.lineno, f"{stmt.name}.{sub.name}")
                      for sub in stmt.body
                      if isinstance(sub, ast.FunctionDef)
                      and not sub.name.startswith("_")]
    return found


def unread_public_definitions(sources, readers, looked_up=()):
    """Public definitions of ``sources`` (module name -> source) that no
    source in ``readers`` reads and ``looked_up`` does not hold, as
    ``module: line N: name``.  A function or class is read as a name or an
    attribute; a method ``Class.m`` only as an attribute ``x.m``, since a
    bare name ``m`` is some other variable."""
    names, attrs = set(looked_up), set(looked_up)
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [f"{module}: line {line}: {name}"
            for module, source in sources.items()
            for line, name in public_definitions(source)
            if name.rsplit(".", 1)[-1]
            not in (attrs if "." in name else names | attrs)]


def traced_table():
    """The literal ``TRACED`` table of perfbench/tracing.py: layer -> the
    names the benchmark's tracer looks up there with ``getattr``."""
    for stmt in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and \
                [ast.unparse(t) for t in stmt.targets] == ["TRACED"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def traced_names():
    """The last part of every name in the ``TRACED`` table."""
    return {name.rsplit(".", 1)[-1]
            for names in traced_table().values() for name in names}


def unresolved_traced_names(table):
    """Entries ``layer.name`` of ``table`` that do not resolve on their
    module ``kacforge.<layer>`` (a ``Class.method`` on its class), where
    ``Tracer.install`` would raise ``AttributeError``."""
    missing = []
    for layer, names in table.items():
        module = importlib.import_module(f"kacforge.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{layer}.{name}")
    return missing


def test_scanner_finds_a_traced_name_that_is_gone():
    table = {"hopf": ["build_algebra", "no_such_function"],
             "reps": ["IrrepCatalog.dims", "IrrepCatalog.no_such_method"]}
    assert unresolved_traced_names(table) == [
        "hopf.no_such_function", "reps.IrrepCatalog.no_such_method"]


def test_every_traced_name_resolves():
    assert unresolved_traced_names(traced_table()) == []


def test_scanner_finds_an_unread_public_name():
    sources = {
        "a": ("def used():\n    pass\ndef dead():\n    pass\n"
              "def _private():\n    pass\ndef traced():\n    pass\n"
              "class Box:\n    def read(self):\n        pass\n"
              "    def unread(self):\n        return dead\n"
              "    def __len__(self):\n        return 0\n"),
        "b": "class Unused:\n    pass\n",
    }
    readers = list(sources.values()) + ["import a\na.used(a.Box().read())\n"]
    assert unread_public_definitions(sources, readers, {"traced"}) == [
        "a: line 12: Box.unread", "b: line 1: Unused"]


def test_scanner_sees_a_method_only_through_an_attribute():
    sources = {"a": ("class Group:\n    def inv(self, a):\n        pass\n"
                     "    def mul(self, a, b):\n        pass\n"
                     "def inverses(g):\n    inv = g.mul(1, 2)\n"
                     "    return inv\n")}
    readers = list(sources.values()) + ["import a\na.inverses(a.Group())\n"]
    assert unread_public_definitions(sources, readers) == [
        "a: line 2: Group.inv"]


def test_every_public_name_is_read_or_kept():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unread_public_definitions(sources, _sources_of(RUNS),
                                      traced_names())
    unread = {row.rsplit(": ", 1)[1] for row in found}
    assert [row for row in found
            if row.rsplit(": ", 1)[1] not in KEPT_PUBLIC] == []
    # a kept name that gained a reader, or went, leaves the set
    assert sorted(set(KEPT_PUBLIC) - unread) == []


# ---------------------------------------------------------------------------
# unset parameters: a default of src/kacforge that every run leaves as it is


def _callee(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def dataclass_fields(cls):
    """The fields of the dataclass ``cls`` (an ``ast.ClassDef``) with a plain
    default, as (line, field, routes): its constructor sets the field at
    the field's position, and a method that returns ``replace(self, **kw)``
    sets it by keyword.  A ``default_factory`` field is filled after
    construction and a ``ClassVar`` is no field, so neither is listed."""
    forwards = [(stmt.name, None) for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
                and any(isinstance(node, ast.Call)
                        and _callee(node.func) == "replace"
                        and ast.unparse(node.args[:1]) == "self"
                        for node in ast.walk(stmt))]
    found, position = [], 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or \
                not isinstance(stmt.target, ast.Name) or \
                "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value, plain = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            options = {kw.arg: ast.unparse(kw.value) for kw in value.keywords}
            if options.get("init") == "False":
                continue
            plain = "default" in options
        if plain:
            found.append((stmt.lineno, stmt.target.id,
                          ((cls.name, position),) + tuple(forwards)))
        position += 1
    return found


def defaulted_parameters(source):
    """The parameters with a default of the functions, methods, constructors
    and dataclass fields that ``source`` defines, as (line, name, parameter,
    routes), each route a (callee, position) through which a call sets the
    parameter: a method goes by its own name, an ``__init__`` by its
    class's, and the position is the index of the call argument that sets
    the parameter (None for a keyword-only one), so a bound ``self`` or
    ``cls`` takes none."""
    found = []

    def visit(body, cls):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                if any(_callee(getattr(d, "func", d)) == "dataclass"
                       for d in stmt.decorator_list):
                    found.extend((line, stmt.name, field, routes)
                                 for line, field, routes
                                 in dataclass_fields(stmt))
                visit(stmt.body, stmt.name)
            elif isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in stmt.decorator_list)
                bound = int(bool(cls) and not static)
                name = cls if cls and stmt.name == "__init__" else stmt.name
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((stmt.lineno, name, arg.arg,
                              ((name, i - bound),))
                             for i, arg in enumerate(positional)
                             if i >= first)
                found.extend((stmt.lineno, name, arg.arg, ((name, None),))
                             for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                             if default is not None)
                visit(stmt.body, None)

    visit(ast.parse(source).body, None)
    return found


def sets_parameter(call, parameter, position):
    """Whether ``call`` sets ``parameter`` at ``position``: by keyword,
    through ``**``, by position, or through a ``*`` at or before it."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return position is not None and i <= position
    return False


def unset_parameters(sources, runs):
    """Parameters with a default of ``sources`` (module name -> source) that
    some call in ``runs`` reaches by name, ``f(...)`` or ``x.f(...)``, and
    none sets, as ``module: line N: name(parameter)``."""
    calls = {}
    for text in runs:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func), []).append(node)
    return [f"{module}: line {line}: {name}({parameter})"
            for module, source in sources.items()
            for line, name, parameter, routes in defaulted_parameters(source)
            if any(callee in calls for callee, _ in routes)
            and not any(sets_parameter(c, parameter, position)
                        for callee, position in routes
                        for c in calls.get(callee, ()))]


def test_scanner_finds_a_parameter_no_call_sets():
    sources = {"a": ("def f(a, b=1, *, c=2):\n    pass\n"
                     "def never(k=1):\n    pass\n"
                     "def spread(p=1, q=2):\n    pass\n"
                     "class Box:\n    def __init__(self, x, y=0):\n"
                     "        pass\n"
                     "    def m(self, z=3, w=4):\n        pass\n"
                     "    @staticmethod\n    def s(v=1):\n        pass\n")}
    runs = ["f(1, 2)\nf(*args)\nspread(**opts)\nBox(1)\n"
            "box.m(w=1)\nBox.s(1)\n"]
    assert unset_parameters(sources, runs) == [
        "a: line 1: f(c)", "a: line 8: Box(y)", "a: line 10: m(z)"]
    # a call through ``*`` sets its position and every later one
    assert unset_parameters(sources, runs + ["box.m(*zw)\nf(c=0)\n"]) == [
        "a: line 8: Box(y)"]


def test_scanner_finds_a_dataclass_field_no_call_sets():
    sources = {"a": ("@dataclass(frozen=True)\nclass Cfg:\n"
                     "    seed: int = 1\n    out: str = 't'\n"
                     "    tag: str = field(default='x')\n"
                     "    rows: list = field(default_factory=list)\n"
                     "    kind: ClassVar[str] = 'k'\n"
                     "    def with_(self, **kw):\n"
                     "        return replace(self, **kw)\n"
                     "@dataclass\nclass Row:\n    name: str\n"
                     "    value: int = 0\n    note: str = ''\n"
                     "class Plain:\n    size: int = 0\n")}
    runs = ["Cfg()\ncfg.with_(seed=2)\nRow('a')\nRow('b', 1)\nPlain()\n"]
    # a default_factory field, a ClassVar and a plain class attribute are no
    # constructor defaults; with_ sets seed, the position 1 value
    assert unset_parameters(sources, runs) == [
        "a: line 4: Cfg(out)", "a: line 5: Cfg(tag)", "a: line 14: Row(note)"]
    # a field is set as a parameter is: through *, ** or a keyword
    assert unset_parameters(sources, runs + [
        "Cfg(**kw)\nRow(*cells)\n"]) == []


def test_every_parameter_a_run_reaches_is_set_by_one():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unset_parameters(sources, _sources_of(RUNS)) == []


# ---------------------------------------------------------------------------
# dead oracles: a public function of tests/oracles.py that no test reads


def unread_functions(source, readers):
    """Public top-level functions of ``source`` that no source in
    ``readers`` mentions, as a name or an attribute."""
    read = set()
    for text in readers:
        read |= {getattr(node, "id", None) or node.attr
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.Name, ast.Attribute))}
    return [stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, ast.FunctionDef)
            and not stmt.name.startswith("_") and stmt.name not in read]


def test_scanner_finds_an_unread_oracle():
    oracles = ("def used():\n    pass\ndef via_module():\n    pass\n"
               "def _helper():\n    pass\ndef dead():\n    pass\n")
    readers = ["from .oracles import used\nused()\n",
               "from . import oracles\noracles.via_module()\n"]
    assert unread_functions(oracles, readers) == ["dead"]


def test_every_oracle_is_read_by_a_test():
    tests = ROOT / "tests"
    readers = [path.read_text() for path in sorted(tests.glob("test_*.py"))]
    assert unread_functions((tests / "oracles.py").read_text(), readers) == []


# ---------------------------------------------------------------------------
# independent oracles: tests/oracles.py reads the package's stored data
# (tables, entry arrays, labels) and calls none of its routes

# the only package names tests/oracles.py imports, each with why it is data
# or an error type and not a route to an answer
ORACLE_IMPORTS = {
    "TOL_EQ": "a number: the tolerance of the dense morphism validator and "
              "of the pairing oracle's integrality check",
    "NotAMorphism": "the error type the dense morphism validator raises",
    "ValidationError": "the error type of tv_distance's measure-group "
                       "refusal",
}


def package_methods(sources):
    """Names of the methods defined on the classes of ``sources``."""
    return {sub.name for text in sources
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            for sub in node.body if isinstance(sub, ast.FunctionDef)}


def oracle_breaches(source, methods, allowed):
    """Names ``source`` imports from kacforge outside ``allowed`` (all of
    them for a plain ``import kacforge``), and calls ``x.m(...)`` with m in
    ``methods`` where x is not rooted at an imported module such as ``np``
    or ``np.linalg``, as ``line N: import name`` or ``line N: call x.m``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] == "kacforge":
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names if alias.name not in allowed]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name.split(".")[0] == "kacforge"]
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in methods:
            root = node.func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                found.append((node.lineno,
                              f"call {ast.unparse(node.func)}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scanner_finds_an_oracle_that_calls_the_package():
    package = ("class KacAlgebra:\n    def mul_vec(self, a, b):\n"
               "        pass\n    def norm(self):\n        pass\n")
    source = ("import numpy as np\nfrom kacforge.config import TOL_EQ\n"
              "from kacforge.groups import rounded_pairings\n"
              "import kacforge.reps\n"
              "def oracle(A, x, y):\n"
              "    z = A.mul_vec(x, y) + A.pair.norm()\n"
              "    return np.linalg.norm(z) < TOL_EQ, A.cayley[x, y]\n")
    assert oracle_breaches(source, package_methods([package]),
                           {"TOL_EQ"}) == [
        "line 3: import rounded_pairings", "line 4: import kacforge.reps",
        "line 6: call A.mul_vec", "line 6: call A.pair.norm"]


def test_oracles_import_only_data_and_call_no_package_method():
    source = (ROOT / "tests" / "oracles.py").read_text()
    methods = package_methods(path.read_text()
                              for path in sorted(SRC.glob("*.py")))
    assert oracle_breaches(source, methods, ORACLE_IMPORTS) == []
    # an allowed name that the oracles no longer import leaves the dict
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(set(ORACLE_IMPORTS) - imported) == []


# ---------------------------------------------------------------------------
# named tolerances: a float threshold in src/ is a constant of config.py


def small_float_literals(source):
    """Lines of ``source`` with a float literal v, 0 < |v| < 1e-5, as
    ``line N``, each line once: a threshold that belongs in config.py."""
    return [f"line {line}" for line in sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-5})]


def test_scanner_finds_a_literal_threshold():
    source = ("x = 1e-9\nif y > 2.5e-6 * s and z < -1e-12:\n    pass\n"
              "w = 1e-5\nv = 0.0\nu = 1e-9j\nt = '1e-9'\n")
    assert small_float_literals(source) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_no_literal_threshold_outside_config(path):
    assert small_float_literals(path.read_text()) == []


# ---------------------------------------------------------------------------
# no full coefficient arrays: a corepresentation's (d, d, dim) dense form


def full_dense_calls(source):
    """Calls ``x.dense()`` with no argument in ``source``, as ``line N``:
    each forms the coefficients on every basis element of the algebra."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dense"
            and not node.args and not node.keywords]


def test_scanner_finds_a_full_dense_call():
    source = ("def f(c, on):\n    a = c.dense(on)\n    b = c.dense()\n"
              "    return c.dense(onto=on), dense(), b\n")
    assert full_dense_calls(source) == ["line 3"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_full_dense_coefficients(path):
    assert full_dense_calls(path.read_text()) == []


# ---------------------------------------------------------------------------
# no sympy: the package's exact arithmetic is Python ints and Fractions


def sympy_imports(source):
    """Import statements of ``source`` that bring in sympy or a submodule
    of it, at any depth, as ``line N``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "sympy" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_scanner_finds_a_sympy_import():
    source = ("import os, sympy\nfrom .sympy import x\n"
              "def f():\n    from sympy.matrices import Matrix\n"
              "    import sympyx\n    return Matrix\n")
    assert sympy_imports(source) == ["line 1", "line 4"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_sympy_import(path):
    assert sympy_imports(path.read_text()) == []


_COMMANDS = [["audit", "sample_inputs/s4_s3_z4.pair"],
             ["invariants", "sample_inputs/s4_s3_z4.pair"],
             ["shadow", "separation", "sample_inputs/s4.group"]]

_CHILD = """
import contextlib, io, json, sys
from kacforge import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([code, "sympy" in sys.modules])
print(json.dumps(seen))
"""


def test_commands_never_load_sympy():
    # a fresh interpreter: the test session itself may have imported sympy;
    # invariants reaches the dual groups and the isomorphism search,
    # separation the linear-form route
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(_COMMANDS)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert json.loads(proc.stdout) == [[0, False]] * len(_COMMANDS)
