"""The package keeps only what its users reach, and the test modules
stand alone.

The reachability guard parses src/cubecrys, demos and perfbench with
ast.  A public top-level function or class of src/cubecrys must be
named, and a public method of a public class read as an attribute,
somewhere the CLI, the demos or the benchmark reach: in module-level
code, a private helper, a demo, perfbench, or a definition that is
itself reached, but not inside the definition it names.  So a helper
that only an unreached function calls is unreached too.  The tests do
not count, and neither does an import.  Each entry of
perfbench/spans.py's TARGETS, which the tracer patches by name, reaches
exactly the definition that its module and attribute path name, and the
class that the path starts with.  Other references are matched by
spelling, not by type: a method is reached when an attribute of its
name is read.  So a test-only method whose name a live attribute read
shares (for example `edges`) still passes; telling them apart needs
the receiver's type, which ast alone does not give.

ALLOWED lists README-documented API that nothing calls, at most five
names, each with a one-line reason.  An entry that is reached, or that
names no definition, fails the guard too.

The second check: every name that a module of src/cubecrys imports is
read in that module, so an import left behind by a deletion fails.
`from __future__` imports bind no name that is read.

The third check: no tests/test_*.py imports another test module.
Shared inputs live in tests/inputs.py, oracles in tests/oracles.py and
the golden runner in tests/golden.py.  No tests/*.py module shares its
name with a perfbench/*.py module: pytest puts both directories on
sys.path, so in one session with both a shared name would load one
directory's module for both.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/cubecrys", "demos", "perfbench")
PACKAGE = "src/cubecrys/"
SPANS = "perfbench/spans.py"

# "module.name" or "module.Class.method": why it stays unreached.
ALLOWED = {}


def scanned_trees(root=ROOT) -> dict:
    """{path relative to root: ast.Module} for every .py file of SCANNED."""
    trees = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if "__pycache__" not in path.parts:
                rel = path.relative_to(root).as_posix()
                trees[rel] = ast.parse(path.read_text(), rel)
    return trees


def definitions(trees) -> dict:
    """{qualified name: (path, node, is_method)} for the public top-level
    functions and classes of the package and the public methods of its
    public classes."""
    out = {}
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        module = path[len(PACKAGE):-len(".py")].replace("/", ".")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            out["%s.%s" % (module, node.name)] = (path, node, False)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not sub.name.startswith("_"):
                        out["%s.%s.%s" % (module, node.name, sub.name)] = \
                            (path, sub, True)
    return out


def tracer_targets(tree) -> ast.List:
    """The list node of the tracer's TARGETS assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return node.value
    raise LookupError("no TARGETS list")


def traced(trees) -> set:
    """The qualified names that the tracer's TARGETS reach: for each
    entry (span, module, path, ...), module.path and module.head, where
    head is the path's first part, the class of a traced method."""
    out = set()
    for entry in tracer_targets(trees[SPANS]).elts:
        module, path = (e.value for e in entry.elts[1:3])
        out |= {"%s.%s" % (module, path),
                "%s.%s" % (module, path.split(".")[0])}
    return out


def references(trees, defs) -> dict:
    """{spelling: [(is_attribute, enclosing)]} for every name and
    attribute read; enclosing is the frozenset of definitions in defs
    that the reference lies in.  An import is no reference: what it
    binds is used by name."""
    spans = {}
    for qualified, (path, node, _) in defs.items():
        spans.setdefault(path, []).append(
            (node.lineno, node.end_lineno, qualified))
    out = {}

    def add(spelling, is_attribute, path, line):
        enclosing = frozenset(q for first, last, q in spans.get(path, ())
                              if first <= line <= last)
        out.setdefault(spelling, []).append((is_attribute, enclosing))

    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                add(node.id, False, path, node.lineno)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                add(node.attr, True, path, node.lineno)
    return out


def reached(trees, defs) -> set:
    """The definitions that the CLI, the demos and the benchmark reach.

    The tracer's targets are reached from the start.  A reference
    counts when every definition it lies in is reached itself
    (module-level code, private helpers and the demos and benchmark
    count from the start), and not when it lies in the definition it
    names.  A method needs an attribute read."""
    refs = references(trees, defs)
    done = traced(trees) & defs.keys()
    grew = True
    while grew:
        grew = False
        for qualified, (_, node, is_method) in defs.items():
            if qualified not in done and any(
                    (is_attribute or not is_method)
                    and qualified not in enclosing and enclosing <= done
                    for is_attribute, enclosing in refs.get(node.name, ())):
                done.add(qualified)
                grew = True
    return done


def unreached(trees, allowed) -> list:
    """The guard's complaints, sorted: unreached definitions that are
    not allowed, and allowed names that are reached or not defined."""
    defs = definitions(trees)
    live = reached(trees, defs)
    problems = []
    for qualified in defs:
        if qualified in live and qualified in allowed:
            problems.append("%s is allowed but reached" % qualified)
        elif qualified not in live and qualified not in allowed:
            problems.append("%s is reached only from the tests"
                            % qualified)
    for qualified in allowed:
        if qualified not in defs:
            problems.append("%s is allowed but not defined" % qualified)
    return sorted(problems)


def unread_imports(trees) -> list:
    """'module.name is imported and never read' for every name that an
    import of a package module binds and no name read of that module
    loads, sorted."""
    problems = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        module = path[len(PACKAGE):-len(".py")].replace("/", ".")
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        problems.append("%s.%s is imported and never read"
                                        % (module, name))
    return sorted(problems)


def imported_test_modules(source: str) -> list:
    """The test_* modules that a module's source imports, anywhere in
    it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        out += [m for m in modules if m.split(".")[0].startswith("test_")]
    return out


def shared_module_names(first, second) -> list:
    """The module names that the .py files of two directories share."""
    return sorted({p.stem for p in first.glob("*.py")}
                  & {p.stem for p in second.glob("*.py")})


def _with_module(trees, path, source):
    return {**trees, path: ast.parse(source, path)}


# ---------------------------------------------------------------------------
# The guards


def test_every_public_name_in_the_package_is_reached():
    assert unreached(scanned_trees(), ALLOWED) == []


def test_the_allow_list_is_short_and_reasoned():
    assert len(ALLOWED) <= 5
    for qualified, reason in ALLOWED.items():
        assert isinstance(reason, str) and reason.strip(), qualified
        assert "\n" not in reason, qualified


def test_every_name_the_package_imports_is_read():
    assert unread_imports(scanned_trees()) == []


def test_no_test_module_imports_another():
    modules = sorted((ROOT / "tests").glob("test_*.py"))
    assert len(modules) > 10
    for path in modules:
        assert imported_test_modules(path.read_text()) == [], path.name


def test_no_test_module_shares_a_name_with_a_perfbench_module():
    assert shared_module_names(ROOT / "tests", ROOT / "perfbench") == []


# ---------------------------------------------------------------------------
# The guards catch what they are for


def test_an_unused_public_function_or_method_fails_the_guard():
    trees = _with_module(scanned_trees(), PACKAGE + "extra.py", (
        "def orphan():\n"
        "    return orphan, helper()\n"
        "\n"
        "def helper():\n"
        "    return _private()\n"
        "\n"
        "def _private():\n"
        "    return 1\n"
        "\n"
        "class Holder:\n"
        "    def lonely_method(self):\n"
        "        return self.lonely_method\n"
        "\n"
        "class _Hidden:\n"
        "    def hidden_method(self):\n"
        "        return 1\n"))
    # helper is named only inside orphan, which nothing reaches.
    assert unreached(trees, ALLOWED) == [
        "extra.Holder is reached only from the tests",
        "extra.Holder.lonely_method is reached only from the tests",
        "extra.helper is reached only from the tests",
        "extra.orphan is reached only from the tests",
    ]
    # A demo that uses orphan and the method reaches them, and helper
    # through orphan.
    trees = _with_module(trees, "demos/99_extra.py", (
        "from cubecrys.extra import Holder, orphan\n"
        "orphan()\n"
        "Holder().lonely_method()\n"))
    assert unreached(trees, ALLOWED) == []
    # Importing a name does not reach it.
    trees = _with_module(trees, "demos/99_extra.py",
                         "from cubecrys.extra import Holder, orphan\n")
    assert len(unreached(trees, ALLOWED)) == 4


def test_an_allow_list_entry_must_be_unreached_and_defined():
    trees = scanned_trees()
    assert unreached(trees, {"dual.dual_complex": "reason"}) == [
        "dual.dual_complex is allowed but reached"]
    assert unreached(trees, {"dual.no_such_name": "reason"}) == [
        "dual.no_such_name is allowed but not defined"]
    extra = _with_module(trees, PACKAGE + "extra.py", "def orphan():\n"
                                                      "    pass\n")
    assert unreached(extra, {"extra.orphan": "reason"}) == []


def test_only_the_tracer_targets_keep_the_ratmatrix_code():
    """perfbench's tracer alone reaches point_group_real,
    average_intertwiner and RatMatrix: once it stops patching them by
    name, the guard flags them, and the RatMatrix methods that only
    average_intertwiner reads."""
    trees = scanned_trees()
    tracer_targets(trees[SPANS]).elts = []
    assert unreached(trees, ALLOWED) == [
        "crys.point_group_real is reached only from the tests",
        "exactlin.RatMatrix is reached only from the tests",
        "exactlin.RatMatrix.is_square is reached only from the tests",
        "exactlin.RatMatrix.zeros is reached only from the tests",
        "exactlin.average_intertwiner is reached only from the tests",
    ]


def test_a_tracer_path_reaches_only_the_definition_it_names():
    """The tracer path `inverse` means exactlin.inverse: it reaches no
    method of that name on another class.  A path to a method reaches
    the method and its class."""
    trees = _with_module(scanned_trees(), PACKAGE + "extra.py", (
        "class Perm:\n"
        "    def inverse(self):\n"
        "        return self\n"
        "\n"
        "class Traced:\n"
        "    def step(self):\n"
        "        return self\n"))
    trees = _with_module(trees, "demos/99_extra.py", (
        "from cubecrys.extra import Perm\n"
        "Perm()\n"))
    assert unreached(trees, ALLOWED) == [
        "extra.Perm.inverse is reached only from the tests",
        "extra.Traced is reached only from the tests",
        "extra.Traced.step is reached only from the tests",
    ]
    tracer_targets(trees[SPANS]).elts.append(ast.parse(
        '("extra.step", "extra", "Traced.step", None, None)',
        mode="eval").body)
    assert unreached(trees, ALLOWED) == [
        "extra.Perm.inverse is reached only from the tests"]


def test_an_import_never_read_fails_the_guard():
    trees = _with_module(scanned_trees(), PACKAGE + "extra.py", (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "import sys\n"
        "from math import gcd, lcm as least\n"
        "\n"
        "def f(x: int):\n"
        "    from json import dumps\n"
        "    return sys.argv, gcd(x, 2), os\n"))
    assert unread_imports(trees) == [
        "extra.dumps is imported and never read",
        "extra.least is imported and never read",
        "extra.regex is imported and never read",
    ]
    # Only the package is scanned: a demo's unread import passes.
    trees = _with_module(scanned_trees(), "demos/99_extra.py", "import os\n")
    assert unread_imports(trees) == []


def test_a_test_module_importing_another_fails_the_check():
    assert imported_test_modules("from test_cli import run\n") == [
        "test_cli"]
    assert imported_test_modules(
        "import json\nimport test_dual as d\n") == ["test_dual"]
    assert imported_test_modules(
        "def f():\n    from test_point_table import wf4\n") == [
        "test_point_table"]
    assert imported_test_modules(
        "from inputs import wf4\nfrom oracles import trace\n"
        "from cubecrys.dual import dual_complex\n") == []


def test_a_module_name_in_both_directories_fails_the_check(tmp_path):
    tests, bench = tmp_path / "tests", tmp_path / "perfbench"
    for path in (tests / "groups.py", tests / "oracles.py",
                 bench / "groups.py", bench / "oracle.py",
                 bench / "groups.txt"):
        path.parent.mkdir(exist_ok=True)
        path.write_text("")
    assert shared_module_names(tests, bench) == ["groups"]
