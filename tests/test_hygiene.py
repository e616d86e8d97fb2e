"""Source hygiene checks over the package.

No module imports a name it never uses.  The package re-exports its API from
__init__.py, so that module is skipped.  Names used only inside string
annotations count as used.

No function or method is dead: each one (dunders aside) is referenced
somewhere other than its own body, in the package, the tests or the
benchmark.  A name, an attribute, an imported name or a string that is
exactly the identifier all count as a reference; the check goes by name, so
it cannot tell apart two methods that share one.

No module-level constant is dead: each name a module of the package binds
by plain assignment (dunders aside) is referenced somewhere other than its
own assignment, counted the same way as functions.

No dataclass field is dead: each field of a dataclass in the package is read
somewhere in the package, the tests or the benchmark.  An attribute load or
a string that is exactly the field name counts as a read; like the check
above it goes by name.

Every limit of `Bounds` is applied: each field is read somewhere in the
package as an attribute of a name `bounds`.  Unlike the dataclass check, a
field of another class that shares the name does not count.

No module of the package imports `testkit`: the test oracles and generators
never back a verdict.

No module of the package reads the environment: a run depends only on its
arguments, and every limit it applies is one that `Bounds` reports.

No module of the package imports an underscore name from another module of
the package (`from .x import _y`): a private name stays behind the module
that defines it.  An attribute access such as `verifier._det` is not an
import and is not checked.

No module of the package writes into a `RingElement`'s term map `._terms`,
by assignment, deletion or a mutating dict method, outside the two
constructors in rings.py: elements cache their sorted terms, hash and sort
key, which a later write would leave stale.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from diagcert.bounds import Bounds

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCANNED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # forward references such as -> "RingMatrix"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _references(tree):
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[(node.asname or node.name).split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not \
                (node.name.startswith("__") and node.name.endswith("__")):
            yield node


def test_no_dead_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SCANNED}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            own = _references(ast.Module(body=node.body, type_ignores=[]))
            if total[node.name] - own[node.name] <= 0:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"functions referenced nowhere else: {dead}"


def _constants(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield stmt, target.id


def test_no_dead_constants():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SCANNED}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    dead = [f"{path.name}:{stmt.lineno} {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for stmt, name in _constants(trees[path])
            if total[name] - _references(stmt)[name] <= 0]
    assert not dead, f"constants referenced nowhere else: {dead}"


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and \
                any(_is_dataclass(d) for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    yield node.name, stmt


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_no_dead_fields():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SCANNED}
    reads = set()
    for tree in trees.values():
        reads.update(_reads(tree))
    dead = [f"{path.name}:{stmt.lineno} {cls}.{stmt.target.id}"
            for path in sorted(PACKAGE.glob("*.py"))
            for cls, stmt in _dataclass_fields(trees[path])
            if stmt.target.id not in reads]
    assert not dead, f"dataclass fields read nowhere: {dead}"


def test_every_bound_is_applied():
    applied = {node.attr
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)
               and isinstance(node.value, ast.Name) and node.value.id == "bounds"}
    unread = [f.name for f in fields(Bounds) if f.name not in applied]
    assert not unread, f"Bounds fields the package never reads: {unread}"


def _imports_testkit(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "testkit" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "testkit" or \
                    any(a.name == "testkit" for a in node.names):
                return True
    return False


def test_no_module_imports_testkit():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "testkit.py" and
                 _imports_testkit(ast.parse(path.read_text(encoding="utf-8")))]
    assert not importers, f"modules importing testkit: {importers}"


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.Name, ast.alias)):
            name = getattr(node, "id", None) or node.name
        else:
            continue
        if name.split(".")[-1] in ENVIRONMENT_NAMES:
            return True
    return False


def test_no_module_reads_the_environment():
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if _reads_environment(ast.parse(path.read_text(encoding="utf-8")))]
    assert not readers, f"modules reading the environment: {readers}"


def _private_imports(tree):
    """`module._name` for each underscore name imported from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "diagcert"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.module or ''}.{alias.name}"


def test_no_module_imports_a_private_name():
    probe = ast.parse("from .groebner import FreeVector, _lead\n"
                      "from diagcert.rings import _element\n"
                      "from . import verifier\n")
    assert list(_private_imports(probe)) == ["groebner._lead",
                                             "diagcert.rings._element"]
    imports = [f"{path.name}: {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name in _private_imports(
                   ast.parse(path.read_text(encoding="utf-8")))]
    assert not imports, f"private names imported across modules: {imports}"


# where rings.py builds an element's term map
TERM_MAP_CONSTRUCTORS = {"RingElement.__init__", "_element"}
DICT_MUTATORS = {"__setitem__", "__delitem__", "__ior__", "clear", "pop",
                 "popitem", "setdefault", "update"}


def _term_map_writes(tree):
    """(line, qualified name of the enclosing function) of each write into
    an attribute `_terms` or into the map it holds."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            written = None
            if isinstance(child, ast.Attribute) and \
                    isinstance(child.ctx, (ast.Store, ast.Del)):
                written = child
            elif isinstance(child, ast.Subscript) and \
                    isinstance(child.ctx, (ast.Store, ast.Del)):
                written = child.value
            elif isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr in DICT_MUTATORS:
                written = child.func.value
            if isinstance(written, ast.Attribute) and written.attr == "_terms":
                yield child.lineno, scope
            yield from walk(child, inner)
    yield from walk(tree, "")


def test_term_maps_are_written_only_by_the_constructors():
    probe = ast.parse("def f(a):\n    a._terms[(1,)] = 2\n"
                      "    del a._terms[(1,)]\n    a._terms.update({})\n"
                      "    a._terms = {}\n    a._terms |= {}\n")
    assert len(list(_term_map_writes(probe))) == 5
    writes = [f"{path.name}:{line} in {scope or 'module'}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, scope in _term_map_writes(
                  ast.parse(path.read_text(encoding="utf-8")))
              if not (path.name == "rings.py"
                      and scope in TERM_MAP_CONSTRUCTORS)]
    assert not writes, f"writes into a RingElement term map: {writes}"
