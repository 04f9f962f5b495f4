"""Every name a package module imports is used in that module, every
private name a module defines is used somewhere in the package, and every
public function or class has a user: package code outside its own
definition, an acceptance criterion or the benchmark. Every function the
benchmark's tracer wraps is still a function of its layer. `np.kron` is
called only inside `linalg._kron`, the package's one tensor-product kernel.
No module makes an instance through `object.__new__`, past its constructor's checks.
And every float literal below 1e-3 in magnitude, a tolerance in all but
name, sits in a module-level assignment that names it.

A stdlib `ast` walk, so it runs wherever the tests run. `__init__.py` is
exempt from the first three checks: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mschain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(_imported_names(tree) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _module_private_names(tree: ast.Module) -> set[str]:
    """Names starting with `_` that a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, looks up as an attribute or imports from a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_referenced(path):
    # a private half left behind when its public twin or its caller goes
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    dead = sorted(_module_private_names(TREES[path.name]) - referenced)
    assert not dead, f"{path.name} defines private names no package module uses: {dead}"


ROOT = PACKAGE.parent.parent
# the callers outside the package that keep a public name alive
OUTSIDE_USERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_public_name_has_a_user(path):
    # a public function or class that no command, criterion or benchmark reaches;
    # the benchmark's tracer reaches the names its `TRACED` table looks up
    outside = [ast.parse(p.read_text(encoding="utf-8")) for p in OUTSIDE_USERS]
    outside += [TREES[p.name] for p in MODULES if p != path]
    referenced = set().union(*(_references(tree) for tree in outside))
    referenced |= set(_traced_names().get(path.stem, ()))
    tree = TREES[path.name]
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            elsewhere = set().union(*(_references(other) for other in tree.body
                                      if other is not node))
            if node.name not in referenced | elsewhere:
                unused.append(node.name)
    assert not unused, f"{path.name} defines public names nothing outside them uses: {unused}"


def _kron_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the `np.kron` / `numpy.kron` references under `tree`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "kron"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_np_kron_only_inside_linalg_kron(path):
    # one tensor-product kernel: `_kron`'s vector path skips np.kron's general-rank set-up
    tree = TREES[path.name]
    allowed = set()
    if path.name == "linalg.py":
        kernel = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_kron")
        allowed = set(_kron_calls(kernel))
    stray = sorted(set(_kron_calls(tree)) - allowed)
    assert not stray, f"{path.name} calls np.kron outside linalg._kron at lines {stray}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_constructor_is_bypassed(path):
    # a value is checked by its type's constructor; `object.__new__` makes one unchecked
    bypass = sorted(node.lineno for node in ast.walk(TREES[path.name])
                    if isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object")
    assert not bypass, f"{path.name} calls object.__new__ at lines {bypass}"


def _unnamed_small_floats(tree: ast.Module) -> list[tuple[int, float]]:
    """(line, value) of each float literal 0 < |x| < 1e-3 outside a module-level assignment."""
    named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt)}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-3 and id(node) not in named)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_small_float_literals_are_named(path):
    # a tolerance written inline cannot be found, listed or cited by its name
    stray = _unnamed_small_floats(TREES[path.name])
    assert not stray, f"{path.name} has unnamed float literals below 1e-3 (line, value): {stray}"


def _traced_names() -> dict[str, tuple[str, ...]]:
    """The benchmark tracer's `TRACED` table, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    return ast.literal_eval(node.value)


def test_every_traced_name_is_a_function_of_its_layer():
    # deleting or renaming a traced function breaks the benchmark's traced run
    missing = [f"{layer}.{name}" for layer, names in _traced_names().items() for name in names
               if not any(isinstance(node, ast.FunctionDef) and node.name == name
                          for node in TREES[f"{layer}.py"].body)]
    assert not missing, f"the benchmark traces names its layers do not define: {missing}"
