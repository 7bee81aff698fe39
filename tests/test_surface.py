"""Public surface: every top-level public function and class in `magbern`
is named by the package itself, the benchmark tracer or the acceptance suite,
so no shipped routine is reached only by its own unit tests; no module
reaches into another one's private names; and only `cli` imports inside a
function."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "magbern").glob("*.py"))
CALLERS = SRC + [ROOT / "bench" / "tracing.py", ROOT / "tests" / "test_acceptance.py"]


def _names(node):
    """Identifiers a node names: variables, attributes, imports, and strings
    that are exactly an identifier (the tracer binds attributes by string)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value] if node.value.isidentifier() else []
    return []


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    used = set()
    public = []
    for path in CALLERS:
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", None)
            if (path in SRC and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not owner.startswith("_")):
                public.append((path.stem, owner))
            # a definition's own body (recursion, annotations) does not count
            used.update(name for node in ast.walk(top) for name in _names(node)
                        if name != owner)
    unused = [f"{module}.{name}" for module, name in public if name not in used]
    assert not unused, f"public names with no caller outside the unit tests: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """A `_`-prefixed name belongs to its module: no `src` module imports one
    from another module or reads one as an attribute of an imported module."""
    reads = []
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # local names bound to modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:  # from . import geometry
                    modules.update(a.asname or a.name for a in node.names)
                reads += [f"{path.stem}: from {node.module or '.'} import {a.name}"
                          for a in node.names if _private(a.name)]
        reads += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert not reads, f"reads of another module's private names: {reads}"


def test_only_cli_imports_inside_a_function():
    """A module's dependencies are its top-level imports.  `cli` alone imports
    in its runners, so that the commands that never solve on the lattice never
    load scipy."""
    nested = []
    for path in SRC:
        if path.stem == "cli":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.stem}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside a function body: {nested}"
