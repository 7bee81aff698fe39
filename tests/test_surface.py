"""Public surface: every top-level public function and class in `magbern`
is named by the package itself, the benchmark tracer or the acceptance suite,
so no shipped routine is reached only by its own unit tests; no module
reaches into another one's private names; only `cli` imports inside a
function; no `cli` runner reads input; `lattice` has one deterministic
solver; and every name the benchmark tracer binds still resolves."""

import ast
import importlib.util
import inspect
import textwrap
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


def test_cli_runners_read_no_input():
    """Every input is read in `parse_config`, before the manifest: no
    `cli.run_*` runner, nor a `cli` function it calls, opens a file, so a
    runner cannot fail on its input after the manifest is written."""
    tree = ast.parse((ROOT / "src" / "magbern" / "cli.py").read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    readers = {"open", "read_pbm", "read_keyvalue_file", "read_text", "read_bytes"}
    reads = []
    for runner in [name for name in functions if name.startswith("run_")]:
        todo, seen = [runner], set()
        while todo:
            name = todo.pop()
            seen.add(name)
            calls = {n for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                     for n in _names(node.func)}
            reads += [f"{runner} -> {name}: {n}" for n in sorted(calls & readers)]
            todo += [n for n in calls if n in functions and n not in seen]
    assert not reads, f"runners that read input after the manifest: {reads}"


def test_lattice_has_one_deterministic_solver():
    """`lattice` imports no iterative eigensolver (`scipy.sparse.linalg`) and
    draws no random numbers, so that no second ring solver, nor a start
    vector, comes back beside the rank-one update."""
    tree = ast.parse((ROOT / "src" / "magbern" / "lattice.py").read_text())
    imports = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    imports += [f"{node.module}.{a.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    solvers = [m for m in imports if m.startswith(("scipy.sparse.linalg", "random", "numpy.random"))]
    assert not solvers, f"lattice imports an iterative solver or a random source: {solvers}"
    names = {name for node in ast.walk(tree) for name in _names(node)}
    drawn = names & {"random", "default_rng", "RandomState", "SeedSequence", "eigsh", "lobpcg"}
    assert not drawn, f"lattice names a random source or an iterative solver: {drawn}"


def _observer_keys(observe) -> set:
    """Argument names an observer reads as a["name"] from the bound
    arguments, its second parameter."""
    fn = ast.parse(textwrap.dedent(inspect.getsource(observe))).body[0]
    bound = fn.args.args[1].arg
    return {node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == bound and isinstance(node.slice, ast.Constant)}


def test_every_tracer_binding_resolves():
    """`bench/run.py --trace 1` patches `magbern` attributes by name and its
    observers read the wrapped calls' arguments by name, so a rename in `src`
    would break the traced run, not a test of the package: every
    (owner, attribute) of `tracing.targets()` must resolve, and every
    argument an observer reads must be a parameter of the function it
    wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved, unbound, read = [], [], set()
    for name, sites, observe, _span in tracing.targets():
        for owner, attr in sites:
            try:
                inspect.getattr_static(owner, attr)
            except AttributeError:
                unresolved.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr}")
        if observe is None or unresolved:
            continue
        params = inspect.signature(inspect.getattr_static(*sites[0])).parameters
        keys = _observer_keys(observe)
        unbound += [f"{name}: {key}" for key in sorted(keys - set(params))]
        read |= keys
    assert not unresolved, f"tracer targets that no longer resolve: {unresolved}"
    assert not unbound, f"observed arguments the wrapped functions no longer take: {unbound}"
    # the observers' reads, so that a parse that finds none cannot pass
    assert read >= {"conjugate_branch", "x1", "x2", "n_grid", "n_circle", "cells", "op",
                    "dense_threshold", "config", "trials", "eps_list"}
