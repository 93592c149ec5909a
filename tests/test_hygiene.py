"""Every module-level import in the package is read or re-exported, every
name a module exports in ``__all__`` is defined in that module, no module
reads another module's ``_``-prefixed names, and every definition in the
package is reached from a path that checks a paper claim."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "freeferm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: files outside the package whose reads are claim paths (the CLI is in the package)
CLAIM_PATHS = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
#: definitions kept although no claim path reaches them, each with its reason
UNREACHED_BY_DESIGN = {
    "dense.write_dense": "the writer of the dense_fixture: format that read_dense parses",
    "states.nongaussianity_bounds": "the testers' Gaussian-set bounds; ROADMAP item 7 puts it on a path",
    "states.rotate": "a Gaussian unitary acting on a state; tests build rotated states with it",
}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module):
    """(bound name, line) of each module-level import; __future__ is exempt."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _defined(tree: ast.Module) -> set:
    """Names bound at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    kept = read | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in kept]
    assert not unused, f"{path.name} imports names it never reads: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = sorted(_exported(tree) - _defined(tree))
    assert not stale, f"{path.name} exports names it does not define: {stale}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.Module, modules: set):
    """(name, line) of each private name read from a sibling module."""
    aliases = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif node.module in modules and _is_private(alias.name):
                    yield f"{node.module}.{alias.name}", node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            yield f"{node.value.id}.{node.attr}", node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    modules = {p.stem for p in SRC.glob("*.py")}
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{name} (line {line})" for name, line in _private_reads(tree, modules)]
    assert not reads, f"{path.name} reads private names of other modules: {reads}"


def _package_imports(tree: ast.Module):
    """({alias: module}, {alias: "module.name"}) bound by imports from the package."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level > 1:
            continue
        parts = node.module.split(".") if node.module else []
        if node.level == 0:
            if parts[:1] != ["freeferm"]:
                continue
            parts = parts[1:]
        for alias in node.names:
            bound = alias.asname or alias.name
            if parts:
                names[bound] = f"{parts[0]}.{alias.name}"
            else:
                modules[bound] = alias.name
    return modules, names


def _package_reads(node: ast.AST, imports, own: str = None):
    """Each "module.name" that ``node`` reads; a bare name not imported is ``own``'s."""
    modules, names = imports
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in modules):
            yield f"{modules[sub.value.id]}.{sub.attr}"
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in names:
                yield names[sub.id]
            elif own:
                yield f"{own}.{sub.id}"


def _definitions_and_roots():
    """({"module.name": its reads} for each top-level def and class, root reads).

    The roots are the claim paths' reads and the reads of each module's
    top-level statements other than defs and classes, such as the CLI's
    ``__main__`` call.
    """
    units, roots = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = _package_imports(tree)
        for node in tree.body:
            reads = set(_package_reads(node, imports, path.stem))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                units[f"{path.stem}.{node.name}"] = reads
            else:
                roots |= reads
    for path in CLAIM_PATHS:
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= set(_package_reads(tree, _package_imports(tree)))
    return units, roots


def _reached(units: dict, roots: set) -> set:
    reached, todo = set(roots), list(roots)
    while todo:
        new = units.get(todo.pop(), set()) - reached
        reached |= new
        todo.extend(new)
    return reached


def test_every_definition_reaches_a_claim_path():
    # a def or class counts only when reached code reads it, so an error class
    # counts only where reached code raises or catches it
    units, roots = _definitions_and_roots()
    kept = set(UNREACHED_BY_DESIGN)
    unreached = sorted(set(units) - _reached(units, roots | kept))
    assert not unreached, (
        f"no CLI command, benchmark workload or acceptance criterion reaches {unreached}; "
        "put each on a claim's path or delete it")
    stale = sorted(kept - (set(units) - _reached(units, roots)))
    assert not stale, f"reached or gone, so drop from UNREACHED_BY_DESIGN: {stale}"
