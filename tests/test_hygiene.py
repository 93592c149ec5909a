"""Every module-level import in the package is read or re-exported, every
name a module exports in ``__all__`` is defined in that module, and no module
reads another module's ``_``-prefixed names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "freeferm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
