"""The package keeps no leftovers: no module-level import that the module
never uses, and no private definition that the package never refers to.

Both are what a moved or deleted function leaves behind.  The check reads
the source with `ast`, so it runs no package code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "innovlab"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _used_names(tree) -> set:
    """Names the module reads, as a bare name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _imported_names(tree) -> set:
    """Every name imported from anywhere in the module, under its original name."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_module_level_import(module):
    tree = TREES[module]
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"innovlab.{module} imports {unused} without using them"


def _private_definitions(body):
    """Private names a module or class body defines, with the bodies of its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _private_definitions(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_definition_is_referenced(module):
    referenced = set().union(*(_used_names(t) | _imported_names(t) for t in TREES.values()))
    private = {name for name in _private_definitions(TREES[module].body)
               if name.startswith("_") and not name.startswith("__")}
    assert not private - referenced, (
        f"innovlab.{module} defines {sorted(private - referenced)}, which nothing refers to")
