"""The package keeps no leftovers: no module-level import that the module
never uses, no private definition that the package never refers to, and no
error class that nothing raises.

All three are what a moved or deleted function leaves behind.  The package
also imports nothing but the standard library, numpy and itself, and no
function imports from a package module that its module imports at the top.
The checks read the source with `ast`, so they run no package code.
"""

import ast
import sys
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


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_only_the_standard_library_numpy_and_innovlab(module):
    # every import statement, at module level or inside a function
    allowed = set(sys.stdlib_module_names) | {"numpy", "innovlab"}
    imported = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported <= allowed, f"innovlab.{module} imports {sorted(imported - allowed)}"


def test_only_the_fork_helper_forks_and_reaps():
    # `core.fork_map` is the package's one fork path: it kills, reaps and
    # hands back errors on every path, which a second path would have to
    # get right again
    calls = {"fork", "wait4", "_exit"}
    seen = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                seen.setdefault(module, set()).add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in calls:
                        seen.setdefault(module, set()).add(alias.name)
    assert seen == {"core": calls}


def _package_module(node):
    """The package module that a `from ... import` statement reads from, or
    None for another statement or a module outside the package."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level:  # `from .models import x` and `from . import x`
        return "innovlab" + (f".{node.module}" if node.module else "")
    return node.module if node.module.split(".")[0] == "innovlab" else None


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_imports_from_a_module_imported_at_the_top(module):
    # a local import of a module that is loaded anyway avoids no cycle and
    # no start-up cost; it only hides a dependency from the import block
    tree = TREES[module]
    top = {_package_module(node) for node in tree.body} - {None}
    local = [f"{function.name}: {_package_module(node)}"
             for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(function) if _package_module(node) in top]
    assert not local, f"innovlab.{module} imports locally what it imports at the top: {local}"


def test_only_the_continuous_front_end_maps_shared_arrays():
    # shared pages are for a caller that reads the rows its children
    # wrote: the continuous criterion reads every row of Z and û, where a
    # crosscheck's ranges hand back (m,) vectors instead
    shared = []
    for module, tree in TREES.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "mapped_array"):
                    continue
                flag = node.args[1:] + [kw.value for kw in node.keywords if kw.arg == "shared"]
                if any(not (isinstance(f, ast.Constant) and f.value is False) for f in flag):
                    shared.append((module, function.name))
    assert sorted(set(shared)) == [("harness", "continuous_front_end")]


def test_only_the_fork_helper_counts_the_processes():
    # `core.fork_map` decides both the process count and how the pieces are
    # split among the processes; a second caller of the count would split
    # pieces of its own that agree with it only while the counts agree
    callers = set()
    for module, tree in TREES.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and "_fork_processes" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((module, function.name))
    assert callers == {("core", "fork_map")}


def test_only_the_continuous_sampler_reads_the_aux_lane():
    # a quantized path draws its aux uniform from its noise lane, after its
    # noise uniforms; `LANE_AUX` serves the continuous models' aux draws
    readers = {module for module, tree in TREES.items()
               if "LANE_AUX" in _used_names(tree) | _imported_names(tree)}
    assert readers == {"models"}


def _raised_names(tree) -> set:
    """Names of the exceptions a module raises: `raise X(...)`, `raise X`,
    and the same through a module attribute."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def test_every_error_class_has_a_raiser():
    # an error class whose raiser is gone documents a failure that cannot
    # happen; the base class is only caught, never raised
    errors = {node.name for node in TREES["errors"].body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(tree) for tree in TREES.values()))
    unraised = errors - {"InnovlabError"} - raised
    assert not unraised, f"innovlab.errors defines {sorted(unraised)}, which nothing raises"
