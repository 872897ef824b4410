"""Every module-level function, class and constant of the package, and
every method of its classes, has a caller.

The package's modules are read with ``ast``.  A name defined at module level
(by ``def``, ``class`` or an assignment), or as a method of a module-level
class, must be referenced somewhere in the package outside its own
definition (a use, an attribute access, or an import, under any alias),
unless it is public API that the acceptance tests import or a name the
benchmark's tracer (``perfbench/tracer.py``) wraps.  Methods are counted by
name, as functions are.  Dunder names are exempt (methods, and module
constants such as ``__version__``), and so are overrides of a base class
from outside the package (such as ``cli._Parser.error``, which argparse
calls).  A helper or constant left behind when its last reader goes fails
here.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import hypalign

SOURCES = sorted(Path(hypalign.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
ROOT = Path(__file__).resolve().parents[1]


def _referenced(tree) -> Counter:
    """Each name a tree references, with how often: loaded or stored names,
    attribute names and imported names (the name imported, not its alias)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypalign")
            for alias in node.names}


def _tracer_wrapped() -> set[str]:
    # loaded from its file, as test_bench_hooks.py loads it
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _ in module.WRAPPED}


def _callerless(definitions) -> list[str]:
    """Each ``(module, label, node)`` of ``definitions`` whose name (the
    label's last dotted part) the package references only inside the
    definition itself."""
    everywhere = sum((_referenced(tree) for tree in TREES.values()), Counter())
    exempt = _acceptance_imports() | _tracer_wrapped()
    return [f"{module}:{node.lineno} {label}" for module, label, node in definitions
            # recursion, or the assignment's own target, is not a caller
            if everywhere[name := label.rpartition(".")[2]] - _referenced(node)[name] <= 0
            and name not in exempt]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _overrides_outside(module: str, cls: str, name: str) -> bool:
    """Whether method ``name`` of class ``cls`` overrides a base class's
    from outside the package."""
    owner = getattr(importlib.import_module(f"hypalign.{module.removesuffix('.py')}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:]
               if not base.__module__.startswith("hypalign"))


def test_every_module_level_definition_has_a_caller():
    assert not _callerless((module, node.name, node) for module, tree in TREES.items()
                           for node in tree.body if isinstance(node, (*DEFS, ast.ClassDef)))


def _assigned(node) -> list[str]:
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_every_module_level_constant_has_a_reader():
    assert not _callerless(
        (module, name, node) for module, tree in TREES.items()
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in _assigned(node) if not _dunder(name))


def test_every_method_has_a_caller():
    assert not _callerless(
        (module, f"{cls.name}.{node.name}", node) for module, tree in TREES.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, DEFS) and not _dunder(node.name)
        and not _overrides_outside(module, cls.name, node.name))
