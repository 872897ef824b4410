"""Every module-level function and class of the package has a caller.

The package's modules are read with ``ast``.  A name defined at module level
must be referenced somewhere in the package outside its own definition (a
use, an attribute access, or an import, under any alias), unless it is
public API that the acceptance tests import or a name the benchmark's tracer
(``perfbench/tracer.py``) wraps.  A helper left behind when its last caller
goes fails here.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import hypalign

SOURCES = sorted(Path(hypalign.__file__).parent.glob("*.py"))
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


def test_every_module_level_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    exempt = _acceptance_imports() | _tracer_wrapped()
    callerless = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _referenced(node)[node.name]      # recursion is not a caller
            if everywhere[node.name] - own <= 0 and node.name not in exempt:
                callerless.append(f"{module}:{node.lineno} {node.name}")
    assert not callerless
