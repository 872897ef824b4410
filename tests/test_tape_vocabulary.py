"""The tape's vocabulary is what training builds, and each word is checked.

The package's modules are read with ``ast``: every node name passed as a
literal to ``fused(...)`` or to ``Var(...)`` must be a name that
``test_losses.TestGraphBudget`` finds in the objective's graphs or that the
fused-op tests build and compare against their references.  An
elementary op added back to the package, or a new node name, fails here
until a test covers it.
"""

import ast
from pathlib import Path

import pytest

import hypalign

import _reference_ops as ref
import test_fused_loss_ops
import test_fused_ops
from test_losses import GRAPH_NODE_NAMES, REFERENCE_NODE_NAMES

SOURCES = sorted(Path(hypalign.__file__).parent.glob("*.py"))

# the elementary ops, which live in the tests' reference module
ELEMENTARY_OPS = {name for name, f in vars(ref).items()
                  if callable(f) and getattr(f, "__module__", None) == ref.__name__}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _name_argument(call: ast.Call):
    """The node-name argument of a ``fused``/``Var`` call: the second
    positional one or ``name=``; None when absent."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "name"), None)


def built_node_names() -> dict[str, list[str]]:
    """Each literal node name in the package, with where it is built."""
    names: dict[str, list[str]] = {}
    for path in SOURCES:
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(call, ast.Call) or _callee(call) not in ("fused", "Var"):
                continue
            arg = _name_argument(call)
            where = f"{path.name}:{call.lineno}"
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.setdefault(arg.value, []).append(where)
            elif _callee(call) == "fused":
                # a name from a variable is an op factory: its names escape the check
                pytest.fail(f"{where}: fused(...) without a literal node name")
    return names


def test_every_built_name_is_covered():
    covered = GRAPH_NODE_NAMES | set(test_fused_ops.FUSED) | set(test_fused_loss_ops.FUSED)
    names = built_node_names()
    uncovered = {name: where for name, where in names.items() if name not in covered}
    assert not uncovered
    assert not REFERENCE_NODE_NAMES & set(names)
    # a stopped value is read by value: no node stands for the stop
    assert "stop_gradient" not in names


def test_no_elementary_op_defined_or_called():
    # the block sums are plain arithmetic: add and mul are reference ops
    assert {"add", "mul"} <= ELEMENTARY_OPS
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ELEMENTARY_OPS, f"{path.name}:{node.lineno}"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("ad", "autodiff")):
                assert node.attr not in ELEMENTARY_OPS, f"{path.name}:{node.lineno}"
