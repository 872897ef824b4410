"""The benchmark's workloads (``perfbench/workloads.py``) still run on the
package: each is driven through ``setup`` -> ``fresh`` -> ``prepare`` ->
``run`` -> ``checks`` as the benchmark's worker drives it, so a change to
the package that breaks the benchmark fails here.  An operation loop runs
two operations, or a train workload's hash step, whose parameters its
replay check compares.  The module is loaded from its file, beside the
host-speed clock it imports."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ["train_default", "train_wide", "eval_export", "check_grads"]


@pytest.fixture(scope="module")
def workloads():
    """``workloads`` and the ``hostspeed`` it imports, registered as
    modules (its dataclasses look their module up) for this file's tests."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("hostspeed", "workloads"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        yield module


def test_every_workload_is_driven(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_checks(workloads, tmp_path, name):
    work = workloads.WORKLOADS[name]
    state = work.fresh(work.setup(1))
    work.prepare(state, str(tmp_path))
    # a train workload's replay check reads the parameters at its hash step
    ops = max(2, getattr(work, "hash_step", 0))
    out = work.run(state, str(tmp_path), ops=ops)
    assert out.failures == [] and len(out.op_s) == ops
    checks = work.checks(state, out, str(tmp_path))
    failed = {check: detail for check, (ok, detail) in checks.items() if not ok}
    assert failed == {}
