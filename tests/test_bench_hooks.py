"""The names the benchmark's tracer (``perfbench/tracer.py``) patches still
exist with the shapes it expects, so a refactor of the package cannot break
traced benchmark runs unnoticed.  The tracer is loaded from its file and
used as it is."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import hypalign.autodiff as ad
import hypalign.gradcheck as gradcheck
from hypalign.losses import Batch, LossConfig, total_loss
from hypalign.manifold import Manifold

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for path, attr, _ in tracer.WRAPPED:
        assert callable(getattr(tracer._resolve(path), attr)), (path, attr)


def test_specially_wrapped_names_resolve(tracer):
    module, _, attr = tracer.GRADIENTS.rpartition(".")
    assert callable(getattr(tracer._resolve(f"hypalign.{module}"), attr))
    module, _, attr = tracer.FD_CHECK.rpartition(".")
    assert callable(getattr(tracer._resolve(f"hypalign.{module}"), attr))


def test_var_init_takes_the_counted_arguments():
    params = list(inspect.signature(ad.Var.__init__).parameters)
    assert params[:5] == ["self", "value", "name", "_parents", "_vjp"]


def test_installed_tracer_counts_and_uninstalls(tracer):
    rng = np.random.default_rng(3)
    groups = ad.Var(rng.normal(size=(4, 4, 3)) * 0.5, name="groups")
    kappa = ad.Var(1.0, name="kappa")
    originals = (ad.Var.__init__, ad.gradients)
    with tracer.Tracer() as t:
        root = total_loss(Batch(groups), LossConfig(), Manifold(kappa)).total
        ad.gradients(root, {"kappa": kappa, "groups": groups})
    assert (ad.Var.__init__, ad.gradients) == originals
    assert t.built["info_nce"] == 3 and t.built["lift_time"] == 1
    # every built node of this graph reaches the loss
    reached = {op: n for op, n in t.reachable.items() if op != "leaf"}
    assert reached == {op: n for op, n in t.built.items() if op != "leaf"}


def test_traced_check_grads_spans_every_loss_evaluation(tracer):
    # the tracer wraps finite_diff_check's first positional argument, the
    # f(params) loss function: one span per evaluation, which is the base
    # forward, one stacked forward per table (its coordinates at +step and
    # -step) and one for the 0-d parameters together (each perturbed forward
    # gives the surrogate's roots and the live ones, zero_tape rows included)
    with tracer.Tracer() as t:
        results, passed = gradcheck.run_check_grads(seed=1, max_coords=1)
    assert passed and len(results) == 70
    tables = {r.param for r in results if r.param.startswith("table_")}
    scalars = {r.param for r in results} - tables
    evaluations = 1 + len(tables) + (len(scalars) > 0)
    spans = [t.names[i] for i in t.name_id]
    assert spans.count(tracer.FD_CHECK) == 1
    assert len(scalars) == 6
    assert spans.count(tracer.LOSS_EVAL) == evaluations == 6
