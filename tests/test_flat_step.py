"""The wide train step's building blocks against their first formulations.

The optimizer updates one flat buffer in blocks, a node reading picks of a
stack hands the sweep per-group sums instead of a zero array of the whole
stack, the gather assigns distinct rows instead of scatter-adding them, and
the ``info_nce`` kernel reuses its arrays in place.  Each must give the bits of the
formulation it replaced (``_oracles``), and the backward pass must stay
within its memory budget at the wide shapes.
"""

import tracemalloc

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import Var
from hypalign.losses import TemperatureSet, _nce, total_loss
from hypalign.manifold import Manifold
from hypalign.synthdata import BatchIndices
from hypalign.trainer import (ADAMW_BLOCK, DECAY_EXCLUDE, AdamW, TrainConfig,
                              _gather_scaled, loss_config_with_vars, materialize_batch,
                              parameter_store)

import _oracles as orc


def random_store(rng, scene_rows, part_rows, dim, scale=0.05):
    tables = {"whole_image": rng.normal(size=(scene_rows, dim)) * scale,
              "whole_text": rng.normal(size=(scene_rows, dim)) * scale,
              "part_image": rng.normal(size=(part_rows, dim)) * scale,
              "part_text": rng.normal(size=(part_rows, dim)) * scale}
    return parameter_store(tables, 1.0, TemperatureSet())


def distinct_batch(rng, scenes, parts_per_scene, b):
    scene = rng.choice(scenes, size=b, replace=False)
    return BatchIndices(scene_rows=scene,
                        part_rows=scene * parts_per_scene + rng.integers(0, parts_per_scene, b))


def test_adamw_matches_per_parameter_update_over_blocks():
    # the tables (the decayed prefix) end inside the second block
    rng = np.random.default_rng(4)
    store = random_store(rng, 300, 400, 64)
    decayed = sum(var.value.size for name, var in store.items() if name not in DECAY_EXCLUDE)
    assert ADAMW_BLOCK < decayed < store.flat.size < 2 * ADAMW_BLOCK
    cfg = TrainConfig()
    opt = AdamW(store, cfg)
    values = {name: var.value.copy() for name, var in store.items()}
    m = {name: np.zeros_like(x) for name, x in values.items()}
    v = {name: np.zeros_like(x) for name, x in values.items()}
    for t in range(1, 4):
        grads = {name: rng.normal(size=x.shape) for name, x in values.items()}
        lr = float(rng.uniform(1e-4, 1e-2))
        opt.step(grads, lr)
        orc.adamw_step_reference(values, m, v, t, grads, lr, cfg, DECAY_EXCLUDE)
        for name, var in store.items():
            assert var.value.tobytes() == np.asarray(values[name]).tobytes(), (t, name)
            assert opt.m[name].tobytes() == np.asarray(m[name]).tobytes(), (t, name)
            assert opt.v[name].tobytes() == np.asarray(v[name]).tobytes(), (t, name)


def test_adamw_requires_the_decayed_prefix():
    store = ad.ParameterStore()
    store.register("kappa", 1.0)
    store.register("table", np.ones((2, 3)))
    with pytest.raises(ad.ContractViolationError, match="precede"):
        AdamW(store, TrainConfig())


def _pick_graph(fused, x, w1, w2, w3):
    """A node reading groups (3, 2, 3, 1) of ``x`` and group 3 again, a
    second node reading group 0 and the whole of ``x``, and their sum."""
    many, one = ad.pick(x, (3, 2, 3, 1)), ad.pick(x, 3)
    first = fused(np.sum(many.value * w1) + np.sum(one.value * w2), "probe",
                  (many, one), lambda g: (g * w1, g * w2))
    zero = ad.pick(x, 0)
    second = fused(np.sum(zero.value * x.value[1]) + np.sum(x.value * w3), "probe2",
                   (zero, x), lambda g: (g * x.value[1], g * w3))
    return fused(first.value + second.value, "add", (first, second), lambda g: (g, g))


def test_pick_adjoints_match_whole_stack_accumulation():
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = Var(rng.normal(size=(4, 5, 3)), name="x")
        w1, w2, w3 = (rng.normal(size=s) for s in ((4, 5, 3), (5, 3), (4, 5, 3)))
        got = ad.gradients(_pick_graph(ad.fused, x, w1, w2, w3), {"x": x})["x"]
        ref = orc.sweep_reference(_pick_graph(orc.fused_reference, x, w1, w2, w3))[id(x)]
        assert got.tobytes() == ref.tobytes()


def test_step_gradients_match_whole_stack_sweep(monkeypatch):
    # the whole default-shape graph, built once with the first fused/sweep
    rng = np.random.default_rng(6)
    store = random_store(rng, 64, 256, 16)
    cfg = TrainConfig()
    idx = distinct_batch(rng, 64, 4, 32)

    def root():
        batch = materialize_batch(store, idx)
        return total_loss(batch, loss_config_with_vars(cfg.loss, store),
                          Manifold(store["kappa"])).total

    params = store.as_dict()
    got = ad.gradients(root(), params)
    with monkeypatch.context() as patch:
        patch.setattr(ad, "fused", orc.fused_reference)
        ref = orc.sweep_reference(root())
    for name, var in params.items():
        assert got[name].tobytes() == np.asarray(ref[id(var)]).tobytes(), name


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("include_positive", [False, True])
@pytest.mark.parametrize("per_row", [False, True])
def test_info_nce_matches_first_kernel(transposed, include_positive, per_row):
    rng = np.random.default_rng(7)
    b = 24
    for _ in range(3):
        dv = rng.uniform(0.0, 3.0, size=(b, b))
        tv = rng.uniform(0.05, 0.1, size=b) if per_row else np.asarray(rng.uniform(0.05, 0.1))
        g = float(rng.uniform(0.5, 2.0))
        value, vjp = _nce(dv, tv, include_positive, transposed)
        want, ref_vjp = orc.info_nce_reference(dv, tv, include_positive, transposed)
        assert np.asarray(value).tobytes() == np.asarray(want).tobytes()
        for got, ref in zip(vjp(g), ref_vjp(g)):
            assert got.tobytes() == np.asarray(ref).tobytes()
            assert got.flags.c_contiguous == np.asarray(ref).flags.c_contiguous


@pytest.mark.parametrize("rows", [np.array([7, 2, 11, 0, 5]), np.array([7, 2, 7, 0, 2])])
def test_gather_matches_scatter_add(rows):
    rng = np.random.default_rng(8)
    for _ in range(3):
        tv, cv = rng.normal(size=(12, 4)), np.asarray(rng.uniform(0.1, 1.0))
        g = rng.normal(size=(len(rows), 4))
        node = _gather_scaled([(Var(tv), rows, Var(cv))])
        for got, ref in zip(node._vjp(g[None]), orc.gather_vjp_reference(tv, rows, cv, g)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_backward_returns_only_parentless_adjoints():
    rng = np.random.default_rng(9)
    store = random_store(rng, 16, 64, 8)
    batch = materialize_batch(store, distinct_batch(rng, 16, 4, 8))
    root = total_loss(batch, loss_config_with_vars(TrainConfig().loss, store),
                      Manifold(store["kappa"])).total
    grads = ad.backward(root)
    parentless = {id(node) for node in ad._toposort(root) if not node._parents}
    assert grads and set(grads) <= parentless
    assert {id(var) for _, var in store.items()} <= set(grads)


def test_wide_backward_peak_memory():
    # one step at train_wide's shapes: batch 256, dim 64, 512 scenes x 4;
    # the forward graph's arrays and the backward's transients together
    rng = np.random.default_rng(10)
    store = random_store(rng, 512, 2048, 64)
    cfg = TrainConfig(table_dim=64, batch_size=256)
    idx = distinct_batch(rng, 512, 4, 256)
    tracemalloc.start()
    try:
        batch = materialize_batch(store, idx)
        root = total_loss(batch, loss_config_with_vars(cfg.loss, store),
                          Manifold(store["kappa"])).total
        ad.gradients(root, store.as_dict())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _transposed_sum_graph(fused, y, ws):
    """Nodes handing ``x`` F-ordered adjoints and then a C-ordered one;
    ``x``'s own VJP sums its adjoint along rows, whose bits follow the
    layout."""
    x = fused(y.value * 1.0, "rows", (y,),
              lambda g: (np.broadcast_to(g.sum(axis=1, keepdims=True), g.shape),))
    terms = [fused(np.sum(x.value.T * w), "t", (x,), lambda g, w=w: ((g * w).T,))
             for w in ws[:-1]]
    terms.append(fused(np.sum(x.value * ws[-1]), "c", (x,), lambda g: (g * ws[-1],)))
    total = terms[0]
    for term in terms[1:]:
        total = fused(total.value + term.value, "add", (total, term), lambda g: (g, g))
    return total


def test_sums_keep_the_out_of_place_layout():
    rng = np.random.default_rng(11)
    y = Var(rng.normal(size=(40, 40)), name="y")
    ws = [rng.normal(size=(40, 40)) for _ in range(3)]
    got = ad.gradients(_transposed_sum_graph(ad.fused, y, ws), {"y": y})["y"]
    ref = orc.sweep_reference(_transposed_sum_graph(orc.fused_reference, y, ws))[id(y)]
    assert got.tobytes() == ref.tobytes()
