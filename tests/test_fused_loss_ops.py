"""The fused loss-block tape ops -- the contrastive row sums of one or two
directions (``info_nce``), the per-row temperatures (``tempered``), the leaky
entailment term (``leaky``), the sum of two terms' rows (``sum_pair``),
calibration of one part group or both (``calibration``), the batch gather
(``gather_scale``) and the weighted total (``weighted_total``) -- each one
tape node with a hand-derived vector-Jacobian product.

Two references: central finite differences for every input, and the
op-by-op composition the fused nodes replaced, rebuilt below from
single-purpose tape nodes.  The fused nodes keep the composition's
arithmetic in both directions, and list their inputs so that the backward
sweep reaches and accumulates every shared adjoint in the composition's
order; values and adjoints must agree bit for bit for each node, also over
a stack of groups (``tempered`` and ``calibration`` over both part groups,
``leaky`` over the four entailment terms, ``info_nce`` over both axes of one
matrix), where each group must equal the call on that group alone.  A whole
training step's graph stacks its groups and sums shared adjoints in its own
order: against the composition called once per group and term, its values
agree bit for bit and its gradients to rounding.  Against the step's graph
as it was before each report component became one node, it agrees bit for
bit in values and gradients.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hypalign.autodiff as ad
import hypalign.losses as losses
from hypalign.autodiff import Var, value_of
from hypalign.entailment import aperture, exterior_angle
from hypalign.gradcheck import build_check_problem
from hypalign.losses import (
    GROUPS,
    LAYOUT,
    Batch,
    LossConfig,
    _calibrate,
    _info_nce,
    _nce,
    _leaky,
    _sum_pair,
    _tempered,
    _weighted_total,
    total_loss,
)
from hypalign.manifold import Manifold, lift, pairwise_distance
from hypalign.trainer import (TrainConfig, _gather_scaled, loss_config_with_vars,
                              materialize_batch)
from hypalign.uncertainty import uncertainty, uncertainty_from_radius

import _reference_ops as ref
from test_flat_step import distinct_batch, random_store
from test_fused_ops import _transpose

ETA, ALPHA = 1.2, 0.1
# a stack of four entailment terms, one aperture scaling per term
ETAS = np.array([[1.2], [1.2], [0.7], [0.7]])
ROWS = np.array([0, 2, 2, 4, 1])          # a gather with a duplicate row
ROWS_DISTINCT = np.array([3, 0, 1, 4, 2])
COMPONENTS = ("contrastive_globallocal", "contrastive_global", "contrastive_local",
              "entail_inter", "entail_intra", "calibration")
# lambda_intra, lambda_cal, lambda_ent: plain floats, as LossConfig holds them,
# so no input of the weighted total's node
WEIGHTS = (0.5, 10.0, 0.2)


# ---------------------------------------------------------------------------
# the unfused composition: one tape node per elementary op
# ---------------------------------------------------------------------------

def _relu(a):
    return ref.unary(a, "relu", lambda x: np.maximum(x, 0.0),
                     lambda x, out: (x > 0.0).astype(float))


def _take_rows(a, idx):
    idx = np.asarray(idx, dtype=np.intp)
    av = value_of(a)

    def vjp(g):
        acc = np.zeros(av.shape)
        np.add.at(acc, idx, g)
        return (acc,)

    return ad.fused(av[idx], "take_rows", (a,), vjp)


def _diag_part(a):
    av = value_of(a)

    def vjp(g):
        acc = np.zeros(av.shape)
        n = av.shape[0]
        acc[np.arange(n), np.arange(n)] = g
        return (acc,)

    return ad.fused(np.diagonal(av).copy(), "diag_part", (a,), vjp)


def _logsumexp(a, axis=-1):
    xv = value_of(a)
    m = np.max(xv, axis=axis, keepdims=True)
    out = np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(xv - m), axis=axis))
    return ad.fused(out, "logsumexp", (a,),
                    lambda g: (np.expand_dims(g, axis) * ad._softmax_val(xv, axis),))


def one_info_nce(dists, tau, include_positive, transposed):
    """``info_nce`` over the directions ``transposed`` names: False, True, or
    "both" (the matrix read along each axis, as the global term reads it)."""
    axes = (False, True) if transposed == "both" else (transposed,)
    return _info_nce(tuple((dists, tau, t) for t in axes), include_positive)


def unfused_info_nce(dists, tau, include_positive, transposed):
    if transposed == "both":
        return ref.add(unfused_info_nce(dists, tau, include_positive, False),
                       unfused_info_nce(dists, tau, include_positive, True))
    if transposed:
        dists = _transpose(dists)
    b = value_of(dists).shape[0]
    if value_of(tau).ndim == 1:
        tau = ref.reshape(tau, (b, 1))
    logits = ref.div(ref.neg(dists), tau)
    positives = _diag_part(logits)
    if include_positive:
        denom = _logsumexp(logits, axis=1)
    else:
        mask = np.zeros((b, b))
        np.fill_diagonal(mask, -np.inf)
        denom = _logsumexp(ref.add(logits, mask), axis=1)
    return ref.reduce_sum(ref.sub(denom, positives))


def unfused_tempered(u, tau):
    return ref.mul(ref.exp(ref.div(u, 2.0)), tau)


def unfused_leaky(phi, omega, eta, alpha):
    hinge = _relu(ref.sub(phi, ref.mul(np.asarray(eta, dtype=float), omega)))
    return ref.add(hinge, ref.mul(float(alpha), phi))


def unfused_sum_pair(a, b):
    return ref.add(ref.reduce_sum(a), ref.reduce_sum(b))


def unfused_calibrate(u, leak, sign):
    if value_of(u).ndim == 2:
        # a stack of part groups: one calibration per group, summed in order
        return ref.add(unfused_calibrate(ad.pick(u, 0), ad.pick(leak, 0), sign),
                       unfused_calibrate(ad.pick(u, 1), ad.pick(leak, 1), sign))
    core = ref.reduce_sum(ref.add(ref.mul(value_of(leak), ref.exp(ref.neg(u))), u))
    w = ref.softmax(u, axis=-1)
    ent = ref.neg(ref.reduce_sum(ref.mul(w, ref.log(w))))
    return ref.add(core, ref.mul(float(sign), ent))


def unfused_gather_scaled(sources):
    return ref.stack([ref.mul(scale, _take_rows(table, rows))
                      for table, rows, scale in sources])


def unfused_weighted_total(c, lambda_intra, lambda_cal, lambda_ent):
    con = ref.add(ref.add(c["contrastive_globallocal"], c["contrastive_global"]),
                 c["contrastive_local"])
    ent = ref.add(c["entail_inter"], ref.add(ref.mul(lambda_intra, c["entail_intra"]),
                                           ref.mul(lambda_cal, c["calibration"])))
    return ref.add(con, ref.mul(lambda_ent, ent))


def part_uncertainty(parts, m, cfg):
    """The part uncertainty ``total_loss`` tempers and calibrates with."""
    return uncertainty_from_radius(parts, m) if cfg.uncertainty_from_radius else uncertainty(parts)


def unfused_materialize_batch(store, idx):
    """The batch as one gather per group (a ``take_rows`` and a ``mul``
    each) and a ``stack`` of the four."""
    return Batch(unfused_gather_scaled(
        [(store[src.table], idx.rows(src.level), store[src.scale]) for src in LAYOUT.values()]))


def unfused_total_loss(batch, cfg, m):
    """The objective over the unfused loss arithmetic, on the fused geometry
    called once per group, pair and term (the layout before the groups were
    stacked); returns the total and the components."""
    groups = {g: ad.pick(batch.groups, k) for k, g in enumerate(GROUPS)}
    s = {g: lift(x, m) for g, x in groups.items()}
    u_image, u_text = (part_uncertainty(groups[g], m, cfg) for g in ("part_image", "part_text"))
    temps, cone, alpha = cfg.temps, cfg.cone, cfg.alpha

    def nce(d, tau, transposed=False):
        return unfused_info_nce(d, tau, cfg.include_positive, transposed)

    def leaky(apex, member, eta, omega=None):
        omega = aperture(s[apex], cone.aperture_k, m) if omega is None else omega
        return unfused_leaky(exterior_angle(s[apex], s[member], m), omega, eta, alpha), omega

    d_glob = pairwise_distance(s["whole_image"], s["whole_text"], m)
    d_loc = pairwise_distance(s["part_image"], s["part_text"], m)
    gl = temps.tau_global_local
    leak_text, omega_text = leaky("part_text", "whole_text", cone.eta_intra)
    leak_image, _ = leaky("part_image", "whole_image", cone.eta_intra)
    inter_parts, _ = leaky("part_text", "part_image", cone.eta_inter, omega_text)
    inter_wholes, _ = leaky("whole_text", "whole_image", cone.eta_inter)
    components = {
        "contrastive_globallocal": ref.add(
            nce(pairwise_distance(s["part_image"], s["whole_text"], m),
                unfused_tempered(u_image, gl)),
            nce(pairwise_distance(s["part_text"], s["whole_image"], m),
                unfused_tempered(u_text, gl))),
        "contrastive_global": ref.add(nce(d_glob, temps.tau_global),
                                     nce(d_glob, temps.tau_global, True)),
        "contrastive_local": ref.add(nce(d_loc, temps.tau_local),
                                    nce(d_loc, temps.tau_local, True)),
        "entail_inter": unfused_sum_pair(inter_parts, inter_wholes),
        "entail_intra": unfused_sum_pair(leak_text, leak_image),
        "calibration": ref.add(unfused_calibrate(u_text, leak_text, cfg.entropy_sign),
                              unfused_calibrate(u_image, leak_image, cfg.entropy_sign)),
    }
    total = unfused_weighted_total(components, cfg.lambda_intra, cfg.lambda_cal,
                                   cfg.lambda_ent)
    return total, components


def parent_graph_total_loss(batch, cfg, m):
    """The objective's graph as it was before each report component became
    one node: two single-direction ``info_nce`` nodes and an ``add`` per
    contrastive component, and one ``calibration`` node per part group and
    an ``add``, on today's stacked geometry and loss nodes; returns the
    total and the components."""
    parts = ad.pick(batch.groups, (losses.PART_IMAGE, losses.PART_TEXT))
    points = lift(batch.groups, m)
    u = part_uncertainty(parts, m, cfg)
    temps, cone = cfg.temps, cfg.cone

    def nce(d, tau, transposed=False):
        return _info_nce(((d, tau, transposed),), cfg.include_positive)

    def dist(pair):
        a, b = losses.DISTANCE_PAIRS[pair]
        return pairwise_distance(points.groups(a), points.groups(b), m)

    d_glob, d_loc = dist(losses.GLOBAL), dist(losses.LOCAL)
    tau_rows = _tempered(u, temps.tau_global_local)
    apex = points.groups(losses.APEXES)
    phi = exterior_angle(apex, points.groups(losses.MEMBERS), m)
    omega = aperture(apex, cone.aperture_k, m)
    leak = _leaky(phi, omega, losses.entailment_etas(cone), cfg.alpha)

    def calibrate(row, k):
        return _calibrate(ad.pick(u, row), ad.pick(leak, k), cfg.entropy_sign)

    components = {
        "contrastive_globallocal": ref.add(
            nce(dist(losses.GLOBAL_LOCAL_IMAGE), ad.pick(tau_rows, losses.U_IMAGE)),
            nce(dist(losses.GLOBAL_LOCAL_TEXT), ad.pick(tau_rows, losses.U_TEXT))),
        "contrastive_global": ref.add(nce(d_glob, temps.tau_global),
                                      nce(d_glob, temps.tau_global, True)),
        "contrastive_local": ref.add(nce(d_loc, temps.tau_local),
                                     nce(d_loc, temps.tau_local, True)),
        "entail_inter": _sum_pair(ad.pick(leak, losses.INTER_PARTS),
                                  ad.pick(leak, losses.INTER_WHOLES)),
        "entail_intra": _sum_pair(ad.pick(leak, losses.INTRA_TEXT),
                                  ad.pick(leak, losses.INTRA_IMAGE)),
        "calibration": ref.add(calibrate(losses.U_TEXT, losses.INTRA_TEXT),
                               calibrate(losses.U_IMAGE, losses.INTRA_IMAGE)),
    }
    total = _weighted_total(components, cfg.lambda_intra, cfg.lambda_cal, cfg.lambda_ent)
    return total, components


# ---------------------------------------------------------------------------
# each op as a function of named arrays, fused and unfused
# ---------------------------------------------------------------------------

def _impls(nce, tempered, leaky, sum_pair, calibrate, gather, total):
    return {
        "info_nce": lambda a, v: nce(a["d"], a["tau"], v["include_positive"],
                                     v["transposed"]),
        "tempered": lambda a, v: tempered(a["u"], a["tau"]),
        "leaky": lambda a, v: leaky(a["phi"], a["omega"], ETAS if v.get("stacked") else ETA,
                                    v["alpha"]),
        "sum_pair": lambda a, v: sum_pair(a["a"], a["b"]),
        "calibration": lambda a, v: calibrate(a["u"], a["leak"], v["sign"]),
        # two tables sharing a scale, one gather with a repeated row
        "gather_scale": lambda a, v: gather([(a["table"], ROWS, a["scale"]),
                                             (a["other"], ROWS_DISTINCT, a["scale"])]),
        "weighted_total": lambda a, v: total({k: a[k] for k in COMPONENTS}, *WEIGHTS),
    }


FUSED = _impls(one_info_nce, _tempered, _leaky, _sum_pair, _calibrate, _gather_scaled,
               _weighted_total)
UNFUSED = _impls(unfused_info_nce, unfused_tempered, unfused_leaky, unfused_sum_pair,
                 unfused_calibrate, unfused_gather_scaled, unfused_weighted_total)

CASES = (
    [("info_nce", {"include_positive": pos, "transposed": tr, "tau": tau})
     for pos in (False, True) for tr in (False, True, "both") for tau in ("scalar", "rows")]
    + [("tempered", {}), ("tempered", {"stacked": True}),
       ("leaky", {"alpha": ALPHA}), ("leaky", {"alpha": 0.0}),
       ("leaky", {"alpha": ALPHA, "stacked": True}),
       ("sum_pair", {}), ("calibration", {"sign": 1.0}), ("calibration", {"sign": -1.0}),
       ("calibration", {"sign": 1.0, "stacked": True}),
       ("calibration", {"sign": -1.0, "stacked": True}),
       ("gather_scale", {}), ("weighted_total", {})]
)


def _case_id(case):
    op, variant = case
    return "-".join([op] + [f"{k}_{v}" for k, v in variant.items()])


def make_inputs(op, variant, seed=0):
    rng = np.random.default_rng(seed)
    b = 5
    if op == "info_nce":
        tau = (np.array(0.07) if variant["tau"] == "scalar"
               else rng.uniform(0.06, 0.085, size=b))
        return {"d": rng.uniform(0.05, 0.6, size=(b, b)), "tau": tau}
    # a stack: the part groups' temperatures or calibrations, or the four
    # entailment terms
    rows = (len(ETAS) if op == "leaky" else 2, b) if variant.get("stacked") else (b,)
    if op == "tempered":
        return {"u": rng.uniform(0.05, np.log(2.0), size=rows), "tau": np.array(0.06)}
    if op == "leaky":
        omega = rng.uniform(0.2, 1.2, size=rows)
        # hinge excesses of both signs, at least 0.05 from the boundary
        excess = rng.uniform(0.05, 0.4, size=rows) * np.array([1, -1, 1, -1, 1])
        eta = ETAS if variant.get("stacked") else ETA
        return {"phi": eta * omega + excess, "omega": omega}
    if op == "sum_pair":
        return {"a": rng.uniform(0.0, 2.0, size=b), "b": rng.uniform(0.0, 2.0, size=b)}
    if op == "calibration":
        return {"u": rng.uniform(0.05, np.log(2.0), size=rows),
                "leak": rng.uniform(0.0, 2.0, size=rows)}
    if op == "gather_scale":
        return {"table": rng.normal(size=(b, 3)), "scale": np.array(0.25),
                "other": rng.normal(size=(b, 3))}
    return {k: np.array(rng.normal() * 50.0) for k in COMPONENTS}


def _live(op, arrays):
    """Inputs whose adjoint matches central differences: every input but
    calibration's stopped leak."""
    return [k for k in arrays if not (op == "calibration" and k == "leak")]


def _weights(op, variant, arrays, seed=1):
    shape = value_of(FUSED[op](arrays, variant)).shape
    return np.random.default_rng(seed).normal(size=shape)


def tape_adjoints(op, variant, impl, arrays, live, weights):
    """Adjoints of ``<w, out>`` for the ``live`` inputs."""
    inputs = {k: Var(np.array(v, dtype=float), name=k) if k in live else v
              for k, v in arrays.items()}
    root = ref.reduce_sum(ref.mul(impl(inputs, variant), weights))
    return ad.gradients(root, {k: inputs[k] for k in live})


def fd_adjoints(op, variant, arrays, live, weights, h=1e-6):
    def f(vals):
        return float(np.sum(value_of(FUSED[op](vals, variant)) * weights))

    out = {}
    for k in live:
        x = np.array(arrays[k], dtype=float)
        g = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            vals = dict(arrays)
            for sign in (1.0, -1.0):
                xs = x.copy()
                xs[i] += sign * h
                vals[k] = xs
                g[i] += sign * f(vals) / (2.0 * h)
        out[k] = g
    return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestFusedLossValues:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_bitwise_equal_to_unfused(self, case):
        op, variant = case
        arrays = make_inputs(op, variant)
        fused_plain = FUSED[op](arrays, variant)
        assert not ad.is_var(fused_plain)          # the plain-numpy fast path
        assert np.array_equal(fused_plain, value_of(UNFUSED[op](arrays, variant)))
        taped = FUSED[op]({k: Var(np.array(v, dtype=float)) for k, v in arrays.items()},
                          variant)
        assert ad.is_var(taped) and taped.name == op
        assert np.array_equal(value_of(taped), fused_plain)

    @pytest.mark.parametrize("op", ("tempered", "leaky"))
    @pytest.mark.parametrize("taped", (False, True), ids=("plain", "tape"))
    def test_each_group_equals_the_2d_call(self, op, taped):
        variant = {"alpha": ALPHA, "stacked": True}
        arrays = make_inputs(op, variant, seed=5)
        stacked = value_of(FUSED[op]({k: Var(np.array(v, dtype=float)) if taped else v
                                      for k, v in arrays.items()}, variant))
        for k in range(stacked.shape[0]):
            if op == "tempered":
                alone = _tempered(arrays["u"][k], arrays["tau"])
            else:
                alone = _leaky(arrays["phi"][k], arrays["omega"][k], float(ETAS[k, 0]), ALPHA)
            assert np.array_equal(stacked[k], alone), k

    def test_transposed_reads_the_other_axis(self):
        arrays = make_inputs("info_nce", {"tau": "scalar"})
        for pos in (False, True):
            t, _ = _nce(arrays["d"], arrays["tau"], pos, True)
            assert t == pytest.approx(_nce(arrays["d"].T.copy(), arrays["tau"], pos, False)[0],
                                      rel=1e-14)


class TestFusedLossAdjoints:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_matches_finite_differences(self, case):
        op, variant = case
        arrays = make_inputs(op, variant)
        live = _live(op, arrays)
        weights = _weights(op, variant, arrays)
        tape = tape_adjoints(op, variant, FUSED[op], arrays, live, weights)
        fd = fd_adjoints(op, variant, arrays, live, weights)
        for k in live:
            assert np.shape(tape[k]) == np.shape(arrays[k]), k
            np.testing.assert_allclose(tape[k], fd[k], rtol=1e-6, atol=1e-7, err_msg=k)

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_matches_unfused_composition(self, case):
        op, variant = case
        arrays = make_inputs(op, variant, seed=4)
        live = list(arrays)
        weights = _weights(op, variant, arrays)
        fused = tape_adjoints(op, variant, FUSED[op], arrays, live, weights)
        unfused = tape_adjoints(op, variant, UNFUSED[op], arrays, live, weights)
        for k in live:
            np.testing.assert_array_equal(fused[k], unfused[k], err_msg=k)

    @pytest.mark.parametrize("flags", [{}, {"include_positive": True},
                                       {"entropy_sign": -1.0, "uncertainty_from_radius": True}],
                             ids=("default", "include_positive", "radius_flipped_entropy"))
    def test_step_gradients_within_rounding_of_unfused(self, flags):
        # the stacked nodes keep the forward arithmetic, so the total and
        # every component are bit-identical; they sum the adjoints of kappa
        # and of the shared lifted groups in another order, so the gradients
        # agree to the rounding of a reordered float64 sum: within 1e-12 of
        # the largest entry of each gradient
        store, idx, cfg = build_check_problem(3)
        cfg = loss_config_with_vars(LossConfig(**flags), store)
        params = store.as_dict()
        m = Manifold(store["kappa"])
        fused = total_loss(materialize_batch(store, idx), cfg, m)
        total, components = unfused_total_loss(unfused_materialize_batch(store, idx), cfg, m)
        assert value_of(fused.total) == value_of(total)
        for name in COMPONENTS:
            assert value_of(fused.components[name]) == value_of(components[name]), name
        g_fused, g_unfused = ad.gradients(fused.total, params), ad.gradients(total, params)
        for name in params:
            scale = np.max(np.abs(g_unfused[name]))
            np.testing.assert_allclose(g_fused[name], g_unfused[name], rtol=0.0,
                                       atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("flags", [{}, {"include_positive": True},
                                       {"entropy_sign": -1.0, "uncertainty_from_radius": True}],
                             ids=("default", "include_positive", "radius_flipped_entropy"))
    @pytest.mark.parametrize("b,n", [(32, 16), (256, 64)])
    def test_step_bitwise_equal_to_parent_graph(self, b, n, flags):
        # one node per report component gives the graph with two nodes and
        # an add per contrastive and calibration component every bit: the
        # total, each component, and every parameter's gradient
        rng = np.random.default_rng(b + n)
        store = random_store(rng, 2 * b, 4 * b, n, scale=0.3)
        idx = distinct_batch(rng, 2 * b, 2, b)
        cfg = loss_config_with_vars(TrainConfig(loss=LossConfig(**flags)).loss, store)
        params = store.as_dict()
        m = Manifold(store["kappa"])
        report = total_loss(materialize_batch(store, idx), cfg, m)
        total, components = parent_graph_total_loss(materialize_batch(store, idx), cfg, m)
        np.testing.assert_array_equal(value_of(report.total), value_of(total))
        for name in COMPONENTS:
            np.testing.assert_array_equal(value_of(report.components[name]),
                                          value_of(components[name]), err_msg=name)
        got, want = ad.gradients(report.total, params), ad.gradients(total, params)
        for name in params:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_shared_uncertainty_adjoint_summed_in_composition_order(self, seed):
        # as in a training step, u feeds the tempered temperatures and
        # calibration, and the temperatures' adjoint reaches u first; the
        # three calibration terms must follow it one at a time
        rng = np.random.default_rng(seed)
        u0, leak = rng.uniform(0.05, np.log(2.0), size=32), rng.uniform(0.0, 2.0, size=32)
        weights = rng.normal(size=32)
        grads = []
        for tempered, calibrate in ((_tempered, _calibrate),
                                    (unfused_tempered, unfused_calibrate)):
            u = Var(u0.copy(), name="u")
            root = ref.add(ref.reduce_sum(ref.mul(tempered(u, 0.06), weights)),
                          calibrate(u, leak, 1.0))
            grads.append(ad.gradients(root, {"u": u})["u"])
        np.testing.assert_array_equal(*grads)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_no_adjoint_reaches_the_stopped_leak(self, sign):
        arrays = make_inputs("calibration", {"sign": sign})
        phi = Var(arrays["leak"], name="phi")
        omega = Var(np.full(5, 0.4), name="omega")
        u = Var(arrays["u"], name="u")
        root = _calibrate(u, _leaky(phi, omega, ETA, ALPHA), sign)
        g = ad.gradients(root, {"phi": phi, "omega": omega, "u": u})
        assert np.all(g["phi"] == 0.0) and np.all(g["omega"] == 0.0)
        assert np.max(np.abs(g["u"])) > 0.0

    def test_gather_accumulates_duplicates(self):
        # repeated rows within a group, and one table and scale read by two
        t = Var(np.arange(12, dtype=float).reshape(4, 3))
        scale = Var(np.array(2.0))
        rows = [np.array([0, 2, 2, 2]), np.array([1, 2, 3, 3])]
        out = ref.reduce_sum(_gather_scaled([(t, rows[0], scale), (t, rows[1], scale)]))
        g = ad.gradients(out, {"t": t, "scale": scale})
        np.testing.assert_array_equal(g["t"][:, 0], [2.0, 2.0, 8.0, 4.0])
        assert g["scale"] == np.sum(t.value[rows[0]]) + np.sum(t.value[rows[1]])

    @pytest.mark.parametrize("alpha", (ALPHA, 0.0))
    def test_hinge_boundary_takes_subgradient_zero(self, alpha):
        omega = Var(np.array([0.3, 0.5, 0.9]), name="omega")
        phi = Var(ETA * omega.value, name="phi")     # excess exactly 0
        leak = _leaky(phi, omega, ETA, alpha)
        np.testing.assert_array_equal(value_of(leak), alpha * phi.value)
        g = ad.gradients(ref.reduce_sum(leak), {"phi": phi, "omega": omega})
        np.testing.assert_array_equal(g["phi"], np.full(3, alpha))
        np.testing.assert_array_equal(g["omega"], np.zeros(3))


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    eta=st.sampled_from((0.7, 1.2)),
    alpha=st.floats(0.0, 0.5),
    delta=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)),
)
def test_leaky_within_1e6_of_the_hinge(seed, rows, eta, alpha, delta):
    """Within 1e-6 of the hinge boundary the fused leaky term matches the
    composition bit for bit and takes the one-sided derivative of the side
    its computed excess lies on, the subgradient 0 at the boundary."""
    omega = np.random.default_rng(seed).uniform(0.05, 1.5, size=rows)
    phi = eta * omega + delta
    excess = phi - eta * omega
    assert np.all(np.abs(excess) <= 1e-6 + 1e-15)
    pv, ov = Var(phi, name="phi"), Var(omega, name="omega")
    leak = _leaky(pv, ov, eta, alpha)
    assert np.array_equal(value_of(leak), value_of(unfused_leaky(phi, omega, eta, alpha)))
    assert np.array_equal(value_of(leak), np.maximum(excess, 0.0) + alpha * phi)
    g = ad.gradients(ref.reduce_sum(leak), {"phi": pv, "omega": ov})
    active = (excess > 0.0).astype(float)
    np.testing.assert_array_equal(g["phi"], active + alpha)
    np.testing.assert_array_equal(g["omega"], -eta * active)
