"""Independent oracles for the test suite.

Everything here is written directly from the loss/geometry formulas as
plain-Python straight-line code (math module, explicit loops) so it shares
no code path with the package implementation.  The general-base-point
exp/log maps used by the geometry oracles are numpy helpers, and so are the
earlier formulations of rewritten evaluation code, which the package must
still match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# scalar geometry
# ---------------------------------------------------------------------------

def inner_scalar(p, q):
    """Lorentz inner product of (time, space-list) pairs."""
    (pt, ps), (qt, qs) = p, q
    return -pt * qt + sum(a * b for a, b in zip(ps, qs))


def lift_scalar(v, kappa):
    """Origin exp map of a space-only tangent vector (list)."""
    norm = math.sqrt(sum(x * x for x in v))
    r = math.sqrt(kappa) * norm
    time = math.cosh(r) / math.sqrt(kappa)
    if norm == 0.0:
        return time, [0.0 for _ in v]
    scale = math.sinh(r) / r
    return time, [scale * x for x in v]


def distance_scalar(p, q, kappa):
    z = -kappa * inner_scalar(p, q)
    return math.acosh(max(z, 1.0)) / math.sqrt(kappa)


def radius_formula_scalar(v, kappa):
    norm_sq = sum(x * x for x in v)
    return math.acosh(math.sqrt(1.0 + kappa * norm_sq)) / math.sqrt(kappa)


def uncertainty_scalar(v):
    norm = math.sqrt(sum(x * x for x in v))
    return math.log1p(math.exp(-norm))


def aperture_scalar(p, k_const, kappa):
    space_norm = math.sqrt(sum(x * x for x in p[1]))
    arg = 2.0 * k_const / (math.sqrt(kappa) * space_norm)
    return math.asin(min(max(arg, 0.0), 1.0))


def exterior_angle_scalar(p, q, kappa):
    (pt, ps), (qt, _) = p, q
    beta = kappa * inner_scalar(p, q)
    num = qt + pt * beta
    den = math.sqrt(sum(x * x for x in ps)) * math.sqrt(beta * beta - 1.0)
    return math.acos(min(max(num / den, -1.0), 1.0))


def leaky_scalar(p, q, eta, k_const, alpha, kappa):
    phi = exterior_angle_scalar(p, q, kappa)
    omega = aperture_scalar(p, k_const, kappa)
    return max(0.0, phi - eta * omega) + alpha * phi


# ---------------------------------------------------------------------------
# scalar losses (lists of tangent lists; one row per batch element)
# ---------------------------------------------------------------------------

def contrastive_scalar(anchors, targets, taus, kappa, include_positive=False):
    b = len(anchors)
    lifted_a = [lift_scalar(v, kappa) for v in anchors]
    lifted_t = [lift_scalar(v, kappa) for v in targets]
    total = 0.0
    for i in range(b):
        tau_i = taus[i] if isinstance(taus, (list, tuple)) else taus
        pos = math.exp(-distance_scalar(lifted_a[i], lifted_t[i], kappa) / tau_i)
        denom = 0.0
        for k in range(b):
            if k == i and not include_positive:
                continue
            denom += math.exp(-distance_scalar(lifted_a[i], lifted_t[k], kappa) / tau_i)
        total += -math.log(pos / denom)
    return total


def adaptive_taus_scalar(parts, tau_gl):
    return [math.exp(uncertainty_scalar(v) / 2.0) * tau_gl for v in parts]


def contrastive_total_scalar(wi, wt, pi, pt, tau_g, tau_l, tau_gl, kappa):
    tau_img = adaptive_taus_scalar(pi, tau_gl)
    tau_txt = adaptive_taus_scalar(pt, tau_gl)
    return (
        contrastive_scalar(pi, wt, tau_img, kappa)
        + contrastive_scalar(pt, wi, tau_txt, kappa)
        + contrastive_scalar(wi, wt, tau_g, kappa)
        + contrastive_scalar(wt, wi, tau_g, kappa)
        + contrastive_scalar(pi, pt, tau_l, kappa)
        + contrastive_scalar(pt, pi, tau_l, kappa)
    )


def calibration_scalar(parts, wholes, eta, k_const, alpha, kappa, sign=1.0):
    b = len(parts)
    us = [uncertainty_scalar(v) for v in parts]
    total = 0.0
    for i in range(b):
        leak = leaky_scalar(lift_scalar(parts[i], kappa),
                            lift_scalar(wholes[i], kappa),
                            eta, k_const, alpha, kappa)
        total += leak * math.exp(-us[i]) + us[i]
    z = sum(math.exp(u) for u in us)
    weights = [math.exp(u) / z for u in us]
    entropy = -sum(w * math.log(w) for w in weights if w > 0.0)
    return total + sign * entropy


def entailment_total_scalar(wi, wt, pi, pt, eta_inter, eta_intra, k_const,
                            alpha, lam1, lam2, kappa, sign=1.0):
    b = len(wi)
    lift = lambda v: lift_scalar(v, kappa)
    inter = sum(
        leaky_scalar(lift(pt[i]), lift(pi[i]), eta_inter, k_const, alpha, kappa)
        + leaky_scalar(lift(wt[i]), lift(wi[i]), eta_inter, k_const, alpha, kappa)
        for i in range(b)
    )
    intra = sum(
        leaky_scalar(lift(pt[i]), lift(wt[i]), eta_intra, k_const, alpha, kappa)
        + leaky_scalar(lift(pi[i]), lift(wi[i]), eta_intra, k_const, alpha, kappa)
        for i in range(b)
    )
    cal = (calibration_scalar(pt, wt, eta_intra, k_const, alpha, kappa, sign)
           + calibration_scalar(pi, wi, eta_intra, k_const, alpha, kappa, sign))
    return inter + lam1 * intra + lam2 * cal


def total_loss_scalar(wi, wt, pi, pt, *, tau_g, tau_l, tau_gl, eta_inter,
                      eta_intra, k_const, alpha, lam1, lam2, lam_ent, kappa,
                      sign=1.0):
    return contrastive_total_scalar(wi, wt, pi, pt, tau_g, tau_l, tau_gl, kappa) \
        + lam_ent * entailment_total_scalar(wi, wt, pi, pt, eta_inter, eta_intra,
                                            k_const, alpha, lam1, lam2, kappa, sign)


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

def mmd_scalar(a, b):
    """Unbiased Gaussian-kernel MMD of two 1-D samples, with the bandwidth
    the median pairwise distance of the pooled sample (1.0 if that is 0)."""
    pooled = list(a) + list(b)
    gaps = sorted(abs(pooled[i] - pooled[j])
                  for i in range(len(pooled)) for j in range(i + 1, len(pooled)))
    half = len(gaps) // 2
    sigma = gaps[half] if len(gaps) % 2 else (gaps[half - 1] + gaps[half]) / 2.0
    if sigma <= 0.0:
        sigma = 1.0

    def k(x, y):
        return math.exp(-((x - y) ** 2) / (2.0 * sigma * sigma))

    def within(xs):
        n = len(xs)
        if n < 2:
            return 0.0
        return sum(k(xs[i], xs[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))

    cross = sum(k(x, y) for x in a for y in b) / (len(a) * len(b))
    return math.sqrt(max(0.0, within(list(a)) + within(list(b)) - 2.0 * cross))


# ---------------------------------------------------------------------------
# earlier numpy formulations, kept as bit-exact references
# ---------------------------------------------------------------------------

def median_pairwise_gap_reference(x):
    """The MMD bandwidth as first written: the median over every pairwise
    distance, all of them listed."""
    from scipy.spatial.distance import pdist
    return float(np.median(pdist(np.asarray(x, dtype=np.float64)[:, None], "cityblock")))


def distribution_distances_reference(a, b):
    """(W1, W2, MMD) as first written: the quantile grid by index
    arithmetic over ``arange(m n)`` and the bandwidth over every pair."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    m_n, n_n = a.size, b.size
    k = np.arange(m_n * n_n)
    diff = a[k // n_n] - b[k // m_n]
    w1 = float(np.mean(np.abs(diff)))
    w2 = float(np.sqrt(np.mean(diff * diff)))
    sigma = median_pairwise_gap_reference(np.concatenate([a, b]))
    if sigma <= 0.0:
        sigma = 1.0

    def kernel_sum(x, y):
        d = np.subtract.outer(x, y)
        d *= d
        d /= -2.0 * sigma * sigma
        np.exp(d, out=d)
        return d.sum()

    term_a = (kernel_sum(a, a) - m_n) / (m_n * (m_n - 1)) if m_n > 1 else 0.0
    term_b = (kernel_sum(b, b) - n_n) / (n_n * (n_n - 1)) if n_n > 1 else 0.0
    mmd_sq = term_a + term_b - 2.0 * kernel_sum(a, b) / (m_n * n_n)
    return w1, w2, float(np.sqrt(max(0.0, mmd_sq)))


def recalls_reference(sims, truth_map, ks):
    """Recall at each of ``ks`` read off a stable argsort of every row by
    descending similarity (ties toward the lower gallery index)."""
    order = np.argsort(-np.asarray(sims), axis=1, kind="stable")
    truths = [truth_map.get(qi, set()) for qi in range(order.shape[0])]
    return [sum(1 for truth, top in zip(truths, order)
                if not set(truth).isdisjoint(top[:k].tolist())) / len(truths)
            for k in ks]


def export_csv_reference(path, rows):
    """An export CSV as ``csv.writer`` writes it: a header, then per row
    the id, view and level strings followed by the repr of each float."""
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else repr(float(cell))
                             for cell in row])


def generate_reference(**settings):
    """``synthdata.generate`` as first written: each candidate scene is
    compared with every placed scene by one 1-D ``np.linalg.norm`` apiece."""
    from hypalign.errors import GenerationError
    from hypalign.synthdata import _MAX_REJECTS, Corpus, GeneratorParams
    p = GeneratorParams(**settings)
    rng = np.random.default_rng(p.seed)

    scene_latents = []
    rejects = 0
    while len(scene_latents) < p.num_scenes:
        cand = rng.normal(size=p.latent_dim)
        cand /= np.linalg.norm(cand)
        if scene_latents:
            dmin = min(np.linalg.norm(cand - z) for z in scene_latents)
            if dmin < p.min_separation:
                rejects += 1
                if rejects > _MAX_REJECTS:
                    raise GenerationError(
                        f"could not place {p.num_scenes} scenes at separation "
                        f">= {p.min_separation} after {_MAX_REJECTS} rejections"
                    )
                continue
        scene_latents.append(cand)

    def views(latent):
        img = latent + p.noise_scale * rng.normal(size=p.latent_dim)
        txt = latent + p.noise_scale * rng.normal(size=p.latent_dim)
        return img, txt

    ids = {"scene": [], "part": []}
    rows = {(level, view): [] for level in ids for view in ("latent", "image", "text")}
    parent_rows, reps = [], []
    for si, z in enumerate(scene_latents):
        sid = f"s{si:03d}"
        img, txt = views(z)
        ids["scene"].append(sid)
        for view, row in zip(("latent", "image", "text"), (z, img, txt)):
            rows["scene", view].append(row)
        for pi in range(p.parts_per_scene):
            rep = float(rng.uniform(0.2, 1.0))
            direction = rng.normal(size=p.latent_dim)
            direction -= (direction @ z) * z
            direction /= np.linalg.norm(direction)
            latent = z + (1.0 - rep) * p.spread * direction
            img, txt = views(latent)
            ids["part"].append(f"{sid}.p{pi}")
            parent_rows.append(si)
            reps.append(rep)
            for view, row in zip(("latent", "image", "text"), (latent, img, txt)):
                rows["part", view].append(row)
    return Corpus(params=p, ids=ids, views={key: np.stack(r) for key, r in rows.items()},
                  parent_rows=np.array(parent_rows, dtype=np.intp),
                  representativeness=np.array(reps))


# ---------------------------------------------------------------------------
# the train step as first written (per-parameter AdamW, whole-stack pick
# adjoints, the info_nce kernel, the scatter-add gather), kept as bit-exact
# references
# ---------------------------------------------------------------------------

def adamw_step_reference(values, m, v, t, grads, lr, cfg, decay_exclude):
    """One AdamW update per parameter as first written, rebinding each
    entry of the dicts ``values``, ``m`` and ``v``; ``t`` counts this
    update."""
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, value in values.items():
        g = grads[name]
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.adam_eps)
        if name not in decay_exclude:
            update = update + cfg.weight_decay * value
        values[name] = value - lr * update


def fused_reference(value, name, inputs, vjp):
    """``autodiff.fused`` as first written: a node reading picks of a base
    returns a zero array of the whole stack with each pick added into its
    groups."""
    from hypalign import autodiff as ad
    import _reference_ops as ref

    live, aligned = False, True
    for x in inputs:
        if isinstance(x, ad.Var):
            live = True
            aligned = aligned and x.value.shape == value.shape
        else:
            aligned = False
            live = live or isinstance(x, ad.Pick)
    if not live:
        return value
    if aligned:
        return ad.Var(value, name, inputs, vjp)
    parents, routes, bases = [], [], {}
    for i, x in enumerate(inputs):
        if isinstance(x, ad.Var):
            routes.append((i, len(parents), None))
            parents.append(x)
        elif isinstance(x, ad.Pick):
            k = bases.get(id(x.base))
            if k is None:
                k = bases[id(x.base)] = len(parents)
                parents.append(x.base)
            routes.append((i, k, x.index))
    shapes = [p.value.shape for p in parents]

    def node_vjp(g):
        adj = vjp(g)
        out = [None] * len(parents)
        for i, k, index in routes:
            a = adj[i]
            if index is None:
                out[k] = a if a.shape == shapes[k] else ref.unbroadcast(a, shapes[k])
                continue
            acc = out[k]
            if acc is None:
                acc = out[k] = np.zeros(shapes[k])
            if isinstance(index, int):
                acc[index] += a
            else:
                for j, group in enumerate(index):
                    acc[group] += a[j]
        return out

    return ad.Var(value, name, tuple(parents), node_vjp)


def sweep_reference(root):
    """The reverse sweep as first written, over a graph of
    :func:`fused_reference` nodes: every node's adjoint kept, each
    contribution summed out of place."""
    from hypalign import autodiff as ad

    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(ad._toposort(root)):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def info_nce_reference(dv, tv, include_positive, transposed=False):
    """``losses._nce`` as first written: the loss and its VJP
    ``g -> (distances' adjoint, tau's adjoint)``."""
    d = dv.T if transposed else dv
    b = d.shape[0]
    t = tv.reshape(b, 1) if tv.ndim == 1 else tv
    neg_d = -d
    logits = neg_d / t
    positives = np.diagonal(logits)
    if include_positive:
        x = logits
    else:
        mask = np.zeros((b, b))
        np.fill_diagonal(mask, -np.inf)
        x = logits + mask
    top = np.max(x, axis=1, keepdims=True)
    e = np.exp(x - top)
    total = np.sum(e, axis=1, keepdims=True)
    denom = np.squeeze(top, axis=1) + np.log(np.squeeze(total, axis=1))

    def vjp(g):
        rows = np.arange(b)
        g_rows = np.full(b, g)
        one_hot = np.zeros((b, b))
        one_hot[rows, rows] = -g_rows
        g_logits = g_rows[:, None] * (e / total) + one_hot
        g_t = -g_logits * neg_d / (t * t)
        d_adj = -(g_logits / t)
        return (d_adj.T if transposed else d_adj,
                g_t.sum(axis=1) if tv.ndim else g_t.sum(axis=(0, 1)))

    return np.sum(denom - positives), vjp


def gather_vjp_reference(tv, rows, cv, g):
    """The adjoints of ``scale * table[rows]`` as first written: the table's
    by scatter-add, the scale's as a sum."""
    acc = np.zeros(tv.shape)
    np.add.at(acc, rows, g * cv)
    return acc, np.sum(g * tv[rows])


# ---------------------------------------------------------------------------
# general-base-point maps (numpy; geometry oracles and pair construction)
# ---------------------------------------------------------------------------

def _linner(a, b):
    return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def general_log(z, p, kappa):
    """Log map at an arbitrary base point, projection form."""
    ip = _linner(z, p)
    beta = kappa * ip
    proj = p + (kappa * ip)[..., None] * z
    coef = np.arccosh(np.clip(-beta, 1.0, None)) / np.sqrt(beta * beta - 1.0)
    return coef[..., None] * proj


def general_exp(z, v, kappa):
    """Exp map at an arbitrary base point for spacelike tangent ``v``."""
    norm = np.sqrt(_linner(v, v))
    r = np.sqrt(kappa) * norm
    return np.cosh(r)[..., None] * z + (np.sinh(r) / r)[..., None] * v


def exterior_angle_oracle(p_vecs, q_vecs, kappa):
    """Angle between the outward radial direction and the geodesic toward
    ``q``, via log maps under the Riemannian metric at ``p``."""
    n = p_vecs.shape[-1] - 1
    origin = np.zeros(n + 1)
    origin[0] = 1.0 / np.sqrt(kappa)
    origin = np.broadcast_to(origin, p_vecs.shape)
    u = general_log(p_vecs, q_vecs, kappa)
    w = -general_log(p_vecs, origin, kappa)
    cosang = _linner(u, w) / (np.sqrt(_linner(u, u)) * np.sqrt(_linner(w, w)))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def point_to_vec(point):
    """LorentzPoint -> raw (..., n+1) numpy array."""
    from hypalign.autodiff import value_of

    t = np.atleast_1d(value_of(point.time))
    s = value_of(point.space)
    if s.ndim == 1:
        return np.concatenate([t, s])
    return np.concatenate([t[:, None], s], axis=1)


def construct_pair_with_angle(v_apex, phi, t_len, kappa, direction_seed=0):
    """Build a tangent vector ``v_member`` whose lift sits at exterior angle
    exactly ``phi`` from the lift of ``v_apex`` (geodesic construction)."""
    n = len(v_apex)
    p = np.zeros(n + 1)
    time, space = lift_scalar(list(v_apex), kappa)
    p[0] = time
    p[1:] = space
    origin = np.zeros(n + 1)
    origin[0] = 1.0 / np.sqrt(kappa)
    e_out = -general_log(p, origin, kappa)
    e_out = e_out / np.sqrt(_linner(e_out, e_out))
    rng = np.random.default_rng(direction_seed)
    raw = rng.normal(size=n + 1)
    tangent = raw + kappa * _linner(p, raw) * p          # project to T_p
    tangent = tangent - _linner(tangent, e_out) * e_out  # orthogonal to e_out
    e_perp = tangent / np.sqrt(_linner(tangent, tangent))
    direction = math.cos(phi) * e_out + math.sin(phi) * e_perp
    q = general_exp(p, t_len * direction, kappa)
    # back to the tangent parameterization via the origin log map
    beta = kappa * _linner(origin, q)
    coef = np.arccosh(np.clip(-beta, 1.0, None)) / np.sqrt(beta * beta - 1.0)
    proj = q + (kappa * _linner(origin, q)) * origin
    return coef * proj[1:]
