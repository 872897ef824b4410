"""Training objectives: contrastive alignment, cone entailment, and
uncertainty calibration.

A batch carries four aligned groups of tangent embeddings (whole image,
whole text, part image, part text).  The contrastive terms use the negative
geodesic distance as similarity, with the positive pair excluded from the
denominator; the global-local terms scale each anchor row's temperature by
``exp(u/2)`` of its part's uncertainty, so less certain parts contribute
more softly.  Entailment terms hinge on the exterior angle exceeding the
scaled cone aperture, with a leaky angular term that keeps a gradient
inside the cone; the calibration term re-weights the (stop-gradient)
entailment violation by ``exp(-u)`` and regularizes the batch uncertainty
profile with an entropy term.

The batch objective builds one graph over stacked groups.  The four groups
are stacked along a leading group axis and lifted once, as one stack; the
two part groups are stacked once more for their uncertainty, which feeds
both their temperatures and their calibration.  The four entailment terms
form one stack of apex/member pairs read out of the lifted stack, so the
exterior angle, the aperture and the leaky term are one node each over all
four terms, and calibration re-weights the intra-modal leaks that stack
already holds.  Each distance matrix reads its two groups out of the lifted
stack and stays its own node, and the global and local terms read their
matrix along both axes; the ``(B, B)`` matrices and their adjoints are
never stacked, which keeps them in cache at large batch sizes.  The
per-term functions build their own inputs, for direct use; gradient
checking (``gradcheck``) verifies the report's components and total as
roots of the one graph ``total_loss`` builds, the graph training
differentiates.

Each loss block is one tape node with a hand-derived vector-Jacobian
product, built through ``autodiff.fused`` on top of the fused geometry:
``info_nce`` (one contrastive direction, reading its distance matrix along
either axis), ``tempered`` (the per-row temperatures of both part groups),
``leaky`` (the per-row leaks of all four entailment terms), ``sum_pair`` (a
block's two row sums), ``calibration`` (one part group, behind its own
``stop_gradient`` node) and ``weighted_total``.  Each node keeps the
arithmetic of the op-by-op composition it replaced, so the forward values
are bit-identical to the composition's (kept in
``tests/test_fused_loss_ops.py`` as the reference); the stacked nodes sum
shared adjoints in their own order, so gradients agree with it to rounding.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .entailment import ConeParams, aperture, exterior_angle
from .errors import ContractViolationError
from .manifold import LorentzPoint, Manifold, lift, pairwise_distance
from .uncertainty import (
    entropy,
    normalize_uncertainty,
    uncertainty,
    uncertainty_from_radius,
)


@dataclass(frozen=True)
class TemperatureSet:
    """Logit scales for the global, local, and global-local contrastive
    terms; each is clamped to >= 0.01 by the trainer."""

    tau_global: object = 0.07
    tau_local: object = 0.07
    tau_global_local: object = 0.06

    def __post_init__(self):
        for f in fields(self):
            if float(value_of(getattr(self, f.name))) < 0.01:
                raise ContractViolationError(f"{f.name} below the 0.01 floor")


@dataclass(frozen=True)
class LossConfig:
    """Every scalar hyperparameter of the full objective."""

    temps: TemperatureSet = field(default_factory=TemperatureSet)
    cone: ConeParams = field(default_factory=ConeParams)
    alpha: float = 0.1            # leak coefficient on the angular term
    lambda_intra: float = 0.5     # weight of intra-modal entailment
    lambda_cal: float = 10.0      # weight of the calibration terms
    lambda_ent: float = 0.2       # weight of the whole entailment block
    entropy_sign: float = 1.0     # +1 adds the entropy term as printed
    include_positive: bool = False       # include the positive pair in the contrastive denominator
    uncertainty_from_radius: bool = False  # explicit-radius uncertainty ablation

    def __post_init__(self):
        if self.entropy_sign not in (1.0, -1.0):
            raise ContractViolationError("entropy_sign must be +1 or -1")
        if self.alpha < 0:
            raise ContractViolationError("alpha must be nonnegative")


# the batch layout, in the order the groups are stacked and lifted: each
# group's embedding table and modality scale (parameter names), the level of
# its concepts ("scene" or "part": which batch rows index the table) and
# their modality ("image" or "text" view)
GroupSource = namedtuple("GroupSource", "table scale level modality")
LAYOUT = {
    "whole_image": GroupSource("table_scene_img", "c_img", "scene", "image"),
    "whole_text": GroupSource("table_scene_txt", "c_txt", "scene", "text"),
    "part_image": GroupSource("table_part_img", "c_img", "part", "image"),
    "part_text": GroupSource("table_part_txt", "c_txt", "part", "text"),
}
GROUPS = tuple(LAYOUT)
SCALES = tuple(dict.fromkeys(src.scale for src in LAYOUT.values()))
MODALITIES = tuple(dict.fromkeys(src.modality for src in LAYOUT.values()))


@dataclass(frozen=True)
class Batch:
    """Aligned quadruple of tangent-embedding groups, ``(B, n)`` each; row
    ``i`` of the parts belongs to row ``i`` of the wholes."""

    whole_image: object
    whole_text: object
    part_image: object
    part_text: object

    def __post_init__(self):
        shapes = {name: value_of(getattr(self, name)).shape for name in GROUPS}
        if len(set(shapes.values())) != 1:
            raise ContractViolationError(f"batch group shapes differ: {shapes}")
        b = shapes[GROUPS[0]][0]
        if b < 2:
            raise ContractViolationError("batch size must be >= 2")
        for name in shapes:
            if not np.all(np.isfinite(value_of(getattr(self, name)))):
                raise ContractViolationError(f"non-finite entries in {name}")


@dataclass
class LossReport:
    """Scalar total plus its named decomposition.

    The components are stored unweighted; the total recombines them as
    ``(c_glob + c_loc + c_globloc)
    + lambda_ent * (e_inter + lambda_intra * e_intra + lambda_cal * cal)``.
    """

    total: object
    components: dict

    def to_floats(self) -> dict[str, float]:
        out = {"total": float(value_of(self.total))}
        for name, v in self.components.items():
            out[name] = float(value_of(v))
        return out


def _uncertainty(x, m: Manifold, use_radius: bool):
    return uncertainty_from_radius(x, m) if use_radius else uncertainty(x)


def _info_nce(dists, tau, include_positive: bool, transposed: bool = False):
    """Contrastive loss over a ``(B, B)`` distance matrix whose diagonal
    holds the positive pairs, as one tape node; ``transposed`` reads the
    matrix's columns as the anchor rows.

    ``tau`` is a scalar or a per-anchor-row vector.  Per row, the adjoint of
    the logits ``-d/tau`` is the softmax over its denominator minus the
    one-hot of its positive; the distances' adjoint is that over ``-tau``.
    """
    dv, tv = value_of(dists), value_of(tau)
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
        g_logits = g_rows[:, None] * (e / total) + one_hot    # softmax - one-hot
        g_t = -g_logits * neg_d / (t * t)
        d_adj = -(g_logits / t)
        return (d_adj.T if transposed else d_adj,
                g_t.sum(axis=1) if tv.ndim else g_t.sum(axis=(0, 1)))

    return ad.fused(np.sum(denom - positives), "info_nce", (dists, tau), vjp)


def contrastive(anchors, targets, tau, m: Manifold, *, include_positive: bool = False):
    """InfoNCE-style loss with geodesic-distance similarity.

    ``-sum_i log[ exp(-d(a_i, t_i)/tau_i) / sum_{k != i} exp(-d(a_i, t_k)/tau_i) ]``

    ``tau`` is a positive scalar or a per-anchor-row vector; row ``i``'s
    temperature divides its whole logit row.  As written the denominator
    runs over negatives only; ``include_positive`` switches to the standard
    full-batch denominator.
    """
    b = value_of(anchors).shape[0]
    if b < 2 or value_of(targets).shape[0] != b:
        raise ContractViolationError("contrastive needs aligned batches of size >= 2")
    dists = pairwise_distance(lift(anchors, m), lift(targets, m), m)
    return _info_nce(dists, tau, include_positive)


def _tempered(u, tau_global_local):
    """``exp(u/2) * tau_gl`` per row (of one group or a stack), one tape
    node."""
    half = np.exp(value_of(u) / 2.0)
    tau = value_of(tau_global_local)
    out = half * tau
    return ad.fused(out, "tempered", (u, tau_global_local),
                    lambda g: (g * tau * half / 2.0, np.sum(g * half)))


def adaptive_temperatures(parts, tau_global_local):
    """Per-row temperatures ``exp(u(part_i)/2) * tau_gl``.

    Uncertainty lies in (0, ln 2], so every entry falls in
    ``[tau_gl, sqrt(2) tau_gl]``: uncertain parts get softer logits.
    """
    return _tempered(uncertainty(parts), tau_global_local)


def entail_hinge(p: LorentzPoint, q: LorentzPoint, eta: float, cp: ConeParams,
                 m: Manifold):
    """``max(0, phi(p, q) - eta * aperture(p))`` per pair; zero exactly when
    ``q`` lies inside ``p``'s scaled cone."""
    return _leaky(exterior_angle(p, q, m), aperture(p, cp.aperture_k, m), eta, 0.0)


def _leaky(phi, omega, eta, alpha: float):
    """``max(0, phi - eta * omega) + alpha * phi`` per row, one tape node;
    the hinge takes the subgradient 0 at its boundary.  ``eta`` is a scalar,
    or for a stack of terms ``(G, B)`` a column ``(G, 1)`` of one scaling
    per term."""
    eta, alpha = np.asarray(eta, dtype=np.float64), float(alpha)
    pv = value_of(phi)
    excess = pv - eta * value_of(omega)

    def vjp(g):
        active = g * (excess > 0.0)
        return (-eta * active, active + alpha * g)

    # listed so that the sweep reaches phi's graph before omega's, as the
    # op-by-op composition did
    return ad.fused(np.maximum(excess, 0.0) + alpha * pv, "leaky", (omega, phi), vjp)


def entail_leaky(p: LorentzPoint, q: LorentzPoint, eta: float, cp: ConeParams,
                 alpha: float, m: Manifold):
    """Hinge plus a leaky angular term ``alpha * phi`` that keeps pulling
    ``q`` toward ``p``'s axis even inside the cone."""
    return _leaky(exterior_angle(p, q, m), aperture(p, cp.aperture_k, m), eta, alpha)


def _calibrate(u, leak, entropy_sign: float):
    """``sum_i [sg(leak_i) exp(-u_i) + u_i] + sign * H(softmax(u))`` as one
    tape node over ``u`` and the stopped leak; the stop-gradient stays its
    own node, so record/replay sees it."""
    stopped = ad.stop_gradient(leak)
    uv, lv = value_of(u), value_of(stopped)
    sign = float(entropy_sign)
    decay = np.exp(-uv)
    w = normalize_uncertainty(uv)
    ent = entropy(w)

    def vjp(g):
        g_rows = np.full(uv.shape, g)
        # the entropy's adjoint reaches w through w and through log(w)
        g_ent = np.full(uv.shape, -(g * sign))
        g_w = g_ent * np.log(w) + g_ent * w * (1.0 / w)
        g_soft = w * (g_w - np.sum(g_w * w, axis=-1, keepdims=True))
        return (g_rows * decay, g_rows, -(g_rows * lv * decay), g_soft)

    # u's three adjoint terms (the core's two and the entropy's) go to the
    # sweep one at a time, which adds them to u's adjoint in that order
    return ad.fused(np.sum(lv * decay + uv) + sign * ent, "calibration",
                    (stopped, u, u, u), vjp)


def calibration(p_parts, q_wholes, eta: float, cp: ConeParams, alpha: float,
                m: Manifold, *, entropy_sign: float = 1.0):
    """Uncertainty-calibration loss over aligned part/whole rows.

    ``sum_i [ sg(leaky(p_i, q_i)) exp(-u(p_i)) + u(p_i) ]
    + sign * H(softmax(u))``

    The entailment factor is passed through a stop-gradient: it weights the
    uncertainty update but receives none itself.  The softmax normalizing
    the entropy term runs over this part group.
    """
    u = uncertainty(p_parts)
    leak = entail_leaky(lift(p_parts, m), lift(q_wholes, m), eta, cp, alpha, m)
    return _calibrate(u, leak, entropy_sign)


# ---------------------------------------------------------------------------
# the batch objective: one lifted state shared by every term
# ---------------------------------------------------------------------------

# the four groups' positions in the lifted stack (``GROUPS`` order), and the
# part groups' in the uncertainty stack
WHOLE_IMAGE, WHOLE_TEXT, PART_IMAGE, PART_TEXT = range(4)
U_IMAGE, U_TEXT = range(2)
# the four distance matrices (anchor group, target group): global, local,
# and global-local from each part group
DISTANCE_PAIRS = ((WHOLE_IMAGE, WHOLE_TEXT), (PART_IMAGE, PART_TEXT),
                  (PART_IMAGE, WHOLE_TEXT), (PART_TEXT, WHOLE_IMAGE))
GLOBAL, LOCAL, GLOBAL_LOCAL_IMAGE, GLOBAL_LOCAL_TEXT = range(4)
# the entailment terms, text entailing image and part entailing whole (the
# apex goes first): intra text, intra image, inter parts, inter wholes
APEXES = (PART_TEXT, PART_IMAGE, PART_TEXT, WHOLE_TEXT)
MEMBERS = (WHOLE_TEXT, WHOLE_IMAGE, PART_IMAGE, WHOLE_IMAGE)
INTRA_TEXT, INTRA_IMAGE, INTER_PARTS, INTER_WHOLES = range(4)


def entailment_etas(cone: ConeParams) -> np.ndarray:
    """The entailment terms' aperture scalings, a column against their stack."""
    return np.array([[cone.eta_intra], [cone.eta_intra], [cone.eta_inter], [cone.eta_inter]])


@dataclass(frozen=True)
class _Lifted:
    """A batch's four groups lifted once, as one stack along a leading group
    axis (``GROUPS`` order), and the part groups' uncertainty stack
    ``(2, B)`` (image, text)."""

    points: LorentzPoint
    u: object


def _lift_batch(batch: Batch, m: Manifold, use_radius: bool) -> _Lifted:
    points = lift(ad.stack([getattr(batch, g) for g in GROUPS]), m)
    parts = ad.stack([batch.part_image, batch.part_text])
    return _Lifted(points=points, u=_uncertainty(parts, m, use_radius))


def _contrastive_terms(s: _Lifted, temps: TemperatureSet, m: Manifold,
                       include_positive: bool) -> dict:
    """Global-local terms with uncertainty-tempered rows; the global and
    local terms read one distance matrix along both axes."""

    def nce(dists, tau, transposed=False):
        return _info_nce(dists, tau, include_positive, transposed)

    def dist(pair):
        # off the tape a matrix read by one term is freed once that term is
        # built, so at most three are alive at a time
        a, b = DISTANCE_PAIRS[pair]
        return pairwise_distance(s.points.groups(a), s.points.groups(b), m)

    d_glob = dist(GLOBAL)
    d_loc = dist(LOCAL)
    tau_rows = _tempered(s.u, temps.tau_global_local)
    return {
        "contrastive_globallocal": ad.add(
            nce(dist(GLOBAL_LOCAL_IMAGE), ad.pick(tau_rows, U_IMAGE)),
            nce(dist(GLOBAL_LOCAL_TEXT), ad.pick(tau_rows, U_TEXT)),
        ),
        "contrastive_global": ad.add(nce(d_glob, temps.tau_global),
                                     nce(d_glob, temps.tau_global, transposed=True)),
        "contrastive_local": ad.add(nce(d_loc, temps.tau_local),
                                    nce(d_loc, temps.tau_local, transposed=True)),
    }


def _sum_pair(a, b):
    """``sum(a) + sum(b)``, one tape node."""
    av, bv = value_of(a), value_of(b)
    return ad.fused(np.sum(av) + np.sum(bv), "sum_pair", (a, b),
                    lambda g: (np.full(av.shape, g), np.full(bv.shape, g)))


def _entailment_terms(s: _Lifted, cfg: LossConfig, m: Manifold) -> dict:
    """Inter and intra leaky entailment over the stack of the four terms;
    calibration re-weights the intra leaks it is handed (under a
    stop-gradient) rather than rebuilding them."""
    cone = cfg.cone
    apex = s.points.groups(APEXES)
    # the angle first: its origin guard fires before the aperture's
    phi = exterior_angle(apex, s.points.groups(MEMBERS), m)
    omega = aperture(apex, cone.aperture_k, m)
    leak = _leaky(phi, omega, entailment_etas(cone), cfg.alpha)

    def term(k):
        return ad.pick(leak, k)

    def calibrate(u, k):
        return _calibrate(ad.pick(s.u, u), term(k), cfg.entropy_sign)

    return {
        "entail_inter": _sum_pair(term(INTER_PARTS), term(INTER_WHOLES)),
        "entail_intra": _sum_pair(term(INTRA_TEXT), term(INTRA_IMAGE)),
        "calibration": ad.add(calibrate(U_TEXT, INTRA_TEXT),
                              calibrate(U_IMAGE, INTRA_IMAGE)),
    }


def _contrastive_sum(c: dict):
    return ad.add(ad.add(c["contrastive_globallocal"], c["contrastive_global"]),
                  c["contrastive_local"])


def _entailment_sum(e: dict, lambda_intra, lambda_cal):
    return ad.add(e["entail_inter"],
                  ad.add(ad.mul(lambda_intra, e["entail_intra"]),
                         ad.mul(lambda_cal, e["calibration"])))


def _weighted_total(c: dict, lambda_intra, lambda_cal, lambda_ent):
    """``contrastive sum + lambda_ent * entailment sum`` of the report's
    components, as one tape node over the six components and the three
    weights; the sums are the block totals' own, taken on values."""
    v = {name: value_of(x) for name, x in c.items()}
    li, lc, le = value_of(lambda_intra), value_of(lambda_cal), value_of(lambda_ent)
    ent = _entailment_sum(v, li, lc)

    def vjp(g):
        ge = g * le
        return (g, g, g, ge, ge * li, ge * lc,
                ge * v["entail_intra"], ge * v["calibration"], g * ent)

    return ad.fused(_contrastive_sum(v) + le * ent, "weighted_total",
                    (c["contrastive_globallocal"], c["contrastive_global"],
                     c["contrastive_local"], c["entail_inter"], c["entail_intra"],
                     c["calibration"], lambda_intra, lambda_cal, lambda_ent), vjp)


def contrastive_total(batch: Batch, temps: TemperatureSet, m: Manifold):
    """Sum of the six contrastive terms: uncertainty-tempered global-local,
    plain global, and plain local pairs."""
    s = _lift_batch(batch, m, use_radius=False)
    return _contrastive_sum(_contrastive_terms(s, temps, m, include_positive=False))


def entailment_total(batch: Batch, cfg: LossConfig, m: Manifold):
    """Inter-modal entailment plus weighted intra-modal entailment and
    calibration, summed over batch rows."""
    s = _lift_batch(batch, m, cfg.uncertainty_from_radius)
    return _entailment_sum(_entailment_terms(s, cfg, m), cfg.lambda_intra, cfg.lambda_cal)


def total_loss(batch: Batch, cfg: LossConfig, m: Manifold) -> LossReport:
    """Full objective: contrastive block plus ``lambda_ent`` times the
    entailment block, with the component decomposition attached."""
    s = _lift_batch(batch, m, cfg.uncertainty_from_radius)
    con = _contrastive_terms(s, cfg.temps, m, cfg.include_positive)
    ent = _entailment_terms(s, cfg, m)
    components = {**con, **ent}
    total = _weighted_total(components, cfg.lambda_intra, cfg.lambda_cal, cfg.lambda_ent)
    return LossReport(total=total, components=components)
