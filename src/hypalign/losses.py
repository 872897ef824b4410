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

The batch objective is one graph over the batch's ``(4, B, n)`` stack of
the groups, lifted once; its two part groups are picked out of it for
their uncertainty, which feeds their temperatures and their calibration.
The four entailment terms are one stack of apex/member pairs read out of
the lifted stack, so the exterior angle, the aperture and the leaky term
are one node each over all four.  Each distance matrix reads its two groups
out of the lifted stack and stays its own node: the ``(B, B)`` matrices and
their adjoints are never stacked, which keeps them in cache at large batch
sizes.

On plain values the objective also takes ``K`` batches at once, stacked
after the group axis as ``(4, K, B, n)``: every reduction runs per row over
the last axis, so each report component and the total come back with shape
``(K,)``, each entry bit for bit the value of that batch alone.  The
curvature and the temperatures may then be ``(K,)`` too, one per batch of
the stack (``autodiff.per_run``); :func:`total_loss` refuses such a scalar
against a batch without that run axis.  ``gradcheck`` evaluates a table's
perturbations that way, and the scalars' perturbations together; the tape
takes one batch and 0-d scalars.

Each of the six report components is one tape node with a hand-derived
vector-Jacobian product, built through ``autodiff.fused``: ``info_nce``
(the sum of a contrastive component's two directions; the global and local
components read their matrix along both axes), ``sum_pair`` (an entailment
component's two row sums) and ``calibration`` (both part groups; it reads
the intra leaks by value, which is its stop-gradient, so the leaks' nodes
get no adjoint from it).  ``tempered`` and ``leaky`` give their per-row
temperatures and leaks, and ``weighted_total`` weighs the six; the block
sums are plain arithmetic, which :func:`contrastive_total` and
:func:`entailment_total` apply to the report :func:`total_loss` builds.
The nodes keep the arithmetic of the op-by-op composition they replaced,
so forward values are bit-identical to it (``tests/test_fused_loss_ops.py``),
and gradients agree with it to rounding.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .entailment import ConeParams, aperture, exterior_angle
from .errors import ContractViolationError, DomainError, check_domains
from .manifold import LorentzPoint, Manifold, lift, pairwise_distance
from .uncertainty import (
    entropy,
    normalize_uncertainty,
    uncertainty,
    uncertainty_from_radius,
)


TAU_FLOOR = 0.01        # the trainer clamps each learned temperature back to it


@dataclass(frozen=True)
class TemperatureSet:
    """Logit scales for the global, local, and global-local contrastive
    terms: real numbers or learnable ``Var``s in ``[TAU_FLOOR, inf)`` (the
    trainer clamps each back to the floor), or plain ``(K,)`` arrays, one
    temperature per run of a stacked forward (``autodiff.per_run``);
    ``errors.check_domains`` checks each run."""

    tau_global: object = 0.07
    tau_local: object = 0.07
    tau_global_local: object = 0.06

    def __post_init__(self):
        check_domains(self, dict.fromkeys(vars(self), f"[{TAU_FLOOR}, inf)"))


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
        check_domains(self, _LOSS_DOMAINS)
        if self.entropy_sign not in (1.0, -1.0):
            raise DomainError("entropy_sign", "must be +1 or -1")


_LOSS_DOMAINS = {**dict.fromkeys(("alpha", "lambda_intra", "lambda_cal", "lambda_ent"),
                                 "[0, inf)"),
                 "entropy_sign": "(-inf, inf)", "include_positive": None,
                 "uncertainty_from_radius": None}


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
    """Aligned quadruple of tangent-embedding groups, one ``(4, B, n)`` stack
    in ``GROUPS`` order; row ``i`` of the parts belongs to row ``i`` of the
    wholes.  A plain stack may carry a stack axis after the group axis,
    ``(4, K, B, n)``: ``K`` batches, each checked as one, which the
    objective evaluates at once (every root then has shape ``(K,)``)."""

    groups: object

    def __post_init__(self):
        shape = value_of(self.groups).shape
        if len(shape) not in (3, 4) or shape[0] != len(GROUPS):
            raise ContractViolationError(
                f"batch groups need shape (4, B, n) or (4, K, B, n), not {shape}")
        if shape[-2] < 2:
            raise ContractViolationError("batch size must be >= 2")
        bad = nonfinite_group(self.groups)
        if bad is not None:
            raise ContractViolationError(f"non-finite entries in {bad}")


def nonfinite_group(groups):
    """The first group of a ``(4, B, n)`` (or ``(4, K, B, n)``) stack with a
    non-finite entry, or None."""
    gv = value_of(groups)
    finite = np.isfinite(gv).all(axis=tuple(range(1, gv.ndim)))
    return None if finite.all() else GROUPS[int(np.argmin(finite))]


@dataclass
class LossReport:
    """Scalar total plus its named decomposition, and what calibration and
    the total are finished from: the leak stack ``(4, B)`` whose intra rows
    calibration reads behind a stop-gradient, the part uncertainty stack
    ``(2, B)`` (image, text) it weighs, and the config.

    The components are stored unweighted; the total recombines them as
    ``(c_glob + c_loc + c_globloc)
    + lambda_ent * (e_inter + lambda_intra * e_intra + lambda_cal * cal)``.
    """

    total: object
    components: dict
    leak: object
    u: object
    cfg: LossConfig

    def to_floats(self) -> dict[str, float]:
        return {"total": float(value_of(self.total)),
                **{name: float(value_of(v)) for name, v in self.components.items()}}

    def with_leak(self, leak) -> "LossReport":
        """This report finished again with ``leak``, a ``(4, B)`` stack, in
        place of the stopped one: calibration and the total are recomputed
        from this forward's part uncertainty, the other components kept.
        Given a base point's leak value, the report of the surrogate whose
        gradient the tape computes there, which ``gradcheck`` differences.
        For a stacked forward (part uncertainty ``(2, K, B)``) the one leak
        is broadcast to every batch of the stack."""
        if value_of(self.u).ndim > value_of(leak).ndim:
            leak = value_of(leak)[:, None]
        return _finish(self.components, self.u, leak, self.cfg)


def _nce(dists, tau, include_positive: bool, transposed: bool):
    """One contrastive direction over a ``(B, B)`` distance matrix whose
    diagonal holds the positive pairs, on plain arrays: the loss and its VJP
    ``g -> (distances' adjoint, tau's adjoint)``; ``transposed`` reads the
    matrix's columns as the anchor rows.  A plain ``(K, B, B)`` stack of
    matrices gives a ``(K,)`` loss (the VJP takes one matrix).

    ``tau`` is a scalar or a per-anchor-row vector (``(K, B)`` against a
    stack, or ``(K, 1)`` for a scalar's runs, which a ``(K,)`` tau here
    could not be told from).  Per row, the adjoint of the logits ``-d/tau``
    is the softmax over its denominator minus the one-hot of its positive;
    the distances' adjoint is that over ``-tau``.  The logits become the
    exponentials in place, and the adjoint is built in one array; the row
    sums read the masked logits C-ordered and the unmasked ones in ``d``'s
    own order, the layouts that fix their bits.
    """
    dv, tv = value_of(dists), value_of(tau)
    d = dv.swapaxes(-1, -2) if transposed else dv
    b = d.shape[-1]
    rows = np.arange(b)
    t = tv[..., None] if tv.ndim else tv
    e = np.divide(d, -t, order="K" if include_positive else "C")    # the logits
    positives = e[..., rows, rows]
    if not include_positive:
        e[..., rows, rows] = -np.inf
    top = e.max(axis=-1, keepdims=True)
    e -= top
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    denom = top[..., 0] + np.log(total[..., 0])

    def vjp(g):
        g_logits = np.divide(e, total, order="C")
        g_logits *= g
        g_logits[rows, rows] -= g                       # softmax - one-hot
        g_t = g_logits * d
        g_t /= t * t
        g_logits /= -t                                  # the distances' adjoint
        return (g_logits.T if transposed else g_logits,
                g_t.sum(axis=1) if tv.ndim else g_t.sum(axis=(0, 1)))

    return (denom - positives).sum(-1), vjp


def _info_nce(terms, include_positive: bool):
    """The sum of contrastive directions ``(dists, tau, transposed)``
    (:func:`_nce`), one tape node whose inputs are each term's ``(dists,
    tau)``: a matrix read along both axes is listed twice, and the sweep
    adds its two adjoints."""
    kernels = [_nce(d, tau, include_positive, tr) for d, tau, tr in terms]
    return ad.fused(sum((v for v, _ in kernels[1:]), kernels[0][0]), "info_nce",
                    tuple(x for d, tau, _ in terms for x in (d, tau)),
                    lambda g: [adj for _, vjp in kernels for adj in vjp(g)])


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
    return _info_nce(((dists, tau, False),), include_positive)


def _tempered(u, tau_global_local):
    """``exp(u/2) * tau_gl`` per row (of one group or a stack), one tape
    node."""
    half = np.exp(value_of(u) / 2.0)
    tau = ad.per_run(tau_global_local, half.shape, 1)
    return ad.fused(half * tau, "tempered", (u, tau_global_local),
                    lambda g: (g * tau * half / 2.0, (g * half).sum()))


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
    or for a stack of terms ``(G, B)`` (or ``(G, K, B)``) a column ``(G, 1)``
    of one scaling per term."""
    eta, alpha = np.asarray(eta, dtype=np.float64), float(alpha)
    pv = value_of(phi)
    if eta.ndim:
        eta = eta.reshape(-1, *(1,) * (pv.ndim - 1))
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
    """``sum_i [sg(leak_i) exp(-u_i) + u_i] + sign * H(softmax(u))`` summed
    over the groups of ``u`` (its leading axis) in order, as one tape node
    over ``u``: the stopped leak is read by value, so no adjoint reaches it.
    Plain groups ``(G, K, B)`` give one value per batch of the stack."""
    uv, lv = value_of(u), value_of(leak)
    sign = float(entropy_sign)
    decay = np.exp(-uv)
    w = normalize_uncertainty(uv)
    rows = np.atleast_1d((lv * decay + uv).sum(-1) + sign * entropy(w))

    def vjp(g):
        g_rows = np.full(w.shape, g)
        # the entropy's adjoint reaches w through w and through log(w)
        g_ent = np.full(w.shape, -(g * sign))
        g_w = g_ent * np.log(w) + g_ent * w * (1.0 / w)
        g_soft = w * (g_w - (g_w * w).sum(-1, keepdims=True))
        return (g_rows, -(g_rows * lv * decay), g_soft)

    # u's three adjoint terms (the core's two and the entropy's) go to the
    # sweep one at a time, which adds them to u's adjoint in that order
    return ad.fused(sum(rows[1:], rows[0]), "calibration", (u, u, u), vjp)


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


def _contrastive_terms(points: LorentzPoint, u, cfg: LossConfig, m: Manifold) -> dict:
    """The contrastive terms over the lifted stack ``points``: global-local
    terms with rows tempered by the part uncertainty stack ``u``; the
    global and local terms read one distance matrix along both axes."""

    def nce(*terms):
        return _info_nce(terms, cfg.include_positive)

    def scalar_tau(tau, d):
        # _nce cannot tell a scalar's runs (K,) from per-row temperatures
        # (B,), so a run stack goes there as per-row (K, 1), which it reads
        # as (K, 1, 1) against the matrices; a 0-d tau (a Var on the tape)
        # goes as it is
        runs = ad.per_run(tau, value_of(d).shape, 2)
        return runs[..., 0] if runs.ndim else tau

    def dist(pair):
        # off the tape a matrix read by one term is freed once that term is
        # built, so at most three are alive at a time
        a, b = DISTANCE_PAIRS[pair]
        return pairwise_distance(points.groups(a), points.groups(b), m)

    d_glob = dist(GLOBAL)
    d_loc = dist(LOCAL)
    tau_g = scalar_tau(cfg.temps.tau_global, d_glob)
    tau_l = scalar_tau(cfg.temps.tau_local, d_loc)
    tau_rows = _tempered(u, cfg.temps.tau_global_local)
    return {
        "contrastive_globallocal": nce(
            (dist(GLOBAL_LOCAL_IMAGE), ad.pick(tau_rows, U_IMAGE), False),
            (dist(GLOBAL_LOCAL_TEXT), ad.pick(tau_rows, U_TEXT), False)),
        "contrastive_global": nce((d_glob, tau_g, False), (d_glob, tau_g, True)),
        "contrastive_local": nce((d_loc, tau_l, False), (d_loc, tau_l, True)),
    }


def _sum_pair(a, b):
    """``sum(a) + sum(b)`` over the last axis, one tape node."""
    av, bv = value_of(a), value_of(b)
    return ad.fused(av.sum(-1) + bv.sum(-1), "sum_pair", (a, b),
                    lambda g: (np.full(av.shape, g), np.full(bv.shape, g)))


def _entailment_terms(points: LorentzPoint, cfg: LossConfig, m: Manifold):
    """Inter and intra leaky entailment over the stack of the four terms
    read out of the lifted stack ``points``, and the leak stack, whose
    intra leaks calibration re-weights rather than rebuilding them."""
    cone = cfg.cone
    apex = points.groups(APEXES)
    # the angle first: its origin guard fires before the aperture's
    phi = exterior_angle(apex, points.groups(MEMBERS), m)
    omega = aperture(apex, cone.aperture_k, m)
    leak = _leaky(phi, omega, entailment_etas(cone), cfg.alpha)
    return {
        "entail_inter": _sum_pair(ad.pick(leak, INTER_PARTS), ad.pick(leak, INTER_WHOLES)),
        "entail_intra": _sum_pair(ad.pick(leak, INTRA_TEXT), ad.pick(leak, INTRA_IMAGE)),
    }, leak


def _finish(terms: dict, u, leak, cfg: LossConfig) -> LossReport:
    """The report over the contrastive and entailment ``terms`` and the
    calibration of the part uncertainty stack ``u`` against the intra leaks
    of ``leak`` (read by value, behind a stop-gradient; one node over both
    part groups, text first), weighted into the total."""
    calibration = _calibrate(ad.pick(u, (U_TEXT, U_IMAGE)),
                             ad.pick(leak, (INTRA_TEXT, INTRA_IMAGE)), cfg.entropy_sign)
    components = {**terms, "calibration": calibration}
    total = _weighted_total(components, cfg.lambda_intra, cfg.lambda_cal, cfg.lambda_ent)
    return LossReport(total=total, components=components, leak=leak, u=u, cfg=cfg)


def _contrastive_sum(v: dict):
    return (v["contrastive_globallocal"] + v["contrastive_global"]) + v["contrastive_local"]


def _entailment_sum(v: dict, lambda_intra, lambda_cal):
    return v["entail_inter"] + (lambda_intra * v["entail_intra"]
                                + lambda_cal * v["calibration"])


def _weighted_total(c: dict, lambda_intra: float, lambda_cal: float, lambda_ent: float):
    """``contrastive sum + lambda_ent * entailment sum`` of the report's
    components, as one tape node over the six; the weights are plain floats,
    and the block sums plain arithmetic on the components' values."""
    v = {name: value_of(x) for name, x in c.items()}
    ent = _entailment_sum(v, lambda_intra, lambda_cal)

    def vjp(g):
        ge = g * lambda_ent
        return g, g, g, ge, ge * lambda_intra, ge * lambda_cal

    return ad.fused(_contrastive_sum(v) + lambda_ent * ent, "weighted_total",
                    (c["contrastive_globallocal"], c["contrastive_global"],
                     c["contrastive_local"], c["entail_inter"], c["entail_intra"],
                     c["calibration"]), vjp)


def contrastive_total(batch: Batch, temps: TemperatureSet, m: Manifold) -> float:
    """Sum of the six contrastive terms (uncertainty-tempered global-local,
    plain global, and plain local pairs): the contrastive block of
    :func:`total_loss`'s report under a default :class:`LossConfig` at
    ``temps``.  It raises wherever the objective raises, for example at an
    apex at the origin."""
    return _contrastive_sum(total_loss(batch, LossConfig(temps=temps), m).to_floats())


def entailment_total(batch: Batch, cfg: LossConfig, m: Manifold) -> float:
    """Inter-modal entailment plus weighted intra-modal entailment and
    calibration, summed over batch rows: the entailment block of
    :func:`total_loss`'s report.  It raises wherever the objective raises."""
    return _entailment_sum(total_loss(batch, cfg, m).to_floats(),
                           cfg.lambda_intra, cfg.lambda_cal)


def _check_runs(batch: Batch, scalars) -> None:
    """Raise unless every scalar stacked over runs, ``(K,)``, meets a batch
    stacked over as many, ``(4, K, B, n)``.  The group axis leads the batch,
    so one group's shape shows its run axis, which an op's per-row operand
    cannot tell apart from the group axis when K is the group count."""
    group = value_of(batch.groups).shape[1:]
    for x in scalars:
        ad.per_run(x, group, 2)


def total_loss(batch: Batch, cfg: LossConfig, m: Manifold) -> LossReport:
    """Full objective: contrastive block plus ``lambda_ent`` times the
    entailment block, with the component decomposition and what
    :meth:`LossReport.with_leak` finishes it again from."""
    temps = cfg.temps
    _check_runs(batch, (m.kappa, temps.tau_global, temps.tau_local, temps.tau_global_local))
    parts = ad.pick(batch.groups, (PART_IMAGE, PART_TEXT))
    points = lift(batch.groups, m)          # the stack is lifted once
    u = uncertainty_from_radius(parts, m) if cfg.uncertainty_from_radius else uncertainty(parts)
    con = _contrastive_terms(points, u, cfg, m)
    ent, leak = _entailment_terms(points, cfg, m)
    return _finish({**con, **ent}, u, leak, cfg)
