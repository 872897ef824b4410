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

The batch objective builds one graph: each group is lifted once, the global
and local terms read one distance matrix along both axes, each part group's
uncertainty feeds both its temperatures and its calibration, and
calibration re-weights the intra-modal leaks the entailment block already
holds.  The per-term functions build their own inputs, for direct use and
gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        for name in ("tau_global", "tau_local", "tau_global_local"):
            if float(value_of(getattr(self, name))) < 0.01:
                raise ContractViolationError(f"{name} below the 0.01 floor")


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


@dataclass(frozen=True)
class Batch:
    """Aligned quadruple of tangent-embedding groups, ``(B, n)`` each; row
    ``i`` of the parts belongs to row ``i`` of the wholes."""

    whole_image: object
    whole_text: object
    part_image: object
    part_text: object

    def __post_init__(self):
        shapes = {
            name: value_of(getattr(self, name)).shape
            for name in ("whole_image", "whole_text", "part_image", "part_text")
        }
        if len(set(shapes.values())) != 1:
            raise ContractViolationError(f"batch group shapes differ: {shapes}")
        b = shapes["whole_image"][0]
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


def _info_nce(dists, tau, include_positive: bool):
    """Contrastive loss over a ``(B, B)`` distance matrix whose diagonal
    holds the positive pairs."""
    b = value_of(dists).shape[0]
    if value_of(tau).ndim == 1:
        tau = ad.reshape(tau, (b, 1))
    logits = ad.div(ad.neg(dists), tau)
    positives = ad.diag_part(logits)
    if include_positive:
        denom = ad.logsumexp(logits, axis=1)
    else:
        mask = np.zeros((b, b))
        np.fill_diagonal(mask, -np.inf)
        denom = ad.logsumexp(ad.add(logits, mask), axis=1)
    return ad.reduce_sum(ad.sub(denom, positives))


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
    return ad.mul(ad.exp(ad.div(u, 2.0)), tau_global_local)


def adaptive_temperatures(parts, tau_global_local, *, m: Manifold = None,
                          use_radius: bool = False):
    """Per-row temperatures ``exp(u(part_i)/2) * tau_gl``.

    Uncertainty lies in (0, ln 2], so every entry falls in
    ``[tau_gl, sqrt(2) tau_gl]``: uncertain parts get softer logits.
    """
    return _tempered(_uncertainty(parts, m, use_radius), tau_global_local)


def _hinge(phi, omega, eta: float):
    return ad.relu(ad.sub(phi, ad.mul(float(eta), omega)))


def entail_hinge(p: LorentzPoint, q: LorentzPoint, eta: float, cp: ConeParams,
                 m: Manifold):
    """``max(0, phi(p, q) - eta * aperture(p))`` per pair; zero exactly when
    ``q`` lies inside ``p``'s scaled cone."""
    return _hinge(exterior_angle(p, q, m), aperture(p, cp.aperture_k, m), eta)


def _leaky(phi, omega, eta: float, alpha: float):
    return ad.add(_hinge(phi, omega, eta), ad.mul(float(alpha), phi))


def entail_leaky(p: LorentzPoint, q: LorentzPoint, eta: float, cp: ConeParams,
                 alpha: float, m: Manifold):
    """Hinge plus a leaky angular term ``alpha * phi`` that keeps pulling
    ``q`` toward ``p``'s axis even inside the cone."""
    return _leaky(exterior_angle(p, q, m), aperture(p, cp.aperture_k, m), eta, alpha)


def _calibrate(u, leak, entropy_sign: float):
    core = ad.reduce_sum(
        ad.add(ad.mul(ad.stop_gradient(leak), ad.exp(ad.neg(u))), u)
    )
    ent = entropy(normalize_uncertainty(u))
    return ad.add(core, ad.mul(float(entropy_sign), ent))


def calibration(p_parts, q_wholes, eta: float, cp: ConeParams, alpha: float,
                m: Manifold, *, entropy_sign: float = 1.0,
                use_radius: bool = False):
    """Uncertainty-calibration loss over aligned part/whole rows.

    ``sum_i [ sg(leaky(p_i, q_i)) exp(-u(p_i)) + u(p_i) ]
    + sign * H(softmax(u))``

    The entailment factor is passed through a stop-gradient: it weights the
    uncertainty update but receives none itself.  The softmax normalizing
    the entropy term runs over this part group.
    """
    u = _uncertainty(p_parts, m, use_radius)
    leak = entail_leaky(lift(p_parts, m), lift(q_wholes, m), eta, cp, alpha, m)
    return _calibrate(u, leak, entropy_sign)


# ---------------------------------------------------------------------------
# the batch objective: one lifted state shared by every term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Lifted:
    """A batch's four groups lifted once each, and each part group's
    uncertainty."""

    whole_image: LorentzPoint
    whole_text: LorentzPoint
    part_image: LorentzPoint
    part_text: LorentzPoint
    u_image: object
    u_text: object


def _lift_batch(batch: Batch, m: Manifold, use_radius: bool) -> _Lifted:
    return _Lifted(
        whole_image=lift(batch.whole_image, m),
        whole_text=lift(batch.whole_text, m),
        part_image=lift(batch.part_image, m),
        part_text=lift(batch.part_text, m),
        u_image=_uncertainty(batch.part_image, m, use_radius),
        u_text=_uncertainty(batch.part_text, m, use_radius),
    )


def _contrastive_terms(s: _Lifted, temps: TemperatureSet, m: Manifold,
                       include_positive: bool) -> dict:
    """Global-local terms with uncertainty-tempered rows; the global and
    local terms read one distance matrix along both axes."""

    def nce(dists, tau):
        return _info_nce(dists, tau, include_positive)

    d_glob = pairwise_distance(s.whole_image, s.whole_text, m)
    d_loc = pairwise_distance(s.part_image, s.part_text, m)
    gl = temps.tau_global_local
    return {
        "contrastive_globallocal": ad.add(
            nce(pairwise_distance(s.part_image, s.whole_text, m),
                _tempered(s.u_image, gl)),
            nce(pairwise_distance(s.part_text, s.whole_image, m),
                _tempered(s.u_text, gl)),
        ),
        "contrastive_global": ad.add(nce(d_glob, temps.tau_global),
                                     nce(ad.transpose(d_glob), temps.tau_global)),
        "contrastive_local": ad.add(nce(d_loc, temps.tau_local),
                                    nce(ad.transpose(d_loc), temps.tau_local)),
    }


def _entailment_terms(s: _Lifted, cfg: LossConfig, m: Manifold) -> dict:
    """Inter and intra leaky entailment; calibration re-weights the intra
    leaks it is handed (under a stop-gradient) rather than rebuilding them."""
    cone, alpha = cfg.cone, cfg.alpha

    def angle_and_aperture(apex, member):
        return exterior_angle(apex, member, m), aperture(apex, cone.aperture_k, m)

    # text entails image; part entails whole -- the apex goes first.  The
    # part-text apex heads an intra and an inter term: one aperture serves both.
    phi_text, omega_text = angle_and_aperture(s.part_text, s.whole_text)
    leak_text = _leaky(phi_text, omega_text, cone.eta_intra, alpha)
    leak_image = _leaky(*angle_and_aperture(s.part_image, s.whole_image),
                        cone.eta_intra, alpha)
    inter_parts = _leaky(exterior_angle(s.part_text, s.part_image, m), omega_text,
                         cone.eta_inter, alpha)
    inter_wholes = _leaky(*angle_and_aperture(s.whole_text, s.whole_image),
                          cone.eta_inter, alpha)
    return {
        "entail_inter": ad.add(ad.reduce_sum(inter_parts), ad.reduce_sum(inter_wholes)),
        "entail_intra": ad.add(ad.reduce_sum(leak_text), ad.reduce_sum(leak_image)),
        "calibration": ad.add(_calibrate(s.u_text, leak_text, cfg.entropy_sign),
                              _calibrate(s.u_image, leak_image, cfg.entropy_sign)),
    }


def _contrastive_sum(c: dict):
    return ad.add(ad.add(c["contrastive_globallocal"], c["contrastive_global"]),
                  c["contrastive_local"])


def _entailment_sum(e: dict, cfg: LossConfig):
    return ad.add(e["entail_inter"],
                  ad.add(ad.mul(cfg.lambda_intra, e["entail_intra"]),
                         ad.mul(cfg.lambda_cal, e["calibration"])))


def contrastive_total(batch: Batch, temps: TemperatureSet, m: Manifold,
                      *, include_positive: bool = False,
                      use_radius: bool = False):
    """Sum of the six contrastive terms: uncertainty-tempered global-local,
    plain global, and plain local pairs."""
    s = _lift_batch(batch, m, use_radius)
    return _contrastive_sum(_contrastive_terms(s, temps, m, include_positive))


def entailment_total(batch: Batch, cfg: LossConfig, m: Manifold):
    """Inter-modal entailment plus weighted intra-modal entailment and
    calibration, summed over batch rows."""
    s = _lift_batch(batch, m, cfg.uncertainty_from_radius)
    return _entailment_sum(_entailment_terms(s, cfg, m), cfg)


def total_loss(batch: Batch, cfg: LossConfig, m: Manifold) -> LossReport:
    """Full objective: contrastive block plus ``lambda_ent`` times the
    entailment block, with the component decomposition attached."""
    s = _lift_batch(batch, m, cfg.uncertainty_from_radius)
    con = _contrastive_terms(s, cfg.temps, m, cfg.include_positive)
    ent = _entailment_terms(s, cfg, m)
    total = ad.add(_contrastive_sum(con), ad.mul(cfg.lambda_ent, _entailment_sum(ent, cfg)))
    return LossReport(total=total, components={**con, **ent})
