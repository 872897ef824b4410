"""Entailment-cone geometry: aperture, exterior angle, membership.

Each on-manifold point ``p`` owns a cone opening away from the origin; a
point ``q`` is entailed by ``p`` when the exterior angle at ``p`` (between
the continuation of the radial geodesic through ``p`` and the geodesic
``p -> q``) fits inside a scaled aperture.  Cones narrow as ``p`` moves
outward, so abstract concepts near the origin entail wide regions.

The ops work row by row over any leading axes: one apex/member pair of
batches ``(B, n)``, or a stack of ``G`` such pairs ``(G, B, n)`` (read out
of one lifted stack with ``LorentzPoint.groups``), which the training
objective evaluates as one tape node per op.  On plain values a stack may
carry a run axis, ``(G, K, B, n)``, against a ``(K,)`` curvature, one per
run (``autodiff.per_run``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import ContractViolationError, NumericalConsistencyError, check_domains
from .manifold import LorentzPoint, Manifold


@dataclass(frozen=True)
class ConeParams:
    """Aperture constant and the per-relation aperture scalings."""

    aperture_k: float = 0.1
    eta_inter: float = 0.7
    eta_intra: float = 1.2

    def __post_init__(self):
        check_domains(self, dict.fromkeys(("aperture_k", "eta_inter", "eta_intra"),
                                          "(0, inf)"))


def _nonzero_norm(space, message: str):
    """Row norms of space components; a zero norm (the origin) raises
    ``message``."""
    norm = ad._row_norm(space)
    if norm.min() <= 0.0:
        raise ContractViolationError(message)
    return norm


def aperture(p: LorentzPoint, k: float, m: Manifold):
    """Half-aperture ``asin(clamp(2K / (sqrt(kappa) |p_space|), 0, 1))``.

    Saturates at pi/2 for points close to the origin (the clamp plateau,
    where the gradient is 0) and shrinks toward 0 as ``|p_space|`` grows.
    Undefined at the origin.  One tape node, with adjoints for ``p.space``
    and ``kappa``.
    """
    ps = value_of(p.space)
    norm = _nonzero_norm(ps, "cone aperture undefined at the origin")
    kv = ad.per_run(m.kappa, norm.shape, 1)
    arg = 2.0 * float(k) / (np.sqrt(kv) * norm)
    clipped = np.minimum(arg, 1.0)          # arg > 0: the norm is positive
    omega = np.arcsin(clipped)

    def vjp(g):
        interior = (arg > 0.0) & (arg < 1.0)
        d_arg = g * np.where(
            interior, 1.0 / np.sqrt(np.where(interior, 1.0 - clipped * clipped, 1.0)), 0.0
        )
        return ((-d_arg * arg / (norm * norm))[..., None] * ps,
                ad.sum_all(-d_arg * arg / (2.0 * kv)))

    return ad.fused(omega, "aperture", (p.space, m.kappa), vjp)


def _cos_angle(num, beta_sq_m1, p_norm):
    """Coincidence mask, ``sqrt(beta^2 - 1)``, the denominator and the
    cosine of the exterior angle."""
    # beta = -1 exactly at q = p; float drift there can land either side of
    # zero, so treat anything this close as coincident
    coincident = beta_sq_m1 <= 1e-9
    root = np.sqrt(np.where(coincident, 1.0, beta_sq_m1))
    den = p_norm * root
    return coincident, root, den, np.where(coincident, 1.0, num / den)


def exterior_angle(p: LorentzPoint, q: LorentzPoint, m: Manifold):
    """Exterior angle at ``p`` between the outward radial direction and the
    geodesic toward ``q``.

    Closed form
    ``acos( (q_t + p_t kappa <p,q>_L) / (|p_space| sqrt((kappa <p,q>_L)^2 - 1)) )``,
    equal to the angle between ``-log_p(o)`` and ``log_p(q)`` under the
    Riemannian metric at ``p`` (cross-checked against that oracle in the
    test suite).  Zero when ``q`` continues the ray from the origin through
    ``p``; pi when ``q`` lies between ``p`` and the origin.  The acos
    argument is clamped to [-1, 1] (gradient 0 at the ends).  A pair whose
    argument lands beyond ``1 + autodiff.DRIFT_TOL`` is recomputed in a
    cancellation-free form, and raises only if it stays there.  A coincident
    pair (``q = p``, where the angle is undefined) takes the subgradient-0
    convention: ``phi = 0`` with a zero adjoint, so its hinge and leak
    vanish.  ``p`` may be one apex ``(n,)`` against a batch of members.
    One tape node, with adjoints for both points and ``kappa``.
    """
    inputs = (p.time, p.space, q.time, q.space, m.kappa)
    pt, ps, qt, qs = (value_of(x) for x in inputs[:4])
    p_norm = _nonzero_norm(ps, "exterior angle undefined at the origin")
    inner = (ps * qs).sum(-1) - pt * qt
    kv = ad.per_run(m.kappa, inner.shape, 1)
    beta = kv * inner
    coincident, root, den, cos_phi = _cos_angle(qt + pt * beta, beta * beta - 1.0, p_norm)
    worst = np.abs(cos_phi).max() if cos_phi.size else 0.0
    if worst > 1.0 + ad.DRIFT_TOL:
        # Near q = p, beta^2 - 1 and the numerator are differences of terms
        # of size t^2 and lose most of their digits.  Redo the drifted pairs
        # from the chord: on the hyperboloid -beta - 1 = (kappa/2) <p-q, p-q>_L
        # and p_t - q_t = (|p_s|^2 - |q_s|^2) / (p_t + q_t), both of which
        # keep their relative accuracy as the points meet.  Points off the
        # hyperboloid stay beyond the budget and raise.
        drift = np.abs(cos_phi) > 1.0 + ad.DRIFT_TOL
        dt = np.sum((ps - qs) * (ps + qs), axis=-1) / (pt + qt)
        chord = 0.5 * kv * (np.sum((ps - qs) ** 2, axis=-1) - dt * dt)
        beta = np.where(drift, -1.0 - chord, beta)
        redone = _cos_angle(np.where(drift, -dt - pt * chord, qt + pt * beta),
                            np.where(drift, chord * (chord + 2.0), beta * beta - 1.0),
                            p_norm)
        if np.max(np.abs(redone[3])) > 1.0 + ad.DRIFT_TOL:
            raise NumericalConsistencyError(
                f"acos argument magnitude {worst!r} above 1 by more than {ad.DRIFT_TOL}"
            )
        coincident, root, den, cos_phi = redone
        inner = np.where(drift, beta / kv, inner)
    clipped = np.minimum(np.maximum(cos_phi, -1.0), 1.0)
    phi = np.arccos(clipped)
    def vjp(g):
        interior = np.abs(cos_phi) < 1.0
        d_cos = g * np.where(
            interior, -1.0 / np.sqrt(np.where(interior, 1.0 - clipped * clipped, 1.0)), 0.0
        )
        d_num = d_cos / den
        d_den = -d_cos * cos_phi / den
        d_beta = d_num * pt + d_den * p_norm * beta / root
        d_inner = d_beta * kv
        d_inner_col = d_inner[..., None]
        d_pt = d_num * beta - d_inner * qt
        d_ps = (d_den * root / p_norm)[..., None] * ps + d_inner_col * qs
        if ps.ndim < qs.ndim:       # one apex against the members: summed over them
            lead = tuple(range(qs.ndim - ps.ndim))
            d_pt, d_ps = d_pt.sum(axis=lead), d_ps.sum(axis=lead)
        return (d_pt, d_ps, d_num - d_inner * pt, d_inner_col * ps,
                ad.sum_all(d_beta * inner))

    return ad.fused(phi, "exterior_angle", inputs, vjp)


def in_cone(p: LorentzPoint, q: LorentzPoint, cp: ConeParams, eta: float, m: Manifold):
    """Boundary-inclusive membership: ``phi(p, q) <= eta * aperture(p)``.

    Inclusivity matches the hinge loss being exactly zero on the boundary.
    """
    phi = value_of(exterior_angle(p, q, m))
    omega = value_of(aperture(p, cp.aperture_k, m))
    return phi <= eta * omega
