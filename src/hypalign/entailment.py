"""Entailment-cone geometry: aperture, exterior angle, membership.

Each on-manifold point ``p`` owns a cone opening away from the origin; a
point ``q`` is entailed by ``p`` when the exterior angle at ``p`` (between
the continuation of the radial geodesic through ``p`` and the geodesic
``p -> q``) fits inside a scaled aperture.  Cones narrow as ``p`` moves
outward, so abstract concepts near the origin entail wide regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import ContractViolationError, NumericalConsistencyError
from .manifold import LorentzPoint, Manifold


@dataclass(frozen=True)
class ConeParams:
    """Aperture constant and the per-relation aperture scalings."""

    aperture_k: float = 0.1
    eta_inter: float = 0.7
    eta_intra: float = 1.2

    def __post_init__(self):
        if self.aperture_k <= 0 or self.eta_inter <= 0 or self.eta_intra <= 0:
            raise ContractViolationError("cone parameters must be positive")


def _nonzero_norm(space, message: str):
    """Row norms of space components; a zero norm (the origin) raises
    ``message``."""
    norm = np.linalg.norm(space, axis=-1)
    if np.min(norm) <= 0.0:
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
    kv = value_of(m.kappa)
    arg = 2.0 * float(k) / (np.sqrt(kv) * norm)
    clipped = np.clip(arg, 0.0, 1.0)
    omega = np.arcsin(clipped)

    def vjp(g):
        interior = (arg > 0.0) & (arg < 1.0)
        d_arg = g * np.where(
            interior, 1.0 / np.sqrt(np.where(interior, 1.0 - clipped * clipped, 1.0)), 0.0
        )
        return (np.expand_dims(-d_arg * arg / (norm * norm), -1) * ps,
                -d_arg * arg / (2.0 * kv))

    return ad.fused(omega, "aperture", (p.space, m.kappa), vjp)


def exterior_angle(p: LorentzPoint, q: LorentzPoint, m: Manifold, tol: float = 1e-6):
    """Exterior angle at ``p`` between the outward radial direction and the
    geodesic toward ``q``.

    Closed form
    ``acos( (q_t + p_t kappa <p,q>_L) / (|p_space| sqrt((kappa <p,q>_L)^2 - 1)) )``,
    equal to the angle between ``-log_p(o)`` and ``log_p(q)`` under the
    Riemannian metric at ``p`` (cross-checked against that oracle in the
    test suite).  Zero when ``q`` continues the ray from the origin through
    ``p``; pi when ``q`` lies between ``p`` and the origin.  The acos
    argument is clamped to [-1, 1] (gradient 0 at the ends); beyond
    ``1 + tol`` it raises.  A coincident pair (``q = p``, where the angle is
    undefined) takes the subgradient-0 convention: ``phi = 0`` with a zero
    adjoint, so its hinge and leak vanish.  One tape node, with adjoints for
    both points and ``kappa``.
    """
    inputs = (p.time, p.space, q.time, q.space, m.kappa)
    pt, ps, qt, qs, kv = (value_of(x) for x in inputs)
    inner = np.sum(ps * qs, axis=-1) - pt * qt
    beta = kv * inner
    beta_sq_m1 = beta * beta - 1.0
    # beta = -1 exactly at q = p; float drift there can land either side of
    # zero, so treat anything this close as coincident
    coincident = beta_sq_m1 <= 1e-9
    p_norm = _nonzero_norm(ps, "exterior angle undefined at the origin")
    root = np.sqrt(np.where(coincident, 1.0, beta_sq_m1))
    den = p_norm * root
    cos_phi = np.where(coincident, 1.0, (qt + pt * beta) / den)
    if cos_phi.size:
        worst = np.max(np.abs(cos_phi))
        if worst > 1.0 + tol:
            raise NumericalConsistencyError(
                f"acos argument magnitude {worst!r} above 1 by more than {tol}"
            )
    clipped = np.clip(cos_phi, -1.0, 1.0)
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
        d_inner_col = np.expand_dims(d_inner, -1)
        return (d_num * beta - d_inner * qt,
                np.expand_dims(d_den * root / p_norm, -1) * ps + d_inner_col * qs,
                d_num - d_inner * pt,
                d_inner_col * ps,
                d_beta * inner)

    return ad.fused(phi, "exterior_angle", inputs, vjp)


def in_cone(p: LorentzPoint, q: LorentzPoint, cp: ConeParams, eta: float, m: Manifold):
    """Boundary-inclusive membership: ``phi(p, q) <= eta * aperture(p)``.

    Inclusivity matches the hinge loss being exactly zero on the boundary.
    """
    phi = value_of(exterior_angle(p, q, m))
    omega = value_of(aperture(p, cp.aperture_k, m))
    return phi <= eta * omega
