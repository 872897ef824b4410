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
from .errors import ContractViolationError
from .manifold import LorentzPoint, Manifold, lorentz_inner


@dataclass(frozen=True)
class ConeParams:
    """Aperture constant and the per-relation aperture scalings."""

    aperture_k: float = 0.1
    eta_inter: float = 0.7
    eta_intra: float = 1.2

    def __post_init__(self):
        if self.aperture_k <= 0 or self.eta_inter <= 0 or self.eta_intra <= 0:
            raise ContractViolationError("cone parameters must be positive")


def aperture(p: LorentzPoint, k: float, m: Manifold):
    """Half-aperture ``asin(clamp(2K / (sqrt(kappa) |p_space|), 0, 1))``.

    Saturates at pi/2 for points close to the origin (the clamp plateau) and
    shrinks toward 0 as ``|p_space|`` grows.  Undefined at the origin.
    """
    norm = ad.l2norm(p.space, axis=-1)
    if np.min(value_of(norm)) <= 0.0:
        raise ContractViolationError("cone aperture undefined at the origin")
    arg = ad.div(2.0 * float(k), ad.mul(ad.sqrt(m.kappa), norm))
    return ad.asin_saturating(arg)


def exterior_angle(p: LorentzPoint, q: LorentzPoint, m: Manifold, tol: float = 1e-6):
    """Exterior angle at ``p`` between the outward radial direction and the
    geodesic toward ``q``.

    Closed form
    ``acos( (q_t + p_t kappa <p,q>_L) / (|p_space| sqrt((kappa <p,q>_L)^2 - 1)) )``,
    equal to the angle between ``-log_p(o)`` and ``log_p(q)`` under the
    Riemannian metric at ``p`` (cross-checked against that oracle in the
    test suite).  Zero when ``q`` continues the ray from the origin through
    ``p``; pi when ``q`` lies between ``p`` and the origin.
    """
    inner = lorentz_inner(p, q)
    beta = ad.mul(m.kappa, inner)
    beta_sq_m1 = ad.sub(ad.square(beta), 1.0)
    # beta = -1 exactly at q = p; float drift there can land either side of
    # zero, so treat anything this close as coincident
    if np.min(value_of(beta_sq_m1)) <= 1e-9:
        raise ContractViolationError(
            "exterior angle undefined for coincident points"
        )
    p_norm = ad.l2norm(p.space, axis=-1)
    if np.min(value_of(p_norm)) <= 0.0:
        raise ContractViolationError("exterior angle undefined at the origin")
    num = ad.add(q.time, ad.mul(p.time, beta))
    den = ad.mul(p_norm, ad.sqrt(beta_sq_m1))
    return ad.acos_clamped(ad.div(num, den), tol=tol)


def in_cone(p: LorentzPoint, q: LorentzPoint, cp: ConeParams, eta: float, m: Manifold):
    """Boundary-inclusive membership: ``phi(p, q) <= eta * aperture(p)``.

    Inclusivity matches the hinge loss being exactly zero on the boundary.
    """
    phi = value_of(exterior_angle(p, q, m))
    omega = value_of(aperture(p, cp.aperture_k, m))
    return phi <= eta * omega
