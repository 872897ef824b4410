"""Lorentz-model geometry: the hyperboloid, its distance, and the
origin exp/log maps.

Points live on the upper sheet ``{p : <p,p>_L = -1/kappa, p_time > 0}`` of a
two-sheeted hyperboloid in Minkowski space, where ``<p,q>_L`` is the
Lorentzian inner product and ``kappa > 0`` parameterizes a space of constant
curvature ``-kappa``.

All learnable embeddings are space-only vectors in the tangent space at the
origin ``o = [1/sqrt(kappa), 0]`` and are lifted onto the manifold on demand
via the origin exponential map; gradients flow through the lift.  The maps
are evaluated through functions of the *squared* tangent norm, so they stay
smooth (and exactly correct) at the origin.

Every function accepts either plain numpy arrays or autodiff ``Var`` nodes;
single points use shape ``(n,)`` and batches ``(B, n)``.  Double precision
keeps the cosh/acosh chains accurate to ~1e-9 for radii up to ~45, which is
the usable radius limit of this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, value_of
from .errors import ContractViolationError

KAPPA_MIN = 0.1
KAPPA_MAX = 10.0


@dataclass(frozen=True)
class Manifold:
    """Curvature parameter and dimension; immutable once constructed.

    ``kappa`` may be a plain float or a learnable ``Var``; its value must lie
    in [0.1, 10] (the trainer re-projects after every update).
    """

    kappa: float | Var
    dim: int

    def __post_init__(self):
        k = float(value_of(self.kappa))
        if not (KAPPA_MIN <= k <= KAPPA_MAX):
            raise ContractViolationError(
                f"curvature {k} outside [{KAPPA_MIN}, {KAPPA_MAX}]"
            )
        if self.dim < 1:
            raise ContractViolationError("manifold dimension must be >= 1")

    def origin(self) -> "LorentzPoint":
        time = 1.0 / ad.sqrt(self.kappa)
        return LorentzPoint(time=time, space=np.zeros(self.dim))


@dataclass(frozen=True)
class LorentzPoint:
    """A point (or batch of points) on the hyperboloid, split into time and
    space components.  ``time`` has shape ``()``/``(B,)`` and ``space``
    shape ``(n,)``/``(B, n)``."""

    time: object
    space: object

    @property
    def batched(self) -> bool:
        return value_of(self.space).ndim == 2


def _split_raw(p):
    """Time/space split of a raw ``(..., n+1)`` Minkowski vector."""
    if isinstance(p, LorentzPoint):
        return p.time, p.space
    arr = value_of(p)
    return arr[..., 0], arr[..., 1:]


def lorentz_inner(p, q):
    """Lorentzian inner product ``-p_t q_t + <p_s, q_s>``.

    Accepts ``LorentzPoint`` or raw ``(..., n+1)`` vectors; aligned batches
    combine elementwise.
    """
    pt, ps = _split_raw(p)
    qt, qs = _split_raw(q)
    if value_of(ps).shape[-1] != value_of(qs).shape[-1]:
        raise ContractViolationError("lorentz_inner: dimension mismatch")
    return ad.sub(ad.reduce_sum(ad.mul(ps, qs), axis=-1), ad.mul(pt, qt))


def lift(v, m: Manifold) -> LorentzPoint:
    """Origin exponential map of a space-only tangent vector.

    ``exp_o(v) = cosh(sqrt(kappa)|v|) o + sinh(sqrt(kappa)|v|)/(sqrt(kappa)|v|) v``,
    written in terms of ``y = kappa |v|^2`` so the zero vector maps exactly
    to the origin with smooth gradients.  On the tape the time and space
    components are one node each, with adjoints for ``v`` and ``kappa``.
    """
    vv, kv = value_of(v), value_of(m.kappa)
    s = np.sum(vv * vv, axis=-1)
    y = kv * s
    sqrt_k = np.sqrt(kv)
    time = ad._cosh_sqrt_val(y) / sqrt_k
    sinhc_y = ad._sinhc_sqrt_val(y)
    scale = sinhc_y.reshape(-1, 1) if vv.ndim == 2 else sinhc_y
    space = scale * vv

    def time_vjp(g):
        # d cosh(sqrt(y))/dy = sinhc(sqrt(y)) / 2
        return (np.expand_dims(g * sqrt_k * sinhc_y, -1) * vv,
                g * (sinhc_y * s / (2.0 * sqrt_k) - time / (2.0 * kv)))

    def space_vjp(g):
        d_scale = np.sum(g * vv, axis=-1) * ad._sinhc_sqrt_deriv(y, sinhc_y)
        return (scale * g + np.expand_dims(2.0 * kv * d_scale, -1) * vv,
                d_scale * s)

    inputs = (v, m.kappa)
    return LorentzPoint(time=ad.fused(time, "lift_time", inputs, time_vjp),
                        space=ad.fused(space, "lift_space", inputs, space_vjp))


def log_origin(p: LorentzPoint, m: Manifold):
    """Origin logarithmic map; exact inverse of :func:`lift` on the upper
    sheet, returning the space-only tangent vector.

    Uses ``asinh(sqrt(kappa)|p_s|)/(sqrt(kappa)|p_s|) p_s``, which is the
    origin specialization of the projection-based log map and is smooth at
    the origin (where it returns the zero vector).
    """
    s = ad.reduce_sum(ad.square(p.space), axis=-1)
    factor = ad.asinhc_sqrt(ad.mul(m.kappa, s))
    if value_of(p.space).ndim == 2:
        factor = ad.reshape(factor, (-1, 1))
    return ad.mul(factor, p.space)


def geodesic_distance(p: LorentzPoint, q: LorentzPoint, m: Manifold, tol: float = 1e-6):
    """Geodesic distance ``sqrt(1/kappa) acosh(-kappa <p,q>_L)``.

    The acosh argument is clamped to [1, inf); drift below 1 beyond ``tol``
    raises a numerical-consistency error.
    """
    z = ad.neg(ad.mul(m.kappa, lorentz_inner(p, q)))
    return ad.div(ad.acosh_clamped(z, tol=tol), ad.sqrt(m.kappa))


def pairwise_distance(p: LorentzPoint, q: LorentzPoint, m: Manifold, tol: float = 1e-6):
    """All-pairs geodesic distance matrix of shape ``(Bp, Bq)``.

    One matmul and one outer product give the inner products; the acosh
    argument follows :func:`geodesic_distance`'s clamp.  On the tape this is
    one node, with adjoints for both point batches and ``kappa``.
    """
    inputs = (p.time, p.space, q.time, q.space, m.kappa)
    pt, ps, qt, qs, kv = (value_of(x) for x in inputs)
    if (ad.is_var(p.space) or ad.is_var(q.space)) and (ps.ndim != 2 or qs.ndim != 2):
        raise ContractViolationError("pairwise_distance takes 2-D point batches")
    # a single point is a batch of one; the adjoints sum back to its shape
    pt, qt, ps, qs = np.atleast_1d(pt), np.atleast_1d(qt), np.atleast_2d(ps), np.atleast_2d(qs)
    inner = ps @ qs.T - np.outer(pt, qt)
    zc = ad._acosh_clamp(-(kv * inner), tol)
    sqrt_k = np.sqrt(kv)
    dist = np.arccosh(zc) / sqrt_k

    def vjp(g):
        d_z = g * ad._acosh_deriv(zc) / sqrt_k
        d_inner = -kv * d_z
        return (-(d_inner @ qt), d_inner @ qs, -(d_inner.T @ pt), d_inner.T @ ps,
                -g * dist / (2.0 * kv) - d_z * inner)

    return ad.fused(dist, "pairwise_distance", inputs, vjp)


def hyperbolic_radius(x, m: Manifold):
    """Distance from the origin of the hyperboloid point whose space
    component is ``x``: ``(1/sqrt(kappa)) acosh(sqrt(1 + kappa |x|^2))``.

    Grows like ``|x|`` for small norms and like ``log(2 sqrt(kappa) |x|) /
    sqrt(kappa)`` for large ones; strictly increasing in ``|x|``.
    """
    s = ad.reduce_sum(ad.square(x), axis=-1)
    return ad.mul(ad.asinhc_sqrt(ad.mul(m.kappa, s)), ad.sqrt(s))


def from_space(x, m: Manifold) -> LorentzPoint:
    """Complete a space component to the upper hyperboloid sheet:
    ``[sqrt(|x|^2 + 1/kappa), x]``."""
    s = ad.reduce_sum(ad.square(x), axis=-1)
    time = ad.sqrt(ad.add(s, ad.div(1.0, m.kappa)))
    return LorentzPoint(time=time, space=x)


def hyperboloid_residual(p: LorentzPoint, m: Manifold):
    """Scaled hyperboloid-constraint residual
    ``|<p,p>_L + 1/kappa| / max(1, t^2 + |s|^2)``.

    The raw residual is a difference of terms of size ``t^2``, so for far-out
    points it cannot be smaller than ``t^2 * eps`` in double precision no
    matter how the point was produced; scaling by the dominant magnitude
    makes the tolerance meaningful at every radius.
    """
    t = value_of(p.time)
    s2 = np.sum(value_of(p.space) ** 2, axis=-1)
    k = float(value_of(m.kappa))
    raw = np.abs(s2 - t * t + 1.0 / k)
    return raw / np.maximum(1.0, t * t + s2)


def check_on_manifold(p: LorentzPoint, m: Manifold, tol: float = 1e-9) -> None:
    """Raise if the scaled constraint residual exceeds ``tol`` or the point
    is on the lower sheet."""
    res = hyperboloid_residual(p, m)
    err = float(np.max(res)) if res.size else 0.0
    if err > tol:
        raise ContractViolationError(
            f"point off the hyperboloid: constraint error {err:.3e} > {tol:.1e}"
        )
    if np.min(value_of(p.time)) <= 0.0:
        raise ContractViolationError("point on the lower hyperboloid sheet")
