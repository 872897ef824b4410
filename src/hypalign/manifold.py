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

:func:`lift` and :func:`pairwise_distance` take plain arrays or autodiff
``Var`` nodes and build one tape node per output; the point helpers are
plain numpy (a ``Var`` point raises ``TypeError``; a learnable ``kappa`` is
read by value).  Single points use shape ``(n,)`` and batches ``(B, n)``;
:func:`lift` and :func:`log_origin` also take a stack of groups
``(G, B, n)``, and :meth:`LorentzPoint.groups` reads groups back out of the
lifted stack for the ops that take points (the entailment ops run over the
same stack; :func:`pairwise_distance` reads one group per side).  On plain
values any leading axes work the same way, ``(..., B, n)``: each row is
computed as alone, and :func:`pairwise_distance` gives one ``(Bp, Bq)``
matrix per leading index.  There a plain ``kappa`` may also carry a run
axis, ``(K,)``: one curvature per run of a stack ``(..., K, B, n)``, which
:func:`lift`, :func:`pairwise_distance` and :func:`hyperbolic_radius` read
through ``autodiff.per_run``, each run computed as alone with its own
curvature (check-grads perturbs ``kappa`` that way); an operand without that
run axis raises.

Double precision keeps the exp/log round trip accurate to ~1e-9 for radii
up to ~45.  The distance is not: ``acosh(-kappa <p,q>_L)`` of a
near-coincident pair reads an argument that is mostly rounding, so its
relative error reaches ~1e3 below radius ``sqrt(kappa)|v|`` 5 and ~6e4 from
5 to 10, and from radius ~11.7 :func:`pairwise_distance` can raise its drift
error on valid near pairs.  Generic pairs stay accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, value_of
from .errors import ContractViolationError, check_domains

KAPPA_MIN = 0.1
KAPPA_MAX = 10.0


@dataclass(frozen=True)
class Manifold:
    """Curvature parameter; immutable once constructed.

    ``kappa`` may be a real number or a learnable ``Var`` in [0.1, 10] (the
    trainer re-projects after every update), or a plain ``(K,)`` array of K
    curvatures, one per run of a stacked forward (``autodiff.per_run``);
    ``errors.check_domains`` checks each run.
    """

    kappa: float | Var

    def __post_init__(self):
        check_domains(self, {"kappa": f"[{KAPPA_MIN}, {KAPPA_MAX}]"})


@dataclass(frozen=True)
class LorentzPoint:
    """A point (or batch of points) on the hyperboloid, split into time and
    space components.  ``time`` has shape ``()``/``(B,)`` and ``space``
    shape ``(n,)``/``(B, n)``."""

    time: object
    space: object

    def groups(self, index) -> "LorentzPoint":
        """Group ``index`` (or a tuple of groups) of a stack lifted along a
        leading group axis, read without a tape node of its own (an
        ``autodiff.Pick`` of each component)."""
        return LorentzPoint(time=ad.pick(self.time, index), space=ad.pick(self.space, index))


def lorentz_inner(p: LorentzPoint, q: LorentzPoint):
    """Lorentzian inner product ``-p_t q_t + <p_s, q_s>``; aligned batches
    combine elementwise."""
    ps, qs = np.asarray(p.space, dtype=float), np.asarray(q.space, dtype=float)
    if ps.shape[-1] != qs.shape[-1]:
        raise ContractViolationError("lorentz_inner: dimension mismatch")
    return np.sum(ps * qs, axis=-1) - np.multiply(p.time, q.time)


def lift(v, m: Manifold) -> LorentzPoint:
    """Origin exponential map of a space-only tangent vector.

    ``exp_o(v) = cosh(sqrt(kappa)|v|) o + sinh(sqrt(kappa)|v|)/(sqrt(kappa)|v|) v``,
    written in terms of ``y = kappa |v|^2`` so the zero vector maps exactly
    to the origin with smooth gradients.  ``v`` is one point ``(n,)``, a
    batch ``(B, n)`` or a stack of groups ``(G, B, n)``; each row is lifted
    on its own.  A plain ``(K,)`` curvature lifts the runs of a stacked
    ``(..., K, B, n)`` each with its own (``autodiff.per_run``).  On the
    tape the time and space components are one node each, with adjoints for
    ``v`` and ``kappa``.
    """
    vv = value_of(v)
    s = (vv * vv).sum(-1)
    kv = ad.per_run(m.kappa, s.shape, 1)
    y = kv * s
    sqrt_k = np.sqrt(kv)
    time = ad._cosh_sqrt_val(y) / sqrt_k
    sinhc_y = ad._sinhc_sqrt_val(y)
    scale = sinhc_y[..., None]
    space = scale * vv

    def time_vjp(g):
        # d cosh(sqrt(y))/dy = sinhc(sqrt(y)) / 2
        return ((g * sqrt_k * sinhc_y)[..., None] * vv,
                ad.sum_all(g * (sinhc_y * s / (2.0 * sqrt_k) - time / (2.0 * kv))))

    def space_vjp(g):
        d_scale = (g * vv).sum(-1) * ad._sinhc_sqrt_deriv(y, sinhc_y)
        return (scale * g + (2.0 * kv * d_scale)[..., None] * vv,
                ad.sum_all(d_scale * s))

    inputs = (v, m.kappa)
    return LorentzPoint(time=ad.fused(time, "lift_time", inputs, time_vjp),
                        space=ad.fused(space, "lift_space", inputs, space_vjp))


def log_origin(p: LorentzPoint, m: Manifold):
    """Origin logarithmic map; exact inverse of :func:`lift` on the upper
    sheet, returning the space-only tangent vector of each row.

    Uses ``asinh(sqrt(kappa)|p_s|)/(sqrt(kappa)|p_s|) p_s``, which is the
    origin specialization of the projection-based log map and is smooth at
    the origin (where it returns the zero vector).
    """
    ps = np.asarray(p.space, dtype=float)
    factor = ad._asinhc_sqrt_val(value_of(m.kappa) * np.sum(ps * ps, axis=-1))
    return np.expand_dims(factor, -1) * ps


def geodesic_distance(p: LorentzPoint, q: LorentzPoint, m: Manifold):
    """Geodesic distance ``sqrt(1/kappa) acosh(-kappa <p,q>_L)`` of aligned
    points.

    The acosh argument is :func:`acosh_argument`'s, clamped to [1, inf);
    drift below 1 beyond ``autodiff.DRIFT_TOL`` raises a numerical error.
    """
    kv = value_of(m.kappa)
    return np.arccosh(ad._acosh_clamp(acosh_argument(lorentz_inner(p, q), kv))) / np.sqrt(kv)


def pairwise_inner(pt, ps, qt, qs):
    """The Lorentz inner products ``<p_i, q_j>_L`` of every pair of rows of
    two plain point batches: one matmul and one outer product, over any
    leading stack axes the batches share (``ps`` ``(..., Bp, n)``, ``pt``
    ``(..., Bp)``)."""
    inner = ps @ qs.swapaxes(-1, -2)
    inner -= pt[..., :, None] * qt[..., None, :]
    return inner


def acosh_argument(inner, kappa, out=None):
    """The unclamped acosh argument ``-kappa <p, q>_L`` of the distances
    whose inner products are ``inner`` (a scalar for one pair), written into
    ``out`` if given (which may be ``inner`` itself).  ``kappa`` is a value,
    or one per stacked batch as :func:`autodiff.per_run` shapes it."""
    z = np.multiply(kappa, inner, out=out)
    return np.negative(z, out=z if isinstance(z, np.ndarray) else None)


def pairwise_distance(p: LorentzPoint, q: LorentzPoint, m: Manifold):
    """All-pairs geodesic distance matrix of shape ``(Bp, Bq)``.

    The acosh argument is :func:`acosh_argument`'s, clamped as in
    :func:`geodesic_distance`.  On the tape this is one node, with adjoints
    for both point batches and ``kappa``.  Each side is one batch, which may
    be one group of a lifted stack (:meth:`LorentzPoint.groups`): the
    matrices of different pairs are never stacked, so each ``(Bp, Bq)``
    array stays small enough for the cache.  Plain batches may carry
    leading stack axes, ``(..., Bp, n)`` against ``(..., Bq, n)``, for a
    ``(..., Bp, Bq)`` stack of matrices, each entry computed as alone, and
    a plain ``(K,)`` curvature then gives matrix ``k`` of a ``(K, Bp, Bq)``
    stack its own; the tape takes 2-D batches only.

    Off the tape (no input a ``Var`` or a ``Pick``, the test
    :func:`autodiff.fused` makes) the distance is built in the inner
    products' own buffer, so the result and the outer product that builds
    it are the only arrays of the matrix's shape.  On the tape the VJP reads
    the inner products and the clamped argument, so the forward keeps three
    such arrays and the VJP works in a few more, updated in place; the two
    paths give the same bits.
    """
    inputs = (p.time, p.space, q.time, q.space, m.kappa)
    pt, ps, qt, qs = (value_of(x) for x in inputs[:4])
    if (ad.is_var(p.space) or ad.is_var(q.space)) and (ps.ndim != 2 or qs.ndim != 2):
        raise ContractViolationError("pairwise_distance takes 2-D point batches")
    if ps.ndim < 2 or qs.ndim < 2:      # a single plain point is a batch of one
        pt, qt, ps, qs = np.atleast_1d(pt), np.atleast_1d(qt), np.atleast_2d(ps), np.atleast_2d(qs)
    kv = ad.per_run(m.kappa, ps.shape, 2)
    inner = pairwise_inner(pt, ps, qt, qs)
    on_tape = any(ad.is_var(x) for x in inputs)
    # off the tape nothing reads inner or zc again: each step overwrites them
    zc = acosh_argument(inner, kv, out=None if on_tape else inner)
    ad._acosh_clamp(zc, out=zc)
    sqrt_k = np.sqrt(kv)
    dist = np.arccosh(zc, out=None if on_tape else zc)
    dist /= sqrt_k
    if not on_tape:
        return dist

    def vjp(g):
        d_z = ad._acosh_deriv(zc)
        d_z *= g
        d_z /= sqrt_k
        d_inner = -kv * d_z
        d_kappa = np.negative(g)
        d_kappa *= dist
        d_kappa /= 2.0 * kv
        d_z *= inner            # d_inner is taken, so d_z's buffer is free
        d_kappa -= d_z
        return (-(d_inner @ qt), d_inner @ qs, -(d_inner.T @ pt), d_inner.T @ ps,
                ad.sum_all(d_kappa))

    return ad.fused(dist, "pairwise_distance", inputs, vjp)


def hyperbolic_radius(x, m: Manifold):
    """Distance from the origin of the hyperboloid point whose space
    component is ``x``: ``(1/sqrt(kappa)) acosh(sqrt(1 + kappa |x|^2))``,
    evaluated as ``asinhc(kappa |x|^2) |x|``.

    Grows like ``|x|`` for small norms and like ``log(2 sqrt(kappa) |x|) /
    sqrt(kappa)`` for large ones; strictly increasing in ``|x|``.  The
    metrics, eval, export and radius uncertainty apply it to a tangent row
    ``v``, where it reads ``asinh(sqrt(kappa)|v|)/sqrt(kappa)``, not ``|v|``.
    A plain ``(K,)`` curvature meets the runs of ``(..., K, B, n)``.
    """
    xv = np.asarray(x, dtype=float)
    s = np.sum(xv * xv, axis=-1)
    return ad._asinhc_sqrt_val(ad.per_run(m.kappa, s.shape, 1) * s) * np.sqrt(s)


def from_space(x, m: Manifold) -> LorentzPoint:
    """Complete a space component to the upper hyperboloid sheet:
    ``[sqrt(|x|^2 + 1/kappa), x]``."""
    xv = np.asarray(x, dtype=float)
    return LorentzPoint(time=np.sqrt(np.sum(xv * xv, axis=-1) + 1.0 / value_of(m.kappa)),
                        space=xv)


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
