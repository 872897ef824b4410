"""Geometric uncertainty of an embedding and its batch normalization.

Uncertainty is ``softplus(-|x|_2)`` of a tangent vector ``x``: ``|x|`` is
the lifted point's geodesic distance from the origin, so it is ln 2 there
and falls toward 0 outward.  The ablation variant applies
:func:`hyperbolic_radius`, defined on a hyperboloid point's space
component, to ``x`` itself: ``asinh(sqrt(kappa)|x|)/sqrt(kappa)``, a
monotone, ``kappa``-dependent compression of that radius.  Both are one tape
node each and work row by row over any leading axes, so one call serves a
batch ``(B, n)`` or a stack of groups ``(G, B, n)``, stacked batches
``(G, K, B, n)`` included.  :func:`normalize_uncertainty` and
:func:`entropy` are plain numpy and work per row over the last axis;
calibration reads them inside its own node.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import ContractViolationError
from .manifold import Manifold, hyperbolic_radius


def uncertainty(x):
    """``softplus(-|x|_2)`` per row; range (0, ln 2] for nonzero inputs.

    The argument of softplus is never positive, so ``log1p(exp(.))`` is the
    numerically stable form (no overflow up to arbitrarily large norms).
    One tape node; the gradient at the zero vector is the subgradient 0.
    """
    xv = value_of(x)
    norm = ad._row_norm(xv)
    decay = np.exp(-norm)
    u = np.log1p(decay)

    def vjp(g):
        safe = (norm > 0.0)[..., None]
        unit = np.where(safe, xv / np.where(safe, norm[..., None], 1.0), 0.0)
        return ((-g * decay / (1.0 + decay))[..., None] * unit,)

    return ad.fused(u, "uncertainty", (x,), vjp)


def uncertainty_from_radius(x, m: Manifold):
    """Ablation variant: ``softplus(-r)`` per row with ``r =
    asinhc(kappa |x|^2) |x|``, :func:`hyperbolic_radius` of the tangent
    vector ``x`` itself (the lifted point's radius is ``|x|``); one tape
    node, with adjoints for ``x`` and ``kappa`` (through ``asinhc``'s series
    and direct forms) and the subgradient 0 at the zero vector."""
    xv, kv = value_of(x), value_of(m.kappa)
    decay = np.exp(-hyperbolic_radius(xv, m))
    u = np.log1p(decay)

    def vjp(g):
        # dr/dy = |x| asinhc'(y) with dy/dx = 2 kappa x, and dr/d|x| = asinhc(y)
        s = np.sum(xv * xv, axis=-1)
        norm = np.sqrt(s)
        y = kv * s
        asinhc = ad._asinhc_sqrt_val(y)
        d_r = -g * decay / (1.0 + decay)
        d_y = d_r * norm * ad._asinhc_sqrt_deriv(y, asinhc)
        safe = norm > 0.0
        d_norm = np.where(safe, d_r * asinhc / np.where(safe, norm, 1.0), 0.0)
        return ((2.0 * kv * d_y + d_norm)[..., None] * xv, ad.sum_all(d_y * s))

    return ad.fused(u, "uncertainty_from_radius", (x, m.kappa), vjp)


def normalize_uncertainty(u):
    """Softmax of a plain uncertainty vector (max-subtracted);
    order-preserving, entries positive and summing to 1."""
    uv = np.asarray(u, dtype=np.float64)
    if uv.size == 0:
        raise ContractViolationError("cannot normalize an empty uncertainty vector")
    return ad._softmax_val(uv, -1)


def entropy(w):
    """Shannon entropy ``-sum w_i log w_i`` with ``0 log 0 := 0`` of a plain
    weight vector, validated as normalized; of each row of a stack of them
    (over the last axis, each row validated on its own)."""
    wv = np.asarray(w, dtype=np.float64)
    if wv.size == 0:
        raise ContractViolationError("entropy of an empty weight vector")
    if (wv < 0.0).any() or (np.abs(wv.sum(-1) - 1.0) > 1e-9).any():
        raise ContractViolationError("entropy input is not a normalized weight vector")
    return -(wv * np.log(np.where(wv > 0.0, wv, 1.0))).sum(-1)
