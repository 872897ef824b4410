"""Geometric uncertainty of an embedding and its batch normalization.

Uncertainty is ``softplus(-|x|_2)``: highest (ln 2) at the origin, falling
monotonically toward 0 as the embedding moves outward.  Because the
hyperbolic radius is itself strictly increasing in the Euclidean norm of
the tangent parameterization, this is a smooth, strictly decreasing
function of the radius.  An explicit-radius variant (softplus of the
negative hyperbolic radius) is available for the ablation comparison.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import ContractViolationError
from .manifold import Manifold, hyperbolic_radius

LN2 = math.log(2.0)


def uncertainty(x):
    """``softplus(-|x|_2)`` per row; range (0, ln 2] for nonzero inputs.

    The argument of softplus is never positive, so ``log1p(exp(.))`` is the
    numerically stable form (no overflow up to arbitrarily large norms).
    One tape node; the gradient at the zero vector is the subgradient 0.
    """
    xv = value_of(x)
    norm = np.linalg.norm(xv, axis=-1)
    decay = np.exp(-norm)
    u = np.log1p(decay)

    def vjp(g):
        safe = np.expand_dims(norm > 0.0, -1)
        unit = np.where(safe, xv / np.where(safe, np.expand_dims(norm, -1), 1.0), 0.0)
        return (np.expand_dims(-g * decay / (1.0 + decay), -1) * unit,)

    return ad.fused(u, "uncertainty", (x,), vjp)


def uncertainty_from_radius(x, m: Manifold):
    """Ablation variant: softplus of the negative hyperbolic radius."""
    return ad.log1p(ad.exp(ad.neg(hyperbolic_radius(x, m))))


def normalize_uncertainty(u):
    """Softmax of an uncertainty vector (max-subtracted); order-preserving,
    entries positive and summing to 1."""
    if value_of(u).size == 0:
        raise ContractViolationError("cannot normalize an empty uncertainty vector")
    return ad.softmax(u, axis=-1)


def entropy(w) -> float:
    """Shannon entropy ``-sum w_i log w_i`` with ``0 log 0 := 0`` of a plain
    weight vector, validated as normalized."""
    wv = np.asarray(w, dtype=np.float64)
    if wv.size == 0:
        raise ContractViolationError("entropy of an empty weight vector")
    if np.any(wv < 0.0) or abs(float(np.sum(wv)) - 1.0) > 1e-9:
        raise ContractViolationError("entropy input is not a normalized weight vector")
    pos = wv > 0.0
    return float(-np.sum(wv[pos] * np.log(wv[pos])))
