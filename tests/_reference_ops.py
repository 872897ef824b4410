"""Elementary tape ops for the tests' op-by-op reference compositions.

The package's tapes build only fused nodes (``hypalign.autodiff``'s module
docstring lists them).  The tests check each fused node against the
composition it replaced, rebuilt from the single-purpose nodes below: each
is one node through ``autodiff.fused``, with its own hand-derived
vector-Jacobian product, and keeps the arithmetic the fused forwards copy,
so the compositions' values can be compared bit for bit.
"""

import numpy as np

import hypalign.autodiff as ad
from hypalign.autodiff import fused, value_of


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def binary(value, name, a, b, vjp):
    """A node over operands that numpy broadcasts against each other: each
    adjoint of ``vjp`` is summed down to its operand's shape, since
    ``autodiff.fused`` takes adjoints shaped like their inputs."""
    shapes = (np.shape(value_of(a)), np.shape(value_of(b)))
    return fused(value, name, (a, b), lambda g: tuple(
        x if x.shape == s else unbroadcast(x, s) for x, s in zip(vjp(g), shapes)))


def add(a, b):
    return binary(value_of(a) + value_of(b), "add", a, b, lambda g: (g, g))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return binary(av * bv, "mul", a, b, lambda g: (g * bv, g * av))


def neg(a):
    return fused(-value_of(a), "neg", (a,), lambda g: (-g,))


def sub(a, b):
    return binary(value_of(a) - value_of(b), "sub", a, b, lambda g: (g, -g))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    return binary(av / bv, "div", a, b, lambda g: (g / bv, -g * av / (bv * bv)))


def square(a):
    av = value_of(a)
    return fused(av * av, "square", (a,), lambda g: (2.0 * g * av,))


# ---------------------------------------------------------------------------
# elementwise transcendentals
# ---------------------------------------------------------------------------

def unary(a, name, fwd, dfd):
    """Unary elementwise op; ``dfd(x, out)`` is the local derivative."""
    x = value_of(a)
    out = fwd(x)
    return fused(out, name, (a,), lambda g: (g * dfd(x, out),))


def exp(a):
    return unary(a, "exp", np.exp, lambda x, out: out)


def log(a):
    return unary(a, "log", np.log, lambda x, out: 1.0 / x)


def log1p(a):
    return unary(a, "log1p", np.log1p, lambda x, out: 1.0 / (1.0 + x))


def sqrt(a):
    def dfd(x, out):
        return np.where(out > 0.0, 0.5 / np.where(out > 0.0, out, 1.0), 0.0)

    return unary(a, "sqrt", np.sqrt, dfd)


def acosh_clamped(a):
    """acosh with the argument clamped by ``autodiff._acosh_clamp``."""
    xc = ad._acosh_clamp(value_of(a))
    return fused(np.arccosh(xc), "acosh", (a,), lambda g: (g * ad._acosh_deriv(xc),))


def asinhc_sqrt(a):
    """asinh(sqrt(y))/sqrt(y) as an entire function of y >= 0."""
    return unary(a, "asinhc_sqrt", ad._asinhc_sqrt_val, where_asinhc_sqrt_deriv)


# ---------------------------------------------------------------------------
# series kernels: both forms over the whole array, chosen by np.where
# ---------------------------------------------------------------------------
# The package's kernels write the series only into the entries below the
# cutoff; these evaluate the series and the direct form everywhere and pick
# per entry, the formulation the package's kernels must match bit for bit.

def where_cosh_sqrt_val(y):
    small = y < ad._SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 + ys / 2.0 + ys**2 / 24.0 + ys**3 / 720.0
    direct = np.cosh(np.sqrt(np.where(small, 1.0, y)))
    return np.where(small, series, direct)


def where_sinhc_sqrt_val(y):
    small = y < ad._SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 + ys / 6.0 + ys**2 / 120.0 + ys**3 / 5040.0
    r = np.sqrt(np.where(small, 1.0, y))
    direct = np.sinh(r) / r
    return np.where(small, series, direct)


def where_asinhc_sqrt_val(y):
    small = y < ad._SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 - ys / 6.0 + 3.0 * ys**2 / 40.0 - 5.0 * ys**3 / 112.0
    r = np.sqrt(np.where(small, 1.0, y))
    direct = np.arcsinh(r) / r
    return np.where(small, series, direct)


def where_sinhc_sqrt_deriv(y, out):
    small = y < ad._SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 / 6.0 + ys / 60.0 + ys**2 / 1680.0
    ysafe = np.where(small, 1.0, y)
    direct = (where_cosh_sqrt_val(ysafe) - out) / (2.0 * ysafe)
    return np.where(small, series, direct)


def where_asinhc_sqrt_deriv(y, out):
    small = y < ad._SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = -1.0 / 6.0 + 3.0 * ys / 20.0 - 15.0 * ys**2 / 112.0
    ysafe = np.where(small, 1.0, y)
    direct = (1.0 / np.sqrt(1.0 + ysafe) - out) / (2.0 * ysafe)
    return np.where(small, series, direct)


# ---------------------------------------------------------------------------
# shape / reduction
# ---------------------------------------------------------------------------

def reduce_sum(a, axis=None):
    av = value_of(a)
    in_shape = av.shape

    def vjp(g):
        if axis is None:
            gg = g
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % len(in_shape) for ax in axes)
            gg = np.expand_dims(g, axes)
        return (np.broadcast_to(gg, in_shape).copy(),)

    return fused(np.sum(av, axis=axis), "sum", (a,), vjp)


def stack(xs):
    """Equally shaped arrays stacked along a new leading (group) axis; the
    batch's stack as the package built it before one gather wrote it.
    Plain arrays are broadcast against each other first, as the gather
    broadcasts a stack of one table's perturbations."""
    values = np.broadcast_arrays(*(value_of(x) for x in xs))
    return fused(np.stack(values), "stack", tuple(xs), lambda g: tuple(g))


def reshape(a, shape):
    av = value_of(a)
    return fused(av.reshape(shape), "reshape", (a,), lambda g: (g.reshape(av.shape),))


def softmax(a, axis=-1):
    """Stable softmax (max-subtracted)."""
    s = ad._softmax_val(value_of(a), axis)

    def vjp(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - dot),)

    return fused(s, "softmax", (a,), vjp)
