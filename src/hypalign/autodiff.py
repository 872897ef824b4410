"""Reverse-mode gradient engine over numpy arrays.

The engine covers exactly the operation vocabulary this package needs
(arithmetic, sum, reshape, the transcendentals, acosh, the asinhc
composite, softmax, stop-gradient) rather than being a general autodiff
framework.  Every op computes its numpy value and a hand-derived
vector-Jacobian product and becomes one node through :func:`fused`; the
geometry modules build the lift, the distance matrix, the cone angles and
the uncertainty the same way, and the losses and the trainer build each
loss block and the batch gather as one node too.  :func:`fused` dispatches
on the inputs: if no argument is a :class:`Var`, the plain numpy result is
returned, so the same numeric code serves both the differentiable training
path and fast tape-free evaluation.

Conventions
-----------
* double precision everywhere;
* at non-differentiable kinks (``acosh`` at 1, ``asin``/``acos`` at +-1,
  the hinge at 0, norms at 0) the subgradient 0 is used;
* a forward graph is rebuilt for every evaluation; graphs are never reused
  across parameter updates.  Repeated :func:`backward` calls on the same
  graph are bit-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractViolationError, NumericalConsistencyError

Array = np.ndarray

# Below this threshold the series forms of the smooth sqrt-composites are
# more accurate than the direct formulas (cancellation in the derivatives).
_SERIES_CUTOFF = 1e-4

# How far past its domain edge an acosh or acos argument may drift (float
# error at a kink, clamped) before it counts as an upstream bug and raises.
DRIFT_TOL = 1e-6


class Var:
    """A node of the computation graph: a float64 array plus the recipe for
    propagating an output adjoint to the node's parents."""

    __slots__ = ("value", "name", "_parents", "_vjp")

    # Var has no arithmetic operators (ops are the functions below), and
    # this makes numpy refuse mixed ndarray-Var arithmetic with a TypeError
    # instead of building object arrays.
    __array_ufunc__ = None

    def __init__(
        self,
        value,
        name: str = "leaf",
        _parents: tuple["Var", ...] = (),
        _vjp: Callable[[Array], Sequence[Array]] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var({self.name}, shape={self.value.shape})"


def is_var(x) -> bool:
    return isinstance(x, Var)


def value_of(x) -> Array:
    """Raw float64 array behind ``x`` (Var or array-like)."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def fused(value, name: str, inputs: tuple, vjp: Callable[[Array], Sequence]) -> Var:
    """One tape node for an op over ``inputs``; every op of the engine is
    built here.

    ``value`` is the op's numpy result.  ``vjp(g)`` returns one adjoint per
    entry of ``inputs``, each shaped like ``value`` or like its input; the
    node keeps only the adjoints of inputs that are :class:`Var` and sums
    each down to its input's shape.  With no :class:`Var` among the inputs
    the plain ``value`` is returned.  The tape is bound by per-node
    overhead, so the checks below are a plain loop.
    """
    live, aligned = False, True
    for x in inputs:
        if isinstance(x, Var):
            live = True
            aligned = aligned and x.value.shape == value.shape
        else:
            aligned = False
    if not live:
        return value
    if aligned:
        # every input is live and shaped like the value: the adjoints are
        # the node's as they come
        return Var(value, name, inputs, vjp)
    picks = [(i, x.value.shape) for i, x in enumerate(inputs) if isinstance(x, Var)]

    def node_vjp(g):
        adj = vjp(g)
        return [adj[i] if adj[i].shape == sh else _unbroadcast(adj[i], sh)
                for i, sh in picks]

    return Var(value, name, tuple([inputs[i] for i, _ in picks]), node_vjp)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    return fused(value_of(a) + value_of(b), "add", (a, b), lambda g: (g, g))


def neg(a):
    return fused(-value_of(a), "neg", (a,), lambda g: (-g,))


def sub(a, b):
    return fused(value_of(a) - value_of(b), "sub", (a, b), lambda g: (g, -g))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return fused(av * bv, "mul", (a, b), lambda g: (g * bv, g * av))


def div(a, b):
    av, bv = value_of(a), value_of(b)
    return fused(av / bv, "div", (a, b), lambda g: (g / bv, -g * av / (bv * bv)))


def square(a):
    av = value_of(a)
    return fused(av * av, "square", (a,), lambda g: (2.0 * g * av,))


# ---------------------------------------------------------------------------
# elementwise transcendentals
# ---------------------------------------------------------------------------

def _unary(a, name, fwd, dfd):
    """Unary elementwise op; ``dfd(x, out)`` is the local derivative."""
    x = value_of(a)
    out = fwd(x)
    return fused(out, name, (a,), lambda g: (g * dfd(x, out),))


def exp(a):
    return _unary(a, "exp", np.exp, lambda x, out: out)

def log(a):
    return _unary(a, "log", np.log, lambda x, out: 1.0 / x)

def log1p(a):
    return _unary(a, "log1p", np.log1p, lambda x, out: 1.0 / (1.0 + x))

def sqrt(a):
    def dfd(x, out):
        return np.where(out > 0.0, 0.5 / np.where(out > 0.0, out, 1.0), 0.0)

    return _unary(a, "sqrt", np.sqrt, dfd)


def _acosh_clamp(xv: Array) -> Array:
    """``xv`` clamped to [1, inf); drift below ``1 - DRIFT_TOL`` raises."""
    low = np.min(xv) if xv.size else 1.0
    if low < 1.0 - DRIFT_TOL:
        raise NumericalConsistencyError(
            f"acosh argument {low!r} below 1 by more than {DRIFT_TOL}"
        )
    return np.maximum(xv, 1.0)


def _acosh_deriv(xc: Array) -> Array:
    """acosh' at clamped arguments; the subgradient 0 at 1."""
    denom_sq = xc * xc - 1.0
    safe = denom_sq > 0.0
    return np.where(safe, 1.0 / np.sqrt(np.where(safe, denom_sq, 1.0)), 0.0)


def acosh_clamped(a):
    """acosh with the argument clamped to [1, inf).

    Values below ``1 - DRIFT_TOL`` indicate a bug upstream and raise; values
    in [1 - DRIFT_TOL, 1) are treated as floating-point drift at a
    coincident-point kink, where the subgradient 0 is used.
    """
    xc = _acosh_clamp(value_of(a))
    return fused(np.arccosh(xc), "acosh", (a,), lambda g: (g * _acosh_deriv(xc),))


# ---------------------------------------------------------------------------
# smooth composites of sqrt: entire functions of y = x**2, so they stay
# differentiable through y = 0 (used by the exp/log maps at the origin)
# ---------------------------------------------------------------------------

def _cosh_sqrt_val(y: Array) -> Array:
    small = y < _SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 + ys / 2.0 + ys**2 / 24.0 + ys**3 / 720.0
    direct = np.cosh(np.sqrt(np.where(small, 1.0, y)))
    return np.where(small, series, direct)


def _sinhc_sqrt_val(y: Array) -> Array:
    small = y < _SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 + ys / 6.0 + ys**2 / 120.0 + ys**3 / 5040.0
    r = np.sqrt(np.where(small, 1.0, y))
    direct = np.sinh(r) / r
    return np.where(small, series, direct)


def _asinhc_sqrt_val(y: Array) -> Array:
    small = y < _SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 - ys / 6.0 + 3.0 * ys**2 / 40.0 - 5.0 * ys**3 / 112.0
    r = np.sqrt(np.where(small, 1.0, y))
    direct = np.arcsinh(r) / r
    return np.where(small, series, direct)


def _sinhc_sqrt_deriv(y: Array, out: Array) -> Array:
    """d/dy of ``sinh(sqrt(y))/sqrt(y)``, given ``out`` = its value at ``y``."""
    small = y < _SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = 1.0 / 6.0 + ys / 60.0 + ys**2 / 1680.0
    ysafe = np.where(small, 1.0, y)
    direct = (_cosh_sqrt_val(ysafe) - out) / (2.0 * ysafe)
    return np.where(small, series, direct)


def asinhc_sqrt(a):
    """asinh(sqrt(y))/sqrt(y) as an entire function of y >= 0."""

    def dfd(y, out):
        small = y < _SERIES_CUTOFF
        ys = np.where(small, y, 0.0)
        series = -1.0 / 6.0 + 3.0 * ys / 20.0 - 15.0 * ys**2 / 112.0
        ysafe = np.where(small, 1.0, y)
        direct = (1.0 / np.sqrt(1.0 + ysafe) - out) / (2.0 * ysafe)
        return np.where(small, series, direct)

    return _unary(a, "asinhc_sqrt", _asinhc_sqrt_val, dfd)


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


def reshape(a, shape):
    av = value_of(a)
    return fused(av.reshape(shape), "reshape", (a,), lambda g: (g.reshape(av.shape),))


def _softmax_val(x: Array, axis) -> Array:
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax(a, axis=-1):
    """Stable softmax (max-subtracted)."""
    s = _softmax_val(value_of(a), axis)

    def vjp(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - dot),)

    return fused(s, "softmax", (a,), vjp)


_active_stops = None    # the record/replay context currently entered, if any


class record_stop_gradients:
    """Context manager capturing every stop-gradient value (in call order)
    into ``self.values``, and each stop-gradient node with the Var it stops
    into ``self.stops``.

    Together with :class:`replay_stop_gradients` this lets a
    finite-difference harness evaluate the *surrogate* objective whose
    gradient the tape actually computes: re-running the forward pass under
    replay pins all stopped factors at their recorded base values.
    Neither context nests inside itself or the other.
    """

    def __init__(self):
        self.values: list[Array] = []
        self.stops: list[tuple[Var, Var]] = []

    def __enter__(self):
        global _active_stops
        if _active_stops is not None:
            raise ContractViolationError("stop-gradient record/replay cannot nest")
        _active_stops = self
        return self

    def __exit__(self, *exc):
        global _active_stops
        _active_stops = None
        return False

    def _stopped(self, val: Array) -> Array:
        self.values.append(val.copy())
        return val

    def behind_stops(self, root: Var) -> set[int]:
        """Ids of the nodes that reach ``root`` only through a stop-gradient
        recorded here: the root's value moves with them, its tape gradient
        does not."""
        live = {id(node) for node in _toposort(root)}
        reached = set(live)
        # a stop-gradient inside another one's input was recorded before it
        for node, source in reversed(self.stops):
            if id(node) in reached:
                reached.update(id(n) for n in _toposort(source))
        return reached - live


class replay_stop_gradients(record_stop_gradients):
    """Context manager substituting previously recorded values for every
    stop-gradient encountered, in call order; leaving it with values
    unconsumed raises."""

    def __init__(self, values: list):
        super().__init__()
        self.values = values
        self.cursor = 0

    def __exit__(self, *exc):
        super().__exit__(*exc)
        if exc[0] is None and self.cursor != len(self.values):
            raise ContractViolationError(
                "stop-gradient replay consumed "
                f"{self.cursor}/{len(self.values)} recorded values"
            )
        return False

    def _stopped(self, val: Array) -> Array:
        if self.cursor >= len(self.values):
            raise ContractViolationError("stop-gradient replay ran out of recorded values")
        self.cursor += 1
        return self.values[self.cursor - 1]


def stop_gradient(a):
    """Forward the value, block the adjoint."""
    val = value_of(a)
    if _active_stops is not None:
        val = _active_stops._stopped(val)
    if not is_var(a):
        return val
    node = Var(val, "stop_gradient")
    if _active_stops is not None:
        _active_stops.stops.append((node, a))
    return node


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _sweep(order: list[Var], root: Var, check: bool) -> dict[int, Array]:
    """Accumulate adjoints in reverse topological order; with ``check``,
    raise at the first non-finite adjoint, naming the node it flows into or
    comes out of."""
    grads: dict[int, Array] = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        if check and not np.all(np.isfinite(g)):
            raise NumericalConsistencyError(
                f"non-finite gradient flowing into node '{node.name}'"
            )
        for parent, pg in zip(node._parents, node._vjp(g)):
            if check and not np.all(np.isfinite(pg)):
                raise NumericalConsistencyError(
                    f"non-finite gradient produced by node '{node.name}'"
                )
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def backward(root: Var) -> dict[int, Array]:
    """Reverse-mode sweep from a scalar root.

    Returns adjoints keyed by node ``id``.  Raises if any adjoint turns
    non-finite, naming the offending node.  A non-finite adjoint reaches
    some parentless node, so one check of those after the sweep covers the
    graph; only when it fails is the sweep re-run with a check at every node
    to find the first offender.
    """
    if not is_var(root):
        raise ContractViolationError("backward requires a Var root")
    if root.value.size != 1:
        raise ContractViolationError("backward root must be scalar")
    order = _toposort(root)
    with np.errstate(all="ignore"):
        grads = _sweep(order, root, check=False)
    for node in order:
        if node._parents:
            continue
        g = grads.get(id(node))
        if g is not None and not np.all(np.isfinite(g)):
            _sweep(order, root, check=True)
            # finite adjoints whose sum overflowed at this leaf
            raise NumericalConsistencyError(
                f"non-finite gradient accumulated at leaf '{node.name}'"
            )
    return grads


def gradients(root: Var, params: Mapping[str, Var]) -> dict[str, Array]:
    """Adjoints of ``root`` w.r.t. named leaves; unreached leaves get exact
    zeros."""
    grads = backward(root)
    return {
        name: grads[id(var)] if id(var) in grads else np.zeros_like(var.value)
        for name, var in params.items()
    }


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------

class ParameterStore:
    """Flat registry of named learnable arrays.

    Each parameter is a leaf :class:`Var`; the optimizer replaces
    ``var.value`` between steps, so forward graphs always read the current
    values.
    """

    def __init__(self):
        self._params: dict[str, Var] = {}

    def register(self, name: str, value) -> Var:
        if name in self._params:
            raise ContractViolationError(f"parameter '{name}' already registered")
        var = Var(np.asarray(value, dtype=np.float64), name=name)
        self._params[name] = var
        return var

    def __getitem__(self, name: str) -> Var:
        try:
            return self._params[name]
        except KeyError:
            raise ContractViolationError(f"unknown parameter '{name}'") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Var]]:
        return self._params.items()

    def as_dict(self) -> dict[str, Var]:
        return dict(self._params)

    def snapshot(self) -> dict[str, Array]:
        """Copies of all current values."""
        return {name: var.value.copy() for name, var in self._params.items()}

    def load(self, values: Mapping[str, Array]) -> None:
        if set(values) != set(self._params):
            raise ContractViolationError("parameter name mismatch on load")
        for name, value in values.items():
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != self._params[name].value.shape:
                raise ContractViolationError(
                    f"shape mismatch for parameter '{name}'"
                )
            self._params[name].value = arr.copy()
