"""Reverse-mode gradient engine over numpy arrays.

The engine is the tape and no more: :class:`Var` nodes, :func:`fused`,
:func:`pick`, the backward sweep and the parameter store; it keeps no
module-level state.  Its node vocabulary is what training builds.  A value
held behind a stop-gradient is read off the tape with :func:`value_of`, so
it enters its op as a constant and builds no node.  Every op computes its
numpy value and a hand-derived vector-Jacobian product and becomes one node
through :func:`fused`: the geometry modules build the lift, the distance
matrix, the cone angle and aperture and the uncertainty that way, and the
losses and the trainer build each report component, the temperatures, the
leaks, the weighted total and the batch's gather (one node writing the
stack of its four groups) as one node too.  The plain-numpy kernels those
nodes share (the sqrt composites with their series forms, the acosh clamp,
softmax) sit here as well.  :func:`fused` dispatches on the inputs: if no
argument is on the tape, the plain numpy result is returned, so the same
numeric code serves both the differentiable training path and fast
tape-free evaluation.  An op may read groups of a stacked Var's leading
axis through :func:`pick`, which builds no node of its own: the op's node
hands the sweep one adjoint per picked group, which the sweep adds into
those groups of the stack's adjoint.  On plain values a scalar operand may
carry a run axis, ``(K,)``, which :func:`per_run` shapes against the
operand's runs: the convention is written there once for every op.

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

    def __repr__(self):
        return f"Var({self.name}, shape={self.value.shape})"


class Pick:
    """Groups ``index`` (one group, or a tuple of them) of a :class:`Var`'s
    leading axis, as an input of a fused op; see :func:`pick`."""

    __slots__ = ("base", "index", "value")
    __array_ufunc__ = None

    def __init__(self, base: Var, index):
        self.base = base
        self.index = index
        self.value = base.value[index if isinstance(index, int) else list(index)]


def pick(x, index):
    """Groups ``index`` of ``x``'s leading axis: a plain array, or for a Var
    a :class:`Pick`, which builds no tape node: the node of the op reading it
    takes the Var as its parent and hands the sweep its adjoint per picked
    group (see :func:`fused`)."""
    if isinstance(x, Var):
        return Pick(x, index)
    return np.asarray(x, dtype=np.float64)[index if isinstance(index, int) else list(index)]


def is_var(x) -> bool:
    """Whether ``x`` is on the tape: a :class:`Var` or a :class:`Pick` of one."""
    return isinstance(x, (Var, Pick))


def value_of(x) -> Array:
    """Raw float64 array behind ``x`` (Var, Pick or array-like)."""
    return x.value if isinstance(x, (Var, Pick)) else np.asarray(x, dtype=np.float64)


def per_run(x, shape: tuple, rows: int) -> Array:
    """The value of a scalar ``x`` (curvature, a temperature, a modality
    scale) shaped to meet an operand of ``shape``.

    A 0-d scalar comes back as its value.  On plain values a scalar may
    carry a run axis, ``(K,)``: K runs of the op, run ``j`` reading entry
    ``j`` (as check-grads stacks the scalars' perturbations).  It meets the
    operand's run axis, the axis just before its ``rows`` per-row axes, and
    comes back as ``(K, 1, ..., 1)``: ``(K, 1)`` against per-row values
    ``(..., K, B)`` (``rows=1``), ``(K, 1, 1)`` against a distance matrix
    ``(K, B, B)`` or a batch ``(..., K, B, n)`` (``rows=2``).  An operand
    without that axis raises rather than broadcast the runs over another
    axis of length K, and so does a stacked Var: the tape stays 2-D.
    """
    v = value_of(x)
    if not v.ndim:
        return v
    if is_var(x):
        raise ContractViolationError(f"a scalar stacked over runs {v.shape} cannot be on the tape")
    if v.ndim != 1 or len(shape) <= rows or shape[-1 - rows] != v.shape[0]:
        raise ContractViolationError(
            f"a scalar stacked over runs {v.shape} needs an operand with a run axis of that "
            f"length before its {rows} per-row axes, not {tuple(shape)}")
    return v.reshape(-1, *(1,) * rows)


def run_values(x) -> list:
    """Each run's value of a scalar, as floats: one for a 0-d scalar, K
    for a run stack ``(K,)`` (see :func:`per_run`), so a range check covers
    every run."""
    v = value_of(x)
    return v.ravel().tolist() if v.ndim else [float(v)]


def sum_all(a: Array) -> Array:
    """Sum over every axis; an op's VJP sums the adjoint of a scalar input
    (``kappa``) with it, so that adjoint has the input's shape."""
    return a.sum(axis=tuple(range(a.ndim)))


def fused(value, name: str, inputs: tuple, vjp: Callable[[Array], Sequence]) -> Var:
    """One tape node for an op over ``inputs``; every op of the engine is
    built here.  With nothing on the tape among the inputs the plain
    ``value`` is returned.

    ``value`` is the op's numpy result.  ``vjp(g)`` returns one adjoint per
    entry of ``inputs``, each shaped like its input (a scalar's summed with
    :func:`sum_all`): the sweep adds adjoints as they come, so a wrongly
    shaped one would broadcast silently.  The node keeps only the adjoints
    of inputs that are on the tape.  Each :class:`Var` input is a parent
    entry of its own (a Var listed twice, as ``info_nce`` lists a matrix it
    reads along both axes, gets two, which the sweep adds).  The
    :class:`Pick` inputs of one base Var share one parent entry, whose
    adjoint is a dict from each picked group to the sum of the node's
    adjoints for it, added in route order; :func:`_sweep` adds those sums
    into the base's adjoint, so no node allocates an array of the stack.
    """
    if not any(isinstance(x, (Var, Pick)) for x in inputs):
        return value
    parents: list[Var] = []
    routes = []             # (input position, parent position, pick index or None)
    bases: dict[int, int] = {}
    for i, x in enumerate(inputs):
        if isinstance(x, Var):
            routes.append((i, len(parents), None))
            parents.append(x)
        elif isinstance(x, Pick):
            k = bases.get(id(x.base))
            if k is None:
                k = bases[id(x.base)] = len(parents)
                parents.append(x.base)
            routes.append((i, k, x.index))

    def node_vjp(g):
        adj = vjp(g)
        out = [None] * len(parents)
        for i, k, index in routes:
            a = adj[i]
            if index is None:
                out[k] = a
                continue
            sums = out[k]
            if sums is None:
                sums = out[k] = {}
            for group, ga in ((index, a),) if isinstance(index, int) else zip(index, a):
                sums[group] = ga if group not in sums else sums[group] + ga
        return out

    return Var(value, name, tuple(parents), node_vjp)


# ---------------------------------------------------------------------------
# numeric kernels the fused nodes share (plain numpy, no tape)
# ---------------------------------------------------------------------------

def _acosh_clamp(xv: Array, out: Array | None = None) -> Array:
    """``xv`` clamped to [1, inf), written into ``out`` if given (which may
    be ``xv`` itself); drift below ``1 - DRIFT_TOL`` raises.

    Values in [1 - DRIFT_TOL, 1) are floating-point drift at a
    coincident-point kink, where the subgradient 0 is used."""
    low = np.min(xv) if xv.size else 1.0
    if low < 1.0 - DRIFT_TOL:
        raise NumericalConsistencyError(
            f"acosh argument {low!r} below 1 by more than {DRIFT_TOL}"
        )
    return np.maximum(xv, 1.0, out=out)


def _acosh_deriv(xc: Array) -> Array:
    """acosh' ``1/sqrt(xc^2 - 1)`` at clamped arguments, the subgradient 0
    at 1, built in place in one array."""
    d = xc * xc
    d -= 1.0
    safe = d > 0.0
    np.sqrt(d, out=d, where=safe)
    np.divide(1.0, d, out=d, where=safe)
    d[~safe] = 0.0
    return d


# smooth composites of sqrt: entire functions of y = x**2, so they stay
# differentiable through y = 0 (the exp/log maps and the radius at the origin)

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


def _asinhc_sqrt_deriv(y: Array, out: Array) -> Array:
    """d/dy of ``asinh(sqrt(y))/sqrt(y)``, given ``out`` = its value at ``y``."""
    small = y < _SERIES_CUTOFF
    ys = np.where(small, y, 0.0)
    series = -1.0 / 6.0 + 3.0 * ys / 20.0 - 15.0 * ys**2 / 112.0
    ysafe = np.where(small, 1.0, y)
    direct = (1.0 / np.sqrt(1.0 + ysafe) - out) / (2.0 * ysafe)
    return np.where(small, series, direct)


def _softmax_val(x: Array, axis) -> Array:
    """Stable softmax (max-subtracted)."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


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


def _finite(adjoint) -> bool:
    """Whether an adjoint (an array, or a dict of picked groups' sums) is
    finite everywhere."""
    if isinstance(adjoint, dict):
        return all(np.all(np.isfinite(a)) for a in adjoint.values())
    return bool(np.all(np.isfinite(adjoint)))


def _sweep(order: list[Var], root: Var, check: bool) -> dict[int, Array]:
    """Accumulate adjoints in reverse topological order and return the
    parentless nodes'; with ``check``, raise at the first non-finite
    adjoint, naming the node it flows into or comes out of.

    A node's adjoint is dropped once its VJP has run.  Contributions are
    added in the order they arrive, in place only into arrays the sweep
    allocated itself (``owned``), never into one a VJP returned:
    ``weighted_total`` hands three parents the same array, and a VJP may
    hand out views of its adjoint.  A pick parent's per-group sums go into
    one C-ordered accumulator per base.  An owned sum is C-ordered, the
    layout ``a + b`` gives whenever either operand is, so the reductions
    downstream see the layout that out-of-place sums would give.
    """
    grads: dict[int, Array] = {id(root): np.ones_like(root.value)}
    owned: set[int] = set()
    for node in reversed(order):
        if not node._parents:
            continue
        g = grads.pop(id(node))
        if check and not _finite(g):
            raise NumericalConsistencyError(
                f"non-finite gradient flowing into node '{node.name}'"
            )
        for parent, pg in zip(node._parents, node._vjp(g)):
            if check and not _finite(pg):
                raise NumericalConsistencyError(
                    f"non-finite gradient produced by node '{node.name}'"
                )
            key = id(parent)
            acc = grads.get(key)
            if isinstance(pg, dict):
                if acc is None:
                    acc = np.zeros(parent.value.shape)
                elif key not in owned:
                    acc = acc.copy()
                grads[key] = acc
                owned.add(key)
                for group, ga in pg.items():
                    acc[group] += ga
            elif acc is None:
                grads[key] = pg
            elif key in owned:
                np.add(acc, pg, out=acc)
            else:
                acc = grads[key] = acc + pg
                if isinstance(acc, np.ndarray) and acc.flags.c_contiguous:
                    owned.add(key)
    return grads


def backward(root: Var) -> dict[int, Array]:
    """Reverse-mode sweep from a scalar root.

    Returns the adjoints of the graph's parentless nodes (its leaves),
    keyed by node ``id``.  Raises if any adjoint turns non-finite, naming
    the offending node.  A non-finite adjoint reaches some leaf, so one
    check of those after the sweep covers the graph; only when it fails is
    the sweep re-run with a check at every node to find the first offender.
    """
    if not isinstance(root, Var):
        raise ContractViolationError("backward requires a Var root")
    if root.value.size != 1:
        raise ContractViolationError("backward root must be scalar")
    order = _toposort(root)
    with np.errstate(all="ignore"):
        grads = _sweep(order, root, check=False)
    for node in order:
        if node._parents:
            continue
        if not np.all(np.isfinite(grads[id(node)])):
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
    """Registry of named learnable arrays over one flat buffer.

    Each parameter is a leaf :class:`Var` whose value is a view into
    ``flat``, one contiguous float64 vector holding the parameters in
    registration order.  Every writer (the optimizer, the trainer's
    projection) writes into those views in place, so forward
    graphs always read the current values and the optimizer can update the
    whole vector at once; rebinding a ``value`` detaches it from ``flat``,
    and the optimizer refuses such a store.
    """

    def __init__(self):
        self._params: dict[str, Var] = {}
        self._layout: dict[str, tuple[slice, tuple]] = {}
        self.flat = np.zeros(0)

    def register(self, name: str, value) -> Var:
        """A new leaf holding a copy of ``value``, appended to ``flat``
        (which is reallocated, with every value re-pointed into it)."""
        if name in self._params:
            raise ContractViolationError(f"parameter '{name}' already registered")
        arr = np.asarray(value, dtype=np.float64)
        start = self.flat.size
        self.flat = np.concatenate([self.flat, arr.ravel()])
        self._layout[name] = (slice(start, self.flat.size), arr.shape)
        var = self._params[name] = Var(arr, name=name)
        for key, view in self.views(self.flat).items():
            self._params[key].value = view
        return var

    def views(self, flat: Array) -> dict[str, Array]:
        """Each parameter's view into ``flat``, a vector laid out like the
        store's own buffer."""
        return {name: flat[part].reshape(shape) for name, (part, shape) in self._layout.items()}

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
