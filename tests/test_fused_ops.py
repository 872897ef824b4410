"""The fused geometry tape ops -- ``lift``, ``pairwise_distance``,
``exterior_angle``, ``aperture``, ``uncertainty`` and the radius ablation's
``uncertainty_from_radius`` -- each one tape node (two for ``lift``) with a
hand-derived vector-Jacobian product.

Three references: the straight-line oracles in ``_oracles.py``, central
finite differences for every input (``kappa`` both live and constant;
batched and single points, and stacks of groups read through
``LorentzPoint.groups`` as the training objective reads them), and the
op-by-op composition the fused nodes replaced, rebuilt below from the
single-purpose tape nodes of ``_reference_ops.py`` and a few local ones.
The fused forward keeps the composition's arithmetic, so values must agree
bit for bit, and each group of a stacked call must equal the call on that
group alone.
"""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import Var, value_of
from hypalign.entailment import aperture, exterior_angle
from hypalign.errors import ContractViolationError, NumericalConsistencyError
from hypalign.losses import GROUPS, Batch, LossConfig, total_loss
from hypalign.manifold import (
    LorentzPoint,
    Manifold,
    lift,
    pairwise_distance,
)
from hypalign.uncertainty import uncertainty, uncertainty_from_radius

import _oracles as orc
import _reference_ops as ref

K_CONST = 0.1


# ---------------------------------------------------------------------------
# the unfused composition: one tape node per elementary op
# ---------------------------------------------------------------------------

def _cosh_sqrt(a):
    return ref.unary(a, "cosh_sqrt", ad._cosh_sqrt_val,
                     lambda y, out: 0.5 * ad._sinhc_sqrt_val(y))


def _sinhc_sqrt(a):
    return ref.unary(a, "sinhc_sqrt", ad._sinhc_sqrt_val, ad._sinhc_sqrt_deriv)


def _l2norm(a):
    av = value_of(a)
    n = np.linalg.norm(av, axis=-1)

    def vjp(g):
        safe = np.expand_dims(n, -1) > 0.0
        unit = np.where(safe, av / np.where(safe, np.expand_dims(n, -1), 1.0), 0.0)
        return (np.expand_dims(g, -1) * unit,)

    return ad.fused(n, "l2norm", (a,), vjp)


def _matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ContractViolationError("matmul supports 2-D operands only")
    return ad.fused(av @ bv, "matmul", (a, b), lambda g: (g @ bv.T, av.T @ g))


def _transpose(a):
    return ad.fused(value_of(a).T, "transpose", (a,), lambda g: (g.T,))


def _outer(a, b):
    return _matmul(ref.reshape(a, (-1, 1)), ref.reshape(b, (1, -1)))


def _asin_saturating(a):
    xv = value_of(a)
    xc = np.clip(xv, 0.0, 1.0)

    def dfd(x, out):
        interior = (x > 0.0) & (x < 1.0)
        return np.where(interior, 1.0 / np.sqrt(np.where(interior, 1.0 - xc * xc, 1.0)), 0.0)

    return ref.unary(a, "asin", lambda x: np.arcsin(np.clip(x, 0.0, 1.0)), dfd)


def _acos_clamped(a):
    xc = np.clip(value_of(a), -1.0, 1.0)

    def dfd(x, out):
        interior = np.abs(x) < 1.0
        return np.where(interior, -1.0 / np.sqrt(np.where(interior, 1.0 - xc * xc, 1.0)), 0.0)

    return ref.unary(a, "acos", lambda x: np.arccos(np.clip(x, -1.0, 1.0)), dfd)


def _lorentz_inner(p, q):
    return ref.sub(ref.reduce_sum(ref.mul(p.space, q.space), axis=-1), ref.mul(p.time, q.time))


def unfused_lift(v, m):
    y = ref.mul(m.kappa, ref.reduce_sum(ref.square(v), axis=-1))
    scale = _sinhc_sqrt(y)
    if value_of(v).ndim >= 2:
        scale = ref.reshape(scale, value_of(y).shape + (1,))
    return LorentzPoint(time=ref.div(_cosh_sqrt(y), ref.sqrt(m.kappa)),
                        space=ref.mul(scale, v))


def unfused_pairwise_distance(p, q, m):
    inner = ref.sub(_matmul(p.space, _transpose(q.space)), _outer(p.time, q.time))
    z = ref.neg(ref.mul(m.kappa, inner))
    return ref.div(ref.acosh_clamped(z), ref.sqrt(m.kappa))


def unfused_exterior_angle(p, q, m):
    beta = ref.mul(m.kappa, _lorentz_inner(p, q))
    num = ref.add(q.time, ref.mul(p.time, beta))
    den = ref.mul(_l2norm(p.space), ref.sqrt(ref.sub(ref.square(beta), 1.0)))
    return _acos_clamped(ref.div(num, den))


def unfused_aperture(p, k, m):
    return _asin_saturating(ref.div(2.0 * k, ref.mul(ref.sqrt(m.kappa), _l2norm(p.space))))


def unfused_uncertainty(x):
    return ref.log1p(ref.exp(ref.neg(_l2norm(x))))


def unfused_uncertainty_from_radius(x, m):
    # the radius asinhc(kappa |x|^2) |x| and its softplus: nine nodes
    s = ref.reduce_sum(ref.square(x), axis=-1)
    radius = ref.mul(ref.asinhc_sqrt(ref.mul(m.kappa, s)), ref.sqrt(s))
    return ref.log1p(ref.exp(ref.neg(radius)))


# ---------------------------------------------------------------------------
# each op as a function of named arrays, fused and unfused
# ---------------------------------------------------------------------------

def _point(t, s):
    return LorentzPoint(time=t, space=s)


# a stack of G_STACK groups read as the training objective reads its lifted
# stack: the matrix reads one group per side, the cone ops a stack of
# apex/member groups with an apex used twice
G_STACK = 3
PAIR = (0, 2)
APEXES, MEMBERS = (2, 0, 2), (1, 1, 0)


def _outputs(op, impl, a):
    """Outputs of ``impl`` (the fused op or its unfused reference) on the
    named inputs ``a``, as a tuple; a stack of lifted groups comes as ``t``
    and ``s``."""
    if op == "lift":
        p = impl(a["v"], Manifold(a["kappa"]))
        return p.time, p.space
    if op == "uncertainty":
        return (impl(a["x"]),)
    m = Manifold(a["kappa"])
    if op == "uncertainty_from_radius":
        return (impl(a["x"], m),)
    if "s" in a:
        stack = _point(a["t"], a["s"])
        if op == "pairwise_distance":
            return (impl(stack.groups(PAIR[0]), stack.groups(PAIR[1]), m),)
        if op == "aperture":
            return (impl(stack.groups(APEXES), K_CONST, m),)
        return (impl(stack.groups(APEXES), stack.groups(MEMBERS), m),)
    p = _point(a["pt"], a["ps"])
    if op == "aperture":
        return (impl(p, K_CONST, m),)
    return (impl(p, _point(a["qt"], a["qs"]), m),)


FUSED = {"lift": lift, "pairwise_distance": pairwise_distance,
         "exterior_angle": exterior_angle, "aperture": aperture,
         "uncertainty": uncertainty, "uncertainty_from_radius": uncertainty_from_radius}
UNFUSED = {"lift": unfused_lift, "pairwise_distance": unfused_pairwise_distance,
           "exterior_angle": unfused_exterior_angle, "aperture": unfused_aperture,
           "uncertainty": unfused_uncertainty,
           "uncertainty_from_radius": unfused_uncertainty_from_radius}


def _lifted(rng, shape, kappa, radii=(0.4, 2.0)):
    """Time and space arrays of lifted random tangents of norm in ``radii``."""
    v = rng.normal(size=shape)
    v *= rng.uniform(*radii, size=shape[:-1] + (1,)) / np.linalg.norm(v, axis=-1, keepdims=True)
    p = lift(v, Manifold(kappa))
    return np.asarray(p.time, dtype=float), p.space


def make_inputs(op, layout, kappa, seed=0):
    """Named input arrays for ``op``; ``layout`` is ``batched``, ``single``
    (one point, or for the distance matrix one row against a batch) or
    ``stacked`` (``G_STACK`` groups of a batch, lifted as one stack for the
    ops that take points)."""
    rng = np.random.default_rng(seed)
    n, b = 5, 4
    if layout == "stacked":
        shape = (G_STACK, b, n)
        if op == "lift":
            return {"v": rng.normal(size=shape), "kappa": kappa}
        if op == "uncertainty":
            return {"x": rng.normal(size=shape)}
        if op == "uncertainty_from_radius":
            return {"x": rng.normal(size=shape), "kappa": kappa}
        t, s = _lifted(rng, shape, kappa, radii=(0.5, 3.0) if op == "aperture" else (0.4, 2.0))
        return {"t": t, "s": s, "kappa": kappa}
    lead = (b,) if layout == "batched" else ()
    if op == "lift":
        return {"v": rng.normal(size=lead + (n,)), "kappa": kappa}
    if op == "uncertainty":
        return {"x": rng.normal(size=lead + (n,))}
    if op == "uncertainty_from_radius":
        return {"x": rng.normal(size=lead + (n,)), "kappa": kappa}
    if op == "aperture":
        pt, ps = _lifted(rng, lead + (n,), kappa, radii=(0.5, 3.0))
        return {"pt": pt, "ps": ps, "kappa": kappa}
    if op == "pairwise_distance":
        pt, ps = _lifted(rng, ((b,) if layout == "batched" else (1,)) + (n,), kappa)
        qt, qs = _lifted(rng, (b + 1, n), kappa)
        return {"pt": pt, "ps": ps, "qt": qt, "qs": qs, "kappa": kappa}
    pt, ps = _lifted(rng, lead + (n,), kappa)
    qt, qs = _lifted(rng, (b, n), kappa)       # a single apex against b members
    return {"pt": pt, "ps": ps, "qt": qt, "qs": qs, "kappa": kappa}


def tape_adjoints(op, impl, arrays, live, weights):
    """Adjoints of ``sum_k <w_k, out_k>`` for the ``live`` inputs."""
    inputs = {k: Var(np.array(v, dtype=float), name=k) if k in live else v
              for k, v in arrays.items()}
    outs = _outputs(op, impl, inputs)
    root = ref.reduce_sum(ref.mul(outs[0], weights[0]))
    for o, w in zip(outs[1:], weights[1:]):
        root = ref.add(root, ref.reduce_sum(ref.mul(o, w)))
    return ad.gradients(root, {k: inputs[k] for k in live})


def fd_adjoints(op, arrays, live, weights, h=1e-6):
    def f(vals):
        return sum(float(np.sum(value_of(o) * w))
                   for o, w in zip(_outputs(op, FUSED[op], vals), weights))

    out = {}
    for k in live:
        x = np.array(arrays[k], dtype=float)
        g = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            vals = dict(arrays)
            for sign in (1.0, -1.0):
                xs = x.copy()
                xs[i] += sign * h
                vals[k] = xs
                g[i] += sign * f(vals) / (2.0 * h)
        out[k] = g
    return out


CASES = [(op, layout, kappa_live)
         for op in FUSED for layout in ("batched", "single", "stacked")
         for kappa_live in (True, False)
         if not (op == "uncertainty" and not kappa_live)]


def _case_id(case):
    op, layout, kappa_live = case
    if op == "uncertainty":
        return f"{op}-{layout}"
    return f"{op}-{layout}-kappa_{'var' if kappa_live else 'float'}"


def _live(arrays, kappa_live):
    return [k for k in arrays if k != "kappa" or kappa_live]


def _weights(op, arrays, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=value_of(o).shape) for o in _outputs(op, FUSED[op], arrays)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestFusedValues:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_bitwise_equal_to_unfused(self, case):
        op, layout, kappa_live = case
        arrays = make_inputs(op, layout, 1.3)
        fused_plain = _outputs(op, FUSED[op], arrays)
        unfused_plain = _outputs(op, UNFUSED[op], arrays)
        live = _live(arrays, kappa_live)
        fused_tape = _outputs(op, FUSED[op], {k: Var(np.array(v, dtype=float)) if k in live
                                              else v for k, v in arrays.items()})
        for a, b, c in zip(fused_plain, unfused_plain, fused_tape):
            assert not ad.is_var(a)          # the plain-numpy fast path
            assert ad.is_var(c)
            assert np.array_equal(a, b)
            assert np.array_equal(value_of(c), a)

    def test_one_node_each(self):
        rng = np.random.default_rng(2)
        kappa = Var(0.8)
        m = Manifold(kappa)
        p = lift(Var(rng.normal(size=(3, 4))), m)
        q = lift(Var(rng.normal(size=(3, 4))), m)
        assert (p.time.name, p.space.name) == ("lift_time", "lift_space")
        for node, name in ((pairwise_distance(p, q, m), "pairwise_distance"),
                           (exterior_angle(p, q, m), "exterior_angle"),
                           (aperture(p, K_CONST, m), "aperture"),
                           (uncertainty(p.space), "uncertainty"),
                           (uncertainty_from_radius(p.space, m), "uncertainty_from_radius")):
            assert node.name == name
            assert all(parent.name in ("lift_time", "lift_space", "leaf")
                       for parent in node._parents)

    @pytest.mark.parametrize("kappa", (0.1, 1.0, 10.0))
    def test_match_scalar_oracles(self, kappa):
        rng = np.random.default_rng(3)
        m = Manifold(kappa)
        v = rng.normal(size=(6, 4)) * 0.7
        p, q = lift(v, m), lift(rng.normal(size=(6, 4)) * 0.7, m)
        pts = [(float(t), list(s)) for t, s in zip(value_of(p.time), value_of(p.space))]
        qts = [(float(t), list(s)) for t, s in zip(value_of(q.time), value_of(q.space))]
        for i in range(6):
            t, s = orc.lift_scalar(list(v[i]), kappa)
            assert value_of(p.time)[i] == pytest.approx(t, rel=1e-13)
            np.testing.assert_allclose(value_of(p.space)[i], s, rtol=1e-13, atol=1e-15)
        d = value_of(pairwise_distance(p, q, m))
        phi = value_of(exterior_angle(p, q, m))
        omega = value_of(aperture(p, K_CONST, m))
        u = value_of(uncertainty(v))
        for i in range(6):
            for j in range(6):
                assert d[i, j] == pytest.approx(
                    orc.distance_scalar(pts[i], qts[j], kappa), rel=1e-10)
            assert phi[i] == pytest.approx(
                orc.exterior_angle_scalar(pts[i], qts[i], kappa), rel=1e-10)
            assert omega[i] == pytest.approx(
                orc.aperture_scalar(pts[i], K_CONST, kappa), rel=1e-12)
            assert u[i] == pytest.approx(orc.uncertainty_scalar(list(v[i])), rel=1e-13)


class TestFusedAdjoints:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_matches_finite_differences(self, case):
        op, layout, kappa_live = case
        arrays = make_inputs(op, layout, 1.3)
        live = _live(arrays, kappa_live)
        weights = _weights(op, arrays)
        tape = tape_adjoints(op, FUSED[op], arrays, live, weights)
        fd = fd_adjoints(op, arrays, live, weights)
        for k in live:
            assert np.shape(tape[k]) == np.shape(arrays[k]), k
            np.testing.assert_allclose(tape[k], fd[k], rtol=1e-6, atol=1e-7, err_msg=k)

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_matches_unfused_composition(self, case):
        op, layout, kappa_live = case
        arrays = make_inputs(op, layout, 0.7, seed=4)
        live = _live(arrays, kappa_live)
        weights = _weights(op, arrays)
        fused = tape_adjoints(op, FUSED[op], arrays, live, weights)
        unfused = tape_adjoints(op, UNFUSED[op], arrays, live, weights)
        for k in live:
            np.testing.assert_allclose(fused[k], unfused[k], rtol=1e-10, atol=1e-12,
                                       err_msg=k)

    @pytest.mark.parametrize("y", [0.0, 1e-9, 1e-4 * (1 - 1e-3), 1e-4 * (1 + 1e-3), 0.5])
    def test_lift_both_sides_of_series_cutoff(self, y):
        # kappa |v|^2 = y; the series form serves below the cutoff
        kappa = 1.0
        direction = np.array([0.6, -0.8, 0.0])
        arrays = {"v": direction * np.sqrt(y / kappa), "kappa": kappa}
        live = ["v", "kappa"]
        weights = _weights("lift", arrays, seed=5)
        fused = tape_adjoints("lift", lift, arrays, live, weights)
        unfused = tape_adjoints("lift", unfused_lift, arrays, live, weights)
        fd = fd_adjoints("lift", arrays, live, weights, h=1e-7)
        for k in live:
            np.testing.assert_allclose(fused[k], unfused[k], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(fused[k], fd[k], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 0.3, 1.0, 3.0])
    def test_radius_within_rounding_of_composition(self, scale):
        # forward bits equal the nine-node composition's; each adjoint
        # agrees to 1e-12 of its largest entry
        rng = np.random.default_rng(10)
        arrays = {"x": rng.normal(size=(6, 5)) * scale, "kappa": 0.9}
        m = Manifold(arrays["kappa"])
        assert np.array_equal(uncertainty_from_radius(arrays["x"], m),
                              value_of(unfused_uncertainty_from_radius(arrays["x"], m)))
        live = ["x", "kappa"]
        weights = _weights("uncertainty_from_radius", arrays, seed=11)
        fused = tape_adjoints("uncertainty_from_radius", uncertainty_from_radius,
                              arrays, live, weights)
        unfused = tape_adjoints("uncertainty_from_radius", unfused_uncertainty_from_radius,
                                arrays, live, weights)
        for k in live:
            assert np.max(np.abs(fused[k] - unfused[k])) <= 1e-12 * np.max(np.abs(unfused[k]))

    @pytest.mark.parametrize("y", [0.0, 1e-9, 1e-4 * (1 - 1e-3), 1e-4 * (1 + 1e-3), 0.5])
    def test_radius_both_sides_of_series_cutoff(self, y):
        # kappa |x|^2 = y on every row; asinhc's series form serves below
        # the cutoff
        kappa = 1.3
        direction = np.array([[0.6, -0.8, 0.0], [0.0, 0.28, 0.96]])
        arrays = {"x": direction * np.sqrt(y / kappa), "kappa": kappa}
        live = ["x", "kappa"]
        weights = _weights("uncertainty_from_radius", arrays, seed=12)
        fused = tape_adjoints("uncertainty_from_radius", uncertainty_from_radius,
                              arrays, live, weights)
        unfused = tape_adjoints("uncertainty_from_radius", unfused_uncertainty_from_radius,
                                arrays, live, weights)
        # |x| curves like 1/|x|, so the difference step shrinks with it
        fd = fd_adjoints("uncertainty_from_radius", arrays, live, weights,
                         h=1e-7 if y > 1e-6 else 1e-9)
        for k in live:
            np.testing.assert_allclose(fused[k], unfused[k], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(fused[k], fd[k], rtol=1e-6, atol=1e-7)

    def test_kinks_take_subgradient_zero(self):
        m = Manifold(Var(1.0))
        # the zero vector: uncertainty's norm kink
        x = Var(np.zeros((2, 2)))
        assert np.all(ad.gradients(ref.reduce_sum(uncertainty(x)), {"x": x})["x"] == 0.0)
        # the aperture plateau: a saturated apex gets no gradient
        s = Var(np.array([[0.01, 0.0]]))
        g = ad.gradients(ref.reduce_sum(aperture(_point(1.0, s), K_CONST, m)), {"s": s})
        assert np.all(g["s"] == 0.0)
        # a coincident pair in the distance matrix: acosh at exactly 1
        v = Var(np.zeros((2, 2)))
        p = lift(v, m)
        d = pairwise_distance(p, p, m)
        g = ad.gradients(ref.reduce_sum(ref.mul(d, np.eye(2))), {"v": v})
        assert np.all(g["v"] == 0.0)
        # a coincident pair in the exterior angle: phi = 0, no adjoint for
        # either point or kappa
        kappa = Var(1.0)
        w = Var(np.array([[0.5, 0.1], [0.2, -0.3]]))
        p = lift(w, Manifold(kappa))
        phi = exterior_angle(p, p, Manifold(kappa))
        assert np.all(value_of(phi) == 0.0)
        g = ad.gradients(ref.reduce_sum(phi), {"w": w, "kappa": kappa})
        assert np.all(g["w"] == 0.0) and g["kappa"] == 0.0


GUARDS = [
    ("exterior_origin", ContractViolationError, "exterior angle undefined at the origin"),
    ("aperture_origin", ContractViolationError, "cone aperture undefined at the origin"),
    ("acos_budget", NumericalConsistencyError,
     r"acos argument magnitude \S*1\.118\d*\)? above 1 by more than 1e-06"),
    ("acosh_budget", NumericalConsistencyError,
     r"acosh argument \S*0\.53\d*\)? below 1 by more than 1e-06"),
]


def _guard_call(which, impls, wrap):
    m = Manifold(1.0)
    p = lift(wrap(np.array([[0.5, 0.1], [0.2, -0.3]])), m)
    at_origin = lift(wrap(np.array([[0.0, 0.0], [0.9, 0.4]])), m)
    if which == "exterior_origin":
        return impls["exterior_angle"](at_origin, p, m)
    if which == "aperture_origin":
        return impls["aperture"](at_origin, K_CONST, m)
    if which == "acos_budget":
        # off the hyperboloid: cos phi = 10 / sqrt(80)
        apex = _point(wrap(np.array([1.0])), wrap(np.array([[1.0, 0.0]])))
        member = _point(wrap(np.array([1.0])), wrap(np.array([[10.0, 0.0]])))
        return impls["exterior_angle"](apex, member, m)
    off_sheet = _point(wrap(np.array([0.5])), wrap(np.array([[0.0, 0.0]])))
    return impls["pairwise_distance"](off_sheet, p, m)


class TestFusedGuards:
    @pytest.mark.parametrize("which,kind,message", GUARDS, ids=[g[0] for g in GUARDS])
    @pytest.mark.parametrize("taped", (False, True), ids=("plain", "tape"))
    def test_same_error_as_unfused(self, which, kind, message, taped):
        wrap = Var if taped else np.asarray
        # the unfused composition checks its guards inside the ops it calls
        unfused = {"exterior_angle": _checked_unfused_exterior_angle,
                   "aperture": _checked_unfused_aperture,
                   "pairwise_distance": unfused_pairwise_distance}
        with pytest.raises(kind, match=message) as fused_error:
            _guard_call(which, FUSED, wrap)
        with pytest.raises(kind) as unfused_error:
            _guard_call(which, unfused, wrap)
        assert str(fused_error.value) == str(unfused_error.value)

    def test_inside_budget_clamps_silently(self):
        m = Manifold(1.0)
        # cos phi = 1 / sqrt(1 - 2e-7): above 1 by about 1e-7
        apex = _point(np.array(1.0), np.array([1.0]))
        member = _point(np.array(1.0), np.array([1e7]))
        assert float(exterior_angle(apex, member, m)) == 0.0
        near = _point(np.array([1.0 - 1e-9]), np.array([[0.0]]))
        assert pairwise_distance(near, _point(np.array([1.0]), np.array([[0.0]])), m)[0, 0] == 0.0

    def test_distance_matrix_needs_batches_on_the_tape(self):
        m = Manifold(1.0)
        p = lift(Var(np.array([0.3, 0.1])), m)
        with pytest.raises(ContractViolationError):
            pairwise_distance(p, p, m)
        # single plain points with a taped kappa: a (1, 1) matrix whose
        # kappa adjoint matches central differences
        p, q = lift(np.array([0.3, 0.1]), m), lift(np.array([-0.2, 0.4]), m)
        kappa = Var(np.array(1.0))
        d = pairwise_distance(p, q, Manifold(kappa))
        assert value_of(d).shape == (1, 1)
        grad = ad.gradients(ref.reduce_sum(d), {"k": kappa})["k"]
        h = 1e-6
        fd = (value_of(pairwise_distance(p, q, Manifold(1.0 + h)))
              - value_of(pairwise_distance(p, q, Manifold(1.0 - h)))) / (2 * h)
        np.testing.assert_allclose(grad, fd[0, 0], rtol=1e-6)


def _checked_unfused_exterior_angle(p, q, m):
    # the guards the unfused composition ran, in its order
    beta = value_of(m.kappa) * value_of(_lorentz_inner(p, q))
    if np.min(np.linalg.norm(value_of(p.space), axis=-1)) <= 0.0:
        raise ContractViolationError("exterior angle undefined at the origin")
    cos_phi = value_of(ref.div(ref.add(q.time, ref.mul(p.time, beta)),
                              ref.mul(_l2norm(p.space), np.sqrt(beta * beta - 1.0))))
    worst = np.max(np.abs(cos_phi))
    if worst > 1.0 + 1e-6:
        raise NumericalConsistencyError(
            f"acos argument magnitude {worst!r} above 1 by more than {1e-6}")
    return unfused_exterior_angle(p, q, m)


def _checked_unfused_aperture(p, k, m):
    if np.min(np.linalg.norm(value_of(p.space), axis=-1)) <= 0.0:
        raise ContractViolationError("cone aperture undefined at the origin")
    return unfused_aperture(p, k, m)


# ---------------------------------------------------------------------------
# stacks of groups
# ---------------------------------------------------------------------------

def _group_inputs(op, a, k):
    """The 2-D inputs of slice ``k`` of a stacked call on ``a``."""
    if op == "lift":
        return {"v": a["v"][k], "kappa": a["kappa"]}
    if op == "uncertainty":
        return {"x": a["x"][k]}
    if op == "uncertainty_from_radius":
        return {"x": a["x"][k], "kappa": a["kappa"]}
    apex, member = (PAIR if op == "pairwise_distance" else (APEXES[k], MEMBERS[k]))
    return {"pt": a["t"][apex], "ps": a["s"][apex],
            "qt": a["t"][member], "qs": a["s"][member], "kappa": a["kappa"]}


def _slices(op):
    """How many 2-D calls a stacked call of ``op`` stands for."""
    return {"pairwise_distance": 1, "exterior_angle": len(APEXES),
            "aperture": len(APEXES)}.get(op, G_STACK)


class TestStackedGroups:
    @pytest.mark.parametrize("op", list(FUSED))
    @pytest.mark.parametrize("taped", (False, True), ids=("plain", "tape"))
    def test_each_group_equals_the_2d_call(self, op, taped):
        arrays = make_inputs(op, "stacked", 1.3, seed=6)
        inputs = {k: Var(np.array(v, dtype=float)) if taped else v
                  for k, v in arrays.items()}
        stacked = _outputs(op, FUSED[op], inputs)
        assert all(ad.is_var(o) == taped for o in stacked)
        for k in range(_slices(op)):
            alone = _outputs(op, FUSED[op], _group_inputs(op, arrays, k))
            for out, single in zip(stacked, alone):
                got = value_of(out) if op == "pairwise_distance" else value_of(out)[k]
                assert np.array_equal(got, single), (op, k)

    @pytest.mark.parametrize("which", ("exterior_angle", "aperture"))
    @pytest.mark.parametrize("taped", (False, True), ids=("plain", "tape"))
    def test_group_at_the_origin_raises_like_the_2d_call(self, which, taped):
        arrays = make_inputs(which, "stacked", 1.0, seed=7)
        arrays["s"][APEXES[1], 1] = 0.0           # the second term's apex, row 1
        arrays["t"][APEXES[1], 1] = 1.0
        inputs = {k: Var(v) if taped and k != "kappa" else v for k, v in arrays.items()}
        with pytest.raises(ContractViolationError) as stacked_error:
            _outputs(which, FUSED[which], inputs)
        with pytest.raises(ContractViolationError) as alone_error:
            _outputs(which, FUSED[which], _group_inputs(which, arrays, 1))
        assert str(stacked_error.value) == str(alone_error.value)
        assert "undefined at the origin" in str(stacked_error.value)

    @pytest.mark.parametrize("group", ("part_text", "whole_text"))
    def test_objective_checks_the_angle_before_the_aperture(self, group):
        # both cone ops reject an apex at the origin; the objective builds
        # the angle first, so its message wins, as with one call per term
        rng = np.random.default_rng(8)
        groups = rng.normal(size=(4, 4, 3)) * 0.5
        groups[GROUPS.index(group)] = 0.0
        with pytest.raises(ContractViolationError,
                           match="exterior angle undefined at the origin"):
            total_loss(Batch(Var(groups)), LossConfig(), Manifold(Var(1.0)))

    @pytest.mark.parametrize("taped", (False, True), ids=("plain", "tape"))
    def test_drifted_row_recomputed_in_its_slice_only(self, taped):
        # an apex within 1e-6 of the origin with a member straight outward:
        # beta^2 - 1 is about 2e-9, and the closed form reads |cos phi| past
        # the drift budget, so that row is redone from the chord
        m = Manifold(2.0)
        rng = np.random.default_rng(9)
        v = rng.normal(size=(3, 2, 1)) * 0.6
        v[1, 0], v[1, 1] = -7.606899512881498e-08, -2.914587881351676e-05
        p = lift(v, m)
        t, s = np.asarray(p.time), np.asarray(p.space)
        beta = 2.0 * (s[1, 0, 0] * s[1, 1, 0] - t[1, 0] * t[1, 1])
        closed = (t[1, 1] + t[1, 0] * beta) / (abs(s[1, 0, 0]) * np.sqrt(beta * beta - 1.0))
        assert 1e-9 < beta * beta - 1.0 and abs(closed) > 1.0 + ad.DRIFT_TOL
        # each slice pairs row 0 (apex) with row 1 (member) of its group
        apex = _point(t[:, 0], s[:, 0])
        member = _point(t[:, 1], s[:, 1])
        wrap = Var if taped else np.asarray
        phi = value_of(exterior_angle(_point(wrap(apex.time), wrap(apex.space)),
                                      _point(wrap(member.time), wrap(member.space)), m))
        assert phi[1] == 0.0                      # straight outward, recomputed
        for k in range(3):
            alone = exterior_angle(_point(t[k:k + 1, 0], s[k:k + 1, 0]),
                                   _point(t[k:k + 1, 1], s[k:k + 1, 1]), m)
            assert np.array_equal(phi[k:k + 1], alone), k
