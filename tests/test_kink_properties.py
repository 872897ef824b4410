"""Property tests at the kinks of the fused geometry ops.

Each op is driven to within 1e-6 of a kink: near-coincident pairs for the
distance and the exterior angle (``|beta^2 - 1| <= 1e-6`` with
``beta = kappa <p,q>_L``), an aperture whose asin argument sits within 1e-6
of 1, and tangent vectors within 1e-6 of the zero vector for the lift and
both uncertainties.  Values and every adjoint, ``kappa``'s included, must be
finite, and values must match the straight-line transcriptions in
``_oracles.py`` up to the rounding those transcriptions themselves incur at
the kink.
"""

import math

import numpy as np
from hypothesis import assume, given, strategies as st

import hypalign.autodiff as ad
from hypalign.autodiff import Var, value_of
from hypalign.entailment import aperture, exterior_angle
from hypalign.manifold import LorentzPoint, Manifold, lift, pairwise_distance
from hypalign.uncertainty import uncertainty, uncertainty_from_radius

import _oracles as orc
import _reference_ops as ref

EPS = np.finfo(float).eps
KAPPAS = st.floats(0.1, 10.0)


def _unit_rows(seed, rows, dim):
    v = np.random.default_rng(seed).normal(size=(rows, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@st.composite
def near_pairs(draw):
    """``(kappa, p, q)``: aligned rows of lifted points whose pairs are
    coincident or within ``|beta^2 - 1| <= 1e-6`` of it, with apex radii
    ``sqrt(kappa) |v|`` from 1e-6 to 8.  The member sits straight outward,
    straight inward (the acos ends, where rounding pushes the argument past
    1) or in a random direction from the apex."""
    kappa = draw(KAPPAS)
    rows, dim = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    radius = 10.0 ** draw(st.floats(-6.0, math.log10(8.0)))
    # a tangent offset of this size moves the lifted point by a geodesic
    # length of at most sep / sqrt(kappa); sep <= 1e-3 keeps sinh^2 <= 1e-6
    sep = draw(st.one_of(st.just(0.0), st.floats(-12.0, -3.01).map(lambda e: 10.0 ** e)))
    axis = _unit_rows(seed, rows, dim)
    v = axis * radius / math.sqrt(kappa)
    direction = draw(st.sampled_from((axis, -axis, _unit_rows(seed + 1, rows, dim))))
    stretch = math.sinh(radius) / radius
    w = v + direction * sep / (math.sqrt(kappa) * stretch)
    m = Manifold(kappa)
    p, q = lift(v, m), lift(w, m)
    beta = kappa * (np.sum(p.space * q.space, axis=-1) - p.time * q.time)
    assume(np.all(np.abs(beta * beta - 1.0) <= 1e-6))
    return kappa, p, q


def _adjoints(op, points, kappa):
    """Value of ``op`` and the adjoints of ``sum(op)`` for every time and
    space array in ``points`` and for ``kappa``, all taken live."""
    live = [LorentzPoint(time=Var(p.time), space=Var(p.space)) for p in points]
    k = Var(kappa)
    out = op(*live, Manifold(k))
    leaves = {"kappa": k}
    for i, p in enumerate(live):
        leaves[f"t{i}"], leaves[f"s{i}"] = p.time, p.space
    return value_of(out), ad.gradients(ref.reduce_sum(out), leaves)


def _all_finite(value, grads):
    assert np.all(np.isfinite(value))
    for name, g in grads.items():
        assert np.all(np.isfinite(g)), name


def _scalar_point(p, i):
    return float(p.time[i]), [float(x) for x in p.space[i]]


@given(near_pairs())
def test_distance_near_coincidence(case):
    kappa, p, q = case
    d, grads = _adjoints(pairwise_distance, (p, q), kappa)
    _all_finite(d, grads)
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            a, b = _scalar_point(p, i), _scalar_point(q, j)
            # the acosh argument carries a rounding error of a few eps times
            # kappa p_t q_t; near 1, acosh turns an error e into sqrt(2e)
            z_err = 16.0 * EPS * kappa * (a[0] * b[0] + 1.0)
            tol = math.sqrt(2.0 * z_err / kappa) + 1e-15
            assert abs(d[i, j] - orc.distance_scalar(a, b, kappa)) <= tol


@given(near_pairs())
def test_exterior_angle_near_coincidence(case):
    kappa, p, q = case
    phi, grads = _adjoints(exterior_angle, (p, q), kappa)
    _all_finite(phi, grads)
    assert np.all((phi >= 0.0) & (phi <= math.pi))
    for i in range(phi.size):
        a, b = _scalar_point(p, i), _scalar_point(q, i)
        beta = kappa * orc.inner_scalar(a, b)
        if beta * beta - 1.0 <= 1e-9:
            continue   # coincident: the angle is undefined and phi = 0 by convention
        # rounding bound of the transcription's acos argument: beta carries
        # a few eps times kappa (|p_s||q_s| + p_t q_t), which the
        # numerator scales by p_t / den and beta^2 - 1 by beta / (beta^2 - 1)
        p_norm = math.sqrt(sum(x * x for x in a[1]))
        root = math.sqrt(beta * beta - 1.0)
        beta_err = 16.0 * EPS * kappa * (p_norm * math.sqrt(sum(x * x for x in b[1]))
                                         + a[0] * b[0])
        cos_err = beta_err * (a[0] / (p_norm * root) + abs(beta) / root**2) + 16.0 * EPS
        if cos_err > 1e-4:
            continue   # the transcription has too few digits left to compare
        expected = orc.exterior_angle_scalar(a, b, kappa)
        # acos is 1/2-Hoelder: |acos x - acos y| <= sqrt(2 |x - y|)
        assert abs(phi[i] - expected) <= math.sqrt(2.0 * 2.0 * cos_err) + 1e-12


@given(KAPPAS, st.floats(0.01, 0.5), st.floats(-1e-6, 1e-6), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_aperture_near_saturation(kappa, k_const, offset, dim, seed):
    # |p_s| puts the asin argument 2K / (sqrt(kappa) |p_s|) at 1 + offset
    norm = 2.0 * k_const / (math.sqrt(kappa) * (1.0 + offset))
    space = _unit_rows(seed, 2, dim) * norm
    time = np.sqrt(np.sum(space * space, axis=1) + 1.0 / kappa)
    p = LorentzPoint(time=time, space=space)
    omega, grads = _adjoints(lambda pt, m: aperture(pt, k_const, m), (p,), kappa)
    _all_finite(omega, grads)
    for i in range(2):
        expected = orc.aperture_scalar(_scalar_point(p, i), k_const, kappa)
        # near 1, asin turns an argument error e into sqrt(2e)
        assert abs(omega[i] - expected) <= math.sqrt(2.0 * 16.0 * EPS)


near_zero = st.tuples(st.integers(1, 6), st.integers(0, 2**32 - 1),
                      st.one_of(st.just(0.0), st.floats(-320.0, -6.0).map(lambda e: 10.0 ** e)))


def _near_zero_rows(case):
    dim, seed, norm = case
    return _unit_rows(seed, 3, dim) * norm


@given(KAPPAS, near_zero)
def test_lift_near_zero(kappa, case):
    v = _near_zero_rows(case)
    live, k = Var(v), Var(kappa)
    p = lift(live, Manifold(k))
    root = ref.add(ref.reduce_sum(p.time), ref.reduce_sum(p.space))
    grads = ad.gradients(root, {"v": live, "kappa": k})
    _all_finite(np.concatenate([value_of(p.time), value_of(p.space).ravel()]), grads)
    for i in range(v.shape[0]):
        if v[i].any() and not sum(x * x for x in v[i]):
            continue   # the transcription's squared norm underflows below 1.5e-154
        t, s = orc.lift_scalar(list(v[i]), kappa)
        assert abs(value_of(p.time)[i] - t) <= 4 * EPS * t
        np.testing.assert_allclose(value_of(p.space)[i], s, rtol=4 * EPS, atol=0.0)


@given(near_zero)
def test_uncertainty_near_zero(case):
    x = _near_zero_rows(case)
    live = Var(x)
    u = uncertainty(live)
    grads = ad.gradients(ref.reduce_sum(u), {"x": live})
    _all_finite(value_of(u), grads)
    for i in range(x.shape[0]):
        expected = orc.uncertainty_scalar(list(x[i]))
        assert abs(value_of(u)[i] - expected) <= 4 * EPS * expected


@given(KAPPAS, near_zero)
def test_uncertainty_from_radius_near_zero(kappa, case):
    x = _near_zero_rows(case)
    live, k = Var(x), Var(kappa)
    u = uncertainty_from_radius(live, Manifold(k))
    grads = ad.gradients(ref.reduce_sum(u), {"x": live, "kappa": k})
    _all_finite(value_of(u), grads)
    for i in range(x.shape[0]):
        # here the radius asinhc(kappa |x|^2) |x| is |x| to within
        # kappa |x|^3 / 6 < 2e-18, far below the rounding of the value
        expected = orc.uncertainty_scalar(list(x[i]))
        assert abs(value_of(u)[i] - expected) <= 4 * EPS * expected
    if not x.any():
        assert np.all(grads["x"] == 0.0) and grads["kappa"] == 0.0


def test_uncertainty_from_radius_zero_row_takes_subgradient_zero():
    # the norm kink of the radius at a zero row: that row's adjoint is
    # exactly 0, and kappa's adjoint is the other rows' alone
    x = np.array([[0.3, -0.4], [0.0, 0.0], [1.2, 0.5]])
    live, k = Var(x), Var(0.7)
    grads = ad.gradients(ref.reduce_sum(uncertainty_from_radius(live, Manifold(k))),
                         {"x": live, "kappa": k})
    assert np.all(grads["x"][1] == 0.0)
    assert np.all(grads["x"][[0, 2]] != 0.0)
    rest, k_rest = Var(x[[0, 2]]), Var(0.7)
    alone = ad.gradients(ref.reduce_sum(uncertainty_from_radius(rest, Manifold(k_rest))),
                         {"kappa": k_rest})["kappa"]
    assert grads["kappa"] == alone
