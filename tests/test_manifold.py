"""Geometry checks: hyperboloid membership, exp/log round trips, metric
axioms, and the two radius asymptotes, swept across curvatures."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.errors import ContractViolationError, NumericalConsistencyError
from hypalign.manifold import (
    LorentzPoint,
    Manifold,
    from_space,
    geodesic_distance,
    hyperboloid_residual,
    hyperbolic_radius,
    lift,
    log_origin,
    lorentz_inner,
    pairwise_distance,
)

import _oracles as orc

KAPPAS = (0.1, 1.0, 10.0)


def origin(kappa, dim):
    return LorentzPoint(time=1.0 / np.sqrt(kappa), space=np.zeros(dim))


def point(vec):
    """A ``LorentzPoint`` from a ``(n+1,)`` Minkowski vector, time first."""
    return LorentzPoint(time=vec[0], space=vec[1:])


def random_tangents(rng, count, dim, max_norm=5.0):
    v = rng.normal(size=(count, dim))
    norms = rng.uniform(0.0, max_norm, size=(count, 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * norms


class TestLorentzInner:
    def test_origin_self_inner(self):
        o = origin(1.0, 4)
        assert lorentz_inner(o, o) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_vectors(self):
        p = point(np.array([np.sqrt(2.0), 1.0, 0.0]))
        q = point(np.array([np.sqrt(2.0), 0.0, 1.0]))
        assert lorentz_inner(p, q) == pytest.approx(-2.0, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.normal(size=5)
            q = rng.normal(size=5)
            expected = orc.inner_scalar((p[0], list(p[1:])), (q[0], list(q[1:])))
            assert lorentz_inner(point(p), point(q)) == pytest.approx(expected, rel=1e-12)

    def test_bilinear_symmetric(self):
        rng = np.random.default_rng(1)
        p, q, r = (point(v) for v in rng.normal(size=(3, 6)))
        p_plus_r = LorentzPoint(time=p.time + r.time, space=p.space + r.space)
        assert lorentz_inner(p, q) == pytest.approx(lorentz_inner(q, p))
        assert lorentz_inner(p_plus_r, q) == pytest.approx(
            lorentz_inner(p, q) + lorentz_inner(r, q), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            lorentz_inner(point(np.zeros(4)), point(np.zeros(5)))


class TestLift:
    def test_zero_maps_to_origin_exactly(self):
        for kappa in KAPPAS:
            m = Manifold(kappa)
            p = lift(np.zeros(6), m)
            assert float(ad.value_of(p.time)) == pytest.approx(1 / np.sqrt(kappa), rel=1e-15)
            assert np.all(ad.value_of(p.space) == 0.0)

    def test_one_dim_closed_form(self):
        m = Manifold(1.0)
        for a in (-2.0, -0.3, 0.7, 3.1):
            p = lift(np.array([a]), m)
            assert float(ad.value_of(p.time)) == pytest.approx(np.cosh(a), rel=1e-15)
            assert ad.value_of(p.space)[0] == pytest.approx(np.sinh(a), rel=1e-15)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_hyperboloid_constraint_sweep(self, kappa):
        rng = np.random.default_rng(10)
        m = Manifold(kappa)
        v = random_tangents(rng, 10_000, 8)
        res = hyperboloid_residual(lift(v, m), m)
        assert np.max(res) < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        m = Manifold(0.5)
        for _ in range(20):
            v = rng.normal(size=4)
            t, s = orc.lift_scalar(list(v), 0.5)
            p = lift(v, m)
            assert float(ad.value_of(p.time)) == pytest.approx(t, rel=1e-14)
            np.testing.assert_allclose(ad.value_of(p.space), s, rtol=1e-14)


class TestLogOrigin:
    def test_origin_maps_to_zero(self):
        m = Manifold(2.0)
        v = log_origin(origin(2.0, 5), m)
        assert np.all(ad.value_of(v) == 0.0)

    def test_one_dim_inverse(self):
        m = Manifold(1.0)
        for a in (-1.5, 0.2, 2.5):
            p = LorentzPoint(time=np.cosh(a), space=np.array([np.sinh(a)]))
            assert ad.value_of(log_origin(p, m))[0] == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_round_trip_sweep(self, kappa):
        rng = np.random.default_rng(20)
        m = Manifold(kappa)
        v = random_tangents(rng, 10_000, 8)
        back = ad.value_of(log_origin(lift(v, m), m))
        err = np.abs(back - v) / np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None]
        assert np.max(err) < 1e-9

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)], ids=("point", "stack"))
    def test_round_trip_point_and_stack(self, shape):
        # lift takes one point and a stack of groups (G, B, n); log_origin
        # inverts both, row by row
        m = Manifold(1.7)
        v = np.random.default_rng(22).normal(size=shape)
        back = log_origin(lift(v, m), m)
        assert back.shape == shape
        np.testing.assert_allclose(back, v, rtol=1e-12, atol=1e-14)

    def test_round_trip_other_direction(self):
        rng = np.random.default_rng(21)
        m = Manifold(0.5)
        v = random_tangents(rng, 100, 6)
        p = lift(v, m)
        p2 = lift(ad.value_of(log_origin(p, m)), m)
        np.testing.assert_allclose(ad.value_of(p2.time), ad.value_of(p.time), rtol=1e-12)
        np.testing.assert_allclose(ad.value_of(p2.space), ad.value_of(p.space),
                                   rtol=1e-9, atol=1e-12)


class TestGeodesicDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        m = Manifold(1.0)
        p = lift(rng.normal(size=5), m)
        assert float(ad.value_of(geodesic_distance(p, p, m))) == pytest.approx(0.0, abs=1e-7)

    def test_one_dim_distance_to_origin(self):
        m = Manifold(1.0)
        for a in (-3.0, 0.5, 2.0):
            p = LorentzPoint(time=np.cosh(a), space=np.array([np.sinh(a)]))
            d = float(ad.value_of(geodesic_distance(p, origin(1.0, 1), m)))
            assert d == pytest.approx(abs(a), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_metric_axioms_sweep(self, kappa):
        rng = np.random.default_rng(30)
        m = Manifold(kappa)
        pts = [lift(random_tangents(rng, 10_000, 8, max_norm=3.0), m) for _ in range(3)]
        d_pq = ad.value_of(geodesic_distance(pts[0], pts[1], m))
        d_qp = ad.value_of(geodesic_distance(pts[1], pts[0], m))
        d_qr = ad.value_of(geodesic_distance(pts[1], pts[2], m))
        d_pr = ad.value_of(geodesic_distance(pts[0], pts[2], m))
        np.testing.assert_allclose(d_pq, d_qp, rtol=0, atol=1e-9)
        assert np.all(d_pr <= d_pq + d_qr + 1e-9)
        assert np.all(d_pq >= 0.0)

    def test_acosh_argument_violation_raises(self):
        m = Manifold(1.0)
        good = lift(np.array([0.5, 0.0]), m)
        bad = LorentzPoint(time=0.5, space=np.array([0.0, 0.0]))  # off-sheet
        with pytest.raises(NumericalConsistencyError):
            geodesic_distance(bad, good, m)

    def test_pairwise_matches_elementwise(self):
        rng = np.random.default_rng(31)
        m = Manifold(1.0)
        a = lift(rng.normal(size=(6, 4)), m)
        b = lift(rng.normal(size=(6, 4)), m)
        matrix = ad.value_of(pairwise_distance(a, b, m))
        for i in range(6):
            for j in range(6):
                pi = LorentzPoint(ad.value_of(a.time)[i], ad.value_of(a.space)[i])
                qj = LorentzPoint(ad.value_of(b.time)[j], ad.value_of(b.space)[j])
                assert matrix[i, j] == pytest.approx(
                    float(ad.value_of(geodesic_distance(pi, qj, m))), rel=1e-12
                )


class TestPairwiseDistanceOffTape:
    """Off the tape the distance is built in the inner products' own buffer;
    its bits are those of the taped node, whose VJP keeps the separate
    arrays."""

    @staticmethod
    def _taped(time, space, q_time, q_space, kappa):
        # one 2-D pair of batches on the tape, each input a leaf
        p = LorentzPoint(ad.Var(time), ad.Var(space))
        q = LorentzPoint(ad.Var(q_time), ad.Var(q_space))
        d = pairwise_distance(p, q, Manifold(ad.Var(kappa)))
        assert ad.is_var(d)
        return ad.value_of(d)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_2d_batches_match_the_tape(self, kappa):
        rng = np.random.default_rng(41)
        m = Manifold(kappa)
        p, q = lift(random_tangents(rng, 7, 5), m), lift(random_tangents(rng, 9, 5), m)
        plain = pairwise_distance(p, q, m)
        assert not ad.is_var(plain) and plain.shape == (7, 9)
        assert plain.tobytes() == self._taped(p.time, p.space, q.time, q.space, kappa).tobytes()

    def test_stacks_and_run_curvatures_match_the_tape(self):
        # a (G, K, B, n) stack, with one curvature per run k
        rng = np.random.default_rng(42)
        kappas = np.array([0.3, 1.0, 2.5])
        v = rng.normal(size=(2, 3, 6, 4))
        w = rng.normal(size=(2, 3, 5, 4))
        for m in (Manifold(1.7), Manifold(kappas)):
            p, q = lift(v, m), lift(w, m)
            stack = pairwise_distance(p, q, m)
            assert stack.shape == (2, 3, 6, 5)
            for g in range(2):
                for k in range(3):
                    kappa = m.kappa if np.ndim(m.kappa) == 0 else kappas[k]
                    alone = self._taped(p.time[g, k], p.space[g, k], q.time[g, k],
                                        q.space[g, k], kappa)
                    assert stack[g, k].tobytes() == alone.tobytes(), (g, k)


class TestHyperbolicRadius:
    def test_zero(self):
        m = Manifold(1.0)
        assert float(ad.value_of(hyperbolic_radius(np.zeros(3), m))) == 0.0

    def test_small_norm_asymptote(self):
        m = Manifold(1.0)
        x = np.array([1e-3, 0.0, 0.0, 0.0])
        r = float(ad.value_of(hyperbolic_radius(x, m)))
        assert abs(r - 1e-3) / 1e-3 < 1e-5

    def test_large_norm_asymptote(self):
        m = Manifold(1.0)
        x = np.array([1e3, 0.0])
        r = float(ad.value_of(hyperbolic_radius(x, m)))
        assert abs(r - np.log(2e3)) / np.log(2e3) < 0.01

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_equals_distance_of_space_completion(self, kappa):
        rng = np.random.default_rng(40)
        m = Manifold(kappa)
        x = random_tangents(rng, 10_000, 8)
        r_formula = ad.value_of(hyperbolic_radius(x, m))
        p = from_space(x, m)
        origin = LorentzPoint(
            time=np.full(x.shape[0], 1 / np.sqrt(kappa)), space=np.zeros_like(x)
        )
        r_geo = ad.value_of(geodesic_distance(p, origin, m))
        np.testing.assert_allclose(r_formula, r_geo, rtol=0, atol=1e-9)

    def test_monotone_in_norm(self):
        rng = np.random.default_rng(41)
        m = Manifold(2.0)
        norms = np.sort(rng.uniform(0.01, 20.0, size=500))
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        radii = ad.value_of(hyperbolic_radius(norms[:, None] * direction, m))
        assert np.all(np.diff(radii) > 0.0)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(42)
        for kappa in KAPPAS:
            m = Manifold(kappa)
            v = rng.normal(size=5) * 2
            expected = orc.radius_formula_scalar(list(v), kappa)
            assert float(ad.value_of(hyperbolic_radius(v, m))) == pytest.approx(
                expected, rel=1e-12
            )


class TestManifoldType:
    def test_curvature_bounds_enforced(self):
        with pytest.raises(ContractViolationError):
            Manifold(0.05)
        with pytest.raises(ContractViolationError):
            Manifold(11.0)

    def test_gradients_flow_through_curvature(self):
        # the tape's distance is the matrix op; one-row batches hold the one
        # pair, and the plain geodesic distance gives the differences
        kappa = ad.Var(1.5, name="kappa")
        m = Manifold(kappa)
        v = ad.Var(np.array([[0.4, -0.2, 0.9]]))
        w = np.array([[0.1, 0.5, -0.3]])
        d = pairwise_distance(lift(v, m), lift(w, m), m)
        grads = ad.gradients(d, {"kappa": kappa, "v": v})
        assert abs(grads["kappa"]) > 0
        h = 1e-6
        d_plus = float(geodesic_distance(
            lift(v.value, Manifold(1.5 + h)), lift(w, Manifold(1.5 + h)),
            Manifold(1.5 + h))[0])
        d_minus = float(geodesic_distance(
            lift(v.value, Manifold(1.5 - h)), lift(w, Manifold(1.5 - h)),
            Manifold(1.5 - h))[0])
        fd = (d_plus - d_minus) / (2 * h)
        assert grads["kappa"] == pytest.approx(fd, rel=1e-5)
