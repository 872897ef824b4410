"""Cone geometry: aperture behavior, the exterior-angle closed form against
the geodesic log-map oracle (the gating test), and membership."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.entailment import ConeParams, aperture, exterior_angle, in_cone
from hypalign.errors import ContractViolationError
from hypalign.losses import entail_hinge
from hypalign.manifold import LorentzPoint, Manifold, lift, log_origin

import _oracles as orc


def lift_points(rng, count, dim, m, radii=(0.1, 5.0)):
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= rng.uniform(*radii, size=(count, 1))
    return v, lift(v, m)


class TestAperture:
    def test_boundary_saturates_at_half_pi(self):
        kappa, k_const = 0.1, 0.1
        m = Manifold(kappa, 2)
        norm = 2 * k_const / np.sqrt(kappa)
        p = LorentzPoint(time=np.sqrt(norm**2 + 1 / kappa), space=np.array([norm, 0.0]))
        assert float(ad.value_of(aperture(p, k_const, m))) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_far_point_aperture_shrinks_to_zero(self):
        m = Manifold(1.0, 2)
        p = LorentzPoint(time=np.sqrt(1e8 + 1.0), space=np.array([1e4, 0.0]))
        assert float(ad.value_of(aperture(p, 0.1, m))) < 1e-3

    def test_hand_value(self):
        m = Manifold(1.0, 2)
        p = LorentzPoint(time=np.sqrt(2.0), space=np.array([1.0, 0.0]))
        assert float(ad.value_of(aperture(p, 0.1, m))) == pytest.approx(
            np.arcsin(0.2), rel=1e-12
        )
        assert np.arcsin(0.2) == pytest.approx(0.20136, abs=1e-5)

    def test_monotone_nonstrict_with_plateau(self):
        m = Manifold(1.0, 2)
        norms = np.linspace(0.01, 3.0, 200)
        pts = LorentzPoint(
            time=np.sqrt(norms**2 + 1.0),
            space=np.stack([norms, np.zeros_like(norms)], axis=1),
        )
        om = ad.value_of(aperture(pts, 0.1, m))
        assert np.all(np.diff(om) <= 1e-15)
        assert om[0] == pytest.approx(np.pi / 2)  # saturated plateau

    def test_origin_degenerate(self):
        m = Manifold(1.0, 2)
        with pytest.raises(ContractViolationError):
            aperture(m.origin(), 0.1, m)


class TestExteriorAngle:
    def test_outward_collinear_zero(self):
        rng = np.random.default_rng(0)
        m = Manifold(1.0, 4)
        v = rng.normal(size=(64, 4))
        p = lift(v, m)
        for c in (1.3, 2.0, 5.0):
            q = lift(ad.value_of(log_origin(p, m)) * c, m)
            phi = ad.value_of(exterior_angle(p, q, m))
            assert np.max(phi) < 1e-6

    def test_inward_collinear_pi(self):
        rng = np.random.default_rng(1)
        m = Manifold(0.5, 3)
        v = rng.normal(size=(64, 3))
        p = lift(v, m)
        q = lift(0.35 * v, m)
        assert np.min(ad.value_of(exterior_angle(p, q, m))) > np.pi - 1e-6

    @pytest.mark.parametrize("kappa", (0.1, 1.0))
    def test_closed_form_matches_geodesic_oracle(self, kappa):
        rng = np.random.default_rng(7)
        m = Manifold(kappa, 6)
        _, p = lift_points(rng, 10_000, 6, m)
        _, q = lift_points(rng, 10_000, 6, m)
        phi = ad.value_of(exterior_angle(p, q, m))
        phi_oracle = orc.exterior_angle_oracle(
            orc.point_to_vec(p), orc.point_to_vec(q), kappa
        )
        assert np.max(np.abs(phi - phi_oracle)) < 1e-6

    def test_matches_scalar_transcription(self):
        rng = np.random.default_rng(8)
        kappa = 1.3
        m = Manifold(kappa, 4)
        for _ in range(25):
            vp, vq = rng.normal(size=(2, 4))
            p, q = lift(vp, m), lift(vq, m)
            pv = (float(ad.value_of(p.time)), list(ad.value_of(p.space)))
            qv = (float(ad.value_of(q.time)), list(ad.value_of(q.space)))
            assert float(ad.value_of(exterior_angle(p, q, m))) == pytest.approx(
                orc.exterior_angle_scalar(pv, qv, kappa), rel=1e-10
            )

    def test_constructed_angle_recovered(self):
        kappa = 1.0
        m = Manifold(kappa, 5)
        v_apex = np.array([0.8, -0.2, 0.4, 0.0, 0.3])
        for target in (0.3, 1.0, 2.2):
            v_member = orc.construct_pair_with_angle(v_apex, target, 0.7, kappa)
            phi = float(ad.value_of(
                exterior_angle(lift(v_apex, m), lift(v_member, m), m)
            ))
            assert phi == pytest.approx(target, abs=1e-9)

    def test_coincident_points_take_zero_angle(self):
        # the angle is undefined at q = p: phi = 0 with the subgradient 0,
        # row by row
        m = Manifold(1.0, 3)
        assert float(ad.value_of(exterior_angle(
            lift(np.array([0.5, 0.1, -0.2]), m), lift(np.array([0.5, 0.1, -0.2]), m), m
        ))) == 0.0
        v = ad.Var(np.array([[0.5, 0.1, -0.2], [0.3, 0.4, 0.1]]))
        apex = lift(v, m)
        member = lift(np.array([[0.5, 0.1, -0.2], [-0.6, 0.2, 0.3]]), m)
        phi = ad.value_of(exterior_angle(apex, member, m))
        assert phi[0] == 0.0
        assert phi[1] == float(ad.value_of(exterior_angle(
            lift(np.array([0.3, 0.4, 0.1]), m), lift(np.array([-0.6, 0.2, 0.3]), m), m)))
        g = ad.gradients(ad.reduce_sum(exterior_angle(apex, member, m)), {"v": v})["v"]
        assert np.all(g[0] == 0.0) and np.any(g[1] != 0.0)


class TestInCone:
    def test_outward_ray_inside(self):
        m = Manifold(1.0, 3)
        cp = ConeParams()
        v = np.array([1.0, 0.5, -0.5])
        p = lift(v, m)
        q = lift(2.0 * v, m)
        assert bool(in_cone(p, q, cp, cp.eta_inter, m))

    def test_boundary_inclusive(self):
        kappa = 1.0
        m = Manifold(kappa, 4)
        cp = ConeParams()
        v_apex = np.full(4, 0.9)
        p = lift(v_apex, m)
        omega = float(ad.value_of(aperture(p, cp.aperture_k, m)))
        # membership flips exactly at eta * omega and includes the boundary:
        # just inside is a member, just outside is not
        inside = lift(orc.construct_pair_with_angle(
            v_apex, cp.eta_inter * omega - 1e-9, 0.5, kappa), m)
        outside = lift(orc.construct_pair_with_angle(
            v_apex, cp.eta_inter * omega + 1e-6, 0.5, kappa), m)
        assert bool(in_cone(p, inside, cp, cp.eta_inter, m))
        assert not bool(in_cone(p, outside, cp, cp.eta_inter, m))
        # the <= convention itself, on exact numbers
        phi = ad.value_of(exterior_angle(p, inside, m))
        assert np.all((phi <= cp.eta_inter * omega)
                      == in_cone(p, inside, cp, cp.eta_inter, m))

    def test_equivalent_to_direct_comparison(self):
        rng = np.random.default_rng(9)
        m = Manifold(1.0, 5)
        cp = ConeParams()
        _, p = lift_points(rng, 500, 5, m)
        _, q = lift_points(rng, 500, 5, m)
        member = in_cone(p, q, cp, cp.eta_intra, m)
        phi = ad.value_of(exterior_angle(p, q, m))
        omega = ad.value_of(aperture(p, cp.aperture_k, m))
        np.testing.assert_array_equal(member, phi <= cp.eta_intra * omega)

    def test_hinge_zero_iff_in_cone(self):
        rng = np.random.default_rng(10)
        m = Manifold(1.0, 5)
        cp = ConeParams()
        _, p = lift_points(rng, 2000, 5, m)
        _, q = lift_points(rng, 2000, 5, m)
        hinge = ad.value_of(entail_hinge(p, q, cp.eta_inter, cp, m))
        member = in_cone(p, q, cp, cp.eta_inter, m)
        np.testing.assert_array_equal(hinge == 0.0, member)

    def test_cone_params_validated(self):
        with pytest.raises(ContractViolationError):
            ConeParams(aperture_k=0.0)
        with pytest.raises(ContractViolationError):
            ConeParams(eta_inter=-1.0)
