"""Uncertainty, its softmax normalization, and the entropy term."""

import math

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.errors import ContractViolationError
from hypalign.manifold import Manifold, hyperbolic_radius
from hypalign.uncertainty import (
    entropy,
    normalize_uncertainty,
    uncertainty,
    uncertainty_from_radius,
)

import _oracles as orc

LN2 = math.log(2.0)


class TestUncertainty:
    def test_origin_gives_ln2(self):
        assert float(ad.value_of(uncertainty(np.zeros(8)))) == pytest.approx(LN2, rel=1e-15)

    def test_far_point_positive_but_tiny(self):
        x = np.zeros(4)
        x[0] = 50.0
        u = float(ad.value_of(uncertainty(x)))
        assert 0.0 < u < 1e-20

    def test_unit_norm_value(self):
        x = np.array([1.0, 0.0])
        expected = orc.uncertainty_scalar([1.0, 0.0])
        assert float(ad.value_of(uncertainty(x))) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.313262, abs=1e-6)

    def test_strictly_decreasing_in_norm(self):
        rng = np.random.default_rng(0)
        norms = rng.uniform(1e-4, 30.0, size=(10_000, 2))
        lo, hi = np.minimum(*norms.T), np.maximum(*norms.T)
        keep = hi > lo
        direction = np.array([1.0, 0.0, 0.0])
        u_lo = ad.value_of(uncertainty(lo[keep, None] * direction))
        u_hi = ad.value_of(uncertainty(hi[keep, None] * direction))
        assert np.all(u_lo > u_hi)

    def test_decreasing_in_hyperbolic_radius(self):
        rng = np.random.default_rng(1)
        m = Manifold(1.7)
        x = rng.normal(size=(2000, 6)) * rng.uniform(0.01, 3, size=(2000, 1))
        radius = ad.value_of(hyperbolic_radius(x, m))
        u = ad.value_of(uncertainty(x))
        order = np.argsort(radius)
        assert np.all(np.diff(u[order]) < 0.0)

    def test_no_overflow_at_huge_norm(self):
        x = np.zeros(3)
        x[0] = 1e6
        u = float(ad.value_of(uncertainty(x)))
        assert np.isfinite(u) and u >= 0.0

    def test_radius_variant_differs_and_stays_monotone(self):
        m = Manifold(1.0)
        x = np.array([[2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        u_norm = ad.value_of(uncertainty(x))
        u_rad = ad.value_of(uncertainty_from_radius(x, m))
        assert u_rad[0] > u_norm[0]  # radius < norm at ||x|| = 2
        assert u_rad[0] > u_rad[1]


class TestNormalize:
    def test_uniform_for_equal_inputs(self):
        w = ad.value_of(normalize_uncertainty(np.full(8, 0.3)))
        np.testing.assert_allclose(w, 1.0 / 8, rtol=1e-15)

    def test_two_element_oracle(self):
        w = ad.value_of(normalize_uncertainty(np.array([LN2, 0.0])))
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_singleton(self):
        np.testing.assert_allclose(ad.value_of(normalize_uncertainty(np.array([0.4]))), [1.0])

    def test_sums_to_one_and_order_preserving(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0, LN2, size=64)
        w = ad.value_of(normalize_uncertainty(u))
        assert abs(float(np.sum(w)) - 1.0) < 1e-12
        assert np.all(w > 0.0)
        assert np.array_equal(np.argsort(u), np.argsort(w))

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            normalize_uncertainty(np.array([]))

    def test_stability_against_large_offsets(self):
        w = ad.value_of(normalize_uncertainty(np.array([1000.0, 1000.0 + np.log(2)])))
        np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


class TestEntropy:
    def test_uniform_maximum(self):
        assert entropy(np.full(8, 1.0 / 8)) == pytest.approx(math.log(8), rel=1e-12)

    def test_one_hot_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_hand_value(self):
        assert entropy(np.array([0.25, 0.75])) == pytest.approx(0.562335, abs=1e-6)

    @pytest.mark.parametrize("w, message", [
        ([0.3, 0.3], "entropy input is not a normalized weight vector"),
        ([], "entropy of an empty weight vector"),
    ])
    def test_rejects_empty_or_unnormalized(self, w, message):
        with pytest.raises(ContractViolationError, match=f"^{message}$"):
            entropy(np.array(w))
