"""Finite-difference harness checks: analytic derivatives, stop-gradient
semantics, kink guards, and the full per-loss sweep."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, value_of
from hypalign.errors import NumericalConsistencyError
from hypalign.gradcheck import (
    build_check_problem,
    finite_diff_check,
    format_results,
    run_check_grads,
)
from hypalign.manifold import Manifold, geodesic_distance, lift
from hypalign.uncertainty import uncertainty


class TestFiniteDiffCheck:
    def test_uncertainty_analytic_derivative(self):
        # du/dx = -sigmoid(-||x||) * x/||x||, verified through the harness
        store = ParameterStore()
        x = store.register("x", np.array([0.7, -1.1, 0.4]))

        def f(s):
            return uncertainty(s["x"])

        results = finite_diff_check(f, store, step=1e-5, tolerance=1e-6)
        assert all(r.passed for r in results)
        grads = ad.gradients(f(store), store.as_dict())
        norm = np.linalg.norm(x.value)
        sig = np.exp(-norm) / (1.0 + np.exp(-norm))
        analytic = -sig * x.value / norm
        np.testing.assert_allclose(grads["x"], analytic, rtol=1e-12)

    def test_stop_gradient_semantics(self):
        # tape gradient zero on the stopped path while raw finite differences
        # move: the harness asserts exactly that in zero_tape mode
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("stopped", np.array([2.0, -1.0]))

        def f(s):
            return ad.reduce_sum(
                ad.mul(ad.stop_gradient(ad.square(s["stopped"])), ad.square(s["live"]))
            )

        results = finite_diff_check(f, store, zero_tape_params=("stopped",))
        by_name = {r.param: r for r in results}
        assert by_name["stopped"].mode == "zero_tape" and by_name["stopped"].passed
        assert by_name["stopped"].max_fd_abs > 1e-3
        assert by_name["live"].mode == "match" and by_name["live"].passed

    def test_frozen_fd_matches_tape_on_mixed_paths(self):
        # a parameter feeding both live and stopped paths matches only under
        # the frozen surrogate
        store = ParameterStore()
        store.register("x", np.array([1.3]))

        def f(s):
            return ad.reduce_sum(ad.mul(ad.stop_gradient(s["x"]), s["x"]))

        results = finite_diff_check(f, store)
        assert results[0].passed
        # raw FD would see d(x^2)/dx = 2x while the tape reports x
        g = ad.gradients(f(store), store.as_dict())["x"]
        np.testing.assert_allclose(g, [1.3])

    def test_step_bounds_enforced(self):
        store = ParameterStore()
        store.register("x", np.ones(2))
        with pytest.raises(NumericalConsistencyError):
            finite_diff_check(lambda s: ad.reduce_sum(s["x"]), store, step=1e-2)

    def test_geodesic_kink_guard(self):
        # the check configuration builder rejects coincident-point setups
        store, idx, cfg = build_check_problem(seed=1)
        m = Manifold(float(value_of(store["kappa"])))
        a = lift(np.array([0.5] * 8), m)
        b = lift(np.array([0.5] * 8) + 5e-4, m)
        # within the documented 1e-3 guard band the distance derivative blows
        # up; such pairs must never appear in the harness problem
        d = float(value_of(geodesic_distance(a, b, m)))
        assert d < 1e-2  # demonstrates the kink neighborhood exists

    def test_subsampling_cap(self):
        store = ParameterStore()
        store.register("big", np.random.default_rng(0).normal(size=(30, 30)))
        results = finite_diff_check(
            lambda s: ad.reduce_sum(ad.square(s["big"])), store, max_coords=17
        )
        assert results[0].n_coords == 17
        assert results[0].passed


class TestFullSweep:
    def test_check_grads_passes_and_covers_everything(self):
        results, passed = run_check_grads(seed=1, max_coords=6)
        assert passed, format_results([r for r in results if not r.passed])
        losses = {r.loss for r in results}
        assert losses == {
            "contrastive", "contrastive_total", "entail_hinge", "entail_leaky",
            "calibration", "entailment_total", "total_loss",
        }
        params = {r.param for r in results}
        assert params == {
            "table_scene_img", "table_scene_txt", "table_part_img",
            "table_part_txt", "kappa", "tau_g", "tau_l", "tau_gl",
            "c_img", "c_txt",
        }
        modes = {(r.loss, r.param): r.mode for r in results}
        assert modes[("calibration", "table_scene_txt")] == "zero_tape"
        assert modes[("calibration", "kappa")] == "zero_tape"
        assert modes[("total_loss", "kappa")] == "match"

    def test_format_results_table(self):
        results, _ = run_check_grads(seed=1, max_coords=2)
        table = format_results(results)
        assert "total_loss" in table and "ok" in table
