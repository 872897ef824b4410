"""Finite-difference harness checks: analytic derivatives, stop-gradient
semantics, kink guards, and the full sweep over the training graph's
report components and total."""

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, value_of
import hypalign.gradcheck as gradcheck
import hypalign.losses as losses
from hypalign.errors import ContractViolationError, NumericalConsistencyError
from hypalign.gradcheck import (
    CheckResult,
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
            return {"loss": uncertainty(s["x"])}

        results = finite_diff_check(f, store, step=1e-5, tolerance=1e-6)
        assert all(r.passed for r in results)
        grads = ad.gradients(f(store)["loss"], store.as_dict())
        norm = np.linalg.norm(x.value)
        sig = np.exp(-norm) / (1.0 + np.exp(-norm))
        analytic = -sig * x.value / norm
        np.testing.assert_allclose(grads["x"], analytic, rtol=1e-12)

    def test_stop_gradient_semantics(self):
        # tape gradient zero on the stopped path while raw finite differences
        # move: the harness finds the parameter behind the stop-gradient and
        # asserts exactly that in zero_tape mode
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("stopped", np.array([2.0, -1.0]))

        def f(s):
            return {"loss": ad.reduce_sum(
                ad.mul(ad.stop_gradient(ad.square(s["stopped"])), ad.square(s["live"]))
            )}

        results = finite_diff_check(f, store)
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
            return {"loss": ad.reduce_sum(ad.mul(ad.stop_gradient(s["x"]), s["x"]))}

        results = finite_diff_check(f, store)
        assert results[0].mode == "match" and results[0].passed
        # raw FD would see d(x^2)/dx = 2x while the tape reports x
        g = ad.gradients(f(store)["loss"], store.as_dict())["x"]
        np.testing.assert_allclose(g, [1.3])

    def test_step_bounds_enforced(self):
        store = ParameterStore()
        store.register("x", np.ones(2))
        with pytest.raises(ContractViolationError):
            finite_diff_check(lambda s: {"loss": ad.reduce_sum(s["x"])}, store, step=1e-2)

    @pytest.mark.parametrize("options", [
        {"max_coords": 0}, {"max_coords": -1}, {"tolerance": 0.0},
        {"tolerance": -1e-4}, {"tolerance": float("nan")}, {"tolerance": float("inf")},
    ])
    def test_options_outside_their_range_rejected(self, options):
        store = ParameterStore()
        store.register("x", np.ones(2))
        with pytest.raises(ContractViolationError):
            finite_diff_check(lambda s: {"loss": ad.reduce_sum(s["x"])}, store, **options)

    @pytest.mark.parametrize("max_coords,coords", [(200, 7), (1, 3)])
    def test_one_forward_per_evaluation_for_every_root(self, max_coords, coords):
        # one recorded forward, one replayed evaluation per perturbation for
        # both roots, and one raw evaluation more for the parameter that
        # reaches a root only through a stop-gradient
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("stopped", np.array([2.0, -1.0]))
        store.register("other", np.array([0.3, -0.7, 1.1]))
        calls = 0

        def f(s):
            nonlocal calls
            calls += 1
            live = ad.square(s["live"])
            return {
                "plain": ad.add(ad.reduce_sum(live), ad.reduce_sum(ad.square(s["other"]))),
                "weighted": ad.reduce_sum(ad.mul(ad.stop_gradient(ad.square(s["stopped"])),
                                                 live)),
            }

        results = finite_diff_check(f, store, max_coords=max_coords)
        stopped_coords = min(2, max_coords)
        assert calls == 1 + 2 * coords + 2 * stopped_coords
        assert [(r.loss, r.param) for r in results] == [
            (root, p) for root in ("plain", "weighted") for p in ("live", "stopped", "other")]
        assert all(r.passed for r in results)
        modes = {(r.loss, r.param): r.mode for r in results}
        assert modes.pop(("weighted", "stopped")) == "zero_tape"
        assert set(modes.values()) == {"match"}

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

    def test_kink_guard_refuses_a_problem_in_the_band(self):
        # seed 96 is the one seed in 1..399 whose problem sits within the
        # guard band of a kink
        with pytest.raises(NumericalConsistencyError, match=r"margin 5\.06e-04"):
            build_check_problem(96)
        build_check_problem(95)
        build_check_problem(97)

    def test_subsampling_cap(self):
        store = ParameterStore()
        store.register("big", np.random.default_rng(0).normal(size=(30, 30)))
        results = finite_diff_check(
            lambda s: {"loss": ad.reduce_sum(ad.square(s["big"]))}, store, max_coords=17
        )
        assert results[0].n_coords == 17
        assert results[0].passed


ROOTS = ["contrastive_globallocal", "contrastive_global", "contrastive_local",
         "entail_inter", "entail_intra", "calibration", "total_loss"]
PARAMS = ["table_scene_img", "table_scene_txt", "table_part_img", "table_part_txt",
          "kappa", "tau_g", "tau_l", "tau_gl", "c_img", "c_txt"]


class TestFullSweep:
    def test_check_grads_passes_and_covers_everything(self):
        results, passed = run_check_grads(seed=1, max_coords=6)
        assert passed, format_results([r for r in results if not r.passed])
        # the report's six components and its total, each for every parameter
        assert [(r.loss, r.param) for r in results] == [
            (root, p) for root in ROOTS for p in PARAMS]
        modes = {(r.loss, r.param): r.mode for r in results}
        # whole rows and curvature reach calibration only through its
        # stopped entailment factor
        zero = {key for key, mode in modes.items() if mode == "zero_tape"}
        assert zero == {("calibration", "table_scene_img"),
                        ("calibration", "table_scene_txt"),
                        ("calibration", "kappa")}
        assert modes[("total_loss", "kappa")] == "match"

    def test_no_per_term_builder_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-term builder called")

        for name in ("contrastive", "contrastive_total", "entail_hinge",
                     "entail_leaky", "calibration", "entailment_total",
                     "adaptive_temperatures"):
            monkeypatch.setattr(losses, name, refuse)
            if hasattr(gradcheck, name):
                monkeypatch.setattr(gradcheck, name, refuse)
        results, passed = run_check_grads(seed=1, max_coords=1)
        assert passed and len(results) == 70

    def test_format_results_table(self):
        results, _ = run_check_grads(seed=1, max_coords=2)
        table = format_results(results)
        assert "total_loss" in table and "ok" in table

    def test_format_results_aligns_the_param_column(self):
        results = [CheckResult(loss, "kappa", "match", 1e-9, 1.0, 1.0, 1, True)
                   for loss in ("total_loss", "contrastive_globallocal",
                                "a_root_named_well_past_twenty_characters")]
        header, *rows = format_results(results).splitlines()
        offset = header.index("param")
        for r, row in zip(results, rows):
            assert row[:offset].rstrip() == r.loss
            assert row[offset:].startswith("kappa ")
