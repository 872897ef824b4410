"""Finite-difference harness checks: analytic derivatives, stop-gradient
semantics, kink guards, and the full sweep over the training graph's
report components and total."""

import hashlib

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, value_of
import hypalign.gradcheck as gradcheck
import hypalign.losses as losses
from hypalign.errors import ContractViolationError, DomainError, NumericalConsistencyError
from hypalign.gradcheck import (
    CheckResult,
    build_check_problem,
    finite_diff_check,
    format_results,
    run_check_grads,
)
from hypalign.losses import Batch, LossConfig, TemperatureSet, total_loss
from hypalign.manifold import Manifold, geodesic_distance, lift, pairwise_distance
from hypalign.synthdata import generate, sample_batch
from hypalign.trainer import (TrainConfig, init_parameters, loss_config_with_vars,
                              materialize_batch)
from hypalign.uncertainty import uncertainty

import _reference_ops as ref


def held(build, stopped):
    """The ``(roots, stopped, finish)`` of the ``f(params)`` protocol for the
    roots ``build`` makes from the stopped value, which it reads by value
    (behind a stop-gradient): ``finish`` hands ``build`` a stand-in instead."""
    def finish(stand_in):
        return build(value_of(stand_in))

    return finish(stopped), stopped, finish


class TestFiniteDiffCheck:
    def test_uncertainty_analytic_derivative(self):
        # du/dx = -sigmoid(-||x||) * x/||x||, verified through the harness
        store = ParameterStore()
        x = store.register("x", np.array([0.7, -1.1, 0.4]))

        def f(s):
            return {"loss": uncertainty(s["x"])}, None, None

        results = finite_diff_check(f, store, step=1e-5, tolerance=1e-6)
        assert all(r.passed for r in results)
        grads = ad.gradients(f(store.as_dict())[0]["loss"], store.as_dict())
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
            live = ref.square(s["live"])
            return held(lambda stopped: {"loss": ref.reduce_sum(ref.mul(stopped, live), -1)},
                        ref.square(s["stopped"]))

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
            return held(lambda stopped: {"loss": ref.reduce_sum(ref.mul(stopped, s["x"]), -1)},
                        s["x"])

        results = finite_diff_check(f, store)
        assert results[0].mode == "match" and results[0].passed
        # raw FD would see d(x^2)/dx = 2x while the tape reports x
        g = ad.gradients(f(store.as_dict())[0]["loss"], store.as_dict())["x"]
        np.testing.assert_allclose(g, [1.3])

    def test_step_bounds_enforced(self):
        store = ParameterStore()
        store.register("x", np.ones(2))
        with pytest.raises(ContractViolationError):
            finite_diff_check(lambda s: ({"loss": ref.reduce_sum(s["x"], -1)}, None, None),
                              store, step=1e-2)

    @pytest.mark.parametrize("options", [
        {"max_coords": 0}, {"max_coords": -1}, {"tolerance": 0.0},
        {"tolerance": -1e-4}, {"tolerance": float("nan")}, {"tolerance": float("inf")},
    ])
    def test_options_outside_their_range_rejected(self, options):
        store = ParameterStore()
        store.register("x", np.ones(2))
        with pytest.raises(ContractViolationError):
            finite_diff_check(lambda s: ({"loss": ref.reduce_sum(s["x"], -1)}, None, None),
                              store, **options)

    def test_root_without_one_value_per_perturbation_refused(self):
        # a sum over the leading axis gives a stack of perturbations of x
        # back as x's shape, not one value per perturbation
        store = ParameterStore()
        store.register("x", np.ones(3))
        with pytest.raises(ContractViolationError, match="one value per perturbation of 'x'"):
            finite_diff_check(lambda s: ({"loss": ref.reduce_sum(s["x"], 0)}, None, None), store)

    def test_root_without_one_value_per_run_of_the_scalar_stack_refused(self):
        # the 0-d parameters go to f as one stack of runs (K,) = (4,): a sum
        # over the last axis of the pair (a, b) gives a pair of 0-d values
        # one value, but a pair of run stacks (2, 4) two values, not one per run
        store = ParameterStore()
        store.register("x", np.ones(3))
        store.register("a", 0.5)
        store.register("b", 2.0)

        def f(s):
            pair = ref.reduce_sum(ref.stack([s["a"], s["b"]]), -1)
            return {"loss": ref.add(ref.reduce_sum(s["x"], -1), pair)}, None, None

        with pytest.raises(ContractViolationError,
                           match="one value per perturbation of 'a', 'b'$"):
            finite_diff_check(f, store)

    @pytest.mark.parametrize("max_coords,coords", [(200, 8), (1, 4)])
    def test_one_forward_per_evaluation_for_every_root(self, max_coords, coords):
        # one base forward, one stacked evaluation per array parameter, and
        # one for the 0-d one's perturbations, a run axis (2,) which f
        # applies to the sum it scales; each gives both roots of the
        # surrogate and of the function as evaluated, so the parameter that
        # reaches a root only through the stopped value costs no evaluation
        # more
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("stopped", np.array([2.0, -1.0]))
        store.register("other", np.array([0.3, -0.7, 1.1]))
        store.register("scale", 0.8)
        calls = 0

        def f(s):
            nonlocal calls
            calls += 1
            live = ref.square(s["live"])
            other = ref.mul(s["scale"], ref.reduce_sum(ref.square(s["other"]), -1))
            plain = ref.add(ref.reduce_sum(live, -1), other)
            return held(lambda stopped: {
                "plain": plain, "weighted": ref.reduce_sum(ref.mul(stopped, live), -1),
            }, ref.square(s["stopped"]))

        results = finite_diff_check(f, store, max_coords=max_coords)
        assert sum(r.n_coords for r in results) == 2 * coords
        assert calls == 1 + 3 + 1
        assert [(r.loss, r.param) for r in results] == [
            (root, p) for root in ("plain", "weighted")
            for p in ("live", "stopped", "other", "scale")]
        assert all(r.passed for r in results)
        modes = {(r.loss, r.param): r.mode for r in results}
        assert modes.pop(("weighted", "stopped")) == "zero_tape"
        assert set(modes.values()) == {"match"}

    def test_zero_tape_only_where_the_root_reads_the_stop(self):
        # "stopped" reaches "weighted" only through the stop, "mixed" reaches
        # it live as well, and "apart" reads no stop: "apart"'s differences
        # in "stopped" are zero both as evaluated and on the surrogate, so
        # that pair is an ordinary match (zero tape, zero difference)
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("stopped", np.array([2.0, -1.0]))
        store.register("mixed", np.array([1.5, 0.7]))

        def f(s):
            apart = ref.reduce_sum(ref.square(s["live"]), -1)
            return held(lambda stopped: {
                "weighted": ref.reduce_sum(ref.mul(ref.mul(stopped, s["live"]), s["mixed"]), -1),
                "apart": apart,
            }, ref.mul(s["stopped"], s["mixed"]))

        results = finite_diff_check(f, store)
        assert all(r.passed for r in results)
        modes = {(r.loss, r.param): r.mode for r in results}
        assert modes.pop(("weighted", "stopped")) == "zero_tape"
        assert set(modes.values()) == {"match"}
        apart = {r.param: r for r in results if r.loss == "apart"}["stopped"]
        assert apart.max_tape_abs == 0.0 and apart.max_fd_abs == 0.0

    def test_zero_tape_for_a_graph_ancestor_behind_the_stop(self):
        # one node reads both parameters, as the batch's gather reads every
        # table, so "whole" is a graph ancestor of the root; its value
        # reaches the root only through the stopped value, which the frozen
        # differences show as exact zeros
        store = ParameterStore()
        store.register("whole", np.array([0.8, -1.2]))
        store.register("part", np.array([1.5, 0.4]))

        def f(s):
            both = ref.stack([s["whole"], s["part"]])
            part = ref.square(ad.pick(both, 1))
            return held(lambda stopped: {"weighted": ref.reduce_sum(ref.mul(stopped, part), -1)},
                        ref.square(ad.pick(both, 0)))

        root, _, _ = f(store.as_dict())
        assert id(store["whole"]) in {id(node) for node in ad._toposort(root["weighted"])}
        by_name = {r.param: r for r in finite_diff_check(f, store)}
        assert by_name["whole"].mode == "zero_tape" and by_name["whole"].passed
        assert by_name["whole"].max_tape_abs == 0.0 and by_name["whole"].max_fd_abs > 1e-3
        assert by_name["part"].mode == "match" and by_name["part"].passed

    def test_flat_stopped_path_is_a_passing_match(self):
        # "flat" reaches the root only through the stop, but the stopped
        # value does not move at the point: its differences are zero both
        # as evaluated and on the surrogate, so the pair is a match of zero
        # tape and zero difference, not a zero_tape failure
        store = ParameterStore()
        store.register("live", np.array([0.5, 1.0]))
        store.register("flat", np.array([2.0, -1.0]))

        def f(s):
            live = ref.square(s["live"])
            return held(lambda stopped: {
                "loss": ref.reduce_sum(ref.add(ref.mul(stopped, live), live), -1),
            }, ref.mul(0.0, ref.square(s["flat"])))

        by_name = {r.param: r for r in finite_diff_check(f, store)}
        flat = by_name["flat"]
        assert flat.mode == "match" and flat.passed
        assert flat.max_tape_abs == 0.0 and flat.max_fd_abs == 0.0
        assert by_name["live"].mode == "match" and by_name["live"].passed

    @pytest.mark.parametrize("slope, passed", [(1e-12, True), (1e-9, False)])
    def test_gradient_leaking_through_a_flat_stop_fails_the_match(self, slope, passed):
        # a finish that forgets the stop hands the tape the stopped value's
        # slope, 2 * slope * x; the value 1e8 + slope * x^2 moves by under
        # half an ulp, so every difference is exactly zero and the pair is a
        # match, which fails once the leaked gradient is above about 1e-10
        store = ParameterStore()
        store.register("x", np.array([1.0, -0.5]))

        def build(stopped):
            return {"loss": ref.reduce_sum(stopped, -1)}

        def f(s):
            stopped = ref.add(1e8, ref.mul(slope, ref.square(s["x"])))
            return build(stopped), stopped, build

        (result,) = finite_diff_check(f, store)
        assert result.mode == "match" and result.max_fd_abs == 0.0
        assert result.max_tape_abs == 2.0 * slope
        assert result.passed is passed

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
            lambda s: ({"loss": ref.reduce_sum(ref.square(s["big"]), (-2, -1))}, None, None),
            store, max_coords=17
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

    def test_seed_1_keeps_its_zero_tape_rows_and_evaluations(self, monkeypatch):
        # the gather makes every table a graph ancestor of calibration; the
        # frozen differences still find the three pairs behind the stop.
        # One base forward on the tape, then plain forwards: one stack of
        # its 2 * 48 perturbations per table, and one stack of the 2 * 6
        # perturbations of the six 0-d parameters together
        calls, graphs = 0, 0
        total_loss = gradcheck.total_loss

        def counted(batch, *args, **kwargs):
            nonlocal calls, graphs
            calls += 1
            graphs += ad.is_var(batch.groups)
            return total_loss(batch, *args, **kwargs)

        monkeypatch.setattr(gradcheck, "total_loss", counted)
        results, passed = run_check_grads(seed=1)
        assert passed
        assert sum(r.mode == "zero_tape" for r in results) == 3
        coords = {r.param: r.n_coords for r in results}
        assert sum(coords.values()) == 198 == 4 * 48 + 6
        assert calls == 6 == 1 + 4 + 1
        assert graphs == 1

    # SHA-256 of repr(results) at the default settings, as the check made
    # them before each perturbed coordinate became one plain forward
    @pytest.mark.parametrize("seed, sha256", [
        (1, "3987da31492e4a3cc790e9b5e6d2862ee696db86b3e0c57a46cfea5161562596"),
        (2, "0ac927230387f3ec2e3f1739aebb5f0117d2d83a6a869be48d086710a3cd0bca"),
        (3, "cf499b26d84a12744a9021ef94e6fff386c7ffee1747a3b5e562da3c48b9189e"),
    ])
    def test_results_are_pinned(self, seed, sha256):
        results, _ = run_check_grads(seed)
        assert hashlib.sha256(repr(results).encode()).hexdigest() == sha256

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


def _roots(report, leak) -> np.ndarray:
    """The report's components and total as evaluated, then finished with
    ``leak`` in calibration's stopped leak: ``(2, 7)``, or ``(2, 7, K)``
    for a stacked forward."""
    return np.array([[value_of(x) for x in (*r.components.values(), r.total)]
                     for r in (report, report.with_leak(leak))])


def _assert_stack_matches(evaluate, stack, entries, leak):
    stacked = _roots(evaluate(stack), leak)
    alone = np.stack([_roots(evaluate(x), leak) for x in entries], axis=-1)
    assert stacked.shape == alone.shape == (2, 7, len(entries))
    assert stacked.tobytes() == alone.tobytes()


class TestStackedForward:
    """A stack of inputs evaluated in one forward gives every root of each
    entry bit for bit as that entry's own forward does."""

    @staticmethod
    def _table_stacks(seed, cfg=None):
        # each table's perturbations as finite_diff_check stacks them: every
        # coordinate at +step, then every one at -step
        store, idx, check_cfg = build_check_problem(seed)
        cfg = cfg or check_cfg
        values = {name: var.value for name, var in store.items()}

        def evaluate(tables):
            params = {**values, **tables}
            return total_loss(materialize_batch(params, idx), loss_config_with_vars(cfg, params),
                              Manifold(params["kappa"]))

        leak = evaluate({}).leak
        for table in PARAMS[:4]:
            flat = values[table].ravel()
            k = np.arange(flat.size)
            stack = np.repeat(flat[None], 2 * flat.size, axis=0)
            stack[k, k] = flat + gradcheck.DEFAULT_STEP
            stack[k + flat.size, k] = flat - gradcheck.DEFAULT_STEP
            stack = stack.reshape(-1, *values[table].shape)
            yield lambda x, table=table: evaluate({table: x}), stack, list(stack), leak

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_check_problem_table_stacks(self, seed):
        for case in self._table_stacks(seed):
            _assert_stack_matches(*case)

    def test_flag_variants_table_stacks(self):
        cfg = LossConfig(include_positive=True, uncertainty_from_radius=True,
                         entropy_sign=-1.0)
        for case in self._table_stacks(1, cfg):
            _assert_stack_matches(*case)

    @staticmethod
    def _scalar_stack(store, idx, cfg):
        # the 0-d parameters' perturbations as finite_diff_check stacks
        # them: run j moves scalar j by +step, run 6 + j by -step, and each
        # scalar goes to the objective as its column of the runs, (12,)
        values = {name: var.value for name, var in store.items()}
        names = [name for name, v in values.items() if not v.ndim]
        assert names == PARAMS[4:]
        n = len(names)
        runs = np.repeat(np.array([values[name] for name in names])[None], 2 * n, axis=0)
        runs[np.arange(n), np.arange(n)] += gradcheck.DEFAULT_STEP
        runs[np.arange(n, 2 * n), np.arange(n)] -= gradcheck.DEFAULT_STEP

        def evaluate(scalars):
            params = {**values, **scalars}
            return total_loss(materialize_batch(params, idx), loss_config_with_vars(cfg, params),
                              Manifold(params["kappa"]))

        return (evaluate, dict(zip(names, runs.T)), [dict(zip(names, run)) for run in runs],
                evaluate({}).leak)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_check_problem_scalar_stack(self, seed):
        store, idx, cfg = build_check_problem(seed)
        _assert_stack_matches(*self._scalar_stack(store, idx, cfg))

    def test_flag_variants_scalar_stack(self):
        store, idx, _ = build_check_problem(1)
        cfg = LossConfig(include_positive=True, uncertainty_from_radius=True,
                         entropy_sign=-1.0)
        _assert_stack_matches(*self._scalar_stack(store, idx, cfg))

    def test_wide_training_batch_scalar_stack(self):
        # the scalar stack on a training batch at train_wide's shape: 512
        # scenes, dimension 64, batch 256, so the runs are (4, 12, 256, 64)
        corpus = generate(num_scenes=512, parts_per_scene=4, latent_dim=64)
        cfg = TrainConfig(table_dim=64, batch_size=256)
        store = init_parameters(corpus, cfg)
        idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, 0])
        _assert_stack_matches(*self._scalar_stack(store, idx, cfg.loss))

    def test_training_batches_stack(self):
        # three sampled batches at the default training shape, as (4, 3, 32, 16)
        corpus, cfg = generate(), TrainConfig()
        store = init_parameters(corpus, cfg)
        values = {name: var.value for name, var in store.items()}
        groups = [materialize_batch(values, sample_batch(corpus, cfg.batch_size,
                                                         [cfg.seed, step])).groups
                  for step in range(3)]
        m = Manifold(values["kappa"])

        def evaluate(x):
            return total_loss(Batch(x), cfg.loss, m)

        stack = np.stack(groups, axis=1)
        assert stack.shape == (4, 3, 32, 16)
        _assert_stack_matches(evaluate, stack, groups, evaluate(groups[0]).leak)


class TestScalarRuns:
    """A scalar stacked over runs, ``(K,)``, meets only an operand that
    carries a run axis of that length, stays off the tape, and has every
    run range-checked."""

    B, N = 6, 3

    def _groups(self, *runs):
        return np.random.default_rng(5).normal(size=(4, *runs, self.B, self.N)) * 0.5

    # K = 4 is the group count and K = B the batch size: axes a silent
    # broadcast would pair the runs with
    @pytest.mark.parametrize("k", [2, 4, B])
    @pytest.mark.parametrize("scalar", ["kappa", "tau_global", "tau_local",
                                        "tau_global_local"])
    def test_stacked_scalar_against_a_batch_without_its_runs_refused(self, k, scalar):
        runs = np.full(k, 1.3 if scalar == "kappa" else 0.07)
        m = Manifold(runs if scalar == "kappa" else 1.3)
        cfg = LossConfig() if scalar == "kappa" else LossConfig(
            temps=TemperatureSet(**{scalar: runs}))
        for groups in (self._groups(), self._groups(k + 1)):
            with pytest.raises(ContractViolationError, match="run axis of that length"):
                total_loss(Batch(groups), cfg, m)
        assert value_of(total_loss(Batch(self._groups(k)), cfg, m).total).shape == (k,)

    @pytest.mark.parametrize("k", [4, B])
    def test_ops_refuse_an_operand_without_the_runs(self, k):
        m = Manifold(np.full(k, 1.3))
        groups = self._groups()
        with pytest.raises(ContractViolationError, match="run axis of that length"):
            lift(groups[0], m)
        points = lift(self._groups(k), m)
        with pytest.raises(ContractViolationError, match="run axis of that length"):
            pairwise_distance(points.groups(0), points.groups(1), Manifold(np.ones(k + 1)))

    def test_stacked_var_refused_on_the_tape(self):
        kappa = ad.Var(np.full(4, 1.3), name="kappa")
        groups = ad.Var(self._groups(4), name="groups")
        with pytest.raises(ContractViolationError, match="cannot be on the tape"):
            total_loss(Batch(groups), LossConfig(), Manifold(kappa))
        with pytest.raises(ContractViolationError, match="cannot be on the tape"):
            lift(ad.Var(self._groups()[0]), Manifold(ad.Var(np.full(self.B, 1.3))))

    def test_every_run_range_checked(self):
        with pytest.raises(ContractViolationError, match="kappa 20.0 outside its domain"):
            Manifold(np.array([1.0, 20.0, 1.0]))
        with pytest.raises(DomainError, match="tau_local"):
            TemperatureSet(tau_local=np.array([0.07, 0.001]))
        Manifold(np.array([0.1, 10.0]))
        TemperatureSet(tau_global=np.array([0.01, 5.0]))
