"""Loss-suite checks: hand-computable cases, straight-line scalar
transcriptions, structural invariants, and gradients against finite
differences."""

import math

import numpy as np
import pytest

import hypalign.autodiff as ad
import hypalign.losses as losses
from hypalign.autodiff import ParameterStore, Var, value_of
from hypalign.entailment import ConeParams
from hypalign.errors import ContractViolationError
from hypalign.gradcheck import build_check_problem, finite_diff_check
from hypalign.losses import (
    Batch,
    LossConfig,
    TemperatureSet,
    adaptive_temperatures,
    calibration,
    contrastive,
    contrastive_total,
    entail_hinge,
    entail_leaky,
    entailment_total,
    total_loss,
)
from hypalign.manifold import Manifold, lift
from hypalign.synthdata import generate, sample_batch
from hypalign.trainer import (TrainConfig, init_parameters, loss_config_with_vars,
                              materialize_batch)
import _oracles as orc
import _reference_ops as ref


GROUP_NAMES = ("whole_image", "whole_text", "part_image", "part_text")


def random_batch(rng, b, n, scale=1.2):
    # the four groups drawn one after another, in GROUPS order
    return Batch(rng.normal(size=(4, b, n)) * scale)


def batch_lists(batch):
    return tuple([list(row) for row in group] for group in value_of(batch.groups))


class TestContrastive:
    def test_symmetric_two_pairs_zero(self):
        # all four anchor-target distances equal: each row reduces to
        # log(exp(-c/tau)/exp(-c/tau)) = 0 with the single off-diagonal term
        m = Manifold(1.0)
        anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        targets = np.array([[0.0, 1.0], [0.0, -1.0]])
        val = contrastive(anchors, targets, 0.07, m)
        assert float(value_of(val)) == pytest.approx(0.0, abs=1e-9)

    def test_well_separated_hand_value(self):
        # d_pos = 0.1 both rows, d_neg = 5 both cross pairs: loss = -140
        m = Manifold(1.0)
        anchors = np.array([[0.0], [5.1]])
        targets = np.array([[0.1], [5.0]])
        val = float(value_of(contrastive(anchors, targets, 0.07, m)))
        assert val == pytest.approx(-140.0, rel=1e-8)

    def test_vector_tau_matches_scalar_bitwise(self):
        rng = np.random.default_rng(3)
        m = Manifold(1.0)
        anchors, targets = rng.normal(size=(2, 5, 4))
        scalar = value_of(contrastive(anchors, targets, 0.06, m))
        vector = value_of(contrastive(anchors, targets, np.full(5, 0.06), m))
        assert np.array_equal(scalar, vector)

    def test_batch_too_small(self):
        m = Manifold(1.0)
        with pytest.raises(ContractViolationError):
            contrastive(np.zeros((1, 2)), np.zeros((1, 2)), 0.07, m)

    def test_denominator_excludes_positive_literally(self):
        # with B = 2 the denominator has exactly the one off-diagonal term
        rng = np.random.default_rng(4)
        m = Manifold(1.0)
        anchors, targets = rng.normal(size=(2, 2, 3))
        val = float(value_of(contrastive(anchors, targets, 0.07, m)))
        la, lt = lift(anchors, m), lift(targets, m)
        from hypalign.manifold import pairwise_distance
        d = value_of(pairwise_distance(la, lt, m))
        expected = sum(
            -(-d[i, i] / 0.07) + (-d[i, 1 - i] / 0.07) for i in range(2)
        )
        assert val == pytest.approx(expected, rel=1e-12)

    def test_include_positive_flag(self):
        rng = np.random.default_rng(5)
        m = Manifold(1.0)
        anchors, targets = rng.normal(size=(2, 4, 3))
        with_pos = float(value_of(
            contrastive(anchors, targets, 0.07, m, include_positive=True)
        ))
        expected = orc.contrastive_scalar(
            [list(r) for r in anchors], [list(r) for r in targets], 0.07, 1.0,
            include_positive=True,
        )
        assert with_pos == pytest.approx(expected, rel=1e-10)
        # including the positive can only increase each denominator
        without = float(value_of(contrastive(anchors, targets, 0.07, m)))
        assert with_pos > without

    def test_matches_transcription_on_random_batches(self):
        rng = np.random.default_rng(6)
        m = Manifold(0.7)
        anchors, targets = rng.normal(size=(2, 6, 4))
        val = float(value_of(contrastive(anchors, targets, 0.09, m)))
        expected = orc.contrastive_scalar(
            [list(r) for r in anchors], [list(r) for r in targets], 0.09, 0.7
        )
        assert val == pytest.approx(expected, rel=1e-10)


class TestAdaptiveTemperatures:
    def test_origin_part_sqrt2_endpoint(self):
        taus = value_of(adaptive_temperatures(np.zeros((3, 4)), 0.06))
        np.testing.assert_allclose(taus, math.sqrt(2.0) * 0.06, rtol=1e-15)

    def test_far_part_lower_endpoint(self):
        x = np.zeros((1, 4))
        x[0, 0] = 60.0
        taus = value_of(adaptive_temperatures(x, 0.06))
        assert taus[0] == 0.06  # exp(u/2) rounds to 1.0 at u < 1e-16

    def test_hand_value(self):
        x = np.array([[1.0, 0.0]])
        tau = value_of(adaptive_temperatures(x, 0.06))[0]
        assert tau == pytest.approx(0.06 * math.exp(orc.uncertainty_scalar([1.0, 0.0]) / 2),
                                    rel=1e-14)
        assert tau == pytest.approx(0.0701738, abs=1e-6)

    def test_bounds_on_random_batches(self):
        rng = np.random.default_rng(7)
        parts = rng.normal(size=(512, 8)) * rng.uniform(0.01, 40, size=(512, 1))
        taus = value_of(adaptive_temperatures(parts, 0.06))
        assert np.all(taus >= 0.06)
        assert np.all(taus <= math.sqrt(2.0) * 0.06 + 1e-15)


class TestContrastiveTotal:
    def test_constant_uncertainty_reduces_to_scaled_tau(self):
        rng = np.random.default_rng(8)
        m = Manifold(1.0)
        b = 5
        # all parts at identical norm -> identical uncertainty u0
        directions = rng.normal(size=(2, b, 4))
        directions /= np.linalg.norm(directions, axis=2, keepdims=True)
        wi, wt = rng.normal(size=(b, 4)), rng.normal(size=(b, 4))
        pi, pt = directions[0] * 1.3, directions[1] * 1.3
        batch = Batch(np.stack([wi, wt, pi, pt]))
        temps = TemperatureSet()
        u0 = orc.uncertainty_scalar(list(pi[0]))
        scaled = math.exp(u0 / 2) * temps.tau_global_local
        total = float(value_of(contrastive_total(batch, temps, m)))
        expected = (
            float(value_of(contrastive(pi, wt, scaled, m)))
            + float(value_of(contrastive(pt, wi, scaled, m)))
            + float(value_of(contrastive(wi, wt, temps.tau_global, m)))
            + float(value_of(contrastive(wt, wi, temps.tau_global, m)))
            + float(value_of(contrastive(pi, pt, temps.tau_local, m)))
            + float(value_of(contrastive(pt, pi, temps.tau_local, m)))
        )
        assert total == pytest.approx(expected, rel=1e-12)

    def test_two_row_transcription(self):
        rng = np.random.default_rng(9)
        m = Manifold(1.3)
        batch = random_batch(rng, 2, 3)
        temps = TemperatureSet()
        wi, wt, pi, pt = batch_lists(batch)
        expected = orc.contrastive_total_scalar(
            wi, wt, pi, pt, temps.tau_global, temps.tau_local,
            temps.tau_global_local, 1.3,
        )
        val = float(value_of(contrastive_total(batch, temps, m)))
        assert val == pytest.approx(expected, rel=1e-10)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(10)
        m = Manifold(1.0)
        batch = random_batch(rng, 6, 5)
        perm = rng.permutation(6)
        permuted = Batch(batch.groups[:, perm])
        temps = TemperatureSet()
        a = float(value_of(contrastive_total(batch, temps, m)))
        b = float(value_of(contrastive_total(permuted, temps, m)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_entailment_and_total_permutation_invariance(self):
        rng = np.random.default_rng(22)
        m = Manifold(1.0)
        batch = random_batch(rng, 6, 5)
        perm = rng.permutation(6)
        permuted = Batch(batch.groups[:, perm])
        cfg = LossConfig()
        assert float(value_of(entailment_total(batch, cfg, m))) == pytest.approx(
            float(value_of(entailment_total(permuted, cfg, m))), rel=1e-12
        )
        assert float(value_of(total_loss(batch, cfg, m).total)) == pytest.approx(
            float(value_of(total_loss(permuted, cfg, m).total)), rel=1e-12
        )


class TestEntailmentPieces:
    def setup_method(self):
        self.kappa = 1.0
        self.m = Manifold(self.kappa)
        self.cp = ConeParams()
        self.v_apex = np.array([0.8, -0.2, 0.4, 0.0, 0.3])
        self.p = lift(self.v_apex, self.m)

    def _member_at(self, phi):
        return lift(orc.construct_pair_with_angle(self.v_apex, phi, 0.7, self.kappa),
                    self.m)

    def test_hinge_zero_inside(self):
        q = self._member_at(0.01)
        assert float(value_of(entail_hinge(self.p, q, self.cp.eta_inter, self.cp, self.m))) == 0.0

    def test_hinge_constructed_excess(self):
        from hypalign.entailment import aperture
        omega = float(value_of(aperture(self.p, self.cp.aperture_k, self.m)))
        q = self._member_at(self.cp.eta_inter * omega + 0.3)
        hinge = float(value_of(entail_hinge(self.p, q, self.cp.eta_inter, self.cp, self.m)))
        assert hinge == pytest.approx(0.3, abs=1e-9)

    def test_hinge_monotone_in_eta(self):
        q = self._member_at(1.2)
        lo = float(value_of(entail_hinge(self.p, q, 0.7, self.cp, self.m)))
        hi = float(value_of(entail_hinge(self.p, q, 1.4, self.cp, self.m)))
        assert hi <= lo

    def test_leaky_alpha_zero_reduction(self):
        q = self._member_at(1.0)
        hinge = float(value_of(entail_hinge(self.p, q, 0.7, self.cp, self.m)))
        leaky = float(value_of(entail_leaky(self.p, q, 0.7, self.cp, 0.0, self.m)))
        assert leaky == pytest.approx(hinge, rel=1e-14)

    def test_leaky_inside_cone_value(self):
        # inside the cone with phi = 0.5 requires a wide cone: use eta large
        q = self._member_at(0.5)
        val = float(value_of(entail_leaky(self.p, q, 10.0, self.cp, 0.1, self.m)))
        assert val == pytest.approx(0.05, abs=1e-9)

    def test_leaky_outside_is_hinge_plus_leak(self):
        q = self._member_at(2.0)
        hinge = float(value_of(entail_hinge(self.p, q, 0.7, self.cp, self.m)))
        leaky = float(value_of(entail_leaky(self.p, q, 0.7, self.cp, 0.1, self.m)))
        assert hinge > 0
        assert leaky == pytest.approx(hinge + 0.1 * 2.0, abs=1e-9)

    def test_leaky_lower_bound(self):
        rng = np.random.default_rng(12)
        m = Manifold(1.0)
        va = rng.normal(size=(200, 5))
        vb = rng.normal(size=(200, 5))
        p, q = lift(va, m), lift(vb, m)
        from hypalign.entailment import exterior_angle, in_cone
        leaky = value_of(entail_leaky(p, q, 0.7, self.cp, 0.1, m))
        phi = value_of(exterior_angle(p, q, m))
        member = in_cone(p, q, self.cp, 0.7, m)
        assert np.all(leaky >= 0.1 * phi - 1e-15)
        np.testing.assert_allclose(leaky[member], 0.1 * phi[member], rtol=1e-12)


class TestCalibration:
    def test_uniform_floor_case(self):
        # parts at one radius, wholes on their outward rays: leak ~ 0, so the
        # loss is B*u0 + sign*ln(B)
        rng = np.random.default_rng(13)
        m = Manifold(1.0)
        cp = ConeParams()
        b = 8
        parts = rng.normal(size=(b, 6))
        parts /= np.linalg.norm(parts, axis=1, keepdims=True)
        parts *= 1.4
        wholes = 2.0 * parts
        u0 = orc.uncertainty_scalar(list(parts[0]))
        val = float(value_of(calibration(parts, wholes, cp.eta_intra, cp, 0.1, m)))
        assert val == pytest.approx(b * u0 + math.log(b), abs=1e-5)
        flipped = float(value_of(calibration(parts, wholes, cp.eta_intra, cp, 0.1, m,
                                             entropy_sign=-1.0)))
        assert flipped == pytest.approx(b * u0 - math.log(b), abs=1e-5)

    def test_stop_gradient_blocks_wholes_exactly(self):
        rng = np.random.default_rng(14)
        m = Manifold(1.0)
        cp = ConeParams()
        parts = Var(rng.normal(size=(4, 4)), name="parts")
        wholes = Var(rng.normal(size=(4, 4)), name="wholes")
        out = calibration(parts, wholes, cp.eta_intra, cp, 0.1, m)
        grads = ad.gradients(out, {"parts": parts, "wholes": wholes})
        assert np.all(grads["wholes"] == 0.0)
        assert np.max(np.abs(grads["parts"])) > 0.0

    def test_two_row_transcription(self):
        rng = np.random.default_rng(15)
        m = Manifold(0.9)
        cp = ConeParams()
        parts = rng.normal(size=(2, 3)) * 1.5
        wholes = rng.normal(size=(2, 3)) * 1.5
        val = float(value_of(calibration(parts, wholes, cp.eta_intra, cp, 0.1, m)))
        expected = orc.calibration_scalar(
            [list(r) for r in parts], [list(r) for r in wholes],
            cp.eta_intra, cp.aperture_k, 0.1, 0.9,
        )
        assert val == pytest.approx(expected, rel=1e-10)


class TestEntailmentTotal:
    def test_lambda_zero_reduction(self):
        rng = np.random.default_rng(16)
        m = Manifold(1.0)
        batch = random_batch(rng, 4, 4)
        cfg = LossConfig(lambda_intra=0.0, lambda_cal=0.0)
        total = float(value_of(entailment_total(batch, cfg, m)))
        cone = cfg.cone
        wi, wt, pi, pt = batch.groups
        inter = float(value_of(ref.reduce_sum(entail_leaky(
            lift(pt, m), lift(pi, m),
            cone.eta_inter, cone, cfg.alpha, m)))) + float(value_of(ref.reduce_sum(
                entail_leaky(lift(wt, m), lift(wi, m),
                             cone.eta_inter, cone, cfg.alpha, m))))
        assert total == pytest.approx(inter, rel=1e-12)

    def test_two_row_transcription(self):
        rng = np.random.default_rng(17)
        m = Manifold(1.1)
        batch = random_batch(rng, 2, 3)
        cfg = LossConfig()
        wi, wt, pi, pt = batch_lists(batch)
        expected = orc.entailment_total_scalar(
            wi, wt, pi, pt, cfg.cone.eta_inter, cfg.cone.eta_intra,
            cfg.cone.aperture_k, cfg.alpha, cfg.lambda_intra, cfg.lambda_cal, 1.1,
        )
        val = float(value_of(entailment_total(batch, cfg, m)))
        assert val == pytest.approx(expected, rel=1e-10)

    def test_all_pairs_on_rays_leave_only_calibration_floor(self):
        # every pair radially aligned: hinges and leaks vanish, leaving
        # lambda_cal * (sum of u + entropy) per modality
        rng = np.random.default_rng(18)
        m = Manifold(1.0)
        b = 4
        pt = rng.normal(size=(b, 5))
        pi = pt * 1.001  # parts near each other on their own rays
        batch = Batch(np.stack([2.0 * pi, 2.0 * pt, pi, pt]))
        cfg = LossConfig()
        # inter pairs (pt -> pi) are not collinear; zero out everything except
        # the calibration term to isolate the floor
        cfg0 = LossConfig(lambda_intra=0.0, lambda_cal=cfg.lambda_cal)
        total = float(value_of(entailment_total(batch, cfg0, m)))
        u_txt = [orc.uncertainty_scalar(list(r)) for r in pt]
        u_img = [orc.uncertainty_scalar(list(r)) for r in pi]

        def floor(us):
            z = sum(math.exp(u) for u in us)
            w = [math.exp(u) / z for u in us]
            return sum(us) + -sum(x * math.log(x) for x in w)

        inter = float(value_of(ref.reduce_sum(entail_leaky(
            lift(pt, m), lift(pi, m), cfg.cone.eta_inter, cfg.cone, cfg.alpha, m)
        ))) + float(value_of(ref.reduce_sum(entail_leaky(
            lift(2.0 * pt, m), lift(2.0 * pi, m), cfg.cone.eta_inter, cfg.cone,
            cfg.alpha, m))))
        expected = inter + cfg.lambda_cal * (floor(u_txt) + floor(u_img))
        assert total == pytest.approx(expected, abs=1e-5)

    def test_coincident_whole_pair_contributes_zero(self):
        # a whole-text row on its whole-image row: the exterior angle takes
        # phi = 0 there, so the pair adds no inter term and no gradient
        rng = np.random.default_rng(23)
        store = ParameterStore()
        for name in GROUP_NAMES:
            store.register(name, rng.normal(size=(4, 5)) * 0.8)
        store["whole_text"].value[1] = store["whole_image"].value[1]
        store.register("kappa", 1.0)
        m = Manifold(store["kappa"])
        batch = Batch(ref.stack([store[name] for name in GROUP_NAMES]))
        cfg = LossConfig()
        rep = total_loss(batch, cfg, m)
        grads = ad.gradients(rep.total, store.as_dict())
        assert math.isfinite(float(value_of(rep.total)))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        inter = entail_leaky(lift(store["whole_text"], m), lift(store["whole_image"], m),
                             cfg.cone.eta_inter, cfg.cone, cfg.alpha, m)
        assert value_of(inter)[1] == 0.0
        assert np.all(value_of(inter)[[0, 2, 3]] > 0.0)
        g = ad.gradients(ref.reduce_sum(inter), store.as_dict())
        assert np.all(g["whole_text"][1] == 0.0) and np.all(g["whole_image"][1] == 0.0)


class TestTotalLoss:
    def test_lambda_ent_zero(self):
        rng = np.random.default_rng(19)
        m = Manifold(1.0)
        batch = random_batch(rng, 4, 4)
        cfg = LossConfig(lambda_ent=0.0)
        rep = total_loss(batch, cfg, m)
        con = float(value_of(contrastive_total(batch, cfg.temps, m)))
        assert float(value_of(rep.total)) == pytest.approx(con, rel=1e-12)

    def test_components_recombine(self):
        rng = np.random.default_rng(20)
        m = Manifold(1.0)
        batch = random_batch(rng, 6, 6)
        cfg = LossConfig()
        rep = total_loss(batch, cfg, m)
        c = {k: float(value_of(v)) for k, v in rep.components.items()}
        recombined = (
            c["contrastive_globallocal"] + c["contrastive_global"] + c["contrastive_local"]
            + cfg.lambda_ent * (
                c["entail_inter"] + cfg.lambda_intra * c["entail_intra"]
                + cfg.lambda_cal * c["calibration"]
            )
        )
        assert float(value_of(rep.total)) == pytest.approx(recombined, rel=1e-10)

    def test_frozen_leak_pins_calibration(self):
        # a report finished again with the base point's own leak changes no
        # bit; the wholes reach calibration only through the leak, so after
        # they move, the moved report finished with the frozen leak keeps
        # calibration while the live one follows them, and the other
        # components do not see the frozen leak
        rng = np.random.default_rng(22)
        m = Manifold(1.0)
        batch = random_batch(rng, 5, 4)
        cfg = LossConfig()
        base = total_loss(batch, cfg, m)
        frozen = value_of(base.leak).copy()
        assert frozen.shape == (4, 5) and value_of(base.u).shape == (2, 5)
        assert base.with_leak(frozen).to_floats() == base.to_floats()
        moved = Batch(batch.groups * np.array([1.3, 1.3, 1.0, 1.0])[:, None, None])
        report = total_loss(moved, cfg, m)
        live, pinned = report.to_floats(), report.with_leak(frozen).to_floats()
        assert pinned["calibration"] == base.to_floats()["calibration"]
        assert live["calibration"] != pinned["calibration"]
        for name in ("calibration", "total"):
            del live[name], pinned[name]
        assert pinned == live

    def test_two_row_transcription(self):
        rng = np.random.default_rng(21)
        m = Manifold(1.0)
        batch = random_batch(rng, 2, 3)
        cfg = LossConfig()
        wi, wt, pi, pt = batch_lists(batch)
        expected = orc.total_loss_scalar(
            wi, wt, pi, pt,
            tau_g=cfg.temps.tau_global, tau_l=cfg.temps.tau_local,
            tau_gl=cfg.temps.tau_global_local,
            eta_inter=cfg.cone.eta_inter, eta_intra=cfg.cone.eta_intra,
            k_const=cfg.cone.aperture_k, alpha=cfg.alpha,
            lam1=cfg.lambda_intra, lam2=cfg.lambda_cal, lam_ent=cfg.lambda_ent,
            kappa=1.0,
        )
        assert float(value_of(total_loss(batch, cfg, m).total)) == pytest.approx(
            expected, rel=1e-10
        )

    def test_pinned_regression_value(self):
        # frozen after verification against the straight-line transcription;
        # guards against silent drift in any composite
        rng = np.random.default_rng(2024)
        m = Manifold(1.0)
        batch = random_batch(rng, 4, 8)
        val = float(value_of(total_loss(batch, LossConfig(), m).total))
        wi, wt, pi, pt = batch_lists(batch)
        cfg = LossConfig()
        expected = orc.total_loss_scalar(
            wi, wt, pi, pt,
            tau_g=cfg.temps.tau_global, tau_l=cfg.temps.tau_local,
            tau_gl=cfg.temps.tau_global_local,
            eta_inter=cfg.cone.eta_inter, eta_intra=cfg.cone.eta_intra,
            k_const=cfg.cone.aperture_k, alpha=cfg.alpha,
            lam1=cfg.lambda_intra, lam2=cfg.lambda_cal, lam_ent=cfg.lambda_ent,
            kappa=1.0,
        )
        assert val == pytest.approx(expected, rel=1e-10)
        assert val == pytest.approx(379.5059330935385, rel=1e-12)

    def test_batch_validation(self):
        for shape in ((3, 2, 3), (4, 2), (5, 2, 3)):
            with pytest.raises(ContractViolationError, match="shape"):
                Batch(np.zeros(shape))
        with pytest.raises(ContractViolationError, match=">= 2"):
            Batch(np.zeros((4, 1, 3)))
        for k, name in enumerate(GROUP_NAMES):
            nan = np.zeros((4, 2, 3))
            nan[k, 1, 2] = np.nan
            nan[3, 0, 0] = np.inf
            with pytest.raises(ContractViolationError, match=f"non-finite entries in {name}"):
                Batch(nan)


def tape_census(root):
    """Op-name counts of every node reachable from ``root``; parameters
    count as ``leaf``."""
    counts, seen, stack = {}, {id(root)}, [root]
    while stack:
        node = stack.pop()
        op = node.name if node._parents else "leaf"
        counts[op] = counts.get(op, 0) + 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return counts


# The node names the graphs below build: with the fused-op tests'
# registries, every name a tape of the package can build
# (``test_tape_vocabulary.py``)
GRAPH_NODE_NAMES = {
    "lift_time", "lift_space", "uncertainty", "uncertainty_from_radius",
    "pairwise_distance", "exterior_angle", "aperture", "leaky",
    "info_nce", "tempered", "sum_pair", "calibration", "weighted_total",
}
# the elementary ops of the tests' reference compositions and the other
# single-purpose reference nodes: the objective runs them inside fused nodes
REFERENCE_NODE_NAMES = {
    "add", "mul", "neg", "sub", "div", "square", "exp", "log", "log1p", "sqrt", "acosh", "asinhc_sqrt",
    "sum", "reshape", "softmax", "acos", "asin", "cosh_sqrt", "sinhc_sqrt", "relu",
    "stack",
}


def _training_step_graph(graph):
    """The parameter store and the loss root of one training step: the
    default 32x16 step, ``train_wide``'s 256x64 step, the default step under
    one loss option, or check-grads' 6x8 problem (seed 1)."""
    if graph == "check_grads":
        store, idx, loss_cfg = build_check_problem(1)
    else:
        options = {"include_positive": {"include_positive": True},
                   "uncertainty_from_radius": {"uncertainty_from_radius": True},
                   "negative_entropy": {"entropy_sign": -1.0}}.get(graph, {})
        if graph == "wide":
            corpus = generate(num_scenes=512, parts_per_scene=4, latent_dim=64, seed=7)
            cfg = TrainConfig(table_dim=64, batch_size=256)
        else:
            corpus, cfg = generate(), TrainConfig(loss=LossConfig(**options))
        store, loss_cfg = init_parameters(corpus, cfg), cfg.loss
        idx = sample_batch(corpus, cfg.batch_size, [cfg.seed, 0])
    batch = materialize_batch(store, idx)
    return store, total_loss(batch, loss_config_with_vars(loss_cfg, store),
                             Manifold(store["kappa"])).total


class TestGraphBudget:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.batch = Batch(Var(rng.normal(size=(4, 32, 16)) * 0.3, name="groups"))
        self.m = Manifold(Var(1.0, name="kappa"))
        self.cfg = LossConfig(temps=TemperatureSet(
            tau_global=Var(0.07, name="tau_g"), tau_local=Var(0.07, name="tau_l"),
            tau_global_local=Var(0.06, name="tau_gl"),
        ))

    def test_one_lift_per_group(self):
        counts = tape_census(total_loss(self.batch, self.cfg, self.m).total)
        # the batch's stack is lifted as one, and its two part groups are
        # picked for their uncertainty: no node stacks them
        assert "stack" not in counts
        assert counts["lift_time"] == counts["lift_space"] == 1
        assert counts["uncertainty"] == 1
        # each matrix reads its pair of groups out of the lifted stack, and
        # the global and local matrices are read along both axes
        assert counts["pairwise_distance"] == 4
        # one node each over the stack of the four entailment terms;
        # calibration reuses the intra leaks
        assert counts["exterior_angle"] == counts["aperture"] == counts["leaky"] == 1
        # each report component is one node: a contrastive component sums
        # its two directions, the global and local ones reading their matrix
        # along both axes, and calibration covers both part groups, reading
        # their intra leaks by value
        assert counts["info_nce"] == 3
        assert counts["sum_pair"] == 2
        assert counts["calibration"] == 1
        assert counts["tempered"] == 1
        assert counts["weighted_total"] == 1
        # the rows are aligned, so no gather
        assert "gather_scale" not in counts
        # the geometry and the loss arithmetic, the block sums among it, run
        # inside the fused nodes
        assert not REFERENCE_NODE_NAMES & set(counts)
        # 18 built nodes and the 5 leaves (the groups, kappa, three taus)
        assert counts["leaf"] == 5
        assert sum(counts.values()) == 23

    def test_radius_ablation_is_one_node(self):
        counts = tape_census(total_loss(self.batch, LossConfig(uncertainty_from_radius=True),
                                        self.m).total)
        assert counts["uncertainty_from_radius"] == 1 and "uncertainty" not in counts
        assert not REFERENCE_NODE_NAMES & set(counts)
        # 18 built nodes and the 2 leaves (the groups, kappa)
        assert counts["leaf"] == 2
        assert sum(counts.values()) == 20

    def test_graphs_build_the_listed_names(self):
        # the objective in both uncertainty forms
        roots = [total_loss(self.batch, self.cfg, self.m).total,
                 total_loss(self.batch, LossConfig(uncertainty_from_radius=True), self.m).total]
        names = set().union(*(tape_census(root) for root in roots)) - {"leaf"}
        assert names == GRAPH_NODE_NAMES

    def test_geometry_called_once_per_step(self, monkeypatch):
        # counted through the names the benchmark tracer patches in losses
        calls = {}
        for name in ("lift", "pairwise_distance", "exterior_angle", "aperture",
                     "uncertainty"):
            def counted(*args, _name=name, _f=getattr(losses, name), **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kw)

            monkeypatch.setattr(losses, name, counted)
        total_loss(self.batch, self.cfg, self.m)
        assert calls == {"lift": 1, "pairwise_distance": 4, "exterior_angle": 1,
                         "aperture": 1, "uncertainty": 1}

    def test_training_step_gathers_the_batch_in_one_node(self):
        # materialize_batch writes the batch's stack with one gather over
        # the four tables and their scales: the objective's 18 nodes plus
        # the gather, over the store's 10 leaves
        cfg = TrainConfig()
        corpus = generate()
        store = init_parameters(corpus, cfg)
        batch = materialize_batch(store, sample_batch(corpus, cfg.batch_size, [cfg.seed, 0]))
        counts = tape_census(total_loss(batch, loss_config_with_vars(cfg.loss, store),
                                        Manifold(store["kappa"])).total)
        assert counts["gather_scale"] == 1 and "stack" not in counts
        assert counts["leaf"] == 10
        assert sum(counts.values()) - counts["leaf"] == 19

    @pytest.mark.parametrize("graph", ["default", "wide", "check_grads"])
    def test_only_parentless_nodes_are_the_parameters(self, graph):
        # a stopped value is read by value, so it is no node of its own:
        # every parentless node a step reaches is a registered parameter
        store, root = _training_step_graph(graph)
        params = {id(var): name for name, var in store.items()}
        parentless = [node for node in ad._toposort(root) if not node._parents]
        assert sorted(params.get(id(node), node.name) for node in parentless) \
            == sorted(params.values())

    @pytest.mark.parametrize("graph", ["default", "wide", "include_positive",
                                       "uncertainty_from_radius", "negative_entropy",
                                       "check_grads"])
    def test_every_adjoint_has_its_parents_shape(self, graph):
        # fused hands each VJP's adjoints to the sweep as they are, and the
        # sweep adds them as they come: a wrongly shaped one would broadcast
        # silently.  A picked group's adjoint has the group's shape.
        store, root = _training_step_graph(graph)
        with np.errstate(all="ignore"):
            for node in ad._toposort(root):
                if not node._parents:
                    continue
                for parent, adj in zip(node._parents, node._vjp(np.ones_like(node.value))):
                    if isinstance(adj, dict):
                        for group, ga in adj.items():
                            assert ga.shape == parent.value.shape[1:], \
                                (node.name, parent.name, group)
                    else:
                        assert adj.shape == parent.value.shape, (node.name, parent.name)
        grads = ad.gradients(root, store.as_dict())
        assert all(np.any(g != 0.0) for g in grads.values())

    def test_block_totals_are_the_report_sums(self):
        c = {k: value_of(v) for k, v in
             total_loss(self.batch, self.cfg, self.m).components.items()}
        con = contrastive_total(self.batch, self.cfg.temps, self.m)
        ent = entailment_total(self.batch, self.cfg, self.m)
        # the block totals are plain sums of the components' values
        assert type(con) is float and type(ent) is float
        assert con == (c["contrastive_globallocal"] + c["contrastive_global"]) \
            + c["contrastive_local"]
        assert ent == c["entail_inter"] + (
            self.cfg.lambda_intra * c["entail_intra"]
            + self.cfg.lambda_cal * c["calibration"])


def total_loss_roots(report):
    """The report's total as the one root of ``finite_diff_check``'s
    ``f(params)`` protocol, with the leak calibration stops."""
    return ({"loss": report.total}, report.leak,
            lambda leak: {"loss": report.with_leak(leak).total})


def check_batch(s):
    """The batch of the four groups in ``s`` for ``finite_diff_check``'s
    ``f``: with the 0-d parameters stacked over runs ``(K,)``, the groups
    are broadcast over that run axis, ``(4, K, B, n)``, which the
    objective requires of a stacked curvature."""
    groups = ref.stack([s[name] for name in GROUP_NAMES])
    runs = np.shape(value_of(s["kappa"]))
    if runs:
        groups = np.broadcast_to(groups[:, None], (len(GROUP_NAMES), *runs, *groups.shape[1:]))
    return Batch(groups)


class TestLossGradients:
    @pytest.mark.parametrize("b,n,seed", [(2, 3, 101), (4, 16, 103), (8, 16, 105)])
    def test_total_loss_gradients_match_fd(self, b, n, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        for name in GROUP_NAMES:
            store.register(name, rng.normal(size=(b, n)) * 1.2)
        store.register("kappa", 1.2)
        store.register("tau_g", 0.07)
        store.register("tau_l", 0.07)
        store.register("tau_gl", 0.06)

        def f(s):
            cfg = LossConfig(temps=TemperatureSet(
                tau_global=s["tau_g"], tau_local=s["tau_l"],
                tau_global_local=s["tau_gl"],
            ))
            return total_loss_roots(total_loss(check_batch(s), cfg, Manifold(s["kappa"])))

        results = finite_diff_check(f, store, max_coords=12, seed=seed)
        worst = max(r.max_rel_err for r in results)
        assert worst < 1e-4, f"max rel err {worst}"

    def test_flag_variants_gradients_match_fd(self):
        # radius-based uncertainty and the flipped entropy sign stay
        # differentiable and correct
        rng = np.random.default_rng(107)
        store = ParameterStore()
        for name in GROUP_NAMES:
            store.register(name, rng.normal(size=(4, 6)) * 1.2)
        store.register("kappa", 1.1)

        def f(s):
            cfg = LossConfig(uncertainty_from_radius=True, entropy_sign=-1.0,
                             include_positive=True)
            return total_loss_roots(total_loss(check_batch(s), cfg, Manifold(s["kappa"])))

        results = finite_diff_check(f, store, max_coords=10, seed=107)
        worst = max(r.max_rel_err for r in results)
        assert worst < 1e-4, f"max rel err {worst}"
