"""Loss-suite checks: hand-computable cases, straight-line scalar
transcriptions, structural invariants, and gradients against finite
differences."""

import math

import numpy as np
import pytest

import hypalign.autodiff as ad
from hypalign.autodiff import ParameterStore, Var, value_of
from hypalign.entailment import ConeParams
from hypalign.errors import ContractViolationError
from hypalign.gradcheck import finite_diff_check
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
import _oracles as orc


def random_batch(rng, b, n, scale=1.2):
    return Batch(
        whole_image=rng.normal(size=(b, n)) * scale,
        whole_text=rng.normal(size=(b, n)) * scale,
        part_image=rng.normal(size=(b, n)) * scale,
        part_text=rng.normal(size=(b, n)) * scale,
    )


def batch_lists(batch):
    return tuple(
        [list(row) for row in value_of(getattr(batch, name))]
        for name in ("whole_image", "whole_text", "part_image", "part_text")
    )


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
        batch = Batch(
            whole_image=rng.normal(size=(b, 4)),
            whole_text=rng.normal(size=(b, 4)),
            part_image=directions[0] * 1.3,
            part_text=directions[1] * 1.3,
        )
        temps = TemperatureSet()
        u0 = orc.uncertainty_scalar(list(batch.part_image[0]))
        scaled = math.exp(u0 / 2) * temps.tau_global_local
        total = float(value_of(contrastive_total(batch, temps, m)))
        expected = (
            float(value_of(contrastive(batch.part_image, batch.whole_text, scaled, m)))
            + float(value_of(contrastive(batch.part_text, batch.whole_image, scaled, m)))
            + float(value_of(contrastive(batch.whole_image, batch.whole_text, temps.tau_global, m)))
            + float(value_of(contrastive(batch.whole_text, batch.whole_image, temps.tau_global, m)))
            + float(value_of(contrastive(batch.part_image, batch.part_text, temps.tau_local, m)))
            + float(value_of(contrastive(batch.part_text, batch.part_image, temps.tau_local, m)))
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
        permuted = Batch(
            whole_image=value_of(batch.whole_image)[perm],
            whole_text=value_of(batch.whole_text)[perm],
            part_image=value_of(batch.part_image)[perm],
            part_text=value_of(batch.part_text)[perm],
        )
        temps = TemperatureSet()
        a = float(value_of(contrastive_total(batch, temps, m)))
        b = float(value_of(contrastive_total(permuted, temps, m)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_entailment_and_total_permutation_invariance(self):
        rng = np.random.default_rng(22)
        m = Manifold(1.0)
        batch = random_batch(rng, 6, 5)
        perm = rng.permutation(6)
        permuted = Batch(
            whole_image=value_of(batch.whole_image)[perm],
            whole_text=value_of(batch.whole_text)[perm],
            part_image=value_of(batch.part_image)[perm],
            part_text=value_of(batch.part_text)[perm],
        )
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
        inter = float(value_of(ad.reduce_sum(entail_leaky(
            lift(batch.part_text, m), lift(batch.part_image, m),
            cone.eta_inter, cone, cfg.alpha, m)))) + float(value_of(ad.reduce_sum(
                entail_leaky(lift(batch.whole_text, m), lift(batch.whole_image, m),
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
        batch = Batch(whole_image=2.0 * pi, whole_text=2.0 * pt,
                      part_image=pi, part_text=pt)
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

        inter = float(value_of(ad.reduce_sum(entail_leaky(
            lift(pt, m), lift(pi, m), cfg.cone.eta_inter, cfg.cone, cfg.alpha, m)
        ))) + float(value_of(ad.reduce_sum(entail_leaky(
            lift(2.0 * pt, m), lift(2.0 * pi, m), cfg.cone.eta_inter, cfg.cone,
            cfg.alpha, m))))
        expected = inter + cfg.lambda_cal * (floor(u_txt) + floor(u_img))
        assert total == pytest.approx(expected, abs=1e-5)

    def test_coincident_whole_pair_contributes_zero(self):
        # a whole-text row on its whole-image row: the exterior angle takes
        # phi = 0 there, so the pair adds no inter term and no gradient
        rng = np.random.default_rng(23)
        store = ParameterStore()
        for name in ("whole_image", "whole_text", "part_image", "part_text"):
            store.register(name, rng.normal(size=(4, 5)) * 0.8)
        store["whole_text"].value[1] = store["whole_image"].value[1]
        store.register("kappa", 1.0)
        m = Manifold(store["kappa"])
        batch = Batch(whole_image=store["whole_image"], whole_text=store["whole_text"],
                      part_image=store["part_image"], part_text=store["part_text"])
        cfg = LossConfig()
        rep = total_loss(batch, cfg, m)
        grads = ad.gradients(rep.total, store.as_dict())
        assert math.isfinite(float(value_of(rep.total)))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        inter = entail_leaky(lift(store["whole_text"], m), lift(store["whole_image"], m),
                             cfg.cone.eta_inter, cfg.cone, cfg.alpha, m)
        assert value_of(inter)[1] == 0.0
        assert np.all(value_of(inter)[[0, 2, 3]] > 0.0)
        g = ad.gradients(ad.reduce_sum(inter), store.as_dict())
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
        with pytest.raises(ContractViolationError):
            Batch(whole_image=np.zeros((2, 3)), whole_text=np.zeros((2, 4)),
                  part_image=np.zeros((2, 3)), part_text=np.zeros((2, 3)))
        with pytest.raises(ContractViolationError):
            Batch(whole_image=np.zeros((1, 3)), whole_text=np.zeros((1, 3)),
                  part_image=np.zeros((1, 3)), part_text=np.zeros((1, 3)))
        nan = np.zeros((2, 3))
        nan[0, 0] = np.nan
        with pytest.raises(ContractViolationError):
            Batch(whole_image=nan, whole_text=np.zeros((2, 3)),
                  part_image=np.zeros((2, 3)), part_text=np.zeros((2, 3)))


def tape_census(root):
    """Op-name counts of every node reachable from ``root``; parameters
    count as ``leaf``."""
    counts, seen, stack = {}, {id(root)}, [root]
    while stack:
        node = stack.pop()
        op = node.name if node._parents or node.name == "stop_gradient" else "leaf"
        counts[op] = counts.get(op, 0) + 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return counts


class TestGraphBudget:
    def setup_method(self):
        rng = np.random.default_rng(31)
        groups = {name: Var(rng.normal(size=(32, 16)) * 0.3, name=name)
                  for name in ("whole_image", "whole_text", "part_image", "part_text")}
        self.batch = Batch(**groups)
        self.m = Manifold(Var(1.0, name="kappa"))
        self.cfg = LossConfig(temps=TemperatureSet(
            tau_global=Var(0.07, name="tau_g"), tau_local=Var(0.07, name="tau_l"),
            tau_global_local=Var(0.06, name="tau_gl"),
        ))

    def test_one_lift_per_group(self):
        counts = tape_census(total_loss(self.batch, self.cfg, self.m).total)
        assert counts["lift_time"] == counts["lift_space"] == 4
        assert counts["pairwise_distance"] == 4   # global and local matrices read twice
        assert counts["exterior_angle"] == 4      # calibration reuses the intra angles
        assert counts["aperture"] == 3            # the part-text apex's serves two terms
        assert counts["uncertainty"] == 2
        assert counts["stop_gradient"] == 2
        # each loss block is one node per call; the global and local terms
        # read their matrix along both axes inside the node
        assert counts["info_nce"] == 6
        assert counts["tempered"] == 2
        assert counts["leaky"] == 4
        assert counts["sum_pair"] == 2
        assert counts["calibration"] == 2
        assert counts["weighted_total"] == 1
        # the rows are aligned, so no gather
        assert "gather_scale" not in counts
        # the geometry and the loss arithmetic run inside the fused nodes
        assert not {"sqrt", "acosh", "acos", "asin", "cosh_sqrt", "sub", "neg",
                    "exp", "softmax", "relu", "sum"} & set(counts)
        assert sum(counts.values()) <= 60

    def test_block_totals_are_the_report_sums(self):
        c = {k: value_of(v) for k, v in
             total_loss(self.batch, self.cfg, self.m).components.items()}
        con = value_of(contrastive_total(self.batch, self.cfg.temps, self.m))
        ent = value_of(entailment_total(self.batch, self.cfg, self.m))
        assert con == (c["contrastive_globallocal"] + c["contrastive_global"]) \
            + c["contrastive_local"]
        assert ent == c["entail_inter"] + (
            self.cfg.lambda_intra * c["entail_intra"]
            + self.cfg.lambda_cal * c["calibration"])


class TestLossGradients:
    @pytest.mark.parametrize("b,n,seed", [(2, 3, 101), (4, 16, 103), (8, 16, 105)])
    def test_total_loss_gradients_match_fd(self, b, n, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        for name in ("whole_image", "whole_text", "part_image", "part_text"):
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
            batch = Batch(whole_image=s["whole_image"], whole_text=s["whole_text"],
                          part_image=s["part_image"], part_text=s["part_text"])
            return {"loss": total_loss(batch, cfg, Manifold(s["kappa"])).total}

        results = finite_diff_check(f, store, max_coords=12, seed=seed)
        worst = max(r.max_rel_err for r in results)
        assert worst < 1e-4, f"max rel err {worst}"

    def test_flag_variants_gradients_match_fd(self):
        # radius-based uncertainty and the flipped entropy sign stay
        # differentiable and correct
        rng = np.random.default_rng(107)
        store = ParameterStore()
        for name in ("whole_image", "whole_text", "part_image", "part_text"):
            store.register(name, rng.normal(size=(4, 6)) * 1.2)
        store.register("kappa", 1.1)

        def f(s):
            cfg = LossConfig(uncertainty_from_radius=True, entropy_sign=-1.0,
                             include_positive=True)
            batch = Batch(whole_image=s["whole_image"], whole_text=s["whole_text"],
                          part_image=s["part_image"], part_text=s["part_text"])
            return {"loss": total_loss(batch, cfg, Manifold(s["kappa"])).total}

        results = finite_diff_check(f, store, max_coords=10, seed=107)
        worst = max(r.max_rel_err for r in results)
        assert worst < 1e-4, f"max rel err {worst}"
