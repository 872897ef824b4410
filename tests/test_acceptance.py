"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Criteria 8b and 9 are implemented faithfully and are expected to fail at
desk scale; the README's limitations section explains why.  Everything
else must pass.
"""

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hypalign.autodiff import value_of
from hypalign.entailment import ConeParams, exterior_angle, in_cone
from hypalign.evalmetrics import (
    Taxonomy,
    distribution_distances,
    hierarchical_set_metrics,
    lca_error,
    recall_at_k,
    tie,
    uncertainty_correlation,
)
from hypalign.gradcheck import format_results, run_check_grads
from hypalign.losses import (
    Batch,
    LossConfig,
    adaptive_temperatures,
    contrastive_total,
    entail_hinge,
    entailment_total,
    total_loss,
)
from hypalign.manifold import (
    LorentzPoint,
    Manifold,
    from_space,
    geodesic_distance,
    hyperboloid_residual,
    hyperbolic_radius,
    lift,
    log_origin,
)
from hypalign.synthdata import generate
from hypalign.trainer import TrainConfig, train, load_checkpoint, store_from_payload

import _acceptance_runs as acceptance_run
import _oracles as orc

SEEDS = (1, 7, 13)


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def default_corpus():
    return generate(num_scenes=64, parts_per_scene=4, seed=7)


@pytest.fixture(scope="session")
def acceptance_runs(default_corpus, tmp_path_factory):
    """The six 5000-step trainings, all started at once in a pool of
    ``min(2, cpu count)`` worker processes: each seed with the default loss
    (key ``(seed, None)``) and with the calibration term disabled (key
    ``(seed, 0.0)``).  Maps each key to the future of its run."""
    roots = {None: tmp_path_factory.mktemp("accept_runs"),
             0.0: tmp_path_factory.mktemp("accept_ablation")}
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield {(seed, lambda_cal): pool.submit(acceptance_run.train_run, default_corpus,
                                               seed, lambda_cal, root / f"s{seed}")
               for lambda_cal, root in roots.items() for seed in SEEDS}


@pytest.fixture(scope="session")
def trained_runs(acceptance_runs):
    """Default 5000-step runs for the three acceptance seeds."""
    return {seed: acceptance_runs[seed, None].result() for seed in SEEDS}


@pytest.fixture(scope="session")
def ablated_runs(acceptance_runs):
    """Matched-seed runs' summaries with the calibration term disabled."""
    return {seed: acceptance_runs[seed, 0.0].result()["summary"] for seed in SEEDS}


def _metrics_records(run_dir):
    with open(run_dir / "metrics.jsonl") as fh:
        return [json.loads(line) for line in fh]


class TestCriterion01GeometrySuite:
    def test_geometry_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        worst = {"residual": 0.0, "roundtrip": 0.0, "triangle": 0.0,
                 "symmetry": 0.0, "radius_equiv": 0.0}
        for kappa in (0.1, 1.0, 10.0):
            m = Manifold(kappa)
            v = rng.normal(size=(10_000, 8))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            v *= rng.uniform(0.0, 5.0, size=(10_000, 1))
            p = lift(v, m)
            worst["residual"] = max(worst["residual"],
                                    float(np.max(hyperboloid_residual(p, m))))
            back = value_of(log_origin(p, m))
            rt = np.abs(back - v) / np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None]
            worst["roundtrip"] = max(worst["roundtrip"], float(np.max(rt)))
            tri = [lift(rng.normal(size=(10_000, 8))
                        * rng.uniform(0, 3 / np.sqrt(8), size=(10_000, 1)), m)
                   for _ in range(3)]
            d_pq = value_of(geodesic_distance(tri[0], tri[1], m))
            d_qp = value_of(geodesic_distance(tri[1], tri[0], m))
            d_qr = value_of(geodesic_distance(tri[1], tri[2], m))
            d_pr = value_of(geodesic_distance(tri[0], tri[2], m))
            worst["symmetry"] = max(worst["symmetry"], float(np.max(np.abs(d_pq - d_qp))))
            worst["triangle"] = max(worst["triangle"],
                                    float(np.max(d_pr - (d_pq + d_qr))))
            x = rng.normal(size=(10_000, 8)) * 2
            r_formula = value_of(hyperbolic_radius(x, m))
            origin = LorentzPoint(time=np.full(10_000, 1 / np.sqrt(kappa)),
                                  space=np.zeros_like(x))
            r_geo = value_of(geodesic_distance(from_space(x, m), origin, m))
            worst["radius_equiv"] = max(worst["radius_equiv"],
                                        float(np.max(np.abs(r_formula - r_geo))))
        elapsed = time.perf_counter() - t0
        ok = (worst["residual"] < 1e-9 and worst["roundtrip"] < 1e-9
              and worst["symmetry"] < 1e-9 and worst["triangle"] < 1e-9
              and worst["radius_equiv"] < 1e-9 and elapsed < 10.0)
        report("1 geometry-suite", ok,
               f"worst={ {k: float(f'{x:.2e}') for k, x in worst.items()} } "
               f"elapsed={elapsed:.1f}s (constraint residual scaled by the "
               f"dominant magnitude; conditioning note in the README)")


class TestCriterion02RadiusAsymptotics:
    def test_radius_asymptotics(self):
        m = Manifold(1.0)
        x_small = np.zeros(4)
        x_small[0] = 1e-3
        r_small = float(value_of(hyperbolic_radius(x_small, m)))
        rel_small = abs(r_small - 1e-3) / 1e-3
        x_big = np.zeros(4)
        x_big[0] = 1e3
        r_big = float(value_of(hyperbolic_radius(x_big, m)))
        rel_big = abs(r_big - math.log(2e3)) / math.log(2e3)
        ok = rel_small < 1e-5 and rel_big < 0.01
        report("2 radius-asymptotics", ok,
               f"small rel={rel_small:.2e} (tol 1e-5), "
               f"log-regime rel={rel_big:.2e} (tol 1e-2)")


class TestCriterion03ExteriorAngle:
    def test_closed_form_vs_geodesic_oracle(self):
        rng = np.random.default_rng(300)
        worst = 0.0
        for kappa in (0.1, 1.0):
            m = Manifold(kappa)

            def sample(count):
                v = rng.normal(size=(count, 6))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                v *= rng.uniform(0.1, 5.0, size=(count, 1))
                return lift(v, m)

            p, q = sample(10_000), sample(10_000)
            phi = value_of(exterior_angle(p, q, m))
            phi_o = orc.exterior_angle_oracle(orc.point_to_vec(p),
                                              orc.point_to_vec(q), kappa)
            worst = max(worst, float(np.max(np.abs(phi - phi_o))))
        # cross-module consistency: hinge is zero exactly on in-cone pairs
        m = Manifold(1.0)
        cp = ConeParams()
        rng2 = np.random.default_rng(301)
        v = rng2.normal(size=(5000, 6))
        w = rng2.normal(size=(5000, 6))
        p, q = lift(v, m), lift(w, m)
        hinge = value_of(entail_hinge(p, q, cp.eta_inter, cp, m))
        member = in_cone(p, q, cp, cp.eta_inter, m)
        consistent = bool(np.all((hinge == 0.0) == member))
        ok = worst < 1e-6 and consistent
        report("3 exterior-angle-oracle", ok,
               f"max |closed-form - oracle|={worst:.2e} (tol 1e-6), "
               f"hinge-membership consistency={consistent}")


class TestCriterion04GradientSuite:
    def test_check_grads(self):
        t0 = time.perf_counter()
        results, passed = run_check_grads(seed=1, step=1e-5, tolerance=1e-4,
                                          max_coords=200)
        elapsed = time.perf_counter() - t0
        worst = max(r.max_rel_err for r in results if r.mode == "match")
        zero_rows = [r for r in results if r.mode == "zero_tape"]
        ok = passed and elapsed < 60.0 and len(zero_rows) >= 2
        detail = (f"max rel err={worst:.2e} (tol 1e-4), "
                  f"stop-gradient rows={len(zero_rows)}, elapsed={elapsed:.1f}s")
        if not passed:
            detail += "\n" + format_results([r for r in results if not r.passed])
        report("4 gradient-suite", ok, detail)


class TestCriterion05TranscriptionOracles:
    def test_two_row_transcriptions(self):
        rng = np.random.default_rng(500)
        cfg = LossConfig()
        kappa = 1.0
        m = Manifold(kappa)
        worst = 0.0
        for _ in range(5):
            groups = rng.normal(size=(4, 2, 3)) * 1.2
            batch = Batch(groups)
            wi, wt, pi, pt = (
                [list(r) for r in g] for g in groups
            )
            con = float(value_of(contrastive_total(batch, cfg.temps, m)))
            con_o = orc.contrastive_total_scalar(
                wi, wt, pi, pt, cfg.temps.tau_global, cfg.temps.tau_local,
                cfg.temps.tau_global_local, kappa)
            ent = float(value_of(entailment_total(batch, cfg, m)))
            ent_o = orc.entailment_total_scalar(
                wi, wt, pi, pt, cfg.cone.eta_inter, cfg.cone.eta_intra,
                cfg.cone.aperture_k, cfg.alpha, cfg.lambda_intra,
                cfg.lambda_cal, kappa)
            tot = float(value_of(total_loss(batch, cfg, m).total))
            tot_o = orc.total_loss_scalar(
                wi, wt, pi, pt, tau_g=cfg.temps.tau_global,
                tau_l=cfg.temps.tau_local, tau_gl=cfg.temps.tau_global_local,
                eta_inter=cfg.cone.eta_inter, eta_intra=cfg.cone.eta_intra,
                k_const=cfg.cone.aperture_k, alpha=cfg.alpha,
                lam1=cfg.lambda_intra, lam2=cfg.lambda_cal,
                lam_ent=cfg.lambda_ent, kappa=kappa)
            for got, want in ((con, con_o), (ent, ent_o), (tot, tot_o)):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        ok = worst < 1e-10
        report("5 transcription-oracles", ok,
               f"worst relative mismatch={worst:.2e} (tol 1e-10)")


class TestCriterion06AdaptiveTemperatureBounds:
    def test_bounds_and_endpoints(self):
        rng = np.random.default_rng(600)
        tau_gl = 0.06
        parts = rng.normal(size=(4096, 8)) * rng.uniform(0.001, 50, size=(4096, 1))
        taus = value_of(adaptive_temperatures(parts, tau_gl))
        in_bounds = bool(np.all(taus >= tau_gl)
                         and np.all(taus <= math.sqrt(2) * tau_gl + 1e-15))
        at_origin = value_of(adaptive_temperatures(np.zeros((1, 8)), tau_gl))[0]
        upper_exact = at_origin == pytest.approx(math.sqrt(2) * tau_gl, rel=1e-15)
        far = np.zeros((1, 8))
        far[0, 0] = 60.0
        lower_exact = value_of(adaptive_temperatures(far, tau_gl))[0] == tau_gl
        ok = in_bounds and upper_exact and lower_exact
        report("6 adaptive-temperature-bounds", ok,
               f"range=[{taus.min():.6f}, {taus.max():.6f}] vs "
               f"[{tau_gl}, {math.sqrt(2)*tau_gl:.6f}], endpoints exact")


class TestCriterion07RadiusSeparation:
    def test_part_whole_radius_separation(self, trained_runs):
        passes = 0
        details = []
        for seed in SEEDS:
            recs = _metrics_records(trained_runs[seed]["dir"])
            first, last = recs[0], recs[-1]
            sep = last["mean_radius_part_image"] < last["mean_radius_whole_image"]
            grew = last["radius_w1_image"] > first["radius_w1_image"]
            fast = trained_runs[seed]["elapsed"] < 900.0
            passes += sep and grew and fast
            details.append(
                f"seed {seed}: part={last['mean_radius_part_image']:.3f} "
                f"whole={last['mean_radius_whole_image']:.3f} "
                f"w1 {first['radius_w1_image']:.4f}->{last['radius_w1_image']:.4f} "
                f"t={trained_runs[seed]['elapsed']:.0f}s"
            )
        ok = passes >= 2
        report("7 radius-separation", ok,
               f"majority {passes}/3; " + "; ".join(details))


class TestCriterion08UncertaintyCorrelation:
    def test_pearson_uncertainty_vs_similarity(self, default_corpus, trained_runs):
        passes = 0
        values = []
        for seed in SEEDS:
            ckpt = trained_runs[seed]["summary"]["checkpoint"]
            store = store_from_payload(load_checkpoint(ckpt), ckpt)
            m = Manifold(float(value_of(store["kappa"])))
            rep = uncertainty_correlation(default_corpus, store, m, "image")
            values.append(rep.pearson_similarity)
            passes += rep.pearson_similarity < -0.3 and not rep.degenerate
        ok = passes >= 2
        report("8a uncertainty-similarity-correlation", ok,
               f"majority {passes}/3, pearson r={[f'{v:.3f}' for v in values]} "
               f"(threshold -0.3)")

    def test_rank_correlation_with_ground_truth(self, default_corpus, trained_runs):
        # expected red at desk scale: the initial tables carry the ground
        # truth inverted (spearman -0.827 at step 0, as the generator makes
        # a part's norm grow with 1 - rep and the uncertainty falls with the
        # norm), and with free per-concept tables and uniform sampling the
        # part trajectories are exchangeable within a scene, so training
        # leaves noise (see the README's limitations section)
        passes = 0
        values = []
        for seed in SEEDS:
            ckpt = trained_runs[seed]["summary"]["checkpoint"]
            store = store_from_payload(load_checkpoint(ckpt), ckpt)
            m = Manifold(float(value_of(store["kappa"])))
            rep = uncertainty_correlation(default_corpus, store, m, "image")
            values.append(rep.spearman_ground_truth)
            passes += rep.spearman_ground_truth > 0.3
        ok = passes >= 2
        report("8b uncertainty-ground-truth-rank-correlation", ok,
               f"majority {passes}/3, spearman={[f'{v:.3f}' for v in values]} "
               f"(threshold +0.3)")


class TestCriterion09CalibrationAblation:
    def test_ablation_shrinks_separation(self, trained_runs, ablated_runs):
        # expected red at desk scale: the calibration term's geometric
        # gradient is blocked by its own stop-gradient, and in the converged
        # small-violation regime its uncertainty channel pushes parts
        # slightly outward, so the W1 separation difference is noise-level
        # (see the README's limitations section)
        passes = 0
        details = []
        for seed in SEEDS:
            full = _metrics_records(trained_runs[seed]["dir"])[-1]
            ablated = ablated_runs[seed]["final_record"]
            smaller = ablated["radius_w1_image"] < full["radius_w1_image"]
            passes += smaller
            details.append(
                f"seed {seed}: full={full['radius_w1_image']:.5f} "
                f"ablated={ablated['radius_w1_image']:.5f}"
            )
        ok = passes >= 2
        report("9 calibration-ablation-direction", ok,
               f"majority {passes}/3; " + "; ".join(details))


class TestCriterion10DeterminismAndResume:
    def test_byte_identical_and_resume(self, default_corpus, tmp_path):
        cfg = TrainConfig(seed=7, steps=120, eval_interval=30,
                          checkpoint_interval=60)
        train(default_corpus, cfg, tmp_path / "a")
        train(default_corpus, cfg, tmp_path / "b")
        identical = (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        identical &= (tmp_path / "a" / "checkpoint_final.json").read_bytes() == \
            (tmp_path / "b" / "checkpoint_final.json").read_bytes()
        train(default_corpus, cfg, tmp_path / "c",
              resume=tmp_path / "a" / "checkpoint_000060.json")
        resumed_ok = (tmp_path / "a" / "checkpoint_final.json").read_bytes() == \
            (tmp_path / "c" / "checkpoint_final.json").read_bytes()
        full_recs = {json.loads(l)["step"]: l for l in
                     (tmp_path / "a" / "metrics.jsonl").read_text().splitlines()}
        for line in (tmp_path / "c" / "metrics.jsonl").read_text().splitlines():
            resumed_ok &= full_recs[json.loads(line)["step"]] == line
        ok = identical and resumed_ok
        report("10 determinism-and-resume", ok,
               f"byte-identical={identical}, resume-exact={resumed_ok}")


class TestCriterion11MetricOracles:
    def test_metric_oracles(self):
        import networkx as nx
        from scipy import optimize
        from scipy.stats import wasserstein_distance

        rng = np.random.default_rng(1100)
        worst = 0.0

        # TIE / LCA vs a breadth-first-search oracle on random trees
        tree_ok = True
        for _ in range(5):
            parent = {"n0": None}
            for i in range(1, 25):
                parent[f"n{i}"] = f"n{rng.integers(i)}"
            t = Taxonomy(parent)
            g = nx.Graph()
            for c, par in parent.items():
                if par is not None:
                    g.add_edge(c, par)
            labels = [n for n in parent if parent[n] is not None]
            for _ in range(100):
                a, b = rng.choice(labels, size=2)
                bfs = nx.shortest_path_length(g, a, b)
                tree_ok &= tie(a, b, t) == bfs and lca_error(a, b, t) == bfs
                anc_a = _ancestors(parent, a)
                anc_b = _ancestors(parent, b)
                j, p, r = hierarchical_set_metrics(a, b, t)
                inter, union = len(anc_a & anc_b), len(anc_a | anc_b)
                tree_ok &= abs(j - (inter / union if union else 0.0)) < 1e-9
                tree_ok &= abs(p - inter / len(anc_a)) < 1e-9
                tree_ok &= abs(r - inter / len(anc_b)) < 1e-9

        # recall@k vs exhaustive sort
        recall_ok = True
        m = Manifold(1.0)
        from hypalign.manifold import pairwise_distance
        for _ in range(3):
            queries = rng.normal(size=(8, 4))
            gallery = rng.normal(size=(6, 4))
            truth = {i: {int(rng.integers(6))} for i in range(8)}
            sims = -value_of(pairwise_distance(lift(queries, m), lift(gallery, m), m))
            for k in (1, 3, 6):
                brute = 0
                for qi in range(8):
                    ranked = sorted(range(6), key=lambda j: (-sims[qi, j], j))[:k]
                    brute += bool(truth[qi] & set(ranked))
                recall_ok &= recall_at_k(queries, gallery, truth, k, m) == brute / 8

        # W1/W2 vs exact small-sample transport
        for _ in range(10):
            n = int(rng.integers(3, 50))
            a = rng.normal(size=n)
            b = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            w1, w2, _ = distribution_distances(a, b)
            c1 = np.abs(a[:, None] - b[None, :])
            r_i, c_i = optimize.linear_sum_assignment(c1)
            worst = max(worst, abs(w1 - c1[r_i, c_i].sum() / n))
            c2 = (a[:, None] - b[None, :]) ** 2
            r_i, c_i = optimize.linear_sum_assignment(c2)
            worst = max(worst, abs(w2 - math.sqrt(c2[r_i, c_i].sum() / n)))
            m_sz = int(rng.integers(3, 40))
            c_sample = rng.normal(size=m_sz)
            w1u, _, _ = distribution_distances(a, c_sample)
            worst = max(worst, abs(w1u - wasserstein_distance(a, c_sample)))

        ok = tree_ok and recall_ok and worst < 1e-9
        report("11 metric-oracles", ok,
               f"tree={tree_ok}, recall={recall_ok}, transport max err={worst:.2e}")


def _ancestors(parent, label):
    """Ancestor set including the label itself, excluding the root."""
    out = set()
    node = label
    while parent[node] is not None:
        out.add(node)
        node = parent[node]
    return out
