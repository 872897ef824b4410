"""Evaluation metrics against independent oracles: BFS tree distances,
explicit ancestor sets, exhaustive-sort retrieval, and exact small-sample
transport."""

import numpy as np
import networkx as nx
import pytest
from scipy import optimize
from scipy.stats import wasserstein_distance

from hypalign.autodiff import ParameterStore
from hypalign.errors import ContractViolationError
from hypalign.evalmetrics import (
    Taxonomy,
    distribution_distances,
    evaluate,
    hierarchical_set_metrics,
    lca_error,
    recall_at_k,
    scaled_tables,
    tie,
    uncertainty_correlation,
)
from hypalign.manifold import Manifold, lift, pairwise_distance
from hypalign.synthdata import generate
from hypalign.trainer import TrainConfig, init_parameters

import _oracles as orc


def random_tree(rng, n_nodes):
    parent = {"n0": None}
    for i in range(1, n_nodes):
        parent[f"n{i}"] = f"n{rng.integers(i)}"
    return parent


def nx_graph(parent):
    g = nx.Graph()
    for child, par in parent.items():
        g.add_node(child)
        if par is not None:
            g.add_edge(child, par)
    return g


class TestTaxonomy:
    def test_single_root_required(self):
        with pytest.raises(ContractViolationError):
            Taxonomy({"a": None, "b": None})
        with pytest.raises(ContractViolationError):
            Taxonomy({"a": "b", "b": "a"})
        with pytest.raises(ContractViolationError):
            Taxonomy({"r": None, "a": "b", "b": "a"})
        with pytest.raises(ContractViolationError):
            Taxonomy({"a": None, "b": "missing"})

    def test_unknown_label(self):
        t = Taxonomy({"r": None, "a": "r"})
        with pytest.raises(ContractViolationError):
            tie("a", "zzz", t)

    def test_from_corpus_structure(self):
        corpus = generate(num_scenes=3, parts_per_scene=2, seed=1)
        t = Taxonomy.from_corpus(corpus)
        assert t.root == "root"
        assert t.depth["s000"] == 1
        assert t.depth["s000.p0"] == 2

    def test_from_file(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text('{"parent": {"r": null, "a": "r", "b": "a"}}')
        t = Taxonomy.from_file(path)
        assert t.depth["b"] == 2


class TestTreeMetrics:
    def test_identity_zero(self):
        t = Taxonomy({"r": None, "a": "r"})
        assert tie("a", "a", t) == 0
        assert lca_error("a", "a", t) == 0.0

    def test_siblings_and_parent_child(self):
        t = Taxonomy({"r": None, "a": "r", "b": "r", "c": "a"})
        assert tie("a", "b", t) == 2
        assert lca_error("c", "a", t) == 1.0

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(0)
        parent = random_tree(rng, 40)
        t = Taxonomy(parent)
        g = nx_graph(parent)
        labels = list(parent)
        for _ in range(300):
            a, b = rng.choice(labels, size=2)
            expected = nx.shortest_path_length(g, a, b)
            assert tie(a, b, t) == expected
            assert lca_error(a, b, t) == expected  # unit weights

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        parent = random_tree(rng, 25)
        t = Taxonomy(parent)
        labels = list(parent)
        for _ in range(100):
            a, b = rng.choice(labels, size=2)
            assert tie(a, b, t) == tie(b, a, t)
            assert lca_error(a, b, t) == lca_error(b, a, t)


class TestSetMetrics:
    def test_identity(self):
        t = Taxonomy({"r": None, "a": "r", "b": "a"})
        assert hierarchical_set_metrics("b", "b", t) == (1.0, 1.0, 1.0)

    def test_disjoint_depth_one_branches(self):
        t = Taxonomy({"r": None, "a": "r", "b": "r"})
        assert hierarchical_set_metrics("a", "b", t) == (0.0, 0.0, 0.0)

    def test_matches_explicit_set_oracle(self):
        rng = np.random.default_rng(2)
        parent = random_tree(rng, 30)
        t = Taxonomy(parent)
        labels = [n for n in parent if n != "n0"]

        def ancestors(lbl):
            out = set()
            node = lbl
            while node is not None:
                if node != "n0":
                    out.add(node)
                node = parent[node]
            return out

        for _ in range(200):
            a, b = rng.choice(labels, size=2)
            sa, sb = ancestors(a), ancestors(b)
            j, p, r = hierarchical_set_metrics(a, b, t)
            assert j == pytest.approx(len(sa & sb) / len(sa | sb))
            assert p == pytest.approx(len(sa & sb) / len(sa))
            assert r == pytest.approx(len(sa & sb) / len(sb))
            assert 0.0 <= j <= 1.0
            assert j <= min(p, r) + 1e-15


class TestRecallAtK:
    def _setup(self, rng, q, g, n=4):
        return rng.normal(size=(q, n)), rng.normal(size=(g, n))

    def test_full_gallery_recall_one(self):
        rng = np.random.default_rng(3)
        m = Manifold(1.0)
        queries, gallery = self._setup(rng, 5, 7)
        truth = {i: {i % 7} for i in range(5)}
        assert recall_at_k(queries, gallery, truth, 7, m) == 1.0

    def test_identical_embeddings_r1(self):
        rng = np.random.default_rng(4)
        m = Manifold(1.0)
        queries, _ = self._setup(rng, 6, 6)
        truth = {i: {i} for i in range(6)}
        assert recall_at_k(queries, queries, truth, 1, m) == 1.0

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(5)
        m = Manifold(1.0)
        queries, gallery = self._setup(rng, 10, 8, n=3)
        truth = {i: set(rng.choice(8, size=2, replace=False).tolist())
                 for i in range(10)}
        sims = -np.asarray(
            __import__("hypalign.autodiff", fromlist=["value_of"]).value_of(
                pairwise_distance(lift(queries, m), lift(gallery, m), m)
            )
        )
        for k in (1, 2, 5, 8):
            hits = 0
            for qi in range(10):
                ranked = sorted(range(8), key=lambda j: (-sims[qi, j], j))[:k]
                hits += bool(truth[qi] & set(ranked))
            assert recall_at_k(queries, gallery, truth, k, m) == hits / 10

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        m = Manifold(1.0)
        queries, gallery = self._setup(rng, 12, 9, n=3)
        truth = {i: {int(rng.integers(9))} for i in range(12)}
        values = [recall_at_k(queries, gallery, truth, k, m) for k in range(1, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n_queries, n_gallery, message", [
        (2, 0, "empty gallery"),
        (0, 2, "empty query set"),
    ])
    def test_empty_gallery_rejected(self, n_queries, n_gallery, message):
        m = Manifold(1.0)
        with pytest.raises(ContractViolationError, match=message):
            recall_at_k(np.zeros((n_queries, 3)), np.zeros((n_gallery, 3)), {}, 1, m)


class TestDistributionDistances:
    def test_identical_samples(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=40)
        w1, w2, mmd = distribution_distances(a, a.copy())
        assert w1 == 0.0 and w2 == 0.0
        assert abs(mmd) < 1e-12

    def test_constant_shift(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=30)
        w1, w2, _ = distribution_distances(a, a + 0.7)
        assert w1 == pytest.approx(0.7, rel=1e-12)
        assert w2 == pytest.approx(0.7, rel=1e-12)

    def test_matches_assignment_oracle_equal_sizes(self):
        rng = np.random.default_rng(9)
        for n in (5, 20, 50):
            a, b = rng.normal(size=n), rng.normal(size=n) + 0.3
            w1, w2, _ = distribution_distances(a, b)
            cost1 = np.abs(a[:, None] - b[None, :])
            rows, cols = optimize.linear_sum_assignment(cost1)
            assert w1 == pytest.approx(cost1[rows, cols].sum() / n, rel=1e-9)
            cost2 = (a[:, None] - b[None, :]) ** 2
            rows, cols = optimize.linear_sum_assignment(cost2)
            assert w2 == pytest.approx(np.sqrt(cost2[rows, cols].sum() / n), rel=1e-9)

    def test_w1_matches_scipy_unequal_sizes(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=37), rng.normal(size=23) * 1.4
        w1, _, _ = distribution_distances(a, b)
        assert w1 == pytest.approx(wasserstein_distance(a, b), rel=1e-9)

    def test_w1_le_w2(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=rng.integers(3, 40))
            b = rng.normal(size=rng.integers(3, 40)) * rng.uniform(0.5, 2)
            w1, w2, mmd = distribution_distances(a, b)
            assert w1 <= w2 + 1e-12
            assert w1 >= 0 and mmd >= 0

    def test_degenerate_all_equal(self):
        w1, w2, mmd = distribution_distances(np.zeros(5), np.zeros(7))
        assert (w1, w2, mmd) == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            distribution_distances(np.array([]), np.zeros(3))

    def test_mmd_matches_double_loop_transcription(self):
        rng = np.random.default_rng(12)
        cases = [
            (rng.normal(size=37), rng.normal(size=23) * 1.4 + 0.2),      # unequal sizes
            (np.round(rng.normal(size=30), 1), np.round(rng.normal(size=12) + 0.5, 1)),  # ties
            (rng.normal(size=1), rng.normal(size=9)),                    # a single point
            # most pooled pairs tie, so the median distance is 0 and sigma falls back to 1
            (np.array([0.0] * 6 + [2.0]), np.array([0.0] * 4 + [1.5])),
            (np.full(5, 0.3), np.full(8, 0.3)),                          # all equal
        ]
        for a, b in cases:
            _, _, mmd = distribution_distances(a, b)
            assert mmd == pytest.approx(orc.mmd_scalar(a.tolist(), b.tolist()),
                                        rel=1e-12, abs=1e-12)


class TestUncertaintyCorrelation:
    def _trained_like_store(self, corpus, spread_uncertainty):
        cfg = TrainConfig(batch_size=4, table_dim=16)
        store = init_parameters(corpus, cfg)
        return store

    def test_antitone_construction_strongly_negative(self):
        # each part sits on its whole's ray: small norm = high uncertainty and
        # far from the whole = low similarity, so u and similarity are
        # antitone across the corpus
        corpus = generate(num_scenes=4, parts_per_scene=3, seed=12)
        store = ParameterStore()
        n = 16
        directions = np.eye(n)[:4]
        scene = 8.0 * directions
        parts = np.zeros((12, n))
        sidx = {s.id: i for i, s in enumerate(corpus.scenes)}
        offsets = {0: 1.0, 1: 3.5, 2: 6.0}
        for i, p in enumerate(corpus.parts):
            parts[i] = offsets[i % 3] * directions[sidx[p.parent]]
        store.register("table_scene_img", scene / 0.25)
        store.register("table_scene_txt", scene / 0.25)
        store.register("table_part_img", parts / 0.25)
        store.register("table_part_txt", parts / 0.25)
        store.register("kappa", 1.0)
        for name, v in (("tau_g", .07), ("tau_l", .07), ("tau_gl", .06),
                        ("c_img", 0.25), ("c_txt", 0.25)):
            store.register(name, v)
        rep = uncertainty_correlation(corpus, store, Manifold(1.0))
        assert rep.pearson_similarity < -0.8
        assert not rep.degenerate

    def test_degenerate_constant_uncertainty(self):
        corpus = generate(num_scenes=3, parts_per_scene=2, seed=13)
        store = ParameterStore()
        n = 16
        rng = np.random.default_rng(1)
        directions = rng.normal(size=(6, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        store.register("table_scene_img", rng.normal(size=(3, n)))
        store.register("table_scene_txt", rng.normal(size=(3, n)))
        store.register("table_part_img", directions * 2.0)  # constant norm
        store.register("table_part_txt", directions * 2.0)
        store.register("kappa", 1.0)
        for name, v in (("tau_g", .07), ("tau_l", .07), ("tau_gl", .06),
                        ("c_img", 0.25), ("c_txt", 0.25)):
            store.register(name, v)
        rep = uncertainty_correlation(corpus, store, Manifold(1.0))
        assert rep.degenerate
        assert rep.pearson_similarity == 0.0

    def test_too_few_parts_rejected(self):
        corpus = generate(num_scenes=2, parts_per_scene=1, seed=14)
        cfg = TrainConfig(batch_size=2, table_dim=16)
        store = init_parameters(corpus, cfg)
        with pytest.raises(ContractViolationError):
            uncertainty_correlation(corpus, store, Manifold(1.0))


class TestEvaluate:
    def test_full_report_shape(self):
        corpus = generate(num_scenes=6, parts_per_scene=2, seed=15)
        cfg = TrainConfig(batch_size=4, table_dim=16)
        store = init_parameters(corpus, cfg)
        report = evaluate(corpus, store, Manifold(1.0))
        assert set(report) == {"classification", "retrieval",
                               "radius_distributions", "uncertainty_correlation"}
        assert 0.0 <= report["retrieval"]["image_to_text_r1"] <= 1.0
        assert report["classification"]["tie"] >= 0.0
        assert "image" in report["radius_distributions"]

    def test_retrieval_equals_recall_at_k(self):
        # evaluate reads R@1 and R@5 off one sort per direction
        corpus = generate(num_scenes=12, parts_per_scene=2, seed=16)
        store = init_parameters(corpus, TrainConfig(batch_size=4, table_dim=16))
        texts = store["table_scene_txt"].value
        texts[:6] = texts[:6][::-1].copy()    # half the scenes lose their text
        m = Manifold(1.0)
        retrieval = evaluate(corpus, store, m)["retrieval"]
        tables = scaled_tables(store)
        identity = {i: {i} for i in range(12)}
        for direction, queries, gallery in (
            ("image_to_text", tables["whole_image"], tables["whole_text"]),
            ("text_to_image", tables["whole_text"], tables["whole_image"]),
        ):
            for k in (1, 5):
                assert retrieval[f"{direction}_r{k}"] == recall_at_k(
                    queries, gallery, identity, k, m), (direction, k)
