"""Evaluation metrics against independent oracles: BFS tree distances,
explicit ancestor sets, exhaustive-sort retrieval, exact small-sample
transport, and scipy's rank correlation."""

import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import networkx as nx
import pytest
from scipy import optimize
from scipy.stats import spearmanr, wasserstein_distance

from hypalign.autodiff import ParameterStore, value_of
from hypalign.errors import ContractViolationError, NumericalConsistencyError
from hypalign.evalmetrics import (
    Taxonomy,
    _kernel_means,
    _recalls,
    _spearman,
    distribution_distances,
    evaluate,
    hierarchical_set_metrics,
    lca_error,
    median_pairwise_gap,
    recall_at_k,
    scaled_tables,
    tie,
    uncertainty_correlation,
)
from hypalign.manifold import Manifold, geodesic_distance, lift, pairwise_distance
from hypalign.synthdata import generate
from hypalign.trainer import TrainConfig, init_parameters
from hypalign.uncertainty import uncertainty

import _oracles as orc
from _checkpoint_data import seeded_run


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

    @pytest.mark.parametrize("text, message", [
        ('{"parent": {"r": null, "a": ', "taxonomy is not JSON"),
        ('["r", "a"]', "needs a 'parent' map"),
        ('{"parent": ["r"]}', "needs a 'parent' map"),
        ('{"parent": {"r": null, "a": ["r"]}}', "needs a 'parent' map"),
    ])
    def test_malformed_file_names_it(self, tmp_path, text, message):
        path = tmp_path / "tax.json"
        path.write_text(text)
        with pytest.raises(ContractViolationError, match=message) as info:
            Taxonomy.from_file(path)
        assert str(path) in str(info.value)


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
            value_of(pairwise_distance(lift(queries, m), lift(gallery, m), m))
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

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 20])
    def test_exact_ties_match_stable_argsort(self, k):
        # duplicated gallery rows give exactly equal similarities
        rng = np.random.default_rng(21)
        m = Manifold(1.0)
        base = rng.normal(size=(4, 3))
        gallery = base[[0, 1, 0, 2, 3, 1, 0, 2]]
        queries = np.concatenate([rng.normal(size=(5, 3)), base[[0, 1]]])
        sims = -value_of(pairwise_distance(lift(queries, m), lift(gallery, m), m))
        truth = {0: set(), 1: {0}, 2: {2}, 3: {6, 4}, 4: {1, 5, 7}, 5: {6}, 6: {5, 3}}
        want = orc.recalls_reference(sims, truth, (k,))[0]
        assert recall_at_k(queries, gallery, truth, k, m) == want

    def test_truth_set_sizes_match_stable_argsort(self):
        rng = np.random.default_rng(22)
        ks = (1, 2, 3, 6, 7, 10)
        for _ in range(200):
            q, g = rng.integers(1, 8, size=2)
            # rounded similarities: many exact ties
            sims = np.round(rng.normal(size=(q, g)), 1)
            truth = {qi: set(rng.choice(g, size=rng.integers(0, g + 1),
                                        replace=False).tolist())
                     for qi in range(q)}
            assert _recalls(sims, truth, ks) == orc.recalls_reference(sims, truth, ks)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            distribution_distances(np.array([1.0, bad, 2.0]), np.zeros(3))
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            distribution_distances(np.zeros(3), np.array([bad]))

    def test_overflowing_gaps_rejected(self):
        # finite values whose gaps overflow to inf
        a, b = np.full(2, -1e308), np.full(2, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalConsistencyError, match="overflow"):
                median_pairwise_gap(np.concatenate([a, b]))
            with pytest.raises(NumericalConsistencyError, match="overflow"):
                distribution_distances(a, b)

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


def _exactness_cases():
    """Samples with ties, runs of equal values, negative values, sizes 1
    and 2 and unequal sizes, and pooled samples whose median gap is 0."""
    rng = np.random.default_rng(31)
    cases = [
        (np.array([0.5]), np.array([2.0])),
        (np.array([-1.0, 3.0]), np.array([0.25])),
        (np.array([1.0, 1.0]), np.array([1.0, 2.0])),
        (np.array([0.0] * 6 + [2.0]), np.array([0.0] * 4 + [1.5])),
        (np.full(5, -0.3), np.full(8, -0.3)),
    ]
    for i in range(150):
        m, n = rng.integers(1, 120, size=2)
        kind = i % 5
        if kind == 0:
            a, b = rng.normal(size=m), rng.normal(size=n) * 1.7 - 0.4
        elif kind == 1:       # ties from rounding
            a, b = np.round(rng.normal(size=m), 1), np.round(rng.normal(size=n), 1)
        elif kind == 2:       # a few integers: long runs of equal values and gaps
            a = rng.integers(-3, 4, size=m).astype(float)
            b = rng.integers(-2, 2, size=n).astype(float)
        elif kind == 3:       # large offset: gaps far below the values' magnitude
            a = 1e9 + rng.normal(size=m) * 1e-3
            b = 1e9 + rng.normal(size=n) * 1e-3
        else:                 # most of the pooled sample one value: median gap 0
            a = np.concatenate([np.full(m + n, 0.7), rng.normal(size=m)])
            b = np.full(n, 0.7)
        cases.append((a, b))
    return cases


def _accuracy_cases():
    """:func:`_exactness_cases` and one sample of the 512x4 eval's sizes."""
    rng = np.random.default_rng(34)
    return _exactness_cases() + [(np.abs(rng.normal(size=2048)) * 0.3 + 0.1,
                                  np.abs(rng.normal(size=512)) * 0.25 + 0.2)]


def _exact_coupling(a, b):
    """(W1, W2) of the quantile coupling, summed exactly in fractions over
    the segments of the ``1/(m n)`` grid that a two-pointer walk finds: a
    segment ends where either sample's inverse CDF steps."""
    a, b = sorted(a.tolist()), sorted(b.tolist())
    m, n = len(a), len(b)
    i = j = pos = 0
    s1 = s2 = Fraction(0)
    while pos < m * n:
        end = min((i + 1) * n, (j + 1) * m)
        d = abs(Fraction(a[i]) - Fraction(b[j]))
        s1 += (end - pos) * d
        s2 += (end - pos) * d * d
        pos = end
        i += pos == (i + 1) * n
        j += pos == (j + 1) * m
    return float(s1 / (m * n)), math.sqrt(s2 / (m * n))


def _kernel_means_reference(a, b, sigma):
    """The three MMD kernel means in ``np.longdouble``, a row at a time,
    the rows' sums added by ``math.fsum``.  A self-kernel's pairs are half
    of its full matrix without the diagonal, whose entries are exactly 1."""
    a, b = np.asarray(a, np.longdouble), np.asarray(b, np.longdouble)
    scale = np.longdouble(-2.0) * np.longdouble(sigma) ** 2

    def total(x, y):
        return math.fsum(float(np.exp((xi - y) ** 2 / scale).sum()) for xi in x)

    def pair_mean(x):
        n = x.size
        return (total(x, x) - n) / (n * (n - 1)) if n > 1 else 0.0

    return pair_mean(a), pair_mean(b), total(a, b) / (a.size * b.size)


def _sigma(a, b):
    sigma = median_pairwise_gap(np.concatenate([a, b]))
    return sigma if sigma > 0.0 else 1.0


class TestAccuracy:
    """W1, W2 and the MMD, computed in another order than the formulations
    they replaced, agree with exact references to 1e-12 relative; the MMD,
    a difference of kernel means, to 1e-12 of the means' total."""

    TOL = 1e-12

    @pytest.fixture(scope="class")
    def cases(self):
        return [(a, b, distribution_distances(a, b)) for a, b in _accuracy_cases()]

    def _close(self, got, want, scale):
        return abs(got - want) <= self.TOL * (abs(want) if want else scale)

    def test_wasserstein_against_exact_segments(self, cases):
        for a, b, (w1, w2, _) in cases:
            scale = max(np.abs(a).max(), np.abs(b).max())
            exact = _exact_coupling(a, b)
            assert self._close(w1, exact[0], scale), (a, b, w1, exact[0])
            assert self._close(w2, exact[1], scale), (a, b, w2, exact[1])

    def test_kernel_means_against_longdouble(self, cases):
        for a, b, _ in cases:
            sigma = _sigma(a, b)
            got = _kernel_means(np.sort(a), np.sort(b), sigma)
            want = _kernel_means_reference(a, b, sigma)
            for g, w in zip(got, want):
                assert abs(g - w) <= self.TOL * w, (a, b, got, want)

    def test_mmd_against_longdouble(self, cases):
        for a, b, (_, _, mmd) in cases:
            term_a, term_b, cross = _kernel_means_reference(a, b, _sigma(a, b))
            want_sq = max(0.0, term_a + term_b - 2.0 * cross)
            assert abs(mmd * mmd - want_sq) <= self.TOL * (term_a + term_b + 2.0 * cross)

    def test_against_grid_formulation(self, cases):
        for a, b, (w1, w2, mmd) in cases:
            scale = max(np.abs(a).max(), np.abs(b).max())
            ref = orc.distribution_distances_reference(a, b)
            assert self._close(w1, ref[0], scale) and self._close(w2, ref[1], scale), (a, b)
            term_a, term_b, cross = _kernel_means_reference(a, b, _sigma(a, b))
            assert abs(mmd * mmd - ref[2] * ref[2]) <= self.TOL * (term_a + term_b + 2.0 * cross)

    def test_memory_below_an_eighth_of_the_self_kernel(self):
        a, b = _accuracy_cases()[-1]
        self_kernel_bytes = a.size * a.size * 8      # 32 MiB at 2048 points
        tracemalloc.start()
        try:
            distribution_distances(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self_kernel_bytes / 8


class TestExactness:
    """The rewritten bandwidth selection gives the same doubles as the
    formulation it replaced (``_oracles``), not merely close ones."""

    def test_median_pairwise_gap_bit_equal(self):
        zero_gaps = 0
        for a, b in _exactness_cases():
            for x in (a, b, np.concatenate([a, b])):
                if x.size < 2:
                    continue
                got = median_pairwise_gap(x)
                assert got == orc.median_pairwise_gap_reference(x), x
                zero_gaps += got == 0.0
        # the cases reach the sigma = 1 fallback of distribution_distances
        assert zero_gaps >= 10

    @pytest.mark.parametrize("x", [
        [-1.7e308, 0.0],                        # one pair, near the float limit
        [-8e307, 0.0, 8e307, 8e307],
        [1e300, -3e299, 2e300, 7e299, -1e300],
        [5e-324, 0.0, 1e-323, 5e-324],          # subnormal gaps
    ])
    def test_median_pairwise_gap_extreme_magnitudes(self, x):
        x = np.array(x)
        with np.errstate(over="ignore"):
            assert median_pairwise_gap(x) == orc.median_pairwise_gap_reference(x)

    @staticmethod
    def _peak_bytes(x):
        tracemalloc.start()
        try:
            median_pairwise_gap(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bandwidth_memory_below_pair_array(self):
        # the pairwise-distance array of 2560 points holds 3.3M doubles
        x = np.abs(np.random.default_rng(32).normal(size=2560)) + 1.0
        pair_bytes = x.size * (x.size - 1) // 2 * 8
        assert self._peak_bytes(x) < pair_bytes / 4

    @pytest.mark.parametrize("kind", ["all equal", "two values", "five integers"])
    def test_bandwidth_memory_on_ties_within_pair_array(self, kind):
        # when most gaps tie with the median, the kept band holds most pairs:
        # the peak stays within the pair array itself (np.median(pdist)
        # held the array and a partitioned copy of it)
        rng = np.random.default_rng(33)
        x = {"all equal": np.full(2560, 0.8),
             "two values": np.repeat([0.1, 0.1 + 1e-17], 1280),
             "five integers": rng.integers(0, 5, size=2560).astype(float)}[kind]
        pair_bytes = x.size * (x.size - 1) // 2 * 8
        assert median_pairwise_gap(x) == orc.median_pairwise_gap_reference(x)
        assert self._peak_bytes(x) < 1.1 * pair_bytes


def _spearman_cases():
    rng = np.random.default_rng(21)

    def shuffled(values):
        return rng.permutation(np.asarray(values, dtype=np.float64))

    yield "n3", rng.normal(size=3), rng.normal(size=3)
    yield "n3-tie", np.array([0.5, 0.5, 0.2]), np.array([0.1, 0.3, 0.2])
    yield "ties-in-x", np.round(rng.normal(size=50), 1), rng.normal(size=50)
    yield "ties-in-y", rng.normal(size=50), rng.integers(0, 4, size=50).astype(np.float64)
    yield ("ties-in-both", rng.integers(0, 6, size=80).astype(np.float64),
           rng.integers(0, 3, size=80).astype(np.float64))
    yield "one-distinct-in-x", shuffled([2.0] * 30 + [7.0]), rng.normal(size=31)
    yield "one-distinct-in-y", rng.normal(size=31), shuffled([-1.0] + [0.25] * 30)
    yield "signed-zeros-tie", shuffled([0.0, -0.0, 1.0, -1.0, 0.0]), rng.normal(size=5)
    yield "n2048", rng.normal(size=2048), rng.uniform(size=2048)
    yield "n2048-ties", np.round(rng.normal(size=2048), 2), np.round(rng.uniform(size=2048), 1)


class TestSpearman:
    """``_spearman`` is ``scipy.stats.spearmanr``'s statistic, bit for bit."""

    @pytest.mark.parametrize("x, y", [pytest.param(x, y, id=name)
                                      for name, x, y in _spearman_cases()])
    def test_bit_equal_to_scipy(self, x, y):
        assert _spearman(x, y) == float(spearmanr(x, y).statistic)

    def test_bit_equal_on_random_sizes_and_ties(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(3, 400))
            x, y = rng.normal(size=n), rng.normal(size=n)
            x = np.round(x, int(rng.integers(0, 3)))        # ties, few or many
            y = rng.integers(0, int(rng.integers(2, n + 1)), size=n).astype(np.float64)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert _spearman(x, y) == float(spearmanr(x, y).statistic), n

    def test_nan_propagates_as_scipy(self):
        x, y = np.array([0.3, np.nan, 0.1, 0.7]), np.array([1.0, 2.0, 3.0, 4.0])
        assert math.isnan(_spearman(x, y)) and math.isnan(spearmanr(x, y).statistic)
        assert math.isnan(_spearman(y, x))


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
        offsets = {0: 1.0, 1: 3.5, 2: 6.0}
        for i, row in enumerate(corpus.parent_rows):
            parts[i] = offsets[i % 3] * directions[row]
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
        assert rep.spearman_ground_truth == 0.0

    def test_degenerate_constant_representativeness(self):
        corpus = generate(num_scenes=4, parts_per_scene=2, seed=13)
        corpus = replace(corpus, representativeness=np.full(len(corpus.ids["part"]), 0.5))
        store = init_parameters(corpus, TrainConfig(batch_size=4, table_dim=16))
        rep = uncertainty_correlation(corpus, store, Manifold(1.0))
        assert rep.degenerate
        assert rep.spearman_ground_truth == 0.0

    def test_spearman_is_scipys_on_the_corpus(self):
        corpus = generate(num_scenes=16, parts_per_scene=4, seed=17)
        store = init_parameters(corpus, TrainConfig(batch_size=4, table_dim=16))
        for modality, part in (("image", "part_image"), ("text", "part_text")):
            rep = uncertainty_correlation(corpus, store, Manifold(1.0), modality)
            u = uncertainty(scaled_tables(store)[part])
            anti_rep = [1.0 - rep for rep in corpus.representativeness.tolist()]
            assert not rep.degenerate
            assert rep.spearman_ground_truth == float(spearmanr(u, anti_rep).statistic)

    @pytest.mark.parametrize("read", [True, False], ids=["read", "unread"])
    def test_drift_raises_only_in_a_pair_eval_reads(self, read):
        # part 0 nearly coincides, far out, with a whole image: its own
        # whole, whose distance eval reads, or another, whose it never forms
        corpus = generate(num_scenes=3, parts_per_scene=2, seed=15)
        rng = np.random.default_rng(3)
        m = Manifold(1.0)
        own = corpus.parent_rows[0]
        whole = own if read else (own + 1) % 3
        scenes, parts = rng.normal(size=(3, 16)), rng.normal(size=(6, 16))
        for _ in range(200):
            direction = rng.normal(size=16)
            scenes[whole] = direction / np.linalg.norm(direction) * rng.uniform(11.5, 14.0)
            parts[0] = scenes[whole] + rng.normal(size=16) * 1e-9
            try:
                geodesic_distance(lift(parts[:1], m), lift(scenes[whole:whole + 1], m), m)
            except NumericalConsistencyError as err:
                want = str(err)
                break
        else:
            pytest.fail("no drifting pair found")
        assert re.fullmatch(r"acosh argument \S+ below 1 by more than 1e-06", want)
        store = ParameterStore()
        store.register("table_scene_img", scenes)
        store.register("table_part_img", parts)
        store.register("table_scene_txt", rng.normal(size=(3, 16)))
        store.register("table_part_txt", rng.normal(size=(6, 16)))
        for name, v in (("kappa", 1.0), ("tau_g", .07), ("tau_l", .07), ("tau_gl", .06),
                        ("c_img", 1.0), ("c_txt", 1.0)):
            store.register(name, v)
        for run in (lambda: uncertainty_correlation(corpus, store, m),
                    lambda: evaluate(corpus, store, m)):
            if read:
                with pytest.raises(NumericalConsistencyError) as got:
                    run()
                assert str(got.value) == want
            else:
                run()

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

    def test_lca_error_is_the_mean_of_lca_error(self):
        # evaluate walks each scene's tree once and reports that mean twice
        corpus = generate(num_scenes=12, parts_per_scene=2, seed=16)
        store = init_parameters(corpus, TrainConfig(batch_size=4, table_dim=16))
        texts = store["table_scene_txt"].value
        texts[:6] = texts[:6][::-1].copy()    # half the scenes lose their text
        m = Manifold(1.0)
        taxonomy = Taxonomy({"root": None, "a": "root", "b": "a",
                             **{s: ("a", "b", "root")[i % 3]
                                for i, s in enumerate(corpus.ids["scene"])}})
        classification = evaluate(corpus, store, m, taxonomy)["classification"]
        tables = scaled_tables(store)
        sims = -value_of(pairwise_distance(lift(tables["whole_image"], m),
                                           lift(tables["whole_text"], m), m))
        scene_ids = corpus.ids["scene"]
        want = np.mean([lca_error(scene_ids[row], s, taxonomy)
                        for row, s in zip(np.argmax(sims, axis=1), scene_ids)])
        assert want > 0.0
        assert classification["lca_error"] == classification["tie"] == float(want)

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

    def test_peak_memory_is_one_matrix_and_its_temporary(self):
        # in (S, S) float64 matrices at S = 512: evaluate holds one similarity
        # matrix at a time plus the outer product that builds the next (about
        # 2.9; 4.8 when both directions' matrices, a copy and the distance's
        # separate acosh argument were alive together)
        corpus, store, _ = seeded_run(512, 4, 5)
        m = Manifold(float(value_of(store["kappa"])))
        tracemalloc.start()
        try:
            evaluate(corpus, store, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrices = peak / (512 * 512 * 8)
        assert matrices <= 3.5, f"peak {matrices:.2f} matrices"
