"""Evaluation suite: hierarchy-aware classification metrics, retrieval
recall, radius-distribution distances, and the uncertainty correlation
analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.spatial.distance import pdist

from .autodiff import ParameterStore, value_of
from .errors import ContractViolationError
from .losses import LAYOUT, MODALITIES
from .manifold import Manifold, hyperbolic_radius, lift, pairwise_distance
from .synthdata import Corpus
from .uncertainty import uncertainty


# ---------------------------------------------------------------------------
# taxonomy and tree metrics
# ---------------------------------------------------------------------------

class Taxonomy:
    """Rooted tree of labels with unit edge weights."""

    def __init__(self, parent: dict[str, str | None]):
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ContractViolationError(f"taxonomy needs exactly one root, got {roots}")
        self.root = roots[0]
        self.parent = dict(parent)
        self.depth: dict[str, int] = {self.root: 0}
        pending = [n for n in parent if n != self.root]
        # iterative depth resolution; cycles or dangling parents fail loudly
        while pending:
            nxt = []
            for n in pending:
                p = self.parent[n]
                if p not in self.parent:
                    raise ContractViolationError(f"unknown parent {p!r} of {n!r}")
                if p in self.depth:
                    self.depth[n] = self.depth[p] + 1
                else:
                    nxt.append(n)
            if len(nxt) == len(pending):
                raise ContractViolationError("taxonomy contains a cycle")
            pending = nxt

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "Taxonomy":
        parent: dict[str, str | None] = {"root": None}
        for s in corpus.scenes:
            parent[s.id] = "root"
        for p in corpus.parts:
            parent[p.id] = p.parent
        return cls(parent)

    @classmethod
    def from_file(cls, path) -> "Taxonomy":
        """JSON file ``{"parent": {label: parent-or-null, ...}}``."""
        with open(path) as fh:
            payload = json.load(fh)
        if "parent" not in payload:
            raise ContractViolationError("taxonomy file needs a 'parent' map")
        return cls(payload["parent"])

    def _check(self, label: str) -> None:
        if label not in self.parent:
            raise ContractViolationError(f"label {label!r} not in taxonomy")

    def ancestors(self, label: str) -> set[str]:
        """The label and its ancestors, without the shared root."""
        self._check(label)
        out = set()
        node = label
        while node != self.root:
            out.add(node)
            node = self.parent[node]
        return out

    def lca(self, a: str, b: str) -> str:
        self._check(a)
        self._check(b)
        da, db = self.depth[a], self.depth[b]
        while da > db:
            a = self.parent[a]
            da -= 1
        while db > da:
            b = self.parent[b]
            db -= 1
        while a != b:
            a, b = self.parent[a], self.parent[b]
        return a


def tie(pred: str, truth: str, t: Taxonomy) -> int:
    """Tree-induced error: edge-count path length between the labels."""
    anc = t.lca(pred, truth)
    return (t.depth[pred] - t.depth[anc]) + (t.depth[truth] - t.depth[anc])


def lca_error(pred: str, truth: str, t: Taxonomy) -> float:
    """Sum of edge-weighted distances from both labels to their lowest
    common ancestor; under the unit weights of :class:`Taxonomy` this is
    :func:`tie`."""
    return float(tie(pred, truth, t))


def hierarchical_set_metrics(pred: str, truth: str, t: Taxonomy) -> tuple[float, float, float]:
    """(Jaccard, hierarchical precision, hierarchical recall) over ancestor
    sets that include the label itself and exclude the shared root."""
    a_pred = t.ancestors(pred)
    a_truth = t.ancestors(truth)
    inter = len(a_pred & a_truth)
    union = len(a_pred | a_truth)
    jac = inter / union if union else 0.0
    prec = inter / len(a_pred) if a_pred else 0.0
    rec = inter / len(a_truth) if a_truth else 0.0
    return jac, prec, rec


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def recall_at_k(query_embs, gallery_embs, truth_map: dict[int, set[int]],
                k: int, m: Manifold) -> float:
    """Fraction of queries whose truth set meets the top-``k`` gallery items
    by negative geodesic distance; ties break toward the lower gallery
    index."""
    gallery = value_of(gallery_embs)
    queries = value_of(query_embs)
    if gallery.shape[0] == 0:
        raise ContractViolationError("empty gallery")
    if queries.shape[0] == 0:
        raise ContractViolationError("empty query set")
    if k < 1:
        raise ContractViolationError("k must be >= 1")
    sims = -value_of(pairwise_distance(lift(queries, m), lift(gallery, m), m))
    return _recalls(sims, truth_map, (k,))[0]


def _recalls(sims: np.ndarray, truth_map: dict[int, set[int]], ks) -> list[float]:
    """:func:`recall_at_k` at each of ``ks`` from one query-by-gallery
    similarity matrix, read off one sort."""
    # stable argsort of -sims: descending similarity, index order on ties
    order = np.argsort(-sims, axis=1, kind="stable")[:, :max(ks)]
    truths = [truth_map.get(qi, set()) for qi in range(sims.shape[0])]
    return [sum(1 for truth, top in zip(truths, order)
                if truth and not truth.isdisjoint(top[:k].tolist())) / len(truths)
            for k in ks]


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

def distribution_distances(a, b) -> tuple[float, float, float]:
    """(W1, W2, MMD) between two 1-D samples.

    W1/W2 use the exact quantile coupling of the two empirical
    distributions (piecewise-constant inverse CDFs on the common
    ``1/(m n)`` grid).  MMD uses a Gaussian kernel
    ``exp(-d^2 / (2 sigma^2))`` with ``sigma`` the median pairwise distance
    of the pooled sample (fallback 1.0 if that median is zero) and the
    unbiased estimator, clamped at zero before the square root.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ContractViolationError("distribution distance of an empty sample")
    m_n, n_n = a.size, b.size
    k = np.arange(m_n * n_n)
    diff = a[k // n_n] - b[k // m_n]
    w1 = float(np.mean(np.abs(diff)))
    w2 = float(np.sqrt(np.mean(diff * diff)))

    # the pooled sample has at least two points, so at least one pair
    sigma = float(np.median(pdist(np.concatenate([a, b])[:, None], "cityblock")))
    if sigma <= 0.0:
        sigma = 1.0

    def kernel_sum(x, y):
        # one buffer, overwritten in place: d -> d^2 -> -d^2/(2 sigma^2) -> exp
        d = np.subtract.outer(x, y)
        d *= d
        d /= -2.0 * sigma * sigma
        np.exp(d, out=d)
        return d.sum()

    # a self-kernel's diagonal is exp(0) = 1, so it sums to the sample size
    term_a = (kernel_sum(a, a) - m_n) / (m_n * (m_n - 1)) if m_n > 1 else 0.0
    term_b = (kernel_sum(b, b) - n_n) / (n_n * (n_n - 1)) if n_n > 1 else 0.0
    mmd_sq = term_a + term_b - 2.0 * kernel_sum(a, b) / (m_n * n_n)
    return w1, w2, float(np.sqrt(max(0.0, mmd_sq)))


# ---------------------------------------------------------------------------
# trained-embedding analysis
# ---------------------------------------------------------------------------

def scaled_tables(store: ParameterStore) -> dict[str, np.ndarray]:
    """The four embedding groups as plain scaled tangent arrays."""
    return {group: float(value_of(store[src.scale])) * value_of(store[src.table])
            for group, src in LAYOUT.items()}


@dataclass(frozen=True)
class CorrelationReport:
    pearson_similarity: float      # part uncertainty vs part-to-whole similarity
    spearman_ground_truth: float   # part uncertainty vs (1 - representativeness)
    degenerate: bool               # a zero-variance input forced r := 0
    modality: str


def _degenerate(x: np.ndarray) -> bool:
    return np.std(x) <= 1e-12 * max(1.0, float(np.abs(np.mean(x))))


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    if _degenerate(x) or _degenerate(y):
        return 0.0, True
    return float(np.corrcoef(x, y)[0, 1]), False


def uncertainty_correlation(corpus: Corpus, store: ParameterStore, m: Manifold,
                            modality: str = "image") -> CorrelationReport:
    """Correlate each part's learned uncertainty with (a) its similarity to
    its own whole (negative geodesic distance) and (b) the corpus
    ground-truth ``1 - representativeness`` (rank correlation)."""
    if modality not in MODALITIES:
        raise ContractViolationError("modality must be 'image' or 'text'")
    if len(corpus.parts) < 3:
        raise ContractViolationError("need at least 3 parts for a correlation")
    tables = scaled_tables(store)
    parts = tables[f"part_{modality}"]
    wholes = tables[f"whole_{modality}"]
    scene_idx = corpus.scene_index()
    whole_rows = np.array([scene_idx[p.parent] for p in corpus.parts], dtype=np.intp)
    u = uncertainty(parts)
    dists = value_of(
        pairwise_distance(lift(parts, m), lift(wholes, m), m)
    )[np.arange(len(corpus.parts)), whole_rows]
    sims = -dists
    pearson, degenerate = _pearson(u, sims)
    anti_rep = np.array([1.0 - p.representativeness for p in corpus.parts])
    if _degenerate(u) or _degenerate(anti_rep):
        spearman = 0.0
        degenerate = True
    else:
        spearman = float(stats.spearmanr(u, anti_rep).statistic)
    return CorrelationReport(
        pearson_similarity=pearson,
        spearman_ground_truth=spearman,
        degenerate=degenerate,
        modality=modality,
    )


# ---------------------------------------------------------------------------
# checkpoint evaluation driver
# ---------------------------------------------------------------------------

def evaluate(corpus: Corpus, store: ParameterStore, m: Manifold,
             taxonomy: Taxonomy | None = None) -> dict:
    """Full evaluation: nearest-scene-text classification of whole images
    scored with the hierarchical metrics, both-direction retrieval recall,
    radius-distribution distances, and the uncertainty correlations."""
    taxonomy = taxonomy or Taxonomy.from_corpus(corpus)
    tables = scaled_tables(store)
    out: dict = {}

    # classification: whole image -> nearest scene text; the image-to-text
    # retrieval below reads the same matrix
    images, texts = lift(tables["whole_image"], m), lift(tables["whole_text"], m)
    sims = -value_of(pairwise_distance(images, texts, m))
    pred_rows = np.argmax(sims, axis=1)
    ties, lcas, jacs, precs, recs = [], [], [], [], []
    for i, s in enumerate(corpus.scenes):
        pred = corpus.scenes[pred_rows[i]].id
        ties.append(tie(pred, s.id, taxonomy))
        lcas.append(lca_error(pred, s.id, taxonomy))
        j, p, r = hierarchical_set_metrics(pred, s.id, taxonomy)
        jacs.append(j)
        precs.append(p)
        recs.append(r)
    out["classification"] = {
        "accuracy": float(np.mean(pred_rows == np.arange(len(corpus.scenes)))),
        "tie": float(np.mean(ties)),
        "lca_error": float(np.mean(lcas)),
        "jaccard": float(np.mean(jacs)),
        "hierarchical_precision": float(np.mean(precs)),
        "hierarchical_recall": float(np.mean(recs)),
    }

    identity = {i: {i} for i in range(len(corpus.scenes))}
    recalls = {
        "image_to_text": _recalls(sims, identity, (1, 5)),
        "text_to_image": _recalls(-value_of(pairwise_distance(texts, images, m)),
                                  identity, (1, 5)),
    }
    out["retrieval"] = {f"{direction}_r{k}": r for direction, rs in recalls.items()
                        for k, r in zip((1, 5), rs)}

    out["radius_distributions"] = {}
    for modality in MODALITIES:
        radii_p = hyperbolic_radius(tables[f"part_{modality}"], m)
        radii_w = hyperbolic_radius(tables[f"whole_{modality}"], m)
        w1, w2, mmd = distribution_distances(radii_p, radii_w)
        out["radius_distributions"][modality] = {
            "mean_part_radius": float(np.mean(radii_p)),
            "mean_whole_radius": float(np.mean(radii_w)),
            "w1": w1, "w2": w2, "mmd": mmd,
        }

    out["uncertainty_correlation"] = {}
    for modality in MODALITIES:
        rep = uncertainty_correlation(corpus, store, m, modality)
        out["uncertainty_correlation"][modality] = {
            "pearson_similarity": rep.pearson_similarity,
            "spearman_ground_truth": rep.spearman_ground_truth,
            "degenerate": rep.degenerate,
        }
    return out
