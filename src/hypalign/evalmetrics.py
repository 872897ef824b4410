"""Evaluation suite: hierarchy-aware classification metrics, retrieval
recall, radius-distribution distances, and the uncertainty correlation
analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore, value_of
from .errors import ContractViolationError, NumericalConsistencyError
from .losses import LAYOUT, MODALITIES
from .manifold import (LorentzPoint, Manifold, geodesic_distance, hyperbolic_radius, lift,
                       pairwise_distance)
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
        """Each part under its scene and every scene under one root, whose
        label is ``"root"`` primed until it is no corpus id."""
        scenes = corpus.ids["scene"]
        parts = dict(zip(corpus.ids["part"], [scenes[row] for row in corpus.parent_rows.tolist()]))
        root = "root"
        while root in parts or root in scenes:
            root += "'"
        return cls({root: None, **dict.fromkeys(scenes, root), **parts})

    @classmethod
    def from_file(cls, path, labels=()) -> "Taxonomy":
        """JSON file ``{"parent": {label: parent-or-null, ...}}`` holding
        every one of ``labels``; a file that is not one raises naming it."""
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as err:  # not JSON, or an integer past the digit limit
                raise ContractViolationError(f"{path}: taxonomy is not JSON: {err}") from None
        parent = payload.get("parent") if isinstance(payload, dict) else None
        if not isinstance(parent, dict) or not all(
                p is None or isinstance(p, str) for p in parent.values()):
            raise ContractViolationError(
                f"{path}: taxonomy file needs a 'parent' map of labels to labels or null")
        try:
            tree = cls(parent)
        except ContractViolationError as err:
            raise ContractViolationError(f"{path}: {err}") from None
        missing = [label for label in labels if label not in parent]
        if missing:
            raise ContractViolationError(f"{path}: taxonomy lacks label(s) {missing}")
        return tree

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
        """The deepest label both :meth:`ancestors` sets hold, or the root."""
        common = self.ancestors(a) & self.ancestors(b)
        return max(common, key=self.depth.__getitem__, default=self.root)


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
    return _recalls(_similarities(lift(queries, m), lift(gallery, m), m), truth_map, (k,))[0]


def _similarities(p: LorentzPoint, q: LorentzPoint, m: Manifold) -> np.ndarray:
    """Negative geodesic distance of every pair of rows of two plain point
    batches, negated in the distance's own buffer."""
    sims = pairwise_distance(p, q, m)
    return np.negative(sims, out=sims)


def _recalls(sims: np.ndarray, truth_map: dict[int, set[int]], ks) -> list[float]:
    """:func:`recall_at_k` at each of ``ks`` from one query-by-gallery
    similarity matrix.

    A query's best truth item is its most similar one, the lowest index on
    ties; the query is a hit at ``k`` when fewer than ``k`` gallery items
    rank before that item: those more similar, and those equally similar at
    a lower index (the order of a stable sort by descending similarity).
    """
    n_queries, n_gallery = sims.shape
    # (query, truth item) pairs as two flat index lists
    rows, cols = [], []
    for qi in range(n_queries):
        for t in truth_map.get(qi, ()):
            if 0 <= t < n_gallery:
                rows.append(qi)
                cols.append(t)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    order = np.lexsort((cols, -sims[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    best = np.unique(rows, return_index=True)[1]
    rows, cols = rows[best], cols[best]
    # every query in order (as the identity map gives) reads sims itself
    cand = sims if rows.size == n_queries else sims[rows]
    target = cand[np.arange(rows.size), cols][:, None]
    ranks = (np.count_nonzero(cand > target, axis=1)
             + np.count_nonzero((cand == target) & (np.arange(n_gallery) < cols[:, None]),
                                axis=1))
    return [np.count_nonzero(ranks < k) / n_queries for k in ks]


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

def distribution_distances(a, b) -> tuple[float, float, float]:
    """(W1, W2, MMD) between two 1-D samples.

    W1/W2 use the exact quantile coupling of the two empirical
    distributions: their piecewise-constant inverse CDFs on the common
    ``1/(m n)`` grid, sorted ``a`` with each value repeated ``n`` times
    against sorted ``b`` with each value repeated ``m`` times.  The
    breakpoints of the two (the multiples of ``n`` and of ``m``), merged,
    cut that grid into at most ``m + n`` segments, each holding one pair of
    values for an integer number of grid points; the coupling is summed
    over the segments, in O(m + n).  MMD uses a Gaussian kernel
    ``exp(-d^2 / (2 sigma^2))`` and the unbiased estimator
    (:func:`_kernel_means`), clamped at zero before the square root;
    ``sigma`` is the median pairwise distance of the pooled sample,
    selected by :func:`median_pairwise_gap` without listing the pairs
    (fallback 1.0 if that median is zero).  No array grows with the pair
    count.

    The three values agree with the grid formulation to rounding, not bit
    for bit: the tests hold W1, W2 and each kernel mean to 1e-12 relative
    of exact references, and the squared MMD to 1e-12 of its terms' total.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ContractViolationError("distribution distance of an empty sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalConsistencyError("distribution distance of a non-finite sample")
    m_n, n_n = a.size, b.size
    # grid point k pairs a[k // n] with b[k // m]; a segment ends at each
    # multiple of n or of m (a common one taken once, from a), and a stable
    # sort of the two sorted runs of ends is one merge
    a_ends = np.arange(1, m_n + 1) * n_n
    b_ends = np.arange(1, n_n + 1) * m_n
    ends = np.sort(np.concatenate([a_ends, b_ends[b_ends % n_n != 0]]), kind="stable")
    starts = np.concatenate([[0], ends[:-1]])
    diff = np.abs(a[starts // n_n] - b[starts // m_n])
    widths = (ends - starts).astype(np.float64)
    w1 = float(np.sum(widths * diff) / (m_n * n_n))
    diff *= diff
    w2 = float(np.sqrt(np.sum(widths * diff) / (m_n * n_n)))

    # the pooled sample has at least two points, so at least one pair
    sigma = median_pairwise_gap(np.concatenate([a, b]))
    if sigma <= 0.0:
        sigma = 1.0
    term_a, term_b, cross = _kernel_means(a, b, sigma)
    mmd_sq = term_a + term_b - 2.0 * cross
    return w1, w2, float(np.sqrt(max(0.0, mmd_sq)))


_KERNEL_BLOCK = 1 << 17      # kernel entries per block: 1 MiB of float64


def _kernel_means(a, b, sigma: float) -> tuple[float, float, float]:
    """The three mean kernel values ``exp(-d^2 / (2 sigma^2))`` of the
    unbiased MMD estimate of 1-D samples ``a`` and ``b``: over the pairs
    ``i < j`` of ``a`` (0.0 for one point), over those of ``b``, and over
    every ``(a_i, b_j)``.

    Each kernel entry is computed as the full kernel matrices compute it;
    only the order of summation differs.  The pairs are visited in row
    blocks of at most ``_KERNEL_BLOCK`` entries, so memory is O(m + n)
    plus one block.
    """
    def block_sum(rows, cols, strict):
        # one buffer, overwritten in place: d -> d^2 -> -d^2/(2 sigma^2) -> exp
        d = np.subtract.outer(rows, cols)
        d *= d
        d /= -2.0 * sigma * sigma
        np.exp(d, out=d)
        if strict:       # rows and columns start at one index: keep only j > i
            k = rows.size
            d[:, :k][np.tri(k, dtype=bool)] = 0.0
        return float(d.sum())

    def pair_mean(x):
        n = x.size
        total, start = 0.0, 0
        while start < n - 1:
            # rows start..stop-1 against columns start..n-1
            stop = min(n - 1, start + max(1, _KERNEL_BLOCK // (n - start)))
            total += block_sum(x[start:stop], x[start:], True)
            start = stop
        return total / (n * (n - 1) // 2) if n > 1 else 0.0

    step = max(1, _KERNEL_BLOCK // b.size)
    cross = sum(block_sum(a[start:start + step], b, False) for start in range(0, a.size, step))
    return pair_mean(a), pair_mean(b), cross / (a.size * b.size)


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_BLOCK = 1 << 14      # window pairs computed at a time


def median_pairwise_gap(x) -> float:
    """``np.median`` of ``|x_i - x_j|`` over the pairs ``i < j`` of a finite
    1-D sample of at least two points, bit for bit, without listing the pairs.

    Over the sorted sample each gap is ``x[j] - x[i]`` for ``j > i``,
    exactly ``|x_i - x_j|``, and non-decreasing along ``j``.  Bisection on
    value with approximate pair counts (one ``searchsorted`` per trial
    threshold) narrows a band ``[lo, hi]`` that holds the middle order
    statistics; ``margin`` bounds the rounding of ``x[i] + t`` against
    ``x[j] - x[i]``, so every pair outside the widened per-row windows lies
    on the known side of the band.  The gaps inside the windows are
    computed exactly, a block of rows at a time, and only those inside the
    band are kept; the middle order statistics are read off a partition of
    the band and averaged as ``np.median`` averages them.

    Memory is O(n) plus the band.  On distinct values the band holds about
    ``n`` pairs; when many gaps tie with the median (a sample of few
    distinct values) it can hold up to all ``n (n - 1) / 2`` of them, the
    size of the pair array that ``np.median(pdist(x))`` held next to a
    partitioned copy of it.
    """
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    n = x.size
    pairs = n * (n - 1) // 2
    # np.median averages one middle order statistic, or the two of an even count
    ranks = sorted({(pairs - 1) // 2, pairs // 2})
    first = np.arange(1, n + 1)           # row i's first partner
    margin = 16.0 * _EPS * max(-x[0], x[-1]) + _TINY
    span = x[-1] - x[0]
    if not np.isfinite(span + 2.0 * margin):
        raise NumericalConsistencyError("pairwise gaps of the sample overflow")

    def count(t):
        """Pairs with x[j] <= x[i] + t, within a margin of those with gap <= t."""
        return int(np.maximum(np.searchsorted(x, x + t, "right") - first, 0).sum())

    def approach(good, bad, shift, ok):
        """Bisect from ``good`` (``ok``) toward ``bad`` until few pairs or
        at most two margins lie between them."""
        c_good, c_bad = count(good + shift), count(bad + shift)
        while abs(c_good - c_bad) > n and abs(good - bad) > 2.0 * margin:
            mid = 0.5 * good + 0.5 * bad        # no overflow near the float limit
            c = count(mid + shift)
            if ok(c):
                good, c_good = mid, c
            else:
                bad, c_bad = mid, c
        return good

    # at most ranks[0] gaps are <= lo, and more than ranks[-1] are <= hi
    lo = approach(-2.0 * margin, span + 2.0 * margin, margin, lambda c: c <= ranks[0])
    hi = approach(span + 2.0 * margin, lo, -margin, lambda c: c > ranks[-1])
    left = np.maximum(np.searchsorted(x, x + (lo - margin), "left"), first)
    right = np.maximum(np.searchsorted(x, x + (hi + margin), "right"), left)
    sizes = right - left
    ends = np.cumsum(sizes)
    below = int((left - first).sum())     # pairs left of every window
    band = np.empty(int(ends[-1]))
    kept = 0
    start = 0
    while start < n:
        # the rows whose windows end within _BLOCK pairs, and at least one
        stop = max(int(np.searchsorted(ends, ends[start] - sizes[start] + _BLOCK, "right")),
                   start + 1)
        block = sizes[start:stop]
        rows = np.repeat(np.arange(start, stop), block)
        cols = np.arange(rows.size) + np.repeat(left[start:stop] - (np.cumsum(block) - block),
                                                block)
        gaps = x[cols] - x[rows]
        below += np.count_nonzero(gaps < lo)
        gaps = gaps[(gaps >= lo) & (gaps <= hi)]
        band[kept:kept + gaps.size] = gaps
        kept += gaps.size
        start = stop
    band = band[:kept]
    middle = [r - below for r in ranks]
    band.partition(middle)
    return float(np.mean(band[middle]))


# ---------------------------------------------------------------------------
# trained-embedding analysis
# ---------------------------------------------------------------------------

def scaled_tables(store: ParameterStore) -> dict[str, np.ndarray]:
    """The four embedding groups as plain scaled tangent arrays."""
    return {group: float(value_of(store[src.scale])) * value_of(store[src.table])
            for group, src in LAYOUT.items()}


def radius_distributions(tables: dict, m: Manifold) -> dict:
    """Per modality, the mean part and whole radius and the (W1, W2, MMD)
    between the two radius samples, from the scaled tables keyed by group.
    A row's radius is :func:`hyperbolic_radius` of the tangent row ``v``,
    ``asinh(sqrt(kappa)|v|)/sqrt(kappa)``, not the lifted point's ``|v|``."""
    out = {}
    for modality in MODALITIES:
        radii_p = hyperbolic_radius(tables[f"part_{modality}"], m)
        radii_w = hyperbolic_radius(tables[f"whole_{modality}"], m)
        w1, w2, mmd = distribution_distances(radii_p, radii_w)
        out[modality] = {
            "mean_part_radius": float(np.mean(radii_p)),
            "mean_whole_radius": float(np.mean(radii_w)),
            "w1": w1, "w2": w2, "mmd": mmd,
        }
    return out


@dataclass(frozen=True)
class CorrelationReport:
    pearson_similarity: float      # part uncertainty vs part-to-whole similarity
    spearman_ground_truth: float   # part uncertainty vs (1 - representativeness)
    degenerate: bool               # too few parts or a zero-variance input forced r := 0
    modality: str


def _degenerate(x: np.ndarray) -> bool:
    # a spread past the float range reads inf, which is not degenerate
    with np.errstate(over="ignore"):
        return np.std(x) <= 1e-12 * max(1.0, float(np.abs(np.mean(x))))


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    if _degenerate(x) or _degenerate(y):
        return 0.0, True
    return float(np.corrcoef(x, y)[0, 1]), False


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing the mean of their
    positions (half-integers, so exact); a NaN ranks as NaN."""
    xs = np.sort(x)
    ranks = 0.5 * (np.searchsorted(xs, x, "left") + np.searchsorted(xs, x, "right") + 1)
    return np.where(np.isnan(x), np.nan, ranks)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho as ``scipy.stats.spearmanr`` computes it, bit for bit:
    the Pearson correlation of the average ranks, laid out as its columns."""
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def uncertainty_correlation(corpus: Corpus, store: ParameterStore, m: Manifold,
                            modality: str = "image") -> CorrelationReport:
    """Correlate each part's learned uncertainty with (a) its similarity to
    its own whole (negative geodesic distance) and (b) the corpus
    ground-truth ``1 - representativeness`` (rank correlation).

    Only each part's distance to its own whole is formed
    (:func:`geodesic_distance`), so only those pairs can raise the acosh
    drift error.  Fewer than 3 parts read as degenerate, as in :func:`evaluate`."""
    if modality not in MODALITIES:
        raise ContractViolationError("modality must be 'image' or 'text'")
    tables = scaled_tables(store)
    points = {group: lift(tables[group], m)
              for group in (f"part_{modality}", f"whole_{modality}")}
    return _correlation(corpus, tables, points, m, modality)


def _correlation(corpus: Corpus, tables: dict, points: dict, m: Manifold,
                 modality: str) -> CorrelationReport:
    """:func:`uncertainty_correlation` from the scaled tables and their
    lifts, keyed by group; fewer than 3 parts read as degenerate."""
    whole_rows = corpus.parent_rows
    if len(whole_rows) < 3:
        return CorrelationReport(pearson_similarity=0.0, spearman_ground_truth=0.0,
                                 degenerate=True, modality=modality)
    u = uncertainty(tables[f"part_{modality}"])
    wholes = points[f"whole_{modality}"]
    own = LorentzPoint(time=wholes.time[whole_rows], space=wholes.space[whole_rows])
    sims = -geodesic_distance(points[f"part_{modality}"], own, m)
    pearson, degenerate = _pearson(u, sims)
    anti_rep = 1.0 - corpus.representativeness
    if _degenerate(u) or _degenerate(anti_rep):
        spearman = 0.0
        degenerate = True
    else:
        spearman = _spearman(u, anti_rep)
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
    points = {group: lift(table, m) for group, table in tables.items()}
    out: dict = {}

    # classification: whole image -> nearest scene text; the image-to-text
    # retrieval reads the same matrix, which is dropped before the
    # text-to-image one is built
    images, texts = points["whole_image"], points["whole_text"]
    sims = _similarities(images, texts, m)
    pred_rows = np.argmax(sims, axis=1)
    scene_ids = corpus.ids["scene"]
    pairs = [(scene_ids[row], truth) for row, truth in zip(pred_rows.tolist(), scene_ids)]
    ties = [tie(pred, truth, taxonomy) for pred, truth in pairs]
    jacs, precs, recs = zip(*(hierarchical_set_metrics(pred, truth, taxonomy)
                              for pred, truth in pairs))
    # under the taxonomy's unit weights the LCA error is the tree error
    tree_error = float(np.mean(ties))
    out["classification"] = {
        "accuracy": float(np.mean(pred_rows == np.arange(corpus.num_scenes))),
        "tie": tree_error,
        "lca_error": tree_error,
        "jaccard": float(np.mean(jacs)),
        "hierarchical_precision": float(np.mean(precs)),
        "hierarchical_recall": float(np.mean(recs)),
    }

    identity = {i: {i} for i in range(corpus.num_scenes)}
    recalls = {"image_to_text": _recalls(sims, identity, (1, 5))}
    del sims
    recalls["text_to_image"] = _recalls(_similarities(texts, images, m), identity, (1, 5))
    out["retrieval"] = {f"{direction}_r{k}": r for direction, rs in recalls.items()
                        for k, r in zip((1, 5), rs)}

    out["radius_distributions"] = radius_distributions(tables, m)

    out["uncertainty_correlation"] = {}
    for modality in MODALITIES:
        rep = _correlation(corpus, tables, points, m, modality)
        out["uncertainty_correlation"][modality] = {
            "pearson_similarity": rep.pearson_similarity,
            "spearman_ground_truth": rep.spearman_ground_truth,
            "degenerate": rep.degenerate,
        }
    return out
