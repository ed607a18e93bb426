"""First- and second-stage regression learners.

All learners share one tiny protocol: :func:`fit_learner` takes a
:class:`LearnerSpec` plus training arrays and returns a
:class:`FittedModel` whose ``predict`` maps a query matrix to
conditional-mean estimates.  Everything is implemented directly on
numpy so that fitted behaviour is a pure function of (spec, data,
seed); no global state is consulted.

Available kinds
---------------
``mean``
    Predicts the training mean everywhere.  Baseline and degenerate
    fallback.
``knn``
    k-nearest-neighbour average, Euclidean metric.  Distance ties are
    broken by training-row index.
``kernel``
    Nadaraya-Watson smoother with a radial gaussian or epanechnikov
    kernel.  ``bandwidth=None`` selects the bandwidth by K-fold
    cross-validation over ``bandwidth_grid`` (ascending; ties go to
    the smallest bandwidth).
``forest``
    Subsampled regression forest with variance-reduction splits.  When
    ``honest`` each tree's subsample is halved: one half chooses the
    splits, the other fills in the leaf means, so no outcome is used
    twice.  Supports out-of-bag prediction on the training rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import rng as rngmod
from .config import FromDict
from .data import make_folds
from .errors import ConfigError, DomainError, SchemaError

__all__ = [
    "LearnerSpec",
    "FittedModel",
    "fit_learner",
    "fit_probability",
]

_KINDS = ("mean", "knn", "kernel", "forest")
_KERNELS = ("gaussian", "epanechnikov")

# Ascending by construction; CV ties resolve to the smallest entry.
# Endpoints 0.01 and 0.5 are pinned; the interior spacing is roughly
# geometric, which is our choice.
DEFAULT_BANDWIDTH_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)


@dataclass(frozen=True)
class LearnerSpec(FromDict):
    """Declarative description of a regression learner.

    Only the fields relevant to ``kind`` are consulted; the rest keep
    their defaults so specs stay hashable and comparable.
    """

    kind: str = "kernel"
    # knn
    k: int = 5
    # kernel
    bandwidth: float | None = None
    kernel_shape: str = "gaussian"
    bandwidth_grid: tuple = DEFAULT_BANDWIDTH_GRID
    cv_folds: int = 5
    # forest
    n_trees: int = 500
    min_leaf: int = 5
    subsample_fraction: float = 0.5
    features_per_split: int | None = None
    honest: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown learner kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kernel_shape not in _KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel_shape!r}; expected one of {_KERNELS}"
            )
        grid = tuple(float(h) for h in self.bandwidth_grid)
        if not grid:
            raise ConfigError("bandwidth_grid must be non-empty")
        if any(h <= 0 for h in grid) or any(
            a >= b for a, b in zip(grid, grid[1:])
        ):
            raise ConfigError("bandwidth_grid must be positive and strictly ascending")
        object.__setattr__(self, "bandwidth_grid", grid)
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError(
                f"subsample_fraction must be in (0, 1], got {self.subsample_fraction}"
            )
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ConfigError(
                f"features_per_split must be >= 1, got {self.features_per_split}"
            )


def _as_matrix(Xq, d: int) -> np.ndarray:
    """Coerce query points to shape (m, d)."""
    Xq = np.asarray(Xq, dtype=float)
    if Xq.ndim == 1:
        # A flat vector is m separate points when d == 1, otherwise one point.
        Xq = Xq.reshape(-1, 1) if d == 1 else Xq.reshape(1, -1)
    if Xq.ndim != 2 or Xq.shape[1] != d:
        raise SchemaError(
            f"query points have shape {Xq.shape}, expected (m, {d})"
        )
    return Xq


# Pairwise work runs over blocks of query rows whose distance matrix holds
# about this many float64 entries (512 KiB), so each pass over a block
# stays in cache and memory is O(block + m + n) rather than O(m * n).
_BLOCK_ENTRIES = 2**16


def _row_blocks(m: int, n: int):
    """Slices covering query rows 0..m, about ``_BLOCK_ENTRIES / n`` rows each.

    Block lengths are multiples of 8 and a 1-row tail joins the block
    before it.  OpenBLAS then gives every row of a blocked matrix-vector
    product the same bits as the product over all m rows (a block of 2
    or 3 rows, or a lone last row, would not).
    """
    step = max(8, _BLOCK_ENTRIES // max(n, 1) // 8 * 8)
    start = 0
    while start < m:
        stop = start + step
        if m - stop <= 1:
            stop = m
        yield slice(start, stop)
        start = stop


def _distances(Xq: np.ndarray, Xt: np.ndarray) -> np.ndarray:
    """Euclidean distances (m, n), equal to ``cdist`` bit for bit.

    With one feature ``sqrt((a - b)**2)`` on the outer difference skips
    cdist's per-pair overhead; it over- and underflows exactly as cdist
    does (``abs(a - b)`` would not: it keeps 2e170 and 3e-170).
    """
    if Xq.shape[1] != 1:
        return cdist(Xq, Xt)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dist = np.subtract.outer(Xq[:, 0], Xt[:, 0])
        np.multiply(dist, dist, out=dist)
    return np.sqrt(dist, out=dist)


class FittedModel:
    """A frozen regression fit: ``predict`` maps (m, d) points to (m,).

    Every fitted model records the :class:`LearnerSpec` it came from
    (``spec``) and the training dimension (``n_features``).
    """

    spec: LearnerSpec
    n_features: int

    def predict(self, Xq) -> np.ndarray:
        raise NotImplementedError


class _MeanModel(FittedModel):
    def __init__(self, X, y):
        self.n_features = X.shape[1]
        self._value = float(np.mean(y))

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        return np.full(Xq.shape[0], self._value)


class _KnnModel(FittedModel):
    """k-nearest-neighbour mean."""

    def __init__(self, X, y, k: int):
        if k > X.shape[0]:
            raise ConfigError(
                f"knn needs k <= n; got k={k} with {X.shape[0]} training rows"
            )
        self._X = X
        self._y = y
        self.n_features = X.shape[1]
        self._k = int(k)

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        out = np.empty(Xq.shape[0])
        for rows in _row_blocks(Xq.shape[0], self._X.shape[0]):
            nearest = _nearest_rows(_distances(Xq[rows], self._X), self._k)
            out[rows] = self._y[nearest].mean(axis=1)
        return out


def _nearest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of each row, nearest first.

    Equal to the first ``k`` columns of a stable argsort (equal distances
    fall back to training-row order), but only ``k`` columns per row are
    sorted.  A row whose k-th distance ties an unselected column, or is
    NaN, takes the full stable sort.
    """
    if k >= dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    # the k smallest in some order, then sorted by (distance, column)
    cand = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    d = np.take_along_axis(dist, cand, axis=1)
    order = np.argsort(d, axis=1, kind="stable")
    nearest = np.take_along_axis(cand, order, axis=1)
    kth = np.take_along_axis(d, order[:, -1:], axis=1)
    tied = np.count_nonzero(dist <= kth, axis=1) != k
    if np.any(tied):
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _kernel_weights(dist, bandwidth: float, shape: str, out: np.ndarray) -> None:
    """Kernel weights of a distance matrix, written to ``out`` (may be ``dist``)."""
    w = np.divide(dist, bandwidth, out=out)
    np.multiply(w, w, out=w)
    if shape == "gaussian":
        # exp(-0.5 * u * u): halving is exact, so the order does not matter
        np.multiply(w, -0.5, out=w)
        np.exp(w, out=w)
    else:
        # epanechnikov; the 3/4 constant cancels in the weighted mean
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)


def _nw_predict(Xq, Xt, yt, bandwidths, shape) -> list:
    """Nadaraya-Watson means at the queries ``Xq``, one vector per bandwidth.

    Each row block's distances are computed once and serve every
    bandwidth.  A query with zero total weight is outside the kernel's
    reach and gets the training mean.
    """
    m = Xq.shape[0]
    preds = [np.empty(m) for _ in bandwidths]
    tots = [np.empty(m) for _ in bandwidths]
    # queries without weight divide 0 by 0 here; they are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _row_blocks(m, Xt.shape[0]):
            dist = _distances(Xq[rows], Xt)
            # one bandwidth turns the distances into weights in place
            w = dist if len(bandwidths) == 1 else np.empty_like(dist)
            for h, pred, tot in zip(bandwidths, preds, tots):
                _kernel_weights(dist, h, shape, out=w)
                np.sum(w, axis=1, out=tot[rows])
                np.divide(w @ yt, tot[rows], out=pred[rows])
    for h, pred, tot in zip(bandwidths, preds, tots):
        dead = tot <= 0.0
        if np.any(dead):
            live = ~dead
            if np.any(live):
                # a row's BLAS product can depend on the rows multiplied
                # with it: redo the live rows without the dead ones, so
                # their bits do not depend on where the blocks cut
                (pred[live],) = _nw_predict(Xq[live], Xt, yt, (h,), shape)
            pred[dead] = yt.mean()
    return preds


class _KernelModel(FittedModel):
    def __init__(self, X, y, bandwidth: float, shape: str):
        self._X = X
        self._y = y
        self.n_features = X.shape[1]
        self.bandwidth = float(bandwidth)
        self._shape = shape

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        (pred,) = _nw_predict(Xq, self._X, self._y, (self.bandwidth,), self._shape)
        return pred


def _cv_sses(X, y, spec: LearnerSpec, seed: int, n_folds: int) -> list:
    """Held-out SSE of each grid bandwidth over ``n_folds`` CV folds.

    Each bandwidth's SSE adds up its folds in fold order.
    """
    folds = make_folds(X.shape[0], n_folds, seed=rngmod.derive_seed(seed, "bwcv"))
    sses = [0.0] * len(spec.bandwidth_grid)
    for k in range(n_folds):
        test = folds.rows_in_fold(k)
        train = folds.train_rows(k)
        preds = _nw_predict(
            X[test], X[train], y[train], spec.bandwidth_grid, spec.kernel_shape
        )
        for i, pred in enumerate(preds):
            sses[i] += float(np.sum((pred - y[test]) ** 2))
    return sses


def _cv_bandwidth(X, y, spec: LearnerSpec, seed: int) -> float:
    """Pick the grid bandwidth with the lowest K-fold held-out SSE.

    Ties (exact SSE equality) resolve to the smallest bandwidth because
    the grid is scanned in ascending order with a strict comparison.
    """
    n_folds = min(spec.cv_folds, X.shape[0])
    if n_folds < 2:
        return spec.bandwidth_grid[0]
    best_h, best_sse = None, math.inf
    for h, sse in zip(spec.bandwidth_grid, _cv_sses(X, y, spec, seed, n_folds)):
        if sse < best_sse:
            best_h, best_sse = h, sse
    return best_h


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    in_bag: np.ndarray  # bool mask over training rows
    # provenance: which training rows chose splits vs filled leaves
    structure_rows: np.ndarray
    estimation_rows: np.ndarray


def _best_split(block, ys, min_leaf):
    """Best SSE-reducing cut over all columns of a node's block, or None.

    ``block`` is the node's rows x candidate-features matrix.  Cuts sit
    at midpoints between consecutive distinct sorted values of a column.
    Returns (sse_reduction, column, threshold) for a cut with positive
    reduction.  Ties go to the lowest threshold within a column, then to
    the lowest column (the first maximum of each argmax).
    """
    n = block.shape[0]
    if n < 2 * min_leaf:
        return None
    cols = np.arange(block.shape[1])
    order = np.argsort(block, axis=0, kind="stable")
    v = block[order, cols]
    csum = np.cumsum(ys[order], axis=0)
    total = csum[-1]
    # cut i (between sorted rows i and i+1) leaves i+1 rows on the left;
    # only cuts min_leaf-1 .. n-min_leaf-1 leave min_leaf rows each side
    lo, hi = min_leaf - 1, n - min_leaf
    n_left = np.arange(min_leaf, n - min_leaf + 1)[:, None]
    s_left = csum[lo:hi]
    score = s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left)
    score[~(v[lo + 1 : hi + 1] > v[lo:hi])] = -np.inf  # equal (or NaN) values
    best = np.argmax(score, axis=0)
    reduction = score[best, cols] - total * total / n
    reduction[~(reduction > 0.0)] = -np.inf
    col = int(np.argmax(reduction))
    if not reduction[col] > 0.0:
        return None
    c = lo + best[col]
    return float(reduction[col]), col, float(0.5 * (v[c, col] + v[c + 1, col]))


def _grow_tree(Xs, ys, min_leaf, mtry, tree_rng):
    """Greedy depth-first build; returns parallel node arrays.

    ``Xs``/``ys`` are the structure half only.  Leaf values are filled
    in later from the estimation half.
    """
    d = Xs.shape[1]
    feature, threshold, left, right = [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(Xs.shape[0]))]
    while stack:
        node, rows = stack.pop()
        y_node = ys[rows]
        if rows.shape[0] < 2 * min_leaf or np.ptp(y_node) == 0.0:
            continue
        block, candidates = Xs[rows], np.arange(d)
        if mtry < d:
            # sorted so the lowest-feature tie-break is column order
            candidates = np.sort(tree_rng.choice(d, size=mtry, replace=False))
            block = block[:, candidates]
        best = _best_split(block, y_node, min_leaf)
        if best is None:
            continue
        _, col, thr = best
        go_left = block[:, col] <= thr
        feature[node] = int(candidates[col])
        threshold[node] = thr
        lid, rid = new_node(), new_node()
        left[node], right[node] = lid, rid
        # right first so the left child is processed next (pure convention)
        stack.append((rid, rows[~go_left]))
        stack.append((lid, rows[go_left]))
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
    )


def _descend(feature, threshold, left, right, Xq):
    """Vectorised routing of query rows to leaf node ids."""
    node = np.zeros(Xq.shape[0], dtype=np.int64)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = Xq[active, feature[cur]] <= threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[node[active]] >= 0]
    return node


class _ForestModel(FittedModel):
    """Subsampled honest regression forest."""

    def __init__(self, X, y, spec: LearnerSpec, seed: int):
        n, d = X.shape
        if spec.min_leaf > n:
            raise ConfigError(
                f"forest needs min_leaf <= n; got min_leaf={spec.min_leaf}, n={n}"
            )
        if spec.features_per_split is not None and spec.features_per_split > d:
            raise ConfigError(
                f"features_per_split={spec.features_per_split} exceeds d={d}"
            )
        self._X = X
        self._y = y
        self.n_features = d
        fallback = float(np.mean(y))  # empty estimation leaves predict this
        mtry = d if spec.features_per_split is None else spec.features_per_split
        size = max(1, math.ceil(spec.subsample_fraction * n))
        self._trees = []
        for t in range(spec.n_trees):
            tree_rng = rngmod.stream(seed, "tree", t)
            bag = tree_rng.permutation(n)[:size]
            if spec.honest and size >= 2:
                half = size // 2
                struct_rows, est_rows = bag[:half], bag[half:]
            else:
                struct_rows = est_rows = bag
            feature, threshold, left, right = _grow_tree(
                X[struct_rows], y[struct_rows], spec.min_leaf, mtry, tree_rng
            )
            value = np.full(feature.shape[0], fallback)
            leaf_of = _descend(feature, threshold, left, right, X[est_rows])
            sums = np.bincount(leaf_of, weights=y[est_rows], minlength=value.shape[0])
            counts = np.bincount(leaf_of, minlength=value.shape[0])
            filled = counts > 0
            value[filled] = sums[filled] / counts[filled]
            in_bag = np.zeros(n, dtype=bool)
            in_bag[bag] = True
            self._trees.append(
                _Tree(
                    feature,
                    threshold,
                    left,
                    right,
                    value,
                    in_bag,
                    structure_rows=struct_rows,
                    estimation_rows=est_rows,
                )
            )

    def _tree_matrix(self, Xq) -> np.ndarray:
        """(n_trees, m) per-tree predictions."""
        out = np.empty((len(self._trees), Xq.shape[0]))
        for t, tree in enumerate(self._trees):
            leaf = _descend(tree.feature, tree.threshold, tree.left, tree.right, Xq)
            out[t] = tree.value[leaf]
        return out

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        return self._tree_matrix(Xq).mean(axis=0)

    def predict_oob(self) -> np.ndarray:
        """Out-of-bag prediction for every training row.

        Each row averages only trees whose subsample excluded it; rows
        that are in-bag everywhere (possible with tiny forests) fall
        back to the full-forest prediction.
        """
        per_tree = self._tree_matrix(self._X)
        out_of_bag = ~np.stack([t.in_bag for t in self._trees])
        n_oob = out_of_bag.sum(axis=0)
        masked = np.where(out_of_bag, per_tree, 0.0).sum(axis=0)
        pred = np.where(n_oob > 0, masked / np.maximum(n_oob, 1), per_tree.mean(axis=0))
        return pred


class _ClippedModel(FittedModel):
    """Wraps a fit so predictions stay inside [lo, hi]."""

    def __init__(self, base: FittedModel, lo: float, hi: float):
        self._base = base
        self.n_features = base.n_features
        self._lo = float(lo)
        self._hi = float(hi)

    def predict(self, Xq) -> np.ndarray:
        return np.clip(self._base.predict(Xq), self._lo, self._hi)

    def predict_oob(self) -> np.ndarray:
        return np.clip(self._base.predict_oob(), self._lo, self._hi)


def _training_arrays(X, y):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise SchemaError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    if X.shape[0] == 0:
        raise SchemaError("cannot fit a learner on zero rows")
    return X, y


def fit_learner(spec: LearnerSpec, X, y, seed: int = 0) -> FittedModel:
    """Fit ``spec`` on (X, y); deterministic in ``seed``."""
    X, y = _training_arrays(X, y)
    if spec.kind == "mean":
        model = _MeanModel(X, y)
    elif spec.kind == "knn":
        model = _KnnModel(X, y, spec.k)
    elif spec.kind == "kernel":
        h = spec.bandwidth
        if h is None:
            h = _cv_bandwidth(X, y, spec, seed)
        model = _KernelModel(X, y, h, spec.kernel_shape)
    else:
        model = _ForestModel(X, y, spec, seed)
    model.spec = spec
    return model


def fit_probability(
    spec: LearnerSpec, X, y, seed: int = 0, clip: float = 0.01
) -> FittedModel:
    """Fit a {0,1}-outcome regression, clipping predictions to [clip, 1-clip].

    Used for propensities and binary-outcome means, where downstream
    inverse weighting cannot tolerate estimates at or beyond the
    boundary.
    """
    if not 0.0 < clip < 0.5:
        raise ConfigError(f"clip must be in (0, 0.5), got {clip}")
    y_arr = np.asarray(y, dtype=float).ravel()
    if not np.all(np.isin(y_arr, (0.0, 1.0))):
        raise DomainError("fit_probability needs a 0/1 outcome vector")
    model = _ClippedModel(fit_learner(spec, X, y, seed=seed), clip, 1.0 - clip)
    model.spec = spec
    return model
