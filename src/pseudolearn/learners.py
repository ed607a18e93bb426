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
    k-nearest-neighbour average, Euclidean metric; ties go to the lower
    training row.  One feature: O(log n + k) per query from the sorted
    training values, with the dense search's neighbours, ties and bits;
    numpy's fast unstable sort orders each run, and only a run with two
    equal distances is re-sorted by (distance, row).
``kernel``
    Nadaraya-Watson smoother with a radial gaussian or epanechnikov
    kernel.  ``bandwidth=None`` selects the bandwidth by K-fold
    cross-validation over ``bandwidth_grid`` (ascending; ties go to
    the smallest bandwidth).  With one feature, Gaussian weights send
    no exponent below -700 to ``exp`` (only the rows that reach that far
    are clamped), which keeps numpy on its fast path at small
    bandwidths.  Grid bandwidths h0 * 2**k share one kernel-argument
    pass, and each prediction reuses one block workspace.  1-d values
    all 0 or of magnitude in [2**-458, 2**510] give weights from signed
    differences (no square root).  Every weight keeps the plain
    computation's bits.
``forest``
    Subsampled regression forest with variance-reduction splits.  When
    ``honest`` each tree's subsample is halved: one half chooses the
    splits, the other fills in the leaf means, so no outcome is used
    twice.  Each tree sorts its rows once per feature (a stable sort only
    for a feature with equal values) and children keep that order, so
    equal values stay in the order the tree drew its rows; the tie rules
    are unchanged.  Supports out-of-bag prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng as rngmod
from .config import FromDict, count_at_least, one_of, open_interval
from .data import all_binary, make_folds
from .errors import ConfigError, EstimationError, SchemaError

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
    bandwidth_grid: tuple[float, ...] = DEFAULT_BANDWIDTH_GRID
    cv_folds: int = 5
    # forest
    n_trees: int = 500
    min_leaf: int = 5
    subsample_fraction: float = 0.5
    features_per_split: int | None = None
    honest: bool = True

    def __post_init__(self):
        one_of("LearnerSpec.kind", self.kind, _KINDS)
        one_of("LearnerSpec.kernel_shape", self.kernel_shape, _KERNELS)
        for name, low in (("k", 1), ("cv_folds", 2), ("n_trees", 1), ("min_leaf", 1)):
            count_at_least(f"LearnerSpec.{name}", getattr(self, name), low)
        if self.features_per_split is not None:
            count_at_least("LearnerSpec.features_per_split", self.features_per_split, 1)
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        grid = tuple(float(h) for h in self.bandwidth_grid)
        if not grid:
            raise ConfigError("bandwidth_grid must be non-empty")
        if any(h <= 0 for h in grid) or any(
            a >= b for a, b in zip(grid, grid[1:])
        ):
            raise ConfigError("bandwidth_grid must be positive and strictly ascending")
        object.__setattr__(self, "bandwidth_grid", grid)
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError(
                f"subsample_fraction must be in (0, 1], got {self.subsample_fraction}"
            )

    @property
    def min_rows(self) -> int:
        """Training rows a fit needs (fewer is an EstimationError): k or min_leaf."""
        return {"knn": self.k, "forest": self.min_leaf}.get(self.kind, 1)

    @property
    def reads_seed(self) -> bool:
        """Whether a fit can depend on its seed: forests, and kernels choosing h by CV."""
        return self.kind == "forest" or (self.kind == "kernel" and self.bandwidth is None)


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


def _distances(Xq: np.ndarray, Xt: np.ndarray, out=None) -> np.ndarray:
    """Euclidean distances (m, n), equal to ``cdist`` bit for bit.

    With one feature ``sqrt((a - b)**2)`` on the outer difference skips
    cdist's per-pair overhead; it over- and underflows exactly as cdist
    does (``abs(a - b)`` would not: it keeps 2e170 and 3e-170).  ``out``
    (C-contiguous, (m, n)) receives the distances if given.
    """
    if Xq.shape[1] != 1:
        from scipy.spatial.distance import cdist
        return cdist(Xq, Xt, out=out)
    return _gaps(Xq[:, :1], Xt[:, 0], out=out)


def _gaps(a, b, out=None) -> np.ndarray:
    """``sqrt((a - b)**2)`` with broadcasting: one-feature distances."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dist = np.subtract(a, b, out=out)
        np.multiply(dist, dist, out=dist)
    return np.sqrt(dist, out=dist)


def _sort_rows(a: np.ndarray, ids: np.ndarray | None = None):
    """Each row of the 2-d ``a`` in order of (value, ``ids``), and sorted.

    ``ids`` (``a``'s shape, distinct within a row) breaks ties; by default
    the column does, as in a stable argsort.  A row whose sorted values
    strictly ascend has one order, which numpy's fast unstable argsort
    finds; only the rows with a tie or a NaN take the (stable) lexsort.
    """
    order, srt = np.argsort(a, axis=1), np.sort(a, axis=1)
    ascends = srt[:, 1:] > srt[:, :-1]
    if not ascends.all():
        redo = np.flatnonzero(~ascends.all(axis=1))
        keys = (a[redo],) if ids is None else (ids[redo], a[redo])
        order[redo] = np.lexsort(keys, axis=1)
    return order, srt


class FittedModel:
    """A frozen regression fit: ``predict`` maps (m, d) points to (m,).

    Every fitted model records its training dimension (``n_features``).
    """

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
        self._X = X
        self._y = y
        self.n_features = X.shape[1]
        self._k = int(k)
        if self.n_features == 1:
            (self._order,), (xs,) = _sort_rows(X.T)
            self._ys = y[self._order]
            # sorted values, then +inf: xs[-1] and xs[n] lie beyond every row
            self._xs = np.append(xs, np.inf)
            with np.errstate(over="ignore"):  # +-inf sums still ascend
                self._ends = self._xs[: -1 - k] + self._xs[k:-1]  # xs[i] + xs[i+k]

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        out = np.empty(Xq.shape[0])
        dense = np.arange(Xq.shape[0])
        if self.n_features == 1:
            dense = dense[~self._window_predict(Xq[:, 0], out)]
        for rows in _row_blocks(dense.shape[0], self._X.shape[0]):
            rows = dense[rows]
            nearest = _nearest_rows(_distances(Xq[rows], self._X), self._k)
            out[rows] = self._y[nearest].mean(axis=1)
        return out

    def _window_predict(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Writes the means of 1-d queries to ``out``; returns which are right.

        Distances do not rise along the sorted values up to a query q and do
        not fall after it, so its k nearest are a run of k sorted rows: the
        first run i with 2q <= xs[i] + xs[i+k], which ``searchsorted`` finds in
        the ascending run-end sums.  Ordered by (distance, row), any run is
        ``_nearest_rows``' choice unless a row beside it is not strictly farther
        than the k-th, so placement need not be exact: a run misplaced by
        rounding or overflow, a tie, or a non-finite query takes the dense path.
        """
        xs, k, n = self._xs, self._k, self._X.shape[0]
        # row i of each view is run i: its sorted values and their row ids
        xrun, idrun = sliding_window_view(xs[:n], k), sliding_window_view(self._order, k)
        ok = np.empty(q.shape[0], dtype=bool)
        # a block holds a few k-wide temporaries per query
        for rows in _row_blocks(q.shape[0], 4 * k):
            qb = q[rows]
            with np.errstate(over="ignore"):
                lo = np.minimum(np.searchsorted(self._ends, qb + qb), n - k)
            order, dist = _sort_rows(_gaps(qb[:, None], xrun[lo]), idrun[lo])
            # column j of run i holds sorted row i + j
            out[rows] = self._ys[lo[:, None] + order].mean(axis=1)
            beside = _gaps(qb[:, None], xs[lo[:, None] + [-1, k]])
            ok[rows] = np.all(beside > dist[:, -1:], axis=1)
        return ok


def _nearest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of each row, nearest first.

    Equal to the first ``k`` columns of a stable argsort (equal distances
    fall back to training-row order), but only ``k`` columns per row are
    sorted.  A row whose k-th distance ties an unselected column sorts
    only its columns no farther than the k-th; one whose k-th is NaN
    takes the full stable sort.
    """
    if k >= dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    # the k smallest in some order, then sorted by (distance, column)
    cand = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    d = np.take_along_axis(dist, cand, axis=1)
    order = np.argsort(d, axis=1, kind="stable")
    nearest = np.take_along_axis(cand, order, axis=1)
    kth = np.take_along_axis(d, order[:, -1:], axis=1)
    for i in np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) != k):
        # no column farther than the k-th distance is among the k nearest
        cols = np.flatnonzero(dist[i] <= kth[i, 0])
        if np.isnan(kth[i, 0]):
            cols = np.arange(dist.shape[1])
        nearest[i] = cols[np.argsort(dist[i, cols], kind="stable")[:k]]
    return nearest


# numpy's SIMD exp leaves its fast path for any input below about -708,
# whatever the result, and exp(x) is exactly +0.0 for every x < -745.14
_EXP_FAST_MIN = -700.0
_EXP_ZERO_BELOW = -746.0


def _bandwidth_families(bandwidths) -> list:
    """Positions of ``bandwidths`` in families h0 * 2**k, 0 <= k <= 64.

    A family lists its members as (position, 4.0**-k), then its smallest
    bandwidth h0 as (position, None).  Equal significands make h / h0 a
    power of two, which commutes with rounding: fl(d / h) = fl(d / h0) *
    2**-k, and the square and the halving scale alike.  A subnormal value
    means a weight of 1.0 either way; k <= 64 keeps every member of an
    overflowing base argument below -1e260, a weight of 0 either way.
    """
    families, last = [], {}
    for i in sorted(range(len(bandwidths)), key=lambda i: bandwidths[i]):
        frac, exp = math.frexp(bandwidths[i])
        if frac in last and exp - last[frac][0] <= 64:
            last[frac][1].insert(0, (i, 4.0 ** (last[frac][0] - exp)))
        else:
            last[frac] = (exp, [(i, None)])
            families.append(last[frac][1])
    return families


def _kernel_arg(dist, bandwidth: float, shape: str, out) -> np.ndarray:
    """The kernel's argument, written to ``out`` (may be ``dist``):
    -(d/h)**2 / 2 for gaussian, (d/h)**2 for epanechnikov.

    ``dist`` may hold signed differences: only its square is read.
    """
    w = np.divide(dist, bandwidth, out=out)
    np.multiply(w, w, out=w)
    if shape == "gaussian":
        # exp(-0.5 * u * u): halving is exact, so the order does not matter
        np.multiply(w, -0.5, out=w)
    return w


def _kernel_weights(w, bandwidth: float, shape: str, reach) -> None:
    """Turn the kernel arguments ``w`` into weights in place.

    ``reach`` bounds each row's distances (NaN for a NaN query), or is
    None: then Gaussian weights take the plain ``exp``.
    """
    if shape != "gaussian":
        # epanechnikov; the 3/4 constant cancels in the weighted mean
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)
        return
    # the transform is monotone, so the farthest query gives the block's
    # smallest exponent, and each row's reach that row's
    u = 0.0 if reach is None else float(reach.max()) / bandwidth
    if -0.5 * u * u >= _EXP_FAST_MIN:
        np.exp(w, out=w)
        return
    u = reach / bandwidth
    slow = ~(-0.5 * u * u >= _EXP_FAST_MIN)
    if slow.all():
        _clamped_exp(w)
        return
    # no other row has an exponent below -700: the slow rows are set aside
    # for one fast exp over the block, then redone on their own
    part = w[slow]
    w[slow] = 0.0
    np.exp(w, out=w)
    _clamped_exp(part)
    w[slow] = part


def _clamped_exp(x: np.ndarray) -> None:
    """``np.exp(x, out=x)`` bit for bit, sending ``exp`` no input below -700.

    A 0/1 mask gives the entries under -746 exp's +0.0 (NaN stays NaN), and
    the band from -746 to -700 is redone on its gathered entries.
    """
    keep = x >= _EXP_ZERO_BELOW
    band = np.flatnonzero(keep & (x < _EXP_FAST_MIN))
    exact = np.exp(np.take(x, band))
    np.maximum(x, _EXP_FAST_MIN, out=x)
    np.exp(x, out=x)
    np.multiply(x, keep, out=x)
    np.put(x, band, exact)


def _signed_ok(v: np.ndarray) -> bool:
    """Whether all of ``v`` is 0 or of magnitude in [2**-458, 2**510]: then any
    difference x is 0 or in [2**-510, 2**511], so sqrt(x*x) == |x| (Boldo 2015)."""
    a = np.abs(v)
    return bool(np.all((a == 0.0) | ((a >= 2.0**-458) & (a <= 2.0**510))))


def _nw_predict(Xq, Xt, yt, bandwidths, shape) -> list:
    """Nadaraya-Watson means at the queries ``Xq``, one vector per bandwidth.

    Each row block's distances are computed once and serve every
    bandwidth, and each family of bandwidths h0 * 2**k shares one
    kernel-argument pass.  A query with zero total weight is outside the
    kernel's reach and gets the training mean.
    """
    m, n = Xq.shape[0], Xt.shape[0]
    preds = [np.empty(m) for _ in bandwidths]
    tots = [np.empty(m) for _ in bandwidths]
    families = _bandwidth_families(bandwidths)
    # with one feature a query's largest distance is to an end of the training
    # range; with more, Gaussian weights keep the plain exp, as no benchmark
    # workload measures a clamp there
    reach = None
    if shape == "gaussian" and Xt.shape[1] == 1:
        reach = _distances(Xq, np.array([[Xt.min()], [Xt.max()]])).max(axis=1)
    signed = Xt.shape[1] == 1 and _signed_ok(Xq) and _signed_ok(Xt)
    blocks = list(_row_blocks(m, n))
    # one workspace serves every block: the distances, a member's argument
    # and a family's base argument; one bandwidth turns the distances into
    # weights in place, and without members no member buffer is needed
    depth = 1 if len(bandwidths) == 1 else 2 + (len(families) < len(bandwidths))
    work = np.empty((depth, max((b.stop - b.start for b in blocks), default=0), n))
    # queries without weight divide 0 by 0 here; they are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in blocks:
            slab = work[:, : rows.stop - rows.start]
            if signed:
                np.subtract(Xq[rows], Xt.T, out=slab[0])
            else:
                _distances(Xq[rows], Xt, out=slab[0])
            near = None if reach is None else reach[rows]
            for family in families:
                arg = _kernel_arg(slab[0], bandwidths[family[-1][0]], shape, slab[-1])
                # the base comes last and turns its own argument into weights
                for i, scale in family:
                    w = arg if scale is None else np.multiply(arg, scale, out=slab[1])
                    _kernel_weights(w, bandwidths[i], shape, near)
                    np.sum(w, axis=1, out=tots[i][rows])
                    np.divide(w @ yt, tots[i][rows], out=preds[i][rows])
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
    if best_h is None:
        raise EstimationError(
            "bandwidth CV failed: no grid bandwidth has a finite held-out SSE "
            "(the squared errors overflow)"
        )
    return best_h


def _best_split(v, s, min_leaf):
    """Best SSE-reducing cut over a node's candidate features, or None.

    Row j of ``v`` holds candidate feature j's values at the node in
    ascending order, and row j of ``s`` the outcomes in that order.  Cuts
    sit at midpoints between consecutive distinct values a < b, or at a
    where the midpoint rounds to b or overflows.  Returns
    (sse_reduction, row, threshold) for a cut with positive reduction.
    Ties go to the lowest threshold within a feature, then to the lowest
    row (the first maximum of each argmax).
    """
    n = v.shape[1]
    if n < 2 * min_leaf:
        return None
    csum = s.cumsum(axis=1)
    total = csum[:, -1:]
    # cut i (between sorted values i and i+1) leaves i+1 rows on the left;
    # only cuts min_leaf-1 .. n-min_leaf-1 leave min_leaf rows each side
    lo, hi = min_leaf - 1, n - min_leaf
    counts = np.arange(n + 1, dtype=float)
    s_left = csum[:, lo:hi]
    # s_left**2 / n_left + (total - s_left)**2 / n_right, built in place
    score = np.square(s_left)
    score /= counts[min_leaf : hi + 1]
    right = np.subtract(total, s_left)
    np.square(right, out=right)
    right /= counts[hi:lo:-1]
    score += right
    score[~(v[:, lo + 1 : hi + 1] > v[:, lo:hi])] = -np.inf  # equal (or NaN) values
    best = score.argmax(axis=1)
    reduction = score.max(axis=1) - total[:, 0] * total[:, 0] / n
    reduction[~(reduction > 0.0)] = -np.inf
    j = int(reduction.argmax())
    if not reduction[j] > 0.0:
        return None
    a, b = float(v[j, lo + best[j]]), float(v[j, lo + best[j] + 1])
    mid = 0.5 * (a + b)
    return float(reduction[j]), j, mid if a <= mid < b else a


def _grow_tree(Xs, ys, min_leaf, mtry, tree_rng):
    """Greedy depth-first build; returns parallel node arrays.

    ``Xs``/``ys`` are the structure half only.  Leaf values are filled
    in later from the estimation half.  Each feature is sorted once: a
    node holds one lane of row ids per feature, ordered by (value, row),
    and its children keep that order.
    """
    d = Xs.shape[1]
    XsT = np.ascontiguousarray(Xs.T)
    goes_left = np.empty(Xs.shape[0], dtype=bool)  # read only at the split node's rows
    leaf = (-1, 0.0, -1, -1)  # (feature, threshold, left, right); node 0 is the root
    nodes = [leaf]
    stack = [(0, _sort_rows(XsT)[0])]
    while stack:
        node, lanes = stack.pop()
        ys_node = ys[lanes[0]]
        if lanes.shape[1] < 2 * min_leaf or ys_node.max() == ys_node.min():
            continue
        candidates, cand = np.arange(d), lanes
        if mtry < d:
            # sorted so the lowest-feature tie-break is lane order
            candidates = np.sort(tree_rng.choice(d, size=mtry, replace=False))
            cand = lanes[candidates]
        v = XsT[candidates[:, None], cand]
        best = _best_split(v, ys[cand], min_leaf)
        if best is None:
            continue
        _, j, thr = best
        goes_left[cand[j]] = v[j] <= thr
        go = goes_left[lanes]
        lid = len(nodes)
        nodes[node] = (int(candidates[j]), thr, lid, lid + 1)
        nodes += (leaf, leaf)
        # right first so the left child is processed next (pure convention)
        stack.append((lid + 1, lanes[~go].reshape(d, -1)))
        stack.append((lid, lanes[go].reshape(d, -1)))
    feature, threshold, left, right = zip(*nodes)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
    )


class _ForestModel(FittedModel):
    """Subsampled honest regression forest.

    All trees share one node table; tree t starts at node ``_roots[t]``
    and a leaf has feature -1.  Row t of ``_structure_rows`` and
    ``_estimation_rows`` are the training rows that chose tree t's splits
    and filled its leaves (the same rows when not honest).
    """

    def __init__(self, X, y, spec: LearnerSpec, seed: int):
        n, d = X.shape
        if spec.features_per_split is not None and spec.features_per_split > d:
            raise ConfigError(
                f"features_per_split={spec.features_per_split} exceeds d={d}"
            )
        self._X = X
        self.n_features = d
        mtry = d if spec.features_per_split is None else spec.features_per_split
        size = max(1, math.ceil(spec.subsample_fraction * n))
        rngs = [rngmod.stream(seed, "tree", t) for t in range(spec.n_trees)]
        bags = np.stack([tree_rng.permutation(n)[:size] for tree_rng in rngs])
        struct_rows = est_rows = bags
        if spec.honest and size >= 2:
            struct_rows, est_rows = np.hsplit(bags, [size // 2])
        self._structure_rows, self._estimation_rows = struct_rows, est_rows
        trees = [
            _grow_tree(X[rows], y[rows], spec.min_leaf, mtry, tree_rng)
            for rows, tree_rng in zip(struct_rows, rngs)
        ]
        sizes = [tree[0].shape[0] for tree in trees]
        self._roots = np.cumsum([0] + sizes[:-1])
        self._feature, self._threshold, left, right = map(np.concatenate, zip(*trees))
        first = np.repeat(self._roots, sizes)
        self._left = np.where(left >= 0, left + first, -1)
        self._right = np.where(right >= 0, right + first, -1)
        # leaf means: one bincount adds each leaf's estimation rows in tree order
        leaf = np.empty(est_rows.shape, dtype=np.int64)
        for cols, leaves in self._routes(X, est_rows):
            leaf[:, cols] = leaves
        n_nodes = self._feature.shape[0]
        sums = np.bincount(leaf.ravel(), weights=y[est_rows].ravel(), minlength=n_nodes)
        counts = np.bincount(leaf.ravel(), minlength=n_nodes)
        filled = counts > 0
        self._value = np.full(n_nodes, float(np.mean(y)))  # for empty leaves
        self._value[filled] = sums[filled] / counts[filled]

    def _routes(self, Xq, rows=None):
        """Yields (cols, leaves): tree t sends query rows ``rows[t, cols]``
        (default: every row) to ``leaves[t]``, all trees at once per block."""
        n_trees = self._roots.shape[0]
        if rows is None:
            rows = np.broadcast_to(np.arange(Xq.shape[0]), (n_trees, Xq.shape[0]))
        for cols in _row_blocks(rows.shape[1], n_trees):
            q = rows[:, cols].ravel()
            node = np.repeat(self._roots, q.shape[0] // n_trees)
            active = np.flatnonzero(self._feature[node] >= 0)
            while active.size:
                cur = node[active]
                go_left = Xq[q[active], self._feature[cur]] <= self._threshold[cur]
                node[active] = np.where(go_left, self._left[cur], self._right[cur])
                active = active[self._feature[node[active]] >= 0]
            yield cols, node.reshape(n_trees, -1)

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        out = np.empty(Xq.shape[0])
        for cols, leaves in self._routes(Xq):
            # each column adds its trees in order, as over all rows at once
            out[cols] = self._value[leaves].mean(axis=0)
        return out

    def predict_oob(self) -> np.ndarray:
        """Out-of-bag prediction for every training row.

        Each row averages only trees whose subsample excluded it; rows
        that are in-bag everywhere (possible with tiny forests) fall
        back to the full-forest prediction.
        """
        in_bag = np.zeros((self._roots.shape[0], self._X.shape[0]), dtype=bool)
        for rows in (self._structure_rows, self._estimation_rows):
            np.put_along_axis(in_bag, rows, True, axis=1)
        n_oob = in_bag.shape[0] - in_bag.sum(axis=0)
        out = np.empty(n_oob.shape)
        for cols, leaves in self._routes(self._X):
            per_tree = self._value[leaves]
            out[cols] = per_tree.mean(axis=0)  # kept where no tree left the row out
            per_tree[in_bag[:, cols]] = 0.0
            oob = n_oob[cols]
            np.divide(per_tree.sum(axis=0), oob, out=out[cols], where=oob > 0)
        return out


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


def _training_arrays(X, y, kind: str):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise SchemaError(f"X must be 1-D or 2-D, got shape {X.shape}")
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise SchemaError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
        )
    if X.shape[0] == 0:
        raise SchemaError("cannot fit a learner on zero rows")
    bad = ~(np.isfinite(y) & np.isfinite(X).all(axis=1))
    if np.any(bad):
        raise EstimationError(
            f"cannot fit a {kind} learner: training row {int(np.argmax(bad))} "
            "has a non-finite outcome or covariate"
        )
    return X, y


def fit_learner(spec: LearnerSpec, X, y, seed: int = 0) -> FittedModel:
    """Fit ``spec`` on (X, y); deterministic in ``seed``."""
    X, y = _training_arrays(X, y, spec.kind)
    if X.shape[0] < spec.min_rows:
        raise EstimationError(
            f"too few rows: a {spec.kind} learner needs at least {spec.min_rows} "
            f"training rows, got {X.shape[0]}"
        )
    if spec.kind == "mean":
        return _MeanModel(X, y)
    if spec.kind == "knn":
        return _KnnModel(X, y, spec.k)
    if spec.kind == "kernel":
        h = spec.bandwidth
        if h is None:
            h = _cv_bandwidth(X, y, spec, seed)
        return _KernelModel(X, y, h, spec.kernel_shape)
    return _ForestModel(X, y, spec, seed)


def fit_probability(
    spec: LearnerSpec, X, y, seed: int = 0, clip: float = 0.01
) -> FittedModel:
    """Fit a {0,1}-outcome regression, clipping predictions to [clip, 1-clip].

    Used for propensities and binary-outcome means, where downstream
    inverse weighting cannot tolerate estimates at or beyond the
    boundary.
    """
    open_interval("fit_probability.clip", clip, 0, 0.5)
    all_binary("fit_probability outcome", y)
    return _ClippedModel(fit_learner(spec, X, y, seed=seed), clip, 1.0 - clip)
