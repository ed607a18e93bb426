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
    kernel.  ``bandwidth=None`` picks the ``bandwidth_grid`` entry (ascending;
    ties go to the smallest) with the lowest K-fold CV error; one-feature
    Gaussian CV estimates every error cheaply (each cross-fold pair weighed
    once, one ``exp`` per bandwidth) under a proven rounding bound, and
    scans exactly, one bandwidth at a time, only the bandwidths the bound
    leaves open.  With one feature, Gaussian weights send no exponent below
    -700 to ``exp`` (a row block reaching that far is clamped), numpy's
    fast path.  1-d values all 0 or of magnitude in [2**-458, 2**510] give
    weights from signed differences (no square root).  Every weight keeps
    the plain computation's bits.  A Gaussian query whose total weight
    underflows is redone with its exponents shifted by their largest
    (log-sum-exp).
``forest``
    Subsampled regression forest with variance-reduction splits.  When
    ``honest`` each tree's subsample is halved: one half chooses the
    splits, the other fills in the leaf means, so no outcome is used
    twice.  Each tree sorts its rows once per feature (a stable sort only
    for a feature with equal values); children keep that order, so equal
    values stay in drawn order.  A node scores all candidate features'
    cuts in one block and picks the feature, then the cut, by argmax (NaN
    never wins); a child too small or with equal outcomes is a leaf.
    Supports out-of-bag prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng as rngmod
from .config import FromDict, count_at_least, one_of, open_interval
from .data import Dataset, all_binary, all_numbers, make_folds
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
        if self.bandwidth is not None:
            open_interval("LearnerSpec.bandwidth", self.bandwidth, 0, math.inf)
        for j, h in enumerate(self.bandwidth_grid):
            open_interval(f"LearnerSpec.bandwidth_grid[{j}]", h, 0, math.inf)
        grid = tuple(float(h) for h in self.bandwidth_grid)
        if not grid:
            raise ConfigError("bandwidth_grid must be non-empty")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ConfigError("LearnerSpec.bandwidth_grid must be strictly ascending")
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
    """Coerce query points, real numbers (NaN and +-inf too), to shape (m, d)."""
    Xq = all_numbers("query points", Xq)
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

    Every fitted model records its training dimension (``n_features``); a
    target fit also carries a ``provenance`` dict, a nuisance fit does not.
    """

    n_features: int
    provenance: dict

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
# a Gaussian total weight below 2**53 times the least normal double has
# lost its row's weights to underflow
_GAUSS_TOT_MIN = 2.0**-969


def _kernel_arg(w, bandwidth: float, shape: str) -> np.ndarray:
    """Turns the distances ``w`` (or signed differences: only their squares
    are read) into the kernel's argument in place, and returns it:
    -(d/h)**2 / 2 for gaussian, (d/h)**2 for epanechnikov.  A d/h that
    overflows to inf gives the exact weight 0."""
    with np.errstate(over="ignore"):
        np.divide(w, bandwidth, out=w)
        np.multiply(w, w, out=w)
    if shape == "gaussian":
        # exp(-0.5 * u * u): halving is exact, so the order does not matter
        np.multiply(w, -0.5, out=w)
    return w


def _kernel_weights(w, bandwidth: float, shape: str, reach) -> None:
    """Turn the kernel arguments ``w`` into weights in place.

    ``reach`` bounds each row's distances (NaN for a NaN query), or is
    None: then Gaussian weights take the plain ``exp``.  Otherwise a block
    whose farthest row has an exponent below -700 is clamped whole.
    """
    if shape != "gaussian":
        # epanechnikov; the 3/4 constant cancels in the weighted mean
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)
        return
    # the transform is monotone, so the farthest query gives the block's
    # smallest exponent
    u = 0.0 if reach is None else float(reach.max()) / bandwidth
    if -0.5 * u * u >= _EXP_FAST_MIN:
        np.exp(w, out=w)
    else:
        _clamped_exp(w)


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


def _outer_difference(a, b, out) -> np.ndarray:
    """``a - b.T`` for columns ``a`` (m, 1) and ``b`` (n, 1), written to ``out``.

    numpy's default 8192-entry buffer copies both operands through it when
    3n <= 8192, five times slower; a 1024-entry one does not.  The bits do
    not change, and the size is restored (numpy < 2 keeps it global)."""
    size = np.setbufsize(1024)
    try:
        return np.subtract(a, b.T, out=out)
    finally:
        np.setbufsize(size)


def _nw_predict(Xq, Xt, yt, bandwidth: float, shape) -> np.ndarray:
    """Nadaraya-Watson means at the queries ``Xq``.

    Each row block makes one pass through one workspace: distances (or
    signed differences), the kernel argument, the weights, their total and
    the product with ``yt``.  An Epanechnikov query with zero total weight
    is outside the kernel's reach and gets the training mean; a Gaussian
    one whose total underflows is redone by ``_shifted_gaussian``.
    """
    m, n = Xq.shape[0], Xt.shape[0]
    # with one feature a query's largest distance is to an end of the training
    # range; with more, Gaussian weights keep the plain exp, as no benchmark
    # workload measures a clamp there
    reach = None
    if shape == "gaussian" and Xt.shape[1] == 1:
        reach = _distances(Xq, np.array([[Xt.min()], [Xt.max()]])).max(axis=1)
    signed = Xt.shape[1] == 1 and _signed_ok(Xq) and _signed_ok(Xt)
    pred, tot = np.empty(m), np.empty(m)
    blocks = list(_row_blocks(m, n))
    work = np.empty((max((b.stop - b.start for b in blocks), default=0), n))
    # queries without weight divide 0 by 0 here; they are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in blocks:
            w = work[: rows.stop - rows.start]
            if signed:
                _outer_difference(Xq[rows], Xt, w)
            else:
                _distances(Xq[rows], Xt, out=w)
            _kernel_arg(w, bandwidth, shape)
            _kernel_weights(w, bandwidth, shape, None if reach is None else reach[rows])
            np.sum(w, axis=1, out=tot[rows])
            np.divide(w @ yt, tot[rows], out=pred[rows])
    dead = tot < _GAUSS_TOT_MIN if shape == "gaussian" else tot <= 0.0
    if np.any(dead):
        live = ~dead
        if np.any(live):
            # a row's BLAS product can depend on the rows multiplied with
            # it: redo the live rows without the dead ones, so their bits
            # do not depend on where the blocks cut
            pred[live] = _nw_predict(Xq[live], Xt, yt, bandwidth, shape)
        if shape == "gaussian":
            pred[dead] = _shifted_gaussian(Xq[dead], Xt, yt, bandwidth)
        else:
            pred[dead] = yt.mean()
    return pred


def _shifted_gaussian(Xq, Xt, yt, bandwidth: float) -> np.ndarray:
    """Gaussian means with each row's exponents shifted by that row's largest
    (log-sum-exp), so the nearest training rows keep their weight however
    far away they are.  A row without a finite exponent gets the training mean."""
    pred = np.empty(Xq.shape[0])
    for rows in _row_blocks(*pred.shape, Xt.shape[0]):
        arg = _kernel_arg(_distances(Xq[rows], Xt), bandwidth, "gaussian")
        top = arg.max(axis=1)
        with np.errstate(invalid="ignore"):  # -inf - -inf
            np.subtract(arg, top[:, None], out=arg)
            _clamped_exp(arg)
            pred[rows] = (arg @ yt) / arg.sum(axis=1)
        pred[rows][np.isneginf(top)] = yt.mean()
    return pred


class _KernelModel(FittedModel):
    def __init__(self, X, y, bandwidth: float, shape: str):
        self._X = X
        self._y = y
        self.n_features = X.shape[1]
        self.bandwidth = float(bandwidth)
        self._shape = shape

    def predict(self, Xq) -> np.ndarray:
        Xq = _as_matrix(Xq, self.n_features)
        return _nw_predict(Xq, self._X, self._y, self.bandwidth, self._shape)


def _cv_sses(X, y, spec: LearnerSpec, seed: int, n_folds: int) -> list:
    """Held-out SSE of each grid bandwidth over ``n_folds`` CV folds.

    Each bandwidth's SSE adds up its folds in fold order; squared errors
    that overflow make it inf.
    """
    folds = make_folds(X.shape[0], n_folds, seed=rngmod.derive_seed(seed, "bwcv"))
    sses = [0.0] * len(spec.bandwidth_grid)
    for k in range(n_folds):
        test, train = folds.rows_in_fold(k), folds.train_rows(k)
        Xq, Xt, yt, yq = X[test], X[train], y[train], y[test]
        for i, h in enumerate(spec.bandwidth_grid):
            pred = _nw_predict(Xq, Xt, yt, h, spec.kernel_shape)
            with np.errstate(over="ignore"):
                sses[i] += float(np.sum((pred - yq) ** 2))
    return sses


def _cv_estimates(X, y, grid, seed: int, n_folds: int):
    """Estimates S of the SSEs that ``_cv_sses`` returns (1-d Gaussian) and
    bounds B with |exact - S| <= B; a bandwidth without a proven bound gets
    S = 0 and B = inf.

    The rows are sorted by fold, and each fold's rows meet only the later
    folds' rows, so each cross-fold pair is weighed once: a block ``w`` adds
    ``w @ [y, 1]`` to its query rows' numerators and totals and
    ``w.T @ [y, 1]`` to its training rows'.  A block squares its signed
    differences D once; each bandwidth h takes one exp(D*D * c), c =
    -0.5/(h*h), floored at -700 only if the span reaches below it.

    With n rows, M = max|y|, u = 2**-53, E = 1e-304 (> exp(-700)), g(k) =
    k*u/(1 - k*u) and a = -D*D/(2*h*h) exactly, per held-out row (Higham
    2002, ch. 3; a product that underflows adds at most 2**-1075):
    - ``_signed_ok`` makes |D| the exact path's distance and D*D normal or 0,
      and h*h in [2**-1022, 2**1021] keeps c normal; without both nothing
      is proven for h.  float64 ``exp`` is assumed within 4
      ulp of e**x on [-745, 0] (numpy's tests hold 1 ulp; a test checks 2);
    - where a >= -700 the two paths' weights w and q, all squares normal,
      have |ln(w/q)| <= L = u*(8*A + 18) + 2**-900 for A >= |a|: 7u*|a|
      for the exponents' 4 and 3 roundings (a floor only moves one towards
      a) and 8u per ``exp``, with u*A + 2u to spare.  So |w - q| <= rho*w,
      rho = L*exp(L), and L < 2**-40 as A <= 700;
    - where a < -700 both weights lie in [0, E];
    - sums of n terms in any order (the estimate adds a row's block sums)
      err by g(n) of their magnitudes, so the estimated total T and numerator
      N are within dT = (2g(n) + (1 + g(n))*rho)*T/(1 - g(n)) + (1 + g(n))*nE
      and dN = M*dT + n*2**-1074 of the exact path's;
    - if T - dT >= 2**-960 no exact total is below 2**-969 (the shifted
      redo), and the predictions p = N/T differ by at most
      dp = (dN + |p|*dT)/(T - dT) + 2u|p| + 2**-1073, a squared residual
      r*r by at most dp*(2|r| + dp);
    - both paths' roundings of the residuals, squares and sums (the exact
      path's by fold, then over the folds; the estimate's over all rows) err
      by at most 3*g(n + folds + 1)*S in all, plus 2**-1075 a square.
    B doubles the total, for 1 + O(u) factors and its own rounding.  NaN, a
    T - dT < 2**-960, or n*M or S + B >= 2**1000 (overflow) proves nothing.
    """
    u, n = 2.0**-53, X.shape[0]
    big_m, gamma, floor = float(np.max(np.abs(y))), n * u / (1 - n * u), n * 1e-304
    rho, span = np.full(len(grid), np.inf), float(np.max(X)) - float(np.min(X))
    steps = []  # per bandwidth with a bound: its position, c and whether to floor
    for i, h in enumerate(grid) if _signed_ok(X) else ():
        if not 2.0**-1022 <= h * h <= 2.0**1021:
            continue
        arg_max = 0.5 * (span / h) * (span / h)
        steps.append((i, -0.5 / (h * h), arg_max > -_EXP_FAST_MIN))
        log_err = u * (8 * min(700.0, arg_max * (1 + 2.0**-40)) + 18) + 2.0**-900
        rho[i] = log_err * math.exp(log_err)
    if not steps:
        return np.zeros(len(grid)), rho
    fold_of = make_folds(n, n_folds, seed=rngmod.derive_seed(seed, "bwcv")).fold_of
    order = np.argsort(fold_of, kind="stable")
    X, y, ends = X[order], y[order], np.bincount(fold_of).cumsum()
    yo, fit = np.column_stack([y, np.ones(n)]), np.zeros((len(grid), n, 2))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for start, stop in zip([0, *ends[:-2]], ends[:-1]):
            blocks = list(_row_blocks(stop - start, n - stop))
            # one workspace serves the fold's blocks: D*D and the weights
            work = np.empty((2, max(b.stop - b.start for b in blocks), n - stop))
            for rows in blocks:
                query = slice(start + rows.start, start + rows.stop)
                d2, w = work[:, : rows.stop - rows.start]
                np.square(_outer_difference(X[query], X[stop:], d2), out=d2)
                for i, c, floored in steps:
                    np.multiply(d2, c, out=w)
                    if floored:
                        np.maximum(w, _EXP_FAST_MIN, out=w)
                    np.exp(w, out=w)
                    fit[i, query] += w @ yo[stop:]
                    fit[i, stop:] += w.T @ yo[query]
            del work, d2, w  # free the workspace before the next fold allocates its own
        tot = fit[..., 1]
        d_tot = (2 * gamma + (1 + gamma) * rho[:, None]) * tot / (1 - gamma) + (1 + gamma) * floor
        low = tot - d_tot
        pred = fit[..., 0] / tot
        res, mag = pred - y, np.abs(pred)
        d_pred = (big_m * d_tot + n * 2.0**-1074 + mag * d_tot) / low
        d_pred += 2 * u * mag + 2.0**-1073
        sse = np.sum(res * res, axis=1)
        err = np.sum(d_pred * (2 * np.abs(res) + d_pred), axis=1)
        g = (n + n_folds + 1) * u / (1 - (n + n_folds + 1) * u)
        bound = 2 * (err + 3 * g * sse + n * 2.0**-1073)
        proven = np.all(low >= 2.0**-960, axis=1) & (sse + bound < 2.0**1000)
    proven &= big_m * n < 2.0**1000
    return np.where(proven, sse, 0.0), np.where(proven, bound, np.inf)


def _cv_bandwidth(X, y, spec: LearnerSpec, seed: int) -> float:
    """Pick the grid bandwidth with the lowest K-fold held-out SSE.

    Ties (exact SSE equality) resolve to the smallest bandwidth because
    the grid is scanned in ascending order with a strict comparison.  With
    1-d Gaussian estimates S, each within B of its exact SSE, only the
    bandwidths with S - B <= min(S + B) can be that choice (rounding is
    monotone, so the float comparison is safe): a lone one with a finite B
    is the choice, and otherwise the exact scan runs on them alone.
    """
    n_folds = min(spec.cv_folds, X.shape[0])
    if n_folds < 2:
        return spec.bandwidth_grid[0]
    if spec.kernel_shape == "gaussian" and X.shape[1] == 1:
        approx, bound = _cv_estimates(X, y, spec.bandwidth_grid, seed, n_folds)
        keep = np.flatnonzero(approx - bound <= np.min(approx + bound))
        if keep.size == 1 and bound[keep[0]] < math.inf:
            return spec.bandwidth_grid[keep[0]]
        spec = replace(spec, bandwidth_grid=tuple(spec.bandwidth_grid[i] for i in keep))
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
    csum = np.add.accumulate(s, axis=1)
    total = csum[:, -1:]
    # cut i (between sorted values i and i+1) leaves i+1 rows on the left;
    # only cuts min_leaf-1 .. n-min_leaf-1 leave min_leaf rows each side
    lo, hi = min_leaf - 1, n - min_leaf
    counts = np.arange(n + 1, dtype=float)
    s_left = csum[:, lo:hi]
    # s_left**2 / n_left + (total - s_left)**2 / n_right, built in place
    score = np.square(s_left)
    np.divide(score, counts[min_leaf : hi + 1], out=score)
    right = np.subtract(total, s_left)
    np.square(right, out=right)
    np.divide(right, counts[hi:lo:-1], out=right)
    np.add(score, right, out=score)
    np.putmask(score, ~(v[:, lo + 1 : hi + 1] > v[:, lo:hi]), -np.inf)  # equal (or NaN) values
    reduction = np.maximum.reduce(score, axis=1) - total[:, 0] * total[:, 0] / n
    j = int(reduction.argmax())
    if not reduction[j] > 0.0:  # no gain, or a NaN (argmax stops at the first)
        j = int(np.where(reduction > 0.0, reduction, -np.inf).argmax())
    if not reduction[j] > 0.0:
        return None
    cut = lo + int(score[j].argmax())
    a, b = float(v[j, cut]), float(v[j, cut + 1])
    mid = 0.5 * (a + b)
    return float(reduction[j]), j, mid if a <= mid < b else a


def _grow_tree(Xs, ys, min_leaf, mtry, tree_rng):
    """Greedy depth-first build; returns parallel node arrays.

    ``Xs``/``ys`` are the structure half only.  Leaf values are filled
    in later from the estimation half.  Each feature is sorted once: a
    node holds one lane of row ids per feature, ordered by (value, row),
    and its children keep that order.
    """

    def can_split(y):  # else a leaf, never pushed, so it draws no candidates
        return y.shape[0] >= 2 * min_leaf and np.maximum.reduce(y) != np.minimum.reduce(y)

    n, d = Xs.shape
    top = float(np.max(np.abs(ys)))
    if n * top >= 2.0**511:
        # node sums could reach 2**511 and every cut's score overflow; a power
        # of two (exact but where it makes values subnormal) keeps cut ranks
        ys = ys * 2.0 ** (511 - math.frexp(top)[1] - n.bit_length())
    XsT = np.ascontiguousarray(Xs.T)
    values, offsets = XsT.ravel(), np.arange(d)[:, None] * n  # feature f's start in values
    goes_left = np.empty(n, dtype=bool)  # read only at the split node's rows
    leaf = (-1, 0.0, -1, -1)  # (feature, threshold, left, right); node 0 is the root
    nodes = [leaf]
    stack = [(0, _sort_rows(XsT)[0])] if can_split(ys) else []
    with np.errstate(over="ignore", invalid="ignore"):  # the split search ranks inf, NaN
        while stack:
            node, lanes = stack.pop()
            candidates, cand, offs = range(d), lanes, offsets
            if mtry < d:
                # sorted so the lowest-feature tie-break is lane order
                candidates = np.sort(tree_rng.choice(d, size=mtry, replace=False))
                cand, offs = lanes[candidates], offsets[candidates]
            v, s = values.take(cand + offs), ys.take(cand)
            best = _best_split(v, s, min_leaf)
            if best is None:
                continue
            _, j, thr = best
            lid = len(nodes)
            nodes[node] = (int(candidates[j]), thr, lid, lid + 1)
            nodes += (leaf, leaf)
            goes_left[cand[j]] = in_left = v[j] <= thr
            n_left = np.count_nonzero(in_left)  # lane j's first n_left rows go left
            rows = lanes.ravel()
            go = goes_left.take(rows)
            # right first so the left child is processed next (pure convention)
            if can_split(s[j, n_left:]):
                stack.append((lid + 1, rows.compress(~go).reshape(d, -1)))
            if can_split(s[j, :n_left]):
                stack.append((lid, rows.compress(go).reshape(d, -1)))
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
        top, scale = float(np.max(np.abs(y))), 1.0
        if n * top >= 2.0**1000:
            # sums of n outcomes could overflow; a power of two keeps them finite
            scale = 2.0 ** (1000 - math.frexp(top)[1] - n.bit_length())
        ys = y * scale
        sums = np.bincount(leaf.ravel(), weights=ys[est_rows].ravel(), minlength=n_nodes)
        counts = np.bincount(leaf.ravel(), minlength=n_nodes)
        filled = counts > 0
        self._value = np.full(n_nodes, float(np.mean(ys)))  # for empty leaves
        self._value[filled] = sums[filled] / counts[filled]
        self._value /= scale

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


def fit_learner(spec: LearnerSpec, X, y, seed: int = 0) -> FittedModel:
    """Fit ``spec`` on (X, y), checked as a :class:`Dataset`; deterministic in
    ``seed``.  A 1-D ``X`` is one feature."""
    X = all_numbers("covariates X", X)
    data = Dataset(X.reshape(-1, 1) if X.ndim == 1 else X, y)
    X, y = data.X, data.y
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
