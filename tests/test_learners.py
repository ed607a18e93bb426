"""Regression learners: hand oracles, invariants, determinism."""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from pseudolearn import learners
from pseudolearn import rng as rngmod
from pseudolearn.data import make_folds
from pseudolearn.errors import ConfigError, DomainError, EstimationError, SchemaError
from pseudolearn.learners import (
    LearnerSpec,
    _best_split,
    _clamped_exp,
    _cv_bandwidth,
    _cv_sses,
    _distances,
    _nw_predict,
    _row_blocks,
    fit_learner,
    fit_probability,
)
from pseudolearn.simulate import Dgp1dConfig, sample_1d


def col(v):
    return np.asarray(v, dtype=float).reshape(-1, 1)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            LearnerSpec(kind="spline")

    def test_bad_scalars(self):
        with pytest.raises(ConfigError):
            LearnerSpec(kind="knn", k=0)
        with pytest.raises(ConfigError):
            LearnerSpec(kind="kernel", bandwidth=-1.0)
        with pytest.raises(ConfigError):
            LearnerSpec(kind="kernel", kernel_shape="tricube")
        with pytest.raises(ConfigError):
            LearnerSpec(kind="forest", subsample_fraction=0.0)
        with pytest.raises(ConfigError):
            LearnerSpec(kind="forest", min_leaf=0)

    def test_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            LearnerSpec(kind="kernel", bandwidth_grid=(0.2, 0.1))
        with pytest.raises(ConfigError):
            LearnerSpec(kind="kernel", bandwidth_grid=(0.1, 0.1))
        with pytest.raises(ConfigError):
            LearnerSpec(kind="kernel", bandwidth_grid=())

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            LearnerSpec.from_dict({"kind": "knn", "neighbours": 3})

    def test_from_dict_round_trip(self):
        spec = LearnerSpec.from_dict(
            {"kind": "kernel", "bandwidth_grid": [0.1, 0.2]}
        )
        assert spec.bandwidth_grid == (0.1, 0.2)


_NOISY_X = np.random.default_rng(0).uniform(-1.0, 1.0, (60, 1))
_NOISY_Y = np.sin(3.0 * _NOISY_X[:, 0]) + np.random.default_rng(1).normal(scale=0.5, size=60)

_ANY_SPEC = st.one_of(
    st.just(LearnerSpec(kind="mean")),
    st.integers(1, 10).map(lambda k: LearnerSpec(kind="knn", k=k)),
    st.builds(
        lambda h, shape, cv: LearnerSpec(
            kind="kernel", bandwidth=None if cv else h, kernel_shape=shape
        ),
        st.floats(0.05, 2.0),
        st.sampled_from(["gaussian", "epanechnikov"]),
        st.booleans(),
    ),
    # a forest drawing every row into leaves of one row predicts alike at
    # every seed, so only subsampled forests are drawn
    st.builds(
        lambda t, leaf, honest, f: LearnerSpec(
            kind="forest", n_trees=t, min_leaf=leaf, honest=honest, subsample_fraction=f
        ),
        st.integers(1, 4),
        st.integers(1, 5),
        st.booleans(),
        st.floats(0.3, 0.8),
    ),
)


class TestReadsSeed:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=_ANY_SPEC,
        data=st.integers(10, 40).flatmap(
            lambda n: st.tuples(
                arrays(float, (n, 1), elements=st.floats(-5, 5)),
                arrays(float, n, elements=st.floats(-5, 5)),
            )
        ),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    def test_false_exactly_when_seeds_give_equal_bits(self, spec, data, seeds):
        X, y = data

        def predictions(X, y, seed):
            return fit_learner(spec, X, y, seed=seed).predict(_NOISY_X).tobytes()

        if not spec.reads_seed and X.shape[0] >= spec.min_rows:
            assert predictions(X, y, seeds[0]) == predictions(X, y, seeds[1])
        fits = {predictions(_NOISY_X, _NOISY_Y, seed) for seed in range(8)}
        assert spec.reads_seed == (len(fits) > 1)


class TestMean:
    def test_predicts_training_mean(self):
        model = fit_learner(LearnerSpec(kind="mean"), col([1, 2, 3]), [2.0, 4.0, 9.0])
        assert np.allclose(model.predict(col([0, 100])), 5.0)


class TestKnn:
    SPEC = LearnerSpec(kind="knn", k=2)

    def test_hand_oracle(self):
        model = fit_learner(self.SPEC, col([0, 1, 2, 3]), [0.0, 10.0, 20.0, 30.0])
        # query 0.9: nearest are x=1 (0.1) and x=0 (0.9)
        assert model.predict(col([0.9]))[0] == pytest.approx(5.0)
        # query 2.6: nearest are x=3 (0.4) and x=2 (0.6)
        assert model.predict(col([2.6]))[0] == pytest.approx(25.0)

    def test_distance_tie_prefers_lower_index(self):
        # x=1 is equidistant from both rows; stable sort keeps row 0 first
        model = fit_learner(
            LearnerSpec(kind="knn", k=1), col([0, 2]), [5.0, 9.0]
        )
        assert model.predict(col([1.0]))[0] == pytest.approx(5.0)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(EstimationError, match="knn learner needs at least 10"):
            fit_learner(LearnerSpec(kind="knn", k=10), col([0, 1, 2]), [3.0, 6.0, 9.0])

    def test_k_equal_n_is_global_mean(self):
        model = fit_learner(
            LearnerSpec(kind="knn", k=3), col([0, 1, 2]), [3.0, 6.0, 9.0]
        )
        assert np.allclose(model.predict(col([-5.0, 0.3, 7.0])), 6.0)

    def test_exact_interpolation_k1(self):
        X = col([0, 1, 2, 3])
        y = np.array([5.0, -1.0, 2.0, 7.0])
        model = fit_learner(LearnerSpec(kind="knn", k=1), X, y)
        assert np.allclose(model.predict(X), y)

    def test_partial_selection_matches_stable_sort(self):
        # integer grids tie many distances at the k-th place; uniform
        # draws tie none; both must match the first k of a stable sort
        from scipy.spatial.distance import cdist

        from pseudolearn.learners import _nearest_rows

        rng = np.random.default_rng(5)
        for X, Xq in (
            (col(rng.integers(0, 6, size=40)), col(rng.integers(0, 6, size=25))),
            (rng.uniform(size=(60, 2)), rng.uniform(size=(30, 2))),
        ):
            dist = cdist(Xq, X)
            full = np.argsort(dist, axis=1, kind="stable")
            for k in (1, 2, 7, X.shape[0] - 1, X.shape[0]):
                assert np.array_equal(_nearest_rows(dist, k), full[:, :k])

    def test_nan_distance_takes_full_sort(self):
        from pseudolearn.learners import _nearest_rows

        dist = np.array([[np.nan, 0.5, 0.2, np.nan], [0.3, 0.1, 0.3, 0.2]])
        full = np.argsort(dist, axis=1, kind="stable")
        for k in (1, 2, 3):
            assert np.array_equal(_nearest_rows(dist, k), full[:, :k])

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(0, 6), st.integers(1, 12)),
            elements=st.sampled_from((0.0, 0.5, 1.0, np.inf, -np.inf, np.nan))
            | st.floats(0.0, 2.0),
        )
    )
    def test_k_equal_to_columns_is_the_stable_argsort(self, dist):
        # at k == n the general path gives the stable sort's bits
        from pseudolearn.learners import _nearest_rows

        n = dist.shape[1]
        dist = np.vstack([dist, np.full((1, n), np.nan), np.full((1, n), np.inf)])
        want = np.argsort(dist, axis=1, kind="stable")
        got = _nearest_rows(dist, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tied_rows_match_full_stable_sort(self):
        # few integer distances tie most rows at the k-th place; NaNs make
        # some k-th distances NaN (full sort) and leave others finite
        from pseudolearn.learners import _nearest_rows

        rng = np.random.default_rng(17)
        for _ in range(200):
            m, n = rng.integers(1, 12), rng.integers(2, 40)
            dist = rng.integers(0, 5, size=(m, n)).astype(float)
            dist[rng.uniform(size=(m, n)) < rng.uniform(0, 0.5)] = np.nan
            k = int(rng.integers(1, n + 1))
            full = np.argsort(dist, axis=1, kind="stable")
            assert np.array_equal(_nearest_rows(dist, k), full[:, :k])


class TestKernel:
    def test_gaussian_hand_oracle(self):
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=1.0, kernel_shape="gaussian"),
            col([0, 1]),
            [0.0, 1.0],
        )
        assert model.predict(col([0.0]))[0] == pytest.approx(
            0.37754066879814546, abs=1e-15
        )
        # midpoint weights are equal, so the estimate is the plain mean
        assert model.predict(col([0.5]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_epanechnikov_outside_support_falls_back_to_mean(self):
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=1.0, kernel_shape="epanechnikov"),
            col([0.0, 0.1]),
            [2.0, 4.0],
        )
        assert model.predict(col([5.0]))[0] == pytest.approx(3.0)

    def test_epanechnikov_local_average(self):
        # only x=0 is inside the support of a query at 0.5 with h=0.6
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=0.6, kernel_shape="epanechnikov"),
            col([0.0, 2.0]),
            [1.0, 9.0],
        )
        assert model.predict(col([0.5]))[0] == pytest.approx(1.0)

    def test_cv_recovers_smooth_function(self):
        rng = np.random.default_rng(42)
        X = col(rng.uniform(-1, 1, size=400))
        f = np.sin(3 * X[:, 0])
        y = f + 0.1 * rng.normal(size=400)
        model = fit_learner(LearnerSpec(kind="kernel"), X, y, seed=1)
        grid = col(np.linspace(-0.9, 0.9, 50))
        mse = np.mean((model.predict(grid) - np.sin(3 * grid[:, 0])) ** 2)
        assert mse < 0.01

    def test_cv_tie_takes_smallest_bandwidth(self):
        # y identically zero makes every bandwidth's CV score exactly 0
        X = col(np.linspace(0, 1, 30))
        y = np.zeros(30)
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth_grid=(0.1, 0.3, 0.9)), X, y, seed=0
        )
        assert model.bandwidth == 0.1

    def test_cv_without_finite_sse_is_estimation_error(self):
        # outcomes of +-1e200 overflow every bandwidth's held-out SSE
        y = np.where(np.arange(30) % 2 == 0, 1e200, -1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(EstimationError, match="no grid bandwidth has a finite"):
                fit_learner(LearnerSpec(kind="kernel"), np.linspace(0, 1, 30), y)

    @pytest.mark.parametrize(
        "d, shape", [(1, "gaussian"), (1, "epanechnikov"), (2, "gaussian")]
    )
    def test_cv_overflow_raises_without_warnings(self, d, shape):
        # the exact scan's squared errors overflow quietly, so even under
        # -W error the fit reports the EstimationError, not a RuntimeWarning
        x = np.random.default_rng(0).uniform(size=(200, d))
        y = 1e200 * np.sin(3 * x[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="no grid bandwidth has a finite"):
                fit_learner(LearnerSpec(kind="kernel", kernel_shape=shape), x, y)

    @pytest.mark.parametrize("shape", ["gaussian", "epanechnikov"])
    def test_bandwidth_far_below_the_spacing_fits_without_warnings(self, shape):
        # every d / h but a row's own overflows to inf, a zero weight: each
        # training x predicts its own y, and every held-out row of the CV
        # has no weight, which ties the SSEs
        rng = np.random.default_rng(0)
        x, y = rng.uniform(size=50), rng.normal(size=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = LearnerSpec(kind="kernel", kernel_shape=shape, bandwidth=1e-310)
            pred = fit_learner(fixed, x, y).predict(x)
            cv = LearnerSpec(kind="kernel", kernel_shape=shape, bandwidth_grid=(1e-310, 1e-300))
            model = fit_learner(cv, x, y)
        assert pred.tobytes() == y.tobytes()
        assert model.bandwidth == 1e-310

    def test_cv_deterministic_in_seed(self):
        rng = np.random.default_rng(3)
        X = col(rng.uniform(-1, 1, size=80))
        y = X[:, 0] ** 2 + 0.3 * rng.normal(size=80)
        h1 = fit_learner(LearnerSpec(kind="kernel"), X, y, seed=11).bandwidth
        h2 = fit_learner(LearnerSpec(kind="kernel"), X, y, seed=11).bandwidth
        assert h1 == h2

    def test_fixed_bandwidth_skips_cv(self):
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=0.25), col([0.0]), [1.0]
        )
        assert model.bandwidth == 0.25

    def test_constant_outcome_reproduced(self):
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=0.7), col([0, 1, 2]), [4.0, 4.0, 4.0]
        )
        assert np.allclose(model.predict(col([-1.0, 0.5, 9.0])), 4.0, atol=1e-12)

    def test_vanishing_bandwidth_interpolates(self):
        X = col([0.0, 1.0, 2.0, 3.0])
        y = np.array([2.0, -1.0, 0.5, 3.0])
        model = fit_learner(
            LearnerSpec(kind="kernel", bandwidth=1e-6), X, y
        )
        assert np.allclose(model.predict(X), y, atol=1e-6)


# -- row-blocked kernel and k-NN prediction ----------------------------------
# The _reference_* functions compute on one dense (m, n) distance matrix;
# the blocked computations must reproduce them bit for bit.  Matrices stay
# below OpenBLAS's threading threshold (m*n < 460800), where a
# matrix-vector product does not depend on the number of BLAS threads.


def _reference_nw_predict(dist, yt, bandwidth, shape):
    u2 = (dist / bandwidth) ** 2
    gaussian = shape == "gaussian"
    w = np.exp(-0.5 * u2) if gaussian else np.maximum(1.0 - u2, 0.0)
    tot = w.sum(axis=1)
    out = np.empty(dist.shape[0])
    # Epanechnikov rows without weight get the mean; Gaussian rows whose
    # total underflows below 2**-969 shift their exponents by their largest
    dead = tot < 2.0**-969 if gaussian else tot <= 0.0
    live = ~dead
    if not np.any(dead):
        out[:] = (w @ yt) / tot
    elif np.any(live):
        out[live] = (w[live] @ yt) / tot[live]
    if gaussian and np.any(dead):
        arg = -0.5 * u2[dead]
        top = arg.max(axis=1)
        with np.errstate(invalid="ignore"):  # a row of -inf exponents
            shifted = np.exp(arg - top[:, None])
            pred = (shifted @ yt) / shifted.sum(axis=1)
        pred[np.isneginf(top)] = yt.mean()
        out[dead] = pred
    else:
        out[dead] = yt.mean()
    return out


def _reference_kernel_predict(X, y, Xq, bandwidth, shape):
    return _reference_nw_predict(cdist(Xq, X), y, bandwidth, shape)


def _reference_cv_sses(X, y, spec, seed, n_folds):
    folds = make_folds(X.shape[0], n_folds, seed=rngmod.derive_seed(seed, "bwcv"))
    sses = [0.0] * len(spec.bandwidth_grid)
    for k in range(n_folds):
        test, train = folds.rows_in_fold(k), folds.train_rows(k)
        dist = cdist(X[test], X[train])
        for i, h in enumerate(spec.bandwidth_grid):
            pred = _reference_nw_predict(dist, y[train], h, spec.kernel_shape)
            sses[i] += float(np.sum((pred - y[test]) ** 2))
    return sses


def _reference_knn_predict(X, y, Xq, k):
    return y[np.argsort(cdist(Xq, X), axis=1, kind="stable")[:, :k]].mean(axis=1)


def _block_rows(n):
    return next(_row_blocks(10**9, n)).stop


@st.composite
def _pairwise_cases(draw):
    """A small block budget, n training rows, m queries and a data seed.

    m covers 1, fewer than 8, one more than a multiple of the block's row
    count (a 1-row tail) and anything up to three blocks.
    """
    entries = draw(st.sampled_from((64, 256)))
    d = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(1, 12))
    with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
        step = _block_rows(n)
    m = draw(
        st.one_of(
            st.integers(1, 7),
            st.integers(1, 3).map(lambda j: j * step + 1),
            st.integers(1, 3 * step + 2),
        )
    )
    return entries, d, n, m, draw(st.integers(0, 2**32 - 1))


def _pairwise_data(d, n, m, seed):
    """Training points on a half-integer grid (tied distances), queries
    spread well beyond them (queries no kernel weight reaches)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, d)) / 2.0
    y = rng.normal(size=n)
    Xq = np.where(
        rng.uniform(size=(m, 1)) < 0.5,
        rng.integers(-8, 9, size=(m, d)) / 2.0,
        rng.uniform(-8.0, 8.0, size=(m, d)),
    )
    return X, y, Xq


# unit values; values up to 1.79e308, whose run-end sums xs[i] + xs[i+k]
# overflow; and subnormal values, a few multiples of 2**-1074 apart
_WINDOW_SCALES = (1.0, 1.99 * 2.0**1022, 2.0**-1072)


@st.composite
def _window_cases(draw):
    """A block budget, n <= 300 one-feature training rows, k in 1..n, m
    queries, whether the training points sit on a grid, their scale and a
    data seed."""
    entries = draw(st.sampled_from((64, 256, 2**16)))
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 40))
    grid, scale = draw(st.booleans()), draw(st.sampled_from(_WINDOW_SCALES))
    return entries, n, k, m, grid, scale, draw(st.integers(0, 2**32 - 1))


def _window_data(n, k, m, grid, scale, seed):
    """Training points on a half-integer grid (many duplicates, so the
    k-th distance often ties a row outside the run) or continuous draws,
    times ``scale``; queries on a quarter grid (equidistant from two grid
    points) or continuous, inside and beyond the training range, or at a
    run's midpoint (xs[i] + xs[i+k]) / 2 (as written, or from halves);
    some +-inf or NaN."""
    rng = np.random.default_rng(seed)
    if grid:
        X = col(rng.integers(-4, 5, size=n) / 2.0 * scale)
    else:
        X = col(rng.uniform(-2.0, 2.0, size=n) * scale)
    y = rng.normal(size=n)
    xs = np.sort(X[:, 0])
    with np.errstate(over="ignore"):
        Xq = scale * np.where(
            rng.uniform(size=m) < 0.5,
            rng.integers(-16, 17, size=m) / 4.0,
            rng.uniform(-6.0, 6.0, size=m),
        )
        i = rng.integers(0, n - k + 1, size=m)
        a, b = xs[i], xs[np.minimum(i + k, n - 1)]
        mid = np.where(rng.uniform(size=m) < 0.5, (a + b) / 2, a / 2 + b / 2)
    Xq = col(np.where(rng.uniform(size=m) < 0.3, mid, Xq))
    odd = rng.uniform(size=m) < 0.15
    Xq[odd, 0] = rng.choice([np.inf, -np.inf, np.nan], size=int(odd.sum()))
    return X, y, Xq


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 20000))
    def test_blocks_tile_the_rows(self, m, n):
        blocks = list(_row_blocks(m, n))
        step = _block_rows(n)
        assert step % 8 == 0
        assert step * n <= max(learners._BLOCK_ENTRIES, 8 * n)
        assert [b.start for b in blocks] == [i * step for i in range(len(blocks))]
        assert (blocks[-1].stop if blocks else 0) == m
        for b in blocks[:-1]:
            assert b.stop - b.start == step
        if m > 1:
            assert blocks[-1].stop - blocks[-1].start >= 2

    def test_one_feature_distances_equal_cdist_at_extremes(self):
        mags = 10.0 ** np.arange(-170, 171, 5)
        v = np.concatenate([mags, -mags, 3.0 * mags, [0.0, -0.0, 1.0]])
        got = _distances(v.reshape(-1, 1), v.reshape(-1, 1))
        want = cdist(v.reshape(-1, 1), v.reshape(-1, 1))
        assert got.tobytes() == want.tobytes()
        # |a - b| keeps the differences that squaring over- or underflows
        assert not np.array_equal(np.abs(np.subtract.outer(v, v)), want)

    @settings(max_examples=200, deadline=None)
    @given(
        _pairwise_cases(),
        st.sampled_from(("gaussian", "epanechnikov")),
        st.sampled_from((0.05, 0.3, 1.0, 5.0)),
    )
    def test_kernel_predict_matches_dense(self, case, shape, h):
        entries, d, n, m, seed = case
        X, y, Xq = _pairwise_data(d, n, m, seed)
        spec = LearnerSpec(kind="kernel", bandwidth=h, kernel_shape=shape)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            got = fit_learner(spec, X, y).predict(Xq)
        want = _reference_kernel_predict(X, y, Xq, h, shape)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_pairwise_cases(), st.integers(1, 12))
    def test_knn_predict_matches_dense(self, case, k):
        entries, d, n, m, seed = case
        X, y, Xq = _pairwise_data(d, n, m, seed)
        k = min(k, n)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            got = fit_learner(LearnerSpec(kind="knn", k=k), X, y).predict(Xq)
        assert got.tobytes() == _reference_knn_predict(X, y, Xq, k).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(_window_cases())
    def test_one_feature_knn_window_matches_dense(self, case):
        entries, n, k, m, grid, scale, seed = case
        X, y, Xq = _window_data(n, k, m, grid, scale, seed)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            got = fit_learner(LearnerSpec(kind="knn", k=k), X, y).predict(Xq)
        assert got.tobytes() == _reference_knn_predict(X, y, Xq, k).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_pairwise_cases(), st.booleans())
    def test_forest_predict_matches_per_tree_routing(self, case, honest):
        # the case's n is the tree count: a block holds about entries / n rows
        entries, d, n_trees, m, seed = case
        X, y, Xq = _pairwise_data(d, 40, m, seed)
        spec = LearnerSpec(kind="forest", n_trees=n_trees, min_leaf=2, honest=honest)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            model = fit_learner(spec, X, y, seed=seed)
            got, got_oob = model.predict(Xq), model.predict_oob()
        want, want_oob = _reference_forest_predict(model, Xq)
        assert got.tobytes() == want.tobytes()
        assert got_oob.tobytes() == want_oob.tobytes()

    def test_continuous_one_feature_knn_skips_dense_distances(self):
        rng = np.random.default_rng(8)
        X, y = col(rng.uniform(-1, 1, 500)), rng.normal(size=500)
        Xq = col(rng.uniform(-1.5, 1.5, 700))
        with mock.patch.object(learners, "_distances", wraps=_distances) as dense:
            for k in (1, 20, 499, 500):
                got = fit_learner(LearnerSpec(kind="knn", k=k), X, y).predict(Xq)
                want = _reference_knn_predict(X, y, Xq, k)
                assert got.tobytes() == want.tobytes()
            assert dense.call_count == 0
            # a grid ties the k-th distance outside the run: dense fallback
            grid = col(np.arange(500) % 10)
            fit_learner(LearnerSpec(kind="knn", k=20), grid, y).predict(Xq)
            assert dense.call_count > 0

    def test_continuous_one_feature_knn_takes_no_stable_sort(self):
        rng = np.random.default_rng(9)
        X, y = col(rng.uniform(-1, 1, 500)), rng.normal(size=500)
        Xq = col(rng.uniform(-1.5, 1.5, 700))
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            got = {
                k: fit_learner(LearnerSpec(kind="knn", k=k), X, y).predict(Xq)
                for k in (1, 20, 499, 500)
            }
        assert argsort.call_count > 0
        assert [c for c in argsort.call_args_list if "kind" in c.kwargs] == []
        assert lexsort.call_count == 0
        for k, pred in got.items():
            assert pred.tobytes() == _reference_knn_predict(X, y, Xq, k).tobytes()
        # a query halfway between two integers ties each pair around it: only
        # that query's run is re-sorted by (distance, row)
        grid, q = col(rng.permutation(500)), col([10.5, 100.25])
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            pred = fit_learner(LearnerSpec(kind="knn", k=20), grid, y).predict(q)
        assert lexsort.call_count == 1
        assert lexsort.call_args.args[0][1].shape == (1, 20)
        assert pred.tobytes() == _reference_knn_predict(grid, y, q, 20).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_window_cases())
    def test_one_feature_knn_reflection_keeps_bits(self, case):
        # x -> -x reverses the sorted order but not the row tie rule
        entries, n, k, m, grid, scale, seed = case
        X, y, Xq = _window_data(n, k, m, grid, scale, seed)
        spec = LearnerSpec(kind="knn", k=k)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            want = fit_learner(spec, X, y).predict(Xq)
            got = fit_learner(spec, -X, y).predict(-Xq)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from((64, 256)),
        st.sampled_from((1, 3)),
        st.integers(2, 80),
        st.sampled_from(("gaussian", "epanechnikov")),
        st.integers(0, 2**32 - 1),
    )
    def test_cv_matches_dense(self, entries, d, n, shape, seed):
        X, y, _ = _pairwise_data(d, n, 1, seed)
        X = X + np.random.default_rng(seed).uniform(-0.2, 0.2, size=X.shape)
        spec = LearnerSpec(
            kind="kernel", kernel_shape=shape, bandwidth_grid=(0.05, 0.3, 1.0, 5.0)
        )
        n_folds = min(spec.cv_folds, n)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            got = _cv_sses(X, y, spec, seed, n_folds)
            chosen = _cv_bandwidth(X, y, spec, seed)
        want = _reference_cv_sses(X, y, spec, seed, n_folds)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert chosen == spec.bandwidth_grid[int(np.argmin(want))]

    @pytest.mark.parametrize("shape", ["gaussian", "epanechnikov"])
    def test_full_size_blocks_match_dense(self, shape):
        # the module's own block size, three blocks with a 1-row tail
        n = 5
        X, y, Xq = _pairwise_data(1, n, 2 * _block_rows(n) + 1, seed=3)
        spec = LearnerSpec(kind="kernel", bandwidth=0.3, kernel_shape=shape)
        got = fit_learner(spec, X, y).predict(Xq)
        want = _reference_kernel_predict(X, y, Xq, 0.3, shape)
        assert got.tobytes() == want.tobytes()
        got = fit_learner(LearnerSpec(kind="knn", k=2), X, y).predict(Xq)
        assert got.tobytes() == _reference_knn_predict(X, y, Xq, 2).tobytes()


# Gaussian exponents -0.5 * u * u around the fast-path clamp (-700), numpy's
# slow-path threshold (about -708), the smallest subnormal result (-745.13)
# and the cut below which every result is +0.0 (-746)
_EXPONENTS = (
    -699.9, -700.0, -700.1, -707.5, -708.4,
    -745.13, -745.14, -746.0, -746.1, -1e4, -np.inf,
)


class TestGaussianFastPath:
    def test_clamped_exp_equals_exp_at_the_boundaries(self):
        x = np.array(_EXPONENTS + (np.nan, 0.0, -0.0, -1.0, -650.0))
        block = np.random.default_rng(0).permutation(np.tile(x, 24)).reshape(-1, 8)
        got = block.copy()
        _clamped_exp(got)
        assert got.tobytes() == np.exp(block).tobytes()

    @pytest.mark.parametrize("entries", [64, 2**16])
    @pytest.mark.parametrize("h", [1.0, 0.01])
    def test_directed_distances_match_dense(self, h, entries):
        # each distance puts one exponent on a boundary; the query at 0 has a
        # zero distance, and NaN, infinite and 1e200 (whose u * u overflows)
        # queries have no weight
        d = np.sqrt(-2.0 * np.array(_EXPONENTS[:-1])) * h
        Xt = col(np.concatenate([[0.0], d, -d]))
        Xq = col(np.concatenate([[0.0], d, -d / 2, [np.nan, np.inf, 1e200]]))
        y = np.random.default_rng(1).normal(size=Xt.shape[0])
        dist = cdist(Xq, Xt)
        grid = (h / 2, h, 2 * h)
        with np.errstate(over="ignore"):
            with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
                preds = [_nw_predict(Xq, Xt, y, bw, "gaussian") for bw in grid]
                alone = _nw_predict(Xq, Xt, y, h, "gaussian")
            want = [_reference_nw_predict(dist, y, bw, "gaussian") for bw in grid]
        for pred, ref in zip(preds, want):
            assert pred.tobytes() == ref.tobytes()
        assert alone.tobytes() == preds[1].tobytes()

    @pytest.mark.parametrize("entries", [64, 2**16])
    def test_underflowed_rows_match_dense(self, entries):
        # queries from inside the data to 100 bandwidths past it; the 17
        # beyond about 38.6 bandwidths (two row blocks at 64 entries)
        # take the shifted redo
        x = np.linspace(-1.0, 1.0, 201)
        y = np.sin(3.0 * x)
        Xq = col(np.concatenate([x[::20], np.linspace(1.5, 3.0, 21)]))
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            pred = _nw_predict(Xq, col(x), y, 0.02, "gaussian")
        want = _reference_nw_predict(cdist(Xq, col(x)), y, 0.02, "gaussian")
        assert pred.tobytes() == want.tobytes()
        assert np.all(np.abs(pred[11:] - y[-1]) < 1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from((64, 256, 2**16)),
        st.integers(2, 300),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_default_grid_matches_dense(self, entries, n, m, seed):
        rng = np.random.default_rng(seed)
        X, y = col(rng.uniform(-1, 1, n)), rng.normal(size=n)
        Xq = col(rng.uniform(-1.5, 1.5, m))
        spec = LearnerSpec(kind="kernel")
        n_folds = min(spec.cv_folds, n)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            preds = [_nw_predict(Xq, X, y, h, "gaussian") for h in spec.bandwidth_grid]
            got = _cv_sses(X, y, spec, seed, n_folds)
        dist = cdist(Xq, X)
        for h, pred in zip(spec.bandwidth_grid, preds):
            assert pred.tobytes() == _reference_nw_predict(dist, y, h, "gaussian").tobytes()
        want = _reference_cv_sses(X, y, spec, seed, n_folds)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_cv_keeps_exp_off_its_slow_path(self):
        # inputs below about -708 leave numpy's fast exp; the default grid's
        # small bandwidths give most exponents below -746 on uniform data,
        # and only the exact band from -746 to -700 may reach exp
        rng = np.random.default_rng(5)
        X, y = col(rng.uniform(-1, 1, 400)), rng.normal(size=400)
        real_exp, lowest = np.exp, []

        def exp(x, *args, **kwargs):
            lowest.append(np.min(x, initial=np.inf))  # before out= overwrites x
            return real_exp(x, *args, **kwargs)

        with mock.patch.object(np, "exp", wraps=exp):
            _cv_sses(X, y, LearnerSpec(kind="kernel"), 0, 5)
        assert lowest and min(lowest) >= -746.0
        assert min(lowest) < -700.0  # the exact band was recomputed

    def test_clamp_takes_only_the_blocks_that_reach_below_the_fast_path(self):
        # on [-1, 1] at h = 0.05 only queries near an end of the training
        # range have an exponent below -700; with sorted queries the first
        # and last blocks mix both kinds of row and are clamped whole, and
        # the middle block takes the plain exp
        rng = np.random.default_rng(6)
        X, y = col(rng.uniform(-1, 1, 400)), rng.normal(size=400)
        Xq = col(np.sort(rng.uniform(-1, 1, 400)))
        dist = cdist(Xq, X)
        u = dist.max(axis=1) / 0.05
        slow = -0.5 * u * u < -700.0
        first, middle, last = _row_blocks(400, 400)
        assert all(0 < slow[b].sum() < b.stop - b.start for b in (first, last))
        assert not slow[middle].any()
        seen = []

        def clamp(x):
            seen.append(x.copy())
            _clamped_exp(x)

        with mock.patch.object(learners, "_clamped_exp", side_effect=clamp) as spy:
            got = _nw_predict(Xq, X, y, 0.05, "gaussian")
            assert np.concatenate(seen).tobytes() == (
                -0.5 * (dist[np.r_[first, last]] / 0.05) ** 2
            ).tobytes()
            spy.reset_mock()
            wide = _nw_predict(Xq, X, y, 0.1, "gaussian")
            assert not spy.called
        assert got.tobytes() == _reference_nw_predict(dist, y, 0.05, "gaussian").tobytes()
        assert wide.tobytes() == _reference_nw_predict(dist, y, 0.1, "gaussian").tobytes()

    @pytest.mark.parametrize("in_band", [True, False])
    @pytest.mark.parametrize(
        "d, shape, clamps",
        [(1, "gaussian", True), (1, "epanechnikov", False),
         (2, "gaussian", False), (2, "epanechnikov", False)],
    )
    def test_only_one_feature_gaussian_reads_the_range(self, d, shape, clamps, in_band):
        # only 1-d Gaussians compute distances to the ends of the training
        # range and clamp exp; 1-d data in the signed band computes no
        # per-block distances, any other call computes each block's once
        rng = np.random.default_rng(2)
        X, y = rng.uniform(-1, 1, (300, d)), rng.normal(size=300)
        if not in_band:
            X[150, 0] = 1e-160  # nonzero and below 2**-458
        with (
            mock.patch.object(learners, "_BLOCK_ENTRIES", 2**12),
            mock.patch.object(learners, "_distances", wraps=_distances) as dist,
            mock.patch.object(learners, "_clamped_exp", wraps=_clamped_exp) as clamp,
        ):
            blocks = len(list(_row_blocks(100, 300)))
            got = _nw_predict(X[:100], X, y, 0.01, shape)
        per_block = 0 if d == 1 and in_band else blocks
        assert dist.call_count == per_block + clamps
        assert clamp.called == clamps
        want = _reference_nw_predict(cdist(X[:100], X), y, 0.01, shape)
        assert got.tobytes() == want.tobytes()


@st.composite
def _cv_problems(draw):
    """1-d CV inputs: uniform, half-integer (tied distances) or two clusters
    36, 37.5 or 40 of the largest bandwidths apart (a held-out row's total
    weight near or below the 2**-960 cut-off); noisy, constant, binary,
    1e+-6-scaled or overflowing y; default, drawn or h0 * 2**k grids; 2 to 6
    folds, or one row a fold (n <= 40); row blocks of the module's size or of
    64 entries (several blocks a fold, each adding to the later folds' rows).
    Covariates and grid may be scaled together by 1e-170 to 1e200 (values
    outside the signed band, squared bandwidths that under- or overflow), or
    the grid alone by 1e+-160 (squares that under- or overflow)."""
    n, seed = draw(st.integers(2, 300)), draw(st.integers(0, 2**32 - 1))
    grid = draw(st.one_of(
        st.just(learners.DEFAULT_BANDWIDTH_GRID),
        st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8, unique=True).map(
            lambda g: tuple(sorted(g))
        ),
        st.tuples(
            st.floats(1e-3, 1.0), st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True)
        ).map(lambda t: tuple(t[0] * 2.0**k for k in sorted(t[1]))),
    ))
    rng = np.random.default_rng(seed)
    x = {
        "uniform": rng.uniform(-1, 1, n),
        "half": rng.integers(-20, 21, n) / 2.0,
        "clusters": rng.uniform(-0.1, 0.1, n)
        + (draw(st.sampled_from((36.0, 37.5, 40.0))) * grid[-1] + 0.2)
        * (rng.uniform(size=n) < rng.uniform(0.01, 0.5)),
    }[draw(st.sampled_from(("uniform", "half", "clusters")))]
    noisy = np.sin(3.0 * x) + rng.normal(size=n)
    y = {
        "noisy": noisy,
        "constant": np.full(n, noisy[0]),
        "binary": (noisy > 0).astype(float),
        "large": noisy * 1e6,
        "small": noisy * 1e-6,
        "overflow": noisy * 1e200,
    }[draw(st.sampled_from(("noisy", "constant", "binary", "large", "small", "overflow")))]
    folds = draw(st.integers(2, 6) if n > 40 else st.one_of(st.integers(2, 6), st.just(n)))
    scale = 10.0 ** draw(
        st.one_of(st.just(0), st.sampled_from((-170, -140, 150, 200)), st.integers(-170, 200))
    )
    h_scale = draw(st.sampled_from((1.0, 1e-160, 1e160))) if scale == 1.0 else 1.0
    grid = tuple(sorted({h * scale * h_scale for h in grid}))
    spec = LearnerSpec(kind="kernel", bandwidth_grid=grid, cv_folds=folds)
    return col(x * scale), y, spec, seed, draw(st.sampled_from((learners._BLOCK_ENTRIES, 64)))


class TestCertifiedCv:
    """1-d Gaussian CV picks h from bounded estimates, or else by the exact scan."""

    @settings(max_examples=200, deadline=None)
    @given(_cv_problems())
    def test_bounds_hold_and_choice_is_the_exact_scans(self, case):
        X, y, spec, seed, entries = case
        n_folds = min(spec.cv_folds, X.shape[0])
        with (
            np.errstate(over="ignore", invalid="ignore"),
            mock.patch.object(learners, "_BLOCK_ENTRIES", entries),
        ):
            want = _reference_cv_sses(X, y, spec, seed, n_folds)
            sse, bound = learners._cv_estimates(X, y, spec.bandwidth_grid, seed, n_folds)
            # an infinite bound claims nothing, NaN included
            assert np.all((np.abs(np.asarray(want) - sse) <= bound) | (bound == np.inf))
            finite = [v for v in want if v < np.inf]
            if not finite:
                with pytest.raises(EstimationError, match="no grid bandwidth has a finite"):
                    _cv_bandwidth(X, y, spec, seed)
                return
            got = _cv_bandwidth(X, y, spec, seed)
        assert got == spec.bandwidth_grid[want.index(min(finite))]

    @settings(max_examples=100, deadline=None)
    @given(_cv_problems(), st.data())
    def test_sub_grid_sses_are_the_full_grids(self, case, data):
        # each bandwidth's SSE keeps its bits whatever else is on the grid
        X, y, spec, seed, entries = case
        grid = spec.bandwidth_grid
        keep = data.draw(
            st.lists(st.sampled_from(range(len(grid))), min_size=1, unique=True).map(sorted)
        )
        sub = LearnerSpec(kind="kernel", bandwidth_grid=tuple(grid[i] for i in keep))
        n_folds = min(spec.cv_folds, X.shape[0])
        with (
            np.errstate(over="ignore", invalid="ignore"),
            mock.patch.object(learners, "_BLOCK_ENTRIES", entries),
        ):
            full = _cv_sses(X, y, spec, seed, n_folds)
            part = _cv_sses(X, y, sub, seed, n_folds)
        assert np.asarray(part).tobytes() == np.asarray(full)[keep].tobytes()

    def test_bound_covers_the_floored_weights(self):
        # leave one out: the row at 36.48 takes its weight from the rows at 0
        # and -0.1 only, a total just above 2**-960; the 1000 rows from -10
        # on, exponents below -700, add 1000 * exp(-700) to its estimated
        # total and pull the estimate towards their y = 1e6, by a quarter of
        # the bound (the rest covers the weights' relative rounding)
        X = col(np.concatenate([[0.0, -0.1, 36.48], -np.linspace(10, 20, 1000)]))
        y = np.concatenate([[0.0, 0.0, 1.0], np.full(1000, 1e6)])
        spec = LearnerSpec(kind="kernel", bandwidth_grid=(1.0,), cv_folds=1003)
        (sse,), (bound,) = learners._cv_estimates(X, y, spec.bandwidth_grid, 0, 1003)
        (want,) = _reference_cv_sses(X, y, spec, 0, 1003)
        assert 0.1 * bound < abs(want - sse) <= bound

    @pytest.mark.parametrize(
        "case, scanned",
        [("tie", (0.1, 0.3, 0.9)), ("overflow", (0.1, 0.3, 0.9)), ("underflowed row", (0.1, 0.9))],
    )
    def test_unproven_choices_take_the_exact_scan(self, case, scanned):
        # y = 0 ties every SSE at 0; +-1e200 overflows them; a row 90
        # bandwidths of 0.1 from the rest has no weight when held out, which
        # leaves 0.1 unproven, and 0.9's interval is below 0.3's
        X, y = col(np.linspace(0, 1, 30)), np.sin(np.arange(30.0))
        if case == "tie":
            y = np.zeros(30)
        elif case == "overflow":
            y = np.where(np.arange(30) % 2 == 0, 1e200, -1e200)
        else:
            X[-1] = 10.0
        spec = LearnerSpec(kind="kernel", bandwidth_grid=(0.1, 0.3, 0.9))
        with (
            np.errstate(over="ignore"),
            mock.patch.object(learners, "_cv_sses", wraps=_cv_sses) as exact,
        ):
            if case == "overflow":
                with pytest.raises(EstimationError, match="no grid bandwidth has a finite"):
                    _cv_bandwidth(X, y, spec, 0)
            else:
                got = _cv_bandwidth(X, y, spec, 0)
                want = _reference_cv_sses(X, y, spec, 0, 5)
                assert got == spec.bandwidth_grid[int(np.argmin(want))]
        assert exact.call_count == 1
        assert exact.call_args.args[2].bandwidth_grid == scanned

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("arm", [0, 1])
    def test_strong_selection_arms_are_proven(self, seed, arm):
        data = sample_1d(Dgp1dConfig(propensity="strong_selection", n=2000, seed=seed))
        X, y = data.dataset.X, data.dataset.y
        X, y = X[data.dataset.w == arm], y[data.dataset.w == arm]
        spec = LearnerSpec(kind="kernel")
        with mock.patch.object(learners, "_cv_sses", wraps=_cv_sses) as exact:
            got = _cv_bandwidth(X, y, spec, seed)
        assert not exact.called
        want = _cv_sses(X, y, spec, seed, spec.cv_folds)
        assert got == spec.bandwidth_grid[int(np.argmin(want))]

    def test_exp_is_within_two_ulp_of_libm(self):
        # the bound assumes float64 exp within 4 ulp of e**x on [-745, 0];
        # libm's exp is within 1 ulp, so 2 ulp from it leaves room
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-745.0, 0.0, 400_001), rng.uniform(-745.0, 0.0, 100_000)])
        want = np.array([math.exp(v) for v in x])
        ulps = np.abs(np.exp(x).view(np.int64) - want.view(np.int64))
        assert np.all(want > 0.0) and int(ulps.max()) <= 2

    def test_estimate_keeps_exp_off_its_slow_path(self):
        # as the exact scan's clamp, but the estimate sends nothing below -700
        rng = np.random.default_rng(5)
        X = col(rng.uniform(-1, 1, 400))
        y = np.sin(3.0 * X[:, 0]) + 0.3 * rng.normal(size=400)
        real_exp, lowest = np.exp, []

        def exp(x, *args, **kwargs):
            lowest.append(np.min(x, initial=np.inf))  # before out= overwrites x
            return real_exp(x, *args, **kwargs)

        with (
            mock.patch.object(np, "exp", wraps=exp),
            mock.patch.object(learners, "_cv_sses", wraps=_cv_sses) as exact,
        ):
            _cv_bandwidth(X, y, LearnerSpec(kind="kernel"), 0)
        assert not exact.called
        assert lowest and min(lowest) == -700.0

    def test_estimate_weighs_each_cross_fold_pair_once(self):
        # fold k's rows meet the later folds' rows only, sum_{k<l} n_k * n_l
        # pairs, not sum_k n_k * (n - n_k); each of the default grid's seven
        # bandwidths weighs them with one exp
        rng = np.random.default_rng(8)
        X = col(rng.uniform(-1, 1, 800))
        y = np.sin(3.0 * X[:, 0]) + 0.3 * rng.normal(size=800)
        spec = LearnerSpec(kind="kernel")
        with (
            mock.patch.object(np, "exp", wraps=np.exp) as exp,
            mock.patch.object(learners, "_cv_sses", wraps=_cv_sses) as exact,
        ):
            fit_learner(spec, X, y, seed=2)
        assert not exact.called
        folds = make_folds(800, spec.cv_folds, seed=rngmod.derive_seed(2, "bwcv"))
        pairs = (800**2 - int(np.sum(np.bincount(folds.fold_of) ** 2))) // 2
        assert sum(np.size(c.args[0]) for c in exp.call_args_list) == 7 * pairs

    def test_estimate_keeps_one_block_workspace(self):
        # a workspace of 2 x 40 x 1600 doubles is 1 MiB; two alive at once
        # (one fold's blocks held while the next allocates) would pass 2 MiB
        rng = np.random.default_rng(0)
        X = col(rng.uniform(-1, 1, 2000))
        y = np.sin(3.0 * X[:, 0]) + rng.normal(size=2000)
        tracemalloc.start()
        try:
            learners._cv_estimates(X, y, learners.DEFAULT_BANDWIDTH_GRID, 0, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# the signed band's edges, +-0 and the doubles just inside it; values just
# outside it, subnormal, tiny or huge; non-finite queries
_IN_BAND = (
    0.0, -0.0, 2.0**-458, -(2.0**-458), 2.0**510, -(2.0**510),
    float(np.nextafter(2.0**-458, 1.0)), float(np.nextafter(2.0**510, 0.0)),
)
_OUT_OF_BAND = (
    5e-324, -5e-324, 1e-310, 1e-160, -1e-160, 1e200, -1e200,
    float(np.nextafter(2.0**-458, 0.0)), float(np.nextafter(2.0**510, np.inf)),
)
_NON_FINITE = (np.nan, np.inf, -np.inf)


def _band_floats():
    """Doubles of magnitude 0 or in [2**-458, 2**510], either sign."""
    mags = st.one_of(
        st.floats(2.0**-458, 2.0**510),
        st.floats(2.0**-458, 2.0**-440),
        st.floats(2.0**490, 2.0**510),
    )
    signed = st.tuples(mags, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
    return st.one_of(st.sampled_from(_IN_BAND), signed)


@st.composite
def _signed_cases(draw):
    """A block budget and 1-d training values, outcomes and queries: in the
    signed band only, or mixed with values outside it and non-finite queries."""
    mixed = draw(st.booleans())
    usual = st.integers(-3000, 3000).map(lambda v: v / 1000)
    train = st.one_of(usual, st.sampled_from(_IN_BAND))
    if mixed:
        train = st.one_of(train, st.sampled_from(_OUT_OF_BAND))
    query = st.one_of(train, st.sampled_from(_NON_FINITE)) if mixed else train
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    X = draw(arrays(float, (n, 1), elements=train))
    Xq = draw(arrays(float, (m, 1), elements=query))
    y = draw(arrays(float, n, elements=st.integers(-20, 20).map(lambda v: v / 4)))
    return draw(st.sampled_from((64, 256, 2**16))), X, y, Xq, mixed


class TestSignedDifferences:
    def test_buffer_size_is_left_as_found(self):
        # the outer difference runs under a small ufunc buffer of its own
        rng = np.random.default_rng(4)
        X, y = col(rng.uniform(-1, 1, 300)), rng.normal(size=300)
        size = np.setbufsize(4096)
        try:
            pred = _nw_predict(X[:50], X, y, 0.1, "gaussian")
            assert np.getbufsize() == 4096
            learners._cv_estimates(X, y, learners.DEFAULT_BANDWIDTH_GRID, 0, 5)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(size)
        want = _reference_nw_predict(cdist(X[:50], X), y, 0.1, "gaussian")
        assert pred.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.integers(1, 16), elements=_band_floats()))
    def test_abs_difference_is_root_of_square_in_band(self, v):
        # with the adjacent doubles of every value that stay in the band
        v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
        a = np.abs(v)
        v = v[(a == 0.0) | ((a >= 2.0**-458) & (a <= 2.0**510))]
        assert learners._signed_ok(v)
        x = np.subtract.outer(v, v)
        assert np.abs(x).tobytes() == np.sqrt(x * x).tobytes()

    def test_band_edges(self):
        assert learners._signed_ok(np.array(_IN_BAND))
        for v in _OUT_OF_BAND + _NON_FINITE:
            assert not learners._signed_ok(np.array([[0.5], [v]]))

    @pytest.mark.parametrize("shape", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("v", [v for v in _IN_BAND + _OUT_OF_BAND if v > 0])
    def test_band_edges_match_dense(self, v, shape):
        # bandwidths on the scale of the differences: outside the band their
        # squares under- or overflow, and signed differences would move bits
        X = col([-v, 0.0, v])
        y = np.array([1.0, -2.0, 4.0])
        grid = (v, 2 * v, 4 * v)
        with np.errstate(over="ignore", under="ignore"):
            preds = [_nw_predict(X, X, y, h, shape) for h in grid]
            want = [_reference_nw_predict(cdist(X, X), y, h, shape) for h in grid]
        for pred, ref in zip(preds, want):
            assert pred.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        _signed_cases(),
        st.sampled_from(("gaussian", "epanechnikov")),
        # tiny and huge bandwidths make sub- and overflowing squares matter
        st.sampled_from((1e-160, 0.01, 0.3, 5.0, 1e200)),
    )
    def test_one_feature_predict_matches_dense(self, case, shape, h):
        entries, X, y, Xq, mixed = case
        if not mixed:
            assert learners._signed_ok(X) and learners._signed_ok(Xq)
        grid = (h / 2, h, 2 * h)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
                preds = [_nw_predict(Xq, X, y, bw, shape) for bw in grid]
            dist = cdist(Xq, X)
            want = [_reference_nw_predict(dist, y, bw, shape) for bw in grid]
        for pred, ref in zip(preds, want):
            assert pred.tobytes() == ref.tobytes()


@st.composite
def _family_grids(draw):
    """A base bandwidth from 1e-160 to 1e200, members base * 2**k with k in
    1..70 (squares far apart, some under- or overflowing) and unrelated
    bandwidths, shuffled."""
    h = draw(st.sampled_from((1e-160, 0.01, 0.3, 5.0, 1e200)))
    ks = draw(st.lists(st.integers(1, 70), min_size=1, max_size=4, unique=True))
    others = draw(st.lists(st.floats(0.1, 10.0), max_size=2))
    grid = [h] + [h * 2.0**k for k in ks] + [h * f for f in others]
    return tuple(draw(st.permutations(grid)))


class TestBandwidthFamilies:
    @staticmethod
    def _assert_alone_and_dense(entries, X, y, grid, shape):
        # the exact scan, reached directly and through the CV choice
        assume(X.shape[0] >= 2)
        grid = tuple(sorted(set(grid)))
        spec = LearnerSpec(kind="kernel", kernel_shape=shape, bandwidth_grid=grid)
        n_folds = min(spec.cv_folds, X.shape[0])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
                sses = _cv_sses(X, y, spec, 0, n_folds)
                alone = [
                    _cv_sses(X, y, replace(spec, bandwidth_grid=(h,)), 0, n_folds)[0]
                    for h in grid
                ]
                want = _reference_cv_sses(X, y, spec, 0, n_folds)
                finite = [v for v in want if v < np.inf]
                if not finite:
                    with pytest.raises(EstimationError, match="no grid bandwidth has a finite"):
                        _cv_bandwidth(X, y, spec, 0)
                else:
                    assert _cv_bandwidth(X, y, spec, 0) == grid[want.index(min(finite))]
        assert np.asarray(sses).tobytes() == np.asarray(alone).tobytes()
        assert np.asarray(sses).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_signed_cases(), _family_grids(), st.sampled_from(("gaussian", "epanechnikov")))
    def test_one_feature_families_keep_bits(self, case, grid, shape):
        entries, X, y, _, _ = case
        self._assert_alone_and_dense(entries, X, y, grid, shape)

    @settings(max_examples=100, deadline=None)
    @given(_pairwise_cases(), _family_grids(), st.sampled_from(("gaussian", "epanechnikov")))
    def test_pairwise_families_keep_bits(self, case, grid, shape):
        entries, d, n, m, seed = case
        X, y, _ = _pairwise_data(d, n, m, seed)
        self._assert_alone_and_dense(entries, X, y, grid, shape)

    @settings(max_examples=100, deadline=None)
    @given(
        _pairwise_cases(),
        st.booleans(),
        st.one_of(
            st.just(learners.DEFAULT_BANDWIDTH_GRID),
            st.lists(st.floats(0.005, 3.0), min_size=1, max_size=6, unique=True).map(
                lambda g: tuple(sorted(g))
            ),
        ),
        st.sampled_from(("gaussian", "epanechnikov")),
        st.integers(-6, 6),
    )
    def test_power_of_two_scale_keeps_bits(self, case, tied, grid, shape, j):
        # scaling the covariates and the bandwidths by 2**j leaves every
        # argument d / h, so every prediction, SSE and choice, unchanged
        entries, d, n, m, seed = case
        X, y, Xq = _pairwise_data(d, n + 1, m, seed)
        if not tied:
            X = X + np.random.default_rng(seed).uniform(-0.2, 0.2, size=X.shape)
        s = 2.0**j
        spec = LearnerSpec(kind="kernel", kernel_shape=shape, bandwidth_grid=grid)
        scaled = LearnerSpec(
            kind="kernel", kernel_shape=shape, bandwidth_grid=tuple(h * s for h in grid)
        )
        n_folds = min(spec.cv_folds, n + 1)
        with mock.patch.object(learners, "_BLOCK_ENTRIES", entries):
            runs = [
                (
                    [_nw_predict(Xq * a, X * a, y, h, shape) for h in sp.bandwidth_grid],
                    _cv_sses(X * a, y, sp, seed, n_folds),
                    sp.bandwidth_grid.index(_cv_bandwidth(X * a, y, sp, seed)),
                )
                for a, sp in ((1.0, spec), (s, scaled))
            ]
        (preds, sses, chosen), (preds_s, sses_s, chosen_s) = runs
        for pred, pred_s in zip(preds, preds_s):
            assert pred.tobytes() == pred_s.tobytes()
        assert np.asarray(sses).tobytes() == np.asarray(sses_s).tobytes()
        assert chosen == chosen_s


class TestPredictMemory:
    @pytest.mark.parametrize(
        "spec",
        [LearnerSpec(kind="kernel", bandwidth=0.1), LearnerSpec(kind="knn", k=5)],
        ids=["kernel", "knn"],
    )
    def test_peak_stays_small_at_6000_by_6000(self, spec):
        # the dense 6000 x 6000 float64 distance matrix alone is 275 MiB
        rng = np.random.default_rng(0)
        X, Xq = col(rng.uniform(-1, 1, 6000)), col(rng.uniform(-1, 1, 6000))
        model = fit_learner(spec, X, rng.normal(size=6000))
        tracemalloc.start()
        try:
            model.predict(Xq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_forest_peak_stays_below_one_tree_matrix(self):
        # the trees route together over row blocks and each block is averaged
        # at once, so neither call holds a (trees x m) float matrix
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20000, 2))
        spec = LearnerSpec(
            kind="forest", n_trees=100, min_leaf=20, subsample_fraction=0.1
        )
        model = fit_learner(spec, X, rng.normal(size=20000))
        for call in (lambda: model.predict(X), model.predict_oob):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 100 * 20000 * 8

    def test_default_grid_workspace_stays_small(self):
        # the exact scan's predictions each keep one workspace of a few row
        # blocks; the dense 3000 x 3000 float64 matrix alone is 69 MiB
        rng = np.random.default_rng(0)
        X, y = col(rng.uniform(-1, 1, 3000)), rng.normal(size=3000)
        tracemalloc.start()
        try:
            _cv_sses(X, y, LearnerSpec(kind="kernel"), 0, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def _trees(model):
    """A fitted forest's trees, each as its own node arrays with local child ids."""
    stops = [*model._roots[1:], model._feature.shape[0]]
    trees = []
    for t, (a, b) in enumerate(zip(model._roots, stops)):
        left, right = (
            np.where(c[a:b] >= 0, c[a:b] - a, -1) for c in (model._left, model._right)
        )
        trees.append(
            SimpleNamespace(
                feature=model._feature[a:b],
                threshold=model._threshold[a:b],
                left=left,
                right=right,
                value=model._value[a:b],
                structure_rows=model._structure_rows[t],
                estimation_rows=model._estimation_rows[t],
            )
        )
    return trees


def _reference_forest_predict(model, Xq):
    """Predictions and out-of-bag predictions from one tree at a time.

    Each tree routes all rows alone into a (trees x rows) matrix, which is
    then averaged, as before the trees routed together in row blocks.
    """

    def tree_matrix(Q):
        out = []
        for tree in _trees(model):
            node = np.zeros(Q.shape[0], dtype=np.int64)
            while np.any(tree.feature[node] >= 0):
                inner = tree.feature[node] >= 0
                f = np.where(inner, tree.feature[node], 0)
                go = Q[np.arange(Q.shape[0]), f] <= tree.threshold[node]
                child = np.where(go, tree.left[node], tree.right[node])
                node = np.where(inner, child, node)
            out.append(tree.value[node])
        return np.array(out)

    per_tree = tree_matrix(model._X)
    out_of_bag = np.ones(per_tree.shape, dtype=bool)
    for t, tree in enumerate(_trees(model)):
        out_of_bag[t, tree.structure_rows] = False
        out_of_bag[t, tree.estimation_rows] = False
    n_oob = out_of_bag.sum(axis=0)
    masked = np.where(out_of_bag, per_tree, 0.0).sum(axis=0)
    oob = np.where(n_oob > 0, masked / np.maximum(n_oob, 1), per_tree.mean(axis=0))
    return tree_matrix(Xq).mean(axis=0), oob


class TestForest:
    def full_spec(self, **kw):
        # one deterministic, fully grown tree on the whole sample
        base = dict(
            kind="forest",
            n_trees=1,
            min_leaf=1,
            subsample_fraction=1.0,
            honest=False,
        )
        base.update(kw)
        return LearnerSpec(**base)

    def test_single_tree_interpolates_distinct_points(self):
        X = col([0, 1, 2, 3])
        y = np.array([5.0, 3.0, 8.0, 1.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        assert np.allclose(model.predict(X), y)

    def test_root_split_is_best_variance_reduction(self):
        # two flat halves: the only zero-SSE cut is between x=1 and x=2
        X = col([0, 1, 2, 3])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        tree = _trees(model)[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)
        # boundary routing: a query at the threshold goes left
        assert model.predict(col([1.5]))[0] == pytest.approx(0.0)

    def test_feature_tie_breaks_to_lowest_index(self):
        # both features admit the same perfect split
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        assert _trees(model)[0].feature[0] == 0

    def test_threshold_tie_breaks_to_lowest_threshold(self):
        # symmetric two-level outcome: cuts at 0.5 and 2.5 tie exactly
        X = col([0, 1, 2, 3])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        assert _trees(model)[0].threshold[0] == pytest.approx(0.5)

    def test_min_leaf_respected(self):
        X = col(np.arange(10))
        y = np.arange(10.0)
        model = fit_learner(self.full_spec(min_leaf=5), X, y, seed=0)
        tree = _trees(model)[0]
        # a single split of 10 rows into 5 + 5 is the only legal structure
        assert (tree.feature >= 0).sum() == 1
        assert tree.threshold[0] == pytest.approx(4.5)

    def test_constant_outcome_yields_single_leaf(self):
        model = fit_learner(self.full_spec(), col(np.arange(6)), np.full(6, 2.5), seed=0)
        tree = _trees(model)[0]
        assert tree.feature[0] == -1
        assert model.predict(col([3.3]))[0] == pytest.approx(2.5)

    def test_outcomes_whose_squares_overflow_fit_without_warnings(self):
        # the split search scales +-1e200 by a power of two, and its trees
        # are the reference grower's on the outcomes scaled alike
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(50, 2))
        y = np.where(rng.uniform(size=50) < 0.5, -1e200, 1e200)
        spec = LearnerSpec(kind="forest", n_trees=3, min_leaf=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = fit_learner(spec, X, y).predict(X)
        assert np.isfinite(pred).all() and np.abs(pred).max() <= 1e200
        _assert_grows_like_reference(X, y, spec, seed=0, reference=_scaled_reference_grow_tree)

    def test_outcomes_past_the_split_scale_grow_the_unit_trees(self):
        # node sums past about 2**511 once overflowed every cut's score, and
        # such a forest never split; leaf sums near the largest double once
        # overflowed to inf; scaled outcomes grow c = 1's trees and leaves
        rng = np.random.default_rng(0)
        X = col(rng.uniform(size=200))
        spec = LearnerSpec(kind="forest", n_trees=5, min_leaf=5)
        unit = fit_learner(spec, X, 1.0 * (X[:, 0] > 0.5))
        want = unit.predict(col([0.25, 0.75]))
        assert np.count_nonzero(unit._feature >= 0) == 5
        assert want[0] == 0.0 and want[1] == pytest.approx(0.965, abs=1e-3)
        for c in (1e150, 1e155, 1e200, 1e300, 1e307):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = fit_learner(spec, X, c * (X[:, 0] > 0.5))
                pred = model.predict(col([0.25, 0.75]))
            for name in ("_feature", "_threshold", "_left", "_right"):
                assert getattr(model, name).tobytes() == getattr(unit, name).tobytes()
            assert pred == pytest.approx(c * want, rel=1e-12)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(60, 2))
        y = X[:, 0] + rng.normal(size=60)
        spec = LearnerSpec(kind="forest", n_trees=20, min_leaf=2)
        q = rng.uniform(size=(10, 2))
        a = fit_learner(spec, X, y, seed=5).predict(q)
        b = fit_learner(spec, X, y, seed=5).predict(q)
        c = fit_learner(spec, X, y, seed=6).predict(q)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_recovers_step_function(self):
        rng = np.random.default_rng(1)
        X = col(rng.uniform(0, 1, size=500))
        truth = np.where(X[:, 0] > 0.5, 2.0, -1.0)
        y = truth + 0.2 * rng.normal(size=500)
        model = fit_learner(
            LearnerSpec(kind="forest", n_trees=80, min_leaf=5), X, y, seed=2
        )
        grid = col([0.2, 0.4, 0.6, 0.8])
        pred = model.predict(grid)
        assert np.allclose(pred, [-1.0, -1.0, 2.0, 2.0], atol=0.25)

    def test_mtry_subset_still_learns(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(400, 3))
        y = 3.0 * X[:, 1] + 0.1 * rng.normal(size=400)
        spec = LearnerSpec(
            kind="forest", n_trees=60, min_leaf=5, features_per_split=1
        )
        model = fit_learner(spec, X, y, seed=3)
        lo = np.full((1, 3), 0.5)
        hi = lo.copy()
        lo[0, 1], hi[0, 1] = 0.1, 0.9
        assert model.predict(hi)[0] - model.predict(lo)[0] > 1.0

    def test_oob_excludes_own_tree(self):
        rng = np.random.default_rng(4)
        X = col(rng.uniform(size=100))
        y = X[:, 0] + 0.1 * rng.normal(size=100)
        model = fit_learner(
            LearnerSpec(kind="forest", n_trees=40, min_leaf=2), X, y, seed=9
        )
        oob = model.predict_oob()
        assert oob.shape == (100,)
        assert np.all(np.isfinite(oob))
        # out-of-bag predictions differ from in-sample ones
        assert not np.allclose(oob, model.predict(X))

    def test_honest_and_adaptive_differ(self):
        rng = np.random.default_rng(5)
        X = col(rng.uniform(size=120))
        y = np.sin(4 * X[:, 0]) + 0.3 * rng.normal(size=120)
        q = col(np.linspace(0.1, 0.9, 9))
        honest = fit_learner(
            LearnerSpec(kind="forest", n_trees=30, honest=True), X, y, seed=1
        ).predict(q)
        adaptive = fit_learner(
            LearnerSpec(kind="forest", n_trees=30, honest=False), X, y, seed=1
        ).predict(q)
        assert not np.allclose(honest, adaptive)

    def test_honest_halves_disjoint_per_tree(self):
        rng = np.random.default_rng(6)
        X = col(rng.uniform(size=50))
        y = rng.normal(size=50)
        model = fit_learner(
            LearnerSpec(kind="forest", n_trees=15, honest=True), X, y, seed=8
        )
        for tree in _trees(model):
            s = set(tree.structure_rows.tolist())
            e = set(tree.estimation_rows.tolist())
            assert s and e
            assert not (s & e)

    def test_min_leaf_equal_n_is_root_mean(self):
        X = col([0, 1, 2, 3])
        y = np.array([1.0, 2.0, 3.0, 10.0])
        model = fit_learner(
            LearnerSpec(
                kind="forest",
                n_trees=1,
                min_leaf=4,
                subsample_fraction=1.0,
                honest=False,
            ),
            X,
            y,
            seed=0,
        )
        assert np.allclose(model.predict(col([0.0, 5.0])), 4.0)

    def test_min_leaf_above_n_rejected(self):
        with pytest.raises(EstimationError, match="forest learner needs at least 5"):
            fit_learner(
                LearnerSpec(kind="forest", n_trees=1, min_leaf=5),
                col([0, 1]),
                [0.0, 1.0],
            )

    def test_features_per_split_above_d_rejected(self):
        with pytest.raises(ConfigError, match="features_per_split"):
            fit_learner(
                LearnerSpec(kind="forest", n_trees=1, min_leaf=1, features_per_split=3),
                col([0, 1, 2]),
                [0.0, 1.0, 2.0],
            )


def _reference_best_split(block, ys, min_leaf):
    """The per-feature split scan the block search replaced.

    Scores one column at a time and keeps the first strictly larger
    positive reduction, so it states the tie rules independently of
    the vectorised search.
    """
    best = None
    for j in range(block.shape[1]):
        order = np.argsort(block[:, j], kind="stable")
        v = block[order, j]
        s = ys[order]
        n = v.shape[0]
        csum = np.cumsum(s)
        total = csum[-1]
        n_left = np.arange(1, n)
        ok = (v[1:] > v[:-1]) & (n_left >= min_leaf) & ((n - n_left) >= min_leaf)
        if not np.any(ok):
            continue
        s_left = csum[:-1]
        score = s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left)
        score[~ok] = -np.inf
        cut = int(np.argmax(score))
        reduction = float(score[cut] - total * total / n)
        if reduction > 0.0 and (best is None or reduction > best[0]):
            best = (reduction, j, float(0.5 * (v[cut] + v[cut + 1])))
    return best


@st.composite
def _split_blocks(draw):
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 6))
    # few distinct values per column and in y: many tied cuts and scores
    levels = draw(st.integers(1, 5))
    block = draw(arrays(float, (n, k), elements=st.integers(0, levels).map(float)))
    # small values mixed with ones whose squares (and sums) overflow: rows
    # whose reductions are inf or NaN
    huge = st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308])
    ys = draw(
        st.one_of(
            arrays(float, n, elements=st.integers(0, 1).map(float)),
            arrays(float, n, elements=st.floats(-100, 100, width=32)),
            arrays(float, n, elements=st.one_of(st.integers(-2, 2).map(float), huge)),
        )
    )
    return block, ys, draw(st.integers(1, n))


class TestBlockSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(_split_blocks())
    def test_matches_per_feature_scan(self, case):
        block, ys, min_leaf = case
        # one lane per column: its rows sorted by (value, row)
        lanes = np.argsort(block.T, axis=1, kind="stable")
        v = np.take_along_axis(block.T, lanes, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _best_split(v, ys[lanes], min_leaf) == _reference_best_split(
                block, ys, min_leaf
            )


def _reference_grow_tree(Xs, ys, min_leaf, mtry, tree_rng):
    """The re-sorting grower that presorted lanes replaced.

    Each node gathers its rows' block and sorts it again (inside the
    split scan); a child keeps its parent's rows in ascending order.
    """
    d = Xs.shape[1]
    feature, threshold, left, right = [], [], [], []

    def new_node():
        for arr, init in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            arr.append(init)
        return len(feature) - 1

    stack = [(new_node(), np.arange(Xs.shape[0]))]
    while stack:
        node, rows = stack.pop()
        y_node = ys[rows]
        if rows.shape[0] < 2 * min_leaf or np.ptp(y_node) == 0.0:
            continue
        block, candidates = Xs[rows], np.arange(d)
        if mtry < d:
            candidates = np.sort(tree_rng.choice(d, size=mtry, replace=False))
            block = block[:, candidates]
        best = _reference_best_split(block, y_node, min_leaf)
        if best is None:
            continue
        _, col, thr = best
        go_left = block[:, col] <= thr
        feature[node], threshold[node] = int(candidates[col]), thr
        lid, rid = new_node(), new_node()
        left[node], right[node] = lid, rid
        stack.append((rid, rows[~go_left]))
        stack.append((lid, rows[go_left]))
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
    )


@st.composite
def _forest_cases(draw):
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    # few levels tie many values; a wide range ties almost none
    levels = draw(st.sampled_from([1, 2, 4, 1000]))
    X = draw(arrays(float, (n, d), elements=st.integers(0, levels).map(float)))
    y = draw(
        st.one_of(
            arrays(float, n, elements=st.integers(0, 1).map(float)),
            arrays(float, n, elements=st.integers(-20, 20).map(lambda v: v / 4)),
        )
    )
    spec = LearnerSpec(
        kind="forest",
        n_trees=3,
        min_leaf=draw(st.integers(1, min(n, 6))),
        features_per_split=draw(st.sampled_from([None, 1, max(1, d // 2)])),
        honest=draw(st.booleans()),
    )
    return X, y, spec, draw(st.integers(0, 2**16))


def _scaled_reference_grow_tree(Xs, ys, min_leaf, mtry, tree_rng):
    """The re-sorting grower on outcomes scaled, when n * max|y| >= 2**511,
    by the power of two 2**(511 - e - n.bit_length()) for max|y| < 2**e."""
    n, top = ys.shape[0], float(np.max(np.abs(ys)))
    if n * top >= 2.0**511:
        ys = ys * 2.0 ** (511 - math.frexp(top)[1] - n.bit_length())
    return _reference_grow_tree(Xs, ys, min_leaf, mtry, tree_rng)


def _assert_grows_like_reference(X, y, spec, seed, reference=_reference_grow_tree):
    """Fits ``spec`` and checks each tree's bytes against those ``reference``
    grows; returns the fit."""
    model = fit_learner(spec, X, y, seed=seed)
    with mock.patch.object(learners, "_grow_tree", wraps=reference) as grow:
        reference = fit_learner(spec, X, y, seed=seed)
    assert grow.call_count == spec.n_trees
    for got, want in zip(_trees(model), _trees(reference), strict=True):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    return model


class TestPresortedGrower:
    @settings(max_examples=200, deadline=None)
    @given(_forest_cases())
    def test_matches_resorting_grower(self, case):
        _assert_grows_like_reference(*case)

    @pytest.mark.parametrize("features_per_split", [None, 3])
    def test_matches_resorting_grower_at_benchmark_scale(self, features_per_split):
        # trees the size of the benchmark's 10-d forests: about 30 splits, depth 8
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 10))
        y = X[:, 0] * X[:, 1] + X[:, 2] + 0.5 * rng.normal(size=400)
        spec = LearnerSpec(
            kind="forest",
            n_trees=2,
            min_leaf=10,
            subsample_fraction=1.0,
            features_per_split=features_per_split,
            honest=False,
        )
        model = _assert_grows_like_reference(X, y, spec, seed=0)
        assert np.count_nonzero(model._feature >= 0) >= 50


def _bounded_split_search(limit):
    """``_best_split`` that fails after ``limit`` calls, so a grower that
    splits one node forever fails rather than hangs."""
    calls = itertools.count()

    def search(v, s, min_leaf):
        assert next(calls) < limit, "the split search does not end"
        return _best_split(v, s, min_leaf)

    return mock.patch.object(learners, "_best_split", side_effect=search)


def _assert_thresholds_separate(model, X, min_leaf):
    """Every internal node sends at least ``min_leaf`` structure rows each
    way, and its threshold t has a <= t < b, where a is the largest and b
    the smallest value its children receive."""
    for tree in _trees(model):
        stack = [(0, tree.structure_rows)]
        while stack:
            node, rows = stack.pop()
            if tree.feature[node] < 0:
                continue
            v, t = X[rows, tree.feature[node]], tree.threshold[node]
            go = v <= t
            assert min_leaf <= np.count_nonzero(go) <= go.shape[0] - min_leaf
            assert v[go].max() <= t < v[~go].min()
            stack += [(tree.left[node], rows[go]), (tree.right[node], rows[~go])]


_BIG = np.finfo(float).max
# adjacent doubles, midpoints that overflow, subnormals and zeros
_EXTREME_VALUES = tuple(
    float(v) for v in (
        1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
        1.0e308, 1.7e308, _BIG, np.nextafter(_BIG, 0.0),
        -1.0e308, -1.7e308, -_BIG, np.nextafter(-_BIG, 0.0),
        5e-324, -5e-324, 1e-320, 0.0, -0.0,
    )
)


@st.composite
def _extreme_forest_cases(draw):
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 2))
    X = draw(arrays(float, (n, d), elements=st.sampled_from(_EXTREME_VALUES)))
    y = draw(arrays(float, n, elements=st.integers(-4, 4).map(float)))
    spec = LearnerSpec(
        kind="forest",
        n_trees=2,
        min_leaf=draw(st.integers(1, min(n, 3))),
        subsample_fraction=draw(st.sampled_from([0.5, 1.0])),
        features_per_split=draw(st.sampled_from([None, 1])) if d > 1 else None,
        honest=draw(st.booleans()),
    )
    return X, y, spec, draw(st.integers(0, 2**16))


class TestSplitThresholds:
    @pytest.mark.parametrize(
        "a, b",
        [(1.0 + 2.0**-52, 1.0 + 2.0**-51), (1.0e308, 1.7e308), (-1.7e308, -1.0e308)],
    )
    def test_two_rows_split_once(self, a, b):
        # 0.5 * (a + b) rounds to b for adjacent doubles and overflows for
        # the others; either way every row would go left
        spec = LearnerSpec(
            kind="forest", n_trees=1, min_leaf=1, subsample_fraction=1.0, honest=False
        )
        with _bounded_split_search(4):
            model = fit_learner(spec, col([a, b]), np.array([0.0, 1.0]))
        assert model._threshold.tolist() == [a, 0.0, 0.0]
        assert model.predict(col([a, b])).tolist() == [0.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(_extreme_forest_cases())
    def test_thresholds_lie_between_the_values_they_separate(self, case):
        X, y, spec, seed = case
        with _bounded_split_search(2 * X.shape[0] * spec.n_trees):
            model = fit_learner(spec, X, y, seed=seed)
        _assert_thresholds_separate(model, X, spec.min_leaf)


# sha256 prefixes of every tree's feature/threshold/left/right/value
# arrays, keyed by (d, features_per_split, min_leaf, honest, binary y);
# any change to how trees grow changes them
_TREE_DIGESTS = {
    (1, None, 1, True, True): "d681c7649990e6d7",
    (1, None, 1, True, False): "ff311da5aa72f46f",
    (1, None, 1, False, True): "8d85a8eb5c6c1442",
    (1, None, 1, False, False): "a6a5bd44227338a6",
    (1, None, 10, True, True): "16ce6f3e4bf6d69e",
    (1, None, 10, True, False): "71d4844ea626edab",
    (1, None, 10, False, True): "f6c7819164f1cb83",
    (1, None, 10, False, False): "4c312a2d8d2fcf44",
    (10, None, 1, True, True): "17bb3f93926e540d",
    (10, 1, 1, True, True): "f78a6f3e4a504915",
    (10, 5, 1, True, True): "815c22542b05a6e6",
    (10, None, 1, True, False): "558762c5a01222e0",
    (10, 1, 1, True, False): "f0c1d3c356735d65",
    (10, 5, 1, True, False): "7f57d078c06035b1",
    (10, None, 1, False, True): "86f7499f2d4490fd",
    (10, 1, 1, False, True): "8a36080c5ad90c98",
    (10, 5, 1, False, True): "f2adae558992453e",
    (10, None, 1, False, False): "ea5a642f33a2d729",
    (10, 1, 1, False, False): "5fa0fe6e7ed20a47",
    (10, 5, 1, False, False): "225b6b4eb00b67e5",
    (10, None, 10, True, True): "9b306268a99ef748",
    (10, 1, 10, True, True): "79744355f9583883",
    (10, 5, 10, True, True): "e395d44ac954898a",
    (10, None, 10, True, False): "0364c1d2f3d367b7",
    (10, 1, 10, True, False): "b85c39cd4f5863ea",
    (10, 5, 10, True, False): "fc4852d9ea36dff2",
    (10, None, 10, False, True): "f249f99c5e779c7a",
    (10, 1, 10, False, True): "4b13a06f24e53cb4",
    (10, 5, 10, False, True): "48d53103f826b218",
    (10, None, 10, False, False): "e4e4f466baf10447",
    (10, 1, 10, False, False): "f82929e310a47c33",
    (10, 5, 10, False, False): "19151e43a9d43bcb",
}


def _tree_digest(model):
    h = hashlib.sha256()
    for tree in _trees(model):
        for arr, dtype in (
            (tree.feature, "<i8"),
            (tree.threshold, "<f8"),
            (tree.left, "<i8"),
            (tree.right, "<i8"),
            (tree.value, "<f8"),
        ):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


class TestTreeDigests:
    @pytest.mark.parametrize(
        "d,min_leaf,honest,binary",
        list(itertools.product((1, 10), (1, 10), (True, False), (True, False))),
    )
    def test_trees_are_pinned(self, d, min_leaf, honest, binary):
        rng = np.random.default_rng(1000 * d + min_leaf)
        # one decimal: about eleven distinct values per covariate
        X = rng.uniform(size=(150, d)).round(1)
        if binary:
            y = (rng.uniform(size=150) < 0.3 + 0.4 * X[:, 0]).astype(float)
        else:
            y = (X[:, 0] + X[:, -1] ** 2 + 0.5 * rng.normal(size=150)).round(1)
        for fps in (None, 1, d // 2) if d > 1 else (None,):
            spec = LearnerSpec(
                kind="forest",
                n_trees=4,
                min_leaf=min_leaf,
                features_per_split=fps,
                honest=honest,
            )
            model = fit_learner(spec, X, y, seed=7)
            key = (d, fps, min_leaf, honest, binary)
            assert _tree_digest(model) == _TREE_DIGESTS[key], key


class TestProbabilityFit:
    def test_predictions_clipped(self):
        X = col([0, 1, 2, 3])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_probability(LearnerSpec(kind="knn", k=1), X, y, clip=0.05)
        pred = model.predict(col([0.0, 3.0]))
        assert pred[0] == pytest.approx(0.05)
        assert pred[1] == pytest.approx(0.95)

    def test_all_ones_clip_ceiling(self):
        model = fit_probability(
            LearnerSpec(kind="mean"), col([0, 1, 2]), [1.0, 1.0, 1.0], clip=0.01
        )
        assert np.allclose(model.predict(col([-3.0, 0.4, 7.0])), 0.99)

    def test_single_zero_point_clip_floor(self):
        model = fit_probability(LearnerSpec(kind="mean"), col([0.0]), [0.0], clip=0.01)
        assert np.allclose(model.predict(col([-3.0, 7.0])), 0.01)

    def test_fair_coin_kernel_large_bandwidth_near_half(self):
        rng = np.random.default_rng(12)
        n = 2000
        X = col(rng.uniform(-1, 1, size=n))
        y = rng.integers(0, 2, size=n).astype(float)
        model = fit_probability(
            LearnerSpec(kind="kernel", bandwidth=100.0), X, y
        )
        pred = model.predict(col([0.0]))[0]
        assert abs(pred - 0.5) < 3.0 / np.sqrt(n)

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(DomainError):
            fit_probability(LearnerSpec(kind="mean"), col([0, 1]), [0.0, 0.5])

    def test_bad_clip_rejected(self):
        with pytest.raises(ConfigError):
            fit_probability(LearnerSpec(kind="mean"), col([0.0]), [0.0], clip=0.5)


class TestConvexCombinationBound:
    def test_predictions_inside_training_range(self):
        # knn, kernel and forest predictions are convex combinations of y
        rng = np.random.default_rng(21)
        specs = [
            LearnerSpec(kind="knn", k=3),
            LearnerSpec(kind="kernel", bandwidth=0.15),
            LearnerSpec(kind="kernel", bandwidth=0.15, kernel_shape="epanechnikov"),
            LearnerSpec(kind="forest", n_trees=10, min_leaf=2),
        ]
        for trial in range(5):
            X = rng.uniform(-1, 1, size=(40, 2))
            y = rng.normal(size=40) * 10
            q = rng.uniform(-1.5, 1.5, size=(30, 2))
            for spec in specs:
                pred = fit_learner(spec, X, y, seed=trial).predict(q)
                assert np.all(pred >= y.min() - 1e-9)
                assert np.all(pred <= y.max() + 1e-9)


class TestQueryShapes:
    def test_flat_vector_is_points_when_1d(self):
        model = fit_learner(LearnerSpec(kind="mean"), col([0, 1]), [1.0, 3.0])
        assert model.predict([0.2, 0.4, 0.6]).shape == (3,)

    def test_flat_vector_is_one_point_when_multid(self):
        model = fit_learner(
            LearnerSpec(kind="mean"), np.zeros((3, 2)), [1.0, 2.0, 3.0]
        )
        assert model.predict([0.1, 0.2]).shape == (1,)

    def test_wrong_width_rejected(self):
        model = fit_learner(LearnerSpec(kind="mean"), np.zeros((3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(SchemaError):
            model.predict(np.zeros((4, 3)))

    def test_empty_training_rejected(self):
        with pytest.raises(SchemaError):
            fit_learner(LearnerSpec(kind="mean"), np.zeros((0, 1)), [])

    def test_three_dim_training_rejected(self):
        with pytest.raises(SchemaError, match=r"shape \(4, 2, 2\)"):
            fit_learner(LearnerSpec(kind="mean"), np.zeros((4, 2, 2)), np.zeros(4))

    @pytest.mark.parametrize("kind", ["mean", "knn", "kernel", "forest"])
    @pytest.mark.parametrize("bad", ["nan_outcome", "inf_covariate"])
    def test_nonfinite_training_row_is_domain_error(self, kind, bad):
        X, y = np.zeros((30, 2)), np.zeros(30)
        if bad == "nan_outcome":
            y[7] = np.nan
        else:
            X[7, 1] = -np.inf
        with pytest.raises(DomainError, match="must be finite; row 7 has"):
            fit_learner(LearnerSpec(kind=kind), X, y)
