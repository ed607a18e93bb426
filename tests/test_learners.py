"""Regression learners: hand oracles, invariants, determinism."""

import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from pseudolearn import learners
from pseudolearn import rng as rngmod
from pseudolearn.data import make_folds
from pseudolearn.errors import ConfigError, DomainError, SchemaError
from pseudolearn.learners import (
    LearnerSpec,
    _best_split,
    _cv_bandwidth,
    _cv_sses,
    _distances,
    _row_blocks,
    fit_learner,
    fit_probability,
)


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
        with pytest.raises(ConfigError, match="k <= n"):
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
    w = np.exp(-0.5 * u2) if shape == "gaussian" else np.maximum(1.0 - u2, 0.0)
    tot = w.sum(axis=1)
    out = np.empty(dist.shape[0])
    dead = tot <= 0.0
    live = ~dead
    if not np.any(dead):
        out[:] = (w @ yt) / tot
    elif np.any(live):
        out[live] = (w[live] @ yt) / tot[live]
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
        tree = model._trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)
        # boundary routing: a query at the threshold goes left
        assert model.predict(col([1.5]))[0] == pytest.approx(0.0)

    def test_feature_tie_breaks_to_lowest_index(self):
        # both features admit the same perfect split
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        assert model._trees[0].feature[0] == 0

    def test_threshold_tie_breaks_to_lowest_threshold(self):
        # symmetric two-level outcome: cuts at 0.5 and 2.5 tie exactly
        X = col([0, 1, 2, 3])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        model = fit_learner(self.full_spec(), X, y, seed=0)
        assert model._trees[0].threshold[0] == pytest.approx(0.5)

    def test_min_leaf_respected(self):
        X = col(np.arange(10))
        y = np.arange(10.0)
        model = fit_learner(self.full_spec(min_leaf=5), X, y, seed=0)
        tree = model._trees[0]
        # a single split of 10 rows into 5 + 5 is the only legal structure
        assert (tree.feature >= 0).sum() == 1
        assert tree.threshold[0] == pytest.approx(4.5)

    def test_constant_outcome_yields_single_leaf(self):
        model = fit_learner(self.full_spec(), col(np.arange(6)), np.full(6, 2.5), seed=0)
        tree = model._trees[0]
        assert tree.feature[0] == -1
        assert model.predict(col([3.3]))[0] == pytest.approx(2.5)

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
        for tree in model._trees:
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
        with pytest.raises(ConfigError, match="min_leaf"):
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
    ys = draw(
        st.one_of(
            arrays(float, n, elements=st.integers(0, 1).map(float)),
            arrays(float, n, elements=st.floats(-100, 100, width=32)),
        )
    )
    return block, ys, draw(st.integers(1, n))


class TestBlockSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(_split_blocks())
    def test_matches_per_feature_scan(self, case):
        block, ys, min_leaf = case
        assert _best_split(block, ys, min_leaf) == _reference_best_split(
            block, ys, min_leaf
        )


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
    for tree in model._trees:
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
