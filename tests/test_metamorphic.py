"""Metamorphic properties of the learners and of the whole pipeline.

Two transformations of the data must move every output in the one way
the estimators' meaning allows, bit for bit (metamorphic testing: Chen,
Cheung & Yiu 1998, "Metamorphic testing: a new approach for generating
next test cases"):

* Reflecting a single covariate, x -> -x, leaves the prediction at -q
  what it was at q.  k-NN and kernel weights read only the distance
  |x - q|, and the rows keep their order, so ties resolve alike.
  Forests are left out by design: their lowest-threshold tie rule is
  not mirror-symmetric.
* Scaling the outcome by a power of two, y -> a * y, scales every
  prediction by a.  Neighbour, kernel and leaf means are linear in y;
  CV and split scores scale by a**2, so the same bandwidth and cut win;
  each non-binary target's signal is linear in (y, mu0, mu1).  For
  a > 0 the group estimates, interval bounds and cutpoints scale too.

Arrays are compared with ``np.array_equal``, so -2 * 0.0 equals 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolearn.crossfit import CrossfitConfig
from pseudolearn.data import Dataset
from pseudolearn.errors import EstimationError
from pseudolearn.grouplearner import GroupConfig, fit_group_learner
from pseudolearn.iflearner import (
    IFLearnerConfig,
    TrueNuisances,
    fit_if_learner,
    fit_oracle_learner,
    fit_plugin_learner,
)
from pseudolearn.learners import LearnerSpec, fit_learner
from pseudolearn.pseudo import PseudoOutcomeSpec
from pseudolearn.simulate import Dgp1dConfig, Dgp10dConfig, sample_1d, sample_10d

# the targets whose signal is linear in (y, mu0, mu1)
LINEAR_TARGETS = ("cate_aipw", "cate_plugin", "cate_ht", "mar_mean", "regression_mean")
KERNEL_CV = LearnerSpec(kind="kernel", cv_folds=3)
KERNELS = (
    LearnerSpec(kind="kernel", bandwidth=0.05),
    LearnerSpec(kind="kernel", bandwidth=0.3, kernel_shape="epanechnikov"),
    KERNEL_CV,
    LearnerSpec(kind="kernel", kernel_shape="epanechnikov", cv_folds=3),
)
REFLECTABLE = (LearnerSpec(kind="knn", k=1), LearnerSpec(kind="knn", k=4)) + KERNELS
SCALABLE = (
    LearnerSpec(kind="knn", k=5),
    KERNEL_CV,
    LearnerSpec(kind="kernel", bandwidth=0.3),
    LearnerSpec(kind="forest", n_trees=10),
    LearnerSpec(kind="mean"),
)
SCALES = (4.0, 0.125, -2.0)


def _config(spec: LearnerSpec, target: str, seed: int) -> IFLearnerConfig:
    crossfit = CrossfitConfig(
        outcome_spec=spec, propensity_spec=spec, n_folds=3, seed=seed
    )
    return IFLearnerConfig(
        crossfit=crossfit,
        pseudo=PseudoOutcomeSpec(target=target),
        second_stage=spec,
        seed=seed + 1,
    )


def _group(data, cfg: IFLearnerConfig, known_propensity=None):
    """The plug-in-scored group fit, or the name of the error it raised."""
    group = GroupConfig(n_groups=3, first_stage="plugin", if_config=cfg, seed=cfg.seed)
    try:
        return fit_group_learner(data, group, known_propensity=known_propensity)
    except EstimationError as e:
        return type(e).__name__


def _one_covariate(seed: int, n: int, tied: bool):
    """x on [-1, 1] (on a grid of 17 values when ``tied``), y, balanced arms
    and queries: training values, midpoints of two (equidistant neighbours)
    and a grid reaching past the data."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 9, size=n) / 8.0 if tied else rng.uniform(-1.0, 1.0, n)
    w = rng.permutation(np.arange(n) % 2)
    y = np.sin(3.0 * x) + w * x + 0.3 * rng.standard_normal(n)
    q = np.concatenate([x[:8], (x[:4] + x[4:8]) / 2, np.linspace(-1.3, 1.3, 27)])
    return x, y, w, q


class TestReflection:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 80),
        st.booleans(),
        st.sampled_from(REFLECTABLE),
    )
    def test_learner_predicts_the_mirror_image(self, seed, n, tied, spec):
        x, y, _, q = _one_covariate(seed, n, tied)
        fitted = fit_learner(spec, x[:, None], y, seed=seed)
        mirrored = fit_learner(spec, -x[:, None], y, seed=seed)
        assert np.array_equal(mirrored.predict(-q[:, None]), fitted.predict(q[:, None]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(REFLECTABLE),
        st.sampled_from(LINEAR_TARGETS),
    )
    def test_pipeline_predicts_the_mirror_image(self, seed, tied, spec, target):
        x, y, w, q = _one_covariate(seed, 90, tied)
        data, mirror = Dataset(x[:, None], y, w), Dataset(-x[:, None], y, w)
        cfg = _config(spec, target, seed % 1000)
        for fit in (fit_if_learner, fit_plugin_learner):
            base = fit(data, cfg).predict(q[:, None])
            assert np.array_equal(fit(mirror, cfg).predict(-q[:, None]), base)
        est, est_mirror = _group(data, cfg), _group(mirror, cfg)
        if isinstance(est, str):
            assert est_mirror == est
            return
        for name in ("cutpoints", "psi_hat", "var_hat", "ci_lo", "ci_hi", "n_g"):
            assert np.array_equal(getattr(est_mirror, name), getattr(est, name)), name
        assert np.array_equal(est_mirror.predict(-q[:, None]), est.predict(q[:, None]))


def _design(ten_d: bool, seed: int):
    if ten_d:
        cfg = Dgp10dConfig(confounded=True, effect="xi_product", n=240, seed=seed)
        return sample_10d(cfg)
    return sample_1d(Dgp1dConfig(propensity="strong_selection", n=240, seed=seed))


def _scaled(data: Dataset, a: float) -> Dataset:
    return Dataset(data.X, a * data.y, data.w)


SCALE_CASES = [(ten_d, spec) for ten_d in (False, True) for spec in SCALABLE]


class TestOutcomeScale:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(SCALE_CASES),
        st.sampled_from(LINEAR_TARGETS),
        st.sampled_from(SCALES),
        st.booleans(),
    )
    def test_outputs_scale_with_the_outcome(self, seed, case, target, a, known):
        ten_d, spec = case
        s = _design(ten_d, seed)
        data, scaled = s.dataset, _scaled(s.dataset, a)
        q = data.X[:40] + 0.01
        cfg = _config(spec, target, seed)
        pi = s.true_pi if known else None
        base = fit_if_learner(data, cfg, known_propensity=pi).predict(q)
        model = fit_if_learner(scaled, cfg, known_propensity=pi)
        assert np.array_equal(model.predict(q), a * base)
        base = fit_plugin_learner(data, cfg).predict(q)
        assert np.array_equal(fit_plugin_learner(scaled, cfg).predict(q), a * base)
        truth = TrueNuisances(mu0=s.true_mu0, mu1=s.true_mu1, pi=s.true_pi)
        truth_a = TrueNuisances(mu0=a * s.true_mu0, mu1=a * s.true_mu1, pi=s.true_pi)
        base = fit_oracle_learner(data, truth, cfg.pseudo, spec, seed).predict(q)
        oracle = fit_oracle_learner(scaled, truth_a, cfg.pseudo, spec, seed).predict(q)
        assert np.array_equal(oracle, a * base)
        if a < 0 or spec.kind == "mean":  # a constant scorer cannot be grouped
            return
        est, est_a = _group(data, cfg, pi), _group(scaled, cfg, pi)
        if isinstance(est, str):
            assert est_a == est
            return
        for name in ("cutpoints", "psi_hat", "ci_lo", "ci_hi"):
            assert np.array_equal(getattr(est_a, name), a * getattr(est, name)), name
        assert np.array_equal(est_a.var_hat, a * a * est.var_hat)
        assert np.array_equal(est_a.n_g, est.n_g)

    @pytest.mark.parametrize("fit", ["if_learner", "group"])
    def test_ten_d_cv_kernel_fit_scales_with_the_outcome(self, fit):
        data = _design(True, 0).dataset
        cfg = _config(KERNEL_CV, "cate_aipw", 0)
        if fit == "group":
            est, est_a = _group(data, cfg), _group(_scaled(data, 4.0), cfg)
            assert np.array_equal(est_a.psi_hat, 4.0 * est.psi_hat)
        else:
            q = data.X[:40] + 0.01
            base = fit_if_learner(data, cfg).predict(q)
            scaled = fit_if_learner(_scaled(data, 4.0), cfg).predict(q)
            assert np.array_equal(scaled, 4.0 * base)
