"""Two-stage pipeline: collapse identity, oracles, baselines, provenance, fit results."""

import dataclasses

import numpy as np
import pytest

from pseudolearn.crossfit import CrossfitConfig, crossfit_nuisances
from pseudolearn.data import Dataset
from pseudolearn.errors import ConfigError, EstimationError, SchemaError
from pseudolearn.iflearner import (
    IFLearnerConfig,
    TrueNuisances,
    config_digest,
    fit_if_learner,
    fit_oracle_learner,
    fit_plugin_learner,
)
from pseudolearn.learners import FittedModel, LearnerSpec, fit_learner
from pseudolearn.pseudo import PseudoOutcomeSpec, aipw_pseudo, build_pseudo_outcomes

KNN2 = LearnerSpec(kind="knn", k=2)
MEAN = LearnerSpec(kind="mean")
KERNEL03 = LearnerSpec(kind="kernel", bandwidth=0.3)


def rct_dataset(n=200, seed=0, tau=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 1))
    w = rng.integers(0, 2, size=n)
    y = tau * w + np.sin(2 * X[:, 0]) + 0.3 * rng.normal(size=n)
    return Dataset(X, y, w)


def basic_config(second_stage=KERNEL03, target="cate_aipw", seed=3):
    return IFLearnerConfig(
        crossfit=CrossfitConfig(
            outcome_spec=KNN2,
            propensity_spec=MEAN,
            n_folds=5,
            seed=11,
        ),
        pseudo=PseudoOutcomeSpec(target=target),
        second_stage=second_stage,
        seed=seed,
    )


class TestConfig:
    def test_clip_floor_agreement_enforced(self):
        # floors written under crossfit (the old JSON layout) are rejected,
        # whatever pseudo says
        with pytest.raises(ConfigError, match="eps_clip"):
            IFLearnerConfig.from_dict(
                {"crossfit": {"eps_clip": 0.05}, "pseudo": {"eps_clip": 0.01}}
            )
        with pytest.raises(ConfigError, match="binary_outcome"):
            IFLearnerConfig.from_dict(
                {
                    "crossfit": {"binary_outcome": True},
                    "pseudo": {"binary_outcome": False},
                }
            )

    def test_legacy_crossfit_floors_load_onto_pseudo(self):
        # the floors and binary mode belong under pseudo only
        floors = {"eps_clip": 0.05, "p_clip": 0.02, "binary_outcome": True}
        pseudo = {"target": "risk_ratio", "binary_outcome": True}
        unknown = (
            r"CrossfitConfig: unknown key\(s\) "
            r"\['binary_outcome', 'eps_clip', 'p_clip'\]"
        )
        with pytest.raises(ConfigError, match=unknown):
            IFLearnerConfig.from_dict(
                {"crossfit": {"n_folds": 3, **floors}, "pseudo": pseudo}
            )

    def test_winsorize_key_is_refused(self):
        # the second stage regresses D as built; no option clips it
        fields = [f.name for f in dataclasses.fields(IFLearnerConfig)]
        assert fields == ["crossfit", "pseudo", "second_stage", "seed"]
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['winsorize'\]"):
            IFLearnerConfig.from_dict({"winsorize": 0.1})

    def test_digest_stable_and_sensitive(self):
        a = basic_config(seed=3)
        b = basic_config(seed=3)
        c = basic_config(seed=4)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)


class TestCollapseIdentity:
    def test_regression_mean_equals_direct_fit(self):
        # pseudo-outcome is y itself, so the pipeline must reduce to a
        # plain second-stage regression, bit for bit
        ds = rct_dataset(n=150, seed=1)
        stage = LearnerSpec(kind="forest", n_trees=25, min_leaf=3)
        cfg = basic_config(second_stage=stage, target="regression_mean", seed=7)
        pipeline = fit_if_learner(ds, cfg)
        direct = fit_learner(stage, ds.X, ds.y, seed=7)
        grid = np.linspace(-1, 1, 40).reshape(-1, 1)
        assert np.array_equal(pipeline.predict(grid), direct.predict(grid))

    def test_regression_mean_ignores_missing_indicator(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.uniform(size=(30, 1)), rng.normal(size=30))
        cfg = basic_config(second_stage=KNN2, target="regression_mean")
        model = fit_if_learner(ds, cfg)
        assert model.predict(np.array([[0.5]])).shape == (1,)
        with pytest.raises(SchemaError, match="^target 'cate_aipw' needs a treatment"):
            fit_plugin_learner(ds, basic_config(second_stage=KNN2))


class TestFitIfLearner:
    def test_insufficient_data_error(self):
        ds = rct_dataset(n=8, seed=2)
        with pytest.raises(EstimationError, match="insufficient"):
            fit_if_learner(ds, basic_config())

    def test_deterministic(self):
        ds = rct_dataset(n=120, seed=3)
        cfg = basic_config(
            second_stage=LearnerSpec(kind="forest", n_trees=20, min_leaf=3)
        )
        grid = np.linspace(-1, 1, 20).reshape(-1, 1)
        a = fit_if_learner(ds, cfg).predict(grid)
        b = fit_if_learner(ds, cfg).predict(grid)
        assert np.array_equal(a, b)

    def test_second_stage_with_too_few_rows_is_estimation_error(self):
        ds = rct_dataset(n=60, seed=5)
        cfg = basic_config(second_stage=LearnerSpec(kind="knn", k=100))
        with pytest.raises(EstimationError, match="needs at least 100 .* got 60"):
            fit_if_learner(ds, cfg)

    def test_known_propensity_routing(self):
        ds = rct_dataset(n=120, seed=4)
        cfg = basic_config()
        grid = np.linspace(-1, 1, 20).reshape(-1, 1)
        known = fit_if_learner(ds, cfg, known_propensity=0.5).predict(grid)
        estimated = fit_if_learner(ds, cfg).predict(grid)
        assert np.all(np.isfinite(known))
        assert not np.array_equal(known, estimated)

    def test_second_stage_regresses_pseudo_outcomes_as_built(self):
        ds = rct_dataset(n=120, seed=8)
        stage = LearnerSpec(kind="forest", n_trees=20, min_leaf=3)
        cfg = basic_config(second_stage=stage)
        nuis = crossfit_nuisances(ds, cfg.crossfit, cfg.pseudo, known_propensity=0.5)
        d = build_pseudo_outcomes(ds, nuis, cfg.pseudo)
        direct = fit_learner(cfg.second_stage, ds.X, d, seed=cfg.seed)
        model = fit_if_learner(ds, cfg, known_propensity=0.5)
        grid = np.linspace(-1, 1, 25).reshape(-1, 1)
        assert np.array_equal(model.predict(grid), direct.predict(grid))

    def test_overflowing_cv_sse_is_estimation_error(self):
        # squared errors of outcomes at +-1e200 overflow in every bandwidth
        rng = np.random.default_rng(5)
        ds = rct_dataset(n=100, seed=5)
        y = np.where(rng.uniform(size=100) < 0.5, 1e200, -1e200)
        big = Dataset(ds.X, y, ds.w)
        with np.errstate(over="ignore"), pytest.raises(
            EstimationError, match="no grid bandwidth has a finite"
        ):
            fit_if_learner(big, IFLearnerConfig(), known_propensity=0.5)

    def test_recovers_constant_effect_loosely(self):
        ds = rct_dataset(n=600, seed=6, tau=2.0)
        model = fit_if_learner(ds, basic_config(), known_propensity=0.5)
        grid = np.linspace(-0.8, 0.8, 30).reshape(-1, 1)
        assert abs(model.predict(grid).mean() - 2.0) < 0.5

    def test_provenance_recorded(self):
        ds = rct_dataset(n=100, seed=9)
        cfg = basic_config()
        model = fit_if_learner(ds, cfg, known_propensity=0.5)
        p = model.provenance
        assert p["variant"] == "if_learner"
        assert p["target"] == "cate_aipw"
        assert p["n"] == 100 and p["d"] == 1
        assert p["config_hash"] == config_digest(cfg)
        import json

        json.dumps(p)  # must be serializable as-is


PROVENANCE_KEYS = {"variant", "target", "config_hash", "n", "d", "seed", "stream_version"}
# every fit entry point, and each branch of the plug-in baseline
FITS = {
    "if_learner": lambda ds: fit_if_learner(ds, basic_config(), known_propensity=0.5),
    "oracle": lambda ds: fit_oracle_learner(
        ds, TrueNuisances(), PseudoOutcomeSpec(), KNN2, seed=4
    ),
    "plugin two arms": lambda ds: fit_plugin_learner(ds, basic_config()),
    "plugin mar_mean": lambda ds: fit_plugin_learner(ds, basic_config(target="mar_mean")),
    "plugin regression_mean": lambda ds: fit_plugin_learner(
        ds, basic_config(target="regression_mean")
    ),
}


@pytest.mark.parametrize("fit", FITS)
def test_fit_result_is_the_fitted_model_with_its_provenance(fit):
    ds = rct_dataset(n=60, seed=14)
    model = FITS[fit](ds)
    assert isinstance(model, FittedModel) and model.n_features == 1
    assert model.predict(ds.X[:3]).shape == (3,)
    assert set(model.provenance) == PROVENANCE_KEYS
    assert model.provenance["variant"] == fit.split()[0]
    assert (model.provenance["n"], model.provenance["d"]) == (60, 1)


class TestOracle:
    def test_constant_stage_predicts_mean_of_true_signal(self):
        ds = rct_dataset(n=80, seed=10)
        truth = TrueNuisances(
            mu0=lambda x: np.sin(2 * x[0]),
            mu1=lambda x: np.sin(2 * x[0]) + 1.0,
            pi=0.5,
        )
        model = fit_oracle_learner(
            ds, truth, PseudoOutcomeSpec(target="cate_aipw"), MEAN, seed=0
        )
        wf = ds.w.astype(float)
        mu0 = np.array([np.sin(2 * x[0]) for x in ds.X])
        d = aipw_pseudo(ds.y, wf, 0.5, mu0, mu0 + 1.0)
        assert model.predict(np.array([[0.3]]))[0] == pytest.approx(d.mean())

    def test_bitwise_deterministic(self):
        ds = rct_dataset(n=100, seed=11)
        truth = TrueNuisances(mu0=0.0, mu1=1.0, pi=0.5)
        stage = LearnerSpec(kind="forest", n_trees=15, min_leaf=2)
        grid = np.linspace(-1, 1, 10).reshape(-1, 1)
        a = fit_oracle_learner(
            ds, truth, PseudoOutcomeSpec(target="cate_aipw"), stage, seed=5
        ).predict(grid)
        b = fit_oracle_learner(
            ds, truth, PseudoOutcomeSpec(target="cate_aipw"), stage, seed=5
        ).predict(grid)
        assert np.array_equal(a, b)

    def test_array_nuisances_accepted(self):
        ds = rct_dataset(n=50, seed=12)
        truth = TrueNuisances(
            mu0=np.zeros(50), mu1=np.ones(50), pi=np.full(50, 0.5)
        )
        model = fit_oracle_learner(
            ds, truth, PseudoOutcomeSpec(target="cate_aipw"), KNN2, seed=1
        )
        assert np.all(np.isfinite(model.predict(ds.X)))

    def test_provenance_is_the_shared_second_stage(self):
        ds = rct_dataset(n=60, seed=12)
        pseudo = PseudoOutcomeSpec(target="cate_aipw")
        model = fit_oracle_learner(ds, TrueNuisances(), pseudo, KNN2, seed=4)
        cfg = IFLearnerConfig(pseudo=pseudo, second_stage=KNN2, seed=4)
        assert model.provenance["variant"] == "oracle"
        assert model.provenance["config_hash"] == config_digest(cfg)
        assert model.provenance["seed"] == 4

    def test_length_mismatch_rejected(self):
        ds = rct_dataset(n=50, seed=13)
        truth = TrueNuisances(mu0=np.zeros(49), mu1=1.0, pi=0.5)
        with pytest.raises(SchemaError):
            fit_oracle_learner(
                ds, truth, PseudoOutcomeSpec(target="cate_aipw"), KNN2, seed=1
            )


class TestPluginLearner:
    def test_contrast_of_arm_fits(self):
        ds = rct_dataset(n=100, seed=14)
        cfg = basic_config()
        model = fit_plugin_learner(ds, cfg)
        grid = np.linspace(-1, 1, 10).reshape(-1, 1)
        from pseudolearn import rng as rngmod

        m0 = fit_learner(
            KNN2,
            ds.X[ds.w == 0],
            ds.y[ds.w == 0],
            seed=rngmod.derive_seed(cfg.seed, "plugin", "mu0"),
        )
        m1 = fit_learner(
            KNN2,
            ds.X[ds.w == 1],
            ds.y[ds.w == 1],
            seed=rngmod.derive_seed(cfg.seed, "plugin", "mu1"),
        )
        assert np.array_equal(
            model.predict(grid), m1.predict(grid) - m0.predict(grid)
        )

    def test_mar_plugin_is_observed_rows_regression(self):
        rng = np.random.default_rng(15)
        n = 80
        X = rng.uniform(size=(n, 1))
        a = rng.integers(0, 2, size=n)
        y = np.where(a == 1, X[:, 0] * 2.0, 0.0)  # missing rows carry placeholder 0
        ds = Dataset(X, y, a)
        cfg = basic_config(target="mar_mean")
        model = fit_plugin_learner(ds, cfg)
        grid = np.array([[0.25], [0.75]])
        assert np.allclose(model.predict(grid), [0.5, 1.5], atol=0.3)

    def test_empty_arm_rejected(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10), np.ones(10))
        with pytest.raises(EstimationError, match="degenerate arm"):
            fit_plugin_learner(ds, basic_config())


class TestPredictTarget:
    def test_constant_pseudo_outcomes_give_constant_model(self):
        ds = Dataset(np.linspace(0, 1, 20).reshape(-1, 1), np.full(20, 2.5))
        cfg = basic_config(target="regression_mean", second_stage=KNN2)
        model = fit_if_learner(ds, cfg)
        assert model.predict([0.1, 0.5, 0.9]) == pytest.approx(2.5)

    def test_dimension_mismatch(self):
        ds = rct_dataset(n=60, seed=17)
        model = fit_if_learner(
            ds, basic_config(target="regression_mean", second_stage=MEAN)
        )
        with pytest.raises(SchemaError):
            model.predict([[0.1, 0.2]])

    def test_second_stage_permutation_invariance(self):
        # knn/kernel stages do not care about training row order
        ds = rct_dataset(n=90, seed=18)
        cfg = basic_config(target="regression_mean", second_stage=KERNEL03)
        base = fit_if_learner(ds, cfg)
        perm = np.random.default_rng(19).permutation(90)
        ds_p = Dataset(ds.X[perm], ds.y[perm], ds.w[perm])
        shuffled = fit_if_learner(ds_p, cfg)
        grid = np.linspace(-1, 1, 25).reshape(-1, 1)
        assert np.allclose(base.predict(grid), shuffled.predict(grid), atol=1e-12)
