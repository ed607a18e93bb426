"""Cross-fitted nuisance estimation."""

import numpy as np
import pytest

from pseudolearn.crossfit import (
    CrossfitConfig,
    crossfit_nuisances,
    evaluate_propensity,
    fit_then_predict,
    oob_nuisances,
)
from pseudolearn.data import Dataset, make_folds
from pseudolearn.errors import (
    ConfigError,
    DomainError,
    EstimationError,
    SchemaError,
)
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import PseudoOutcomeSpec
from pseudolearn.rng import derive_seed

from fitwatch import watched_fits

KNN1 = LearnerSpec(kind="knn", k=1)
MEAN = LearnerSpec(kind="mean")


def rct_dataset(n=100, seed=0, p=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 1))
    w = (rng.uniform(size=n) < p).astype(int)
    y = w * 1.0 + X[:, 0] + 0.1 * rng.normal(size=n)
    return Dataset(X, y, w)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CrossfitConfig(n_folds=1)
        # the clip floors live on PseudoOutcomeSpec only
        with pytest.raises(TypeError):
            CrossfitConfig(eps_clip=0.05)


class TestCrossfit:
    def test_constant_outcome_reproduced(self):
        # constant y in both arms -> every nuisance mean equals it
        ds = Dataset(
            np.arange(4.0).reshape(-1, 1), np.full(4, 3.0), [0, 1, 0, 1]
        )
        cfg = CrossfitConfig(
            outcome_spec=KNN1, propensity_spec=MEAN, n_folds=2, seed=1
        )
        nuis = crossfit_nuisances(ds, cfg)
        assert np.allclose(nuis.mu0_hat, 3.0)
        assert np.allclose(nuis.mu1_hat, 3.0)

    def test_constant_binary_outcome_clipped(self):
        ds = Dataset(
            np.arange(4.0).reshape(-1, 1), np.ones(4), [0, 1, 0, 1]
        )
        cfg = CrossfitConfig(
            outcome_spec=KNN1, propensity_spec=MEAN, n_folds=2, seed=1
        )
        pseudo = PseudoOutcomeSpec(binary_outcome=True, p_clip=0.05)
        nuis = crossfit_nuisances(ds, cfg, pseudo)
        assert np.allclose(nuis.mu0_hat, 0.95)
        assert np.allclose(nuis.mu1_hat, 0.95)

    def test_binary_flag_rejects_continuous_y(self):
        ds = rct_dataset(n=40)
        cfg = CrossfitConfig(outcome_spec=KNN1, propensity_spec=MEAN)
        with pytest.raises(DomainError):
            crossfit_nuisances(ds, cfg, PseudoOutcomeSpec(binary_outcome=True))

    def test_single_arm_errors(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1), np.zeros(10), np.ones(10))
        cfg = CrossfitConfig(outcome_spec=KNN1, propensity_spec=MEAN)
        with pytest.raises(EstimationError, match="degenerate arm"):
            crossfit_nuisances(ds, cfg)

    def test_lone_treated_row_exhausts_redraws(self):
        # one treated row: its own fold's complement never has arm 1
        w = np.zeros(20, dtype=int)
        w[3] = 1
        ds = Dataset(np.arange(20.0).reshape(-1, 1), np.zeros(20), w)
        cfg = CrossfitConfig(outcome_spec=MEAN, propensity_spec=MEAN, n_folds=4)
        with pytest.raises(EstimationError, match="degenerate arm"):
            crossfit_nuisances(ds, cfg)

    def test_fewer_rows_than_folds_is_an_estimation_error(self):
        # the realised n fails, not the config: exit 1, like fit_if_learner's check
        ds = Dataset(np.arange(3.0).reshape(-1, 1), np.zeros(3), [0, 1, 0])
        cfg = CrossfitConfig(outcome_spec=MEAN, propensity_spec=MEAN, n_folds=5)
        with pytest.raises(EstimationError, match=r"insufficient data: n=3 with 5 folds"):
            crossfit_nuisances(ds, cfg)

    @pytest.mark.parametrize(
        "fit, what",
        [(crossfit_nuisances, "cross-fitting"), (oob_nuisances, "the out-of-bag fit")],
    )
    def test_missing_indicator_rejected(self, fit, what):
        ds = Dataset(np.arange(6.0).reshape(-1, 1), np.zeros(6))
        cfg = CrossfitConfig(outcome_spec=MEAN, propensity_spec=MEAN)
        with pytest.raises(SchemaError, match=f"^{what} needs a treatment/observation"):
            fit(ds, cfg)

    def test_deterministic(self):
        ds = rct_dataset(n=60, seed=2)
        cfg = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="knn", k=3),
            propensity_spec=LearnerSpec(kind="kernel", bandwidth=0.5),
            seed=9,
        )
        a = crossfit_nuisances(ds, cfg)
        b = crossfit_nuisances(ds, cfg)
        assert np.array_equal(a.mu0_hat, b.mu0_hat)
        assert np.array_equal(a.mu1_hat, b.mu1_hat)
        assert np.array_equal(a.pi_hat, b.pi_hat)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_propensity_recovered_in_rct(self):
        # fair-coin assignment, very smooth propensity fit: Monte Carlo check
        n = 2000
        ds = rct_dataset(n=n, seed=3)
        cfg = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="knn", k=20),
            propensity_spec=LearnerSpec(kind="kernel", bandwidth=100.0),
            seed=4,
        )
        nuis = crossfit_nuisances(ds, cfg)
        assert abs(nuis.pi_hat.mean() - 0.5) < 3.0 / np.sqrt(n)


class TestFitNuisance:
    def test_too_few_rows_names_nuisance_and_fold(self):
        # the realised arm/fold size, not the config, is at fault
        w = np.zeros(20, dtype=int)
        w[:5] = 1
        ds = Dataset(np.arange(20.0).reshape(-1, 1), np.zeros(20), w)
        knn_outcome = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="knn", k=6), propensity_spec=MEAN
        )
        with pytest.raises(EstimationError, match=r"mu1 in fold 0 has [0-5] training"):
            crossfit_nuisances(ds, knn_outcome)
        knn_pi = CrossfitConfig(
            outcome_spec=MEAN, propensity_spec=LearnerSpec(kind="knn", k=17)
        )
        with pytest.raises(EstimationError, match="pi in fold 0 has 16 training"):
            crossfit_nuisances(ds, knn_pi)


class TestFoldHygiene:
    def test_no_model_predicts_its_own_training_rows(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            n = int(rng.integers(30, 120))
            k = int(rng.integers(2, 6))
            ds = rct_dataset(n=n, seed=trial + 100)
            cfg = CrossfitConfig(
                outcome_spec=LearnerSpec(kind="knn", k=2),
                propensity_spec=MEAN,
                n_folds=k,
                seed=trial,
            )
            with watched_fits() as records:
                nuis = crossfit_nuisances(ds, cfg)
            predicted = []
            for name, fold, train, test in records:
                assert not set(train.tolist()) & set(test.tolist())
                # fold_of names the rows each fold's models predicted
                assert np.array_equal(test, np.flatnonzero(nuis.fold_of == fold))
                if name == "mu0":
                    predicted.extend(test.tolist())
            # out-of-fold predictions cover every row exactly once
            assert sorted(predicted) == list(range(n))

    def test_permutation_equivariance_with_transported_rows(self):
        # order-insensitive learners + transported train/test rows = same estimates
        ds = rct_dataset(n=50, seed=11)
        folds = make_folds(50, 5, seed=21)
        cfg = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="kernel", bandwidth=0.4),
            propensity_spec=LearnerSpec(kind="kernel", bandwidth=0.8),
            seed=3,
        )
        rng = np.random.default_rng(12)
        perm = rng.permutation(50)
        ds_p = Dataset(ds.X[perm], ds.y[perm], ds.w[perm])
        position = np.argsort(perm)  # row i of ds is row position[i] of ds_p
        keys = ("mu0_hat", "mu1_hat", "pi_hat")
        base, permuted = ({key: np.empty(50) for key in keys} for _ in range(2))
        for k in range(5):
            train, test = folds.train_rows(k), folds.rows_in_fold(k)
            # transported rows, taken in ds_p's order rather than ds's
            train_p, test_p = np.sort(position[train]), np.sort(position[test])
            for d, tr, te, out in ((ds, train, test, base), (ds_p, train_p, test_p, permuted)):
                preds = fit_then_predict(
                    d, tr, te, cfg, PseudoOutcomeSpec(),
                    seed_of=lambda name: derive_seed(cfg.seed, name, k),
                    where=f"fold {k}",
                )
                for key in keys:
                    out[key][te] = preds[key]
        for key in keys:
            assert np.allclose(permuted[key], base[key][perm], atol=1e-12), key


class TestKnownPropensity:
    CFG = CrossfitConfig(outcome_spec=KNN1, propensity_spec=MEAN, seed=0)

    def test_constant_half(self):
        ds = rct_dataset(n=30, seed=6)
        nuis = crossfit_nuisances(ds, self.CFG, known_propensity=0.5)
        assert np.all(nuis.pi_hat == 0.5)

    def test_step_function_evaluated_rowwise(self):
        ds = Dataset(
            np.array([[-0.3], [0.4], [-0.9], [0.2]]),
            np.zeros(4),
            [0, 1, 1, 0],
        )
        vals = evaluate_propensity(
            ds, lambda x: 0.1 + 0.8 * (x[0] > 0), eps_clip=0.01
        )
        assert np.allclose(vals, [0.1, 0.9, 0.1, 0.9])

    def test_out_of_range_rejected(self):
        ds = rct_dataset(n=10, seed=7)
        with pytest.raises(DomainError):
            evaluate_propensity(ds, 1.0, eps_clip=0.01)
        with pytest.raises(DomainError):
            evaluate_propensity(ds, lambda x: 0.0, eps_clip=0.01)

    def test_clipping_applied(self):
        ds = rct_dataset(n=10, seed=8)
        vals = evaluate_propensity(ds, 0.001, eps_clip=0.01)
        assert np.all(vals == 0.01)

    def test_array_form_and_length_check(self):
        ds = rct_dataset(n=5, seed=9)
        vals = evaluate_propensity(ds, np.full(5, 0.3), eps_clip=0.01)
        assert np.all(vals == 0.3)
        with pytest.raises(SchemaError):
            evaluate_propensity(ds, np.full(4, 0.3), eps_clip=0.01)

    def test_outcomes_still_crossfitted(self):
        ds = rct_dataset(n=40, seed=13)
        with watched_fits() as records:
            crossfit_nuisances(ds, self.CFG, known_propensity=0.5)
        names = {r[0] for r in records}
        assert names == {"mu0", "mu1"}  # no propensity model was fitted


class TestOutOfBag:
    FOREST = LearnerSpec(kind="forest", n_trees=30, min_leaf=3)

    def test_requires_forest_specs(self):
        ds = rct_dataset(n=40, seed=14)
        with pytest.raises(ConfigError):
            oob_nuisances(ds, CrossfitConfig(outcome_spec=KNN1, propensity_spec=self.FOREST))
        with pytest.raises(ConfigError):
            oob_nuisances(ds, CrossfitConfig(outcome_spec=self.FOREST, propensity_spec=KNN1))

    @pytest.mark.parametrize(
        "target, outcome, propensity, fitted",
        [
            ("cate_ht", KNN1, FOREST, ("pi",)),
            ("cate_plugin", FOREST, KNN1, ("mu0", "mu1")),
        ],
    )
    def test_only_read_nuisances_need_forests(self, target, outcome, propensity, fitted):
        ds = rct_dataset(n=60, seed=15)
        cfg = CrossfitConfig(outcome_spec=outcome, propensity_spec=propensity, seed=2)
        nuis = oob_nuisances(ds, cfg, PseudoOutcomeSpec(target=target))
        for name in ("mu0", "mu1", "pi"):
            assert (getattr(nuis, f"{name}_hat") is None) == (name not in fitted)

    def test_known_propensity_waives_forest_requirement(self):
        ds = rct_dataset(n=60, seed=15)
        cfg = CrossfitConfig(outcome_spec=self.FOREST, propensity_spec=KNN1, seed=2)
        nuis = oob_nuisances(ds, cfg, known_propensity=0.5)
        assert np.all(nuis.pi_hat == 0.5)
        assert nuis.n == 60
        assert nuis.fold_of is None

    def test_estimates_track_truth_loosely(self):
        # y = w + x: mu1 - mu0 should be near 1 on average
        ds = rct_dataset(n=400, seed=16)
        cfg = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="forest", n_trees=60, min_leaf=5),
            propensity_spec=LearnerSpec(kind="forest", n_trees=60, min_leaf=5),
            seed=5,
        )
        nuis = oob_nuisances(ds, cfg)
        assert abs((nuis.mu1_hat - nuis.mu0_hat).mean() - 1.0) < 0.25
        assert abs(nuis.pi_hat.mean() - 0.5) < 0.1

    def test_degenerate_arm(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1), np.zeros(10), np.zeros(10))
        cfg = CrossfitConfig(outcome_spec=self.FOREST, propensity_spec=self.FOREST)
        with pytest.raises(EstimationError):
            oob_nuisances(ds, cfg)
