"""Cross-fitted nuisance estimation."""

import numpy as np
import pytest

from pseudolearn.crossfit import (
    CrossfitConfig,
    crossfit_nuisances,
    evaluate_propensity,
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

    def test_injected_degenerate_folds_error_without_redraw(self):
        ds = Dataset(
            np.arange(4.0).reshape(-1, 1), np.zeros(4), [1, 1, 0, 0]
        )
        from pseudolearn.data import FoldAssignment

        # fold 0 = both treated rows -> complement of fold 1 lacks arm 0
        folds = FoldAssignment(fold_of=np.array([0, 0, 1, 1]), n_folds=2)
        cfg = CrossfitConfig(outcome_spec=MEAN, propensity_spec=MEAN, n_folds=2)
        with pytest.raises(EstimationError, match="injected"):
            crossfit_nuisances(ds, cfg, folds=folds)

    def test_fold_count_mismatch_rejected(self):
        ds = rct_dataset(n=20, seed=5)
        folds = make_folds(20, 4, seed=0)
        cfg = CrossfitConfig(outcome_spec=MEAN, propensity_spec=MEAN, n_folds=5)
        with pytest.raises(ConfigError):
            crossfit_nuisances(ds, cfg, folds=folds)


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
            records = []
            nuis = crossfit_nuisances(
                ds, cfg, instrument=lambda *rec: records.append(rec)
            )
            predicted = []
            for name, fold, train, test in records:
                assert not set(train.tolist()) & set(test.tolist())
                # fold_of names the rows each fold's models predicted
                assert np.array_equal(test, np.flatnonzero(nuis.fold_of == fold))
                if name == "mu0":
                    predicted.extend(test.tolist())
            # out-of-fold predictions cover every row exactly once
            assert sorted(predicted) == list(range(n))

    def test_permutation_equivariance_with_injected_folds(self):
        # order-insensitive learners + transported folds = same estimates
        ds = rct_dataset(n=50, seed=11)
        folds = make_folds(50, 5, seed=21)
        cfg = CrossfitConfig(
            outcome_spec=LearnerSpec(kind="kernel", bandwidth=0.4),
            propensity_spec=LearnerSpec(kind="kernel", bandwidth=0.8),
            seed=3,
        )
        base = crossfit_nuisances(ds, cfg, folds=folds)

        rng = np.random.default_rng(12)
        perm = rng.permutation(50)
        ds_p = Dataset(ds.X[perm], ds.y[perm], ds.w[perm])
        from pseudolearn.data import FoldAssignment

        folds_p = FoldAssignment(fold_of=folds.fold_of[perm], n_folds=5)
        permuted = crossfit_nuisances(ds_p, cfg, folds=folds_p)
        assert np.allclose(permuted.mu0_hat, base.mu0_hat[perm], atol=1e-12)
        assert np.allclose(permuted.mu1_hat, base.mu1_hat[perm], atol=1e-12)
        assert np.allclose(permuted.pi_hat, base.pi_hat[perm], atol=1e-12)


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
        records = []
        crossfit_nuisances(
            ds,
            self.CFG,
            known_propensity=0.5,
            instrument=lambda *rec: records.append(rec),
        )
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
