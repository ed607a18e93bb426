"""Benchmark designs, ground-truth bookkeeping, and the replication harness."""

import concurrent.futures
import dataclasses

import numpy as np
import pytest

from pseudolearn.crossfit import CrossfitConfig
from pseudolearn.data import Dataset
from pseudolearn.errors import ConfigError, DomainError, EstimationError, SchemaError
from pseudolearn.grouplearner import GroupConfig
from pseudolearn.iflearner import IFLearnerConfig
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import PseudoOutcomeSpec
from pseudolearn.simulate import (
    Dgp1dConfig,
    Dgp10dConfig,
    ExperimentConfig,
    LabeledSample,
    MethodSpec,
    beta24_density,
    evaluate_mse,
    keep_mask,
    mu0_piecewise,
    noise_variance_1d,
    propensity_1d,
    run_replications,
    sample,
    sample_1d,
    sample_10d,
    summarize_replications,
    xi,
)

FAST_IF = IFLearnerConfig(
    crossfit=CrossfitConfig(
        outcome_spec=LearnerSpec(kind="knn", k=5),
        propensity_spec=LearnerSpec(kind="mean"),
        n_folds=2,
    ),
    pseudo=PseudoOutcomeSpec(target="cate_aipw"),
    second_stage=LearnerSpec(kind="knn", k=5),
)


class TestBaseline1d:
    def test_branch_values(self):
        assert mu0_piecewise(-1.0) == 0.5
        assert mu0_piecewise(0.0) == -0.875
        assert mu0_piecewise(0.25) == pytest.approx(1.0625)
        assert mu0_piecewise(1.0) == 1.125

    def test_boundaries_belong_to_lower_branch(self):
        # x = -0.5 is branch 1: 0.5*(1.5)^2, not the line x/2 - 0.875
        assert mu0_piecewise(-0.5) == pytest.approx(1.125)
        assert mu0_piecewise(0.5) == pytest.approx(0.625)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1, 1, 201)
        vec = mu0_piecewise(xs)
        assert vec.shape == xs.shape
        for i in (0, 50, 100, 150, 200):
            assert vec[i] == mu0_piecewise(float(xs[i]))

    def test_noise_variance(self):
        assert noise_variance_1d(0.0) == pytest.approx(0.1)
        assert noise_variance_1d(0.5) == pytest.approx(0.3)
        assert np.all(noise_variance_1d(np.linspace(-1, 1, 50)) > 0)


class TestPropensity1d:
    def test_modes(self):
        assert propensity_1d(0.3, "constant_half") == 0.5
        assert propensity_1d(-0.3, "strong_selection") == pytest.approx(0.1)
        assert propensity_1d(0.3, "strong_selection") == pytest.approx(0.9)
        assert propensity_1d(1.0, "hidden_selection", b=0.8) == pytest.approx(0.7)
        assert propensity_1d(0.0, "hidden_selection", b=0.8) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            propensity_1d(0.0, "nope")
        with pytest.raises(ConfigError):
            propensity_1d(0.0, "hidden_selection", b=1.0)


class TestEffectPieces10d:
    def test_xi(self):
        assert xi(1 / 3) == pytest.approx(1.5)
        assert xi(0.0) == pytest.approx(1.0012710162630813)
        grid = xi(np.linspace(0, 1, 200))  # the covariates' support
        assert np.all(np.diff(grid) > 0)
        assert np.all((grid > 1.0) & (grid < 2.0))

    def test_beta_density(self):
        assert beta24_density(0.0) == 0.0
        assert beta24_density(1.0) == 0.0
        assert beta24_density(0.25) == pytest.approx(2.109375)

    def test_beta_normalization(self):
        g = np.linspace(0.0, 1.0, 10_000)
        integral = np.trapezoid(beta24_density(g), g)
        assert abs(integral - 1.0) < 1e-6

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            beta24_density(-0.1)
        with pytest.raises(DomainError):
            beta24_density(np.array([0.2, 1.3]))


class TestDgpConfigs:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Dgp1dConfig(propensity="weird")
        with pytest.raises(ConfigError):
            Dgp1dConfig(b=-0.1)
        with pytest.raises(ConfigError):
            Dgp1dConfig(n=0)
        with pytest.raises(ConfigError):
            Dgp10dConfig(effect="quadratic")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            Dgp1dConfig.from_dict({"propensity": "constant_half", "beta": 1})
        with pytest.raises(ConfigError):
            Dgp10dConfig.from_dict({"effects": "zero"})


class TestSample1d:
    def test_shapes_and_ranges(self):
        s = sample_1d(Dgp1dConfig(n=500, seed=1))
        assert s.dataset.X.shape == (500, 1)
        assert np.all(np.abs(s.dataset.X) <= 1.0)
        assert set(np.unique(s.dataset.w)) <= {0, 1}
        assert np.all(s.true_tau == 0.0)

    def test_deterministic_and_seed_sensitive(self):
        a = sample_1d(Dgp1dConfig(n=200, seed=9))
        b = sample_1d(Dgp1dConfig(n=200, seed=9))
        c = sample_1d(Dgp1dConfig(n=200, seed=10))
        assert np.array_equal(a.dataset.y, b.dataset.y)
        assert np.array_equal(a.dataset.X, b.dataset.X)
        assert not np.array_equal(a.dataset.y, c.dataset.y)

    def test_hidden_selection_reports_both_propensities(self):
        s = sample_1d(Dgp1dConfig(propensity="hidden_selection", b=0.8, n=300, seed=2))
        assert np.all(s.nominal_pi == 0.5)
        x = s.dataset.X[:, 0]
        assert np.allclose(s.true_pi, 0.5 + 0.5 * 0.8 * np.abs(x) / 2.0)

    def test_binary_mode(self):
        s = sample_1d(Dgp1dConfig(binary_outcome=True, n=400, seed=3))
        assert set(np.unique(s.dataset.y)) <= {0.0, 1.0}
        x = s.dataset.X[:, 0]
        assert np.allclose(s.true_mu0, np.clip(mu0_piecewise(x) / 1.5, 0.01, 0.99))
        # zero treatment effect means both arms share one success curve
        assert np.array_equal(s.true_mu0, s.true_mu1)
        assert np.all(s.true_rr == 1.0)

    def test_binary_success_probability_spot_value(self):
        # branch-4 baseline at x=1 scaled by 1.5
        assert np.clip(mu0_piecewise(1.0) / 1.5, 0.01, 0.99) == pytest.approx(0.75)

    def test_propensity_calibration_strong(self):
        s = sample_1d(Dgp1dConfig(propensity="strong_selection", n=20_000, seed=4))
        right = s.dataset.X[:, 0] > 0
        frac = s.dataset.w[right].mean()
        se = np.sqrt(0.9 * 0.1 / right.sum())
        assert abs(frac - 0.9) < 3 * se

    def test_noise_calibration_center_bin(self):
        s = sample_1d(Dgp1dConfig(n=50_000, seed=5))
        x = s.dataset.X[:, 0]
        resid = s.dataset.y - mu0_piecewise(x)
        near = np.abs(x) < 0.05
        assert abs(resid[near].var() - 0.1) / 0.1 < 0.25

    def test_rr_unavailable_for_continuous(self):
        s = sample_1d(Dgp1dConfig(n=50, seed=6))
        with pytest.raises(ConfigError):
            s.true_rr


class TestSample10d:
    def test_unconfounded_mode(self):
        s = sample_10d(Dgp10dConfig(n=300, seed=1))
        assert s.dataset.X.shape == (300, 10)
        assert np.all(s.true_mu0 == 0.0)
        assert np.all(s.true_pi == 0.5)
        assert np.all(s.true_tau == 0.0)

    def test_confounded_formulas_rowwise(self):
        s = sample_10d(Dgp10dConfig(confounded=True, effect="three_mu0", n=400, seed=2))
        x3 = s.dataset.X[:, 2]
        assert np.array_equal(s.true_mu0, 2.0 * x3 - 1.0)
        assert np.allclose(s.true_pi, 0.25 * (beta24_density(x3) + 1.0))
        assert np.array_equal(s.true_tau, 3.0 * (2.0 * x3 - 1.0))

    def test_effect_surfaces(self):
        s = sample_10d(Dgp10dConfig(confounded=True, effect="xi_product", n=200, seed=3))
        X = s.dataset.X
        assert np.allclose(s.true_tau, xi(X[:, 0]) * xi(X[:, 1]))
        s2 = sample_10d(
            Dgp10dConfig(confounded=True, effect="mu0_xi_product", n=200, seed=3)
        )
        assert np.allclose(
            s2.true_tau, (2 * X[:, 2] - 1) * xi(X[:, 0]) * xi(X[:, 1])
        )

    def test_same_seed_shares_covariates_across_effects(self):
        a = sample_10d(Dgp10dConfig(confounded=True, effect="zero", n=100, seed=4))
        b = sample_10d(Dgp10dConfig(confounded=True, effect="xi_product", n=100, seed=4))
        assert np.array_equal(a.dataset.X, b.dataset.X)
        assert np.array_equal(a.dataset.w, b.dataset.w)

    def test_dispatch(self):
        assert sample(Dgp1dConfig(n=10, seed=0)).dataset.X.shape == (10, 1)
        assert sample(Dgp10dConfig(n=10, seed=0)).dataset.X.shape == (10, 10)
        with pytest.raises(ConfigError):
            sample(object())


class TestLabeledSample:
    def toy(self, **kw):
        ds = Dataset(np.zeros((3, 1)), np.zeros(3), np.array([0, 1, 0]))
        base = dict(
            dataset=ds,
            true_mu0=np.zeros(3),
            true_mu1=np.ones(3),
            true_pi=np.full(3, 0.5),
            nominal_pi=np.full(3, 0.5),
        )
        base.update(kw)
        return LabeledSample(**base)

    def test_tau_property(self):
        assert np.all(self.toy().true_tau == 1.0)

    def test_length_and_range_validation(self):
        with pytest.raises(SchemaError):
            self.toy(true_mu0=np.zeros(4))
        with pytest.raises(DomainError, match=r"true_pi .* row 1 has 1\.0"):
            self.toy(true_pi=np.array([0.5, 1.0, 0.5]))


class _FixedModel:
    """Test shim: fixed predictions with a declared target."""

    def __init__(self, values, target="cate_aipw"):
        self._values = np.asarray(values, dtype=float)
        self.provenance = {"target": target}

    def predict(self, Xq):
        return self._values[: np.asarray(Xq).shape[0]]


class TestEvaluateMse:
    def test_truth_scores_zero(self):
        s = sample_1d(Dgp1dConfig(n=100, seed=7))
        assert evaluate_mse(_FixedModel(s.true_tau), s) == 0.0

    def test_constant_vs_constant(self):
        s = sample_1d(Dgp1dConfig(n=64, seed=8))  # true effect is zero
        assert evaluate_mse(_FixedModel(np.full(64, 0.3)), s) == pytest.approx(0.09)

    def test_risk_ratio_restriction_drops_unstable_rows(self):
        ds = Dataset(np.linspace(0, 1, 4).reshape(-1, 1), np.zeros(4), np.ones(4, int))
        s = LabeledSample(
            dataset=ds,
            true_mu0=np.array([0.01, 0.5, 0.6, 0.7]),  # first row excluded
            true_mu1=np.array([0.5, 0.5, 0.6, 0.7]),
            true_pi=np.full(4, 0.5),
            nominal_pi=np.full(4, 0.5),
            binary_outcome=True,
        )
        preds = np.array([999.0, 1.0, 1.0, 1.0])  # wrong only where excluded
        assert evaluate_mse(_FixedModel(preds, target="risk_ratio"), s) == 0.0

    def test_risk_ratio_all_rows_excluded(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2), np.ones(2, int))
        s = LabeledSample(
            dataset=ds,
            true_mu0=np.array([0.01, 0.02]),
            true_mu1=np.array([0.5, 0.5]),
            true_pi=np.full(2, 0.5),
            nominal_pi=np.full(2, 0.5),
            binary_outcome=True,
        )
        with pytest.raises(EstimationError, match="no evaluable"):
            evaluate_mse(_FixedModel([1.0, 1.0], target="risk_ratio"), s)

    def test_unknown_target(self):
        s = sample_1d(Dgp1dConfig(n=20, seed=9))
        with pytest.raises(ConfigError, match="ground truth"):
            evaluate_mse(_FixedModel(np.zeros(20), target="mar_mean"), s)

    def test_shape_mismatch(self):
        s = sample_1d(Dgp1dConfig(n=20, seed=10))
        with pytest.raises(SchemaError):
            evaluate_mse(_FixedModel(np.zeros(7)), s)


class TestExperimentConfigs:
    def method(self, name="m", kind="if_learner", **kw):
        return MethodSpec(name=name, kind=kind, if_config=FAST_IF, **kw)

    def test_method_validation(self):
        with pytest.raises(ConfigError):
            MethodSpec(name="", kind="plugin")
        with pytest.raises(ConfigError):
            MethodSpec(name="x", kind="magic")
        with pytest.raises(ConfigError, match="grouping"):
            MethodSpec(name="g", kind="group_if_learner")

    def test_experiment_validation(self):
        dgp = Dgp1dConfig()
        ok = dict(
            experiment_id="e",
            dgp=dgp,
            methods=(self.method(),),
            n_grid=(100,),
            replications=2,
        )
        ExperimentConfig(**ok)
        with pytest.raises(ConfigError, match="at least one method"):
            ExperimentConfig(**{**ok, "methods": ()})
        with pytest.raises(ConfigError, match="unique"):
            ExperimentConfig(**{**ok, "methods": (self.method(), self.method())})
        with pytest.raises(ConfigError, match="n_grid"):
            ExperimentConfig(**{**ok, "n_grid": ()})
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig(**{**ok, "replications": 0})
        # targets evaluate_mse has no ground truth for fail before any fit
        for pseudo in (
            PseudoOutcomeSpec(target="odds_ratio", binary_outcome=True),
            PseudoOutcomeSpec(target="mar_mean"),
        ):
            unscorable = MethodSpec(
                name="m", kind="if_learner", if_config=IFLearnerConfig(pseudo=pseudo)
            )
            with pytest.raises(ConfigError, match="cannot score"):
                ExperimentConfig(**{**ok, "methods": (unscorable,)})
        rr = IFLearnerConfig(
            pseudo=PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True)
        )
        rr_method = MethodSpec(name="rr", kind="plugin", if_config=rr)
        with pytest.raises(ConfigError, match="without binary outcomes"):
            ExperimentConfig(**{**ok, "methods": (rr_method,)})
        binary = Dgp1dConfig(binary_outcome=True)
        ExperimentConfig(**{**ok, "dgp": binary, "methods": (rr_method,)})

    def test_from_dict_round_trip(self):
        blob = {
            "experiment_id": "demo",
            "dgp": {"kind": "1d", "propensity": "strong_selection"},
            "methods": [
                {
                    "name": "if_knn",
                    "kind": "if_learner",
                    "use_known_propensity": True,
                    "if_config": {
                        "crossfit": {
                            "outcome_spec": {"kind": "knn", "k": 5},
                            "n_folds": 2,
                        },
                        "second_stage": {"kind": "knn", "k": 5},
                    },
                },
                {
                    "name": "groups",
                    "kind": "group_if_learner",
                    "group": {"n_groups": 3, "second_stage_estimator": "ht"},
                },
            ],
            "n_grid": [100, 200],
            "replications": 3,
            "seed": 11,
        }
        exp = ExperimentConfig.from_dict(blob)
        assert exp.dgp.propensity == "strong_selection"
        assert exp.methods[0].if_config.crossfit.n_folds == 2
        assert exp.methods[1].group.n_groups == 3
        assert exp.n_grid == (100, 200)

    def test_from_dict_bad_dgp_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(
                {
                    "experiment_id": "x",
                    "dgp": {"kind": "2d"},
                    "methods": [{"name": "m", "kind": "plugin"}],
                    "n_grid": [50],
                    "replications": 1,
                }
            )

    @pytest.mark.parametrize("kind", [[], {}])
    def test_from_dict_unhashable_dgp_kind(self, kind):
        with pytest.raises(ConfigError, match="dgp.kind must be '1d' or '10d'"):
            ExperimentConfig.from_dict(
                {
                    "experiment_id": "x",
                    "dgp": {"kind": kind},
                    "methods": [{"name": "m", "kind": "plugin"}],
                    "n_grid": [50],
                    "replications": 1,
                }
            )


class TestAggregation:
    def test_keep_mask(self):
        rows = [{"a": 0.1, "b": 0.2}, {"a": 1e6, "b": 0.1}, {"a": 0.2, "b": 0.3}]
        assert keep_mask(rows).tolist() == [True, False, True]
        # a non-finite MSE drops its row whatever the dict order
        nan = float("nan")
        rows = [{"a": nan, "b": 1.0}, {"a": 1.0, "b": nan}, {"a": 1.0, "b": np.inf}]
        assert keep_mask(rows).tolist() == [False, False, False]

    def test_discarded_rep_absent_from_every_method(self):
        rows = [
            {"a": 1.0, "b": 2.0},
            {"a": 1e6, "b": 0.0},  # blows the cap for "a" only
            {"a": 3.0, "b": 4.0},
        ]
        out = summarize_replications("e", ["a", "b"], 100, rows)
        by_name = {r.method: r for r in out}
        assert by_name["a"].replications_kept == 2
        assert by_name["a"].mean_mse == pytest.approx(2.0)
        assert by_name["b"].mean_mse == pytest.approx(3.0)  # 0.0 row dropped too

    def test_singleton_has_zero_se(self):
        out = summarize_replications("e", ["a"], 10, [{"a": 0.5}])
        assert out[0].replications_kept == 1
        assert out[0].mean_mse == 0.5
        assert out[0].se_mse == 0.0

    def test_all_discarded(self):
        with pytest.raises(EstimationError, match="degenerate experiment"):
            summarize_replications("e", ["a"], 10, [{"a": 2e3}, {"a": 3e3}])


class TestRunReplications:
    def experiment(self, methods=None, R=3, n=120):
        methods = methods or (
            MethodSpec(name="plugin", kind="plugin", if_config=FAST_IF),
            MethodSpec(
                name="if", kind="if_learner", if_config=FAST_IF,
                use_known_propensity=True,
            ),
            MethodSpec(name="oracle", kind="oracle", if_config=FAST_IF),
        )
        return ExperimentConfig(
            experiment_id="unit",
            dgp=Dgp1dConfig(propensity="constant_half"),
            methods=methods,
            n_grid=(n,),
            replications=R,
            seed=5,
            n_test=200,
        )

    def test_table_shape_and_determinism(self):
        exp = self.experiment()
        a = run_replications(exp)
        b = run_replications(exp)
        assert len(a.rows) == 3
        assert a == b
        assert all(r.replications_kept <= 3 for r in a.rows)
        assert all(np.isfinite(r.mean_mse) for r in a.rows)

    def test_jobs_do_not_change_results(self):
        exp = self.experiment(R=2)
        assert run_replications(exp, jobs=1) == run_replications(exp, jobs=2)

    @pytest.mark.parametrize(
        "R, n_grid, jobs, pool_sizes",
        [(1, (120,), 64, []), (2, (120,), 64, [2]), (2, (120, 140), 3, [3])],
    )
    def test_at_most_one_worker_per_task(self, monkeypatch, R, n_grid, jobs, pool_sizes):
        """The pool is capped at the (n, replication) task count, and one task
        runs in-process; the mock pool records its size and starts nothing."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        exp = dataclasses.replace(self.experiment(R=R), n_grid=n_grid)
        want = run_replications(exp, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert run_replications(exp, jobs=jobs) == want
        assert sizes == pool_sizes

    def test_error_names_replication_and_method(self):
        bad_group = GroupConfig(n_groups=40, if_config=FAST_IF)
        exp = self.experiment(
            methods=(
                MethodSpec(
                    name="grp", kind="group_if_learner",
                    if_config=FAST_IF, group=bad_group,
                    use_known_propensity=True,
                ),
            ),
            R=1,
        )
        with pytest.raises(EstimationError, match=r"replication 0 of method 'grp'"):
            run_replications(exp)

    def test_group_method_end_to_end(self):
        grp = GroupConfig(n_groups=2, first_stage="plugin", if_config=FAST_IF)
        exp = self.experiment(
            methods=(
                MethodSpec(
                    name="grp", kind="group_if_learner",
                    if_config=FAST_IF, group=grp, use_known_propensity=True,
                ),
            ),
            R=2,
            n=160,
        )
        table = run_replications(exp)
        assert len(table.rows) == 1
        assert table.rows[0].method == "grp"
        assert np.isfinite(table.rows[0].mean_mse)

    def test_csv_output(self, tmp_path):
        exp = self.experiment(R=2)
        table = run_replications(exp)
        path = tmp_path / "results.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment_id,method,n,replications_kept,mean_mse,se_mse"
        assert len(lines) == 4
        assert lines[1].startswith("unit,plugin,120,")
