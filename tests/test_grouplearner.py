"""Quantile grouping, per-group estimates, and interval construction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

import pseudolearn.crossfit as crossfit_mod
import pseudolearn.iflearner as iflearner_mod
from pseudolearn import rng as rngmod
from pseudolearn.crossfit import CrossfitConfig, arm_rows, fit_nuisance, known_pi_values
from pseudolearn.data import Dataset, NuisanceEstimates
from pseudolearn.errors import ConfigError, DomainError, EstimationError, SchemaError
from pseudolearn.grouplearner import (
    GroupConfig,
    GroupEstimates,
    _critical_values,
    _group_cutpoints,
    fit_group_learner,
    group_efficient_estimate,
)
from pseudolearn.iflearner import IFLearnerConfig
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import (
    NUISANCES,
    TARGET_TABLE,
    PseudoOutcomeSpec,
    aipw_pseudo,
    build_pseudo_outcomes,
    ht_pseudo,
)
from pseudolearn.simulate import Dgp1dConfig, sample_1d

Z95 = float(ndtri(0.975))

KNN5 = LearnerSpec(kind="knn", k=5)

FAST_IF = IFLearnerConfig(
    crossfit=CrossfitConfig(
        outcome_spec=KNN5,
        propensity_spec=LearnerSpec(kind="mean"),
        n_folds=2,
        seed=7,
    ),
    pseudo=PseudoOutcomeSpec(target="cate_aipw"),
    second_stage=KNN5,
    seed=7,
)


def selection_dgp(n, seed, tau=0.0):
    """Confounded 1-D sample with pi = 0.1 + 0.8*1{x > 0}."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    pi = 0.1 + 0.8 * (x > 0)
    w = (rng.uniform(size=n) < pi).astype(int)
    y = tau * w + np.sin(2 * x) + 0.3 * rng.normal(size=n)
    return Dataset(x.reshape(-1, 1), y, w)


def known_pi(x):
    return 0.1 + 0.8 * (x[0] > 0)


class TestGroupEfficientEstimate:
    def test_hand_values(self):
        assert group_efficient_estimate([1.0, 2.0, 3.0]) == (2.0, pytest.approx(1 / 3))
        assert group_efficient_estimate([0.0, 1.0]) == (0.5, 0.25)

    def test_zero_dispersion(self):
        psi, var = group_efficient_estimate([2.5, 2.5, 2.5])
        assert psi == 2.5 and var == 0.0

    def test_too_small(self):
        with pytest.raises(EstimationError, match="variance undefined"):
            group_efficient_estimate([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="row 1 has inf"):
            group_efficient_estimate([1.0, np.inf])


class TestGroupHtEstimate:
    # a group's HT estimate is the efficient estimate of its HT pseudo-outcomes
    def test_constant_doubled_outcomes(self):
        psi, var = group_efficient_estimate(ht_pseudo([1.0, 1.0], [1.0, 1.0], 0.5))
        assert psi == 2.0 and var == 0.0

    def test_hand_mixed_group(self):
        psi, _ = group_efficient_estimate(ht_pseudo([1.0, 1.0], [1.0, 0.0], 0.25))
        assert psi == pytest.approx((4.0 - 4.0 / 3.0) / 2.0)

    def test_matches_eif_at_zero_regressions(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40)
        w = rng.integers(0, 2, size=40).astype(float)
        pi = rng.uniform(0.2, 0.8, size=40)
        d = aipw_pseudo(y, w, pi, np.zeros(40), np.zeros(40))
        ht = group_efficient_estimate(ht_pseudo(y, w, pi))
        assert ht == group_efficient_estimate(d)


class TestGroupConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GroupConfig(n_groups=1)
        with pytest.raises(ConfigError):
            GroupConfig(split_fraction=1.0)
        with pytest.raises(ConfigError):
            GroupConfig(first_stage="oracle")
        with pytest.raises(ConfigError):
            GroupConfig(second_stage_estimator="aipw")
        with pytest.raises(ConfigError):
            GroupConfig(ci_level=0.0)

    def test_ht_needs_contrast_target(self):
        rr = IFLearnerConfig(
            pseudo=PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True),
        )
        with pytest.raises(ConfigError, match="contrast"):
            GroupConfig(second_stage_estimator="ht", if_config=rr)


class TestGroupEstimates:
    def hand_estimates(self, **kw):
        base = dict(
            cutpoints=np.array([0.0]),
            psi_hat=np.array([-1.0, 1.0]),
            var_hat=np.array([0.04, 0.09]),
            ci_lo=np.array([-1.5, 0.5]),
            ci_hi=np.array([-0.5, 1.5]),
            n_g=np.array([10, 10]),
        )
        base.update(kw)
        return GroupEstimates(**base)

    def test_assign_ties_go_low(self):
        est = self.hand_estimates()
        assert est.assign([-0.3, 0.0, 0.3]).tolist() == [0, 0, 1]

    def test_invariant_checks(self):
        with pytest.raises(SchemaError, match="nondecreasing"):
            self.hand_estimates(
                cutpoints=np.array([1.0, 0.0]),
                psi_hat=np.zeros(3),
                var_hat=np.zeros(3),
                ci_lo=np.zeros(3),
                ci_hi=np.zeros(3),
                n_g=np.array([2, 2, 2]),
            )
        with pytest.raises(SchemaError, match="nonnegative"):
            self.hand_estimates(var_hat=np.array([-0.1, 0.0]))
        with pytest.raises(SchemaError, match="bracket"):
            self.hand_estimates(ci_lo=np.array([-0.5, 1.2]))
        with pytest.raises(SchemaError, match="cutpoints"):
            self.hand_estimates(cutpoints=np.array([0.0, 1.0]))

    def test_predict_without_scorer(self):
        with pytest.raises(ConfigError, match="first-stage model"):
            self.hand_estimates().predict(np.array([[0.0]]))

    def test_csv_and_json(self, tmp_path):
        est = self.hand_estimates()
        path = tmp_path / "groups.csv"
        est.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "g,n_g,psi_hat,var_hat,ci_lo,ci_hi"
        assert lines[1].startswith("1,10,-1,")
        assert len(lines) == 3


class TestFitGroupLearner:
    def test_median_split_sizes(self):
        # scores strictly monotone in x, so a G=2 split must be even
        ds = selection_dgp(80, seed=0, tau=0.0)
        cfg = GroupConfig(n_groups=2, if_config=FAST_IF, seed=1)
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        assert est.n_g.sum() == 40
        assert est.n_groups == 2

    def test_aggregation_identity(self):
        ds = selection_dgp(300, seed=1)
        cfg = GroupConfig(n_groups=5, if_config=FAST_IF, seed=2)
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        weighted = float(np.sum(est.n_g * est.psi_hat) / est.n_g.sum())
        assert weighted == pytest.approx(est.provenance["pseudo_mean"], abs=1e-12)

    def test_provenance_extends_the_learner_record(self):
        ds = selection_dgp(80, seed=0, tau=0.0)
        cfg = GroupConfig(n_groups=2, if_config=FAST_IF, seed=1)
        p = fit_group_learner(ds, cfg, known_propensity=known_pi).provenance
        common = iflearner_mod._provenance(
            cfg, ds, "cate_aipw", "group_if_learner", 1
        )
        assert {key: p[key] for key in common} == common
        assert p["d"] == 1 and p["n_aux"] + p["n_est"] == p["n"] == 80

    def test_ci_reconstruction_is_exact(self):
        ds = selection_dgp(300, seed=2)
        cfg = GroupConfig(n_groups=4, if_config=FAST_IF, seed=3)
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        half = Z95 * np.sqrt(est.var_hat)
        assert np.array_equal(est.ci_hi, est.psi_hat + half)
        assert np.array_equal(est.ci_lo, est.psi_hat - half)

    def test_t_intervals_are_wider(self):
        ds = selection_dgp(200, seed=3)
        base = GroupConfig(n_groups=3, if_config=FAST_IF, seed=4)
        tcfg = GroupConfig(
            n_groups=3, if_config=FAST_IF, seed=4, use_t_intervals=True
        )
        a = fit_group_learner(ds, base, known_propensity=known_pi)
        b = fit_group_learner(ds, tcfg, known_propensity=known_pi)
        assert np.array_equal(a.psi_hat, b.psi_hat)
        assert np.all(b.ci_hi - b.ci_lo > a.ci_hi - a.ci_lo)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=5),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_t_critical_values_equal_scipy_stats(self, dfs, level):
        cfg = GroupConfig(ci_level=level, use_t_intervals=True)
        n_g = np.array(dfs) + 1  # group sizes, as np.bincount gives them
        want = stats.t.ppf(1.0 - (1.0 - level) / 2.0, df=n_g - 1)
        assert _critical_values(cfg, n_g).tobytes() == want.tobytes()

    def test_partition_and_monotone_membership(self):
        ds = selection_dgp(240, seed=4)
        cfg = GroupConfig(n_groups=4, if_config=FAST_IF, seed=5)
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        scores = np.sort(np.random.default_rng(0).normal(size=100))
        groups = est.assign(scores)
        assert np.all(np.diff(groups) >= 0)
        assert est.n_g.sum() == 120

    def test_deterministic(self):
        ds = selection_dgp(200, seed=5)
        cfg = GroupConfig(n_groups=3, if_config=FAST_IF, seed=6)
        a = fit_group_learner(ds, cfg, known_propensity=known_pi)
        b = fit_group_learner(ds, cfg, known_propensity=known_pi)
        assert np.array_equal(a.psi_hat, b.psi_hat)
        assert np.array_equal(a.cutpoints, b.cutpoints)

    def test_split_seed_changes_result(self):
        ds = selection_dgp(200, seed=6)
        a = fit_group_learner(
            ds, GroupConfig(n_groups=3, if_config=FAST_IF, seed=1), known_pi
        )
        b = fit_group_learner(
            ds, GroupConfig(n_groups=3, if_config=FAST_IF, seed=2), known_pi
        )
        assert not np.array_equal(a.psi_hat, b.psi_hat)

    def test_plugin_first_stage_and_ht_second(self):
        ds = selection_dgp(240, seed=7)
        cfg = GroupConfig(
            n_groups=3,
            first_stage="plugin",
            second_stage_estimator="ht",
            if_config=FAST_IF,
            seed=8,
        )
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        assert est.provenance["second_stage_estimator"] == "ht"
        assert np.all(np.isfinite(est.psi_hat))

    def test_estimated_propensity_path(self):
        ds = selection_dgp(240, seed=8)
        cfg = GroupConfig(n_groups=3, if_config=FAST_IF, seed=9)
        est = fit_group_learner(ds, cfg)
        assert np.all(np.isfinite(est.psi_hat))

    def test_predict_is_group_step_function(self):
        ds = selection_dgp(240, seed=9)
        cfg = GroupConfig(n_groups=3, if_config=FAST_IF, seed=10)
        est = fit_group_learner(ds, cfg, known_propensity=known_pi)
        grid = np.linspace(-1, 1, 50).reshape(-1, 1)
        preds = est.predict(grid)
        assert set(np.unique(preds)) <= set(est.psi_hat)

    def test_scorer_on_too_few_auxiliary_rows_is_estimation_error(self):
        # the if_learner scorer's second stage trains on the 30-row auxiliary half
        mean = CrossfitConfig(outcome_spec=LearnerSpec(kind="mean"), n_folds=2)
        knn40 = LearnerSpec(kind="knn", k=40)
        icfg = IFLearnerConfig(crossfit=mean, second_stage=knn40)
        cfg = GroupConfig(n_groups=2, if_config=icfg, seed=1)
        with pytest.raises(EstimationError, match="needs at least 40 .* got 30"):
            fit_group_learner(selection_dgp(60, 3), cfg, known_pi)

    def test_estimation_split_too_small(self):
        ds = selection_dgp(60, seed=10)
        cfg = GroupConfig(n_groups=20, if_config=FAST_IF, seed=11)
        with pytest.raises(EstimationError, match="grouping degenerate"):
            fit_group_learner(ds, cfg, known_propensity=known_pi)

    def test_constant_scores_make_empty_groups(self):
        ds = selection_dgp(200, seed=11)
        flat = IFLearnerConfig(
            crossfit=FAST_IF.crossfit,
            pseudo=FAST_IF.pseudo,
            second_stage=LearnerSpec(kind="mean"),
            seed=7,
        )
        cfg = GroupConfig(n_groups=3, if_config=flat, seed=12)
        with pytest.raises(EstimationError, match="predicted one value"):
            fit_group_learner(ds, cfg, known_propensity=known_pi)

    def test_missing_treatment_column(self):
        ds = Dataset(np.zeros((50, 1)), np.zeros(50))
        with pytest.raises(SchemaError, match="treatment"):
            fit_group_learner(ds, GroupConfig(if_config=FAST_IF))


class TestTiedScores:
    # a plug-in forest scorer on the 1-d design predicts a step function
    # with a few heavily tied values
    FOREST = LearnerSpec(kind="forest", n_trees=20, min_leaf=20)
    CFG = GroupConfig(
        n_groups=5,
        first_stage="plugin",
        if_config=IFLearnerConfig(
            crossfit=CrossfitConfig(outcome_spec=FOREST, propensity_spec=FOREST),
            second_stage=FOREST,
        ),
    )

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_forest_scorer_groups_merge(self, seed):
        ds = sample_1d(Dgp1dConfig(n=600, seed=seed)).dataset
        est = fit_group_learner(ds, self.CFG, known_propensity=0.5)
        assert 2 <= est.n_groups < 5
        assert est.provenance["n_groups"] == est.n_groups
        assert est.provenance["n_groups_requested"] == 5
        assert np.all(est.n_g >= 2)
        assert np.all(np.diff(est.cutpoints) > 0)
        # the stored cutpoints reproduce the grouping of the estimation half
        scores = est.scorer.predict(ds.X)
        assert set(np.unique(est.assign(scores))) == set(range(est.n_groups))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_constant_forest_scorer_still_fails(self, seed):
        # too few rows per tree to split: every prediction is one value
        ds = sample_1d(Dgp1dConfig(n=600, seed=seed)).dataset
        with pytest.raises(EstimationError, match="no two groups"):
            fit_group_learner(ds, self.CFG, known_propensity=0.5)

    def test_constant_scorer_names_the_cause(self):
        ds = sample_1d(Dgp1dConfig(n=600, seed=0)).dataset
        with pytest.raises(
            EstimationError,
            match=r"the scorer predicted one value \(\S+\) for all 300 "
            r"estimation rows.*fewer than 2\*min_leaf rows never splits",
        ):
            fit_group_learner(ds, self.CFG, known_propensity=0.5)

    def test_untied_split_keeps_quantiles(self):
        scores = np.arange(20.0)
        cuts = _group_cutpoints(scores, 4)
        assert np.array_equal(cuts, np.quantile(scores, [0.25, 0.5, 0.75]))

    def test_one_heavy_value_splits_off_the_rest(self):
        # every quantile cut lands on the heavy top value
        scores = np.array([0.0, 0.0] + [1.0] * 100)
        assert np.array_equal(_group_cutpoints(scores, 5), [0.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda G: st.tuples(
                st.just(G),
                st.lists(st.integers(0, 6), min_size=2 * G, max_size=60),
            )
        )
    )
    def test_groups_nonempty_when_two_values_repeat(self, case):
        G, values = case
        scores = np.array(values, dtype=float)
        _, tally = np.unique(scores, return_counts=True)
        try:
            cuts = _group_cutpoints(scores, G)
        except EstimationError:
            assert np.sum(tally >= 2) < 2
            return
        counts = np.bincount(
            np.searchsorted(cuts, scores, side="left"), minlength=cuts.size + 1
        )
        assert 2 <= counts.size <= G
        assert np.all(counts >= 2)
        quantile = np.quantile(scores, np.arange(1, G) / G)
        plain = np.bincount(
            np.searchsorted(quantile, scores, side="left"), minlength=G
        )
        if np.all(plain >= 2):
            assert np.array_equal(cuts, quantile)


class TestKnownPiUnbiasedness:
    def test_null_effect_group_means_center_on_zero(self):
        # tau = 0 everywhere, so every group's target value is 0
        reps = 120
        psi = []
        for r in range(reps):
            ds = selection_dgp(160, seed=1000 + r, tau=0.0)
            cfg = GroupConfig(
                n_groups=2, first_stage="plugin", if_config=FAST_IF, seed=r
            )
            est = fit_group_learner(ds, cfg, known_propensity=known_pi)
            psi.append(est.psi_hat)
        psi = np.array(psi)
        for g in range(2):
            se = psi[:, g].std(ddof=1) / np.sqrt(reps)
            assert abs(psi[:, g].mean()) < 3 * se + 1e-12


def _reference_plugin_group(data, cfg, known_propensity=None):
    """The plug-in group learner with two fits per auxiliary arm.

    The scorer's arms and the signal's nuisances are fit and predicted
    apart, each with its own seed, as before the arm fits were shared.
    Returns (cutpoints, psi_hat, var_hat, n_g).
    """
    icfg = cfg.if_config
    pseudo = icfg.pseudo
    if cfg.second_stage_estimator == "ht":
        pseudo = replace(pseudo, target="cate_ht")
    pi_full = known_pi_values(data, known_propensity, pseudo)
    n_aux = int(round(cfg.split_fraction * data.n))
    perm = rngmod.stream(cfg.seed, "split").permutation(data.n)
    aux_rows, est_rows = np.sort(perm[:n_aux]), np.sort(perm[n_aux:])
    aux, est = data.subset(aux_rows), data.subset(est_rows)

    plugin = TARGET_TABLE[icfg.pseudo.target].plugin
    arm = {}
    for tag in ("mu0", "mu1") if plugin else ("mu",):
        seed = rngmod.derive_seed(icfg.seed, "plugin", tag)
        rows = arm_rows(tag, aux.w, np.arange(aux.n))
        model = fit_nuisance(tag, aux, rows, icfg.crossfit, icfg.pseudo, seed, "scorer")
        arm[tag] = model.predict(est.X)
    scores = np.asarray(plugin(arm["mu0"], arm["mu1"]), dtype=float) if plugin else arm["mu"]

    preds = {}
    for name in NUISANCES[pseudo.target]:
        if name == "pi" and pi_full is not None:
            preds["pi_hat"] = pi_full[est_rows]
            continue
        seed = rngmod.derive_seed(cfg.seed, "nuisance", name)
        rows = arm_rows(name, data.w, aux_rows)
        model = fit_nuisance(name, data, rows, icfg.crossfit, pseudo, seed, "aux")
        preds[f"{name}_hat"] = model.predict(data.X[est_rows])
    d = build_pseudo_outcomes(est, NuisanceEstimates(**preds), pseudo).d

    cuts = _group_cutpoints(scores, cfg.n_groups)
    gidx = np.searchsorted(cuts, scores, side="left")
    psi, var = zip(*(group_efficient_estimate(d[gidx == g]) for g in range(cuts.size + 1)))
    return cuts, np.array(psi), np.array(var), np.bincount(gidx)


def _group_arrays(data, cfg, known_propensity=None):
    est = fit_group_learner(data, cfg, known_propensity=known_propensity)
    return est.cutpoints, est.psi_hat, est.var_hat, est.n_g


def _binary_dgp(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    w = (rng.uniform(size=n) < 0.1 + 0.8 * (x > 0)).astype(int)
    y = (rng.uniform(size=n) < 0.3 + 0.2 * np.sin(2 * x) + 0.2 * w).astype(float)
    return Dataset(x.reshape(-1, 1), y, w)


SEED_FREE = {
    "knn": LearnerSpec(kind="knn", k=7),
    "gaussian": LearnerSpec(kind="kernel", bandwidth=0.3),
    "epanechnikov": LearnerSpec(kind="kernel", bandwidth=0.3, kernel_shape="epanechnikov"),
    "mean": LearnerSpec(kind="mean"),
}
# (target, binary outcome, second-stage estimator)
SIGNALS = [
    ("cate_aipw", False, "eif"),
    ("cate_plugin", False, "eif"),
    ("mar_mean", False, "eif"),
    ("risk_ratio", True, "eif"),
    ("odds_ratio", True, "eif"),
    ("cate_aipw", False, "ht"),
]


def _plugin_group_config(spec, target="cate_aipw", binary=False, estimator="eif", seed=3):
    icfg = IFLearnerConfig(
        crossfit=CrossfitConfig(outcome_spec=spec, propensity_spec=spec, n_folds=2, seed=5),
        pseudo=PseudoOutcomeSpec(target=target, binary_outcome=binary),
        second_stage=KNN5,
        seed=11,
    )
    return GroupConfig(
        n_groups=3, first_stage="plugin", second_stage_estimator=estimator,
        if_config=icfg, seed=seed,
    )


class TestSharedAuxiliaryFits:
    """A plug-in scorer whose fit reads no seed lends its arm fits to the signal."""

    @pytest.mark.parametrize("pi_kind", ["absent", "scalar", "array"])
    @pytest.mark.parametrize("target,binary,estimator", SIGNALS)
    @pytest.mark.parametrize("learner", sorted(SEED_FREE))
    def test_equals_two_fit_reference_bit_for_bit(
        self, learner, target, binary, estimator, pi_kind
    ):
        data = _binary_dgp(240, 1) if binary else selection_dgp(240, 1, tau=0.5)
        pi = {
            "absent": None,
            "scalar": 0.4,
            "array": 0.1 + 0.8 * (data.X[:, 0] > 0),
        }[pi_kind]
        cfg = _plugin_group_config(SEED_FREE[learner], target, binary, estimator)

        def outcome(fit):
            # a mean scorer is constant, so both sides must fail alike
            try:
                arrays = fit(data, cfg, known_propensity=pi)
            except EstimationError as err:
                return str(err)
            return [(a.dtype, a.tobytes()) for a in arrays]

        got = outcome(_group_arrays)
        assert got == outcome(_reference_plugin_group)
        assert isinstance(got, str) == (learner == "mean")

    @pytest.mark.parametrize(
        "spec,fits",
        [
            (LearnerSpec(kind="knn", k=7), 2),
            (LearnerSpec(kind="kernel", bandwidth=0.3), 2),
            (LearnerSpec(kind="kernel", bandwidth_grid=(0.1, 0.3)), 4),
            (LearnerSpec(kind="forest", n_trees=3, min_leaf=5), 4),
        ],
    )
    @pytest.mark.parametrize("estimator", ["eif", "ht"])
    def test_each_auxiliary_arm_fits_and_predicts_once(
        self, monkeypatch, spec, fits, estimator
    ):
        calls = []

        def counted(name, data, rows, *args):
            model = fit_nuisance(name, data, rows, *args)
            calls.append(("fit", name, rows.size))
            predict = model.predict

            def traced(Xq):
                calls.append(("predict", name, len(Xq)))
                return predict(Xq)

            model.predict = traced
            return model

        monkeypatch.setattr(iflearner_mod, "fit_nuisance", counted)
        monkeypatch.setattr(crossfit_mod, "fit_nuisance", counted)
        data = selection_dgp(240, 2)
        cfg = _plugin_group_config(spec, estimator=estimator)
        fit_group_learner(data, cfg, known_propensity=known_pi)
        outcome = [c for c in calls if c[1] != "pi"]
        # the ht signal reads no outcome mean, so only the scorer fits one
        expected = fits if estimator == "eif" else 2
        assert sum(kind == "fit" for kind, _, _ in outcome) == expected
        assert [c for c in outcome if c[0] == "predict"] == [
            ("predict", name, 120) for name in ("mu0", "mu1", "mu0", "mu1")[:expected]
        ]
