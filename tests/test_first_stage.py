"""Each target fits only the nuisances its signal reads, through one path.

``pseudo.NUISANCES`` decides which nuisances a target reads;
``crossfit.arm_rows`` picks their rows and ``crossfit.fit_then_predict``
fits them for the cross-fit folds and the group learner's auxiliary
half.  The panel digests at the end pin every first-stage output to the
bits it had when every target fitted mu0, mu1 and pi.
"""

import hashlib
import itertools

import numpy as np
import pytest

from pseudolearn import rng as rngmod
from pseudolearn.crossfit import (
    CrossfitConfig,
    crossfit_nuisances,
    evaluate_propensity,
    fit_nuisance,
    oob_nuisances,
)
from pseudolearn.data import Dataset, NuisanceEstimates
from pseudolearn.errors import SchemaError
from pseudolearn.grouplearner import (
    GroupConfig,
    _group_cutpoints,
    fit_group_learner,
    group_efficient_estimate,
)
from pseudolearn.iflearner import (
    IFLearnerConfig,
    TrueNuisances,
    fit_if_learner,
    fit_oracle_learner,
    fit_plugin_learner,
)
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import (
    CONTRAST_TARGETS,
    NUISANCES,
    TARGETS,
    PseudoOutcomeSpec,
    build_pseudo_outcomes,
    ht_pseudo,
)
from pseudolearn.simulate import Dgp1dConfig, sample_1d

from fitwatch import watched_fits

KNN5 = LearnerSpec(kind="knn", k=5)
KNN10 = LearnerSpec(kind="knn", k=10)
FOREST = LearnerSpec(kind="forest", n_trees=4, min_leaf=3)
_VECTORS = ("mu0", "mu1", "pi")


def pseudo_for(target):
    return PseudoOutcomeSpec(
        target=target, binary_outcome=target in ("risk_ratio", "odds_ratio")
    )


def sample_for(target, n=120, seed=11):
    binary = target in ("risk_ratio", "odds_ratio")
    cfg = Dgp1dConfig(
        propensity="strong_selection", binary_outcome=binary, n=n, seed=seed
    )
    return sample_1d(cfg)


def fitted(nuis):
    return {name for name in _VECTORS if getattr(nuis, f"{name}_hat") is not None}


class TestNuisanceTable:
    def test_table_covers_every_target(self):
        assert tuple(NUISANCES) == TARGETS
        assert set(CONTRAST_TARGETS) <= set(TARGETS)
        assert NUISANCES["cate_ht"] == ("pi",)
        assert NUISANCES["mar_mean"] == ("mu1", "pi")
        assert NUISANCES["regression_mean"] == ()

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("known", [None, 0.5])
    def test_crossfit_returns_the_table_vectors(self, target, known):
        data = sample_for(target).dataset
        with watched_fits() as seen:
            nuis = crossfit_nuisances(
                data,
                CrossfitConfig(outcome_spec=KNN5, propensity_spec=KNN5, n_folds=3),
                pseudo_for(target),
                known_propensity=known,
            )
        assert fitted(nuis) == set(NUISANCES[target])
        fits = [n for n in NUISANCES[target] if n != "pi" or known is None]
        assert [name for name, *_ in seen] == fits * 3
        assert nuis.n == data.n

    @pytest.mark.parametrize("target", TARGETS)
    def test_oob_returns_the_table_vectors(self, target):
        data = sample_for(target).dataset
        cfg = CrossfitConfig(outcome_spec=FOREST, propensity_spec=FOREST)
        assert fitted(oob_nuisances(data, cfg, pseudo_for(target))) == set(
            NUISANCES[target]
        )

    def test_known_propensity_unread_is_not_evaluated(self):
        # 1.5 is no propensity, but cate_plugin never reads pi
        data = sample_for("cate_plugin").dataset
        cfg = CrossfitConfig(outcome_spec=KNN5, propensity_spec=KNN5)
        nuis = crossfit_nuisances(
            data, cfg, pseudo_for("cate_plugin"), known_propensity=1.5
        )
        assert nuis.pi_hat is None

    def test_oracle_evaluates_only_what_is_read(self):
        s = sample_for("mar_mean")
        grid = np.linspace(0, 1, 5).reshape(-1, 1)
        # mu0 of the wrong length and pi outside (0, 1) are never read
        for target, truth in (
            ("mar_mean", TrueNuisances(mu0=np.zeros(3), mu1=s.true_mu1, pi=s.true_pi)),
            ("cate_plugin", TrueNuisances(mu0=s.true_mu0, mu1=s.true_mu1, pi=1.5)),
        ):
            model = fit_oracle_learner(s.dataset, truth, pseudo_for(target), KNN5)
            assert np.all(np.isfinite(model.predict(grid)))

    def test_build_needs_the_vectors_its_target_reads(self):
        data = sample_for("mar_mean").dataset
        only_pi = NuisanceEstimates(pi_hat=np.full(data.n, 0.5))
        d = build_pseudo_outcomes(data, only_pi, pseudo_for("cate_ht"))
        assert np.array_equal(d, ht_pseudo(data.y, data.w.astype(float), 0.5))
        with pytest.raises(SchemaError, match=r"needs nuisance estimates \['mu1'\]"):
            build_pseudo_outcomes(data, only_pi, pseudo_for("mar_mean"))


def few_unobserved(n=400, missing=8, seed=0):
    """Outcomes observed on all but ``missing`` rows."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 1))
    a = np.ones(n, dtype=int)
    a[rng.choice(n, size=missing, replace=False)] = 0
    y = X[:, 0] + 0.1 * rng.normal(size=n)
    return Dataset(X, y, a)


class TestFewUnobservedRows:
    """k-NN with k = 10 and 8 unobserved rows: a mu0 fit would have too few rows."""

    def if_config(self, target):
        return IFLearnerConfig(
            crossfit=CrossfitConfig(outcome_spec=KNN10, propensity_spec=KNN10),
            pseudo=PseudoOutcomeSpec(target=target),
            second_stage=KNN10,
        )

    @pytest.mark.parametrize("target", ["mar_mean", "cate_ht"])
    def test_if_learner(self, target):
        model = fit_if_learner(few_unobserved(), self.if_config(target))
        assert np.all(np.isfinite(model.predict(np.linspace(0, 1, 5).reshape(-1, 1))))

    @pytest.mark.parametrize("target", ["mar_mean", "cate_ht"])
    def test_group_learner(self, target):
        cfg = GroupConfig(n_groups=3, if_config=self.if_config(target))
        est = fit_group_learner(few_unobserved(), cfg)
        assert est.n_g.sum() == 200
        assert np.all(np.isfinite(est.psi_hat))


def _reference_group_ht(data, cfg, known_propensity):
    """Per-group (psi, var) of the HT group learner, written as it once was.

    Its own pi fit on the auxiliary half and ``ht_pseudo`` called
    directly, outside ``build_pseudo_outcomes``.
    """
    icfg = cfg.if_config
    n = data.n
    n_aux = int(round(cfg.split_fraction * n))
    pi_full = None
    if known_propensity is not None:
        pi_full = evaluate_propensity(data, known_propensity, icfg.pseudo.eps_clip)
    perm = rngmod.stream(cfg.seed, "split").permutation(n)
    aux_rows, est_rows = np.sort(perm[:n_aux]), np.sort(perm[n_aux:])
    aux, est = data.subset(aux_rows), data.subset(est_rows)
    if cfg.first_stage == "plugin":
        scorer = fit_plugin_learner(aux, icfg)
    else:
        pi_aux = None if pi_full is None else pi_full[aux_rows]
        scorer = fit_if_learner(aux, icfg, known_propensity=pi_aux)
    scores = scorer.predict(est.X)
    if pi_full is None:
        seed = rngmod.derive_seed(cfg.seed, "nuisance", "pi")
        model = fit_nuisance(
            "pi", aux, np.arange(n_aux), icfg.crossfit, icfg.pseudo, seed, "aux"
        )
        pi_hat = model.predict(est.X)
    else:
        pi_hat = pi_full[est_rows]
    d = np.asarray(ht_pseudo(est.y, est.w.astype(float), pi_hat), dtype=float)
    cutpoints = _group_cutpoints(scores, cfg.n_groups)
    gidx = np.searchsorted(cutpoints, scores, side="left")
    return [group_efficient_estimate(d[gidx == g]) for g in range(cutpoints.size + 1)]


class TestGroupHtReference:
    @pytest.mark.parametrize(
        "target,first_stage,known",
        list(
            itertools.product(
                CONTRAST_TARGETS, ("plugin", "if_learner"), ("none", "scalar", "array")
            )
        ),
    )
    def test_matches_direct_ht(self, target, first_stage, known):
        s = sample_for(target, n=200, seed=3)
        pi = {"none": None, "scalar": 0.3, "array": s.nominal_pi}[known]
        icfg = IFLearnerConfig(
            crossfit=CrossfitConfig(outcome_spec=KNN5, propensity_spec=KNN5, seed=2),
            pseudo=PseudoOutcomeSpec(target=target),
            second_stage=KNN5,
            seed=6,
        )
        cfg = GroupConfig(
            n_groups=4,
            first_stage=first_stage,
            second_stage_estimator="ht",
            if_config=icfg,
            seed=8,
        )
        est = fit_group_learner(s.dataset, cfg, known_propensity=pi)
        ref = _reference_group_ht(s.dataset, cfg, pi)
        assert est.psi_hat.tolist() == [p for p, _ in ref]
        assert est.var_hat.tolist() == [v for _, v in ref]


# -- panel --------------------------------------------------------------------
#
# Every first-stage consumer on every target, with a CV-bandwidth kernel,
# k-NN and a forest in every stage, and the propensity fitted, known as a
# scalar or known as an array.  Each case's outputs (the vectors the
# target reads, predictions on a grid, per-group estimates) are hashed;
# the digests were computed when every target still fitted mu0, mu1 and
# pi, so they pin the outputs bit for bit.

_LEARNERS = {
    "kernel_cv": LearnerSpec(kind="kernel", cv_folds=3),
    "knn": KNN5,
    "forest": FOREST,
}


def _panel_outputs(kind, target, learner, known):
    s = sample_for(target)
    data = s.dataset
    grid = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    pi = {"none": None, "scalar": 0.4, "array": s.nominal_pi}[known]
    spec = _LEARNERS.get(learner, LearnerSpec(kind="kernel", bandwidth=0.2))
    pseudo = pseudo_for(target)
    cf = CrossfitConfig(outcome_spec=spec, propensity_spec=spec, n_folds=3, seed=5)
    icfg = IFLearnerConfig(crossfit=cf, pseudo=pseudo, second_stage=spec, seed=9)
    if kind in ("crossfit", "oob"):
        fit = crossfit_nuisances if kind == "crossfit" else oob_nuisances
        nuis = fit(data, cf, pseudo, known_propensity=pi)
        return {name: getattr(nuis, f"{name}_hat") for name in NUISANCES[target]}
    if kind == "if_learner":
        return {"pred": fit_if_learner(data, icfg, known_propensity=pi).predict(grid)}
    if kind == "plugin":
        return {"pred": fit_plugin_learner(data, icfg).predict(grid)}
    if kind == "oracle":
        truth = TrueNuisances(mu0=s.true_mu0, mu1=s.true_mu1, pi=s.true_pi)
        model = fit_oracle_learner(data, truth, pseudo, spec, seed=3)
        return {"pred": model.predict(grid)}
    _, estimator, first_stage = kind.split("_", 2)
    gcfg = GroupConfig(
        n_groups=3,
        first_stage=first_stage,
        second_stage_estimator=estimator,
        if_config=icfg,
        seed=4,
    )
    g = fit_group_learner(data, gcfg, known_propensity=pi)
    return {
        "cutpoints": g.cutpoints,
        "psi_hat": g.psi_hat,
        "var_hat": g.var_hat,
        "ci_lo": g.ci_lo,
        "ci_hi": g.ci_hi,
        "n_g": g.n_g,
        "pred": g.predict(grid),
    }


def _panel_digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs[name], dtype="<f8").tobytes())
    return h.hexdigest()[:16]


# (kind, target, learner, known propensity) -> digest
_PANEL_DIGESTS = {
    ("crossfit", "cate_aipw", "kernel_cv", "none"): "11a1ff5a03a9637f",
    ("if_learner", "cate_aipw", "kernel_cv", "none"): "04b5dec53bb5dbfc",
    ("crossfit", "cate_aipw", "kernel_cv", "scalar"): "8262b9d3c862ad3d",
    ("if_learner", "cate_aipw", "kernel_cv", "scalar"): "feef27177c1dd611",
    ("crossfit", "cate_aipw", "kernel_cv", "array"): "787a8fb4ddcbae54",
    ("if_learner", "cate_aipw", "kernel_cv", "array"): "8948a250de57790b",
    ("crossfit", "cate_aipw", "knn", "none"): "86afd4f79208f227",
    ("if_learner", "cate_aipw", "knn", "none"): "5a06536ab767072a",
    ("crossfit", "cate_aipw", "knn", "scalar"): "9cbb3e571e34ff4e",
    ("if_learner", "cate_aipw", "knn", "scalar"): "aa1ace8546e80f5d",
    ("crossfit", "cate_aipw", "knn", "array"): "e18971774a414a24",
    ("if_learner", "cate_aipw", "knn", "array"): "ac353765a577491c",
    ("crossfit", "cate_aipw", "forest", "none"): "64aa4f407e3c3836",
    ("if_learner", "cate_aipw", "forest", "none"): "65282671f4990480",
    ("crossfit", "cate_aipw", "forest", "scalar"): "ee9085734ab2d113",
    ("if_learner", "cate_aipw", "forest", "scalar"): "6183c8a1b6ce9ab4",
    ("crossfit", "cate_aipw", "forest", "array"): "b3ae0983d10ac8de",
    ("if_learner", "cate_aipw", "forest", "array"): "b519b3f85b6a2eda",
    ("crossfit", "cate_ht", "kernel_cv", "none"): "2fcca2931fb7453b",
    ("if_learner", "cate_ht", "kernel_cv", "none"): "9fb94595d01e2e43",
    ("crossfit", "cate_ht", "kernel_cv", "scalar"): "d2946280dcacab16",
    ("if_learner", "cate_ht", "kernel_cv", "scalar"): "c6c5935f6a20bb05",
    ("crossfit", "cate_ht", "kernel_cv", "array"): "76724f3a93b2bef9",
    ("if_learner", "cate_ht", "kernel_cv", "array"): "db9e805f7fc17fc0",
    ("crossfit", "cate_ht", "knn", "none"): "b1ac1f874f8c5ae9",
    ("if_learner", "cate_ht", "knn", "none"): "af7e6cecf95dd653",
    ("crossfit", "cate_ht", "knn", "scalar"): "d2946280dcacab16",
    ("if_learner", "cate_ht", "knn", "scalar"): "1ac2baa42eaaca3b",
    ("crossfit", "cate_ht", "knn", "array"): "76724f3a93b2bef9",
    ("if_learner", "cate_ht", "knn", "array"): "847516a4d0d69218",
    ("crossfit", "cate_ht", "forest", "none"): "11e5ae861c383bb3",
    ("if_learner", "cate_ht", "forest", "none"): "e7f3016f7cbea4c7",
    ("crossfit", "cate_ht", "forest", "scalar"): "d2946280dcacab16",
    ("if_learner", "cate_ht", "forest", "scalar"): "bfe2f2ebf682cd0d",
    ("crossfit", "cate_ht", "forest", "array"): "76724f3a93b2bef9",
    ("if_learner", "cate_ht", "forest", "array"): "dc7109321d9cc21e",
    ("crossfit", "cate_plugin", "kernel_cv", "none"): "536e4d00fd35a0d7",
    ("if_learner", "cate_plugin", "kernel_cv", "none"): "d2d772669034d7fe",
    ("crossfit", "cate_plugin", "kernel_cv", "scalar"): "536e4d00fd35a0d7",
    ("if_learner", "cate_plugin", "kernel_cv", "scalar"): "d2d772669034d7fe",
    ("crossfit", "cate_plugin", "kernel_cv", "array"): "536e4d00fd35a0d7",
    ("if_learner", "cate_plugin", "kernel_cv", "array"): "d2d772669034d7fe",
    ("crossfit", "cate_plugin", "knn", "none"): "63ae04583251aacb",
    ("if_learner", "cate_plugin", "knn", "none"): "f43bca57f36b8db8",
    ("crossfit", "cate_plugin", "knn", "scalar"): "63ae04583251aacb",
    ("if_learner", "cate_plugin", "knn", "scalar"): "f43bca57f36b8db8",
    ("crossfit", "cate_plugin", "knn", "array"): "63ae04583251aacb",
    ("if_learner", "cate_plugin", "knn", "array"): "f43bca57f36b8db8",
    ("crossfit", "cate_plugin", "forest", "none"): "805bf8ef6df85b7f",
    ("if_learner", "cate_plugin", "forest", "none"): "381c6a449d933898",
    ("crossfit", "cate_plugin", "forest", "scalar"): "805bf8ef6df85b7f",
    ("if_learner", "cate_plugin", "forest", "scalar"): "381c6a449d933898",
    ("crossfit", "cate_plugin", "forest", "array"): "805bf8ef6df85b7f",
    ("if_learner", "cate_plugin", "forest", "array"): "381c6a449d933898",
    ("crossfit", "risk_ratio", "kernel_cv", "none"): "41e16b8e896636bc",
    ("if_learner", "risk_ratio", "kernel_cv", "none"): "e5fc719477ae1c27",
    ("crossfit", "risk_ratio", "kernel_cv", "scalar"): "0453fae5be9eb900",
    ("if_learner", "risk_ratio", "kernel_cv", "scalar"): "0320509ab8129472",
    ("crossfit", "risk_ratio", "kernel_cv", "array"): "0f5ce53a0064a03b",
    ("if_learner", "risk_ratio", "kernel_cv", "array"): "7165cfa04065b577",
    ("crossfit", "risk_ratio", "knn", "none"): "981dcd5b02e55620",
    ("if_learner", "risk_ratio", "knn", "none"): "ed53cd019699165c",
    ("crossfit", "risk_ratio", "knn", "scalar"): "fd5d74632c05314e",
    ("if_learner", "risk_ratio", "knn", "scalar"): "a217797ac27f128e",
    ("crossfit", "risk_ratio", "knn", "array"): "853db4ca36c9dbb6",
    ("if_learner", "risk_ratio", "knn", "array"): "b420370bd9daa556",
    ("crossfit", "risk_ratio", "forest", "none"): "6576039dab687c8e",
    ("if_learner", "risk_ratio", "forest", "none"): "f4697f22c26e01fe",
    ("crossfit", "risk_ratio", "forest", "scalar"): "b8c9e9e3afc43bb1",
    ("if_learner", "risk_ratio", "forest", "scalar"): "f666096cac515503",
    ("crossfit", "risk_ratio", "forest", "array"): "6408b1107f59606e",
    ("if_learner", "risk_ratio", "forest", "array"): "0cfae13c362b4e3f",
    ("crossfit", "odds_ratio", "kernel_cv", "none"): "41e16b8e896636bc",
    ("if_learner", "odds_ratio", "kernel_cv", "none"): "fa11bb12d45b1ecc",
    ("crossfit", "odds_ratio", "kernel_cv", "scalar"): "0453fae5be9eb900",
    ("if_learner", "odds_ratio", "kernel_cv", "scalar"): "20aede42776fdb7f",
    ("crossfit", "odds_ratio", "kernel_cv", "array"): "0f5ce53a0064a03b",
    ("if_learner", "odds_ratio", "kernel_cv", "array"): "361e6e4701d1095b",
    ("crossfit", "odds_ratio", "knn", "none"): "981dcd5b02e55620",
    ("if_learner", "odds_ratio", "knn", "none"): "344a53e2e86a39a0",
    ("crossfit", "odds_ratio", "knn", "scalar"): "fd5d74632c05314e",
    ("if_learner", "odds_ratio", "knn", "scalar"): "bdc021b4984bbdcd",
    ("crossfit", "odds_ratio", "knn", "array"): "853db4ca36c9dbb6",
    ("if_learner", "odds_ratio", "knn", "array"): "0ed356ba40f76d83",
    ("crossfit", "odds_ratio", "forest", "none"): "6576039dab687c8e",
    ("if_learner", "odds_ratio", "forest", "none"): "1155bfd32b9abca7",
    ("crossfit", "odds_ratio", "forest", "scalar"): "b8c9e9e3afc43bb1",
    ("if_learner", "odds_ratio", "forest", "scalar"): "c7da372372e08c01",
    ("crossfit", "odds_ratio", "forest", "array"): "6408b1107f59606e",
    ("if_learner", "odds_ratio", "forest", "array"): "15da1e13a7639dd6",
    ("crossfit", "mar_mean", "kernel_cv", "none"): "4a2f2b32f3b0828c",
    ("if_learner", "mar_mean", "kernel_cv", "none"): "088157791c79aa5c",
    ("crossfit", "mar_mean", "kernel_cv", "scalar"): "eb5f4b7fdf4c5f37",
    ("if_learner", "mar_mean", "kernel_cv", "scalar"): "cce014bbea85044a",
    ("crossfit", "mar_mean", "kernel_cv", "array"): "49f024d25efdfed8",
    ("if_learner", "mar_mean", "kernel_cv", "array"): "cf88469ddc505ad5",
    ("crossfit", "mar_mean", "knn", "none"): "47adee7d02dcf82e",
    ("if_learner", "mar_mean", "knn", "none"): "a881bc0bf7f567af",
    ("crossfit", "mar_mean", "knn", "scalar"): "d900af984e6982bb",
    ("if_learner", "mar_mean", "knn", "scalar"): "78db7042660bd602",
    ("crossfit", "mar_mean", "knn", "array"): "f45d566dbf9c5100",
    ("if_learner", "mar_mean", "knn", "array"): "304cf36ebfa662d6",
    ("crossfit", "mar_mean", "forest", "none"): "5096d71203667382",
    ("if_learner", "mar_mean", "forest", "none"): "b4651277ee2ca48e",
    ("crossfit", "mar_mean", "forest", "scalar"): "fd43e1805b78f6fe",
    ("if_learner", "mar_mean", "forest", "scalar"): "20a9079230427279",
    ("crossfit", "mar_mean", "forest", "array"): "eff80c94f0462283",
    ("if_learner", "mar_mean", "forest", "array"): "531d835738140f8e",
    ("crossfit", "regression_mean", "kernel_cv", "none"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "kernel_cv", "none"): "09a937ebab89fcae",
    ("crossfit", "regression_mean", "kernel_cv", "scalar"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "kernel_cv", "scalar"): "09a937ebab89fcae",
    ("crossfit", "regression_mean", "kernel_cv", "array"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "kernel_cv", "array"): "09a937ebab89fcae",
    ("crossfit", "regression_mean", "knn", "none"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "knn", "none"): "1428d7b08b009993",
    ("crossfit", "regression_mean", "knn", "scalar"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "knn", "scalar"): "1428d7b08b009993",
    ("crossfit", "regression_mean", "knn", "array"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "knn", "array"): "1428d7b08b009993",
    ("crossfit", "regression_mean", "forest", "none"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "forest", "none"): "802fbb221b63eccc",
    ("crossfit", "regression_mean", "forest", "scalar"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "forest", "scalar"): "802fbb221b63eccc",
    ("crossfit", "regression_mean", "forest", "array"): "e3b0c44298fc1c14",
    ("if_learner", "regression_mean", "forest", "array"): "802fbb221b63eccc",
    ("oob", "cate_aipw", "forest", "none"): "9033d6ca9a95cb95",
    ("oob", "cate_aipw", "forest", "scalar"): "5730fa2e8ad9bfd5",
    ("oob", "cate_aipw", "forest", "array"): "6e152b96eae7e22e",
    ("oob", "cate_ht", "forest", "none"): "ad84b0061feb0141",
    ("oob", "cate_ht", "forest", "scalar"): "d2946280dcacab16",
    ("oob", "cate_ht", "forest", "array"): "76724f3a93b2bef9",
    ("oob", "cate_plugin", "forest", "none"): "f374869329f25f25",
    ("oob", "cate_plugin", "forest", "scalar"): "f374869329f25f25",
    ("oob", "cate_plugin", "forest", "array"): "f374869329f25f25",
    ("oob", "risk_ratio", "forest", "none"): "20751c954792f114",
    ("oob", "risk_ratio", "forest", "scalar"): "7beab107b20ab300",
    ("oob", "risk_ratio", "forest", "array"): "7b03bca5b6100b85",
    ("oob", "odds_ratio", "forest", "none"): "20751c954792f114",
    ("oob", "odds_ratio", "forest", "scalar"): "7beab107b20ab300",
    ("oob", "odds_ratio", "forest", "array"): "7b03bca5b6100b85",
    ("oob", "mar_mean", "forest", "none"): "d1cd4dac77284459",
    ("oob", "mar_mean", "forest", "scalar"): "782240501a6fb450",
    ("oob", "mar_mean", "forest", "array"): "45b7d5499e2558dc",
    ("oob", "regression_mean", "forest", "none"): "e3b0c44298fc1c14",
    ("oob", "regression_mean", "forest", "scalar"): "e3b0c44298fc1c14",
    ("oob", "regression_mean", "forest", "array"): "e3b0c44298fc1c14",
    ("plugin", "cate_aipw", "kernel_cv", "none"): "d67161a6cf918088",
    ("plugin", "cate_aipw", "knn", "none"): "e1233f01aa230f8b",
    ("plugin", "cate_aipw", "forest", "none"): "15b92d9e15122e90",
    ("plugin", "cate_ht", "kernel_cv", "none"): "d67161a6cf918088",
    ("plugin", "cate_ht", "knn", "none"): "e1233f01aa230f8b",
    ("plugin", "cate_ht", "forest", "none"): "15b92d9e15122e90",
    ("plugin", "cate_plugin", "kernel_cv", "none"): "d67161a6cf918088",
    ("plugin", "cate_plugin", "knn", "none"): "e1233f01aa230f8b",
    ("plugin", "cate_plugin", "forest", "none"): "15b92d9e15122e90",
    ("plugin", "risk_ratio", "kernel_cv", "none"): "f1f3297af900aad6",
    ("plugin", "risk_ratio", "knn", "none"): "21847648d509f54f",
    ("plugin", "risk_ratio", "forest", "none"): "91a54f1f86645c5f",
    ("plugin", "odds_ratio", "kernel_cv", "none"): "4541f3c82e449b1d",
    ("plugin", "odds_ratio", "knn", "none"): "5ebe77d5fe188ca6",
    ("plugin", "odds_ratio", "forest", "none"): "773db82845f5ed50",
    ("plugin", "mar_mean", "kernel_cv", "none"): "a40e5b9840871865",
    ("plugin", "mar_mean", "knn", "none"): "7c8f3972295000b3",
    ("plugin", "mar_mean", "forest", "none"): "799c93dc2c9c55db",
    ("plugin", "regression_mean", "kernel_cv", "none"): "775e07b20e519d4a",
    ("plugin", "regression_mean", "knn", "none"): "1428d7b08b009993",
    ("plugin", "regression_mean", "forest", "none"): "e3e71975f5780096",
    ("oracle", "cate_aipw", "none", "none"): "2afb36ed9f1c9f3f",
    ("oracle", "cate_ht", "none", "none"): "669214a96600d8c2",
    ("oracle", "cate_plugin", "none", "none"): "e7d76aba53a8b19d",
    ("oracle", "risk_ratio", "none", "none"): "d70b0bfb22734e8d",
    ("oracle", "odds_ratio", "none", "none"): "debbd050cbeea080",
    ("oracle", "mar_mean", "none", "none"): "56faeaab301587ce",
    ("oracle", "regression_mean", "none", "none"): "06e67523fdac3923",
    ("group_eif_plugin", "cate_aipw", "kernel_cv", "none"): "2d26cc4a6739b37d",
    ("group_eif_plugin", "cate_aipw", "kernel_cv", "scalar"): "db63d82ed5eeacb9",
    ("group_eif_plugin", "cate_aipw", "kernel_cv", "array"): "ddda87681e8d4117",
    ("group_eif_plugin", "cate_aipw", "knn", "none"): "3e9bacfd639d5e86",
    ("group_eif_plugin", "cate_aipw", "knn", "scalar"): "5392487163e31311",
    ("group_eif_plugin", "cate_aipw", "knn", "array"): "21cbc6f3f636d0ac",
    ("group_eif_plugin", "cate_aipw", "forest", "none"): "63c55090e2b38cad",
    ("group_eif_plugin", "cate_aipw", "forest", "scalar"): "5587465e3ebef2db",
    ("group_eif_plugin", "cate_aipw", "forest", "array"): "d17c82f3ba925a37",
    ("group_eif_plugin", "cate_ht", "kernel_cv", "none"): "3cb24e99d43f6e43",
    ("group_eif_plugin", "cate_ht", "kernel_cv", "scalar"): "e5a5cb44d31a8f55",
    ("group_eif_plugin", "cate_ht", "kernel_cv", "array"): "cc53c48f6584e9bd",
    ("group_eif_plugin", "cate_ht", "knn", "none"): "7c2d0441c602e2be",
    ("group_eif_plugin", "cate_ht", "knn", "scalar"): "3d5e3b3091329307",
    ("group_eif_plugin", "cate_ht", "knn", "array"): "d14ab662e0793871",
    ("group_eif_plugin", "cate_ht", "forest", "none"): "ff26b04279fd9d7c",
    ("group_eif_plugin", "cate_ht", "forest", "scalar"): "04eb5cf38346905a",
    ("group_eif_plugin", "cate_ht", "forest", "array"): "4a8bff8649953752",
    ("group_eif_plugin", "cate_plugin", "kernel_cv", "none"): "57acb7eef639e634",
    ("group_eif_plugin", "cate_plugin", "kernel_cv", "scalar"): "57acb7eef639e634",
    ("group_eif_plugin", "cate_plugin", "kernel_cv", "array"): "57acb7eef639e634",
    ("group_eif_plugin", "cate_plugin", "knn", "none"): "3adf23bb815ec54c",
    ("group_eif_plugin", "cate_plugin", "knn", "scalar"): "3adf23bb815ec54c",
    ("group_eif_plugin", "cate_plugin", "knn", "array"): "3adf23bb815ec54c",
    ("group_eif_plugin", "cate_plugin", "forest", "none"): "ff114b6cdc91cb7d",
    ("group_eif_plugin", "cate_plugin", "forest", "scalar"): "ff114b6cdc91cb7d",
    ("group_eif_plugin", "cate_plugin", "forest", "array"): "ff114b6cdc91cb7d",
    ("group_eif_plugin", "risk_ratio", "kernel_cv", "none"): "4c33819416b143a8",
    ("group_eif_plugin", "risk_ratio", "kernel_cv", "scalar"): "fcaeac877e80c34f",
    ("group_eif_plugin", "risk_ratio", "kernel_cv", "array"): "1d893ca0c688227f",
    ("group_eif_plugin", "risk_ratio", "knn", "none"): "44c022879b3fc896",
    ("group_eif_plugin", "risk_ratio", "knn", "scalar"): "8082b86cc202f8e1",
    ("group_eif_plugin", "risk_ratio", "knn", "array"): "a26d06e2c076e87e",
    ("group_eif_plugin", "risk_ratio", "forest", "none"): "2dc6b57dd5d95cc1",
    ("group_eif_plugin", "risk_ratio", "forest", "scalar"): "0902781dbd355fbd",
    ("group_eif_plugin", "risk_ratio", "forest", "array"): "d7597ab04edda6d1",
    ("group_eif_plugin", "odds_ratio", "kernel_cv", "none"): "c4fadd05f9a2e936",
    ("group_eif_plugin", "odds_ratio", "kernel_cv", "scalar"): "51245aa56fcdf51d",
    ("group_eif_plugin", "odds_ratio", "kernel_cv", "array"): "7091346b0b25e771",
    ("group_eif_plugin", "odds_ratio", "knn", "none"): "45b8be24e209a62f",
    ("group_eif_plugin", "odds_ratio", "knn", "scalar"): "24f1fcd35d3a8f17",
    ("group_eif_plugin", "odds_ratio", "knn", "array"): "77d3ca6c9e35375e",
    ("group_eif_plugin", "odds_ratio", "forest", "none"): "b67086bdac8c18f1",
    ("group_eif_plugin", "odds_ratio", "forest", "scalar"): "1e73ae4e8e544782",
    ("group_eif_plugin", "odds_ratio", "forest", "array"): "740dff1484db09f6",
    ("group_eif_plugin", "mar_mean", "kernel_cv", "none"): "499868f203e55c49",
    ("group_eif_plugin", "mar_mean", "kernel_cv", "scalar"): "78c3c5c7340ecb5d",
    ("group_eif_plugin", "mar_mean", "kernel_cv", "array"): "9cb4c62f4232d65f",
    ("group_eif_plugin", "mar_mean", "knn", "none"): "bad36084268c7a8f",
    ("group_eif_plugin", "mar_mean", "knn", "scalar"): "1e0feb8f7c302f6a",
    ("group_eif_plugin", "mar_mean", "knn", "array"): "fc9473857d16e353",
    ("group_eif_plugin", "mar_mean", "forest", "none"): "7220a49545f8725d",
    ("group_eif_plugin", "mar_mean", "forest", "scalar"): "4b918d66912e6643",
    ("group_eif_plugin", "mar_mean", "forest", "array"): "42dabbd4ce9e600c",
    ("group_eif_plugin", "regression_mean", "kernel_cv", "none"): "0c7fea02c5ac6682",
    ("group_eif_plugin", "regression_mean", "kernel_cv", "scalar"): "0c7fea02c5ac6682",
    ("group_eif_plugin", "regression_mean", "kernel_cv", "array"): "0c7fea02c5ac6682",
    ("group_eif_plugin", "regression_mean", "knn", "none"): "5bd840bf728013b2",
    ("group_eif_plugin", "regression_mean", "knn", "scalar"): "5bd840bf728013b2",
    ("group_eif_plugin", "regression_mean", "knn", "array"): "5bd840bf728013b2",
    ("group_eif_plugin", "regression_mean", "forest", "none"): "305bac119000f8b3",
    ("group_eif_plugin", "regression_mean", "forest", "scalar"): "305bac119000f8b3",
    ("group_eif_plugin", "regression_mean", "forest", "array"): "305bac119000f8b3",
    ("group_eif_if_learner", "cate_aipw", "kernel_cv", "none"): "2a4ee6bdb9ab63e0",
    ("group_eif_if_learner", "cate_aipw", "kernel_cv", "scalar"): "78f2dba8751759af",
    ("group_eif_if_learner", "cate_aipw", "kernel_cv", "array"): "1bb4a7446a0fdcc8",
    ("group_eif_if_learner", "cate_aipw", "knn", "none"): "65aaf175aeb076cc",
    ("group_eif_if_learner", "cate_aipw", "knn", "scalar"): "3d3737557454c1a9",
    ("group_eif_if_learner", "cate_aipw", "knn", "array"): "6af54ff0b5731165",
    ("group_eif_if_learner", "cate_aipw", "forest", "none"): "443ccc4cf3961f57",
    ("group_eif_if_learner", "cate_aipw", "forest", "scalar"): "f08bd6bc3b6291e7",
    ("group_eif_if_learner", "cate_aipw", "forest", "array"): "c62d210d4b958d70",
    ("group_eif_if_learner", "cate_ht", "kernel_cv", "none"): "43df4aa3cd6e468e",
    ("group_eif_if_learner", "cate_ht", "kernel_cv", "scalar"): "1313d9da9603e6c4",
    ("group_eif_if_learner", "cate_ht", "kernel_cv", "array"): "48623995f329454e",
    ("group_eif_if_learner", "cate_ht", "knn", "none"): "829723b8bb470a84",
    ("group_eif_if_learner", "cate_ht", "knn", "scalar"): "497147e87897e8c6",
    ("group_eif_if_learner", "cate_ht", "knn", "array"): "bab1bd23a72a3f8f",
    ("group_eif_if_learner", "cate_ht", "forest", "none"): "9aa046baa0d16886",
    ("group_eif_if_learner", "cate_ht", "forest", "scalar"): "09514b2031c0947a",
    ("group_eif_if_learner", "cate_ht", "forest", "array"): "d9b61fc160886ac8",
    ("group_eif_if_learner", "cate_plugin", "kernel_cv", "none"): "e3355d092a5ffa62",
    ("group_eif_if_learner", "cate_plugin", "kernel_cv", "scalar"): "e3355d092a5ffa62",
    ("group_eif_if_learner", "cate_plugin", "kernel_cv", "array"): "e3355d092a5ffa62",
    ("group_eif_if_learner", "cate_plugin", "knn", "none"): "ad8d12a82364d0a0",
    ("group_eif_if_learner", "cate_plugin", "knn", "scalar"): "ad8d12a82364d0a0",
    ("group_eif_if_learner", "cate_plugin", "knn", "array"): "ad8d12a82364d0a0",
    ("group_eif_if_learner", "cate_plugin", "forest", "none"): "0d4f859de870042e",
    ("group_eif_if_learner", "cate_plugin", "forest", "scalar"): "0d4f859de870042e",
    ("group_eif_if_learner", "cate_plugin", "forest", "array"): "0d4f859de870042e",
    ("group_eif_if_learner", "risk_ratio", "kernel_cv", "none"): "5b748181242b036a",
    ("group_eif_if_learner", "risk_ratio", "kernel_cv", "scalar"): "e9fa295554f8824e",
    ("group_eif_if_learner", "risk_ratio", "kernel_cv", "array"): "6faaf16efeac1976",
    ("group_eif_if_learner", "risk_ratio", "knn", "none"): "3f52859547c61d11",
    ("group_eif_if_learner", "risk_ratio", "knn", "scalar"): "4816d8df1fadf6be",
    ("group_eif_if_learner", "risk_ratio", "knn", "array"): "d493baad306f42b2",
    ("group_eif_if_learner", "risk_ratio", "forest", "none"): "1356ee5b0ef32381",
    ("group_eif_if_learner", "risk_ratio", "forest", "scalar"): "9039d23a7d8ee5ea",
    ("group_eif_if_learner", "risk_ratio", "forest", "array"): "4b8ce3dd51897d9f",
    ("group_eif_if_learner", "odds_ratio", "kernel_cv", "none"): "95681d4855491686",
    ("group_eif_if_learner", "odds_ratio", "kernel_cv", "scalar"): "5c3139d2821c227b",
    ("group_eif_if_learner", "odds_ratio", "kernel_cv", "array"): "40dbdf1c00af7ae7",
    ("group_eif_if_learner", "odds_ratio", "knn", "none"): "a17073c7104db345",
    ("group_eif_if_learner", "odds_ratio", "knn", "scalar"): "362b76ca85fd2fe8",
    ("group_eif_if_learner", "odds_ratio", "knn", "array"): "7a70eb45325a368c",
    ("group_eif_if_learner", "odds_ratio", "forest", "none"): "e1ee4019293e4e7d",
    ("group_eif_if_learner", "odds_ratio", "forest", "scalar"): "4e680b352c45923b",
    ("group_eif_if_learner", "odds_ratio", "forest", "array"): "d93cbf55379c468d",
    ("group_eif_if_learner", "mar_mean", "kernel_cv", "none"): "068f63f194c49234",
    ("group_eif_if_learner", "mar_mean", "kernel_cv", "scalar"): "2fdd1ea619332cfe",
    ("group_eif_if_learner", "mar_mean", "kernel_cv", "array"): "228580531b6a799e",
    ("group_eif_if_learner", "mar_mean", "knn", "none"): "cf87ef1d8780d742",
    ("group_eif_if_learner", "mar_mean", "knn", "scalar"): "4c426bccea031345",
    ("group_eif_if_learner", "mar_mean", "knn", "array"): "2696c326e9860e71",
    ("group_eif_if_learner", "mar_mean", "forest", "none"): "3f79e817daef9b2a",
    ("group_eif_if_learner", "mar_mean", "forest", "scalar"): "4b573417623d03d1",
    ("group_eif_if_learner", "mar_mean", "forest", "array"): "ac47cff5212ba825",
    ("group_eif_if_learner", "regression_mean", "kernel_cv", "none"): "0c7fea02c5ac6682",
    ("group_eif_if_learner", "regression_mean", "kernel_cv", "scalar"): "0c7fea02c5ac6682",
    ("group_eif_if_learner", "regression_mean", "kernel_cv", "array"): "0c7fea02c5ac6682",
    ("group_eif_if_learner", "regression_mean", "knn", "none"): "5bd840bf728013b2",
    ("group_eif_if_learner", "regression_mean", "knn", "scalar"): "5bd840bf728013b2",
    ("group_eif_if_learner", "regression_mean", "knn", "array"): "5bd840bf728013b2",
    ("group_eif_if_learner", "regression_mean", "forest", "none"): "a97bbb8b65dc1e06",
    ("group_eif_if_learner", "regression_mean", "forest", "scalar"): "a97bbb8b65dc1e06",
    ("group_eif_if_learner", "regression_mean", "forest", "array"): "a97bbb8b65dc1e06",
    ("group_ht_plugin", "cate_aipw", "kernel_cv", "none"): "3cb24e99d43f6e43",
    ("group_ht_plugin", "cate_aipw", "kernel_cv", "scalar"): "e5a5cb44d31a8f55",
    ("group_ht_plugin", "cate_aipw", "kernel_cv", "array"): "cc53c48f6584e9bd",
    ("group_ht_plugin", "cate_aipw", "knn", "none"): "7c2d0441c602e2be",
    ("group_ht_plugin", "cate_aipw", "knn", "scalar"): "3d5e3b3091329307",
    ("group_ht_plugin", "cate_aipw", "knn", "array"): "d14ab662e0793871",
    ("group_ht_plugin", "cate_aipw", "forest", "none"): "ff26b04279fd9d7c",
    ("group_ht_plugin", "cate_aipw", "forest", "scalar"): "04eb5cf38346905a",
    ("group_ht_plugin", "cate_aipw", "forest", "array"): "4a8bff8649953752",
    ("group_ht_plugin", "cate_ht", "kernel_cv", "none"): "3cb24e99d43f6e43",
    ("group_ht_plugin", "cate_ht", "kernel_cv", "scalar"): "e5a5cb44d31a8f55",
    ("group_ht_plugin", "cate_ht", "kernel_cv", "array"): "cc53c48f6584e9bd",
    ("group_ht_plugin", "cate_ht", "knn", "none"): "7c2d0441c602e2be",
    ("group_ht_plugin", "cate_ht", "knn", "scalar"): "3d5e3b3091329307",
    ("group_ht_plugin", "cate_ht", "knn", "array"): "d14ab662e0793871",
    ("group_ht_plugin", "cate_ht", "forest", "none"): "ff26b04279fd9d7c",
    ("group_ht_plugin", "cate_ht", "forest", "scalar"): "04eb5cf38346905a",
    ("group_ht_plugin", "cate_ht", "forest", "array"): "4a8bff8649953752",
    ("group_ht_plugin", "cate_plugin", "kernel_cv", "none"): "3cb24e99d43f6e43",
    ("group_ht_plugin", "cate_plugin", "kernel_cv", "scalar"): "e5a5cb44d31a8f55",
    ("group_ht_plugin", "cate_plugin", "kernel_cv", "array"): "cc53c48f6584e9bd",
    ("group_ht_plugin", "cate_plugin", "knn", "none"): "7c2d0441c602e2be",
    ("group_ht_plugin", "cate_plugin", "knn", "scalar"): "3d5e3b3091329307",
    ("group_ht_plugin", "cate_plugin", "knn", "array"): "d14ab662e0793871",
    ("group_ht_plugin", "cate_plugin", "forest", "none"): "ff26b04279fd9d7c",
    ("group_ht_plugin", "cate_plugin", "forest", "scalar"): "04eb5cf38346905a",
    ("group_ht_plugin", "cate_plugin", "forest", "array"): "4a8bff8649953752",
    ("group_ht_if_learner", "cate_aipw", "kernel_cv", "none"): "928138217c4536bc",
    ("group_ht_if_learner", "cate_aipw", "kernel_cv", "scalar"): "552fc7fc1db603e7",
    ("group_ht_if_learner", "cate_aipw", "kernel_cv", "array"): "163948da2cb6aa2d",
    ("group_ht_if_learner", "cate_aipw", "knn", "none"): "f9d4c3aae623853b",
    ("group_ht_if_learner", "cate_aipw", "knn", "scalar"): "987bc6ec08db3367",
    ("group_ht_if_learner", "cate_aipw", "knn", "array"): "0f63cd4ce121ad43",
    ("group_ht_if_learner", "cate_aipw", "forest", "none"): "0d37af1dc8db4dad",
    ("group_ht_if_learner", "cate_aipw", "forest", "scalar"): "d3d5a86b7548f79d",
    ("group_ht_if_learner", "cate_aipw", "forest", "array"): "52e7079f9272ffcd",
    ("group_ht_if_learner", "cate_ht", "kernel_cv", "none"): "43df4aa3cd6e468e",
    ("group_ht_if_learner", "cate_ht", "kernel_cv", "scalar"): "1313d9da9603e6c4",
    ("group_ht_if_learner", "cate_ht", "kernel_cv", "array"): "48623995f329454e",
    ("group_ht_if_learner", "cate_ht", "knn", "none"): "829723b8bb470a84",
    ("group_ht_if_learner", "cate_ht", "knn", "scalar"): "497147e87897e8c6",
    ("group_ht_if_learner", "cate_ht", "knn", "array"): "bab1bd23a72a3f8f",
    ("group_ht_if_learner", "cate_ht", "forest", "none"): "9aa046baa0d16886",
    ("group_ht_if_learner", "cate_ht", "forest", "scalar"): "09514b2031c0947a",
    ("group_ht_if_learner", "cate_ht", "forest", "array"): "d9b61fc160886ac8",
    ("group_ht_if_learner", "cate_plugin", "kernel_cv", "none"): "4f7728c67a60c8ba",
    ("group_ht_if_learner", "cate_plugin", "kernel_cv", "scalar"): "3569ec84f99a331e",
    ("group_ht_if_learner", "cate_plugin", "kernel_cv", "array"): "c69cb91c8e69fd3d",
    ("group_ht_if_learner", "cate_plugin", "knn", "none"): "44d0c21ab3d819fa",
    ("group_ht_if_learner", "cate_plugin", "knn", "scalar"): "ad5c73676d160ca2",
    ("group_ht_if_learner", "cate_plugin", "knn", "array"): "23ecc37f2d10840d",
    ("group_ht_if_learner", "cate_plugin", "forest", "none"): "1747798e5ba465b1",
    ("group_ht_if_learner", "cate_plugin", "forest", "scalar"): "6389d2ae2b2419a6",
    ("group_ht_if_learner", "cate_plugin", "forest", "array"): "21d11809b50e2e93",
}


@pytest.mark.parametrize("case", list(_PANEL_DIGESTS), ids="-".join)
def test_panel_outputs_are_pinned(case):
    assert _panel_digest(_panel_outputs(*case)) == _PANEL_DIGESTS[case]
