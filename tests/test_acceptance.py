"""Statistical and determinism gates for the whole package.

Each test prints one ``acceptance NN: PASS|FAIL`` line (visible with
``pytest -s``) before asserting, so a full run yields a ten-line
scorecard.  The Monte Carlo tests use fixed seeds: every number below
was verified once and is bit-reproducible, so these are regression
tests, not flaky samplers.
"""

import json
import os
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from pseudolearn.cli import main as cli_main
from pseudolearn.crossfit import CrossfitConfig, crossfit_nuisances
from pseudolearn.data import Dataset
from pseudolearn.grouplearner import (
    GroupConfig,
    fit_group_learner,
    group_efficient_estimate,
)
from pseudolearn.iflearner import IFLearnerConfig
from pseudolearn.learners import LearnerSpec
from pseudolearn.pseudo import (
    aipw_pseudo,
    ht_pseudo,
    mar_pseudo,
    risk_ratio_partials,
    risk_ratio_value,
    rr_pseudo,
    transform_pseudo,
)
from pseudolearn import rng as rngmod
from pseudolearn.simulate import (
    Dgp1dConfig,
    Dgp10dConfig,
    ExperimentConfig,
    MethodSpec,
    _fan_out,
    _run_one,
    beta24_density,
    mu0_piecewise,
    noise_variance_1d,
    propensity_1d,
    run_replications,
    sample_1d,
    sample_10d,
    xi,
)

from fitwatch import watched_fits

# the unit suite alone: pytest -m "not acceptance"
pytestmark = pytest.mark.acceptance

CV_KERNEL = LearnerSpec(kind="kernel")  # bandwidth picked by cross-validation

CV_KERNEL_IF = IFLearnerConfig(
    crossfit=CrossfitConfig(
        outcome_spec=CV_KERNEL, propensity_spec=CV_KERNEL, n_folds=5
    ),
    second_stage=CV_KERNEL,
)

# the replication gates run on every usable CPU; their rows are keyed by
# replication, so they read the same at any worker count
JOBS = len(os.sched_getaffinity(0))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_pseudo_outcomes_conditionally_unbiased():
    """Monte Carlo mean of each signal matches its target at fixed x.

    True nuisances throughout; 1e5 draws per (signal, x) pair must land
    within 3 standard errors of the functional being estimated.
    """
    t0 = time.monotonic()
    n = 100_000
    xs = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for x in xs:
        mu0 = float(mu0_piecewise(x))
        mu1 = mu0 + np.sin(2.0 * x) + 0.5
        pi = float(propensity_1d(np.array([x]), "strong_selection")[0])
        sd = float(np.sqrt(noise_variance_1d(x)))

        w = (rng.uniform(size=n) < pi).astype(float)
        y = w * mu1 + (1.0 - w) * mu0 + sd * rng.standard_normal(n)
        checks = [
            (aipw_pseudo(y, w, pi, mu0, mu1), mu1 - mu0),
            (ht_pseudo(y, w, pi), mu1 - mu0),
        ]

        p0 = 0.3 + 0.1 * np.tanh(x)
        p1 = 0.55 + 0.2 * np.tanh(x)
        yb = (rng.uniform(size=n) < (w * p1 + (1.0 - w) * p0)).astype(float)
        checks.append((rr_pseudo(yb, w, pi, p0, p1), p1 / p0))

        a = (rng.uniform(size=n) < pi).astype(float)
        ym = mu0 + sd * rng.standard_normal(n)
        checks.append((mar_pseudo(ym, a, pi, mu0), mu0))

        for d, truth in checks:
            z = abs(d.mean() - truth) / (d.std(ddof=1) / np.sqrt(n))
            worst = max(worst, z)
    elapsed = time.monotonic() - t0
    ok = worst < 3.0 and elapsed < 30.0
    report(1, ok, f"max |z| = {worst:.2f} over 20 signal/x cells, {elapsed:.1f}s")


def test_02_transform_matches_specialized_signals():
    """Generic chain-rule signal reproduces the two hand-derived ones."""
    rng = np.random.default_rng(2)
    n = 10_000
    y = rng.uniform(0.0, 1.0, size=n)
    w = (rng.uniform(size=n) < 0.5).astype(float)
    pi = rng.uniform(0.1, 0.9, size=n)
    mu0 = rng.uniform(0.15, 0.9, size=n)
    mu1 = rng.uniform(0.05, 0.95, size=n)

    diff = transform_pseudo(
        y, w, pi, mu0, mu1,
        df_dmu0=lambda m0, m1: -np.ones_like(m0),
        df_dmu1=lambda m0, m1: np.ones_like(m1),
        f=lambda m0, m1: m1 - m0,
    )
    dev_diff = np.max(np.abs(diff - aipw_pseudo(y, w, pi, mu0, mu1)))

    ratio = transform_pseudo(
        y, w, pi, mu0, mu1,
        df_dmu0=lambda m0, m1: risk_ratio_partials(m0, m1)[0],
        df_dmu1=lambda m0, m1: risk_ratio_partials(m0, m1)[1],
        f=risk_ratio_value,
    )
    dev_ratio = np.max(np.abs(ratio - rr_pseudo(y, w, pi, mu0, mu1)))

    ok = dev_diff < 1e-12 and dev_ratio < 1e-12
    report(2, ok, f"max dev: difference {dev_diff:.2e}, ratio {dev_ratio:.2e}")


def test_03_partition_aggregation_identity():
    """Size-weighted group means reassemble the full-sample mean."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(20, 400))
        n_groups = int(rng.integers(2, 9))
        if n < 2 * n_groups:
            n_groups = 2
        sizes = np.full(n_groups, 2) + rng.multinomial(
            n - 2 * n_groups, np.full(n_groups, 1.0 / n_groups)
        )
        values = rng.normal(size=n) * rng.uniform(0.5, 3.0) + rng.normal()
        perm = rng.permutation(n)
        total = 0.0
        start = 0
        for size in sizes:
            block = perm[start:start + size]
            psi, _ = group_efficient_estimate(values[block])
            total += (size / n) * psi
            start += size
        worst = max(worst, abs(total - float(np.mean(values))))
    ok = worst < 1e-12
    report(3, ok, f"max |weighted sum - mean| = {worst:.2e} over 25 partitions")


def test_04_crossfit_never_predicts_training_rows():
    """Instrumented cross-fitting: train and predict rows never overlap.

    Fifty random configurations; every tenth uses 1-nearest-neighbour
    outcome models, whose predictions are bitwise copies of training
    outcomes, so leakage would be directly visible in the values too.
    """
    overlaps = 0
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(40, 160))
        d = int(rng.choice([1, 2]))
        n_folds = int(rng.choice([2, 3, 5]))
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        y = rng.normal(size=n)
        assert len(np.unique(y)) == n
        w = np.zeros(n)
        w[: n // 2] = 1.0
        rng.shuffle(w)
        data = Dataset(X, y, w)

        exact_knn = trial % 10 == 0
        if exact_knn:
            outcome = LearnerSpec(kind="knn", k=1)
        else:
            outcome = [
                LearnerSpec(kind="mean"),
                LearnerSpec(kind="knn", k=3),
                LearnerSpec(kind="kernel", bandwidth=0.4),
            ][trial % 3]
        cfg = CrossfitConfig(
            outcome_spec=outcome,
            propensity_spec=LearnerSpec(kind="mean"),
            n_folds=n_folds,
            seed=int(rng.integers(0, 2**31)),
        )

        known = 0.5 if trial % 4 == 0 else None
        with watched_fits() as events:
            nuis = crossfit_nuisances(data, cfg, known_propensity=known)

        predicted = {"mu0": [], "mu1": [], "pi": []}
        for name, _fold, train_rows, predict_rows in events:
            if np.intersect1d(train_rows, predict_rows).size:
                overlaps += 1
            if name == "mu0":
                assert np.all(w[train_rows] == 0.0)
            if name == "mu1":
                assert np.all(w[train_rows] == 1.0)
            predicted[name].append(predict_rows)
        for name in ("mu0", "mu1") + (() if known is not None else ("pi",)):
            got = np.sort(np.concatenate(predicted[name]))
            assert np.array_equal(got, np.arange(n)), name

        if exact_knn:
            # k=1 predictions must be outcomes from other folds, same arm
            for i in range(n):
                fold_i = nuis.fold_of[i]
                for arm, got in ((0.0, nuis.mu0_hat[i]), (1.0, nuis.mu1_hat[i])):
                    pool = y[(nuis.fold_of != fold_i) & (w == arm)]
                    assert np.any(pool == got), (trial, i, arm)

    ok = overlaps == 0
    report(4, ok, f"0 train/predict overlaps expected, found {overlaps} "
                  "across 50 configurations")


def test_05_if_learner_beats_plugin_under_known_selection():
    """Known two-level propensity, flat effect, n=2000, CV kernel stages.

    The bias-corrected learner must win on test MSE in at least 90 of
    100 replications, inside a ten-minute budget.
    """
    t0 = time.monotonic()
    exp = ExperimentConfig(
        experiment_id="if-vs-plugin-known-pi",
        dgp=Dgp1dConfig(propensity="strong_selection"),
        methods=(
            MethodSpec(name="if", kind="if_learner", if_config=CV_KERNEL_IF,
                       use_known_propensity=True),
            MethodSpec(name="plugin", kind="plugin", if_config=CV_KERNEL_IF),
        ),
        n_grid=(2000,),
        replications=100,
        seed=11,
    )
    rows = _fan_out(partial(_run_one, exp), [(2000, rep) for rep in range(100)], JOBS)
    wins = sum(r["if"] < r["plugin"] for r in rows.values())
    elapsed = time.monotonic() - t0
    ok = wins >= 90 and elapsed < 600.0
    report(5, ok, f"corrected learner wins {wins}/100 replications, {elapsed:.0f}s")


def test_06_if_learner_tracks_oracle_with_known_propensity():
    """Pure randomization: feasible/oracle mean-MSE ratio stays <= 2."""
    icfg = IFLearnerConfig(
        crossfit=CrossfitConfig(
            outcome_spec=LearnerSpec(kind="knn", k=20),
            propensity_spec=LearnerSpec(kind="mean"),
            n_folds=5,
        ),
        second_stage=LearnerSpec(kind="knn", k=100),
    )
    exp = ExperimentConfig(
        experiment_id="oracle-proximity",
        dgp=Dgp1dConfig(propensity="constant_half"),
        methods=(
            MethodSpec(name="if", kind="if_learner", if_config=icfg,
                       use_known_propensity=True),
            MethodSpec(name="oracle", kind="oracle", if_config=icfg),
        ),
        n_grid=(5000,),
        replications=200,
        seed=13,
    )
    table = run_replications(exp, jobs=JOBS)
    mse = {r.method: r.mean_mse for r in table.rows}
    ratio = mse["if"] / mse["oracle"]
    ok = ratio <= 2.0
    report(6, ok, f"mean-MSE ratio feasible/oracle = {ratio:.3f} over 200 reps")


def _coverage_hits(rep):
    """Which of acceptance 07's five group intervals cover zero in one replication."""
    s = sample_1d(Dgp1dConfig(
        propensity="strong_selection", n=2000,
        seed=rngmod.derive_seed(78, "group-coverage", rep, "data"),
    ))
    cfg = GroupConfig(
        n_groups=5, first_stage="plugin", if_config=CV_KERNEL_IF,
        seed=rngmod.derive_seed(78, "group-coverage", rep, "fit"),
    )
    est = fit_group_learner(s.dataset, cfg, known_propensity=s.nominal_pi)
    return (est.ci_lo <= 0.0) & (0.0 <= est.ci_hi)


def test_07_group_ci_coverage_within_band():
    """Per-group 95% intervals cover the true (zero) effect.

    Flat effect, known two-level propensity, n=2000, five groups, 500
    replications; each group's empirical coverage must land in
    [0.92, 0.975] inside a ten-minute budget.
    """
    t0 = time.monotonic()
    reps = 500
    hits = sum(_fan_out(_coverage_hits, [(rep,) for rep in range(reps)], JOBS).values())
    coverage = hits / reps
    elapsed = time.monotonic() - t0
    ok = bool(np.all((coverage >= 0.92) & (coverage <= 0.975))) and elapsed < 600.0
    report(7, ok, f"coverage per group {np.round(coverage, 3).tolist()}, {elapsed:.0f}s")


def test_08_second_stage_small_sample_tradeoff():
    """Efficient group estimates win from n=500 on; weighting-only wins at n=100.

    The efficient second stage pays for its bias correction with
    nuisance-estimation noise, so at n=100 the pure inverse-propensity
    estimator has lower mean MSE, while from n=500 the ordering flips.
    """
    def group_cfg(estimator):
        return GroupConfig(n_groups=5, first_stage="plugin",
                           second_stage_estimator=estimator,
                           if_config=CV_KERNEL_IF)

    exp = ExperimentConfig(
        experiment_id="second-stage-tradeoff",
        dgp=Dgp1dConfig(propensity="strong_selection"),
        methods=(
            MethodSpec(name="eif", kind="group_if_learner", if_config=CV_KERNEL_IF,
                       group=group_cfg("eif"), use_known_propensity=True),
            MethodSpec(name="ht", kind="group_if_learner", if_config=CV_KERNEL_IF,
                       group=group_cfg("ht"), use_known_propensity=True),
        ),
        n_grid=(100, 500, 1000, 2000),
        replications=200,
        seed=2,
    )
    table = run_replications(exp, jobs=JOBS)
    mse = {(r.method, r.n): r.mean_mse for r in table.rows}

    small_ok = mse[("ht", 100)] < mse[("eif", 100)]
    large_ok = all(mse[("eif", n)] < mse[("ht", n)] for n in (500, 1000, 2000))
    pairs = {n: (round(mse[("eif", n)], 4), round(mse[("ht", n)], 4))
             for n in exp.n_grid}
    ok = small_ok and large_ok
    report(8, ok, f"mean MSE (eif, ht) by n: {pairs}")


def test_09_dgp_calibration():
    """Generator self-checks: weight density, noise curve, assignment rates."""
    integral, _ = quad(beta24_density, 0.0, 1.0)
    density_ok = abs(integral - 1.0) <= 1e-6

    s = sample_1d(Dgp1dConfig(propensity="constant_half", n=100_000, seed=901))
    x = s.dataset.X[:, 0]
    resid = s.dataset.y - np.where(s.dataset.w == 1.0, s.true_mu1, s.true_mu0)
    noise_dev = 0.0
    for x0 in (0.0, 0.5):
        window = np.abs(x - x0) <= 0.05
        emp = float(resid[window].var(ddof=1))
        noise_dev = max(noise_dev, abs(emp - float(noise_variance_1d(x0))))
    noise_ok = noise_dev < 0.02

    half_dev = abs(s.dataset.w.mean() - 0.5)
    half_ok = half_dev < 3.0 * np.sqrt(0.25 / s.n)

    s2 = sample_1d(Dgp1dConfig(propensity="strong_selection", n=100_000, seed=902))
    x2 = s2.dataset.X[:, 0]
    sel_ok = True
    for side, p in ((x2 > 0, 0.9), (x2 <= 0, 0.1)):
        emp = s2.dataset.w[side].mean()
        sel_ok &= abs(emp - p) < 3.0 * np.sqrt(p * (1 - p) / side.sum())

    s3 = sample_10d(Dgp10dConfig(confounded=True, n=100_000, seed=903))
    conf_ok = (
        abs(s3.dataset.w.mean() - 0.5) < 3.0 * np.sqrt(0.25 / s3.n)
        and s3.true_pi.min() >= 0.25
        and s3.true_pi.max() <= 0.77734375
    )
    grid = np.linspace(0.0, 1.0, 1001)
    xi_ok = bool(np.all(xi(grid) > 1.0) and np.all(xi(grid) < 2.0))

    ok = density_ok and noise_ok and half_ok and sel_ok and conf_ok and xi_ok
    report(9, ok, f"weight-density dev {abs(integral - 1.0):.1e}, "
                  f"noise-curve dev {noise_dev:.4f}, assignment rates in band")


def test_10_simulation_csv_determinism(tmp_path):
    """Same config, same seed: byte-identical CSVs, serial or 4 workers."""
    config = {
        "experiment_id": "determinism",
        "dgp": {"kind": "1d", "propensity": "constant_half"},
        "methods": [
            {
                "name": "if",
                "kind": "if_learner",
                "use_known_propensity": True,
                "if_config": {
                    "crossfit": {
                        "outcome_spec": {"kind": "knn", "k": 5},
                        "propensity_spec": {"kind": "mean"},
                        "n_folds": 2,
                    },
                    "second_stage": {"kind": "knn", "k": 5},
                },
            },
            {
                "name": "grp",
                "kind": "group_if_learner",
                "use_known_propensity": True,
                "if_config": {
                    "crossfit": {
                        "outcome_spec": {"kind": "kernel", "bandwidth": 0.25},
                        "propensity_spec": {"kind": "mean"},
                        "n_folds": 2,
                    },
                    "second_stage": {"kind": "kernel", "bandwidth": 0.25},
                },
                "group": {"n_groups": 3, "first_stage": "plugin"},
            },
        ],
        "n_grid": [160],
        "replications": 3,
        "seed": 10,
        "n_test": 120,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        code = cli_main([
            "simulate", "--config", str(cfg_path), "--out", str(out),
            "--jobs", jobs,
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    report(10, ok, f"3 runs (jobs 1/1/4) produced identical {len(outputs[0])}-byte CSVs")
