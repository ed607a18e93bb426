"""Pseudo-outcome constructors: hand values, Monte Carlo oracles, identities.

The Monte Carlo oracles use numpy's default generator (separate from
the package's stream plumbing on purpose: the oracle must not share
code with the thing under test) and check sample means against the
known functional value within three standard errors.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolearn import pseudo as pseudo_mod
from pseudolearn.data import Dataset, NuisanceEstimates
from pseudolearn.errors import ConfigError, DomainError, SchemaError
from pseudolearn.pseudo import (
    NUISANCES,
    TARGETS,
    PseudoOutcomeSpec,
    aipw_pseudo,
    build_pseudo_outcomes,
    ht_pseudo,
    mar_pseudo,
    odds_ratio_partials,
    odds_ratio_value,
    plugin_cate,
    risk_ratio_partials,
    risk_ratio_value,
    rr_pseudo,
    transform_pseudo,
)

N_MC = 100_000


def mc_check(draws, truth):
    se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
    assert abs(draws.mean() - truth) < 3.0 * se, (
        f"MC mean {draws.mean():.5f} vs truth {truth} (3se = {3 * se:.5f})"
    )


class TestAipw:
    def test_hand_values(self):
        assert aipw_pseudo(2.0, 1, 0.5, 0.0, 0.0) == pytest.approx(4.0)
        # y equal to mu1 on a treated row: residuals cancel entirely
        assert aipw_pseudo(3.0, 1, 0.5, 1.0, 3.0) == pytest.approx(2.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(aipw_pseudo(1.0, 1, 0.5, 0.0, 0.0), float)

    def test_mc_unbiased_true_nuisances(self):
        rng = np.random.default_rng(101)
        pi, mu0, mu1 = 0.3, 1.0, 2.0
        w = (rng.uniform(size=N_MC) < pi).astype(float)
        y = np.where(w == 1, mu1, mu0) + rng.normal(size=N_MC)
        mc_check(aipw_pseudo(y, w, pi, mu0, mu1), mu1 - mu0)

    def test_mc_double_robust_wrong_mu(self):
        # true propensity, wrong outcome means: still unbiased
        rng = np.random.default_rng(102)
        pi = 0.3
        w = (rng.uniform(size=N_MC) < pi).astype(float)
        y = np.where(w == 1, 2.0, 1.0) + rng.normal(size=N_MC)
        mc_check(aipw_pseudo(y, w, pi, -3.0, 0.7), 1.0)

    def test_mc_double_robust_wrong_pi(self):
        # true outcome means, wrong propensity: still unbiased
        rng = np.random.default_rng(103)
        w = (rng.uniform(size=N_MC) < 0.3).astype(float)
        y = np.where(w == 1, 2.0, 1.0) + rng.normal(size=N_MC)
        mc_check(aipw_pseudo(y, w, 0.6, 1.0, 2.0), 1.0)

    def test_collapse_identity(self):
        # expectation over w with y = mu_w plugged in is the plain contrast
        rng = np.random.default_rng(104)
        for _ in range(200):
            mu0, mu1 = rng.normal(size=2) * 5
            d1 = aipw_pseudo(mu1, 1, 0.5, mu0, mu1)
            d0 = aipw_pseudo(mu0, 0, 0.5, mu0, mu1)
            assert abs(0.5 * d1 + 0.5 * d0 - (mu1 - mu0)) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            aipw_pseudo(1.0, 2, 0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            aipw_pseudo(1.0, 1, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            aipw_pseudo(1.0, 0, 0.0, 0.0, 0.0)


class TestHt:
    def test_hand_values(self):
        assert ht_pseudo(1.0, 1, 0.25) == pytest.approx(4.0)
        assert ht_pseudo(1.0, 0, 0.25) == pytest.approx(-4.0 / 3.0)

    def test_mc_unbiased(self):
        rng = np.random.default_rng(105)
        pi, mu0, mu1 = 0.3, 1.0, 2.0
        w = (rng.uniform(size=N_MC) < pi).astype(float)
        y = np.where(w == 1, mu1, mu0) + rng.normal(size=N_MC)
        mc_check(ht_pseudo(y, w, pi), mu1 - mu0)


class TestPlugin:
    def test_hand_values(self):
        assert plugin_cate(1.0, 3.0) == pytest.approx(2.0)
        assert plugin_cate(7.7, 7.7) == 0.0

    def test_matches_aipw_when_y_equals_mu_w(self):
        rng = np.random.default_rng(106)
        n = 300
        mu0 = rng.normal(size=n)
        mu1 = rng.normal(size=n)
        w = rng.integers(0, 2, size=n).astype(float)
        y = np.where(w == 1, mu1, mu0)
        assert np.array_equal(
            aipw_pseudo(y, w, 0.5, mu0, mu1), plugin_cate(mu0, mu1)
        )


def _reference_rr_pseudo(y, w, pi, mu0, mu1):
    """The risk-ratio signal with the delta-method chain rule expanded by hand."""
    y, w, pi, mu0, mu1 = (np.asarray(a, dtype=float) for a in (y, w, pi, mu0, mu1))
    if_mu1 = (w / pi) * (y - mu1)
    if_mu0 = ((1.0 - w) / (1.0 - pi)) * (y - mu0)
    out = (1.0 / mu0) * if_mu1 - (mu1 / mu0**2) * if_mu0 + mu1 / mu0
    return out.item() if out.ndim == 0 else out


class TestRiskRatio:
    def test_residuals_vanish_on_treated_match(self):
        assert rr_pseudo(0.7, 1, 0.3, 0.35, 0.7) == pytest.approx(2.0)

    def test_hand_value(self):
        assert rr_pseudo(1.0, 1, 0.5, 0.5, 0.5) == pytest.approx(3.0)

    def test_mc_unbiased_bernoulli(self):
        rng = np.random.default_rng(107)
        pi, mu0, mu1 = 0.5, 0.4, 0.6
        w = (rng.uniform(size=N_MC) < pi).astype(float)
        p = np.where(w == 1, mu1, mu0)
        y = (rng.uniform(size=N_MC) < p).astype(float)
        mc_check(rr_pseudo(y, w, pi, mu0, mu1), 1.5)

    def test_mu0_floor_enforced(self):
        with pytest.raises(DomainError):
            rr_pseudo(1.0, 1, 0.5, 0.001, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 30), floor=st.floats(0.001, 0.4))
    def test_equals_hand_expanded_formula_bit_for_bit(self, data, n, floor):
        # n = 0 draws scalars; mu0 sits at the floor or above it, and w is
        # all 0, all 1 or mixed
        def draw(elements):
            if n == 0:
                return data.draw(elements)
            return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))

        mixed = st.sampled_from([0, 1])
        w = draw(data.draw(st.sampled_from([st.just(0), st.just(1), mixed])))
        y = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-5.0, 5.0)))
        pi = draw(st.floats(0.01, 0.99))
        mu0 = draw(st.one_of(st.just(floor), st.floats(floor, 1.0)))
        mu1 = draw(st.floats(0.001, 1.0))
        got = rr_pseudo(y, w, pi, mu0, mu1, mu0_floor=floor)
        want = _reference_rr_pseudo(y, w, pi, mu0, mu1)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_value_and_partials(self):
        assert risk_ratio_value(0.4, 0.6) == pytest.approx(1.5)
        d0, d1 = risk_ratio_partials(0.4, 0.6)
        assert d0 == pytest.approx(-0.6 / 0.16)
        assert d1 == pytest.approx(2.5)


class TestOddsRatio:
    def test_value(self):
        assert odds_ratio_value(0.4, 0.6) == pytest.approx(2.25)
        assert odds_ratio_value(0.5, 0.5) == pytest.approx(1.0)

    def test_partials_match_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(108)
        for _ in range(50):
            m0, m1 = rng.uniform(0.1, 0.9, size=2)
            d0, d1 = odds_ratio_partials(m0, m1)
            fd0 = (odds_ratio_value(m0 + h, m1) - odds_ratio_value(m0 - h, m1)) / (2 * h)
            fd1 = (odds_ratio_value(m0, m1 + h) - odds_ratio_value(m0, m1 - h)) / (2 * h)
            assert d0 == pytest.approx(fd0, rel=1e-5)
            assert d1 == pytest.approx(fd1, rel=1e-5)

    def test_mc_unbiased_bernoulli(self):
        rng = np.random.default_rng(109)
        pi, mu0, mu1 = 0.5, 0.4, 0.6
        w = (rng.uniform(size=N_MC) < pi).astype(float)
        p = np.where(w == 1, mu1, mu0)
        y = (rng.uniform(size=N_MC) < p).astype(float)
        d = transform_pseudo(
            y,
            w,
            pi,
            mu0,
            mu1,
            lambda a, b: odds_ratio_partials(a, b)[0],
            lambda a, b: odds_ratio_partials(a, b)[1],
            odds_ratio_value,
        )
        mc_check(d, 2.25)


class TestTransformChainRule:
    def random_inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        y = 3.0 * rng.normal(size=n)
        w = rng.integers(0, 2, size=n).astype(float)
        pi = rng.uniform(0.05, 0.95, size=n)
        mu0 = rng.uniform(0.1, 0.9, size=n)
        mu1 = rng.uniform(0.1, 0.9, size=n)
        return y, w, pi, mu0, mu1

    def test_difference_recovers_aipw(self):
        y, w, pi, mu0, mu1 = self.random_inputs(2000, 110)
        via_transform = transform_pseudo(
            y,
            w,
            pi,
            mu0,
            mu1,
            lambda a, b: np.full_like(a, -1.0),
            lambda a, b: np.full_like(a, 1.0),
            lambda a, b: b - a,
        )
        assert np.max(np.abs(via_transform - aipw_pseudo(y, w, pi, mu0, mu1))) < 1e-12

    def test_ratio_recovers_rr(self):
        y, w, pi, mu0, mu1 = self.random_inputs(2000, 111)
        via_transform = transform_pseudo(
            y,
            w,
            pi,
            mu0,
            mu1,
            lambda a, b: risk_ratio_partials(a, b)[0],
            lambda a, b: risk_ratio_partials(a, b)[1],
            risk_ratio_value,
        )
        assert np.max(np.abs(via_transform - rr_pseudo(y, w, pi, mu0, mu1))) < 1e-12

    def test_ratio_signal_evaluates_its_partials_once(self, monkeypatch):
        calls = []

        def counted(mu0, mu1):
            calls.append(None)
            return risk_ratio_partials(mu0, mu1)

        monkeypatch.setattr(pseudo_mod, "risk_ratio_partials", counted)
        y, w, pi, mu0, mu1 = self.random_inputs(50, 113)
        d = rr_pseudo(y, w, pi, mu0, mu1)
        assert len(calls) == 1
        via_transform = transform_pseudo(
            y, w, pi, mu0, mu1,
            lambda a, b: risk_ratio_partials(a, b)[0],
            lambda a, b: risk_ratio_partials(a, b)[1],
            risk_ratio_value,
        )
        assert np.array_equal(d, via_transform)

    def test_constant_functional(self):
        y, w, pi, mu0, mu1 = self.random_inputs(100, 112)
        d = transform_pseudo(
            y,
            w,
            pi,
            mu0,
            mu1,
            lambda a, b: np.zeros_like(a),
            lambda a, b: np.zeros_like(a),
            lambda a, b: np.full_like(a, 4.25),
        )
        assert np.all(d == 4.25)

    def test_nonfinite_partial_rejected(self):
        with pytest.raises(DomainError):
            transform_pseudo(
                1.0, 1, 0.5, 0.4, 0.6,
                lambda a, b: np.nan,
                lambda a, b: 1.0,
                lambda a, b: 1.0,
            )


class TestMar:
    def test_observed_row_near_passthrough(self):
        d = mar_pseudo(5.0, 1, 0.99, 0.0)
        assert d == pytest.approx(5.0 / 0.99)
        assert abs(d - 5.0) < 0.06

    def test_missing_row_imputes_mu(self):
        assert mar_pseudo(123.0, 0, 0.7, -2.5) == pytest.approx(-2.5)

    def test_mc_unbiased(self):
        rng = np.random.default_rng(113)
        pi = 0.7
        a = (rng.uniform(size=N_MC) < pi).astype(float)
        y = rng.normal(loc=2.0, size=N_MC)
        mc_check(mar_pseudo(y, a, pi, 2.0), 2.0)

    def test_mc_double_robust_wrong_mu(self):
        rng = np.random.default_rng(114)
        pi = 0.7
        a = (rng.uniform(size=N_MC) < pi).astype(float)
        y = rng.normal(loc=2.0, size=N_MC)
        mc_check(mar_pseudo(y, a, pi, 0.5), 2.0)


class TestSpecValidation:
    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            PseudoOutcomeSpec(target="cate")

    def test_ratio_targets_need_binary_mode(self):
        with pytest.raises(ConfigError):
            PseudoOutcomeSpec(target="risk_ratio")
        with pytest.raises(ConfigError):
            PseudoOutcomeSpec(target="odds_ratio", binary_outcome=False)
        PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True)

    def test_clip_ranges(self):
        with pytest.raises(ConfigError):
            PseudoOutcomeSpec(eps_clip=0.0)
        with pytest.raises(ConfigError):
            PseudoOutcomeSpec(p_clip=0.5)


class TestBuild:
    def hand_dataset(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([2.0, -1.0, 0.0])
        w = np.array([1, 0, 1])
        nuis = NuisanceEstimates(
            mu0_hat=np.array([0.5, -0.5, 0.2]),
            mu1_hat=np.array([1.5, 1.0, -0.4]),
            pi_hat=np.array([0.5, 0.25, 0.8]),
        )
        return Dataset(X, y, w), nuis

    def test_regression_mean_is_identity(self):
        ds = Dataset(np.zeros((3, 1)), [5.0, 6.0, 7.0])
        out = build_pseudo_outcomes(ds, None, PseudoOutcomeSpec(target="regression_mean"))
        assert np.array_equal(out, ds.y)

    def test_plugin_vectorizes(self):
        ds, nuis = self.hand_dataset()
        out = build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="cate_plugin"))
        assert np.allclose(out, nuis.mu1_hat - nuis.mu0_hat)

    def test_aipw_hand_triple(self):
        ds, nuis = self.hand_dataset()
        out = build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="cate_aipw"))
        assert np.allclose(out, [2.0, 13.0 / 6.0, -0.1], atol=1e-12)

    def test_ht_matches_scalar_constructor(self):
        ds, nuis = self.hand_dataset()
        out = build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="cate_ht"))
        assert np.array_equal(out, ht_pseudo(ds.y, ds.w.astype(float), nuis.pi_hat))

    def test_mar_uses_mu1_slot(self):
        ds, nuis = self.hand_dataset()
        out = build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="mar_mean"))
        expected = mar_pseudo(ds.y, ds.w.astype(float), nuis.pi_hat, nuis.mu1_hat)
        assert np.array_equal(out, expected)

    def binary_dataset(self, n=200, seed=115):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 1))
        w = rng.integers(0, 2, size=n)
        y = (rng.uniform(size=n) < 0.5).astype(float)
        nuis = NuisanceEstimates(
            mu0_hat=rng.uniform(0.2, 0.8, size=n),
            mu1_hat=rng.uniform(0.2, 0.8, size=n),
            pi_hat=rng.uniform(0.2, 0.8, size=n),
        )
        return Dataset(X, y, w), nuis

    def test_risk_and_odds_ratio_paths(self):
        ds, nuis = self.binary_dataset()
        rr_spec = PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True)
        rr = build_pseudo_outcomes(ds, nuis, rr_spec)
        direct = rr_pseudo(
            ds.y, ds.w.astype(float), nuis.pi_hat, nuis.mu0_hat, nuis.mu1_hat
        )
        assert np.allclose(rr, direct, atol=1e-12)

        or_spec = PseudoOutcomeSpec(target="odds_ratio", binary_outcome=True)
        odds = build_pseudo_outcomes(ds, nuis, or_spec)
        direct_or = transform_pseudo(
            ds.y,
            ds.w.astype(float),
            nuis.pi_hat,
            nuis.mu0_hat,
            nuis.mu1_hat,
            lambda a, b: odds_ratio_partials(a, b)[0],
            lambda a, b: odds_ratio_partials(a, b)[1],
            odds_ratio_value,
        )
        assert np.allclose(odds, direct_or, atol=1e-12)

    @pytest.mark.parametrize("target", TARGETS)
    def test_every_target_equals_its_constructor_bit_for_bit(self, target):
        ds, nuis = self.binary_dataset()
        y, w = ds.y, ds.w.astype(float)
        pi, mu0, mu1 = nuis.pi_hat, nuis.mu0_hat, nuis.mu1_hat
        public = {
            "cate_aipw": lambda: aipw_pseudo(y, w, pi, mu0, mu1),
            "cate_ht": lambda: ht_pseudo(y, w, pi),
            "cate_plugin": lambda: plugin_cate(mu0, mu1),
            "risk_ratio": lambda: rr_pseudo(y, w, pi, mu0, mu1),
            "odds_ratio": lambda: transform_pseudo(
                y, w, pi, mu0, mu1,
                lambda a, b: odds_ratio_partials(a, b)[0],
                lambda a, b: odds_ratio_partials(a, b)[1],
                odds_ratio_value,
            ),
            "mar_mean": lambda: mar_pseudo(y, w, pi, mu1),
            "regression_mean": lambda: y,
        }
        spec = PseudoOutcomeSpec(target=target, binary_outcome=True)
        got = build_pseudo_outcomes(ds, nuis, spec)
        assert got.tobytes() == np.asarray(public[target](), dtype=float).tobytes()

    @pytest.mark.parametrize("target", TARGETS)
    def test_signal_is_a_read_only_array(self, target):
        ds, nuis = self.binary_dataset()
        spec = PseudoOutcomeSpec(target=target, binary_outcome=True)
        d = build_pseudo_outcomes(ds, nuis, spec)
        assert type(d) is np.ndarray and d.shape == (ds.n,) and d.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            d[0] = 0.0

    def test_non_finite_signal_names_its_row(self):
        ds = Dataset(np.zeros((3, 1)), [0.0, 1e308, 0.0], [1, 1, 0])
        nuis = NuisanceEstimates(
            mu0_hat=np.zeros(3), mu1_hat=np.zeros(3), pi_hat=np.array([0.5, 0.01, 0.5])
        )
        spec = PseudoOutcomeSpec(target="cate_aipw")
        # 1e308 / 0.01 overflows to inf
        with np.errstate(over="ignore"), pytest.raises(
            DomainError, match="pseudo-outcomes must be finite; row 1 has inf$"
        ):
            build_pseudo_outcomes(ds, nuis, spec)

    def test_binary_mode_rejects_continuous_y(self):
        ds, nuis = self.hand_dataset()  # y is continuous
        spec = PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True)
        with pytest.raises(DomainError, match="must be 0 or 1; row 0 has 2.0$"):
            build_pseudo_outcomes(ds, nuis, spec)

    def test_unclipped_propensity_rejected(self):
        ds, _ = self.hand_dataset()
        nuis = NuisanceEstimates(
            mu0_hat=np.zeros(3), mu1_hat=np.zeros(3), pi_hat=np.array([0.5, 0.005, 0.5])
        )
        with pytest.raises(DomainError, match="clipped"):
            build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="cate_aipw"))

    def test_unclipped_binary_mean_rejected(self):
        rng = np.random.default_rng(116)
        n = 10
        ds = Dataset(
            rng.uniform(size=(n, 1)),
            (rng.uniform(size=n) < 0.5).astype(float),
            rng.integers(0, 2, size=n),
        )
        nuis = NuisanceEstimates(
            mu0_hat=np.full(n, 0.001),  # below the p_clip floor
            mu1_hat=np.full(n, 0.5),
            pi_hat=np.full(n, 0.5),
        )
        spec = PseudoOutcomeSpec(target="risk_ratio", binary_outcome=True)
        with pytest.raises(DomainError, match="probability clip"):
            build_pseudo_outcomes(ds, nuis, spec)

    def test_alignment_and_missing_pieces(self):
        ds, nuis = self.hand_dataset()
        short = NuisanceEstimates(
            mu0_hat=np.zeros(2), mu1_hat=np.zeros(2), pi_hat=np.full(2, 0.5)
        )
        with pytest.raises(SchemaError):
            build_pseudo_outcomes(ds, short, PseudoOutcomeSpec(target="cate_aipw"))
        with pytest.raises(SchemaError):
            build_pseudo_outcomes(ds, None, PseudoOutcomeSpec(target="cate_aipw"))
        no_w = Dataset(ds.X, ds.y)
        with pytest.raises(SchemaError):
            build_pseudo_outcomes(no_w, nuis, PseudoOutcomeSpec(target="cate_aipw"))

    def test_mean_of_pseudo_outcomes_is_debiased_estimate(self):
        # averaging the per-row signal reproduces the one-number
        # bias-corrected estimate computed the long way
        rng = np.random.default_rng(117)
        n = 500
        X = rng.uniform(size=(n, 1))
        w = rng.integers(0, 2, size=n)
        y = rng.normal(size=n) + w * 1.5
        ds = Dataset(X, y, w)
        nuis = NuisanceEstimates(
            mu0_hat=rng.normal(size=n),
            mu1_hat=rng.normal(size=n),
            pi_hat=rng.uniform(0.1, 0.9, size=n),
        )
        out = build_pseudo_outcomes(ds, nuis, PseudoOutcomeSpec(target="cate_aipw"))
        wf = w.astype(float)
        direct = (
            np.mean(nuis.mu1_hat - nuis.mu0_hat)
            + np.mean(wf * (y - nuis.mu1_hat) / nuis.pi_hat)
            - np.mean((1 - wf) * (y - nuis.mu0_hat) / (1 - nuis.pi_hat))
        )
        assert abs(out.mean() - direct) < 1e-12


def test_readme_target_table_lists_exactly_the_nuisances():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| target | nuisances fitted |"):].splitlines()
    listed = {}
    for line in lines[2:]:
        if not line.strip().startswith("|"):
            break
        targets, fitted = line.strip().strip("|").split("|")
        for target in re.findall(r"`(\w+)`", targets):
            listed[target] = tuple(re.findall(r"`(\w+)`", fitted))
    assert listed == NUISANCES
