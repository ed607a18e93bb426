"""Two-stage target-function estimation.

First stage: cross-fitted nuisance estimates feed a pseudo-outcome
constructor, giving one unbiased-ish signal D per row.  Second stage:
a plain regression of D on the covariates.  The result is a queryable
model of the target function (treatment effect, risk ratio, MAR mean,
...) that corrects the plug-in bias of naively contrasting fitted
regressions.

Also here: the infeasible oracle variant (true nuisance functions
plugged in, no cross-fitting) used to benchmark how much the feasible
pipeline loses, and the plug-in baseline that skips bias correction
entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .config import FromDict
from .crossfit import (
    CrossfitConfig,
    arm_rows,
    crossfit_nuisances,
    evaluate_nuisance,
    fit_nuisance,
    known_pi_values,
)
from .data import Dataset, NuisanceEstimates
from .errors import EstimationError
from .learners import FittedModel, LearnerSpec, fit_learner
from .pseudo import NUISANCES, TARGET_TABLE, PseudoOutcomeSpec, build_pseudo_outcomes

__all__ = [
    "IFLearnerConfig",
    "TrueNuisances",
    "fit_if_learner",
    "fit_oracle_learner",
    "fit_plugin_learner",
    "config_digest",
]


def config_digest(cfg) -> str:
    """Stable sha256 hex digest of a (possibly nested) config dataclass."""
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        payload = dataclasses.asdict(cfg)
    else:
        payload = cfg
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class IFLearnerConfig(FromDict):
    """Everything one two-stage fit needs.

    ``seed`` drives only the second-stage fit; nuisance randomness
    (fold draws, per-fold learner seeds) is governed by
    ``crossfit.seed``.  ``pseudo`` owns the clip floors and the
    binary-outcome mode for both stages.
    """

    crossfit: CrossfitConfig = field(default_factory=CrossfitConfig)
    pseudo: PseudoOutcomeSpec = field(default_factory=PseudoOutcomeSpec)
    second_stage: LearnerSpec = field(default_factory=LearnerSpec)
    seed: int = 0

    def reseeded(self, seed: int, crossfit_seed: int) -> "IFLearnerConfig":
        """This config with its second-stage and cross-fitting seeds replaced."""
        crossfit = dataclasses.replace(self.crossfit, seed=crossfit_seed)
        return dataclasses.replace(self, seed=seed, crossfit=crossfit)


@dataclass(frozen=True)
class TrueNuisances:
    """Ground-truth nuisance functions (or precomputed per-row arrays).

    Each field may be a callable applied row-wise to a covariate
    vector, a scalar, or an array aligned with the dataset.  Only the
    fields the target reads are evaluated; for missing-data targets
    ``mu1`` holds the observed-outcome regression and ``mu0`` is unused.
    """

    mu0: object = 0.0
    mu1: object = 0.0
    pi: object = 0.5

    def as_estimates(self, data: Dataset, pseudo: PseudoOutcomeSpec):
        values = {"pi_hat": known_pi_values(data, self.pi, pseudo)}
        for m in NUISANCES[pseudo.target]:
            if m != "pi":
                value = getattr(self, m)
                values[f"{m}_hat"] = evaluate_nuisance(data, value, f"true {m}")
        return NuisanceEstimates(**values)


def _provenance(cfg, data: Dataset, target: str, variant: str, seed: int) -> dict:
    return {
        "variant": variant,
        "target": target,
        "config_hash": config_digest(cfg),
        "n": data.n,
        "d": data.d,
        "seed": seed,
        "stream_version": rngmod.STREAM_VERSION,
    }


def _second_stage(cfg: IFLearnerConfig, data: Dataset, d: np.ndarray, variant: str):
    model = fit_learner(cfg.second_stage, data.X, d, seed=cfg.seed)
    model.provenance = _provenance(cfg, data, cfg.pseudo.target, variant, cfg.seed)
    return model


def fit_if_learner(
    data: Dataset,
    cfg: IFLearnerConfig,
    known_propensity=None,
) -> FittedModel:
    """Cross-fit nuisances, build pseudo-outcomes, regress them on X.

    A target that reads no nuisances (``regression_mean``) has y itself
    as its pseudo-outcome, so the whole pipeline collapses to fitting
    the second stage directly on (X, y); no nuisance models are touched.

    ``known_propensity`` bypasses propensity estimation (designs where
    assignment probabilities are known).
    """
    nuis = None
    if NUISANCES[cfg.pseudo.target]:
        if data.n < 2 * cfg.crossfit.n_folds:
            raise EstimationError(
                f"insufficient data: n={data.n} with {cfg.crossfit.n_folds} folds "
                "(need n >= 2K)"
            )
        nuis = crossfit_nuisances(
            data, cfg.crossfit, cfg.pseudo, known_propensity=known_propensity
        )
    d = build_pseudo_outcomes(data, nuis, cfg.pseudo)
    return _second_stage(cfg, data, d, "if_learner")


def fit_oracle_learner(
    data: Dataset,
    true_nuisances: TrueNuisances,
    pseudo: PseudoOutcomeSpec,
    second_stage: LearnerSpec,
    seed: int = 0,
) -> FittedModel:
    """Infeasible benchmark: exact nuisances, no cross-fitting.

    The second-stage regression sees the true per-row signal
    D built from the real nuisance functions, so its error is purely
    second-stage regression error.
    """
    cfg = IFLearnerConfig(pseudo=pseudo, second_stage=second_stage, seed=seed)
    d = build_pseudo_outcomes(data, true_nuisances.as_estimates(data, pseudo), pseudo)
    return _second_stage(cfg, data, d, "oracle")


class _FunctionalOfArms(FittedModel):
    """The plug-in functional of arm-wise fits keyed by the signal's slot.

    Without a functional the model is the lone ``mu1`` fit.
    """

    def __init__(self, arms: dict, functional=lambda mu1: mu1):
        self.arms = arms
        self._functional = functional
        self.n_features = arms["mu1"].n_features

    def combine(self, values: dict) -> np.ndarray:
        return np.asarray(self._functional(**values), dtype=float)

    def predict(self, Xq) -> np.ndarray:
        return self.combine({name: arm.predict(Xq) for name, arm in self.arms.items()})


def fit_plugin_learner(data: Dataset, cfg: IFLearnerConfig) -> FittedModel:
    """Uncorrected baseline: contrast (or ratio) of arm-wise fits.

    Fits the outcome learner separately on each arm's rows (all of
    them, no fold splitting: there is no pseudo-outcome reuse to
    protect against) and combines pointwise predictions with the
    target functional.  For missing-data and plain-regression targets
    this degenerates to a single regression fit.
    """
    target = TARGET_TABLE[cfg.pseudo.target]
    cf = cfg.crossfit

    def fit_arm(tag):
        seed = rngmod.derive_seed(cfg.seed, "plugin", tag)
        w = data.require_indicator(f"target {cfg.pseudo.target!r}")
        rows = arm_rows(tag, w, np.arange(data.n))
        return fit_nuisance(tag, data, rows, cf, cfg.pseudo, seed, "the plug-in fit")

    if not target.nuisances:
        seed = rngmod.derive_seed(cfg.seed, "plugin", "all")
        model = fit_learner(cf.outcome_spec, data.X, data.y, seed=seed)
    elif target.plugin is None:
        model = _FunctionalOfArms({"mu1": fit_arm("mu")})
    else:
        arms = {"mu0": fit_arm("mu0"), "mu1": fit_arm("mu1")}
        model = _FunctionalOfArms(arms, target.plugin)
    model.provenance = _provenance(cfg, data, cfg.pseudo.target, "plugin", cfg.seed)
    return model
