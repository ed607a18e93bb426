"""K-fold cross-fitting of nuisance models.

Produces strictly out-of-fold predictions: every row's nuisance values
come from models that never saw that row, and only for the nuisances
the target reads (``pseudo.NUISANCES``).  Outcome models are fitted on
one arm's rows, the propensity on all training rows (:func:`arm_rows`).

The fold loop is deterministic given (data, config): fold draws and
per-fold learner seeds all derive from ``config.seed``, so the K fits
could run in any order or in parallel without changing the result.

Row-order sensitivity: with order-insensitive learners (knn, fixed
bandwidth kernel) the output is equivariant under row permutation once
the fold assignment is transported alongside.  Learners that consume
seeded randomness tied to row positions (forest subsampling, CV
bandwidth selection) do not have this property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .config import FromDict, count_at_least
from .data import (
    Dataset, FoldAssignment, NuisanceEstimates, all_numbers, all_probabilities, make_folds
)
from .errors import ConfigError, EstimationError, SchemaError
from .learners import FittedModel, LearnerSpec, fit_learner, fit_probability
from .pseudo import NUISANCES, PseudoOutcomeSpec

__all__ = [
    "CrossfitConfig",
    "crossfit_nuisances",
    "oob_nuisances",
    "evaluate_nuisance",
    "evaluate_propensity",
    "fit_nuisance",
]

# A violated fold draw (some training complement missing an arm) is
# redrawn with a fresh seed at most this many times before giving up.
MAX_FOLD_REDRAWS = 100

_DEFAULT_PSEUDO = PseudoOutcomeSpec()


@dataclass(frozen=True)
class CrossfitConfig(FromDict):
    """Settings for one cross-fitting pass.

    The clip floors and the binary-outcome mode belong to the
    :class:`PseudoOutcomeSpec` passed alongside.
    """

    outcome_spec: LearnerSpec = field(default_factory=LearnerSpec)
    propensity_spec: LearnerSpec = field(default_factory=LearnerSpec)
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        count_at_least("CrossfitConfig.n_folds", self.n_folds, 2)


def fit_nuisance(
    name: str,
    data: Dataset,
    rows: np.ndarray,
    cfg: CrossfitConfig,
    pseudo: PseudoOutcomeSpec,
    seed: int,
    where: str,
) -> FittedModel:
    """Fit one first-stage model on the given rows of ``data``.

    ``name`` ``"pi"`` fits the propensity (target w, clipped to
    ``pseudo.eps_clip``); any other name (``mu0``, ``mu1``, ``mu``)
    fits an outcome mean (target y, clipped to ``pseudo.p_clip`` in
    binary-outcome mode).  Too few rows for the learner (an empty arm,
    k-NN with k above the row count, a forest leaf larger than the
    sample) depends on the realised split, so it is an
    :class:`EstimationError` naming the nuisance and ``where`` it was fit.
    """
    spec = cfg.propensity_spec if name == "pi" else cfg.outcome_spec
    if rows.size < spec.min_rows:
        what = "degenerate arm" if rows.size == 0 else "too few rows"
        raise EstimationError(
            f"{what}: {name} in {where} has {rows.size} training row(s); "
            f"{spec.kind} needs at least {spec.min_rows}"
        )
    X = data.X[rows]
    if name == "pi":
        w = data.w[rows].astype(float)
        return fit_probability(spec, X, w, seed=seed, clip=pseudo.eps_clip)
    if pseudo.binary_outcome:
        return fit_probability(spec, X, data.y[rows], seed=seed, clip=pseudo.p_clip)
    return fit_learner(spec, X, data.y[rows], seed=seed)


def arm_rows(name: str, w: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Rows of ``pool`` to fit ``name`` on: all for pi, w = 0 for mu0, else w = 1."""
    if name == "pi":
        return pool
    return pool[w[pool] == (0 if name == "mu0" else 1)]


def fit_then_predict(
    data, train, test, cfg, pseudo, seed_of, where, given=None, instrument=None
) -> dict:
    """Fit the nuisances the target reads on ``train`` rows; predict ``test`` rows.

    Returns the predictions keyed by :class:`NuisanceEstimates` field.
    ``given`` maps a nuisance to its values at the ``test`` rows (a known
    pi, or predictions of this same fit), used instead of fitting it;
    ``instrument(name, rows)`` sees each model's training rows.
    """
    preds = {}
    for name in NUISANCES[pseudo.target]:
        if given and name in given:
            preds[f"{name}_hat"] = given[name]
            continue
        rows = arm_rows(name, data.w, train)
        model = fit_nuisance(name, data, rows, cfg, pseudo, seed_of(name), where)
        preds[f"{name}_hat"] = model.predict(data.X[test])
        if instrument is not None:
            instrument(name, rows)
    return preds


def known_pi_values(data: Dataset, known_propensity, pseudo: PseudoOutcomeSpec):
    """The known propensity's row values; None if absent or the target reads no pi."""
    if known_propensity is None or "pi" not in NUISANCES[pseudo.target]:
        return None
    return evaluate_propensity(data, known_propensity, pseudo.eps_clip)


def evaluate_nuisance(data: Dataset, value, name: str) -> np.ndarray:
    """Per-row values of a nuisance given as a scalar, an array or a callable.

    An array must have one entry per row; a callable is applied to each
    covariate row.  Every value must be a real number.
    """
    if callable(value):
        value = [value(x) for x in data.X]
    elif np.isscalar(value):
        value = np.full(data.n, value)
    vals = all_numbers(name, value).ravel()
    if vals.shape[0] != data.n:
        raise SchemaError(
            f"{name} array has length {vals.shape[0]}, expected {data.n}"
        )
    return vals


def evaluate_propensity(data: Dataset, pi_fn, eps_clip: float) -> np.ndarray:
    """Per-row values of a known propensity, validated then clipped.

    ``pi_fn`` may be a scalar, an array of length n, or a callable
    (see :func:`evaluate_nuisance`).  Values must lie strictly inside
    (0, 1) before clipping; anything else is an overlap violation.
    """
    vals = evaluate_nuisance(data, pi_fn, "propensity")
    all_probabilities("known propensity", vals)
    return np.clip(vals, eps_clip, 1.0 - eps_clip)


def _arms_ok(fold_of: np.ndarray, w: np.ndarray, n_folds: int) -> bool:
    # every training complement must contain both arms
    for k in range(n_folds):
        train_w = w[fold_of != k]
        if train_w.size == 0 or train_w.min() == 1 or train_w.max() == 0:
            return False
    return True


def _draw_folds(data: Dataset, cfg: CrossfitConfig) -> FoldAssignment:
    if data.n < cfg.n_folds:  # the realised n, so not a ConfigError
        raise EstimationError(
            f"insufficient data: n={data.n} with {cfg.n_folds} folds (need n >= K)"
        )
    for attempt in range(MAX_FOLD_REDRAWS + 1):
        fa = make_folds(
            data.n, cfg.n_folds, seed=rngmod.derive_seed(cfg.seed, "folds", attempt)
        )
        if _arms_ok(fa.fold_of, data.w, cfg.n_folds):
            return fa
    raise EstimationError(
        f"degenerate arm: some treatment arm is missing from a training "
        f"complement in every of {MAX_FOLD_REDRAWS + 1} fold draws"
    )


def crossfit_nuisances(
    data: Dataset,
    cfg: CrossfitConfig,
    pseudo: PseudoOutcomeSpec = _DEFAULT_PSEUDO,
    folds: FoldAssignment | None = None,
    known_propensity=None,
    instrument=None,
) -> NuisanceEstimates:
    """First stage: out-of-fold nuisance predictions for every row.

    Parameters
    ----------
    data : Dataset
        Must carry a 0/1 indicator column.
    cfg : CrossfitConfig
    pseudo : PseudoOutcomeSpec
        Supplies the clip floors and the binary-outcome mode.
    folds : FoldAssignment, optional
        Injected fold assignment (no redrawing happens for injected
        folds; a degenerate arm errors immediately).
    known_propensity : scalar, array or callable, optional
        Bypasses propensity fitting; see :func:`evaluate_propensity`.
    instrument : callable, optional
        Called as ``instrument(name, fold, train_rows, predict_rows)``
        for every model fit, exposing training-row identifiers so fold
        hygiene can be audited externally.

    Returns
    -------
    NuisanceEstimates
        With ``fold_of`` filled in.
    """
    w = data.require_indicator("cross-fitting")
    n = data.n
    if w.sum() in (0, n):
        raise EstimationError(
            "degenerate arm: all rows share one indicator value"
        )
    if folds is None:
        folds = _draw_folds(data, cfg)
    else:
        if folds.n != n:
            raise SchemaError(
                f"fold assignment covers {folds.n} rows, dataset has {n}"
            )
        if folds.n_folds != cfg.n_folds:
            raise ConfigError(
                f"fold assignment has {folds.n_folds} folds, config says {cfg.n_folds}"
            )
        if not _arms_ok(folds.fold_of, w, cfg.n_folds):
            raise EstimationError(
                "degenerate arm: injected folds leave a training complement "
                "without one arm"
            )

    known = known_pi_values(data, known_propensity, pseudo)
    out = {f"{name}_hat": np.empty(n) for name in NUISANCES[pseudo.target]}
    for k in range(cfg.n_folds):
        test = folds.rows_in_fold(k)
        hook = instrument and (lambda name, rows: instrument(name, k, rows, test))
        given = None if known is None else {"pi": known[test]}
        preds = fit_then_predict(
            data, folds.train_rows(k), test, cfg, pseudo,
            seed_of=lambda name: rngmod.derive_seed(cfg.seed, name, k),
            where=f"fold {k}", given=given, instrument=hook,
        )
        for key, values in preds.items():
            out[key][test] = values

    return NuisanceEstimates(**out, fold_of=folds.fold_of)


def oob_nuisances(
    data: Dataset,
    cfg: CrossfitConfig,
    pseudo: PseudoOutcomeSpec = _DEFAULT_PSEUDO,
    known_propensity=None,
) -> NuisanceEstimates:
    """Out-of-bag alternative to fold splitting; every nuisance it fits is a forest.

    Each arm's outcome forest predicts its own training rows out-of-bag
    and the opposite arm's rows with the full forest; the propensity
    forest predicts every row out-of-bag.  No fold provenance applies.
    """
    w = data.require_indicator("the out-of-bag fit")
    reads = NUISANCES[pseudo.target]
    if {"mu0", "mu1"} & set(reads) and cfg.outcome_spec.kind != "forest":
        raise ConfigError("oob_nuisances requires a forest outcome_spec")
    if "pi" in reads and known_propensity is None and cfg.propensity_spec.kind != "forest":
        raise ConfigError("oob_nuisances requires a forest propensity_spec")
    n = data.n
    if w.sum() in (0, n):
        raise EstimationError("degenerate arm: all rows share one indicator value")

    known = known_pi_values(data, known_propensity, pseudo)
    out = {"pi_hat": known}
    for name in reads:
        if name == "pi" and known is not None:
            continue
        own = arm_rows(name, w, np.arange(n))
        other = np.setdiff1d(np.arange(n), own)
        seed = rngmod.derive_seed(cfg.seed, name)
        model = fit_nuisance(name, data, own, cfg, pseudo, seed, "the out-of-bag fit")
        values = out[f"{name}_hat"] = np.empty(n)
        values[own] = model.predict_oob()
        values[other] = model.predict(data.X[other])
    return NuisanceEstimates(**out)
