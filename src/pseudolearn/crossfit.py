"""K-fold cross-fitting of nuisance models.

Produces strictly out-of-fold predictions: every row's nuisance values
come from models that never saw that row.  Arm-conditional outcome
models are fitted on one arm's rows only; the propensity model is
fitted on all training rows with the indicator as target.

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
from .config import FromDict
from .data import Dataset, FoldAssignment, NuisanceEstimates, make_folds
from .errors import ConfigError, DomainError, EstimationError, SchemaError
from .learners import FittedModel, LearnerSpec, fit_learner, fit_probability
from .pseudo import PseudoOutcomeSpec

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
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {self.n_folds}")


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
    need = {"knn": spec.k, "forest": spec.min_leaf}.get(spec.kind, 1)
    if rows.size < need:
        what = "degenerate arm" if rows.size == 0 else "too few rows"
        raise EstimationError(
            f"{what}: {name} in {where} has {rows.size} training row(s); "
            f"{spec.kind} needs at least {need}"
        )
    X = data.X[rows]
    if name == "pi":
        w = data.w[rows].astype(float)
        return fit_probability(spec, X, w, seed=seed, clip=pseudo.eps_clip)
    if pseudo.binary_outcome:
        return fit_probability(spec, X, data.y[rows], seed=seed, clip=pseudo.p_clip)
    return fit_learner(spec, X, data.y[rows], seed=seed)


def evaluate_nuisance(data: Dataset, value, name: str) -> np.ndarray:
    """Per-row values of a nuisance given as a scalar, an array or a callable.

    An array must have one entry per row; a callable is applied to each
    covariate row, or to all rows at once through its ``on_rows(X)``
    method when it has one.
    """
    if callable(value):
        on_rows = getattr(value, "on_rows", None)
        if on_rows is not None:
            return on_rows(data.X)
        return np.asarray([float(value(x)) for x in data.X])
    if np.isscalar(value):
        return np.full(data.n, float(value))
    vals = np.asarray(value, dtype=float).ravel()
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
    if not np.all(np.isfinite(vals)):
        raise DomainError("known propensity produced a non-finite value")
    if np.any(vals <= 0.0) or np.any(vals >= 1.0):
        bad = float(vals[np.argmax((vals <= 0.0) | (vals >= 1.0))])
        raise DomainError(
            f"known propensity produced {bad}, outside the open interval (0, 1)"
        )
    return np.clip(vals, eps_clip, 1.0 - eps_clip)


def _arms_ok(fold_of: np.ndarray, w: np.ndarray, n_folds: int) -> bool:
    # every training complement must contain both arms
    for k in range(n_folds):
        train_w = w[fold_of != k]
        if train_w.size == 0 or train_w.min() == 1 or train_w.max() == 0:
            return False
    return True


def _draw_folds(data: Dataset, cfg: CrossfitConfig) -> FoldAssignment:
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
        With ``fold_of`` and per-fold ``train_rows`` provenance filled
        in.
    """
    if data.w is None:
        raise SchemaError("cross-fitting needs a treatment/observation indicator")
    w = data.w
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

    mu0_hat = np.empty(n)
    mu1_hat = np.empty(n)
    if known_propensity is None:
        pi_hat = np.empty(n)
    else:
        pi_hat = evaluate_propensity(data, known_propensity, pseudo.eps_clip)
    train_rows = []
    for k in range(cfg.n_folds):
        test = folds.rows_in_fold(k)
        train = folds.train_rows(k)
        train_rows.append(train)
        fits = [
            ("mu0", mu0_hat, train[w[train] == 0]),
            ("mu1", mu1_hat, train[w[train] == 1]),
        ]
        if known_propensity is None:
            fits.append(("pi", pi_hat, train))
        for name, out, rows in fits:
            seed = rngmod.derive_seed(cfg.seed, name, k)
            model = fit_nuisance(name, data, rows, cfg, pseudo, seed, f"fold {k}")
            out[test] = model.predict(data.X[test])
            if instrument is not None:
                instrument(name, k, rows, test)

    return NuisanceEstimates(
        mu0_hat=mu0_hat,
        mu1_hat=mu1_hat,
        pi_hat=pi_hat,
        fold_of=folds.fold_of,
        train_rows=tuple(train_rows),
    )


def oob_nuisances(
    data: Dataset,
    cfg: CrossfitConfig,
    pseudo: PseudoOutcomeSpec = _DEFAULT_PSEUDO,
    known_propensity=None,
) -> NuisanceEstimates:
    """Out-of-bag alternative to fold splitting, for forest nuisances.

    Each arm's outcome forest predicts its own training rows out-of-bag
    and the opposite arm's rows with the full forest; the propensity
    forest predicts every row out-of-bag.  No fold provenance applies.
    """
    if data.w is None:
        raise SchemaError("out-of-bag nuisances need an indicator column")
    if cfg.outcome_spec.kind != "forest":
        raise ConfigError("oob_nuisances requires a forest outcome_spec")
    if known_propensity is None and cfg.propensity_spec.kind != "forest":
        raise ConfigError("oob_nuisances requires a forest propensity_spec")
    w = data.w
    n = data.n
    if w.sum() in (0, n):
        raise EstimationError("degenerate arm: all rows share one indicator value")

    def fit(name, rows):
        seed = rngmod.derive_seed(cfg.seed, name)
        return fit_nuisance(name, data, rows, cfg, pseudo, seed, "the out-of-bag fit")

    rows0 = np.flatnonzero(w == 0)
    rows1 = np.flatnonzero(w == 1)
    mu = {}
    for name, own, other in (("mu0", rows0, rows1), ("mu1", rows1, rows0)):
        m = fit(name, own)
        mu[name] = np.empty(n)
        mu[name][own] = m.predict_oob()
        mu[name][other] = m.predict(data.X[other])

    if known_propensity is not None:
        pi_hat = evaluate_propensity(data, known_propensity, pseudo.eps_clip)
    else:
        pi_hat = fit("pi", np.arange(n)).predict_oob()

    return NuisanceEstimates(mu0_hat=mu["mu0"], mu1_hat=mu["mu1"], pi_hat=pi_hat)
