"""Group-wise target inference after quantile binning.

The data are split into an auxiliary half and an estimation half.
The auxiliary half trains a scoring model (a plug-in contrast or the
bias-corrected two-stage learner) plus fresh nuisance fits; the
estimation half is sorted into quantile groups of the score, and each
group receives an efficient (or Horvitz-Thompson) average of its
pseudo-outcomes, an unbiased variance for that average, and a
symmetric confidence interval.

Every quantity entering a group average comes from models fit on the
disjoint auxiliary half, so within-group inference needs no further
correction for adaptivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .config import FromDict, count_at_least, one_of, open_interval
from .crossfit import fit_then_predict, known_pi_values
from .data import (
    Dataset, NuisanceEstimates, all_finite, all_numbers, read_only_copy, write_csv
)
from .errors import ConfigError, EstimationError, SchemaError
from .iflearner import (
    IFLearnerConfig,
    _provenance,
    fit_if_learner,
    fit_plugin_learner,
)
from .pseudo import CONTRAST_TARGETS, build_pseudo_outcomes

__all__ = [
    "GroupConfig",
    "GroupEstimates",
    "fit_group_learner",
    "group_efficient_estimate",
]

FIRST_STAGES = ("plugin", "if_learner")
SECOND_STAGE_ESTIMATORS = ("eif", "ht")


@dataclass(frozen=True)
class GroupConfig(FromDict):
    """Settings for one group-wise inference fit.

    ``seed`` governs the auxiliary/estimation split and the auxiliary
    nuisance fits; the first-stage scoring model draws its randomness
    from ``if_config`` as usual.
    """

    n_groups: int = 5
    split_fraction: float = 0.5  # share of rows in the auxiliary half
    first_stage: str = "if_learner"
    second_stage_estimator: str = "eif"
    ci_level: float = 0.95
    if_config: IFLearnerConfig = field(default_factory=IFLearnerConfig)
    use_t_intervals: bool = False
    seed: int = 0

    def __post_init__(self):
        count_at_least("GroupConfig.n_groups", self.n_groups, 2)
        open_interval("GroupConfig.split_fraction", self.split_fraction, 0, 1)
        one_of("GroupConfig.first_stage", self.first_stage, FIRST_STAGES)
        estimator = self.second_stage_estimator
        one_of("GroupConfig.second_stage_estimator", estimator, SECOND_STAGE_ESTIMATORS)
        open_interval("GroupConfig.ci_level", self.ci_level, 0, 1)
        if (
            self.second_stage_estimator == "ht"
            and self.if_config.pseudo.target not in CONTRAST_TARGETS
        ):
            raise ConfigError(
                "Horvitz-Thompson group averages are defined for treatment "
                f"contrasts only, not target {self.if_config.pseudo.target!r}"
            )

    def reseeded(self, seed: int, stage2: int, crossfit: int) -> "GroupConfig":
        """This config with its split, second-stage and cross-fitting seeds replaced."""
        return replace(self, seed=seed, if_config=self.if_config.reseeded(stage2, crossfit))


def group_efficient_estimate(values) -> tuple[float, float]:
    """Mean and unbiased variance-of-the-mean of one group's signals.

    The variance is 1/(n (n-1)) * sum((d - mean)^2), undefined below
    two rows.
    """
    v = all_numbers("group pseudo-outcomes", values).ravel()
    n = v.size
    if n < 2:
        raise EstimationError(
            f"variance undefined: group has {n} row(s), needs at least 2"
        )
    all_finite("group pseudo-outcomes", v)
    psi = float(v.mean())
    var = float(np.sum((v - psi) ** 2) / (n * (n - 1)))
    return psi, var


def _critical_values(cfg: GroupConfig, n_g: np.ndarray) -> np.ndarray:
    if cfg.use_t_intervals:
        from scipy.special import stdtrit  # stats.t.ppf(q, df) is stdtrit(df, q)
        return stdtrit(n_g - 1, 1.0 - (1.0 - cfg.ci_level) / 2.0)
    z = float(rngmod.ndtri((1.0 + cfg.ci_level) / 2.0))
    return np.full(n_g.shape, z)


@dataclass(frozen=True)
class GroupEstimates:
    """Per-group targets with variances and confidence intervals.

    ``cutpoints`` separate the groups: the empirical score quantiles,
    merged where tied scores left a group with fewer than 2 rows (see
    ``_group_cutpoints``).  A score exactly equal to a cutpoint belongs
    to the lower group.  Arrays are index-aligned, one entry per group.
    """

    cutpoints: np.ndarray
    psi_hat: np.ndarray
    var_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_g: np.ndarray
    ci_level: float = 0.95
    provenance: dict = field(default_factory=dict, compare=False)
    scorer: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("cutpoints", "psi_hat", "var_hat", "ci_lo", "ci_hi"):
            arr = read_only_copy(getattr(self, name))
            all_finite(name, arr)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_g", read_only_copy(self.n_g, np.int64))
        g = self.psi_hat.size
        if g < 1 or self.cutpoints.size != g - 1:
            raise SchemaError(
                f"{g} groups need {g - 1} cutpoints, got {self.cutpoints.size}"
            )
        for name in ("var_hat", "ci_lo", "ci_hi", "n_g"):
            if getattr(self, name).size != g:
                raise SchemaError(f"{name} must have one entry per group")
        if np.any(np.diff(self.cutpoints) < 0):
            raise SchemaError("cutpoints must be nondecreasing")
        if np.any(self.var_hat < 0):
            raise SchemaError("variance estimates must be nonnegative")
        if np.any(self.ci_lo > self.psi_hat) or np.any(self.ci_hi < self.psi_hat):
            raise SchemaError("intervals must bracket their point estimates")
        if np.any(self.n_g < 1):
            raise SchemaError("every group must contain at least one row")

    @property
    def n_groups(self) -> int:
        return int(self.psi_hat.size)

    def assign(self, scores) -> np.ndarray:
        """Group index for each score; ties at a cutpoint go low, NaN goes last."""
        return np.searchsorted(self.cutpoints, all_numbers("scores", scores), side="left")

    def predict(self, Xq) -> np.ndarray:
        """Step-function estimate: score, bin, return the group mean."""
        if self.scorer is None:
            raise ConfigError(
                "no first-stage model attached; only estimates produced by "
                "fit_group_learner can score new points"
            )
        return self.psi_hat[self.assign(self.scorer.predict(Xq))]

    def to_csv(self, path) -> None:
        """One row per group: g, n_g, psi_hat, var_hat, ci_lo, ci_hi."""
        write_csv(
            path,
            ["g", "n_g", "psi_hat", "var_hat", "ci_lo", "ci_hi"],
            (
                [g + 1, int(self.n_g[g]), self.psi_hat[g], self.var_hat[g],
                 self.ci_lo[g], self.ci_hi[g]]
                for g in range(self.n_groups)
            ),
        )


def _group_cutpoints(scores, G: int) -> np.ndarray:
    """Score quantile cutpoints, merged until every group has 2+ rows.

    The plain split at the G-quantiles is kept whenever each of its G
    groups has at least 2 rows.  Tied scores (from step-function
    learners) can make cutpoints coincide or leave a group too small;
    then the first such group merges into its smaller neighbour (the
    lower one on a tie) by dropping the cutpoint between them, until
    every group has 2+ rows.  If that leaves a single group, the most
    balanced split into two groups of 2+ rows is used instead; with no
    such split the grouping fails.
    """
    n = scores.size
    cuts = np.quantile(scores, np.arange(1, G) / G)
    first_small = None
    while cuts.size:
        counts = np.bincount(
            np.searchsorted(cuts, scores, side="left"), minlength=cuts.size + 1
        )
        small = np.flatnonzero(counts < 2)
        if small.size == 0:
            return cuts
        g = int(small[0])
        if first_small is None:
            first_small = (g, int(counts[g]))
        lower = g == cuts.size or (g > 0 and counts[g - 1] <= counts[g + 1])
        cuts = np.delete(cuts, g - 1 if lower else g)
    values, tally = np.unique(scores, return_counts=True)
    if values.size == 1:
        raise EstimationError(
            f"grouping degenerate: the scorer predicted one value "
            f"({values[0]:.6g}) for all {n} estimation rows, so no two groups "
            "can be formed (a forest whose structure half has fewer than "
            "2*min_leaf rows never splits and predicts one value)"
        )
    below = np.cumsum(tally)[:-1]
    ok = (below >= 2) & (n - below >= 2)
    if not np.any(ok):
        g, count = first_small
        raise EstimationError(
            f"grouping degenerate: group {g + 1} of {G} has {count} row(s) "
            "after the quantile split, and no two groups of at least 2 rows "
            "can be formed from the scores"
        )
    best = int(np.argmin(np.where(ok, np.abs(2 * below - n), np.inf)))
    return values[best : best + 1]


def fit_group_learner(
    data: Dataset,
    cfg: GroupConfig,
    known_propensity=None,
) -> GroupEstimates:
    """Split, score, bin by score quantiles, and estimate per group.

    ``known_propensity`` may be a scalar, a callable of one covariate
    row, or an array aligned with the full dataset; it is evaluated
    before the auxiliary/estimation split.
    """
    data.require_indicator("group inference")
    n = data.n
    G = cfg.n_groups
    n_aux = int(round(cfg.split_fraction * n))
    n_est = n - n_aux
    if n_aux < 1 or n_est < 1:
        raise EstimationError(
            f"cannot split {n} rows into non-empty halves at "
            f"fraction {cfg.split_fraction}"
        )
    if n_est < 2 * G:
        raise EstimationError(
            f"grouping degenerate: estimation split has {n_est} rows, "
            f"needs at least 2 per group for {G} groups"
        )
    # the estimation half's signal: the target's own, or the
    # Horvitz-Thompson contrast, which reads only pi
    pseudo = cfg.if_config.pseudo
    if cfg.second_stage_estimator == "ht":
        pseudo = replace(pseudo, target="cate_ht")
    pi_full = known_pi_values(data, known_propensity, pseudo)
    perm = rngmod.stream(cfg.seed, "split").permutation(n)
    aux_rows = np.sort(perm[:n_aux])
    est_rows = np.sort(perm[n_aux:])
    aux = data.subset(aux_rows)
    est = data.subset(est_rows)

    given = {} if pi_full is None else {"pi": pi_full[est_rows]}
    if cfg.first_stage == "plugin":
        scorer = fit_plugin_learner(aux, cfg.if_config)
    else:
        known_aux = pi_full[aux_rows] if pi_full is not None else None
        scorer = fit_if_learner(aux, cfg.if_config, known_propensity=known_aux)
    # a plug-in scorer's arms are fit on the auxiliary arm rows, in order, with
    # the same spec and clip: if the fit reads no seed, it is fit_then_predict's
    arms = {name: arm.predict(est.X) for name, arm in getattr(scorer, "arms", {}).items()}
    scores = scorer.combine(arms) if arms else scorer.predict(est.X)
    if not cfg.if_config.crossfit.outcome_spec.reads_seed:
        given.update(arms)

    preds = fit_then_predict(
        data, aux_rows, est_rows, cfg.if_config.crossfit, pseudo,
        seed_of=lambda name: rngmod.derive_seed(cfg.seed, "nuisance", name),
        where="the auxiliary half", given=given,
    )
    d = build_pseudo_outcomes(est, NuisanceEstimates(**preds), pseudo)

    cutpoints = _group_cutpoints(scores, G)
    gidx = np.searchsorted(cutpoints, scores, side="left")
    counts = np.bincount(gidx, minlength=cutpoints.size + 1)
    n_realised = counts.size

    psi = np.empty(n_realised)
    var = np.empty(n_realised)
    for g in range(n_realised):
        psi[g], var[g] = group_efficient_estimate(d[gidx == g])
    crit = _critical_values(cfg, counts)
    half = crit * np.sqrt(var)
    provenance = _provenance(
        cfg, data, cfg.if_config.pseudo.target, "group_if_learner", cfg.seed
    )
    provenance.update(
        first_stage=cfg.first_stage,
        second_stage_estimator=cfg.second_stage_estimator,
        n_aux=int(n_aux),
        n_est=int(n_est),
        n_groups=int(n_realised),
        n_groups_requested=int(G),
        ci_level=float(cfg.ci_level),
        pseudo_mean=float(d.mean()),
    )
    return GroupEstimates(
        cutpoints=cutpoints,
        psi_hat=psi,
        var_hat=var,
        ci_lo=psi - half,
        ci_hi=psi + half,
        n_g=counts,
        ci_level=cfg.ci_level,
        provenance=provenance,
        scorer=scorer,
    )
