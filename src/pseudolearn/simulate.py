"""Synthetic benchmark generators and the replication harness.

Two families of data: a one-dimensional design with a piecewise
polynomial baseline, heteroskedastic noise, and three selection
regimes (randomized, strong threshold selection, hidden selection fed
to the learner as if randomized); and a ten-dimensional uniform design
with optional confounding through a beta-density propensity and a
menu of treatment effect surfaces.  Each sample carries its true arm
means and assignment probabilities so estimators can be scored
against ground truth.

The harness runs seeded replications over a grid of sample sizes,
scores every method on a fresh test draw, discards replications where
any method's MSE explodes past a cap, and reports per-method mean MSE
with standard errors.  Replications are independent derived streams,
so results do not depend on worker scheduling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .config import FromDict, count_at_least, one_of
from .data import (
    Dataset, all_finite, all_probabilities, read_only_copy, scalar_or_array, write_csv
)
from .errors import ConfigError, DomainError, EstimationError, SchemaError
from .grouplearner import GroupConfig, fit_group_learner
from .iflearner import (
    IFLearnerConfig,
    TrueNuisances,
    fit_if_learner,
    fit_oracle_learner,
    fit_plugin_learner,
)
from .pseudo import CONTRAST_TARGETS

__all__ = [
    "Dgp1dConfig",
    "Dgp10dConfig",
    "LabeledSample",
    "ExperimentConfig",
    "MethodSpec",
    "ResultRow",
    "ResultTable",
    "mu0_piecewise",
    "noise_variance_1d",
    "propensity_1d",
    "xi",
    "expit",
    "beta24_density",
    "sample_1d",
    "sample_10d",
    "sample",
    "evaluate_mse",
    "run_replications",
    "summarize_replications",
    "keep_mask",
    "DISCARD_MSE_ABOVE",
    "RR_EVAL_MIN_P",
    "SCORED_TARGETS",
    "BINARY_P_LO",
    "BINARY_P_HI",
]

PROPENSITY_MODES_1D = ("constant_half", "strong_selection", "hidden_selection")
EFFECTS_10D = ("zero", "xi_product", "three_mu0", "mu0_xi_product")
METHOD_KINDS = ("plugin", "if_learner", "oracle", "group_if_learner")

# replications whose worst method MSE exceeds this are dropped for all
# methods, to keep a handful of boundary blow-ups from drowning the mean
DISCARD_MSE_ABOVE = 1000.0

# risk-ratio scoring skips test points whose true success probability in
# either arm falls below this; the true ratio is unstable there
RR_EVAL_MIN_P = 0.05

# the binary design divides the conditional mean by 1.5, which still
# leaves negative values on part of the support; success probabilities
# are clamped to this range
BINARY_P_LO = 0.01
BINARY_P_HI = 0.99


def mu0_piecewise(x):
    """Piecewise polynomial baseline on [-1, 1].

    0.5(x+2)^2 below -0.5, then x/2 - 0.875 up to 0, then
    -5(x-0.2)^2 + 1.075 up to 0.5, then x + 0.125.
    """
    x = np.asarray(x, dtype=float)
    out = np.select(
        [x <= -0.5, x <= 0.0, x <= 0.5],
        [0.5 * (x + 2.0) ** 2, x / 2.0 - 0.875, -5.0 * (x - 0.2) ** 2 + 1.075],
        default=x + 0.125,
    )
    return scalar_or_array(out)


def noise_variance_1d(x):
    """Heteroskedastic noise variance 0.2 - 0.1 cos(2 pi x)."""
    x = np.asarray(x, dtype=float)
    out = 0.2 - 0.1 * np.cos(2.0 * np.pi * x)
    return scalar_or_array(out)


def propensity_1d(x, mode: str, b: float = 0.0):
    """Assignment probability for the one-dimensional designs."""
    one_of("propensity_1d.mode", mode, PROPENSITY_MODES_1D)
    x = np.asarray(x, dtype=float)
    if mode == "constant_half":
        out = np.full(x.shape, 0.5)
    elif mode == "strong_selection":
        out = 0.1 + 0.8 * (x > 0.0)
    else:
        if not 0.0 <= b < 1.0:
            raise ConfigError(f"hidden-selection strength b must be in [0, 1), got {b}")
        out = 0.5 + 0.5 * b * np.abs(x) / 2.0
    return scalar_or_array(out)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:  # where C's exp returns inf
        return math.inf


def expit(x):
    """Logistic 1 / (1 + exp(-x)), bit for bit ``scipy.special.expit``.

    The exponential is libm's (``math.exp``), as in scipy; numpy's
    vectorised ``exp`` rounds some values differently.
    """
    x = np.asarray(x, dtype=float)
    e = np.fromiter(map(_exp, np.negative(x).ravel().tolist()), float, x.size)
    return (1.0 / (1.0 + e.reshape(x.shape)))[()]


def xi(t):
    """Smooth step from 1 to 2, centered at 1/3."""
    t = np.asarray(t, dtype=float)
    out = 1.0 + expit(20.0 * (t - 1.0 / 3.0))
    return scalar_or_array(out)


def beta24_density(t):
    """Beta(2, 4) density, 20 t (1-t)^3 on [0, 1]."""
    t = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t)
    outside = (flat < 0.0) | (flat > 1.0)
    if np.any(outside):
        raise DomainError(
            f"beta density argument outside [0, 1]: {float(flat[outside][0])}"
        )
    out = 20.0 * t * (1.0 - t) ** 3
    return scalar_or_array(out)


@dataclass(frozen=True)
class Dgp1dConfig(FromDict):
    """One-dimensional design: uniform covariate, zero treatment effect."""

    propensity: str = "constant_half"
    b: float = 0.0  # hidden-selection strength
    binary_outcome: bool = False
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        one_of("Dgp1dConfig.propensity", self.propensity, PROPENSITY_MODES_1D)
        if not 0.0 <= self.b < 1.0:
            raise ConfigError(f"b must be in [0, 1), got {self.b}")
        count_at_least("Dgp1dConfig.n", self.n, 1)


@dataclass(frozen=True)
class Dgp10dConfig(FromDict):
    """Ten-dimensional uniform design with optional confounding."""

    confounded: bool = False
    effect: str = "zero"
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        one_of("Dgp10dConfig.effect", self.effect, EFFECTS_10D)
        count_at_least("Dgp10dConfig.n", self.n, 1)


_DGP_KINDS = {"1d": Dgp1dConfig, "10d": Dgp10dConfig}


@dataclass(frozen=True)
class LabeledSample:
    """A drawn dataset plus the ground truth that generated it.

    ``true_pi`` is the probability actually used for assignment;
    ``nominal_pi`` is what an analyst would be told (these differ only
    under hidden selection, where the analyst is told 0.5).  In binary
    mode the arm means are the success probabilities.
    """

    dataset: Dataset
    true_mu0: np.ndarray
    true_mu1: np.ndarray
    true_pi: np.ndarray
    nominal_pi: np.ndarray
    binary_outcome: bool = False

    def __post_init__(self):
        n = self.dataset.n
        for name in ("true_mu0", "true_mu1", "true_pi", "nominal_pi"):
            arr = read_only_copy(getattr(self, name))
            if arr.shape != (n,):
                raise SchemaError(f"{name} must have shape ({n},), got {arr.shape}")
            (all_probabilities if name.endswith("_pi") else all_finite)(name, arr)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def true_tau(self) -> np.ndarray:
        return self.true_mu1 - self.true_mu0

    @property
    def true_rr(self) -> np.ndarray:
        if not self.binary_outcome:
            raise ConfigError("risk ratios are defined in binary-outcome mode only")
        return self.true_mu1 / self.true_mu0


def sample_1d(cfg: Dgp1dConfig) -> LabeledSample:
    """Draw one dataset from the one-dimensional design."""
    n = cfg.n
    x = rngmod.stream(cfg.seed, "dgp1d", "x").uniform(-1.0, 1.0, size=n)
    true_pi = np.asarray(propensity_1d(x, cfg.propensity, cfg.b))
    if cfg.propensity == "hidden_selection":
        nominal_pi = np.full(n, 0.5)
    else:
        nominal_pi = true_pi
    w = (rngmod.stream(cfg.seed, "dgp1d", "w").uniform(size=n) < true_pi).astype(int)
    mu0 = np.asarray(mu0_piecewise(x))
    tau = np.zeros(n)
    ry = rngmod.stream(cfg.seed, "dgp1d", "y")
    if cfg.binary_outcome:
        p0 = np.clip(mu0 / 1.5, BINARY_P_LO, BINARY_P_HI)
        p1 = np.clip((tau + mu0) / 1.5, BINARY_P_LO, BINARY_P_HI)
        p = np.where(w == 1, p1, p0)
        y = (ry.uniform(size=n) < p).astype(float)
        mu0_out, mu1_out = p0, p1
    else:
        sigma = np.sqrt(np.asarray(noise_variance_1d(x)))
        y = w * tau + mu0 + rngmod.normal(ry, size=n, scale=sigma)
        mu0_out, mu1_out = mu0, mu0 + tau
    return LabeledSample(
        dataset=Dataset(x.reshape(-1, 1), y, w),
        true_mu0=mu0_out,
        true_mu1=mu1_out,
        true_pi=true_pi,
        nominal_pi=nominal_pi,
        binary_outcome=cfg.binary_outcome,
    )


def _effect_10d(X: np.ndarray, mu0: np.ndarray, effect: str) -> np.ndarray:
    if effect == "zero":
        return np.zeros(X.shape[0])
    if effect == "xi_product":
        return xi(X[:, 0]) * xi(X[:, 1])
    if effect == "three_mu0":
        return 3.0 * mu0
    return mu0 * xi(X[:, 0]) * xi(X[:, 1])


def sample_10d(cfg: Dgp10dConfig) -> LabeledSample:
    """Draw one dataset from the ten-dimensional design."""
    n = cfg.n
    X = rngmod.stream(cfg.seed, "dgp10d", "x").uniform(size=(n, 10))
    if cfg.confounded:
        mu0 = 2.0 * X[:, 2] - 1.0
        pi = 0.25 * (beta24_density(X[:, 2]) + 1.0)
    else:
        mu0 = np.zeros(n)
        pi = np.full(n, 0.5)
    tau = _effect_10d(X, mu0, cfg.effect)
    w = (rngmod.stream(cfg.seed, "dgp10d", "w").uniform(size=n) < pi).astype(int)
    eps = rngmod.normal(rngmod.stream(cfg.seed, "dgp10d", "y"), size=n)
    y = w * tau + mu0 + eps
    return LabeledSample(
        dataset=Dataset(X, y, w),
        true_mu0=mu0,
        true_mu1=mu0 + tau,
        true_pi=pi,
        nominal_pi=pi,
    )


def sample(cfg) -> LabeledSample:
    """Dispatch on the design config type."""
    if isinstance(cfg, Dgp1dConfig):
        return sample_1d(cfg)
    if isinstance(cfg, Dgp10dConfig):
        return sample_10d(cfg)
    raise ConfigError(f"not a design config: {type(cfg).__name__}")


# the targets evaluate_mse has ground truth for
SCORED_TARGETS = CONTRAST_TARGETS + ("risk_ratio",)


def evaluate_mse(model, test: LabeledSample) -> float:
    """Mean squared error of a fitted model against the sample's truth.

    The model's recorded target decides which ground-truth column to
    score against.  Risk-ratio scoring drops test rows where either
    true arm probability is below ``RR_EVAL_MIN_P``.
    """
    preds = np.asarray(model.predict(test.dataset.X), dtype=float)
    if preds.shape != (test.n,):
        raise SchemaError(
            f"model produced {preds.shape} predictions for {test.n} test rows"
        )
    target = getattr(model, "provenance", {}).get("target", "cate_aipw")
    if target not in SCORED_TARGETS:
        raise ConfigError(f"no ground truth available for target {target!r}")
    if target in CONTRAST_TARGETS:
        truth = test.true_tau
    else:
        truth = test.true_rr
        mask = (test.true_mu0 >= RR_EVAL_MIN_P) & (test.true_mu1 >= RR_EVAL_MIN_P)
        if not np.any(mask):
            raise EstimationError(
                "no evaluable test rows: every point has an arm probability "
                f"below {RR_EVAL_MIN_P}"
            )
        preds, truth = preds[mask], truth[mask]
    return float(np.mean((preds - truth) ** 2))


@dataclass(frozen=True)
class MethodSpec(FromDict):
    """One estimator entry in an experiment.

    For ``group_if_learner`` the grouping settings live in ``group``;
    its embedded estimator config must equal ``if_config`` apart from
    the seeds, which the harness rewrites per replication.
    """

    name: str
    kind: str
    if_config: IFLearnerConfig = field(default_factory=IFLearnerConfig)
    group: GroupConfig | None = None
    use_known_propensity: bool = False

    def __post_init__(self):
        if not self.name:
            raise ConfigError("method name must be non-empty")
        one_of("MethodSpec.kind", self.kind, METHOD_KINDS)
        if self.kind == "group_if_learner" and self.group is None:
            raise ConfigError(f"method {self.name!r} needs grouping settings")
        unseeded = self.if_config.reseeded(0, 0)
        if self.group is not None and self.group.if_config.reseeded(0, 0) != unseeded:
            raise ConfigError(
                f"method {self.name!r}: group.if_config differs from if_config; "
                "the group learner is fitted with if_config, so set it there"
            )

    @classmethod
    def _normalize(cls, d: dict) -> dict:
        group = d.get("group")
        if isinstance(group, dict) and "if_config" not in group:
            d["group"] = {**group, "if_config": d.get("if_config", IFLearnerConfig())}
        return d


@dataclass(frozen=True)
class ExperimentConfig(FromDict):
    """A full simulation experiment: design, methods, sizes, seeds."""

    experiment_id: str
    dgp: object  # Dgp1dConfig | Dgp10dConfig
    methods: tuple[MethodSpec, ...]
    n_grid: tuple[int, ...]
    replications: int
    seed: int = 0
    n_test: int = 1000

    def __post_init__(self):
        if not self.experiment_id:
            raise ConfigError("experiment_id must be non-empty")
        if not isinstance(self.dgp, (Dgp1dConfig, Dgp10dConfig)):
            raise ConfigError(f"not a design config: {type(self.dgp).__name__}")
        object.__setattr__(self, "methods", tuple(self.methods))
        sizes = [count_at_least("ExperimentConfig.n_grid", n, 1) for n in self.n_grid]
        object.__setattr__(self, "n_grid", tuple(sizes))
        if not self.methods:
            raise ConfigError("at least one method is required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"method names must be unique, got {names}")
        if not self.n_grid:
            raise ConfigError("n_grid must be non-empty")
        count_at_least("ExperimentConfig.replications", self.replications, 1)
        count_at_least("ExperimentConfig.n_test", self.n_test, 1)
        for m in self.methods:
            target = m.if_config.pseudo.target
            if target not in SCORED_TARGETS:
                raise ConfigError(
                    f"method {m.name!r}: simulate cannot score target {target!r}; "
                    f"expected one of {SCORED_TARGETS}"
                )
            binary = getattr(self.dgp, "binary_outcome", False)
            if target == "risk_ratio" and not binary:
                raise ConfigError(
                    f"method {m.name!r}: simulate cannot score risk_ratio "
                    "on a design without binary outcomes"
                )

    @classmethod
    def _normalize(cls, d: dict) -> dict:
        dgp = d.get("dgp")
        if isinstance(dgp, dict):
            dgp = dict(dgp)
            kind = dgp.pop("kind", None)
            if not isinstance(kind, str) or kind not in _DGP_KINDS:
                raise ConfigError(f"dgp.kind must be '1d' or '10d', got {kind!r}")
            d["dgp"] = _DGP_KINDS[kind].from_dict(dgp)
        return d


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    method: str
    n: int
    replications_kept: int
    mean_mse: float
    se_mse: float


@dataclass(frozen=True)
class ResultTable:
    """Aggregated experiment results, one row per (method, n)."""

    rows: tuple[ResultRow, ...]

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["experiment_id", "method", "n", "replications_kept",
             "mean_mse", "se_mse"],
            (dataclasses.astuple(r) for r in self.rows),
        )


def _reseeded_method(m: MethodSpec, exp: ExperimentConfig, n: int, rep: int) -> MethodSpec:
    """Give every random component its own replication-specific stream."""
    base = (exp.seed, exp.experiment_id, n, rep, m.name)
    icfg = m.if_config.reseeded(
        rngmod.derive_seed(*base, "stage2"), rngmod.derive_seed(*base, "crossfit")
    )
    group = m.group
    if group is not None:
        group = dataclasses.replace(
            group, seed=rngmod.derive_seed(*base, "split"), if_config=icfg
        )
    return dataclasses.replace(m, if_config=icfg, group=group)


def _fit_method(m: MethodSpec, train: LabeledSample):
    known = train.nominal_pi if m.use_known_propensity else None
    if m.kind == "plugin":
        return fit_plugin_learner(train.dataset, m.if_config)
    if m.kind == "if_learner":
        return fit_if_learner(train.dataset, m.if_config, known_propensity=known)
    if m.kind == "oracle":
        truth = TrueNuisances(
            mu0=train.true_mu0, mu1=train.true_mu1, pi=train.true_pi
        )
        return fit_oracle_learner(
            train.dataset,
            truth,
            m.if_config.pseudo,
            m.if_config.second_stage,
            seed=m.if_config.seed,
        )
    return fit_group_learner(train.dataset, m.group, known_propensity=known)


def _run_one(exp: ExperimentConfig, n: int, rep: int) -> dict[str, float]:
    """Fit and score every method on one replication's train/test draw."""
    train = sample(
        dataclasses.replace(
            exp.dgp, n=n,
            seed=rngmod.derive_seed(exp.seed, exp.experiment_id, n, rep, "train"),
        )
    )
    test = sample(
        dataclasses.replace(
            exp.dgp, n=exp.n_test,
            seed=rngmod.derive_seed(exp.seed, exp.experiment_id, n, rep, "test"),
        )
    )
    out = {}
    for m in exp.methods:
        try:
            model = _fit_method(_reseeded_method(m, exp, n, rep), train)
            out[m.name] = evaluate_mse(model, test)
        except EstimationError as e:
            raise EstimationError(
                f"replication {rep} of method {m.name!r} at n={n}: {e}"
            ) from e
    return out


def keep_mask(per_rep_rows: list[dict[str, float]]) -> np.ndarray:
    """True for replications kept; any method past the cap or non-finite drops the row."""
    # NaN fails every comparison, so a NaN MSE drops its row too
    return np.array(
        [all(v <= DISCARD_MSE_ABOVE for v in row.values()) for row in per_rep_rows],
        dtype=bool,
    )


def summarize_replications(
    experiment_id: str,
    method_names: list[str],
    n: int,
    per_rep_rows: list[dict[str, float]],
) -> list[ResultRow]:
    """Aggregate one sample size's replication MSEs into result rows."""
    keep = keep_mask(per_rep_rows)
    kept = int(keep.sum())
    if kept == 0:
        raise EstimationError(
            f"degenerate experiment: every replication at n={n} exceeded "
            f"MSE {DISCARD_MSE_ABOVE}"
        )
    rows = []
    for name in method_names:
        vals = np.array(
            [row[name] for row, k in zip(per_rep_rows, keep) if k], dtype=float
        )
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(kept)) if kept > 1 else 0.0
        rows.append(ResultRow(experiment_id, name, n, kept, mean, se))
    return rows


def run_replications(exp: ExperimentConfig, R: int | None = None, jobs: int = 1) -> ResultTable:
    """Run the full grid of (n, replication) fits and aggregate.

    ``jobs`` > 1 fans replications out to worker processes, at most one
    per (n, replication) task; results are keyed by replication index, so
    the table is identical for any job count.
    """
    R = exp.replications if R is None else count_at_least("run_replications.R", R, 1)
    count_at_least("run_replications.jobs", jobs, 1)
    tasks = [(n, rep) for n in exp.n_grid for rep in range(R)]
    workers = min(jobs, len(tasks))
    if workers == 1:
        results = {t: _run_one(exp, *t) for t in tasks}
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {t: pool.submit(_run_one, exp, *t) for t in tasks}
            results = {t: f.result() for t, f in futures.items()}
    names = [m.name for m in exp.methods]
    rows: list[ResultRow] = []
    for n in exp.n_grid:
        per_rep = [results[(n, rep)] for rep in range(R)]
        rows.extend(summarize_replications(exp.experiment_id, names, n, per_rep))
    return ResultTable(rows=tuple(rows))
