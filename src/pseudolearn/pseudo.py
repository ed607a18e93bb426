"""Pseudo-outcome constructors from uncentered efficient influence functions.

The two-stage estimators in this package regress a per-observation
signal D on the covariates.  For each supported target functional this
module builds that signal: an unbiased-given-true-nuisances transform
of (y, w, nuisance values) whose conditional expectation at x equals
the target.  Plug-in baselines live here too so comparisons share one
code path.

Every constructor is a pure total function of its arguments and
broadcasts over numpy arrays.  Range protection (clipping propensities
and binary-outcome means away from 0 and 1) is the nuisance layer's
job; the constructors only refuse values that would divide by zero,
while :func:`build_pseudo_outcomes` enforces the configured floors.

Centered potential-outcome influence terms used throughout:

    IF_mu1 = (w / pi) * (y - mu1)
    IF_mu0 = ((1 - w) / (1 - pi)) * (y - mu0)

A differentiable functional f(mu0, mu1) then has the uncentered signal
``IF_mu0 * df/dmu0 + IF_mu1 * df/dmu1 + f(mu0, mu1)`` (delta method on
the per-arm means); the treatment-effect and ratio constructors below
are all instances of this chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import FromDict, one_of, open_interval
from .data import (
    EPS_CLIP_DEFAULT, P_CLIP_DEFAULT, Dataset, NuisanceEstimates, all_between,
    all_binary, all_finite, all_numbers, all_probabilities, read_only_copy,
    scalar_or_array,
)
from .errors import ConfigError, SchemaError

__all__ = [
    "Target",
    "TARGET_TABLE",
    "TARGETS",
    "NUISANCES",
    "CONTRAST_TARGETS",
    "PseudoOutcomeSpec",
    "aipw_pseudo",
    "ht_pseudo",
    "plugin_cate",
    "rr_pseudo",
    "transform_pseudo",
    "mar_pseudo",
    "build_pseudo_outcomes",
    "risk_ratio_value",
    "risk_ratio_partials",
    "odds_ratio_value",
    "odds_ratio_partials",
]

@dataclass(frozen=True)
class PseudoOutcomeSpec(FromDict):
    """Selects the target functional; sole owner of the clip floors and binary mode.

    The first stage clips fitted propensities to ``eps_clip`` and, with
    ``binary_outcome``, fitted arm means to ``p_clip``;
    :func:`build_pseudo_outcomes` checks that they arrived clipped.
    """

    target: str = "cate_aipw"
    eps_clip: float = EPS_CLIP_DEFAULT
    p_clip: float = P_CLIP_DEFAULT
    binary_outcome: bool = False

    def __post_init__(self):
        one_of("PseudoOutcomeSpec.target", self.target, TARGETS)
        open_interval("PseudoOutcomeSpec.eps_clip", self.eps_clip, 0, 0.5)
        open_interval("PseudoOutcomeSpec.p_clip", self.p_clip, 0, 0.5)
        if TARGET_TABLE[self.target].binary and not self.binary_outcome:
            raise ConfigError(
                f"target {self.target!r} is only defined for binary outcomes; "
                "set binary_outcome=True"
            )


def _prep(**arrays):
    """Each named array as floats; an entry that is not a real number is refused."""
    return [all_numbers(name, a) for name, a in arrays.items()]


def ht_pseudo(y, w, pi):
    """Inverse-propensity contrast signal (w/pi - (1-w)/(1-pi)) * y.

    Unbiased for the treatment contrast at x when ``pi`` is the true
    propensity, but ignores the outcome regressions entirely, so its
    variance blows up as pi nears 0 or 1.
    """
    all_binary("w", w)
    y, w, pi = _prep(y=y, w=w, pi=pi)
    all_probabilities("pi", pi)
    return scalar_or_array((w / pi - (1.0 - w) / (1.0 - pi)) * y)


def plugin_cate(mu0, mu1):
    """Plug-in contrast mu1 - mu0; no bias correction."""
    mu0, mu1 = _prep(mu0=mu0, mu1=mu1)
    return scalar_or_array(mu1 - mu0)


def aipw_pseudo(y, w, pi, mu0, mu1):
    """Doubly robust treatment-effect signal.

    The plug-in contrast plus inverse-propensity-weighted residuals:
    correct if either the outcome means or the propensity are correct,
    and conditionally unbiased for mu1(x) - mu0(x) under the truth.
    """
    all_binary("w", w)
    y, w, pi, mu0, mu1 = _prep(y=y, w=w, pi=pi, mu0=mu0, mu1=mu1)
    all_probabilities("pi", pi)
    out = (
        (mu1 - mu0)
        + (w / pi) * (y - mu1)
        - ((1.0 - w) / (1.0 - pi)) * (y - mu0)
    )
    return scalar_or_array(out)


def rr_pseudo(y, w, pi, mu0, mu1, mu0_floor: float = P_CLIP_DEFAULT):
    """Risk-ratio signal: delta-method correction of mu1/mu0.

    Requires ``mu0 >= mu0_floor`` because mu0 appears squared in a
    denominator; binary-outcome clipping guarantees the floor upstream.
    """
    all_between("rr_pseudo mu0 (divided by mu0^2)", mu0, mu0_floor, np.inf)
    return _chain_rule(risk_ratio_value, risk_ratio_partials)(y, w, pi, mu0, mu1)


def transform_pseudo(y, w, pi, mu0, mu1, df_dmu0, df_dmu1, f):
    """Signal for an arbitrary smooth functional f(mu0, mu1).

    ``f``, ``df_dmu0`` and ``df_dmu1`` are callables evaluated at the
    plugged-in (mu0, mu1); the chain rule combines the per-arm
    influence terms with those partials and re-adds f itself.
    """
    all_binary("w", w)
    y, w, pi, mu0, mu1 = _prep(y=y, w=w, pi=pi, mu0=mu0, mu1=mu1)
    all_probabilities("pi", pi)
    at = {}
    for name, fn in (("df_dmu0", df_dmu0), ("df_dmu1", df_dmu1), ("f", f)):
        at[name] = all_numbers(f"{name} at (mu0, mu1)", fn(mu0, mu1))
        all_finite(f"{name} at (mu0, mu1)", at[name])
    g0, g1, f0 = at.values()
    if_mu1 = (w / pi) * (y - mu1)
    if_mu0 = ((1.0 - w) / (1.0 - pi)) * (y - mu0)
    return scalar_or_array(if_mu0 * g0 + if_mu1 * g1 + f0)


def mar_pseudo(y, a, pi, mu):
    """Missing-at-random mean signal D = (a/pi) * (y - mu) + mu.

    Here ``a`` indicates an observed outcome, ``pi`` the observation
    probability given x and ``mu`` the regression among observed rows.
    When outcomes are missing at random, E[a(y - mu) | x] = 0 at the
    true nuisances, so E[D | x] recovers the complete-data mean E[y | x]
    while unobserved rows contribute their imputed ``mu``.  Double
    robustness: the conditional mean of D is correct if either ``pi``
    or ``mu`` is.  ``y`` on rows with a = 0 is multiplied by zero and
    never read.
    """
    all_binary("a", a)
    y, a, pi, mu = _prep(y=y, a=a, pi=pi, mu=mu)
    all_probabilities("pi", pi)
    return scalar_or_array((a / pi) * (y - mu) + mu)


def risk_ratio_value(mu0, mu1):
    mu0, mu1 = _prep(mu0=mu0, mu1=mu1)
    return scalar_or_array(mu1 / mu0)


def risk_ratio_partials(mu0, mu1):
    """(d/dmu0, d/dmu1) of mu1/mu0."""
    mu0, mu1 = _prep(mu0=mu0, mu1=mu1)
    return scalar_or_array(-mu1 / mu0**2), scalar_or_array(1.0 / mu0)


def odds_ratio_value(mu0, mu1):
    mu0, mu1 = _prep(mu0=mu0, mu1=mu1)
    return scalar_or_array((mu1 * (1.0 - mu0)) / ((1.0 - mu1) * mu0))


def odds_ratio_partials(mu0, mu1):
    """(d/dmu0, d/dmu1) of the odds ratio [mu1/(1-mu1)] / [mu0/(1-mu0)]."""
    mu0, mu1 = _prep(mu0=mu0, mu1=mu1)
    d0 = -mu1 / ((1.0 - mu1) * mu0**2)
    d1 = (1.0 - mu0) / ((1.0 - mu1) ** 2 * mu0)
    return scalar_or_array(d0), scalar_or_array(d1)


def _chain_rule(value, partials):
    """The signal of f = ``value`` with (df/dmu0, df/dmu1) = ``partials``."""

    def signal(y, w, pi, mu0, mu1):
        g0, g1 = partials(mu0, mu1)
        return transform_pseudo(y, w, pi, mu0, mu1, lambda *_: g0, lambda *_: g1, value)

    return signal


@dataclass(frozen=True)
class Target:
    """One target functional: what its signal reads and how it is built.

    ``signal(y, w, **values)`` builds D from the fitted values of
    ``nuisances`` (in fit order; mar_mean's observed-outcome regression
    sits in the mu1 slot).  A target that reads no nuisances has no
    signal: D is y itself.  ``plugin`` is the functional f(mu0, mu1) the
    plug-in baseline applies to two arm-wise fits; without one that
    baseline is a single regression.  A ``binary`` target is defined only
    for 0/1 outcomes.
    """

    nuisances: tuple[str, ...]
    signal: Callable | None = None
    plugin: Callable | None = None
    binary: bool = False


TARGET_TABLE = {
    "cate_aipw": Target(("mu0", "mu1", "pi"), aipw_pseudo, plugin_cate),
    "cate_ht": Target(("pi",), ht_pseudo, plugin_cate),
    "cate_plugin": Target(
        ("mu0", "mu1"), lambda y, w, mu0, mu1: plugin_cate(mu0, mu1), plugin_cate
    ),
    "risk_ratio": Target(
        ("mu0", "mu1", "pi"), _chain_rule(risk_ratio_value, risk_ratio_partials),
        risk_ratio_value, binary=True,
    ),
    "odds_ratio": Target(
        ("mu0", "mu1", "pi"), _chain_rule(odds_ratio_value, odds_ratio_partials),
        odds_ratio_value, binary=True,
    ),
    "mar_mean": Target(("mu1", "pi"), lambda y, a, mu1, pi: mar_pseudo(y, a, pi, mu1)),
    "regression_mean": Target(()),
}
NUISANCES = {name: t.nuisances for name, t in TARGET_TABLE.items()}
TARGETS = tuple(TARGET_TABLE)
# The targets whose plug-in is the treatment contrast mu1(x) - mu0(x).
CONTRAST_TARGETS = tuple(k for k, t in TARGET_TABLE.items() if t.plugin is plugin_cate)


def build_pseudo_outcomes(
    data: Dataset,
    nuisances: NuisanceEstimates | None,
    spec: PseudoOutcomeSpec,
) -> np.ndarray:
    """Vectorised pseudo-outcome construction for a whole dataset: D, read-only.

    Reads the vectors ``NUISANCES`` lists for the target and enforces the
    clip floors on them (they are produced clipped; arriving outside the
    floor means a wiring bug) and the binary-outcome mode where needed.
    A target that reads no nuisances (``regression_mean``) passes y through.
    """
    target = TARGET_TABLE[spec.target]
    reads = target.nuisances
    if not reads:
        return read_only_copy(data.y)
    w = data.require_indicator(f"target {spec.target!r}")
    missing = [m for m in reads if getattr(nuisances, f"{m}_hat", None) is None]
    if missing:
        raise SchemaError(f"target {spec.target!r} needs nuisance estimates {missing}")
    if nuisances.n != data.n:
        raise SchemaError(
            f"nuisances cover {nuisances.n} rows, dataset has {data.n}"
        )
    if "pi" in reads:
        lo = spec.eps_clip
        all_between("clipped pi_hat", nuisances.pi_hat, lo, 1.0 - lo)
    if spec.binary_outcome:
        all_binary(f"y of binary-outcome target {spec.target!r}", data.y)
    if target.binary:
        lo = spec.p_clip
        for m, mu in (("mu0", nuisances.mu0_hat), ("mu1", nuisances.mu1_hat)):
            all_between(f"{m}_hat under the probability clip", mu, lo, 1.0 - lo)
    values = {m: getattr(nuisances, f"{m}_hat") for m in reads}
    d = read_only_copy(np.ravel(target.signal(data.y, w.astype(float), **values)))
    all_finite("pseudo-outcomes", d)
    return d
