"""Influence-function pseudo-outcome regression and group-wise inference.

The package is organized around a two-stage recipe: estimate nuisance
functions (outcome regressions, propensity scores) with cross-fitting,
form efficient-influence-function pseudo-outcomes, then regress the
pseudo-outcomes on covariates or summarize them over score-ranked groups.

Entry points:

- :func:`fit_if_learner` / :func:`fit_plugin_learner` for function-valued
  targets,
- :func:`fit_group_learner` for group-wise estimates with confidence
  intervals,
- :mod:`pseudolearn.simulate` for benchmark data generators and the
  replication harness,
- ``pseudolearn`` (console script) for the command-line interface.
"""

from .crossfit import (
    CrossfitConfig,
    crossfit_nuisances,
    evaluate_propensity,
    oob_nuisances,
)
from .data import (
    ColumnMap,
    Dataset,
    FoldAssignment,
    NuisanceEstimates,
    load_csv,
    make_folds,
)
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    ParseError,
    PseudolearnError,
    SchemaError,
)
from .grouplearner import (
    GroupConfig,
    GroupEstimates,
    fit_group_learner,
    group_efficient_estimate,
)
from .iflearner import (
    IFLearnerConfig,
    TrueNuisances,
    config_digest,
    fit_if_learner,
    fit_oracle_learner,
    fit_plugin_learner,
)
from .learners import FittedModel, LearnerSpec, fit_learner, fit_probability
from .pseudo import (
    PseudoOutcomeSpec,
    aipw_pseudo,
    build_pseudo_outcomes,
    ht_pseudo,
    mar_pseudo,
    plugin_cate,
    rr_pseudo,
    transform_pseudo,
)
from .rng import derive_seed, stream

__version__ = "0.1.0"

__all__ = [
    "ColumnMap",
    "ConfigError",
    "CrossfitConfig",
    "Dataset",
    "DomainError",
    "EstimationError",
    "FittedModel",
    "FoldAssignment",
    "GroupConfig",
    "GroupEstimates",
    "IFLearnerConfig",
    "LearnerSpec",
    "NuisanceEstimates",
    "ParseError",
    "PseudoOutcomeSpec",
    "PseudolearnError",
    "SchemaError",
    "TrueNuisances",
    "aipw_pseudo",
    "build_pseudo_outcomes",
    "config_digest",
    "crossfit_nuisances",
    "derive_seed",
    "evaluate_propensity",
    "fit_group_learner",
    "fit_if_learner",
    "fit_learner",
    "fit_oracle_learner",
    "fit_plugin_learner",
    "fit_probability",
    "group_efficient_estimate",
    "ht_pseudo",
    "load_csv",
    "make_folds",
    "mar_pseudo",
    "oob_nuisances",
    "plugin_cate",
    "rr_pseudo",
    "stream",
    "transform_pseudo",
    "__version__",
]
