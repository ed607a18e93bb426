"""The shared config loader behind every ``from_dict``."""

import dataclasses
import re

import numpy as np
import pytest

from pseudolearn.cli import FitFile
from pseudolearn.config import _type_hints
from pseudolearn.crossfit import CrossfitConfig
from pseudolearn.data import ColumnMap
from pseudolearn.errors import ConfigError
from pseudolearn.grouplearner import GroupConfig
from pseudolearn.iflearner import IFLearnerConfig
from pseudolearn.learners import LearnerSpec, fit_probability
from pseudolearn.pseudo import PseudoOutcomeSpec
from pseudolearn.simulate import (
    Dgp1dConfig,
    Dgp10dConfig,
    ExperimentConfig,
    MethodSpec,
    propensity_1d,
    run_replications,
)

CONFIG_CLASSES = [
    LearnerSpec,
    PseudoOutcomeSpec,
    CrossfitConfig,
    IFLearnerConfig,
    GroupConfig,
    ColumnMap,
    Dgp1dConfig,
    Dgp10dConfig,
    MethodSpec,
    ExperimentConfig,
]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_unknown_key_names_the_class(cls):
    unknown = rf"{cls.__name__}: unknown key\(s\) \['bogus'\]"
    with pytest.raises(ConfigError, match=unknown):
        cls.from_dict({"bogus": 1})


def test_nested_unknown_key_names_the_nested_class():
    with pytest.raises(ConfigError, match="LearnerSpec: unknown key"):
        GroupConfig.from_dict(
            {"if_config": {"crossfit": {"outcome_spec": {"neighbours": 3}}}}
        )


def test_missing_required_field_is_config_error():
    with pytest.raises(ConfigError, match="MethodSpec"):
        MethodSpec.from_dict({"name": "m"})


def test_non_object_rejected():
    with pytest.raises(ConfigError, match="LearnerSpec"):
        LearnerSpec.from_dict(["knn"])
    with pytest.raises(ConfigError, match="IFLearnerConfig.crossfit: expected an"):
        IFLearnerConfig.from_dict({"crossfit": 5})
    with pytest.raises(ConfigError, match="MethodSpec.group: expected an object"):
        MethodSpec.from_dict({"name": "g", "kind": "group_if_learner", "group": 2})


def test_nested_dicts_and_lists_load_as_configs_and_tuples():
    cfg = GroupConfig.from_dict(
        {
            "n_groups": 3,
            "if_config": {
                "crossfit": {"outcome_spec": {"kind": "knn", "k": 4}},
                "pseudo": {"target": "cate_ht"},
                "second_stage": {"kind": "kernel", "bandwidth_grid": [0.1, 0.3]},
            },
        }
    )
    assert cfg.if_config.crossfit.outcome_spec == LearnerSpec(kind="knn", k=4)
    assert cfg.if_config.pseudo.target == "cate_ht"
    assert cfg.if_config.second_stage.bandwidth_grid == (0.1, 0.3)
    # asdict output loads back to an equal object
    assert GroupConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_group_inherits_method_if_config():
    m = MethodSpec.from_dict(
        {
            "name": "g",
            "kind": "group_if_learner",
            "if_config": {"seed": 5, "pseudo": {"target": "cate_plugin"}},
            "group": {"n_groups": 2},
        }
    )
    assert m.group.if_config == m.if_config
    own = MethodSpec.from_dict(
        {
            "name": "g",
            "kind": "group_if_learner",
            "if_config": {"seed": 5},
            "group": {"n_groups": 2, "if_config": {"seed": 6}},
        }
    )
    assert own.group.if_config.seed == 6


def test_group_if_config_must_match_method():
    blob = {
        "name": "g",
        "kind": "group_if_learner",
        "if_config": {"second_stage": {"kind": "knn", "k": 7}},
        "group": {
            "n_groups": 2,
            "if_config": {"second_stage": {"kind": "knn", "k": 99}},
        },
    }
    with pytest.raises(ConfigError, match="method 'g': group.if_config differs"):
        MethodSpec.from_dict(blob)
    icfg = IFLearnerConfig(second_stage=LearnerSpec(kind="knn", k=7))
    with pytest.raises(ConfigError, match="method 'g'"):
        MethodSpec(name="g", kind="group_if_learner", if_config=icfg,
                   group=GroupConfig(n_groups=2))
    blob["group"]["if_config"]["second_stage"]["k"] = 7
    assert MethodSpec.from_dict(blob).group.if_config == IFLearnerConfig.from_dict(
        blob["if_config"]
    )


@pytest.mark.parametrize(
    "cls, blob, where",
    [
        (LearnerSpec, {"kind": "forest", "n_trees": 1.5}, "LearnerSpec.n_trees"),
        (LearnerSpec, {"k": 2.5}, "LearnerSpec.k"),
        (LearnerSpec, {"k": True}, "LearnerSpec.k"),
        (LearnerSpec, {"k": None}, "LearnerSpec.k"),
        (LearnerSpec, {"honest": 1}, "LearnerSpec.honest"),
        (LearnerSpec, {"bandwidth": True}, "LearnerSpec.bandwidth"),
        (LearnerSpec, {"bandwidth": "0.1"}, "LearnerSpec.bandwidth"),
        (CrossfitConfig, {"seed": "3"}, "CrossfitConfig.seed"),
        (PseudoOutcomeSpec, {"target": 3}, "PseudoOutcomeSpec.target"),
        (IFLearnerConfig, {"crossfit": {"n_folds": 2.0}}, "CrossfitConfig.n_folds"),
        (GroupConfig, {"n_groups": 5.0}, "GroupConfig.n_groups"),
        (ColumnMap, {"covariates": ["x"], "outcome": None}, "ColumnMap.outcome"),
        (ColumnMap, {"covariates": ["x1", 1], "outcome": "y"}, "ColumnMap.covariates"),
        (LearnerSpec, {"bandwidth_grid": ["a"]}, "LearnerSpec.bandwidth_grid"),
        (LearnerSpec, {"bandwidth_grid": [True, 0.5]}, "LearnerSpec.bandwidth_grid"),
    ],
)
def test_mistyped_scalar_names_the_field(cls, blob, where):
    with pytest.raises(ConfigError, match=rf"^{where}: expected "):
        cls.from_dict(blob)


@pytest.mark.parametrize(
    "cls, blob, message",
    [
        (ColumnMap, {"covariates": "x1", "outcome": "y"},
         "ColumnMap.covariates: expected a list, got 'x1'"),
        # a one-letter name used to load as a one-column tuple by accident
        (ColumnMap, {"covariates": "x", "outcome": "y"},
         "ColumnMap.covariates: expected a list, got 'x'"),
        (LearnerSpec, {"bandwidth_grid": 0.5},
         "LearnerSpec.bandwidth_grid: expected a list, got 0.5"),
        (ExperimentConfig, {"n_grid": 100},
         "ExperimentConfig.n_grid: expected a list, got 100"),
        (ExperimentConfig, {"methods": {"name": "m", "kind": "plugin"}},
         "ExperimentConfig.methods: expected a list, got {'name'"),
    ],
)
def test_tuple_field_needs_a_list(cls, blob, message):
    with pytest.raises(ConfigError) as err:
        cls.from_dict(blob)
    assert str(err.value).startswith(message)


def test_scalars_load_unconverted():
    spec = LearnerSpec.from_dict({"bandwidth": 1, "subsample_fraction": 1})
    assert type(spec.bandwidth) is int and type(spec.subsample_fraction) is int
    assert LearnerSpec.from_dict({"bandwidth": None}).bandwidth is None
    assert type(LearnerSpec.from_dict({"bandwidth": 0.1}).bandwidth) is float


def test_second_load_resolves_no_type_hints():
    blob = {
        "n_groups": 3,
        "if_config": {"crossfit": {"outcome_spec": {"kind": "knn", "k": 4}}},
    }
    first = GroupConfig.from_dict(blob)
    before = _type_hints.cache_info()
    assert GroupConfig.from_dict(blob) == first
    after = _type_hints.cache_info()
    # GroupConfig, IFLearnerConfig, CrossfitConfig, LearnerSpec: all cached
    assert after.misses == before.misses
    assert after.hits == before.hits + 4


def _experiment(**kw):
    fields = dict(
        experiment_id="x",
        dgp=Dgp1dConfig(n=20),
        methods=(MethodSpec(name="m", kind="plugin"),),
        n_grid=(40,),
        replications=1,
    )
    return ExperimentConfig(**{**fields, **kw})


def _fit_probability(clip):
    return fit_probability(LearnerSpec(kind="mean"), [[0.0], [1.0]], [0, 1], clip=clip)


_COLUMNS = ColumnMap(covariates=("x",), outcome="y")
_CHOICE = (2.5, True, "bogus")
_INTERVAL = (True, 2.5, -0.1, 0, "0.1", float("nan"))

# (where, build or call with the value, bad values)
CHOICES_AND_INTERVALS = [
    ("LearnerSpec.kind", lambda v: LearnerSpec(kind=v), _CHOICE),
    ("LearnerSpec.kernel_shape", lambda v: LearnerSpec(kernel_shape=v), _CHOICE),
    ("PseudoOutcomeSpec.target", lambda v: PseudoOutcomeSpec(target=v), _CHOICE),
    ("GroupConfig.first_stage", lambda v: GroupConfig(first_stage=v), _CHOICE),
    ("GroupConfig.second_stage_estimator",
     lambda v: GroupConfig(second_stage_estimator=v), _CHOICE),
    ("Dgp1dConfig.propensity", lambda v: Dgp1dConfig(propensity=v), _CHOICE),
    ("propensity_1d.mode", lambda v: propensity_1d(0.5, v), _CHOICE),
    ("Dgp10dConfig.effect", lambda v: Dgp10dConfig(effect=v), _CHOICE),
    ("MethodSpec.kind", lambda v: MethodSpec(name="m", kind=v), _CHOICE),
    ("FitFile.variant", lambda v: FitFile(columns=_COLUMNS, variant=v), _CHOICE),
    ("PseudoOutcomeSpec.eps_clip", lambda v: PseudoOutcomeSpec(eps_clip=v), _INTERVAL),
    ("PseudoOutcomeSpec.p_clip", lambda v: PseudoOutcomeSpec(p_clip=v), _INTERVAL),
    ("GroupConfig.split_fraction", lambda v: GroupConfig(split_fraction=v), _INTERVAL),
    ("GroupConfig.ci_level", lambda v: GroupConfig(ci_level=v), _INTERVAL),
    ("fit_probability.clip", _fit_probability, _INTERVAL),
    ("LearnerSpec.bandwidth", lambda v: LearnerSpec(bandwidth=v),
     (True, -0.1, 0, "0.1", np.nan, np.inf)),
    ("LearnerSpec.bandwidth_grid[0]",
     lambda v: LearnerSpec(bandwidth_grid=(v,)), (np.nan, np.inf, 0.0)),
    ("LearnerSpec.bandwidth_grid[1]",
     lambda v: LearnerSpec(bandwidth_grid=(0.1, v)), (np.nan, np.inf, -1.0, True, "0.2")),
]
# (where, build or call with the value, the smallest count allowed)
COUNTS = [
    ("LearnerSpec.k", lambda v: LearnerSpec(k=v), 1),
    ("LearnerSpec.cv_folds", lambda v: LearnerSpec(cv_folds=v), 2),
    ("LearnerSpec.n_trees", lambda v: LearnerSpec(n_trees=v), 1),
    ("LearnerSpec.min_leaf", lambda v: LearnerSpec(min_leaf=v), 1),
    ("LearnerSpec.features_per_split", lambda v: LearnerSpec(features_per_split=v), 1),
    ("CrossfitConfig.n_folds", lambda v: CrossfitConfig(n_folds=v), 2),
    ("GroupConfig.n_groups", lambda v: GroupConfig(n_groups=v), 2),
    ("Dgp1dConfig.n", lambda v: Dgp1dConfig(n=v), 1),
    ("Dgp10dConfig.n", lambda v: Dgp10dConfig(n=v), 1),
    ("ExperimentConfig.n_grid", lambda v: _experiment(n_grid=(40, v)), 1),
    ("ExperimentConfig.replications", lambda v: _experiment(replications=v), 1),
    ("ExperimentConfig.n_test", lambda v: _experiment(n_test=v), 1),
    ("run_replications.R", lambda v: run_replications(_experiment(), R=v), 1),
    ("run_replications.jobs", lambda v: run_replications(_experiment(), jobs=v), 1),
]
RULE_CASES = [
    (where, build, v) for where, build, values in CHOICES_AND_INTERVALS for v in values
] + [
    (where, build, v) for where, build, low in COUNTS for v in (2.5, True, "5", low - 1)
]


@pytest.mark.parametrize(
    "where, build, value",
    RULE_CASES,
    ids=[f"{where}={value!r}" for where, _, value in RULE_CASES],
)
def test_rule_names_the_field_when_built(where, build, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)} must be "):
        build(value)


@pytest.mark.parametrize("where, build, low", COUNTS, ids=[c[0] for c in COUNTS])
def test_count_accepts_a_numpy_integer(where, build, low):
    build(np.int64(2))


def test_fractional_sample_size_is_not_truncated():
    with pytest.raises(ConfigError) as err:
        _experiment(n_grid=(100.7,))
    assert str(err.value) == "ExperimentConfig.n_grid must be an integer >= 1, got 100.7"
    assert _experiment(n_grid=(np.int64(40), 60)).n_grid == (40, 60)
    assert type(_experiment(n_grid=(np.int64(40),)).n_grid[0]) is int


def test_fractional_replication_count_is_not_truncated():
    with pytest.raises(ConfigError, match=r"^run_replications.R must be an integer"):
        run_replications(_experiment(), R=2.5)


def test_count_messages_quote_the_value():
    with pytest.raises(ConfigError) as err:
        LearnerSpec(n_trees=2.5)
    assert str(err.value) == "LearnerSpec.n_trees must be an integer >= 1, got 2.5"
