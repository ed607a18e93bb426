"""Command-line front end.

Three subcommands:

* ``simulate`` runs a replication experiment described by a JSON
  config and writes a results CSV.
* ``fit`` fits a two-stage learner (or the plug-in baseline) on a user
  CSV and writes predictions at query points.
* ``group`` runs group-wise inference on a user CSV and writes the
  per-group report.

Every output CSV gets a sibling ``<output>.manifest.json`` recording
the resolved configuration, its hash, and library versions, so a run
can be reproduced from the manifest alone.  Floats are printed with 17
significant digits (lossless round-trip).  Exit codes: 0 success, 1
estimation failed at runtime, 2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import json
import operator
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from . import rng as rngmod
from .config import FromDict, one_of
from .data import ColumnMap, load_csv, read_csv_columns, write_csv
from .errors import ConfigError, EstimationError, ParseError, PseudolearnError, SchemaError
from .grouplearner import GroupConfig, fit_group_learner
from .iflearner import IFLearnerConfig, config_digest, fit_if_learner, fit_plugin_learner
from .simulate import ExperimentConfig, run_replications

__all__ = ["main", "propensity_expression"]

FIT_VARIANTS = ("if_learner", "plugin")


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return blob


def _versions() -> dict:
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pseudolearn": __version__,
        "stream_version": rngmod.STREAM_VERSION,
    }


def _write_manifest(out_path: str, command: str, config: dict, summary: str) -> None:
    """Write ``<out_path>.manifest.json`` and report the output on stdout."""
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_digest(config),
        "output": str(out_path),
        "versions": _versions(),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"wrote {out_path} ({summary})")


# the numpy functions a --known-propensity expression may call, and their arities
_NP_FUNCTIONS = {
    "tanh": 1, "exp": 1, "log": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1,
    "minimum": 2, "maximum": 2, "clip": 3, "where": 3,
}
# its operators, elementwise on columns and as in Python on numbers
_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.BitAnd: operator.and_, ast.BitOr: operator.or_, ast.BitXor: operator.xor,
    ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Invert: operator.invert,
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.Not: lambda v: _where(v, False, True),
    ast.And: lambda *v: functools.reduce(lambda a, b: _where(a, b, a), v),  # b if a else a
    ast.Or: lambda *v: functools.reduce(lambda a, b: _where(a, a, b), v),
}


def _where(c, a, b):
    """``a if c else b``, row by row when ``c`` is a column."""
    if isinstance(c, np.ndarray):
        return np.where(c != 0, a, b)  # NaN is true, as in ``bool``
    return a if c else b


def _by_rows(fn, *args):
    """``fn`` on each row's values: numpy's array ``**`` and ``clip`` can round
    apart from its scalar ones."""
    if all(np.ndim(a) == 0 for a in args):
        return fn(*args)
    return np.array([fn(*r) for r in zip(*[a if np.ndim(a) else repeat(a) for a in args])])


def _evaluate(node, column, expr):
    """The value of a --known-propensity expression's ``node``, with ``x[i]``
    read as ``column(i)``.  Every operand is computed, of ``if`` and ``and``
    too.  Shifts, and powers neither of whose operands is a column, are refused
    before they are computed: they can build huge integers (``9**9**9``).
    """
    op = type(getattr(node, "op", None))
    operands = [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.expr)]
    name = ast.unparse(node.func) if isinstance(node, ast.Call) and not node.keywords else ""
    f = name.removeprefix("np.")
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, bool):
        return node.value
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "x":
        fn, operands = lambda i: column(operator.index(i)), [node.slice]
    elif isinstance(node, (ast.UnaryOp, ast.BoolOp, ast.BinOp)) and op in _OPERATORS:
        fn = _OPERATORS[op]
    elif op is ast.Pow:
        # on a row np.where gives an array, which has numpy's array power
        row = [np.asarray if ast.unparse(getattr(n, "func", n)) == "np.where"
               else (lambda v: v) for n in operands]
        fn = functools.partial(_by_rows, lambda p, q: row[0](p) ** row[1](q))
    elif isinstance(node, ast.Compare) and all(type(o) in _OPERATORS for o in node.ops):
        ops = [_OPERATORS[type(o)] for o in node.ops]  # a < b < c: a < b and b < c
        fn = lambda *t: _OPERATORS[ast.And](*(o(a, b) for o, a, b in zip(ops, t, t[1:])))
    elif isinstance(node, ast.IfExp):
        fn = _where
    elif name in ("abs", f"np.{f}") and len(node.args) == _NP_FUNCTIONS.get(f, -1):
        fn, operands = abs if name == "abs" else getattr(np, f), node.args
        fn = functools.partial(_by_rows, fn) if f == "clip" else fn
    else:
        raise _refused(node, expr)
    values = []
    for n in operands:  # a loop, not a comprehension: one frame per level
        values.append(_evaluate(n, column, expr))
    if op is ast.Pow and not any(np.ndim(v) for v in values):
        raise _refused(node, expr)
    return fn(*values)


def _refused(node, expr) -> ConfigError:
    rule = (
        "a power needs an operand that reads x, and << and >> are refused"
        if isinstance(node, ast.BinOp)
        else "use x[i], numbers, arithmetic, comparisons, abs and "
        f"np.{{{','.join(_NP_FUNCTIONS)}}}"
    )
    return ConfigError(
        f"propensity expression {expr!r} uses {ast.unparse(node)!r}, "
        f"which is not allowed; {rule}"
    )


def propensity_expression(expr: str):
    """Compile a --known-propensity expression into a function of covariates.

    The expression sees the covariate row as ``x``; for example
    ``"0.1 + 0.8*(x[0] > 0)"``.  The function computes it once on the columns
    of an (n, d) covariate matrix and returns its n values.  Syntax outside the
    language is a ``ConfigError`` when compiling, which computes it once on
    stand-in columns.
    """

    def evaluate(column, n):
        try:
            return np.full(n, _evaluate(tree, column, expr), float)
        except PseudolearnError:
            raise
        except Exception as e:
            raise ConfigError(f"propensity expression {expr!r} failed: {e}") from None

    def pi(X):
        if np.ndim(X) != 2:
            raise SchemaError(f"covariates X must be 2-D (n, d), got shape {np.shape(X)}")
        return evaluate(np.ascontiguousarray(np.transpose(X)).__getitem__, len(X))

    try:
        tree = ast.parse(expr, "<known-propensity>", mode="eval").body
    except (SyntaxError, RecursionError) as e:  # the latter: nested too deeply
        raise ConfigError(f"bad propensity expression {expr!r}: {e}") from None
    with np.errstate(all="ignore"):
        evaluate(lambda i: np.zeros(1), 1)
    return pi


def _parse_grid(spec: str, n_features: int) -> np.ndarray:
    if n_features != 1:
        raise ConfigError(
            f"--grid queries need exactly one covariate, data has {n_features}"
        )
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid must be 'lo:hi:count', got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"--grid must be 'lo:hi:count', got {spec!r}") from None
    if count < 1 or not lo < hi:
        raise ConfigError(f"--grid needs lo < hi and count >= 1, got {spec!r}")
    with np.errstate(all="ignore"):  # an infinite end or span is refused below
        grid = np.linspace(lo, hi, count)
    if not np.isfinite(grid).all():
        raise ConfigError(f"--grid values must all be finite, got {spec!r}")
    return grid.reshape(-1, 1)


def cmd_simulate(args) -> int:
    exp = ExperimentConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        exp = dataclasses.replace(exp, seed=args.seed)
    table = run_replications(exp, jobs=args.jobs)
    out = args.out or f"{exp.experiment_id}_results.csv"
    table.to_csv(out)
    summary = f"{len(table.rows)} result rows"
    _write_manifest(out, "simulate", dataclasses.asdict(exp), summary)
    return 0


@dataclass(frozen=True)
class FitFile(FromDict):
    """The ``fit`` config file: the data columns, the learner and its variant."""

    columns: ColumnMap
    if_config: IFLearnerConfig = field(default_factory=IFLearnerConfig)
    variant: str = "if_learner"

    def __post_init__(self):
        one_of("FitFile.variant", self.variant, FIT_VARIANTS)

    def reseeded(self, seed: int) -> "FitFile":
        return dataclasses.replace(self, if_config=self.if_config.reseeded(seed, seed))


@dataclass(frozen=True)
class GroupFile(FromDict):
    """The ``group`` config file: the data columns and the grouping settings."""

    columns: ColumnMap
    group: GroupConfig = field(default_factory=GroupConfig)

    def reseeded(self, seed: int) -> "GroupFile":
        return dataclasses.replace(self, group=self.group.reseeded(seed, seed, seed))


def _load_file(args, file_class):
    """The config file with ``--seed`` applied, and the compiled propensity."""
    cfg = file_class.from_dict(_load_json(args.config))
    if args.seed is not None:
        cfg = cfg.reseeded(args.seed)
    expr = args.known_propensity
    return cfg, propensity_expression(expr) if expr else None


def _write_file_manifest(args, command, out, cfg, summary, **inputs) -> None:
    """Write the manifest of ``fit`` or ``group``: the config file plus the inputs."""
    inputs.update(data=str(args.data), known_propensity=args.known_propensity)
    _write_manifest(out, command, {**dataclasses.asdict(cfg), **inputs}, summary)


def cmd_fit(args) -> int:
    cfg, pi = _load_file(args, FitFile)
    covariates = cfg.columns.covariates
    if (args.query is None) == (args.grid is None):
        raise ConfigError("exactly one of --query or --grid is required")
    if args.query is not None:
        Xq = read_csv_columns(args.query, covariates)
    else:
        Xq = _parse_grid(args.grid, len(covariates))
    data = load_csv(args.data, cfg.columns)
    known = pi(data.X) if pi else None
    if cfg.variant == "plugin":
        model = fit_plugin_learner(data, cfg.if_config)
    else:
        model = fit_if_learner(data, cfg.if_config, known_propensity=known)
    preds = model.predict(Xq)
    out = args.out or "predictions.csv"
    write_csv(
        out,
        list(covariates) + ["psi_hat"],
        (list(row) + [p] for row, p in zip(Xq, preds)),
    )
    query = str(args.query) if args.query else None
    summary = f"{len(Xq)} predictions"
    _write_file_manifest(args, "fit", out, cfg, summary, query=query, grid=args.grid)
    return 0


def cmd_group(args) -> int:
    cfg, pi = _load_file(args, GroupFile)
    data = load_csv(args.data, cfg.columns)
    known = pi(data.X) if pi else None
    estimates = fit_group_learner(data, cfg.group, known_propensity=known)
    out = args.out or "group_report.csv"
    estimates.to_csv(out)
    _write_file_manifest(args, "group", out, cfg, f"{estimates.n_groups} groups")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudolearn",
        description="Influence-function pseudo-outcome learning experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a replication experiment")
    ps.add_argument("--config", required=True, help="experiment JSON config")
    ps.add_argument("--seed", type=int, default=None, help="override master seed")
    ps.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    ps.add_argument("--out", default=None, help="results CSV path")
    ps.set_defaults(func=cmd_simulate)

    on_data = argparse.ArgumentParser(add_help=False)
    on_data.add_argument("--data", required=True, help="data CSV")
    on_data.add_argument("--config", required=True, help="fit or group JSON config")
    on_data.add_argument(
        "--known-propensity", default=None,
        help="expression for a known propensity, e.g. '0.1 + 0.8*(x[0] > 0)'",
    )
    on_data.add_argument("--seed", type=int, default=None)
    on_data.add_argument("--out", default=None, help="output CSV path")

    pf = sub.add_parser(
        "fit", parents=[on_data], help="fit a learner on a CSV, predict at queries"
    )
    pf.add_argument("--query", default=None, help="query-point CSV")
    pf.add_argument("--grid", default=None, help="1-D query grid, 'lo:hi:count'")
    pf.set_defaults(func=cmd_fit)

    pg = sub.add_parser(
        "group", parents=[on_data], help="group-wise inference report from a CSV"
    )
    pg.set_defaults(func=cmd_group)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PseudolearnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, EstimationError) else 2


if __name__ == "__main__":
    sys.exit(main())
