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
import json
import sys

import numpy as np
import scipy

from . import __version__
from . import rng as rngmod
from .data import ColumnMap, load_csv, read_csv_columns, write_csv
from .errors import ConfigError, EstimationError, ParseError, PseudolearnError
from .grouplearner import GroupConfig, fit_group_learner
from .iflearner import (
    IFLearnerConfig,
    config_digest,
    fit_if_learner,
    fit_plugin_learner,
)
from .simulate import ExperimentConfig, run_replications

__all__ = ["main", "propensity_expression"]

FIT_VARIANTS = ("if_learner", "plugin")


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            blob = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return blob


def _versions() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pseudolearn": __version__,
        "stream_version": rngmod.STREAM_VERSION,
    }


def _write_manifest(out_path: str, command: str, config: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_digest(config),
        "output": str(out_path),
        "versions": _versions(),
    }
    with open(f"{out_path}.manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


# the numpy functions a --known-propensity expression may call, with the
# most positional arguments each takes (one more would be ``out``)
_NP_FUNCTIONS = {
    "tanh": 1, "exp": 1, "log": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1,
    "minimum": 2, "maximum": 2, "clip": 3, "where": 3,
}
_EXPRESSION_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
    ast.expr_context, ast.operator, ast.unaryop, ast.boolop, ast.cmpop,
)


def _check_expression(tree: ast.Expression, expr: str) -> None:
    """Reject any syntax outside the arithmetic whitelist.

    Allowed: numeric constants, ``x[...]``, ``abs(...)``,
    ``np.<f>(...)`` for ``f`` in ``_NP_FUNCTIONS``, arithmetic,
    comparisons, ``and``/``or``/``not`` and conditional expressions.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            ok = (
                isinstance(node.value, ast.Name)
                and node.value.id == "np"
                and node.attr in _NP_FUNCTIONS
            )
        elif isinstance(node, ast.Name):
            ok = node.id in ("x", "np", "abs")
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float, bool)
        elif isinstance(node, ast.Subscript):
            ok = isinstance(node.value, ast.Name) and node.value.id == "x"
        elif isinstance(node, ast.Call):
            ok = not node.keywords and (
                (
                    isinstance(node.func, ast.Attribute)
                    and len(node.args) <= _NP_FUNCTIONS.get(node.func.attr, 0)
                )
                or (isinstance(node.func, ast.Name) and node.func.id == "abs")
            )
        else:
            ok = isinstance(node, _EXPRESSION_NODES)
        if not ok:
            raise ConfigError(
                f"propensity expression {expr!r} uses {ast.unparse(node)!r}, "
                "which is not allowed; use x[i], numbers, arithmetic, "
                "comparisons, abs and "
                f"np.{{{','.join(_NP_FUNCTIONS)}}}"
            )


def _elementwise(tree: ast.Expression) -> bool:
    """Whether the expression may see whole covariate columns as ``x[i]``.

    It may when every ``x`` is indexed by an integer literal and nothing
    takes the truth value of a number (``and``, ``or``, ``not``, a
    conditional expression, a chained comparison): an array has none.
    ``**`` also stays row-wise, since numpy's scalar and array powers
    can differ in the last bit.
    """
    indexed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BoolOp, ast.Not, ast.IfExp, ast.Pow)) or (
            isinstance(node, ast.Compare) and len(node.ops) > 1
        ):
            return False
        if isinstance(node, ast.Subscript):
            index = node.slice
            if isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.USub):
                index = index.operand
            if not (isinstance(index, ast.Constant) and type(index.value) is int):
                return False
            indexed.add(id(node.value))
    return all(
        id(node) in indexed
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "x"
    )


def propensity_expression(expr: str):
    """Compile a --known-propensity expression into a row-wise callable.

    The expression sees the covariate row as ``x`` (a float array) and
    may call ``abs`` and a few elementwise ``np`` functions; for example
    ``"0.1 + 0.8*(x[0] > 0)"``.  Anything else (other names, attribute
    access, strings, an ``out`` argument) is a ``ConfigError`` when the
    expression is compiled.

    The callable's ``on_rows(X)`` gives the values of all rows of ``X``.
    It evaluates an elementwise expression once, on the columns of
    ``X``, and any other once per row; the bits are those of the
    row-wise calls either way.
    """
    try:
        tree = ast.parse(expr, "<known-propensity>", mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"bad propensity expression {expr!r}: {e}") from None
    _check_expression(tree, expr)
    code = compile(tree, "<known-propensity>", "eval")
    by_column = _elementwise(tree)

    def evaluate(x, convert):
        try:
            return convert(
                eval(code, {"__builtins__": {}}, {"x": x, "np": np, "abs": abs})
            )
        except PseudolearnError:
            raise
        except Exception as e:
            raise ConfigError(
                f"propensity expression {expr!r} failed: {e}"
            ) from None

    def pi(x):
        return evaluate(x, float)

    def on_rows(X):
        n = X.shape[0]
        if not by_column or n == 0:
            return np.asarray([pi(x) for x in X])

        def column(v):
            # a result that does not involve x holds for every row
            return np.full(n, float(v)) if np.ndim(v) == 0 else np.asarray(v, float)

        return evaluate(np.ascontiguousarray(X.T), column)

    pi.on_rows = on_rows
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
    return np.linspace(lo, hi, count).reshape(-1, 1)


def cmd_simulate(args) -> int:
    exp = ExperimentConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        exp = dataclasses.replace(exp, seed=args.seed)
    table = run_replications(exp, jobs=args.jobs)
    out = args.out or f"{exp.experiment_id}_results.csv"
    table.to_csv(out)
    _write_manifest(out, "simulate", dataclasses.asdict(exp))
    print(f"wrote {out} ({len(table.rows)} result rows)")
    return 0


def _seeded_if_config(icfg: IFLearnerConfig, seed: int | None) -> IFLearnerConfig:
    if seed is None:
        return icfg
    return dataclasses.replace(
        icfg, seed=seed, crossfit=dataclasses.replace(icfg.crossfit, seed=seed)
    )


def cmd_fit(args) -> int:
    blob = _load_json(args.config)
    if "columns" not in blob:
        raise ConfigError("fit config needs a 'columns' mapping")
    columns = ColumnMap.from_dict(blob["columns"])
    icfg = _seeded_if_config(
        IFLearnerConfig.from_dict(blob.get("if_config", {})), args.seed
    )
    variant = blob.get("variant", "if_learner")
    if variant not in FIT_VARIANTS:
        raise ConfigError(f"variant must be one of {FIT_VARIANTS}, got {variant!r}")
    known = (
        propensity_expression(args.known_propensity)
        if args.known_propensity
        else None
    )
    data = load_csv(args.data, columns)
    if (args.query is None) == (args.grid is None):
        raise ConfigError("exactly one of --query or --grid is required")
    if args.query is not None:
        Xq = read_csv_columns(args.query, columns.covariates)
    else:
        Xq = _parse_grid(args.grid, len(columns.covariates))
    if variant == "plugin":
        model = fit_plugin_learner(data, icfg)
    else:
        model = fit_if_learner(data, icfg, known_propensity=known)
    preds = model.predict(Xq)
    out = args.out or "predictions.csv"
    write_csv(
        out,
        list(columns.covariates) + ["psi_hat"],
        (list(row) + [p] for row, p in zip(Xq, preds)),
    )
    _write_manifest(
        out,
        "fit",
        {
            "data": str(args.data),
            "columns": dataclasses.asdict(columns),
            "if_config": dataclasses.asdict(icfg),
            "variant": variant,
            "known_propensity": args.known_propensity,
            "query": str(args.query) if args.query else None,
            "grid": args.grid,
        },
    )
    print(f"wrote {out} ({Xq.shape[0]} predictions)")
    return 0


def cmd_group(args) -> int:
    blob = _load_json(args.config)
    if "columns" not in blob:
        raise ConfigError("group config needs a 'columns' mapping")
    columns = ColumnMap.from_dict(blob["columns"])
    gcfg = GroupConfig.from_dict(blob.get("group", {}))
    if args.seed is not None:
        gcfg = dataclasses.replace(
            gcfg,
            seed=args.seed,
            if_config=_seeded_if_config(gcfg.if_config, args.seed),
        )
    known = (
        propensity_expression(args.known_propensity)
        if args.known_propensity
        else None
    )
    data = load_csv(args.data, columns)
    estimates = fit_group_learner(data, gcfg, known_propensity=known)
    out = args.out or "group_report.csv"
    estimates.to_csv(out)
    _write_manifest(
        out,
        "group",
        {
            "data": str(args.data),
            "columns": dataclasses.asdict(columns),
            "group": dataclasses.asdict(gcfg),
            "known_propensity": args.known_propensity,
        },
    )
    print(f"wrote {out} ({estimates.n_groups} groups)")
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

    pf = sub.add_parser("fit", help="fit a learner on a CSV, predict at queries")
    pf.add_argument("--data", required=True, help="training data CSV")
    pf.add_argument("--config", required=True, help="fit JSON config")
    pf.add_argument("--query", default=None, help="query-point CSV")
    pf.add_argument("--grid", default=None, help="1-D query grid, 'lo:hi:count'")
    pf.add_argument(
        "--known-propensity", default=None,
        help="expression for a known propensity, e.g. '0.1 + 0.8*(x[0] > 0)'",
    )
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", default=None, help="predictions CSV path")
    pf.set_defaults(func=cmd_fit)

    pg = sub.add_parser("group", help="group-wise inference report from a CSV")
    pg.add_argument("--data", required=True, help="data CSV")
    pg.add_argument("--config", required=True, help="group JSON config")
    pg.add_argument(
        "--known-propensity", default=None,
        help="expression for a known propensity",
    )
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--out", default=None, help="report CSV path")
    pg.set_defaults(func=cmd_group)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PseudolearnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
