"""Subcommand behavior, exit codes, output files, and determinism."""

import ast
import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from pseudolearn.cli import _NP_FUNCTIONS, _elementwise, main, propensity_expression
from pseudolearn.data import ColumnMap, load_csv
from pseudolearn.errors import ConfigError
from pseudolearn.iflearner import IFLearnerConfig, fit_if_learner
from pseudolearn.learners import LearnerSpec, fit_learner
from pseudolearn.simulate import Dgp1dConfig, sample_1d

FAST_IF_DICT = {
    "crossfit": {
        "outcome_spec": {"kind": "knn", "k": 5},
        "propensity_spec": {"kind": "mean"},
        "n_folds": 2,
    },
    "second_stage": {"kind": "knn", "k": 5},
}

SIM_CONFIG = {
    "experiment_id": "mini",
    "dgp": {"kind": "1d", "propensity": "constant_half"},
    "methods": [
        {
            "name": "if",
            "kind": "if_learner",
            "use_known_propensity": True,
            "if_config": FAST_IF_DICT,
        }
    ],
    "n_grid": [200],
    "replications": 2,
    "seed": 3,
    "n_test": 150,
}


def write_json(path, blob):
    path.write_text(json.dumps(blob))
    return str(path)


def write_data_csv(path, X, y, w=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    names = [f"x{j + 1}" for j in range(X.shape[1])]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(names + (["w"] if w is not None else []) + ["y"])
        for i in range(X.shape[0]):
            row = [repr(float(v)) for v in X[i]]
            if w is not None:
                row.append(str(int(w[i])))
            row.append(repr(float(y[i])))
            writer.writerow(row)
    return str(path)


def read_csv_columns(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header, body


class TestSimulate:
    def test_minimal_run_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", SIM_CONFIG)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, body = read_csv_columns(out)
        assert header == [
            "experiment_id", "method", "n", "replications_kept",
            "mean_mse", "se_mse",
        ]
        assert len(body) == 1
        assert body[0][0] == "mini" and body[0][1] == "if"
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 3
        assert "config_hash" in manifest and "versions" in manifest
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_reruns_and_jobs(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", SIM_CONFIG)
        outs = []
        for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            out = tmp_path / name
            code = main(
                ["simulate", "--config", cfg, "--out", str(out), "--jobs", jobs]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", SIM_CONFIG)
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        main(["simulate", "--config", cfg, "--out", str(a), "--seed", "9"])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "9"])
        main(["simulate", "--config", cfg, "--out", str(c)])  # seed 3 from file
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_empty_methods_is_validation_failure(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", {**SIM_CONFIG, "methods": []})
        assert main(["simulate", "--config", cfg]) == 2
        assert "at least one method" in capsys.readouterr().err

    def test_missing_and_malformed_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not found" in err or "invalid JSON" in err

    def test_estimation_failure_names_replication_and_method(self, tmp_path, capsys):
        blob = dict(SIM_CONFIG)
        blob["methods"] = [
            {
                "name": "grp",
                "kind": "group_if_learner",
                "use_known_propensity": True,
                "if_config": FAST_IF_DICT,
                "group": {"n_groups": 60},
            }
        ]
        cfg = write_json(tmp_path / "exp.json", blob)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "replication 0" in err and "'grp'" in err


class TestFit:
    def rct_files(self, tmp_path, n=80, seed=0, with_w=True):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 1))
        w = rng.integers(0, 2, size=n) if with_w else None
        y = (w if with_w else 0) * 1.0 + np.sin(2 * X[:, 0]) + 0.1 * rng.normal(size=n)
        data = write_data_csv(tmp_path / "data.csv", X, y, w)
        columns = {"covariates": ["x1"], "outcome": "y"}
        if with_w:
            columns["treatment"] = "w"
        return data, columns

    def test_regression_mean_collapses_to_direct_fit(self, tmp_path):
        data, columns = self.rct_files(tmp_path, with_w=False)
        blob = {
            "columns": columns,
            "if_config": {
                **FAST_IF_DICT,
                "pseudo": {"target": "regression_mean"},
            },
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        out = tmp_path / "preds.csv"
        code = main(
            ["fit", "--data", data, "--config", cfg, "--grid=-1:1:9",
             "--out", str(out)]
        )
        assert code == 0
        header, body = read_csv_columns(out)
        assert header == ["x1", "psi_hat"]
        got = np.array([float(r[1]) for r in body])
        ds = load_csv(data, ColumnMap(("x1",), "y"))
        direct = fit_learner(
            LearnerSpec(kind="knn", k=5), ds.X, ds.y, seed=0
        ).predict(np.linspace(-1, 1, 9).reshape(-1, 1))
        assert np.array_equal(got, direct)

    def test_known_propensity_expression_routes_to_fixed_pipeline(self, tmp_path):
        data, columns = self.rct_files(tmp_path)
        blob = {"columns": columns, "if_config": FAST_IF_DICT}
        cfg = write_json(tmp_path / "fit.json", blob)
        out = tmp_path / "preds.csv"
        code = main(
            ["fit", "--data", data, "--config", cfg, "--grid=-1:1:11",
             "--known-propensity", "0.5", "--out", str(out)]
        )
        assert code == 0
        _, body = read_csv_columns(out)
        got = np.array([float(r[1]) for r in body])
        ds = load_csv(data, ColumnMap(("x1",), "y", "w"))
        icfg = IFLearnerConfig.from_dict(FAST_IF_DICT)
        want = fit_if_learner(ds, icfg, known_propensity=0.5).predict(
            np.linspace(-1, 1, 11).reshape(-1, 1)
        )
        assert np.array_equal(got, want)
        manifest = json.loads((tmp_path / "preds.csv.manifest.json").read_text())
        assert manifest["config"]["known_propensity"] == "0.5"

    def test_plugin_variant(self, tmp_path):
        data, columns = self.rct_files(tmp_path)
        blob = {"columns": columns, "if_config": FAST_IF_DICT, "variant": "plugin"}
        cfg = write_json(tmp_path / "fit.json", blob)
        out = tmp_path / "preds.csv"
        assert main(
            ["fit", "--data", data, "--config", cfg, "--grid=-1:1:5",
             "--out", str(out)]
        ) == 0
        _, body = read_csv_columns(out)
        assert len(body) == 5

    def test_query_csv_and_dimension_mismatch(self, tmp_path, capsys):
        data, columns = self.rct_files(tmp_path, with_w=False)
        blob = {
            "columns": columns,
            "if_config": {**FAST_IF_DICT, "pseudo": {"target": "regression_mean"}},
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        good = tmp_path / "q.csv"
        good.write_text("x1\n0.0\n0.5\n")
        out = tmp_path / "preds.csv"
        assert main(
            ["fit", "--data", data, "--config", cfg, "--query", str(good),
             "--out", str(out)]
        ) == 0
        _, body = read_csv_columns(out)
        assert len(body) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("z\n0.0\n")
        assert main(
            ["fit", "--data", data, "--config", cfg, "--query", str(bad),
             "--out", str(out)]
        ) == 2
        assert "missing column 'x1'" in capsys.readouterr().err

    def test_query_and_grid_are_mutually_exclusive(self, tmp_path, capsys):
        data, columns = self.rct_files(tmp_path, with_w=False)
        blob = {
            "columns": columns,
            "if_config": {**FAST_IF_DICT, "pseudo": {"target": "regression_mean"}},
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        q = tmp_path / "q.csv"
        q.write_text("x1\n0.0\n")
        args = ["fit", "--data", data, "--config", cfg]
        assert main(args) == 2
        assert main(args + ["--query", str(q), "--grid", "0:1:3"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_missing_data_file_is_validation_failure(self, tmp_path, capsys):
        _, columns = self.rct_files(tmp_path)
        cfg = write_json(
            tmp_path / "fit.json", {"columns": columns, "if_config": FAST_IF_DICT}
        )
        missing = str(tmp_path / "missing.csv")
        assert main(["fit", "--data", missing, "--config", cfg, "--grid", "0:1:3"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_schema_mismatch_in_data(self, tmp_path, capsys):
        data, _ = self.rct_files(tmp_path)
        blob = {
            "columns": {"covariates": ["x1"], "outcome": "nope"},
            "if_config": {**FAST_IF_DICT, "pseudo": {"target": "regression_mean"}},
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        assert main(["fit", "--data", data, "--config", cfg, "--grid", "0:1:3"]) == 2
        assert "nope" in capsys.readouterr().err


class TestGroup:
    def group_files(self, tmp_path, n=40, seed=1):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 1))
        w = rng.integers(0, 2, size=n)
        y = np.sin(2 * X[:, 0]) + 0.1 * rng.normal(size=n)
        data = write_data_csv(tmp_path / "data.csv", X, y, w)
        blob = {
            "columns": {"covariates": ["x1"], "outcome": "y", "treatment": "w"},
            "group": {
                "n_groups": 2,
                "first_stage": "plugin",
                "if_config": {
                    **FAST_IF_DICT,
                    "crossfit": {
                        "outcome_spec": {"kind": "knn", "k": 3},
                        "propensity_spec": {"kind": "mean"},
                        "n_folds": 2,
                    },
                    "second_stage": {"kind": "knn", "k": 3},
                },
            },
        }
        cfg = write_json(tmp_path / "group.json", blob)
        return data, cfg

    def test_two_group_report(self, tmp_path):
        data, cfg = self.group_files(tmp_path)
        out = tmp_path / "report.csv"
        code = main(
            ["group", "--data", data, "--config", cfg,
             "--known-propensity", "0.5", "--out", str(out)]
        )
        assert code == 0
        header, body = read_csv_columns(out)
        assert header == ["g", "n_g", "psi_hat", "var_hat", "ci_lo", "ci_hi"]
        assert len(body) == 2
        assert sum(int(r[1]) for r in body) == 20  # estimation half of 40
        z = float(ndtri(0.975))
        for r in body:
            psi, var, lo, hi = (float(v) for v in r[2:])
            assert hi - psi == pytest.approx(z * np.sqrt(var), rel=1e-12)
            assert psi - lo == pytest.approx(z * np.sqrt(var), rel=1e-12)
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "group"
        assert manifest["config"]["group"]["n_groups"] == 2

    def test_too_many_groups_is_runtime_failure(self, tmp_path, capsys):
        data, cfg = self.group_files(tmp_path)
        blob = json.loads((tmp_path / "group.json").read_text())
        blob["group"]["n_groups"] = 30
        cfg = write_json(tmp_path / "group.json", blob)
        assert main(
            ["group", "--data", data, "--config", cfg,
             "--known-propensity", "0.5"]
        ) == 1
        assert "grouping degenerate" in capsys.readouterr().err

    def test_constant_scorer_is_runtime_failure_naming_the_cause(
        self, tmp_path, capsys
    ):
        # too few structure rows per tree for a split: one predicted value
        ds = sample_1d(Dgp1dConfig(n=600, seed=0)).dataset
        data = write_data_csv(tmp_path / "data.csv", ds.X, ds.y, ds.w)
        forest = {"kind": "forest", "n_trees": 20, "min_leaf": 20}
        cfg = write_json(
            tmp_path / "group.json",
            {
                "columns": {"covariates": ["x1"], "outcome": "y", "treatment": "w"},
                "group": {
                    "n_groups": 5,
                    "first_stage": "plugin",
                    "if_config": {
                        "crossfit": {"outcome_spec": forest, "propensity_spec": forest},
                        "second_stage": forest,
                    },
                },
            },
        )
        assert main(
            ["group", "--data", data, "--config", cfg,
             "--known-propensity", "0.5", "--out", str(tmp_path / "r.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert "predicted one value" in err
        assert "for all 300 estimation rows" in err
        assert "2*min_leaf" in err

    def test_missing_data_file_is_validation_failure(self, tmp_path, capsys):
        _, cfg = self.group_files(tmp_path)
        missing = str(tmp_path / "missing.csv")
        assert main(["group", "--data", missing, "--config", cfg]) == 2
        assert "not found" in capsys.readouterr().err

    def test_knn_k_above_arm_rows_is_runtime_failure(self, tmp_path, capsys):
        # 148 control rows reach the plug-in scorer on the auxiliary half;
        # that count depends on the realised split, not on the config
        s = sample_1d(Dgp1dConfig(propensity="strong_selection", n=600, seed=1))
        data = write_data_csv(
            tmp_path / "data.csv", s.dataset.X, s.dataset.y, s.dataset.w
        )
        knn200 = {"kind": "knn", "k": 200}
        blob = {
            "columns": {"covariates": ["x1"], "outcome": "y", "treatment": "w"},
            "group": {
                "first_stage": "plugin",
                "if_config": {
                    "crossfit": {"outcome_spec": knn200, "propensity_spec": knn200},
                    "second_stage": knn200,
                },
            },
        }
        cfg = write_json(tmp_path / "group.json", blob)
        assert main(["group", "--data", data, "--config", cfg]) == 1
        assert "mu0 in the plug-in fit has 148 training" in capsys.readouterr().err

    def test_seed_changes_split(self, tmp_path):
        data, cfg = self.group_files(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["group", "--data", data, "--config", cfg, "--seed", "1",
              "--known-propensity", "0.5", "--out", str(a)])
        main(["group", "--data", data, "--config", cfg, "--seed", "2",
              "--known-propensity", "0.5", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", SIM_CONFIG)
        out = tmp_path / "res.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pseudolearn.cli", "simulate",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudolearn.cli", "simulate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestPropensityExpression:
    def test_evaluates_rowwise(self):
        pi = propensity_expression("0.1 + 0.8*(x[0] > 0)")
        assert pi(np.array([0.5])) == pytest.approx(0.9)
        assert pi(np.array([-0.5])) == pytest.approx(0.1)

    def test_numpy_available(self):
        pi = propensity_expression("0.5 + 0.1*np.tanh(x[0])")
        assert 0.4 < pi(np.array([0.3])) < 0.6

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="propensity expression"):
            propensity_expression("0.5 +")

    def test_runtime_error_becomes_config_error(self):
        pi = propensity_expression("x[7]")
        with pytest.raises(ConfigError, match="failed"):
            pi(np.array([0.1]))

    def test_whitelisted_syntax_compiles(self):
        pi = propensity_expression(
            "np.clip(abs(x[0]), 0.1, 0.9) if x[0] > 0 and not x[0] > 5 "
            "else np.where(x[0] < -1, 0.2, 0.3)"
        )
        assert pi(np.array([0.5])) == 0.5
        assert pi(np.array([-2.0])) == 0.2

    @pytest.mark.parametrize(
        "expr",
        [
            "np.save('p', x)",
            "x.__class__",
            "np.exp(x[0], out=x)",
            "__import__('os')",
            "(lambda: 0.5)()",
            "x[0:1]",
            "'0.5'",
        ],
    )
    def test_outside_whitelist_rejected_when_compiled(self, expr):
        with pytest.raises(ConfigError, match="not allowed"):
            propensity_expression(expr)

    def test_positional_out_rejected(self):
        for expr in ("np.exp(x[0], x)", "np.minimum(x[0], x[1], x)",
                     "np.clip(x[0], 0.1, 0.9, x)"):
            with pytest.raises(ConfigError, match="not allowed"):
                propensity_expression(expr)

    @pytest.mark.parametrize(
        "expr,by_column",
        [
            ("0.1 + 0.8*(x[0] > 0)", True),
            ("0.5", True),
            ("np.clip(x[-1], 0.1, 0.9)", True),
            ("0.2 if x[0] > 0 else 0.3", False),
            ("0.5 + 0.1*(x[0] > 0 and x[1] > 0)", False),
            ("0.5 + 0.1*(not x[0] > 0)", False),
            ("0.5 + 0.1*(0 < x[0] < 1)", False),
            ("0.5 + 0.01*x[0]**2", False),
            ("0.5 + 0.0*x", False),
        ],
    )
    def test_elementwise_expressions_take_columns(self, expr, by_column):
        assert _elementwise(ast.parse(expr, mode="eval")) == by_column

    def test_columns_equal_rows_bit_for_bit(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(-3, 4, size=(400, 1))
        X[:4, 0] = [0.0, -0.0, 1e-300, -750.0]
        exprs = [f"np.{f}(x[0])" for f, arity in _NP_FUNCTIONS.items() if arity == 1]
        exprs += [
            "np.minimum(x[0], x[1])",
            "np.maximum(x[0], 0.5)",
            "np.clip(x[0], x[1], x[2])",
            "np.where(x[0] > x[1], x[2], 0.25)",
            "abs(x[-1]) / (1 + abs(x[-1]))",
            "0.1 + 0.8*(x[0] > 0) - x[1] // 3 + x[2] % 2",
            "0.5",
            "0.2 if x[0] > 0 else 0.3",
        ]
        with np.errstate(all="ignore"):
            for expr in exprs:
                pi = propensity_expression(expr)
                rows = np.asarray([pi(x) for x in X])
                assert pi.on_rows(X).tobytes() == rows.tobytes(), expr

    def test_column_errors_keep_their_class(self):
        X = np.zeros((5, 1))
        with pytest.raises(ConfigError, match="failed"):
            propensity_expression("x[7]").on_rows(X)

    @pytest.mark.parametrize("command", ["fit", "group"])
    @pytest.mark.parametrize("expr", ["np.save('p', x)", "x.__class__"])
    def test_cli_rejects_before_reading_data(
        self, tmp_path, monkeypatch, capsys, command, expr
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {"columns": {"covariates": ["x1"], "outcome": "y", "treatment": "w"}},
        )
        argv = [command, "--data", str(tmp_path / "absent.csv"), "--config", cfg,
                "--known-propensity", expr, "--out", "out.csv"]
        if command == "fit":
            argv.append("--grid=-1:1:3")
        assert main(argv) == 2
        # the expression is refused before the (missing) data file is opened
        assert "not allowed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
