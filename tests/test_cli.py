"""Subcommand behavior, exit codes, output files, and determinism."""

import csv
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from pseudolearn.cli import _NP_FUNCTIONS, main, propensity_expression
from pseudolearn.data import ColumnMap, load_csv, write_csv
from pseudolearn.errors import ConfigError, SchemaError
from pseudolearn.grouplearner import GroupConfig, fit_group_learner
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
        bad.write_bytes(b'{"experiment_id": "a\xff"}')
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "group"])
    def test_deeply_nested_config_is_parse_error(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv = [command, "--config", str(deep)]
        if command != "simulate":
            argv += ["--data", str(tmp_path / "absent.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: invalid JSON: ")
        assert err.count("\n") == 1

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
        # the query/grid check comes before the data file is opened
        assert main(["fit", "--data", missing, "--config", cfg]) == 2
        assert "exactly one of --query or --grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob, message",
        [
            ({"if_confg": {}}, r"FitFile: unknown key(s) ['if_confg']"),
            ({"variant": "plug-in"}, "variant must be one of"),
            ({"if_config": {"second_stage": {"kind": "forest", "n_trees": 1.5}}},
             "LearnerSpec.n_trees: expected int, got 1.5"),
            ({"columns": None}, "FitFile.columns: expected an object"),
            ({"columns": {}}, "ColumnMap: "),
            ({"columns": {"covariates": "x1", "outcome": "y", "treatment": "w"}},
             "ColumnMap.covariates: expected a list, got 'x1'"),
            ({"if_config": {"second_stage": {"kind": "kernel", "bandwidth_grid": 0.5}}},
             "LearnerSpec.bandwidth_grid: expected a list, got 0.5"),
            ({"if_config": {"second_stage": {"bandwidth_grid": ["a"]}}},
             "LearnerSpec.bandwidth_grid: expected float, got 'a'"),
            ({"if_config": {"crossfit": {"eps_clip": 0.05}}},
             "CrossfitConfig: unknown key(s) ['eps_clip']"),
            ({"columns": {"covariates": ["y"], "outcome": "y"}},
             "column map names column 'y' twice"),
            ({"columns": {"covariates": ["x1"], "outcome": "w", "treatment": "w"}},
             "column map names column 'w' twice"),
            ({"columns": {"covariates": ["x1", "x1"], "outcome": "y"}},
             "column map names column 'x1' twice"),
        ],
    )
    def test_bad_config_file_is_validation_failure(
        self, tmp_path, capsys, blob, message
    ):
        data, columns = self.rct_files(tmp_path)
        cfg = write_json(tmp_path / "fit.json", {"columns": columns, **blob})
        assert main(["fit", "--data", data, "--config", cfg, "--grid", "0:1:3"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()

    def test_removed_winsorize_key_is_refused(self, tmp_path, capsys):
        data, columns = self.rct_files(tmp_path)
        blob = {"columns": columns, "if_config": {"winsorize": 0.01}}
        cfg = write_json(tmp_path / "fit.json", blob)
        argv = ["fit", "--data", data, "--config", cfg, "--grid=-1:1:3",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert "IFLearnerConfig: unknown key(s) ['winsorize']" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["-inf:1:3", "0:inf:3", "-1e308:1e308:3"])
    def test_non_finite_grid_is_validation_failure(self, tmp_path, capsys, grid):
        data, columns = self.rct_files(tmp_path)
        cfg = write_json(tmp_path / "fit.json", {"columns": columns, "if_config": FAST_IF_DICT})
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--data", data, "--config", cfg, f"--grid={grid}",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --grid values must all be finite, got {grid!r}\n"
        )
        assert not out.exists()

    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("âge,w,y\n0.1,0,1.0\n0.2,1,2.0\n0.3,0,3.0\n0.4,1,4.0\n"
                        "0.5,0,5.0\n0.6,1,6.0\n", encoding="utf-8")
        blob = {
            "columns": {"covariates": ["âge"], "outcome": "y", "treatment": "w"},
            "if_config": {**FAST_IF_DICT, "pseudo": {"target": "regression_mean"},
                          "second_stage": {"kind": "mean"}},
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pseudolearn.cli", "fit", "--data", str(data),
             "--config", cfg, "--grid=0:1:2", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == "âge,psi_hat\n0,3.5\n1,3.5\n".encode("utf-8")
        manifest = json.loads(out.with_name("out.csv.manifest.json").read_text("utf-8"))
        assert manifest["config"]["columns"]["covariates"] == ["âge"]

    def test_config_file_needs_columns(self, tmp_path, capsys):
        data, _ = self.rct_files(tmp_path)
        cfg = write_json(tmp_path / "fit.json", {"if_config": FAST_IF_DICT})
        assert main(["fit", "--data", data, "--config", cfg, "--grid", "0:1:3"]) == 2
        err = capsys.readouterr().err
        assert "FitFile" in err and "'columns'" in err

    def test_schema_mismatch_in_data(self, tmp_path, capsys):
        data, _ = self.rct_files(tmp_path)
        blob = {
            "columns": {"covariates": ["x1"], "outcome": "nope"},
            "if_config": {**FAST_IF_DICT, "pseudo": {"target": "regression_mean"}},
        }
        cfg = write_json(tmp_path / "fit.json", blob)
        assert main(["fit", "--data", data, "--config", cfg, "--grid", "0:1:3"]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "group"])
    def test_byte_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x1,w,y\n0.1,0,1.0\n0.2,1,\xff\n0.3,0,2.0\n0.4,1,3.0\n")
        columns = {"covariates": ["x1"], "outcome": "y", "treatment": "w"}
        blob = {"columns": columns}
        blob["if_config" if command == "fit" else "group"] = (
            FAST_IF_DICT if command == "fit" else {"if_config": FAST_IF_DICT}
        )
        argv = [command, "--data", str(data), "--config", write_json(tmp_path / "c.json", blob)]
        assert main(argv + (["--grid", "0:1:3"] if command == "fit" else [])) == 2
        assert capsys.readouterr().err == f"error: {data}: byte 23 (0xff) is not UTF-8\n"


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

    def test_misspelt_key_is_validation_failure(self, tmp_path, capsys):
        data, _ = self.group_files(tmp_path)
        blob = json.loads((tmp_path / "group.json").read_text())
        blob["groups"] = blob.pop("group")
        cfg = write_json(tmp_path / "group.json", blob)
        assert main(["group", "--data", data, "--config", cfg]) == 2
        assert "GroupFile: unknown key(s) ['groups']" in capsys.readouterr().err

    def test_scorer_on_too_few_auxiliary_rows_is_runtime_failure(
        self, tmp_path, capsys
    ):
        # the if_learner scorer's k = 40 second stage sees the 30-row auxiliary half
        data, _ = self.group_files(tmp_path, n=60)
        blob = json.loads((tmp_path / "group.json").read_text())
        blob["group"]["first_stage"] = "if_learner"
        blob["group"]["if_config"]["second_stage"]["k"] = 40
        cfg = write_json(tmp_path / "group.json", blob)
        assert main(["group", "--data", data, "--config", cfg,
                     "--known-propensity", "0.5"]) == 1
        assert "needs at least 40 training rows, got 30" in capsys.readouterr().err

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


def modules_after(tmp_path, code, *argv):
    """The scipy and concurrent modules a fresh interpreter holds after
    running ``code``."""
    listing = tmp_path / "modules.txt"
    script = (
        f"import sys\n{code}\n"
        f"open({str(listing)!r}, 'w').write("
        "' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split())


def loads(modules, package):
    return any(m == package or m.startswith(package + ".") for m in modules)


class TestStartup:
    """scipy loads where a computation needs it, never at import."""

    RUN_MAIN = "from pseudolearn.cli import main\nassert main(sys.argv[1:]) == 0"
    COLUMNS = {"covariates": ["x1"], "outcome": "y", "treatment": "w"}
    FIXED_KERNEL = {"kind": "kernel", "bandwidth": 0.3}
    FIXED_IF = {
        "crossfit": {"outcome_spec": FIXED_KERNEL, "n_folds": 2},
        "second_stage": FIXED_KERNEL,
    }

    def test_import_loads_no_scipy(self, tmp_path):
        code = "import pseudolearn, pseudolearn.cli"
        assert modules_after(tmp_path, code) == set()

    def data_and_config(self, tmp_path, blob):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=80)
        w = rng.integers(0, 2, size=80)
        y = w + np.sin(2 * X) + 0.1 * rng.normal(size=80)
        data = write_data_csv(tmp_path / "data.csv", X, y, w)
        return data, write_json(tmp_path / "config.json", blob)

    def test_fixed_kernel_fit_loads_no_scipy_subpackage(self, tmp_path):
        data, cfg = self.data_and_config(
            tmp_path, {"columns": self.COLUMNS, "if_config": self.FIXED_IF}
        )
        modules = modules_after(
            tmp_path, self.RUN_MAIN, "fit", "--data", data, "--config", cfg,
            "--known-propensity", "0.5", "--grid", "0:1:5",
            "--out", tmp_path / "fit.csv",
        )
        assert "scipy" in modules  # the manifest's version string
        for package in ("scipy.special", "scipy.spatial", "scipy.stats"):
            assert not loads(modules, package), package

    def test_group_and_simulate_load_no_scipy_stats(self, tmp_path):
        """Normal intervals and both designs' draws need no scipy.special;
        t intervals load it for stdtrit, and nothing loads scipy.stats.  A
        one-worker simulate starts no process pool."""
        for t_intervals in (False, True):
            group_cfg = {"n_groups": 2, "first_stage": "plugin",
                         "use_t_intervals": t_intervals, "if_config": self.FIXED_IF}
            data, cfg = self.data_and_config(
                tmp_path, {"columns": self.COLUMNS, "group": group_cfg}
            )
            group = modules_after(
                tmp_path, self.RUN_MAIN, "group", "--data", data, "--config", cfg,
                "--known-propensity", "0.5", "--out", tmp_path / "group.csv",
            )
            assert loads(group, "scipy.special") == t_intervals
            assert not loads(group, "scipy.stats")
        forest = {"kind": "forest", "n_trees": 3, "min_leaf": 10}
        forest_if = {"crossfit": {"outcome_spec": forest, "n_folds": 2},
                     "second_stage": forest}
        design_10d = {  # forests: multi-feature distances load scipy.spatial
            "dgp": {"kind": "10d", "confounded": True, "effect": "xi_product"},
            "methods": [{"name": "if", "kind": "if_learner",
                         "use_known_propensity": True, "if_config": forest_if}],
        }
        for design in ({}, design_10d):
            sim = write_json(tmp_path / "exp.json", {**SIM_CONFIG, **design})
            simulate = modules_after(
                tmp_path, self.RUN_MAIN, "simulate", "--config", sim,
                "--out", tmp_path / "sim.csv", "--jobs", "1",
            )
            assert not loads(simulate, "scipy.special"), design
            assert not loads(simulate, "scipy.stats"), design
            assert not loads(simulate, "concurrent.futures"), design


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
        assert pi(np.array([[0.5], [-0.5]])) == pytest.approx([0.9, 0.1])

    def test_numpy_available(self):
        pi = propensity_expression("0.5 + 0.1*np.tanh(x[0])")
        assert 0.4 < pi(np.array([[0.3]]))[0] < 0.6

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="propensity expression"):
            propensity_expression("0.5 +")

    def test_runtime_error_becomes_config_error(self):
        pi = propensity_expression("x[7]")
        with pytest.raises(ConfigError, match="failed"):
            pi(np.array([[0.1]]))

    @pytest.mark.parametrize("X, shape", [([0.2, 0.7], "(2,)"), ([[[0.2]]], "(1, 1, 1)")])
    def test_matrix_must_be_2d(self, X, shape):
        # a bare row used to read as d rows of one covariate each
        message = re.escape(f"must be 2-D (n, d), got shape {shape}")
        with pytest.raises(SchemaError, match=message):
            propensity_expression("x[0]")(np.array(X))

    def test_rowwise_warning_shown_once(self):
        expr = "np.sqrt(x[0]) ** 1"  # the power keeps it row by row
        X = np.linspace(-1, 1, 1000).reshape(-1, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            values = propensity_expression(expr)(X)
        assert len(caught) == 1
        with np.errstate(invalid="ignore"):
            # a fresh globals dict per row, as before the warning fix
            reference = np.asarray(
                [
                    float(eval(expr, {"__builtins__": {}}, {"x": x, "np": np}))
                    for x in X
                ]
            )
        assert values.tobytes() == reference.tobytes()

    def test_whitelisted_syntax_compiles(self):
        pi = propensity_expression(
            "np.clip(abs(x[0]), 0.1, 0.9) if x[0] > 0 and not x[0] > 5 "
            "else np.where(x[0] < -1, 0.2, 0.3)"
        )
        assert pi(np.array([[0.5], [-2.0]])).tolist() == [0.5, 0.2]

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
            # integer blow-ups: evaluating these would take hours or gigabytes
            "0.5 + 0*9**9**6",
            "(x[0]*0 + 9)**9**6",
            "abs(-9)**99",
            "1 << 99999999999",
            "x[0] >> 1",
        ],
    )
    def test_outside_whitelist_rejected_when_compiled(self, expr):
        with pytest.raises(ConfigError, match="not allowed"):
            propensity_expression(expr)

    def test_powers_reading_x_keep_their_bits(self):
        for expr in ("0.5 + 0.01*x[0]**2", "2**x[0] / 4", "np.sqrt(x[0]) ** 1"):
            pi = propensity_expression(expr)
            for x in (np.array([0.25]), np.array([-1.5])):
                with np.errstate(invalid="ignore"):
                    want = float(eval(expr, {"__builtins__": {}}, {"x": x, "np": np}))
                    got = pi(x[None])[0]
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "expr", ["0.5**2", "9**9**9", "0.5 + 0*9**9**6", "1 << 3", "x[0] >> 1"]
    )
    def test_refused_power_or_shift_says_why(self, expr):
        # compiled only: evaluating some of these would take hours
        with pytest.raises(ConfigError, match="not allowed") as err:
            propensity_expression(expr)
        msg = str(err.value)
        assert "a power needs an operand that reads x" in msg
        assert "<< and >> are refused" in msg
        assert "arithmetic" not in msg

    @pytest.mark.parametrize(
        "expr", ["(9 if 1 else x[0]) ** (1000000 if 1 else x[0])", "(x[0] if 0 else 9)**1000000"]
    )
    def test_power_refused_by_its_operands_values(self, expr):
        # an x in a branch that a constant condition discards leaves a number,
        # so the power is refused, not computed
        with pytest.raises(ConfigError, match="a power needs an operand that reads x"):
            propensity_expression(expr)

    def test_other_refusals_keep_the_whitelist_message(self):
        with pytest.raises(ConfigError, match="use x\\[i\\], numbers, arithmetic"):
            propensity_expression("x.__class__")

    def test_positional_out_rejected(self):
        for expr in ("np.exp(x[0], x)", "np.minimum(x[0], x[1], x)",
                     "np.clip(x[0], 0.1, 0.9, x)"):
            with pytest.raises(ConfigError, match="not allowed"):
                propensity_expression(expr)

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
                rows = np.concatenate([pi(x[None]) for x in X])
                assert pi(X).tobytes() == rows.tobytes(), expr

    def test_column_errors_keep_their_class(self):
        X = np.zeros((5, 1))
        with pytest.raises(ConfigError, match="failed"):
            propensity_expression("x[7]")(X)

    @pytest.mark.parametrize("command", ["fit", "group"])
    def test_cli_output_is_the_library_given_the_values(self, tmp_path, command):
        # the expression is computed once on the loaded covariates, and the
        # library given those values writes the same bytes
        expr = "0.5 + 0.3*np.tanh(2*x[0])"
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(60, 1))
        w = rng.integers(0, 2, size=60)
        data = write_data_csv(tmp_path / "data.csv", X, X[:, 0] + w, w)
        columns = {"covariates": ["x1"], "outcome": "y", "treatment": "w"}
        ds = load_csv(data, ColumnMap.from_dict(columns))
        known = propensity_expression(expr)(ds.X)
        cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
        argv = [command, "--data", data, "--known-propensity", expr, "--out", str(cli_out)]
        if command == "fit":
            blob = {"columns": columns, "if_config": FAST_IF_DICT}
            grid = np.linspace(-1, 1, 7).reshape(-1, 1)
            argv.append("--grid=-1:1:7")
            model = fit_if_learner(ds, IFLearnerConfig.from_dict(FAST_IF_DICT), known)
            write_csv(lib_out, ["x1", "psi_hat"], zip(grid[:, 0], model.predict(grid)))
        else:
            blob = {"columns": columns, "group": {"n_groups": 2, "if_config": FAST_IF_DICT}}
            group = GroupConfig.from_dict(blob["group"])
            fit_group_learner(ds, group, known_propensity=known).to_csv(lib_out)
        argv += ["--config", write_json(tmp_path / "cfg.json", blob)]
        assert main(argv) == 0
        assert cli_out.read_bytes() == lib_out.read_bytes()

    @pytest.mark.parametrize(
        "fit_config",
        [
            {"if_config": {**FAST_IF_DICT, "pseudo": {"target": "cate_plugin"}}},
            {"if_config": FAST_IF_DICT, "variant": "plugin"},
        ],
        ids=["cate_plugin", "plugin"],
    )
    def test_expression_failing_on_the_data_fails_where_pi_is_unread(
        self, tmp_path, capsys, fit_config
    ):
        data = write_data_csv(tmp_path / "data.csv", np.linspace(-1, 1, 20), np.zeros(20),
                              np.arange(20) % 2)
        columns = {"covariates": ["x1"], "outcome": "y", "treatment": "w"}
        cfg = write_json(tmp_path / "fit.json", {"columns": columns, **fit_config})
        argv = ["fit", "--data", data, "--config", cfg, "--grid=-1:1:3",
                "--known-propensity", "x[7]", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: propensity expression 'x[7]' failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "group"])
    @pytest.mark.parametrize(
        "expr", ["np.save('p', x)", "x.__class__", "0.5 + 0*9**9**6", "1 << 99999999999"]
    )
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not allowed" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["fit", "group"])
    def test_cli_rejects_deeply_nested_expression(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {"columns": {"covariates": ["x1"], "outcome": "y", "treatment": "w"}},
        )
        expr = "-" * 5000 + "x[0]"
        argv = [command, "--data", "absent.csv", "--config", cfg,
                f"--known-propensity={expr}"]
        if command == "fit":
            argv.append("--grid=-1:1:3")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad propensity expression {expr!r}: ")
        assert err.count("\n") == 1
