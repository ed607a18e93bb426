"""Every malformed ``fit`` or ``group`` input ends in one README error class.

One hypothesis property drives ``cli.main`` with small generated inputs: a
data CSV (bad bytes, a BOM, blank and extra fields, NaN, huge and subnormal
numbers), a config mutated from a valid one, a ``--grid`` or query CSV, and
optional ``--known-propensity`` and ``--seed`` flags.  ``main`` must return
0, 1 or 2 and raise nothing; a failure prints exactly one ``error:`` line,
and the class behind it has the exit code README's error table gives it.
"""

import copy
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudolearn import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# README's error table: class -> exit code
ERROR_TABLE = {
    m[1]: int(m[2])
    for m in re.finditer(
        r"^\| `(\w+)` \|.*\| (\d) \|$", README.read_text(encoding="utf-8"), re.M
    )
}

# small enough that a forest or a CV kernel, mutated in, fits in milliseconds
SPEC = {"kind": "knn", "k": 2, "n_trees": 3, "min_leaf": 2, "bandwidth_grid": [0.1, 0.5]}
IF_CONFIG = {
    "crossfit": {"outcome_spec": SPEC, "propensity_spec": {"kind": "mean"}, "n_folds": 2},
    "pseudo": {"target": "cate_aipw"},
    "second_stage": SPEC,
}
COLUMNS = {"covariates": ["x1"], "outcome": "y", "treatment": "w"}
VALID = {
    "fit": {"columns": COLUMNS, "if_config": IF_CONFIG, "variant": "if_learner"},
    "group": {
        "columns": COLUMNS,
        "group": {"n_groups": 2, "split_fraction": 0.5, "if_config": IF_CONFIG},
    },
}
# values a mutation puts in place of a config entry
ODD_VALUES = [
    0, 1, 2, 3, -1, 0.5, 1.5, 1e308, float("nan"), True, False, None, "", "3",
    "knn", "kernel", "forest", "mean", "epanechnikov", "plugin", "risk_ratio",
    "odds_ratio", "mar_mean", "regression_mean", "cate_ht", "cate_plugin", "ht", "x1",
    "x2", "w", "y", [], [0.5], ["x1"], ["x1", "x2"], {},
]

NUMBERS = st.one_of(
    *[st.floats(-3, 3).map(repr)] * 3,
    st.sampled_from(["0", "1", "-0.0", "5e-324", "2.5e-310", " 1 ", "1e-300"]),
)
ODD_CELLS = st.sampled_from([
    "", " ", "nan", "NaN", "inf", "-inf", "1e309", "1e308", "-1e308", "abc", "1,5",
    '"1.0"', '"', "0x10", "1_0", "\x00", "2", "0.5",
])


@st.composite
def csv_bytes(draw, header):
    """A small CSV of ``header``: a dirty one (one in four) has odd cells, records
    and bytes."""
    dirty = draw(st.integers(0, 3)) == 0

    def cell(name):
        good = st.sampled_from(["0", "1"]) if name == "w" else NUMBERS
        return st.one_of(*[good] * 5, ODD_CELLS) if dirty else good  # odd 1 in 6

    rows = [header] + [
        [draw(cell(name)) for name in header]
        for _ in range(draw(st.integers(0, 12) if dirty else st.integers(10, 40)))
    ]
    for _ in range(draw(st.integers(0, 2)) if dirty else 0):
        # a record one field short, one field long, or blank
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = draw(st.sampled_from([rows[r][:-1], rows[r] + ["1"], []]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(",".join(row) for row in rows) + draw(st.sampled_from(["", eol]))
    raw = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if dirty and draw(st.booleans()):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + raw[at:]
    return raw


def _paths(node, path=()):
    """The key path of every entry under the dict ``node``."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _paths(value, path + (key,))


@st.composite
def configs(draw, command):
    """The valid config with entries replaced, dropped or added, as JSON text."""
    blob = copy.deepcopy(VALID[command])
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3]))):
        paths = sorted(_paths(blob))
        if not paths:  # every entry was dropped
            break
        path = draw(st.sampled_from(paths))
        parent = blob
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["replace", "replace", "replace", "drop", "add"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "add":
            parent["no_such_field"] = draw(st.sampled_from(ODD_VALUES))
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    text = json.dumps(blob)
    if draw(st.integers(0, 19)) == 0:  # cut short: invalid JSON
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


GOOD_GRIDS = st.builds(
    lambda lo, hi, count: f"{lo}:{hi}:{count}",
    st.sampled_from(["-2", "0", "-1e308", "5e-324"]),
    st.sampled_from(["2", "1", "1e308"]),
    st.sampled_from(["5", "1", "20"]),
)
ODD_GRIDS = st.one_of(
    st.builds(
        lambda lo, hi, count: f"{lo}:{hi}:{count}",
        st.sampled_from(["1", "nan", "-inf", "1e309"]),
        st.sampled_from(["0", "inf", "1e309", "x", "nan"]),
        st.sampled_from(["0", "-1", "2.5", "x"]),
    ),
    st.sampled_from(["", "1:2", "a:b:c", "0:1:2:3", "::"]),
)
GRIDS = st.one_of(GOOD_GRIDS, GOOD_GRIDS, GOOD_GRIDS, ODD_GRIDS)
PROPENSITIES = st.sampled_from(
    [None] * 6 + ["0.5", "0.1 + 0.8*(x[0] > 0)", "np.clip(x[0], 0.2, 0.8)", "1.5", "0",
                  "nan", "x[3]", "x[0]", "np.exp(x[0])", "(x[0] if 0 else 9)**9"]
)


def _run(argv):
    """``cli.main(argv)``'s exit code, stderr, and the class of each error it printed."""
    classes = []

    def spy(*args, **kwargs):  # main prints while it handles the error
        if sys.exc_info()[0] is not None:
            classes.append(sys.exc_info()[0].__name__)
        print(*args, **kwargs)

    err = io.StringIO()
    with (
        mock.patch.object(cli, "print", spy, create=True),
        redirect_stdout(io.StringIO()),
        redirect_stderr(err),
        np.errstate(all="ignore"),
    ):
        code = cli.main(argv)
    return code, err.getvalue(), classes


def test_readme_error_table_is_read():
    assert ERROR_TABLE == {
        "ConfigError": 2, "SchemaError": 2, "ParseError": 2, "DomainError": 2,
        "EstimationError": 1,
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["fit", "group"]),
    data=st.data(),
    propensity=PROPENSITIES,
    seed=st.sampled_from([None, "0", "7"]),
)
def test_every_outcome_is_an_exit_code_and_at_most_one_error_line(
    command, data, propensity, seed
):
    header = data.draw(
        st.sampled_from([["x1", "w", "y"]] * 3 + [["y", "x1", "w", "x2"], ["x1", "y"]])
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_bytes(data.draw(csv_bytes(header)))
        (tmp / "cfg.json").write_text(data.draw(configs(command)))
        argv = [command, "--data", str(tmp / "data.csv"), "--config", str(tmp / "cfg.json"),
                "--out", str(tmp / "out.csv")]
        if command == "fit":
            query = data.draw(st.sampled_from(["grid"] * 4 + ["query", "both", "neither"]))
            if query in ("grid", "both"):
                argv.append(f"--grid={data.draw(GRIDS)}")
            if query in ("query", "both"):
                (tmp / "query.csv").write_bytes(data.draw(csv_bytes(["x1"])))
                argv += ["--query", str(tmp / "query.csv")]
        if propensity is not None:
            argv.append(f"--known-propensity={propensity}")
        if seed is not None:
            argv += ["--seed", seed]
        code, err, classes = _run(argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2)
        if code == 0:
            assert errors == [] and classes == [] and (tmp / "out.csv").exists()
        else:
            assert len(errors) == 1 and len(classes) == 1, err
            assert ERROR_TABLE.get(classes[0]) == code, (classes, err)
