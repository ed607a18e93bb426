"""Dataset, fold assignment, read-only value objects and CSV loading."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudolearn.crossfit import evaluate_propensity
from pseudolearn.data import (
    ColumnMap,
    Dataset,
    FoldAssignment,
    NuisanceEstimates,
    load_csv,
    make_folds,
    read_csv_columns,
)
from pseudolearn.errors import ConfigError, DomainError, ParseError, SchemaError
from pseudolearn.grouplearner import GroupEstimates, group_efficient_estimate
from pseudolearn.learners import LearnerSpec, fit_probability
from pseudolearn.pseudo import (
    PseudoOutcomes, aipw_pseudo, ht_pseudo, mar_pseudo, transform_pseudo
)
from pseudolearn.simulate import LabeledSample


def toy_dataset(n=10, d=2, seed=0, treated=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    w = rng.integers(0, 2, size=n) if treated else None
    return Dataset(X, y, w)


class TestDataset:
    def test_basic_shapes(self):
        ds = toy_dataset(n=7, d=3)
        assert ds.n == 7 and ds.d == 3 and len(ds) == 7

    def test_arrays_are_immutable(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.y[0] = 99.0
        with pytest.raises(ValueError):
            ds.w[0] = 1

    def test_constructor_copies_input(self):
        X = np.zeros((3, 1))
        y = np.zeros(3)
        ds = Dataset(X, y)
        X[0, 0] = 5.0
        assert ds.X[0, 0] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(np.zeros((3, 1)), np.zeros(4))
        with pytest.raises(SchemaError):
            Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 2)], ids=["1-d", "3-d"])
    def test_covariates_must_be_a_matrix(self, shape):
        with pytest.raises(SchemaError, match=re.escape(f"got shape {shape}")):
            Dataset(np.zeros(shape), np.zeros(4))

    def test_indicator_shape_must_match_outcomes(self):
        with pytest.raises(SchemaError, match=r"w has shape \(4, 2\), expected \(4,\)"):
            Dataset(np.zeros((4, 1)), np.zeros(4), np.zeros((4, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="X must be finite; row 0 has nan$"):
            Dataset([[np.nan], [0.0]], [0.0, 1.0])
        with pytest.raises(DomainError, match="y must be finite; row 1 has inf$"):
            Dataset([[0.0], [0.0]], [1.0, np.inf])

    @pytest.mark.parametrize(
        "w, where",
        [
            ([0, 2, 1], "row 1 has 2"),
            ([None, 1, 0], "row 0 has None"),
            (["a", "1", "0"], "row 0 has 'a'"),
            (["1", "0", "1"], "row 0 has '1'"),
            ([0.0, 1.0, np.nan], "row 2 has nan"),
        ],
    )
    def test_treatment_must_be_binary(self, w, where):
        with pytest.raises(DomainError, match=f"must be 0 or 1; {where}$"):
            Dataset(np.zeros((3, 1)), np.zeros(3), w)

    def test_float_encoded_treatment_accepted(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2), [0.0, 1.0])
        assert ds.w.dtype == np.int64
        assert list(ds.w) == [0, 1]

    def test_row_and_subset(self):
        ds = toy_dataset(n=5)
        sub = ds.subset([4, 0])
        assert sub.n == 2
        assert np.array_equal(sub.X[0], ds.X[4])
        assert sub.y[1] == ds.y[0]


class TestMakeFolds:
    def test_two_folds_of_four_balanced(self):
        fa = make_folds(4, 2, seed=0)
        counts = np.bincount(fa.fold_of, minlength=2)
        assert sorted(counts) == [2, 2]

    def test_five_rows_two_folds_sizes(self):
        fa = make_folds(5, 2, seed=0)
        counts = np.bincount(fa.fold_of, minlength=2)
        assert sorted(counts) == [2, 3]

    def test_partition_property(self):
        # every row in exactly one fold, for assorted (n, K, seed)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 200))
            k = int(rng.integers(2, n + 1))
            fa = make_folds(n, k, seed=seed)
            assert fa.fold_of.shape == (n,)
            counts = np.bincount(fa.fold_of, minlength=k)
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1
            assert np.all(counts >= 1)

    def test_deterministic_in_seed(self):
        a = make_folds(100, 5, seed=7)
        b = make_folds(100, 5, seed=7)
        c = make_folds(100, 5, seed=8)
        assert np.array_equal(a.fold_of, b.fold_of)
        assert not np.array_equal(a.fold_of, c.fold_of)

    def test_negative_seed_is_masked_to_64_bits(self):
        a = make_folds(10, 2, seed=-1)
        assert np.array_equal(a.fold_of, make_folds(10, 2, seed=2**64 - 1).fold_of)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1, seed=0)
        with pytest.raises(ConfigError):
            make_folds(10, 11, seed=0)

    def test_train_rows_complement(self):
        fa = make_folds(23, 4, seed=3)
        for k in range(4):
            test = fa.rows_in_fold(k)
            train = fa.train_rows(k)
            assert len(set(test) & set(train)) == 0
            assert len(test) + len(train) == 23


class TestFoldAssignment:
    def test_unbalanced_rejected(self):
        with pytest.raises(ConfigError):
            FoldAssignment(fold_of=np.array([0, 0, 0, 1]), n_folds=2)

    def test_empty_fold_rejected(self):
        with pytest.raises(ConfigError):
            FoldAssignment(fold_of=np.array([0, 0]), n_folds=2)


class TestNuisanceEstimates:
    def test_propensity_bounds_enforced(self):
        ok = NuisanceEstimates(
            mu0_hat=np.zeros(3), mu1_hat=np.ones(3), pi_hat=np.full(3, 0.5)
        )
        assert ok.n == 3
        with pytest.raises(DomainError):
            NuisanceEstimates(
                mu0_hat=np.zeros(2), mu1_hat=np.zeros(2), pi_hat=np.array([0.5, 1.0])
            )
        with pytest.raises(DomainError):
            NuisanceEstimates(
                mu0_hat=np.zeros(2), mu1_hat=np.zeros(2), pi_hat=np.array([0.0, 0.5])
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            NuisanceEstimates(
                mu0_hat=np.zeros(2), mu1_hat=np.zeros(3), pi_hat=np.full(2, 0.5)
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="mu1_hat"):
            NuisanceEstimates(
                mu0_hat=np.zeros(2),
                mu1_hat=np.array([np.nan, 0.0]),
                pi_hat=np.full(2, 0.5),
            )


def _labeled(a):
    ds = Dataset(np.zeros((4, 1)), np.zeros(4), [0, 1, 0, 1])
    return LabeledSample(ds, np.zeros(4), np.zeros(4), a, np.full(4, 0.5))


def _group_estimates(psi_hat=(0.0, 1.0), n_g=(2, 2)):
    return GroupEstimates([0.0], psi_hat, [1.0, 1.0], [-2.0, -1.0], [2.0, 3.0], n_g)


# (build the object from the caller's array, the attribute holding it, the array)
HOLDERS = {
    "Dataset.X": (lambda a: Dataset(a, np.zeros(4)), "X", np.zeros((4, 1))),
    "Dataset.y": (lambda a: Dataset(np.zeros((4, 1)), a), "y", np.zeros(4)),
    "Dataset.w": (
        lambda a: Dataset(np.zeros((4, 1)), np.zeros(4), a), "w", np.zeros(4, int)
    ),
    "FoldAssignment.fold_of": (
        lambda a: FoldAssignment(a, 2), "fold_of", np.array([0, 1, 0, 1])
    ),
    "NuisanceEstimates.pi_hat": (
        lambda a: NuisanceEstimates(pi_hat=a), "pi_hat", np.full(4, 0.5)
    ),
    "NuisanceEstimates.mu0_hat": (
        lambda a: NuisanceEstimates(mu0_hat=a), "mu0_hat", np.zeros(4)
    ),
    "PseudoOutcomes.d": (lambda a: PseudoOutcomes(d=a), "d", np.zeros(4)),
    "LabeledSample.true_pi": (_labeled, "true_pi", np.full(4, 0.5)),
    "GroupEstimates.psi_hat": (
        lambda a: _group_estimates(psi_hat=a), "psi_hat", np.array([0.0, 1.0])
    ),
    "GroupEstimates.n_g": (
        lambda a: _group_estimates(n_g=a), "n_g", np.array([2, 2])
    ),
}


@pytest.mark.parametrize("holder", HOLDERS)
def test_value_objects_keep_a_read_only_copy(holder):
    build, name, a = HOLDERS[holder]
    held = getattr(build(a), name)
    before = held.copy()
    assert a.flags.writeable and not held.flags.writeable
    # an invalid value written afterwards must not get behind the validation
    a[...] = np.nan if a.dtype.kind == "f" else 1
    assert np.array_equal(held, before)


# One bad entry of each kind a value rule refuses; None only where the rule
# reads the values as given, before any conversion to float.
NAN, INF = float("nan"), float("inf")
BAD_ENTRIES = {
    "finite": [NAN, INF, -INF],
    "probability": [NAN, INF, -INF, 0.0, 1.0, 2.0],
    "binary": [NAN, INF, -INF, 2, None],
}
N_ROWS = 5
ZEROS, HALVES, ARMS = [0.0] * N_ROWS, [0.5] * N_ROWS, [0, 1, 0, 1, 1]
X5 = np.zeros((N_ROWS, 1))
DS5 = Dataset(X5, ZEROS, ARMS)


def _zero(mu0, mu1):
    return np.zeros(N_ROWS)


# public entry point -> (the rule it applies, valid values, the call on values)
RULED_INPUTS = {
    "Dataset.X": ("finite", ZEROS, lambda v: Dataset(np.column_stack([ZEROS, v]), ZEROS)),
    "Dataset.y": ("finite", ZEROS, lambda v: Dataset(X5, v)),
    "Dataset.w": ("binary", ARMS, lambda v: Dataset(X5, ZEROS, v)),
    "NuisanceEstimates.mu1_hat": (
        "finite", ZEROS, lambda v: NuisanceEstimates(mu0_hat=ZEROS, mu1_hat=v)
    ),
    "NuisanceEstimates.pi_hat": (
        "probability", HALVES, lambda v: NuisanceEstimates(pi_hat=v)
    ),
    "evaluate_propensity": (
        "probability", HALVES, lambda v: evaluate_propensity(DS5, v, 0.01)
    ),
    "LabeledSample.true_mu1": (
        "finite", ZEROS, lambda v: LabeledSample(DS5, ZEROS, v, HALVES, HALVES)
    ),
    "LabeledSample.nominal_pi": (
        "probability", HALVES, lambda v: LabeledSample(DS5, ZEROS, ZEROS, HALVES, v)
    ),
    "group_efficient_estimate": ("finite", ZEROS, group_efficient_estimate),
    "PseudoOutcomes": ("finite", ZEROS, lambda v: PseudoOutcomes(d=v)),
    "aipw_pseudo.w": ("binary", ARMS, lambda v: aipw_pseudo(ZEROS, v, HALVES, 0, 0)),
    "aipw_pseudo.pi": ("probability", HALVES, lambda v: aipw_pseudo(ZEROS, ARMS, v, 0, 0)),
    "ht_pseudo.w": ("binary", ARMS, lambda v: ht_pseudo(ZEROS, v, HALVES)),
    "ht_pseudo.pi": ("probability", HALVES, lambda v: ht_pseudo(ZEROS, ARMS, v)),
    "mar_pseudo.a": ("binary", ARMS, lambda v: mar_pseudo(ZEROS, v, HALVES, ZEROS)),
    "mar_pseudo.pi": ("probability", HALVES, lambda v: mar_pseudo(ZEROS, ARMS, v, ZEROS)),
    "transform_pseudo.w": (
        "binary", ARMS,
        lambda v: transform_pseudo(ZEROS, v, HALVES, 0.5, 0.5, _zero, _zero, _zero),
    ),
    "transform_pseudo.pi": (
        "probability", HALVES,
        lambda v: transform_pseudo(ZEROS, ARMS, v, 0.5, 0.5, _zero, _zero, _zero),
    ),
    "transform_pseudo.df_dmu1": (
        "finite", ZEROS,
        lambda v: transform_pseudo(
            ZEROS, ARMS, HALVES, 0.5, 0.5, _zero, lambda mu0, mu1: np.array(v), _zero
        ),
    ),
    "fit_probability": (
        "binary", ARMS, lambda v: fit_probability(LearnerSpec(kind="mean"), X5, v)
    ),
}


@pytest.mark.parametrize("entry", RULED_INPUTS)
@settings(max_examples=20, deadline=None)
@given(row=st.integers(0, N_ROWS - 1), data=st.data())
def test_one_bad_entry_is_a_domain_error_naming_its_row(entry, row, data):
    rule, good, call = RULED_INPUTS[entry]
    call(good)
    bad = data.draw(st.sampled_from(BAD_ENTRIES[rule]), label="bad")
    values = list(good)
    values[row] = bad
    with pytest.raises(DomainError, match=rf"; row {row} has {re.escape(repr(bad))}$"):
        call(values)


class TestLoadCsv:
    CMAP = ColumnMap(covariates=("x1", "x2"), outcome="y", treatment="w")

    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self.write(
            tmp_path,
            "x1,x2,y,w\n0.5,-1.0,2.25,1\n-0.5,3.0,0.0,0\n",
        )
        ds = load_csv(p, self.CMAP)
        assert ds.n == 2 and ds.d == 2
        assert ds.X[0, 1] == -1.0
        assert ds.y[0] == 2.25
        assert list(ds.w) == [1, 0]

    def test_column_order_follows_map_not_file(self, tmp_path):
        p = self.write(tmp_path, "y,w,x2,x1\n9.0,0,2.0,1.0\n")
        ds = load_csv(p, self.CMAP)
        assert ds.X[0, 0] == 1.0 and ds.X[0, 1] == 2.0

    def test_no_treatment_column(self, tmp_path):
        p = self.write(tmp_path, "x1,y\n1.0,2.0\n")
        ds = load_csv(p, ColumnMap(covariates=("x1",), outcome="y"))
        assert ds.w is None

    def test_header_only_rejected(self, tmp_path):
        p = self.write(tmp_path, "x1,x2,y,w\n")
        with pytest.raises(SchemaError, match="header only"):
            load_csv(p, self.CMAP)

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(p, self.CMAP)

    def test_missing_column_named(self, tmp_path):
        p = self.write(tmp_path, "x1,y,w\n1.0,2.0,0\n")
        with pytest.raises(SchemaError, match="'x2'"):
            load_csv(p, self.CMAP)

    def test_bad_cell_located(self, tmp_path):
        p = self.write(
            tmp_path, "x1,x2,y,w\n1.0,2.0,3.0,1\n1.0,oops,3.0,0\n"
        )
        with pytest.raises(ParseError, match=r"row 1, column 'x2'"):
            load_csv(p, self.CMAP)

    def test_nonfinite_cell_rejected(self, tmp_path):
        p = self.write(tmp_path, "x1,x2,y,w\n1.0,nan,3.0,1\n")
        with pytest.raises(DomainError, match="row 0"):
            load_csv(p, self.CMAP)

    def test_treatment_out_of_range_located(self, tmp_path):
        p = self.write(
            tmp_path, "x1,x2,y,w\n1.0,2.0,3.0,1\n1.0,2.0,3.0,2\n"
        )
        with pytest.raises(DomainError, match="row 1"):
            load_csv(p, self.CMAP)

    def test_short_row_rejected(self, tmp_path):
        p = self.write(tmp_path, "x1,x2,y,w\n1.0,2.0\n")
        with pytest.raises(ParseError, match="row 0"):
            load_csv(p, self.CMAP)

    def test_column_map_from_dict(self):
        cm = ColumnMap.from_dict(
            {"covariates": ["a", "b"], "outcome": "y", "treatment": "t"}
        )
        assert cm.covariates == ("a", "b")
        assert cm.treatment == "t"
        with pytest.raises(ConfigError):
            ColumnMap.from_dict({"covariates": ["a"]})
        with pytest.raises(ConfigError):
            ColumnMap.from_dict({"covariates": [], "outcome": "y"})


def _reference_read_csv_columns(path, names):
    """The row-by-row parse, one cell at a time (the file opened as UTF-8)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty (no header row)")
        header = [h.strip() for h in header]
        idx = []
        for name in names:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            idx.append(header.index(name))
        rows = []
        for rownum, rec in enumerate(reader):
            vals = []
            for j, name in zip(idx, names):
                if j >= len(rec):
                    raise ParseError(
                        f"{path}: row {rownum}: too few fields for column {name!r}"
                    )
                raw = rec[j].strip()
                try:
                    val = float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {rownum}, column {name!r}: "
                        f"cannot parse {raw!r} as a number"
                    ) from None
                if not math.isfinite(val):
                    raise DomainError(
                        f"{path}: row {rownum}, column {name!r}: "
                        f"non-finite value {raw!r}"
                    )
                vals.append(val)
            rows.append(vals)
    if not rows:
        raise SchemaError(f"{path}: no data rows (header only)")
    return np.asarray(rows, dtype=float)


def _outcome(fn, path, names):
    """The table's shape and bits, or the exception's class and message."""
    try:
        table = fn(path, names)
    except (SchemaError, ParseError, DomainError) as err:
        return type(err), str(err)
    return table.shape, table.tobytes()


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "-0", "0", "+0.0", "1e308", "-1e308", "1.7976931348623157e308", "1e309",
        "5e-324", "1_0", "1__0", "_1", "nan", "NaN", "-nan", "inf", "-inf",
        "Infinity", "", " ", "oops", "1,5", "0x10", "1e", ".5", "5.", "\u0661",
    ]),
)
_PADDED = st.tuples(
    st.sampled_from(["", " ", "  ", "\t", " \t"]), _CELLS,
    st.sampled_from(["", " ", "\t "]),
).map("".join)


class TestReadCsvColumns:
    HEADER = ["a", "b", "c", "skip"]

    def write(self, tmp_path, rows, bom=False):
        p = tmp_path / "cols.csv"
        with open(p, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([self.HEADER, *rows])
        return p

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(_PADDED, min_size=0, max_size=5), max_size=12),
        names=st.permutations(["a", "b", "c"]).flatmap(
            lambda p: st.integers(1, 3).map(lambda k: p[:k])
        ),
        bom=st.booleans(),
    )
    @example(rows=[["1", "2", "3", "4"], ["oops", "nan", "", "x"]], names=["c", "b", "a"],
             bom=False)
    @example(rows=[["1", "2", "3"], ["4", "5"], ["inf", "6", "7"]], names=["a", "c"],
             bom=True)
    @example(rows=[[" -0 ", "1e308", "1_0", "\t2.5 "]], names=["a", "b", "c"], bom=False)
    def test_equals_row_loop(self, tmp_path_factory, rows, names, bom):
        p = self.write(tmp_path_factory.mktemp("csv"), rows, bom)
        want = _outcome(_reference_read_csv_columns, p, names)
        assert _outcome(read_csv_columns, p, names) == want

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_byte_not_utf8_is_a_parse_error_at_its_offset(self, tmp_path, bom):
        p = tmp_path / "latin1.csv"
        p.write_bytes(bom + b"x1,x2,y,w\n0.5,-1.0,\xff,1\n")
        at = len(bom) + 19
        with pytest.raises(ParseError) as err:
            load_csv(p, TestLoadCsv.CMAP)
        assert str(err.value) == f"{p}: byte {at} (0xff) is not UTF-8"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "excel.csv"
        p.write_bytes(b"\xef\xbb\xbfx1,x2,y,w\r\n0.5,-1.0,2.25,1\r\n")
        ds = load_csv(p, TestLoadCsv.CMAP)
        assert ds.X.tolist() == [[0.5, -1.0]] and ds.y.tolist() == [2.25]
