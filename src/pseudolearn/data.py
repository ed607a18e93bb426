"""Core data model: datasets, fold assignments, nuisance tables, value rules.

A :class:`Dataset` is an immutable column store of covariates ``X``,
outcomes ``y`` and an optional binary treatment/observation indicator
``w``.  All estimators in the package consume datasets and produce or
consume :class:`NuisanceEstimates` aligned row-by-row with them.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import rng as rngmod
from .config import FromDict
from .errors import ConfigError, DomainError, ParseError, SchemaError

__all__ = [
    "EPS_CLIP_DEFAULT",
    "P_CLIP_DEFAULT",
    "Dataset",
    "FoldAssignment",
    "NuisanceEstimates",
    "ColumnMap",
    "make_folds",
    "load_csv",
    "read_csv_columns",
    "write_csv",
]

# Numeric floors enforcing overlap: propensities are clipped into
# [EPS_CLIP, 1 - EPS_CLIP], binary-outcome means into [P_CLIP, 1 - P_CLIP].
EPS_CLIP_DEFAULT = 0.01
P_CLIP_DEFAULT = 0.01


def read_only_copy(a, dtype=float) -> np.ndarray:
    """A read-only copy of ``a``, which a later write to ``a`` cannot reach."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def scalar_or_array(a):
    """A 0-d result as a plain Python number, any other as it is."""
    return a.item() if np.ndim(a) == 0 else a


def _refuse_unless(ok, where: str, rule: str, a) -> None:
    """DomainError naming the first row (axis 0) of ``a`` where ``ok`` fails."""
    if not ok.all():
        i = int(np.argmin(ok))  # the first failing entry, rows first
        row = np.unravel_index(i, ok.shape or (1,))[0]
        raise DomainError(f"{where} must be {rule}; row {row} has {a.item(i)!r}")


def all_finite(where: str, a) -> None:
    """Refuse NaN and +-inf entries of ``a``."""
    a = np.asarray(a, dtype=float)
    _refuse_unless(np.isfinite(a), where, "finite", a)


def all_probabilities(where: str, a) -> None:
    """Refuse entries of ``a`` outside the open interval (0, 1), NaN included."""
    a = np.asarray(a, dtype=float)
    _refuse_unless((a > 0.0) & (a < 1.0), where, "strictly inside (0, 1)", a)


def all_between(where: str, a, lo: float, hi: float) -> None:
    """Refuse entries of ``a`` outside the closed interval [lo, hi], NaN included."""
    a = np.asarray(a, dtype=float)
    _refuse_unless((a >= lo) & (a <= hi), where, f"in [{lo}, {hi}]", a)


def _is_number(v) -> bool:
    return isinstance(v, (numbers.Real, np.bool_))


def _is_binary(v) -> bool:
    return _is_number(v) and v in (0, 1)


def _as_given(where: str, a) -> np.ndarray:
    """``a`` as an array; a non-numeric one holds its entries as given (beside
    a string, numpy would turn 1.0 into "1.0").  Ragged rows are a SchemaError."""
    try:
        arr = np.asarray(a)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise SchemaError(f"{where} has rows of unequal length") from None
    return arr if arr.dtype.kind in "biuf" else np.asarray(a, dtype=object)


def all_numbers(where: str, a) -> np.ndarray:
    """``a`` as a float array, refusing entries that are not real numbers, read
    as given (a string or None fails even where ``float()`` would take it)."""
    a = _as_given(where, a)
    if a.dtype == object:
        _refuse_unless(np.vectorize(_is_number, otypes=[bool])(a), where, "real numbers", a)
    return np.asarray(a, dtype=float)


def all_binary(where: str, a) -> None:
    """Refuse entries of ``a`` that are not the number 0 or 1, read as given
    (a string, None or NaN fails even where ``float()`` would take it)."""
    a = _as_given(where, a)
    ok = np.vectorize(_is_binary, otypes=[bool])(a) if a.dtype == object else (a == 0) | (a == 1)
    _refuse_unless(ok, where, "0 or 1", a)


class Dataset:
    """Immutable sample of n observations with d covariates each.

    Parameters
    ----------
    X : array-like, shape (n, d)
        Covariate matrix; all entries finite real numbers.
    y : array-like, shape (n,)
        Outcomes; all entries finite real numbers.
    w : array-like of {0, 1}, shape (n,), optional
        Treatment / observation indicator.  Absent for pure regression
        problems.
    """

    def __init__(self, X, y, w=None):
        X = read_only_copy(all_numbers("covariates X", X))
        y = read_only_copy(all_numbers("outcomes y", y).ravel())
        if X.ndim != 2:
            raise SchemaError(f"X must be 2-D (n, d), got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise SchemaError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise SchemaError("dataset is empty")
        all_finite("covariates X", X)
        all_finite("outcomes y", y)
        if w is not None:
            w = _as_given("treatment indicator w", w)
            if w.shape != y.shape:
                raise SchemaError(f"w has shape {w.shape}, expected {y.shape}")
            all_binary("treatment indicator w", w)
            w = read_only_copy(w, np.int64)
        self.X = X
        self.y = y
        self.w = w

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        """New dataset from the given row indices (order preserved)."""
        idx = np.asarray(idx)
        w = None if self.w is None else self.w[idx]
        return Dataset(self.X[idx], self.y[idx], w)

    def require_indicator(self, what: str) -> np.ndarray:
        """``w``, which ``what`` reads; a SchemaError when the dataset has none."""
        if self.w is None:
            raise SchemaError(f"{what} needs a treatment/observation indicator column")
        return self.w

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        arm = "" if self.w is None else f", treated={int(self.w.sum())}"
        return f"Dataset(n={self.n}, d={self.d}{arm})"


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of row indices {0..n-1} into ``n_folds`` balanced folds."""

    fold_of: np.ndarray
    n_folds: int

    def __post_init__(self):
        fold_of = read_only_copy(self.fold_of, np.int64)
        object.__setattr__(self, "fold_of", fold_of)
        counts = np.bincount(fold_of, minlength=self.n_folds)
        if counts.size != self.n_folds or np.any(counts == 0):
            raise ConfigError("every fold must be non-empty")
        if counts.max() - counts.min() > 1:
            raise ConfigError("fold sizes must differ by at most 1")

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]

    def rows_in_fold(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == k)

    def train_rows(self, k: int) -> np.ndarray:
        """Complement of fold k, i.e. the rows a fold-k model trains on."""
        return np.flatnonzero(self.fold_of != k)


def make_folds(n: int, n_folds: int, seed: int) -> FoldAssignment:
    """Uniformly random balanced partition of n rows into ``n_folds`` folds.

    Deterministic in ``seed``, any integer (``rng.stream`` masks it to 64
    bits).  Fold sizes differ by at most one
    (permute-then-chunk, so balance is exact).
    """
    if n_folds < 2 or n_folds > n:
        raise ConfigError(
            f"fold count must satisfy 2 <= K <= n; got K={n_folds}, n={n}"
        )
    perm = rngmod.stream(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    # chunk lengths n//K (+1 for the first n % K folds)
    base, extra = divmod(n, n_folds)
    start = 0
    for k in range(n_folds):
        size = base + (1 if k < extra else 0)
        fold_of[perm[start : start + size]] = k
        start += size
    return FoldAssignment(fold_of=fold_of, n_folds=n_folds)


@dataclass(frozen=True)
class NuisanceEstimates:
    """Per-row out-of-fold nuisance predictions.

    ``mu0_hat`` and ``mu1_hat`` are the arm-conditional outcome means,
    ``pi_hat`` the propensity, all aligned with the dataset rows they
    were computed for.  Only the vectors the target reads are fitted
    (``pseudo.NUISANCES``); the others are ``None``.  ``fold_of`` records,
    when the estimates come from cross-fitting, which fold each row fell
    in: fold k's models were trained on the rows outside fold k.
    """

    mu0_hat: np.ndarray | None = None
    mu1_hat: np.ndarray | None = None
    pi_hat: np.ndarray | None = None
    fold_of: np.ndarray | None = None

    def __post_init__(self):
        vectors = {
            name: read_only_copy(getattr(self, name))
            for name in ("mu0_hat", "mu1_hat", "pi_hat")
            if getattr(self, name) is not None
        }
        if len({arr.shape for arr in vectors.values()}) > 1:
            raise SchemaError("nuisance vectors must have identical length")
        for name, arr in vectors.items():
            (all_probabilities if name == "pi_hat" else all_finite)(name, arr)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        present = (self.mu0_hat, self.mu1_hat, self.pi_hat, self.fold_of)
        return next((v.shape[0] for v in present if v is not None), 0)


@dataclass(frozen=True)
class ColumnMap(FromDict):
    """Names the CSV columns holding covariates, outcome and treatment."""

    covariates: tuple[str, ...]
    outcome: str
    treatment: str | None = None

    def __post_init__(self):
        if not self.covariates:
            raise ConfigError("column map needs at least one covariate column")


def read_csv_columns(path, names) -> np.ndarray:
    """Parse the named columns of a headered CSV file into an (n, len(names)) matrix.

    Rows with any non-finite field are rejected (not silently dropped:
    silent row loss changes n and breaks reproducibility).  Floats use
    decimal points; the file is UTF-8 whatever the locale (a BOM is skipped).

    Raises
    ------
    ConfigError
        The file does not exist.
    SchemaError
        Missing column, or one the header names twice; empty or
        header-only file.
    ParseError
        A byte that is not UTF-8, with its offset named; a record whose
        field count differs from the header's, with the row and both counts
        named; an empty or non-numeric cell, with row and column named.
    DomainError
        Non-finite value, with row and column named.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start} ({raw[e.start]:#04x}) is not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: file is empty (no header row)")
    header = [h.strip() for h in header]
    idx = []
    for name in names:
        if header.count(name) != 1:
            problem = "missing column" if name not in header else "header repeats column"
            raise SchemaError(f"{path}: {problem} {name!r}")
        idx.append(header.index(name))
    records = list(reader)
    if not records:
        raise SchemaError(f"{path}: no data rows (header only)")
    if set(map(len, records)) != {len(header)}:
        r = next(r for r, rec in enumerate(records) if len(rec) != len(header))
        raise ParseError(
            f"{path}: row {r} has {len(records[r])} fields, the header {len(header)}"
        )
    # One C-level float() pass per column (float strips whitespace itself).
    table = np.empty((len(records), len(idx)))
    try:
        for col, j in enumerate(idx):
            table[:, col] = list(map(float, map(itemgetter(j), records)))
        if np.isfinite(table).all():
            return table
    except ValueError:
        pass
    # A bad cell: the row loop names the first one, by row, then by column.
    for rownum, rec in enumerate(records):
        for j, name in zip(idx, names):
            at = f"{path}: row {rownum}, column {name!r}"
            raw = rec[j].strip()
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(f"{at}: cannot parse {raw!r} as a number") from None
            if not math.isfinite(value):
                raise DomainError(f"{at}: non-finite value {raw!r}")


def load_csv(path, column_map) -> Dataset:
    """Parse a headered CSV file into a :class:`Dataset`.

    ``column_map`` is a :class:`ColumnMap` or its dict form.  Errors are
    those of :func:`read_csv_columns`, plus a :class:`DomainError`
    naming the row when the treatment is not 0 or 1.
    """
    if isinstance(column_map, dict):
        column_map = ColumnMap.from_dict(column_map)
    names = list(column_map.covariates) + [column_map.outcome]
    if column_map.treatment is not None:
        names.append(column_map.treatment)
    table = read_csv_columns(path, names)
    d = len(column_map.covariates)
    w = table[:, d + 1] if column_map.treatment is not None else None
    return Dataset(table[:, :d], table[:, d], w)


def write_csv(path, header, rows) -> None:
    """Write a headered CSV; floats get 17 significant digits (exact round-trip)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(float(v), ".17g") if isinstance(v, float) else v for v in row]
            )
