"""Properties of the --known-propensity interpreter.

Expressions drawn from the language's grammar give, on whole columns, the
bits that Python's ``eval`` of the same text gives row by row; arbitrary
short texts fail with nothing but a ``ConfigError``.  ``eval`` appears
only here, as the reference for the row-by-row semantics.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolearn.cli import propensity_expression
from pseudolearn.errors import ConfigError

# numbers as they appear in an expression's text; zero is never a divisor
DIVISORS = ["0.5", "2", "3.0", "0.1", "7", "-1.5"]
CONSTANTS = DIVISORS + ["0", "0.0", "1", "True"]
ENTRIES = [0.0, -0.0, 0.5, -1.5, 2.0, 3.0, 1e-300, -1e300, np.inf, np.nan]


@st.composite
def numbers(draw, d, depth):
    """An expression whose value on a row is a number."""
    leaf = st.one_of(
        st.integers(-d, d - 1).map(lambda i: f"x[{i}]"),
        st.integers(0, d - 1).map(lambda i: f"x[{i}+0]"),
        st.sampled_from(CONSTANTS),
    )
    if depth == 0:
        return draw(leaf)
    num, cond, real = numbers(d, depth - 1), truths(d, depth - 1), reals(d, depth - 1)
    form = draw(st.integers(0, 11))
    if form == 0:
        return draw(leaf)
    if form == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({draw(num)} {op} {draw(num)})"
    if form == 2:
        op = draw(st.sampled_from(["/", "//", "%"]))
        return f"({draw(num)} {op} {draw(st.sampled_from(DIVISORS))})"
    if form == 3:
        return f"({draw(st.sampled_from(['-', '+']))}{draw(num)})"
    if form == 4:
        f = draw(st.sampled_from(["abs", "np.tanh", "np.exp", "np.log", "np.sqrt",
                                  "np.sin", "np.cos", "np.abs"]))
        return f"{f}({draw(num)})"
    if form == 5:
        f = draw(st.sampled_from(["np.minimum", "np.maximum"]))
        return f"{f}({draw(num)}, {draw(num)})"
    if form == 6:
        return f"np.clip({draw(num)}, {draw(num)}, {draw(num)})"
    if form == 7:
        return f"np.where({draw(cond)}, {draw(num)}, {draw(num)})"
    if form == 8:
        return f"({draw(real)} if {draw(cond)} else {draw(real)})"
    if form == 9:
        a, b = draw(num), draw(num)
        if "x[" not in a + b:
            a = draw(leaf.filter(lambda t: "x[" in t))
        return f"({a} ** {b})"
    if form == 10:
        return f"({draw(real)} {draw(st.sampled_from(['and', 'or']))} {draw(real)})"
    return f"({draw(num)} * {draw(cond)})"


@st.composite
def reals(draw, d, depth):
    """An expression whose value on every row is a numpy float that is not an
    array: the operands of ``if``, ``and`` and ``or``, which must have one type
    on every row (see ``test_values_take_numpy_types``)."""
    x = st.integers(-d, d - 1).map(lambda i: f"x[{i}]")
    if depth == 0:
        return draw(x)
    real, num = reals(d, depth - 1), numbers(d, depth - 1)
    form = draw(st.integers(0, 5))
    if form == 0:
        return draw(x)
    if form == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        a, b = draw(real), draw(num)
        return f"({a} {op} {b})" if draw(st.booleans()) else f"({b} {op} {a})"
    if form == 2:
        op = draw(st.sampled_from(["/", "//", "%", "**"]))
        return f"({draw(real)} {op} {draw(st.sampled_from(DIVISORS))})"
    if form == 3:
        f = draw(st.sampled_from(["-", "abs", "np.exp", "np.log", "np.sqrt", "np.tanh"]))
        return f"{f}({draw(real)})"
    if form == 4:
        return f"np.clip({draw(real)}, {draw(num)}, {draw(num)})"
    return f"({draw(real)} if {draw(truths(d, depth - 1))} else {draw(real)})"


@st.composite
def truths(draw, d, depth):
    """An expression whose value on a row is a truth value."""
    num = numbers(d, max(depth - 1, 0))
    cmp = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
    form = draw(st.integers(0, 4 if depth else 1))
    if form == 0:
        return f"({draw(num)} {draw(cmp)} {draw(num)})"
    if form == 1:
        return f"({draw(num)} {draw(cmp)} {draw(num)} {draw(cmp)} {draw(num)})"
    cond = truths(d, depth - 1)
    if form == 2:
        return f"(not {draw(cond)})"
    if form == 3:
        op = draw(st.sampled_from(["and", "or", "&", "|", "^"]))
        return f"({draw(cond)} {op} {draw(cond)})"
    return f"({draw(num)} * {draw(cond)} > {draw(num)})"


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 16))
    X = np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=n * d, max_size=n * d)))
    return draw(numbers(d, draw(st.integers(0, 3)))), X.reshape(n, d)


def rowwise(expr, X):
    """The row-by-row ``eval`` the interpreter replaced: one globals dict for
    every row, ``x`` the row, and ``float`` of each row's value."""
    code = compile(expr, "<reference>", "eval")
    env = {"__builtins__": {}}
    return np.asarray([float(eval(code, env, {"x": x, "np": np, "abs": abs})) for x in X])


@settings(max_examples=400, deadline=None)
@given(cases())
def test_columns_give_the_bits_of_rowwise_eval(case):
    expr, X = case
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = rowwise(expr, X)
        except Exception:  # then compiling or computing fails too
            with pytest.raises(ConfigError):
                propensity_expression(expr)(X)
            return
        got = propensity_expression(expr)(X)
    # NaN by NaN: numpy's array and scalar arithmetic may pass on different NaNs
    same = (got.view(np.int64) == want.view(np.int64)) | np.isnan(got) & np.isnan(want)
    assert same.all(), (expr, X, got, want)


ALPHABET = "x[]0123456789.+-*/%<>=!&|^~() ,:'" + "npabswhereclipmaxinotandorif_"


@settings(max_examples=400, deadline=None)
@given(st.text(ALPHABET, max_size=20))
def test_any_text_fails_only_with_a_config_error(expr):
    X = np.array([[0.5, -1.0], [0.0, 2.0], [np.nan, np.inf]])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            propensity_expression(expr)(X)
        except ConfigError:
            pass


def test_values_take_numpy_types():
    """``if``, ``and`` and ``or`` give every row numpy's common type of their
    operands, and ``not`` gives numpy's truth value; row-by-row ``eval`` kept
    each row's own type, and Python's ``bool`` for ``not``."""
    X = np.array([[1.0], [-1.0]])
    cases = [
        # Python's 0 stayed an integer, whose negation has no sign
        ("-(0 if x[0] > 0 else x[0])", [-0.0, 1.0], [0.0, 1.0]),
        # numpy's exp of a truth value is a half-precision float
        ("np.exp(x[0] > 0 or x[0])", [np.e, np.exp(-1.0)], [2.71875, np.exp(-1.0)]),
        # numpy's True + True is True, Python's is 2
        ("(not x[0] > 0) + (not x[0] > 0)", [0.0, 1.0], [0.0, 2.0]),
    ]
    for expr, now, before in cases:
        assert propensity_expression(expr)(X).tobytes() == np.array(now).tobytes()
        assert rowwise(expr, X).tobytes() == np.array(before).tobytes()


@pytest.mark.parametrize(
    "expr",
    # forms that failed on every row, then identity and membership tests:
    # eval gave x[0] is 0.5 as 0.0 on every row, and 0.5 in x needs a bare x
    ["x", "x[0] @ x[0]", "np.where(x[0])", "abs()", "x[0] is 0.5", "0.5 in x"],
)
def test_refused_when_compiled(expr):
    with pytest.raises(ConfigError, match="not allowed"):
        propensity_expression(expr)


def test_where_keeps_its_array_power():
    # on a row np.where gives an array, and an array's ** 0.5 is a square
    # root: sqrt(-0.0) is -0.0 where the scalar pow(-0.0, 0.5) is 0.0
    X = np.array([[-0.0], [0.25]])
    expr = "np.where(x[0] > 1, 1.0, x[0]) ** 0.5"
    want = np.array([-0.0, 0.5]).tobytes()
    assert propensity_expression(expr)(X).tobytes() == rowwise(expr, X).tobytes() == want


def test_clip_with_column_bounds_keeps_row_bits():
    # numpy's array clip with array bounds orders a tie of 0.0 and -0.0
    # unlike its scalar clip, from about 16 rows on
    X = np.tile([0.0, 0.0, -0.0], (32, 1))
    expr = "np.clip(x[0], x[1], x[2])"
    want = np.zeros(32).tobytes()
    assert propensity_expression(expr)(X).tobytes() == rowwise(expr, X).tobytes() == want
