import numpy as np
import pytest

from fredsolve.errors import ExprParseError
from fredsolve.expr import MAX_DEPTH, compile_expr
from oracles import reference_expr

# a benchmark-style psi*: three literals in each term
SINE_SUM = ("0.012345678901*sin(1*3.141592653589793*x)"
            "-0.234567890123*sin(3*3.141592653589793*x)+0.5*sin(4*3.141592653589793*x)")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("text", [
    SINE_SUM, "-1", "x*(1-x)", "exp(1000*x)", "2*3-4/5*x", "sin(2)*x", "-(x-2)*-3", "1/0*x"])
def test_folded_literals_give_the_reference_bits(text):
    x = np.linspace(-1.0, 1.0, 257)
    with np.errstate(all="ignore"):
        assert same_bits(compile_expr(text)(x), reference_expr(text)(x))


@pytest.mark.parametrize("text", ["-1", "2*3", "sin(2)"])
@pytest.mark.parametrize("x", [0.5, np.float64(0.25), np.zeros((3, 2))], ids=["float", "np", "2d"])
def test_a_constant_keeps_the_shape_of_x(text, x):
    got = compile_expr(text)(x)
    assert np.shape(got) == np.shape(x)
    assert same_bits(got, reference_expr(text)(x))


def test_constant():
    f = compile_expr("0")
    assert np.max(np.abs(f(np.linspace(0, 1, 5)))) == 0.0


def test_scaled_sine():
    f = compile_expr("sin(3.14159265*x)")
    x = np.linspace(0, 1, 9)
    assert np.allclose(f(x), np.sin(3.14159265 * x), atol=1e-15)


def test_arithmetic_mix():
    f = compile_expr("2*x + cos(x)/4 - exp(-x)")
    x = np.linspace(0, 1, 7)
    assert np.allclose(f(x), 2 * x + np.cos(x) / 4 - np.exp(-x), atol=1e-15)


def test_nested_parentheses():
    f = compile_expr("(1 + x) * (2 - x)")
    assert f(0.5) == pytest.approx(1.5 * 1.5)


def test_unary_minus():
    f = compile_expr("-x*-2")
    assert f(3.0) == pytest.approx(6.0)


def test_unclosed_function_call_column():
    with pytest.raises(ExprParseError) as exc:
        compile_expr("sin(")
    assert exc.value.column == 4


def test_unknown_name_column():
    with pytest.raises(ExprParseError) as exc:
        compile_expr("2 + tan(x)")
    assert exc.value.column == 5


def test_trailing_junk():
    with pytest.raises(ExprParseError):
        compile_expr("1 + 2 )")


def test_empty():
    with pytest.raises(ExprParseError):
        compile_expr("   ")


def at_depth(frames, fn):
    """fn() called under `frames` extra stack frames."""
    return fn() if frames == 0 else at_depth(frames - 1, fn)


# (text, column): one level past MAX_DEPTH of each kind, and where it is refused
TOO_DEEP = [
    ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH + 1),
    ("+".join(["x"] * (MAX_DEPTH + 2)), 2 * MAX_DEPTH + 2),
    ("-" * (MAX_DEPTH + 1) + "x", MAX_DEPTH + 1),
    ("sin(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), 4 * MAX_DEPTH + 1)]
AT_THE_CAP = [
    "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "+".join(["x"] * (MAX_DEPTH + 1)),
    "-" * MAX_DEPTH + "x",
    "sin(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH]
SHAPES = ["parentheses", "flat-sum", "signs", "calls"]


# the parser, _fold and the compiled callable all recurse: the cap keeps each
# verdict the same however deep the caller's own stack already is
@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("text,column", TOO_DEEP, ids=SHAPES)
def test_an_expression_past_the_depth_cap_is_refused(text, column, frames):
    with pytest.raises(ExprParseError, match=f"deeper than {MAX_DEPTH}") as exc:
        at_depth(frames, lambda: compile_expr(text))
    assert exc.value.column == column


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("text", AT_THE_CAP, ids=SHAPES)
def test_an_expression_at_the_depth_cap_compiles(text, frames):
    x = np.linspace(-1.0, 1.0, 5)
    got = at_depth(frames, lambda: compile_expr(text)(x))
    assert same_bits(got, reference_expr(text)(x))
