"""Grammar, precedence and error-position checks for the expression parser."""

import math
import warnings

import numpy as np
import pytest

from ccspectral.expressions import Expression, ExpressionError, compile_expression


def ev(source, x=0.0, y=0.0):
    return float(compile_expression(source)(x, y))


def test_numbers_and_constants():
    assert ev("3") == 3.0
    assert ev("2.5") == 2.5
    assert ev(".5") == 0.5
    assert ev("1e3") == 1000.0
    assert ev("2.5e-2") == 0.025
    assert ev("pi") == pytest.approx(math.pi, abs=0)
    assert ev("e") == pytest.approx(math.e, abs=0)


def test_variables():
    assert ev("x", x=2.0, y=7.0) == 2.0
    assert ev("y", x=2.0, y=7.0) == 7.0
    assert ev("x*y + x", x=3.0, y=4.0) == 15.0


def test_additive_and_multiplicative_precedence():
    assert ev("2 + 3*4") == 14.0
    assert ev("2*3 + 4") == 10.0
    assert ev("10 - 4 - 3") == 3.0       # left-associative
    assert ev("12 / 4 / 3") == 1.0
    assert ev("1 - 2*3 + 4") == -1.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-2") == 0.25


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("(2^3)^2") == 64.0


def test_functions():
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
    assert ev("abs(-3.5)") == 3.5
    assert ev("sin(x)^2 + cos(x)^2", x=0.7) == pytest.approx(1.0, rel=1e-15)


def test_tan_log_sqrt():
    assert ev("tan(pi/4)") == pytest.approx(1.0, rel=1e-15)
    assert ev("log(e^2)") == pytest.approx(2.0, rel=1e-15)
    assert ev("sqrt(1+x)", x=3.0) == 2.0
    assert ev("exp(log(x)) - sqrt(x)^2", x=2.5) == pytest.approx(0.0, abs=1e-15)
    # each parses as a call node, not as an unknown name
    for name in ("tan", "log", "sqrt"):
        assert compile_expression(f"{name}(x)").ast[:2] == ("call", name)
        with pytest.raises(ExpressionError):
            compile_expression(f"{name} x")


def test_domain_errors_yield_non_finite_values():
    with np.errstate(divide="ignore", invalid="ignore"):
        assert ev("log(x)", x=0.0) == -math.inf
        assert math.isnan(ev("sqrt(x)", x=-1.0))
        assert math.isnan(ev("log(x)", x=-1.0))


@pytest.mark.parametrize("source, reads_y", [
    ("x", False), ("1+sin(x)^2*pi", False), ("-exp(x)/e", False),
    ("y", True), ("x+0*y", True), ("sqrt(abs(cos(2*y)))", True), ("-(x*(1-y))^2", True)])
def test_reads_y_iff_the_tree_names_y(source, reads_y):
    assert compile_expression(source).reads_y is reads_y


def test_nested_parentheses():
    assert ev("((2 + 3) * (4 - 1))") == 15.0


def test_vectorized_evaluation_broadcasts():
    f = compile_expression("x^2 + y")
    x = np.linspace(0.0, 1.0, 5)
    y = 2.0
    out = f(x, y)
    assert out.shape == (5,)
    assert np.allclose(out, x**2 + 2.0, rtol=0, atol=0)


def test_constant_expression_broadcasts_to_input_shape():
    f = compile_expression("0")
    out = f(np.zeros((3, 4)), np.zeros((3, 4)))
    assert out.shape == (3, 4)
    assert np.all(out == 0.0)


def test_mesh_broadcasting():
    f = compile_expression("x*y")
    x = np.linspace(0.0, 1.0, 3)[:, None]
    y = np.linspace(0.0, 2.0, 4)[None, :]
    out = f(x, y)
    assert out.shape == (3, 4)
    assert np.allclose(out, x * y, rtol=0, atol=0)


def test_parse_determinism_and_equality():
    a = compile_expression("sin(x) + 2*y")
    b = compile_expression("sin(x) + 2*y")
    assert a == b
    assert a.source == "sin(x) + 2*y"
    assert float(a(1.2, 0.3)) == float(b(1.2, 0.3))


@pytest.mark.parametrize("source,position", [
    ("x +", 3),            # dangling operator
    ("(x", 2),             # missing closing paren
    ("1 $ 2", 2),          # bad character
    ("x y", 2),            # trailing input
    ("foo(x)", 0),         # unknown name
    ("z", 0),              # unknown variable
])
def test_errors_carry_positions(source, position):
    with pytest.raises(ExpressionError) as err:
        compile_expression(source)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_error_message_points_at_source():
    with pytest.raises(ExpressionError) as err:
        compile_expression("2 * (x + )")
    message = str(err.value)
    assert "2 * (x + )" in message
    assert "^" in message


def test_function_requires_parentheses():
    with pytest.raises(ExpressionError):
        compile_expression("sin x")


def test_empty_expression_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("   ")


def test_non_string_rejected():
    with pytest.raises(ExpressionError):
        compile_expression(42)


def test_division_by_zero_yields_inf():
    # numpy semantics: no crash, the caller sees the non-finite value,
    # also when both operands are literals
    with np.errstate(divide="ignore"):
        assert np.isinf(compile_expression("1/x")(0.0, 0.0))
        assert np.isinf(compile_expression("1+1/0")(0.0, 0.0))


# The cause each expression reports at (x, y) = (0, 0).
NON_FINITE_CAUSES = [
    ("1+log(x)^2", "log of 0.0 gives -inf"),
    ("1/x", "/ by 0.0 gives inf"),
    ("2+1/(x-y)", "/ by 0.0 gives inf"),
    ("sqrt(x-0.5)", "sqrt of -0.5 gives nan"),
    ("0^-1", "0.0 ^ -1.0 gives inf"),
    ("1e200*1e200+x", "1e+200 * 1e+200 gives inf"),
    ("x*1e999", "number inf"),
    # the inf of 1/x is absorbed by exp, so nothing is non-finite at the top
    ("exp(-1/x)", None),
    ("x+y", None),
]


@pytest.mark.parametrize("source, cause", NON_FINITE_CAUSES)
def test_first_non_finite_names_the_innermost_operation(source, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert compile_expression(source).first_non_finite(0.0, 0.0) == cause
