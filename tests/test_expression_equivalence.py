"""The precedence-table parser and the one-walk evaluator against the
recursive-descent parser and two walks they replaced (``expression_oracle``).

For every input both must give the same syntax tree, or the same
ExpressionError message and position; on every tree both must give
bitwise-equal values and name the same non-finite operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expression_oracle as oracle
from ccspectral.expressions import ExpressionError, _evaluate, _parse, compile_expression
from test_cli import NESTED
from test_expressions import NON_FINITE_CAUSES

# Every token kind (numbers in each form, variables, constants, functions,
# unknown names, operators, parentheses), whitespace, and inputs the
# tokenizer rejects.
ATOMS = ["x", "y", "pi", "e", "0", "1", "2.5", ".5", "1e3", "2E-2", "1e999"]
FRAGMENTS = ATOMS + ["E", "sin", "cos", "tan", "exp", "log", "sqrt", "abs", "foo", "_a1",
                     "3e+", "1.2.3", "+", "-", "*", "/", "^", "(", ")", " ", "  ", "\t",
                     "$", "²", "é"]

# Sample points, with zero, a negative, a huge value and an infinity among them.
XS = np.array([0.0, 0.5, -1.0, 2.0, 1e300, np.inf])
YS = np.array([0.0, -0.5, 3.0, 0.0, 1e-300, -np.inf])


def outcome(parse, source):
    try:
        return ("tree", parse(source))
    except ExpressionError as exc:
        return ("error", str(exc), exc.position)


def assert_equivalent(source):
    got = outcome(_parse, source)
    assert got == outcome(lambda s: oracle._Parser(s).parse(), source)
    if got[0] == "tree":
        assert_same_values(got[1])


def assert_same_values(tree):
    with np.errstate(all="ignore"):
        value, cause = _evaluate(tree, XS, YS)
        want = oracle._evaluate(tree, XS, YS)
        assert cause is None
        assert np.asarray(value, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
        for px, py in zip(XS, YS):
            got = _evaluate(tree, px, py, explain=True)
            want = oracle._first_non_finite(tree, px, py)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1] == want[1]


def _combine(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(["+", "-", "*", "/", "^", " - ", "^-"]), parts)
        .map("".join),
        parts.map(lambda p: "-" + p),
        parts.map(lambda p: "(" + p + ")"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]), parts)
        .map(lambda t: f"{t[0]}({t[1]})"),
    )


# Well-formed expressions, unparenthesized where precedence decides the tree.
WELL_FORMED = st.recursive(st.sampled_from(ATOMS), _combine, max_leaves=12)
# Well-formed expressions with a few fragments spliced in somewhere.
SPLICED = st.tuples(WELL_FORMED, st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3),
                    st.integers(0, 60)).map(lambda t: t[0][:t[2]] + "".join(t[1]) + t[0][t[2]:])
# Any string of fragments.
ANY = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)


@settings(max_examples=3000, deadline=None)
@given(st.one_of(WELL_FORMED, SPLICED, ANY))
def test_random_strings_match_the_oracle(source):
    assert_equivalent(source)


@pytest.mark.parametrize("source", list(NESTED.values()), ids=list(NESTED))
def test_nested_cli_cases_match_the_oracle(source):
    assert_equivalent(source)


CONSTRUCTS = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d,
    "calls": lambda d: "sin(" * d + "x" + ")" * d,
    "signs": lambda d: "-" * d + "x",
    "exponents": lambda d: "^".join(["x"] * (d + 1)),
    "sums": lambda d: "+".join(["x"] * (d + 1)),
    "products": lambda d: "*".join(["x"] * (d + 1)),
    "signed exponents": lambda d: "^-".join(["x"] * (d + 1)),
    "unclosed parentheses": lambda d: "(" * d + "x",
    "parenthesized sums": lambda d: "(x+" * d + "x" + ")" * d,
}


@pytest.mark.parametrize("depth", [99, 100, 101])
@pytest.mark.parametrize("construct", list(CONSTRUCTS))
def test_depth_limits_match_the_oracle(construct, depth):
    assert_equivalent(CONSTRUCTS[construct](depth))


@pytest.mark.parametrize("source", [source for source, _ in NON_FINITE_CAUSES])
def test_values_and_causes_match_the_oracle(source):
    expr = compile_expression(source)
    with np.errstate(all="ignore"):
        want = oracle._evaluate(expr.ast, XS, YS)
        assert expr(XS, YS).tobytes() == np.broadcast_to(want, XS.shape).tobytes()
        assert expr.first_non_finite(0.0, 0.0) == oracle._first_non_finite(
            expr.ast, np.float64(0.0), np.float64(0.0))[1]
    assert_same_values(expr.ast)
