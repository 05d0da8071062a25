"""Safe arithmetic expressions in the chart variables x and y.

The grammar is deliberately tiny: numbers, the variables ``x`` and ``y``,
the constants ``pi`` and ``e``, the operators ``+ - * / ^``, unary minus,
parentheses, and the functions ``sin``, ``cos``, ``tan``, ``exp``, ``log``,
``sqrt``, ``abs``.  One table of binding powers (_INFIX) is the precedence:
``+ -`` below ``* /`` below unary minus below ``^``, with ``^``
right-associative, so ``-2^2 = -4`` and ``2^-2 = 0.25``.  Nesting is capped
at 100 levels, both in open parentheses, calls, signs and exponents and in
the height of the syntax tree, so a flat sum or product has at most 100
terms.  Compiled expressions evaluate vectorized over numpy arrays and never
touch ``eval``; outside a function's domain (``log(0)``, ``sqrt(-1)``) they
yield numpy's ``-inf`` or ``nan``, which the callers reject, and the same
tree walk can name the operation that first went non-finite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}

_CONSTANTS: dict[str, float] = {"pi": float(np.pi), "e": float(np.e)}

_BINARY: dict[str, Callable] = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                                "/": operator.truediv, "^": np.power}


# Source characters echoed on each side of an error position; a long
# expression is cut there and the cut marked with "...".
_ECHO = 60


class ExpressionError(ValueError):
    """Parse or evaluation failure, annotated with the source position."""

    def __init__(self, message: str, source: str, position: int):
        self.position = position
        self.source = source
        lo, hi = max(0, position - _ECHO), position + _ECHO
        head = "..." if lo else ""
        shown = head + source[lo:hi] + ("..." if hi < len(source) else "")
        pointer = " " * (len(head) + position - lo) + "^"
        super().__init__(f"{message} at position {position}\n  {shown}\n  {pointer}")


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | lparen | rparen | end
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", source, i) from None
            tokens.append(_Token("number", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token({"(": "lparen", ")": "rparen"}.get(c, "op"), c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", source, i)
    tokens.append(_Token("end", "", n))
    return tokens


# AST nodes are plain tuples: ("num", v) | ("var", name) | ("const", v)
# | ("neg", a) | ("bin", op, a, b) | ("call", fname, a)
_Node = tuple

# Binding powers (left, right) of the infix operators: a right operand ends
# at the first operator whose left power is below the right power, so ^ is
# right-associative and the rest left-associative.  A sign binds at _SIGN.
_INFIX = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "^": (6, 5)}
_SIGN = 5

# How deep an expression may nest: in parentheses, calls, signs and exponents
# open at once, and in the height of the syntax tree (a sum of k terms is k
# levels deep).  The recursion of _parse and _evaluate grows with these; the
# bound keeps both far below Python's recursion limit.
_MAX_DEPTH = 100


def _parse(source: str) -> _Node:
    """The syntax tree of ``source``, by precedence climbing over _INFIX."""
    tokens = _tokenize(source)[::-1]  # the next token is tokens[-1]

    def bounded(tok: _Token, depth: int) -> int:
        """``depth``, which is an error at ``tok`` past _MAX_DEPTH."""
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {_MAX_DEPTH} levels",
                                  source, tok.position)
        return depth

    def expect(kind: str) -> None:
        tok = tokens.pop()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                  source, tok.position)

    def climb(min_power: int, depth: int) -> tuple[_Node, int]:
        """The longest expression whose operators bind at least ``min_power``,
        and its height (the nodes on its longest path from the root); ``depth``
        counts the parentheses, calls, signs and exponents open around it."""
        tok = tokens.pop()
        if tok.kind == "number":
            node, height = ("num", float(tok.text)), 1
        elif tok.kind == "name" and tok.text in _FUNCTIONS:
            expect("lparen")
            arg, height = climb(0, bounded(tok, depth + 1))
            expect("rparen")
            node, height = ("call", tok.text, arg), bounded(tok, height + 1)
        elif tok.kind == "name" and tok.text in ("x", "y"):
            node, height = ("var", tok.text), 1
        elif tok.kind == "name" and tok.text in _CONSTANTS:
            node, height = ("const", _CONSTANTS[tok.text]), 1
        elif tok.kind == "name":
            raise ExpressionError(f"unknown name {tok.text!r}", source, tok.position)
        elif tok.kind == "lparen":
            node, height = climb(0, bounded(tok, depth + 1))
            expect("rparen")
        elif tok.text == "-":
            arg, height = climb(_SIGN, bounded(tok, depth + 1))
            node, height = ("neg", arg), bounded(tok, height + 1)
        else:
            raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}",
                                  source, tok.position)
        while tokens[-1].kind == "op" and _INFIX[tokens[-1].text][0] >= min_power:
            tok = tokens.pop()
            # an exponent opens a level, as a parenthesis does
            rhs_depth = bounded(tok, depth + 1) if tok.text == "^" else depth
            rhs, rhs_height = climb(_INFIX[tok.text][1], rhs_depth)
            node = ("bin", tok.text, node, rhs)
            height = bounded(tok, 1 + max(height, rhs_height))
        return node, height

    node, _ = climb(0, 0)
    tok = tokens[-1]
    if tok.kind != "end":
        raise ExpressionError(f"unexpected {tok.text!r}", source, tok.position)
    return node


def _evaluate(node: _Node, x, y, explain: bool = False) -> tuple[np.ndarray | float, str | None]:
    """The value of ``node`` at (x, y) and, when ``explain`` is set and the
    value is not finite, the innermost operation whose operands are finite
    but whose value is not (else None)."""
    tag = node[0]
    if tag == "var":
        value, children = (x if node[1] == "x" else y), []
    elif tag == "num" or tag == "const":
        # a numpy scalar, so that 1/0 between literals is inf, not ZeroDivisionError
        value, children = np.float64(node[1]), []
    else:
        children = [_evaluate(child, x, y, explain) for child in node[1 if tag == "neg" else 2:]]
        args = [arg for arg, _ in children]
        if tag == "neg":
            value = -args[0]
        elif tag == "call":
            value = _FUNCTIONS[node[1]](args[0])
        else:
            value = _BINARY[node[1]](*args)
    if not explain or np.isfinite(value):
        return value, None
    return value, next((cause for _, cause in children if cause), None) or _describe(
        node, [repr(float(arg)) for arg, _ in children], float(value))


def _describe(node: _Node, shown: list[str], value: float) -> str:
    """The operation at ``node``, with operands ``shown``, and its value."""
    if not shown:
        return f"number {value!r}"
    if node[0] == "neg":
        what = f"-{shown[0]}"
    elif node[0] == "call":
        what = f"{node[1]} of {shown[0]}"
    elif node[1] == "/":
        what = f"/ by {shown[1]}"
    else:
        what = f"{shown[0]} {node[1]} {shown[1]}"
    return f"{what} gives {value!r}"


@dataclass(frozen=True)
class Expression:
    """A compiled expression; callable on scalars or numpy arrays."""

    source: str
    ast: _Node = field(repr=False, compare=False)

    def __call__(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(xa.shape, ya.shape)
        out, _ = _evaluate(self.ast, xa, ya)
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    def first_non_finite(self, x: float, y: float) -> str | None:
        """The operation that first goes non-finite at the point (x, y).

        Names the innermost syntax node whose operands are finite but whose
        value is not, such as ``log of 0.0 gives -inf`` in ``1+log(x)^2`` at
        x = 0; None when the expression is finite there.
        """
        with np.errstate(all="ignore"):
            return _evaluate(self.ast, np.float64(x), np.float64(y), explain=True)[1]


def compile_expression(source: str) -> Expression:
    """Parse ``source`` and return a vectorized callable of (x, y).

    Raises ExpressionError (with the offending position) on malformed input
    or on nesting deeper than _MAX_DEPTH.
    """
    if not isinstance(source, str):
        raise ExpressionError("expression must be a string", str(source), 0)
    if not source.strip():
        raise ExpressionError("empty expression", source, 0)
    return Expression(source=source, ast=_parse(source))
