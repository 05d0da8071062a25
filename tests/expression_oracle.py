"""The expression parser and evaluator as they were before the precedence
table: a recursive-descent ``_Parser`` and two tree walks, ``_evaluate`` and
``_first_non_finite``, kept verbatim as a test-only oracle for
``test_expression_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ccspectral.expressions import _BINARY, _CONSTANTS, _FUNCTIONS, ExpressionError


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
_Parsed = tuple[_Node, int]  # a node and its height

# How deep an expression may nest.  The parser recurses once per open
# parenthesis, call, sign or exponent, and _evaluate once per level of the
# syntax tree (a sum of k terms is k levels deep); this bound keeps both far
# below Python's recursion limit.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the token stream.

    The grammar methods return (node, height) pairs, where the height counts
    the nodes on the longest path down from the node.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 0  # parentheses, calls, signs and exponents being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ExpressionError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                  self.source, tok.position)
        return self.advance()

    def bounded(self, tok: _Token, depth: int) -> int:
        """``depth``, which is an error at ``tok`` past _MAX_DEPTH."""
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {_MAX_DEPTH} levels",
                                  self.source, tok.position)
        return depth

    def node(self, tok: _Token, head: tuple, *children: _Parsed) -> _Parsed:
        """The node ``head`` + children, built at ``tok``, and its height."""
        height = self.bounded(tok, 1 + max(h for _, h in children))
        return (*head, *(child for child, _ in children)), height

    def nested(self, tok: _Token, parse) -> _Parsed:
        """``parse()`` inside the construct that opens at ``tok``."""
        self.open = self.bounded(tok, self.open + 1)
        result = parse()
        self.open -= 1
        return result

    def parse(self) -> _Node:
        node, _ = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", self.source, tok.position)
        return node

    def sum(self) -> _Parsed:
        node = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            node = self.node(tok, ("bin", tok.text), node, self.product())
        return node

    def product(self) -> _Parsed:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            node = self.node(tok, ("bin", tok.text), node, self.unary())
        return node

    def unary(self) -> _Parsed:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return self.node(tok, ("neg",), self.nested(tok, self.unary))
        return self.power()

    def power(self) -> _Parsed:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            return self.node(tok, ("bin", "^"), base, self.nested(tok, self.unary))
        return base

    def atom(self) -> _Parsed:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return ("num", float(tok.text)), 1
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen")
                arg = self.nested(tok, self.sum)
                self.expect("rparen")
                return self.node(tok, ("call", name), arg)
            if name in ("x", "y"):
                return ("var", name), 1
            if name in _CONSTANTS:
                return ("const", _CONSTANTS[name]), 1
            raise ExpressionError(f"unknown name {name!r}", self.source, tok.position)
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(tok, self.sum)
            self.expect("rparen")
            return node
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}",
                              self.source, tok.position)


def _evaluate(node: _Node, x: np.ndarray, y: np.ndarray) -> Union[np.ndarray, float]:
    tag = node[0]
    if tag == "num" or tag == "const":
        # a numpy scalar, so that 1/0 between literals is inf, not ZeroDivisionError
        return np.float64(node[1])
    if tag == "var":
        return x if node[1] == "x" else y
    if tag == "neg":
        return -_evaluate(node[1], x, y)
    if tag == "call":
        return _FUNCTIONS[node[1]](np.asarray(_evaluate(node[2], x, y), dtype=float))
    _, op, a, b = node
    return _BINARY[op](_evaluate(a, x, y), _evaluate(b, x, y))


def _first_non_finite(node: _Node, x: np.float64, y: np.float64) -> tuple[float, str | None]:
    """The value of ``node`` at the point (x, y) and, when it is not finite,
    the innermost operation whose operands are finite but whose value is not."""
    tag = node[0]
    if tag in ("num", "const", "var"):
        value = _evaluate(node, x, y)
        return value, None if np.isfinite(value) else f"number {float(value)!r}"
    children = node[1:] if tag == "neg" else node[2:]
    values, causes = zip(*(_first_non_finite(child, x, y) for child in children))
    shown = [repr(float(v)) for v in values]
    if tag == "neg":
        value, what = -values[0], f"-{shown[0]}"
    elif tag == "call":
        value, what = _FUNCTIONS[node[1]](values[0]), f"{node[1]} of {shown[0]}"
    else:
        value = _BINARY[node[1]](*values)
        what = f"/ by {shown[1]}" if node[1] == "/" else f"{shown[0]} {node[1]} {shown[1]}"
    if np.isfinite(value):
        return value, None
    return value, next((c for c in causes if c), f"{what} gives {float(value)!r}")
