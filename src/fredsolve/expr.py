"""Tiny arithmetic-expression parser for CLI inputs.

Grammar: +, -, *, /, unary minus, parentheses, sin, cos, exp, the variable x,
and numeric literals.  Parses to a tree of tuples and compiles that to a
numpy-vectorized callable.  Literals, and arithmetic between them, fold to
float64 constants, so a term like 2.5*sin(3*x) costs no full-array operation
for its literals; the result has the bits that evaluating every literal as an
array of x's shape gives, for every finite x.  Errors report a 1-based column.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .errors import ExprParseError

__all__ = ["compile_expr"]

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_]+)|([()+\-*/]))")
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                raise ExprParseError(f"unexpected character {text[pos]!r}", pos + 1)
            self.tokens.append((m.group(0).strip(), pos + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def column(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        # exhausted: point at the token that left the expression open
        return self.tokens[-1][1] if self.tokens else 1

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExprParseError(f"unexpected token {self.peek()!r}", self.column())
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op, _ = self.take()
            node = (op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        if tok == "+":
            self.take()
            return self.factor()
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression", self.column())
        if tok == "(":
            _, col = self.take()
            node = self.expr()
            if self.peek() != ")":
                raise ExprParseError("unclosed parenthesis opened", col)
            self.take()
            return node
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            self.take()
            return ("num", float(tok))
        if tok in _FUNCS:
            name, col = self.take()
            if self.peek() != "(":
                raise ExprParseError(f"{name} needs a parenthesized argument", self.column())
            _, pcol = self.take()
            node = self.expr()
            if self.peek() != ")":
                raise ExprParseError("unclosed parenthesis opened", pcol)
            self.take()
            return ("call", name, node)
        if tok == "x":
            self.take()
            return ("x",)
        _, col = self.take()
        raise ExprParseError(f"unknown name {tok!r}", col)


def _broadcast(value):
    # a constant as a callable of x's shape: value + 0.0 x, so a non-finite x still gives NaN
    return lambda x: value + 0.0 * np.asarray(x, dtype=float)


def _fold(node):
    """A tree as a float64 constant when it holds no x, else a callable of x.

    sin, cos and exp always act on an array of x's shape, as numpy's
    vectorized loops may round differently from a scalar call.
    """
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "x":
        return lambda x: np.asarray(x, dtype=float)
    if kind == "neg":
        a = _fold(node[1])
        return (lambda x: -a(x)) if callable(a) else -a
    if kind == "call":
        fn, a = _FUNCS[node[1]], _fold(node[2])
        a = a if callable(a) else _broadcast(a)
        return lambda x: fn(a(x))
    op, a, b = _BINARY[kind], _fold(node[1]), _fold(node[2])
    if callable(a) and callable(b):
        return lambda x: op(a(x), b(x))
    if callable(a):
        return lambda x: op(a(x), b)
    if callable(b):
        return lambda x: op(a, b(x))
    return op(a, b)


def compile_expr(text: str):
    """Compile an expression in x to a numpy-vectorized callable."""
    if not text or not text.strip():
        raise ExprParseError("empty expression", 1)
    compiled = _fold(_Parser(text).parse())
    return compiled if callable(compiled) else _broadcast(compiled)
