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

# levels an expression may nest: parentheses, calls and signs open at once,
# and operators, calls and signs on one path through the tree (a chain
# x+x+...+x of k terms has k - 1).  Parsing recurses 4 frames a level, _fold
# and the compiled callable 1: far inside Python's default limit of 1000
MAX_DEPTH = 100


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
        node = self.expr(0)
        if self.peek() is not None:
            raise ExprParseError(f"unexpected token {self.peek()!r}", self.column())
        return node

    @staticmethod
    def capped(level: int, col: int) -> int:
        if level > MAX_DEPTH:
            raise ExprParseError(f"expression nested deeper than {MAX_DEPTH} levels", col)
        return level

    def node(self, col: int, *parts):
        # a tree node with its height (a leaf's is 0) last; _fold never reads it
        return parts + (self.capped(1 + max(p[-1] for p in parts if isinstance(p, tuple)), col),)

    def expr(self, depth: int):
        node = self.term(depth)
        while self.peek() in ("+", "-"):
            op, col = self.take()
            node = self.node(col, op, node, self.term(depth))
        return node

    def term(self, depth: int):
        node = self.factor(depth)
        while self.peek() in ("*", "/"):
            op, col = self.take()
            node = self.node(col, op, node, self.factor(depth))
        return node

    def factor(self, depth: int):
        tok = self.peek()
        if tok == "-":
            _, col = self.take()
            return self.node(col, "neg", self.factor(self.capped(depth + 1, col)))
        if tok == "+":
            _, col = self.take()
            return self.factor(self.capped(depth + 1, col))
        return self.primary(depth)

    def primary(self, depth: int):
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression", self.column())
        if tok == "(":
            _, col = self.take()
            node = self.expr(self.capped(depth + 1, col))
            if self.peek() != ")":
                raise ExprParseError("unclosed parenthesis opened", col)
            self.take()
            return node
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            self.take()
            return ("num", float(tok), 0)
        if tok in _FUNCS:
            name, col = self.take()
            if self.peek() != "(":
                raise ExprParseError(f"{name} needs a parenthesized argument", self.column())
            _, pcol = self.take()
            node = self.expr(self.capped(depth + 1, col))
            if self.peek() != ")":
                raise ExprParseError("unclosed parenthesis opened", pcol)
            self.take()
            return self.node(col, "call", name, node)
        if tok == "x":
            self.take()
            return ("x", 0)
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
