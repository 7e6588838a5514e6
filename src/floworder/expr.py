"""Parser and evaluator for the rate expression mini-language.

A rate expression is the serializable text form of a state-dependent
transition rate. Supported syntax:

    literals        1, 2.5, 1e-3
    coordinates     x1 ... xn (queue lengths, 1-based in documents)
    parameters      any name declared in the model's params block
    arithmetic      a + b, a - b, a * b, -a
    envelopes       min(a, b, ...), max(a, b, ...)
    indicators      ind(a < b), ind(a <= b), ind(a = b),
                    ind(a < b, c <= d)  which multiplies the tests

Evaluation is total: there is no division and no partial function, so a
compiled expression cannot fail at runtime. Comparisons are only legal
inside ind(...). An expression is evaluated once over the whole state
array, giving one rate per state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExpressionError",
    "RateExpr",
    "parse_expression",
    "evaluate",
]


class ExpressionError(ValueError):
    """Syntax error or unknown identifier in a rate expression."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 0-based position in the state vector


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-' or '*'
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Extremum:
    fn: str  # 'min' or 'max'
    args: tuple


@dataclass(frozen=True)
class Comparison:
    op: str  # '<', '<=' or '='
    left: object
    right: object


@dataclass(frozen=True)
class Indicator:
    tests: tuple  # of Comparison, conjoined


@dataclass(frozen=True)
class RateExpr:
    """A compiled rate expression. `source` is the canonical text form.

    Equality and hashing read `source` and `n`, which fix the tree; the
    tree itself is left out, since comparing it recurses once per node and
    a long flat sum is deeper than the interpreter's recursion limit.
    """

    source: str
    root: object = field(compare=False)
    n: int


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op><=|[+\-*(),<=])"
    r")"
)

_COORD = re.compile(r"^x([1-9]\d*)$")


def _tokenize(source: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            rest = source[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"cannot tokenize {rest!r} in {source!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens, source, n, param_names):
        self.tokens = tokens
        self.source = source
        self.n = n
        self.param_names = param_names
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value):
        kind, text = self.advance()
        if kind != "op" or text != value:
            raise ExpressionError(f"expected {value!r} in {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing input in {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*"):
            self.advance()
            node = BinOp("*", node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if text in ("min", "max"):
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) < 2:
                    raise ExpressionError(f"{text} needs at least two arguments")
                return Extremum(text, tuple(args))
            if text == "ind":
                self.expect("(")
                tests = [self.comparison()]
                while self.peek() == ("op", ","):
                    self.advance()
                    tests.append(self.comparison())
                self.expect(")")
                return Indicator(tuple(tests))
            return self.identifier(text)
        raise ExpressionError(f"unexpected token in {self.source!r}")

    def comparison(self):
        left = self.expr()
        kind, text = self.advance()
        if kind != "op" or text not in ("<", "<=", "="):
            raise ExpressionError(
                f"indicator argument must be a comparison in {self.source!r}"
            )
        right = self.expr()
        return Comparison(text, left, right)

    def identifier(self, text):
        m = _COORD.match(text)
        if m is not None:
            k = int(m.group(1))
            if k > self.n:
                raise ExpressionError(
                    f"coordinate {text} out of range for a {self.n}-node network"
                )
            return Coord(k - 1)
        if text in self.param_names:
            return Param(text)
        raise ExpressionError(f"unknown identifier {text!r} in {self.source!r}")


def parse_expression(source: str, n: int, param_names) -> RateExpr:
    """Compile `source` against an n-node network and a set of parameter names."""
    tokens = _tokenize(source)
    if not tokens:
        raise ExpressionError("empty expression")
    try:
        root = _Parser(tokens, source, n, frozenset(param_names)).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply to parse") from None
    return RateExpr(source=source, root=root, n=n)


def evaluate(node, states, params) -> np.ndarray:
    """Evaluate an expression node at every row of an (m, n) state array.

    Returns an (m,) float array, computed with numpy's elementwise IEEE
    operations, so each entry equals the scalar evaluation at that state.
    min and max fold their arguments left to right and keep the running
    value unless a later argument compares strictly smaller (larger), as
    Python's builtins do, so signed zeros and NaNs resolve the same way.

    The parser builds a flat sum or product as a left-deep chain of BinOp
    nodes, so the left spine of a chain is walked in a loop, innermost
    operation first, and recursion goes only into right operands. The
    recursion depth is then set by how deeply terms nest, not by how many
    terms a sum or product has.
    """
    if isinstance(node, BinOp):
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = evaluate(node, states, params)
        for op in reversed(spine):
            b = evaluate(op.right, states, params)
            if op.op == "+":
                acc = acc + b
            elif op.op == "-":
                acc = acc - b
            else:
                acc = acc * b
        return acc
    if isinstance(node, Num):
        return np.full(len(states), node.value)
    if isinstance(node, Coord):
        return states[:, node.index].astype(float)
    if isinstance(node, Param):
        return np.full(len(states), float(params[node.name]))
    if isinstance(node, Neg):
        return -evaluate(node.operand, states, params)
    if isinstance(node, Extremum):
        best = evaluate(node.args[0], states, params)
        for arg in node.args[1:]:
            value = evaluate(arg, states, params)
            better = value < best if node.fn == "min" else value > best
            best = np.where(better, value, best)
        return best
    if isinstance(node, Indicator):
        holds = np.ones(len(states), dtype=bool)
        for test in node.tests:
            a = evaluate(test.left, states, params)
            b = evaluate(test.right, states, params)
            if test.op == "<":
                holds &= a < b
            elif test.op == "<=":
                holds &= a <= b
            else:
                holds &= a == b
        return holds.astype(float)
    raise TypeError(f"not an expression node: {node!r}")
