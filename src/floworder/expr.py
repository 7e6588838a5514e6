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
inside ind(...).

The tree's nodes are Num, Coord, Param, BinOp ('+', '-' or '*'), Neg,
Extremum (min or max), Indicator with its Comparison tests, and Table, a
per-level rate table. A run of two or more terms `scale * ind(x_c =
level)` joined by '+' at the start of a sum, on one coordinate, each
scale a parameter or a number and each level a number, is one
Table(index, scales, levels). A '-', another coordinate, another test,
an indicator on the left of its product or a scale that is not a leaf
ends the run, and a lone term stays a BinOp. The parser folds the run as
it reads the sum, on the tree the plain left-deep chain would be, so
"(a + b) + c" folds as "a + b + c" does. The source text is kept as
written.

A text is tokenized in one findall pass, which skips what no token
matches; a pass whose tokens miss a character that is not white space is
a tokenize error. The recursive-descent parser reads the token list by
index. An expression is evaluated once over the whole state array, giving
one rate per state: numbers and parameters stay Python floats, as does
any subtree that reads no coordinate, and coordinates come from one float
copy of the state columns per call. A Table costs a fixed handful of
numpy calls, however many terms it has: its scales times the one-hot of
the column's values against its levels, np.cumsum down the terms (the
chain's left to right sum, so each rate is bit for bit the chain's), and
one gather per state. The values are 0..max of the column when that
range is no longer than the column, else its distinct values.
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


# Nodes are slotted dataclasses that nothing changes once the parser has
# built them. A slotted __init__ costs less than half of a frozen one's,
# which sets each field through object.__setattr__, and the generated
# __eq__ still compares trees field by field.


@dataclass(slots=True)
class Num:
    value: float


@dataclass(slots=True)
class Coord:
    index: int  # 0-based position in the state vector


@dataclass(slots=True)
class Param:
    name: str


@dataclass(slots=True)
class BinOp:
    op: str  # '+', '-' or '*'
    left: object
    right: object


@dataclass(slots=True)
class Neg:
    operand: object


@dataclass(slots=True)
class Extremum:
    fn: str  # 'min' or 'max'
    args: tuple


@dataclass(slots=True)
class Comparison:
    op: str  # '<', '<=' or '='
    left: object
    right: object


@dataclass(slots=True)
class Indicator:
    tests: tuple  # of Comparison, conjoined


@dataclass(slots=True)
class Table:
    """scales[0] * ind(x = levels[0]) + scales[1] * ind(x = levels[1]) + ...,
    summed left to right, where x is the coordinate `index`."""

    index: int  # 0-based position in the state vector
    scales: tuple  # of Param or Num, two or more
    levels: tuple  # of float, one per scale


def _table_entry(node):
    """(index, scale, level) of a term scale * ind(x_c = level), scale a
    Param or a Num and level a Num, else None."""
    if type(node) is not BinOp or node.op != "*" or type(node.left) not in (Param, Num):
        return None
    ind = node.right
    if type(ind) is not Indicator or len(ind.tests) != 1:
        return None
    test = ind.tests[0]
    if test.op != "=" or type(test.left) is not Coord or type(test.right) is not Num:
        return None
    return test.left.index, node.left, test.right.value


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
    r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"  # number
    r"|[A-Za-z_]\w*"  # name
    r"|<=|[+\-*(),<=]"  # operator
)

_OPS = frozenset(["+", "-", "*", "(", ")", ",", "<", "<=", "="])

_COORD = re.compile(r"^x([1-9]\d*)$")


def _tokenize(source: str) -> list[str]:
    """Token texts of `source`, from one findall pass.

    findall skips what no token matches. When the tokens cover every
    character that is not white space, they are the tokens of a left to
    right scan; otherwise the text from the first character they miss is
    reported.
    """
    tokens = _TOKEN.findall(source)
    if "".join(tokens) != "".join(source.split()):
        pos = 0
        for m in _TOKEN.finditer(source):
            if source[pos : m.start()].strip():
                break
            pos = m.end()
        raise ExpressionError(f"cannot tokenize {source[pos:].strip()!r} in {source!r}")
    return tokens


class _Parser:
    """Recursive descent over a token list, read by index.

    The list ends in the sentinel "", which no rule accepts, so every
    read is in range and running off the end is a syntax error. A token's
    kind is read off its text: numbers start with a digit, operators are
    in _OPS, and every other token is a name.
    """

    def __init__(self, tokens, source, n, param_names):
        self.tokens = tokens + [""]
        self.source = source
        self.n = n
        self.param_names = param_names
        self.pos = 0

    def expect(self, value):
        if self.tokens[self.pos] != value:
            raise ExpressionError(f"expected {value!r} in {self.source!r}")
        self.pos += 1

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens) - 1:
            raise ExpressionError(f"trailing input in {self.source!r}")
        return node

    def expr(self):
        """A sum, whose leading run of table terms is one Table.

        While the run lasts, `node` is its first term (or a Table read in
        parentheses) and `run` holds its coordinate, scales and levels;
        the first '-' or other term ends it.
        """
        node = self.term()
        tokens = self.tokens
        if type(node) is Table:
            run = node.index, list(node.scales), list(node.levels)
        else:
            entry = _table_entry(node)
            run = None if entry is None else (entry[0], [entry[1]], [entry[2]])
        while tokens[self.pos] in ("+", "-"):
            op = tokens[self.pos]
            self.pos += 1
            right = self.term()
            if run is not None:
                entry = _table_entry(right) if op == "+" else None
                if entry is not None and entry[0] == run[0]:
                    run[1].append(entry[1])
                    run[2].append(entry[2])
                    continue
                node, run = _close_run(node, run), None
            node = BinOp(op, node, right)
        return node if run is None else _close_run(node, run)

    def term(self):
        node = self.unary()
        tokens = self.tokens
        while tokens[self.pos] == "*":
            self.pos += 1
            node = BinOp("*", node, self.unary())
        return node

    def unary(self):
        if self.tokens[self.pos] == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        text = self.tokens[self.pos]
        self.pos += 1
        if text[:1].isdigit():
            return Num(float(text))
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if text in ("min", "max"):
            self.expect("(")
            args = [self.expr()]
            while self.tokens[self.pos] == ",":
                self.pos += 1
                args.append(self.expr())
            self.expect(")")
            if len(args) < 2:
                raise ExpressionError(f"{text} needs at least two arguments")
            return Extremum(text, tuple(args))
        if text == "ind":
            self.expect("(")
            tests = [self.comparison()]
            while self.tokens[self.pos] == ",":
                self.pos += 1
                tests.append(self.comparison())
            self.expect(")")
            return Indicator(tuple(tests))
        if text and text not in _OPS:
            return self.identifier(text)
        raise ExpressionError(f"unexpected token in {self.source!r}")

    def comparison(self):
        left = self.expr()
        text = self.tokens[self.pos]
        self.pos += 1
        if text not in ("<", "<=", "="):
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


def _close_run(first, run):
    """The Table of a run of table terms, or its first term if it has no other."""
    index, scales, levels = run
    return Table(index, tuple(scales), tuple(levels)) if len(scales) > 1 else first


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
    """Evaluate an expression node at every row of an (m, n) state array,
    whose coordinates are integers >= 0, as every state space's are.

    Returns a new (m,) float array. Numbers and parameters are Python
    floats, and a subtree without a coordinate stays one, so it costs no
    array; coordinates are read from one float copy of the state columns.
    Python floats and numpy arrays use the same IEEE double operations, so
    each entry equals the scalar evaluation at that state. min and max
    fold their arguments left to right and keep the running value unless
    a later argument compares strictly smaller (larger), as Python's
    builtins do, so signed zeros and NaNs resolve the same way.
    """
    columns = np.ascontiguousarray(np.asarray(states).T, dtype=np.float64)
    value = _evaluate(node, columns, params)
    if isinstance(value, float):
        return np.full(columns.shape[1], value)
    return value.copy() if isinstance(node, Coord) else value


def _evaluate(node, columns, params):
    """A float where the subtree reads no coordinate, else an (m,) array.

    The parser builds a flat sum or product as a left-deep chain of BinOp
    nodes, so the left spine of a chain is walked in a loop, innermost
    operation first, and recursion goes only into right operands. The
    recursion depth is then set by how deeply terms nest, not by how many
    terms a sum or product has. A node is dispatched on its exact class.
    """
    kind = type(node)
    if kind is BinOp:
        spine = []
        while type(node) is BinOp:
            spine.append(node)
            node = node.left
        acc = _evaluate(node, columns, params)
        for op in reversed(spine):
            b = _evaluate(op.right, columns, params)
            if op.op == "+":
                acc = acc + b
            elif op.op == "-":
                acc = acc - b
            else:
                acc = acc * b
        return acc
    if kind is Num:
        return node.value
    if kind is Coord:
        return columns[node.index]
    if kind is Param:
        return float(params[node.name])
    if kind is Table:
        column = columns[node.index]
        top = column.max(initial=-1.0)
        if top < len(column):  # the column holds integers >= 0
            values, cells = np.arange(top + 1.0), column.astype(np.intp)
        else:
            values, cells = np.unique(column, return_inverse=True)
        scales = [float(params[s.name]) if type(s) is Param else s.value for s in node.scales]
        terms = np.multiply(np.array(scales)[:, None], values == np.array(node.levels)[:, None])
        return np.cumsum(terms, axis=0)[-1][cells]
    if kind is Neg:
        return -_evaluate(node.operand, columns, params)
    if kind is Extremum:
        best = _evaluate(node.args[0], columns, params)
        for arg in node.args[1:]:
            value = _evaluate(arg, columns, params)
            better = value < best if node.fn == "min" else value > best
            if isinstance(better, bool):  # two floats
                best = value if better else best
            else:
                best = np.where(better, value, best)
        return best
    if kind is Indicator:
        holds = None
        for test in node.tests:
            a = _evaluate(test.left, columns, params)
            b = _evaluate(test.right, columns, params)
            if test.op == "<":
                test_holds = a < b
            elif test.op == "<=":
                test_holds = a <= b
            else:
                test_holds = a == b
            holds = test_holds if holds is None else holds & test_holds
        return holds.astype(np.float64) if isinstance(holds, np.ndarray) else float(holds)
    raise TypeError(f"not an expression node: {node!r}")
