"""Expression front-end for the CLI.

Grammar (ASCII only, '*' explicit, '/' multiplies by an inverse):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' ['-'] int]
    atom   := int | symbol | '(' expr ')'
            | 'comm' '[' expr ',' expr ']' | 'acomm' '{' expr ',' expr '}'

Symbols cover the W generators (a+, a, t, b+, b, b2+, b2, e23, e32, k2, k3,
with k2inv/k3inv/tinv for inverses in symbol position) and the abstract
generators E12..E31, K1..K3, K1inv..; a trailing '+' is part of a symbol
only when directly attached, so "a + a" is a sum while "a+" is the creator.
Errors carry the offending position.  Renderings produced by the package
parse back to equal elements.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from . import scalars as sc
from . import superalgebra as ua
from . import walgebra as wa
from .scalars import QScalar


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("at position %d: %s" % (pos, message))
        self.pos = pos


class AbstractSymbolError(ValueError):
    """An abstract-algebra symbol reached a W-only evaluator."""


ABSTRACT_SYMBOLS = frozenset(ua.GENERATORS)

# the lexer's names hold no "^": t^-1 is t to the power -1, not an alias
W_SYMBOLS = frozenset(s for s in wa.GENERATOR_NAMES if "^" not in s)

_PLUS_SYMBOLS = frozenset(s for s in W_SYMBOLS if s.endswith("+"))

SCALAR_SYMBOLS = {"q": sc.Q, "p1": sc.P1, "p2": sc.P2, "p3": sc.P3}


# -- AST --------------------------------------------------------------------

class Num(NamedTuple):
    value: int
    pos: int


class Sym(NamedTuple):
    name: str
    pos: int


class BinOp(NamedTuple):
    op: str
    left: object
    right: object
    pos: int


class Pow(NamedTuple):
    base: object
    exp: int
    pos: int


class Neg(NamedTuple):
    operand: object
    pos: int


class Bracket(NamedTuple):
    anti: bool
    left: object
    right: object
    pos: int


# -- lexer ------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer of more than %d digits"
                                 % sys.get_int_max_str_digits(), i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if j < n and text[j] == "+" and (word + "+") in _PLUS_SYMBOLS:
                word += "+"
                j += 1
            tokens.append(("name", word, i))
            i = j
            continue
        if ch in "+-*/^(),[]{}":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError("expected %r, found %s" % (kind, found), tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return node

    def expr(self):
        kind, _val, pos = self.peek()
        if kind == "-":
            self.next()
            node = Neg(self.term(), pos)
        else:
            node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _v, pos = self.next()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _v, pos = self.next()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _k, _v, pos = self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer", tok[2])
            node = Pow(node, sign * tok[1], pos)
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return Num(val, pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if val in ("comm", "acomm"):
                opener, closer = ("[", "]") if val == "comm" else ("{", "}")
                self.expect(opener)
                left = self.expr()
                self.expect(",")
                right = self.expr()
                self.expect(closer)
                return Bracket(val == "acomm", left, right, pos)
            if val in W_SYMBOLS or val in ABSTRACT_SYMBOLS \
                    or val in SCALAR_SYMBOLS:
                return Sym(val, pos)
            raise ParseError("unknown symbol %r" % val, pos)
        found = "end of input" if kind == "end" else repr(val)
        raise ParseError("expected a value, found %s" % found, pos)


def parse(text):
    """Parse an expression to its AST; raises ParseError with a position."""
    return _Parser(text).parse()


# -- evaluation into W ------------------------------------------------------

def eval_w(node):
    """Evaluate an AST to a WElement; abstract symbols are rejected."""
    if isinstance(node, Num):
        return wa.WElement.from_scalar(node.value)
    if isinstance(node, Sym):
        if node.name in ABSTRACT_SYMBOLS:
            raise AbstractSymbolError(
                "%r is an abstract generator with no normal-ordered form; "
                "use the verify commands for the abstract algebra" % node.name)
        scal = SCALAR_SYMBOLS.get(node.name)
        if scal is not None:
            return wa.WElement.from_scalar(scal)
        return wa.generator(node.name)
    if isinstance(node, Neg):
        return -eval_w(node.operand)
    if isinstance(node, BinOp):
        # a flat chain a - a - ... - a is a left spine of any length: walk it
        # without recursion, evaluating operands in the parser's order
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = eval_w(node)
        for op in reversed(spine):
            acc = _binop(op.op, acc, eval_w(op.right))
        return acc
    if isinstance(node, Pow):
        base = eval_w(node.base)
        return base ** node.exp
    if isinstance(node, Bracket):
        left = eval_w(node.left)
        right = eval_w(node.right)
        lr = wa.w_mul(left, right)
        rl = wa.w_mul(right, left)
        return lr + rl if node.anti else lr - rl
    raise TypeError("unknown AST node %r" % (node,))


def _binop(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return wa.w_mul(left, right)
    return wa.w_mul(left, right.inverse())


def eval_scalar(node):
    """Evaluate an expression that must reduce to a pure scalar."""
    el = eval_w(node)
    if not el.terms:
        return QScalar.from_rational(0)
    if set(el.terms) == {wa.UNIT}:
        return el.terms[wa.UNIT]
    raise ValueError("expression is not a scalar")


def parse_w(text):
    return eval_w(parse(text))


def parse_scalar(text):
    return eval_scalar(parse(text))
