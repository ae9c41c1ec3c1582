"""Finite QScalar-linear combinations, shared by the three spaces the engine
computes in: W elements (normal-ordered monomials), U elements (generator
words) and induced-module vectors (basis states).

A combination maps basis keys to nonzero QScalars; accumulate is the one
add-and-drop-zeros step every sparse sum in the engine goes through, and
render_terms the one signed-sum renderer for coefficients times basis
strings.
"""

from __future__ import annotations

from .scalars import QScalar


def accumulate(d, key, val):
    """d[key] += val, removing the key when the sum is zero."""
    s = d.get(key)
    s = val if s is None else s + val
    if s:
        d[key] = s
    elif key in d:
        del d[key]


class Combination:
    """Sparse linear combination: terms maps basis keys to nonzero QScalars.

    Subclasses set UNIT to the basis key of the identity, so that ints and
    QScalars coerce to multiples of it in +, - and ==; with UNIT None
    scalars do not coerce."""

    __slots__ = ("terms",)
    UNIT = None

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls):
        return cls({})

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if self.UNIT is not None and isinstance(other, (int, QScalar)):
            c = other if isinstance(other, QScalar) else QScalar.from_rational(other)
            return type(self)({self.UNIT: c} if c else {})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __rmul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = c if isinstance(c, QScalar) else QScalar.from_rational(c)
        if not c:
            return self.zero()
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms


def render_terms(pairs):
    """Signed sum of (QScalar, basis string) pairs, in the given order; the
    identity's basis string is "1".  A coefficient with more than one term
    is parenthesized."""
    pieces = []
    for c, mstr in pairs:
        neg = False
        if len(c.num) == 1 and len(c.den) == 1:
            cstr = c.render()
            if cstr.startswith("-"):
                neg = True
                cstr = cstr[1:]
        else:
            cstr = "(" + c.render() + ")"
        if mstr == "1":
            body = cstr
        elif cstr == "1":
            body = mstr
        else:
            body = cstr + "*" + mstr
        if not pieces:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces) or "0"
