"""Finite QScalar-linear combinations, shared by the three spaces the engine
computes in: W elements (normal-ordered monomials), U elements (generator
words) and induced-module vectors (basis states).

A combination maps basis keys to nonzero QScalars, each lifted by the rule
of scalars._coerce, and is zero exactly when it is false.  term is the one
single-term constructor (UElement.word and basis_state build through it)
and * the one scalar multiple; accumulate is the one add-and-drop-zeros
step every sparse sum in the engine goes through, and render_terms the one
renderer of coefficients times basis strings (joined by scalars.signed_sum,
as the terms of a scalar are).
"""

from __future__ import annotations

from .scalars import ONE, _coerce, signed_sum


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

    Subclasses set UNIT to the basis key of the identity, so that scalars
    coerce to multiples of it in +, - and ==; with UNIT None they do not."""

    __slots__ = ("terms",)
    UNIT = None

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def term(cls, key, coeff=None):
        """coeff times the basis key, coeff None meaning 1: the zero
        combination for a zero coeff, a TypeError for one that is not a
        scalar."""
        c = ONE if coeff is None else _coerce(coeff, strict=True)
        return cls({key: c} if c else {})

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        c = NotImplemented if self.UNIT is None else _coerce(other)
        return c if c is NotImplemented else self.term(self.UNIT, c)

    # no __iadd__: x += y rebinds x to x + y, so an image or vector that
    # someone else holds is never changed; _iadd and _addmul are for a sum
    # the caller owns
    def _iadd(self, other, c=None):
        """self += c * other, c None meaning 1."""
        for key, v in other.terms.items():
            accumulate(self.terms, key, v if c is None else c * v)
        return self

    def _addmul(self, a, b, c=None):
        """self += c * a * b: the product a * b, then the add (the W
        route's two-letter words in superalgebra.check_relations)."""
        return self._iadd(a * b, c)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(dict(self.terms))._iadd(other)

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

    def __mul__(self, other):
        """The scalar multiple, where subclass products hand scalars on."""
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return type(self)({k: c * v for k, v in self.terms.items()} if c
                          else {})

    __rmul__ = __mul__

    def scale(self, c):
        """c * self; a TypeError for a c that is not a scalar."""
        return Combination.__mul__(self, _coerce(c, strict=True))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def nnz(self):
        return len(self.terms)


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
        pieces.append((neg, body))
    return signed_sum(pieces) or "0"
