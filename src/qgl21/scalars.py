"""Exact arithmetic over the rational function field Q(q, p1, p2, p3).

Every coefficient in the engine lives here.  q is the deformation parameter
and p1, p2, p3 stand for the weight factors q^{lambda_i}, so all exponents
stay integral.  A QScalar is a reduced fraction _n/_d of polynomials with
integer coefficients ({exponent 4-tuple: int}); inverse powers are ordinary
fractions (q^-1 is 1/q).  The canonical form has three invariants:

  * _n and _d are coprime in Q[q, p1, p2, p3];
  * they are jointly primitive: the gcd of all their coefficients is 1;
  * the leading coefficient of _d under lex order on (q, p1, p2, p3)
    exponent vectors is positive.

The form is unique, so equality and hashing are purely structural (a
constant scalar hashes like the rational it equals, so sc.ONE and 1 are one
dict key).  This is what makes the rewriting engines' "residual is exactly
zero" checks meaningful.  Fraction appears only at the boundaries:
from_rational, from_laurent, the public constructor, evaluate, and the
monic views and rendering below.

Gcds are taken over Z: the gcd of the integer contents times the primitive
gcd (primitive pseudo-remainder sequences, Collins 1967 / Brown 1971, which
strip the integer content at every step), with a positive leading
coefficient.  Reduction follows Henrici (1956): both operands of * and + are
already canonical, so the gcds are taken of their small factors, never of
the full products.  a/b * c/d cancels gcd(a, d) and gcd(c, b); a/b + c/d
with g = gcd(b, d) forms t = a*(d/g) + c*(b/g) and cancels only gcd(t, g).
Over Z these gcds also carry the integer content, so the results come out
coprime, jointly primitive (a prime dividing both would divide a cancelled
gcd, or both halves of an operand) and with a positive leading denominator
coefficient (a product of positive ones), with no final normalization pass.
invert takes no gcd either: it swaps _n and _d and negates both only when
the new denominator leads with a negative coefficient.  The full reduction
_reduce runs only in the public constructor, which accepts Laurent
polynomials with int or Fraction coefficients and clears their
denominators and negative exponents first.  A rational constant on either
side of * cancels only integers, and 1 returns the other operand.

num and den are read-only views of the monic form (denominator leading
coefficient 1, Fraction values), derived from _n/_d when read; rendering
uses them, so 1/(2q + 2) and q/(q + 1) share the denominator q + 1.

All values are immutable, and the coefficient dicts are never mutated once
built, so scalars may share them; every operation is a pure function, and
q_power and q_integer are memoized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

NVARS = 4
VAR_NAMES = ("q", "p1", "p2", "p3")
_UNIT_MONO = (0, 0, 0, 0)


class PoleError(ArithmeticError):
    """The denominator vanishes at the requested assignment."""


# ---------------------------------------------------------------------------
# polynomial layer: dict mapping exponent 4-tuples to int, no zero values
# ---------------------------------------------------------------------------

def _mono_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _mono_div(a, b):
    m = (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
    return m if min(m) >= 0 else None


def _p_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s = s + c
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _p_neg(a):
    return {m: -c for m, c in a.items()}


def _p_positive(a):
    """a or -a, whichever has a positive leading coefficient."""
    return _p_neg(a) if a and a[max(a)] < 0 else a


def _p_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ma, ca in a.items():
        a0, a1, a2, a3 = ma
        for mb, cb in b.items():
            mono = (a0 + mb[0], a1 + mb[1], a2 + mb[2], a3 + mb[3])
            s = out.get(mono)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


def _p_deg(a, v):
    return max((m[v] for m in a), default=-1)


def _p_div_exact(a, b):
    """Quotient a/b over Z when the division is exact, else None."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    quo = {}
    rem = dict(a)
    lb = max(b)
    lbc = b[lb]
    while rem:
        lr = max(rem)
        mono = _mono_div(lr, lb)
        if mono is None:
            return None
        c, r = divmod(rem[lr], lbc)
        if r:
            return None
        quo[mono] = c
        for mb, cb in b.items():
            mm = _mono_mul(mono, mb)
            s = rem.get(mm)
            s = -c * cb if s is None else s - c * cb
            if s:
                rem[mm] = s
            elif mm in rem:
                del rem[mm]
    return quo


def _p_mono_content(a):
    """Largest monomial dividing every term."""
    return tuple(map(min, zip(*a)))


def _p_shift_down(a, mono):
    if mono == _UNIT_MONO:
        return a
    return {_mono_div(m, mono): c for m, c in a.items()}


_ONE_POLY = {_UNIT_MONO: 1}


def _p_is_const(a):
    return len(a) == 1 and _UNIT_MONO in a


def _p_is_one(a):
    return len(a) == 1 and a.get(_UNIT_MONO) == 1


# univariate view in variable v: dict exp -> poly dict (v-component zeroed)

def _p_univ(a, v):
    out = {}
    for mono, c in a.items():
        e = mono[v]
        rest = mono[:v] + (0,) + mono[v + 1:]
        out.setdefault(e, {})[rest] = c
    return out


def _p_from_univ(u, v):
    out = {}
    for e, poly in u.items():
        for mono, c in poly.items():
            out[mono[:v] + (e,) + mono[v + 1:]] = c
    return out


def _u_content_pp(u):
    """Content over Z (integer content included) and primitive part."""
    cont = {}
    for poly in u.values():
        cont = _p_gcd(cont, poly)
        if _p_is_one(cont):
            return cont, u
    pp = {e: _p_div_exact(poly, cont) for e, poly in u.items()}
    return cont, pp


def _u_prem(A, B):
    """Pseudo-remainder of A by B (univariate dicts with poly coefficients)."""
    dB = max(B)
    lcB = B[dB]
    R = A
    while R:
        dR = max(R)
        if dR < dB:
            break
        lcR = R[dR]
        newR = {}
        for e, p in R.items():
            if e == dR:
                continue
            newR[e] = _p_mul(p, lcB)
        for e, p in B.items():
            if e == dB:
                continue
            t = _p_mul(p, lcR)
            tgt = e + dR - dB
            cur = newR.get(tgt)
            s = _p_neg(t) if cur is None else _p_add(cur, _p_neg(t))
            if s:
                newR[tgt] = s
            elif tgt in newR:
                del newR[tgt]
        R = newR
    return R


def _p_gcd(a, b):
    """gcd over Z: the gcd of the integer contents times the primitive gcd
    (primitive PRS), with a positive leading coefficient."""
    if not a:
        return _p_positive(b)
    if not b:
        return _p_positive(a)
    if _p_is_const(a) or _p_is_const(b):
        return {_UNIT_MONO: gcd(*a.values(), *b.values())}
    sa = _p_mono_content(a)
    sb = _p_mono_content(b)
    shared = tuple(map(min, sa, sb))
    a = _p_shift_down(a, sa)
    b = _p_shift_down(b, sb)
    if len(a) == 1 or len(b) == 1:
        core = {_UNIT_MONO: gcd(*a.values(), *b.values())}
    elif a == b:
        core = _p_positive(a)
    else:
        # both have two or more terms after the shift, so some variable
        # occurs with a positive degree
        v = next(i for i in range(NVARS)
                 if _p_deg(a, i) > 0 or _p_deg(b, i) > 0)
        ca, pa = _u_content_pp(_p_univ(a, v))
        cb, pb = _u_content_pp(_p_univ(b, v))
        cg = _p_gcd(ca, cb)
        A, B = pa, pb
        if max(A) < max(B):
            A, B = B, A
        while B:
            R = _u_prem(A, B)
            if R:
                _, R = _u_content_pp(R)
            A, B = B, R
        core = _p_positive(_p_mul(cg, _p_from_univ(A, v)))
    if shared != _UNIT_MONO:
        core = {_mono_mul(m, shared): c for m, c in core.items()}
    return core


def _p_cancel(a, b):
    """(a/g, b/g, g) for g = gcd(a, b) over Z."""
    g = _p_gcd(a, b)
    if _p_is_one(g):
        return a, b, g
    return _p_div_exact(a, g), _p_div_exact(b, g), g


def _reduce(num, den):
    """Canonical (_n, _d) of num/den, Laurent polynomials with int or
    Fraction coefficients: drop zero coefficients, multiply both by one
    integer and one monomial that clear the coefficient denominators and
    the negative exponents, cancel the gcd over Z and make the leading
    denominator coefficient positive."""
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, _ONE_POLY
    scale = lcm(*(c.denominator for c in num.values()),
                *(c.denominator for c in den.values()))
    shift = tuple(max(0, -min(ea, eb)) for ea, eb in
                  zip(_p_mono_content(num), _p_mono_content(den)))
    num = {_mono_mul(m, shift): int(c * scale) for m, c in num.items()}
    den = {_mono_mul(m, shift): int(c * scale) for m, c in den.items()}
    num, den, _ = _p_cancel(num, den)
    if den[max(den)] < 0:
        num, den = _p_neg(num), _p_neg(den)
    return num, den


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class QScalar:
    """An element of Q(q, p1, p2, p3) in canonical reduced form."""

    __slots__ = ("_n", "_d", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = _ONE_POLY
        if not _reduced:
            num, den = _reduce(num, den)
        self._n = num
        self._d = den
        self._hash = None

    @classmethod
    def from_rational(cls, value):
        c = Fraction(value)
        num = {_UNIT_MONO: c.numerator} if c else {}
        return cls(num, {_UNIT_MONO: c.denominator}, _reduced=True)

    @classmethod
    def from_laurent(cls, terms):
        """Build from a Laurent term dict {exponent 4-tuple: coefficient}."""
        return cls({m: Fraction(c) for m, c in terms.items()})

    # -- monic views ----------------------------------------------------------

    @property
    def num(self):
        """Numerator of the monic form, {exponent 4-tuple: Fraction}."""
        lc = self._d[max(self._d)]
        return {m: Fraction(c, lc) for m, c in self._n.items()}

    @property
    def den(self):
        """Denominator of the monic form (leading coefficient 1)."""
        lc = self._d[max(self._d)]
        return {m: Fraction(c, lc) for m, c in self._d.items()}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._n:
            return other
        if not other._n:
            return self
        if self._d == other._d:
            t = _p_add(self._n, other._n)
            if not t:
                return ZERO
            t, den, _ = _p_cancel(t, self._d)
            return QScalar(t, den, _reduced=True)
        # t is coprime to b/g and d/g, so only gcd(t, g) can cancel
        b, d, g = _p_cancel(self._d, other._d)
        t = _p_add(_p_mul(self._n, d), _p_mul(other._n, b))
        if not t:
            return ZERO
        t, g, _ = _p_cancel(t, g)
        den = _p_mul(b, d)
        if not _p_is_one(g):
            den = _p_mul(den, g)
        return QScalar(t, den, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return QScalar(_p_neg(self._n), self._d, _reduced=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._n or not other._n:
            return ZERO
        if _p_is_const(other._n) and _p_is_const(other._d):
            self, other = other, self
        if _p_is_const(self._n) and _p_is_const(self._d):
            # the rational r = n0/d0 times other: only integers cancel
            n0, d0 = self._n[_UNIT_MONO], self._d[_UNIT_MONO]
            if n0 == 1 and d0 == 1:
                return other
            g = gcd(n0, *other._d.values())
            h = gcd(d0, *other._n.values())
            n0, d0 = n0 // g, d0 // h
            return QScalar({m: c // h * n0 for m, c in other._n.items()},
                           {m: c // g * d0 for m, c in other._d.items()},
                           _reduced=True)
        a, d, _ = _p_cancel(self._n, other._d)
        c, b, _ = _p_cancel(other._n, self._d)
        return QScalar(_p_mul(a, c), _p_mul(b, d), _reduced=True)

    __rmul__ = __mul__

    def invert(self):
        if not self._n:
            raise ZeroDivisionError("cannot invert the zero scalar")
        if self._n[max(self._n)] < 0:
            return QScalar(_p_neg(self._d), _p_neg(self._n), _reduced=True)
        return QScalar(self._d, self._n, _reduced=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return _coerce(other) * self.invert()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            if _p_is_const(self._d) and (
                    not self._n or _p_is_const(self._n)):
                # agree with == under coercion: hash(from_rational(c)) == hash(c)
                self._hash = hash(Fraction(self._n.get(_UNIT_MONO, 0),
                                           self._d[_UNIT_MONO]))
            else:
                self._hash = hash((tuple(sorted(self._n.items())),
                                   tuple(sorted(self._d.items()))))
        return self._hash

    def __bool__(self):
        return bool(self._n)

    # -- queries ------------------------------------------------------------

    def is_one(self):
        return _p_is_one(self._n) and _p_is_one(self._d)

    def variables(self):
        """Names of the symbols that actually occur."""
        used = set()
        for poly in (self._n, self._d):
            for mono in poly:
                for v in range(NVARS):
                    if mono[v]:
                        used.add(VAR_NAMES[v])
        return used

    def evaluate(self, q=None, p1=None, p2=None, p3=None):
        """Exact rational value at the assignment; PoleError on a vanishing
        denominator.  Note q = 0, +1, -1 are deformation singularities of the
        algebra itself: they are fine here whenever the canonical denominator
        does not vanish, but callers exporting matrices should refuse them."""
        vals = [q, p1, p2, p3]
        for i in range(NVARS):
            if vals[i] is not None:
                vals[i] = Fraction(vals[i])

        def ev(poly):
            total = Fraction(0)
            for mono, c in poly.items():
                term = c
                for v in range(NVARS):
                    e = mono[v]
                    if e:
                        if vals[v] is None:
                            raise ValueError(
                                "no value assigned for %s" % VAR_NAMES[v])
                        term *= vals[v] ** e
                total += term
            return total

        d = ev(self._d)
        if d == 0:
            raise PoleError("denominator vanishes at the assignment")
        return ev(self._n) / d

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self._n:
            return "0"
        if len(self._d) == 1:
            ((dm, dc),) = self._d.items()
            terms = {_mono_div_signed(m, dm): Fraction(c, dc)
                     for m, c in self._n.items()}
            return _render_terms(terms)
        num_s = _render_terms(self.num)
        if len(self._n) > 1:
            num_s = "(" + num_s + ")"
        return num_s + "/(" + _render_terms(self.den) + ")"

    __str__ = render

    def __repr__(self):
        return self.render()


def _mono_div_signed(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _render_terms(terms):
    parts = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        factors = []
        for v in range(NVARS):
            e = mono[v]
            if e == 0:
                continue
            name = VAR_NAMES[v]
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _coerce(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# constants and standard constructors
# ---------------------------------------------------------------------------

ZERO = QScalar({}, _ONE_POLY, _reduced=True)
ONE = QScalar.from_rational(1)


def monomial(coeff, eq=0, e1=0, e2=0, e3=0):
    return QScalar.from_laurent({(eq, e1, e2, e3): Fraction(coeff)})


@cache
def q_power(n):
    return monomial(1, eq=n)


def p_power(i, n):
    """p_i^n for i in 1..3."""
    exps = [0, 0, 0, 0]
    exps[i] = n
    return QScalar.from_laurent({tuple(exps): Fraction(1)})


Q = q_power(1)
QINV = q_power(-1)
P1 = p_power(1, 1)
P2 = p_power(2, 1)
P3 = p_power(3, 1)

EPS = Q - QINV                 # q - q^-1, the ubiquitous denominator
EPS_INV = EPS.invert()


@cache
def q_integer(n):
    """[n] = (q^n - q^-n)/(q - q^-1), in canonical polynomial form."""
    if n == 0:
        return ZERO
    if n < 0:
        return -q_integer(-n)
    return QScalar.from_laurent(
        {(n - 1 - 2 * j, 0, 0, 0): Fraction(1) for j in range(n)})
