"""Exact arithmetic over the rational function field Q(q, p1, p2, p3).

Every coefficient in the engine lives here.  q is the deformation parameter
and p1, p2, p3 stand for the weight factors q^{lambda_i}, so all exponents
stay integral.  Polynomials are dicts {exponent 4-tuple: int}, except in
the cleared ring below.

A QScalar stores N / (c * (q - 1)^i * (q + 1)^j * F):

  * N (_N) is a Laurent polynomial: the monomial of the denominator lives in
    its negative exponents, so it never needs a gcd;
  * c (_c) is a positive integer and i, j (_i, _j) are >= 0;
  * F (_F) is None or a primitive polynomial with a positive leading
    coefficient, free of monomial content and prime to q - 1 and q + 1.

q - 1, q + 1 and F are a gcd-free basis of the denominator (Bach, Driscoll
and Shallit, "Factor refinement", 1993).  Every denominator the engine builds
on its own routes (W, induced module, Fock, Dyson) is a product of q, q - 1,
q + 1 and the p_i, so there F is None.  F holds what comes from outside that
basis, such as the parsed 1/(q + 2) or 1/(q*p1 + 1); it is kept as one
factor, so the basis never needs refining beyond splitting off q -+ 1.

N is prime to c (their integer contents), to q - 1 when i > 0, to q + 1
when j > 0, and to F.  The stored form is then unique, so == compares it
field by field, and hash uses N, c, i and j (a constant hashes like the
rational it equals, so sc.ONE and 1 are one dict key).  This is what makes
the rewriting engines' "residual is exactly zero" checks meaningful.

Reduction follows Henrici (1956): both operands are reduced, so only cross
terms can cancel.  a * b cancels N_a against the denominator of b and N_b
against that of a: the integer contents with math.gcd, q -+ 1 by synthetic
division (Horner at q = +-1 on one dense q-row per monomial in the p_i, up
to the other operand's exponent, with the quotient rows kept), and F by
_p_gcd.  a + b brings both sides to lcm(c), to the larger exponents of
q -+ 1 and to F_a * F_b / gcd(F_a, F_b); the sum can share with that
denominator only the integer content, the q -+ 1 whose exponents were
equal, and gcd(F_a, F_b), so only those are divided out.  Most numerators
are ruled out by their value at q = +-1, p_i = 1 before a row is built.
invert splits N over the same basis, and the public constructor (_reduce)
accepts Laurent polynomials with int or Fraction coefficients, clears the
coefficient denominators, splits the denominator and cancels.  So no gcd
of polynomials is taken unless an F is present, and only there does the
PRS run.

Gcds over Z, for F and for _p_gcd itself, come from a subresultant
pseudo-remainder sequence (Collins 1967, Brown 1971) in one variable on the
same flat dicts: one content gcd at the start, exact divisions by the
factors the subresultant theorem predicts, one primitive part at the end,
and a positive leading coefficient.

_fraction() gives the reduced fraction of polynomials, (numerator,
denominator), that the stored form stands for, derived when first read and
then cached: coprime in Q[q, p1, p2, p3], jointly primitive (the gcd of all
their coefficients is 1) and with a positive leading coefficient of the
denominator under lex order on (q, p1, p2, p3) exponent vectors; tests
read it to check these invariants.  num and den are its monic views
(denominator leading coefficient 1, Fraction values); rendering and
evaluate use them, so 1/(2q + 2) and q/(q + 1) share the denominator q + 1.
Fraction appears only at these boundaries and in from_rational and the
public constructor QScalar(num, den=None), which takes Laurent term dicts
and which monomial, q_power and p_power build through; it refuses an
exponent that is not an int (a ValueError).  Every operand and every
linear.py coefficient goes through the one rule _coerce.

clear_denominators is the one way out of the field: it multiplies a set of
values by the lcm c * (q - 1)^I * (q + 1)^J * L of their denominators (L
the lcm of their F, 1 on the engine's own routes) and gives each product
as a Laurent, a Laurent polynomial over Z which is never cancelled.  The
symbolic Fock and module checks multiply those, so a Laurent keys its
terms by packed ints, not 4-tuples: a monomial is one int with a signed
64-bit field per variable, and a product of monomials is a sum of ints.
_pack takes exponents of magnitude below 2^30 and refuses the rest, so no
product the engine forms carries from one field into the next (see
Laurent).  The constructor packs, monomials() unpacks, and
laurent_q_power and laurent_q_number give q^e and q^m - q^-m in that
ring, so its key format is spelled in this module only.  QScalar and the
gcd keep their 4-tuples.

All values are immutable, and the coefficient dicts are never mutated once
built, so scalars may share them; every operation is a pure function, and
q_power and q_integer are memoized.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, lru_cache
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


def _mono_div_signed(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


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
    """a divided by the monomial mono; either may have negative exponents."""
    if mono == _UNIT_MONO:
        return a
    return {_mono_div_signed(m, mono): c for m, c in a.items()}


_ONE_POLY = {_UNIT_MONO: 1}


def _p_is_const(a):
    return len(a) == 1 and _UNIT_MONO in a


def _p_is_one(a):
    return len(a) == 1 and a.get(_UNIT_MONO) == 1


# the flat view in one variable v, for the subresultant PRS

def _p_part(a, v, k, e):
    """The terms of a of degree k in v, with that degree set to e."""
    return {m[:v] + (e,) + m[v + 1:]: c for m, c in a.items() if m[v] == k}


def _p_content(a, v):
    """The gcd over Z of a's coefficients as a polynomial in v."""
    cont = {}
    for k in {m[v] for m in a}:
        cont = _p_gcd(cont, _p_part(a, v, k, 0))
        if _p_is_one(cont):
            break
    return cont


def _p_prem(a, b, v):
    """lc(b)^(delta + 1) * a mod b in v, for delta = deg(a) - deg(b) >= 0:
    one step per degree of a from deg(a) down to deg(b)."""
    db = _p_deg(b, v)
    lcb = _p_part(b, v, db, 0)
    for k in range(_p_deg(a, v), db - 1, -1):
        a = _p_add(_p_mul(a, lcb),
                   _p_neg(_p_mul(_p_part(a, v, k, k - db), b)))
    return a


def _prs_div(a, b):
    """a / b for a division that the subresultant theorem makes exact."""
    if _p_is_one(b):
        return a
    quo = _p_div_exact(a, b)
    if quo is None:
        raise ArithmeticError("inexact division in the subresultant PRS")
    return quo


# the closed denominator basis: c * (q - 1)^i * (q + 1)^j

def _q_rows(a):
    """a as dense coefficient rows in q, one for each monomial in the p_i:
    ({p-monomial: row}, lo) with row[k] the coefficient of q^(lo + k)."""
    lo = min(m[0] for m in a)
    rows = {}
    for mono, c in a.items():
        rest = mono[1:]
        row = rows.get(rest)
        if row is None:
            row = rows[rest] = []
        e = mono[0] - lo
        if e >= len(row):
            row.extend([0] * (e + 1 - len(row)))
        row[e] = c
    return rows, lo


def _from_q_rows(rows, lo):
    return {(lo + e,) + rest: c for rest, row in rows.items()
            for e, c in enumerate(row) if c}


def _q_divide(row, r):
    """Quotient and remainder of a dense q-row by q - r (Horner)."""
    quo = [0] * (len(row) - 1)
    acc = 0
    for k in range(len(row) - 1, 0, -1):
        acc = row[k] + r * acc
        quo[k - 1] = acc
    return quo, row[0] + r * acc


def _q_multiplicity(rows, r, cap):
    """(k, quotient rows): q - r divides every row k times, k <= cap."""
    k = 0
    while k < cap:
        quos = {}
        for rest, row in rows.items():
            quo, rem = _q_divide(row, r)
            if rem:
                return k, rows
            quos[rest] = quo
        rows = quos
        k += 1
    return k, rows


def _closed_divide(a, i, j):
    """(a / ((q - 1)^k * (q + 1)^l), k, l) for the largest k <= i and
    l <= j, a a Laurent polynomial.  The value of a at q = +-1, p_i = 1
    rules most a out before any row is built."""
    if i and sum(a.values()):
        i = 0
    if j and sum(-c if m[0] & 1 else c for m, c in a.items()):
        j = 0
    if not (i or j):
        return a, 0, 0
    rows, lo = _q_rows(a)
    k, rows = _q_multiplicity(rows, 1, i)
    l, rows = _q_multiplicity(rows, -1, j)
    if k or l:
        a = _from_q_rows(rows, lo)
    return a, k, l


@cache
def _closed_poly(i, j):
    """(q - 1)^i * (q + 1)^j."""
    row = [1]
    for r in (1,) * i + (-1,) * j:
        row = [lo - r * hi for lo, hi in zip([0] + row, row + [0])]
    return {(e, 0, 0, 0): c for e, c in enumerate(row) if c}


def _p_gcd(a, b):
    """gcd over Z with a positive leading coefficient: the gcd of the
    contents in one variable v times the primitive part of the last nonzero
    remainder of the subresultant PRS in v."""
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
        # occurs with a positive degree; the PRS in v takes at most
        # min(deg(a), deg(b)) steps in v, and none when one is free of v
        degs = [sorted((_p_deg(a, i), _p_deg(b, i))) for i in range(NVARS)]
        v = min((i for i in range(NVARS) if degs[i][1]), key=lambda i: degs[i])
        ca, cb = _p_content(a, v), _p_content(b, v)
        A, B = _prs_div(a, ca), _prs_div(b, cb)
        if _p_deg(A, v) < _p_deg(B, v):
            A, B = B, A
        g = h = _ONE_POLY
        while (d := _p_deg(B, v)) > 0:
            delta = _p_deg(A, v) - d
            A, B = B, _prs_div(_p_prem(A, B, v),
                               _p_mul(g, power(h, delta, _ONE_POLY, _p_mul)))
            g = _p_part(A, v, d, 0)
            if delta:
                h = _prs_div(power(g, delta, None, _p_mul),
                             power(h, delta - 1, _ONE_POLY, _p_mul))
        # B is zero, and A the last nonzero remainder, or B is free of v
        pp = _prs_div(A, _p_content(A, v)) if not B else _ONE_POLY
        core = _p_positive(_p_mul(_p_gcd(ca, cb), pp))
    if shared != _UNIT_MONO:
        core = {_mono_mul(m, shared): c for m, c in core.items()}
    return core


def _p_cancel(a, b):
    """(a/g, b/g, g) for g = gcd(a, b) over Z."""
    g = _p_gcd(a, b)
    if _p_is_one(g):
        return a, b, g
    return _p_div_exact(a, g), _p_div_exact(b, g), g


# ---------------------------------------------------------------------------
# the cleared ring: Laurent polynomials over Z on packed monomial keys
# ---------------------------------------------------------------------------

_FIELD = 64         # bits per signed exponent field of a packed key
_BOUND = 1 << 30    # _pack refuses an exponent of magnitude _BOUND or more


def _pack(mono):
    """The packed key sum(e_v * 2^(_FIELD * v)) of an exponent 4-tuple,
    each field signed; a vector that is not four ints, or an exponent of
    magnitude _BOUND or more, is a ValueError."""
    if not (isinstance(mono, tuple) and len(mono) == NVARS
            and all(isinstance(e, int) for e in mono)):
        raise ValueError("exponent vector %r is not four ints" % (mono,))
    key = 0
    for e in reversed(mono):
        if not -_BOUND < e < _BOUND:
            raise ValueError("exponent %r of %r is outside the Laurent "
                             "ring's bound 2^30" % (e, mono))
        key = (key << _FIELD) + e
    return key


def _unpack(key):
    """The exponent 4-tuple of a packed key: each field is the balanced
    residue of what is left of the key modulo 2^_FIELD, the last field the
    rest."""
    half = 1 << (_FIELD - 1)
    mask = (1 << _FIELD) - 1
    mono = []
    for _ in range(NVARS - 1):
        e = ((key + half) & mask) - half
        mono.append(e)
        key = (key - e) >> _FIELD
    return (*mono, key)


class Laurent:
    """A Laurent polynomial over Z that is never cancelled: the entry type
    of the symbolic Fock and module checks (see clear_denominators).  The
    zero test is an empty dict.

    terms maps packed keys to nonzero ints.  The monomial
    q^e0 p1^e1 p2^e2 p3^e3 is the one int e0 + e1 2^64 + e2 2^128 + e3 2^192,
    each 64-bit field signed, so a product of monomials is the sum of
    their keys, 1 is the key 0, and a q-only monomial is its exponent.
    The constructor takes {exponent 4-tuple: int} and packs every key
    (_pack); monomials() unpacks them (_unpack).  Nothing else looks inside
    a key: + and - are _p_add and _p_neg, and * has its own loop.

    Bound: _pack refuses an exponent of magnitude 2^30 or more, and a field
    holds the magnitudes below 2^63.  Sums add no exponents, so every term
    of a product of k Laurents that _pack built has exponents below
    k 2^30, and a field carries into the next only in a product of more
    than 2^33 such factors.  The longest product the engine forms has
    seven: a relation word has at most two letters, and its cleared
    coefficient multiplies one matrix entry per letter, each a cleared
    value times q^e and at most one q-number q^m - q^-m (the Fock entries
    of both plug-ins' images, which lower the boson number by at most one,
    and the module entries, whose branches carry at most one [N])."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {_pack(m): c for m, c in terms.items()}

    def monomials(self):
        """The terms as {exponent 4-tuple: int}."""
        return {_unpack(k): c for k, c in self.terms.items()}

    def __add__(self, other):
        return _laurent(_p_add(self.terms, other.terms))

    def __sub__(self, other):
        return _laurent(_p_add(self.terms, _p_neg(other.terms)))

    def __neg__(self):
        return _laurent(_p_neg(self.terms))

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = ma + mb
                s = out.get(mono)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return _laurent(out)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, Laurent):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None


def _laurent(terms):
    """The Laurent of packed terms."""
    x = object.__new__(Laurent)
    x.terms = terms
    return x


# ---------------------------------------------------------------------------
# the stored form: N over c * (q - 1)^i * (q + 1)^j * F
# ---------------------------------------------------------------------------

def _cancel_content(a, c):
    """(a/g, c/g) for g the gcd of the integer c and a's coefficients."""
    if c == 1:
        return a, c
    g = gcd(c, *a.values())
    if g == 1:
        return a, c
    return {m: k // g for m, k in a.items()}, c // g


def _cancel_outside(a, f):
    """(a/h, f/h) for h = gcd(a, f), a Laurent, f None (for 1) or free of
    monomial content: the one step that takes a PRS gcd."""
    if f is None:
        return a, f
    s = _p_mono_content(a)
    a, f, _ = _p_cancel(_p_shift_down(a, s), f)
    return _p_shift_down(a, tuple(-e for e in s)), \
        None if _p_is_one(f) else f


def _cancel(a, c, i, j, f):
    """a over c * (q - 1)^i * (q + 1)^j * f, every common factor cancelled:
    (a', c', i', j', f')."""
    a, c = _cancel_content(a, c)
    a, k, l = _closed_divide(a, i, j)
    a, f = _cancel_outside(a, f)
    return a, c, i - k, j - l, f


def _lift(a, s, i, j, f):
    """a * s * (q - 1)^i * (q + 1)^j * f, for f None (for 1) or a
    polynomial."""
    if s != 1:
        a = {m: c * s for m, c in a.items()}
    if i or j:
        a = _p_mul(a, _closed_poly(i, j))
    if f is not None:
        a = _p_mul(a, f)
    return a


def _split(d):
    """(s, m, i, j, f) with d == s * m * (q - 1)^i * (q + 1)^j * f for a
    nonzero Laurent polynomial d: s a nonzero integer, m a monomial and f
    as in the stored form."""
    m = _p_mono_content(d)
    d = _p_shift_down(d, m)
    s = gcd(*d.values())
    if s != 1:
        d = {e: c // s for e, c in d.items()}
    deg = max(e[0] for e in d)
    d, i, j = _closed_divide(d, deg, deg)
    if d[max(d)] < 0:
        s, d = -s, _p_neg(d)
    return s, m, i, j, None if _p_is_const(d) else d


def _reduce(num, den):
    """The stored form (N, c, i, j, F) of num/den, Laurent polynomials with
    int or Fraction coefficients: drop zero coefficients, multiply both by
    the integer that clears the coefficient denominators, split den over
    the basis and cancel.  An exponent vector that is not four ints is a
    ValueError, and a coefficient that is neither an int nor a Fraction a
    TypeError."""
    for c in (*num.values(), *den.values()):
        if not isinstance(c, _RATIONALS):
            raise TypeError("coefficient %r is not an int or a Fraction" % (c,))
    for m in (*num, *den):
        if not (isinstance(m, tuple) and len(m) == NVARS):
            raise ValueError("exponent vector %r does not have %d entries"
                             % (m, NVARS))
        if not all(isinstance(e, int) for e in m):
            raise ValueError("exponent vector %r is not all integers" % (m,))
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, 1, 0, 0, None
    scale = lcm(*(c.denominator for c in num.values()),
                *(c.denominator for c in den.values()))
    s, m, i, j, f = _split({e: int(c * scale) for e, c in den.items()})
    if s < 0:
        scale, s = -scale, -s
    num = {_mono_div_signed(e, m): int(c * scale) for e, c in num.items()}
    return _cancel(num, s, i, j, f)


def _new(n, c, i, j, f):
    x = object.__new__(QScalar)
    x._N = n
    x._c = c
    x._i = i
    x._j = j
    x._F = f
    x._hash = None
    x._nd = None
    return x


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class QScalar:
    """An element of Q(q, p1, p2, p3), stored as N over
    c * (q - 1)^i * (q + 1)^j * F (see the module docstring)."""

    __slots__ = ("_N", "_c", "_i", "_j", "_F", "_hash", "_nd")

    def __init__(self, num, den=None):
        self._N, self._c, self._i, self._j, self._F = _reduce(
            num, _ONE_POLY if den is None else den)
        self._hash = None
        self._nd = None

    @classmethod
    def from_rational(cls, value):
        c = Fraction(value)
        return _new({_UNIT_MONO: c.numerator} if c else {}, c.denominator,
                    0, 0, None)

    # -- the reduced fraction and its monic views -----------------------------

    def _fraction(self):
        if self._nd is None:
            n = self._N
            if not n:
                self._nd = n, _ONE_POLY
            else:
                # the monomial of the denominator: N's negative exponents
                m = tuple(min(0, e) for e in _p_mono_content(n))
                self._nd = (_p_shift_down(n, m),
                            _lift({_mono_div_signed(_UNIT_MONO, m): self._c},
                                  1, self._i, self._j, self._F))
        return self._nd

    @property
    def num(self):
        """Numerator of the monic form, {exponent 4-tuple: Fraction}."""
        n, d = self._fraction()
        lc = d[max(d)]
        return {m: Fraction(c, lc) for m, c in n.items()}

    @property
    def den(self):
        """Denominator of the monic form (leading coefficient 1)."""
        d = self._fraction()[1]
        lc = d[max(d)]
        return {m: Fraction(c, lc) for m, c in d.items()}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._N:
            return other
        if not other._N:
            return self
        a, b = self, other
        c = lcm(a._c, b._c)
        i = max(a._i, b._i)
        j = max(a._j, b._j)
        fa, fb, g = a._F, b._F, None
        if fa is not None and fb is not None:
            fa, fb, g = _p_cancel(fa, fb)
            fa = None if _p_is_const(fa) else fa
            fb = None if _p_is_const(fb) else fb
            g = None if _p_is_one(g) else g
        t = _p_add(_lift(a._N, c // a._c, i - a._i, j - a._j, fb),
                   _lift(b._N, c // b._c, i - b._i, j - b._j, fa))
        if not t:
            return ZERO
        # t is prime to every other factor of the denominator
        t, c = _cancel_content(t, c)
        t, k, l = _closed_divide(t, i if a._i == b._i else 0,
                                 j if a._j == b._j else 0)
        t, g = _cancel_outside(t, g)
        f = g
        for h in (fa, fb):
            if h is not None:
                f = h if f is None else _p_mul(f, h)
        return _new(t, c, i - k, j - l, f)

    __radd__ = __add__

    def __neg__(self):
        return _new(_p_neg(self._N), self._c, self._i, self._j, self._F)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, nb = self._N, other._N
        if not na or not nb:
            return ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        ca, ia, ja, fa = self._c, self._i, self._j, self._F
        cb, ib, jb, fb = other._c, other._i, other._j, other._F
        # each numerator is prime to its own denominator, so only the cross
        # pairs can cancel
        if cb != 1 or ib or jb or fb is not None:
            na, cb, ib, jb, fb = _cancel(na, cb, ib, jb, fb)
        if ca != 1 or ia or ja or fa is not None:
            nb, ca, ia, ja, fa = _cancel(nb, ca, ia, ja, fa)
        f = fa if fb is None else fb if fa is None else _p_mul(fa, fb)
        return _new(_p_mul(na, nb), ca * cb, ia + ib, ja + jb, f)

    __rmul__ = __mul__

    def invert(self):
        if not self._N:
            raise ZeroDivisionError("cannot invert the zero scalar")
        s, m, i, j, f = _split(self._N)
        c = -self._c if s < 0 else self._c
        n = _lift({_mono_div_signed(_UNIT_MONO, m): c}, 1,
                  self._i, self._j, self._F)
        return _new(n, abs(s), i, j, f)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self.invert() if n < 0 else self, abs(n), ONE)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._c == other._c and self._i == other._i
                and self._j == other._j and self._N == other._N
                and self._F == other._F)

    def __hash__(self):
        if self._hash is None:
            n = self._N
            if self._i == self._j == 0 and self._F is None and (
                    not n or _p_is_const(n)):
                # agree with == under coercion: hash(from_rational(c)) == hash(c)
                self._hash = hash(Fraction(n.get(_UNIT_MONO, 0), self._c))
            else:
                # hash the exponents shifted to be >= 0, as in _fraction:
                # CPython hashes -1 like -2, so q^-1 and q^-2 would collide
                s = tuple(max(0, -e) for e in _p_mono_content(n))
                self._hash = hash((
                    frozenset((_mono_mul(m, s), k) for m, k in n.items()),
                    s, self._c, self._i, self._j))
        return self._hash

    def __bool__(self):
        return bool(self._N)

    # -- queries ------------------------------------------------------------

    def is_one(self):
        n = self._N
        return (len(n) == 1 and n.get(_UNIT_MONO) == 1 and self._c == 1
                and not self._i and not self._j and self._F is None)

    def variables(self):
        """Names of the symbols that actually occur."""
        used = set()
        for poly in self._fraction():
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

        n, d = self._fraction()
        d = ev(d)
        if d == 0:
            raise PoleError("denominator vanishes at the assignment")
        return ev(n) / d

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self._N:
            return "0"
        if not (self._i or self._j) and self._F is None:
            # the denominator is c times a monomial: a Laurent polynomial
            return _render_terms({m: Fraction(k, self._c)
                                  for m, k in self._N.items()})
        num_s = _render_terms(self.num)
        if len(self._N) > 1:
            num_s = "(" + num_s + ")"
        return num_s + "/(" + _render_terms(self.den) + ")"

    __str__ = render

    def __repr__(self):
        return self.render()


def render_powers(factors):
    """The (name, exponent) factors as name^e joined by "*": name alone for
    e == 1, nothing for e == 0, "" when no factor is left."""
    return "*".join([name if e == 1 else "%s^%d" % (name, e)
                     for name, e in factors if e])


def signed_sum(pieces):
    """The (negative, body) pairs joined as a signed sum: "-" before a
    negative first body, " + " or " - " before each later one, "" for
    none."""
    parts = []
    for neg, body in pieces:
        if parts:
            parts.append(" - " if neg else " + ")
        elif neg:
            parts.append("-")
        parts.append(body)
    return "".join(parts)


def power(x, n, one=None, mul=operator.mul):
    """x ** n for an int n >= 0 by square and multiply with mul, x's own *
    by default: one for n == 0 and x itself for n == 1; a negative n is a
    ValueError."""
    if n < 0:
        raise ValueError("power exponent %r is negative" % (n,))
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if out is None else out


def _render_terms(terms):
    pieces = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        body = render_powers(zip(VAR_NAMES, mono))
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        pieces.append((c < 0, body))
    return signed_sum(pieces)


_RATIONALS = (int, Fraction)


def _coerce(x, strict=False):
    """The one coefficient rule: x as a QScalar, for x a QScalar, an int or
    a Fraction.  Anything else is NotImplemented, for an operator to hand
    on, or with strict a TypeError that names it, for a constructor."""
    if isinstance(x, QScalar):
        return x
    if isinstance(x, _RATIONALS):
        return QScalar.from_rational(x)
    if strict:
        raise TypeError("coefficient %r is not an int, a Fraction or a "
                        "QScalar" % (x,))
    return NotImplemented


# ---------------------------------------------------------------------------
# constants and standard constructors
# ---------------------------------------------------------------------------

ZERO = QScalar.from_rational(0)
ONE = QScalar.from_rational(1)


def monomial(coeff, eq=0, e1=0, e2=0, e3=0):
    return QScalar({(eq, e1, e2, e3): coeff})


@lru_cache(maxsize=None, typed=True)    # typed: q_power(1.0) is refused
def q_power(n):
    return monomial(1, eq=n)


def p_power(i, n):
    """p_i^n for i in 1..3."""
    if i not in (1, 2, 3):
        raise ValueError("p_power index %r is not 1, 2 or 3" % (i,))
    return monomial(1, *(n if v == i else 0 for v in range(NVARS)))


Q = q_power(1)
QINV = q_power(-1)
P1 = p_power(1, 1)
P2 = p_power(2, 1)
P3 = p_power(3, 1)

EPS = Q - QINV                 # q - q^-1, the ubiquitous denominator
EPS_INV = EPS.invert()


@lru_cache(maxsize=None, typed=True)    # typed: q_integer(1.0) is refused
def q_integer(n):
    """[n] = (q^n - q^-n)/(q - q^-1), in canonical polynomial form; an n
    that is not an int is a ValueError."""
    if not isinstance(n, int):
        raise ValueError("q_integer argument %r is not an int" % (n,))
    if n == 0:
        return ZERO
    if n < 0:
        return -q_integer(-n)
    return QScalar({(n - 1 - 2 * j, 0, 0, 0): 1 for j in range(n)})


def clear_denominators(values):
    """(d, [x * d for x in values]) for QScalars values: d, a QScalar, is
    the lcm c * (q - 1)^I * (q + 1)^J * L of their denominators, with L the
    lcm of their factors F (a monomial of a denominator stays in the
    negative exponents), and each x * d is a Laurent."""
    values = list(values)
    c = lcm(*(x._c for x in values))
    i = max((x._i for x in values), default=0)
    j = max((x._j for x in values), default=0)
    f = None        # L, as lcm(L, F) = L * F / gcd(L, F)
    for x in values:
        if x._F is not None:
            f = x._F if f is None else _p_mul(f, _p_cancel(x._F, f)[0])
    return (_new(_lift(_ONE_POLY, c, i, j, f), 1, 0, 0, None),
            [Laurent(_lift(x._N, c // x._c, i - x._i, j - x._j,
                           f if x._F is None else _p_div_exact(f, x._F)))
             for x in values])


def laurent_q_power(e):
    """q^e in the Laurent ring of clear_denominators."""
    return Laurent({(e, 0, 0, 0): 1})


def laurent_q_number(m):
    """q^m - q^-m in the Laurent ring: [m] times q - q^-1, so 0 for m = 0."""
    return laurent_q_power(m) - laurent_q_power(-m)
