"""Exact arithmetic over the rational function field Q(q, p1, p2, p3).

Every coefficient in the engine lives here.  q is the deformation parameter
and p1, p2, p3 stand for the weight factors q^{lambda_i}, so all exponents
stay integral.  A QScalar is a reduced fraction of polynomials with Fraction
coefficients; inverse powers are ordinary fractions (q^-1 is 1/q).  The
canonical form keeps numerator and denominator coprime with the denominator
monic under lex order on (q, p1, p2, p3) exponent vectors, so equality and
hashing are purely structural (a constant scalar hashes like the rational
it equals, so sc.ONE and 1 are one dict key).  This is what makes the
rewriting engines' "residual is exactly zero" checks meaningful.

Reduction follows Henrici (1956): both operands of * and + are already
canonical, so the gcds are taken of their small factors, never of the full
products.  a/b * c/d cancels gcd(a, d) and gcd(c, b); a/b + c/d with
g = gcd(b, d) forms t = a*(d/g) + c*(b/g) and cancels only gcd(t, g).  The
results come out coprime with a monic denominator, with no final gcd.  The
full reduction _reduce (a primitive-PRS gcd of numerator and denominator,
Collins 1967 / Brown 1971) runs only for constructions that are not
reduced by construction: from_laurent, invert, sums over one denominator.

All values are immutable; every operation is a pure function, and q_power
and q_integer are memoized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

NVARS = 4
VAR_NAMES = ("q", "p1", "p2", "p3")
_UNIT_MONO = (0, 0, 0, 0)


class PoleError(ArithmeticError):
    """The denominator vanishes at the requested assignment."""


# ---------------------------------------------------------------------------
# polynomial layer: dict mapping exponent 4-tuples to Fraction, no zero values
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


def _p_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = _mono_mul(ma, mb)
            s = out.get(mono)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


def _p_scale(a, c):
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def _p_monic(a):
    if not a:
        return {}
    lc = a[max(a)]
    if lc == 1:
        return dict(a)
    return _p_scale(a, 1 / lc)


def _p_deg(a, v):
    return max((m[v] for m in a), default=-1)


def _p_div_exact(a, b):
    """Quotient a/b when the division is exact, else None."""
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
        c = rem[lr] / lbc
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
    mins = [None] * NVARS
    for mono in a:
        for v in range(NVARS):
            e = mono[v]
            if mins[v] is None or e < mins[v]:
                mins[v] = e
    return tuple(mins)


def _p_shift_down(a, mono):
    if mono == _UNIT_MONO:
        return dict(a)
    return {_mono_div(m, mono): c for m, c in a.items()}


_ONE_POLY = {_UNIT_MONO: Fraction(1)}


def _p_is_unit(a):
    return len(a) == 1 and _UNIT_MONO in a


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
    cont = {}
    for poly in u.values():
        cont = _p_gcd(cont, poly)
        if _p_is_unit(cont):
            return dict(_ONE_POLY), {e: dict(p) for e, p in u.items()}
    pp = {e: _p_div_exact(poly, cont) for e, poly in u.items()}
    return cont, pp


def _u_prem(A, B):
    """Pseudo-remainder of A by B (univariate dicts with poly coefficients)."""
    dB = max(B)
    lcB = B[dB]
    R = {e: dict(p) for e, p in A.items()}
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
    """Monic gcd via primitive pseudo-remainder sequences."""
    if not a:
        return _p_monic(b)
    if not b:
        return _p_monic(a)
    if _p_is_unit(a) or _p_is_unit(b):
        return dict(_ONE_POLY)
    sa = _p_mono_content(a)
    sb = _p_mono_content(b)
    shared = tuple(min(x, y) for x, y in zip(sa, sb))
    a = _p_shift_down(a, sa)
    b = _p_shift_down(b, sb)
    if len(a) == 1 or len(b) == 1:
        core = dict(_ONE_POLY)
    elif a == b:
        core = _p_monic(a)
    else:
        v = None
        for i in range(NVARS):
            if _p_deg(a, i) > 0 or _p_deg(b, i) > 0:
                v = i
                break
        if v is None:
            core = dict(_ONE_POLY)
        else:
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
            core = _p_mul(cg, _p_from_univ(A, v))
    if shared != _UNIT_MONO:
        core = {_mono_mul(m, shared): c for m, c in core.items()}
    return _p_monic(core)


def _p_cancel(a, b):
    """(a/g, b/g, g) for the monic g = gcd(a, b)."""
    g = _p_gcd(a, b)
    if _p_is_unit(g):
        return a, b, g
    return _p_div_exact(a, g), _p_div_exact(b, g), g


def _reduce(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, dict(_ONE_POLY)
    num, den, _ = _p_cancel(num, den)
    lc = den[max(den)]
    if lc != 1:
        inv = 1 / lc
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    return num, den


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class QScalar:
    """An element of Q(q, p1, p2, p3) in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = dict(_ONE_POLY)
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def from_rational(cls, value):
        c = Fraction(value)
        num = {_UNIT_MONO: c} if c else {}
        return cls(num, dict(_ONE_POLY), _reduced=True)

    @classmethod
    def from_laurent(cls, terms):
        """Build from a Laurent term dict {exponent 4-tuple: coefficient}."""
        terms = {m: Fraction(c) for m, c in terms.items() if c}
        if not terms:
            return ZERO
        shift = tuple(max(0, -min(m[v] for m in terms)) for v in range(NVARS))
        num = {_mono_mul(m, shift): c for m, c in terms.items()}
        den = {shift: Fraction(1)}
        return cls(num, den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return QScalar(_p_add(self.num, other.num), dict(self.den))
        # t is coprime to b/g and d/g, so only gcd(t, g) can cancel
        b, d, g = _p_cancel(self.den, other.den)
        t = _p_add(_p_mul(self.num, d), _p_mul(other.num, b))
        if not t:
            return ZERO
        t, g, _ = _p_cancel(t, g)
        den = _p_mul(b, d)
        if not _p_is_unit(g):
            den = _p_mul(den, g)
        return QScalar(t, den, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return QScalar(_p_neg(self.num), dict(self.den), _reduced=True)

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
        if not self.num or not other.num:
            return ZERO
        if _p_is_unit(self.num) and _p_is_unit(self.den):
            c = self.num[_UNIT_MONO]
            if c == 1:
                return other
            return QScalar(_p_scale(other.num, c), dict(other.den), _reduced=True)
        a, d, _ = _p_cancel(self.num, other.den)
        c, b, _ = _p_cancel(other.num, self.den)
        return QScalar(_p_mul(a, c), _p_mul(b, d), _reduced=True)

    __rmul__ = __mul__

    def invert(self):
        if not self.num:
            raise ZeroDivisionError("cannot invert the zero scalar")
        return QScalar(dict(self.den), dict(self.num))

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            if _p_is_unit(self.den) and (
                    not self.num or _p_is_unit(self.num)):
                # agree with == under coercion: hash(from_rational(c)) == hash(c)
                self._hash = hash(self.num.get(_UNIT_MONO, Fraction(0)))
            else:
                self._hash = hash((tuple(sorted(self.num.items())),
                                   tuple(sorted(self.den.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- queries ------------------------------------------------------------

    def is_one(self):
        return _p_is_unit(self.num) and _p_is_unit(self.den) \
            and self.num[_UNIT_MONO] == 1

    def variables(self):
        """Names of the symbols that actually occur."""
        used = set()
        for poly in (self.num, self.den):
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

        d = ev(self.den)
        if d == 0:
            raise PoleError("denominator vanishes at the assignment")
        return ev(self.num) / d

    def substitute_monomial(self, var, exps):
        """Replace a variable by a Laurent monomial, e.g. p3 -> p2^-1."""
        v = VAR_NAMES.index(var)

        def sub(poly):
            out = {}
            for mono, c in poly.items():
                e = mono[v]
                base = mono[:v] + (0,) + mono[v + 1:]
                tgt = tuple(b + e * x for b, x in zip(base, exps))
                s = out.get(tgt)
                s = c if s is None else s + c
                if s:
                    out[tgt] = s
                elif tgt in out:
                    del out[tgt]
            return out

        den = QScalar.from_laurent(sub(self.den))
        if not den:
            raise PoleError("substitution sends the denominator to zero")
        return QScalar.from_laurent(sub(self.num)) / den

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        if len(self.den) == 1:
            ((dm, dc),) = self.den.items()
            terms = {_mono_div_signed(m, dm): c / dc for m, c in self.num.items()}
            return _render_terms(terms)
        num_s = _render_terms(self.num)
        if len(self.num) > 1:
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

ZERO = QScalar({}, dict(_ONE_POLY), _reduced=True)
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
