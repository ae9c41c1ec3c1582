"""Normal-ordered arithmetic in the realization superalgebra W.

W is generated by one q-deformed boson mode (a+, a and the invertible
t = q^x), two fermion modes (b1 = the realization fermion, b2 = the plug-in
fermion) and an abstract U_q(gl(1/1)) factor (e32, k2, k3, e23), with

    t a+ = q a+ t        t a = q^-1 a t      a a+ - q^-1 a+ a = t
    a a+ - q a+ a = t^-1    =>    a+ a = (t - t^-1)/(q - q^-1)
    b b = b+ b+ = 0      b b+ + b+ b = 1     (each fermion mode)
    k2 e23 = q e23 k2       k3 e23 = q^-1 e23 k3
    k2 e32 = q^-1 e32 k2    k3 e32 = q e32 k3
    e23^2 = e32^2 = 0       e23 e32 + e32 e23 = (k2 k3 - k2^-1 k3^-1)/(q - q^-1)

Bosons commute with everything else; distinct odd symbols anticommute
(fermions across modes, and fermions against e23/e32).  Every product is
rewritten into the ordered monomial basis

    a+^m t^k a^l . b1+ b1 . b2+ b2 . e32 k2^al k3^be e23

with m*l = 0 (a+ a contractions are resolved into t), which is forced by
the pair of twin boson relations above.  Signs are collected one odd
transposition at a time during the sort, never from per-rule tables.

WElements are immutable values; everything here is a pure function.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import scalars as sc
from .linear import Combination, accumulate, render_terms
from .scalars import QScalar


class ParityError(ValueError):
    """Operation requires homogeneous-parity operands."""


class SubstitutionError(ValueError):
    """Invalid subalgebra substitution (unknown kind or occupied slot)."""


class WMonomial(NamedTuple):
    m: int      # a+ power
    k: int      # t power
    l: int      # a power
    i1: int     # b1+
    j1: int     # b1
    i2: int     # b2+
    j2: int     # b2
    eps: int    # e32
    al: int     # k2 power
    be: int     # k3 power
    de: int     # e23

    @property
    def parity(self):
        return (self.i1 + self.j1 + self.i2 + self.j2 + self.eps + self.de) & 1

    @property
    def fermion_modes(self):
        modes = ()
        if self.i1 or self.j1:
            modes += (1,)
        if self.i2 or self.j2:
            modes += (2,)
        return modes

    def has_gl11(self):
        return bool(self.eps or self.al or self.be or self.de)


UNIT = WMonomial(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# boson sector
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _a_through_creators(m):
    """a . a+^m as dict (m', k', l') -> QScalar (raw, may mix a+ and a)."""
    if m == 0:
        return {(0, 0, 1): sc.ONE}
    # a a+^m = (q^-1 a+ a + t) a+^{m-1}
    #        = q^-1 a+ (a a+^{m-1}) + q^{m-1} a+^{m-1} t
    out = {}
    for (m2, k2, l2), c in _a_through_creators(m - 1).items():
        accumulate(out, (m2 + 1, k2, l2), sc.QINV * c)
    accumulate(out, (m - 1, 1, 0), sc.q_power(m - 1))
    return out


@lru_cache(maxsize=None)
def _annihilators_through_creators(l, m):
    """a^l . a+^m, raw normal order (a+ powers, then t, then a powers)."""
    if l == 0 or m == 0:
        return {(m, 0, l): sc.ONE}
    out = {}
    for (m1, k1, l1), c in _annihilators_through_creators(l - 1, m).items():
        if m1 == 0:
            # a t^{k1} = q^{k1} t^{k1} a
            accumulate(out, (0, k1, l1 + 1), c * sc.q_power(k1))
            continue
        for (m2, k2, l2), c2 in _a_through_creators(m1).items():
            # a^{l2} t^{k1} = q^{l2 k1} t^{k1} a^{l2}
            accumulate(out, (m2, k2 + k1, l2 + l1), c * c2 * sc.q_power(l2 * k1))
    return out


@lru_cache(maxsize=None)
def _contract(m, k, l):
    """Resolve mixed monomials: a+^m t^k a^l with m, l > 0 collapses via
    a+ a = (t - t^-1)/(q - q^-1) into pure raising or lowering monomials."""
    if m == 0 or l == 0:
        return {(m, k, l): sc.ONE}
    # a+^m t^k a^l = q^-k a+^{m-1} (a+ a) t^k a^{l-1}
    #             = q^-k/(q-q^-1) (a+^{m-1} t^{k+1} a^{l-1} - a+^{m-1} t^{k-1} a^{l-1})
    c = sc.q_power(-k) * sc.EPS_INV
    out = {}
    for key, c2 in _contract(m - 1, k + 1, l - 1).items():
        accumulate(out, key, c * c2)
    for key, c2 in _contract(m - 1, k - 1, l - 1).items():
        accumulate(out, key, -(c * c2))
    return out


def _bos_mul(x, y):
    """(m1,k1,l1) times (m2,k2,l2), fully contracted."""
    m1, k1, l1 = x
    m2, k2, l2 = y
    out = {}
    for (m, k, l), c in _annihilators_through_creators(l1, m2).items():
        # a+^{m1} t^{k1} (a+^m t^k a^l) t^{k2} a^{l2}
        coeff = c * sc.q_power(k1 * m + l * k2)
        for key, c2 in _contract(m1 + m, k1 + k + k2, l + l2).items():
            accumulate(out, key, coeff * c2)
    return out


# ---------------------------------------------------------------------------
# fermion and gl(1/1) sector
# ---------------------------------------------------------------------------
# a part is the tuple (i1, j1, i2, j2, eps, al, be, de); products are formed
# by inserting one generator at a time from the right operand, sorting it
# leftward into its slot and counting odd transpositions as it goes.

def _fg_insert(part, kind, exp):
    i1, j1, i2, j2, eps, al, be, de = part
    if kind == "k2":
        # e23 k2^g = q^-g k2^g e23
        c = sc.q_power(-exp) if de else sc.ONE
        return [((i1, j1, i2, j2, eps, al + exp, be, de), c)]
    if kind == "k3":
        c = sc.q_power(exp) if de else sc.ONE
        return [((i1, j1, i2, j2, eps, al, be + exp, de), c)]
    if kind == "e23":
        if de:
            return []
        return [((i1, j1, i2, j2, eps, al, be, 1), sc.ONE)]
    if kind == "e32":
        out = []
        if de:
            # e23 e32 = -e32 e23 + (k2 k3 - k2^-1 k3^-1)/(q - q^-1)
            out.append(((i1, j1, i2, j2, eps, al + 1, be + 1, 0), sc.EPS_INV))
            out.append(((i1, j1, i2, j2, eps, al - 1, be - 1, 0), -sc.EPS_INV))
        if not eps:
            c = sc.q_power(be - al)
            if de:
                c = -c
            out.append(((i1, j1, i2, j2, 1, al, be, de), c))
        return out
    sgn_gl = -1 if (eps + de) & 1 else 1
    if kind == "b2+":
        out = []
        if j2:
            # b2 b2+ = 1 - b2+ b2
            out.append(((i1, j1, i2, 0, eps, al, be, de), _sgn(sgn_gl)))
            if not i2:
                out.append(((i1, j1, 1, 1, eps, al, be, de), _sgn(-sgn_gl)))
        elif not i2:
            out.append(((i1, j1, 1, 0, eps, al, be, de), _sgn(sgn_gl)))
        return out
    if kind == "b2":
        if j2:
            return []
        return [((i1, j1, i2, 1, eps, al, be, de), _sgn(sgn_gl))]
    sgn1 = -1 if (eps + de + i2 + j2) & 1 else 1
    if kind == "b1+":
        out = []
        if j1:
            out.append(((i1, 0, i2, j2, eps, al, be, de), _sgn(sgn1)))
            if not i1:
                out.append(((1, 1, i2, j2, eps, al, be, de), _sgn(-sgn1)))
        elif not i1:
            out.append(((1, 0, i2, j2, eps, al, be, de), _sgn(sgn1)))
        return out
    if kind == "b1":
        if j1:
            return []
        return [((i1, 1, i2, j2, eps, al, be, de), _sgn(sgn1))]
    raise SubstitutionError("unknown generator kind %r" % kind)


def _sgn(s):
    return sc.ONE if s > 0 else -sc.ONE


def _fg_atoms(part):
    i1, j1, i2, j2, eps, al, be, de = part
    atoms = []
    if i1:
        atoms.append(("b1+", 0))
    if j1:
        atoms.append(("b1", 0))
    if i2:
        atoms.append(("b2+", 0))
    if j2:
        atoms.append(("b2", 0))
    if eps:
        atoms.append(("e32", 0))
    if al:
        atoms.append(("k2", al))
    if be:
        atoms.append(("k3", be))
    if de:
        atoms.append(("e23", 0))
    return atoms


def _fg_mul(px, py):
    cur = {px: sc.ONE}
    for kind, exp in _fg_atoms(py):
        nxt = {}
        for part, c in cur.items():
            for part2, c2 in _fg_insert(part, kind, exp):
                accumulate(nxt, part2, c * c2)
        cur = nxt
        if not cur:
            break
    return cur


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class WElement(Combination):
    """Finite QScalar-linear combination of normal-ordered monomials."""

    __slots__ = ()
    UNIT = UNIT

    @classmethod
    def from_scalar(cls, c):
        c = c if isinstance(c, QScalar) else QScalar.from_rational(c)
        return cls({UNIT: c} if c else {})

    @classmethod
    def from_monomial(cls, mon, coeff=None):
        c = sc.ONE if coeff is None else coeff
        return cls({mon: c} if c else {})

    def __mul__(self, other):
        if isinstance(other, WElement):
            return w_mul(self, other)
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = one()
        for _ in range(n):
            out = w_mul(out, self)
        return out

    def inverse(self):
        """Inverse of a scalar multiple of an invertible monomial
        (powers of t, k2, k3); anything else has no inverse in W."""
        if len(self.terms) != 1:
            raise SubstitutionError("element is not an invertible monomial")
        ((mon, c),) = self.terms.items()
        if mon.m or mon.l or mon.i1 or mon.j1 or mon.i2 or mon.j2 \
                or mon.eps or mon.de:
            raise SubstitutionError("element is not an invertible monomial")
        inv = WMonomial(0, -mon.k, 0, 0, 0, 0, 0, 0, -mon.al, -mon.be, 0)
        return WElement({inv: c.invert()})

    def parity(self):
        """0 or 1 for homogeneous elements, None for mixed (zero counts
        as even)."""
        seen = {m.parity for m in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def fermion_modes(self):
        modes = set()
        for mon in self.terms:
            modes.update(mon.fermion_modes)
        return tuple(sorted(modes))

    def has_gl11(self):
        return any(mon.has_gl11() for mon in self.terms)

    def max_raising(self):
        """Largest net boson-number raise any monomial can produce."""
        return max((mon.m - mon.l for mon in self.terms), default=0)

    def __repr__(self):
        return render_element(self)

    __str__ = __repr__


def zero():
    return WElement.zero()


def one():
    return WElement({UNIT: sc.ONE})


_GEN_TABLE = {
    "a+": WMonomial(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "a": WMonomial(0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    "t": WMonomial(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "tinv": WMonomial(0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "b1+": WMonomial(0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    "b1": WMonomial(0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    "b2+": WMonomial(0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    "b2": WMonomial(0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    "e32": WMonomial(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    "k2": WMonomial(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    "k2inv": WMonomial(0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0),
    "k3": WMonomial(0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    "k3inv": WMonomial(0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0),
    "e23": WMonomial(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}

_GEN_ALIASES = {
    "b+": "b1+", "b": "b1",
    "t^-1": "tinv", "k2^-1": "k2inv", "k3^-1": "k3inv",
}

GENERATOR_NAMES = tuple(_GEN_TABLE) + tuple(_GEN_ALIASES)


def generator(name):
    """The unit-coefficient generator element for a symbol name."""
    key = _GEN_ALIASES.get(name, name)
    mon = _GEN_TABLE.get(key)
    if mon is None:
        raise SubstitutionError("unknown W generator %r" % name)
    return WElement({mon: sc.ONE})


def w_mul(x, y):
    """Product in W, rewritten to the normal-ordered canonical form."""
    out = {}
    for mx, cx in x.terms.items():
        fx = (mx.i1, mx.j1, mx.i2, mx.j2, mx.eps, mx.al, mx.be, mx.de)
        bx = (mx.m, mx.k, mx.l)
        for my, cy in y.terms.items():
            c0 = cx * cy
            bos = _bos_mul(bx, (my.m, my.k, my.l))
            fg = _fg_mul(fx, (my.i1, my.j1, my.i2, my.j2,
                              my.eps, my.al, my.be, my.de))
            for (m, k, l), cb in bos.items():
                cbl = c0 * cb
                for part, cf in fg.items():
                    accumulate(out, WMonomial(m, k, l, *part), cbl * cf)
    return WElement(out)


def supercommutator(x, y):
    """x y - (-1)^{parity x * parity y} y x, for homogeneous x, y."""
    px = x.parity()
    py = y.parity()
    if px is None or py is None:
        raise ParityError("supercommutator requires homogeneous operands")
    yx = w_mul(y, x)
    if px and py:
        return w_mul(x, y) + yx
    return w_mul(x, y) - yx


# ---------------------------------------------------------------------------
# gl(1/1) plug-in substitution
# ---------------------------------------------------------------------------

_P2MON = WMonomial(0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)   # b2+ b2


def _occupation_weight(p_index, power, qexp):
    """p^power (b2 b2+ + q^qexp b2+ b2) = p^power (1 + (q^qexp - 1) b2+ b2)."""
    p = sc.p_power(p_index, power)
    terms = {UNIT: p}
    c = p * (sc.q_power(qexp) - sc.ONE)
    if c:
        terms[_P2MON] = c
    return WElement(terms)


def _fermionic_k2(al):
    return _occupation_weight(2, al, al)


def _fermionic_k3(be):
    return _occupation_weight(3, be, -be)


_FERMIONIC_E23 = None
_FERMIONIC_E32 = None


def _fermionic_odd():
    global _FERMIONIC_E23, _FERMIONIC_E32
    if _FERMIONIC_E23 is None:
        _FERMIONIC_E23 = generator("b2+")
        # [lambda2 + lambda3] b2 = (p2 p3 - p2^-1 p3^-1)/(q - q^-1) b2
        c = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV
        _FERMIONIC_E32 = generator("b2").scale(c)
    return _FERMIONIC_E23, _FERMIONIC_E32


def substitute_gl11(x, realization):
    """Replace the abstract gl(1/1) factor by a concrete realization.

    'trivial':   e23, e32 -> 0, k2 -> p2, k3 -> p2^-1.
    'fermionic': e23 -> b2+, e32 -> [lambda2+lambda3] b2,
                 k2 -> p2 (b2 b2+ + q b2+ b2), k3 -> p3 (b2 b2+ + q^-1 b2+ b2);
                 the mode-2 slots of x must be free, they receive the image.
    """
    if realization not in ("trivial", "fermionic"):
        raise SubstitutionError("unknown gl(1/1) realization %r" % realization)
    out = WElement.zero()
    for mon, c in x.terms.items():
        west = WElement({mon._replace(eps=0, al=0, be=0, de=0): c})
        if realization == "trivial":
            if mon.eps or mon.de:
                continue
            out = out + west.scale(sc.p_power(2, mon.al - mon.be))
            continue
        if mon.i2 or mon.j2:
            raise SubstitutionError(
                "mode-2 fermion slot occupied; it is reserved for the image")
        img_e23, img_e32 = _fermionic_odd()
        acc = west
        if mon.eps:
            acc = w_mul(acc, img_e32)
        if mon.al:
            acc = w_mul(acc, _fermionic_k2(mon.al))
        if mon.be:
            acc = w_mul(acc, _fermionic_k3(mon.be))
        if mon.de:
            acc = w_mul(acc, img_e23)
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# canonical text rendering (the CLI grammar; parsing lives in parsing.py)
# ---------------------------------------------------------------------------

def _factor_strings(mon):
    parts = []

    def power(name, e):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))

    power("a+", mon.m)
    power("t", mon.k)
    power("a", mon.l)
    power("b+", mon.i1)
    power("b", mon.j1)
    power("b2+", mon.i2)
    power("b2", mon.j2)
    power("e32", mon.eps)
    power("k2", mon.al)
    power("k3", mon.be)
    power("e23", mon.de)
    return parts


def render_monomial(mon):
    parts = _factor_strings(mon)
    return "*".join(parts) if parts else "1"


def render_element(x):
    """Deterministic canonical text form; parses back to the same element."""
    if not x.terms:
        return "0"
    if set(x.terms) == {UNIT}:
        return x.terms[UNIT].render()
    monos = sorted(x.terms)
    dens = {tuple(sorted(x.terms[m].den.items())) for m in monos}
    common = None
    if len(dens) == 1 and len(monos) > 1:
        common = QScalar(x.terms[monos[0]].den)
        if common.is_one():
            common = None
    body = render_terms(
        (QScalar(x.terms[mon].num) if common is not None else x.terms[mon],
         render_monomial(mon)) for mon in monos)
    if common is not None:
        return "(" + body + ")/(" + common.render() + ")"
    return body
