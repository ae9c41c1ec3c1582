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
the pair of twin boson relations above.  With t = q^x and
[x+s] = (q^s t - q^-s t^-1)/(q - q^-1), the contractions are the ladders

    a+^i a^i = [x][x-1]...[x-i+1]        a^j a+^j = [x+j][x+j-1]...[x+1]

and a product that would contract more than MAX_LADDER = 100 a+ a pairs
raises SubstitutionError at once: the loop grows as about j^5, and
`normal-order "a^j * a+^j"` takes 0.2 s at j = 20, 1 s at 60, 4 s at 80
and 7-10 s (104 MB) at 100, the largest j inside 10 s and 500 MB.  The
ceiling bounds one contraction, not a product of contracted results:
"(a^30 * a+^30)^2" contracts at most 30 pairs at a time, yet its product
of two contracted t-polynomials takes 10.1 s.  Signs are collected one
odd transposition at a time during the sort, never from per-rule tables.

SYMBOLS spells this basis: one symbol per WMonomial field, in field order.
The generator table, the rendering and the boson/fermion split of w_mul
are read from it.

The two gl(1/1) plug-ins live here, each defined once as the Gl11Rep
matrices of e23, e32, k2, k3 that the induced module also accepts, and
GL11_PLUG_INS is the one table of their names.  substitute_gl11 reads a
monomial's image off those matrices: e32^eps k2^al k3^be e23^de becomes
their product, a scalar in dimension 1 and, in dimension 2, a sum of the
matrix units |i><j| of the mode-2 fermion.

WElements are immutable values; everything here is a pure function.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import scalars as sc
from .linear import Combination, accumulate, render_terms
from .qmatrix import QMatrix
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

# fields [:3] are the boson sector, [3:] the fermion and gl(1/1) sector
SYMBOLS = ("a+", "t", "a", "b+", "b", "b2+", "b2", "e32", "k2", "k3", "e23")


# ---------------------------------------------------------------------------
# boson sector
# ---------------------------------------------------------------------------

MAX_LADDER = 100        # most a+ a pairs one product may contract


@cache
def _ladder(c, j):
    """[x+c][x+c-1]...[x+c-j+1] as {t power: QScalar}, where
    [x+s] = (q^s t - q^-s t^-1)/(q - q^-1)."""
    if j > MAX_LADDER:
        raise SubstitutionError(
            "contracting %d a+ a pairs exceeds the limit of %d"
            % (j, MAX_LADDER))
    num = {(0, 0): 1}       # numerator, (t power, q power) -> int
    for s in range(c - j + 1, c + 1):
        nxt = {}
        for (tp, qp), v in num.items():
            nxt[tp + 1, qp + s] = nxt.get((tp + 1, qp + s), 0) + v
            nxt[tp - 1, qp - s] = nxt.get((tp - 1, qp - s), 0) - v
        num = nxt
    by_t = {}
    for (tp, qp), v in num.items():
        if v:
            by_t.setdefault(tp, {})[qp, 0, 0, 0] = v
    scale = sc.EPS_INV ** j
    return {tp: QScalar(terms) * scale for tp, terms in by_t.items()}


def _bos_mul(x, y):
    """(m1,k1,l1) times (m2,k2,l2), fully contracted: a^j a+^j between the
    factors is _ladder(j, j), and the a+^i a^i left over is _ladder(0, i)."""
    m1, k1, l1 = x
    m2, k2, l2 = y
    j = min(l1, m2)
    m, l = m1 + m2 - j, l1 + l2 - j
    i = min(m, l)
    out = {}
    for k, c in _ladder(j, j).items():
        # t^k passes a^(l1-j) leftward and a+^(m2-j) rightward, then t^kk
        # passes a+^i leftward
        kk = k1 + k + k2
        c = c * sc.q_power((l1 - j) * (k + k2) + (k1 + k) * (m2 - j) - kk * i)
        for k3, c3 in _ladder(0, i).items():
            accumulate(out, (m - i, kk + k3, l - i), c * c3)
    return out


# ---------------------------------------------------------------------------
# fermion and gl(1/1) sector
# ---------------------------------------------------------------------------
# a part is the tuple (i1, j1, i2, j2, eps, al, be, de); products are formed
# by inserting one generator at a time from the right operand, sorting it
# leftward into its slot and counting odd transpositions as it goes.

_FG_SLOTS = ("b1+", "b1", "b2+", "b2", "e32", "k2", "k3", "e23")
_FERMION_OFFSET = {"b1+": 0, "b1": 0, "b2+": 2, "b2": 2}
_SIGN = (sc.ONE, -sc.ONE)


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
    off = _FERMION_OFFSET.get(kind)
    if off is None:
        raise SubstitutionError("unknown generator kind %r" % kind)
    # a fermion of mode 1 also passes the mode-2 slots
    c = _SIGN[(eps + de + (i2 + j2 if off == 0 else 0)) & 1]
    i, j = part[off], part[off + 1]
    head, tail = part[:off], part[off + 2:]
    if kind[-1] != "+":
        return [] if j else [(head + (i, 1) + tail, c)]
    if not j:
        return [] if i else [(head + (1, 0) + tail, c)]
    # b+^i b b+ = b+^i (1 - b+ b)
    out = [(head + (i, 0) + tail, c)]
    if not i:
        out.append((head + (1, 1) + tail, -c))
    return out


def _fg_mul(px, py):
    cur = {px: sc.ONE}
    for kind, exp in zip(_FG_SLOTS, py):
        if not exp:
            continue
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

    def __mul__(self, other):
        if isinstance(other, WElement):
            return w_mul(self, other)
        return Combination.__mul__(self, other)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return sc.power(self.inverse() if n < 0 else self, abs(n), one())

    def inverse(self):
        """Inverse of a scalar multiple of an invertible monomial
        (powers of t, k2, k3); anything else has no inverse in W."""
        if not self.terms:
            raise SubstitutionError("division by zero")
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


def one():
    return WElement.term(UNIT)


# generator name -> its monomial: the symbol's field set to the exponent
_GEN_TABLE = {
    name: WMonomial(*(exp if s == symbol else 0 for s in SYMBOLS))
    for name, symbol, exp in (
        ("a+", "a+", 1), ("a", "a", 1), ("t", "t", 1), ("tinv", "t", -1),
        ("b1+", "b+", 1), ("b1", "b", 1), ("b2+", "b2+", 1), ("b2", "b2", 1),
        ("e32", "e32", 1), ("k2", "k2", 1), ("k2inv", "k2", -1),
        ("k3", "k3", 1), ("k3inv", "k3", -1), ("e23", "e23", 1))
}

_GEN_ALIASES = {
    "b+": "b1+", "b": "b1",
    "t^-1": "tinv", "k2^-1": "k2inv", "k3^-1": "k3inv",
}

GENERATOR_NAMES = tuple(_GEN_TABLE) + tuple(_GEN_ALIASES)


def generator(name):
    """The unit-coefficient generator element for a symbol name."""
    # a tuple, not the dicts: an unhashable name is refused, not a TypeError
    if name not in GENERATOR_NAMES:
        raise SubstitutionError("unknown W generator %r" % (name,))
    return WElement.term(_GEN_TABLE[_GEN_ALIASES.get(name, name)])


def w_mul(x, y):
    """Product in W, rewritten to the normal-ordered canonical form."""
    out = {}
    for mx, cx in x.terms.items():
        bx, fx = mx[:3], mx[3:]
        for my, cy in y.terms.items():
            c0 = cx * cy
            bos = _bos_mul(bx, my[:3])
            fg = _fg_mul(fx, my[3:])
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
# gl(1/1) plug-ins and their substitution
# ---------------------------------------------------------------------------

class Gl11Rep(NamedTuple):
    """Matrices for e23, e32, k2, k3 (and inverses) on a graded space."""
    dim: int
    mats: dict
    parity: tuple


def trivial_gl11_rep():
    """One-dimensional: e's -> 0, k2 -> p2, k3 -> p2^-1."""
    z = QMatrix.zero(1)
    return Gl11Rep(
        dim=1,
        mats={
            "e23": z, "e32": z,
            "k2": QMatrix.identity(1, sc.P2),
            "k2inv": QMatrix.identity(1, sc.P2.invert()),
            "k3": QMatrix.identity(1, sc.P2.invert()),
            "k3inv": QMatrix.identity(1, sc.P2),
        },
        parity=(0,))


def fermionic_gl11_rep():
    """Two-dimensional fermion-mode realization: e23 -> b2+,
    e32 -> [lambda2+lambda3] b2, k2 -> p2 diag(1, q), k3 -> p3 diag(1, q^-1)."""
    lam = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV

    def diag(a, b):
        return QMatrix.from_entries(2, 2, [(0, 0, a), (1, 1, b)])

    return Gl11Rep(
        dim=2,
        mats={
            "e23": QMatrix.from_entries(2, 2, [(1, 0, sc.ONE)]),
            "e32": QMatrix.from_entries(2, 2, [(0, 1, lam)]),
            "k2": diag(sc.P2, sc.P2 * sc.Q),
            "k2inv": diag(sc.P2.invert(), (sc.P2 * sc.Q).invert()),
            "k3": diag(sc.P3, sc.P3 * sc.QINV),
            "k3inv": diag(sc.P3.invert(), (sc.P3 * sc.QINV).invert()),
        },
        parity=(0, 1))


# every list of plug-in names reads this table, in this order
GL11_PLUG_INS = {"trivial": trivial_gl11_rep, "fermionic": fermionic_gl11_rep}


@cache
def plug_in(name):
    """The Gl11Rep of a name of GL11_PLUG_INS, built once per process."""
    return GL11_PLUG_INS[name]()


def matrix_units(mode):
    """{(i, j): |i><j|} on the occupations of a fermion mode, 1 or 2, as W
    elements: |1><0| = b+, |0><1| = b, |1><1| = b+ b and
    |0><0| = b b+ = 1 - b+ b."""
    plus, minus = generator("b%d+" % mode), generator("b%d" % mode)
    occupied = w_mul(plus, minus)
    return {(0, 0): one() - occupied, (0, 1): minus, (1, 0): plus,
            (1, 1): occupied}


# |i><j| of a plug-in matrix as a W element: the scalar 1 in dimension 1,
# the mode-2 fermion in dimension 2
_MATRIX_UNITS = {1: {(0, 0): one()}, 2: matrix_units(2)}


def substitute_gl11(x, realization):
    """Replace the abstract gl(1/1) factor by a plug-in of GL11_PLUG_INS:
    each monomial's e32^eps k2^al k3^be e23^de becomes the product of the
    plug-in's matrices, read as a W element by _MATRIX_UNITS.

    'trivial':   e23, e32 -> 0, k2 -> p2, k3 -> p2^-1.
    'fermionic': e23 -> b2+, e32 -> [lambda2+lambda3] b2,
                 k2 -> p2 (b2 b2+ + q b2+ b2), k3 -> p3 (b2 b2+ + q^-1 b2+ b2);
                 the mode-2 slots of x must be free, they receive the image.
    """
    # a tuple, not the dict: an unhashable name is refused, not a TypeError
    if realization not in tuple(GL11_PLUG_INS):
        raise SubstitutionError("unknown gl(1/1) realization %r" % realization)
    rep = plug_in(realization)
    units = _MATRIX_UNITS[rep.dim]
    out = WElement.zero()
    for mon, c in x.terms.items():
        if rep.dim == 2 and (mon.i2 or mon.j2):
            raise SubstitutionError(
                "mode-2 fermion slot occupied; it is reserved for the image")
        m = QMatrix.identity(rep.dim)
        for name, exp in zip(_FG_SLOTS[4:], mon[7:]):   # e32, k2, k3, e23
            if exp:
                m = m * sc.power(rep.mats[name if exp > 0 else name + "inv"],
                                 abs(exp))
        image = sum((units[i, j].scale(v) for i, j, v in m.iter_entries()),
                    WElement.zero())
        west = WElement({mon._replace(eps=0, al=0, be=0, de=0): c})
        out = out + w_mul(west, image)
    return out


# ---------------------------------------------------------------------------
# canonical text rendering (the CLI grammar; parsing lives in parsing.py)
# ---------------------------------------------------------------------------

def render_monomial(mon):
    return sc.render_powers(zip(SYMBOLS, mon)) or "1"


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
