"""The induced representation on basis vectors |N,M> (x) v.

A0Rep is a finite-dimensional representation of the parabolic subalgebra A0
(generated by E21, E23, E32 and the K_i^{+-1}) on a graded space V; from a
gl(1/1) representation one builds the highest-weight A0Rep with E21 -> 0 and
K1 -> p1 * id.  The module W has basis (N, M, v-index) with N unbounded
(states materialize lazily) and M in {0, 1}.

Two independent action routes are implemented:

* act        -- the closed-form action formulas, one per generator,
                written once on one basis state over the functions of a
                ring (_act_on_state) and extended linearly;
* act_oracle -- straighten g . E12^N E13^M via the rewriting engine, then
                push the leftover A0 word into V through the matrices.

Their agreement over the verification grid certifies the closed formulas.
The relation checks are calls to superalgebra.check_relations: the gl(1/1)
plug-ins against the defining relations among E23, E32, K2 and K3
(validate_gl11_rep), the A0 representation against those inside A0
(validate_a0rep), both with the parity of the odd letters, and the module
with the matrices of act on the states N <= nmax, compared on the columns
N <= nmax - 2 (check_relations_on_module).  That truncation is exact: each
letter raises N by at most 1 and no relation word has more than two
letters, so from N <= nmax - 2 a word passes only through states N <= nmax.

The module check builds those matrices directly in the Laurent ring of the
symbolic Fock route (_cleared_module), by the Fock route's clearing rule:
_act_on_state evaluates the closed forms in the ring _MODULE, where a value
is a sum of terms, a QScalar coefficient times a Laurent boson factor
(_Terms).  q^e and q^n - q^-n are factors, and 1/(q - q^-1) and the A0
column values are coefficients, so [n] is never expanded and the entries
stay as short as the Fock route's (at most 4 terms for both plug-ins).
One scalars.clear_denominators call then clears all of a generator's
coefficients, as _cleared_matrix clears c (q - q^-1)^-l, and (d_g, A_g)
equal the Fock route's.  The words are cleared by superalgebra.check_cleared:
the counts are those over Q(q, p), and a witness must be divided by the
relation's L, as check_cleared says.  A rep whose matrices have a
denominator factor outside q, q - 1 and q + 1, such as 1/(q + 2), is valid
but has no module check: clear_denominators refuses it (a ValueError).
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import NamedTuple

from . import scalars as sc
from . import superalgebra as ua
from .linear import Combination, accumulate
from .qmatrix import QMatrix
from .reporting import CheckResult, check_size


class RepresentationError(ValueError):
    """The supplied matrices do not satisfy the required relations."""


# ---------------------------------------------------------------------------
# gl(1/1) plug-ins
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


def _check_rep(mats, dim, parity):
    """The relations of relation_set() whose letters all have matrices in
    mats, checked on the identity; then E23 and E32 must flip parity and
    E21 preserve it (those of them that mats has)."""
    def known(word):
        return all(ua.letter(nm, e) in mats for nm, e in word)

    rels = [rel for rel in ua.relation_set()
            if all(map(known, (*rel.lhs.terms, *rel.rhs.terms)))]
    results = ua.check_relations(rels, mats, QMatrix.identity(dim))
    for name, verb in (("E23", "flips"), ("E32", "flips"),
                       ("E21", "preserves")):
        if name in mats:
            bad = sum(1 for i, j, _v in mats[name].iter_entries()
                      if (parity[i] == parity[j]) == (verb == "flips"))
            results.append(CheckResult("%s %s parity" % (name, verb),
                                       bad == 0, bad))
    return results


def validate_gl11_rep(rep):
    """Check the defining relations among E23, E32, K2 and K3, and parity."""
    return _check_rep({nm.capitalize(): m for nm, m in rep.mats.items()},
                      rep.dim, rep.parity)


# ---------------------------------------------------------------------------
# the parabolic subalgebra representation
# ---------------------------------------------------------------------------

class _A0Fields(NamedTuple):
    dim: int
    mats: dict          # E21, E23, E32, K1..K3 and inverses
    parity: tuple


class A0Rep(_A0Fields):
    """A representation of A0 on a graded space of dimension dim.  Without
    __slots__ each rep has a __dict__, where _mats and _columns are kept
    after their first use; _replace gives a new rep, which builds its own."""

    @cached_property
    def _mats(self):
        """mats plus E31 = -E21 E32 + q^-1 E32 E21, built once."""
        m = self.mats
        e31 = -(m["E21"] * m["E32"]) + (m["E32"] * m["E21"]).scale(sc.QINV)
        return dict(m, E31=e31)

    def mat(self, name, exp=1):
        """The matrix of the letter (name, exp); a ValueError names a letter
        whose exponent is not an int or that has no matrix here (checked by
        the name alone for exp 0)."""
        m = self._mats.get(ua.letter(name, exp or 1)) \
            if isinstance(exp, int) else None
        if m is None:
            raise ValueError("no matrix for the letter (%r, %r)" % (name, exp))
        if not exp:
            return QMatrix.identity(self.dim)
        return sc.power(m, abs(exp))

    def apply_word(self, word, vec):
        """A0 word applied to a sparse column vector over V."""
        for nm, e in reversed(word):
            vec = self.mat(nm, e).apply_column(vec)
            if not vec:
                break
        return vec

    def _column(self, word, i):
        """apply_word(word, {i: 1}) for a tuple word, computed once per rep
        and kept in _columns; the caller must not change it."""
        cols = self.__dict__.setdefault("_columns", {})
        if (word, i) not in cols:
            cols[word, i] = self.apply_word(word, {i: sc.ONE})
        return cols[word, i]


def highest_weight_a0rep(gl11rep):
    """Extend a gl(1/1) representation to A0 with E21 -> 0, K1 -> p1 * id."""
    bad = [r for r in validate_gl11_rep(gl11rep) if not r.passed]
    if bad:
        raise RepresentationError(
            "gl(1/1) relations violated: " + ", ".join(r.name for r in bad))
    d = gl11rep.dim
    mats = {nm.capitalize(): m for nm, m in gl11rep.mats.items()}
    mats.update(E21=QMatrix.zero(d), K1=QMatrix.identity(d, sc.P1),
                K1inv=QMatrix.identity(d, sc.P1.invert()))
    return A0Rep(dim=d, mats=mats, parity=gl11rep.parity)


def validate_a0rep(rep):
    """Report on every defining relation that lives inside A0, and parity."""
    return _check_rep(rep._mats, rep.dim, rep.parity)


# ---------------------------------------------------------------------------
# vectors of the induced module
# ---------------------------------------------------------------------------

class InducedVector(Combination):
    """Finite combination of basis states (N, M, v-index)."""

    __slots__ = ()

    @classmethod
    def basis_state(cls, N, M, idx=0, coeff=None):
        """coeff |N,M> (x) v_idx, for an int idx >= 0 and N, M as
        superalgebra.check_state requires; act and act_oracle check each
        term by the same rule and reject an idx outside V."""
        ua.check_state(N, M)
        if not isinstance(idx, int) or idx < 0:
            raise ValueError("invalid basis state (%r, %r, %r)" % (N, M, idx))
        return cls.term((N, M, idx), coeff)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (N, M, i) in sorted(self.terms):
            bits.append("(%s)|%d,%d;%d>" % (self.terms[(N, M, i)], N, M, i))
        return " + ".join(bits)


ACT_GENERATORS = ua.GENERATORS


def _check_term(N, M, i, rep):
    """The state of a term follows the basis_state rule, with i inside V."""
    ua.check_state(N, M)
    if not (isinstance(i, int) and 0 <= i < rep.dim):
        raise ValueError("state index %r is outside the %d-dimensional "
                         "space V" % (i, rep.dim))


# K^+-1 E12^N E13^M = q^(+-(a N + b M)) E12^N E13^M K^+-1, with
# (a, b) = (k_weight(K, E12), k_weight(K, E13)); then K^+-1 acts on v
_K_WEIGHTS = {k + inv: (s * ua.k_weight(k, "E12"), s * ua.k_weight(k, "E13"))
              for k in ("K1", "K2", "K3") for inv, s in (("", 1), ("inv", -1))}


class _Terms(tuple):
    """A value of the module ring: a sum of terms (c, f), c a QScalar
    coefficient and f a Laurent boson factor.  A product multiplies the
    coefficients and the factors apart and a sum joins the terms, so
    _cleared_module can clear all of one generator's coefficients at once."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, _Terms):
            return _Terms((c * d, f * h) for c, f in self for d, h in other)
        return _Terms((c * other, f) for c, f in self)

    def __add__(self, other):
        return _Terms(tuple.__add__(self, other))

    def __neg__(self):
        return _Terms((-c, f) for c, f in self)


# the rings _act_on_state evaluates its closed forms in: q^e, [n] and
# 1/(q - q^-1).  _CANONICAL is that of QScalars.  In _MODULE, as on the
# symbolic Fock route, q^e and q^n - q^-n are Laurent factors and each
# 1/(q - q^-1) goes in the coefficient, so [n] is (1/(q - q^-1), q^n - q^-n)
_CANONICAL = (sc.q_power, sc.q_integer, sc.EPS_INV)
_MODULE = (cache(lambda e: _Terms([(sc.ONE, sc.laurent_q_power(e))])),
           cache(lambda n: _Terms([(sc.EPS_INV, sc.laurent_q_number(n))])),
           _Terms([(sc.EPS_INV, sc.laurent_q_power(0))]))


def _act_on_state(g, N, M, i, rep, ring):
    """The closed forms: g on the basis state |N,M> (x) v_i, as
    {(n, m, r): value}, written once over the q^e, [n] and 1/(q - q^-1)
    of ring; each value is a ring value times an A0 column's QScalar."""
    q_power, q_number, eps_inv = ring
    out = {}

    def put(n, m, coeff, *word):
        """coeff |n,m> (x) (the A0 word, right to left, on v_i)."""
        for r, v in rep._column(tuple((nm, 1) for nm in word), i).items():
            accumulate(out, (n, m, r), coeff * v)

    one = q_power(0)
    if g in _K_WEIGHTS:
        a, b = _K_WEIGHTS[g]
        put(N, M, q_power(a * N + b * M), g)
    elif g == "E12":
        put(N + 1, M, one)
    elif g == "E13":
        if M == 0:
            put(N, 1, q_power(-N))
    elif g == "E23":
        if N > 0 and M == 0:
            put(N - 1, 1, -(q_power(1) * q_number(N)))
        put(N, M, -q_power(N + M) if M else q_power(N + M), "E23")
    elif g == "E32":
        if M == 1:
            put(N + 1, 0, q_power(-1), "K2", "K3")
            put(N, 1, -one, "E32")
        else:
            put(N, 0, one, "E32")
    elif g == "E21":
        if N > 0:
            base = q_number(N) * eps_inv
            put(N - 1, M, -(base * q_power(N + M - 1)), "K1", "K2inv")
            put(N - 1, M, base * q_power(-N - M + 1), "K1inv", "K2")
        if M == 1:
            put(N, 0, one, "E23", "K1inv", "K2")
        put(N, M, one, "E21")
    else:  # E31
        signed = -one if M else one
        if M == 1:
            if N > 0:
                put(N, 0, q_power(N - 1) * q_number(N), "K1", "K3")
            # (K1 K3 - K1^-1 K3^-1) / (q (q - q^-1))
            cartan = q_power(-1) * eps_inv
            put(N, 0, cartan, "K1", "K3")
            put(N, 0, -cartan, "K1inv", "K3inv")
        if N > 0:
            put(N - 1, M, signed * q_power(N + M - 2) * q_number(N),
                "K1", "K2inv", "E32")
        put(N, M, signed, "E31")
    return out


def act(g, x, rep):
    """Closed-form action of a generator on an induced-module vector: the
    linear extension of _act_on_state over x's terms, in QScalars."""
    ua.check_generator(g)
    out = {}
    for (N, M, i), c in x.terms.items():
        _check_term(N, M, i, rep)
        for key, v in _act_on_state(g, N, M, i, rep, _CANONICAL).items():
            accumulate(out, key, c * v)
    return InducedVector(out)


def act_oracle(g, x, rep):
    """Action computed through the straightening engine: normal-order
    g . E12^N E13^M, then push each leftover A0 word into V."""
    ua.check_generator(g)
    out = {}
    for (N, M, i), c in x.terms.items():
        _check_term(N, M, i, rep)
        for term in ua.straighten(g, N, M):
            for r, v in rep._column(term.a0word, i).items():
                accumulate(out, (term.n, term.m, r), c * term.coeff * v)
    return InducedVector(out)


def apply_uelement(el, x, rep):
    """A UElement acting through `act`, letters applied right to left."""
    return ua.evaluate(el, lambda g, vec: act(g, vec, rep), x)


def _cleared_module(rep, nmax):
    """{g: (d_g, A_g)}: A_g / d_g the matrix of g on the states N <= nmax,
    ordered by (N, M, index), from one _act_on_state call per state in the
    ring _MODULE.  As _cleared_matrix does on the Fock route, one
    clear_denominators call clears all of g's coefficients, and an entry
    is the sum of its cleared coefficients times their boson factors."""
    states = [(N, M, i) for N in range(nmax + 1) for M in (0, 1)
              for i in range(rep.dim)]
    index = {state: k for k, state in enumerate(states)}
    zero = sc.laurent_q_power(0) - sc.laurent_q_power(0)
    cleared = {}
    for g in ACT_GENERATORS:
        terms = [(index[target], col, c, f)
                 for col, state in enumerate(states)
                 for target, v in _act_on_state(g, *state, rep,
                                                _MODULE).items()
                 if target in index for c, f in v]
        d, coeffs = sc.clear_denominators(c for _, _, c, _ in terms)
        cleared[g] = d, QMatrix.from_entries(
            len(states), len(states),
            ((row, col, a * f) for (row, col, _, f), a in zip(terms, coeffs)),
            zero)
    return cleared


def check_relations_on_module(rep, nmax):
    """Check every defining relation on the basis states N <= nmax - 2, with
    the generators as matrices on the states N <= nmax, built in the
    Laurent ring by _cleared_module (see the module docstring for why this
    is exact), then the words cleared as on the symbolic Fock route."""
    check_size(nmax, 2, "nmax")
    checked = range(2 * rep.dim * (nmax - 1))      # the states N <= nmax - 2
    return ua.check_cleared(ua.relation_set(), _cleared_module(rep, nmax),
                            lambda c: c, sc.clear_denominators,
                            lambda rel: checked)
