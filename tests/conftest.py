"""Shared sample builders, hypothesis strategies and checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import qgl21.scalars as sc
import qgl21.superalgebra as ua
from qgl21 import induced as ind
from qgl21 import realization as rz
from qgl21.qmatrix import PackedRows, QMatrix
from qgl21.walgebra import WElement, WMonomial

SCALAR_POOL = (
    sc.ONE, -sc.ONE, sc.Q, sc.QINV, sc.Q + sc.ONE, sc.EPS, sc.EPS_INV,
    sc.P1, sc.P2, sc.P2.invert(), sc.P3,
    sc.QScalar.from_rational(Fraction(3, 2)), sc.q_integer(2),
)


def random_monomial(rng, mode2=True, gl11=True):
    """A canonical W monomial with small exponents (m*l = 0 as required)."""
    if rng.random() < 0.5:
        m, l = rng.randrange(0, 3), 0
    else:
        m, l = 0, rng.randrange(0, 3)
    k = rng.randrange(-2, 3)
    i1, j1 = rng.randrange(2), rng.randrange(2)
    i2 = j2 = 0
    if mode2:
        i2, j2 = rng.randrange(2), rng.randrange(2)
    eps = al = be = de = 0
    if gl11:
        eps, de = rng.randrange(2), rng.randrange(2)
        al, be = rng.randrange(-2, 3), rng.randrange(-2, 3)
    return WMonomial(m, k, l, i1, j1, i2, j2, eps, al, be, de)


def random_element(rng, nterms=2, **kw):
    el = WElement.zero()
    for _ in range(nterms):
        el = el + WElement.term(random_monomial(rng, **kw),
                                rng.choice(SCALAR_POOL))
    return el


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_exponents = st.tuples(*(st.integers(min_value=-2, max_value=2),) * 4)
laurent_dicts = st.dictionaries(small_exponents, small_fractions, max_size=3)
qscalars = st.builds(sc.QScalar, laurent_dicts)
nonzero_qscalars = qscalars.filter(bool)


def _poly(terms):
    return {m: Fraction(c) for m, c in terms.items()}


# q-polynomial factors of the kind the Fock route's denominators have.
DENOMINATOR_FACTORS = tuple(_poly(f) for f in (
    {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1},
    {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1},
    {(2, 0, 0, 0): 1, (0, 0, 0, 0): 1},
))

# Fixed scalars with p_i*q + p_j style factors, shaped like Fock-matrix
# entries, e.g. (p1^2*p3^2 - 1)/(q^2*p1*p3 - p1*p3); built by sc._reduce.
P_FACTOR_SCALARS = tuple(sc.QScalar(_poly(n), _poly(d)) for n, d in (
    ({(0, 2, 0, 2): 1, (0, 0, 0, 0): -1},
     {(2, 1, 0, 1): 1, (0, 1, 0, 1): -1}),
    ({(2, 0, 2, 0): 1, (0, 2, 0, 0): -1},
     {(2, 1, 1, 0): 1, (0, 1, 1, 0): -1}),
    ({(1, 1, 0, 0): 1, (1, 0, 1, 0): 1},
     {(3, 1, 0, 0): 1, (2, 0, 1, 0): -1, (1, 1, 0, 0): -1, (0, 0, 1, 0): 1}),
    ({(0, 0, 0, 0): 1}, {(1, 1, 0, 0): 1, (0, 0, 1, 0): -1}),
    ({(1, 1, 0, 0): 1, (0, 0, 1, 0): 1}, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}),
    ({(1, 0, 1, 0): 1, (0, 0, 0, 1): -1}, {(1, 1, 0, 0): 1, (0, 0, 1, 0): 1}),
))

# p1*q + p2 and q + 2: a gcd outside the closed basis c*(q - 1)^i*(q + 1)^j,
# which only the PRS answers
P1Q_PLUS_P2 = {(1, 1, 0, 0): 1, (0, 0, 1, 0): 1}
Q_PLUS_2 = {(1, 0, 0, 0): 1, (0, 0, 0, 0): 2}


def _rational_function(num_terms, den_terms, num_factor, den_factor, mono):
    """mono * (num * factor) / (den * factor) for two Laurent dicts, reduced
    by the full gcd of sc._reduce, so no operation under test builds the
    operands."""
    shift = tuple(-min(0, mono[v], *(m[v] for m in num_terms),
                       *(m[v] for m in den_terms)) for v in range(sc.NVARS))
    num = {sc._mono_mul(sc._mono_mul(m, mono), shift): Fraction(c)
           for m, c in num_terms.items()}
    den = {sc._mono_mul(m, shift): Fraction(c) for m, c in den_terms.items()}
    return sc.QScalar(sc._p_mul(num, num_factor), sc._p_mul(den, den_factor))


# The Laurent dicts are in q alone and the p_i enter through a monomial.
# That is a choice of shape, not a limit of the gcd: the subresultant PRS
# also takes the full-product reference reduction of random 4-variable
# sums (60 seeded ones in under 0.2 s each).  Factors of the p_i*q + p_j
# kind are covered by the fixed P_FACTOR_SCALARS instead.
nonzero_fractions = small_fractions.filter(bool)
q_exponents = st.tuples(st.integers(min_value=-2, max_value=2),
                        st.just(0), st.just(0), st.just(0))
maybe_factor = st.sampled_from(DENOMINATOR_FACTORS + (sc._ONE_POLY,))
rational_functions = st.builds(
    _rational_function,
    st.dictionaries(q_exponents, nonzero_fractions, max_size=3),
    st.dictionaries(q_exponents, nonzero_fractions, min_size=1, max_size=3),
    maybe_factor, maybe_factor, small_exponents)


def assert_canonical(z):
    """The storage invariants of the integer canonical form."""
    n, d = z._fraction()
    for poly in (n, d):
        assert all(type(c) is int for c in poly.values())
    assert sc._p_gcd(n, d) == sc._ONE_POLY
    assert math.gcd(*n.values(), *d.values()) == 1
    assert d[max(d)] > 0
    assert sc.QScalar(dict(z.num), dict(z.den)) == z


def substitute_monomial(x, var, exps):
    """x with a variable replaced by a Laurent monomial, e.g. p3 -> p2^-1."""
    v = sc.VAR_NAMES.index(var)

    def sub(poly):
        out = {}
        for mono, c in poly.items():
            base = mono[:v] + (0,) + mono[v + 1:]
            tgt = tuple(b + mono[v] * e for b, e in zip(base, exps))
            out[tgt] = out.get(tgt, 0) + c
        return out

    den = sc.QScalar(sub(x.den))
    if not den:
        raise sc.PoleError("substitution sends the denominator to zero")
    return sc.QScalar(sub(x.num)) / den


def _build_monomial(raising, lowering, pick_raise, k, i1, j1, i2, j2,
                    eps, al, be, de):
    m, l = (raising, 0) if pick_raise else (0, lowering)
    return WMonomial(m, k, l, i1, j1, i2, j2, eps, al, be, de)


bit = st.integers(min_value=0, max_value=1)
wmonomials = st.builds(
    _build_monomial,
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
    st.booleans(), st.integers(min_value=-2, max_value=2),
    bit, bit, bit, bit, bit,
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2),
    bit)


def record_check_matrices(mp):
    """Patch mp, a pytest.MonkeyPatch, so that the relation checks record
    into the lists (relations, mats) it returns: the relations handed to
    check_relations, and every matrix handed on or made: each A_g handed to
    check_cleared, the generator matrices and the unit handed to
    check_relations, the operands of each fused step (_addmul and _iadd of
    QMatrix and of PackedRows) and a copy of the sum after it, and each
    residual."""
    relations, mats = [], []
    check, cleared_check = ua.check_relations, ua.check_cleared
    evaluate = ua.evaluate

    def clearing(rels, cleared, *args):
        mats.extend(a for _, a in cleared.values())
        return cleared_check(rels, cleared, *args)

    def checking(rels, gens, unit, cols=None):
        relations.extend(rels)
        mats.extend((*gens.values(), unit))
        return check(rels, gens, unit, cols)

    def copy(m):
        rows = {i: dict(r) for i, r in m.rows.items()}
        if isinstance(m, QMatrix):
            return m._like(rows)
        return PackedRows(m.nrows, m.ncols, rows)

    def evaluating(el, apply, start, addmul=None):
        mats.append(evaluate(el, apply, start, addmul))
        return mats[-1]

    for cls in (QMatrix, PackedRows):
        def multiplying(self, a, b, c=None, addmul=cls._addmul):
            mats.extend((a, b, copy(addmul(self, a, b, c))))
            return self

        def adding(self, other, c=None, iadd=cls._iadd):
            mats.extend((other, copy(iadd(self, other, c))))
            return self

        mp.setattr(cls, "_addmul", multiplying)
        mp.setattr(cls, "_iadd", adding)
    mp.setattr(ua, "check_cleared", clearing)
    mp.setattr(ua, "check_relations", checking)
    mp.setattr(ua, "evaluate", evaluating)
    return relations, mats


def assert_packed_laurent_check(mats, ngens):
    """The matrices of record_check_matrices for a cleared check on the
    Laurent ring: every one PackedRows with int coefficients, no QMatrix
    and no QScalar anywhere; the ngens A_g and the unit are the only ones
    built by PackedRows.from_entries (with their rows by column), each
    entry a nonzero Laurent over Z, and the rest are sums and products."""
    assert all(type(m) is PackedRows for m in mats)
    for m in mats:
        assert all(type(x) is int for row in m.rows.values()
                   for x in row.values())
    built = {id(m): m for m in mats if m._by_col is not None}
    assert len(built) == ngens + 1
    for m in built.values():
        entries = list(m.iter_entries())
        assert entries and all(type(v) is sc.Laurent and v
                               for _, _, v in entries)
        assert all(type(x) is int for row in m._by_col.values()
                   for _, terms in row for _, x in terms)
    # each A_g is recorded twice, by check_cleared and check_relations
    assert len(mats) > 2 * ngens + 1


# the rescaling probe: E12 and E13 times 2, E21 and E31 times 1/2.  Every
# defining relation still holds under it, in W and on the module, so only a
# check that ties the action to the induced module itself can see it
RESCALING_PROBE = {"E12": 2, "E13": 2,
                   "E21": sc.QScalar.from_rational(Fraction(1, 2)),
                   "E31": sc.QScalar.from_rational(Fraction(1, 2))}


def rescaled_branches(factors):
    """induced._branches with each branch of a generator g times
    factors[g]."""
    branches = ind._branches

    def rescaled(g, M):
        f = factors.get(g, 1)
        return [(dn, m, c * f, a, b, ks, w)
                for dn, m, c, a, b, ks, w in branches(g, M)]
    return rescaled


@pytest.fixture
def patch_branches(monkeypatch):
    """A setter of induced._branches for a table mutant.  The abstract
    images are module_image's, read off that table and cached by
    realization._images, so the cache is cleared at the patch and after
    the test: the mutant's images are built from the mutant, and no later
    test reads them."""
    def patch(branches):
        rz._images.cache_clear()
        monkeypatch.setattr(ind, "_branches", branches)
    yield patch
    rz._images.cache_clear()
