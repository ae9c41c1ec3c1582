"""Differential oracle for the scalar field: every QScalar operation is
checked against sympy's rational-function arithmetic, comparing values and
zero tests (not rendered forms).  The oracle computes in sympy's sparse
field QQ(q, p1, p2, p3), whose elements are kept in lowest terms, so a
value comparison is a comparison of canonical forms."""

import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from qgl21.parsing import parse_scalar
from conftest import (
    P1Q_PLUS_P2, P_FACTOR_SCALARS, Q_PLUS_2, assert_canonical,
    rational_functions,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.fields import field  # noqa: E402

SYMBOLS = sympy.symbols(sc.VAR_NAMES)
FIELD = field(sc.VAR_NAMES, sympy.QQ)[0]
OPS = (operator.add, operator.sub, operator.mul)


def _poly_to_field(poly):
    return FIELD(FIELD.ring.from_dict(
        {mono: sympy.QQ(c.numerator, c.denominator)
         for mono, c in poly.items()}))


def to_sympy(x):
    return _poly_to_field(x.num) / _poly_to_field(x.den)


def _agrees(got, expected):
    assert to_sympy(got) - expected == FIELD.zero
    assert bool(got) == (expected != FIELD.zero)


def _check_field_operations(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    for op in OPS:
        _agrees(op(x, y), op(sx, sy))
    if y:
        _agrees(x / y, sx / sy)


@settings(max_examples=40, deadline=None)
@given(rational_functions, rational_functions)
def test_field_operations_agree_with_sympy(x, y):
    _check_field_operations(x, y)


@pytest.mark.parametrize("x, y", itertools.product(P_FACTOR_SCALARS,
                                                   repeat=2))
def test_p_factor_operations_agree_with_sympy(x, y):
    _check_field_operations(x, y)


@settings(max_examples=40, deadline=None)
@given(rational_functions)
def test_self_cancellation_is_exact_zero(x):
    _agrees(x - x, FIELD.zero)
    _agrees(x + (-x), FIELD.zero)


# -- gcds with an argument c * (q - 1)^i * (q + 1)^j ----------------------------

Q_MINUS_1 = {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1}
Q_PLUS_1 = {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}


def _closed(c, i, j):
    """c * (q - 1)^i * (q + 1)^j as an integer polynomial dict."""
    out = {(0, 0, 0, 0): c}
    for factor in (Q_MINUS_1,) * i + (Q_PLUS_1,) * j:
        out = sc._p_mul(out, factor)
    return out


def _sympy_poly(poly):
    return sympy.Poly.from_dict(dict(poly), *SYMBOLS)


def _sympy_gcd(a, b):
    """gcd over ZZ with a positive lex-leading coefficient."""
    g = _sympy_poly(a).gcd(_sympy_poly(b))
    return -g if g.LC() < 0 else g


small_exponent = st.integers(min_value=0, max_value=2)
numerator_terms = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), small_exponent,
              small_exponent, small_exponent),
    st.integers(min_value=-5, max_value=5).filter(bool),
    min_size=1, max_size=4)
contents = st.integers(min_value=-6, max_value=6).filter(bool)
monomial_factors = st.tuples(small_exponent, small_exponent, small_exponent,
                             small_exponent)
factor_powers = st.integers(min_value=0, max_value=4)
denominator_scales = st.integers(min_value=-12, max_value=12).filter(bool)
denominator_powers = st.integers(min_value=0, max_value=6)


@settings(max_examples=60, deadline=None)
@given(numerator_terms, contents, monomial_factors, factor_powers,
       factor_powers, denominator_scales, denominator_powers,
       denominator_powers)
# i = j = 0: a constant denominator
@example({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, 3, (0, 0, 0, 0), 1, 0, 6, 0, 0)
# a negative scale c, and a monomial factor q*p2
@example({(1, 0, 0, 0): 2, (0, 0, 0, 0): -2}, -3, (1, 0, 1, 0), 0, 2, -4, 2, 1)
# q - 1 divides r*s five times, the denominator twice
@example({(1, 0, 0, 0): 1, (0, 0, 0, 0): -1}, 1, (0, 0, 0, 0), 4, 0, 2, 2, 0)
# r free of q
@example({(0, 1, 0, 0): 1, (0, 0, 2, 1): -3}, 2, (0, 0, 1, 0), 0, 0, 5, 3, 2)
# both arguments in the closed basis
@example({(0, 0, 0, 0): 1}, 4, (0, 0, 0, 0), 3, 1, 6, 1, 5)
def test_closed_basis_gcd_agrees_with_sympy(terms, content, mono, a, b,
                                            c, i, j):
    r = {sc._mono_mul(m, mono): content * k for m, k in terms.items()}
    s = _closed(1, a, b)
    num, den = sc._p_mul(r, s), _closed(c, i, j)
    expected = _sympy_gcd(num, den)
    for x, y in ((num, den), (den, num)):
        assert _sympy_poly(sc._p_gcd(x, y)) == expected
    got = sc.QScalar(num, den)
    # the same quotient through Henrici * and +
    s_scalar = (sc.Q - 1) ** a * (sc.Q + 1) ** b
    den_inv = (c * (sc.Q - 1) ** i * (sc.Q + 1) ** j).invert()
    product = sc.QScalar(r) * s_scalar * den_inv
    total = sum((sc.QScalar({m: k}) * s_scalar * den_inv
                 for m, k in r.items()), sc.ZERO)
    assert got == product == total
    for z in (got, product, total):
        assert_canonical(z)


def test_prs_fallback_agrees_with_sympy():
    product = sc._p_mul(P1Q_PLUS_P2, Q_PLUS_2)
    for a, b in ((P1Q_PLUS_P2, product), (product, sc._p_neg(P1Q_PLUS_P2))):
        assert _sympy_poly(sc._p_gcd(a, b)) == _sympy_gcd(a, b)


# -- the subresultant PRS on 4-variable input -----------------------------------

def test_prs_finishes_on_a_four_variable_pair():
    # 3*q^4*p3^2 - 9*q^3*p1^4 + 8*p1^2 and 32*q^4 + 27*q*p2 - 12*p1*p2^2*p3^2:
    # a primitive PRS (a content gcd at every step) gives no result in 60 s
    a = {(4, 0, 0, 2): 3, (3, 4, 0, 0): -9, (0, 2, 0, 0): 8}
    b = {(4, 0, 0, 0): 32, (1, 0, 1, 0): 27, (0, 1, 2, 2): -12}
    assert _sympy_gcd(a, b) == 1
    for x, y in ((a, b), (b, a)):
        assert sc._p_gcd(x, y) == sc._ONE_POLY


def test_product_with_a_four_variable_denominator_agrees_with_sympy():
    # y.invert() has the denominator factor
    # F = q^4 + 27/32*q*p2 - 3/8*p1*p2^2*p3^2, so the product takes a gcd
    # with F on 4-variable input
    x = parse_scalar("q^2*p1^-2*p2*p3^2 - 3*q*p1^2*p2 + 8/3*q^-2*p2")
    y = parse_scalar("8/3*q^2*p1^-1*p2^-2*p3^-1"
                     " + 9/4*q^-1*p1^-1*p2^-1*p3^-1 - q^-2*p3")
    z = x * y.invert()
    _agrees(z, to_sympy(x) / to_sympy(y))
    assert_canonical(z)


def _random_poly(rng, terms):
    return {tuple(rng.randint(0, 3) for _ in range(sc.NVARS)):
            rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(terms)}


def test_planted_common_factors_agree_with_sympy():
    rng = random.Random(20)
    for _ in range(100):
        f = _random_poly(rng, rng.randint(2, 3))
        u, w = (_random_poly(rng, rng.randint(1, 3)) for _ in range(2))
        a, b = sc._p_mul(f, u), sc._p_mul(f, w)
        assert _sympy_poly(sc._p_gcd(a, b)) == _sympy_gcd(a, b)
