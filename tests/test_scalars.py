import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from conftest import (
    P_FACTOR_SCALARS, _rational_function, nonzero_qscalars, qscalars,
    rational_functions, substitute_monomial,
)

Q, QINV, ONE, ZERO = sc.Q, sc.QINV, sc.ONE, sc.ZERO


def test_additive_identity():
    x = sc.q_integer(3) * sc.P1
    assert x + ZERO == x
    assert ZERO + x == x


def test_addition_cancels_like_monomials():
    assert (Q + QINV) + (-QINV) == Q


def test_addition_collects_like_terms():
    half = sc.EPS_INV
    assert half + half == 2 * sc.EPS_INV


def test_multiplicative_identity():
    x = sc.q_integer(5) / sc.P2
    assert x * ONE == x


def test_inverse_pair():
    assert sc.EPS * sc.EPS_INV == ONE


def test_product_expansion_matches_distributivity():
    # expand (q + q^-1)(q - q^-1) term by term as the oracle
    terms = {}
    for (ea, ca) in (((1,), 1), ((-1,), 1)):
        for (eb, cb) in (((1,), 1), ((-1,), -1)):
            key = ea[0] + eb[0]
            terms[key] = terms.get(key, 0) + ca * cb
    expected = sum((sc.monomial(c, eq=e) for e, c in terms.items() if c),
                   ZERO)
    assert (Q + QINV) * (Q - QINV) == expected
    assert expected == sc.monomial(1, 2) - sc.monomial(1, -2)


def test_invert_basics():
    assert ONE.invert() == ONE
    assert Q.invert() == QINV
    x = (sc.monomial(1, 2) - sc.monomial(1, -2)) / sc.EPS
    assert x.invert() * x == ONE
    assert x.invert() == (Q + QINV).invert()


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()


def test_q_integer_small_values():
    assert sc.q_integer(0) == ZERO
    assert sc.q_integer(1) == ONE
    # long division of q^3 - q^-3 by q - q^-1 leaves q^2 + 1 + q^-2
    assert sc.q_integer(3) == sc.monomial(1, 2) + ONE + sc.monomial(1, -2)
    assert sc.q_integer(3) * sc.EPS == sc.monomial(1, 3) - sc.monomial(1, -3)


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("n", range(9))
def test_q_integer_splitting(m, n):
    lhs = sc.q_integer(m + n)
    rhs = sc.q_integer(m) * sc.q_power(n) + sc.q_power(-m) * sc.q_integer(n)
    assert lhs == rhs


@pytest.mark.parametrize("n", range(-8, 9))
def test_q_integer_defining_fraction(n):
    assert sc.q_integer(n) * sc.EPS == sc.q_power(n) - sc.q_power(-n)
    assert sc.q_integer(-n) == -sc.q_integer(n)


def test_evaluate_q_integer():
    assert sc.q_integer(2).evaluate(q=2) == Fraction(5, 2)
    assert ONE.evaluate() == 1


def test_evaluate_canonicalizes_before_substituting():
    # the raw fraction (q^4 - q^-4)/(q - q^-1) is 0/0 at q = 1, but the
    # canonical polynomial form evaluates to 4
    num = sc.q_power(4) - sc.q_power(-4)
    den = sc.EPS
    assert num.evaluate(q=1) == 0
    assert den.evaluate(q=1) == 0
    assert (num / den).evaluate(q=1) == 4
    assert (num / den) == sc.q_integer(4)


def test_evaluate_pole_signal():
    with pytest.raises(sc.PoleError):
        sc.EPS_INV.evaluate(q=1)


def test_evaluate_requires_assigned_variables():
    with pytest.raises(ValueError):
        (sc.P1 * Q).evaluate(q=2)


def test_variables():
    assert (sc.P1 * Q).variables() == {"q", "p1"}
    assert sc.EPS_INV.variables() == {"q"}
    assert ONE.variables() == set()


def test_substitute_monomial():
    x = sc.P3 * sc.P2 + sc.P3.invert()
    y = substitute_monomial(x, "p3", (0, 0, -1, 0))
    assert y == ONE + sc.P2


def test_render_laurent_form():
    assert str(sc.q_integer(3)) == "q^2 + 1 + q^-2"
    assert str(QINV) == "q^-1"
    assert str(ZERO) == "0"
    assert str(sc.QScalar.from_rational(Fraction(-3, 2))) == "-3/2"


@settings(max_examples=150)
@given(qscalars, qscalars, qscalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(nonzero_qscalars)
def test_multiplicative_inverse(a):
    assert a * a.invert() == ONE


@settings(max_examples=100)
@given(qscalars)
def test_canonical_form_idempotent(a):
    again = sc.QScalar(dict(a.num), dict(a.den))
    assert again == a
    assert hash(again) == hash(a)


@settings(max_examples=100)
@given(qscalars, qscalars)
def test_subtraction_is_inverse_of_addition(a, b):
    assert (a + b) - b == a


def _assert_matches_full_reduction(x, y):
    """x*y, x+y and x-y equal, dict for dict, the canonical forms that the
    full reduction sc._reduce gives for the unreduced full products."""
    cross = (sc._p_mul(x.num, y.den), sc._p_mul(y.num, x.den))
    den = sc._p_mul(x.den, y.den)
    naive = {
        "mul": sc.QScalar(sc._p_mul(x.num, y.num), den),
        "add": sc.QScalar(sc._p_add(*cross), den),
        "sub": sc.QScalar(sc._p_add(cross[0], sc._p_neg(cross[1])), den),
    }
    for op, got in (("mul", x * y), ("add", x + y), ("sub", x - y)):
        assert (got.num, got.den) == (naive[op].num, naive[op].den), op


@settings(max_examples=150, deadline=None)
@given(rational_functions, rational_functions)
def test_cross_cancellation_matches_full_reduction(x, y):
    _assert_matches_full_reduction(x, y)


@pytest.mark.parametrize("x, y", itertools.product(P_FACTOR_SCALARS,
                                                   repeat=2))
def test_cross_cancellation_matches_full_reduction_on_p_factors(x, y):
    _assert_matches_full_reduction(x, y)


@given(st.one_of(st.integers(), st.fractions()))
def test_constant_hash_agrees_with_rational(c):
    assert hash(sc.QScalar.from_rational(c)) == hash(c)


def test_constant_and_rational_are_one_dict_key():
    assert len({ONE: 0, 1: 1}) == 1
    assert len({ZERO: 0, 0: 1, Fraction(0): 2}) == 1
    half = Fraction(1, 2)
    assert {sc.EPS * sc.EPS_INV / 2: "x"}[half] == "x"


def test_multivariate_gcd_strips_integer_content():
    """Rational coefficients in two or more variables once grew without bound
    in the primitive PRS; over Z this pair reduces at once, and the only
    common factor is q^2."""
    num = {(6, 1, 0, 4): Fraction(3, 4), (5, 1, 0, 4): Fraction(3, 4),
           (5, 1, 0, 2): Fraction(3, 2), (4, 1, 0, 2): Fraction(1, 2),
           (3, 1, 0, 2): -1, (3, 1, 0, 0): -2, (2, 1, 0, 0): -2}
    den = {(7, 0, 1, 3): 1, (6, 1, 1, 2): Fraction(1, 2),
           (5, 1, 2, 3): -1, (4, 2, 2, 2): Fraction(-1, 2)}
    x = sc.QScalar(num, den)
    q2 = (2, 0, 0, 0)
    # num and den over Z are 4*num and 4*den, jointly primitive
    assert x._n == {sc._mono_div(m, q2): int(4 * c) for m, c in num.items()}
    assert x._d == {sc._mono_div(m, q2): int(4 * c) for m, c in den.items()}
    assert sc._p_gcd(x._n, x._d) == sc._ONE_POLY
    assert x * sc.q_power(2) == sc.QScalar(num, {sc._mono_div(m, q2): c
                                                 for m, c in den.items()})


def _assert_canonical(z):
    """The storage invariants of the integer canonical form."""
    for poly in (z._n, z._d):
        assert all(type(c) is int for c in poly.values())
    assert sc._p_gcd(z._n, z._d) == sc._ONE_POLY
    assert math.gcd(*z._n.values(), *z._d.values()) == 1
    assert z._d[max(z._d)] > 0
    assert sc.QScalar(dict(z.num), dict(z.den)) == z


def _assert_results_canonical(x, y):
    results = [x + y, x - y, x * y]
    if y:
        results.append(x / y)
    if x:
        results.append(x.invert())
    for z in results:
        _assert_canonical(z)


@settings(max_examples=100, deadline=None)
@given(qscalars, qscalars)
def test_storage_invariants_on_laurent_scalars(x, y):
    _assert_results_canonical(x, y)


# x = p3^-1 and y = 1 + q^-1, whose Laurent input once stayed stored with a
# negative exponent (_n = {1, q^-1}, _d = 1), so y != 1 + QINV
@settings(max_examples=100, deadline=None)
@given(rational_functions, rational_functions)
@example(_rational_function({(0, 0, 0, 0): 1}, {(0, 0, 0, 0): 1},
                            sc._ONE_POLY, sc._ONE_POLY, (0, 0, 0, -1)),
         _rational_function({(-1, 0, 0, 0): 1, (0, 0, 0, 0): 1},
                            {(-1, 0, 0, 0): 1},
                            sc._ONE_POLY, sc._ONE_POLY, (-1, 0, 0, 0)))
def test_storage_invariants_on_rational_functions(x, y):
    _assert_results_canonical(x, y)


def test_constructor_drops_zero_coefficients():
    assert sc.QScalar({(1, 0, 0, 0): 0, (0, 0, 0, 0): 1}) == ONE
    assert not sc.QScalar({(1, 0, 0, 0): Fraction(0)})
    assert sc.QScalar({(1, 0, 0, 0): 1}, {(0, 0, 0, 0): 1, (2, 0, 0, 0): 0}) == Q
    with pytest.raises(ZeroDivisionError):
        sc.QScalar({(0, 0, 0, 0): 1}, {(1, 0, 0, 0): 0})


def test_constructor_clears_negative_exponents():
    assert sc.QScalar({(-1, 0, 0, 0): 1}) == QINV
    y = sc.QScalar({(-1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0): 1},
                   {(0, 0, -2, 0): 1})
    assert y == (ONE + QINV / 2) * sc.P2 ** 2
    assert y._n == {(1, 0, 2, 0): 2, (0, 0, 2, 0): 1}
    assert y._d == {(1, 0, 0, 0): 2}


@pytest.mark.parametrize("x, y", itertools.product(P_FACTOR_SCALARS,
                                                   repeat=2))
def test_storage_invariants_on_p_factors(x, y):
    _assert_results_canonical(x, y)
