import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from qgl21 import induced as ind
from qgl21 import realization as rz
from qgl21 import superalgebra as ua
from qgl21.parsing import parse_w
from conftest import (
    P1Q_PLUS_P2, P_FACTOR_SCALARS, Q_PLUS_2, _rational_function,
    assert_canonical, nonzero_qscalars, qscalars, rational_functions,
    substitute_monomial,
)

Q, QINV, ONE, ZERO = sc.Q, sc.QINV, sc.ONE, sc.ZERO
NORMAL_ORDER_GOLDEN = Path(__file__).parent / "data" / "normal_order_golden.json"


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
    xn, xd = x._fraction()
    assert xn == {sc._mono_div(m, q2): int(4 * c) for m, c in num.items()}
    assert xd == {sc._mono_div(m, q2): int(4 * c) for m, c in den.items()}
    assert sc._p_gcd(xn, xd) == sc._ONE_POLY
    assert x * sc.q_power(2) == sc.QScalar(num, {sc._mono_div(m, q2): c
                                                 for m, c in den.items()})


def _assert_results_canonical(x, y):
    results = [x + y, x - y, x * y]
    if y:
        results.append(x / y)
    if x:
        results.append(x.invert())
    for z in results:
        assert_canonical(z)


@settings(max_examples=100, deadline=None)
@given(qscalars, qscalars)
def test_storage_invariants_on_laurent_scalars(x, y):
    _assert_results_canonical(x, y)


# x = p3^-1 and y = 1 + q^-1, whose Laurent input once stayed stored with a
# negative exponent (numerator {1, q^-1}, denominator 1), so y != 1 + QINV
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
    assert y._fraction() == ({(1, 0, 2, 0): 2, (0, 0, 2, 0): 1},
                             {(1, 0, 0, 0): 2})


@pytest.mark.parametrize("x, y", itertools.product(P_FACTOR_SCALARS,
                                                   repeat=2))
def test_storage_invariants_on_p_factors(x, y):
    _assert_results_canonical(x, y)


# -- the closed denominator basis c * (q - 1)^i * (q + 1)^j ---------------------

def _count_prem_calls(monkeypatch):
    """A list that grows by one at every pseudo-remainder the PRS takes."""
    calls = []
    prem = sc._p_prem

    def counting(*args):
        calls.append(None)
        return prem(*args)

    monkeypatch.setattr(sc, "_p_prem", counting)
    return calls


def _module_route():
    for gl11 in (ind.trivial_gl11_rep(), ind.fermionic_gl11_rep()):
        ind.check_relations_on_module(ind.highest_weight_a0rep(gl11), 6)


# every denominator these routes build is a product of q, q - 1, q + 1 and
# the p_i, so each gcd is answered by synthetic division by q -+ 1
CLOSED_BASIS_ROUTES = {
    "fock symbolic": lambda: rz.check_relations_on_fock("fermionic", 8),
    "fock numeric": lambda: rz.check_relations_on_fock(
        "fermionic", 8, rz.DEFAULT_ASSIGNMENT),
    "induced module": _module_route,
    "realization": lambda: [rz.verify_realization(mode) for mode in
                            ("abstract", "trivial", "fermionic")],
    "straightening": lambda: ua.check_straightening_identities(6),
    "dyson": lambda: rz.dyson_check(6),
}


@pytest.mark.parametrize("route", sorted(CLOSED_BASIS_ROUTES))
def test_closed_basis_routes_never_reach_the_prs(route, monkeypatch):
    calls = _count_prem_calls(monkeypatch)
    CLOSED_BASIS_ROUTES[route]()
    assert not calls


# parser input whose denominators, q*p1 + 1 and 2*p1 + 4*q, lie outside the
# closed basis
GOLDEN_OUTSIDE_CLOSED_BASIS = {
    "(p1 - 1)/(q*p1 + 1)*a + (p1 - 1)/(q*p1 + 1)*t + 2/(q*p1 + 1)",
    "(3*q + 6)/(2*p1 + 4*q)",
}


def test_golden_normal_orders_reach_the_prs_only_outside_the_basis(
        monkeypatch):
    calls = _count_prem_calls(monkeypatch)
    reached = set()
    for expr, _expected in json.loads(NORMAL_ORDER_GOLDEN.read_text()):
        del calls[:]
        parse_w(expr)
        if calls:
            reached.add(expr)
    assert reached <= GOLDEN_OUTSIDE_CLOSED_BASIS


def test_gcd_outside_the_closed_basis_falls_back_to_the_prs(monkeypatch):
    calls = _count_prem_calls(monkeypatch)
    product = sc._p_mul(P1Q_PLUS_P2, Q_PLUS_2)
    for a in (P1Q_PLUS_P2, sc._p_neg(P1Q_PLUS_P2)):
        assert sc._p_gcd(a, product) == P1Q_PLUS_P2
        assert sc._p_gcd(product, a) == P1Q_PLUS_P2
    assert calls


# -- exponents are integers -------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: sc.q_power(1.5),
    lambda: sc.q_power(1.0),
    lambda: sc.p_power(2, Fraction(1, 2)),
    lambda: sc.monomial(1, 0, 0.5),
    lambda: sc.QScalar({(1.5, 0, 0, 0): 1}),
    lambda: sc.QScalar({(0, 0, 0, 0): 1}, {(0, 0, 0, 2.5): 1}),
])
def test_constructors_reject_a_non_integer_exponent(build):
    with pytest.raises(ValueError, match="not all integers"):
        build()


@pytest.mark.parametrize("build, named", [
    (lambda: sc.QScalar({(1, 0, 0): 1}), "(1, 0, 0)"),
    (lambda: sc.QScalar({(1, 0, 0, 0, 0): 1}), "(1, 0, 0, 0, 0)"),
    (lambda: sc.QScalar({1: 1}), "exponent vector 1 "),
    (lambda: sc.QScalar(sc._ONE_POLY, {(0, 2): 1}), "(0, 2)"),
    (lambda: sc.q_integer(1.5), "1.5"),
    (lambda: sc.q_integer(1.0), "1.0"),
])
def test_constructors_refuse_an_exponent_vector_that_is_not_four_ints(
        build, named):
    # unchecked, a short vector indexes past its end on first use, a
    # long one renders as q yet is != Q, and a bare int key or a float n
    # gives a stray TypeError
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_power_refuses_a_negative_exponent():
    # -1 >> 1 == -1: square and multiply on a negative n would never end
    with pytest.raises(ValueError, match="-1"):
        sc.power(Q, -1, ONE)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_p_power_rejects_an_index_outside_one_to_three(i):
    with pytest.raises(ValueError, match="index"):
        sc.p_power(i, 1)


def test_p_power_builds_through_monomial():
    assert sc.p_power(3, -2) == sc.monomial(1, 0, 0, 0, -2) == sc.P3 ** -2
    assert sc.q_power(1) is sc.Q


# -- the one coefficient rule -------------------------------------------------------

@pytest.mark.parametrize("op", [
    lambda: 2.5 - Q, lambda: 2.5 / Q, lambda: 2.5 + Q, lambda: 2.5 * Q,
    lambda: Q - 2.5, lambda: Q / 2.5, lambda: "1" - Q, lambda: "1" / ZERO,
])
def test_an_operand_that_is_not_a_scalar_is_unsupported(op):
    with pytest.raises(TypeError, match="unsupported operand type"):
        op()


def test_ints_and_fractions_are_scalars_on_either_side():
    assert 2 - Q == -(Q - 2)
    assert Fraction(1, 2) - Q == sc.QScalar.from_rational(Fraction(1, 2)) - Q
    assert 3 / Q == 3 * QINV
    assert Fraction(3, 2) / Q == sc.monomial(Fraction(3, 2), -1)


@pytest.mark.parametrize("build", [
    lambda: sc.QScalar({(0, 0, 0, 0): 2.5}),
    lambda: sc.QScalar({(0, 0, 0, 0): 1}, {(1, 0, 0, 0): 2.5}),
    lambda: sc.QScalar({(1, 0, 0, 0): 2.5}),
    lambda: sc.QScalar({(1, 0, 0, 0): "1/2"}),
    lambda: sc.monomial(0.1, 1),
])
def test_the_constructor_rejects_a_coefficient_that_is_not_rational(build):
    with pytest.raises(TypeError, match="coefficient .* is not an int or a "
                                        "Fraction"):
        build()


def test_int_and_fraction_coefficients_build_the_same_scalar():
    assert sc.monomial(2, 1) == sc.monomial(Fraction(2), 1) == 2 * Q
    assert sc.QScalar({(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}) \
        == sc.QScalar({(1, 0, 0, 0): Fraction(2, 2), (0, 0, 0, 0): 1}) == Q + 1


# -- clear_denominators and the Laurent entries of the symbolic Fock check ------

def test_clear_denominators_multiplies_by_the_lcm_in_the_closed_basis():
    values = [sc.EPS_INV / 6, sc.P1 / (Q + 1) ** 2,
              sc.QScalar.from_rational(Fraction(3, 4)), QINV ** 3, ZERO]
    d, cleared = sc.clear_denominators(values)
    # the monomial q^-3 stays in the negative exponents, not in d
    assert d == 12 * (Q - 1) * (Q + 1) ** 2
    assert_canonical(d)
    for x, c in zip(values, cleared):
        assert type(c) is sc.Laurent
        assert sc.QScalar(c.monomials()) == x * d
    assert cleared[-1].terms == {} and not cleared[-1]
    assert sc.clear_denominators([]) == (ONE, [])


@settings(max_examples=50, deadline=None)
@given(qscalars, qscalars, st.integers(0, 3), st.integers(1, 6))
def test_laurent_arithmetic_matches_qscalar_arithmetic(x, y, i, k):
    x = x * sc.EPS_INV ** i / k
    d, (a, b) = sc.clear_denominators([x, y])
    for got, want in ((a + b, (x + y) * d), (a - b, (x - y) * d),
                      (-a, -x * d), (a * b, x * y * d * d)):
        assert type(got) is sc.Laurent
        assert sc.QScalar(got.monomials()) == want
        assert bool(got) == bool(want)


def test_laurent_compares_with_ints_by_value():
    one = sc.Laurent({(0, 0, 0, 0): 1})
    assert one == 1 and sc.Laurent({}) == 0
    assert sc.Laurent({(1, 0, 0, 0): 1}) != 1 and one != 2
    assert one == sc.Laurent({(0, 0, 0, 0): 1})


# -- the packed keys of the Laurent ring ----------------------------------------

LAURENT_TOP = 2 ** 30 - 1       # the largest exponent magnitude _pack takes


def _random_laurent(rng):
    """A Laurent of one to four terms, with exponents of either sign in
    every field, small or within a few steps of the bound, and signed
    coefficients of up to 40 digits."""
    def exponent():
        e = rng.choice((rng.randint(0, 3), LAURENT_TOP - rng.randint(0, 3)))
        return rng.choice((e, -e))

    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.choice((1, rng.randint(1, 10 ** 40)))
        terms[tuple(exponent() for _ in range(4))] = rng.choice((c, -c))
    return sc.Laurent(terms)


def _check_laurent_against_qscalar(seed):
    """Sums, differences and products of random Laurents, read through
    monomials(), are those of QScalar polynomials; so are sums and
    products that cancel to zero, and the product of 2^33 factors at the
    bound that the field width is chosen for."""
    rng = random.Random(seed)

    def value(x):
        return sc.QScalar(x.monomials())

    for _ in range(60):
        a, b = _random_laurent(rng), _random_laurent(rng)
        x, y = value(a), value(b)
        for got, want in ((a + b, x + y), (a - b, x - y), (-a, -x),
                          (a * b, x * y), (a - a, ZERO), (a + -a, ZERO),
                          ((a + b) * (a - b), x * x - y * y),
                          (a * (b - b), ZERO)):
            assert value(got) == want
            assert bool(got) == bool(want)
    top = (LAURENT_TOP, -LAURENT_TOP, LAURENT_TOP, -LAURENT_TOP)
    got = sc.power(sc.Laurent({top: -1}), 2 ** 33)
    assert value(got) == sc.QScalar({top: -1}) ** (2 ** 33)


@pytest.mark.parametrize("seed", range(5))
def test_laurent_arithmetic_on_packed_keys_matches_qscalar(seed):
    _check_laurent_against_qscalar(seed)


def test_a_field_one_bit_short_fails_the_packed_key_check(monkeypatch):
    # the product of 2^33 factors at the bound has exponents just below
    # 2^63; one bit less per field carries them into the next field
    monkeypatch.setattr(sc, "_FIELD", sc._FIELD - 1)
    with pytest.raises(AssertionError):
        _check_laurent_against_qscalar(0)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("sign", (1, -1))
def test_packed_keys_round_trip_up_to_the_bound(field, sign):
    def mono(e):
        return tuple(e if v == field else -LAURENT_TOP for v in range(4))

    top = mono(sign * LAURENT_TOP)
    assert sc.Laurent({top: 7}).monomials() == {top: 7}
    with pytest.raises(ValueError, match="bound 2\\^30"):
        sc.Laurent({mono(sign * 2 ** 30): 7})


@pytest.mark.parametrize("mono", [(1, 2), (0.5, 0, 0, 0), [0, 0, 0, 0]])
def test_packing_refuses_an_exponent_vector_that_is_not_four_ints(mono):
    with pytest.raises(ValueError, match="not four ints"):
        sc._pack(mono)


@pytest.mark.parametrize("outside", [
    sc.QScalar(sc._ONE_POLY, Q_PLUS_2), sc.QScalar(sc._ONE_POLY, P1Q_PLUS_P2)])
def test_clear_denominators_clears_a_factor_outside_the_basis(outside):
    # 1/(q + 2) and 1/(q*p1 + p2) have a factor F: d takes it beside
    # (q - 1)(q + 1), and each value is lifted by the F it lacks
    values = [sc.EPS_INV, outside]
    d, cleared = sc.clear_denominators(values)
    assert_canonical(d)
    assert d == (Q - 1) * (Q + 1) * outside.invert()
    for x, c in zip(values, cleared):
        assert sc.QScalar(c.monomials()) == x * d


def test_clear_denominators_takes_the_lcm_of_the_outside_factors():
    # F = q + 2 is shared, so d holds it once: (q + 2)(q*p1 + p2), not
    # (q + 2)^2 (q*p1 + p2)
    f, g = sc.QScalar(Q_PLUS_2), sc.QScalar(P1Q_PLUS_P2)
    values = [f.invert(), (f * g).invert(), sc.P1 / (3 * f)]
    d, cleared = sc.clear_denominators(values)
    assert d == 3 * f * g
    for x, c in zip(values, cleared):
        assert sc.QScalar(c.monomials()) == x * d
