"""The stored form of QScalar: a Laurent numerator over
c * (q - 1)^i * (q + 1)^j * F.  On the closed basis (F absent) * and + take
no gcd of polynomials; a denominator factor from outside it is cancelled
through _p_gcd, and split when a numerator shares a proper divisor of it,
checked against sympy's cancel."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from qgl21 import induced as ind
from qgl21 import realization as rz
from qgl21.parsing import parse_scalar
from conftest import assert_canonical

sympy = pytest.importorskip("sympy")

SYMBOLS = sympy.symbols(sc.VAR_NAMES)


def _no_gcd(*args):
    raise AssertionError("a polynomial gcd was taken on the closed basis")


def _closed_scalar(terms, content, i, j, a, b):
    """terms * (q - 1)^a * (q + 1)^b / (content * (q - 1)^i * (q + 1)^j),
    terms a Laurent dict, reduced by the public constructor."""
    num = sc._p_mul(terms, sc._closed_poly(a, b))
    den = {m: content * k for m, k in sc._closed_poly(i, j).items()}
    return sc.QScalar(num, den)


powers = st.integers(min_value=0, max_value=3)
closed_scalars = st.builds(
    _closed_scalar,
    st.dictionaries(
        st.tuples(st.integers(min_value=-2, max_value=3),
                  *(st.integers(min_value=-1, max_value=1),) * 3),
        st.integers(min_value=-6, max_value=6).filter(bool),
        min_size=1, max_size=4),
    st.integers(min_value=-12, max_value=12).filter(bool),
    powers, powers, powers, powers)


@settings(max_examples=150, deadline=None)
@given(closed_scalars, closed_scalars)
def test_closed_basis_products_and_sums_take_no_gcd(x, y):
    with mock.patch.object(sc, "_p_gcd", _no_gcd), \
            mock.patch.object(sc, "_p_prem", _no_gcd):
        results = {"mul": x * y, "add": x + y, "sub": x - y}
    (xn, xd), (yn, yd) = x._fraction(), y._fraction()
    assert results["mul"] == sc.QScalar(sc._p_mul(xn, yn), sc._p_mul(xd, yd))
    cross = (sc._p_mul(xn, yd), sc._p_mul(yn, xd))
    assert results["add"] == sc.QScalar(sc._p_add(*cross), sc._p_mul(xd, yd))
    for z in results.values():
        assert z._F is None
        assert_canonical(z)


CLOSED_BASIS_ROUTES = {
    "fock": lambda reps: rz.check_relations_on_fock("fermionic", 8),
    "module": lambda reps: [ind.check_relations_on_module(rep, 6)
                            for rep in reps],
}


@pytest.mark.parametrize("route", sorted(CLOSED_BASIS_ROUTES))
def test_closed_basis_routes_take_no_gcd(route, monkeypatch):
    # the images and representations are built first
    rz.realization_map("fermionic")
    reps = [ind.highest_weight_a0rep(gl11)
            for gl11 in (ind.trivial_gl11_rep(), ind.fermionic_gl11_rep())]
    calls = []
    p_gcd = sc._p_gcd

    def counting(a, b):
        calls.append(None)
        return p_gcd(a, b)

    monkeypatch.setattr(sc, "_p_gcd", counting)
    CLOSED_BASIS_ROUTES[route](reps)
    assert not calls


# -- a factor from outside the closed basis --------------------------------------

def to_sympy(x):
    def poly(terms):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** e for s, e in zip(SYMBOLS, m)))
                    for m, c in terms.items()), sympy.Integer(0))
    return poly(x.num) / poly(x.den)


def _agrees(got, expected):
    """got is canonical and equals the sympy expression, which sympy's
    cancel brings to the same numerator and denominator up to a constant."""
    assert_canonical(got)
    assert sympy.cancel(to_sympy(got) - expected) == 0
    n, d = sympy.fraction(sympy.cancel(to_sympy(got)))
    en, ed = sympy.fraction(sympy.cancel(expected))
    assert sympy.cancel(n * ed / (d * en)).is_number


def test_numerator_sharing_a_proper_divisor_splits_the_factor():
    # F = (q + 2)*(q*p1 + 1) is stored as one factor; the numerator q + 2
    # shares a proper divisor of it
    x = parse_scalar("1/((q + 2)*(q*p1 + 1))")
    y = parse_scalar("q + 2")
    assert x._F == sc._p_mul({(1, 0, 0, 0): 1, (0, 0, 0, 0): 2},
                             {(1, 1, 0, 0): 1, (0, 0, 0, 0): 1})
    z = x * y
    assert z.render() == "1/(q*p1 + 1)"
    assert z._F == {(1, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    q, p1 = SYMBOLS[:2]
    _agrees(z, 1 / ((q + 2) * (q * p1 + 1)) * (q + 2))


def test_closed_factors_split_off_the_denominator():
    q = SYMBOLS[0]
    x = parse_scalar("1/(q^2 - 1)")
    assert (x._c, x._i, x._j, x._F) == (1, 1, 1, None)
    _agrees(x, 1 / (q ** 2 - 1))
    y = parse_scalar("(q^2 + 1)/(q^4 - 1)")
    assert (y._i, y._j, y._F) == (1, 1, None)
    assert y == x
    _agrees(y, (q ** 2 + 1) / (q ** 4 - 1))
    # the factor q^2 + 1 joins the basis, and cancels against a numerator
    z = parse_scalar("1/(q^4 - 1)")
    assert (z._i, z._j, z._F) == (1, 1, {(2, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    assert z * parse_scalar("q^2 + 1") == x


CLOSED_PARTNERS = ("q - q^-1", "1/(q - q^-1)", "1/(q + 1)", "q/(q - 1)^2",
                   "2/(3*q^2 - 3)", "p1/(q + 1)", "3")


@pytest.mark.parametrize("text", CLOSED_PARTNERS)
def test_outside_factor_in_sums_with_the_closed_basis(text):
    outside = parse_scalar("1/(q*p2 + p3)")
    closed = parse_scalar(text)
    expected = to_sympy(outside) + to_sympy(closed)
    total = outside + closed
    _agrees(total, expected)
    _agrees(closed + outside, expected)
    _agrees(total + outside, expected + to_sympy(outside))
    _agrees(total * outside, expected * to_sympy(outside))
    # taking the outside factor back out leaves the closed basis
    back = total - outside
    assert back == closed
    assert back._F is None
    assert (total - closed)._F == {(1, 0, 1, 0): 1, (0, 0, 0, 1): 1}


def test_negative_exponents_do_not_collide_in_hash():
    # CPython hashes -1 like -2; the Laurent numerators of q^-1 and q^-2
    # must still hash apart
    values = [sc.q_power(e) * p for e in range(-4, 5)
              for p in (sc.ONE, sc.P1, sc.P2.invert(), sc.EPS_INV)]
    assert len({hash(x) for x in values}) == len(values)
