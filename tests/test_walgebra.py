import itertools
import random

import pytest
from hypothesis import given, settings

import qgl21.scalars as sc
from conftest import random_element, random_monomial, wmonomials
from qgl21.walgebra import (
    GENERATOR_NAMES, UNIT, ParityError, SubstitutionError, WElement,
    generator, one, render_element, substitute_gl11, supercommutator, w_mul,
)

g = generator


def elem(mon, coeff=None):
    return WElement.from_monomial(mon, coeff)


def test_generator_inverse_pairs():
    assert w_mul(g("t"), g("tinv")) == one()
    assert w_mul(g("k2"), g("k2inv")) == one()
    assert w_mul(g("k3inv"), g("k3")) == one()


def test_generator_parities():
    assert g("b1+").parity() == 1
    assert g("e23").parity() == 1
    assert g("k2").parity() == 0
    assert g("a+").parity() == 0


# every W generator name in GENERATOR_NAMES order: (name, WMonomial field,
# exponent, rendering)
GENERATOR_TABLE = (
    ("a+", "m", 1, "a+"), ("a", "l", 1, "a"), ("t", "k", 1, "t"),
    ("tinv", "k", -1, "t^-1"), ("b1+", "i1", 1, "b+"), ("b1", "j1", 1, "b"),
    ("b2+", "i2", 1, "b2+"), ("b2", "j2", 1, "b2"), ("e32", "eps", 1, "e32"),
    ("k2", "al", 1, "k2"), ("k2inv", "al", -1, "k2^-1"),
    ("k3", "be", 1, "k3"), ("k3inv", "be", -1, "k3^-1"),
    ("e23", "de", 1, "e23"), ("b+", "i1", 1, "b+"), ("b", "j1", 1, "b"),
    ("t^-1", "k", -1, "t^-1"), ("k2^-1", "al", -1, "k2^-1"),
    ("k3^-1", "be", -1, "k3^-1"),
)


def test_generator_table():
    assert GENERATOR_NAMES == tuple(row[0] for row in GENERATOR_TABLE)
    for name, field, exp, text in GENERATOR_TABLE:
        assert g(name).terms == {UNIT._replace(**{field: exp}): sc.ONE}
        assert render_element(g(name)) == text


def test_unknown_generator():
    with pytest.raises(SubstitutionError):
        g("c+")


def test_boson_twin_relations():
    a, ap, t, tinv = g("a"), g("a+"), g("t"), g("tinv")
    assert w_mul(a, ap) - sc.QINV * w_mul(ap, a) == t
    assert w_mul(a, ap) - sc.Q * w_mul(ap, a) == tinv


def test_number_operator_contractions():
    a, ap, t, tinv = g("a"), g("a+"), g("t"), g("tinv")
    assert w_mul(ap, a) == (t - tinv).scale(sc.EPS_INV)
    assert w_mul(a, ap) == (sc.Q * t - sc.QINV * tinv).scale(sc.EPS_INV)


def test_t_moves_through_ladder_operators():
    assert w_mul(g("t"), g("a+")) == sc.Q * w_mul(g("a+"), g("t"))
    assert w_mul(g("t"), g("a")) == sc.QINV * w_mul(g("a"), g("t"))


def test_fermion_relations():
    for mode in ("", "2"):
        b, bp = g("b%s" % mode if mode else "b"), g("b%s+" % mode if mode else "b+")
        assert w_mul(b, b).is_zero()
        assert w_mul(bp, bp).is_zero()
        assert w_mul(b, bp) == one() - w_mul(bp, b)


def test_graded_sign_rules():
    # subalgebra elements pick up (-1)^deg when crossing fermions
    assert w_mul(g("e23"), g("b+")) == -w_mul(g("b+"), g("e23"))
    assert w_mul(g("e32"), g("b2")) == -w_mul(g("b2"), g("e32"))
    assert w_mul(g("k2"), g("b+")) == w_mul(g("b+"), g("k2"))
    # distinct fermion modes anticommute
    assert w_mul(g("b1+"), g("b2+")) + w_mul(g("b2+"), g("b1+")) == WElement.zero()


def test_gl11_internal_relations():
    e23, e32, k2, k3 = g("e23"), g("e32"), g("k2"), g("k3")
    assert w_mul(k2, e23) == sc.Q * w_mul(e23, k2)
    assert w_mul(k3, e23) == sc.QINV * w_mul(e23, k3)
    assert w_mul(k2, e32) == sc.QINV * w_mul(e32, k2)
    assert w_mul(k3, e32) == sc.Q * w_mul(e32, k3)
    assert w_mul(e23, e23).is_zero()
    assert w_mul(e32, e32).is_zero()
    cartan = (w_mul(k2, k3) - w_mul(g("k2inv"), g("k3inv"))).scale(sc.EPS_INV)
    assert w_mul(e23, e32) + w_mul(e32, e23) == cartan


def test_bosons_commute_with_everything_odd():
    for name in ("b+", "b2", "e23", "e32", "k2"):
        assert w_mul(g("a+"), g(name)) == w_mul(g(name), g("a+"))
        assert w_mul(g("a"), g(name)) == w_mul(g(name), g("a"))


def test_supercommutator_even_self_vanishes():
    x = g("a+") + g("k2")
    assert supercommutator(x, x).is_zero()


def test_supercommutator_is_anticommutator_for_odd():
    assert supercommutator(g("b1+"), g("b1")) == one()


def test_supercommutator_boson_with_gl11():
    assert supercommutator(g("a+"), g("k2")).is_zero()


def test_supercommutator_rejects_mixed_parity():
    mixed = g("a+") + g("b1")
    with pytest.raises(ParityError):
        supercommutator(mixed, g("a"))


def test_parity_of_mixed_elements_is_none():
    assert (g("a+") + g("b1")).parity() is None
    assert WElement.zero().parity() == 0


@settings(max_examples=200)
@given(wmonomials, wmonomials)
def test_parity_is_multiplicative(ma, mb):
    prod = w_mul(elem(ma), elem(mb))
    if prod.is_zero():
        return
    assert prod.parity() == (ma.parity + mb.parity) % 2


@settings(max_examples=300, deadline=None)
@given(wmonomials, wmonomials, wmonomials)
def test_associativity_on_monomials(ma, mb, mc):
    x, y, z = elem(ma), elem(mb), elem(mc)
    assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def test_associativity_seeded_batch():
    rng = random.Random(20240911)
    for _ in range(120):
        x = elem(random_monomial(rng))
        y = elem(random_monomial(rng))
        z = elem(random_monomial(rng))
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def _letters(m, k, l):
    return ["a+"] * m + ["t" if k > 0 else "tinv"] * abs(k) + ["a"] * l


def _fold(x, letters):
    for name in letters:
        x = w_mul(x, g(name))
    return x


@pytest.mark.parametrize("k1, k2", [(-1, 2), (1, -2), (0, 0)])
def test_boson_products_match_letter_by_letter_folds(k1, k2):
    # reference: y's letters multiplied onto x one at a time, so each step
    # contracts at most one a+ a pair
    for m1, l1, m2, l2 in itertools.product(range(4), repeat=4):
        x = _fold(one(), _letters(m1, k1, l1))
        y_letters = _letters(m2, k2, l2)
        assert w_mul(x, _fold(one(), y_letters)) == _fold(x, y_letters), \
            (m1, k1, l1, m2, k2, l2)


# -- gl(1/1) substitution ----------------------------------------------------

def test_trivial_substitution_values():
    assert substitute_gl11(g("e23"), "trivial").is_zero()
    assert substitute_gl11(g("e32"), "trivial").is_zero()
    assert substitute_gl11(g("k2"), "trivial") == WElement.from_scalar(sc.P2)
    assert substitute_gl11(g("k3"), "trivial") == \
        WElement.from_scalar(sc.P2.invert())


def test_fermionic_substitution_values():
    b2p_b2 = w_mul(g("b2+"), g("b2"))
    assert substitute_gl11(g("k2"), "fermionic") == \
        sc.P2 * (one() + (sc.Q - sc.ONE) * b2p_b2)
    assert substitute_gl11(g("k3"), "fermionic") == \
        sc.P3 * (one() + (sc.QINV - sc.ONE) * b2p_b2)
    assert substitute_gl11(g("e23"), "fermionic") == g("b2+")
    lam = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV
    assert substitute_gl11(g("e32"), "fermionic") == lam * g("b2")


def test_fermionic_substitution_reproduces_cartan_anticommutator():
    x = w_mul(g("e23"), g("e32")) + w_mul(g("e32"), g("e23"))
    image = substitute_gl11(x, "fermionic")
    # oracle: direct expansion of b2+ ([l2+l3] b2) + ([l2+l3] b2) b2+
    lam = (sc.P2 * sc.P3 - (sc.P2 * sc.P3).invert()) * sc.EPS_INV
    direct = lam * (w_mul(g("b2+"), g("b2")) + w_mul(g("b2"), g("b2+")))
    assert image == direct
    assert image == WElement.from_scalar(lam)


def test_substitution_inverse_images():
    for mode in ("trivial", "fermionic"):
        for name in ("k2", "k3"):
            prod = w_mul(substitute_gl11(g(name), mode),
                         substitute_gl11(g(name + "inv"), mode))
            assert prod == one()


def test_fermionic_substitution_rejects_occupied_mode2():
    x = w_mul(g("b2+"), g("k2"))
    with pytest.raises(SubstitutionError):
        substitute_gl11(x, "fermionic")


def test_unknown_realization_rejected():
    with pytest.raises(SubstitutionError):
        substitute_gl11(g("k2"), "adjoint")


@pytest.mark.parametrize("mode", ["trivial", "fermionic"])
def test_substitution_is_a_morphism(mode):
    rng = random.Random(77)
    mode2 = mode == "trivial"   # fermionic images need empty mode-2 slots
    for _ in range(200):
        x = random_element(rng, mode2=mode2)
        y = random_element(rng, mode2=mode2)
        lhs = substitute_gl11(w_mul(x, y), mode)
        rhs = w_mul(substitute_gl11(x, mode), substitute_gl11(y, mode))
        assert lhs == rhs


def test_element_inverse():
    x = w_mul(g("t"), g("k2inv")).scale(sc.Q)
    assert w_mul(x, x.inverse()) == one()
    with pytest.raises(SubstitutionError):
        g("a+").inverse()
    with pytest.raises(SubstitutionError):
        (g("t") + g("k2")).inverse()
    with pytest.raises(SubstitutionError, match="division by zero"):
        WElement.zero().inverse()


def test_power_matches_repeated_products():
    x = g("a") + g("a+").scale(sc.Q) + g("b2+")
    product = one()
    for n in range(7):
        assert x ** n == product
        product = w_mul(product, x)
    assert g("t") ** -3 == w_mul(g("tinv"), w_mul(g("tinv"), g("tinv")))


def test_max_raising():
    assert g("a+").max_raising() == 1
    assert g("a").max_raising() == -1
    assert (g("a+") + g("a")).max_raising() == 1
    assert WElement.zero().max_raising() == 0
