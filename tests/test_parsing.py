import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from conftest import random_element
from qgl21.parsing import (
    AbstractSymbolError, BinOp, Bracket, ParseError, Sym,
    eval_w, parse, parse_scalar, parse_w,
)
from qgl21.walgebra import (
    UNIT, WElement, generator, one, render_element, w_mul,
)

g = generator


def test_parse_difference_of_products():
    ast = parse("a * a+ - q^-1 * a+ * a")
    assert isinstance(ast, BinOp) and ast.op == "-"
    assert parse_w("a * a+ - q^-1 * a+ * a") == g("t")


def test_parse_anticommutator_node():
    ast = parse("acomm{E23, E32}")
    assert isinstance(ast, Bracket) and ast.anti
    assert isinstance(ast.left, Sym) and ast.left.name == "E23"


def test_commutator_evaluation():
    assert parse_w("comm[b+, b]") == w_mul(g("b+"), g("b")) - w_mul(g("b"), g("b+"))
    assert parse_w("acomm{b+, b}") == one()


def test_odd_symbol_powers_evaluate_to_zero():
    assert not parse_w("b+^2")
    assert not parse_w("e23^3")


def test_precedence_power_binds_tighter_than_product():
    assert parse_w("2*q^2") == one().scale(2 * sc.q_power(2))
    assert parse_w("q^-1 * q") == one()
    assert parse_w("t^-1") == g("tinv")


def test_plus_binds_to_creation_symbols_only_when_adjacent():
    assert parse_w("a + a") == g("a").scale(2)
    assert parse_w("a+") == g("a+")
    assert parse_w("b2+ * b2") == w_mul(g("b2+"), g("b2"))


def test_unary_minus():
    assert parse_w("-q * a") == g("a").scale(-sc.Q)
    assert parse_w("- b+ * e23") == -w_mul(g("b+"), g("e23"))


def test_division_by_scalar():
    x = parse_w("(q*t - q^-1*t^-1)/(q - q^-1)")
    assert x == w_mul(g("a"), g("a+"))


def test_fraction_literals():
    assert parse_scalar("3/2") == sc.QScalar.from_rational("3/2")
    assert parse_scalar("-5/4 * q") == sc.QScalar.from_rational("-5/4") * sc.Q


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("a * * a")
    assert "position 4" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("a * borp")
    assert "unknown symbol" in str(err.value)
    with pytest.raises(ParseError):
        parse("(a + b")
    with pytest.raises(ParseError):
        parse("a ~ b")
    with pytest.raises(ParseError):
        parse("comm[a, a+")
    with pytest.raises(ParseError):
        parse("a^b")
    with pytest.raises(ParseError):
        parse("")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("a a")


def test_abstract_symbols_parse_but_do_not_evaluate():
    ast = parse("E12 * E21")
    with pytest.raises(AbstractSymbolError):
        eval_w(ast)


@pytest.mark.parametrize("text, name", [
    ("t^-1", "tinv"), ("k2^-1", "k2inv"), ("k3^-1", "k3inv")])
def test_inverse_powers_are_the_inverse_generators(text, name):
    assert parse_w(text) == g(name)
    assert render_element(parse_w(text)) == text


def test_inverse_of_noninvertible_rejected():
    from qgl21.walgebra import SubstitutionError
    with pytest.raises(SubstitutionError):
        parse_w("a^-1")
    with pytest.raises(SubstitutionError):
        parse_w("1/(a + t)")


def test_scalar_round_trip():
    for x in (sc.q_integer(3), sc.EPS_INV, -sc.P1 * sc.Q,
              sc.QScalar.from_rational("3/2") * sc.P2.invert()):
        assert parse_scalar(x.render()) == x


def test_render_examples():
    assert render_element(w_mul(g("b"), g("b+"))) == "1 - b+*b"
    assert render_element(w_mul(g("e23"), g("b+"))) == "-b+*e23"
    assert render_element(one() - one()) == "0"


def test_round_trip_seeded_elements():
    rng = random.Random(314159)
    for _ in range(200):
        el = random_element(rng, nterms=rng.randrange(1, 4))
        assert parse_w(render_element(el)) == el


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab+t*k23^-+()[]{} ,eq/#", max_size=24))
def test_parser_is_total(text):
    # anything either parses or raises a positioned ParseError; no hangs
    try:
        parse(text)
    except ParseError as err:
        assert err.pos >= 0


def test_long_rendering_parses_back():
    # 1,500 terms: a flat sum longer than the interpreter's recursion limit
    x = WElement({UNIT._replace(m=m, k=k): sc.q_power(m - k)
                  for m in range(30) for k in range(-25, 25)})
    assert parse_w(render_element(x)) == x
