"""The shared linear-space type, the one UElement evaluator and the one
relation checker built on it."""

from fractions import Fraction

import pytest

import qgl21.scalars as sc
from qgl21 import induced as ind
from qgl21.induced import InducedVector, act
from qgl21.linear import accumulate
from qgl21.qmatrix import QMatrix
from qgl21.realization import rho
from qgl21.superalgebra import Relation, UElement, check_relations, evaluate
from qgl21.walgebra import UNIT, WElement, generator, one, w_mul

W = UElement.word


def test_accumulate_drops_zero_sums():
    d = {}
    accumulate(d, "x", sc.Q)
    accumulate(d, "x", sc.QINV)
    assert d == {"x": sc.Q + sc.QINV}
    accumulate(d, "x", -(sc.Q + sc.QINV))
    accumulate(d, "y", sc.ZERO)
    assert d == {}


def test_scalars_coerce_to_the_unit():
    t = generator("t")
    assert (t + 1).terms == {**t.terms, WElement.UNIT: sc.ONE}
    assert 1 + t == t + 1
    assert 2 - one() == one() == sc.ONE
    assert UElement.zero() == 0
    assert UElement.one() - 1 == 0
    assert 1 - W(("K1", 1)) == UElement({(): sc.ONE, (("K1", 1),): -sc.ONE})
    assert 3 * W(("K1", 1)) == W(("K1", 1), coeff=sc.QScalar.from_rational(3))


def test_no_coercion_across_spaces():
    v = InducedVector.basis_state(0, 0)
    with pytest.raises(TypeError):
        v + 1
    with pytest.raises(TypeError):
        1 - v
    assert v != 0
    with pytest.raises(TypeError):
        generator("t") + UElement.one()
    with pytest.raises(TypeError):
        UElement.one() - generator("t")


@pytest.mark.parametrize("x", [
    generator("a+") + generator("t").scale(sc.EPS_INV),
    W(("E12", 1), ("K2", -1)) + UElement.one().scale(sc.P1),
    InducedVector.basis_state(2, 1, 1, sc.Q) + InducedVector.basis_state(0, 0),
], ids=["W", "U", "induced"])
def test_difference_with_itself_is_zero(x):
    z = x - x
    assert not z and z.is_zero()
    assert z == type(x).zero()
    assert x + (-x) == z
    assert -(-x) == x
    assert x.scale(0) == z


# -- evaluate on its three targets ------------------------------------------------
# (start, apply) for W elements, induced-module vectors and matrices

_A0 = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())


def _w_target():
    return one(), lambda g, acc: w_mul(rho(g, "fermionic"), acc)


def _module_target():
    return (InducedVector.basis_state(1, 0, 1),
            lambda g, vec: act(g, vec, _A0))


def _matrix_target():
    return QMatrix.identity(_A0.dim), lambda g, m: _A0.mat(g) * m


TARGETS = pytest.mark.parametrize(
    "target", [_w_target, _module_target, _matrix_target],
    ids=["W", "module", "matrix"])


@TARGETS
def test_evaluate_empty_word_scales_start(target):
    start, apply = target()
    el = UElement.one().scale(sc.EPS_INV)
    assert evaluate(el, apply, start) == start.scale(sc.EPS_INV)


@TARGETS
def test_evaluate_folds_right_to_left_with_inverse_letters(target):
    start, apply = target()
    calls = []

    def recording(g, acc):
        calls.append(g)
        return apply(g, acc)

    el = W(("E23", 1), ("K2", -2), coeff=sc.Q)
    expected = apply("E23", apply("K2inv", apply("K2inv", start))).scale(sc.Q)
    assert evaluate(el, recording, start) == expected
    assert calls == ["K2inv", "K2inv", "E23"]


@TARGETS
def test_evaluate_zero_results(target):
    start, apply = target()
    zero = start.scale(sc.ZERO)
    assert evaluate(UElement.zero(), apply, start) == zero
    # E23 is nilpotent on every target, so the word vanishes
    assert evaluate(W(("E23", 1), ("E23", 1)), apply, start) == zero


# -- check_relations, the one relation checker ------------------------------------

def _two_by_two():
    """X = diag(1, 2) and Y = |0><1|: X X^-1 = 1 holds, while X Y - Y X is
    -|0><1|, nonzero in column 1 only."""
    two = sc.QScalar.from_rational(2)
    gens = {
        "X": QMatrix.from_entries(2, 2, [(0, 0, sc.ONE), (1, 1, two)]),
        "Xinv": QMatrix.from_entries(2, 2, [(0, 0, sc.ONE),
                                            (1, 1, two.invert())]),
        "Y": QMatrix.from_entries(2, 2, [(0, 1, sc.ONE)]),
    }
    relations = [
        Relation("X Y = Y X", "test", W(("X", 1), ("Y", 1)),
                 W(("Y", 1), ("X", 1))),
        Relation("X X^-1 = 1", "test", W(("X", 1), ("X", -1)),
                 UElement.one()),
    ]
    return relations, gens


def test_check_relations_counts_residual_entries_in_the_given_columns():
    relations, gens = _two_by_two()
    unit = QMatrix.identity(2)
    results = check_relations(relations, gens, unit)
    assert [(r.name, r.passed, r.residuals) for r in results] == [
        ("X Y = Y X", False, 1), ("X X^-1 = 1", True, 0)]
    results = check_relations(relations, gens, unit, cols=lambda rel: [0])
    assert [(r.passed, r.residuals) for r in results] == [(True, 0), (True, 0)]


def test_check_relations_on_w_counts_residual_terms():
    gens = {"A": generator("a"), "B": generator("a+")}
    rel = Relation("A B = B A", "test", W(("A", 1), ("B", 1)),
                   W(("B", 1), ("A", 1)))
    residual = w_mul(gens["A"], gens["B"]) - w_mul(gens["B"], gens["A"])
    [result] = check_relations([rel], gens, one())
    assert not result.passed
    assert result.residuals == len(residual.terms) > 0


# -- the one coefficient rule: scalars._coerce, Combination.term and * ------------

def test_a_fraction_is_a_scalar_in_every_operator():
    assert one() + Fraction(1, 2) == Fraction(3, 2)
    assert Fraction(1, 2) + one() == Fraction(3, 2)
    assert Fraction(1, 2) * one() == one() * Fraction(1, 2) \
        == WElement.from_scalar(Fraction(1, 2))
    assert Fraction(1, 2) - UElement.one() == Fraction(-1, 2)
    assert (Fraction(2, 3) * W(("K1", 1))).terms \
        == {(("K1", 1),): sc.QScalar.from_rational(Fraction(2, 3))}


def test_int_coefficients_are_lifted_by_the_single_term_constructors():
    assert repr(WElement.from_monomial(UNIT, 2)) == "2"
    assert repr(W(("E12", 1), coeff=2)) == "2*E12"
    assert InducedVector.basis_state(0, 0, 0, coeff=3).terms \
        == {(0, 0, 0): sc.QScalar.from_rational(3)}
    for el in (WElement.from_scalar(Fraction(1, 2)), 3 * generator("t"),
               W(("K1", 1), coeff=-1), UElement.term((), Fraction(1, 3))):
        assert all(isinstance(c, sc.QScalar) for c in el.terms.values())


@pytest.mark.parametrize("build", [
    lambda: InducedVector.basis_state(0, 0, 0, coeff=sc.ZERO),
    lambda: WElement.from_monomial(UNIT, 0),
    lambda: WElement.from_scalar(Fraction(0)),
    lambda: W(("E12", 1), coeff=0),
    lambda: generator("a").scale(0),
    lambda: 0 * generator("a"),
])
def test_a_zero_coefficient_gives_the_zero_combination(build):
    el = build()
    assert not el and el.nnz() == 0 and el.terms == {}


@pytest.mark.parametrize("build", [
    lambda: one().scale(2.5),
    lambda: WElement.from_scalar("1/2"),
    lambda: WElement.from_monomial(UNIT, 0.5),
    lambda: W(("E12", 1), coeff="2"),
    lambda: InducedVector.basis_state(0, 0, 0, coeff=1.0),
    lambda: UElement.term((), [1]),
])
def test_a_coefficient_that_is_not_a_scalar_is_a_type_error(build):
    with pytest.raises(TypeError, match="coefficient"):
        build()


@pytest.mark.parametrize("op", [
    lambda x: x * 2.5, lambda x: 2.5 * x, lambda x: x + 2.5,
    lambda x: 2.5 - x, lambda x: x - 1j,
])
def test_an_operand_that_is_not_a_scalar_is_unsupported(op):
    for x in (one(), UElement.one(), InducedVector.basis_state(0, 0)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(x)


def test_a_combination_times_a_scalar_is_its_scalar_multiple():
    v = InducedVector.basis_state(1, 0)
    assert v * 2 == 2 * v == v.scale(2) == v + v
    assert generator("t") * sc.Q == sc.Q * generator("t")


# -- += rebinds: an object someone else holds is never changed -----------------

def test_in_place_add_leaves_a_cached_image_unchanged():
    image = rho("E12", "fermionic")
    before = dict(image.terms)
    x = rho("E12", "fermionic")
    x += 1
    assert x == image + 1
    assert rho("E12", "fermionic") is image and image.terms == before


@pytest.mark.parametrize("w", [
    generator("a+") + sc.Q * generator("t"),
    W(("E12", 1)) - W(("K1", 1), coeff=sc.QINV),
    InducedVector.basis_state(1, 0) + InducedVector.basis_state(0, 1),
])
def test_in_place_add_does_not_change_an_alias(w):
    before = dict(w.terms)
    y = w
    y += w
    assert y == 2 * w and y is not w
    assert w.terms == before


def test_in_place_add_leaves_a_rep_matrix_unchanged():
    rep = ind.highest_weight_a0rep(ind.fermionic_gl11_rep())
    k2 = rep.mat("K2")
    before = {i: dict(r) for i, r in k2.rows.items()}
    m = rep.mat("K2")
    m += QMatrix.identity(2)
    assert m == k2 + QMatrix.identity(2) and m is not k2
    assert rep.mat("K2").rows == before
    assert all(r.passed for r in ind.validate_a0rep(rep))


# -- a relation letter with no generator image ---------------------------------

def test_check_relations_names_a_letter_missing_from_gens(monkeypatch):
    products = []
    mul = QMatrix.__mul__

    def counting(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(QMatrix, "__mul__", counting)
    gens = {"E12": QMatrix.identity(2)}
    relations = [
        Relation("E12 E12 = E12 E12", "test", W(("E12", 1), ("E12", 1)),
                 W(("E12", 1), ("E12", 1))),
        Relation("E99 = 0", "test", W(("E99", 1)), UElement.zero()),
    ]
    with pytest.raises(ValueError, match="'E99' has no entry in gens"):
        check_relations(relations, gens, QMatrix.identity(2))
    assert not products     # refused before the first relation's product
