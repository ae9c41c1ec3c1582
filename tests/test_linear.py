"""The shared linear-space type, the one UElement evaluator and the one
relation checker built on it."""

import pytest

import qgl21.scalars as sc
from qgl21 import induced as ind
from qgl21.induced import InducedVector, act
from qgl21.linear import accumulate
from qgl21.qmatrix import QMatrix
from qgl21.realization import rho
from qgl21.superalgebra import Relation, UElement, check_relations, evaluate
from qgl21.walgebra import WElement, generator, one, w_mul

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
