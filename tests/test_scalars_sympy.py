"""Differential oracle for the scalar field: every QScalar operation is
checked against sympy's rational-function arithmetic, comparing values and
zero tests (not rendered forms)."""

import itertools
import operator

import pytest
from hypothesis import given, settings

import qgl21.scalars as sc
from conftest import P_FACTOR_SCALARS, rational_functions

sympy = pytest.importorskip("sympy")

SYMBOLS = sympy.symbols(sc.VAR_NAMES)
OPS = (operator.add, operator.sub, operator.mul)


def _poly_to_sympy(poly):
    total = sympy.Integer(0)
    for mono, c in poly.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(SYMBOLS, mono):
            term *= sym ** e
        total += term
    return total


def to_sympy(x):
    return _poly_to_sympy(x.num) / _poly_to_sympy(x.den)


def _agrees(got, expected):
    assert sympy.cancel(to_sympy(got) - expected) == 0
    assert bool(got) == (sympy.cancel(expected) != 0)


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
    _agrees(x - x, sympy.Integer(0))
    _agrees(x + (-x), sympy.Integer(0))
