import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from conftest import qscalars
from qgl21.qmatrix import QMatrix


def entries_3x3():
    return st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), qscalars),
        max_size=5)


matrices = st.builds(lambda es: QMatrix.from_entries(3, 3, es), entries_3x3())


def test_identity_and_zero():
    ident = QMatrix.identity(3)
    z = QMatrix.zero(3)
    assert ident * ident == ident
    assert (ident + z) == ident
    assert z.nnz() == 0


def test_entry_accumulation_drops_zeros():
    m = QMatrix.zero(2)
    m.add_entry(0, 1, sc.Q)
    m.add_entry(0, 1, -sc.Q)
    assert m.nnz() == 0
    assert m.entry(0, 1) == sc.ZERO


def test_apply_column():
    m = QMatrix.from_entries(2, 2, [(0, 1, sc.Q), (1, 0, sc.ONE)])
    out = m.apply_column({1: sc.P1})
    assert out == {0: sc.Q * sc.P1}


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        QMatrix.zero(2, 3) * QMatrix.zero(2, 3)


def test_column_and_diff_restriction():
    a = QMatrix.from_entries(2, 2, [(0, 0, sc.ONE), (1, 1, sc.Q)])
    b = QMatrix.from_entries(2, 2, [(0, 0, sc.ONE)])
    assert a.nnz(cols=[1]) == 1
    assert a.entry(1, 1) == sc.Q
    assert (a - b).nnz() == 1
    assert (a - b).nnz(cols=[0]) == 0
    assert (a - b).nnz(cols=[1]) == 1


@settings(max_examples=100, deadline=None)
@given(matrices, matrices, matrices)
def test_matrix_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(matrices, qscalars)
def test_scaling_commutes_with_product(a, s):
    ident = QMatrix.identity(3)
    assert a.scale(s) == ident.scale(s) * a
