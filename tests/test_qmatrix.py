import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgl21.scalars as sc
from conftest import SCALAR_POOL, qscalars
from qgl21.qmatrix import PackedRows, QMatrix


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


# -- the fused kernels against a dense reference, over each entry ring -------

def _laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mono = (rng.randint(-1, 1), rng.randint(0, 1), 0, 0)
        terms[mono] = terms.get(mono, 0) + rng.choice((-2, -1, 1, 2))
    return sc.Laurent({m: v for m, v in terms.items() if v})


# ring name -> (random entry, possibly zero; the ring's zero and one)
RINGS = {
    "int": (lambda rng: rng.randint(-2, 2), 0, 1),
    "Fraction": (lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                 Fraction(0), Fraction(1)),
    "QScalar": (lambda rng: rng.choice(SCALAR_POOL + (sc.ZERO,)), sc.ZERO,
                sc.ONE),
    "Laurent": (_laurent, sc.Laurent({}), sc.Laurent({(0, 0, 0, 0): 1})),
}


def _random(rng, entry, zero, nrows, ncols):
    # sparse, with whole rows missing and zeros offered (and dropped)
    return QMatrix.from_entries(nrows, ncols, [
        (rng.randrange(nrows), rng.randrange(ncols), entry(rng))
        for _ in range(rng.randint(0, nrows * ncols))], zero)


def _dense(m):
    return {(i, j): v for i, j, v in m.iter_entries()}


def _reference_sum(*terms):
    """The entries of the sum of c * (the product of the matrices), for
    (c, matrices) in terms, c None for 1, by plain loops, zeros dropped."""
    out = {}
    for c, mats in terms:
        prod = _dense(mats[0])
        for m in mats[1:]:
            nxt = {}
            for (i, k), x in prod.items():
                for (k2, j), y in _dense(m).items():
                    if k == k2:
                        nxt[i, j] = nxt[i, j] + x * y if (i, j) in nxt \
                            else x * y
            prod = nxt
        for key, v in prod.items():
            v = v if c is None else c * v
            out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


def _contents(m):
    return (m.nrows, m.ncols, m._zero, {i: dict(r) for i, r in m.rows.items()})


def _assert_stored_form(m, zero):
    # the residual counts are nnz, so no zero entry and no empty row is kept
    assert all(m.rows.values())
    assert all(v for row in m.rows.values() for v in row.values())
    assert m._zero is zero
    assert type(m.entry(m.nrows, m.ncols)) is type(zero)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(40))
def test_fused_steps_equal_the_materialised_sum(ring, seed):
    rng = random.Random(seed)
    entry, zero, one = RINGS[ring]
    n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    a, b = _random(rng, entry, zero, n, k), _random(rng, entry, zero, k, m)
    other = _random(rng, entry, zero, n, m)
    c = rng.choice((None, entry(rng) or None))
    total = _random(rng, entry, zero, n, m)
    if rng.random() < 0.5:
        # exact cancellation: the sum starts at minus the product, on some
        # rows or on all of them
        minus = (a * b).scale(-(one if c is None else c))
        keep = {i for i in minus.rows if rng.random() < 0.7}
        total = QMatrix(n, m, {i: r for i, r in minus.rows.items()
                               if i in keep}, zero)
    before = [_contents(x) for x in (a, b, other)]
    expected = _reference_sum((None, [total]), (c, [a, b]), (c, [other]))
    scale = one if c is None else c
    materialised = total + (a * b).scale(scale) + other.scale(scale)

    assert total._addmul(a, b, c)._iadd(other, c) is total
    assert _dense(total) == expected == _dense(materialised)
    _assert_stored_form(total, zero)
    assert [_contents(x) for x in (a, b, other)] == before
    # the sum owns its rows: none is a row of an operand
    shared = {id(r) for x in (a, b, other) for r in x.rows.values()}
    assert not shared & {id(r) for r in total.rows.values()}


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(20))
def test_product_and_column_product_match_the_reference(ring, seed):
    rng = random.Random(seed)
    entry, zero, _ = RINGS[ring]
    n, k = rng.randint(1, 4), rng.randint(1, 4)
    a, b = _random(rng, entry, zero, n, k), _random(rng, entry, zero, k, n)
    before = [_contents(x) for x in (a, b)]
    prod = a * b
    assert _dense(prod) == _reference_sum((None, [a, b]))
    _assert_stored_form(prod, zero)
    assert (prod.nrows, prod.ncols) == (n, n)
    col = {j: v for j in range(k) if (v := entry(rng))}
    as_matrix = QMatrix(k, 1, {j: {0: v} for j, v in col.items()}, zero)
    assert a.apply_column(col) == {
        i: v for (i, _), v in _reference_sum((None, [a, as_matrix])).items()}
    assert [_contents(x) for x in (a, b)] == before


def test_fused_product_checks_shapes():
    with pytest.raises(ValueError):
        QMatrix.zero(2)._addmul(QMatrix.zero(2, 3), QMatrix.zero(2))


@pytest.mark.parametrize("step", [
    lambda: QMatrix.identity(2) + QMatrix.identity(3),
    lambda: QMatrix.identity(2) - QMatrix.identity(3),
    lambda: QMatrix.identity(3) + QMatrix.zero(3, 2),
    lambda: QMatrix.zero(2)._iadd(QMatrix.identity(3), sc.Q),
    lambda: QMatrix.zero(2)._addmul(QMatrix.identity(3), QMatrix.identity(3)),
    lambda: QMatrix.zero(3, 2)._addmul(QMatrix.identity(3),
                                       QMatrix.identity(3)),
])
def test_sums_and_fused_products_check_shapes(step):
    # unchecked, a sum writes the rows of the larger operand into the
    # smaller matrix, and so does a product added into another shape
    with pytest.raises(ValueError, match="shape mismatch"):
        step()


# -- a fused step whose sum is one of its own operands --------------------------

def _packed(m):
    """The PackedRows of m, a QMatrix of Laurents, built from its entries."""
    return PackedRows.from_entries(m.nrows, m.ncols, m.iter_entries())


def _probe(packed):
    """m = [[1, q], [1, 0]]: over QScalar, or as the PackedRows of its
    cleared Laurent matrix."""
    m = QMatrix.from_entries(2, 2, [(0, 0, sc.ONE), (0, 1, sc.Q),
                                    (1, 0, sc.ONE)])
    return _packed(m.cleared(sc.clear_denominators)[1]) if packed else m


@pytest.mark.parametrize("packed", [False, True], ids=["QMatrix", "PackedRows"])
@pytest.mark.parametrize("self_as", ["a", "b"])
def test_fused_product_refuses_its_sum_as_an_operand(packed, self_as):
    # unrefused, r._addmul(m, r) reads rows of r it has already changed and
    # gives something other than r + m r, and r._addmul(r, m) grows the row
    # it iterates over
    m, r = _probe(packed), _probe(packed)
    with pytest.raises(ValueError, match="one of its operands"):
        if self_as == "a":
            r._addmul(r, m)
        else:
            r._addmul(m, r)


def test_qmatrix_sum_with_itself_doubles_it():
    m, r = _probe(False), _probe(False)
    assert r._iadd(r) is r
    assert r == m + m


def test_packed_sum_refuses_itself():
    r = _probe(True)
    with pytest.raises(ValueError, match="into itself"):
        r._iadd(r, sc.laurent_q_number(1))


# -- packed rows against QMatrix on Laurent entries -----------------------------

TOP = 2 ** 30 - 1       # the largest exponent magnitude _pack takes


def _wide_laurent(rng):
    """One to three terms with signed coefficients and exponents of either
    sign in every variable, some at +-TOP."""
    def exponent():
        e = rng.choice((0, 1, 2, TOP))
        return rng.choice((e, -e))

    return sc.Laurent({tuple(exponent() for _ in range(4)):
                       rng.choice((-3, -1, 1, 2, 10 ** 20))
                       for _ in range(rng.randint(1, 3))})


def _decoded(p):
    """The entries {(i, j): packed monomial terms} of PackedRows p, decoded
    from its rows, whose zero coefficients are skipped."""
    out = {}
    for i, row in p.rows.items():
        for key, x in row.items():
            if x:
                j = sc._key_column(key)
                out.setdefault((i, j), {})[key - sc._row_key(0, j)] = x
    return out


def _laurent_terms(m):
    return {(i, j): v.terms for i, j, v in m.iter_entries()}


def test_packed_rows_match_qmatrix_on_laurent_entries():
    # total + c a (b d) + c other, with total minus c a (b d) on some rows,
    # so entries cancel to zero there; b d is a packed product as the right
    # operand of the fused step, as in a 3-letter word
    zero, cancelled = sc.Laurent({}), 0
    packed = _packed
    for seed in range(40):
        rng = random.Random(seed)
        n, k, l, m = (rng.randint(1, 5) for _ in range(4))
        a, b, d = (_random(rng, _wide_laurent, zero, r, c)
                   for r, c in ((n, k), (k, l), (l, m)))
        other = _random(rng, _wide_laurent, zero, n, m)
        c = rng.choice((None, sc.Laurent({(-1, 2, -TOP, 0): -5}),
                        _wide_laurent(rng) + _wide_laurent(rng) or None))
        product = a * (b * d)
        minus = product.scale(-sc.Laurent({(0, 0, 0, 0): 1})
                              if c is None else -c)
        keep = {i for i in minus.rows if rng.random() < 0.7}
        total = QMatrix(n, m, {i: r for i, r in minus.rows.items()
                               if i in keep}, zero)
        got = packed(total)._addmul(packed(a), packed(b) * packed(d), c)
        got._iadd(packed(other), c)
        want = total._addmul(a, b * d, c)._iadd(other, c)
        assert _decoded(got) == _laurent_terms(want) == _laurent_terms(got)
        assert got == packed(want)
        assert all(type(x) is int for row in got.rows.values()
                   for x in row.values())
        cols = rng.sample(range(m), rng.randint(0, m))
        for cs in (None, range(m), cols):
            assert got.nnz(cs) == want.nnz(cs)
        cancelled += sum(1 for i, j, _ in product.iter_entries()
                         if i in keep and not want.entry(i, j))
    assert cancelled


def test_packed_sums_count_no_cancelled_zero():
    # a sum leaves the zero coefficients of its cancelled terms in its rows
    # and nnz skips them: a sum that cancels completely counts nothing,
    # and one surviving entry among cancelled zeros counts exactly 1
    x = sc.Laurent({(1, 0, 0, 0): 2, (0, -1, 0, 3): -1})
    y = sc.Laurent({(-2, 0, 1, 0): 5})
    minus = sc.Laurent({(0, 0, 0, 0): -1})
    a = PackedRows.from_entries(2, 3, [(0, 0, x), (0, 2, y), (1, 1, x + y)])
    b = PackedRows.from_entries(3, 3, [(0, 1, y), (1, 0, x), (2, 2, x)])
    total = a.scale(x)
    total._addmul(a, b, y)
    total._iadd(a, -x)
    total._addmul(a, b, -y)
    assert any(0 in row.values() for row in total.rows.values())
    assert total.nnz() == total.nnz(range(3)) == 0
    assert total == PackedRows(2, 3) and not list(total.iter_entries())
    total._iadd(PackedRows.from_entries(2, 3, [(1, 2, y)]))
    total._iadd(a, minus)
    total._iadd(a)
    assert total.nnz() == total.nnz(range(3)) == total.nnz([2]) == 1
    assert total.nnz([0, 1]) == 0
    assert [(i, j, v.terms) for i, j, v in total.iter_entries()] \
        == [(1, 2, y.terms)]


@pytest.mark.parametrize("j", [0, 1, 2 ** 40 + 3])
def test_row_keys_give_back_their_column(j):
    # a field's magnitude stays below 2^63 (see scalars.Laurent), so a
    # key whose fields sit near it in either sign still decodes
    for mono in ((0, 0, 0, 0), (0, 0, 0, -1), (TOP, -TOP, TOP, -TOP),
                 (-TOP, TOP, -TOP, TOP), (5, 0, -2, -TOP)):
        for key in (sc._pack(mono), sc._pack(mono) * 2 ** 32):
            row_key = sc._row_key(key, j)
            assert sc._key_column(row_key) == j
            assert row_key - sc._row_key(0, j) == key
