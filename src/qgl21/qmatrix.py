"""Sparse exact matrices, stored as dict-of-rows, of QScalars, of Fractions
or ints on the numeric Fock route, or of integer Laurent polynomials
(scalars.Laurent) on the cleared routes.  A Laurent keys its terms by
packed ints, one signed 64-bit field per variable, with every exponent
below 2^30 in magnitude where it is packed, so an entry product adds ints,
not 4-tuples, and a product of at most 2^33 packed factors never carries
between fields.  A matrix is built with the zero of its entries' ring,
which a missing entry reads as; cleared derives the zero of the cleared
ring from it.

Small and deliberately simple: the verification layers only need addition,
multiplication, scaling and exact comparison (optionally restricted to a
subset of basis columns, which is how truncation-safe Fock checks work).
The one matrix-product loop is _addmul, self += c * a * b (BLAS gemm on
Gustavson's row-wise product, c folded into a's entries), which * runs
into a fresh matrix; the one sum loop is _iadd, self += c * other.
_addmul refuses a sum that is one of its operands, which it would read
while changing it; m._iadd(m) doubles m.

PackedRows is the relation check's matrix on the Laurent ring: the
cleared generator matrices of the symbolic routes are built straight into
it (PackedRows.from_entries, from the Laurent entries of
realization._fill or induced._cleared_module), once per generator, and
so is the identity of the check; no QMatrix of Laurents is built for
them.  It keeps each row as one dict from packed row keys, a monomial's
packed key plus its column shifted above the four exponent fields
(scalars._row_key), to int coefficients, so a row of a product is one
multiply-accumulate over ints and builds no Laurent.  Its sums leave the
zeros of cancelled terms in place, and nnz skips them once, when the
residual is counted.  It has only the steps check_relations and evaluate
take: scale, _iadd, _addmul, * and nnz, plus iter_entries and ==.
"""

from __future__ import annotations

from . import scalars as sc
from .linear import accumulate


def _store(rows, i, row):
    """rows[i] = row, or no row i when row is empty."""
    if row:
        rows[i] = row
    else:
        rows.pop(i, None)


def _check_addmul(out, a, b):
    """A ValueError unless out += a * b has matching shapes and out is
    neither operand, which it changes row by row while they are read."""
    if (a.nrows, a.ncols, b.ncols) != (out.nrows, b.nrows, out.ncols):
        raise ValueError("shape mismatch in matrix product")
    if out is a or out is b:
        raise ValueError("the sum of a matrix product is one of its operands")


class QMatrix:
    """A missing entry reads as _zero, the zero of the entries' ring, given
    when the matrix is built (sc.ZERO by default; identity takes the zero
    of its scale).  Sums, products, negatives and multiples keep the left
    operand's."""

    __slots__ = ("nrows", "ncols", "rows", "_zero")

    def __init__(self, nrows, ncols, rows=None, zero=sc.ZERO):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}
        self._zero = zero

    def _like(self, rows, ncols=None):
        return QMatrix(self.nrows, self.ncols if ncols is None else ncols,
                       rows, self._zero)

    @classmethod
    def zero(cls, nrows, ncols=None, zero=sc.ZERO):
        return cls(nrows, ncols if ncols is not None else nrows, None, zero)

    @classmethod
    def identity(cls, n, scale=None):
        s = sc.ONE if scale is None else scale
        return cls(n, n, {} if not s else {i: {i: s} for i in range(n)},
                   s - s)

    @classmethod
    def from_entries(cls, nrows, ncols, entries, zero=sc.ZERO):
        """entries: iterable of (row, col, entry)."""
        m = cls(nrows, ncols, None, zero)
        for i, j, v in entries:
            m.add_entry(i, j, v)
        return m

    def cleared(self, clear):
        """(d, A) with A / d equal to self: clear(values) gives d and the
        values times d, for the entries and then self's zero, whose image
        is A's zero."""
        entries = list(self.iter_entries())
        d, values = clear([v for _, _, v in entries] + [self._zero])
        return d, QMatrix.from_entries(
            self.nrows, self.ncols,
            ((i, j, a) for (i, j, _), a in zip(entries, values)), values[-1])

    def add_entry(self, i, j, v):
        row = self.rows.get(i, {})
        accumulate(row, j, v)
        _store(self.rows, i, row)

    def entry(self, i, j):
        return self.rows.get(i, {}).get(j, self._zero)

    def iter_entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def nnz(self, cols=None):
        """Number of nonzero entries, optionally only those in the given
        columns."""
        if cols is None:
            return sum(len(r) for r in self.rows.values())
        cols = set(cols)
        return sum(1 for _, j, _v in self.iter_entries() if j in cols)

    # no __iadd__: m += n rebinds m to m + n, so a matrix that someone
    # else holds is never changed; _iadd and _addmul are for a sum the
    # caller owns, which is neither of their operands
    def _iadd(self, other, c=None):
        """self += c * other, c None meaning 1."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        rows = self.rows
        for i, orow in other.rows.items():
            row = rows.get(i, {})
            for j, v in orow.items():
                accumulate(row, j, v if c is None else c * v)
            _store(rows, i, row)
        return self

    def _addmul(self, a, b, c=None):
        """self += c * a * b, c None meaning 1."""
        _check_addmul(self, a, b)
        rows, brows = self.rows, b.rows
        for i, arow in a.rows.items():
            row = rows.get(i, {})
            for k, x in arow.items():
                brow = brows.get(k)
                if brow:
                    if c is not None:
                        x = c * x
                    for j, y in brow.items():
                        accumulate(row, j, x * y)
            _store(rows, i, row)
        return self

    def __add__(self, other):
        return self._like({})._iadd(self)._iadd(other)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({i: {j: -v for j, v in r.items()}
                           for i, r in self.rows.items()})

    def scale(self, c):
        return self._like({})._iadd(self, c) if c else self._like({})

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self._like({}, other.ncols)._addmul(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.rows == other.rows

    # the induced action's matrix-vector product keeps its own loop: on its
    # short vectors a one-column matrix for _addmul costs more than that
    def apply_column(self, vec):
        """Matrix times a sparse column vector {index: QScalar}."""
        out = {}
        for i, row in self.rows.items():
            s = None
            for k, a in row.items():
                v = vec.get(k)
                if v:
                    av = a * v
                    s = av if s is None else s + av
            if s:
                out[i] = s
        return out

    def __repr__(self):
        return "QMatrix(%d x %d, %d nonzero)" % (self.nrows, self.ncols, self.nnz())


def _add_product(row, terms, other):
    """row += (sum of x m over terms (m, x)) * other, for packed rows row
    and other: a packed key plus m is the key of the product monomial in
    the same column.  Zeros are left in row."""
    for m, x in terms:
        for key, y in other.items():
            key += m
            row[key] = row.get(key, 0) + x * y


class PackedRows:
    """A matrix of Laurent entries (scalars.Laurent) on packed row keys,
    for the relation check of the cleared routes: row i is one dict
    {sc._row_key(m, j): x} over the terms x m of its entries, m the packed
    key of a monomial and j its column, so a row of a product is one
    multiply-accumulate over ints.  from_entries builds a generator matrix
    and keeps its rows by column, the view a left operand of _addmul is
    read through; a sum or product has no such view and is only a right
    operand.  A sum keeps the zero coefficients its cancelled terms leave:
    they are skipped once, where the rows are read, by nnz, iter_entries
    and ==.  Only what check_relations and evaluate call is here, plus the
    reads the tests compare by."""

    __slots__ = ("nrows", "ncols", "rows", "_by_col")

    def __init__(self, nrows, ncols, rows=None, by_col=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}
        self._by_col = by_col

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """The matrix whose entry (i, j) is the sum of the Laurents v of
        entries (i, j, v), their packed terms summed as ints by Laurent's
        +, and the rows and the view {i: [(j, [(key, x), ...]), ...]} made
        once from those sums, with no zero entry, in the order entries
        first reach each row and each entry."""
        sums = {}
        for i, j, v in entries:
            row = sums.get(i)
            if row is None:
                row = sums[i] = {}
            w = row.get(j)
            row[j] = v if w is None else w + v
        by_col = {}
        for i, row in sums.items():
            row = [(j, list(v.terms.items())) for j, v in row.items() if v]
            if row:
                by_col[i] = row
        key = sc._row_key
        return cls(nrows, ncols,
                   {i: {key(k, j): x for j, terms in row for k, x in terms}
                    for i, row in by_col.items()}, by_col)

    @classmethod
    def identity(cls, n, scale):
        """scale, a Laurent, times the n x n identity."""
        return cls.from_entries(n, n, ((i, i, scale) for i in range(n)))

    def iter_entries(self):
        """(i, j, Laurent) for each nonzero entry, row by row."""
        col, key = sc._key_column, sc._row_key
        for i, row in self.rows.items():
            entries = {}
            for k, x in row.items():
                if x:
                    j = col(k)
                    entries.setdefault(j, {})[k - key(0, j)] = x
            for j, terms in entries.items():
                yield i, j, sc._laurent(terms)

    def nnz(self, cols=None):
        """Number of nonzero entries, optionally only those in the given
        columns."""
        col = sc._key_column
        entries = ({col(key) for key, x in row.items() if x}
                   for row in self.rows.values() if any(row.values()))
        if cols is None:
            return sum(map(len, entries))
        cols = set(cols)
        return sum(len(js & cols) for js in entries)

    def __eq__(self, other):
        if not isinstance(other, PackedRows):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            {(i, j): v.terms for i, j, v in self.iter_entries()} \
            == {(i, j): v.terms for i, j, v in other.iter_entries()}

    def scale(self, c):
        out = PackedRows(self.nrows, self.ncols)
        return out._iadd(self, c) if c else out

    def _iadd(self, other, c=None):
        """self += c * other, c None meaning 1 or a Laurent."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        if other is self:
            raise ValueError("PackedRows adds no matrix into itself, "
                             "which it changes while reading")
        rows = self.rows
        cterms = [(0, 1)] if c is None else c.terms.items()
        for i, orow in other.rows.items():
            _add_product(rows.setdefault(i, {}), cterms, orow)
        return self

    def _addmul(self, a, b, c=None):
        """self += c * a * b, c None meaning 1 or a Laurent, with a built
        by from_entries."""
        _check_addmul(self, a, b)
        if a._by_col is None:
            raise ValueError("the left operand of a product is not a "
                             "matrix from from_entries")
        rows, brows = self.rows, b.rows
        cterms = None if c is None else c.terms.items()
        for i, arow in a._by_col.items():
            row = rows.setdefault(i, {})
            for k, terms in arow:
                brow = brows.get(k)
                if brow:
                    if cterms is not None:
                        terms = [(m + n, x * y) for m, x in terms
                                 for n, y in cterms]
                    _add_product(row, terms, brow)
        return self

    def __mul__(self, other):
        return PackedRows(self.nrows, other.ncols)._addmul(self, other)
