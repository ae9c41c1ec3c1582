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
        if (a.nrows, a.ncols, b.ncols) != (self.nrows, b.nrows, self.ncols):
            raise ValueError("shape mismatch in matrix product")
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
