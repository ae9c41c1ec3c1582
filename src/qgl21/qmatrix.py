"""Sparse exact matrices over QScalar, stored as dict-of-rows.

Small and deliberately simple: the verification layers only need addition,
multiplication, scaling and exact comparison (optionally restricted to a
subset of basis columns, which is how truncation-safe Fock checks work).
"""

from __future__ import annotations

from . import scalars as sc
from .linear import accumulate


class QMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @classmethod
    def zero(cls, nrows, ncols=None):
        return cls(nrows, ncols if ncols is not None else nrows)

    @classmethod
    def identity(cls, n, scale=None):
        s = sc.ONE if scale is None else scale
        rows = {} if not s else {i: {i: s} for i in range(n)}
        return cls(n, n, rows)

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """entries: iterable of (row, col, QScalar)."""
        m = cls(nrows, ncols)
        for i, j, v in entries:
            m.add_entry(i, j, v)
        return m

    def add_entry(self, i, j, v):
        if not v:
            return
        row = self.rows.setdefault(i, {})
        accumulate(row, j, v)
        if not row:
            del self.rows[i]

    def entry(self, i, j):
        return self.rows.get(i, {}).get(j, sc.ZERO)

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

    def __add__(self, other):
        out = QMatrix(self.nrows, self.ncols,
                      {i: dict(r) for i, r in self.rows.items()})
        for i, j, v in other.iter_entries():
            out.add_entry(i, j, v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QMatrix(self.nrows, self.ncols,
                       {i: {j: -v for j, v in r.items()}
                        for i, r in self.rows.items()})

    def scale(self, c):
        if not c:
            return QMatrix.zero(self.nrows, self.ncols)
        return QMatrix(self.nrows, self.ncols,
                       {i: {j: c * v for j, v in r.items()}
                        for i, r in self.rows.items()})

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            out = QMatrix(self.nrows, other.ncols)
            for i, row in self.rows.items():
                acc = {}
                for k, a in row.items():
                    brow = other.rows.get(k)
                    if not brow:
                        continue
                    for j, b in brow.items():
                        accumulate(acc, j, a * b)
                if acc:
                    out.rows[i] = acc
            return out
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.rows == other.rows

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
