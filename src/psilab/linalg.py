"""Sparse exact linear algebra: incremental reduced row echelon, kernels,
coordinates read off key columns.

Vectors are dicts {column_index: coefficient} with no stored zeros; all
arithmetic goes through a field object from psilab.fields.  The echelon is
kept fully reduced (RREF): each stored row has its pivot column as the
smallest support column with coefficient one, and no other row's pivot
appears in any row's support.  Full reduction is what keeps rational entries
at minor size instead of compounding along reduction chains, and it makes
row tails of low-codimension spaces as sparse as the codimension.  It also
means the rows, and the kernel vectors read off them, form a unit matrix on
their key columns, so coordinates in either basis need no elimination: see
`coordinates`.
"""

from __future__ import annotations


class Echelon:
    """Incremental sparse reduced-row-echelon span over an exact field."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> row dict (pivot coeff == 1)
        self._uses = {}  # column -> set of pivots whose rows touch it

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Normal form of vec modulo the span: subtract each pivot row once.

        Row tails contain no pivot columns, so a single pass suffices and the
        result has no support on pivot columns; it is zero exactly when vec
        lies in the span.
        """
        field = self.field
        zero = field.zero
        rows = self.rows
        out = {c: v for c, v in vec.items() if v != zero}
        for c in [c for c in out if c in rows]:
            coeff = out.pop(c)
            for cc, vv in rows[c].items():
                if cc == c:
                    continue
                newv = field.sub(out.get(cc, zero), field.mul(coeff, vv))
                if newv == zero:
                    out.pop(cc, None)
                else:
                    out[cc] = newv
        return out

    def _register(self, pivot: int, row: dict) -> None:
        for c in row:
            self._uses.setdefault(c, set()).add(pivot)

    def insert(self, vec: dict):
        """Insert vec; return the new pivot column, or None if dependent."""
        field = self.field
        res = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        inv = field.inv(res[p])
        row = {c: field.mul(inv, v) for c, v in res.items()}
        # Back-eliminate the new pivot from every row that touches it.
        zero = field.zero
        for q in list(self._uses.get(p, ())):
            other = self.rows[q]
            coeff = other.pop(p)
            self._uses[p].discard(q)
            for cc, vv in row.items():
                if cc == p:
                    continue
                newv = field.sub(other.get(cc, zero), field.mul(coeff, vv))
                if newv == zero:
                    if other.pop(cc, None) is not None:
                        self._uses[cc].discard(q)
                else:
                    if cc not in other:
                        self._uses.setdefault(cc, set()).add(q)
                    other[cc] = newv
        self.rows[p] = row
        self._register(p, row)
        return p

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def kernel_basis(self, ncols: int) -> list[dict]:
        """Basis of {x : row . x = 0 for every stored row}: one vector per
        free column, read directly off the reduced rows.  Each vector is
        keyed by its free column, which is its largest column (see
        `coordinates`)."""
        field = self.field
        rows = self.rows
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            x = {f: field.one}
            for p in self._uses.get(f, ()):
                x[p] = field.neg(rows[p][f])
            basis.append(x)
        return basis

    def row_vectors(self) -> list[dict]:
        """The reduced rows in pivot order; row i is keyed by pivots()[i]."""
        return [dict(self.rows[p]) for p in sorted(self.rows)]


def rank_of_vectors(field, vectors) -> int:
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.dim


def kernel_of_rows(field, rows, ncols: int) -> list[dict]:
    """Kernel of the matrix whose rows are the given sparse vectors."""
    ech = Echelon(field)
    for r in rows:
        ech.insert(r)
    return ech.kernel_basis(ncols)


def kernel_of_columns(field, columns) -> list[dict]:
    """Kernel of the linear map sending source basis vector s to columns[s]."""
    rows_by_target = {}
    for s, col in enumerate(columns):
        for r, v in col.items():
            rows_by_target.setdefault(r, {})[s] = v
    return kernel_of_rows(field, rows_by_target.values(), len(columns))


def matrix_times_vector(field, columns, x: dict) -> dict:
    """Image of coordinate vector x under the map with the given columns."""
    zero = field.zero
    out = {}
    for s, xs in x.items():
        col = columns[s]
        for r, v in col.items():
            newv = field.add(out.get(r, zero), field.mul(xs, v))
            if newv == zero:
                out.pop(r, None)
            else:
                out[r] = newv
    return out


def coordinates(field, basis, keys, vec: dict) -> dict:
    """Coordinates {i: c_i} with vec = sum c_i basis[i], read off key columns.

    keys[i] is a column where basis[i] is 1 and every other basis vector is
    0, so c_i = vec[keys[i]] for any vec in the span.  The echelon supplies
    two such bases:

    - RREF rows (`Echelon.row_vectors`) keyed by their pivots: a row is 1 at
      its pivot and no pivot lies in another row's support.
    - Kernel vectors (`Echelon.kernel_basis`, `kernel_of_columns`) keyed by
      their free column f, which is their largest column: the vector for f
      is 1 at f and carries -row_p[f] at each pivot p whose row contains f,
      and p < f because a pivot is the smallest column of its row.  Its
      support holds no other free column, so every other kernel vector is 0
      at f.

    Membership is checked by rebuilding vec from the coordinates, so what is
    returned is exact: a vector outside the span, or keys that read wrong
    coordinates, raise ValueError.
    """
    coords = {i: vec[k] for i, k in enumerate(keys) if k in vec}
    if matrix_times_vector(field, basis, coords) != vec:
        raise ValueError("vector not in span")
    return coords


def determinant(field, matrix):
    """Determinant of a dense square matrix (list of lists) by elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    zero = field.zero
    det = field.one
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != zero:
                piv = r
                break
        if piv is None:
            return zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for r in range(c + 1, n):
            if m[r][c] == zero:
                continue
            f = field.mul(m[r][c], inv)
            for cc in range(c, n):
                m[r][cc] = field.sub(m[r][cc], field.mul(f, m[c][cc]))
    return det
