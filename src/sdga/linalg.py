"""Exact linear algebra over the rationals.

Elimination works in one form: sparse rows, dicts from column to nonzero
`Fraction`, so a zero is never stored, scanned, multiplied or negated.
`rref` is the one elimination kernel: `rank`, `nullspace` and
`solve_with_certificate` read its result, and `RowSpan` keeps its basis in
the same sparse rows and reduces with the same row update.  Each takes
sparse rows and returns sparse rows; a sparse row does not know its width,
so the functions that need the column count take it as `ncols`.

Dense matrices (lists of rows of Fractions) remain for `model`'s chain
complex blocks: `zeros`, `identity`, `mat_vec`, `mat_mul` and `mats_agree`
work on them, and `sparse`/`dense` convert one row at the caller's boundary.
A dense matrix represents a linear map column-wise: column j is the image of
the j-th source basis vector.  Every pivot decision is exact, so ranks,
kernels and solutions carry no floating-point doubt.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]
SparseRow = dict[int, Fraction]  # column -> nonzero entry

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = ONE
    return mat


def mat_vec(mat: Matrix, vec: Vector) -> Vector:
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in mat]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    cols = len(b[0]) if b else 0
    # each row of b once, as (column, entry) pairs of its nonzero entries
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = zeros(len(a), cols)
    for row, orow in zip(a, out):
        for k, brow in enumerate(b_rows):
            aik = row[k]
            if aik:
                for j, x in brow:
                    orow[j] += aik * x
    return out


def mats_agree(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality with missing rows and columns read as zero.

    Products through a zero-dimensional space degenerate to [] or [[]] and
    lose their nominal shape; as linear maps they are still zero, and this
    comparison treats them that way.
    """
    for i in range(max(len(a), len(b))):
        row_a = a[i] if i < len(a) else []
        row_b = b[i] if i < len(b) else []
        for j in range(max(len(row_a), len(row_b))):
            va = row_a[j] if j < len(row_a) else ZERO
            vb = row_b[j] if j < len(row_b) else ZERO
            if va != vb:
                return False
    return True


def sparse(vec: Vector) -> SparseRow:
    """The nonzero entries of a dense vector."""
    return {j: x for j, x in enumerate(vec) if x}


def dense(row: SparseRow, ncols: int) -> Vector:
    """A sparse row written out; every zero is the shared ZERO."""
    vec = [ZERO] * ncols
    for j, x in row.items():
        vec[j] = x
    return vec


def transpose(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """The ncols columns of a sparse matrix as sparse rows; zero ones left out."""
    out: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return [row for row in out if row]


def _normalized(row: SparseRow, col: int) -> SparseRow:
    """row scaled so that its entry in col is 1."""
    inv = ONE / row[col]
    return {j: x * inv for j, x in row.items()}


def _subtract_multiple(row: SparseRow, factor: Fraction, pivot: SparseRow) -> None:
    """row -= factor * pivot, in place; entries that cancel are dropped."""
    neg = -factor
    for j, x in pivot.items():
        y = row.get(j)
        if y is None:
            row[j] = neg * x
        else:
            y += neg * x
            if y:
                row[j] = y
            else:
                del row[j]


def rref(rows: list[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list).

    The input rows are not modified.  The result has as many rows as the
    input, the zero rows ({}) last.  Columns are taken in order, and a
    column's pivot is the first remaining row with an entry there.  A
    remaining row has no entry left of the column being eliminated, so its
    leading column says whether it qualifies, and only rows that held the
    pivot column need their lead read again.
    """
    rows = [dict(row) for row in rows]
    end = 1 + max((max(row) for row in rows if row), default=-1)
    lead = [min(row, default=end) for row in rows]  # end marks a zero row
    pivots: list[int] = []
    for top in range(len(rows)):
        col = min(lead[top:])
        if col == end:
            break
        found = lead.index(col, top)
        rows[top], rows[found] = rows[found], rows[top]
        lead[top], lead[found] = lead[found], lead[top]
        pivot = rows[top] = _normalized(rows[top], col)
        for r, row in enumerate(rows):
            if r != top and col in row:
                _subtract_multiple(row, row[col], pivot)
                if r > top:
                    lead[r] = min(row, default=end)
        pivots.append(col)
    return rows, pivots


def rank(rows: list[SparseRow]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel {x : rows @ x = 0} in ncols unknowns.

    One vector per free column, in column order: 1 at the free column and
    minus the reduced rows' entries there at their pivots.  A reduced row's
    entries off its pivot all sit in free columns.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {free: {free: ONE} for free in range(ncols) if free not in pivot_set}
    for row, col in zip(reduced, pivots):
        for free, x in row.items():
            if free != col:
                basis[free][col] = -x
    return list(basis.values())


def solve_with_certificate(rows: list[SparseRow], rhs: Vector,
                           ncols: int) -> tuple[SparseRow | None, dict]:
    """Solve rows @ x = rhs in ncols unknowns, with its rank certificate.

    The right-hand side is column ncols of the augmented rows; the solution
    is the reduced right-hand side at the pivots, every free unknown 0.
    """
    aug = [dict(row) for row in rows]
    for row, b in zip(aug, rhs):
        if b:
            row[ncols] = b
    reduced, pivots = rref(aug)
    rank_aug = len(pivots)
    if pivots and pivots[-1] == ncols:
        cert = {"rank": rank_aug - 1, "rank_augmented": rank_aug, "consistent": False}
        return None, cert
    sol = {col: row[ncols] for row, col in zip(reduced, pivots) if ncols in row}
    cert = {"rank": rank_aug, "rank_augmented": rank_aug, "consistent": True}
    return sol, cert


class RowSpan:
    """Incrementally maintained row space with exact reduction.

    add() returns True when the row enlarged the span, which makes it handy
    both for rank bookkeeping and for picking representatives independent of a
    previously seeded subspace.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[SparseRow] = []
        self.pivots: list[int] = []

    def reduce(self, row: SparseRow) -> SparseRow:
        """row minus its component in the span, as a new sparse row."""
        v = dict(row)
        for basis_row, piv in zip(self.rows, self.pivots):
            if piv in v:
                _subtract_multiple(v, v[piv], basis_row)
        return v

    def add(self, row: SparseRow) -> bool:
        v = self.reduce(row)
        if not v:
            return False
        piv = min(v)
        v = _normalized(v, piv)
        for basis_row in self.rows:
            if piv in basis_row:
                _subtract_multiple(basis_row, basis_row[piv], v)
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def quotient_representatives(kernel: list[SparseRow], image: list[SparseRow],
                             ncols: int) -> list[SparseRow]:
    """Rows of `kernel` that are independent modulo span(image)."""
    span = RowSpan(ncols)
    for row in image:
        span.add(row)
    return [row for row in kernel if span.add(row)]
