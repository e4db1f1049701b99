"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  A matrix represents a linear map
column-wise: column j is the image of the j-th source basis vector.  Every
pivot decision is exact, so ranks, kernels and solutions carry no
floating-point doubt.

Elimination stores rows sparse, as dicts from column to nonzero entry, so a
zero is never stored, multiplied or subtracted.  `rref` is the one
elimination kernel: `rank`, `nullspace` and `solve_with_certificate` read its
result, and `RowSpan` keeps its basis in the same sparse rows and reduces
with the same row update.
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


def _sparse(vec: Vector) -> SparseRow:
    return {j: x for j, x in enumerate(vec) if x}


def _dense(row: SparseRow, ncols: int) -> Vector:
    vec = [ZERO] * ncols
    for j, x in row.items():
        vec[j] = x
    return vec


def _normalized(row: SparseRow, col: int) -> SparseRow:
    """row scaled so that its entry in col is 1."""
    inv = ONE / row[col]
    return {j: x * inv for j, x in row.items()}


def _subtract_multiple(row: SparseRow, factor: Fraction, pivot: SparseRow) -> None:
    """row -= factor * pivot, in place; entries that cancel are dropped."""
    for j, x in pivot.items():
        y = row.get(j)
        if y is None:
            row[j] = -factor * x
        else:
            y -= factor * x
            if y:
                row[j] = y
            else:
                del row[j]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    Columns are taken in order, and a column's pivot is the first remaining
    row with a nonzero entry there.  A remaining row has no entry left of the
    column being eliminated, so its leading column says whether it qualifies,
    and only rows that held the pivot column need their lead read again.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rows = [_sparse(vec) for vec in mat]
    lead = [min(row, default=ncols) for row in rows]  # ncols marks a zero row
    pivots: list[int] = []
    for top in range(nrows):
        col = min(lead[top:])
        if col == ncols:
            break
        found = lead.index(col, top)
        rows[top], rows[found] = rows[found], rows[top]
        lead[top], lead[found] = lead[found], lead[top]
        pivot = rows[top] = _normalized(rows[top], col)
        for r, row in enumerate(rows):
            if r != top and col in row:
                _subtract_multiple(row, row[col], pivot)
                if r > top:
                    lead[r] = min(row, default=ncols)
        pivots.append(col)
    return [_dense(row, ncols) for row in rows], pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {x : mat @ x = 0}.

    Pass ncols explicitly when mat may have zero rows; a 0 x n matrix is just
    [] as a list of rows and would otherwise read as 0 x 0.
    """
    nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [unit_vector(ncols, j) for j in range(ncols)]
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, col in enumerate(pivots):
            vec[col] = -reduced[r][free]
        basis.append(vec)
    return basis


def unit_vector(n: int, j: int) -> Vector:
    vec = [ZERO] * n
    vec[j] = ONE
    return vec


def solve(mat: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of mat @ x = rhs, or None when inconsistent."""
    sol, _ = solve_with_certificate(mat, rhs)
    return sol


def solve_with_certificate(mat: Matrix, rhs: Vector) -> tuple[Vector | None, dict]:
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(nrows)]
    reduced, pivots = rref(aug)
    rank_aug = len(pivots)
    if pivots and pivots[-1] == ncols:
        cert = {"rank": rank_aug - 1, "rank_augmented": rank_aug, "consistent": False}
        return None, cert
    sol = [ZERO] * ncols
    for r, col in enumerate(pivots):
        sol[col] = reduced[r][ncols]
    cert = {"rank": rank_aug, "rank_augmented": rank_aug, "consistent": True}
    return sol, cert


class RowSpan:
    """Incrementally maintained row space with exact reduction.

    add() returns True when the vector enlarged the span, which makes it handy
    both for rank bookkeeping and for picking representatives independent of a
    previously seeded subspace.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[SparseRow] = []
        self.pivots: list[int] = []

    def reduce(self, vec: Vector) -> SparseRow:
        """vec minus its component in the span, as a sparse row."""
        v = _sparse(vec)
        for row, piv in zip(self.rows, self.pivots):
            if piv in v:
                _subtract_multiple(v, v[piv], row)
        return v

    def add(self, vec: Vector) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        v = _normalized(v, piv)
        for row in self.rows:
            if piv in row:
                _subtract_multiple(row, row[piv], v)
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def quotient_representatives(kernel: list[Vector], image: list[Vector], ncols: int) -> list[Vector]:
    """Vectors from `kernel` that are independent modulo span(image)."""
    span = RowSpan(ncols)
    for vec in image:
        span.add(vec)
    reps: list[Vector] = []
    for vec in kernel:
        if span.add(vec):
            reps.append(vec)
    return reps
