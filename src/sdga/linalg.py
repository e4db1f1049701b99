"""Exact linear algebra over the rationals.

Everything works in one form: sparse rows, dicts from column to nonzero
`Fraction`, so a zero is never stored, scanned, multiplied or negated.
`rref` is the one elimination kernel: `rank`, `nullspace` and
`solve_with_certificate` read its result, and `RowSpan` keeps its basis in
the same sparse rows and reduces with the same row update.  Each takes
sparse rows and returns sparse rows; a sparse row does not know its width,
so the functions that need the column count take it as `ncols`.

A linear map is a `Block`: a list of sparse columns, one per source basis
vector, column j the image of basis vector j in target coordinates.  Its
length is the source dimension; the target dimension is the caller's to
know.  `apply` and `mat_mul` act with blocks, `transpose(block, nrows)` gives
a block's rows for elimination, and `rank(block)` is the block's rank as it
stands, since column rank equals row rank.  Every pivot decision is exact,
so ranks, kernels and solutions carry no floating-point doubt.
"""

from __future__ import annotations

from fractions import Fraction

SparseRow = dict[int, Fraction]  # column -> nonzero entry
Block = list[SparseRow]  # column j -> the image of source basis vector j

ZERO = Fraction(0)
ONE = Fraction(1)


def apply(block: Block, vec: SparseRow) -> SparseRow:
    """block @ vec: the combination of the block's columns that vec names."""
    out: SparseRow = {}
    for j, x in vec.items():
        _add_multiple(out, x, block[j])
    return out


def mat_mul(a: Block, b: Block) -> Block:
    """The block of a after b; it has one column per column of b."""
    return [apply(a, col) for col in b]


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


def _add_multiple(row: SparseRow, factor: Fraction, other: SparseRow) -> None:
    """row += factor * other, in place; entries that cancel are dropped."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = factor * x
        else:
            y += factor * x
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
                _add_multiple(row, -row[col], pivot)
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


def solve_with_certificate(rows: list[SparseRow], rhs: list[Fraction],
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
                _add_multiple(v, -v[piv], basis_row)
        return v

    def add(self, row: SparseRow) -> bool:
        v = self.reduce(row)
        if not v:
            return False
        piv = min(v)
        v = _normalized(v, piv)
        for basis_row in self.rows:
            if piv in basis_row:
                _add_multiple(basis_row, -basis_row[piv], v)
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
