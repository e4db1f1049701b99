"""Exact linear algebra over the rationals.

Everything works in one form: sparse rows, dicts from column to nonzero
entry, so a zero is never stored, scanned, multiplied or negated.  An entry
is an `int` when it is integral and a `Fraction` otherwise; it is never a
float, a bool or a stored zero, and `entry` puts any exact scalar in that
form.  One routine, `_add`, eliminates: it reduces rows against a fully
reduced basis keyed by pivot column.  `RowSpan` is such a basis, `rref`
reads one out by pivot, `rank` counts it, and `nullspace` and
`solve_with_certificate` read `rref`.  Each takes sparse rows and returns
sparse rows; a sparse row does not know its width, so the functions that
need the column count take it as `ncols`.

Elimination is fraction-free.  Each row is first scaled to a primitive
integer row: times the lcm of its denominators, then divided by its content
(the gcd of its entries).  A row with entry b in the pivot column is updated
as row <- (a/g) row - (b/g) pivot, a the pivot's entry there and
g = gcd(a, b), and divided by its content again.  Each row so stays a
nonzero multiple of the row a `Fraction` elimination would hold, with the
same support, so the pivots are the same; the reduced rows are divided by
their pivot entries only at the end (Bareiss, Math. Comp. 1968; Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 9).

A linear map is a `Block`: a list of sparse columns, one per source basis
vector, column j the image of basis vector j in target coordinates.  Its
length is the source dimension; the target dimension is the caller's to
know.  `apply` and `mat_mul` act with blocks, `kernel(block, nrows)` gives
a block's kernel, and `rank(block)` is the block's rank as it stands, since
column rank equals row rank.  Every pivot decision is exact,
so ranks, kernels and solutions carry no floating-point doubt.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SparseRow = dict[int, int | Fraction]  # column -> nonzero entry
Block = list[SparseRow]  # column j -> the image of source basis vector j
Basis = dict[int, dict[int, int]]  # pivot column -> primitive integer row


def entry(x) -> int | Fraction:
    """The exact scalar x as an entry: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def apply(block: Block, vec: SparseRow) -> SparseRow:
    """block @ vec: the combination of the block's columns that vec names."""
    out: SparseRow = {}
    for j, x in vec.items():
        for r, y in block[j].items():
            z = out.get(r)
            if z is None:
                out[r] = x * y
            else:
                z += x * y
                if z:
                    out[r] = z
                else:
                    del out[r]
    for r, z in out.items():
        if type(z) is not int and z.denominator == 1:
            out[r] = z.numerator
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


def _divide_content(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _primitive(row: SparseRow) -> dict[int, int]:
    """The primitive integer row on the line of row, as a new row."""
    den = lcm(*(x.denominator for x in row.values() if type(x) is not int))
    if den == 1:
        return _divide_content({j: int(x) for j, x in row.items()})
    return _divide_content({j: x.numerator * (den // x.denominator)
                            for j, x in row.items()})


def _eliminate(row: dict[int, int], col: int, pivot: dict[int, int]) -> None:
    """row <- (a/g) row - (b/g) pivot, a = pivot[col], b = row[col] and
    g = gcd(a, b), in place and divided by its content; col drops out."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    s, t = a // g, b // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, x in pivot.items():
        y = row.get(j)
        if y is None:
            row[j] = -t * x
        else:
            y -= t * x
            if y:
                row[j] = y
            else:
                del row[j]
    _divide_content(row)


def _divided(row: dict[int, int], col: int) -> SparseRow:
    """row / row[col], each entry an int where the division is exact."""
    a = row[col]
    if a == 1:
        return row
    return {j: x // a if x % a == 0 else Fraction(x, a) for j, x in row.items()}


def _reduce(basis: Basis, row: SparseRow) -> dict[int, int]:
    """`RowSpan.reduce` against basis."""
    v = _primitive(row)
    for col in [col for col in v if col in basis]:  # no pivot entry appears
        _eliminate(v, col, basis[col])
    return v


def _add(basis: Basis, rows: list[SparseRow]) -> int:
    """Grow basis by rows; returns how many grew the span.  A remainder's
    leftmost column is its pivot, cleared from the basis rows holding it, so
    each basis row has nothing left of its pivot and 0 at the others."""
    grew = 0
    for row in rows:
        v = _reduce(basis, row)
        if v:
            col = min(v)
            for other in basis.values():
                if col in other:
                    _eliminate(other, col, v)
            basis[col] = v
            grew += 1
    return grew


def rref(rows: list[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list).

    The input rows are not modified.  The result has as many rows as the
    input, the zero rows ({}) last.  It is the basis `_add` keeps, read out
    by pivot and divided by the pivot entries: a row space has one reduced
    echelon form, so the order in which rows are added changes nothing.
    """
    basis: Basis = {}
    _add(basis, rows)
    pivots = sorted(basis)
    reduced = [_divided(basis[col], col) for col in pivots]
    return reduced + [{} for _ in range(len(rows) - len(pivots))], pivots


def rank(rows: list[SparseRow]) -> int:
    return _add({}, rows)


def kernel(block: Block, nrows: int) -> list[SparseRow]:
    """The nullspace of a block's rows, nrows the block's target dimension."""
    return nullspace(transpose(block, nrows), len(block))


def nullspace(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel {x : rows @ x = 0} in ncols unknowns.

    One vector per free column, in column order: 1 at the free column and
    minus the reduced rows' entries there at their pivots.  A reduced row's
    entries off its pivot all sit in free columns.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {free: {free: 1} for free in range(ncols) if free not in pivot_set}
    for row, col in zip(reduced, pivots):
        for free, x in row.items():
            if free != col:
                basis[free][col] = -x
    return list(basis.values())


def solve_with_certificate(rows: list[SparseRow], rhs: list[int | Fraction],
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
    previously seeded subspace.  `_add` keeps the basis; `pivots` and `rows`
    read it out in the order added, the rows divided by their pivot entries.
    """

    def __init__(self):
        self._basis: Basis = {}

    def reduce(self, row: SparseRow) -> dict[int, int]:
        """A nonzero multiple of row minus its component in the span, as a
        new primitive integer row; {} when row lies in the span."""
        return _reduce(self._basis, row)

    def add(self, row: SparseRow) -> bool:
        return _add(self._basis, [row]) == 1

    @property
    def pivots(self) -> list[int]:
        return list(self._basis)

    @property
    def rows(self) -> list[SparseRow]:
        """The basis rows in the order added, each 1 at its pivot."""
        return [_divided(dict(row), piv) for piv, row in self._basis.items()]

    @property
    def dim(self) -> int:
        return len(self._basis)


def quotient_representatives(kernel: list[SparseRow],
                             image: list[SparseRow]) -> list[SparseRow]:
    """Rows of `kernel` that are independent modulo span(image)."""
    span = RowSpan()
    for row in image:
        span.add(row)
    return [row for row in kernel if span.add(row)]
