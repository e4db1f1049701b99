"""Exact linear algebra over the rationals.

Everything works in one form: sparse rows, dicts from column to nonzero
entry, so a zero is never stored, scanned, multiplied or negated.  An entry
is in the one scalar form of sdga, the form `core.as_scalar` gives: an
`int` when it is integral and a `Fraction` otherwise, never a float, a bool
or a stored zero.  One routine, `_add`, eliminates: it reduces rows against
a fully reduced basis keyed by pivot column, and says which of the rows
grew it.  `rref` reads one out by pivot, `rank` counts the rows that grew
it, `nullspace` and `solve_with_certificate` read `rref`, and
`quotient_representatives`, the reference for the picks by `kernel`'s image
ends, grows a `RowSpan` to pick the rows independent modulo a span.  Each
takes sparse rows; a sparse row does not know its width, so the functions
that need the column count take it as `ncols`.

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
a block's kernel and, from the same elimination, the rows where its image
ends, and `rank(block)` is the block's rank as it stands, since column rank
equals row rank.  Every pivot decision is exact, so ranks, kernels and
solutions carry no floating-point doubt.
"""

from __future__ import annotations

from math import gcd, lcm

from .core import _as_scalars, _quotient

SparseRow = dict[int, "int | Fraction"]  # column -> nonzero entry
Block = list[SparseRow]  # column j -> the image of source basis vector j
Basis = dict[int, dict[int, int]]  # pivot column -> primitive integer row


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
    return _as_scalars(out)


def mat_mul(a: Block, b: Block) -> Block:
    """The block of a after b; it has one column per column of b."""
    return [apply(a, col) for col in b]


def transpose(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """The ncols columns of a sparse matrix as sparse rows, zero ones included."""
    out: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


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
    """row / row[col], each entry an exact quotient."""
    a = row[col]
    if a == 1:
        return row
    return {j: _quotient(x, a) for j, x in row.items()}


def _add(basis: Basis, rows: list[SparseRow]) -> list[int]:
    """Grow basis by rows; returns the positions of the rows that grew the
    span.  A row is reduced at the pivots it holds; a nonzero remainder's
    leftmost column is its pivot, cleared from the basis rows holding it,
    so each basis row has nothing left of its pivot and 0 at the others."""
    grew = []
    for i, row in enumerate(rows):
        v = _primitive(row) if row else {}  # a zero row adds nothing
        for col in [col for col in v if col in basis]:  # no pivot entry appears
            _eliminate(v, col, basis[col])
        if v:
            col = min(v)
            for other in basis.values():
                if col in other:
                    _eliminate(other, col, v)
            basis[col] = v
            grew.append(i)
    return grew


def rref(rows: list[SparseRow]) -> tuple[list[SparseRow], list[int], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column list,
    positions of the rows that grew the span).

    The input rows are not modified.  The result has as many rows as the
    input, the zero rows ({}) last.  It is the basis `_add` keeps, read out
    by pivot and divided by the pivot entries: a row space has one reduced
    echelon form, so the order in which rows are added changes nothing but
    the positions.
    """
    basis: Basis = {}
    grew = _add(basis, rows)
    pivots = sorted(basis)
    reduced = [_divided(basis[col], col) for col in pivots]
    return reduced + [{} for _ in range(len(rows) - len(pivots))], pivots, grew


def rank(rows: list[SparseRow]) -> int:
    return len(_add({}, rows))


def kernel(block: Block, nrows: int) -> tuple[list[SparseRow], set[int]]:
    """The nullspace of a block's rows, nrows the block's target dimension,
    and the rows where its image ends: added last first, row r grows the
    span exactly when some image vector's last nonzero entry is at r."""
    vectors, grew = nullspace(transpose(block, nrows)[::-1], len(block))
    return vectors, {nrows - 1 - i for i in grew}


def nullspace(rows: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Basis of the right kernel {x : rows @ x = 0} in ncols unknowns, and
    the positions of the rows that grew the row span.

    One vector per free column, in column order: 1 at the free column and
    minus the reduced rows' entries there at their pivots.  A reduced row's
    entries off its pivot all sit in free columns, right of its pivot, so a
    vector's free column is its largest key and no other vector is nonzero
    there.
    """
    reduced, pivots, grew = rref(rows)
    pivot_set = set(pivots)
    basis = {free: {free: 1} for free in range(ncols) if free not in pivot_set}
    for row, col in zip(reduced, pivots):
        for free, x in row.items():
            if free != col:
                basis[free][col] = -x
    return list(basis.values()), grew


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
    reduced, pivots, _ = rref(aug)
    rank_aug = len(pivots)
    if pivots and pivots[-1] == ncols:
        cert = {"rank": rank_aug - 1, "rank_augmented": rank_aug, "consistent": False}
        return None, cert
    sol = {col: row[ncols] for row, col in zip(reduced, pivots) if ncols in row}
    cert = {"rank": rank_aug, "rank_augmented": rank_aug, "consistent": True}
    return sol, cert


class RowSpan:
    """A row space grown one row at a time: `add` says whether the row
    enlarged it.  Only `quotient_representatives` grows one; perfbench/tracer.py
    counts the rows it takes by wrapping `add`."""

    def __init__(self):
        self._basis: Basis = {}

    def add(self, row: SparseRow) -> bool:
        return bool(_add(self._basis, [row]))


def quotient_representatives(rows: list[SparseRow], image: list[SparseRow]) -> list[int]:
    """The positions, in order, of the rows independent modulo span(image)
    and the rows chosen before them: their classes are a basis of the
    rows' span modulo the image's."""
    span = RowSpan()
    for row in image:
        span.add(row)
    return [i for i, row in enumerate(rows) if span.add(row)]
