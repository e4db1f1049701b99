"""Exact rational linear algebra: eliminations, kernels, solvers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdga import linalg
from sdga.model import ChainMap, Complex


def random_matrix(rng, rows, cols, span=4):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


# dense rows are the tests' own form: linalg takes sparse rows and blocks


def sparse_rows(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense_row(row, ncols):
    vec = [Fraction(0)] * ncols
    for j, x in row.items():
        vec[j] = x
    return vec


def dense_rows(rows, ncols):
    return [dense_row(row, ncols) for row in rows]


def block_of(mat, ncols):
    """The sparse columns of a dense matrix with ncols columns."""
    return [{r: row[j] for r, row in enumerate(mat) if row[j]} for j in range(ncols)]


def dense_of(block, nrows):
    return [[col.get(r, Fraction(0)) for col in block] for r in range(nrows)]


def dense_mat_vec(mat, vec):
    return [sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0)) for row in mat]


def assert_entry_form(rows, name=""):
    """linalg's entry contract: an int when integral, otherwise a Fraction;
    never a float, a bool or a stored zero."""
    for row in rows:
        for x in row.values():
            assert type(x) in (int, Fraction), (name, x)
            assert x, (name, x)
            assert type(x) is int or x.denominator != 1, (name, x)


def test_rref_identity():
    reduced, pivots = linalg.rref([{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}])
    assert reduced == [{0: 1}, {1: 1}, {2: 1}]
    assert pivots == [0, 1, 2]


def test_rank_of_rank_one_matrix():
    mat = [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]
    mat = [[Fraction(x) for x in row] for row in mat]
    assert linalg.rank(sparse_rows(mat)) == 1


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_annihilates(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    mat = random_matrix(rng, rows, cols)
    basis = linalg.nullspace(sparse_rows(mat), cols)
    assert len(basis) == cols - linalg.rank(sparse_rows(mat))
    assert_entry_form(basis)
    for vec in basis:
        assert all(x == 0 for x in dense_mat_vec(mat, dense_row(vec, cols)))


def test_nullspace_of_zero_row_matrix_needs_explicit_columns():
    """A 0 x n matrix has no rows to infer n from; the kernel is everything."""
    basis = linalg.nullspace([], 3)
    assert len(basis) == 3


@pytest.mark.parametrize("seed", range(10))
def test_solve_reproduces_rhs(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    mat = random_matrix(rng, rows, cols)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
    rhs = dense_mat_vec(mat, x)
    sol, cert = linalg.solve_with_certificate(sparse_rows(mat), rhs, cols)
    assert cert["consistent"]
    assert dense_mat_vec(mat, dense_row(sol, cols)) == rhs


def test_solve_certificate_on_inconsistent_system():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}]
    sol, cert = linalg.solve_with_certificate(rows, [Fraction(1), Fraction(3)], 2)
    assert sol is None
    assert cert["consistent"] is False
    assert cert["rank"] < cert["rank_augmented"]


def test_row_span_counts_new_directions():
    span = linalg.RowSpan()
    assert span.add({0: Fraction(1)})
    assert not span.add({0: Fraction(2)})
    assert span.add({1: Fraction(1), 2: Fraction(1)})
    assert not span.add({})
    assert span.dim == 2


def test_quotient_representatives():
    image = [{0: Fraction(1), 1: Fraction(1)}]
    kernel = [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    reps = linalg.quotient_representatives(kernel, image)
    assert reps == [{2: Fraction(1)}]


def test_mat_mul_through_zero_dimension_degenerates():
    """A product through a zero-dimensional middle space is the zero block
    with one column per column of the right factor: a block keeps its column
    count, so the product keeps its shape."""
    a = []            # 0 columns into a 1-dimensional space
    b = [{}, {}]      # 2 columns into a 0-dimensional space
    assert linalg.mat_mul(a, b) == [{}] * 2
    assert linalg.mat_mul([{0: Fraction(3)}], []) == []


@pytest.mark.parametrize("seed", range(5))
def test_mats_agree_is_entrywise_equality(seed):
    """Complexes and chain maps agree when their blocks are equal entry by
    entry: == on blocks, which never store a zero, and a missing block reads
    as the zero block."""
    rng = random.Random(200 + seed)
    mat = random_matrix(rng, 3, 3)
    dims = {(0, 0): 3, (1, 1): 3}
    source = Complex(dims, {})
    f = ChainMap(source, source, {(0, 0): block_of(mat, 3)})
    assert f == ChainMap(source, source, {(0, 0): block_of([row[:] for row in mat], 3)})
    bumped = [row[:] for row in mat]
    bumped[1][2] += 1
    assert f != ChainMap(source, source, {(0, 0): block_of(bumped, 3)})
    # a stored zero block and a missing one are the same map
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    assert ChainMap(source, source, {(1, 1): block_of(zero, 3)}) == ChainMap(source, source, {})
    # explicit zeros in a column are not stored, so == still sees equal maps
    assert ChainMap(source, source, {(0, 0): [{0: Fraction(0)}, {}, {}]}) == ChainMap(
        source, source, {})
    d = Complex(dims, {(0, 0): block_of(mat, 3)})
    assert d == Complex(dict(dims), {(0, 0): block_of([row[:] for row in mat], 3)})
    assert d != Complex(dims, {(0, 0): block_of(bumped, 3)})
    assert Complex(dims, {(0, 0): block_of(zero, 3)}) == Complex(dims, {})


# -- the sparse entry points against the dense elimination they replaced ------


def dense_rref_oracle(mat):
    """The dense Gauss-Jordan elimination linalg.rref used to run: every row
    update touches every entry.  Kept as the reference for the sparse kernel."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = Fraction(1, m[row][col])
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def oracle_rank(rows):
    return len(dense_rref_oracle(rows)[1])


def _entry(rng, density):
    """Zero with probability 1 - density, else a rational that is rarely 1."""
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))


def _fill(rng, nrows, ncols, density):
    return [[_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]


def oracle_panel(seed):
    """Named matrices for one seed: each shape and rank pattern the kernel
    must get right, as (name, matrix, ncols)."""
    rng = random.Random(7000 + seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
    yield "dense", _fill(rng, nrows, ncols, 1.0), ncols
    wide = rng.randint(10, 24)
    yield "very sparse", _fill(rng, rng.randint(6, 14), wide, 0.08), wide
    r = rng.randint(0, min(nrows, ncols))
    left, right = _fill(rng, nrows, r, 0.7), _fill(rng, r, ncols, 0.7)
    product = [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
                for j in range(ncols)] for i in range(nrows)]
    yield "rank deficient", product, ncols
    base = _fill(rng, rng.randint(1, 4), ncols, 0.6)
    dup = base + [[x * rng.choice([1, -2, Fraction(1, 3)]) for x in rng.choice(base)]
                  for _ in range(rng.randint(1, 4))]
    rng.shuffle(dup)
    yield "duplicate rows", dup, ncols
    holes = _fill(rng, nrows + 1, ncols + 1, 0.8)
    zero_row, zero_col = rng.randrange(nrows + 1), rng.randrange(ncols + 1)
    holes[zero_row] = [Fraction(0)] * (ncols + 1)
    for row in holes:
        row[zero_col] = Fraction(0)
    yield "zero row and column", holes, ncols + 1
    yield "0 x n", [], ncols
    yield "n x 0", [[] for _ in range(nrows)], 0
    # plain int input, and entries that make the fraction-free update scale
    # rows by the lcm of their denominators and divide out large contents
    yield "int entries", [[rng.randint(-3, 3) for _ in range(ncols)]
                          for _ in range(nrows)], ncols
    rationals = [0, 0, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 6), Fraction(-9, 4)]
    yield "non-integral", [[rng.choice(rationals) for _ in range(ncols)]
                           for _ in range(nrows + 1)], ncols
    big = [[rng.choice([0, rng.randint(-10**12, 10**12),
                        Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))])
             for _ in range(ncols)] for _ in range(nrows)]
    yield "large entries", big + [[x * 6 for x in rng.choice(big)]], ncols


def oracle_nullspace(mat, ncols):
    reduced, pivots = dense_rref_oracle(mat)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -reduced[r][free]
        basis.append(vec)
    return basis


def oracle_solve(mat, rhs, ncols):
    reduced, pivots = dense_rref_oracle([row + [b] for row, b in zip(mat, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = reduced[r][ncols]
    return sol


def compact_shuffled(rng, rows):
    """The nonzero rows only, out of order: the same row space, so the same
    reduced nonzero rows, pivots, rank and kernel."""
    out = [row for row in rows if row]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("seed", range(25))
def test_sparse_kernel_matches_dense_oracle(seed):
    rng = random.Random(seed)
    inconsistent = 0
    for name, mat, ncols in oracle_panel(seed):
        rows = sparse_rows(mat)
        reduced, pivots = linalg.rref(rows)
        assert rows == sparse_rows(mat), name
        assert (dense_rows(reduced, ncols), pivots) == dense_rref_oracle(mat), name
        assert_entry_form(reduced, name)
        compact = compact_shuffled(rng, rows)
        reduced_c, pivots_c = linalg.rref(compact)
        assert pivots_c == pivots, name
        assert [row for row in reduced_c if row] == [row for row in reduced if row], name
        assert linalg.rank(rows) == linalg.rank(compact) == oracle_rank(mat), name
        kernel = linalg.nullspace(rows, ncols)
        assert dense_rows(kernel, ncols) == oracle_nullspace(mat, ncols), name
        assert linalg.nullspace(compact, ncols) == kernel, name
        assert_entry_form(kernel, name)
        x = [_entry(rng, 0.7) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in mat]
        sol, cert = linalg.solve_with_certificate(rows, rhs, ncols)
        assert_entry_form([sol], name)
        if mat:
            assert dense_row(sol, ncols) == oracle_solve(mat, rhs, ncols), name
            assert dense_mat_vec(mat, dense_row(sol, ncols)) == rhs, name
            assert cert == {"rank": oracle_rank(mat), "rank_augmented": oracle_rank(mat),
                            "consistent": True}, name
        noise = [_entry(rng, 0.9) for _ in mat]
        sol, cert = linalg.solve_with_certificate(rows, noise, ncols)
        if mat:
            expected = oracle_solve(mat, noise, ncols)
            assert (sol if sol is None else dense_row(sol, ncols)) == expected, name
            assert_entry_form([sol or {}], name)
        aug_rank = oracle_rank([row + [b] for row, b in zip(mat, noise)])
        if aug_rank > oracle_rank(mat):
            inconsistent += 1
            assert sol is None, name
            assert cert == {"rank": aug_rank - 1, "rank_augmented": aug_rank,
                            "consistent": False}, name
    assert inconsistent, "the panel should hold an inconsistent system"


# -- rref against the column-order elimination it replaced ---------------------


def column_order_rref(rows):
    """The column-order Gauss-Jordan loop linalg.rref ran before it read out
    the basis linalg._add keeps: columns taken in order, a column's pivot the
    first remaining row with an entry there, on the same fraction-free row
    steps.  Kept as the oracle for rref."""
    rows = [linalg._primitive(row) for row in rows]
    end = 1 + max((max(row) for row in rows if row), default=-1)
    lead = [min(row, default=end) for row in rows]  # end marks a zero row
    pivots = []
    for top in range(len(rows)):
        col = min(lead[top:])
        if col == end:
            break
        found = lead.index(col, top)
        rows[top], rows[found] = rows[found], rows[top]
        lead[top], lead[found] = lead[found], lead[top]
        pivot = rows[top]
        for r, row in enumerate(rows):
            if r != top and col in row:
                linalg._eliminate(row, col, pivot)
                if r > top:
                    lead[r] = min(row, default=end)
        pivots.append(col)
    for top, col in enumerate(pivots):
        rows[top] = linalg._divided(rows[top], col)
    return rows, pivots


def typed(rows):
    """Each row's entries with their types, in column order."""
    return [sorted((j, x, type(x)) for j, x in row.items()) for row in rows]


def rref_panel(seed):
    """Named sparse systems for one seed: entries 1/2, -3/7 and 10**12+39,
    duplicate and dependent rows, zero rows and no rows at all."""
    rng = random.Random(4100 + seed)
    ncols = rng.randint(1, 10)
    values = [1, -1, 2, -6, Fraction(1, 2), Fraction(-3, 7), 10**12 + 39, -(10**12 + 39)]

    def row(density):
        return {j: rng.choice(values) for j in range(ncols) if rng.random() < density}

    def combination(rows):
        out = {}
        for r in rows:
            c = rng.choice([1, -2, Fraction(1, 2), Fraction(-3, 7), 10**12 + 39])
            for j, x in r.items():
                out[j] = out.get(j, 0) + c * x
        return {j: linalg.entry(x) for j, x in out.items() if x}

    base = [row(rng.choice([0.2, 0.5, 1.0])) for _ in range(rng.randint(1, 7))]
    yield "random", base
    dependent = base + [dict(rng.choice(base)) for _ in range(rng.randint(1, 3))]
    dependent += [combination(rng.sample(base, rng.randint(1, len(base))))
                  for _ in range(rng.randint(1, 4))]
    dependent += [{} for _ in range(rng.randint(1, 3))]
    rng.shuffle(dependent)
    yield "duplicate, dependent and zero rows", dependent
    yield "no rows", []
    yield "zero rows only", [{} for _ in range(rng.randint(1, 4))]
    yield "one wide row", [row(1.0)]


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_column_order_oracle(seed):
    """rref equals the column-order loop entry by entry and type by type (int
    or Fraction), on the rows as given and shuffled."""
    rng = random.Random(seed)
    for name, rows in rref_panel(seed):
        given = [dict(row) for row in rows]
        expected, pivots = column_order_rref(rows)
        reduced, got = linalg.rref(rows)
        assert rows == given, name
        assert (typed(reduced), got) == (typed(expected), pivots), name
        assert linalg.rank(rows) == len(pivots), name
        shuffled = rows[:]
        rng.shuffle(shuffled)
        reduced, got = linalg.rref(shuffled)
        assert (typed(reduced), got) == (typed(expected), pivots), name
        assert typed(column_order_rref(shuffled)[0]) == typed(expected), name


def naive_mat_mul(a, b):
    """Every product a[i][k] * b[k][j], zero or not, summed in k order."""
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def block_product(a, b, ncols):
    """a @ b for dense a and b, b with ncols columns, through blocks."""
    middle = len(b)
    return dense_of(linalg.mat_mul(block_of(a, middle), block_of(b, ncols)), len(a))


def product_oracle(a, b, ncols):
    """naive_mat_mul, with the shape a zero-dimensional middle loses written
    out: a dense matrix with no rows does not know its column count."""
    if not b:
        return [[Fraction(0)] * ncols for _ in a]
    return naive_mat_mul(a, b)


@pytest.mark.parametrize("seed", range(25))
def test_mat_mul_matches_naive_product(seed):
    rng = random.Random(900 + seed)
    for name, mat, ncols in oracle_panel(seed):
        k = rng.randint(1, 5)
        right = _fill(rng, ncols, k, rng.choice([0.2, 0.7]))
        assert block_product(mat, right, k) == product_oracle(mat, right, k), name
        left = _fill(rng, rng.randint(1, 5), len(mat), rng.choice([0.2, 0.7]))
        assert block_product(left, mat, ncols) == product_oracle(left, mat, ncols), name
        assert_entry_form(linalg.mat_mul(block_of(left, len(mat)), block_of(mat, ncols)), name)


@pytest.mark.parametrize("seed", range(25))
def test_row_span_matches_dense_oracle(seed):
    rng = random.Random(500 + seed)
    for name, mat, ncols in oracle_panel(seed):
        rows = sparse_rows(mat)
        span = linalg.RowSpan()
        for i, row in enumerate(rows):
            grew = oracle_rank(mat[: i + 1]) > oracle_rank(mat[:i])
            remainder = span.reduce(row)
            assert bool(remainder) == grew, name
            assert_entry_form([remainder], name)
            assert span.add(row) == grew, name
        assert rows == sparse_rows(mat), name
        assert_entry_form(span.rows, name)
        reduced, pivots = dense_rref_oracle(mat)
        assert span.dim == len(pivots), name
        basis = sorted(zip(span.pivots, span.rows))
        assert [piv for piv, _ in basis] == pivots, name
        for (piv, row), expected in zip(basis, reduced):
            assert dense_row(row, ncols) == expected, name
        cut = rng.randint(0, len(mat))
        image, kernel = mat[:cut], mat[cut:]
        chosen = []
        for vec in kernel:
            if oracle_rank(image + chosen + [vec]) > oracle_rank(image + chosen):
                chosen.append(vec)
        reps = linalg.quotient_representatives(rows[cut:], rows[:cut])
        assert reps == sparse_rows(chosen), name
        assert all(x for row in reps for x in row.values()), name
        # the image only matters through its span
        image_c = compact_shuffled(rng, rows[:cut])
        assert linalg.quotient_representatives(rows[cut:], image_c) == reps, name


def test_entry_form_of_exact_scalars():
    """entry() gives an int where a scalar is integral.  str, == and hash
    agree between n and Fraction(n), so an int where a Fraction used to be
    moves no report, block comparison or dict lookup."""
    assert [linalg.entry(x) for x in (3, Fraction(6, 2), True, "4/2", 0.5, "-3/7")] == [
        3, 3, 1, 2, Fraction(1, 2), Fraction(-3, 7)]
    assert [type(linalg.entry(x)) for x in (Fraction(6, 2), True, 0.5, "-3/7")] == [
        int, int, Fraction, Fraction]
    for n in (0, 1, -1, 7, -12, 10**30, -(10**30)):
        assert str(n) == str(Fraction(n))
        assert n == Fraction(n)
        assert hash(n) == hash(Fraction(n))
