"""Seeded random fixtures that several test modules share.

sdga itself never calls these: they build the random pairs of homogeneous
elements and the random complexes and chain maps of the property panels.
Every generator is driven by a caller-supplied random.Random instance, so a
panel is reproducible from its seed.  Beside them sit the fixed algebra and
the dense-matrix helpers that more than one test module reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sdga import linalg
from sdga.core import EVEN, ODD, AlgebraError, Element, Generator, GeneratorTable
from sdga.dg import DGAlgebra, Derivation
from sdga.model import (
    ChainMap,
    Complex,
    _chain_equations,
    _unflatten,
    _unknowns,
    direct_sum,
    disk_complex,
    sphere_complex,
    zero_complex,
)
from sdga.sampling import random_homogeneous


def line_dga() -> DGAlgebra:
    """Q[x, xi] with dx = xi, the free acyclic algebra on one even cell."""
    tab = GeneratorTable([Generator("x", 0, 0), Generator("xi", 1, 1)])
    d = Derivation(tab, {"x": Element.generator(tab, "xi")}, 1, 1)
    return DGAlgebra(tab, d)


# dense rows are the tests' own form: linalg takes sparse rows and blocks


def sparse_rows(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense_block(block, nrows):
    """A block of sparse columns written out as dense rows."""
    return [[col.get(r, Fraction(0)) for col in block] for r in range(nrows)]


def assert_entry_form(values, where=None):
    """Each value in sdga's one scalar form, the form `core.as_scalar` gives:
    an int when integral, else a Fraction, and nonzero.  A float, a bool, a
    zero or a Fraction with denominator 1 fails."""
    for x in values:
        assert type(x) is int or type(x) is Fraction and x.denominator != 1, (where, x)
        assert x, (where, x)


def random_homogeneous_pair(rng: random.Random, table: GeneratorTable,
                            weight_range: tuple[int, int] = (0, 3),
                            cap: int = 4) -> tuple[Element, Element]:
    """Two nonzero random homogeneous elements of independently drawn
    bidegrees.  Raises when 50 draws find no pair: a caller whose slices are
    mostly empty must narrow weight_range rather than test a fallback."""
    for _ in range(50):
        w1 = rng.randint(*weight_range)
        w2 = rng.randint(*weight_range)
        p1 = rng.randint(0, 1)
        p2 = rng.randint(0, 1)
        a = random_homogeneous(rng, table, w1, p1, cap)
        b = random_homogeneous(rng, table, w2, p2, cap)
        if not a.is_zero() and not b.is_zero():
            return a, b
    raise ValueError(f"no pair of nonzero homogeneous elements in 50 draws "
                     f"over weights {weight_range}")


def window_tables(rng: random.Random):
    """Named generator tables for the window walk and the differential
    blocks built on it: odd only, even only, mixed signs, Koszul-style pairs
    of an even generator of weight 0 and an odd one of weight 1 (every
    weight space infinite), and the empty table."""
    def table(specs):
        return GeneratorTable([Generator(f"g{i}", w, p) for i, (w, p) in enumerate(specs)])

    def draw(n, weights, parities=(EVEN, ODD)):
        return [(rng.choice(weights), rng.choice(parities)) for _ in range(n)]

    yield "odd only", table(draw(rng.randint(1, 5), range(-2, 4), (ODD,)))
    yield "even only", table(draw(rng.randint(1, 3), [-2, -1, 1, 2, 3], (EVEN,)))
    yield "mixed signs", table(draw(rng.randint(2, 4), range(-3, 4)))
    koszul = [(0, EVEN), (1, ODD)] * rng.randint(1, 2) + draw(rng.randint(0, 1), range(1, 3))
    yield "weight-0 even", table(koszul)
    yield "empty", table([])


def random_invertible(rng: random.Random, n: int) -> linalg.Block:
    """Random row additions on the identity, then the rows shuffled."""
    rows = [{i: 1} for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        lam = rng.randint(-2, 2)
        if lam == 0:
            continue
        rows[a] = linalg.apply([rows[a], rows[b]], {0: 1, 1: lam})
    order = list(range(n))
    rng.shuffle(order)
    # the matrix with these rows, as the block of its columns
    return linalg.transpose([rows[i] for i in order], n)


def invert_matrix(block: linalg.Block) -> linalg.Block:
    # row i of [M^T | I] reduces to row i of [I | (M^-1)^T], column i of M^-1
    n = len(block)
    aug = [col | {n + i: 1} for i, col in enumerate(block)]
    reduced, pivots, _ = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise AlgebraError("matrix is not invertible")
    return [{j - n: x for j, x in row.items() if j >= n} for row in reduced]


def random_complex(rng: random.Random, max_cells: int = 3,
                   weight_range: tuple[int, int] = (-2, 2), min_cells: int = 1) -> Complex:
    """A random direct sum of disks and spheres in disguised coordinates."""
    total = zero_complex()
    ncells = rng.randint(min_cells, max_cells)
    for _ in range(ncells):
        n = rng.randint(weight_range[0], weight_range[1])
        p = rng.randint(0, 1)
        cell = disk_complex(n, p) if rng.random() < 0.5 else sphere_complex(n, p)
        total, _, _ = direct_sum(total, cell)
    change = {key: random_invertible(rng, n) for key, n in total.dims.items()}
    diff = {}
    for key in total.diff:
        # a nonzero block has rows, so the next key has a change of basis too
        block = linalg.mat_mul(total.d_block(key), invert_matrix(change[key]))
        diff[key] = linalg.mat_mul(change[(key[0] + 1, (key[1] + 1) % 2)], block)
    return Complex(total.dims, diff)


def random_chain_map(rng: random.Random, source: Complex, target: Complex) -> ChainMap:
    """A random rational point of the space of chain maps source -> target."""
    offsets, total = _unknowns(source, target)
    kernel, _ = linalg.nullspace(_chain_equations(source, target, offsets), total)
    scalars = [rng.randint(-3, 3) for _ in kernel]
    flat = linalg.apply(kernel, {i: lam for i, lam in enumerate(scalars) if lam})
    return ChainMap(source, target, _unflatten(flat, offsets, source, target))
