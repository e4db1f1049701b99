"""Acceptance gate: ten exact property suites, one pass/fail line each.

Every criterion asserts exact rational equality (no tolerances) and a wall
clock budget.  Randomized panels are seeded, so failures reproduce.  Each test
prints a single summary line on success; under pytest -v the test id itself is
the pass/fail line.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from sdga.core import (
    EVEN,
    ODD,
    Element,
    Generator,
    GeneratorTable,
    monomial_basis,
    partial,
)
from sdga.dg import DGAlgebra, Derivation, leibniz_defect
from sdga.forms import Cylinder, FormsAlgebra, PathObject
from sdga.simplicial import (
    degeneracy_tuple,
    dilation_homotopy,
    dupont_homotopy,
    face_pullback,
    filling_report,
    poincare_witness,
    pullback,
    simplex_forms,
    simplex_integral,
    whitney,
    whitney_differential_identity,
    whitney_projection,
    whitney_tuples,
)
from sdga import linalg, model, sampling
import panels
from panels import dense_block, line_dga, sparse_rows


def four_generator_table():
    return GeneratorTable([
        Generator("x", 0, 0),
        Generator("y", 0, 0),
        Generator("xi", 1, 1),
        Generator("eta", 1, 1),
    ])


def koszul_line():
    tab = GeneratorTable([Generator("t", 0, 0), Generator("theta", 1, 1)])
    d = Derivation(tab, {"t": Element.generator(tab, "theta")}, 1, 1)
    return DGAlgebra(tab, d)


def reverse_koszul_line():
    tab = GeneratorTable([Generator("theta", 0, 1), Generator("t", 1, 0)])
    d = Derivation(tab, {"theta": Element.generator(tab, "t")}, 1, 1)
    return DGAlgebra(tab, d)


def odd_line():
    tab = GeneratorTable([Generator("xi", 1, 1)])
    return DGAlgebra(tab, Derivation(tab, {}, 1, 1))


def rationals():
    tab = GeneratorTable([])
    return DGAlgebra(tab, Derivation(tab, {}, 1, 1))


def graded_pair():
    tab = GeneratorTable([Generator("a", 1, 1), Generator("b", 2, 0)])
    d = Derivation(tab, {"a": Element.generator(tab, "b")}, 1, 1)
    return DGAlgebra(tab, d)


def monomials_up_to_degree(table, cap):
    ranges = [
        range(cap + 1) if g.parity == EVEN else range(2) for g in table.generators
    ]
    return [e for e in itertools.product(*ranges) if sum(e) <= cap]


def report(criterion, label, elapsed, budget):
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s: {elapsed:.2f}s"
    print(f"criterion {criterion} PASS: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_01_graded_arithmetic():
    start = time.perf_counter()
    table = four_generator_table()
    rng = random.Random(101)
    derivations = [
        sampling.random_derivation(rng, table, rng.randint(-1, 2),
                                   rng.randint(0, 1), cap=3)
        for _ in range(5)
    ]
    names = [g.name for g in table.generators]
    parities = {g.name: g.parity for g in table.generators}
    pairs = 500
    for trial in range(pairs):
        a, b = panels.random_homogeneous_pair(rng, table, weight_range=(0, 3), cap=3)
        sign = -1 if (a.parity() == ODD and b.parity() == ODD) else 1
        assert a * b == (b * a) * sign
        c = sampling.random_element(rng, table, max_degree=2, terms=2)
        assert (a * b) * c == a * (b * c)
        g, h = rng.choice(names), rng.choice(names)
        clairaut_sign = -1 if (parities[g] == ODD and parities[h] == ODD) else 1
        assert partial(partial(a, h), g) == partial(partial(a, g), h) * clairaut_sign
        assert leibniz_defect(derivations[trial % 5], a, b).is_zero()
    report(1, f"supercommutativity/associativity/Clairaut/Leibniz on {pairs} pairs",
           time.perf_counter() - start, 5)


def test_criterion_02_cell_cohomology():
    start = time.perf_counter()
    catalog = model.cell_catalog()
    assert len(catalog) == 32
    for name, cell in catalog.items():
        dims = model.cohomology_dims(cell)
        if name.startswith("D"):
            assert dims == {}, name
        else:
            assert dims == dict(cell.dims), name
    for dga in (koszul_line(), reverse_koszul_line()):
        rep = dga.cohomology(-3, 3, 6)
        nonzero = {k: v for k, v in rep.dims().items() if v}
        assert nonzero == {(0, EVEN): 1}
    report(2, "32 catalog cells plus both one-line algebras",
           time.perf_counter() - start, 5)


def test_criterion_03_whitney_suite():
    start = time.perf_counter()
    for n in (1, 2, 3):
        forms = simplex_forms(n)
        tuples_by_k = {k: whitney_tuples(n, k) for k in range(n + 1)}
        for k, tuples in tuples_by_k.items():
            for I in tuples:
                assert whitney_differential_identity(forms, I), (n, I)
                w = whitney(forms, I)
                for J in tuples:
                    expected = Fraction(1 if I == J else 0)
                    assert simplex_integral(forms, J, w, method="dirichlet") == expected
                    assert simplex_integral(forms, J, w, method="iterated") == expected
        monos = [Element.monomial(forms.table, m)
                 for m in monomials_up_to_degree(forms.table, 4)]
        for k, tuples in tuples_by_k.items():
            for I in tuples:
                w = whitney(forms, I)
                assert whitney_projection(forms, w) == w
        for m in monos:
            pm = whitney_projection(forms, m)
            assert whitney_projection(forms, pm) == pm
            assert whitney_projection(forms, forms.d(m)) == forms.d(pm)
            sm = dupont_homotopy(forms, m)
            assert forms.d(sm) + dupont_homotopy(forms, forms.d(m)) == m - pm
            assert dupont_homotopy(forms, sm).is_zero()
        if n >= 1:
            below = simplex_forms(n - 1)
            for i in range(n + 1):
                phi = face_pullback(n, i)
                for m in monos:
                    assert whitney_projection(below, phi(m)) == phi(whitney_projection(forms, m))
                    assert dupont_homotopy(below, phi(m)) == phi(dupont_homotopy(forms, m))
        if n <= 2:
            above = simplex_forms(n + 1)
            for i in range(n + 1):
                sigma = pullback(degeneracy_tuple(n, i), forms, above)
                for m in monos:
                    assert whitney_projection(above, sigma(m)) == sigma(whitney_projection(forms, m))
                    assert dupont_homotopy(above, sigma(m)) == sigma(dupont_homotopy(forms, m))
    report(3, "differential identity, duality, projection and contraction, n <= 3",
           time.perf_counter() - start, 60)


def test_criterion_04_poincare_lemma():
    start = time.perf_counter()
    forms = simplex_forms(2)
    cap = 4
    # weight zero: the only cocycles up to degree 4 are the constants
    basis0 = monomial_basis(forms.table, 0, EVEN, cap)
    basis1 = monomial_basis(forms.table, 1, ODD, cap)
    index1 = {m: i for i, m in enumerate(basis1)}
    mat = [[Fraction(0)] * len(basis0) for _ in basis1]
    for j, mono in enumerate(basis0):
        image = forms.d(Element.monomial(forms.table, mono))
        for m, c in image.terms.items():
            mat[index1[m]][j] += c
    kernel0, _ = linalg.nullspace(sparse_rows(mat), len(basis0))
    assert len(kernel0) == 1
    constant = tuple(0 for _ in forms.table.generators)
    for vec in kernel0:
        assert [basis0[j] for j in vec] == [constant]
    # positive weights: every basis cocycle is exactly d of its witness
    cocycles = 0
    for w in (1, 2):
        basis = monomial_basis(forms.table, w, w % 2, cap)
        above = monomial_basis(forms.table, w + 1, (w + 1) % 2, cap)
        index = {m: i for i, m in enumerate(above)}
        mat = [[Fraction(0)] * len(basis) for _ in above]
        for j, mono in enumerate(basis):
            image = forms.d(Element.monomial(forms.table, mono))
            for m, c in image.terms.items():
                mat[index[m]][j] += c
        for vec in linalg.nullspace(sparse_rows(mat), len(basis))[0]:
            omega = Element(forms.table, {basis[j]: c for j, c in vec.items()})
            assert forms.d(omega).is_zero()
            assert forms.d(dilation_homotopy(forms, 0, omega)) == omega
            assert forms.d(poincare_witness(forms, omega)) == omega
            cocycles += 1
    assert cocycles > 0
    report(4, f"{cocycles} positive-weight basis cocycles are exactly integrable",
           time.perf_counter() - start, 10)


def test_criterion_05_path_object():
    start = time.perf_counter()
    for dga in (rationals(), line_dga()):
        path = PathObject(dga, var="t")
        cyl = path.cylinder
        one = Element.one(cyl.table)
        rng = random.Random(105)
        for _ in range(100):
            a0 = sampling.random_element(rng, dga.table, max_degree=3, terms=3)
            a1 = sampling.random_element(rng, dga.table, max_degree=3, terms=3)
            assert path.factors_diagonal(a0)
            linear = cyl.include(a0) * (one - cyl.t()) + cyl.include(a1) * cyl.t()
            assert path.q(linear) == (a0, a1)
        for _ in range(100):
            w = sampling.random_element(rng, cyl.table, max_degree=3, terms=3)
            assert cyl.homotopy_defect(w).is_zero()
    report(5, "diagonal factorization, witness formula and homotopy, 100 each",
           time.perf_counter() - start, 5)


def test_criterion_06_homotopy_invariance():
    start = time.perf_counter()
    for dga in (koszul_line(), odd_line(), graded_pair()):
        cyl = Cylinder(dga, var="s")
        base = dga.cohomology(-2, 2, 5)
        total = cyl.total.cohomology(-2, 2, 5)
        for w in range(-2, 3):
            for p in (EVEN, ODD):
                assert base.dim(w, p) == total.dim(w, p), (w, p)
    report(6, "capped cohomology of A and A[t, dt] agree for three algebras",
           time.perf_counter() - start, 20)


def feasible_by_dense_elimination(rows, rhs, ncols):
    """Plain Gauss-Jordan feasibility for A x = b, independent of the library."""
    m = [list(row) + [value] for row, value in zip(rows, rhs)]
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        m[pivot_row], m[found] = m[found], m[pivot_row]
        inv = m[pivot_row][col]
        m[pivot_row] = [x / inv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    for row in m:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return False
    return True


class DenseComplex:
    """A complex seen through dense differential blocks, for the oracle."""

    def __init__(self, c):
        self.c = c
        self.dims = c.dims

    def dim(self, key):
        return self.c.dim(key)

    def d_block(self, key):
        nxt = (key[0] + 1, (key[1] + 1) % 2)
        return dense_block(self.c.d_block(key), self.c.dim(nxt))


class DenseMap:
    """A chain map seen through dense blocks, for the oracle."""

    def __init__(self, f):
        self.f = f
        self.source = DenseComplex(f.source)
        self.target = DenseComplex(f.target)

    def block(self, key):
        return dense_block(self.f.block(key), self.f.target.dim(key))


def lift_equations(i, p, top, bottom):
    """Flatten h i = top, p h = bottom, d h = h d into one dense system."""
    A, B = i.source, i.target
    X, Y = p.source, p.target
    keys = sorted(set(A.dims) | set(B.dims) | set(X.dims) | set(Y.dims))
    offsets = {}
    total = 0
    for key in keys:
        if B.dim(key) and X.dim(key):
            offsets[key] = total
            total += B.dim(key) * X.dim(key)
    rows, rhs = [], []

    def emit(coeffs, value):
        row = [Fraction(0)] * total
        for idx, coefficient in coeffs.items():
            row[idx] += coefficient
        rows.append(row)
        rhs.append(value)

    def hvar(key, r, c):
        return offsets[key] + r * B.dim(key) + c

    for key in keys:
        iblk, tblk = i.block(key), top.block(key)
        for r in range(X.dim(key)):
            for c in range(A.dim(key)):
                coeffs = {}
                if key in offsets:
                    for k in range(B.dim(key)):
                        if iblk[k][c]:
                            coeffs[hvar(key, r, k)] = iblk[k][c]
                emit(coeffs, tblk[r][c])
        pblk, bblk = p.block(key), bottom.block(key)
        for r in range(Y.dim(key)):
            for c in range(B.dim(key)):
                coeffs = {}
                if key in offsets:
                    for k in range(X.dim(key)):
                        if pblk[r][k]:
                            coeffs[hvar(key, k, c)] = pblk[r][k]
                emit(coeffs, bblk[r][c])
        nxt = (key[0] + 1, (key[1] + 1) % 2)
        dx, db = X.d_block(key), B.d_block(key)
        for r in range(X.dim(nxt)):
            for c in range(B.dim(key)):
                coeffs = {}
                if key in offsets:
                    for k in range(X.dim(key)):
                        if dx[r][k]:
                            coeffs[hvar(key, k, c)] = (
                                coeffs.get(hvar(key, k, c), Fraction(0)) + dx[r][k]
                            )
                if nxt in offsets:
                    for k in range(B.dim(nxt)):
                        if db[k][c]:
                            idx = hvar(nxt, r, k)
                            coeffs[idx] = coeffs.get(idx, Fraction(0)) - db[k][c]
                emit(coeffs, Fraction(0))
    return rows, rhs, total


def projection_map(summand, total_complex, include):
    blocks = {}
    for key, block in include.blocks.items():
        out = [{} for _ in range(total_complex.dim(key))]
        for c, col in enumerate(block):
            for r, x in col.items():
                out[r][c] = x
        blocks[key] = out
    return model.ChainMap(total_complex, summand, blocks)


def test_criterion_07_model_toolkit():
    start = time.perf_counter()
    rng = random.Random(107)
    # twenty seeded factorizations, both orders, total dimension <= 12
    for _ in range(20):
        a = panels.random_complex(rng, max_cells=3)
        b = panels.random_complex(rng, max_cells=3)
        assert a.total_dim() + b.total_dim() <= 12
        f = panels.random_chain_map(rng, a, b)
        for mode in ("acyclic_cofibration_fibration", "cofibration_acyclic_fibration"):
            j, q = model.factorize(f, mode)
            checks = model.verify_factorization(f, j, q, mode)
            assert checks["ok"], (mode, checks)
    # left factors lift against ten seeded fibrations
    for _ in range(10):
        a = panels.random_complex(rng, max_cells=2)
        b = panels.random_complex(rng, max_cells=2)
        j, _ = model.factorize(panels.random_chain_map(rng, a, b),
                               "acyclic_cofibration_fibration")
        middle = j.target
        y = panels.random_complex(rng, max_cells=2)
        z = panels.random_complex(rng, max_cells=2)
        total, inc_y, _ = model.direct_sum(y, z)
        p = projection_map(y, total, inc_y)
        assert model.is_fibration(p)
        bottom = panels.random_chain_map(rng, middle, y)
        top = model.compose_chain_maps(inc_y, model.compose_chain_maps(bottom, j))
        h, cert = model.solve_lift(j, p, top, bottom)
        assert h is not None, cert
        assert model.compose_chain_maps(h, j) == top
        assert model.compose_chain_maps(p, h) == bottom
    # fifty seeded squares against the independent dense feasibility oracle
    agreements = 0
    solvable_count = 0
    for trial in range(50):
        a = panels.random_complex(rng, max_cells=2)
        b = panels.random_complex(rng, max_cells=2)
        x = panels.random_complex(rng, max_cells=2)
        y = panels.random_complex(rng, max_cells=2)
        p = panels.random_chain_map(rng, x, y)
        if trial % 2 == 0:
            i = panels.random_chain_map(rng, a, b)
            h0 = panels.random_chain_map(rng, b, x)
            top = model.compose_chain_maps(h0, i)
            bottom = model.compose_chain_maps(p, h0)
        else:
            zero = model.zero_complex()
            i = model.zero_chain_map(zero, b)
            top = model.zero_chain_map(zero, x)
            bottom = panels.random_chain_map(rng, b, y)
        h, _ = model.solve_lift(i, p, top, bottom)
        rows, rhs, ncols = lift_equations(*(DenseMap(f) for f in (i, p, top, bottom)))
        oracle = feasible_by_dense_elimination(rows, rhs, ncols)
        assert (h is not None) == oracle, trial
        if h is not None:
            assert model.compose_chain_maps(h, i) == top
            assert model.compose_chain_maps(p, h) == bottom
            solvable_count += 1
        agreements += 1
    assert agreements == 50
    assert 0 < solvable_count
    report(7, f"20 factorizations, 10 lifts, oracle agreement on 50 squares "
              f"({solvable_count} solvable)",
           time.perf_counter() - start, 60)


def test_criterion_08_kunneth():
    start = time.perf_counter()
    rng = random.Random(108)
    for _ in range(10):
        v = panels.random_complex(rng, max_cells=2, weight_range=(-2, 2))
        assert v.total_dim() <= 4
        rep = model.kunneth_report(v, -3, 3, 5)
        assert rep["all_agree"], rep
    report(8, "H(Sym V) matches the free algebra on H(V) for 10 complexes",
           time.perf_counter() - start, 30)


def test_criterion_09_cartan_relations():
    start = time.perf_counter()
    table = GeneratorTable([
        Generator("x", 0, 0),
        Generator("y", 0, 0),
        Generator("xi", 1, 1),
    ])
    forms = FormsAlgebra(table)
    rng = random.Random(109)
    for _ in range(50):
        D1 = sampling.random_derivation(rng, table, rng.randint(-1, 2),
                                        rng.randint(0, 1), cap=3)
        D2 = sampling.random_derivation(rng, table, rng.randint(-1, 2),
                                        rng.randint(0, 1), cap=3)
        results = forms.cartan_relations(D1, D2)
        assert all(results.values()), results
    report(9, "all six contraction/Lie relations on 50 derivation pairs",
           time.perf_counter() - start, 10)


def test_criterion_10_kan_surjectivity():
    start = time.perf_counter()
    for coefficients in (rationals(), line_dga()):
        for n in (1, 2):
            for vertex in range(n + 1):
                rep = filling_report(coefficients, n, "horn", vertex, 0, 4, 4)
                assert rep["all_surjective"], rep
                for entry in rep["entries"]:
                    assert entry["surjective"], entry
    report(10, "horn restrictions surjective per bidegree, n <= 2, both coefficients",
           time.perf_counter() - start, 30)
