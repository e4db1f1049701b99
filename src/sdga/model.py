"""A desk-scale homotopy toolkit for complexes of rational vector spaces.

Objects are (weight, parity)-graded complexes with finite support; the
differential raises weight by one and flips parity.  Chain maps are blockwise
matrices.  On this ground floor of the projective model structure:

  * fibrations are the degreewise surjections,
  * cofibrations are the degreewise injections,
  * weak equivalences are quasi-isomorphisms, decided by exact rank
    computations on the mapping cone.

Disk and sphere complexes generate the structure; `factorize` builds both
(acyclic cofibration, fibration) and (cofibration, acyclic fibration)
factorizations by attaching cells, and `solve_lift` decides lifting problems
as one exact linear system, returning an infeasibility certificate when no
lift exists.

The symmetric algebra functor turns a complex into a dg algebra with a linear
differential; because that differential preserves polynomial degree, truncated
cohomology per degree slice is exact and the Kunneth comparison with the free
algebra on cohomology can be tested dimension by dimension.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .core import (
    EVEN,
    ODD,
    AlgebraError,
    Element,
    Generator,
    GeneratorTable,
    monomial_basis,
    parity_name,
)
from .dg import DGAlgebra, Derivation

Key = tuple[int, int]


def _next_key(key: Key) -> Key:
    return (key[0] + 1, (key[1] + 1) % 2)


def _prev_key(key: Key) -> Key:
    return (key[0] - 1, (key[1] + 1) % 2)


class Complex:
    """A bigraded complex with finitely many nonzero components."""

    def __init__(self, dims: dict[Key, int], diff: dict[Key, linalg.Matrix],
                 check: bool = True):
        self.dims = {key: n for key, n in dims.items() if n > 0}
        self.diff = {}
        for key, mat in diff.items():
            if any(any(x != 0 for x in row) for row in mat):
                self.diff[key] = [[Fraction(x) for x in row] for row in mat]
        if check:
            self.validate()

    def validate(self):
        for key, mat in self.diff.items():
            nxt = _next_key(key)
            if len(mat) != self.dim(nxt) or any(len(row) != self.dim(key) for row in mat):
                raise AlgebraError(f"differential block at {key} has the wrong shape")
        for key in self.diff:
            nxt = _next_key(key)
            if nxt in self.diff:
                prod = linalg.mat_mul(self.diff[nxt], self.diff[key])
                if any(any(x != 0 for x in row) for row in prod):
                    raise AlgebraError(f"d^2 != 0 at {key}")

    def dim(self, key: Key) -> int:
        return self.dims.get(key, 0)

    def d_block(self, key: Key) -> linalg.Matrix:
        mat = self.diff.get(key)
        if mat is None:
            return linalg.zeros(self.dim(_next_key(key)), self.dim(key))
        return mat

    def support(self) -> list[Key]:
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        if self.dims != other.dims:
            return False
        keys = set(self.diff) | set(other.diff)
        return all(linalg.mats_agree(self.d_block(k), other.d_block(k)) for k in keys)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({w},{parity_name(p)}):{n}" for (w, p), n in sorted(self.dims.items())
        )
        return f"Complex[{inner or '0'}]"

    def shift_keys(self) -> list[Key]:
        """All keys where this complex or its differential neighbours live."""
        keys = set(self.dims)
        for key in list(keys):
            keys.add(_next_key(key))
            keys.add(_prev_key(key))
        return sorted(keys)


def zero_complex() -> Complex:
    return Complex({}, {})


def direct_sum(a: Complex, b: Complex) -> tuple[Complex, "ChainMap", "ChainMap"]:
    """a + b with the two inclusion maps."""
    dims = {}
    for key in set(a.dims) | set(b.dims):
        dims[key] = a.dim(key) + b.dim(key)
    diff = {}
    for key in set(a.diff) | set(b.diff):
        nxt = _next_key(key)
        mat = linalg.zeros(a.dim(nxt) + b.dim(nxt), a.dim(key) + b.dim(key))
        da, db = a.d_block(key), b.d_block(key)
        for i in range(a.dim(nxt)):
            for j in range(a.dim(key)):
                mat[i][j] = da[i][j]
        for i in range(b.dim(nxt)):
            for j in range(b.dim(key)):
                mat[a.dim(nxt) + i][a.dim(key) + j] = db[i][j]
        diff[key] = mat
    total = Complex(dims, diff)
    inc_a = {}
    inc_b = {}
    for key in total.dims:
        na, nb = a.dim(key), b.dim(key)
        mat_a = linalg.zeros(na + nb, na)
        for i in range(na):
            mat_a[i][i] = Fraction(1)
        mat_b = linalg.zeros(na + nb, nb)
        for i in range(nb):
            mat_b[na + i][i] = Fraction(1)
        if na:
            inc_a[key] = mat_a
        if nb:
            inc_b[key] = mat_b
    return total, ChainMap(a, total, inc_a), ChainMap(b, total, inc_b)


class ChainMap:
    """A degreewise linear map commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex,
                 blocks: dict[Key, linalg.Matrix], check: bool = True):
        self.source = source
        self.target = target
        self.blocks = {}
        for key, mat in blocks.items():
            if source.dim(key) == 0 or target.dim(key) == 0:
                continue
            self.blocks[key] = [[Fraction(x) for x in row] for row in mat]
        if check:
            self.validate()

    def validate(self):
        for key in set(self.source.dims) | set(self.blocks):
            mat = self.block(key)
            if len(mat) != self.target.dim(key) or (
                mat and any(len(row) != self.source.dim(key) for row in mat)
            ):
                raise AlgebraError(f"chain map block at {key} has the wrong shape")
        for key in self.source.dims:
            nxt = _next_key(key)
            lhs = linalg.mat_mul(self.target.d_block(key), self.block(key))
            rhs = linalg.mat_mul(self.block(nxt), self.source.d_block(key))
            if not linalg.mats_agree(lhs, rhs):
                raise AlgebraError(f"map does not commute with d at {key}")

    def block(self, key: Key) -> linalg.Matrix:
        mat = self.blocks.get(key)
        if mat is None:
            return linalg.zeros(self.target.dim(key), self.source.dim(key))
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(linalg.mats_agree(self.block(k), other.block(k)) for k in keys)


def identity_chain_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {key: linalg.identity(n) for key, n in c.dims.items()},
                    check=False)


def compose_chain_maps(outer: ChainMap, inner: ChainMap) -> ChainMap:
    if inner.target is not outer.source and inner.target != outer.source:
        raise AlgebraError("chain maps are not composable")
    blocks = {}
    for key in inner.source.dims:
        # a zero middle dimension gives the zero block; omitting it keeps
        # block() shapes honest where mat_mul cannot recover the column count
        if inner.target.dim(key) == 0:
            continue
        blocks[key] = linalg.mat_mul(outer.block(key), inner.block(key))
    return ChainMap(inner.source, outer.target, blocks, check=False)


def zero_chain_map(source: Complex, target: Complex) -> ChainMap:
    return ChainMap(source, target, {}, check=False)


# -- cells ---------------------------------------------------------------------


def disk_complex(n: int, parity: int) -> Complex:
    """Contractible two-cell complex: generator at (n, parity), its d above."""
    bottom = (n, parity)
    top = _next_key(bottom)
    return Complex({bottom: 1, top: 1}, {bottom: [[Fraction(1)]]})


def sphere_complex(n: int, parity: int) -> Complex:
    """One-dimensional complex concentrated in (n, parity)."""
    return Complex({(n, parity): 1}, {})


def sphere_to_disk(n: int, parity: int) -> ChainMap:
    """The generating cofibration S^{(n+1, parity+1)} -> D^{(n, parity)}."""
    src = sphere_complex(n + 1, (parity + 1) % 2)
    dst = disk_complex(n, parity)
    return ChainMap(src, dst, {(n + 1, (parity + 1) % 2): [[Fraction(1)]]})


def zero_to_disk(n: int, parity: int) -> ChainMap:
    """The generating acyclic cofibration 0 -> D^{(n, parity)}."""
    return ChainMap(zero_complex(), disk_complex(n, parity), {}, check=False)


def cell_catalog(n_range=range(-3, 4)) -> dict[str, Complex]:
    """Named disks and spheres; ungraded cells fold in at weight zero."""
    cells: dict[str, Complex] = {}
    for n in n_range:
        for p, pname in ((EVEN, "even"), (ODD, "odd")):
            cells[f"D{n}_{pname}"] = disk_complex(n, p)
            cells[f"S{n}_{pname}"] = sphere_complex(n, p)
    cells["D_even"] = disk_complex(0, EVEN)
    cells["D_odd"] = disk_complex(0, ODD)
    cells["S_even"] = sphere_complex(0, EVEN)
    cells["S_odd"] = sphere_complex(0, ODD)
    return cells


# -- cohomology and weak equivalences --------------------------------------------


def cohomology_dims(c: Complex) -> dict[Key, int]:
    """Exact cohomology dimensions (finite support, complete bases)."""
    out = {}
    ranks: dict[Key, int] = {}  # d into key is d out of _prev_key(key)

    def rank_out(key: Key) -> int:
        if key not in ranks:
            ranks[key] = linalg.rank(_sparse_rows(c.d_block(key)))
        return ranks[key]

    for key in c.shift_keys():
        n = c.dim(key)
        if n == 0:
            continue
        h = (n - rank_out(key)) - rank_out(_prev_key(key))
        if h:
            out[key] = h
    return out


def cone(f: ChainMap) -> Complex:
    """Mapping cone: B + A[shifted], d(b, a) = (d_B b + f a, -d_A a)."""
    A, B = f.source, f.target
    dims = {}
    keys = set()
    for key in A.dims:
        keys.add(_prev_key(key))
    keys.update(B.dims)
    for key in keys:
        n = B.dim(key) + A.dim(_next_key(key))
        if n:
            dims[key] = n
    diff = {}
    for key in dims:
        nxt = _next_key(key)
        rows = B.dim(nxt) + A.dim(_next_key(nxt))
        cols = dims[key]
        mat = linalg.zeros(rows, cols)
        db = B.d_block(key)
        fa = f.block(_next_key(key))
        da = A.d_block(_next_key(key))
        for i in range(B.dim(nxt)):
            for j in range(B.dim(key)):
                mat[i][j] = db[i][j]
            for j in range(A.dim(_next_key(key))):
                mat[i][B.dim(key) + j] = fa[i][j]
        for i in range(A.dim(_next_key(nxt))):
            for j in range(A.dim(_next_key(key))):
                mat[B.dim(nxt) + i][B.dim(key) + j] = -da[i][j]
        diff[key] = mat
    return Complex(dims, diff)


def is_weak_equivalence(f: ChainMap) -> bool:
    """Quasi-isomorphism test via acyclicity of the mapping cone."""
    return not cohomology_dims(cone(f))


def is_fibration(f: ChainMap) -> bool:
    """Degreewise surjectivity."""
    for key, n in f.target.dims.items():
        if linalg.rank(_sparse_rows(f.block(key))) < n:
            return False
    return True


def is_cofibration(f: ChainMap) -> bool:
    """Degreewise injectivity."""
    for key, n in f.source.dims.items():
        if linalg.rank(_sparse_rows(f.block(key))) < n:
            return False
    return True


def is_acyclic(c: Complex) -> bool:
    return not cohomology_dims(c)


# -- lifting problems -------------------------------------------------------------


def solve_lift(i: ChainMap, p: ChainMap, top: ChainMap, bottom: ChainMap):
    """Find h with h i = top, p h = bottom, d h = h d.

    The square is i: A -> B (left), p: X -> Y (right), top: A -> X,
    bottom: B -> Y, assumed commutative.  Returns (ChainMap or None, cert)
    where cert carries the ranks of the flattened system.
    """
    A, B = i.source, i.target
    X, Y = p.source, p.target
    if top.source != A or top.target != X or bottom.source != B or bottom.target != Y:
        raise AlgebraError("lifting square has mismatched corners")
    for key in set(A.dims):
        lhs = linalg.mat_mul(p.block(key), top.block(key))
        rhs = linalg.mat_mul(bottom.block(key), i.block(key))
        if not linalg.mats_agree(lhs, rhs):
            raise AlgebraError("lifting square does not commute")

    offsets: dict[Key, int] = {}
    total = 0
    for key in sorted(set(B.dims)):
        if X.dim(key) == 0:
            continue
        offsets[key] = total
        total += X.dim(key) * B.dim(key)

    def var(key: Key, r: int, c: int) -> int:
        return offsets[key] + r * B.dim(key) + c

    rows: list[linalg.SparseRow] = []
    rhs: list[Fraction] = []

    def emit(coeffs: dict[int, Fraction], value: Fraction):
        rows.append({idx: cf for idx, cf in coeffs.items() if cf})
        rhs.append(value)

    # h i = top
    for key in A.dims:
        if key not in offsets:
            if any(any(x != 0 for x in row) for row in top.block(key)):
                return None, {"consistent": False, "reason": "top map misses X support"}
            continue
        iblk = i.block(key)
        tblk = top.block(key)
        for r in range(X.dim(key)):
            for c in range(A.dim(key)):
                coeffs = {}
                for k in range(B.dim(key)):
                    if iblk[k][c] != 0:
                        coeffs[var(key, r, k)] = iblk[k][c]
                emit(coeffs, tblk[r][c])
    # p h = bottom
    for key in B.dims:
        pblk = p.block(key)
        bblk = bottom.block(key)
        for r in range(Y.dim(key)):
            for c in range(B.dim(key)):
                coeffs = {}
                if key in offsets:
                    for k in range(X.dim(key)):
                        if pblk[r][k] != 0:
                            coeffs[var(key, k, c)] = pblk[r][k]
                emit(coeffs, bblk[r][c])
    # d_X h = h d_B
    for key in B.dims:
        nxt = _next_key(key)
        dx = X.d_block(key)
        db = B.d_block(key)
        for r in range(X.dim(nxt)):
            for c in range(B.dim(key)):
                coeffs: dict[int, Fraction] = {}
                if key in offsets:
                    for k in range(X.dim(key)):
                        if dx[r][k] != 0:
                            coeffs[var(key, k, c)] = (
                                coeffs.get(var(key, k, c), Fraction(0)) + dx[r][k]
                            )
                if nxt in offsets:
                    for k in range(B.dim(nxt)):
                        if db[k][c] != 0:
                            idx = var(nxt, r, k)
                            coeffs[idx] = coeffs.get(idx, Fraction(0)) - db[k][c]
                if coeffs:
                    emit(coeffs, Fraction(0))

    sol, cert = linalg.solve_with_certificate(rows, rhs, total)
    if sol is None:
        return None, cert
    blocks = {}
    for key, off in offsets.items():
        mat = linalg.zeros(X.dim(key), B.dim(key))
        for r in range(X.dim(key)):
            for c in range(B.dim(key)):
                mat[r][c] = sol.get(off + r * B.dim(key) + c, linalg.ZERO)
        blocks[key] = mat
    h = ChainMap(B, X, blocks)
    return h, cert


# -- factorization by cell attachment ----------------------------------------------


class _MiddleBuilder:
    """A complex grown from a base by attaching cell generators, with a map to B."""

    def __init__(self, base: Complex, f: ChainMap, B: Complex):
        self.base = base
        self.B = B
        self.dims = dict(base.dims)
        self.dcols: dict[Key, list[dict[int, Fraction]]] = {}
        self.qcols: dict[Key, list[list[Fraction]]] = {}
        for key, n in base.dims.items():
            dblk = base.d_block(key)
            self.dcols[key] = [
                {r: dblk[r][j] for r in range(len(dblk)) if dblk[r][j] != 0}
                for j in range(n)
            ]
            fblk = f.block(key)
            self.qcols[key] = [
                [fblk[r][j] for r in range(B.dim(key))] for j in range(n)
            ]

    def dim(self, key: Key) -> int:
        return self.dims.get(key, 0)

    def add_generator(self, key: Key, dx: dict[int, Fraction] | None,
                      q_image: list[Fraction]) -> int:
        idx = self.dims.get(key, 0)
        self.dims[key] = idx + 1
        self.dcols.setdefault(key, [])
        self.qcols.setdefault(key, [])
        while len(self.dcols[key]) < idx:
            self.dcols[key].append({})
        while len(self.qcols[key]) < idx:
            self.qcols[key].append([Fraction(0)] * self.B.dim(key))
        self.dcols[key].append(dict(dx) if dx else {})
        self.qcols[key].append(list(q_image))
        return idx

    def attach_disk(self, key: Key, b_image: list[Fraction]) -> None:
        """Add x at key and y = dx at the next key with q(x) = b, q(y) = d_B b."""
        nxt = _next_key(key)
        db = self.B.d_block(key)
        top_image = linalg.mat_vec(db, b_image) if db else [Fraction(0)] * self.B.dim(nxt)
        top_idx = self.add_generator(nxt, None, top_image)
        self.add_generator(key, {top_idx: Fraction(1)}, b_image)

    def materialize(self) -> tuple[Complex, ChainMap, ChainMap]:
        dims = {k: n for k, n in self.dims.items() if n > 0}
        diff = {}
        for key, cols in self.dcols.items():
            nxt = _next_key(key)
            nrows = self.dim(nxt)
            n = self.dim(key)
            if nrows == 0 or n == 0:
                continue
            mat = linalg.zeros(nrows, n)
            for j, col in enumerate(cols):
                for r, val in col.items():
                    mat[r][j] = val
            diff[key] = mat
        middle = Complex(dims, diff)
        qblocks = {}
        for key, cols in self.qcols.items():
            nb = self.B.dim(key)
            if nb == 0 or self.dim(key) == 0:
                continue
            mat = linalg.zeros(nb, self.dim(key))
            for j, col in enumerate(cols):
                for r in range(nb):
                    mat[r][j] = col[r]
            qblocks[key] = mat
        q = ChainMap(middle, self.B, qblocks)
        jblocks = {}
        for key, n in self.base.dims.items():
            mat = linalg.zeros(self.dim(key), n)
            for i in range(n):
                mat[i][i] = Fraction(1)
            jblocks[key] = mat
        j = ChainMap(self.base, middle, jblocks)
        return middle, j, q

    # -- views of the current state, used by the repair passes ----------------

    def d_matrix(self, key: Key) -> linalg.Matrix:
        nxt = _next_key(key)
        mat = linalg.zeros(self.dim(nxt), self.dim(key))
        for j, col in enumerate(self.dcols.get(key, [])):
            for r, val in col.items():
                mat[r][j] = val
        return mat

    def q_matrix(self, key: Key) -> linalg.Matrix:
        mat = linalg.zeros(self.B.dim(key), self.dim(key))
        for j, col in enumerate(self.qcols.get(key, [])):
            for r in range(self.B.dim(key)):
                mat[r][j] = col[r]
        return mat


def _all_keys(*complexes: Complex) -> list[Key]:
    keys = set()
    for c in complexes:
        keys.update(c.shift_keys())
    return sorted(keys)


def factorize(f: ChainMap, mode: str) -> tuple[ChainMap, ChainMap]:
    """Factor f = q o j through a middle complex built by attaching cells.

    mode='acyclic_cofibration_fibration': j is an injective quasi-isomorphism
    (only disks are attached), q is surjective.
    mode='cofibration_acyclic_fibration': j is injective, q is a surjective
    quasi-isomorphism; cocycle generators repair surjectivity of H(q) and
    relations dx = z repair injectivity.
    """
    if mode not in ("acyclic_cofibration_fibration", "cofibration_acyclic_fibration"):
        raise AlgebraError(f"unknown factorization mode {mode!r}")
    A, B = f.source, f.target
    builder = _MiddleBuilder(A, f, B)

    # pass 1: attach disks until q is degreewise surjective
    for key in _all_keys(A, B):
        nb = B.dim(key)
        if nb == 0:
            continue
        span = linalg.RowSpan(nb)
        for col in _sparse_columns(builder.q_matrix(key)):
            span.add(col)
        for r in range(nb):
            if span.add({r: linalg.ONE}):
                builder.attach_disk(key, linalg.dense({r: linalg.ONE}, nb))

    if mode == "acyclic_cofibration_fibration":
        middle, j, q = builder.materialize()
        return j, q

    # pass 2: attach closed generators until H(q) is surjective
    for key in _all_keys(A, B):
        nb = B.dim(key)
        if nb == 0:
            continue
        kernel_b = linalg.nullspace(_sparse_rows(B.d_block(key)), nb)
        if not kernel_b:
            continue
        hit = linalg.RowSpan(nb)
        for col in _sparse_columns(B.d_block(_prev_key(key))):
            hit.add(col)
        kernel_m = linalg.nullspace(_sparse_rows(builder.d_matrix(key)), builder.dim(key))
        qmat = builder.q_matrix(key)
        for vec in kernel_m:
            hit.add(_apply(qmat, vec))
        for vec in kernel_b:
            if hit.add(vec):
                builder.add_generator(key, None, linalg.dense(vec, nb))

    # pass 3: kill the kernel of H(q).  One nullspace per key of the stacked
    # system [-d_B | q K], K the cocycles of the middle complex, gives every
    # pair (y, c) with q(K c) = d_B y, so a class that only a combination of
    # the columns of K kills is found too.  Each K c independent of the
    # boundaries gets a generator x with dx = K c and q(x) = y.  With the d_B
    # columns first, a column of K that q sends to a boundary on its own
    # comes out as c = e_i with the y of the particular solution.
    for key in _all_keys(A, B):
        nm = builder.dim(key)
        if nm == 0:
            continue
        kernel_m = linalg.nullspace(_sparse_rows(builder.d_matrix(key)), nm)
        if not kernel_m:
            continue
        prev = _prev_key(key)
        prev_b = B.dim(prev)
        stacked = [{j: -x for j, x in row.items()} for row in _sparse_rows(B.d_block(prev))]
        qmat = builder.q_matrix(key)
        for i, vec in enumerate(kernel_m):
            for r, x in _apply(qmat, vec).items():
                stacked[r][prev_b + i] = x
        boundaries = linalg.RowSpan(nm)
        for col in _sparse_columns(builder.d_matrix(prev)):
            boundaries.add(col)
        for pair in linalg.nullspace(stacked, prev_b + len(kernel_m)):
            y = [pair.get(j, linalg.ZERO) for j in range(prev_b)]
            c = [(x, kernel_m[j - prev_b]) for j, x in pair.items() if j >= prev_b]
            z = {}
            for r in range(nm):
                v = sum((ci * vec[r] for ci, vec in c if r in vec), linalg.ZERO)
                if v:
                    z[r] = v
            if boundaries.add(z):
                builder.add_generator(prev, z, y)
    middle, j, q = builder.materialize()
    return j, q


def _sparse_rows(mat: linalg.Matrix) -> list[linalg.SparseRow]:
    return [linalg.sparse(row) for row in mat]


def _sparse_columns(mat: linalg.Matrix) -> list[linalg.SparseRow]:
    """The nonzero columns of a dense block, as sparse rows."""
    return linalg.transpose(_sparse_rows(mat), len(mat[0]) if mat else 0)


def _apply(mat: linalg.Matrix, vec: linalg.SparseRow) -> linalg.SparseRow:
    """mat @ vec for a dense block and a sparse vector, as a sparse row."""
    out = {}
    for r, row in enumerate(mat):
        y = sum((row[j] * x for j, x in vec.items()), linalg.ZERO)
        if y:
            out[r] = y
    return out


def verify_factorization(f: ChainMap, j: ChainMap, q: ChainMap, mode: str) -> dict:
    composed = compose_chain_maps(q, j)
    result = {
        "composite_equals_f": composed == f,
        "j_injective": is_cofibration(j),
        "q_surjective": is_fibration(q),
    }
    if mode == "acyclic_cofibration_fibration":
        result["j_quasi_iso"] = is_weak_equivalence(j)
    else:
        result["q_quasi_iso"] = is_weak_equivalence(q)
    result["ok"] = all(v for k, v in result.items() if k != "ok")
    return result


# -- symmetric algebras and the Kunneth comparison ----------------------------------


def sym_dga(v: Complex, prefix: str = "v") -> tuple[DGAlgebra, dict[tuple[Key, int], str]]:
    """The free graded-commutative algebra on a complex, as a dg algebra."""
    names: dict[tuple[Key, int], str] = {}
    gens = []
    counter = 0
    for key in sorted(v.dims):
        for i in range(v.dim(key)):
            name = f"{prefix}{counter}"
            counter += 1
            names[(key, i)] = name
            gens.append(Generator(name, key[0], key[1]))
    table = GeneratorTable(gens, allow_d_names=True)
    images: dict[str, Element] = {}
    for key in sorted(v.dims):
        dblk = v.d_block(key)
        nxt = _next_key(key)
        for i in range(v.dim(key)):
            img = Element.zero(table)
            for r in range(v.dim(nxt)):
                if dblk[r][i] != 0:
                    img = img + Element.generator(table, names[(nxt, r)]) * dblk[r][i]
            images[names[(key, i)]] = img
    differential = Derivation(table, images, 1, ODD)
    return DGAlgebra(table, differential), names


def kunneth_report(v: Complex, w_min: int, w_max: int, cap: int) -> dict:
    """Compare H(Sym v) with the free algebra on H(v), per bidegree.

    The symmetric algebra differential preserves polynomial degree, so the
    degree-capped cohomology dimensions are exact per degree slice and must
    match monomial counts on an abstract basis of H(v).
    """
    dga, _ = sym_dga(v)
    lhs = dga.cohomology(w_min, w_max, cap)
    hdims = cohomology_dims(v)
    gens = []
    counter = 0
    for key in sorted(hdims):
        for _ in range(hdims[key]):
            gens.append(Generator(f"h{counter}", key[0], key[1]))
            counter += 1
    htable = GeneratorTable(gens, allow_d_names=True)
    entries = []
    agree = True
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            left = lhs.dim(w, p)
            right = len(monomial_basis(htable, w, p, cap))
            entries.append(
                {"weight": w, "parity": parity_name(p),
                 "sym_cohomology_dim": left, "free_on_cohomology_dim": right,
                 "agree": left == right}
            )
            agree = agree and (left == right)
    return {
        "window": [w_min, w_max],
        "degree_cap": cap,
        "cohomology_of_input": {f"{k[0]},{parity_name(k[1])}": n
                                for k, n in sorted(hdims.items())},
        "entries": entries,
        "all_agree": agree,
    }


# -- random generators for property panels -------------------------------------------


def random_invertible(rng: random.Random, n: int) -> linalg.Matrix:
    mat = linalg.identity(n)
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        lam = Fraction(rng.randint(-2, 2))
        if lam == 0:
            continue
        for j in range(n):
            mat[a][j] += lam * mat[b][j]
    order = list(range(n))
    rng.shuffle(order)
    return [mat[i] for i in order]


def invert_matrix(mat: linalg.Matrix) -> linalg.Matrix:
    n = len(mat)
    aug = [linalg.sparse(mat[i]) | {n + i: linalg.ONE} for i in range(n)]
    reduced, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise AlgebraError("matrix is not invertible")
    return [[row.get(n + j, linalg.ZERO) for j in range(n)] for row in reduced]


def random_complex(rng: random.Random, max_cells: int = 3,
                   weight_range: tuple[int, int] = (-2, 2),
                   scramble: bool = True) -> Complex:
    """A random direct sum of disks and spheres in disguised coordinates."""
    total = zero_complex()
    ncells = rng.randint(1, max_cells)
    for _ in range(ncells):
        n = rng.randint(weight_range[0], weight_range[1])
        p = rng.randint(0, 1)
        cell = disk_complex(n, p) if rng.random() < 0.5 else sphere_complex(n, p)
        total, _, _ = direct_sum(total, cell)
    if not scramble:
        return total
    change = {key: random_invertible(rng, n) for key, n in total.dims.items()}
    diff = {}
    for key in total.diff:
        nxt = _next_key(key)
        t_next = change.get(nxt)
        t_key = change[key]
        mat = linalg.mat_mul(total.d_block(key), invert_matrix(t_key))
        if t_next is not None:
            mat = linalg.mat_mul(t_next, mat)
        diff[key] = mat
    return Complex(total.dims, diff)


def random_chain_map(rng: random.Random, source: Complex, target: Complex) -> ChainMap:
    """A random rational point of the space of chain maps source -> target."""
    offsets: dict[Key, int] = {}
    total = 0
    for key in sorted(source.dims):
        if target.dim(key) == 0:
            continue
        offsets[key] = total
        total += target.dim(key) * source.dim(key)
    if total == 0:
        return zero_chain_map(source, target)
    rows: list[linalg.SparseRow] = []
    for key in source.dims:
        nxt = _next_key(key)
        dt = target.d_block(key)
        ds = source.d_block(key)
        for r in range(target.dim(nxt)):
            for c in range(source.dim(key)):
                row = [Fraction(0)] * total
                if key in offsets:
                    for k in range(target.dim(key)):
                        if dt[r][k] != 0:
                            row[offsets[key] + k * source.dim(key) + c] += dt[r][k]
                if nxt in offsets:
                    for k in range(source.dim(nxt)):
                        if ds[k][c] != 0:
                            row[offsets[nxt] + r * source.dim(nxt) + k] -= ds[k][c]
                row = linalg.sparse(row)
                if row:
                    rows.append(row)
    flat = [linalg.ZERO] * total
    for vec in linalg.nullspace(rows, total):
        lam = Fraction(rng.randint(-3, 3))
        if lam:
            for j, x in vec.items():
                flat[j] += lam * x
    blocks = {}
    for key, off in offsets.items():
        mat = linalg.zeros(target.dim(key), source.dim(key))
        for r in range(target.dim(key)):
            for c in range(source.dim(key)):
                mat[r][c] = flat[off + r * source.dim(key) + c]
        blocks[key] = mat
    return ChainMap(source, target, blocks)
