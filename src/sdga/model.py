"""A desk-scale homotopy toolkit for complexes of rational vector spaces.

Objects are (weight, parity)-graded complexes with finite support; the
differential raises weight by one and flips parity.  Chain maps are blockwise
linear maps.  Every block, differential or chain map, is a `linalg.Block`:
one sparse column per source basis vector, column j the image of basis vector
j.  On this ground floor of the projective model structure:

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

from . import linalg
from .core import (
    EVEN,
    ODD,
    AlgebraError,
    Element,
    Generator,
    GeneratorTable,
    StructureError,
    as_scalar,
    monomial_basis,
    parity_name,
)

Key = tuple[int, int]


def _next_key(key: Key) -> Key:
    return (key[0] + 1, (key[1] + 1) % 2)


def _prev_key(key: Key) -> Key:
    return (key[0] - 1, (key[1] + 1) % 2)


def _units(n: int, offset: int = 0) -> linalg.Block:
    """The n basis vectors, placed from row offset on."""
    return [{offset + i: 1} for i in range(n)]


def _canonical(block: linalg.Block, nrows: int, ncols: int, what: str,
               key: Key) -> linalg.Block:
    """A copy of the block in the form `as_scalar` gives, with no stored
    zero, once its shape is checked: ncols columns with rows below nrows."""
    if len(block) != ncols or any(not 0 <= r < nrows for col in block for r in col):
        raise StructureError(f"{what} block at {key} has the wrong shape")
    return [{r: as_scalar(x) for r, x in col.items() if x} for col in block]


class Complex:
    """A bigraded complex with finitely many nonzero components."""

    def __init__(self, dims: dict[Key, int], diff: dict[Key, linalg.Block]):
        self.dims = {key: n for key, n in dims.items() if n > 0}
        self.diff = {}
        for key, block in diff.items():
            block = _canonical(block, self.dim(_next_key(key)), self.dim(key),
                               "differential", key)
            if any(block):
                self.diff[key] = block
        for key, block in self.diff.items():
            nxt = _next_key(key)
            if nxt in self.diff and any(linalg.mat_mul(self.diff[nxt], block)):
                raise AlgebraError(f"d^2 != 0 at {key}")

    def dim(self, key: Key) -> int:
        return self.dims.get(key, 0)

    def d_block(self, key: Key) -> linalg.Block:
        block = self.diff.get(key)
        if block is None:
            return [{} for _ in range(self.dim(key))]
        return block

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        # zero blocks are dropped and no column stores a zero
        return self.dims == other.dims and self.diff == other.diff

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({w},{parity_name(p)}):{n}" for (w, p), n in sorted(self.dims.items())
        )
        return f"Complex[{inner or '0'}]"


def zero_complex() -> Complex:
    return Complex({}, {})


def direct_sum(a: Complex, b: Complex) -> tuple[Complex, "ChainMap", "ChainMap"]:
    """a + b with the two inclusion maps."""
    dims = {}
    for key in set(a.dims) | set(b.dims):
        dims[key] = a.dim(key) + b.dim(key)
    diff = {}
    for key in set(a.diff) | set(b.diff):
        shift = a.dim(_next_key(key))
        diff[key] = a.d_block(key) + [
            {shift + r: x for r, x in col.items()} for col in b.d_block(key)
        ]
    total = Complex(dims, diff)
    inc_a = {key: _units(a.dim(key)) for key in total.dims}
    inc_b = {key: _units(b.dim(key), a.dim(key)) for key in total.dims}
    return total, ChainMap(a, total, inc_a), ChainMap(b, total, inc_b)


class ChainMap:
    """A degreewise linear map commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex,
                 blocks: dict[Key, linalg.Block], check: bool = True):
        self.source = source
        self.target = target
        self.blocks = {}
        for key, block in blocks.items():
            block = _canonical(block, target.dim(key), source.dim(key), "chain map", key)
            if source.dim(key) and target.dim(key):
                self.blocks[key] = block
        if check:
            self.validate()

    def validate(self):
        for key in self.source.dims:
            nxt = _next_key(key)
            lhs = linalg.mat_mul(self.target.d_block(key), self.block(key))
            rhs = linalg.mat_mul(self.block(nxt), self.source.d_block(key))
            if lhs != rhs:
                raise AlgebraError(f"map does not commute with d at {key}")

    def block(self, key: Key) -> linalg.Block:
        block = self.blocks.get(key)
        if block is None:
            return [{} for _ in range(self.source.dim(key))]
        return block

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(k) == other.block(k) for k in keys)


def identity_chain_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {key: _units(n) for key, n in c.dims.items()}, check=False)


def compose_chain_maps(outer: ChainMap, inner: ChainMap) -> ChainMap:
    if inner.target is not outer.source and inner.target != outer.source:
        raise StructureError("chain maps are not composable")
    blocks = {key: linalg.mat_mul(outer.block(key), inner.block(key))
              for key in inner.source.dims}
    return ChainMap(inner.source, outer.target, blocks, check=False)


def zero_chain_map(source: Complex, target: Complex) -> ChainMap:
    return ChainMap(source, target, {}, check=False)


# -- cells ---------------------------------------------------------------------


def disk_complex(n: int, parity: int) -> Complex:
    """Contractible two-cell complex: generator at (n, parity), its d above."""
    bottom = (n, parity)
    top = _next_key(bottom)
    return Complex({bottom: 1, top: 1}, {bottom: _units(1)})


def sphere_complex(n: int, parity: int) -> Complex:
    """One-dimensional complex concentrated in (n, parity)."""
    return Complex({(n, parity): 1}, {})


def sphere_to_disk(n: int, parity: int) -> ChainMap:
    """The generating cofibration S^{(n+1, parity+1)} -> D^{(n, parity)}."""
    src = sphere_complex(n + 1, (parity + 1) % 2)
    dst = disk_complex(n, parity)
    return ChainMap(src, dst, {(n + 1, (parity + 1) % 2): _units(1)})


def zero_to_disk(n: int, parity: int) -> ChainMap:
    """The generating acyclic cofibration 0 -> D^{(n, parity)}."""
    return ChainMap(zero_complex(), disk_complex(n, parity), {}, check=False)


def cell_catalog() -> dict[str, Complex]:
    """Named disks and spheres; ungraded cells fold in at weight zero."""
    cells: dict[str, Complex] = {}
    for n in range(-3, 4):
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
    # d into key is d out of _prev_key(key); a zero block has rank 0
    ranks = {key: linalg.rank(block) for key, block in c.diff.items()}
    out = {}
    for key, n in sorted(c.dims.items()):
        h = n - ranks.get(key, 0) - ranks.get(_prev_key(key), 0)
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
        # columns: B at key, then A at the next key, whose d lands below B
        nxt = _next_key(key)
        shift = B.dim(nxt)
        diff[key] = B.d_block(key) + [
            fcol | {shift + r: -x for r, x in dcol.items()}
            for fcol, dcol in zip(f.block(nxt), A.d_block(nxt))
        ]
    return Complex(dims, diff)


def is_weak_equivalence(f: ChainMap) -> bool:
    """Quasi-isomorphism test via acyclicity of the mapping cone."""
    return not cohomology_dims(cone(f))


def _full_rank(f: ChainMap, dims: dict[Key, int]) -> bool:
    """Whether the block of f at each key of dims has rank dims[key]."""
    return all(linalg.rank(f.block(key)) == n for key, n in dims.items())


def is_fibration(f: ChainMap) -> bool:
    """Degreewise surjectivity."""
    return _full_rank(f, f.target.dims)


def is_cofibration(f: ChainMap) -> bool:
    """Degreewise injectivity."""
    return _full_rank(f, f.source.dims)


def is_acyclic(c: Complex) -> bool:
    return not cohomology_dims(c)


# -- lifting problems -------------------------------------------------------------


def _unknowns(source: Complex, target: Complex) -> tuple[dict[Key, int], int]:
    """Flat coordinates of the maps source -> target: the entry (r, c) of
    the block at key is unknown offsets[key] + r * source.dim(key) + c."""
    offsets: dict[Key, int] = {}
    total = 0
    for key in sorted(source.dims):
        if target.dim(key) == 0:
            continue
        offsets[key] = total
        total += target.dim(key) * source.dim(key)
    return offsets, total


def _chain_equations(source: Complex, target: Complex,
                     offsets: dict[Key, int]) -> list[linalg.SparseRow]:
    """d_T f = f d_S in the unknowns `_unknowns` numbers, one row per entry of
    the block at the next key; rows with no unknown are left out."""
    rows: list[linalg.SparseRow] = []
    for key in source.dims:
        nxt = _next_key(key)
        n, n_next = source.dim(key), source.dim(nxt)
        for r, dt_row in enumerate(linalg.transpose(target.d_block(key), target.dim(nxt))):
            for c, ds_col in enumerate(source.d_block(key)):
                row = {offsets[key] + k * n + c: x for k, x in dt_row.items()}
                row.update((offsets[nxt] + r * n_next + k, -x) for k, x in ds_col.items())
                if row:
                    rows.append(row)
    return rows


def _unflatten(flat: linalg.SparseRow, offsets: dict[Key, int], source: Complex,
               target: Complex) -> dict[Key, linalg.Block]:
    """The blocks whose entries `_unknowns` numbers, read off flat."""
    blocks = {}
    for key, off in offsets.items():
        n = source.dim(key)
        blocks[key] = [
            {r: flat[off + r * n + c] for r in range(target.dim(key)) if off + r * n + c in flat}
            for c in range(n)
        ]
    return blocks


def solve_lift(i: ChainMap, p: ChainMap, top: ChainMap, bottom: ChainMap):
    """Find h with h i = top, p h = bottom, d h = h d.

    The square is i: A -> B (left), p: X -> Y (right), top: A -> X,
    bottom: B -> Y, assumed commutative.  Returns (ChainMap or None, cert)
    where cert carries the ranks of the flattened system.
    """
    A, B = i.source, i.target
    X, Y = p.source, p.target
    if top.source != A or top.target != X or bottom.source != B or bottom.target != Y:
        raise StructureError("lifting square has mismatched corners")
    for key in set(A.dims):
        lhs = linalg.mat_mul(p.block(key), top.block(key))
        rhs = linalg.mat_mul(bottom.block(key), i.block(key))
        if lhs != rhs:
            raise AlgebraError("lifting square does not commute")

    offsets, total = _unknowns(B, X)

    def var(key: Key, r: int, c: int) -> int:
        return offsets[key] + r * B.dim(key) + c

    rows: list[linalg.SparseRow] = []
    rhs: list[int | Fraction] = []
    # h i = top
    for key in A.dims:
        for r, t_row in enumerate(linalg.transpose(top.block(key), X.dim(key))):
            for c, i_col in enumerate(i.block(key)):
                rows.append({var(key, r, k): x for k, x in i_col.items()})
                rhs.append(t_row.get(c, 0))
    # p h = bottom
    for key in B.dims:
        for r, p_row in enumerate(linalg.transpose(p.block(key), Y.dim(key))):
            for c, b_col in enumerate(bottom.block(key)):
                rows.append({var(key, k, c): x for k, x in p_row.items()})
                rhs.append(b_col.get(r, 0))
    # d_X h = h d_B
    chain = _chain_equations(B, X, offsets)
    rows += chain
    rhs += [0] * len(chain)

    sol, cert = linalg.solve_with_certificate(rows, rhs, total)
    if sol is None:
        return None, cert
    return ChainMap(B, X, _unflatten(sol, offsets, B, X)), cert


# -- factorization by cell attachment ----------------------------------------------


class _MiddleBuilder:
    """A complex grown from a base by attaching cell generators, with a map to B.

    dcols[key] and qcols[key] are the blocks of d and q at key; each key
    starts with as many columns as its dimension and gains one per generator,
    appended, so earlier columns keep their places.  factorize grows it in
    one walk over the keys: at a key, disks (whose tops land at the next
    key), closed generators at the key and relations at the key before.
    """

    def __init__(self, base: Complex, f: ChainMap, B: Complex):
        self.base = base
        self.B = B
        self.dims = dict(base.dims)
        self.dcols = {key: list(base.d_block(key)) for key in base.dims}
        self.qcols = {key: list(f.block(key)) for key in base.dims}

    def dim(self, key: Key) -> int:
        return self.dims.get(key, 0)

    def add_generator(self, key: Key, dx: linalg.SparseRow,
                      q_image: linalg.SparseRow) -> int:
        idx = self.dim(key)
        self.dims[key] = idx + 1
        self.dcols.setdefault(key, []).append(dx)
        self.qcols.setdefault(key, []).append(q_image)
        return idx

    def attach_disk(self, key: Key, b_image: linalg.SparseRow) -> None:
        """Add x at key and y = dx at the next key with q(x) = b, q(y) = d_B b."""
        top_image = linalg.apply(self.B.d_block(key), b_image)
        top_idx = self.add_generator(_next_key(key), {}, top_image)
        self.add_generator(key, {top_idx: 1}, b_image)

    def kernel(self, key: Key) -> tuple[list[linalg.SparseRow], set[int]]:
        """The cocycles of the middle complex at key, and where d's image ends."""
        return linalg.kernel(self.dcols.get(key, []), self.dim(_next_key(key)))

    def materialize(self) -> tuple[ChainMap, ChainMap]:
        """(j, q): the inclusion of the base and the map to B."""
        middle = Complex(self.dims, self.dcols)
        j = ChainMap(self.base, middle, {key: _units(n) for key, n in self.base.dims.items()})
        return j, ChainMap(middle, self.B, self.qcols)


def _all_keys(*complexes: Complex) -> list[Key]:
    """All keys where the complexes or their differential neighbours live."""
    keys = set()
    for c in complexes:
        for key in c.dims:
            keys.update((_prev_key(key), key, _next_key(key)))
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

    # One walk over the keys in sorted order.  At each key: attach disks until
    # q is surjective there; then, in the second mode, with K the cocycles of
    # the middle complex at key, one kernel of [d_B | q K] (d_B out of prev)
    # gives the ends of its image and the pairs (y, c), d_B y + q(K c) = 0.  A
    # cocycle of B whose largest key is no end gets a closed generator; a
    # z = K c independent of the boundaries gets a relation x at prev with
    # dx = z and q(x) = -y, so that d_B q(x) = q dx (the tests' reference
    # eliminates [-d_B | q K], whose pairs are the (-y, c)).  Each dx is some
    # K c, as q dx = d_B q x.  Pairs whose free column is a d_B column (these
    # come first) have c = 0.  Classes are picked by image ends, as
    # dg.compute_cohomology does: the vectors picked from have distinct
    # largest keys and their span holds the image, so a vector is independent
    # modulo the image and the vectors before it exactly when its largest key
    # is no end.  Order: a step writes only to key, to the next key (disk
    # tops) and to prev (relations), and reads only key and prev, which the
    # walk has visited, so each key gets the generators of three passes
    # (disks, closed generators, relations), in their order.  The closed
    # generators' columns are cocycles independent of [d_B | q K] and of each
    # other: they would add pivots and no free column, so the relations need
    # no second elimination.  d out of prev changes only while at key, so the
    # ends taken at prev hold.
    ends: dict[Key, set[int]] = {}
    for key in _all_keys(A, B):
        if B.dim(key):
            reached = linalg.kernel(builder.qcols.get(key, []), B.dim(key))[1]
            for r in range(B.dim(key)):
                if r not in reached:
                    builder.attach_disk(key, {r: 1})
        if mode == "acyclic_cofibration_fibration":
            continue
        kernel_m, ends[key] = builder.kernel(key)
        kernel_b = linalg.kernel(B.d_block(key), B.dim(_next_key(key)))[0]
        if not kernel_m and not kernel_b:
            continue
        prev = _prev_key(key)
        prev_b = B.dim(prev)
        qk = linalg.mat_mul(builder.qcols.get(key, []), kernel_m)
        pairs, hit = linalg.kernel(B.d_block(prev) + qk, B.dim(key))
        for z in kernel_b:
            if max(z) not in hit:
                builder.add_generator(key, {}, z)
        zs = linalg.mat_mul(kernel_m, [{j - prev_b: x for j, x in pair.items() if j >= prev_b}
                                       for pair in pairs])
        for z, pair in zip(zs, pairs):
            if z and max(z) not in ends.get(prev, ()):
                builder.add_generator(prev, z, {j: -x for j, x in pair.items() if j < prev_b})
    return builder.materialize()


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


def _free_table(dims: dict[Key, int],
                prefix: str) -> tuple[GeneratorTable, dict[tuple[Key, int], str]]:
    """The free table on a graded space with dims[key] basis vectors at each
    key: one generator per basis vector (key, i), named prefix0, prefix1, ...
    in key order, and the name of each (key, i)."""
    basis = [(key, i) for key in sorted(dims) for i in range(dims[key])]
    names = {vec: f"{prefix}{n}" for n, vec in enumerate(basis)}
    gens = [Generator(names[vec], *vec[0]) for vec in basis]
    return GeneratorTable(gens, allow_d_names=True), names


def sym_dga(v: Complex) -> tuple[DGAlgebra, dict[tuple[Key, int], str]]:
    """The free graded-commutative algebra on a complex, as a dg algebra."""
    from .dg import DGAlgebra, Derivation
    table, names = _free_table(v.dims, "v")
    images: dict[str, Element] = {}
    for key in sorted(v.dims):
        nxt = _next_key(key)
        for i, col in enumerate(v.d_block(key)):
            img = Element.zero(table)
            for r, x in sorted(col.items()):
                img = img + Element.generator(table, names[(nxt, r)]) * x
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
    htable, _ = _free_table(hdims, "h")
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

