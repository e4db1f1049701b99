"""Seeded input documents for the sdga benchmark.

Everything here is built from `random.Random` and `fractions.Fraction` alone,
so no change to sdga (its samplers included) can move a workload.  Each
generator returns plain JSON-ready data in the CLI's document formats.

Algebras get d^2 = 0 by construction: every non-closed generator is a
"killer" whose differential is a combination of products of closed
generators.  Complexes are direct sums of disk and sphere cells written in
scrambled integer bases; chain maps are built on the cells and carried
through the same basis changes, so they commute with d by construction.
Lifting squares are solvable by construction: top = h0 o i and
bottom = p o h0 for a chain map h0.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- algebras ----------------------------------------------------------------------


def _gen(name: str, weight: int, parity: int) -> dict:
    return {"name": name, "weight": weight, "parity": "odd" if parity else "even"}


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _combination(terms: list[tuple[Fraction, str]]) -> str:
    """Render sum(c * m) in the CLI's expression grammar."""
    out = ""
    for k, (c, mono) in enumerate(terms):
        if k == 0:
            out = f"{c} * {mono}"
        else:
            out += f" {'-' if c < 0 else '+'} {abs(c)} * {mono}"
    return out


def _killer_image(rng, closed, kind: str, parts: int, slot: int) -> tuple[str, int, int]:
    """A nonzero combination of 2-fold products of closed generators.

    `kind` fixes the parities of the factors ('ee', 'eo' or 'oo') and
    `slot` picks the weight among those such products can have, so the
    killer's bidegree, and with it every basis size, is part of the shape.
    The seed draws only which products of that weight and their
    coefficients.  Returns (expression, weight, parity).
    """
    want = sorted(kind.replace("e", "0").replace("o", "1"))
    pairs = [
        (i, j)
        for i in range(len(closed))
        for j in range(i + 1, len(closed))
        if sorted(f"{closed[i][2]}{closed[j][2]}") == want
    ]
    weights = sorted({closed[i][1] + closed[j][1] for i, j in pairs})
    w = weights[slot % len(weights)]
    p = kind.count("o") % 2
    same = [(i, j) for i, j in pairs if closed[i][1] + closed[j][1] == w]
    chosen = rng.sample(same, min(parts, len(same)))
    terms = [(_coeff(rng), f"{closed[i][0]} * {closed[j][0]}") for i, j in sorted(chosen)]
    return _combination(terms), w, p


def _add_killers(rng, gens, diff, closed, kinds: str, parts: int) -> None:
    for k, kind in enumerate(kinds.split()):
        expr, w, p = _killer_image(rng, closed, kind, parts, k)
        name = f"y{k + 1}"
        gens.append(_gen(name, w - 1, (p + 1) % 2))
        diff[name] = expr


def sullivan_algebra(rng: random.Random, even_weights: list[int], odd_weights: list[int],
                     kinds: str) -> dict:
    """Positive-weight pure Sullivan algebra.

    Closed generators have the given weights; each killer y has d y a
    combination of products of closed generators whose parities `kinds`
    fixes, e.g. "ee eo".  The seed draws the factors and coefficients.
    """
    closed = [(f"x{k + 1}", w, 0) for k, w in enumerate(even_weights)]
    closed += [(f"e{k + 1}", w, 1) for k, w in enumerate(odd_weights)]
    rng.shuffle(closed)
    gens = [_gen(*c) for c in closed]
    diff: dict[str, str] = {}
    _add_killers(rng, gens, diff, closed, kinds, 2)
    return {"generators": gens, "differential": diff}


def koszul_algebra(rng: random.Random, n_pairs: int, closed_shape: list[tuple[int, int]],
                   kinds: str) -> dict:
    """Koszul pairs t (even, weight 0) with d t = c * s (s odd, weight 1),
    closed generators of the given (weight, parity), and killers of closed
    products (the s generators count as closed).

    The weight-0 even generators make every weight space infinite, so the
    degree cap decides the basis sizes.
    """
    gens = []
    diff: dict[str, str] = {}
    closed = []
    for k in range(n_pairs):
        t, s = f"t{k + 1}", f"s{k + 1}"
        gens += [_gen(t, 0, 0), _gen(s, 1, 1)]
        diff[t] = _combination([(_coeff(rng), s)])
        closed.append((s, 1, 1))
    for k, (weight, parity) in enumerate(closed_shape):
        c = (f"c{k + 1}", weight, parity)
        gens.append(_gen(*c))
        closed.append(c)
    _add_killers(rng, gens, diff, closed, kinds, 1)
    return {"generators": gens, "differential": diff}


def coefficient_algebra(rng: random.Random, shape: str) -> dict:
    """A coefficient algebra for cotensors, one generator group per word.

    'K' is a Koszul pair a (even, weight 0) with d a = c * b (b odd,
    weight 1); 'e<w>' and 'o<w>' are closed even and odd generators of
    weight w.  The seed draws the coefficients.
    """
    gens = []
    diff: dict[str, str] = {}
    names = iter("abcdefgh")
    for word in shape.split():
        if word == "K":
            name, partner = next(names), next(names)
            gens += [_gen(name, 0, 0), _gen(partner, 1, 1)]
            diff[name] = _combination([(_coeff(rng), partner)])
        else:
            gens.append(_gen(next(names), int(word[1:]), 1 if word[0] == "o" else 0))
    return {"generators": gens, "differential": diff}


# -- complexes ----------------------------------------------------------------------
#
# Keys are (weight, parity); d raises weight by one and flips parity.

Key = tuple[int, int]


def _next(key: Key) -> Key:
    return (key[0] + 1, (key[1] + 1) % 2)


def _key_str(key: Key) -> str:
    return f"{key[0]},{'odd' if key[1] else 'even'}"


def _zeros(r: int, c: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * c for _ in range(r)]


def _matmul(a, b, inner: int, cols: int):
    out = _zeros(len(a), cols)
    for i, row in enumerate(a):
        orow = out[i]
        for k in range(inner):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out


class CellComplex:
    """A direct sum of cells ('D', key) or ('S', key) in a scrambled basis.

    A disk at key contributes a bottom basis vector at key and a top one at
    the next key with d(bottom) = top; a sphere contributes one cycle.  The
    scrambled basis at each key is T_key times the cell basis, with T a
    random unimodular integer matrix whose inverse is kept alongside.
    """

    def __init__(self, rng: random.Random, cells: list[tuple[str, Key]]):
        self.cells = cells
        self.slots: dict[Key, list[tuple[int, str]]] = {}
        for idx, (kind, key) in enumerate(cells):
            self.slots.setdefault(key, []).append((idx, "bottom" if kind == "D" else "sphere"))
            if kind == "D":
                self.slots.setdefault(_next(key), []).append((idx, "top"))
        self.dims = {key: len(v) for key, v in self.slots.items()}
        self.T: dict[Key, list] = {}
        self.Tinv: dict[Key, list] = {}
        for key, n in self.dims.items():
            self.T[key], self.Tinv[key] = _unimodular(rng, n)

    def position(self, key: Key, cell: int, role: str) -> int:
        return self.slots[key].index((cell, role))

    def cell_d(self, key: Key):
        """d in the cell basis, from key to the next key."""
        nxt = _next(key)
        mat = _zeros(self.dims.get(nxt, 0), self.dims.get(key, 0))
        for j, (cell, role) in enumerate(self.slots.get(key, [])):
            if role == "bottom":
                mat[self.position(nxt, cell, "top")][j] = Fraction(1)
        return mat

    def scrambled_d(self, key: Key):
        nxt = _next(key)
        n, m = self.dims.get(key, 0), self.dims.get(nxt, 0)
        if not n or not m:
            return None
        mat = self.cell_d(key)
        mat = _matmul(mat, self.Tinv[key], n, n)
        return _matmul(self.T[nxt], mat, m, n)

    def doc(self) -> dict:
        diff = {}
        for key in sorted(self.dims):
            mat = self.scrambled_d(key)
            if mat is not None and any(any(row) for row in mat):
                diff[_key_str(key)] = _matrix_doc(mat)
        return {"dims": {_key_str(k): n for k, n in sorted(self.dims.items())},
                "differential": diff}


def _matrix_doc(mat) -> list[list]:
    return [[int(x) if x.denominator == 1 else str(x) for x in row] for row in mat]


def _unimodular(rng: random.Random, n: int):
    """A random integer matrix of determinant +-1 and its inverse."""
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    tinv = [row[:] for row in t]
    if n < 2:
        return t, tinv
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        lam = rng.choice([-2, -1, 1, 2])
        # row_a += lam * row_b on t; col_b -= lam * col_a on the inverse
        t[a] = [x + lam * y for x, y in zip(t[a], t[b])]
        for row in tinv:
            row[b] -= lam * row[a]
    return t, tinv


def random_cells(rng: random.Random, keys: list[Key], count: int) -> list[tuple[str, Key]]:
    """count cells, each a disk or a sphere with even odds, at a random key."""
    return [("D" if rng.random() < 0.5 else "S", rng.choice(keys)) for _ in range(count)]


def cell_map(rng: random.Random, src: CellComplex, dst: CellComplex,
             layout: random.Random) -> dict[Key, list]:
    """Blocks of a random chain map src -> dst, in the scrambled bases.

    On cells the allowed pieces are S^k -> S^k, D^k -> D^k (same scalar on
    both cells), D^k -> S^k on the bottom cell and S^{k+1} -> D^k onto the
    top cell; each commutes with d, so every combination does.  `layout`
    draws which cell pairs are joined, `rng` the scalars.
    """
    blocks = {key: _zeros(dst.dims.get(key, 0), n) for key, n in src.dims.items()}
    for ci, (ckind, ckey) in enumerate(src.cells):
        for di, (dkind, dkey) in enumerate(dst.cells):
            if layout.random() < 0.4:
                continue
            lam = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            if ckind == "S" and dkind == "S" and ckey == dkey:
                blocks[ckey][dst.position(ckey, di, "sphere")][src.position(ckey, ci, "sphere")] += lam
            elif ckind == "D" and dkind == "D" and ckey == dkey:
                blocks[ckey][dst.position(ckey, di, "bottom")][src.position(ckey, ci, "bottom")] += lam
                top = _next(ckey)
                blocks[top][dst.position(top, di, "top")][src.position(top, ci, "top")] += lam
            elif ckind == "D" and dkind == "S" and ckey == dkey:
                blocks[ckey][dst.position(ckey, di, "sphere")][src.position(ckey, ci, "bottom")] += lam
            elif ckind == "S" and dkind == "D" and ckey == _next(dkey):
                blocks[ckey][dst.position(ckey, di, "top")][src.position(ckey, ci, "sphere")] += lam
    out = {}
    for key, mat in blocks.items():
        n, m = src.dims[key], dst.dims.get(key, 0)
        if not m:
            continue
        # scrambled map = T_dst * cell map * T_src^{-1}
        out[key] = _matmul(dst.T[key], _matmul(mat, src.Tinv[key], n, n), m, n)
    return out


def compose_blocks(outer: dict, inner: dict, mid_dims: dict, src_dims: dict) -> dict:
    out = {}
    for key, ib in inner.items():
        ob = outer.get(key)
        if ob is None:
            continue
        out[key] = _matmul(ob, ib, mid_dims[key], src_dims[key])
    return out


def map_doc(src: CellComplex, dst: CellComplex, blocks: dict) -> dict:
    return {"source": src.doc(), "target": dst.doc(),
            "blocks": {_key_str(k): _matrix_doc(m) for k, m in sorted(blocks.items())
                       if any(any(row) for row in m)}}


def lifting_square(rng: random.Random, shapes: list[list[tuple[str, Key]]],
                   layout: random.Random) -> dict:
    """A solvable lifting square A -i-> B, X -p-> Y with top = h0 i and
    bottom = p h0; `shapes` holds the cell lists of A, B, X and Y, and
    `layout` draws which cells the maps join."""
    A, B, X, Y = (CellComplex(rng, cells) for cells in shapes)
    i = cell_map(rng, A, B, layout)
    p = cell_map(rng, X, Y, layout)
    h0 = cell_map(rng, B, X, layout)
    top = compose_blocks(h0, i, B.dims, A.dims)
    bottom = compose_blocks(p, h0, X.dims, B.dims)
    return {"i": map_doc(A, B, i), "p": map_doc(X, Y, p),
            "top": map_doc(A, X, top), "bottom": map_doc(B, Y, bottom)}


# -- simplicial forms ----------------------------------------------------------------


def barycentric_form(rng: random.Random, n: int, terms: list[tuple[int, int, int]],
                     layout: random.Random) -> str:
    """A form sum c * t0^a * ti^b * dt_J in the redundant coordinates.

    Each (a, b, k) fixes the exponents and the form weight k = |J|; `layout`
    draws the vertex i in 1..n and the set J, `rng` the coefficient.
    Eliminating t0 expands t0^a into every monomial of degree <= a, so a
    sets the cost, and i and J move it too.
    """
    pieces = []
    for a, b, k in terms:
        i = layout.randint(1, n)
        factors = [f"t0^{a}", f"t{i}^{b}"]
        factors += [f"dt{v}" for v in sorted(layout.sample(range(n + 1), k))]
        pieces.append((Fraction(rng.choice([-3, -2, -1, 1, 2, 3])), " * ".join(factors)))
    return _combination(pieces)
