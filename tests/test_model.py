"""Complexes, chain maps, factorizations, lifting problems and the Kunneth check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdga.core import AlgebraError, StructureError
from sdga import linalg
from sdga.model import (
    ChainMap,
    Complex,
    _all_keys,
    _MiddleBuilder,
    _next_key,
    _prev_key,
    _units,
    cell_catalog,
    cohomology_dims,
    compose_chain_maps,
    cone,
    direct_sum,
    disk_complex,
    factorize,
    identity_chain_map,
    is_acyclic,
    is_cofibration,
    is_fibration,
    is_weak_equivalence,
    kunneth_report,
    solve_lift,
    sphere_complex,
    sphere_to_disk,
    sym_dga,
    verify_factorization,
    zero_chain_map,
    zero_complex,
    zero_to_disk,
)
from panels import (
    assert_entry_form,
    invert_matrix,
    random_chain_map,
    random_complex,
    random_invertible,
)

MODES = ("acyclic_cofibration_fibration", "cofibration_acyclic_fibration")


def projection_onto(summand: Complex, total: Complex, include: ChainMap) -> ChainMap:
    """Transpose the coordinate inclusion of a direct summand."""
    blocks = {}
    for key, block in include.blocks.items():
        out = [{} for _ in range(total.dim(key))]
        for j, col in enumerate(block):
            for i, x in col.items():
                out[i][j] = x
        blocks[key] = out
    return ChainMap(total, summand, blocks)


def map_entries(*maps):
    """Every entry of the chain maps' blocks and of their sources' and
    targets' differentials."""
    return [x for f in maps
            for block in [*f.blocks.values(), *f.source.diff.values(), *f.target.diff.values()]
            for col in block for x in col.values()]


# -- complexes ---------------------------------------------------------------------


def test_complex_validation():
    # blocks are columns: a row index past the target or an extra column
    dims = {(0, 0): 1, (1, 1): 1}
    with pytest.raises(StructureError, match="wrong shape"):
        Complex(dims, {(0, 0): [{0: Fraction(1), 1: Fraction(2)}]})
    with pytest.raises(StructureError, match="wrong shape"):
        Complex(dims, {(0, 0): [{0: Fraction(1)}, {0: Fraction(2)}]})
    # zero blocks and blocks off the support are dropped, but only once
    # their shape is checked
    with pytest.raises(StructureError, match=r"differential block at \(7, 0\) has the wrong shape"):
        Complex(dims, {(7, 0): [{}, {}]})
    with pytest.raises(StructureError, match="wrong shape"):
        Complex(dims, {(0, 0): [{}, {}]})
    with pytest.raises(StructureError, match="wrong shape"):
        Complex(dims, {(0, 0): [{3: 0}]})
    with pytest.raises(StructureError, match="wrong shape"):
        Complex(dims, {(1, 1): [{0: 1}]})
    assert Complex(dims, {(0, 0): [{}], (1, 1): [{}]}) == Complex(dims, {})
    with pytest.raises(AlgebraError, match="d\\^2"):
        Complex(
            {(0, 0): 1, (1, 1): 1, (2, 0): 1},
            {(0, 0): [{0: Fraction(1)}], (1, 1): [{0: Fraction(1)}]},
        )


def test_integral_entries_are_stored_as_int():
    """Blocks given with Fraction entries are stored with an int wherever the
    entry is integral, and are equal to the same blocks given with ints."""
    dims = {(0, 0): 2, (1, 1): 2}
    as_fraction = [{0: Fraction(2), 1: Fraction(-1, 2)}, {1: Fraction(6, 2)}]
    as_int = [{0: 2, 1: Fraction(-1, 2)}, {1: 3}]
    a, b = Complex(dims, {(0, 0): as_fraction}), Complex(dims, {(0, 0): as_int})
    assert a == b
    assert [type(x) for col in a.diff[(0, 0)] for x in col.values()] == [int, Fraction, int]
    f = ChainMap(a, b, {(0, 0): [{0: Fraction(1)}, {1: Fraction(1)}],
                        (1, 1): [{0: Fraction(1)}, {1: 1}]})
    assert f == identity_chain_map(b)
    assert_entry_form(map_entries(f))
    # a bool or a float is no entry: True is not 1, and 0.1 no binary expansion
    for bad in (True, 0.1):
        with pytest.raises(AlgebraError, match="not an exact rational"):
            ChainMap(a, b, {(0, 0): [{0: bad}, {1: 1}]})
        with pytest.raises(AlgebraError, match="not an exact rational"):
            Complex({(0, 0): 1, (1, 1): 1}, {(0, 0): [{0: bad}]})


def test_cells_and_catalog():
    d = disk_complex(0, 0)
    assert d.dims == {(0, 0): 1, (1, 1): 1}
    assert is_acyclic(d)
    s = sphere_complex(2, 1)
    assert cohomology_dims(s) == {(2, 1): 1}
    catalog = cell_catalog()
    assert len(catalog) == 32
    for name, c in catalog.items():
        if name.startswith("D"):
            assert is_acyclic(c), name
        else:
            assert cohomology_dims(c) == dict(c.dims), name


def test_direct_sum_cohomology_adds():
    rng = random.Random(60)
    for _ in range(5):
        a = random_complex(rng)
        b = random_complex(rng)
        total, inc_a, inc_b = direct_sum(a, b)
        assert total.total_dim() == a.total_dim() + b.total_dim()
        ha, hb, ht = cohomology_dims(a), cohomology_dims(b), cohomology_dims(total)
        for key in set(ha) | set(hb) | set(ht):
            assert ht.get(key, 0) == ha.get(key, 0) + hb.get(key, 0)


def test_chain_map_validation():
    d = disk_complex(0, 0)
    s = sphere_complex(0, 0)
    with pytest.raises(AlgebraError, match="does not commute"):
        ChainMap(s, d, {(0, 0): [{0: Fraction(1)}]})
    with pytest.raises(StructureError, match="wrong shape"):
        ChainMap(s, d, {(0, 0): [{0: Fraction(1)}, {}]})
    # off the support: no source, no target, neither
    with pytest.raises(StructureError, match=r"chain map block at \(1, 1\)"):
        ChainMap(s, d, {(1, 1): [{0: 1}]})
    with pytest.raises(StructureError, match="wrong shape"):
        ChainMap(s, zero_complex(), {(0, 0): [{0: 1}]})
    with pytest.raises(StructureError, match=r"chain map block at \(7, 0\) has the wrong shape"):
        ChainMap(s, d, {(7, 0): [{}]})
    assert ChainMap(s, zero_complex(), {(0, 0): [{}]}) == zero_chain_map(s, zero_complex())
    # mapping the sphere to the top cell is a chain map
    ChainMap(sphere_complex(1, 1), d, {(1, 1): [{0: Fraction(1)}]})
    zero_chain_map(s, d).validate()
    assert compose_chain_maps(identity_chain_map(d), identity_chain_map(d)) == identity_chain_map(d)


def test_cone_detects_equivalences():
    rng = random.Random(61)
    for _ in range(5):
        c = random_complex(rng)
        assert is_acyclic(cone(identity_chain_map(c)))
    s = sphere_complex(0, 0)
    collapse = zero_chain_map(s, zero_complex())
    assert not is_weak_equivalence(collapse)
    assert is_weak_equivalence(identity_chain_map(s))


def test_generating_map_predicates():
    f = sphere_to_disk(0, 0)
    assert is_cofibration(f)
    assert not is_fibration(f)
    assert not is_weak_equivalence(f)
    g = zero_to_disk(0, 0)
    assert is_cofibration(g)
    assert is_weak_equivalence(g)
    assert not is_fibration(g)


# -- factorization -----------------------------------------------------------------


def test_factorize_generating_map():
    f = sphere_to_disk(0, 0)
    for mode in MODES:
        j, q = factorize(f, mode)
        report = verify_factorization(f, j, q, mode)
        assert report["ok"], (mode, report)


def test_factorize_random_panel():
    rng = random.Random(62)
    for _ in range(8):
        a = random_complex(rng)
        b = random_complex(rng)
        f = random_chain_map(rng, a, b)
        for mode in MODES:
            j, q = factorize(f, mode)
            report = verify_factorization(f, j, q, mode)
            assert report["ok"], (mode, report)


def crowded_complex(rng, keys):
    """2-3 disk or sphere cells at each of the given bidegrees."""
    total = zero_complex()
    for n, p in keys:
        for _ in range(rng.randint(2, 3)):
            cell = disk_complex(n, p) if rng.random() < 0.5 else sphere_complex(n, p)
            total, _, _ = direct_sum(total, cell)
    return total


@pytest.mark.parametrize("seed", range(25))
def test_factorize_crowded_panel(seed):
    """Several cells per bidegree and maps that are not injective: a class of
    the middle complex that q kills may need a combination of cocycles, which
    the relations must find (verify_factorization compares cohomology
    dimensions and does not depend on the construction)."""
    rng = random.Random(6400 + seed)
    keys = [(n, rng.randint(0, 1)) for n in rng.sample(range(-2, 2), 2)]
    a = crowded_complex(rng, keys)
    b = crowded_complex(rng, keys)
    f = random_chain_map(rng, a, b)
    # the same map scaled by a non-integral or a large factor
    lam = rng.choice([Fraction(1, 2), Fraction(-3, 7), 10**12 + 39])
    scaled = ChainMap(a, b, {key: [{r: x * lam for r, x in col.items()} for col in block]
                             for key, block in f.blocks.items()})
    for g in (f, scaled):
        for mode in MODES:
            j, q = factorize(g, mode)
            report = verify_factorization(g, j, q, mode)
            assert report["ok"], (mode, report)
            assert_entry_form(map_entries(g, j, q, compose_chain_maps(q, j)), mode)


def factorize_oracle(f: ChainMap, mode: str) -> tuple[ChainMap, ChainMap, int, int]:
    """The three-pass reference for factorize, as it ran when every pass
    grew a linalg.RowSpan: pass 1 attaches disks, pass 2 closed generators
    and pass 3 relations, each pass a walk over all keys, and the classes
    come from quotient_representatives, which picks by position the vectors
    independent modulo a span and the vectors before them.  Returns j, q,
    the number of relations pass 3 attached, and the number of keys whose
    relations landed at prev(key) although the key got closed generators
    too, the case where one walk orders the jobs differently."""
    A, B = f.source, f.target
    builder = _MiddleBuilder(A, f, B)
    for key in _all_keys(A, B):
        units = _units(B.dim(key))
        if units:
            for r in linalg.quotient_representatives(units, builder.qcols.get(key, [])):
                builder.attach_disk(key, units[r])
    if mode == "acyclic_cofibration_fibration":
        return (*builder.materialize(), 0, 0)
    closed = set()
    for key in _all_keys(A, B):
        if B.dim(key) == 0:
            continue
        kernel_b = linalg.kernel(B.d_block(key), B.dim(_next_key(key)))[0]
        if not kernel_b:
            continue
        hit = B.d_block(_prev_key(key)) + linalg.mat_mul(builder.qcols.get(key, []),
                                                         builder.kernel(key)[0])
        for i in linalg.quotient_representatives(kernel_b, hit):
            builder.add_generator(key, {}, kernel_b[i])
            closed.add(key)
    attached = same_key = 0
    for key in _all_keys(A, B):
        if builder.dim(key) == 0:
            continue
        kernel_m = builder.kernel(key)[0]
        if not kernel_m:
            continue
        prev = _prev_key(key)
        prev_b = B.dim(prev)
        minus_db = [{r: -x for r, x in col.items()} for col in B.d_block(prev)]
        stacked = minus_db + linalg.mat_mul(builder.qcols[key], kernel_m)
        pairs = linalg.kernel(stacked, B.dim(key))[0]
        zs = linalg.mat_mul(kernel_m, [{j - prev_b: x for j, x in pair.items() if j >= prev_b}
                                       for pair in pairs])
        picked = linalg.quotient_representatives(zs, builder.dcols.get(prev, []))
        for i in picked:
            builder.add_generator(prev, zs[i], {j: x for j, x in pairs[i].items() if j < prev_b})
        attached += len(picked)
        same_key += bool(picked) and key in closed
    return (*builder.materialize(), attached, same_key)


def factorize_panel():
    """Seeded chain maps for the factorize reference: 24 maps between small
    random complexes, 12 between crowded ones, whose H(f) often has a
    kernel, one between two complexes of 36-44 cells, and 60 zero or sparse
    maps between sums of up to 5 cells at weights -1..1, whose H(f) can
    have a kernel and a cokernel at one key."""
    rng = random.Random(6500)
    maps = []
    for _ in range(24):
        a, b = random_complex(rng), random_complex(rng)
        maps.append(random_chain_map(rng, a, b))
    for _ in range(12):
        keys = [(n, rng.randint(0, 1)) for n in rng.sample(range(-2, 2), 2)]
        a, b = crowded_complex(rng, keys), crowded_complex(rng, keys)
        maps.append(random_chain_map(rng, a, b))
    a, b = (random_complex(rng, max_cells=44, min_cells=36) for _ in range(2))
    maps.append(random_chain_map(rng, a, b))
    rng = random.Random(3434)
    for n in range(60):
        a, b = (random_complex(rng, max_cells=5, weight_range=(-1, 1)) for _ in range(2))
        maps.append(zero_chain_map(a, b) if n % 2 else random_chain_map(rng, a, b, 0.2))
    return maps


def test_factorize_picks_the_classes_the_row_span_picks():
    """The one walk by image ends attaches the same cells, in the same
    order, as the three-pass row-span reference: the same j and q in both
    modes, relations attached too, and at some key both closed generators
    and relations at prev(key), where the walk interleaves the passes."""
    attached, same_key = [], 0
    for f in factorize_panel():
        for mode in MODES:
            j, q, n_attached, n_same = factorize_oracle(f, mode)
            assert factorize(f, mode) == (j, q), mode
            attached.append(n_attached)
            same_key += n_same
    assert sum(map(bool, attached)) >= 5, attached
    assert attached[2 * 36 + 1] > 0  # the large map
    assert same_key >= 1


def test_two_out_of_three():
    rng = random.Random(63)
    for _ in range(10):
        a = random_complex(rng)
        b = random_complex(rng)
        f = random_chain_map(rng, a, b)
        j, q = factorize(f, "acyclic_cofibration_fibration")
        assert is_weak_equivalence(j)
        assert is_weak_equivalence(f) == is_weak_equivalence(q)


# -- lifting problems ----------------------------------------------------------------


def test_solve_lift_against_projection():
    rng = random.Random(64)
    for _ in range(6):
        a = random_complex(rng, max_cells=2)
        b = random_complex(rng, max_cells=2)
        f = random_chain_map(rng, a, b)
        j, _ = factorize(f, "acyclic_cofibration_fibration")
        middle = j.target
        y = random_complex(rng, max_cells=2)
        z = random_complex(rng, max_cells=2)
        total, inc_y, _ = direct_sum(y, z)
        p = projection_onto(y, total, inc_y)
        assert is_fibration(p)
        bottom = random_chain_map(rng, middle, y)
        top = compose_chain_maps(inc_y, compose_chain_maps(bottom, j))
        h, cert = solve_lift(j, p, top, bottom)
        assert h is not None, cert
        assert compose_chain_maps(h, j) == top
        assert compose_chain_maps(p, h) == bottom


def test_solve_lift_negative_with_certificate():
    s = sphere_complex(-1, 1)
    x = disk_complex(-1, 1)
    p = ChainMap(x, s, {(-1, 1): [{0: Fraction(1)}]})
    i = zero_chain_map(zero_complex(), s)
    top = zero_chain_map(zero_complex(), x)
    bottom = ChainMap(s, s, {(-1, 1): [{0: Fraction(1)}]})
    h, cert = solve_lift(i, p, top, bottom)
    assert h is None
    assert cert["consistent"] is False
    assert cert["rank"] < cert["rank_augmented"]



def test_solve_lift_certifies_a_top_map_that_b_cannot_carry():
    """i: S0 -> 0, p: S0 -> 0, top = id, bottom = 0: h i = 0 cannot be the
    identity.  The system has a zero row with right-hand side 1, and the
    certificate carries its ranks."""
    s, z = sphere_complex(0, 0), zero_complex()
    h, cert = solve_lift(zero_chain_map(s, z), zero_chain_map(s, z),
                         identity_chain_map(s), zero_chain_map(z, z))
    assert h is None
    assert cert == {"rank": 0, "rank_augmented": 1, "consistent": False}


def factorized_pair(rng, max_cells):
    """Two seeded random maps and both factorizations of each, checked by
    MC5: verify_factorization is ok in both modes on every map drawn."""
    out = []
    for _ in range(2):
        f = random_chain_map(rng, random_complex(rng, max_cells), random_complex(rng, max_cells))
        modes = {mode: factorize(f, mode) for mode in MODES}
        for mode, (j, q) in modes.items():
            report = verify_factorization(f, j, q, mode)
            assert report["ok"], (mode, report)
        out.append(modes)
    return out


def mc4_square(rng, half, max_cells):
    """A lifting square (i, p, top, bottom) that MC4 says has a lift.

    Half 1: i a cofibration (the j of the second mode), p an acyclic
    fibration (its q on another map), bottom random, and top a lift of
    bottom i along p from 0 -> A.  Half 2: i an acyclic cofibration (the j
    of the first mode), p a fibration (the q of either mode), top random,
    and bottom a lift of p top along Y -> 0 from i.  Each helper lift is
    itself an MC4 instance."""
    first, second = factorized_pair(rng, max_cells)
    if half == 1:
        i, p = first[MODES[1]][0], second[MODES[1]][1]
        bottom = random_chain_map(rng, i.target, p.target)
        top, cert = solve_lift(zero_chain_map(zero_complex(), i.source), p,
                               zero_chain_map(zero_complex(), p.source),
                               compose_chain_maps(bottom, i))
        assert top is not None, cert
    else:
        i, p = first[MODES[0]][0], second[rng.choice(MODES)][1]
        top = random_chain_map(rng, i.source, p.source)
        bottom, cert = solve_lift(i, zero_chain_map(p.target, zero_complex()),
                                  compose_chain_maps(p, top),
                                  zero_chain_map(i.target, zero_complex()))
        assert bottom is not None, cert
    return i, p, top, bottom


@pytest.mark.parametrize("half", [1, 2])
def test_model_axioms_mc4_and_mc5(half):
    """MC4 end to end: every square of a cofibration against an acyclic
    fibration, or of an acyclic cofibration against a fibration, has a
    lift, so solve_lift must find h with h i = top and p h = bottom; MC5
    is checked on every map drawn.  The tests above that certify no lift
    are the controls."""
    rng = random.Random(3500 + half)
    for max_cells in [3] * 30 + [8] * 3:
        i, p, top, bottom = mc4_square(rng, half, max_cells)
        h, cert = solve_lift(i, p, top, bottom)
        assert h is not None, cert
        assert compose_chain_maps(h, i) == top
        assert compose_chain_maps(p, h) == bottom


# -- invariance and Kunneth -----------------------------------------------------------


def test_cohomology_is_basis_independent():
    rng = random.Random(65)
    for _ in range(5):
        c = random_complex(rng)
        change = {
            key: random_invertible(rng, n) for key, n in c.dims.items() if n
        }
        diff = {}
        for key, block in c.diff.items():
            nxt = (key[0] + 1, (key[1] + 1) % 2)
            if not c.dim(key) or not c.dim(nxt):
                continue
            mat = linalg.mat_mul(change[nxt], block)
            diff[key] = linalg.mat_mul(mat, invert_matrix(change[key]))
        conjugated = Complex(dict(c.dims), diff)
        assert cohomology_dims(conjugated) == cohomology_dims(c)


def test_kunneth_on_random_complexes():
    rng = random.Random(66)
    for _ in range(3):
        v = random_complex(rng, max_cells=2, weight_range=(-1, 1))
        report = kunneth_report(v, -2, 2, 4)
        assert report["all_agree"], report


def test_sym_dga_structure():
    dga, names = sym_dga(sphere_complex(1, 1))
    assert len(dga.table) == 1
    gen = names[((1, 1), 0)]
    assert dga.differential.image_of(gen).is_zero()
    dga, names = sym_dga(disk_complex(0, 0))
    bottom = names[((0, 0), 0)]
    top = names[((1, 1), 0)]
    image = dga.differential.image_of(bottom)
    assert not image.is_zero()
    assert list(image.terms) == [tuple(1 if g.name == top else 0 for g in dga.table.generators)]
