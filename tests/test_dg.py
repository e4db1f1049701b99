"""Derivations, differentials, cohomology, square-zero extensions, Kahler forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdga.core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    _add_into,
    _mul_terms,
    monomial_bases,
    monomial_basis,
    parity_name,
    parse,
    partial,
    render,
    weight_degree_bound,
)
from sdga.dg import (
    DGAlgebra,
    Derivation,
    KahlerModule,
    SquareZeroExtension,
    _differential_matrix,
    compute_cohomology,
    euler_derivation,
    leibniz_defect,
)
from sdga import linalg, sampling
import panels
from test_linalg import oracle_nullspace, oracle_rank


@pytest.fixture
def table():
    return GeneratorTable([
        Generator("x", 0, 0),
        Generator("y", 0, 0),
        Generator("xi", 1, 1),
    ])


def koszul():
    tab = GeneratorTable([Generator("t", 0, 0), Generator("theta", 1, 1)])
    d = Derivation(tab, {"t": Element.generator(tab, "theta")}, 1, 1)
    return DGAlgebra(tab, d)


def reverse_koszul():
    tab = GeneratorTable([Generator("theta", 0, 1), Generator("t", 1, 0)])
    d = Derivation(tab, {"theta": Element.generator(tab, "t")}, 1, 1)
    return DGAlgebra(tab, d)


def _map_on_generators(kind, table, images, check=True):
    """An algebra map (the identity but for `images`) or a derivation, both
    of shift (0, even), so that one image is right or wrong for both."""
    if kind == "map":
        identity = {g.name: Element.generator(table, g.name) for g in table}
        return AlgebraMap(table, table, {**identity, **images}, check=check)
    return Derivation(table, images, 0, EVEN, check=check)


@pytest.mark.parametrize("kind", ["map", "derivation"])
def test_maps_on_generators_read_their_images_alike(table, kind):
    x, xi = Element.generator(table, "x"), Element.generator(table, "xi")
    # a missing image: an error for a map, zero for a derivation
    if kind == "map":
        with pytest.raises(AlgebraError, match="no image given for generator 'x'"):
            AlgebraMap(table, table, {})
    else:
        assert Derivation(table, {}, 0, EVEN).is_zero()
    # a scalar image is that scalar over the table
    for c in (3, Fraction(-1, 2)):
        f = _map_on_generators(kind, table, {"x": c})
        assert f.image_of("x") == Element.scalar(table, c)
    other = GeneratorTable([Generator("x", 0, 0)])
    for check in (True, False):
        with pytest.raises(AlgebraError, match="wrong table"):
            _map_on_generators(kind, table, {"x": Element.generator(other, "x")}, check)
    # an inhomogeneous image and a wrong bidegree fail the check only
    for image, message in ((x + xi, "'x' is not homogeneous"),
                           (xi, r"'x' has bidegree \(1, 1\), expected \(0, 0\)")):
        with pytest.raises(AlgebraError, match=message):
            _map_on_generators(kind, table, {"x": image})
        assert _map_on_generators(kind, table, {"x": image}, check=False).image_of("x") == image


@pytest.mark.parametrize("kind", ["map", "derivation"])
def test_maps_on_generators_reject_unknown_names(table, kind):
    """An image for a name the source table lacks is an error, with or
    without the bidegree check, not an image silently dropped."""
    x = Element.generator(table, "x")
    for images in ({"xx": x}, {"x": x, "zeta": 5}):
        unknown = next(name for name in images if name not in table.index)
        for check in (True, False):
            with pytest.raises(AlgebraError,
                               match=f"image given for unknown generator '{unknown}'"):
                _map_on_generators(kind, table, images, check)


def test_derivation_rejects_wrong_bidegree(table):
    with pytest.raises(AlgebraError):
        Derivation(table, {"x": Element.generator(table, "x")}, 1, 1)


@pytest.mark.parametrize("seed", range(20))
def test_derivations_satisfy_super_leibniz(table, seed):
    rng = random.Random(seed)
    D = sampling.random_derivation(rng, table, rng.randint(-1, 2), rng.randint(0, 1))
    a, b = panels.random_homogeneous_pair(rng, table)
    sign = -1 if (D.parity_shift and a.parity()) else 1
    assert D(a * b) == D(a) * b + a * D(b) * sign
    assert leibniz_defect(D, a, b).is_zero()


@pytest.mark.parametrize("seed", range(15))
def test_bracket_is_commutator_on_elements(table, seed):
    rng = random.Random(100 + seed)
    D1 = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    D2 = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    f = sampling.random_element(rng, table)
    sign = -1 if (D1.parity_shift and D2.parity_shift) else 1
    assert D1.bracket(D2)(f) == D1(D2(f)) - D2(D1(f)) * sign


@pytest.mark.parametrize("seed", range(10))
def test_bracket_super_antisymmetry(table, seed):
    rng = random.Random(200 + seed)
    D1 = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    D2 = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    sign = -1 if (D1.parity_shift and D2.parity_shift) else 1
    lhs = D1.bracket(D2)
    rhs = D2.bracket(D1).scale(-sign)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(8))
def test_bracket_super_jacobi(table, seed):
    """[X,[Y,Z]] = [[X,Y],Z] + (-1)^{|X||Y|} [Y,[X,Z]]."""
    rng = random.Random(300 + seed)
    X = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    Y = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    Z = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    sign = -1 if (X.parity_shift and Y.parity_shift) else 1
    lhs = X.bracket(Y.bracket(Z))
    rhs = X.bracket(Y).bracket(Z) + Y.bracket(X.bracket(Z)).scale(sign)
    assert lhs == rhs


def test_euler_derivation_counts_weight(table):
    eps = euler_derivation(table)
    rng = random.Random(5)
    a = sampling.random_homogeneous(rng, table, 2, 0, cap=4)
    assert eps(a) == a * 2


def test_euler_bracket_with_differential():
    dga = koszul()
    eps = euler_derivation(dga.table)
    assert eps.bracket(dga.differential) == dga.differential


def test_dgalgebra_requires_square_zero():
    tab = GeneratorTable([Generator("a", 0, 0), Generator("b", 1, 1),
                          Generator("c", 2, 0)])
    d = Derivation(tab, {
        "a": Element.generator(tab, "b"),
        "b": Element.generator(tab, "c"),
    }, 1, 1)
    with pytest.raises(AlgebraError):
        DGAlgebra(tab, d)


@pytest.mark.parametrize("seed", range(10))
def test_differential_leibniz_and_square_zero(seed):
    dga = koszul()
    rng = random.Random(400 + seed)
    # only the (0, even) and (1, odd) slices of the Koszul table are nonempty
    a, b = panels.random_homogeneous_pair(rng, dga.table, weight_range=(0, 1))
    sign = -1 if a.parity() else 1
    assert dga.d(a * b) == dga.d(a) * b + a * dga.d(b) * sign
    assert dga.d(dga.d(sampling.random_element(rng, dga.table))).is_zero()


def test_pair_helper_raises_rather_than_return_a_vacuous_pair():
    # over weights 0..3 a draw finds a pair one time in 16; seed 401 runs out
    with pytest.raises(ValueError):
        panels.random_homogeneous_pair(random.Random(401), koszul().table)


@pytest.mark.parametrize("make,expected", [
    (koszul, {(0, 0): 1}),
    (reverse_koszul, {(0, 0): 1}),
])
def test_koszul_cohomology_is_the_ground_field(make, expected):
    report = make().cohomology(-3, 3, 6)
    dims = {k: v for k, v in report.dims().items() if v}
    assert dims == expected


def test_cohomology_representatives_are_cocycles():
    dga = koszul()
    report = dga.cohomology(0, 0, 4)
    for rep in report.representatives(0, 0):
        elem = parse(dga.table, rep)
        assert dga.d(elem).is_zero()


def test_cohomology_exactness_flag_for_bounded_weights():
    tab = GeneratorTable([Generator("a", 1, 1), Generator("b", 2, 0)])
    dga = DGAlgebra(tab, Derivation(tab, {"a": Element.generator(tab, "b")}, 1, 1))
    report = dga.cohomology(0, 3, 8)
    assert report.exact(1, 1)
    assert report.dim(1, 1) == 0
    assert report.dim(2, 0) == 0


# -- the sparse cohomology path against the dense pipeline it replaced -------------


def dense_cohomology_oracle(table, d, w_min, w_max, cap):
    """compute_cohomology as a dense pipeline: every block a dense matrix, the
    kernel read off the dense elimination, representatives the kernel vectors
    that a dense echelon of the image and the earlier ones does not reduce to
    zero, each rendered by adding its monomials one at a time.  Returns what
    CohomologyReport.to_dict() would."""
    growth = 0
    for img in d.images:
        if not img.is_zero():
            growth = max(growth, img.degree() - 1)
    caps = {w_min - 1: cap}
    for w in range(w_min, w_max + 2):
        caps[w] = caps[w - 1] + growth

    def matrix(src, dst):
        index = {mono: i for i, mono in enumerate(dst)}
        mat = [[Fraction(0)] * len(src) for _ in dst]
        for j, mono in enumerate(src):
            for m, c in d(Element.monomial(table, mono)).terms.items():
                mat[index[m]][j] = c
        return mat

    entries = []
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            cur = monomial_basis(table, w, p, caps[w])
            prev = monomial_basis(table, w - 1, (p + 1) % 2, caps[w - 1])
            nxt = monomial_basis(table, w + 1, (p + 1) % 2, caps[w + 1])
            kernel = oracle_nullspace(matrix(cur, nxt), len(cur))
            mat_in = matrix(prev, cur)
            image = [[mat_in[i][j] for i in range(len(cur))] for j in range(len(prev))]
            echelon = []  # (pivot, row), each row zero at the earlier pivots

            def grows(vec):
                for piv, row in echelon:
                    if vec[piv] != 0:
                        vec = [a - vec[piv] * b for a, b in zip(vec, row)]
                piv = next((j for j, x in enumerate(vec) if x != 0), None)
                if piv is not None:
                    echelon.append((piv, [Fraction(x) / vec[piv] for x in vec]))
                return piv is not None

            for vec in image:
                grows(vec)
            reps = [vec for vec in kernel if grows(vec)]
            rep_strings = []
            for vec in reps:
                elem = Element.zero(table)
                for i, c in enumerate(vec):
                    if c != 0:
                        elem = elem + Element.monomial(table, cur[i], c)
                rep_strings.append(render(elem))
            bound_cur = weight_degree_bound(table, w)
            bound_prev = weight_degree_bound(table, w - 1)
            exact = (bound_cur is not None and caps[w] >= bound_cur
                     and bound_prev is not None and caps[w - 1] >= bound_prev)
            entries.append({"weight": w, "parity": parity_name(p),
                            "dim": len(kernel) - oracle_rank(mat_in), "exact": exact,
                            "representatives": rep_strings})
    return {"window": [w_min, w_max], "degree_cap": cap, "entries": entries}


def _non_unit(rng):
    return Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 2, 3]))


def random_dga_panel(seed):
    """A seeded free dg algebra and cohomology window.

    Koszul pairs t -> c * s (t even of weight 0, so weight spaces are cut by
    the cap alone), closed generators of weights -1..2, and killers y with
    d y = c * (a product of two closed generators), so d squares to zero.
    The seed fixes the number of pairs, the cap (0 to 4) and w_min (-2 to 1)
    in turn; every coefficient is a non-unit.
    """
    rng = random.Random(3000 + seed)
    gens, images = [], {}
    closed = []
    for k in range(seed % 3):
        gens += [Generator(f"t{k}", 0, EVEN), Generator(f"s{k}", 1, ODD)]
        images[f"t{k}"] = (f"s{k}", _non_unit(rng))
        closed.append((f"s{k}", 1, ODD))
    for k in range(rng.randint(1, 3)):
        g = (f"c{k}", rng.randint(-1, 2), rng.randint(0, 1))
        gens.append(Generator(*g))
        closed.append(g)
    pairs = [(a, b) for i, a in enumerate(closed) for b in closed[i:]
             if not (a is b and a[2] == ODD)]
    for k, (a, b) in enumerate(rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))):
        gens.append(Generator(f"y{k}", a[1] + b[1] - 1, (a[2] + b[2] + 1) % 2))
        images[f"y{k}"] = (f"{a[0]} * {b[0]}", _non_unit(rng))
    table = GeneratorTable(gens)
    d = Derivation(table, {name: parse(table, expr) * c
                           for name, (expr, c) in images.items()}, 1, ODD)
    w_min = seed % 4 - 2
    return table, DGAlgebra(table, d).differential, w_min, w_min + rng.randint(0, 3), seed % 5


@pytest.mark.parametrize("seed", range(25))
def test_cohomology_matches_dense_oracle(seed):
    table, d, w_min, w_max, cap = random_dga_panel(seed)
    report = compute_cohomology(table, d, w_min, w_max, cap).to_dict()
    assert report == dense_cohomology_oracle(table, d, w_min, w_max, cap)


def test_class_positions_match_the_full_width_call():
    """Cohomology keeps the kernel vectors whose free column is no end of the
    incoming image: on every panel bidegree these are the vectors
    quotient_representatives picks on the full-width kernel vectors and image
    columns, in the report's order, and the panel has bidegrees where the
    image is nonzero and where it leaves classes."""
    seen = set()
    for seed in range(25):
        table, d, w_min, w_max, cap = random_dga_panel(seed)
        report = compute_cohomology(table, d, w_min, w_max, cap)
        growth = max([0] + [img.degree() - 1 for img in d.images if img.terms])
        caps = {w: cap + growth * (w - w_min + 1) for w in range(w_min - 1, w_max + 2)}
        bases = monomial_bases(table, caps)
        for w in range(w_min, w_max + 1):
            for p in (EVEN, ODD):
                cur, nxt = bases[(w, p)], bases[(w + 1, 1 - p)]
                image = _differential_matrix(table, d, bases[(w - 1, 1 - p)], cur)
                kernel, _ = linalg.kernel(_differential_matrix(table, d, cur, nxt), len(nxt))
                positions = linalg.quotient_representatives(kernel, image)
                assert report.representatives(w, p) == [
                    render(Element(table, {cur[i]: c for i, c in kernel[i].items()}))
                    for i in positions]
                seen.add((any(image), bool(positions), len(positions) < len(kernel)))
    assert {(True, True, True), (False, True, False)} <= seen


def test_one_elimination_per_differential_block(monkeypatch):
    """compute_cohomology eliminates each differential block once: one
    `linalg._add` call per block out of each bidegree of the window and of
    the weight below it, so 2 + 2 * (number of weights)."""
    calls = []
    add = linalg._add

    def counted(basis, rows):
        calls.append(len(rows))
        return add(basis, rows)

    monkeypatch.setattr(linalg, "_add", counted)
    for seed in range(25):
        table, d, w_min, w_max, cap = random_dga_panel(seed)
        calls.clear()
        compute_cohomology(table, d, w_min, w_max, cap)
        assert len(calls) == 2 + 2 * (w_max - w_min + 1), seed


def test_dense_oracle_panel_covers_its_cases():
    """The panel holds Koszul pairs, negative windows, cap 0, empty
    bidegrees, classes with and without representatives, and inexact ones."""
    seen = set()
    for seed in range(25):
        table, d, w_min, w_max, cap = random_dga_panel(seed)
        seen.add(("koszul", any(g.name.startswith("t") for g in table.generators)))
        seen.add(("negative w_min", w_min < 0))
        seen.add(("cap", cap))
        for entry in compute_cohomology(table, d, w_min, w_max, cap).to_dict()["entries"]:
            seen.add(("dim > 0", entry["dim"] > 0))
            seen.add(("exact", entry["exact"]))
            parity = EVEN if entry["parity"] == "even" else ODD
            cur = monomial_basis(table, entry["weight"], parity, cap)
            seen.add(("empty bidegree", not cur))
    for key in ("koszul", "negative w_min", "dim > 0", "exact", "empty bidegree"):
        assert {(key, True), (key, False)} <= seen, key
    assert {("cap", c) for c in range(5)} <= seen


# -- square-zero extensions ---------------------------------------------------------


# -- d on exponent tuples against the Element path it replaced ----------------


def oracle_partial(element, name):
    """What core.partial ran before it struck factors through core._strike:
    each monomial rebuilt as a list, and the struck terms summed."""
    table = element.table
    pos = table.position(name)
    odd = table.parities[pos] == ODD
    terms = {}
    for mono, c in element.terms.items():
        e = mono[pos]
        if e == 0:
            continue
        new = list(mono)
        new[pos] = e - 1
        if odd:
            swaps = sum(mono[i] for i in table.odd_positions if i < pos)
            value = -c if swaps & 1 else c
        else:
            value = c * e
        _add_into(terms, {tuple(new): value})
    return Element(table, terms)


def leibniz_oracle(D, element):
    """What Derivation.__call__ ran before it worked on term dicts: for each
    generator with a nonzero image, D(g) times the partial derivative, as
    Elements, summed."""
    table = D.table
    terms = {}
    for i, g in enumerate(table.generators):
        img = D.images[i]
        if img.is_zero():
            continue
        _add_into(terms, _mul_terms(table, img.terms, oracle_partial(element, g.name).terms))
    return Element(table, terms)


@pytest.mark.parametrize("seed", range(8))
def test_differential_matrix_matches_the_element_path(seed):
    """Each column of _differential_matrix, built on exponent tuples, holds
    the entries of d(Element.monomial(table, mono)) as the Leibniz sum over
    Elements gives them: the same rows in the same order, every entry in
    the form as_scalar gives.  The bases are one window walk with
    compute_cohomology's caps, on odd, even, mixed-sign, weight-0 and empty
    tables."""
    rng = random.Random(9100 + seed)
    nonzeros = 0
    for name, table in panels.window_tables(rng):
        d = sampling.random_derivation(rng, table, 1, ODD, cap=3)
        growth = max([0] + [img.degree() - 1 for img in d.images if not img.is_zero()])
        cap = rng.randint(-1, 4)
        w_min = rng.randint(-3, 1)
        w_max = w_min + rng.randint(0, 3)
        caps = {w: cap + growth * (w - w_min + 1) for w in range(w_min - 1, w_max + 2)}
        bases = monomial_bases(table, caps)
        for w in range(w_min - 1, w_max + 1):
            for p in (EVEN, ODD):
                src, dst = bases[(w, p)], bases[(w + 1, 1 - p)]
                index = {mono: i for i, mono in enumerate(dst)}
                columns = _differential_matrix(table, d, src, dst)
                assert len(columns) == len(src)
                for mono, column in zip(src, columns):
                    expected = leibniz_oracle(d, Element.monomial(table, mono)).terms
                    assert list(column.items()) == [(index[m], c) for m, c in expected.items()], \
                        (name, table, mono)
                    panels.assert_entry_form(column.values(), name)
                    nonzeros += len(column)
    assert nonzeros > 0


@pytest.mark.parametrize("seed", range(15))
def test_derivation_matches_the_partial_composition(seed):
    """D(x) on random inhomogeneous elements, where struck terms meet and
    cancel, equals the old sum of D(g) times partial derivatives term for
    term and in the same order; partial equals its old code too."""
    rng = random.Random(9300 + seed)
    nonzero = 0
    for name, table in panels.window_tables(rng):
        D = sampling.random_derivation(rng, table, rng.randint(-1, 2), rng.randint(0, 1),
                                       terms=3)
        for _ in range(4):
            x = sampling.random_element(rng, table, max_degree=4, terms=6)
            value = D(x)
            assert list(value.terms.items()) == list(leibniz_oracle(D, x).terms.items()), \
                (name, D, x)
            nonzero += not value.is_zero()
            for g in table.generators:
                assert list(partial(x, g.name).terms.items()) == \
                    list(oracle_partial(x, g.name).terms.items())
    assert nonzero > 0


def test_square_zero_extension_truncates(table):
    ext = SquareZeroExtension(table, "eps", 0, 0)
    eps = ext.eps()
    assert ext.multiply(eps, eps).is_zero()
    x = ext.include(Element.generator(table, "x"))
    assert not ext.multiply(x, x).is_zero()
    # an odd eps squares to zero before truncation
    odd = SquareZeroExtension(table, "eps", -1, 1)
    assert (odd.eps() * odd.eps()).is_zero()


def test_eps_coefficient_extracts_the_linear_part(table):
    ext = SquareZeroExtension(table, "eps", -1, 1)
    x = ext.include(Element.generator(table, "x"))
    value = x + ext.eps() * x * 3
    assert ext.eps_coefficient(value) == Element.generator(table, "x") * 3
    assert ext.project(value) == Element.generator(table, "x")
    # an even eps squares to a nonzero monomial, which is no part of the coefficient
    even = SquareZeroExtension(table, "eps", 0, 0)
    x, y = (even.include(Element.generator(table, name)) for name in ("x", "y"))
    value = x * even.eps() ** 2 + y * even.eps()
    assert even.eps_coefficient(value) == Element.generator(table, "y")


@pytest.mark.parametrize("seed", range(10))
def test_sections_and_derivations_are_inverse(table, seed):
    rng = random.Random(500 + seed)
    shift_w, shift_p = rng.choice([(0, 0), (1, 1), (-1, 1)])
    D = sampling.random_derivation(rng, table, shift_w, shift_p)
    ext = SquareZeroExtension(table, "eps", -shift_w, shift_p)
    sigma = ext.derivation_to_section(D)
    back = ext.section_to_derivation(sigma)
    assert back == D
    a, b = panels.random_homogeneous_pair(rng, table)
    assert ext.section_defect(sigma, a, b).is_zero()


# -- Kahler differentials -----------------------------------------------------------


def test_universal_derivation_leibniz(table):
    kah = KahlerModule(table)
    x = Element.generator(table, "x")
    xi = Element.generator(table, "xi")
    lhs = kah.universal(x * xi)
    rhs = kah.d_symbol("x") * kah.include(xi) + kah.include(x) * kah.d_symbol("xi")
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(10))
def test_universal_factorization_recovers_derivations(table, seed):
    """Every derivation factors through the universal one: f_D(da) = D(a)."""
    rng = random.Random(600 + seed)
    D = sampling.random_derivation(rng, table, rng.randint(0, 1), rng.randint(0, 1))
    kah = KahlerModule(table)
    a = sampling.random_element(rng, table)
    assert kah.universal_factorization(D, kah.universal(a)) == D(a)


def oracle_universal(kah: KahlerModule, element: Element) -> Element:
    """The universal derivation summed by hand: d(a) = sum_g d(g) * da/dg."""
    out = Element.zero(kah.table)
    for g in kah.base.generators:
        part = partial(element, g.name)
        if not part.is_zero():
            out = out + kah.d_symbol(g.name) * kah.include(part)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_universal_derivation_matches_the_sum_over_generators(seed):
    """On tables with two to four odd generators among five, universal(a) is
    the hand-summed d(a), and every derivation factors through it."""
    rng = random.Random(650 + seed)
    odd = rng.randint(2, 4)
    parities = [ODD] * odd + [EVEN] * (5 - odd)
    rng.shuffle(parities)
    table = GeneratorTable([Generator(name, rng.randint(-1, 2), p)
                            for name, p in zip("abcde", parities)])
    kah = KahlerModule(table)
    D = sampling.random_derivation(rng, table, rng.randint(-1, 1), rng.randint(0, 1))
    a = sampling.random_element(rng, table, terms=6)
    assert not oracle_universal(kah, a).is_zero()
    assert kah.universal(a) == oracle_universal(kah, a)
    assert kah.universal_factorization(D, kah.universal(a)) == D(a)
