"""Simplex forms, Whitney calculus, Dupont contraction, cotensors and fillings."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sdga.core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    monomial_basis,
    partial,
)
from sdga.dg import DGAlgebra, Derivation
from sdga.forms import Cylinder, FormsAlgebra
from sdga.simplicial import (
    ZERO_ALGEBRA,
    SimplexForms,
    SubShapeCotensor,
    TensorForms,
    barycentric_forms,
    barycentric_table,
    barycentric_whitney,
    cotensor_report,
    degeneracy_tuple,
    dilation,
    dilation_homotopy,
    dupont_defect,
    dupont_homotopy,
    eliminate,
    elementary_subcomplex,
    face_pullback,
    face_tuple,
    filling_report,
    poincare_defect,
    poincare_witness,
    pullback,
    simplex_forms,
    simplex_integral,
    simplicial_coboundary,
    whitney,
    whitney_differential_identity,
    whitney_expansion,
    whitney_projection,
    whitney_tuples,
)
from sdga import cli, linalg, sampling, simplicial
from panels import assert_entry_form, line_dga
from test_linalg import dense_row, oracle_nullspace, oracle_rank


def rational_dga():
    tab = GeneratorTable([])
    return DGAlgebra(tab, Derivation(tab, {}, 1, 1))


def compose_tuples(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[j] for j in inner)


def monotone_tuple(rng, m: int, n: int) -> tuple[int, ...]:
    """A random monotone map [m] -> [n] as a value tuple."""
    return tuple(sorted(rng.choice(range(n + 1)) for _ in range(m + 1)))


# -- coordinates and operators ---------------------------------------------------


def test_simplex_coordinates():
    forms = simplex_forms(2)
    one = Element.one(forms.table)
    assert forms.t(0) + forms.t(1) + forms.t(2) == one
    assert (forms.dt(0) + forms.dt(1) + forms.dt(2)).is_zero()
    for i in range(3):
        assert forms.d(forms.t(i)) == forms.dt(i)
        assert forms.vertex_value(forms.t(i), i) == 1
        assert forms.vertex_value(forms.t(i), (i + 1) % 3) == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_vertex_value_rejects_a_vertex_out_of_range(n):
    forms = simplex_forms(n)
    for i in (n + 1, -1):
        with pytest.raises(AlgebraError):
            forms.vertex_value(forms.t(0), i)


def test_pullback_validation():
    f2, f1 = simplex_forms(2), simplex_forms(1)
    with pytest.raises(AlgebraError):
        pullback((1, 0), f2, f1)
    with pytest.raises(AlgebraError):
        pullback((0, 3), f2, f1)
    with pytest.raises(AlgebraError):
        pullback((0, 1, 2), f2, f1)


def test_pullback_functoriality():
    rng = random.Random(40)
    for _ in range(8):
        n, m, k = 3, 2, 1
        phi = monotone_tuple(rng, m, n)
        psi = monotone_tuple(rng, k, m)
        fn, fm, fk = simplex_forms(n), simplex_forms(m), simplex_forms(k)
        once = pullback(compose_tuples(phi, psi), fn, fk)
        twice_outer = pullback(phi, fn, fm)
        twice_inner = pullback(psi, fm, fk)
        w = sampling.random_element(rng, fn.table, max_degree=2)
        assert once(w) == twice_inner(twice_outer(w))


def test_cosimplicial_identities():
    n = 2
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            lhs = compose_tuples(face_tuple(n + 1, j), face_tuple(n, i))
            rhs = compose_tuples(face_tuple(n + 1, i), face_tuple(n, j - 1))
            assert lhs == rhs
    for i in range(n + 1):
        composite = compose_tuples(degeneracy_tuple(n, i), face_tuple(n + 1, i))
        assert composite == tuple(range(n + 1))


def test_face_pullback_is_chain_map():
    rng = random.Random(41)
    f2, f1 = simplex_forms(2), simplex_forms(1)
    for i in range(3):
        phi = face_pullback(2, i)
        for _ in range(5):
            w = sampling.random_element(rng, f2.table, max_degree=3)
            assert phi(f2.d(w)) == f1.d(phi(w))


# -- Whitney forms ---------------------------------------------------------------


def test_whitney_low_degree_values():
    f1 = simplex_forms(1)
    assert whitney(f1, (0,)) == f1.t(0)
    assert whitney(f1, (1,)) == f1.t(1)
    assert whitney(f1, (0, 1)) == f1.dt(1)
    total = whitney(f1, (0,)) + whitney(f1, (1,))
    assert total == Element.one(f1.table)


def test_whitney_antisymmetry_and_repeats():
    f2 = simplex_forms(2)
    assert whitney(f2, (1, 0)) == -whitney(f2, (0, 1))
    assert whitney(f2, (2, 0, 1)) == whitney(f2, (0, 1, 2))
    assert whitney(f2, (0, 0)).is_zero()


def test_whitney_duality_both_methods():
    f2 = simplex_forms(2)
    for k in range(3):
        tuples = whitney_tuples(2, k)
        for I in tuples:
            w = whitney(f2, I)
            for J in tuples:
                expected = Fraction(1 if I == J else 0)
                assert simplex_integral(f2, J, w, method="dirichlet") == expected
                assert simplex_integral(f2, J, w, method="iterated") == expected


def test_iterated_vertex_integrals_run_the_iterated_kernel(monkeypatch):
    """method="iterated" evaluates a vertex by `_iterated_integral` too, once
    per monomial of form weight 0 and with no cache entry, so the k = 0 row
    of `simplicial duality` compares two methods; it agrees with the closed
    form on every monomial t^a with exponents up to 2, n = 1..4."""
    calls = []
    iterated = simplicial._iterated_integral

    def counted(forms, I, mono):
        calls.append(I)
        return iterated(forms, I, mono)

    monkeypatch.setattr(simplicial, "_iterated_integral", counted)
    points = 0
    for n in range(1, 5):
        forms = SimplexForms(n)
        for i in range(n + 1):
            for a in itertools.product(range(3), repeat=n):
                # the dt term has form weight 1 and is not integrated at a point
                x = Element.monomial(forms.table, a + (0,) * n) + forms.dt(1)
                got = simplex_integral(forms, (i,), x, method="iterated")
                assert got == simplex_integral(forms, (i,), x, method="dirichlet"), (n, i, a)
                points += 1
        assert forms._integral_cache == {}
    assert len(calls) == points


def test_an_empty_face_is_rejected():
    """A face has a vertex: w_() and the integral over () are no forms."""
    forms = simplex_forms(2)
    x = Element.one(forms.table)
    calls = [lambda: whitney(forms, ()), lambda: barycentric_whitney(2, ()),
             lambda: whitney_differential_identity(forms, ())]
    calls += [lambda m=m: simplex_integral(forms, (), x, method=m)
              for m in ("dirichlet", "iterated")]
    for call in calls:
        with pytest.raises(AlgebraError):
            call()


def test_whitney_differential_identity_small():
    for n in (1, 2):
        forms = simplex_forms(n)
        for k in range(n + 1):
            for I in whitney_tuples(n, k):
                assert whitney_differential_identity(forms, I)


def test_integral_anchors():
    f1 = simplex_forms(1)
    assert simplex_integral(f1, (0, 1), f1.dt(1)) == 1
    f2 = simplex_forms(2)
    vol = f2.dt(1) * f2.dt(2)
    assert simplex_integral(f2, (0, 1, 2), vol) == Fraction(1, 2)


def test_integral_methods_agree_on_random_forms():
    rng = random.Random(42)
    f2 = simplex_forms(2)
    faces = [(0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for _ in range(10):
        w = sampling.random_element(rng, f2.table, max_degree=3)
        I = faces[rng.randrange(len(faces))]
        a = simplex_integral(f2, I, w, method="dirichlet")
        b = simplex_integral(f2, I, w, method="iterated")
        assert a == b


# -- the closed forms against the pullbacks they replaced --------------------------


def face_integral_oracle(forms, I, mono):
    """What the dirichlet face integral used to run: pull t^a dt_J back along
    t_{I_0} = 1 - u1 - ... - uk, t_{I_q} = u_q (an AlgebraMap), expand the
    coefficient of du1 ... duk and integrate each u-monomial by the Dirichlet
    formula.  Kept as the reference for the closed form."""
    k = len(I) - 1
    U = FormsAlgebra(GeneratorTable([Generator(f"u{q}", 0, EVEN) for q in range(1, k + 1)]))
    u = [Element.generator(U.table, f"u{q}") for q in range(1, k + 1)]
    du = [Element.generator(U.table, f"du{q}") for q in range(1, k + 1)]
    images = {}
    for j in range(1, forms.n + 1):
        images[f"t{j}"] = Element.zero(U.table)
        images[f"dt{j}"] = Element.zero(U.table)
    for q, v in enumerate(I):
        if v == 0:
            continue
        if q == 0:
            images[f"t{v}"] = Element.one(U.table) - sum(u, Element.zero(U.table))
            images[f"dt{v}"] = -sum(du, Element.zero(U.table))
        else:
            images[f"t{v}"] = u[q - 1]
            images[f"dt{v}"] = du[q - 1]
    coeff = AlgebraMap(forms.table, U.table, images, check=False)(
        Element.monomial(forms.table, mono))
    for q in range(1, k + 1):
        coeff = partial(coeff, f"du{q}")
    total = Fraction(0)
    for m, c in U.project(coeff).terms.items():
        num = 1
        for e in m:
            num *= math.factorial(e)
        total += c * Fraction(num, math.factorial(sum(m) + k))
    return total


def dilation_homotopy_oracle(forms, i, mono):
    """What dilation_homotopy used to run: pull the monomial back along the
    straight-line cylinder map toward vertex i and integrate over u."""
    cyl, phi = dilation(forms, i)
    return cyl.integrate_over(phi(Element.monomial(forms.table, mono)))


def closed_form_panel(seed, n):
    """Monomials of the n-simplex with exponents up to 5, and for every face,
    in a shuffled (generally unsorted) vertex order, monomials of its form
    weight: some live on the face, some carry a t or a dt off it."""
    rng = random.Random(7000 + 10 * seed + n)
    exps = lambda support: [rng.randint(0, 5) if j in support else 0 for j in range(1, n + 1)]
    everywhere = set(range(1, n + 1))
    monos = []
    for _ in range(3):
        monos.append(tuple(exps(everywhere) + [rng.randint(0, 1) for _ in range(n)]))
    monos.append(tuple(exps(everywhere) + [0] * n))  # k = 0: h^i vanishes
    faces = []
    for size in range(1, n + 2):
        for face in itertools.combinations(range(n + 1), size):
            I = list(face)
            rng.shuffle(I)
            I = tuple(I)
            k = size - 1
            coords = [v for v in I if v]
            on_face = exps(set(coords))
            # the dt set of the face minus one of its vertices
            dts = set(rng.sample(sorted(I), k)) - {0}
            if len(dts) < k:
                dts = set(coords)
            cases = [on_face + [1 if j in dts else 0 for j in range(1, n + 1)]]
            off = sorted(everywhere - set(coords))
            if off:
                t_off = list(on_face)
                t_off[rng.choice(off) - 1] = rng.randint(1, 5)
                cases.append(t_off + [1 if j in dts else 0 for j in range(1, n + 1)])
                if k:
                    moved = set(rng.sample(sorted(dts), k - 1)) | {rng.choice(off)}
                    cases.append(on_face + [1 if j in moved else 0 for j in range(1, n + 1)])
            faces.append((I, [tuple(c) for c in cases]))
    return monos, faces


# mixed and large denominators, so sums reach the common-denominator path
PANEL_COEFFICIENTS = [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 10**6 + 3),
                      Fraction(10**12 + 39)]


@pytest.mark.parametrize("seed", range(25))
def test_closed_forms_match_their_oracles(seed):
    rng = random.Random(7500 + seed)
    for n in range(1, 5):
        # a fresh instance, so every value below is a cache miss
        forms = SimplexForms(n)
        monos, faces = closed_form_panel(seed, n)
        for mono in monos:
            for i in range(n + 1):
                got = dilation_homotopy(forms, i, Element.monomial(forms.table, mono))
                assert got == dilation_homotopy_oracle(forms, i, mono), (n, i, mono)
        pool = monos + [m for _, cases in faces for m in cases]
        for _ in range(3):
            # again a fresh instance, so the sum misses the cache term by term
            fresh = SimplexForms(n)
            chosen = rng.sample(pool, min(3, len(pool)))
            coeffs = rng.sample(PANEL_COEFFICIENTS, len(chosen))
            total = Element.zero(fresh.table)
            for mono, c in zip(chosen, coeffs):
                total = total + Element.monomial(fresh.table, mono, c)
            for i in range(n + 1):
                got = dilation_homotopy(fresh, i, total)
                want = Element.zero(forms.table)
                for mono, c in total.terms.items():
                    want = want + dilation_homotopy_oracle(forms, i, mono) * c
                assert got == want, (n, i, chosen)
                assert_entry_form(got.terms.values(), n)
        off_face = 0
        for I, cases in faces:
            for mono in monos + cases:
                if forms.form_weight_of(mono) != len(I) - 1:
                    continue
                want = face_integral_oracle(forms, I, mono)
                x = Element.monomial(forms.table, mono)
                assert simplex_integral(forms, I, x) == want, (n, I, mono)
                assert simplex_integral(forms, I, x, method="iterated") == want, (n, I, mono)
                off_face += want == 0
        if n > 1:
            assert off_face  # the panel reaches the zero branch


# -- the redundant presentation ---------------------------------------------------


def simplex_relations(n: int) -> tuple[Element, Element]:
    """The defining relations t0 + ... + tn - 1 and dt0 + ... + dtn."""
    table = barycentric_table(n)
    rel = -Element.one(table)
    drel = Element.zero(table)
    for i in range(n + 1):
        rel = rel + Element.generator(table, f"t{i}")
        drel = drel + Element.generator(table, f"dt{i}")
    return rel, drel


def barycentric_section(forms: SimplexForms, element: Element) -> Element:
    """The section of eliminate fixing the coordinates t1..tn, dt1..dtn."""
    table = barycentric_table(forms.n)
    images: dict[str, Element] = {}
    for i in range(1, forms.n + 1):
        images[f"t{i}"] = Element.generator(table, f"t{i}")
        images[f"dt{i}"] = Element.generator(table, f"dt{i}")
    return AlgebraMap(forms.table, table, images)(element)


def test_relations_die_under_elimination():
    for n in (1, 2):
        forms = simplex_forms(n)
        rel, drel = simplex_relations(n)
        assert eliminate(forms, rel).is_zero()
        assert eliminate(forms, drel).is_zero()


def test_barycentric_section_is_a_section():
    rng = random.Random(43)
    forms = simplex_forms(2)
    for _ in range(10):
        w = sampling.random_element(rng, forms.table, max_degree=3)
        assert eliminate(forms, barycentric_section(forms, w)) == w


def whitney_oracle(table: GeneratorTable, t, dt, I: tuple[int, ...]) -> Element:
    """k! sum_q (-1)^q t(i_q) prod_{r != q} dt(i_r) for I = (i_0, ..., i_k) in
    any order, by Element products, given the t and dt of a vertex: w_I in
    either presentation, zero when a vertex repeats."""
    acc = Element.zero(table)
    k = len(I) - 1
    for q in range(k + 1):
        term = t(I[q])
        for r in range(k + 1):
            if r != q:
                term = term * dt(I[r])
        acc = acc + term * ((-1) ** q)
    return acc * math.factorial(k)


def test_barycentric_whitney_matches():
    """whitney and barycentric_whitney give the Element products of w_I over
    forms.t and forms.dt, and over the redundant generators, for n <= 5 on
    every sorted I, a shuffle of each and tuples with a repeated vertex."""
    rng = random.Random(44)
    for n in range(6):
        forms, table = simplex_forms(n), barycentric_table(n)
        tuples = []
        for k in range(n + 1):
            for I in whitney_tuples(n, k):
                tuples += [I, tuple(rng.sample(I, len(I)))]
                tuples.append(I + (rng.choice(I),))
        for I in tuples:
            redundant = whitney_oracle(table, lambda i: Element.generator(table, f"t{i}"),
                                       lambda i: Element.generator(table, f"dt{i}"), I)
            assert barycentric_whitney(n, I) == redundant, (n, I)
            assert whitney(forms, I) == whitney_oracle(forms.table, forms.t, forms.dt, I), \
                (n, I)
            assert eliminate(forms, redundant) == whitney(forms, I), (n, I)
    assert barycentric_whitney(2, (1, 1)).is_zero()
    assert barycentric_table(2).position("dt0") >= 0
    for call in (lambda: barycentric_whitney(2, (0, 3)), lambda: whitney(forms, (-1,))):
        with pytest.raises(AlgebraError, match="vertex index out of range"):
            call()


def eliminate_oracle(forms: SimplexForms, element: Element) -> Element:
    """What eliminate used to run: the AlgebraMap from the redundant table
    sending t_i and dt_i to forms.t(i) and forms.dt(i)."""
    images: dict[str, Element] = {}
    for i in range(forms.n + 1):
        images[f"t{i}"] = forms.t(i)
        images[f"dt{i}"] = forms.dt(i)
    return AlgebraMap(barycentric_table(forms.n), forms.table, images)(element)


def redundant_panel(rng: random.Random, n: int) -> tuple[list[Element], list[Element]]:
    """Forms of the redundant presentation of the n-simplex, with t and dt of
    every vertex, exponents up to 2 and int or Fraction coefficients, and
    forms in the ideal of its relations: (t0 + ... + tn - 1) w,
    (dt0 + ... + dtn) w and their sum.  The last form is the first plus an
    ideal one, so its terms cancel."""
    table = barycentric_table(n)
    rel, drel = simplex_relations(n)

    def form() -> Element:
        out = Element.zero(table)
        for _ in range(rng.randint(1, 3)):
            mono = tuple([rng.randint(0, 2) for _ in range(n + 1)]
                         + [int(rng.random() < 0.4) for _ in range(n + 1)])
            out = out + Element.monomial(table, mono, rng.choice([1, -2, 3, *PANEL_COEFFICIENTS]))
        return out

    ideal = [rel * form(), drel * form(), rel * form() + drel * form()]
    forms = [form(), form()]
    return forms + [forms[0] + ideal[2]], ideal


@pytest.mark.parametrize("seed", range(6))
def test_eliminate_matches_the_substitution_oracle(seed):
    rng = random.Random(9400 + seed)
    for n in range(5):
        forms = simplex_forms(n)
        xs, ideal = redundant_panel(rng, n)
        for x in xs + ideal:
            got = eliminate(forms, x)
            assert got == eliminate_oracle(forms, x), (n, x)
            assert_entry_form(got.terms.values(), n)
        assert all(eliminate(forms, x).is_zero() for x in ideal)
        assert eliminate(forms, xs[2]) == eliminate(forms, xs[0])


@pytest.mark.parametrize("n", range(4))
def test_simplex_tables_are_forms_of_their_coordinates(n):
    def forms_table(indices):
        gens = [Generator(f"t{i}", 0, EVEN) for i in indices]
        gens += [Generator(f"dt{i}", 1, ODD) for i in indices]
        return GeneratorTable(gens, allow_d_names=True)

    def coordinates(indices):
        return GeneratorTable([Generator(f"t{i}", 0, EVEN) for i in indices])

    forms = simplex_forms(n)
    assert forms.table == forms_table(range(1, n + 1))
    assert forms.table == FormsAlgebra(coordinates(range(1, n + 1))).table
    assert forms.differential == FormsAlgebra(coordinates(range(1, n + 1))).de_rham
    assert barycentric_table(n) == forms_table(range(n + 1))
    assert barycentric_table(n) == FormsAlgebra(coordinates(range(n + 1))).table


# -- the elementary subcomplex -----------------------------------------------------


def test_elementary_subcomplex_is_simplicial_cochains():
    for n in (1, 2, 3):
        report = elementary_subcomplex(n)
        for k in range(n + 1):
            blocks = (report["differential"][k], simplicial_coboundary(n, k))
            assert blocks[0] == blocks[1]
            # both in the form as_scalar gives: an integral entry is an int
            assert_entry_form([x for block in blocks for col in block for x in col.values()], k)
        # consecutive blocks compose to zero
        for k in range(n - 1):
            a = report["differential"][k]
            b = report["differential"][k + 1]
            assert not any(linalg.mat_mul(b, a))


# -- projection, dilation, Dupont contraction ---------------------------------------


def test_whitney_projection_properties():
    rng = random.Random(44)
    f2 = simplex_forms(2)
    for k in range(3):
        for I in whitney_tuples(2, k):
            w = whitney(f2, I)
            assert whitney_projection(f2, w) == w
    for _ in range(8):
        w = sampling.random_element(rng, f2.table, max_degree=3)
        pw = whitney_projection(f2, w)
        assert whitney_projection(f2, pw) == pw
        assert whitney_projection(f2, f2.d(w)) == f2.d(pw)


def projection_oracle(forms, element):
    """What whitney_projection used to run: per monomial of form weight k,
    w_I times its integral over each k-face I, summed with the monomial's
    coefficient.  Kept as the reference for the one-integral-per-face sum."""
    out = Element.zero(forms.table)
    for mono, c in element.terms.items():
        monomial = Element.monomial(forms.table, mono)
        for I in whitney_tuples(forms.n, forms.form_weight_of(mono)):
            value = simplex_integral(forms, I, monomial)
            if value:
                out = out + whitney(forms, I) * value * c
    return out


def expansion_oracle(forms, element):
    """The nonzero face integrals of element, each summed monomial by
    monomial with face_integral_oracle, by k and then in whitney_tuples order."""
    out = []
    for k in range(forms.n + 1):
        for I in whitney_tuples(forms.n, k):
            value = sum((c * face_integral_oracle(forms, I, mono)
                         for mono, c in element.terms.items()
                         if forms.form_weight_of(mono) == k), Fraction(0))
            if value:
                out.append((I, value))
    return out


def projection_panel_element(rng, n):
    """One or two monomials of each form weight 0..n, exponents up to 3,
    with coefficients from the mixed-denominator list."""
    forms = SimplexForms(n)
    out = Element.zero(forms.table)
    for k in range(n + 1):
        for _ in range(rng.randint(1, 2)):
            dts = set(rng.sample(range(n), k))
            mono = tuple([rng.randint(0, 3) for _ in range(n)]
                         + [int(j in dts) for j in range(n)])
            out = out + Element.monomial(forms.table, mono, rng.choice(PANEL_COEFFICIENTS))
    return forms, out


@pytest.mark.parametrize("seed", range(25))
def test_projection_matches_the_per_monomial_oracle(seed):
    rng = random.Random(9300 + seed)
    for n in range(1, 5):
        forms, x = projection_panel_element(rng, n)
        expansion = whitney_expansion(forms, x)
        assert expansion == expansion_oracle(forms, x), (n, x)
        assert_entry_form([value for _, value in expansion], n)
        got = whitney_projection(forms, x)
        assert got == projection_oracle(forms, x), (n, x)
        assert whitney_projection(forms, x, expansion=expansion) == got
        assert_entry_form(got.terms.values(), n)


def test_whitney_projection_naturality():
    rng = random.Random(45)
    f2, f1 = simplex_forms(2), simplex_forms(1)
    for i in range(3):
        phi = face_pullback(2, i)
        for _ in range(4):
            w = sampling.random_element(rng, f2.table, max_degree=3)
            assert whitney_projection(f1, phi(w)) == phi(whitney_projection(f2, w))


def test_dilation_homotopy_identity():
    rng = random.Random(46)
    for n in (1, 2):
        forms = simplex_forms(n)
        for i in range(n + 1):
            for _ in range(5):
                w = sampling.random_element(rng, forms.table, max_degree=3)
                lhs = dilation_homotopy(forms, i, forms.d(w)) + forms.d(
                    dilation_homotopy(forms, i, w)
                )
                # evaluation at vertex i, as a constant form
                assert lhs == w - Element.scalar(forms.table, forms.vertex_value(w, i))


def test_dupont_contraction():
    rng = random.Random(47)
    f2 = simplex_forms(2)
    for _ in range(8):
        w = sampling.random_element(rng, f2.table, max_degree=3)
        assert dupont_defect(f2, w).is_zero()
        assert dupont_homotopy(f2, dupont_homotopy(f2, w)).is_zero()


def dupont_oracle(forms, element):
    """What dupont_homotopy used to run: for every monomial and every
    increasing tuple I of at most n vertices, h^{i_k} ... h^{i_0} applied to
    the monomial from the start, then w_I times that with the sign (-1)^k.
    Kept as the reference for the prefix walk."""
    out = Element.zero(forms.table)
    for mono, c in element.terms.items():
        for k in range(forms.n):
            for I in whitney_tuples(forms.n, k):
                value = Element.monomial(forms.table, mono, c)
                for vertex in I:
                    value = dilation_homotopy(forms, vertex, value)
                    if value.is_zero():
                        break
                if not value.is_zero():
                    out = out + whitney(forms, I) * value * (-1) ** k
    return out


def dupont_panel_element(rng, forms):
    """A sum of two to four monomials of mixed form weight, exponents up to
    3, with coefficients from the mixed-denominator list."""
    n = forms.n
    out = Element.zero(forms.table)
    for _ in range(rng.randint(2, 4)):
        mono = tuple([rng.randint(0, 3) for _ in range(n)]
                     + [int(rng.random() < 0.5) for _ in range(n)])
        out = out + Element.monomial(forms.table, mono, rng.choice(PANEL_COEFFICIENTS))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_dupont_walk_matches_the_per_tuple_oracle(seed):
    rng = random.Random(9100 + seed)
    for n in range(1, 5):
        forms = SimplexForms(n)
        x = dupont_panel_element(rng, forms)
        got = dupont_homotopy(forms, x)
        assert got == dupont_oracle(forms, x), (n, x)
        assert_entry_form(got.terms.values(), n)
        assert dupont_defect(forms, x).is_zero()
        assert poincare_defect(forms, x).is_zero()


def test_dupont_walk_is_bounded_by_form_weight(monkeypatch):
    """h^i lowers form weight by one, so on a 1-form the walk stops after the
    C(13, 1) = 13 one-vertex prefixes of the 12-simplex; the per-tuple loop
    made thousands of dilation calls there."""
    calls = []
    inner = simplicial.dilation_homotopy

    def counted(forms, i, element, **kwargs):
        calls.append(i)
        return inner(forms, i, element, **kwargs)

    monkeypatch.setattr(simplicial, "dilation_homotopy", counted)
    forms = SimplexForms(12)
    x = (Element.generator(forms.table, "t1") * Element.generator(forms.table, "dt1")
         + Element.generator(forms.table, "t2") ** 2
         * Element.generator(forms.table, "dt5") * Fraction(1, 3))
    s = dupont_homotopy(forms, x)
    assert 0 < len(calls) <= 13
    assert not s.is_zero()
    assert dupont_defect(forms, x).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_the_walk_descends_from_the_redundant_presentation(seed):
    """s and h^i on a redundant form are s and h^i on its normal form, and s
    of its redundant d is s of d of the normal form: the dilation maps the
    relations into their ideal.  A form in the ideal has s = h^i = 0."""
    rng = random.Random(9500 + seed)
    for n in range(5):
        forms = SimplexForms(n)
        xs, ideal = redundant_panel(rng, n)
        for x in xs + ideal:
            normal = eliminate(forms, x)
            got = dupont_homotopy(forms, x)
            assert got == dupont_homotopy(forms, normal), (n, x)
            assert_entry_form(got.terms.values(), n)
            for i in range(n + 1):
                assert dilation_homotopy(forms, i, x) == dilation_homotopy(forms, i, normal), (n, i, x)
            dx = barycentric_forms(n).de_rham(x)
            assert dupont_homotopy(forms, dx) == dupont_homotopy(forms, forms.d(normal)), (n, x)
        for x in ideal:
            assert dupont_homotopy(forms, x).is_zero()
            assert all(dilation_homotopy(forms, i, x).is_zero() for i in range(n + 1))


def test_the_walk_refuses_a_form_over_another_table():
    forms = simplex_forms(2)
    with pytest.raises(AlgebraError, match="neither presentation"):
        dupont_homotopy(forms, Element.generator(simplex_forms(1).table, "t1"))
    with pytest.raises(AlgebraError, match="out of range"):
        dilation_homotopy(forms, 3, forms.t(1))


def test_dupont_naturality_under_faces():
    rng = random.Random(48)
    f2, f1 = simplex_forms(2), simplex_forms(1)
    for i in range(3):
        phi = face_pullback(2, i)
        for _ in range(4):
            w = sampling.random_element(rng, f2.table, max_degree=2)
            assert dupont_homotopy(f1, phi(w)) == phi(dupont_homotopy(f2, w))


def test_poincare_witnesses():
    rng = random.Random(49)
    f2 = simplex_forms(2)
    for _ in range(8):
        # exact forms are closed with positive weight
        seed = sampling.random_element(rng, f2.table, max_degree=3)
        omega = f2.d(seed)
        assert f2.d(poincare_witness(f2, omega)) == omega
        assert f2.d(dilation_homotopy(f2, 0, omega)) == omega
        w = sampling.random_element(rng, f2.table, max_degree=3)
        assert poincare_defect(f2, w).is_zero()


# -- coefficients, cotensors, fillings ----------------------------------------------


def include_forms(T, element):
    """Omega_n into B tensor Omega_n, each t_k and dt_k to itself."""
    images = {x: Element.generator(T.table, x) for x in T.forms.table.names}
    return AlgebraMap(T.forms.table, T.table, images)(element)


def test_tensor_forms_differential():
    rng = random.Random(50)
    T = TensorForms(line_dga(), 1)
    for _ in range(8):
        w = sampling.random_element(rng, T.table, max_degree=3)
        assert T.total.d(T.total.d(w)).is_zero()
    b = Element.generator(line_dga().table, "x")
    assert T.total.d(T.include(b)) == T.include(line_dga().d(b))
    fw = T.forms.t(1)
    assert T.total.d(include_forms(T, fw)) == include_forms(T, T.forms.d(fw))


def operator_pullback_tensor(src, dst, phi):
    """id_B tensor Omega(phi) as an algebra map on the whole tensor table:
    each B generator to itself, each t_k and dt_k to its pullback image."""
    fmap = pullback(phi, src.forms, dst.forms)
    images = {g.name: Element.generator(dst.table, g.name)
              for g in src.dga.table.generators}
    for k in range(1, src.n + 1):
        images[f"t{k}"] = include_forms(dst, fmap.image_of(f"t{k}"))
        images[f"dt{k}"] = include_forms(dst, fmap.image_of(f"dt{k}"))
    return AlgebraMap(src.table, dst.table, images, check=False)


def face_restriction_oracle(T, i):
    """The restriction of B tensor Omega_n to the facet opposite vertex i, as
    an algebra map on the whole tensor table: the reference for
    TensorForms.face_terms, which acts on the form factor of one monomial."""
    target = TensorForms(T.dga, T.n - 1)
    return operator_pullback_tensor(T, target, face_tuple(T.n, i))


def restrict_linearly(T, i, element):
    """face_terms(i) extended linearly to an element of B tensor Omega_n."""
    restrict = T.face_terms(i)
    terms = {}
    for mono, c in element.terms.items():
        for m, x in restrict(mono).items():
            terms[m] = terms.get(m, 0) + c * x
    target = TensorForms(T.dga, T.n - 1)
    return Element(target.table, {m: c for m, c in terms.items() if c})


def test_face_restriction_is_chain_map():
    rng = random.Random(51)
    for B, n in ((line_dga(), 1), (line_dga(), 2), (face_panel_dgas()[1], 2)):
        T, T1 = TensorForms(B, n), TensorForms(B, n - 1)
        for i in range(n + 1):
            for _ in range(5):
                w = sampling.random_element(rng, T.table, max_degree=3)
                assert restrict_linearly(T, i, T.total.d(w)) == \
                    T1.total.d(restrict_linearly(T, i, w))


def test_cylinder_and_tensor_forms_are_one_construction():
    """Cylinder(A, "t1") and TensorForms(A, 1) are one algebra with one
    differential, and the faces of A tensor Omega_1 are the cylinder's ends:
    face 1 sets t1 = 0 (p0) and face 0 sets t1 = 1 (p1)."""
    rng = random.Random(52)
    A = line_dga()
    cyl, T = Cylinder(A, "t1"), TensorForms(A, 1)
    assert cyl.table == T.table
    assert all(cyl.differential.image_of(x) == T.differential.image_of(x)
               for x in T.table.names)
    for _ in range(50):
        w = sampling.random_element(rng, T.table, max_degree=3)
        assert restrict_linearly(T, 1, w) == cyl.p0(w)
        assert restrict_linearly(T, 0, w) == cyl.p1(w)



def test_tensor_forms_names_the_colliding_variable():
    tab = GeneratorTable([Generator("x", 0, EVEN), Generator("dt2", 1, ODD)])
    B = DGAlgebra(tab, Derivation(tab, {}, 1, ODD))
    assert TensorForms(B, 1).table.names[-2:] == ("t1", "dt1")
    with pytest.raises(AlgebraError, match="variable 'dt2' collides with a generator"):
        TensorForms(B, 2)

def face_panel_dgas():
    """Coefficient algebras for the face panel: an even generator with an
    odd differential partner, and a table that puts odd generators of weight
    0 and 1 before the form coordinates."""
    koszul = GeneratorTable([Generator("a", 0, EVEN), Generator("b", 1, ODD)])
    d = Derivation(koszul, {"a": Element.generator(koszul, "b")}, 1, ODD)
    mixed = GeneratorTable([Generator("c", 1, ODD), Generator("e", 0, ODD),
                            Generator("f", 2, EVEN)])
    return DGAlgebra(koszul, d), DGAlgebra(mixed, Derivation(mixed, {}, 1, ODD))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_terms_match_the_algebra_map(n):
    """Every face, every monomial of a truncated basis: the monomial-level
    restriction gives the algebra map's image, with int coefficients."""
    cap = 3 if n < 4 else 2
    for B in face_panel_dgas():
        T = TensorForms(B, n)
        for i in range(n + 1):
            restrict, oracle = T.face_terms(i), face_restriction_oracle(T, i)
            t, dt = T.table.position(f"t{max(i, 1)}"), T.table.position(f"dt{max(i, 1)}")
            touched = killed = 0
            for w in range(3):
                for p in (EVEN, ODD):
                    for mono in monomial_basis(T.table, w, p, cap):
                        image = restrict(mono)
                        assert image == oracle(Element.monomial(T.table, mono)).terms, \
                            (i, mono)
                        assert all(type(c) is int and c for c in image.values())
                        if mono[t] or mono[dt]:
                            touched += 1
                            killed += not image
            # the basis holds monomials with t_i or dt_i, and for i >= 1
            # exactly those die
            assert touched and (killed == touched if i else killed < touched)


def test_boundary_cotensor_of_interval_is_a_product():
    B = line_dga()
    cot = SubShapeCotensor(B, 1, "boundary")
    for w in range(0, 3):
        for p in (0, 1):
            single = len(monomial_basis(B.table, w, p, 4))
            assert cot.dimension(w, p, 4) == 2 * single


def test_horn_cotensor_of_interval_is_a_factor():
    B = line_dga()
    for vertex in (0, 1):
        cot = SubShapeCotensor(B, 1, "horn", horn_vertex=vertex)
        for w in range(0, 3):
            for p in (0, 1):
                single = len(monomial_basis(B.table, w, p, 4))
                assert cot.dimension(w, p, 4) == single


def test_cotensor_report_simplex_and_zero():
    B = line_dga()
    rep = cotensor_report(B, 1, "simplex", None, 0, 2, 3)
    T = TensorForms(B, 1)
    for entry in rep["entries"]:
        p = 0 if entry["parity"] == "even" else 1
        assert entry["dim"] == len(monomial_basis(T.table, entry["weight"], p, 3))
    zero = cotensor_report(ZERO_ALGEBRA, 2, "boundary", None, 0, 2, 3)
    assert all(entry["dim"] == 0 for entry in zero["entries"])


@pytest.mark.parametrize("report", [cotensor_report, filling_report])
@pytest.mark.parametrize("n, shape, vertex, error", [
    (2, "horn", 7, "horn vertex out of range"),
    (0, "boundary", None, "need n >= 1"),
    (2, "cube", None, "unknown shape"),
])
def test_zero_algebra_shape_is_checked(report, n, shape, vertex, error):
    """Over the zero algebra a shape that names no boundary or horn fails as
    it does over any algebra, not with an all-zero report."""
    for coefficients in (ZERO_ALGEBRA, line_dga()):
        with pytest.raises(AlgebraError, match=error):
            report(coefficients, n, shape, vertex, 0, 2, 3)


def dense_cotensor_kernel_oracle(cot, weight, parity, cap):
    """The compatibility rows of a cotensor written out dense, every entry
    summed into place, and their kernel from the dense elimination."""
    fb = cot.facet_basis(weight, parity, cap)
    nfac = len(cot.facets)
    ncols = nfac * len(fb)
    if cot.n < 2 or not fb:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    ob = monomial_basis(cot.overlap_forms.table, weight, parity, cap)
    oidx = {m: i for i, m in enumerate(ob)}
    rows = []
    for a in range(nfac):
        for b in range(a + 1, nfac):
            j, jp = cot.facets[a], cot.facets[b]
            ra = face_restriction_oracle(cot.facet_forms, jp - 1)
            rb = face_restriction_oracle(cot.facet_forms, j)
            block = [[Fraction(0)] * ncols for _ in ob]
            for bi, mono in enumerate(fb):
                elem = Element.monomial(cot.facet_forms.table, mono)
                for m, c in ra(elem).terms.items():
                    block[oidx[m]][a * len(fb) + bi] += c
                for m, c in rb(elem).terms.items():
                    block[oidx[m]][b * len(fb) + bi] -= c
            rows.extend(block)
    return oracle_nullspace(rows, ncols)


def cotensor_panel(seed):
    """A seeded boundary or horn cotensor of the 1-, 2- or 3-simplex over one
    to three generators, a Koszul pair a -> c * b among them for some seeds."""
    rng = random.Random(8000 + seed)
    total = rng.randint(1, 3)
    koszul = seed % 2 and total >= 2
    gens = [Generator("a", 0, EVEN), Generator("b", 1, ODD)] if koszul else []
    for name in "cde"[: total - len(gens)]:
        gens.append(Generator(name, rng.randint(0, 1), rng.randint(0, 1)))
    table = GeneratorTable(gens)
    c = Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([1, 2]))
    d = Derivation(table, {"a": Element.generator(table, "b") * c} if koszul else {}, 1, ODD)
    n = rng.choice([1, 2, 2, 3])
    shape = rng.choice(["horn", "boundary"])
    vertex = rng.randint(0, n) if shape == "horn" else None
    cap = rng.randint(1, 4 - n // 2)
    return SubShapeCotensor(DGAlgebra(table, d), n, shape, vertex), cap


@pytest.mark.parametrize("seed", range(25))
def test_cotensor_kernels_match_dense_oracle(seed):
    """The sparse compatibility rows and kernel give the dense construction's
    kernel vectors, and the families read from them are the same elements."""
    cot, cap = cotensor_panel(seed)
    for w in range(0, 3):
        for p in (EVEN, ODD):
            vectors, fb = cot._kernel(w, p, cap)
            ncols = len(cot.facets) * len(fb)
            expected = dense_cotensor_kernel_oracle(cot, w, p, cap)
            assert [dense_row(vec, ncols) for vec in vectors] == expected, (w, p)
            assert all(x for vec in vectors for x in vec.values())
            families = [[Element(cot.facet_forms.table,
                                 {m: vec[fi * len(fb) + bi] for bi, m in enumerate(fb)
                                  if vec[fi * len(fb) + bi] != 0})
                         for fi in range(len(cot.facets))] for vec in expected]
            assert cot.basis(w, p, cap) == families, (w, p)


def filling_oracle(cot, w_min, w_max, cap, max_extra=3):
    """filling_report's entries from the dense kernel oracle, the algebra-map
    restriction and dense ranks: a target family is reached when adding it
    to the restricted domain monomials leaves the rank unchanged."""
    total = TensorForms(cot.coefficients, cot.n)
    maps = [face_restriction_oracle(total, j) for j in cot.facets]
    entries = []
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            fb = cot.facet_basis(w, p, cap)
            targets = dense_cotensor_kernel_oracle(cot, w, p, cap)
            entry = {"weight": w, "parity": "even" if p == EVEN else "odd",
                     "target_dim": len(targets), "surjective": not targets,
                     "cap_used": cap if not targets else None}
            for cap_dom in range(cap, cap + max_extra + 1) if targets else ():
                fb_big = cot.facet_basis(w, p, cap_dom)
                big_idx = {m: i for i, m in enumerate(fb_big)}
                ncols = len(cot.facets) * len(fb_big)
                domain = []
                for mono in monomial_basis(total.table, w, p, cap_dom):
                    vec = [Fraction(0)] * ncols
                    for fi, face in enumerate(maps):
                        for m, c in face(Element.monomial(total.table, mono)).terms.items():
                            vec[fi * len(fb_big) + big_idx[m]] += c
                    domain.append(vec)
                padded = []
                for tvec in targets:
                    vec = [Fraction(0)] * ncols
                    for k, c in enumerate(tvec):
                        fi, bi = divmod(k, len(fb))
                        vec[fi * len(fb_big) + big_idx[fb[bi]]] = c
                    padded.append(vec)
                if oracle_rank(domain + padded) == oracle_rank(domain):
                    entry["surjective"], entry["cap_used"] = True, cap_dom
                    break
            entries.append(entry)
    return entries


@pytest.mark.parametrize("seed", range(25))
def test_filling_matches_the_algebra_map_oracle(seed):
    cot, cap = cotensor_panel(seed)
    rep = filling_report(cot.coefficients, cot.n, cot.shape, cot.horn_vertex, 0, 2, cap)
    expected = filling_oracle(cot, 0, 2, cap)
    assert [{k: e[k] for k in ("weight", "parity", "target_dim", "surjective", "cap_used")}
            for e in rep["entries"]] == expected
    assert rep["all_surjective"] == all(e["surjective"] for e in expected)


def test_filling_gives_up_past_the_largest_cap(monkeypatch):
    """Over one even generator c of weight 1, the (2, even) families on the
    boundary of the 1-simplex are restrictions only from the domain at cap 3;
    with no cap above 2 to try, the report gives up on them as the oracle
    does."""
    monkeypatch.setattr(simplicial, "FILLING_MAX_EXTRA", 0)
    table = GeneratorTable([Generator("c", 1, EVEN)])
    cot = SubShapeCotensor(DGAlgebra(table, Derivation(table, {}, 1, ODD)), 1, "boundary")
    rep = filling_report(cot.coefficients, 1, "boundary", None, 0, 2, 2)
    entries = [{k: e[k] for k in ("weight", "parity", "target_dim", "surjective", "cap_used")}
               for e in rep["entries"]]
    assert entries[4] == {"weight": 2, "parity": "even", "target_dim": 2,
                          "surjective": False, "cap_used": None}
    assert rep["all_surjective"] is False
    assert entries == filling_oracle(cot, 0, 2, 2, max_extra=0)


def test_filling_needs_at_most_one_cap_retry(monkeypatch):
    """A seeded slice of a search over 1-3 generator words of
    perfbench/gen.py's coefficient algebras, n = 1..4, the boundary and every
    horn, caps 0-3 and window -2:3: every entry fills by its first cap retry,
    and some need that retry.  The whole search (219 algebras, 189,216
    entries) found none that needs a second; when one appears, this fails,
    and a test can then pin how a retry numbers its new facet coordinates."""
    monkeypatch.syspath_prepend(str(Path(simplicial.__file__).parents[2] / "perfbench"))
    import gen

    words = ["K", "e0", "e1", "o1", "o0", "e2", "o2", "e-1", "o-1"]
    rng = random.Random("filling retries")
    retried = 0
    for _ in range(200):
        shape = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        n = rng.randint(1, 4)
        vertex = rng.choice([None, *range(n + 1)])
        cap = rng.randint(0, 3)
        dga, _ = cli.build_algebra(gen.coefficient_algebra(random.Random(3), shape))
        rep = filling_report(dga, n, "boundary" if vertex is None else "horn", vertex,
                             -2, 3, cap)
        used = [e["cap_used"] for e in rep["entries"]]
        assert all(c is not None and c <= cap + 1 for c in used), (shape, n, vertex, cap)
        retried += used.count(cap + 1)
    assert retried > 0


def test_filling_reports_are_surjective():
    for B in (rational_dga(), line_dga()):
        for vertex in (0, 1):
            rep = filling_report(B, 1, "horn", vertex, 0, 2, 3)
            assert rep["all_surjective"], rep
    rep = filling_report(rational_dga(), 1, "boundary", None, 0, 2, 3)
    assert rep["all_surjective"], rep
    rep = filling_report(ZERO_ALGEBRA, 1, "horn", 0, 0, 2, 3)
    assert rep["all_surjective"]
    assert all(entry["target_dim"] == 0 for entry in rep["entries"])
