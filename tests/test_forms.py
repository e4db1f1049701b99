"""Forms algebras, Cartan calculus, integration, cylinders and path objects."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdga.core import (
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    as_scalar,
    parse,
    partial,
)
from sdga.dg import DGAlgebra, Derivation, leibniz_defect
from sdga.forms import (
    Cylinder,
    FormsAlgebra,
    PathObject,
    antiderivative,
    berezin,
    homotopy_from_cylinder_map,
    integrate,
    substitute,
)
from sdga import sampling
import panels
from panels import line_dga


@pytest.fixture
def table():
    return GeneratorTable([
        Generator("x", 0, 0),
        Generator("y", 0, 0),
        Generator("xi", 1, 1),
    ])


# -- substitution and integration helpers -------------------------------------


def test_substitute_scalar_and_element(table):
    a = parse(table, "x^2 * y + xi")
    out = substitute(a, {"x": 3})
    assert out == parse(table, "9 * y + xi")
    out = substitute(a, {"x": Element.generator(table, "y")})
    assert out == parse(table, "y^3 + xi")


def test_substitute_rejects_an_unreadable_scalar_string(table):
    with pytest.raises(AlgebraError, match="not an exact rational: '1/0'"):
        substitute(parse(table, "x"), {"x": "1/0"})


def substitute_by_map(element, values):
    """substitute through an AlgebraMap, the path Element values take; the
    reference for the one-pass evaluation of rational values."""
    table = element.table
    images = {g.name: (Element.scalar(table, as_scalar(values[g.name])) if g.name in values
                       else Element.generator(table, g.name))
              for g in table.generators}
    return AlgebraMap(table, table, images, check=False)(element)


@pytest.mark.parametrize("seed", range(25))
def test_scalar_substitution_matches_map(seed):
    rng = random.Random(9500 + seed)
    tab = GeneratorTable([Generator("x", 0, 0), Generator("xi", 1, 1), Generator("y", 2, 0),
                          Generator("eta", 1, 1), Generator("z", -1, 0), Generator("zeta", 3, 1)])
    evens, odds = ["x", "y", "z"], ["xi", "eta", "zeta"]
    rng.shuffle(evens)
    rng.shuffle(odds)
    v = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
    values = {
        evens[0]: 0,                         # a zero even value
        odds[0]: 0,                          # a zero odd value
        evens[1]: v,                         # a Fraction
        evens[2]: f"{rng.randint(-4, 4)}/{rng.randint(1, 5)}",  # a 'p/q' string
        odds[1]: rng.choice((1, -2, "3/4", Fraction(-1, 3))),
        "w": "not in the table, so never read",
    }
    if rng.random() < 0.5:
        del values[odds[1]]

    def random_monomial():
        return tuple(rng.randint(0, 1) if p == ODD else rng.randint(0, 4)
                     for p in tab.parities)

    a = Element.zero(tab)
    for _ in range(8):
        a = a + Element.monomial(tab, random_monomial(), sampling.random_scalar(rng))
    # two terms that cancel once evens[1] := v
    mono = list(random_monomial())
    mono[tab.position(evens[1])] = 0
    c = sampling.random_scalar(rng) or Fraction(1)
    a = a + Element.monomial(tab, tuple(mono), c)
    mono[tab.position(evens[1])] = 1
    a = a + Element.monomial(tab, tuple(mono), -c / v)
    out = substitute(a, values)
    assert out == substitute_by_map(a, values)
    assert all(c != 0 for c in out.terms.values())
    for m in out.terms:
        for name in (evens[0], odds[0], evens[1], evens[2]):
            assert m[tab.position(name)] == 0


def test_antiderivative_inverts_partial(table):
    rng = random.Random(20)
    for _ in range(15):
        a = sampling.random_element(rng, table, max_degree=4)
        F = antiderivative(a, "x")
        assert partial(F, "x") == a


def test_antiderivative_rejects_odd(table):
    with pytest.raises(AlgebraError):
        antiderivative(Element.scalar(table, 1), "xi")


def test_fundamental_theorem(table):
    rng = random.Random(21)
    for _ in range(15):
        F = sampling.random_element(rng, table, max_degree=4)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = integrate(partial(F, "x"), "x", a, b)
        rhs = substitute(F, {"x": b}) - substitute(F, {"x": a})
        assert lhs == rhs


def test_integral_additivity_and_antisymmetry(table):
    rng = random.Random(22)
    for _ in range(10):
        f = sampling.random_element(rng, table, max_degree=3)
        a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert integrate(f, "x", a, b) + integrate(f, "x", b, c) == integrate(f, "x", a, c)
        assert integrate(f, "x", a, b) == -integrate(f, "x", b, a)


def test_integral_element_bounds(table):
    f = parse(table, "x")
    y = Element.generator(table, "y")
    assert integrate(f, "x", 0, y) == parse(table, "1/2 * y^2")


def test_berezin(table):
    assert berezin(parse(table, "x * xi"), "xi") == parse(table, "x")
    assert berezin(parse(table, "x^2 + y"), "xi").is_zero()
    with pytest.raises(AlgebraError):
        berezin(Element.scalar(table, 1), "x")


def test_berezin_two_variables():
    tab = GeneratorTable([Generator("xi", 1, 1), Generator("eta", 1, 1)])
    inner = berezin(parse(tab, "xi * eta"), "eta")
    assert berezin(inner, "xi") == Element.scalar(tab, -1)


# -- the forms algebra ---------------------------------------------------------


def test_forms_table_bidegrees(table):
    forms = FormsAlgebra(table)
    for g in table.generators:
        dg = forms.table.generators[forms.table.position("d" + g.name)]
        assert dg.weight == g.weight + 1
        assert dg.parity == (g.parity + 1) % 2


def test_include_restrict_round_trip(table):
    forms = FormsAlgebra(table)
    rng = random.Random(23)
    for _ in range(10):
        a = sampling.random_element(rng, table)
        assert forms.restrict(forms.include(a)) == a
    with pytest.raises(AlgebraError):
        forms.restrict(forms.d_symbol("x"))


def test_de_rham_squares_to_zero(table):
    forms = FormsAlgebra(table)
    d = forms.de_rham
    rng = random.Random(24)
    for _ in range(15):
        w = sampling.random_element(rng, forms.table, max_degree=3)
        assert d(d(w)).is_zero()
        a, b = panels.random_homogeneous_pair(rng, forms.table, weight_range=(0, 3))
        assert leibniz_defect(d, a, b).is_zero()


def test_form_components_partition(table):
    forms = FormsAlgebra(table)
    rng = random.Random(25)
    for _ in range(10):
        w = sampling.random_element(rng, forms.table, max_degree=3, terms=6)
        parts = forms.form_components(w)
        total = Element.zero(forms.table)
        for k, part in parts.items():
            for mono in part.terms:
                assert forms.form_weight_of(mono) == k
            total = total + part
        assert total == w


def test_contraction_values(table):
    forms = FormsAlgebra(table)
    rng = random.Random(26)
    D = sampling.random_derivation(rng, table, 0, 0)
    iota = forms.contraction(D)
    for g in table.generators:
        assert iota(forms.include(Element.generator(table, g.name))).is_zero()
        assert iota(forms.d_symbol(g.name)) == forms.include(D.image_of(g.name))
    assert iota.weight_shift == D.weight_shift - 1
    assert iota.parity_shift == (D.parity_shift + 1) % 2


def test_lie_derivative_restricts(table):
    forms = FormsAlgebra(table)
    rng = random.Random(27)
    for shift_w, shift_p in [(0, 0), (1, 1), (-1, 1), (2, 0)]:
        D = sampling.random_derivation(rng, table, shift_w, shift_p)
        assert forms.restricts_to_base(D)


def test_cartan_relations_random_pairs(table):
    forms = FormsAlgebra(table)
    rng = random.Random(28)
    for _ in range(8):
        D1 = sampling.random_derivation(
            rng, table, rng.randint(-1, 2), rng.randint(0, 1), cap=3
        )
        D2 = sampling.random_derivation(
            rng, table, rng.randint(-1, 2), rng.randint(0, 1), cap=3
        )
        report = forms.cartan_relations(D1, D2)
        assert all(report.values()), report


def test_form_euler_counts_dg(table):
    forms = FormsAlgebra(table)
    w = forms.d_symbol("x") * forms.d_symbol("y")
    assert forms.form_euler(w) == w * 2
    assert forms.form_euler(forms.include(parse(table, "x * y"))).is_zero()


def test_internal_lift_sign():
    dga = line_dga()
    forms = FormsAlgebra(dga.table)
    lift = forms.internal_lift(dga)
    # on the base, the lift is the internal differential
    x = Element.generator(dga.table, "x")
    assert lift(forms.include(x)) == forms.include(dga.d(x))
    # on symbols it anticommutes with the exterior differential
    assert lift(forms.d_symbol("x")) == -forms.de_rham(forms.include(dga.d(x)))
    assert lift(forms.d_symbol("x")) == -forms.d_symbol("xi")


def test_total_differential_squares_to_zero():
    dga = line_dga()
    forms = FormsAlgebra(dga.table)
    total = forms.total_dga(dga)
    rng = random.Random(29)
    for _ in range(10):
        w = sampling.random_element(rng, forms.table, max_degree=3)
        assert total.d(total.d(w)).is_zero()


# -- cylinders ------------------------------------------------------------------


def test_cylinder_variable_collision():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    assert cyl.t().table is cyl.table
    tab = GeneratorTable([Generator("t", 0, 0)])
    other = DGAlgebra(tab, Derivation(tab, {}, 1, 1))
    with pytest.raises(AlgebraError):
        Cylinder(other, var="t")


def test_cylinder_endpoints():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    rng = random.Random(30)
    for _ in range(10):
        a = sampling.random_element(rng, dga.table)
        assert cyl.p0(cyl.include(a)) == a
        assert cyl.p1(cyl.include(a)) == a
    # evaluation is an algebra map agreeing with substitution at endpoints
    w = cyl.include(Element.generator(dga.table, "x")) * cyl.t() + cyl.dt()
    assert cyl.p0(w).is_zero()
    assert cyl.p1(w) == Element.generator(dga.table, "x")
    for value in (0, 1, Fraction(1, 2)):
        end = cyl.end_map(value)
        assert end(w) == cyl.evaluate(w, value)


def test_cylinder_differential():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    assert cyl.total.d(cyl.t()) == cyl.dt()
    assert cyl.total.d(cyl.dt()).is_zero()
    x = cyl.include(Element.generator(dga.table, "x"))
    assert cyl.total.d(x) == cyl.include(Element.generator(dga.table, "xi"))


def contract_by_euler(cyl: Cylinder, element: Element) -> Element:
    """The cylinder contraction by a second route: iota_E / n on each part of
    (t, dt)-degree n, where iota_E sends dt to t."""
    iota = Derivation(cyl.table, {cyl.dvar: cyl.t()}, -1, ODD)
    out = Element.zero(cyl.table)
    parts: dict[int, dict] = {}
    for m, c in element.terms.items():
        parts.setdefault(cyl.extension_degree(m), {})[m] = c
    for n, terms in parts.items():
        if n == 0:
            continue
        out = out + iota(Element(cyl.table, terms)) * Fraction(1, n)
    return out


def test_cylinder_contraction_identity():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    rng = random.Random(31)
    for _ in range(20):
        w = sampling.random_element(rng, cyl.table, max_degree=3)
        assert cyl.homotopy_defect(w).is_zero()
        assert cyl.contract(w) == contract_by_euler(cyl, w)


def test_cylinder_integrate_over():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    assert cyl.integrate_over(cyl.t() * cyl.dt()) == Element.scalar(dga.table, Fraction(1, 2))
    a = Element.generator(dga.table, "x")
    assert cyl.integrate_over(cyl.include(a)).is_zero()
    assert cyl.integrate_over(cyl.include(a) * cyl.dt()) == a


def test_homotopy_from_cylinder_map():
    dga = line_dga()
    cyl = Cylinder(dga, var="t")
    tab = dga.table
    x = Element.generator(tab, "x")
    xi = Element.generator(tab, "xi")
    one = Element.scalar(cyl.table, 1)
    # straight-line homotopy from the identity to the zero endomorphism
    phi = AlgebraMap(
        tab,
        cyl.table,
        {
            "x": cyl.include(x) * (one - cyl.t()),
            "xi": cyl.include(xi) * (one - cyl.t()) - cyl.include(x) * cyl.dt(),
        },
    )
    # chain map for the cylinder differential
    for name in ("x", "xi"):
        g = Element.generator(tab, name)
        assert phi(dga.d(g)) == cyl.total.d(phi(g))
    h, defect = homotopy_from_cylinder_map(cyl, dga, phi)
    assert h(xi) == -x
    assert h(x).is_zero()
    rng = random.Random(32)
    for _ in range(10):
        b = sampling.random_element(rng, tab, max_degree=3)
        assert defect(b).is_zero()


# -- path objects ----------------------------------------------------------------


def path_cases():
    empty = GeneratorTable([])
    trivial = DGAlgebra(empty, Derivation(empty, {}, 1, 1))
    return [trivial, line_dga()]


def test_path_object_diagonal():
    for dga in path_cases():
        path = PathObject(dga, var="t")
        rng = random.Random(33)
        for _ in range(10):
            a = sampling.random_element(rng, dga.table)
            assert path.factors_diagonal(a)
            assert path.q(path.j(a)) == (a, a)


def test_path_object_endpoint_witness():
    for dga in path_cases():
        path = PathObject(dga, var="t")
        cyl = path.cylinder
        one = Element.scalar(cyl.table, 1)
        rng = random.Random(34)
        for _ in range(15):
            a0 = sampling.random_element(rng, dga.table)
            a1 = sampling.random_element(rng, dga.table)
            w = cyl.include(a0) * (one - cyl.t()) + cyl.include(a1) * cyl.t()
            assert path.q(w) == (a0, a1)


def test_path_object_homotopy_identity():
    for dga in path_cases():
        path = PathObject(dga, var="t")
        rng = random.Random(35)
        for _ in range(15):
            w = sampling.random_element(rng, path.cylinder.table, max_degree=3)
            assert path.homotopy_defect(w).is_zero()
