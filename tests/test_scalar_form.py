"""The one scalar form: every coefficient and matrix entry sdga keeps is an
int when integral and a Fraction otherwise, as `core.as_scalar` gives it.
Each layer's results are checked where non-integral coefficients meet and
cancel to integers, which a Fraction with denominator 1 would hide."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from sdga import model, sampling
from sdga.core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    as_scalar,
    monomial_bases,
    partial,
)
from sdga.dg import DGAlgebra, Derivation, _differential_matrix
from sdga.forms import Cylinder, integrate
from sdga.simplicial import (
    SimplexForms,
    dupont_homotopy,
    simplex_integral,
    whitney,
    whitney_expansion,
    whitney_projection,
    whitney_tuples,
)
import panels


def test_as_scalar_table():
    for value, want in (("4/2", 2), ("-6/3", -2), (Fraction(4, 2), 2), (-7, -7),
                        ("1/2", Fraction(1, 2)), (Fraction(-3, 6), Fraction(-1, 2))):
        got = as_scalar(value)
        assert (got, type(got)) == (want, type(want)), value
    for bad in (True, 1.0, "1e3", "1/0", None):
        with pytest.raises(AlgebraError, match="not an exact rational"):
            as_scalar(bad)


def test_integrating_integer_coefficients_keeps_an_exact_quotient():
    """int_0^1 x dx over a table whose coefficients are ints is 1/2 as a
    Fraction: an int / int in Python would store the float 0.5, which
    equals Fraction(1, 2) and so passes every comparison."""
    table = GeneratorTable([Generator("x", 0, EVEN)])
    x = Element.generator(table, "x")
    assert type(x.terms[(1,)]) is int
    half = integrate(x, "x", 0, 1).terms[(0,)]
    assert (half, type(half)) == (Fraction(1, 2), Fraction)


# x, y even and xi, eta odd, with d x = xi and d y = eta
TABLE = GeneratorTable([Generator("x", 0, EVEN), Generator("y", 1, EVEN),
                        Generator("xi", 1, ODD), Generator("eta", 2, ODD)])
LAYERS = ("sum", "product", "scalar multiple", "partial", "algebra map", "integrate",
          "cylinder contraction", "dupont", "projection", "simplex integral",
          "differential matrix", "factorize")


def layer_panel(rng: random.Random):
    """(layer, values) for what each layer keeps, on elements with
    coefficients of denominators 1 to 3 (`sampling.random_element`)."""
    x, y, xi, eta = (Element.generator(TABLE, g.name) for g in TABLE)
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = sampling.random_element(rng, TABLE, 3, 6) + half * x * x + third * y
    b = sampling.random_element(rng, TABLE, 3, 6) + half * x * x + Fraction(2, 3) * y
    integral = a * 6  # every coefficient an integer
    yield "sum", (a + b).terms.values()
    yield "sum", ((a + integral) - a).terms.values()
    yield "product", (a * b).terms.values()
    yield "product", ((half * x + third * y) * (2 * x + 3 * y)).terms.values()
    yield "scalar multiple", integral.terms.values()
    yield "scalar multiple", (Fraction(3, 1) * a).terms.values()
    yield "partial", partial(a, "x").terms.values()
    yield "partial", partial(b * xi, "xi").terms.values()
    f = AlgebraMap(TABLE, TABLE, {"x": 2 * x, "y": 3 * y + x * y, "xi": 6 * xi,
                                  "eta": 2 * eta + y * xi})
    yield "algebra map", f(a).terms.values()
    yield "integrate", integrate(a, "x", 0, 1).terms.values()
    yield "integrate", integrate(integral, "x", third, y).terms.values()
    dga = DGAlgebra(TABLE, Derivation(TABLE, {"x": xi, "y": eta}, 1, ODD))
    cyl = Cylinder(dga)
    w = sampling.random_element(rng, cyl.table, 4, 8) + 2 * cyl.t() * cyl.dt()
    yield "cylinder contraction", cyl.contract(w).terms.values()

    n = rng.randint(1, 3)
    forms = SimplexForms(n)
    faces = [I for k in range(n + 1) for I in whitney_tuples(n, k)]
    t1, dt1 = (Element.generator(forms.table, name) for name in ("t1", "dt1"))
    form = sampling.random_element(rng, forms.table, 3, 6) + half * t1 * t1 * dt1
    for I in rng.sample(faces, 2):
        form = form + whitney(forms, I) * rng.choice([1, half, Fraction(-3, 2)])
    # integrals and the Dupont walk divide by factorials: times 720, their
    # sums of non-integral terms meet integers too
    for x in (form, form * 720):
        yield "dupont", dupont_homotopy(forms, x).terms.values()
        yield "projection", whitney_projection(forms, x).terms.values()
        yield "projection", [value for _, value in whitney_expansion(forms, x)]
        for method in ("dirichlet", "iterated"):
            values = [simplex_integral(forms, I, x, method=method) for I in faces]
            yield "simplex integral", [value for value in values if value]

    for name, table in panels.window_tables(rng):
        d = sampling.random_derivation(rng, table, 1, ODD, cap=3)
        growth = max([0] + [img.degree() - 1 for img in d.images if img.terms])
        # compute_cohomology's caps for the window -1..2
        bases = monomial_bases(table, {w: 3 + growth * (w + 2) for w in range(-2, 4)})
        for w in range(-2, 3):
            for p in (EVEN, ODD):
                for column in _differential_matrix(table, d, bases[(w, p)],
                                                   bases[(w + 1, 1 - p)]):
                    yield "differential matrix", column.values()

    source, target = panels.random_complex(rng, 2), panels.random_complex(rng, 2)
    g = panels.random_chain_map(rng, source, target)
    g = model.ChainMap(source, target, {key: [{r: x * half for r, x in col.items()}
                                              for col in block]
                                        for key, block in g.blocks.items()})
    for mode in ("acyclic_cofibration_fibration", "cofibration_acyclic_fibration"):
        for h in model.factorize(g, mode):
            for block in [*h.blocks.values(), *h.source.diff.values(), *h.target.diff.values()]:
                yield "factorize", [x for col in block for x in col.values()]


@pytest.mark.parametrize("seed", range(8))
def test_every_layer_keeps_the_one_scalar_form(seed):
    integral = Counter()
    for layer, values in layer_panel(random.Random(9900 + seed)):
        values = list(values)
        panels.assert_entry_form(values, layer)
        integral[layer] += sum(type(x) is int for x in values)
    # every layer met integral values, where the form is at stake
    assert [layer for layer in LAYERS if not integral[layer]] == []
