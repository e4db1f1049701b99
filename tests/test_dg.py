"""Derivations, differentials, cohomology, square-zero extensions, Kahler forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdga.core import (
    AlgebraError,
    Element,
    Generator,
    GeneratorTable,
    parse,
    render,
)
from sdga.dg import (
    DGAlgebra,
    Derivation,
    KahlerModule,
    SquareZeroExtension,
    euler_derivation,
    leibniz_defect,
)
from sdga import sampling


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


def test_derivation_rejects_wrong_bidegree(table):
    with pytest.raises(AlgebraError):
        Derivation(table, {"x": Element.generator(table, "x")}, 1, 1)


@pytest.mark.parametrize("seed", range(20))
def test_derivations_satisfy_super_leibniz(table, seed):
    rng = random.Random(seed)
    D = sampling.random_derivation(rng, table, rng.randint(-1, 2), rng.randint(0, 1))
    a, b = sampling.random_homogeneous_pair(rng, table)
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
    a, b = sampling.random_homogeneous_pair(rng, dga.table)
    sign = -1 if a.parity() else 1
    assert dga.d(a * b) == dga.d(a) * b + a * dga.d(b) * sign
    assert dga.d(dga.d(sampling.random_element(rng, dga.table))).is_zero()


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


# -- square-zero extensions ---------------------------------------------------------


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
    a, b = sampling.random_homogeneous_pair(rng, table)
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
