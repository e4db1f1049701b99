"""Differential forms over a graded algebra, Cartan calculus and cylinders.

The forms algebra on generators g adjoins symbols dg of bidegree
(weight+1, parity+1).  The exterior differential d sends g to dg and dg to 0.
For a derivation D of the base, the contraction iota_D kills generators and
sends dg to D(g); the Lie derivative is the graded commutator

    L_D = [iota_D, d] = iota_D d - (-1)^{|iota_D|} d iota_D,

taken in that order.  With these conventions L_D restricts to D on the base
and the whole Cartan package closes up: contractions anticommute, L respects
brackets, and the form-weight Euler operator counts dg factors.

One construction of A tensor Omega, `CoordinateForms`, adjoins even weight-0
coordinates and their differentials to a dg algebra A; the cylinder A[t, dt]
is it on one coordinate, and simplicial.TensorForms, B tensor Omega_n, on the
n simplex coordinates.  On the cylinder, evaluation at the endpoints and the
integration contraction h = int_0^t d/d(dt) witness the two end inclusions
as homotopic, all with exact rational coefficients.
"""

from __future__ import annotations

from .core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    TableExtension,
    _add_into,
    _is_fraction,
    _quotient,
    as_scalar,
)
from .core import partial as partial_derivative
from .dg import Derivation, DGAlgebra


def substitute(element: Element, values: dict[str, Element | int | Fraction]) -> Element:
    """Replace generators by elements of the same table; identity elsewhere.

    Names the table does not have are ignored.  When every value is a
    rational (an int, Fraction or 'p/q' string), each term is evaluated in
    one pass: its coefficient is scaled by v**e and that exponent zeroed, so
    a zero value kills every term the generator divides.
    """
    table = element.table
    scalars: dict[int, int | Fraction] = {}
    for name, val in values.items():
        pos = table.index.get(name)
        if pos is None:
            continue
        if not (isinstance(val, (int, str)) or _is_fraction(val)):
            return _substitute_by_map(element, values)
        scalars[pos] = as_scalar(val)
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for mono, c in element.terms.items():
        new = list(mono)
        for pos, v in scalars.items():
            e = mono[pos]
            if e:
                c = c * v ** e
                new[pos] = 0
        if c:
            _add_into(terms, {tuple(new): c})
    return Element(table, terms)


def _substitute_by_map(element: Element, values: dict) -> Element:
    table = element.table
    images: dict[str, Element] = {}
    for g in table.generators:
        if g.name in values:
            val = values[g.name]
            if isinstance(val, (int, str)) or _is_fraction(val):
                val = Element.scalar(table, val)
            images[g.name] = val
        else:
            images[g.name] = Element.generator(table, g.name)
    return AlgebraMap(table, table, images, check=False)(element)


def antiderivative(element: Element, name: str) -> Element:
    """Termwise antiderivative in an even polynomial variable."""
    table = element.table
    pos = table.position(name)
    if table.parities[pos] != EVEN:
        raise AlgebraError(f"antiderivative requires an even variable, {name!r} is odd")
    terms = {}
    for mono, c in element.terms.items():
        new = list(mono)
        new[pos] += 1
        terms[tuple(new)] = _quotient(c, new[pos])
    return Element(table, terms)


def integrate(element: Element, name: str, lower, upper) -> Element:
    """Definite integral in an even variable; bounds may be elements."""
    F = antiderivative(element, name)
    return substitute(F, {name: upper}) - substitute(F, {name: lower})


def berezin(element: Element, name: str) -> Element:
    """Berezin integral in one odd variable: the left partial derivative."""
    table = element.table
    if table.parities[table.position(name)] != ODD:
        raise AlgebraError(f"Berezin integration requires an odd variable, {name!r} is even")
    return partial_derivative(element, name)


class FormsAlgebra(TableExtension):
    """The de Rham forms of a free graded-commutative algebra."""

    def __init__(self, base: GeneratorTable):
        super().__init__(base, TableExtension.d_generators(base, 1, ODD))
        images = {
            g.name: Element.generator(self.table, "d" + g.name) for g in base.generators
        }
        self.de_rham = Derivation(self.table, images, 1, ODD)
        euler_images = {
            "d" + g.name: Element.generator(self.table, "d" + g.name)
            for g in base.generators
        }
        self.form_euler = Derivation(self.table, euler_images, 0, EVEN)

    form_weight_of = TableExtension.extension_degree

    def d_symbol(self, name: str) -> Element:
        self.base.position(name)
        return Element.generator(self.table, "d" + name)

    def form_components(self, element: Element) -> dict[int, Element]:
        parts: dict[int, dict] = {}
        for m, c in element.terms.items():
            parts.setdefault(self.form_weight_of(m), {})[m] = c
        return {k: Element(self.table, terms) for k, terms in sorted(parts.items())}

    # -- Cartan calculus ------------------------------------------------------

    def contraction(self, D: Derivation) -> Derivation:
        """iota_D: generators to 0, dg to D(g); form weight drops by one."""
        if D.table != self.base:
            raise AlgebraError("derivation is not over the base table")
        images = {
            "d" + g.name: self.include(D.image_of(g.name)) for g in self.base.generators
        }
        return Derivation(
            self.table, images, D.weight_shift - 1, (D.parity_shift + 1) % 2
        )

    def lie_derivative(self, D: Derivation) -> Derivation:
        """L_D = [iota_D, d]; restricts to D on the base generators."""
        return self.contraction(D).bracket(self.de_rham)

    def internal_lift(self, dga: DGAlgebra) -> Derivation:
        """The lift L_{d_A} of an internal differential to forms."""
        if dga.table != self.base:
            raise AlgebraError("algebra is not over the base table")
        return self.lie_derivative(dga.differential)

    def total_differential(self, dga: DGAlgebra) -> Derivation:
        """Internal lift plus exterior differential; squares to zero."""
        return self.internal_lift(dga) + self.de_rham

    def total_dga(self, dga: DGAlgebra) -> DGAlgebra:
        return DGAlgebra(self.table, self.total_differential(dga))

    def cartan_relations(self, D1: Derivation, D2: Derivation) -> dict[str, bool]:
        """The six Cartan relations for a pair of base derivations.

        Each value is an exact operator identity, decided on the generators of
        the forms table.
        """
        d = self.de_rham
        eps = self.form_euler
        i1 = self.contraction(D1)
        i2 = self.contraction(D2)
        L1 = self.lie_derivative(D1)
        L2 = self.lie_derivative(D2)
        bracket12 = D1.bracket(D2)
        results = {
            "cartan_formula": i1.bracket(d) == L1,
            "euler_contraction": eps.bracket(i1) == -i1,
            "euler_lie": eps.bracket(L1).is_zero(),
            "contractions_commute": i1.bracket(i2).is_zero(),
            "lie_contraction": L1.bracket(i2) == self.contraction(bracket12),
            "lie_lie": L1.bracket(L2) == self.lie_derivative(bracket12),
        }
        return results

    def restricts_to_base(self, D: Derivation) -> bool:
        """Check L_D(g) equals D(g) for every base generator."""
        L = self.lie_derivative(D)
        for g in self.base.generators:
            if L.image_of(g.name) != self.include(D.image_of(g.name)):
                return False
        return True


# -- A tensor Omega: cylinders and simplex coordinates -------------------------


class CoordinateForms(TableExtension):
    """A dg algebra A with even weight-0 coordinates c and their odd
    differentials dc adjoined, all c before all dc: d is d_A on A and
    c -> dc.  `dga` is A and `total` the dg algebra d makes."""

    def __init__(self, dga: DGAlgebra, coordinates: list[str]):
        base = dga.table
        new = ([Generator(c, 0, EVEN) for c in coordinates]
               + [Generator("d" + c, 1, ODD) for c in coordinates])
        for g in new:
            if g.name in base.index:
                raise AlgebraError(f"variable {g.name!r} collides with a generator")
        self.dga = dga
        super().__init__(base, new)
        images = {
            g.name: self.include(dga.differential.image_of(g.name))
            for g in base.generators
        }
        images.update((c, Element.generator(self.table, "d" + c)) for c in coordinates)
        self.differential = Derivation(self.table, images, 1, ODD)
        self.total = DGAlgebra(self.table, self.differential)


class Cylinder(CoordinateForms):
    """A[t, dt] for a dg algebra A, with end evaluations and a contraction."""

    def __init__(self, dga: DGAlgebra, var: str = "t"):
        super().__init__(dga, [var])
        self.var = var
        self.dvar = "d" + var

    def t(self) -> Element:
        return Element.generator(self.table, self.var)

    def dt(self) -> Element:
        return Element.generator(self.table, self.dvar)

    def evaluate(self, element: Element, value) -> Element:
        """Set t to a rational value and dt to zero, landing in the base."""
        return self.project(substitute(element, {self.var: as_scalar(value), self.dvar: 0}))

    def p0(self, element: Element) -> Element:
        return self.evaluate(element, 0)

    def p1(self, element: Element) -> Element:
        return self.evaluate(element, 1)

    def end_map(self, value) -> AlgebraMap:
        images = {}
        for g in self.base.generators:
            images[g.name] = Element.generator(self.base, g.name)
        images[self.var] = Element.scalar(self.base, value)
        images[self.dvar] = Element.zero(self.base)
        return AlgebraMap(self.table, self.base, images, check=False)

    def contract(self, element: Element) -> Element:
        """h(w) = int_0^t (d/d dt) w; satisfies h d + d h = id - j p0."""
        beta = partial_derivative(element, self.dvar)
        F = antiderivative(beta, self.var)
        return F - substitute(F, {self.var: 0})

    def homotopy_defect(self, element: Element) -> Element:
        """h(Dw) + D(hw) - w + include(p0(w)); identically zero."""
        D = self.differential
        return (
            self.contract(D(element))
            + D(self.contract(element))
            - element
            + self.include(self.p0(element))
        )

    def integrate_over(self, element: Element) -> Element:
        """int_0^1 of the dt-component, landing in the base algebra."""
        beta = partial_derivative(element, self.dvar)
        return self.restrict(integrate(beta, self.var, 0, 1))


def homotopy_from_cylinder_map(cyl: Cylinder, source: DGAlgebra, phi: AlgebraMap):
    """Turn an algebra homotopy phi: B -> A[t, dt] into a chain homotopy.

    Returns (h, check) where h(b) = int_0^1 (d/d dt) phi(b) and
    check(b) = h(d_B b) + d_A(h b) - p1(phi b) + p0(phi b) vanishes when phi
    is a chain map for the cylinder differential.
    """
    if phi.source != source.table or phi.target != cyl.table:
        raise AlgebraError("homotopy map has the wrong source or target")

    def h(b: Element) -> Element:
        return cyl.integrate_over(phi(b))

    def defect(b: Element) -> Element:
        lhs = h(source.d(b)) + cyl.dga.d(h(b))
        rhs = cyl.p1(phi(b)) - cyl.p0(phi(b))
        return lhs - rhs

    return h, defect


class PathObject:
    """The standard path object A -> A[t, dt] -> A x A for a dg algebra."""

    def __init__(self, dga: DGAlgebra, var: str = "t"):
        self.dga = dga
        self.cylinder = Cylinder(dga, var=var)

    def j(self, element: Element) -> Element:
        return self.cylinder.include(element)

    def q(self, element: Element) -> tuple[Element, Element]:
        return (self.cylinder.p0(element), self.cylinder.p1(element))

    def factors_diagonal(self, element: Element) -> bool:
        left, right = self.q(self.j(element))
        return left == element and right == element

    def homotopy(self, element: Element) -> Element:
        """int_0^1 contraction: h with h D + d_A h = p1 - p0 on the cylinder."""
        return self.cylinder.integrate_over(element)

    def homotopy_defect(self, element: Element) -> Element:
        cyl = self.cylinder
        lhs = self.homotopy(cyl.total.d(element)) + self.dga.d(self.homotopy(element))
        rhs = cyl.p1(element) - cyl.p0(element)
        return lhs - rhs
