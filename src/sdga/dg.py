"""Derivations, differentials and cohomology for graded supercommutative algebras.

A derivation of bidegree (s, e) sends each generator to a homogeneous element
shifted by that bidegree and extends by the super Leibniz rule
D(ab) = D(a) b + (-1)^{e|a|} a D(b).  Applying D via left partial derivatives,
D(a) = sum_g D(g) * da/dg, reproduces exactly that rule; `Derivation._apply`
does so on term dicts, striking a factor off each exponent tuple.

Cohomology of a differential (bidegree (1, odd), squaring to zero) is computed
per (weight, parity) on monomial bases truncated by total degree.  The degree
caps are grown with the weight so that every differential matrix is the honest
restriction of d (no image term is ever silently dropped), and each reported
dimension carries an `exact` flag that is True only when the truncated bases
provably exhaust their weight spaces.

A differential block is a `linalg.Block`, a list of sparse columns, one per
source monomial.  One elimination, `linalg.kernel`, gives both its kernel
and the rows where its image ends; a kernel vector of the next block
represents a class exactly when its free column is not such an end, and a
representative is rendered from its own sparse row, so no block is
eliminated twice and no block or vector is written out dense.
"""

from __future__ import annotations

from . import linalg
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
    _image_table,
    _mul_terms,
    _strike,
    as_scalar,
    monomial_bases,
    parity_name,
    parity_of,
    partial,
    render,
    weight_degree_bound,
)


class Derivation:
    """A super derivation of a free graded-commutative algebra into itself."""

    def __init__(self, table: GeneratorTable, images: dict[str, Element],
                 weight_shift: int, parity_shift: int, check: bool = True):
        if parity_shift not in (EVEN, ODD):
            raise AlgebraError("parity shift must be 0 or 1")
        self.table = table
        self.weight_shift = weight_shift
        self.parity_shift = parity_shift
        self.images = _image_table(table, table, images,
                                   (weight_shift, parity_shift) if check else None, 0)
        # (table position, image terms) of each generator with a nonzero image
        self._leibniz = tuple((i, img.terms) for i, img in enumerate(self.images) if img.terms)

    def image_of(self, name: str) -> Element:
        return self.images[self.table.position(name)]

    def __call__(self, element: Element) -> Element:
        if element.table != self.table:
            raise AlgebraError("element is not over the derivation's table")
        return Element(self.table, self._apply(element.terms))

    def _apply(self, terms: dict) -> dict:
        """D on a term dict: the sum over the generators g with a nonzero
        image of D(g) times the left partial derivative in g, struck off the
        exponent tuples, with no Element built."""
        table = self.table
        out: dict[tuple[int, ...], int | Fraction] = {}
        for pos, img in self._leibniz:
            struck = _strike(table, terms, pos)
            if struck:
                _add_into(out, _mul_terms(table, img, struck))
        return out

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.table != other.table or self.images != other.images:
            return False
        if not self.is_zero() and (
            self.weight_shift != other.weight_shift
            or self.parity_shift != other.parity_shift
        ):
            return False
        return True

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.table != other.table:
            raise AlgebraError("derivations live over different tables")
        if not self.is_zero() and not other.is_zero() and (
            (self.weight_shift, self.parity_shift)
            != (other.weight_shift, other.parity_shift)
        ):
            raise AlgebraError("cannot add derivations of different bidegrees")
        shift = (other if self.is_zero() else self)
        images = {
            g.name: self.images[i] + other.images[i]
            for i, g in enumerate(self.table.generators)
        }
        return Derivation(self.table, images, shift.weight_shift, shift.parity_shift,
                          check=False)

    def __neg__(self) -> "Derivation":
        images = {g.name: -self.images[i] for i, g in enumerate(self.table.generators)}
        return Derivation(self.table, images, self.weight_shift, self.parity_shift,
                          check=False)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, c) -> "Derivation":
        c = as_scalar(c)
        images = {g.name: self.images[i] * c for i, g in enumerate(self.table.generators)}
        return Derivation(self.table, images, self.weight_shift, self.parity_shift,
                          check=False)

    def bracket(self, other: "Derivation") -> "Derivation":
        """Super commutator [D, D'] = D D' - (-1)^{|D||D'|} D' D.

        The commutator of two derivations is again a derivation even though
        the plain composites are not.
        """
        if self.table != other.table:
            raise AlgebraError("derivations live over different tables")
        sign = -1 if (self.parity_shift and other.parity_shift) else 1
        images = {}
        for g in self.table.generators:
            gen = Element.generator(self.table, g.name)
            first = self(other(gen))
            second = other(self(gen))
            images[g.name] = first - second * sign if sign > 0 else first + second
        return Derivation(
            self.table,
            images,
            self.weight_shift + other.weight_shift,
            (self.parity_shift + other.parity_shift) % 2,
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{g.name} -> {render(self.images[i])}"
            for i, g in enumerate(self.table.generators)
            if not self.images[i].is_zero()
        )
        return (
            f"Derivation({inner or '0'}; shift=({self.weight_shift}, "
            f"{parity_name(self.parity_shift)}))"
        )


def euler_derivation(table: GeneratorTable) -> Derivation:
    """The weight Euler derivation g -> weight(g) * g; eigenvalue = weight."""
    images = {
        g.name: Element.generator(table, g.name) * g.weight for g in table.generators
    }
    return Derivation(table, images, 0, EVEN)


def leibniz_defect(D: Derivation, a: Element, b: Element) -> Element:
    """D(ab) - D(a)b - (-1)^{|D||a|} a D(b); zero on homogeneous a."""
    sign = -1 if (D.parity_shift and a.parity() == ODD) else 1
    return D(a * b) - D(a) * b - (a * D(b)) * sign


# -- differential graded algebras --------------------------------------------


class DGAlgebra:
    """A free graded-commutative algebra with a square-zero differential.

    The differential must have bidegree (+1, odd).  d o d = 0 is checked on
    generators, which suffices because d^2 = [d, d]/2 is itself a derivation.
    """

    def __init__(self, table: GeneratorTable, differential: Derivation, check: bool = True):
        if differential.table != table:
            raise AlgebraError("differential is defined over a different table")
        if differential.weight_shift != 1 or differential.parity_shift != ODD:
            raise AlgebraError(
                "a differential must raise weight by 1 and flip parity; got shift "
                f"({differential.weight_shift}, {parity_name(differential.parity_shift)})"
            )
        self.table = table
        self.differential = differential
        if check:
            bad = self.square_witnesses()
            if bad:
                name, value = bad[0]
                raise AlgebraError(
                    f"differential does not square to zero: d(d({name})) = {render(value)}"
                )

    def square_witnesses(self) -> list[tuple[str, Element]]:
        d = self.differential
        out = []
        for g in self.table.generators:
            val = d(d(Element.generator(self.table, g.name)))
            if not val.is_zero():
                out.append((g.name, val))
        return out

    def d(self, element: Element) -> Element:
        return self.differential(element)

    def cohomology(self, w_min: int, w_max: int, cap: int) -> "CohomologyReport":
        return compute_cohomology(self.table, self.differential, w_min, w_max, cap)


class CohomologyReport:
    """Per-bidegree cohomology dimensions with exactness flags."""

    def __init__(self, w_min: int, w_max: int, cap: int):
        self.w_min = w_min
        self.w_max = w_max
        self.cap = cap
        self.entries: dict[tuple[int, int], dict] = {}

    def dim(self, weight: int, parity: int) -> int:
        return self.entries[(weight, parity)]["dim"]

    def exact(self, weight: int, parity: int) -> bool:
        return self.entries[(weight, parity)]["exact"]

    def representatives(self, weight: int, parity: int) -> list[str]:
        return self.entries[(weight, parity)]["representatives"]

    def dims(self) -> dict[tuple[int, int], int]:
        return {key: entry["dim"] for key, entry in self.entries.items()}

    def to_dict(self) -> dict:
        return {
            "window": [self.w_min, self.w_max],
            "degree_cap": self.cap,
            "entries": [
                {
                    "weight": w,
                    "parity": parity_name(p),
                    "dim": entry["dim"],
                    "exact": entry["exact"],
                    "representatives": entry["representatives"],
                }
                for (w, p), entry in sorted(self.entries.items())
            ],
        }


def _differential_matrix(table: GeneratorTable, d: Derivation,
                         src: list[tuple[int, ...]], dst: list[tuple[int, ...]]
                         ) -> linalg.Block:
    """d on monomial bases as sparse columns: column j is d(src[j]) in dst
    coordinates, built on exponent tuples over d's table.  Raises if an
    image leaves the basis."""
    index = {mono: i for i, mono in enumerate(dst)}
    columns: linalg.Block = []
    for mono in src:
        column = {}
        for m, c in d._apply({mono: 1}).items():
            i = index.get(m)
            if i is None:
                raise AlgebraError(
                    "differential image left the truncated basis; "
                    "degree caps were grown incorrectly"
                )
            column[i] = c
        columns.append(column)
    return columns


def compute_cohomology(table: GeneratorTable, d: Derivation,
                       w_min: int, w_max: int, cap: int) -> CohomologyReport:
    if w_min > w_max:
        raise AlgebraError("empty weight window")
    growth = 0
    for img in d.images:
        if not img.is_zero():
            growth = max(growth, img.degree() - 1)
    caps = {w: cap + growth * (w - w_min + 1) for w in range(w_min - 1, w_max + 2)}
    bases = monomial_bases(table, caps)

    bounds: dict[int, int | None] = {
        w: weight_degree_bound(table, w) for w in range(w_min - 1, w_max + 1)
    }

    report = CohomologyReport(w_min, w_max, cap)
    # One elimination of d out of (w, p) gives its kernel and the rows of
    # (w + 1, 1 - p) where its image ends; below the window only the ends
    # are used.  A kernel vector is 1 at its free column, its largest key,
    # and 0 at the other vectors' free columns, and the image lies in the
    # kernel, so reps, the vectors whose free column is no image end, are
    # those quotient_representatives(kernel, image) picks: len(reps) is dim H.
    incoming: dict[int, set[int]] = {}
    for w in range(w_min - 1, w_max + 1):
        outgoing: dict[int, set[int]] = {}
        for p in (EVEN, ODD):
            cur = bases[(w, p)]
            nxt = bases[(w + 1, 1 - p)]
            kernel, outgoing[1 - p] = linalg.kernel(
                _differential_matrix(table, d, cur, nxt), len(nxt))
            if w < w_min:
                continue
            reps = [vec for vec in kernel if max(vec) not in incoming[p]]
            exact = all(bounds[v] is not None and caps[v] >= bounds[v] for v in (w - 1, w))
            report.entries[(w, p)] = {
                "dim": len(reps),
                "exact": exact,
                "representatives": [
                    render(Element(table, {cur[i]: c for i, c in rep.items()}))
                    for rep in reps
                ],
            }
        incoming = outgoing
    return report


# -- square-zero extensions ---------------------------------------------------


class SquareZeroExtension(TableExtension):
    """A[eps] = A + A*eps with eps^2 = 0, for a formal symbol eps.

    Sections of the projection correspond to derivations: a bidegree (s, e)
    derivation D gives the algebra section g -> g + eps * D(g) when eps has
    bidegree (-s, e), and conversely.
    """

    def __init__(self, table: GeneratorTable, eps_name: str, eps_weight: int, eps_parity):
        eps_parity = parity_of(eps_parity)
        if eps_name in table.index:
            raise AlgebraError(f"symbol {eps_name!r} already names a generator")
        super().__init__(table, [Generator(eps_name, eps_weight, eps_parity)])
        self.eps_name = eps_name
        self.eps_weight = eps_weight
        self.eps_parity = eps_parity

    def truncate(self, element: Element) -> Element:
        """Kill every monomial containing eps at least twice."""
        terms = {m: c for m, c in element.terms.items() if self.extension_degree(m) < 2}
        return Element(self.table, terms)

    def multiply(self, a: Element, b: Element) -> Element:
        return self.truncate(a * b)

    def eps(self) -> Element:
        return Element.generator(self.table, self.eps_name)

    def eps_coefficient(self, element: Element) -> Element:
        """The A-part m of eps * m inside an extension element."""
        return self.project(partial(element, self.eps_name))

    def derivation_to_section(self, D: Derivation) -> AlgebraMap:
        """Algebra section g -> g + eps * D(g) of the projection."""
        if D.table != self.base:
            raise AlgebraError("derivation is not over the base table")
        if (self.eps_weight, self.eps_parity) != (-D.weight_shift, D.parity_shift):
            raise AlgebraError(
                "eps bidegree does not match the derivation: need "
                f"({-D.weight_shift}, {parity_name(D.parity_shift)})"
            )
        eps = self.eps()
        images = {}
        for g in self.base.generators:
            lifted = self.include(Element.generator(self.base, g.name))
            images[g.name] = lifted + eps * self.include(D.image_of(g.name))
        return AlgebraMap(self.base, self.table, images)

    def section_to_derivation(self, section: AlgebraMap) -> Derivation:
        """Extract D(g) = eps-coefficient of section(g), of bidegree
        (-eps_weight, eps_parity)."""
        if section.source != self.base or section.target != self.table:
            raise AlgebraError("map is not a section candidate for this extension")
        for g in self.base.generators:
            gen = Element.generator(self.base, g.name)
            if self.project(section(gen)) != gen:
                raise AlgebraError(f"map is not a section: projection moves {g.name!r}")
        images = {
            g.name: self.eps_coefficient(section.image_of(g.name))
            for g in self.base.generators
        }
        return Derivation(self.base, images, -self.eps_weight, self.eps_parity)

    def section_defect(self, section: AlgebraMap, a: Element, b: Element) -> Element:
        """sigma(ab) - sigma(a)sigma(b) in the truncated arithmetic."""
        return self.truncate(section(a * b)) - self.multiply(section(a), section(b))


# -- Kahler differentials ------------------------------------------------------


class KahlerModule(TableExtension):
    """The module of Kahler differentials of a free algebra.

    Omega^1 is the free module on symbols d(g), one per generator, carrying the
    same bidegree as g so that the universal derivation has bidegree (0, even).
    Elements are represented inside the extended algebra A[dg...] as the span of
    monomials of differential degree exactly one.
    """

    def __init__(self, table: GeneratorTable):
        super().__init__(table, TableExtension.d_generators(table, 0, EVEN))
        images = {g.name: self.d_symbol(g.name) for g in table.generators}
        self.universal_derivation = Derivation(self.table, images, 0, EVEN)

    differential_degree = TableExtension.extension_degree

    def is_module_element(self, element: Element) -> bool:
        return all(self.differential_degree(m) == 1 for m in element.terms)

    def d_symbol(self, name: str) -> Element:
        return Element.generator(self.table, "d" + name)

    def universal(self, element: Element) -> Element:
        """d(a) = sum_g d(g) * da/dg, an even derivation into Omega^1."""
        return self.universal_derivation(self.include(element))

    def universal_factorization(self, D: Derivation, omega: Element) -> Element:
        """The module map f_D with f_D(universal(a)) = D(a), applied to omega.

        On a term c * dg the value is (-1)^{|D| |c|} c * D(g); the parity twist
        is what makes f_D factor the universal derivation for odd D.
        """
        if D.table != self.base:
            raise AlgebraError("derivation is not over the base table")
        if omega.table != self.table:
            raise AlgebraError("form is not over the extended table")
        if not self.is_module_element(omega):
            raise AlgebraError("element is not of differential degree one")
        out = Element.zero(self.base)
        for g in self.base.generators:
            # the left partial in dg carries (-1)^{|g| |c|}, the twist (-1)^{|D| |c|}
            coeff = self.restrict(partial(omega, "d" + g.name))
            if (g.parity + D.parity_shift) % 2:
                parity = self.base.monomial_parity
                coeff = Element(self.base, {m: -c if parity(m) else c
                                            for m, c in coeff.terms.items()})
            out = out + coeff * D.image_of(g.name)
        return out
