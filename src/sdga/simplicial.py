"""Polynomial differential forms on simplices, Whitney calculus and cotensors.

Omega_n is the free graded-commutative algebra on t1..tn (weight 0, even) and
dt1..dtn (weight 1, odd) with d(ti) = dti; the barycentric coordinate t0 is
eliminated as 1 - sum(ti).  Monotone maps phi: [m] -> [n] act contravariantly
by t_k -> sum over phi-preimages, which makes Omega a functor on the simplex
category.

The Whitney forms

    w_I = k! * sum_q (-1)^q t_{i_q} dt_{i_0} ... (omit q) ... dt_{i_k}

span a finite subcomplex isomorphic to simplicial cochains, and integration
over the face spanned by I is exactly dual to them.  The dilation towards a
vertex provides contraction operators h^i; the classical simplicial homotopy
s = sum +- w_I h^{i_k} ... h^{i_0} assembled from them satisfies
id - P = d s + s d for the Whitney projection P x = sum_I (int_I x) w_I
(Dupont, Simplicial de Rham cohomology and characteristic classes of flat
bundles, Topology 1976), all verified here with exact rational coefficients.
P takes one integral of x per face, of the part of x of the face's form
weight, and `simplicial project` reports those integrals as its expansion.

Both ingredients have closed forms on a monomial t^a dt_J with |J| = k, and
these are what the operators evaluate; s itself is one walk over them:

* Face integral.  Sort I, carrying the sign of the sorting permutation.  A t
  or dt off the face gives 0.  Otherwise

      int_I t^a dt_{I - I_m} = (-1)^m prod_q a_{I_q}! / (k + sum_q a_{I_q})!,

  where m is the position of the vertex whose dt is missing (m = 0 when
  I_0 = 0, whose t and dt are not coordinates): rewriting dt_{I_0} as minus
  the sum of the others leaves the Dirichlet integral of prod u_q^{a_q}.
  The iterated method pulls the monomial back onto the standard k-simplex
  along the vertex map I, by the same image construction as every other
  face of Omega, and integrates one variable at a time instead; the two
  methods stay independent.
* Dilation homotopy.  With p = |a| - a_i + k - 1,

      h^i(t^a dt_J) = sum_r (-1)^(r-1) (t_{j_r} - delta_{i j_r}) dt_{J - j_r}
                      * t^a|_{a_i = 0} * sum_m C(a_i, m) t_i^m
                        (p+m)! (a_i-m)! / (p+a_i+1)!,

  which for i = 0 is the Poincare-lemma factor 1/(|a| + k).
* Dupont homotopy: one prefix walk on integer terms.  The closed form of h^i
  is an integer polynomial over D = (p+a_i+1)!, so the dilations sum integer
  multiples over a common denominator.  s visits each increasing vertex
  prefix I once, applying h^{i_k} to the whole value of its parent prefix,
  and adds w_I times the result.  Each prefix's value h^I(x) is carried as
  integer numerators over one denominator, so no Fraction is built until
  the sum of the walk.

B tensor Omega_n is forms.CoordinateForms on t1..tn, the one construction of
A tensor Omega, which the cylinder A[t, dt] shares.  Tensoring with a
coefficient algebra B and imposing the face compatibility constraints computes
B^K for K a simplex, a boundary or a horn; surjectivity of the restriction
maps onto horns and boundaries is decided by exact rank computations on
truncated bases, in the kernel's own coordinates: a retry at a larger domain
cap appends columns to the system.  The face restrictions act on monomials:

* Face restriction.  On B tensor Omega_n the restriction to the facet
  opposite vertex i is id_B tensor delta_i^*, and a monomial is b * omega
  with every B exponent before every form exponent, so its image is b times
  each term of delta_i^*(omega), with no sign.  For i >= 1, delta_i^*
  deletes a coordinate: a monomial holding t_i or dt_i goes to 0, any other
  loses those two positions with coefficient 1 (the remaining dt keep their
  order).  For i = 0, t_1 -> 1 - sum(t) and dt_1 -> -sum(dt), the others
  shift down by one; this image is computed once per form part omega.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import sub

from . import linalg
from .core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    _add_into,
    _mul_terms,
    _quotient,
    as_scalar,
    monomial_basis,
    parity_name,
)
from .core import partial as partial_derivative
from .dg import DGAlgebra
from .forms import CoordinateForms, Cylinder, FormsAlgebra, integrate

# Frozen convention for the simplicial homotopy
#
#     s = sum_k (-1)^k sum_{i_0 < ... < i_k} w_I * (h^{i_k} o ... o h^{i_0}),
#
# i.e. the composite applies the contraction toward the smallest index first
# and each length contributes with the alternating sign (-1)^k.  A machine
# sweep over composition orders, multiplication sides and sign patterns shows
# this is the unique combination for which d s + s d = id - P holds on both
# Omega_2 and Omega_3; several impostors pass on Omega_2 alone.  Tuples of
# length n+1 are skipped: a composite of n+1 contractions lowers form weight
# below zero and vanishes identically.
_DUPONT_SIGN = lambda k: -1 if k % 2 else 1


def _coordinates(indices) -> GeneratorTable:
    """Even weight-0 coordinates t_i, i in indices."""
    return GeneratorTable([Generator(f"t{i}", 0, EVEN) for i in indices])


class SimplexForms(FormsAlgebra):
    """Polynomial forms on the n-simplex in eliminated coordinates; `total`
    is Omega_n as a dg algebra, as on `CoordinateForms`.

    Per-monomial results of the simplicial operators are kept in the
    `_*_cache` dicts.  The Dupont homotopy and the Whitney projection keep
    none of their own: `_s_cache` and `_p_cache` are never filled and stay
    for perfbench/tracer.py, which reads every `_*_cache`.  A face integral
    or a dilation homotopy missing from its cache is evaluated by the closed
    forms of the module docstring, with no algebra map, substitution or
    polynomial integration.  The t and dt of the n + 1 vertices are built
    once, and the iterated integral keeps its face map, the pullback onto
    simplex_forms(k) along a face I, per I in `_face_maps`.
    """

    def __init__(self, n: int):
        if n < 0:
            raise AlgebraError("simplex dimension must be non-negative")
        self.n = n
        super().__init__(_coordinates(range(1, n + 1)))
        self.differential = self.de_rham
        self.total = DGAlgebra(self.table, self.differential)
        self._whitney_cache: dict[tuple[int, ...], Element] = {}
        self._integral_cache: dict[tuple, int | Fraction] = {}
        self._dilation_cache: dict[int, tuple[Cylinder, AlgebraMap]] = {}
        self._face_maps: dict[tuple[int, ...], AlgebraMap] = {}
        self._h_cache: dict[tuple[int, tuple[int, ...]], tuple[dict, int]] = {}
        # never filled (see above)
        self._s_cache: dict[tuple[int, ...], Element] = {}
        self._p_cache: dict[tuple[int, ...], Element] = {}
        self._t = self._vertices("t", 1)
        self._dt = self._vertices("dt", 0)

    def _vertices(self, name: str, constant: int) -> list[Element]:
        """name_0 .. name_n, name_0 being constant minus the sum of the others."""
        rest = [Element.generator(self.table, f"{name}{j}") for j in range(1, self.n + 1)]
        return [Element.scalar(self.table, constant) - sum(rest, Element.zero(self.table))] + rest

    def _vertex(self, vertices: list[Element], i: int) -> Element:
        if not 0 <= i <= self.n:
            raise AlgebraError(f"vertex index {i} out of range for n={self.n}")
        return vertices[i]

    def t(self, i: int) -> Element:
        return self._vertex(self._t, i)

    def dt(self, i: int) -> Element:
        return self._vertex(self._dt, i)

    def vertex_value(self, element: Element, i: int) -> int | Fraction:
        """The function part at vertex i: the constant term of the pullback
        along the vertex map (i,) into simplex_forms(0), which sends t_j to
        delta_ij and dt_j to 0.  AlgebraError when i is not a vertex."""
        return pullback((i,), self, simplex_forms(0))(element).constant_term()

    def d(self, element: Element) -> Element:
        return self.differential(element)


@lru_cache(maxsize=None)
def simplex_forms(n: int) -> SimplexForms:
    return SimplexForms(n)


# -- simplicial operators -----------------------------------------------------


def face_tuple(n: int, i: int) -> tuple[int, ...]:
    """The injection [n-1] -> [n] skipping i."""
    if not 0 <= i <= n:
        raise AlgebraError("face index out of range")
    return tuple(j if j < i else j + 1 for j in range(n))


def degeneracy_tuple(n: int, i: int) -> tuple[int, ...]:
    """The surjection [n+1] -> [n] repeating i."""
    if not 0 <= i <= n:
        raise AlgebraError("degeneracy index out of range")
    return tuple(j if j <= i else j - 1 for j in range(n + 2))


def pullback(phi: tuple[int, ...], source: SimplexForms, target: SimplexForms) -> AlgebraMap:
    """Omega(phi): Omega_{source.n} -> Omega_{target.n} for phi: [target.n] -> [source.n]."""
    if len(phi) != target.n + 1:
        raise AlgebraError("operator tuple has the wrong length")
    if any(not 0 <= v <= source.n for v in phi):
        raise AlgebraError("operator tuple value out of range")
    if any(phi[j] > phi[j + 1] for j in range(len(phi) - 1)):
        raise AlgebraError("operator tuple is not monotone")
    return _pullback(phi, source, target)


def _pullback(phi: tuple[int, ...], source: SimplexForms, target: SimplexForms) -> AlgebraMap:
    """The pullback along any map phi of vertices, monotone or not, such as a
    face in any vertex order: t_k -> sum of target.t(j) over phi(j) = k, and
    dt_k likewise.  phi is not checked."""
    images: dict[str, Element] = {}
    for k in range(1, source.n + 1):
        tsum = Element.zero(target.table)
        dsum = Element.zero(target.table)
        for j, value in enumerate(phi):
            if value == k:
                tsum = tsum + target.t(j)
                dsum = dsum + target.dt(j)
        images[f"t{k}"] = tsum
        images[f"dt{k}"] = dsum
    return AlgebraMap(source.table, target.table, images, check=False)


def face_pullback(n: int, i: int) -> AlgebraMap:
    """Restriction Omega_n -> Omega_{n-1} to the facet opposite vertex i."""
    return pullback(face_tuple(n, i), simplex_forms(n), simplex_forms(n - 1))


# -- Whitney forms -------------------------------------------------------------


def _elementary(table: GeneratorTable, n: int, t, dt, I: tuple[int, ...]) -> Element:
    """k! sum_q (-1)^q t(i_q) prod_{r != q} dt(i_r) for I = (i_0, ..., i_k) in
    [0, n], given the t and dt of a vertex: w_I in either presentation.  Zero
    when a vertex repeats."""
    if not I:
        raise AlgebraError("a face needs at least one vertex")
    if any(not 0 <= i <= n for i in I):
        raise AlgebraError("vertex index out of range")
    acc = Element.zero(table)
    if len(set(I)) != len(I):
        return acc
    k = len(I) - 1
    for q in range(k + 1):
        term = t(I[q])
        for r in range(k + 1):
            if r != q:
                term = term * dt(I[r])
        acc = acc + term * ((-1) ** q)
    return acc * math.factorial(k)


def whitney(forms: SimplexForms, indices: tuple[int, ...]) -> Element:
    """The elementary form w_I; antisymmetric in I, zero on repeats.  Kept
    per sorted I, with the sign of the sorting; a zero is not kept."""
    I = tuple(indices)
    order = tuple(sorted(I))
    cached = forms._whitney_cache.get(order)
    if cached is None:
        cached = _elementary(forms.table, forms.n, forms.t, forms.dt, order)
        if cached.is_zero():
            return cached
        forms._whitney_cache[order] = cached
    return cached if _permutation_sign(I) > 0 else -cached


def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def whitney_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n + 1), k + 1))


def whitney_differential_identity(forms: SimplexForms, indices: tuple[int, ...]) -> bool:
    """d w_I = sum_i w_{(i,) + I}, the elementary complex structure."""
    lhs = forms.d(whitney(forms, indices))
    rhs = Element.zero(forms.table)
    for i in range(forms.n + 1):
        rhs = rhs + whitney(forms, (i,) + tuple(indices))
    return lhs == rhs


# -- the redundant (barycentric) presentation ----------------------------------


@lru_cache(maxsize=None)
def barycentric_table(n: int) -> GeneratorTable:
    """Generators t0..tn and dt0..dtn of the redundant presentation."""
    return FormsAlgebra(_coordinates(range(n + 1))).table


def eliminate(forms: SimplexForms, element: Element) -> Element:
    """Quotient map from the redundant presentation to normal form.

    Substitutes t0 = 1 - t1 - ... - tn and dt0 = -dt1 - ... - dtn; the two
    defining relations map to zero, so this is well defined on the quotient.
    """
    table = barycentric_table(forms.n)
    if element.table != table:
        raise AlgebraError("element is not in the redundant presentation")
    images: dict[str, Element] = {}
    for i in range(forms.n + 1):
        images[f"t{i}"] = forms.t(i)
        images[f"dt{i}"] = forms.dt(i)
    return AlgebraMap(table, forms.table, images)(element)


def barycentric_whitney(n: int, indices: tuple[int, ...]) -> Element:
    """w_I in the redundant presentation: k! sum_q (-1)^q t_{i_q} dt...dt."""
    table = barycentric_table(n)
    return _elementary(table, n, lambda i: Element.generator(table, f"t{i}"),
                       lambda i: Element.generator(table, f"dt{i}"), tuple(indices))


def elementary_subcomplex(n: int) -> dict:
    """Basis and boundary blocks of the span of the elementary forms.

    The span is a subcomplex: d w_I expands exactly in elementary forms one
    degree up, with coefficients read off by the dual integrals.  The block
    in degree k sends the basis of k-tuples to the basis of (k+1)-tuples and
    agrees with the simplicial-cochain coboundary of the n-simplex.
    """
    forms = simplex_forms(n)
    basis = {k: whitney_tuples(n, k) for k in range(n + 1)}
    blocks: dict[int, linalg.Block] = {}
    for k in range(n + 1):
        above = basis.get(k + 1, [])
        block = []
        for I in basis[k]:
            image = forms.d(whitney(forms, I))
            col = {}
            for r, J in enumerate(above):
                x = simplex_integral(forms, J, image)
                if x:
                    col[r] = x
            # the expansion is exact: subtracting it leaves zero
            check = image
            for r, x in col.items():
                check = check - whitney(forms, above[r]) * x
            if not check.is_zero():
                raise AlgebraError("elementary span is not closed under d")
            block.append(col)
        blocks[k] = block
    return {"basis": basis, "differential": blocks}


def simplicial_coboundary(n: int, k: int) -> linalg.Block:
    """The coboundary of the simplicial cochain complex of the n-simplex."""
    index = {face: c for c, face in enumerate(whitney_tuples(n, k))}
    block: linalg.Block = [{} for _ in index]
    for r, J in enumerate(whitney_tuples(n, k + 1)):
        for q in range(len(J)):
            block[index[J[:q] + J[q + 1:]]][r] = (-1) ** q
    return block


# -- integration over faces ------------------------------------------------------


def simplex_integral(forms: SimplexForms, indices: tuple[int, ...], element: Element,
                     method: str = "dirichlet") -> int | Fraction:
    """Integral over the oriented face spanned by I of the matching form part.

    Components whose form weight differs from len(I) - 1 integrate to zero
    automatically.  method='dirichlet' evaluates the closed form on each
    monomial (see the module docstring); method='iterated' pulls the monomial
    back onto simplex_forms(k) along the vertex map I and performs nested
    univariate integrals with symbolic bounds.  The two share no code past
    the argument checks, so each is an oracle for the other; both are exact.
    """
    I = tuple(indices)
    if not I:
        raise AlgebraError("a face needs at least one vertex")
    if len(set(I)) != len(I):
        raise AlgebraError("face indices must be distinct")
    if any(not 0 <= i <= forms.n for i in I):
        raise AlgebraError("vertex index out of range")
    if method not in ("dirichlet", "iterated"):
        raise AlgebraError(f"unknown integration method {method!r}")
    k = len(I) - 1
    total = 0
    kernel = _dirichlet_integral if method == "dirichlet" else _iterated_integral
    for mono, c in element.terms.items():
        if forms.form_weight_of(mono) != k:
            continue
        if k == 0:
            # a point evaluation, by the method's own kernel, without a cache entry
            value = kernel(forms, I, mono)
        else:
            key = (I, mono, method)
            value = forms._integral_cache.get(key)
            if value is None:
                value = forms._integral_cache[key] = kernel(forms, I, mono)
        if value:
            total += c * value
    return as_scalar(total)


def _dirichlet_integral(forms: SimplexForms, I: tuple[int, ...],
                        mono: tuple[int, ...]) -> int | Fraction:
    """The closed form of the integral of t^a dt_J over the face I, |J| = k."""
    n = forms.n
    order = sorted(I)
    on_face = set(order)
    for j in range(1, n + 1):
        if (mono[j - 1] or mono[n + j - 1]) and j not in on_face:
            return 0
    # m: the position in sorted I of the vertex whose dt is missing
    m = next(q for q, v in enumerate(order) if v == 0 or not mono[n + v - 1])
    num = 1
    for v in order:
        if v:
            num *= math.factorial(mono[v - 1])
    sign = _permutation_sign(I) * (-1 if m % 2 else 1)
    return _quotient(sign * num, math.factorial(len(I) - 1 + sum(mono[:n])))


def _iterated_integral(forms: SimplexForms, I: tuple[int, ...],
                       mono: tuple[int, ...]) -> int | Fraction:
    """Pull t^a dt_J back onto the standard k-simplex and integrate in turn.

    The face map, kept per I, is the pullback along q -> I_q: t_{I_0} goes to
    1 - t1 - ... - tk and t_{I_q} to t_q, so the vertex order of I is the
    orientation.  The coefficient of dt1 ... dtk is integrated over t_k, then
    t_{k-1}, ..., with the upper bound 1 - t1 - ... - t_{q-1} for t_q.
    """
    k = len(I) - 1
    face = simplex_forms(k)
    pull = forms._face_maps.get(I)
    if pull is None:
        pull = forms._face_maps[I] = _pullback(I, forms, face)
    # the coefficient of dt1 ... dtk, a function of t1..tk
    value = pull(Element.monomial(forms.table, mono))
    for q in range(1, k + 1):
        value = partial_derivative(value, f"dt{q}")
    value = face.project(value)
    if value.is_zero():
        return 0
    for q in range(k, 0, -1):
        upper = Element.one(face.base)
        for r in range(1, q):
            upper = upper - Element.generator(face.base, f"t{r}")
        value = integrate(value, f"t{q}", 0, upper)
    return value.constant_term()


# -- Whitney projection and the simplicial homotopy -----------------------------


def whitney_expansion(forms: SimplexForms, element: Element
                      ) -> list[tuple[tuple, int | Fraction]]:
    """The nonzero face integrals (I, int_I x), by k = |I| - 1 and then in
    whitney_tuples order: the coefficients of P x in the Whitney forms.  Each
    face integrates only the part of x of its form weight."""
    out = []
    for k, part in forms.form_components(element).items():
        for I in whitney_tuples(forms.n, k):
            value = simplex_integral(forms, I, part)
            if value:
                out.append((I, value))
    return out


def whitney_projection(forms: SimplexForms, element: Element, *,
                       expansion: list | None = None) -> Element:
    """P = sum_I (int_I x) w_I; idempotent chain map onto the Whitney span.
    A caller holding whitney_expansion(forms, element) passes it as expansion."""
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for I, value in whitney_expansion(forms, element) if expansion is None else expansion:
        _add_into(terms, whitney(forms, I).terms, value)
    return Element(forms.table, terms)


def dilation(forms: SimplexForms, i: int) -> tuple[Cylinder, AlgebraMap]:
    """The straight-line pullback toward vertex i, as a map into Omega_n[u, du].

    t_j maps to u t_j + (1 - u) delta_ij; at u = 1 this is the identity and at
    u = 0 it is evaluation at the vertex.  dilation_homotopy evaluates the
    u-integral of this pullback in closed form and does not build the map.
    """
    if not 0 <= i <= forms.n:
        raise AlgebraError("vertex index out of range")
    cached = forms._dilation_cache.get(i)
    if cached is not None:
        return cached
    cyl = Cylinder(forms.total, var="u")
    u = cyl.t()
    du = cyl.dt()
    one = Element.one(cyl.table)
    images: dict[str, Element] = {}
    for j in range(1, forms.n + 1):
        tj = cyl.include(forms.t(j))
        dtj = cyl.include(forms.dt(j))
        img = u * tj
        dimg = du * tj + u * dtj
        if j == i:
            img = img + (one - u)
            dimg = dimg - du
        images[f"t{j}"] = img
        images[f"dt{j}"] = dimg
    phi = AlgebraMap(forms.table, cyl.table, images, check=False)
    forms._dilation_cache[i] = (cyl, phi)
    return cyl, phi


def dilation_homotopy(forms: SimplexForms, i: int, element: Element, *,
                      denominator: int | None = None) -> Element | tuple[Element, int]:
    """h^i = int_0^1 (d/du) dilation_i; h^i d + d h^i = id - (vertex i).

    Each monomial t^a dt_{j_1} ... dt_{j_k} is sent to its closed form

        sum_r (-1)^(r-1) (t_{j_r} - delta_{i j_r}) dt_{J - j_r}
              * t^a|_{a_i = 0} * sum_m C(a_i, m) t_i^m (p+m)! (a_i-m)! / (p+a_i+1)!

    with p = |a| - a_i + k - 1: the u-integral of the pullback along
    `dilation`, a Beta integral once (u t_i + 1 - u)^{a_i} is expanded.  For
    i = 0 (a_i = 0, no delta) the factor is 1/(|a| + k).

    The closed form is an integer polynomial over D = (p+a_i+1)!, cached per
    (i, monomial) as that pair.  A term c t^a dt_J contributes the polynomial
    times the numerator of c over D times the denominator of c; the
    contributions are summed as integer multiples over the lcm of those
    denominators, and each output coefficient is divided by it once.

    Given a denominator q, element stands for element / q, and the image
    comes back as the pair (integer numerators, their denominator) with the
    numerators held in an Element: the Dupont walk stays on integers from
    one prefix to the next.
    """
    cache = forms._h_cache
    over = denominator or 1
    parts = []
    for mono, c in element.terms.items():
        key = (i, mono)
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = _dilation_of_monomial(forms.n, i, mono)
        image, den = cached
        if image:
            parts.append((c.numerator, image, c.denominator * den * over))
    image = _sum_over_lcm(forms.table, parts)
    return _divided(*image) if denominator is None else image


def _sum_over_lcm(table: GeneratorTable, parts) -> tuple[Element, int]:
    """sum of num * terms / den over the parts (num, terms, den), terms with
    integer coefficients: integer multiples over the lcm of the dens, as
    that numerator Element and the lcm."""
    common = math.lcm(*(den for _, _, den in parts))
    acc: dict[tuple[int, ...], int] = {}
    for num, terms, den in parts:
        scale = num * (common // den)
        for mono, v in terms.items():
            acc[mono] = acc.get(mono, 0) + scale * v
    return Element(table, {m: v for m, v in acc.items() if v}), common


def _divided(numerators: Element, den: int) -> Element:
    """numerators / den, with one exact quotient per term."""
    return Element(numerators.table, {m: _quotient(v, den) for m, v in numerators.terms.items()})


def _dilation_of_monomial(n: int, i: int, mono: tuple[int, ...]) -> tuple[dict, int]:
    """h^i(t^a dt_J) as (integer terms, D): the closed form of dilation_homotopy
    is the terms over D = (p+a_i+1)!."""
    J = [j for j in range(1, n + 1) if mono[n + j - 1]]
    if not J:
        return {}, 1
    ai = mono[i - 1] if i else 0
    p = sum(mono[:n]) - ai + len(J) - 1
    # sum_m weights[m] t_i^m: the u-integral times D, by the power of t_i it leaves
    weights = [math.comb(ai, m) * math.factorial(p + m) * math.factorial(ai - m)
               for m in range(ai + 1)]
    terms: dict[tuple[int, ...], int] = {}
    for r, j in enumerate(J):
        sign = -1 if r % 2 else 1
        out = list(mono)
        out[n + j - 1] = 0
        if j == i:
            # (t_i - 1) * sum_m weights[m] t_i^m has t_i^q with weights[q-1] - weights[q]
            for q, c in enumerate(map(sub, [0] + weights, weights + [0])):
                if c:
                    out[i - 1] = q
                    terms[tuple(out)] = sign * c
            continue
        out[j - 1] += 1
        for m, w in enumerate(weights):
            if i:
                out[i - 1] = m
            terms[tuple(out)] = sign * w
    return terms, math.factorial(p + ai + 1)


def dupont_homotopy(forms: SimplexForms, element: Element) -> Element:
    """The simplicial contraction s with d s + s d = id - P.

    s is linear, so s(x) = sum_I (-1)^(|I|-1) w_I * h^I(x) with
    h^I = h^{i_k} o ... o h^{i_0} (see _DUPONT_SIGN).  One depth-first walk
    over the increasing vertex prefixes I applies h^{i_k} once per prefix, to
    the whole value its parent prefix left, and stops a branch whose value
    is zero.  Each h^i lowers form weight by one, so the walk goes no deeper
    than the element's top form weight, nor than n.
    """
    n, table = forms.n, forms.table
    depth = min(n, max(map(forms.form_weight_of, element.terms), default=0))
    parts = []
    # each prefix with h^I(x) as integer numerators over one denominator
    stack: list[tuple[tuple[int, ...], Element, int]] = [((), element, 1)] if depth else []
    while stack:
        prefix, value, den = stack.pop()
        sign = _DUPONT_SIGN(len(prefix))
        for vertex in range(prefix[-1] + 1 if prefix else 0, n + 1):
            image, image_den = dilation_homotopy(forms, vertex, value, denominator=den)
            if not image.terms:
                continue
            I = prefix + (vertex,)
            w = whitney(forms, I).terms  # integer coefficients, as h^I(x)'s numerators
            parts.append((sign, _mul_terms(table, w, image.terms), image_den))
            if len(I) < depth:
                stack.append((I, image, image_den))
    return _divided(*_sum_over_lcm(table, parts))


def dupont_defect(forms: SimplexForms, element: Element) -> Element:
    """d s + s d + P - id, applied to an element; identically zero."""
    s = dupont_homotopy
    return (
        forms.d(s(forms, element))
        + s(forms, forms.d(element))
        + whitney_projection(forms, element)
        - element
    )


def poincare_witness(forms: SimplexForms, element: Element) -> Element:
    """W = s + kappa P with kappa the cochain contraction toward vertex 0.

    For closed omega of positive form weight, d(W omega) = omega exactly; the
    underlying operator identity is d W + W d = id - e0 P with e0 the
    evaluation of the 0-form part at vertex 0.
    """
    out = dupont_homotopy(forms, element)
    for I, value in whitney_expansion(forms, element):
        if len(I) > 1 and I[0] == 0:
            out = out + whitney(forms, I[1:]) * value
    return out


def poincare_defect(forms: SimplexForms, element: Element) -> Element:
    """d W + W d + e0 P - id applied to an element; identically zero."""
    W = poincare_witness
    e0 = simplex_integral(forms, (0,), whitney_projection(forms, element))
    return (
        forms.d(W(forms, element))
        + W(forms, forms.d(element))
        + Element.scalar(forms.table, e0)
        - element
    )


# -- tensoring with coefficients -------------------------------------------------


class TensorForms(CoordinateForms):
    """B tensor Omega_n for a coefficient dg algebra B, its `dga`: the
    coordinates t1..tn of simplex_forms(n) adjoined to B, whose whole
    algebra is `total`."""

    def __init__(self, coefficients: DGAlgebra, n: int):
        self.n = n
        self.forms = simplex_forms(n)
        super().__init__(coefficients, [f"t{i}" for i in range(1, n + 1)])

    def face_terms(self, i: int):
        """delta_i^* on one monomial (see the module docstring): a function
        from an exponent tuple to its image's integer terms over
        TensorForms(B, n - 1).  For i = 0 the function keeps the image of
        each form part it has seen, for as long as its caller keeps it."""
        n, nb = self.n, self.nbase
        if not 0 <= i <= n:
            raise AlgebraError("face index out of range")
        if i:
            t, dt = nb + i - 1, nb + n + i - 1

            def delete(mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
                if mono[t] or mono[dt]:
                    return {}
                return {mono[:t] + mono[t + 1:dt] + mono[dt + 1:]: 1}

            return delete
        face = pullback(face_tuple(n, 0), self.forms, simplex_forms(n - 1))
        images: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

        def substitute_first(mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
            form = mono[nb:]
            if form not in images:
                images[form] = face(Element.monomial(self.forms.table, form)).terms
            return {mono[:nb] + m: c for m, c in images[form].items()}

        return substitute_first


# The zero algebra (1 = 0) is terminal; its cotensor with any simplicial set
# is again the zero algebra.  Passing this sentinel to the cotensor routines
# reports zero dimensions everywhere without building any table.
ZERO_ALGEBRA = "zero"


def _facet_list(n: int, shape: str, horn_vertex: int | None) -> list[int]:
    """The facets of the boundary or horn K of the n-simplex; AlgebraError
    when n, shape and horn_vertex name no such K."""
    if n < 1:
        raise AlgebraError("boundary and horn cotensors need n >= 1")
    if shape == "boundary":
        return list(range(n + 1))
    if shape == "horn":
        if horn_vertex is None or not 0 <= horn_vertex <= n:
            raise AlgebraError("horn vertex out of range")
        return [j for j in range(n + 1) if j != horn_vertex]
    raise AlgebraError(f"unknown shape {shape!r}")


class SubShapeCotensor:
    """B^K for K the boundary or a horn of the n-simplex, via face equalizers.

    An element is a family (w_j) over the facets of K, compatible along the
    shared (n-2)-faces.  Per bidegree and degree cap this is the exact kernel
    of an integer constraint matrix, whose entries `TensorForms.face_terms`
    gives: face i >= 1 deletes t_i and dt_i, face 0 sends t_1 -> 1 - sum(t)
    and dt_1 -> -sum(dt).
    """

    def __init__(self, coefficients: DGAlgebra, n: int, shape: str,
                 horn_vertex: int | None = None):
        self.coefficients = coefficients
        self.n = n
        self.shape = shape
        self.horn_vertex = horn_vertex
        self.facets = _facet_list(n, shape, horn_vertex)
        self.facet_forms = TensorForms(coefficients, n - 1)
        self.overlap_forms = TensorForms(coefficients, n - 2) if n >= 2 else None

    def facet_basis(self, weight: int, parity: int, cap: int) -> list[tuple[int, ...]]:
        return monomial_basis(self.facet_forms.table, weight, parity, cap)

    def basis(self, weight: int, parity: int, cap: int) -> list[list[Element]]:
        """Compatible families as lists of facet components."""
        vectors, fb = self._kernel(weight, parity, cap)
        families = []
        for vec in vectors:
            family = [{} for _ in self.facets]
            for k in sorted(vec):
                fi, bi = divmod(k, len(fb))
                family[fi][fb[bi]] = vec[k]
            families.append([Element(self.facet_forms.table, terms) for terms in family])
        return families

    def dimension(self, weight: int, parity: int, cap: int) -> int:
        return len(self._kernel(weight, parity, cap)[0])

    def _kernel(self, weight: int, parity: int, cap: int):
        """The compatible families as sparse rows over the facet bases laid
        end to end (facet i owns the columns from i * len(fb)), and fb."""
        fb = self.facet_basis(weight, parity, cap)
        nfac = len(self.facets)
        ncols = nfac * len(fb)
        if self.n < 2 or not fb:
            vectors = [{j: 1} for j in range(ncols)]
        else:
            ob = monomial_basis(self.overlap_forms.table, weight, parity, cap)
            oidx = {m: i for i, m in enumerate(ob)}
            # facets j < jp meet along face jp - 1 of j and face j of jp;
            # the facet basis is restricted once per face
            faces = {f for a, j in enumerate(self.facets)
                     for jp in self.facets[a + 1:] for f in (jp - 1, j)}
            images = {f: list(map(self.facet_forms.face_terms(f), fb)) for f in faces}
            rows: list[linalg.SparseRow] = []
            for a in range(nfac):
                for b in range(a + 1, nfac):
                    j, jp = self.facets[a], self.facets[b]
                    # each entry is one restriction's term: no sums to take
                    block: list[linalg.SparseRow] = [{} for _ in ob]
                    for bi, image in enumerate(images[jp - 1]):
                        for m, c in image.items():
                            block[oidx[m]][a * len(fb) + bi] = c
                    for bi, image in enumerate(images[j]):
                        for m, c in image.items():
                            block[oidx[m]][b * len(fb) + bi] = -c
                    rows.extend(block)
            vectors, _ = linalg.nullspace(rows, ncols)
        return vectors, fb


# how far filling_report raises the domain's degree cap above the target's
FILLING_MAX_EXTRA = 3


def filling_report(coefficients, n: int, shape: str, horn_vertex: int | None,
                   w_min: int, w_max: int, cap: int) -> dict:
    """Check surjectivity of B tensor Omega_n onto the sub-shape cotensor.

    For each bidegree in the window, every compatible family of total degree
    at most cap must be the restriction of a global form; the domain degree
    cap escalates up to cap + FILLING_MAX_EXTRA before reporting failure.

    The system is laid out once per bidegree, in the coordinates of
    `SubShapeCotensor._kernel` (facet i and monomial b of its basis fb at
    i * len(fb) + b), so the kernel vectors are the targets unchanged; a
    retry appends the columns of the domain monomials new at its cap, and a
    coordinate for each new facet monomial.  Each domain monomial is
    restricted once, by `TensorForms.face_terms`: facet j >= 1 deletes t_j
    and dt_j, facet 0 sends t_1 -> 1 - sum(t) and dt_1 -> -sum(dt).
    """
    out: dict = {
        "shape": shape,
        "n": n,
        "horn_vertex": horn_vertex,
        "window": [w_min, w_max],
        "degree_cap": cap,
        "entries": [],
        "all_surjective": True,
    }
    if coefficients == ZERO_ALGEBRA:
        _facet_list(n, shape, horn_vertex)  # the shape is checked as over any algebra
        for w in range(w_min, w_max + 1):
            for p in (EVEN, ODD):
                out["entries"].append(
                    {"weight": w, "parity": parity_name(p), "target_dim": 0,
                     "surjective": True, "cap_used": cap}
                )
        return out
    cot = SubShapeCotensor(coefficients, n, shape, horn_vertex)
    total = TensorForms(coefficients, n)
    restrict = [total.face_terms(j) for j in cot.facets]
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            targets, fb = cot._kernel(w, p, cap)
            entry = {"weight": w, "parity": parity_name(p),
                     "target_dim": len(targets), "surjective": False, "cap_used": None}
            if not targets:
                entry["surjective"] = True
                entry["cap_used"] = cap
                out["entries"].append(entry)
                continue
            # (facet, monomial) -> coordinate; a new facet monomial takes the next
            coords = {(fi, m): fi * len(fb) + bi
                      for fi in range(len(restrict)) for bi, m in enumerate(fb)}
            # domain monomial -> its column; a retry restricts only the new ones
            columns: dict[tuple[int, ...], linalg.SparseRow] = {}
            for cap_dom in range(cap, cap + FILLING_MAX_EXTRA + 1):
                allowed = set(cot.facet_basis(w, p, cap_dom))
                for mono in monomial_basis(total.table, w, p, cap_dom):
                    if mono in columns:
                        continue
                    vec = columns[mono] = {}
                    for fi, r in enumerate(restrict):
                        for m, c in r(mono).items():
                            if m not in allowed:
                                raise AlgebraError("face restriction left the truncated basis")
                            vec[coords.setdefault((fi, m), len(coords))] = c
                # rank(columns) == rank(columns + targets): one elimination,
                # since the pivots of the leading columns alone are those of
                # the augmented system that fall among them
                aug = linalg.transpose([*columns.values(), *targets], len(coords))
                _, pivots, _ = linalg.rref(aug)
                if all(col < len(columns) for col in pivots):
                    entry["surjective"] = True
                    entry["cap_used"] = cap_dom
                    break
            if not entry["surjective"]:
                out["all_surjective"] = False
            out["entries"].append(entry)
    return out


def cotensor_report(coefficients, n: int, shape: str, horn_vertex: int | None,
                    w_min: int, w_max: int, cap: int) -> dict:
    """Dimensions per bidegree of B^K on truncated bases.

    For a boundary or horn, the report carries its filling_report under
    "filling", and each dimension is the target_dim of that report's entry:
    each kernel is eliminated once.  Over ZERO_ALGEBRA the shape is checked
    the same way, and the all-zero report carries no "filling".
    """
    out: dict = {
        "shape": shape,
        "n": n,
        "horn_vertex": horn_vertex,
        "window": [w_min, w_max],
        "degree_cap": cap,
        "entries": [],
    }
    if shape != "simplex":
        filling = filling_report(coefficients, n, shape, horn_vertex, w_min, w_max, cap)
        out["entries"] = [{"weight": e["weight"], "parity": e["parity"], "dim": e["target_dim"]}
                          for e in filling["entries"]]
        if coefficients != ZERO_ALGEBRA:
            out["filling"] = filling
        return out
    table = None if coefficients == ZERO_ALGEBRA else TensorForms(coefficients, n).table
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            dim = 0 if table is None else len(monomial_basis(table, w, p, cap))
            out["entries"].append({"weight": w, "parity": parity_name(p), "dim": dim})
    return out
