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
id - P = d s + s d for the Whitney projection P = sum w_I int_I (Dupont,
Simplicial de Rham cohomology and characteristic classes of flat bundles,
Topology 1976), all verified here with exact rational coefficients.

Both ingredients have closed forms on a monomial t^a dt_J with |J| = k, and
these are what the operators evaluate; s itself is one walk over them:

* Face integral.  Sort I, carrying the sign of the sorting permutation.  A t
  or dt off the face gives 0.  Otherwise

      int_I t^a dt_{I - I_m} = (-1)^m prod_q a_{I_q}! / (k + sum_q a_{I_q})!,

  where m is the position of the vertex whose dt is missing (m = 0 when
  I_0 = 0, whose t and dt are not coordinates): rewriting dt_{I_0} as minus
  the sum of the others leaves the Dirichlet integral of prod u_q^{a_q}.
  The iterated method parametrises the face by an algebra map and integrates
  one variable at a time instead; the two methods stay independent.
* Dilation homotopy.  With p = |a| - a_i + k - 1,

      h^i(t^a dt_J) = sum_r (-1)^(r-1) (t_{j_r} - delta_{i j_r}) dt_{J - j_r}
                      * t^a|_{a_i = 0} * sum_m C(a_i, m) t_i^m
                        (p+m)! (a_i-m)! / (p+a_i+1)!,

  which for i = 0 is the Poincare-lemma factor 1/(|a| + k).
* Dupont homotopy: one prefix walk; h^i over (p+a_i+1)!.  The closed form of
  h^i is an integer polynomial over D = (p+a_i+1)!, so the dilations sum
  integer multiples over a common denominator.  s visits each increasing
  vertex prefix I once, applying h^{i_k} to the whole value of its parent
  prefix, and adds w_I times the result.

Tensoring with a coefficient algebra B and imposing the face compatibility
constraints computes B^K for K a simplex, a boundary or a horn; surjectivity
of the restriction maps onto horns and boundaries is decided by exact rank
computations on truncated bases.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
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
    TableExtension,
    _add_into,
    _mul_terms,
    monomial_basis,
    parity_name,
)
from .core import partial as partial_derivative
from .dg import Derivation, DGAlgebra
from .forms import Cylinder, FormsAlgebra, integrate, substitute

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


def _coordinates(prefix: str, indices) -> GeneratorTable:
    """Even weight-0 coordinates prefix+i, i in indices."""
    return GeneratorTable([Generator(f"{prefix}{i}", 0, EVEN) for i in indices])


class SimplexForms(FormsAlgebra):
    """Polynomial forms on the n-simplex in eliminated coordinates.

    Per-monomial results of the simplicial operators are kept in the
    `_*_cache` dicts; the Dupont homotopy keeps none of its own.  A face
    integral or a dilation homotopy missing from its cache is evaluated by the
    closed forms of the module docstring, with no algebra map, substitution or
    polynomial integration.
    """

    def __init__(self, n: int):
        if n < 0:
            raise AlgebraError("simplex dimension must be non-negative")
        self.n = n
        super().__init__(_coordinates("t", range(1, n + 1)))
        self.differential = self.de_rham
        self.dga = DGAlgebra(self.table, self.differential)
        self._whitney_cache: dict[tuple[int, ...], Element] = {}
        self._integral_cache: dict[tuple, Fraction] = {}
        self._dilation_cache: dict[int, tuple[Cylinder, AlgebraMap]] = {}
        self._h_cache: dict[tuple[int, tuple[int, ...]], tuple[dict, int]] = {}
        # never filled: the walk in dupont_homotopy keeps no per-monomial
        # results, and perfbench/tracer.py reads the attribute
        self._s_cache: dict[tuple[int, ...], Element] = {}
        self._p_cache: dict[tuple[int, ...], Element] = {}

    def t(self, i: int) -> Element:
        if not 0 <= i <= self.n:
            raise AlgebraError(f"vertex index {i} out of range for n={self.n}")
        if i == 0:
            out = Element.one(self.table)
            for j in range(1, self.n + 1):
                out = out - Element.generator(self.table, f"t{j}")
            return out
        return Element.generator(self.table, f"t{i}")

    def dt(self, i: int) -> Element:
        if not 0 <= i <= self.n:
            raise AlgebraError(f"vertex index {i} out of range for n={self.n}")
        if i == 0:
            out = Element.zero(self.table)
            for j in range(1, self.n + 1):
                out = out - Element.generator(self.table, f"dt{j}")
            return out
        return Element.generator(self.table, f"dt{i}")

    def vertex_value(self, element: Element, i: int) -> Fraction:
        """Evaluate the function part at vertex i (t_j = delta_ij, dt = 0)."""
        values: dict[str, Element | int | Fraction] = {}
        for j in range(1, self.n + 1):
            values[f"t{j}"] = 1 if j == i else 0
            values[f"dt{j}"] = 0
        return substitute(element, values).constant_term()

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


def compose_tuples(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[j] for j in inner)


def pullback(phi: tuple[int, ...], source: SimplexForms, target: SimplexForms) -> AlgebraMap:
    """Omega(phi): Omega_{source.n} -> Omega_{target.n} for phi: [target.n] -> [source.n]."""
    if len(phi) != target.n + 1:
        raise AlgebraError("operator tuple has the wrong length")
    if any(not 0 <= v <= source.n for v in phi):
        raise AlgebraError("operator tuple value out of range")
    if any(phi[j] > phi[j + 1] for j in range(len(phi) - 1)):
        raise AlgebraError("operator tuple is not monotone")
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


def whitney(forms: SimplexForms, indices: tuple[int, ...]) -> Element:
    """The elementary form w_I; antisymmetric in I, zero on repeats."""
    I = tuple(indices)
    if any(not 0 <= i <= forms.n for i in I):
        raise AlgebraError("vertex index out of range")
    if len(set(I)) != len(I):
        return Element.zero(forms.table)
    order = tuple(sorted(I))
    sign = _permutation_sign(I)
    cached = forms._whitney_cache.get(order)
    if cached is None:
        k = len(order) - 1
        acc = Element.zero(forms.table)
        for q in range(k + 1):
            term = forms.t(order[q])
            for r in range(k + 1):
                if r != q:
                    term = term * forms.dt(order[r])
            acc = acc + term * ((-1) ** q)
        cached = acc * math.factorial(k)
        forms._whitney_cache[order] = cached
    return cached if sign > 0 else -cached


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
    return FormsAlgebra(_coordinates("t", range(n + 1))).table


def simplex_relations(n: int) -> tuple[Element, Element]:
    """The defining relations t0 + ... + tn - 1 and dt0 + ... + dtn."""
    table = barycentric_table(n)
    rel = -Element.one(table)
    drel = Element.zero(table)
    for i in range(n + 1):
        rel = rel + Element.generator(table, f"t{i}")
        drel = drel + Element.generator(table, f"dt{i}")
    return rel, drel


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


def barycentric_section(forms: SimplexForms, element: Element) -> Element:
    """The section of eliminate fixing the coordinates t1..tn, dt1..dtn."""
    table = barycentric_table(forms.n)
    images: dict[str, Element] = {}
    for i in range(1, forms.n + 1):
        images[f"t{i}"] = Element.generator(table, f"t{i}")
        images[f"dt{i}"] = Element.generator(table, f"dt{i}")
    return AlgebraMap(forms.table, table, images)(element)


def barycentric_whitney(n: int, indices: tuple[int, ...]) -> Element:
    """w_I in the redundant presentation: k! sum_q (-1)^q t_{i_q} dt...dt."""
    table = barycentric_table(n)
    I = tuple(indices)
    if any(not 0 <= i <= n for i in I):
        raise AlgebraError("vertex index out of range")
    if len(set(I)) != len(I):
        return Element.zero(table)
    k = len(I) - 1
    acc = Element.zero(table)
    for q in range(k + 1):
        term = Element.generator(table, f"t{I[q]}")
        for r in range(k + 1):
            if r != q:
                term = term * Element.generator(table, f"dt{I[r]}")
        acc = acc + term * ((-1) ** q)
    return acc * math.factorial(k)


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
            block[index[J[:q] + J[q + 1:]]][r] = Fraction((-1) ** q)
    return block


# -- integration over faces ------------------------------------------------------


@lru_cache(maxsize=None)
def _integration_forms(k: int) -> FormsAlgebra:
    """Forms on the standard k-simplex in the coordinates u1..uk."""
    return FormsAlgebra(_coordinates("u", range(1, k + 1)))


def simplex_integral(forms: SimplexForms, indices: tuple[int, ...], element: Element,
                     method: str = "dirichlet") -> Fraction:
    """Integral over the oriented face spanned by I of the matching form part.

    Components whose form weight differs from len(I) - 1 integrate to zero
    automatically.  method='dirichlet' evaluates the closed form on each
    monomial (see the module docstring); method='iterated' parametrises the
    face by an algebra map and performs nested univariate integrals with
    symbolic bounds.  The two share no code past the argument checks, so each
    is an oracle for the other; both are exact.
    """
    I = tuple(indices)
    if len(set(I)) != len(I):
        raise AlgebraError("face indices must be distinct")
    if any(not 0 <= i <= forms.n for i in I):
        raise AlgebraError("vertex index out of range")
    if method not in ("dirichlet", "iterated"):
        raise AlgebraError(f"unknown integration method {method!r}")
    k = len(I) - 1
    total = Fraction(0)
    if k == 0:
        for mono, c in element.terms.items():
            if forms.form_weight_of(mono) == 0:
                total += c * _dirichlet_integral(forms, I, mono)
        return total
    kernel = _dirichlet_integral if method == "dirichlet" else _iterated_integral
    for mono, c in element.terms.items():
        if forms.form_weight_of(mono) != k:
            continue
        key = (I, mono, method)
        cached = forms._integral_cache.get(key)
        if cached is None:
            cached = kernel(forms, I, mono)
            forms._integral_cache[key] = cached
        total += c * cached
    return total


def _dirichlet_integral(forms: SimplexForms, I: tuple[int, ...],
                        mono: tuple[int, ...]) -> Fraction:
    """The closed form of the integral of t^a dt_J over the face I, |J| = k."""
    n = forms.n
    order = sorted(I)
    on_face = set(order)
    for j in range(1, n + 1):
        if (mono[j - 1] or mono[n + j - 1]) and j not in on_face:
            return Fraction(0)
    # m: the position in sorted I of the vertex whose dt is missing
    m = next(q for q, v in enumerate(order) if v == 0 or not mono[n + v - 1])
    num = 1
    for v in order:
        if v:
            num *= math.factorial(mono[v - 1])
    sign = _permutation_sign(I) * (-1 if m % 2 else 1)
    return Fraction(sign * num, math.factorial(len(I) - 1 + sum(mono[:n])))


def _iterated_integral(forms: SimplexForms, I: tuple[int, ...],
                       mono: tuple[int, ...]) -> Fraction:
    """Pull t^a dt_J back along the face parametrisation and integrate in turn.

    t_{I_0} = 1 - u1 - ... - uk and t_{I_q} = u_q; the coefficient of
    du1 ... duk is integrated over u_k, then u_{k-1}, ..., with the upper
    bound 1 - u1 - ... - u_{q-1} for u_q.
    """
    k = len(I) - 1
    U = _integration_forms(k)
    u_elems = [Element.generator(U.table, f"u{q}") for q in range(1, k + 1)]
    du_elems = [Element.generator(U.table, f"du{q}") for q in range(1, k + 1)]
    base = Element.one(U.table)
    dbase = Element.zero(U.table)
    for u in u_elems:
        base = base - u
    for du in du_elems:
        dbase = dbase - du
    param_t: dict[int, Element] = {I[0]: base}
    param_dt: dict[int, Element] = {I[0]: dbase}
    for q in range(1, k + 1):
        param_t[I[q]] = u_elems[q - 1]
        param_dt[I[q]] = du_elems[q - 1]
    images: dict[str, Element] = {}
    for j in range(1, forms.n + 1):
        images[f"t{j}"] = param_t.get(j, Element.zero(U.table))
        images[f"dt{j}"] = param_dt.get(j, Element.zero(U.table))
    sub = AlgebraMap(forms.table, U.table, images, check=False)
    # the coefficient of du1 ... duk, a function of u1..uk
    value = sub(Element.monomial(forms.table, mono))
    for q in range(1, k + 1):
        value = partial_derivative(value, f"du{q}")
    value = U.project(value)
    if value.is_zero():
        return Fraction(0)
    for q in range(k, 0, -1):
        upper = Element.one(U.base)
        for r in range(1, q):
            upper = upper - Element.generator(U.base, f"u{r}")
        value = integrate(value, f"u{q}", 0, upper)
    return value.constant_term()


# -- Whitney projection and the simplicial homotopy -----------------------------


def whitney_projection(forms: SimplexForms, element: Element) -> Element:
    """P = sum_I w_I * integral_I; idempotent chain map onto the Whitney span."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for mono, c in element.terms.items():
        cached = forms._p_cache.get(mono)
        if cached is None:
            cached = _projection_of_monomial(forms, mono)
            forms._p_cache[mono] = cached
        _add_into(terms, cached.terms, c)
    return Element(forms.table, terms)


def _projection_of_monomial(forms: SimplexForms, mono: tuple[int, ...]) -> Element:
    k = forms.form_weight_of(mono)
    if k > forms.n:
        return Element.zero(forms.table)
    elem = Element.monomial(forms.table, mono)
    out = Element.zero(forms.table)
    for I in whitney_tuples(forms.n, k):
        value = simplex_integral(forms, I, elem)
        if value:
            out = out + whitney(forms, I) * value
    return out


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
    cyl = Cylinder(forms.dga, var="u")
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


def dilation_homotopy(forms: SimplexForms, i: int, element: Element) -> Element:
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
    denominators, and each output coefficient becomes one Fraction.
    """
    cache = forms._h_cache
    parts = []
    for mono, c in element.terms.items():
        key = (i, mono)
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = _dilation_of_monomial(forms.n, i, mono)
        image, den = cached
        if image:
            parts.append((c.numerator, image, c.denominator * den))
    return _sum_over_lcm(forms.table, parts)


def _sum_over_lcm(table: GeneratorTable, parts) -> Element:
    """sum of num * terms / den over the parts (num, terms, den), terms with
    integer coefficients: integer multiples over the lcm of the dens, and one
    Fraction per output term."""
    common = math.lcm(*(den for _, _, den in parts))
    acc: dict[tuple[int, ...], int] = {}
    for num, terms, den in parts:
        scale = num * (common // den)
        for mono, v in terms.items():
            acc[mono] = acc.get(mono, 0) + scale * v
    return Element(table, {m: Fraction(v, common) for m, v in acc.items() if v})


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


def vertex_projection(forms: SimplexForms, i: int, element: Element) -> Element:
    """Evaluation at vertex i, as a scalar-valued idempotent into Omega_n."""
    return Element.scalar(forms.table, forms.vertex_value(element, i))


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
    stack: list[tuple[tuple[int, ...], Element]] = [((), element)] if depth else []
    while stack:
        prefix, value = stack.pop()
        sign = _DUPONT_SIGN(len(prefix))
        for vertex in range(prefix[-1] + 1 if prefix else 0, n + 1):
            image = dilation_homotopy(forms, vertex, value)
            if not image.terms:
                continue
            I = prefix + (vertex,)
            # w_I times h^I(x), both as integer numerators
            den = math.lcm(*(c.denominator for c in image.terms.values()))
            nums = {m: c.numerator * (den // c.denominator) for m, c in image.terms.items()}
            w = {m: c.numerator for m, c in whitney(forms, I).terms.items()}
            parts.append((sign, _mul_terms(table, w, nums), den))
            if len(I) < depth:
                stack.append((I, image))
    return _sum_over_lcm(table, parts)


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
    for k in range(1, forms.n + 1):
        for I in whitney_tuples(forms.n, k):
            if I[0] != 0:
                continue
            value = simplex_integral(forms, I, element)
            if value:
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


class TensorForms(TableExtension):
    """B tensor Omega_n for a coefficient dg algebra B."""

    def __init__(self, coefficients: DGAlgebra, n: int):
        self.coefficients = coefficients
        self.n = n
        self.forms = simplex_forms(n)
        base = coefficients.table
        for g in base.generators:
            if g.name in self.forms.table.index:
                raise AlgebraError(
                    f"coefficient generator {g.name!r} collides with a simplex variable"
                )
        super().__init__(base, self.forms.table.generators)
        images: dict[str, Element] = {}
        for g in base.generators:
            images[g.name] = self.include(coefficients.differential.image_of(g.name))
        for i in range(1, n + 1):
            images[f"t{i}"] = Element.generator(self.table, f"dt{i}")
        self.differential = Derivation(self.table, images, 1, ODD)
        self.dga = DGAlgebra(self.table, self.differential)
        self.include_forms = AlgebraMap(self.forms.table, self.table, {
            name: Element.generator(self.table, name) for name in self.forms.table.names
        })
        self._face_cache: dict[int, AlgebraMap] = {}

    include_base = TableExtension.include

    def face_restriction(self, i: int) -> AlgebraMap:
        """Restrict to the facet opposite vertex i, in B tensor Omega_{n-1}."""
        cached = self._face_cache.get(i)
        if cached is None:
            target = tensor_forms(self.coefficients, self.n - 1)
            cached = _operator_pullback_tensor(self, target, face_tuple(self.n, i))
            self._face_cache[i] = cached
        return cached


# Keyed by the coefficient algebra's identity, so an unbounded cache would
# keep every algebra a long-lived process ever saw; one CLI request uses at
# most three entries (n, n - 1 and n - 2 for one algebra).
TENSOR_FORMS_CACHE_SIZE = 32


@lru_cache(maxsize=TENSOR_FORMS_CACHE_SIZE)
def tensor_forms(coefficients: DGAlgebra, n: int) -> TensorForms:
    return TensorForms(coefficients, n)


def _operator_pullback_tensor(src: TensorForms, dst: TensorForms,
                              phi: tuple[int, ...]) -> AlgebraMap:
    fmap = pullback(phi, src.forms, dst.forms)
    images: dict[str, Element] = {}
    for g in src.coefficients.table.generators:
        images[g.name] = Element.generator(dst.table, g.name)
    for k in range(1, src.n + 1):
        images[f"t{k}"] = dst.include_forms(fmap.image_of(f"t{k}"))
        images[f"dt{k}"] = dst.include_forms(fmap.image_of(f"dt{k}"))
    return AlgebraMap(src.table, dst.table, images, check=False)


# The zero algebra (1 = 0) is terminal; its cotensor with any simplicial set
# is again the zero algebra.  Passing this sentinel to the cotensor routines
# reports zero dimensions everywhere without building any table.
ZERO_ALGEBRA = "zero"


def _facet_list(n: int, shape: str, horn_vertex: int | None) -> list[int]:
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
    of a rational constraint matrix.
    """

    def __init__(self, coefficients: DGAlgebra, n: int, shape: str,
                 horn_vertex: int | None = None):
        if n < 1:
            raise AlgebraError("boundary and horn cotensors need n >= 1")
        self.coefficients = coefficients
        self.n = n
        self.shape = shape
        self.horn_vertex = horn_vertex
        self.facets = _facet_list(n, shape, horn_vertex)
        self.facet_forms = tensor_forms(coefficients, n - 1)
        self.overlap_forms = tensor_forms(coefficients, n - 2) if n >= 2 else None
        self._restrictions: dict[tuple[int, int], AlgebraMap] = {}
        # (weight, parity, cap) -> dimension, left by each kernel computed
        self._dims: dict[tuple[int, int, int], int] = {}

    def _restriction(self, facet: int, face: int) -> AlgebraMap:
        key = (facet, face)
        cached = self._restrictions.get(key)
        if cached is None:
            phi = face_tuple(self.n - 1, face)
            cached = _operator_pullback_tensor(self.facet_forms, self.overlap_forms, phi)
            self._restrictions[key] = cached
        return cached

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
        key = (weight, parity, cap)
        if key not in self._dims:
            self._kernel(weight, parity, cap)
        return self._dims[key]

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
            rows: list[linalg.SparseRow] = []
            for a in range(nfac):
                for b in range(a + 1, nfac):
                    j, jp = self.facets[a], self.facets[b]
                    ra = self._restriction(j, jp - 1)
                    rb = self._restriction(jp, j)
                    # each entry is one restriction's term: no sums to take
                    block: list[linalg.SparseRow] = [{} for _ in ob]
                    for bi, mono in enumerate(fb):
                        elem = Element.monomial(self.facet_forms.table, mono)
                        for m, c in ra(elem).terms.items():
                            block[oidx[m]][a * len(fb) + bi] = c
                        for m, c in rb(elem).terms.items():
                            block[oidx[m]][b * len(fb) + bi] = -c
                    rows.extend(block)
            vectors = linalg.nullspace(rows, ncols)
        self._dims[(weight, parity, cap)] = len(vectors)
        return vectors, fb


def filling_report(coefficients, n: int, shape: str, horn_vertex: int | None,
                   w_min: int, w_max: int, cap: int, max_extra: int = 3,
                   cotensor: SubShapeCotensor | None = None) -> dict:
    """Check surjectivity of B tensor Omega_n onto the sub-shape cotensor.

    For each bidegree in the window, every compatible family of total degree
    at most cap must be the restriction of a global form; the domain degree
    cap escalates up to cap + max_extra before reporting failure.  A given
    `cotensor` (built from the same arguments) keeps each kernel's dimension,
    so a cotensor_report on it afterwards eliminates nothing again.
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
        for w in range(w_min, w_max + 1):
            for p in (EVEN, ODD):
                out["entries"].append(
                    {"weight": w, "parity": parity_name(p), "target_dim": 0,
                     "surjective": True, "cap_used": cap}
                )
        return out
    cot = cotensor or SubShapeCotensor(coefficients, n, shape, horn_vertex)
    total = tensor_forms(coefficients, n)
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
            for extra in range(0, max_extra + 1):
                cap_dom = cap + extra
                fb_big = cot.facet_basis(w, p, cap_dom)
                big_idx = {m: i for i, m in enumerate(fb_big)}
                nfac = len(cot.facets)
                ncols_big = nfac * len(fb_big)
                dom_basis = monomial_basis(total.table, w, p, cap_dom)
                columns = []
                for mono in dom_basis:
                    elem = Element.monomial(total.table, mono)
                    vec = {}
                    ok = True
                    for fi, j in enumerate(cot.facets):
                        restricted = total.face_restriction(j)(elem)
                        for m, c in restricted.terms.items():
                            if m not in big_idx:
                                ok = False
                                break
                            vec[fi * len(fb_big) + big_idx[m]] = c
                        if not ok:
                            break
                    if not ok:
                        raise AlgebraError("face restriction left the truncated basis")
                    columns.append(vec)
                padded_targets = []
                for tvec in targets:
                    big = {}
                    for k, c in tvec.items():
                        fi, bi = divmod(k, len(fb))
                        big[fi * len(fb_big) + big_idx[fb[bi]]] = c
                    padded_targets.append(big)
                # rank(columns) == rank(columns + targets): one elimination,
                # since the pivots of the leading columns alone are those of
                # the augmented system that fall among them
                aug = linalg.transpose(columns + padded_targets, ncols_big)
                _, pivots = linalg.rref(aug)
                if all(col < len(columns) for col in pivots):
                    entry["surjective"] = True
                    entry["cap_used"] = cap_dom
                    break
            if not entry["surjective"]:
                out["all_surjective"] = False
            out["entries"].append(entry)
    return out


def cotensor_report(coefficients, n: int, shape: str, horn_vertex: int | None,
                    w_min: int, w_max: int, cap: int,
                    cotensor: SubShapeCotensor | None = None) -> dict:
    """Dimensions per bidegree of B^K on truncated bases.

    For a boundary or horn, a given `cotensor` (built from the same arguments)
    supplies the dimensions of kernels it has already computed.
    """
    out: dict = {
        "shape": shape,
        "n": n,
        "horn_vertex": horn_vertex,
        "window": [w_min, w_max],
        "degree_cap": cap,
        "entries": [],
    }
    if coefficients == ZERO_ALGEBRA:
        for w in range(w_min, w_max + 1):
            for p in (EVEN, ODD):
                out["entries"].append(
                    {"weight": w, "parity": parity_name(p), "dim": 0}
                )
        return out
    if shape == "simplex":
        total = tensor_forms(coefficients, n)
        for w in range(w_min, w_max + 1):
            for p in (EVEN, ODD):
                dim = len(monomial_basis(total.table, w, p, cap))
                out["entries"].append(
                    {"weight": w, "parity": parity_name(p), "dim": dim}
                )
        return out
    cot = cotensor or SubShapeCotensor(coefficients, n, shape, horn_vertex)
    for w in range(w_min, w_max + 1):
        for p in (EVEN, ODD):
            out["entries"].append(
                {"weight": w, "parity": parity_name(p),
                 "dim": cot.dimension(w, p, cap)}
            )
    return out
