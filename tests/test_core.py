"""Core algebra: canonical monomials, sign rule, partials, parsing."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from bisect import insort
from itertools import accumulate, chain, islice, repeat

from sdga import core
from sdga.core import (
    EVEN,
    ODD,
    AlgebraError,
    AlgebraMap,
    Element,
    Generator,
    GeneratorTable,
    ParseError,
    TableExtension,
    as_scalar,
    compose_maps,
    identity_map,
    monomial_bases,
    monomial_basis,
    monomials_of_degree_at_most,
    parity_of,
    parse,
    partial,
    render,
    weight_degree_bound,
)
from sdga import sampling
import panels


@pytest.fixture
def table():
    return GeneratorTable([
        Generator("x", 0, 0),
        Generator("y", 0, 0),
        Generator("xi", 1, 1),
        Generator("eta", 1, 1),
    ])


def test_generator_is_an_immutable_value():
    g = Generator("x", 0, 0)
    assert repr(g) == "Generator(name='x', weight=0, parity=0)"
    assert g == Generator("x", 0, 0) and g != Generator("x", 0, 1)
    assert g != ("x", 0, 0)
    assert hash(g) == hash(("x", 0, 0))
    assert Generator(name="xi", weight=1, parity=1).parity == 1
    with pytest.raises(AttributeError):
        g.name = "y"
    with pytest.raises(AttributeError):
        del g.weight
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AlgebraError):
        Generator("1x", 0, 0)
    with pytest.raises(AlgebraError):
        Generator("x", 0, 2)


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraError):
        GeneratorTable([Generator("x", 0, 0), Generator("x", 1, 1)])


def test_reserved_d_prefix_rejected():
    with pytest.raises(AlgebraError):
        GeneratorTable([Generator("x", 0, 0), Generator("dx", 1, 1)])


def test_even_mode_requires_matching_parity():
    GeneratorTable([Generator("a", 2, 0)], even_mode=True)
    with pytest.raises(AlgebraError):
        GeneratorTable([Generator("a", 2, 1)], even_mode=True)


def test_odd_generator_squares_to_zero(table):
    xi = Element.generator(table, "xi")
    assert (xi * xi).is_zero()


def test_koszul_sign_on_odd_pair(table):
    xi = Element.generator(table, "xi")
    eta = Element.generator(table, "eta")
    assert xi * eta == -(eta * xi)


def test_even_generators_commute(table):
    x = Element.generator(table, "x")
    y = Element.generator(table, "y")
    assert x * y == y * x


@pytest.mark.parametrize("seed", range(20))
def test_supercommutativity_on_random_homogeneous_pairs(table, seed):
    rng = random.Random(seed)
    a, b = panels.random_homogeneous_pair(rng, table)
    sign = -1 if (a.parity() and b.parity()) else 1
    assert a * b == (b * a) * sign


@pytest.mark.parametrize("seed", range(20))
def test_associativity_on_random_triples(table, seed):
    rng = random.Random(1000 + seed)
    a = sampling.random_element(rng, table)
    b = sampling.random_element(rng, table)
    c = sampling.random_element(rng, table)
    assert (a * b) * c == a * (b * c)


def test_partial_is_a_left_derivative(table):
    xi = Element.generator(table, "xi")
    eta = Element.generator(table, "eta")
    # d/d(eta) of xi*eta picks up the sign of moving past xi
    assert partial(xi * eta, "eta") == -xi
    assert partial(xi * eta, "xi") == eta


@pytest.mark.parametrize("seed", range(20))
def test_signed_clairaut_property(table, seed):
    """Mixed partials commute up to the sign of the two generators."""
    rng = random.Random(2000 + seed)
    a = sampling.random_element(rng, table, max_degree=4, terms=5)
    gens = ["x", "y", "xi", "eta"]
    g = rng.choice(gens)
    h = rng.choice(gens)
    pg = table.generators[table.position(g)].parity
    ph = table.generators[table.position(h)].parity
    sign = -1 if (pg and ph) else 1
    assert partial(partial(a, h), g) == partial(partial(a, g), h) * sign


def test_homogeneous_components_partition(table):
    rng = random.Random(7)
    a = sampling.random_element(rng, table, max_degree=3, terms=6)
    total = Element.zero(table)
    for (w, p), part in a.homogeneous_components().items():
        assert part.bidegree() == (w, p)
        total = total + part
    assert total == a


@pytest.mark.parametrize("seed", range(25))
def test_parse_render_round_trip(table, seed):
    rng = random.Random(3000 + seed)
    a = sampling.random_element(rng, table, max_degree=4, terms=5)
    assert parse(table, render(a)) == a


def test_parse_rejects_unknown_names(table):
    with pytest.raises(ParseError):
        parse(table, "x + z")


def test_parse_rejects_garbage(table):
    with pytest.raises(ParseError):
        parse(table, "x + * y")


def test_render_of_zero(table):
    assert render(Element.zero(table)) == "0"
    assert parse(table, "0").is_zero()


def test_parser_handles_rational_coefficients(table):
    a = parse(table, "3/2 * x^2 - 1/3 * y + 5")
    x = Element.generator(table, "x")
    y = Element.generator(table, "y")
    expected = x * x * Fraction(3, 2) - y * Fraction(1, 3) + 5
    assert a == expected


def test_monomial_basis_respects_bidegree(table):
    basis = monomial_basis(table, 1, 1, 3)
    for exps in basis:
        assert table.monomial_weight(exps) == 1
        assert table.monomial_parity(exps) == 1
    # xi, eta, and nothing else of weight 1 below the cap needs odd parity
    assert len(basis) == len([m for m in monomials_of_degree_at_most(table, 3)
                              if table.monomial_weight(m) == 1
                              and table.monomial_parity(m) == 1])


# -- the bidegree enumerator against the filter it replaced ------------------


def filter_basis_oracle(table, weight, parity, cap):
    """What monomial_basis used to run: every monomial of degree <= cap,
    sorted, then filtered by bidegree.  Kept as the reference for the
    enumerator."""
    return [m for m in monomials_of_degree_at_most(table, cap)
            if table.monomial_weight(m) == weight and table.monomial_parity(m) == parity]


def basis_panel(seed):
    """Named generator tables for one seed, each with a degree cap: the
    weight and parity patterns the enumerator's pruning must get right."""
    rng = random.Random(8000 + seed)

    def table(specs):
        return GeneratorTable([Generator(f"g{i}", w, p) for i, (w, p) in enumerate(specs)])

    def draw(n, weights, parities=(EVEN, ODD)):
        return [(rng.choice(weights), rng.choice(parities)) for _ in range(n)]

    mixed = draw(rng.randint(2, 5), range(-3, 4))
    yield "mixed signs", table(mixed), rng.randint(1, 6)
    zero_even = draw(rng.randint(1, 4), range(-2, 3))
    zero_even.insert(rng.randint(0, len(zero_even)), (0, EVEN))
    yield "even of weight 0", table(zero_even), rng.randint(1, 6)
    yield "all odd", table(draw(rng.randint(1, 7), range(-2, 4), (ODD,))), rng.randint(1, 8)
    positive = draw(rng.randint(1, 4), range(1, 4), (EVEN,))
    yield "all even, positive", table(positive), rng.randint(1, 7)
    yield "empty table", table([]), rng.randint(0, 3)
    yield "cap 0", table(draw(rng.randint(1, 4), range(-2, 3))), 0


@pytest.mark.parametrize("seed", range(25))
def test_monomial_basis_matches_filter_oracle(seed):
    sizes = []
    for name, table, cap in basis_panel(seed):
        for weight in range(-7, 8):
            for parity in (EVEN, ODD):
                expected = filter_basis_oracle(table, weight, parity, cap)
                assert monomial_basis(table, weight, parity, cap) == expected, \
                    (name, table, weight, parity, cap)
                sizes.append(len(expected))
    assert 0 in sizes and max(sizes) > 1, "the panel should hold empty and larger bases"


# -- the window walk against the per-bidegree walk it replaced ----------------


def oracle_weight_bounds(table, cap):
    """What core._suffix_weight_bounds ran before it built plain lists:
    entry i is (lo, hi), the least and greatest weight of a monomial of
    degree <= d in the generators from position i on, d = 0..cap."""
    bounds = [([0] * (cap + 1), [0] * (cap + 1))]
    top = bottom = 0
    odds = []
    for w, p in zip(reversed(table.weights), reversed(table.parities)):
        if p == ODD:
            insort(odds, w)
        else:
            top, bottom = max(top, w), min(bottom, w)
        up = chain((x for x in reversed(odds) if x > top), repeat(top))
        down = chain((x for x in odds if x < bottom), repeat(bottom))
        bounds.append((list(accumulate(islice(down, cap), initial=0)),
                       list(accumulate(islice(up, cap), initial=0))))
    bounds.reverse()
    return bounds


def walk_basis_oracle(table, weight, parity, cap):
    """What monomial_basis ran before the window walk: one depth-first walk
    per bidegree, cut when the residual weight leaves the suffix bounds or
    no odd generator is left and the parity is wrong."""
    if cap < 0:
        return []
    n = len(table)
    weights, parities = table.weights, table.parities
    bounds = oracle_weight_bounds(table, cap)
    odd_left = [ODD in parities[i:] for i in range(n + 1)]
    results = []
    exps = [0] * n

    def rec(i, budget, residual, par):
        w = weights[i]
        odd = parities[i] == ODD
        lo, hi = bounds[i + 1]
        free = odd_left[i + 1]
        last = i + 1 == n
        for e in range(min(1, budget) + 1 if odd else budget + 1):
            b = budget - e
            r = residual - e * w
            if lo[b] <= r <= hi[b]:
                p = par ^ e if odd else par
                if free or p == parity:
                    exps[i] = e
                    if last:
                        results.append(tuple(exps))
                    else:
                        rec(i + 1, b, r, p)

    lo, hi = bounds[0]
    if lo[cap] <= weight <= hi[cap] and (odd_left[0] or parity == EVEN):
        if n:
            rec(0, cap, weight, EVEN)
        else:
            results.append(())
    return results


@pytest.mark.parametrize("seed", range(6))
def test_window_walk_matches_per_bidegree_walk(seed):
    """Every bucket of one monomial_bases walk, and every monomial_basis
    call, equals the per-bidegree walk's list, in order, on odd, even,
    mixed-sign, weight-0 and empty tables, over windows that cross negative
    weights, with caps -1..6 grown by 0, 1 or 2 per weight."""
    rng = random.Random(8700 + seed)
    sizes = []
    for name, table, in panels.window_tables(rng):
        assert core._suffix_weight_bounds(table, 9) == oracle_weight_bounds(table, 9), name
        for cap in range(-1, 7):
            for growth in (0, 1, 2):
                w_min = rng.randint(-4, 1)
                w_max = w_min + rng.randint(0, 4)
                caps = {w: cap + growth * (w - w_min + 1) for w in range(w_min - 1, w_max + 2)}
                bases = monomial_bases(table, caps)
                assert list(bases) == [(w, p) for w in sorted(caps) for p in (EVEN, ODD)]
                for (w, p), basis in bases.items():
                    expected = walk_basis_oracle(table, w, p, caps[w])
                    assert basis == expected, (name, table, caps, w, p)
                    assert monomial_basis(table, w, p, caps[w]) == expected
                    sizes.append(len(expected))
    assert 0 in sizes and max(sizes) > 10, "the panel should hold empty and larger bases"


@pytest.mark.parametrize("caps", [{0: 2, 2: 2}, {0: 3, 1: 2}, {-1: 1, 0: 4, 1: 3}])
def test_window_walk_takes_a_window_of_nondecreasing_caps(table, caps):
    with pytest.raises(AlgebraError, match="degree caps must cover a window"):
        monomial_bases(table, caps)
    assert monomial_bases(table, {}) == {}


def test_monomial_basis_below_degree_zero_is_empty(table):
    assert monomial_basis(table, 0, EVEN, -1) == []
    assert monomial_basis(GeneratorTable([]), 0, EVEN, -1) == []
    assert monomial_basis(GeneratorTable([]), 0, EVEN, 0) == [()]


@pytest.mark.parametrize("parity", [-1, 2, "odd", None])
def test_monomial_basis_takes_parity_0_or_1(table, parity):
    with pytest.raises(AlgebraError, match="parity must be 0 or 1"):
        monomial_basis(table, 1, parity, 3)


def test_weight_degree_bound_finite_for_positive_weights():
    tab = GeneratorTable([Generator("u", 2, 0), Generator("v", 3, 1)])
    bound = weight_degree_bound(tab, 6)
    assert bound is not None
    # u^3 realizes weight 6 with degree 3; nothing of higher degree fits
    assert bound == 3


def test_weight_degree_bound_none_with_weight_zero_generator(table):
    assert weight_degree_bound(table, 1) is None


def weight_degree_bound_oracle(table, weight):
    """The walk over all 2^k subsets of the k odd generators that
    core.weight_degree_bound made before its subset-sum table."""
    even_weights = [table.weights[i] for i in range(len(table)) if table.parities[i] == EVEN]
    if any(w == 0 for w in even_weights):
        return None
    if any(w > 0 for w in even_weights) and any(w < 0 for w in even_weights):
        return None
    odd_weights = [table.weights[i] for i in table.odd_positions]
    best = None

    def feasible_even_degree(residual):
        if residual == 0:
            return 0
        if not even_weights:
            return None
        if all(w > 0 for w in even_weights):
            if residual < 0:
                return None
            return residual // min(even_weights)
        if residual > 0:
            return None
        return (-residual) // min(-w for w in even_weights)

    for mask in range(1 << len(odd_weights)):
        size = 0
        wsum = 0
        for i, w in enumerate(odd_weights):
            if mask >> i & 1:
                size += 1
                wsum += w
        even_deg = feasible_even_degree(weight - wsum)
        if even_deg is None:
            continue
        cand = size + even_deg
        if best is None or cand > best:
            best = cand
    if best is None:
        return -1
    return best


@pytest.mark.parametrize("seed", range(25))
def test_weight_degree_bound_matches_subset_oracle(seed):
    """Odd weights of both signs and 0, with even weights absent, all
    positive, all negative, of mixed sign or 0."""
    rng = random.Random(3100 + seed)
    seen = set()
    for evens in ([], [1, 2], [2, 3, 5], [-1, -4], [-2, -3], [2, -1], [0, 3]):
        odd = [rng.randint(-4, 4) for _ in range(rng.randint(0, 10))]
        gens = [Generator(f"x{i}", w, EVEN) for i, w in enumerate(evens)]
        gens += [Generator(f"y{i}", w, ODD) for i, w in enumerate(odd)]
        rng.shuffle(gens)
        table = GeneratorTable(gens)
        for weight in range(-12, 13):
            bound = weight_degree_bound(table, weight)
            assert bound == weight_degree_bound_oracle(table, weight), (evens, odd, weight)
            seen.add("none" if bound is None else "empty" if bound < 0 else "finite")
    assert seen == {"none", "empty", "finite"}


@pytest.mark.parametrize("text", ["abc", "1/0", "1/", "", "1.5", "1e3", "-2.5e-1",
                                  "1e1000000", " 1", "1_000", "1/-2", "9" * 5000])
def test_an_unreadable_scalar_string_is_an_algebra_error(table, text):
    """A string is read only as an optional sign, digits and optionally
    /digits: no decimal point or exponent, which Fraction() would expand
    exactly, and no literal longer than int() reads."""
    with pytest.raises(AlgebraError, match=re.escape(f"not an exact rational: {text!r}")):
        as_scalar(text)
    with pytest.raises(AlgebraError):
        Element.scalar(table, text)


@pytest.mark.parametrize("value", [True, False, 0.5, 0.1, 1.0, None, [1]])
def test_a_bool_or_a_float_is_no_scalar(table, value):
    """The type is compared exactly, as for parities: True is not 1, and 0.1
    is not read as its binary expansion."""
    with pytest.raises(AlgebraError, match=re.escape(f"not an exact rational: {value!r}")):
        as_scalar(value)
    x = Element.generator(table, "x")
    for build in (lambda: Element.scalar(table, value), lambda: x * value,
                  lambda: x + value):
        with pytest.raises((AlgebraError, TypeError)):
            build()
    assert x != value


def test_scalar_strings_in_the_rational_grammar():
    assert [as_scalar(text) for text in ("7", "-3/7", "+2", "4/2", "007", "-0")] == [
        7, Fraction(-3, 7), 2, 2, 7, 0]


@pytest.mark.parametrize("seed", range(6))
def test_power_by_squaring_is_repeated_multiplication(table, seed):
    """x ** e, by repeated squaring, equals the product of e copies of x, on
    seeded multi-term elements over even and odd generators."""
    rng = random.Random(700 + seed)
    x = sampling.random_element(rng, table, max_degree=2) + parse(table, "1 - y + 2 * xi")
    power = Element.one(table)
    for e in range(13):
        assert x ** e == power, e
        power = power * x


def test_a_large_exponent_takes_a_few_squarings(table):
    """The parser's ^ squares its way to the power: x^99999999 is 27
    squarings, not 99999999 products."""
    assert parse(table, "x^99999999").terms == {(99999999, 0, 0, 0): 1}
    assert parse(table, "(xi + x)^3") == parse(table, "x^3 + 3 * x^2 * xi")


@pytest.mark.parametrize("value, parity", [(0, EVEN), (1, ODD), ("0", EVEN), ("1", ODD),
                                           ("even", EVEN), ("odd", ODD)])
def test_parity_of_reads_six_spellings(value, parity):
    assert parity_of(value) == parity


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, Fraction(1), 2, "2", "Even", None])
def test_parity_of_rejects_other_values(value):
    """The type is compared exactly: True and 1.0 are not the parity 1."""
    with pytest.raises(AlgebraError,
                       match=re.escape(f"parity must be 'even' or 'odd', got {value!r}")):
        parity_of(value)


@pytest.mark.parametrize("text", ["9" * 5000 + " * x", "x^" + "9" * 5000, "1/" + "9" * 5000])
def test_an_over_long_number_in_an_expression_is_a_parse_error(table, text):
    with pytest.raises(ParseError, match="characters is too long"):
        parse(table, text)


def test_a_generator_table_takes_generators_only():
    with pytest.raises(AlgebraError, match="Generator entries only"):
        GeneratorTable([Generator("x", 0, 0), ("y", 1, "odd")])


def test_algebra_map_checks_bidegrees(table):
    target = GeneratorTable([Generator("u", 0, 0), Generator("th", 1, 1)])
    AlgebraMap(table, target, {
        "x": Element.generator(target, "u"),
        "y": Element.generator(target, "u") * 2,
        "xi": Element.generator(target, "th"),
        "eta": Element.zero(target),
    })
    with pytest.raises(AlgebraError):
        AlgebraMap(table, target, {
            "x": Element.generator(target, "th"),
            "y": Element.zero(target),
            "xi": Element.zero(target),
            "eta": Element.zero(target),
        })


@pytest.mark.parametrize("seed", range(10))
def test_algebra_maps_are_multiplicative(table, seed):
    rng = random.Random(4000 + seed)
    target = GeneratorTable([Generator("u", 0, 0), Generator("th", 1, 1)])
    u = Element.generator(target, "u")
    th = Element.generator(target, "th")
    f = AlgebraMap(table, target, {
        "x": u, "y": u * u, "xi": th, "eta": th * Fraction(1, 2),
    })
    a = sampling.random_element(rng, table)
    b = sampling.random_element(rng, table)
    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)


def test_identity_and_composition(table):
    ident = identity_map(table)
    rng = random.Random(9)
    a = sampling.random_element(rng, table)
    assert ident(a) == a
    assert compose_maps(ident, ident)(a) == a


# -- algebra maps against the factor-by-factor evaluation they replaced --------


def algebra_map_oracle(f, element):
    """What AlgebraMap.__call__ used to run: each monomial's image built one
    generator factor at a time, from the scalar up, in Element arithmetic.
    Kept as the reference for the term-dict kernel."""
    out = Element.zero(f.target)
    for mono, c in element.terms.items():
        acc = Element.scalar(f.target, c)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            img = f.images[i]
            for _ in range(e):
                acc = acc * img
                if acc.is_zero():
                    break
            if acc.is_zero():
                break
        out = out + acc
    return out


def algebra_map_panel(seed):
    """A map into a larger table and elements to send through it.

    g0 and g1 are odd and share the image theta = h0 + h1 with h0, h1 odd, so
    theta * theta cancels; g2 is odd with a random image, so products of the
    images pick up Koszul signs; the rest get a zero image, a random image or
    a sum of target generators.  Even exponents go up to 4.
    """
    rng = random.Random(9000 + seed)
    specs = [(rng.randint(-2, 3), ODD) for _ in range(3)]
    specs += [(rng.randint(-2, 3), rng.choice((EVEN, ODD))) for _ in range(rng.randint(1, 3))]
    source = GeneratorTable([Generator(f"g{i}", w, p) for i, (w, p) in enumerate(specs)])
    tspecs = [(0, ODD), (1, ODD)] + [(rng.randint(-2, 3), rng.choice((EVEN, ODD)))
                                    for _ in range(len(specs) + rng.randint(0, 2))]
    target = GeneratorTable([Generator(f"h{i}", w, p) for i, (w, p) in enumerate(tspecs)])
    theta = Element.generator(target, "h0") + Element.generator(target, "h1")
    images = {"g0": theta, "g1": theta,
              "g2": sampling.random_element(rng, target, max_degree=2, terms=3)}
    for g in source.generators[3:]:
        kind = rng.choice(("zero", "random", "random", "sum"))
        if kind == "zero":
            images[g.name] = Element.zero(target)
        elif kind == "random":
            images[g.name] = sampling.random_element(rng, target, max_degree=2, terms=3)
        else:
            names = rng.sample(target.names, 2)
            images[g.name] = (Element.generator(target, names[0])
                              - Element.generator(target, names[1]) * sampling.random_scalar(rng))
    f = AlgebraMap(source, target, images, check=False)

    def random_monomial():
        # g1 left out: any monomial with g0 * g1 maps to zero
        return (rng.randint(0, 1), 0) + tuple(rng.randint(0, 1) if p == ODD else rng.randint(0, 4)
                                              for _, p in specs[2:])

    elements = [Element.monomial(source, (1, 1) + (0,) * (len(specs) - 2))]
    # every odd generator but g1: the odd images multiply in table order
    odd_product = tuple(1 if p == ODD and i != 1 else 0 for i, (_, p) in enumerate(specs))
    elements.append(Element.monomial(source, odd_product, 3))
    for _ in range(4):
        a = Element.zero(source)
        for _ in range(rng.randint(1, 6)):
            a = a + Element.monomial(source, random_monomial(), sampling.random_scalar(rng))
        elements.append(a)
    return f, elements


@pytest.mark.parametrize("seed", range(25))
def test_algebra_map_matches_factor_oracle(seed):
    f, elements = algebra_map_panel(seed)
    sizes = []
    for a in elements:
        value = f(a)
        assert value.table == f.target
        assert value == algebra_map_oracle(f, a), (seed, a)
        assert all(c != 0 for c in value.terms.values())
        sizes.append(len(value.terms))
    assert sizes[0] == 0, "theta * theta cancels"
    assert max(sizes) > 1


# -- table extensions ----------------------------------------------------------


@pytest.fixture
def extension(table):
    return TableExtension(table, [Generator("s", 0, 0), Generator("ds", 1, 1)])


@pytest.mark.parametrize("seed", range(5))
def test_extension_include_restrict_round_trip(table, extension, seed):
    a = sampling.random_element(random.Random(4100 + seed), table)
    lifted = extension.include(a)
    assert lifted.table == extension.table
    assert all(extension.extension_degree(m) == 0 for m in lifted.terms)
    assert extension.restrict(lifted) == a
    assert extension.project(lifted) == a


def test_extension_restrict_rejects_new_generators(table, extension):
    x = extension.include(Element.generator(table, "x"))
    with pytest.raises(AlgebraError, match="'ds'"):
        extension.restrict(x + x * Element.generator(extension.table, "ds"))
    with pytest.raises(AlgebraError):
        extension.include(x)


def test_extension_project_sends_new_generators_to_zero(table, extension):
    x = Element.generator(table, "x")
    s = Element.generator(extension.table, "s")
    ds = Element.generator(extension.table, "ds")
    value = extension.include(x) * 3 + s * extension.include(x) + ds - s * ds + 1
    assert extension.project(value) == x * 3 + 1


def test_extension_degree_counts_new_exponents(table, extension):
    s = Element.generator(extension.table, "s")
    ds = Element.generator(extension.table, "ds")
    xi = extension.include(Element.generator(table, "xi"))
    (mono,) = (xi * s ** 3 * ds).terms
    assert extension.extension_degree(mono) == 4
    (mono,) = xi.terms
    assert extension.extension_degree(mono) == 0


def test_d_generators_shift_each_bidegree(table):
    gens = TableExtension.d_generators(table, 1, 1)
    assert [(g.name, g.weight, g.parity) for g in gens] == [
        ("dx", 1, 1), ("dy", 1, 1), ("dxi", 2, 0), ("deta", 2, 0),
    ]
    assert TableExtension(table, gens).table.names[4:] == ("dx", "dy", "dxi", "deta")
