"""Seeded random elements and derivations for property panels.

Every generator here is driven by a caller-supplied random.Random instance,
so panels are reproducible from a single seed.  Coefficients are small
rationals, of denominator 1 to 3, which the element constructors keep as
`core.as_scalar` gives them: an int when integral, else a Fraction.
"""

from __future__ import annotations

import random

from .core import (
    Element,
    GeneratorTable,
    _quotient,
    monomial_basis,
    monomials_of_degree_at_most,
)
from .dg import Derivation


def random_scalar(rng: random.Random, span: int = 5) -> int | Fraction:
    """A nonzero-biased small rational: integer numerator, denominator 1..3,
    in the form `core.as_scalar` gives."""
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return _quotient(num, den)


def _draw(rng: random.Random, table: GeneratorTable, pool: list,
          terms: int) -> Element:
    """The sum of `terms` draws of a monomial from `pool` times a random
    scalar; zero, with no draw, when the pool is empty."""
    out = Element.zero(table)
    for _ in range(terms if pool else 0):
        exps = rng.choice(pool)
        coeff = random_scalar(rng)
        if coeff:
            out = out + Element.monomial(table, exps, coeff)
    return out


def random_element(rng: random.Random, table: GeneratorTable,
                   max_degree: int = 3, terms: int = 4) -> Element:
    """A random, generally inhomogeneous element of degree <= max_degree."""
    return _draw(rng, table, monomials_of_degree_at_most(table, max_degree), terms)


def random_homogeneous(rng: random.Random, table: GeneratorTable,
                       weight: int, parity: int, cap: int = 4,
                       terms: int = 3) -> Element:
    """A random element homogeneous of the given bidegree (possibly zero)."""
    return _draw(rng, table, monomial_basis(table, weight, parity, cap), terms)


def random_derivation(rng: random.Random, table: GeneratorTable,
                      weight_shift: int, parity_shift: int,
                      cap: int = 4, terms: int = 2) -> Derivation:
    """A random derivation of the stated bidegree on a free algebra."""
    images = {}
    for gen in table.generators:
        w = gen.weight + weight_shift
        p = (gen.parity + parity_shift) % 2
        images[gen.name] = random_homogeneous(rng, table, w, p, cap, terms)
    return Derivation(table, images, weight_shift, parity_shift)
