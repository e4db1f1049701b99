"""Supercommutative polynomial algebras over Q with an exact Koszul sign calculus.

Generators carry a bidegree (weight in Z, parity in Z/2).  Even generators
commute with everything; odd generators anticommute among themselves, so odd
squares vanish identically over Q.  Every element is a finite Q-linear
combination of canonical monomials: generators in declaration order, odd
exponents at most 1.  All arithmetic routes through the canonical form, so
equality is dictionary equality and printing is deterministic.

Every coefficient, like every matrix entry of `linalg` and `model`, is an
int when integral and a Fraction otherwise: `as_scalar` puts a scalar in
that form, arithmetic keeps it, and `_quotient` divides within it.  The
`fractions` module, with the `decimal` and `numbers` it imports, loads with
the first Fraction: `_quotient` is the one place sdga builds one from
ints, and `_is_fraction` asks for one without loading the module, so a
request whose scalars all stay integral never loads it.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right, insort
from itertools import accumulate, compress
from operator import add

EVEN = 0
ODD = 1

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# an unsigned rational as text: digits, optionally /digits
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(r"[-+]?" + _NUMBER)


class AlgebraError(ValueError):
    """Raised for malformed tables, inhomogeneous data or parity violations."""


class StructureError(AlgebraError):
    """Malformed structure, not a failed check: a block of the wrong shape,
    or maps whose sources and targets do not fit together."""


def parity_of(value: str | int) -> int:
    """A parity given as 0, 1, "0", "1", "even" or "odd"."""
    # type(), not isinstance: true and 1.0 are not the parity 1
    if type(value) in (int, str):
        if value in (EVEN, "0", "even"):
            return EVEN
        if value in (ODD, "1", "odd"):
            return ODD
    raise AlgebraError(f"parity must be 'even' or 'odd', got {value!r}")


def parity_name(parity: int) -> str:
    return "odd" if parity & 1 else "even"


def _is_fraction(x, exact: bool = False) -> bool:
    """Whether x is a Fraction (of that very class, not a subclass, when
    exact), asked without importing `fractions`: while it is not loaded, no
    Fraction exists."""
    fractions = sys.modules.get("fractions")
    if fractions is None:
        return False
    return type(x) is fractions.Fraction if exact else isinstance(x, fractions.Fraction)


def _rational(text: str) -> int | Fraction:
    """text as an optional sign, digits and optionally /digits, in the form
    `as_scalar` gives, the one reader of a string as a scalar: a decimal
    point or an exponent, which Fraction() would expand exactly, is a
    ValueError, as is a literal longer than int() reads, and a zero
    denominator a ZeroDivisionError."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    num, _, den = text.partition("/")
    return _quotient(int(num), int(den)) if den else int(num)


def as_scalar(value) -> int | Fraction:
    """An int, a Fraction or a 'p' or 'p/q' string in the one scalar form: an
    int when integral, else a Fraction.  Anything else, a bool or a float
    among them, is an AlgebraError."""
    # type(), not isinstance: True is no scalar, as it is no parity
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return _rational(value)
        except (ValueError, ZeroDivisionError):
            pass
    if not _is_fraction(value, exact=True):
        raise AlgebraError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def _quotient(a: int | Fraction, b: int) -> int | Fraction:
    """a / b in that form, for a in it and a nonzero int b: the one rule for
    a true division of coefficients, since an int / int is a float, and the
    one place sdga builds a Fraction from ints."""
    if type(a) is int and not a % b:
        return a // b
    fractions = sys.modules.get("fractions")  # a lookup costs less than an import
    if fractions is None:
        import fractions
    return fractions.Fraction(a, b)


def _as_scalars(values: dict) -> dict:
    """Each value of a dict put in the form `as_scalar` gives, in place: the
    products and sums of scalars in that form go back into it here."""
    for key, x in values.items():
        if type(x) is not int:
            values[key] = as_scalar(x)
    return values


class Generator:
    """A named generator of bidegree (weight, parity); immutable and hashable."""

    __slots__ = ("name", "weight", "parity")

    def __init__(self, name: str, weight: int, parity: int):
        if not _IDENT_RE.match(name):
            raise AlgebraError(f"generator name {name!r} is not an identifier")
        if parity not in (EVEN, ODD):
            raise AlgebraError(f"generator {name!r}: parity must be 0 or 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of a Generator")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of a Generator")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.weight, self.parity) == (other.name, other.weight, other.parity)

    def __hash__(self) -> int:
        return hash((self.name, self.weight, self.parity))

    def __repr__(self) -> str:
        return f"Generator(name={self.name!r}, weight={self.weight!r}, parity={self.parity!r})"

    def __reduce__(self):
        return (Generator, (self.name, self.weight, self.parity))


class GeneratorTable:
    """Ordered table of generators; the order is the canonical monomial order.

    Names beginning with 'd' followed by another declared name are reserved for
    differential generators; user tables reject them, and the constructions
    that legitimately pair g with dg pass allow_d_names=True.
    """

    def __init__(self, generators, even_mode: bool = False, allow_d_names: bool = False):
        gens = list(generators)
        if not all(isinstance(g, Generator) for g in gens):
            raise AlgebraError("a generator table holds Generator entries only")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        name_set = set(names)
        if not allow_d_names:
            for name in names:
                if name.startswith("d") and name[1:] in name_set:
                    raise AlgebraError(
                        f"name {name!r} collides with the reserved form prefix for {name[1:]!r}"
                    )
        if even_mode:
            for g in gens:
                if (g.weight - g.parity) % 2 != 0:
                    raise AlgebraError(
                        f"even_mode requires parity == weight mod 2; {g.name} has "
                        f"weight {g.weight} and parity {parity_name(g.parity)}"
                    )
        self.generators: tuple[Generator, ...] = tuple(gens)
        self.even_mode = even_mode
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {name: i for i, name in enumerate(names)}
        self.weights: tuple[int, ...] = tuple(g.weight for g in gens)
        self.parities: tuple[int, ...] = tuple(g.parity for g in gens)
        self.odd_positions: tuple[int, ...] = tuple(
            i for i, g in enumerate(gens) if g.parity == ODD
        )

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorTable)
            and self.generators == other.generators
            and self.even_mode == other.even_mode
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.even_mode))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{g.name}:({g.weight},{parity_name(g.parity)})" for g in self.generators
        )
        return f"GeneratorTable[{inner}]"

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def monomial_weight(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def monomial_parity(self, exps: tuple[int, ...]) -> int:
        return sum(exps[i] for i in self.odd_positions) & 1

    def monomial_degree(self, exps: tuple[int, ...]) -> int:
        return sum(exps)


def _mul_monomials(table: GeneratorTable, e1: tuple[int, ...], e2: tuple[int, ...]):
    """Koszul-signed product of canonical monomials.

    Returns (sign, exponents) or None when an odd generator would square.
    The sign counts transpositions of odd factors of e2 moving left past the
    odd factors of e1 that sit at strictly later table positions.
    """
    crossings = 0
    suffix = 0
    for i in reversed(table.odd_positions):
        if e2[i]:
            if e1[i]:
                return None
            crossings += suffix
        if e1[i]:
            suffix += 1
    return (-1 if crossings & 1 else 1), tuple(map(add, e1, e2))


# -- the term-dict kernel -------------------------------------------------------
#
# A term dict maps canonical exponent tuples to nonzero scalars.  Element
# arithmetic, algebra maps, derivations and the linear extensions in
# `simplicial` all run on these two routines, with no Element built per
# intermediate product.


def _mul_terms(table: GeneratorTable, t1: dict, t2: dict) -> dict:
    """The product of two term dicts over `table`; cancelled terms are dropped."""
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            hit = _mul_monomials(table, m1, m2)
            if hit is None:
                continue
            sign, exps = hit
            c = c1 * c2 if sign > 0 else -c1 * c2
            acc = terms.get(exps, None)
            if acc is None:
                terms[exps] = c
            else:
                acc = acc + c
                if acc == 0:
                    del terms[exps]
                else:
                    terms[exps] = acc
    return _as_scalars(terms)


def _add_into(terms: dict, other: dict, scale=1) -> dict:
    """Add scale * other into `terms` in place and return it.

    A sum that cancels is deleted, and a zero scale adds nothing, so no zero
    coefficient is ever stored (other's coefficients are nonzero, as in every
    term dict).
    """
    if scale == 0:
        return terms
    items = other.items() if scale == 1 else ((m, c * scale) for m, c in other.items())
    for mono, c in items:
        acc = terms.get(mono, None)
        if acc is not None:
            c = acc + c
            if c == 0:
                del terms[mono]
                continue
        terms[mono] = c if type(c) is int else as_scalar(c)
    return terms


class Element:
    """An element of the free graded-commutative algebra on a GeneratorTable."""

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: dict[tuple[int, ...], int | Fraction]):
        self.table = table
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: GeneratorTable) -> "Element":
        return Element(table, {})

    @staticmethod
    def scalar(table: GeneratorTable, value) -> "Element":
        c = as_scalar(value)
        if c == 0:
            return Element(table, {})
        return Element(table, {(0,) * len(table): c})

    @staticmethod
    def one(table: GeneratorTable) -> "Element":
        return Element.scalar(table, 1)

    @staticmethod
    def generator(table: GeneratorTable, name: str) -> "Element":
        exps = [0] * len(table)
        exps[table.position(name)] = 1
        return Element(table, {tuple(exps): 1})

    @staticmethod
    def monomial(table: GeneratorTable, exps: tuple[int, ...], coeff=1) -> "Element":
        c = as_scalar(coeff)
        if c == 0:
            return Element(table, {})
        if len(exps) != len(table):
            raise AlgebraError("exponent tuple length does not match the table")
        if any(e < 0 for e in exps):
            raise AlgebraError("negative exponent")
        for i in table.odd_positions:
            if exps[i] >= 2:
                return Element(table, {})
        return Element(table, {tuple(exps): c})

    # -- ring structure ----------------------------------------------------

    def _require_same_table(self, other: "Element"):
        if self.table != other.table:
            raise AlgebraError("elements live over different generator tables")

    # Element by Element first in each operator, so that it asks no scalar test

    def __add__(self, other):
        if not isinstance(other, Element):
            if not (isinstance(other, int) or _is_fraction(other)):
                return NotImplemented
            other = Element.scalar(self.table, other)
        self._require_same_table(other)
        return Element(self.table, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Element(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            if not (isinstance(other, int) or _is_fraction(other)):
                return NotImplemented
            other = Element.scalar(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same_table(other)
            return Element(self.table, _mul_terms(self.table, self.terms, other.terms))
        if isinstance(other, int) or _is_fraction(other):
            return Element(self.table, _add_into({}, self.terms, as_scalar(other)))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int) or _is_fraction(other):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        """By repeated squaring: the powers of one element commute, so the
        product of the squares the exponent's bits pick is self ** exponent."""
        if not isinstance(exponent, int) or exponent < 0:
            raise AlgebraError("exponents must be non-negative integers")
        result, square = Element.one(self.table), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            if not (type(other) is int or _is_fraction(other, exact=True)):
                return NotImplemented
            other = Element.scalar(self.table, other)
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -----------------------------------------------------------

    def degree(self) -> int:
        """Total polynomial degree (0 for the zero element)."""
        if not self.terms:
            return 0
        return max(self.table.monomial_degree(m) for m in self.terms)

    def homogeneous_components(self) -> dict[tuple[int, int], "Element"]:
        """Split by (weight, parity)."""
        parts: dict[tuple[int, int], dict] = {}
        for mono, c in self.terms.items():
            key = (self.table.monomial_weight(mono), self.table.monomial_parity(mono))
            parts.setdefault(key, {})[mono] = c
        return {key: Element(self.table, terms) for key, terms in parts.items()}

    def bidegree(self) -> tuple[int, int] | None:
        """(weight, parity) of a homogeneous element, None for zero or mixed."""
        comps = self.homogeneous_components()
        if len(comps) != 1:
            return None
        return next(iter(comps))

    def parity(self) -> int:
        bid = self.bidegree()
        if bid is None:
            raise AlgebraError("parity of a zero or inhomogeneous element")
        return bid[1]

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.table), 0)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<{render(self)}>"


def partial(element: Element, name: str) -> Element:
    """Left partial derivative with respect to a generator.

    For an odd generator the factor is moved to the front of the monomial,
    collecting a Koszul sign from each odd factor it passes, then struck; this
    is why d/dxi2 (xi1*xi2) = -xi1.
    """
    table = element.table
    return Element(table, _strike(table, element.terms, table.position(name)))


def _strike(table: GeneratorTable, terms: dict, pos: int) -> dict:
    """The left partial derivative of a term dict in the generator at `pos`:
    one factor struck from each monomial that has one, with coefficient its
    exponent (even) or the Koszul sign of the odd factors before it (odd).
    Distinct monomials stay distinct once struck, so nothing cancels."""
    out: dict[tuple[int, ...], int | Fraction] = {}
    odd = table.parities[pos]
    for mono, c in terms.items():
        e = mono[pos]
        if e:
            head = mono[:pos]
            key = head + (e - 1,) + mono[pos + 1:]
            if odd:
                # parities are 1 exactly at the odd positions
                out[key] = -c if sum(compress(head, table.parities)) & 1 else c
            else:
                out[key] = c * e
    return out if odd else _as_scalars(out)


# -- table extensions ---------------------------------------------------------


class TableExtension:
    """The free algebra on a base table plus new generators placed after it.

    An exponent tuple of the extension table is a base tuple followed by the
    exponents of the new generators, so the base algebra includes by padding
    with zeros, and an element free of the new generators restricts by
    slicing.  Every construction that adjoins generators to a table builds on
    this: Kahler differentials, square-zero extensions, forms, cylinders and
    coefficient-tensored simplex forms.
    """

    def __init__(self, base: GeneratorTable, new_generators):
        self.base = base
        self.nbase = len(base)
        self.table = GeneratorTable(list(base.generators) + list(new_generators),
                                    allow_d_names=True)
        self._pad = (0,) * (len(self.table) - self.nbase)

    @staticmethod
    def d_generators(base: GeneratorTable, weight_shift: int, parity_shift: int):
        """A generator dg of bidegree shifted by (weight_shift, parity_shift) per g."""
        return [
            Generator("d" + g.name, g.weight + weight_shift, (g.parity + parity_shift) % 2)
            for g in base.generators
        ]

    def include(self, element: Element) -> Element:
        """The base algebra into the extension."""
        if element.table != self.base:
            raise AlgebraError("element is not over the base table")
        pad = self._pad
        return Element(self.table, {m + pad: c for m, c in element.terms.items()})

    def restrict(self, element: Element) -> Element:
        """An extension element free of the new generators back to the base."""
        n = self.nbase
        terms = {}
        for m, c in element.terms.items():
            if any(m[n:]):
                name = self.table.names[next(i for i in range(n, len(m)) if m[i])]
                raise AlgebraError(f"element contains the extension generator {name!r}")
            terms[m[:n]] = c
        return Element(self.base, terms)

    def project(self, element: Element) -> Element:
        """The extension onto the base, every new generator sent to 0."""
        n = self.nbase
        terms = {m[:n]: c for m, c in element.terms.items() if not any(m[n:])}
        return Element(self.base, terms)

    def extension_degree(self, mono: tuple[int, ...]) -> int:
        """Total exponent of the new generators in a monomial."""
        return sum(mono[self.nbase:])


# -- algebra maps -----------------------------------------------------------


def _image_table(source: GeneratorTable, target: GeneratorTable, images: dict,
                 shift: tuple[int, int] | None, default=None) -> tuple[Element, ...]:
    """The images over `target` of `source`'s generators, in table order, of
    an algebra map or a derivation given on generators.  An int or Fraction
    is that scalar, a generator `images` lacks takes `default`, an error
    when None, and a name that is no generator is an error.  Given a
    (weight, parity) shift, each nonzero image must be homogeneous of its
    generator's bidegree moved by that shift."""
    for name in images:
        if name not in source.index:
            raise AlgebraError(f"image given for unknown generator {name!r}")
    out = []
    for g in source.generators:
        img = images.get(g.name, default)
        if img is None:
            raise AlgebraError(f"no image given for generator {g.name!r}")
        if isinstance(img, int) or _is_fraction(img):
            img = Element.scalar(target, img)
        if img.table != target:
            raise AlgebraError(f"image of {g.name!r} lives over the wrong table")
        if shift is not None and img.terms:
            bid = img.bidegree()
            if bid is None:
                raise AlgebraError(f"image of {g.name!r} is not homogeneous")
            expected = (g.weight + shift[0], (g.parity + shift[1]) % 2)
            if bid != expected:
                raise AlgebraError(
                    f"image of {g.name!r} has bidegree {bid}, expected {expected}"
                )
        out.append(img)
    return tuple(out)


class AlgebraMap:
    """Algebra homomorphism determined by generator images.

    With check=True (the default) each image must be zero or homogeneous of
    the same bidegree as its generator, so the map preserves the grading.

    A call works on term dicts: each monomial c * g_0^e_0 * ... * g_k^e_k is
    sent to c times the product, in table order, of the powers img_i^e_i,
    each power built once per call from the one below it and shared by every
    monomial that needs it.  The images land in one output dict, where a
    cancelling sum is deleted, so no zero coefficient is ever stored.
    """

    def __init__(self, source: GeneratorTable, target: GeneratorTable,
                 images: dict[str, Element], check: bool = True):
        self.source = source
        self.target = target
        self.images = _image_table(source, target, images, (0, EVEN) if check else None)

    def image_of(self, name: str) -> Element:
        return self.images[self.source.position(name)]

    def __call__(self, element: Element) -> Element:
        if element.table != self.source:
            raise AlgebraError("element is not over the source table")
        target = self.target
        images = self.images
        # powers[i] lists the term dicts of img_i^1 .. img_i^k met so far
        powers: dict[int, list[dict]] = {}
        out: dict[tuple[int, ...], int | Fraction] = {}
        for mono, c in element.terms.items():
            acc = None
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                pw = powers.get(i)
                if pw is None:
                    pw = powers[i] = [images[i].terms]
                while len(pw) < e:
                    pw.append(_mul_terms(target, pw[-1], images[i].terms))
                acc = pw[e - 1] if acc is None else _mul_terms(target, acc, pw[e - 1])
                if not acc:
                    break
            if acc is None:
                acc = {(0,) * len(target): 1}
            _add_into(out, acc, c)
        return Element(target, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )


def identity_map(table: GeneratorTable) -> AlgebraMap:
    return AlgebraMap(table, table, {g.name: Element.generator(table, g.name) for g in table})


def compose_maps(outer: AlgebraMap, inner: AlgebraMap) -> AlgebraMap:
    """outer after inner."""
    if inner.target != outer.source:
        raise AlgebraError("maps are not composable")
    images = {g.name: outer(inner.image_of(g.name)) for g in inner.source}
    return AlgebraMap(inner.source, outer.target, images, check=False)


# -- parsing and printing ---------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>" + _NUMBER + r")|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


class ParseError(AlgebraError):
    """A malformed expression string."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number")))
        elif match.lastgroup == "ident":
            tokens.append(("ident", match.group("ident")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


class _Parser:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom := rational | identifier | '(' expr ')'
    """

    def __init__(self, table: GeneratorTable, tokens: list[tuple[str, str]]):
        self.table = table
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.take()
        if kind is None:
            raise ParseError(f"unexpected end of expression, expected {op!r}")
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, got {value!r}")

    @staticmethod
    def number(value: str) -> int | Fraction:
        """A number token, which the tokenizer matched as `_NUMBER`."""
        try:
            return _rational(value)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}") from None
        except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
            raise ParseError(f"a number of {len(value)} characters is too long") from None

    def parse_expr(self) -> Element:
        negate = False
        kind, value = self.peek()
        if kind == "op" and value == "-":
            self.take()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Element:
        result = self.parse_factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Element:
        atom = self.parse_atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value = self.take()
            if kind != "number" or "/" in value:
                raise ParseError("exponent must be a non-negative integer")
            return atom ** self.number(value)
        return atom

    def parse_atom(self) -> Element:
        kind, value = self.take()
        if kind == "number":
            return Element.scalar(self.table, self.number(value))
        if kind == "ident":
            if value not in self.table.index:
                raise ParseError(f"unknown generator {value!r}")
            return Element.generator(self.table, value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind is None:
            raise ParseError("unexpected end of expression")
        raise ParseError(f"unexpected token {value!r}")


def parse(table: GeneratorTable, text: str) -> Element:
    tokens = _tokenize(text)
    parser = _Parser(table, tokens)
    try:
        result = parser.parse_expr()
    except RecursionError:
        # the parser recurses once per open parenthesis
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input after position {parser.pos}")
    return result


def render(element: Element) -> str:
    """Deterministic printer; parse(render(x)) == x.

    Monomials are sorted by descending lexicographic exponent comparison in
    declaration order; each term prints its rational coefficient first.
    """
    if not element.terms:
        return "0"
    table = element.table
    monos = sorted(element.terms, reverse=True)
    pieces: list[str] = []
    for k, mono in enumerate(monos):
        coeff = element.terms[mono]
        if k == 0:
            head = str(coeff)
        else:
            pieces.append(" + " if coeff > 0 else " - ")
            head = str(abs(coeff))
        factors = [head]
        for i, e in enumerate(mono):
            if e == 0:
                continue
            name = table.names[i]
            factors.append(name if e == 1 else f"{name}^{e}")
        pieces.append(" * ".join(factors))
    return "".join(pieces)


# -- monomial enumeration ----------------------------------------------------


def monomials_of_degree_at_most(table: GeneratorTable, cap: int) -> list[tuple[int, ...]]:
    """All canonical monomials of total degree <= cap, in a deterministic order."""
    results: list[tuple[int, ...]] = []
    n = len(table)

    def rec(pos: int, remaining: int, current: list[int]):
        if pos == n:
            results.append(tuple(current))
            return
        limit = 1 if table.parities[pos] == ODD else remaining
        for e in range(min(limit, remaining) + 1):
            current.append(e)
            rec(pos + 1, remaining - e, current)
            current.pop()

    rec(0, cap, [])
    results.sort()
    return results


def _suffix_weight_bounds(table: GeneratorTable, cap: int) -> list[tuple[list[int], list[int]]]:
    """Entry i is (lo, hi) for the generators from table position i on.

    lo[d] and hi[d], d = 0..cap, are the least and greatest weight of a
    monomial in those generators of degree <= d.  Each factor adds one
    generator weight, an odd generator's at most once and an even
    generator's any number of times, so once the odd weights beyond the
    extreme even weight are used up that even weight repeats.  Neither
    depends on cap, so the table for one cap is a prefix of the table for
    a larger one.
    """
    bounds = [([0] * (cap + 1), [0] * (cap + 1))]
    top = bottom = 0
    odds: list[int] = []
    for w, p in zip(reversed(table.weights), reversed(table.parities)):
        if p == ODD:
            insort(odds, w)
        else:
            top, bottom = max(top, w), min(bottom, w)
        up = [x for x in reversed(odds) if x > top][:cap]
        down = [x for x in odds if x < bottom][:cap]
        bounds.append((list(accumulate(down + [bottom] * (cap - len(down)), initial=0)),
                       list(accumulate(up + [top] * (cap - len(up)), initial=0))))
    bounds.reverse()
    return bounds


def monomial_bases(table: GeneratorTable, caps: dict[int, int]
                   ) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The monomial bases of a window of weights, in one walk.

    caps gives each weight w of a window w_lo..w_hi a degree cap that does
    not decrease as w grows.  (w, p) maps to the canonical monomials of
    weight w and parity p with total degree <= caps[w], for each weight of
    the window and each parity, weight by weight.
    """
    w_lo, w_hi = min(caps, default=0), max(caps, default=-1)
    top = caps.get(w_hi, -1)
    # own[r]: how far below top the cap of weight w_hi - r lies
    own = [top - caps.get(w, top + 1) for w in range(w_hi, w_lo - 1, -1)]
    if len(caps) != len(own) or own != sorted(own):
        raise AlgebraError("degree caps must cover a window of weights and not "
                           "decrease as the weight grows")
    out = _walk(table, w_hi, top, own, None)
    return {(w, p): out[p][w_hi - w] for w in range(w_lo, w_hi + 1) for p in (EVEN, ODD)}


def monomial_basis(table: GeneratorTable, weight: int, parity: int, cap: int) -> list[tuple[int, ...]]:
    """Canonical monomials of the given bidegree with total degree <= cap, in
    ascending lexicographic order: the one-bidegree walk of `monomial_bases`,
    which also cuts a branch once no odd generator is left and the parity
    is wrong."""
    if parity not in (EVEN, ODD):
        raise AlgebraError(f"parity must be 0 or 1, got {parity!r}")
    return _walk(table, weight, cap, [0], parity)[parity][0]


def _walk(table: GeneratorTable, w_hi: int, top: int, own: list[int],
          parity: int | None) -> list[list[list[tuple[int, ...]]]]:
    """out[p][r] lists the monomials of weight w_hi - r and parity p (only
    `parity` when given) whose degree is at most top - own[r]; own is
    nondecreasing and own[0] is 0.

    Each list is in ascending lexicographic order of exponent tuples; matrix
    rows and columns are indexed in this order.  One depth-first pass over
    the generators in table order counts each exponent up from 0, which
    yields that order in every list at once, and generates only monomials
    of the window.  A branch is cut when no weight of the window lies
    between the least and greatest weight the remaining generators reach
    within the remaining degree, again within the degree that the cap of
    the largest weight still reachable leaves, and, given a parity, when no
    odd generator is left and the parity is wrong.  The weight bounds are
    computed once, for the largest cap; a lower cap reads a prefix of them.
    """
    out = [[[] for _ in own], [[] for _ in own]]
    n = len(table)
    if top < 0 or not n:
        if 0 <= w_hi < len(own) and own[w_hi] <= top and parity != ODD:
            out[EVEN][w_hi].append(())
        return out
    span = len(own) - 1
    weights, parities = table.weights, table.parities
    bounds = _suffix_weight_bounds(table, top)
    if span:
        # the greatest weights raised by span, so that a residual r reaches
        # the window when lo[b] <= r <= hi[b]
        bounds = [(lo, [h + span for h in hi]) for lo, hi in bounds]
    tight = own[-1] > 0
    if tight:
        # with b degrees to spare, a finished monomial may lie at most
        # hi[b] below w_hi, where the caps still admit its degree
        bounds[n] = (bounds[n][0], [bisect_right(own, b) - 1 for b in range(top + 1)])
    odd_left = [parity is None or ODD in parities[i:] for i in range(n + 1)]
    exps = [0] * n

    # r is the weight still to add to reach w_hi; a finished monomial of the
    # window has 0 <= r <= span
    def rec(i: int, budget: int, r: int, par: int):
        w = weights[i]
        odd = parities[i] == ODD
        lo, hi = bounds[i + 1]
        free = odd_left[i + 1]
        last = i + 1 == n
        for e in range(min(1, budget) + 1 if odd else budget + 1):
            b = budget - e
            q = r - e * w
            if lo[b] <= q <= hi[b]:
                p = par ^ e if odd else par
                if free or p == parity:
                    exps[i] = e
                    if last:
                        out[p][q].append(tuple(exps))
                        continue
                    if tight:
                        # the degree the largest weight still reachable allows
                        c = b - own[max(q - hi[b] + span, 0)]
                        if c < 0 or not lo[c] <= q <= hi[c]:
                            continue
                    rec(i + 1, b, q, p)

    lo, hi = bounds[0]
    if lo[top] <= w_hi <= hi[top] and (odd_left[0] or parity != ODD):
        rec(0, top, w_hi, EVEN)
    return out


def weight_degree_bound(table: GeneratorTable, weight: int) -> int | None:
    """A provable upper bound on the degree of monomials of this weight.

    Returns None when the weight space is infinite dimensional (an even
    generator of weight 0, or even generators of mixed sign).  Odd generators
    are nilpotent so they never break finiteness.
    """
    even_weights = [
        table.weights[i]
        for i in range(len(table))
        if table.parities[i] == EVEN
    ]
    if any(w == 0 for w in even_weights):
        return None
    if any(w > 0 for w in even_weights) and any(w < 0 for w in even_weights):
        return None

    def feasible_even_degree(residual: int) -> int | None:
        # the even weights are nonzero and share one sign
        if residual == 0:
            return 0
        if not even_weights or (residual > 0) != (even_weights[0] > 0):
            return None
        return abs(residual) // min(abs(w) for w in even_weights)

    # a subset-sum table: each sum of distinct odd generators' weights -> the
    # most odd generators that reach it; one entry per sum, not per subset
    most = {0: 0}
    for w in (table.weights[i] for i in table.odd_positions):
        for wsum, size in list(most.items()):
            if most.get(wsum + w, -1) <= size:
                most[wsum + w] = size + 1
    best: int | None = None
    for wsum, size in most.items():
        even_deg = feasible_even_degree(weight - wsum)
        if even_deg is not None and (best is None or size + even_deg > best):
            best = size + even_deg
    if best is None:
        return -1
    return best
