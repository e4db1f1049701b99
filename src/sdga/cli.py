"""Batch command line front end.

Reads a JSON description of an algebra or complex, runs one named operation,
and prints a structured report.  Reports are fully deterministic: identical
inputs and options produce byte-identical output, every report embeds the
tool version and the exact options used, and randomized panels draw all of
their randomness from the --seed flag.

Exit codes: 0 on success, 1 on a failed verification (the report carries a
witness), 2 on malformed input, an impossible request or a report that cannot
be written.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .core import (
    AlgebraError,
    Element,
    Generator,
    GeneratorTable,
    ODD,
    ParseError,
    StructureError,
    as_scalar,
    parity_name,
    parity_of,
    parse,
    render,
)


class InputError(Exception):
    """Malformed document or impossible request; maps to exit code 2."""


# -- document loading ---------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a long int
        raise InputError(f"cannot read input document: {exc}") from exc


def _expect(value, kind: type, what: str):
    """`value` itself when it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def build_table(doc: dict) -> GeneratorTable:
    gens_doc = _expect(doc, dict, "document").get("generators")
    if not isinstance(gens_doc, list):
        raise InputError("document needs a 'generators' list")
    gens = []
    for item in gens_doc:
        if not isinstance(item, dict) or "name" not in item:
            raise InputError("each generator needs at least a 'name'")
        name = item["name"]
        weight = item.get("weight", 0)
        if not isinstance(name, str) or type(weight) is not int:
            raise InputError(f"bad generator entry {item!r}")
        gens.append(Generator(name, weight, parity_of(item.get("parity", "even"))))
    even_mode = doc.get("even_mode", False)
    if type(even_mode) is not bool:
        raise InputError(f"'even_mode' must be true or false, got {even_mode!r}")
    return GeneratorTable(gens, even_mode=even_mode)


def build_algebra(doc: dict) -> tuple[DGAlgebra | None, dict | None]:
    """Build a dg algebra from a document.

    Returns (dga, None) on success or (None, witness) when the description
    fails a mathematical check (a bidegree violation or d*d != 0); schema
    problems raise InputError instead.
    """
    from .dg import DGAlgebra, Derivation
    table = build_table(doc)
    diff_doc = doc.get("differential", {})
    if not isinstance(diff_doc, dict):
        raise InputError("'differential' must map generator names to expressions")
    images: dict[str, Element] = {}
    for name, expr in diff_doc.items():
        if name not in table.index:
            raise InputError(f"differential given for unknown generator {name!r}")
        if not isinstance(expr, str):
            raise InputError(f"differential of {name!r} must be an expression string")
        try:
            images[name] = parse(table, expr)
        except ParseError as exc:
            raise InputError(f"bad expression for d({name}): {exc}") from exc
    for g in table.generators:
        img = images.get(g.name)
        if img is None or img.is_zero():
            continue
        bid = img.bidegree()
        if bid != (g.weight + 1, (g.parity + 1) % 2):
            found = "inhomogeneous" if bid is None else (
                f"({bid[0]}, {parity_name(bid[1])})"
            )
            return None, {
                "valid": False,
                "witness": f"bidegree violation at generator {g.name}",
                "detail": f"d({g.name}) = {render(img)} has bidegree "
                          f"{found}, expected ({g.weight + 1}, "
                          f"{parity_name((g.parity + 1) % 2)})",
            }
    d = Derivation(table, images, 1, ODD, check=False)
    dga = DGAlgebra(table, d, check=False)
    bad = dga.square_witnesses()
    if bad:
        name, value = bad[0]
        return None, {
            "valid": False,
            "witness": f"differential does not square to zero at generator {name}",
            "detail": f"d(d({name})) = {render(value)}",
        }
    return dga, None


def _parse_entry(value) -> int | Fraction:
    """A matrix entry of a document, as `as_scalar` gives it."""
    try:
        return as_scalar(value)  # true and 0.5 are no entries
    except AlgebraError:
        raise InputError(f"bad rational entry {value!r}") from None


def _parse_key(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"bidegree keys look like '0,even'; got {text!r}")
    try:
        weight = int(parts[0])
    except ValueError as exc:
        raise InputError(f"bad weight in key {text!r}") from exc
    return weight, parity_of(parts[1])


def _key_str(key: tuple[int, int]) -> str:
    return f"{key[0]},{parity_name(key[1])}"


def _blocks(doc: dict, field: str, what: str, shape) -> dict:
    """The optional field of matrices keyed by bidegree, parsed as dense rows,
    checked against the (rows, columns) that shape(key) gives, and returned
    as blocks of sparse columns.  Zero blocks and blocks off the support are
    checked too: the model would drop them unseen."""
    blocks = {}
    for text, mat in _expect(doc.get(field, {}), dict, f"{field!r}").items():
        where = f"block {text!r} of {field!r}"
        key = _parse_key(text)
        rows = [
            [_parse_entry(x) for x in _expect(row, list, f"a row of {where}")]
            for row in _expect(mat, list, where)
        ]
        nrows, ncols = shape(key)
        if len(rows) != nrows or any(len(row) != ncols for row in rows):
            raise InputError(f"{what} block at {key} has the wrong shape")
        blocks[key] = [{r: row[j] for r, row in enumerate(rows) if row[j]}
                       for j in range(ncols)]
    return blocks


def _checked(build, *args):
    """build(*args); an AlgebraError is a failed mathematical check (exit 1),
    except a StructureError, which is malformed input (exit 2)."""
    try:
        return build(*args)
    except StructureError:
        raise
    except AlgebraError as exc:
        raise _Verification({"witness": str(exc)}) from exc


def build_complex(doc: dict) -> model.Complex:
    from . import model
    if not isinstance(doc, dict) or "dims" not in doc:
        raise InputError("complex documents need a 'dims' object")
    dims = {}
    for key, n in _expect(doc["dims"], dict, "'dims'").items():
        if type(n) is not int or n < 0:
            raise InputError(f"bad dimension {n!r} at {key!r}")
        dims[_parse_key(key)] = n

    def shape(key):
        return dims.get(model._next_key(key), 0), dims.get(key, 0)

    return _checked(model.Complex, dims, _blocks(doc, "differential", "differential", shape))


def build_chain_map(doc: dict) -> model.ChainMap:
    from . import model
    if not isinstance(doc, dict) or "source" not in doc or "target" not in doc:
        raise InputError("chain map documents need 'source', 'target' and 'blocks'")
    source, target = build_complex(doc["source"]), build_complex(doc["target"])

    def shape(key):
        return target.dim(key), source.dim(key)

    return _checked(model.ChainMap, source, target, _blocks(doc, "blocks", "chain map", shape))


def _matrix_json(block, nrows: int) -> list[list[str]]:
    """A block written out as dense rows, the form documents give."""
    return [[str(col.get(r, 0)) for col in block] for r in range(nrows)]


def _complex_json(c: model.Complex) -> dict:
    from .model import _next_key
    return {
        "dims": {_key_str(k): n for k, n in sorted(c.dims.items())},
        "differential": {_key_str(k): _matrix_json(m, c.dim(_next_key(k)))
                         for k, m in sorted(c.diff.items())},
    }


def _blocks_json(f: model.ChainMap) -> dict:
    return {_key_str(k): _matrix_json(m, f.target.dim(k)) for k, m in sorted(f.blocks.items())}


# -- shared option handling -----------------------------------------------------------


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"window looks like '-3:3'; got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad window {text!r}") from exc
    if lo > hi:
        raise InputError(f"empty window {text!r}")
    return lo, hi


def _require_algebra(doc) -> DGAlgebra:
    dga, witness = build_algebra(doc)
    if witness is not None:
        raise _Verification(witness)
    return dga


class _Verification(Exception):
    """A mathematical check failed; carries the report body (exit code 1)."""

    def __init__(self, body: dict):
        super().__init__(body.get("witness", "verification failed"))
        self.body = body


# -- command handlers: each imports the modules it uses, so a request loads its own


def cmd_check(args) -> dict:
    dga = _require_algebra(_load_json(args.input))
    report = dga.cohomology(*args.window, args.degcap)
    return {
        "valid": True,
        "cohomology": [
            {"weight": e["weight"], "parity": e["parity"], "dim": e["dim"]}
            for e in report.to_dict()["entries"] if e["dim"]
        ],
    }


def cmd_cohomology(args) -> dict:
    dga = _require_algebra(_load_json(args.input))
    return dga.cohomology(*args.window, args.degcap).to_dict()


def cmd_forms_omega(args) -> dict:
    from . import forms
    from .dg import DGAlgebra
    doc = _load_json(args.input)
    dga = _require_algebra(doc)
    omega = forms.FormsAlgebra(dga.table)
    out: dict = {
        "generators": [
            {"name": g.name, "weight": g.weight, "parity": parity_name(g.parity)}
            for g in omega.table.generators
        ],
        "de_rham": {
            g.name: render(omega.de_rham(Element.generator(omega.table, g.name)))
            for g in omega.table.generators
        },
    }
    if doc.get("differential"):
        total = omega.total_differential(dga)
        out["total_differential"] = {
            g.name: render(total(Element.generator(omega.table, g.name)))
            for g in omega.table.generators
        }
        out["total_square_zero"] = not DGAlgebra(
            omega.table, total, check=False
        ).square_witnesses()
    return out


def cmd_cartan_check(args) -> dict:
    import random
    from . import forms, sampling
    dga = _require_algebra(_load_json(args.input))
    omega = forms.FormsAlgebra(dga.table)
    rng = random.Random(args.seed)
    names = ["cartan_formula", "euler_contraction", "euler_lie",
             "contractions_commute", "lie_contraction", "lie_lie"]
    counts = {name: 0 for name in names}
    spot_checks = 0
    all_pass = True
    for _ in range(args.pairs):
        D1 = sampling.random_derivation(rng, dga.table, rng.randint(-1, 2),
                                        rng.randint(0, 1), cap=3)
        D2 = sampling.random_derivation(rng, dga.table, rng.randint(-1, 2),
                                        rng.randint(0, 1), cap=3)
        results = omega.cartan_relations(D1, D2)
        for name in names:
            if results[name]:
                counts[name] += 1
            else:
                all_pass = False
        # spot-check the Cartan formula on sampled low-degree elements:
        # [i, d](a) = i(d a) - (-1)^{|i|} d(i a) since d is odd
        L1 = omega.lie_derivative(D1)
        d = omega.de_rham
        i1 = omega.contraction(D1)
        sign = 1 if i1.parity_shift else -1
        for _ in range(3):
            a = sampling.random_element(rng, omega.table, max_degree=3, terms=3)
            lhs = i1(d(a)) + d(i1(a)) * sign
            if lhs != L1(a):
                all_pass = False
            spot_checks += 1
    return {
        "pairs": args.pairs,
        "seed": args.seed,
        "relation_passes": counts,
        "element_spot_checks": spot_checks,
        "all_pass": all_pass,
    }


def cmd_integrate(args) -> dict:
    from . import forms
    dga = _require_algebra(_load_json(args.input))
    expr, lower, upper = (parse(dga.table, text)
                          for text in (args.expr, args.lower, args.upper))
    value = forms.integrate(expr, args.var, lower, upper)
    return {
        "expression": render(expr),
        "variable": args.var,
        "lower": render(lower),
        "upper": render(upper),
        "integral": render(value),
    }


def cmd_berezin(args) -> dict:
    from . import forms
    dga = _require_algebra(_load_json(args.input))
    expr = parse(dga.table, args.expr)
    value = forms.berezin(expr, args.var)
    return {"expression": render(expr), "variable": args.var,
            "integral": render(value)}


def cmd_cylinder_contract(args) -> dict:
    from . import forms
    dga = _require_algebra(_load_json(args.input))
    cyl = forms.Cylinder(dga, var=args.var)
    expr = parse(cyl.table, args.expr)
    h = cyl.contract(expr)
    defect = cyl.homotopy_defect(expr)
    if not defect.is_zero():
        raise _Verification({
            "witness": "homotopy identity failed",
            "detail": render(defect),
        })
    return {
        "expression": render(expr),
        "contraction": render(h),
        "ends": {"at_0": render(cyl.p0(expr)), "at_1": render(cyl.p1(expr))},
        "homotopy_identity": True,
    }


def _simplicial_expr(args, forms) -> Element:
    from . import simplicial
    table = simplicial.barycentric_table(forms.n)
    return simplicial.eliminate(forms, parse(table, args.form))


def _tuple_str(indices) -> str:
    return "w(" + ",".join(str(i) for i in indices) + ")"


def _structure_maps(n: int, m: int, tuple_of) -> list[dict]:
    """The maps phi = tuple_of(n, i): [m] -> [n], i = 0..n, each with the
    images of the generators of Omega_n under its pullback."""
    from . import simplicial
    source, target = simplicial.simplex_forms(n), simplicial.simplex_forms(m)
    out = []
    for i in range(n + 1):
        phi = tuple_of(n, i)
        fmap = simplicial.pullback(phi, source, target)
        out.append({"index": i, "vertex_map": list(phi), "images": {
            g.name: render(fmap(Element.generator(source.table, g.name)))
            for g in source.table.generators
        }})
    return out


def cmd_simplicial_faces(args) -> dict:
    from . import simplicial
    n = args.n
    return {"n": n, "faces": _structure_maps(n, n - 1, simplicial.face_tuple) if n else [],
            "degeneracies": _structure_maps(n, n + 1, simplicial.degeneracy_tuple)}


def cmd_simplicial_whitney(args) -> dict:
    from . import simplicial
    n = args.n
    degrees = range(n + 1) if args.k is None else [args.k]
    forms = simplicial.simplex_forms(n)
    entries = []
    for k in degrees:
        if not 0 <= k <= n:
            raise InputError(f"--k must lie in 0..{n}")
        for I in simplicial.whitney_tuples(n, k):
            entry = {
                "tuple": _tuple_str(I),
                "form": render(simplicial.whitney(forms, I)),
            }
            if args.barycentric:
                entry["barycentric"] = render(simplicial.barycentric_whitney(n, I))
            entries.append(entry)
    return {"n": n, "forms": entries}


def cmd_simplicial_project(args) -> dict:
    from . import simplicial
    forms = simplicial.simplex_forms(args.n)
    element = _simplicial_expr(args, forms)
    coefficients = simplicial.whitney_expansion(forms, element)
    image = simplicial.whitney_projection(forms, element, expansion=coefficients)
    expansion = []
    for I, coeff in coefficients:
        item = {"tuple": _tuple_str(I), "coefficient": str(coeff)}
        if args.barycentric:
            item["barycentric"] = render(simplicial.barycentric_whitney(args.n, I))
        expansion.append(item)
    return {
        "n": args.n,
        "form": render(element),
        "projection": render(image),
        "expansion": expansion,
    }


def cmd_simplicial_dupont(args) -> dict:
    from . import simplicial
    forms = simplicial.simplex_forms(args.n)
    # the walk runs on the form as parsed, and on its redundant d
    redundant = parse(simplicial.barycentric_table(args.n), args.form)
    element = simplicial.eliminate(forms, redundant)
    d_redundant = simplicial.barycentric_forms(args.n).de_rham(redundant)
    s_image = simplicial.dupont_homotopy(forms, redundant)
    identity = (forms.d(s_image) + simplicial.dupont_homotopy(forms, d_redundant)
                == element - simplicial.whitney_projection(forms, element))
    if not identity:
        raise _Verification({
            "witness": "contraction identity failed",
            "detail": render(element),
        })
    return {
        "n": args.n,
        "form": render(element),
        "s_image": render(s_image),
        "identity_check": True,
    }


def cmd_simplicial_duality(args) -> dict:
    from . import simplicial
    n = args.n
    forms = simplicial.simplex_forms(n)
    degrees = []
    all_pass = True
    for k in range(n + 1):
        tuples = simplicial.whitney_tuples(n, k)
        ok = True
        for I in tuples:
            w = simplicial.whitney(forms, I)
            for J in tuples:
                expected = int(I == J)
                got_d = simplicial.simplex_integral(forms, J, w, method="dirichlet")
                got_i = simplicial.simplex_integral(forms, J, w, method="iterated")
                if got_d != expected or got_i != expected:
                    ok = False
        degrees.append({"k": k, "tuples": len(tuples), "dual_basis": ok})
        all_pass = all_pass and ok
    if not all_pass:
        raise _Verification({"witness": "duality failed", "degrees": degrees})
    return {"n": n, "degrees": degrees, "all_pass": True}


def cmd_cotensor(args) -> dict:
    from . import simplicial
    doc = _expect(_load_json(args.input), dict, "document")
    zero = doc.get("zero", False)
    if type(zero) is not bool:
        raise InputError(f"'zero' must be true or false, got {zero!r}")
    coefficients = simplicial.ZERO_ALGEBRA if zero else _require_algebra(doc)
    shape, horn_vertex = args.shape, args.horn_vertex
    if shape == "horn" and horn_vertex is None:
        raise InputError("--shape horn needs --horn-vertex")
    if shape != "horn" and horn_vertex is not None:
        raise InputError(f"--horn-vertex needs --shape horn, not --shape {shape}")
    return simplicial.cotensor_report(coefficients, args.n, shape, horn_vertex,
                                      *args.window, args.degcap)


def cmd_path_object(args) -> dict:
    import random
    from . import forms, sampling
    dga = _require_algebra(_load_json(args.input))
    path = forms.PathObject(dga, var=args.var)
    cyl = path.cylinder
    rng = random.Random(args.seed)
    t = cyl.t()
    one = Element.one(cyl.table)
    witness_pass = diagonal_pass = homotopy_pass = True
    for _ in range(args.trials):
        a0 = sampling.random_element(rng, dga.table, max_degree=3, terms=3)
        a1 = sampling.random_element(rng, dga.table, max_degree=3, terms=3)
        line = cyl.include(a0) * (one - t) + cyl.include(a1) * t
        if path.q(line) != (a0, a1):
            witness_pass = False
        if not path.factors_diagonal(a0):
            diagonal_pass = False
        w = sampling.random_element(rng, cyl.table, max_degree=3, terms=3)
        if not cyl.homotopy_defect(w).is_zero():
            homotopy_pass = False
    body = {
        "trials": args.trials,
        "seed": args.seed,
        "witness_formula": witness_pass,
        "diagonal_factorization": diagonal_pass,
        "homotopy_identity": homotopy_pass,
        "all_pass": witness_pass and diagonal_pass and homotopy_pass,
    }
    if not body["all_pass"]:
        raise _Verification({"witness": "path object checks failed", **body})
    return body


def cmd_complex_cohomology(args) -> dict:
    from . import model
    c = build_complex(_load_json(args.input))
    dims = model.cohomology_dims(c)
    return {
        "dims": {_key_str(k): v for k, v in sorted(dims.items())},
        "total_dim": sum(dims.values()),
        "acyclic": not dims,
    }


def cmd_complex_classify(args) -> dict:
    from . import model
    f = build_chain_map(_load_json(args.input))
    fib = model.is_fibration(f)
    cof = model.is_cofibration(f)
    weq = model.is_weak_equivalence(f)
    return {
        "fibration": fib,
        "cofibration": cof,
        "weak_equivalence": weq,
        "acyclic_fibration": fib and weq,
        "acyclic_cofibration": cof and weq,
    }


def cmd_complex_lift(args) -> dict:
    from . import model
    doc = _expect(_load_json(args.input), dict, "document")
    try:
        maps = [build_chain_map(doc[name]) for name in ("i", "p", "top", "bottom")]
    except KeyError as exc:
        raise InputError("lift documents need maps 'i', 'p', 'top', 'bottom'") from exc
    h, cert = _checked(model.solve_lift, *maps)
    out = {"solvable": h is not None, "certificate": cert}
    if h is not None:
        out["lift"] = _blocks_json(h)
    return out


def cmd_complex_factorize(args) -> dict:
    from . import model
    f = build_chain_map(_load_json(args.input))
    j, q = model.factorize(f, mode=args.mode)
    checks = model.verify_factorization(f, j, q, args.mode)
    if not checks["ok"]:
        raise _Verification({"witness": "factorization checks failed", **checks})
    return {
        "mode": args.mode,
        "middle": _complex_json(j.target),
        "left": _blocks_json(j),
        "right": _blocks_json(q),
        "checks": checks,
    }


def cmd_cells(args) -> dict:
    from . import model
    catalog = model.cell_catalog()
    entries = []
    for name in sorted(catalog):
        c = catalog[name]
        dims = model.cohomology_dims(c)
        entries.append({
            "name": name,
            "complex": _complex_json(c),
            "cohomology": {_key_str(k): v for k, v in sorted(dims.items())},
        })
    return {"cells": entries}


def cmd_sym_kunneth(args) -> dict:
    from . import model
    v = build_complex(_load_json(args.input))
    w_min, w_max = args.window
    out = model.kunneth_report(v, w_min, w_max, args.degcap)
    if not out["all_agree"]:
        raise _Verification({"witness": "dimension mismatch", **out})
    return out


# -- report envelope and entry point ----------------------------------------------


def _option_dict(args) -> dict:
    out = {key: value for key, value in vars(args).items()
           if key not in ("func", "command", "subcommand") and value is not None}
    if "window" in out:
        out["window"] = "{}:{}".format(*args.window)
    return out


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or value == {} or value == []:
        return "none" if value is None else "(empty)"
    return str(value)


def _emit(envelope: dict, fmt: str, code: int) -> int:
    """Write the envelope to stdout; code, or 2 when stdout cannot take it."""
    text = ("\n".join(_render_text(envelope)) if fmt == "text"
            else json.dumps(envelope, indent=2, sort_keys=True))
    try:
        sys.stdout.write(text + "\n")
    except OSError as exc:
        return _unwritten(exc)
    return code


def _unwritten(exc: OSError) -> int:
    sys.stderr.write(f"sdga: cannot write the report: {exc}\n")
    return 2


# -- command table and entry point ------------------------------------------------

_INPUT = ("--input", {"default": "-", "help": "input JSON document (file path or '-' for stdin)"})
_WINDOW = ("--window", {"default": "-3:3", "help": "weight window W_MIN:W_MAX (default -3:3)"})
_DEGCAP = ("--degcap", {"type": int, "default": 4, "help": "polynomial degree cap (default 4)"})
_SEED = ("--seed", {"type": int, "default": 0, "help": "seed for randomized panels (default 0)"})
_BARYCENTRIC = ("--barycentric", {
    "action": "store_true", "help": "also print simplicial forms in redundant coordinates"})
# options of several commands: a parser adds them in this order, then --json and
# --text, then the row's own options
_SHARED = (_INPUT, _WINDOW, _DEGCAP, _SEED, _BARYCENTRIC)
_N = ("--n", {"type": int, "required": True})
_EXPR = ("--expr", {"required": True})
_FORM = ("--form", {"required": True})

# One row per command: its words, its help and every option its handler reads;
# any other is a usage error.  main reads a well-formed request straight from
# its row (_read_row) and builds the argparse tree only for help, --version,
# usage errors and the argvs _read_row declines.  The handler of a row is the
# module's cmd_<words>, spaces and dashes turned into "_", looked up when the
# command runs, so that a rebinding of cli.cmd_* after import takes effect.
COMMANDS = (
    ("check", "validate an algebra document and report its cohomology",
     [_INPUT, _WINDOW, _DEGCAP]),
    ("cohomology", "cohomology dimensions, exactness flags and representatives",
     [_INPUT, _WINDOW, _DEGCAP]),
    ("forms-omega", "the de Rham forms algebra of the input algebra", [_INPUT]),
    ("cartan-check", "verify the six contraction/Lie-derivative relations",
     [_INPUT, _SEED, ("--pairs", {"type": int, "default": 10})]),
    ("integrate", "definite integral in one even variable",
     [_INPUT, _EXPR, ("--var", {"required": True}), ("--lower", {"default": "0"}),
      ("--upper", {"default": "1"})]),
    ("berezin", "Berezin integral in one odd variable",
     [_INPUT, _EXPR, ("--var", {"required": True})]),
    ("cylinder-contract", "apply the cylinder contraction and check its identity",
     [_INPUT, _EXPR, ("--var", {"default": "t"})]),
    ("simplicial faces", "cosimplicial structure maps and their pullbacks", [_N]),
    ("simplicial whitney", "elementary forms", [_BARYCENTRIC, _N, ("--k", {"type": int})]),
    ("simplicial project", "projection onto the elementary forms",
     [_BARYCENTRIC, _N, _FORM]),
    ("simplicial dupont", "the contraction homotopy and its identity", [_N, _FORM]),
    ("simplicial duality", "integrals against elementary forms are a dual basis", [_N]),
    ("cotensor", "cotensor of an algebra with a simplex, boundary or horn",
     [_INPUT, _WINDOW, _DEGCAP, _N,
      ("--shape", {"choices": ["simplex", "boundary", "horn"], "default": "simplex"}),
      ("--horn-vertex", {"type": int})]),
    ("path-object", "path object checks: diagonal factorization and homotopy",
     [_INPUT, _SEED, ("--trials", {"type": int, "default": 100}), ("--var", {"default": "t"})]),
    ("complex cohomology", "exact cohomology dimensions of a complex", [_INPUT]),
    ("complex classify", "fibration/cofibration/weak-equivalence predicates", [_INPUT]),
    ("complex lift", "solve a lifting square, with a solvability certificate", [_INPUT]),
    ("complex factorize", "factor a chain map through a middle complex",
     [_INPUT, ("--mode", {"choices": ["acyclic_cofibration_fibration",
                                      "cofibration_acyclic_fibration"],
                          "default": "acyclic_cofibration_fibration"})]),
    ("cells", "the catalog of disk and sphere complexes", []),
    ("sym-kunneth", "compare H(Sym V) with the free algebra on H(V)", [_INPUT, _WINDOW, _DEGCAP]),
)

GROUPS = {"simplicial": "simplex forms operations",
          "complex": "finite cochain complex operations"}


def _handler(words: str) -> str:
    return "cmd_" + words.replace(" ", "_").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command in COMMANDS, with its help texts
    and usage errors.  argparse is imported here, not at module level: a
    request that _read_row parses never loads it, nor gettext and locale."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sdga",
        description="Exact calculator for differential graded-commutative algebras.",
    )
    parser.add_argument("--version", action="version", version=f"sdga {__version__}")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, summary, options in COMMANDS:
        group, _, name = words.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = subparsers[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(dest="subcommand", required=True)
        p = subparsers[group].add_parser(name, help=summary)
        for flag, kwargs in [option for option in _SHARED if option in options]:
            p.add_argument(flag, **kwargs)
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", dest="format", action="store_const", const="json",
                            help="JSON output (default)")
        output.add_argument("--text", dest="format", action="store_const", const="text",
                            help="plain text output")
        p.set_defaults(format="json")
        for flag, kwargs in [option for option in options if option not in _SHARED]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=_handler(words))
    return parser


_DIGITS = "0123456789"


def _is_value(token: str) -> bool:
    """Whether argparse, on each of Python 3.10 to 3.13, reads this token
    after an option as the option's value: a token not starting with "-", "-"
    itself, a negative integer, or "-" then a digit in a token with a space
    ("-3 * t0").  Argparse may read any other token starting with "-" as an
    option or as the "--" marker."""
    if token[:1] != "-" or token == "-":
        return True
    return token[1] in _DIGITS and (" " in token or not token[1:].strip(_DIGITS))


def _read_row(argv: list[str]) -> dict | None:
    """The fields argparse would parse argv to, found without argparse: argv
    names a COMMANDS row, then gives only that row's flags spelled in full
    (FLAG VALUE or FLAG=VALUE), --json or --text, with every required one
    present and every value of its type and among its choices.  None for
    anything else (help, an abbreviation, a stray word, a value argparse might
    read as an option, a usage error): main leaves those to argparse."""
    words = argv[:2] if argv and argv[0] in GROUPS else argv[:1]
    row = next((row for row in COMMANDS if row[0].split() == words), None)
    if row is None:
        return None
    fields = dict(zip(("command", "subcommand"), words))
    specs = {}
    for flag, kwargs in row[2]:
        dest = flag[2:].replace("-", "_")
        specs[flag] = dest, kwargs
        fields[dest] = kwargs.get("default", False if kwargs.get("action") else None)
    output, tokens = None, iter(argv[len(words):])
    for token in tokens:
        flag, sep, value = token.partition("=")
        # --json with --text is left to argparse, which rejects it
        if flag in ("--json", "--text") and not sep and output in (None, flag):
            output = flag
            continue
        if flag not in specs:
            return None
        dest, kwargs = specs[flag]
        if kwargs.get("action") == "store_true":
            if sep:
                return None
            fields[dest] = True
        else:
            if not sep:
                value = next(tokens, None)
                if value is None or not _is_value(value):
                    return None
            elif value == "--":  # a value from Python 3.13 on, and no value before
                return None
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value not in kwargs.get("choices", [value]):
                return None
            fields[dest] = value
    # a required option has no default, and no value it is given is None
    if any(kwargs.get("required") and fields[dest] is None for dest, kwargs in specs.values()):
        return None
    fields["format"] = output[2:] if output else "json"
    fields["func"] = _handler(row[0])
    return fields


def main(argv=None) -> int:
    """One request, in-process; returns its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    fields = _read_row(argv)
    if fields is None:
        fields = vars(build_parser().parse_args(argv))
    args = SimpleNamespace(**fields)
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{command} {args.subcommand}"
    try:
        # argparse before Python 3.13 parses FLAG=-- to [] and 3.13 to "--"
        for dest, value in fields.items():
            if type(value) is list:
                raise InputError(f"--{dest.replace('_', '-')} needs a value; got '--'")
        if "window" in fields:
            args.window = _parse_window(args.window)
        for flag in ("degcap", "n", "pairs", "trials"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise InputError(f"--{flag} must be non-negative; got {value}")
    except InputError as exc:
        return _emit({"error": str(exc), "tool": "sdga", "version": __version__},
                     args.format, 2)
    envelope = {
        "tool": "sdga",
        "version": __version__,
        "command": command,
        "options": _option_dict(args),
    }
    try:
        envelope["report"], code = globals()[args.func](args), 0
    except _Verification as exc:
        envelope["report"], code = exc.body, 1
    except (InputError, AlgebraError) as exc:
        envelope["error"], code = str(exc), 2
    envelope["ok"] = code == 0
    return _emit(envelope, args.format, code)


def run() -> None:
    """The `sdga` command and `python -m sdga.cli`: main(), then stdout and
    stderr flushed and the process left by os._exit.  A request's objects die
    with its process, so the interpreter's finalization (collector passes over
    every object, module teardown) would only cost time; atexit hooks do not
    run either.  Argparse's exits and uncaught exceptions still raise."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _unwritten(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
