"""The benchmark's workloads: seeded request lists and their output checks.

A request is one CLI invocation: an argument list, plus the JSON document
that goes to the child's stdin (`--input -`) when the command reads one.
Shapes (generator counts, weights, parities, killer bidegrees, cell
lists, horn vertices, window and cap) are fixed per workload, so the cost
of a request depends on the shape and hardly on the seed; the seed draws
everything else (factors, coefficients, basis scrambles, forms).  Each list interleaves its families, so any prefix
of a pass is a representative mix.

Why each workload exists, and which layer it stresses or bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

EVEN, ODD = 0, 1


@dataclass
class Request:
    argv: list[str]
    doc: dict | None = None
    check: str = "ok"
    # index of an earlier request whose output this one must agree with
    pair: int | None = None
    label: str = ""


def _interleave(families: list[list[Request]]) -> list[Request]:
    out: list[Request] = []
    longest = max(len(f) for f in families)
    for k in range(longest):
        for fam in families:
            if k < len(fam):
                out.append(fam[k])
    return out


def _with_pairs(groups: list[list[Request]], flat: list[Request] | None = None) -> list[Request]:
    """Flatten, resolving each request's `pair` from group-local to global."""
    flat = [] if flat is None else flat
    for group in groups:
        base = len(flat)
        for req in group:
            if req.pair is not None:
                req.pair += base
            flat.append(req)
    return flat


# -- cohomology --------------------------------------------------------------------

# (even weights, odd weights, killer kinds); window 0:6, degree cap 4
SULLIVAN_SHAPES = [
    ([1, 1, 2, 2], [3], "ee ee eo"),
    ([1, 1, 2], [1, 2], "ee eo oo"),
    ([1, 1, 2, 2], [2], "ee eo"),
    ([1, 1, 2, 2], [3], "ee ee"),
    ([1, 2, 2], [1, 2], "ee oo"),
    ([2, 2, 1], [3], "ee eo"),
]
# (Koszul pairs, closed (weight, parity), killer kinds); window 0:3, cap 4
KOSZUL_SHAPES = [
    (2, [(1, ODD), (2, EVEN)], "oo"),
    (2, [(2, ODD)], "oo"),
    (1, [(1, ODD), (1, EVEN)], "oo eo"),
]
# cell lists for Sym V; window -1:4, cap 4
KUNNETH_SHAPES = [
    [("D", (0, EVEN)), ("S", (1, ODD)), ("S", (-1, ODD)), ("S", (1, EVEN)),
     ("D", (1, ODD)), ("S", (0, ODD))],
    [("D", (-1, ODD)), ("S", (0, EVEN)), ("S", (1, ODD)), ("D", (0, ODD)),
     ("S", (2, ODD)), ("S", (1, EVEN))],
    [("D", (0, EVEN)), ("D", (0, ODD)), ("S", (1, ODD)), ("S", (2, EVEN)),
     ("D", (1, EVEN))],
    [("S", (0, EVEN)), ("S", (1, ODD)), ("D", (1, ODD)), ("S", (-1, ODD)),
     ("D", (-1, EVEN)), ("S", (2, ODD))],
]


def _algebra_pair(doc: dict, window: str, cap: int, label: str) -> list[Request]:
    """cohomology then check on one document; check must agree with it."""
    opts = ["--input", "-", f"--window={window}", "--degcap", str(cap)]
    return [
        Request(["cohomology", *opts], doc, "cohomology", label=label),
        Request(["check", *opts], doc, "check", pair=0, label=label),
    ]


def cohomology_requests(rng: random.Random, draw: int) -> list[Request]:
    sullivan = [_algebra_pair(gen.sullivan_algebra(rng, *shape), "0:6", 4, "sullivan")
                for shape in SULLIVAN_SHAPES]
    koszul = [_algebra_pair(gen.koszul_algebra(rng, *shape), "0:3", 4, "koszul")
              for shape in KOSZUL_SHAPES]
    kunneth = [[Request(["sym-kunneth", "--input", "-", "--window=-1:4", "--degcap", "4"],
                        gen.CellComplex(rng, cells).doc(), "kunneth", label="kunneth")]
               for cells in KUNNETH_SHAPES]
    groups = _interleave([sullivan, koszul, kunneth])
    return _with_pairs(groups)


# -- horn filling -------------------------------------------------------------------

# (coefficient algebra shape, n, shape, window, cap); see gen.coefficient_algebra
HORN_SHAPES = [
    ("o1", 3, "horn", "0:2", 4),
    ("e0", 2, "horn", "0:3", 5),
    ("K", 2, "horn", "0:3", 5),
    ("e1 o1", 2, "horn", "0:2", 4),
    ("K o1", 2, "horn", "0:3", 4),
    ("e0", 3, "horn", "0:2", 3),
    ("e0", 3, "horn", "0:2", 4),
    ("o1", 3, "horn", "0:2", 3),
    ("K", 3, "horn", "0:2", 3),
    ("e1 o1", 3, "horn", "0:2", 3),
    ("K o1", 3, "horn", "0:1", 3),
    ("K", 2, "boundary", "0:2", 4),
    ("e1 o1", 2, "boundary", "0:2", 4),
    ("o1", 3, "boundary", "0:2", 3),
]


def horn_requests(rng: random.Random, draw: int) -> list[Request]:
    out = []
    for k, (algebra, n, shape, window, cap) in enumerate(HORN_SHAPES):
        argv = ["cotensor", "--input", "-", "--n", str(n), "--shape", shape,
                f"--window={window}", "--degcap", str(cap)]
        check = "ok"
        if shape == "horn":
            # the missing face changes the cost, so the slot fixes it, not the seed
            argv += ["--horn-vertex", str((k + draw) % (n + 1))]
            check = "horn"
        out.append(Request(argv, gen.coefficient_algebra(rng, algebra), check, label=shape))
    return out


# -- complexes ----------------------------------------------------------------------

COMPLEX_KEYS = [(0, EVEN), (1, ODD), (-1, ODD), (0, ODD)]
FACTORIZE_MODES = ["acyclic_cofibration_fibration", "cofibration_acyclic_fibration"]
# Cell lists are drawn once from a fixed stream, not from --seed: whether
# `factorize` trips over a shape depends mostly on its cells, so fixing them
# keeps the failure count steady across seeds while the seed still draws
# the bases and the maps.
_SHAPES = random.Random("complexes cell lists")
LIFT_SHAPES = [[gen.random_cells(_SHAPES, COMPLEX_KEYS, cells) for _ in range(4)]
               for cells in (11, 12, 12, 13, 13, 14, 14)]
MAP_SHAPES = [(gen.random_cells(_SHAPES, COMPLEX_KEYS, cells),
               gen.random_cells(_SHAPES, COMPLEX_KEYS, cells))
              for cells in (24, 28, 32, 36) * 3]
COMPLEX_SHAPES = [gen.random_cells(_SHAPES, COMPLEX_KEYS, cells) for cells in (30, 40)]


def complexes_requests(rng: random.Random, draw: int) -> list[Request]:
    # which cells the maps join is drawn from a fixed stream too, for the
    # same reason as the cell lists; the seed draws the scalars
    layout = random.Random(f"complexes map layout {draw}")
    lifts = [Request(["complex", "lift", "--input", "-"],
                     gen.lifting_square(rng, shapes, layout), "lift", label="lift")
             for shapes in LIFT_SHAPES]
    factorizations, classes = [], []
    for src_cells, dst_cells in MAP_SHAPES:
        src, dst = gen.CellComplex(rng, src_cells), gen.CellComplex(rng, dst_cells)
        doc = gen.map_doc(src, dst, gen.cell_map(rng, src, dst, layout))
        for mode in FACTORIZE_MODES:
            factorizations.append(Request(["complex", "factorize", "--input", "-",
                                           "--mode", mode], doc, "factorize", label=mode))
        classes.append(Request(["complex", "classify", "--input", "-"], doc, "ok",
                               label="classify"))
    cohomologies = [Request(["complex", "cohomology", "--input", "-"],
                            gen.CellComplex(rng, cells).doc(), "ok", label="cohomology")
                    for cells in COMPLEX_SHAPES]
    return _interleave([lifts, factorizations, classes, cohomologies])


# -- simplicial ---------------------------------------------------------------------

# terms (t0 exponent, ti exponent, form weight) of the seeded forms
DUPONT_FORMS = [
    [(3, 1, 1), (1, 1, 2)],
    [(3, 1, 1), (2, 2, 2)],
    [(3, 2, 1), (2, 1, 2), (1, 1, 1)],
    [(3, 2, 1), (3, 1, 2)],
]
PROJECT_FORMS = [
    [(3, 2, 1), (3, 1, 2), (2, 2, 3)],
    [(4, 2, 1), (4, 1, 2)],
]
FIXED_SIMPLICIAL = [
    (["simplicial", "duality", "--n", "3"], "duality"),
    (["simplicial", "duality", "--n", "4"], "duality"),
    (["simplicial", "whitney", "--n", "4"], "ok"),
    (["simplicial", "faces", "--n", "3"], "ok"),
]


def simplicial_requests(rng: random.Random, draw: int) -> list[Request]:
    # the vertices and dt sets of the forms move their cost, so they come
    # from a fixed stream; the seed draws the coefficients
    layout = random.Random(f"simplicial form layout {draw}")
    dupont = [Request(["simplicial", "dupont", "--n", "3", "--form",
                       gen.barycentric_form(rng, 3, terms, layout)], None, "dupont",
                      label="dupont")
              for terms in DUPONT_FORMS * 2]
    project = [Request(["simplicial", "project", "--n", "3", "--form",
                        gen.barycentric_form(rng, 3, terms, layout)], None, "ok",
                       label="project")
               for terms in PROJECT_FORMS * 2]
    fixed = [Request(argv, None, check, label=argv[1]) for argv, check in FIXED_SIMPLICIAL]
    return _interleave([dupont, project, fixed])


WORKLOADS = {
    "cohomology": cohomology_requests,
    "horn-filling": horn_requests,
    "complexes": complexes_requests,
    "simplicial": simplicial_requests,
}
# Independent draws of the whole shape list per pass.  More distinct
# documents in a run average out the seed's effect on the quantiles; a pass
# takes about 15 s on a 2-core x86 container.
REPLICATES = {"cohomology": 2, "horn-filling": 3, "complexes": 1, "simplicial": 3}


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    reqs: list[Request] = []
    for draw in range(REPLICATES[workload]):
        _with_pairs([WORKLOADS[workload](rng, draw)], reqs)
    return reqs


# -- output checks -------------------------------------------------------------------


def check_report(req: Request, report: dict, paired: dict | None) -> str | None:
    """The workload check on the report of a request that exited 0 with
    ok: true.  None when it passes, else a one-line reason."""
    kind = req.check
    if kind == "kunneth" and report.get("all_agree") is not True:
        return "sym-kunneth: all_agree is false"
    if kind == "check":
        if paired is None:
            return "check: the paired cohomology request failed"
        want = [(e["weight"], e["parity"], e["dim"]) for e in paired["entries"] if e["dim"]]
        got = [(e["weight"], e["parity"], e["dim"]) for e in report.get("cohomology", [])]
        if want != got:
            return "check and cohomology disagree on dimensions"
    if kind == "horn" and report.get("filling", {}).get("all_surjective") is not True:
        return "horn: all_surjective is false"
    if kind == "lift":
        cert = report.get("certificate", {})
        if report.get("solvable") is not True or cert.get("rank") != cert.get("rank_augmented"):
            return "lift: a square built solvable was reported unsolvable"
    if kind == "factorize" and report.get("checks", {}).get("ok") is not True:
        return "factorize: checks.ok is false"
    if kind == "dupont" and report.get("identity_check") is not True:
        return "dupont: identity_check is false"
    if kind == "duality" and report.get("all_pass") is not True:
        return "duality: all_pass is false"
    return None


# -- layers each workload must reach or bypass (checked on the traced run) ------------

LAYERS = {
    "cohomology": {
        "nonzero": ["core.monomial_basis.calls", "dg.differential_matrix.calls",
                    "dg.derivation.calls", "linalg.rref.calls", "model.kunneth.calls"],
        "zero": [],
    },
    "horn-filling": {
        "nonzero": ["simplicial.filling.calls", "simplicial.cotensor.calls",
                    "core.monomial_basis.calls", "linalg.rref.calls"],
        "zero": [],
    },
    "complexes": {
        "nonzero": ["model.solve_lift.calls", "model.factorize.calls",
                    "model.verify_factorization.calls", "model.cohomology_dims.calls",
                    "linalg.rref.calls", "linalg.solve.calls"],
        "zero": ["core.monomial_basis.calls", "dg.*"],
    },
    "simplicial": {
        "nonzero": ["simplicial.dupont.calls", "simplicial.projection.calls",
                    "simplicial.integral.calls", "simplicial.dilation_homotopy.calls",
                    "forms.integrate.calls", "forms.substitute.calls"],
        "zero": ["linalg.*", "core.monomial_basis.calls"],
    },
}
