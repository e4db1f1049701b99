"""Traced CLI child: wraps sdga's layer boundaries from outside, runs
`sdga.cli.main` on the given arguments, and reports what it saw.

Usage (with sdga's `src` directory on PYTHONPATH):

    python3 perfbench/tracer.py <sdga CLI arguments>

stdout carries the CLI's report unchanged, so it can be compared byte for
byte with an untraced run.  The trace goes to stderr as one line,
`PERFBENCH_TRACE <json>`, after the command has finished.

A span is one call of a wrapped function.  Its self time is its duration
minus the time its wrapped callees took.  Wrappers replace the function at
every binding site: `from .core import monomial_basis` binds the name again
in dg, model, simplicial and sampling, and forms and simplicial bind
`partial` as `partial_derivative`.  Counter hooks run outside the timed
interval and are charged to `trace.hook_ms`, not to any span.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MARKER = "PERFBENCH_TRACE "


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []   # per open span: [child time]
        self.spans: dict[str, list] = {}     # name -> [calls, incl_s, self_s]
        self.counters: dict[str, float] = {}
        self.active: dict[str, int] = {}     # group -> open depth
        self.group_incl: dict[str, float] = {}
        self.hook_s = 0.0
        self.simplex_forms: dict[int, object] = {}
        self.cohomology_blocks: set | None = None

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, group: str | None = None, before=None, after=None):
        """Wrap fn in a span called name.

        before(args, kwargs) runs untimed ahead of the call and its value is
        handed to after(args, kwargs, result, state) once the call returns.
        Spans sharing a group add their inclusive time to that group only
        when no other span of the group is open.
        """
        stack = self.stack
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                h0 = perf_counter()
                state = before(args, kwargs)
                tracer.charge_hook(perf_counter() - h0)
            outer = False
            if group is not None:
                depth = tracer.active.get(group, 0)
                outer = depth == 0
                tracer.active[group] = depth + 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if group is not None:
                    tracer.active[group] -= 1
                    if outer:
                        tracer.group_incl[group] = tracer.group_incl.get(group, 0.0) + dt
            if after is not None:
                h0 = perf_counter()
                after(args, kwargs, result, state)
                tracer.charge_hook(perf_counter() - h0)
            return result

        return wrapper

    def charge_hook(self, seconds: float) -> None:
        """Book hook time to trace.hook_ms and keep it out of the open span."""
        self.hook_s += seconds
        if self.stack:
            self.stack[-1][0] += seconds

    def counter_only(self, fn, after):
        """Wrap fn with an untimed counter hook and no span."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            h0 = perf_counter()
            after(args, kwargs, result, None)
            tracer.charge_hook(perf_counter() - h0)
            return result

        return wrapper

    def summary(self) -> dict:
        spans = {k: [v[0], v[1] * 1e3, v[2] * 1e3] for k, v in self.spans.items() if v[0]}
        entries = 0
        for forms in self.simplex_forms.values():
            for attr in ("_whitney_cache", "_integral_cache", "_dilation_cache",
                         "_h_cache", "_s_cache", "_p_cache"):
                entries += len(getattr(forms, attr))
        counters = dict(self.counters)
        counters["simplicial.cache_entries"] = entries
        return {
            "spans": spans,
            "groups": {k: v * 1e3 for k, v in self.group_incl.items()},
            "counters": counters,
            "hook_ms": self.hook_s * 1e3,
        }


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every sdga module attribute that is `original` to `wrapper`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sdga" or name.startswith("sdga.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _replace_method(cls, attr: str, wrapper) -> None:
    """Rebind cls.attr and every alias of it in the class (e.g. __radd__)."""
    original = cls.__dict__[attr]
    for key, value in list(cls.__dict__.items()):
        if value is original:
            setattr(cls, key, wrapper)


def install(tr: Tracer) -> None:
    from sdga import cli, core, dg, forms, linalg, model, simplicial

    def fn(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace_everywhere(original, tr.wrap(name, original, **hooks))

    def method(cls, attr, name, **hooks):
        _replace_method(cls, attr, tr.wrap(name, cls.__dict__[attr], **hooks))

    # -- cli: the main root span, per-command spans, parser and loaders
    fn(cli, "build_parser", "cli.build_parser")
    for attr in ("build_algebra", "build_complex", "build_chain_map"):
        fn(cli, attr, f"cli.{attr}", group="cli.load")
    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        fn(cli, attr, f"cli.{attr}", group="cli.cmd")

    # -- core: element arithmetic, parse/render, basis enumeration
    def mul_after(args, kwargs, result, state):
        other = args[1]
        if isinstance(other, core.Element):
            tr.add("core.mul.term_pairs", len(args[0].terms) * len(other.terms))

    method(core.Element, "__mul__", "core.mul", after=mul_after)
    method(core.Element, "__add__", "core.add")
    fn(core, "partial", "core.partial")
    method(core.AlgebraMap, "__call__", "core.algebra_map")
    fn(core, "parse", "core.parse")
    fn(core, "render", "core.render")

    def basis_after(args, kwargs, result, state):
        tr.add("core.monomial_basis.kept", len(result))

    def enumerated(args, kwargs, result, state):
        tr.add("core.monomial_basis.enumerated", len(result))

    fn(core, "monomial_basis", "core.monomial_basis", after=basis_after)
    # only core's own binding: monomial_basis looks the enumerator up there
    core.monomials_of_degree_at_most = tr.counter_only(core.monomials_of_degree_at_most,
                                                       enumerated)

    # -- dg: derivations, differential blocks, compute_cohomology
    method(dg.Derivation, "__call__", "dg.derivation")

    def matrix_after(args, kwargs, result, state):
        src, dst = args[2], args[3]
        tr.add("dg.differential_matrix.entries", len(src) * len(dst))
        tr.add("dg.differential_matrix.nonzeros",
               sum(1 for row in result for x in row if x))
        if tr.cohomology_blocks is not None:
            tr.cohomology_blocks.add((id(src), id(dst)))
            tr.add("dg.differential_matrix.built_in_cohomology", 1)

    fn(dg, "_differential_matrix", "dg.differential_matrix", after=matrix_after)

    def cohomology_before(args, kwargs):
        outer = tr.cohomology_blocks
        tr.cohomology_blocks = set()
        return outer

    def cohomology_after(args, kwargs, result, outer):
        tr.add("dg.differential_matrix.distinct_in_cohomology", len(tr.cohomology_blocks))
        tr.add("dg.cohomology.entries", len(result.entries))
        tr.cohomology_blocks = outer

    fn(dg, "compute_cohomology", "dg.cohomology", before=cohomology_before,
       after=cohomology_after)

    # -- linalg: elimination and friends
    def rref_after(args, kwargs, result, state):
        mat = args[0]
        tr.add("linalg.rref.entries", len(mat) * (len(mat[0]) if mat else 0))
        tr.add("linalg.rref.nonzeros", sum(1 for row in mat for x in row if x))

    def elimination(args, kwargs, result, state):
        if tr.cohomology_blocks is not None:
            tr.add("linalg.eliminations_in_cohomology", 1)

    fn(linalg, "rref", "linalg.rref", after=rref_after)
    fn(linalg, "nullspace", "linalg.nullspace", after=elimination)
    fn(linalg, "rank", "linalg.rank", after=elimination)
    fn(linalg, "quotient_representatives", "linalg.quotient_representatives",
       after=elimination)
    fn(linalg, "solve_with_certificate", "linalg.solve")
    method(linalg.RowSpan, "add", "linalg.rowspan_add")
    fn(linalg, "mat_mul", "linalg.mat_mul")

    # -- forms
    fn(forms, "integrate", "forms.integrate")
    fn(forms, "substitute", "forms.substitute")

    # -- simplicial: the cached operators count lookups and cache growth
    def cached(cache_attr, lookups):
        def before(args, kwargs):
            f = args[0]
            tr.simplex_forms[id(f)] = f
            return len(getattr(f, cache_attr))

        def after(args, kwargs, result, size0):
            f = args[0]
            tr.add("simplicial.cache_lookups", lookups(args))
            tr.add("simplicial.cache_misses", len(getattr(f, cache_attr)) - size0)

        return {"before": before, "after": after}

    def integral_lookups(args):
        f, indices, element = args[0], args[1], args[2]
        k = len(indices) - 1
        if k == 0:
            return 0
        return sum(1 for m in element.terms if f.form_weight_of(m) == k)

    fn(simplicial, "dupont_homotopy", "simplicial.dupont",
       **cached("_s_cache", lambda a: len(a[1].terms)))
    fn(simplicial, "whitney_projection", "simplicial.projection",
       **cached("_p_cache", lambda a: len(a[1].terms)))
    fn(simplicial, "simplex_integral", "simplicial.integral",
       **cached("_integral_cache", integral_lookups))
    fn(simplicial, "dilation_homotopy", "simplicial.dilation_homotopy",
       **cached("_h_cache", lambda a: len(a[2].terms)))
    fn(simplicial, "whitney", "simplicial.whitney")
    method(simplicial.SimplexForms, "__init__", "simplicial.simplex_forms_init")
    method(simplicial.TensorForms, "__init__", "simplicial.tensor_forms_init")

    def filling_after(args, kwargs, result, state):
        max_extra = kwargs.get("max_extra", args[7] if len(args) > 7 else 3)
        for entry in result.get("entries", []):
            if entry.get("target_dim"):
                if entry["surjective"]:
                    tr.add("simplicial.filling.cap_retries",
                           entry["cap_used"] - result["degree_cap"])
                else:
                    tr.add("simplicial.filling.cap_retries", max_extra)

    fn(simplicial, "filling_report", "simplicial.filling", after=filling_after)
    fn(simplicial, "cotensor_report", "simplicial.cotensor")

    # -- model
    def lift_after(args, kwargs, result, state):
        i, p = args[0], args[1]
        B, X = i.target, p.source
        tr.add("model.lift.unknowns", sum(X.dim(k) * n for k, n in B.dims.items()))

    fn(model, "solve_lift", "model.solve_lift", after=lift_after)
    fn(model, "factorize", "model.factorize")
    fn(model, "verify_factorization", "model.verify_factorization")
    fn(model, "cohomology_dims", "model.cohomology_dims")
    fn(model, "kunneth_report", "model.kunneth")
    fn(model, "is_weak_equivalence", "model.is_weak_equivalence")
    method(model.Complex, "__init__", "model.complex_init")
    method(model.ChainMap, "__init__", "model.chain_map_init")


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import sdga.cli
    import_ms = (perf_counter() - t0) * 1e3
    tr = Tracer()
    install(tr)
    run = tr.wrap("cli.main", sdga.cli.main)
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        out = tr.summary()
        out["import_ms"] = import_ms
        sys.stderr.write(MARKER + json.dumps(out) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
