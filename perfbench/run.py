"""The sdga benchmark: real CLI requests, end to end, in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; no install is needed.  Each
request is one fresh interpreter running `python -m sdga.cli ...` with
`src` on PYTHONPATH and its input document on stdin (`--input -`).  One
client sends the next request only when the previous one has exited and its
output has been read.

--trace 0 loops over the workload's requests for S seconds (and at least one
full pass) and prints the end-to-end metrics, with the timings rescaled to
a nominal host speed by a reference child that runs between requests (see
host_speed).  --trace 1 runs each request
of one pass twice, untraced and then traced; the traced child is
perfbench/tracer.py, and the per-layer metrics come from it.  Either way the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when a result was printed and 2 when
the run could not be made at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import MARKER  # noqa: E402

SETUP_REPEATS = 7
SETUP_EVERY = 12           # requests between two set-up repeats
REQUEST_TIMEOUT_S = 60.0
# stop starting requests this long after launch, so a run ends within 180 s
HARD_STOP_S = 150.0
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]

# The reference child: interpreter start-up and a fixed piece of Fraction
# and dict work, the kind of work sdga does, with no sdga code in it.  Its
# CPU time tracks the host's speed; see host_speed().
REFERENCE_CODE = """
from fractions import Fraction
acc, table = Fraction(0), {}
for k in range(1, 3000):
    acc += Fraction(k, k + 1) * Fraction(k + 2, 3)
    table[k % 17, k % 5] = acc.numerator % 1000
"""
REFERENCE_EVERY = 2        # requests between two reference children
REFERENCE_CPU_MS = 80.0    # the reference child's CPU time at nominal speed


@dataclass
class Outcome:
    code: int | None          # None on timeout
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float


def child_env() -> dict:
    """sdga on the path, and bytecode caching on as for an installed tool:
    the warm-up request in set-up compiles it once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def execute(cmd: list[str], payload: bytes, env: dict, timeout: float) -> Outcome:
    """One request: spawn, feed stdin, read all output, wait for exit."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(payload, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Outcome(code, out, err, wall, cpu)


def untraced_cmd(req: workloads.Request) -> list[str]:
    return [sys.executable, "-m", "sdga.cli", *req.argv]


def traced_cmd(req: workloads.Request) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), *req.argv]


def payload(req: workloads.Request) -> bytes:
    return b"" if req.doc is None else json.dumps(req.doc).encode()


class Judge:
    """Classifies each outcome and keeps the run's verdict.

    A request fails on a nonzero exit, ok: false, output that does not
    parse, a timeout, or a failed workload check.  Separately, the run is
    incorrect when a request gives a wrong answer: it claims success but
    fails its check, its output differs from an earlier run of the same
    request, or it ends in anything but a clean report (exit 0 or 1 with a
    parseable envelope).  A verification failure the program reports itself
    (exit 1, ok: false) is counted as failed but is not a wrong answer.
    """

    def __init__(self, reqs: list[workloads.Request]):
        self.reqs = reqs
        self.first: dict[int, bytes] = {}
        self.first_failed: dict[int, bool] = {}
        self.reports: dict[int, dict] = {}
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def judge(self, idx: int, outcome: Outcome) -> bool:
        """Record one outcome of request idx; True when it failed.

        A repeat must fail or succeed as the first run of its request did,
        else the run is incorrect; so the first pass's count of failures
        holds for every repeat too."""
        repeat = idx in self.first_failed
        logged = len(self.failures)
        failed = self._judge(idx, outcome)
        if repeat:
            del self.failures[logged:]   # each failing request is listed once
        if self.first_failed.setdefault(idx, failed) != failed:
            self.wrong.append(f"#{idx}: failed on one run of the request and not on another")
        return failed

    def _judge(self, idx: int, outcome: Outcome) -> bool:
        req = self.reqs[idx]
        name = f"#{idx} {' '.join(req.argv[:2])} ({req.label})"
        seen = self.first.setdefault(idx, outcome.stdout)
        if seen != outcome.stdout:
            self.wrong.append(f"{name}: output differs from an earlier run of the request")
        if outcome.code is None:
            self.failures.append(f"{name}: timed out")
            return True
        try:
            env = json.loads(outcome.stdout)
        except ValueError:
            env = None
        if not isinstance(env, dict) or outcome.code not in (0, 1):
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{name}: exit {outcome.code}, no report {tail}")
            self.wrong.append(f"{name}: crashed or rejected its input (exit {outcome.code})")
            return True
        if outcome.code != 0 or env.get("ok") is not True:
            report = env.get("report", {})
            detail = {k: v for k, v in report.items() if isinstance(v, bool) and not v}
            self.failures.append(f"{name}: exit {outcome.code}, ok false {detail}")
            return True
        report = env["report"]
        paired = self.reports.get(req.pair) if req.pair is not None else None
        reason = workloads.check_report(req, report, paired)
        if reason is not None:
            self.failures.append(f"{name}: {reason}")
            self.wrong.append(f"{name}: {reason}")
            return True
        self.reports.setdefault(idx, report)
        return False

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(len(self.reqs)):
            h.update(self.first.get(idx, b"<missing>"))
        return h.hexdigest()


def quantile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  A
    workload mixes a few dozen request sizes, so a single order statistic
    jumps between sizes when a few requests change places; this estimate
    moves smoothly instead.  The Beta CDF is integrated numerically.
    """
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    per = 100  # integration steps per order statistic
    edges, acc, prev = [0.0], 0.0, density(0.0)
    for k in range(1, per * n + 1):
        cur = density(k / (per * n))
        acc += (prev + cur) / (2 * per * n)
        prev = cur
        if k % per == 0:
            edges.append(acc)
    return sum((edges[i + 1] - edges[i]) * v for i, v in enumerate(sorted_values)) / acc


def per_request(outcomes: list, count: int, field: str) -> list[float]:
    """Each request's median over its repeats in the run, in request order.

    Every request of the pass counts once however many times the loop
    reached it, so the mix the metrics describe is the pass's mix, the
    same on every run, and a host stall inside one repeat is damped."""
    samples: list[list[float]] = [[] for _ in range(count)]
    for idx, outcome, _ in outcomes:
        samples[idx].append(getattr(outcome, field))
    return [statistics.median(s) for s in samples if s]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


WARM_UP = workloads.Request(["cells"])


def setup(workload: str, seed: int, env: dict, warm_cmd):
    """Generate the documents and make one untimed warm-up request.

    The warm-up is the same small request for every workload and seed: it
    imports and byte-compiles sdga, so set-up time does not depend on which
    document the seed put first.  Returns (requests, their stdin payloads,
    seconds taken)."""
    t0 = time.perf_counter()
    reqs = workloads.build(workload, seed)
    payloads = [payload(req) for req in reqs]
    outcome = execute(warm_cmd(WARM_UP), b"", env, REQUEST_TIMEOUT_S)
    if outcome.code not in (0, 1):
        err = outcome.stderr.decode(errors="replace").strip()
        raise SystemExit(f"warm-up request failed (exit {outcome.code}): {err[-500:]}")
    return reqs, payloads, time.perf_counter() - t0


def reference(env: dict, references: list[Outcome]) -> None:
    """Run the reference child once and keep its outcome."""
    outcome = execute([sys.executable, "-c", REFERENCE_CODE], b"", env, REQUEST_TIMEOUT_S)
    if outcome.code != 0:
        err = outcome.stderr.decode(errors="replace").strip()
        raise SystemExit(f"reference child failed (exit {outcome.code}): {err[-500:]}")
    references.append(outcome)


def host_speed(references: list[Outcome]) -> float:
    """The factor that rescales a time measured in this run to the nominal
    host speed: REFERENCE_CPU_MS over the reference child's median CPU time.

    A shared host's speed drifts by a third or more over tens of seconds,
    slower than a run, and request wall and CPU times move with it.  The
    reference child, a process of the same kind as a request, tracks that
    drift; README.md (Host speed) has the measurement behind this."""
    return REFERENCE_CPU_MS / (statistics.median(o.cpu_s for o in references) * 1e3)


def run_pass(reqs, payloads, cmd, env, judge, launched: float, outcomes: list,
             stop_after_s: float, interlude) -> tuple[bool, float]:
    """Run requests in order, cycling, until one full pass is done and
    stop_after_s has elapsed, calling interlude(k) after the k-th request.
    Returns whether the hard stop left the loop alone, and the seconds the
    interludes took."""
    start = time.perf_counter()
    k, away = 0, 0.0
    while k < len(reqs) or time.perf_counter() - start < stop_after_s:
        left = HARD_STOP_S - (time.perf_counter() - launched)
        if left <= 0:
            return False, away
        idx = k % len(reqs)
        outcome = execute(cmd(reqs[idx]), payloads[idx], env,
                          min(REQUEST_TIMEOUT_S, left))
        outcomes.append((idx, outcome, judge.judge(idx, outcome)))
        k += 1
        t0 = time.perf_counter()
        interlude(k)
        away += time.perf_counter() - t0
    return True, away


def measure(args, env, launched) -> dict:
    reqs, payloads, setup_s = setup(args.workload, args.seed, env, untraced_cmd)
    setups = [setup_s]
    references: list[Outcome] = []
    problems: list[str] = []

    def interlude(k: int) -> None:
        """Reference children, and the set-up's repeats, spread over the
        run: the host speed factor is a median over the whole run, so the
        set-up times it rescales are taken over the whole run too."""
        if k % REFERENCE_EVERY == 0:
            reference(env, references)
        if k % SETUP_EVERY == 0 and len(setups) < SETUP_REPEATS:
            _, again, setup_s = setup(args.workload, args.seed, env, untraced_cmd)
            setups.append(setup_s)
            if again != payloads:
                problems.append("a repeated set-up made other documents from the same seed")

    judge = Judge(reqs)
    outcomes: list = []
    rss0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t0 = time.perf_counter()
    complete, away = run_pass(reqs, payloads, untraced_cmd, env, judge, launched, outcomes,
                              args.seconds, interlude)
    # the interludes are not request time
    loop_s = time.perf_counter() - t0 - away
    n = len(outcomes)
    if not n:
        raise SystemExit("set-up used up the time limit; no request was measured")
    walls = sorted(w * 1e3 for w in per_request(outcomes, len(reqs), "wall_s"))
    cpus = per_request(outcomes, len(reqs), "cpu_s")
    m = len(walls)
    # attempted and failed count each request of the pass once; a repeat
    # cannot fail otherwise than its first run (Judge), so they hold for
    # the whole run and depend on the seed alone, not on the host's speed
    attempted = len(judge.first_failed)
    failed = sum(judge.first_failed.values())
    run_failed = sum(1 for *_, bad in outcomes if bad)
    tail_p = tail_percentile(len(reqs))
    rss_kb = max(rss0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    measured = {
        "latency_p50_ms": (quantile(walls, 0.5), "ms"),
        "latency_tail_ms": (quantile(walls, tail_p / 100.0), "ms"),
        "ops_per_s": (n / loop_s, "1/s"),
        "cpu_ms_per_op": (sum(cpus) * 1e3 / m, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if not references:   # the hard stop came before the second request
        reference(env, references)
    speed = host_speed(references)
    metrics = {name: (value / speed if unit == "1/s" else value * speed, unit)
               for name, (value, unit) in measured.items()}
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    samples = {
        "latency_p50_ms": f"n={m} requests, {n} samples",
        "latency_tail_ms": f"p{tail_p:g}, n={m} requests, {n} samples",
        "ops_per_s": f"n={n}",
        "cpu_ms_per_op": f"n={m} requests, {n} samples",
        "setup_s": f"median of {len(setups)}",
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
        f"{len(reqs)} requests per pass, {n} requests in {loop_s:.1f} s",
        "  latency and CPU are over each request's median of its repeats",
        f"  host speed factor {speed:10.4f}        reference child CPU "
        f"{REFERENCE_CPU_MS / speed:.2f} ms (median of {len(references)}), nominal "
        f"{REFERENCE_CPU_MS:g} ms",
        "  metric            at nominal speed  as measured",
    ]
    for name, text in samples.items():
        value, unit = metrics[name]
        lines.append(f"  {name:<17} {value:10.4f} {unit:<5} {measured[name][0]:10.4f}  {text}")
    lines += [
        f"  ops_failed_ratio  {failed / attempted:10.4f} ratio  "
        f"{failed}/{attempted} requests of the pass, {run_failed}/{n} runs of them",
        f"  peak_rss_mb       {metrics['peak_rss_mb'][0]:10.4f} MB     "
        f"max over all children",
        f"  digest sha256     {judge.digest()}  (first pass, request order)",
    ]
    problems += judge.wrong
    if not complete:
        problems.append("the hard stop cut the first pass short")
    return finish(lines, judge, problems, attempted, failed, metrics)


def traced(args, env, launched) -> dict:
    reqs, payloads, _ = setup(args.workload, args.seed, env, traced_cmd)
    plain, traced_judge = Judge(reqs), Judge(reqs)
    plain_out: list = []
    traced_out: list = []
    # each request runs untraced and then traced, back to back, so that the
    # overhead ratio compares the two under the same load on the host
    for idx, req in enumerate(reqs):
        left = HARD_STOP_S - (time.perf_counter() - launched)
        if left <= 0:
            break
        for cmd, judge, out in ((untraced_cmd, plain, plain_out),
                                (traced_cmd, traced_judge, traced_out)):
            outcome = execute(cmd(req), payloads[idx], env, min(REQUEST_TIMEOUT_S, left))
            out.append((idx, outcome, judge.judge(idx, outcome)))
    problems = list(plain.wrong) + list(traced_judge.wrong)
    if len(traced_out) < len(reqs):
        problems.append("the hard stop cut the pass short")
    if plain.digest() != traced_judge.digest():
        problems.append("traced outputs differ from untraced outputs")
    totals = {"spans": {}, "groups": {}, "counters": {}, "hook_ms": 0.0, "import_ms": 0.0,
              "report_bytes": 0, "wall_ms": 0.0}
    for _, outcome, _ in traced_out:
        totals["report_bytes"] += len(outcome.stdout)
        totals["wall_ms"] += outcome.wall_s * 1e3
        line = next((ln for ln in outcome.stderr.decode(errors="replace").splitlines()
                     if ln.startswith(MARKER)), None)
        if line is None:
            problems.append("a traced request printed no trace")
            continue
        one = json.loads(line[len(MARKER):])
        for name, (calls, incl, own) in one["spans"].items():
            acc = totals["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for key in ("groups", "counters"):
            for name, value in one[key].items():
                totals[key][name] = totals[key].get(name, 0) + value
        totals["hook_ms"] += one["hook_ms"]
        totals["import_ms"] += one["import_ms"]
    n = len(traced_out)
    untraced_ms = sum(o.wall_s for _, o, _ in plain_out) * 1e3
    metrics, shares = layer_metrics(totals, n, untraced_ms)
    for rule in workloads.LAYERS[args.workload]["nonzero"]:
        if not metrics[rule][0]:
            problems.append(f"expected layer reads zero: {rule}")
    for rule in workloads.LAYERS[args.workload]["zero"]:
        names = [m for m in metrics if m.startswith(rule[:-1])] if rule.endswith("*") else [rule]
        for name in names:
            if name.endswith((".calls", ".self_ms")) and metrics[name][0]:
                problems.append(f"bypassed layer reads nonzero: {name} = {metrics[name][0]}")
    failed = sum(1 for *_, bad in traced_out if bad)
    lines = [
        f"workload {args.workload}  seed {args.seed}  traced: each of {len(reqs)} requests "
        f"once untraced, then once traced",
        f"  digest sha256 untraced {plain.digest()}",
        f"  digest sha256 traced   {traced_judge.digest()}",
        f"  trace.overhead_ratio   {metrics['trace.overhead_ratio'][0]:.3f}",
        "  self time per request, by module, as a share of traced wall time; the",
        "  last three rows are the remainder: sdga import, counter hooks, and",
        "  interpreter start-up and exit",
    ]
    for module, value, share in shares:
        lines.append(f"    {module:<12} {value:10.2f} ms  {share * 100:6.2f} %")
    return finish(lines, traced_judge, problems, n, failed, metrics)


MODULES = ["cli", "core", "dg", "linalg", "forms", "simplicial", "model"]


def layer_metrics(t: dict, n: int, untraced_ms: float):
    spans, counters, groups = t["spans"], t["counters"], t["groups"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    def per(name, value, unit):
        m[name] = (value / n, unit)

    main_ms = spans.get("cli.main", [0, 0.0, 0.0])[1]
    per("cli.import_ms", t["import_ms"], "ms")
    per("cli.build_parser_ms", spans.get("cli.build_parser", [0, 0.0, 0.0])[1], "ms")
    per("cli.load_ms", groups.get("cli.load", 0.0), "ms")
    per("cli.envelope_ms", main_ms - groups.get("cli.cmd", 0.0), "ms")
    per("cli.report_bytes", t["report_bytes"], "B")
    per("core.monomial_basis.calls", calls("core.monomial_basis"), "count")
    per("core.monomial_basis.self_ms", self_ms("core.monomial_basis"), "ms")
    m["core.monomial_basis.kept_ratio"] = (
        ratio(counters.get("core.monomial_basis.kept", 0),
              counters.get("core.monomial_basis.enumerated", 0)), "ratio")
    for short, name in (("mul", "core.mul"), ("add", "core.add"), ("partial", "core.partial"),
                        ("algebra_map", "core.algebra_map"), ("render", "core.render")):
        per(f"core.{short}.calls", calls(name), "count")
        per(f"core.{short}.self_ms", self_ms(name), "ms")
    per("core.mul.term_pairs", counters.get("core.mul.term_pairs", 0), "count")
    per("core.parse.self_ms", self_ms("core.parse"), "ms")
    per("dg.derivation.calls", calls("dg.derivation"), "count")
    per("dg.derivation.self_ms", self_ms("dg.derivation"), "ms")
    per("dg.differential_matrix.calls", calls("dg.differential_matrix"), "count")
    per("dg.differential_matrix.self_ms", self_ms("dg.differential_matrix"), "ms")
    per("dg.differential_matrix.entries", counters.get("dg.differential_matrix.entries", 0),
        "count")
    per("dg.differential_matrix.nonzeros",
        counters.get("dg.differential_matrix.nonzeros", 0), "count")
    m["dg.differential_matrix.unique_ratio"] = (
        ratio(counters.get("dg.differential_matrix.distinct_in_cohomology", 0),
              counters.get("dg.differential_matrix.built_in_cohomology", 0)), "ratio")
    per("dg.cohomology.calls", calls("dg.cohomology"), "count")
    per("dg.cohomology.self_ms", self_ms("dg.cohomology"), "ms")
    per("linalg.rref.calls", calls("linalg.rref"), "count")
    per("linalg.rref.self_ms", self_ms("linalg.rref"), "ms")
    per("linalg.rref.entries", counters.get("linalg.rref.entries", 0), "count")
    m["linalg.rref.density"] = (ratio(counters.get("linalg.rref.nonzeros", 0),
                                      counters.get("linalg.rref.entries", 0)), "ratio")
    per("linalg.nullspace.calls", calls("linalg.nullspace"), "count")
    per("linalg.rank.calls", calls("linalg.rank"), "count")
    for short in ("solve", "rowspan_add", "mat_mul"):
        per(f"linalg.{short}.calls", calls(f"linalg.{short}"), "count")
        per(f"linalg.{short}.self_ms", self_ms(f"linalg.{short}"), "ms")
    m["linalg.eliminations_per_entry"] = (
        ratio(counters.get("linalg.eliminations_in_cohomology", 0),
              counters.get("dg.cohomology.entries", 0)), "ratio")
    for short in ("integrate", "substitute"):
        per(f"forms.{short}.calls", calls(f"forms.{short}"), "count")
        per(f"forms.{short}.self_ms", self_ms(f"forms.{short}"), "ms")
    for short in ("dupont", "projection", "integral", "dilation_homotopy"):
        per(f"simplicial.{short}.calls", calls(f"simplicial.{short}"), "count")
        per(f"simplicial.{short}.self_ms", self_ms(f"simplicial.{short}"), "ms")
    lookups = counters.get("simplicial.cache_lookups", 0)
    m["simplicial.cache_hit_ratio"] = (
        ratio(lookups - counters.get("simplicial.cache_misses", 0), lookups), "ratio")
    per("simplicial.cache_entries", counters.get("simplicial.cache_entries", 0), "count")
    per("simplicial.filling.calls", calls("simplicial.filling"), "count")
    per("simplicial.filling.self_ms", self_ms("simplicial.filling"), "ms")
    per("simplicial.filling.cap_retries", counters.get("simplicial.filling.cap_retries", 0),
        "count")
    per("simplicial.cotensor.calls", calls("simplicial.cotensor"), "count")
    per("simplicial.cotensor.self_ms", self_ms("simplicial.cotensor"), "ms")
    for short in ("solve_lift", "factorize", "verify_factorization", "cohomology_dims",
                  "kunneth"):
        per(f"model.{short}.calls", calls(f"model.{short}"), "count")
        per(f"model.{short}.self_ms", self_ms(f"model.{short}"), "ms")
    per("model.lift.unknowns", counters.get("model.lift.unknowns", 0), "count")

    wall_ms = t["wall_ms"]
    shares = []
    accounted = 0.0
    for module in MODULES:
        own = sum(v[2] for k, v in spans.items() if k.split(".")[0] == module)
        accounted += own
        per(f"{module}.self_ms", own, "ms")
        shares.append((module, own / n, ratio(own, wall_ms)))
    remainder = wall_ms - accounted
    per("trace.remainder_ms", remainder, "ms")
    interpreter = remainder - t["import_ms"] - t["hook_ms"]
    for label, value in (("(import)", t["import_ms"]), ("(hooks)", t["hook_ms"]),
                         ("(interp.)", interpreter)):
        shares.append((label, value / n, ratio(value, wall_ms)))
    m["trace.overhead_ratio"] = (ratio(wall_ms, untraced_ms), "ratio")
    return m, shares


def finish(lines, judge, problems, attempted, failed, metrics) -> dict:
    for line in lines:
        print(line)
    for reason in judge.failures[:20]:
        print(f"  failed: {reason}")
    if len(judge.failures) > 20:
        print(f"  ... {len(judge.failures) - 20} more failures")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    launched = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "sdga" / "cli.py").is_file():
        print(f"no sdga sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    result = (traced if args.trace else measure)(args, env, launched)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
