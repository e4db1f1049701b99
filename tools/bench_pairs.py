"""Paired end-to-end comparison of two sdga checkouts on one benchmark workload.

    python3 tools/bench_pairs.py --base DIR --change DIR --workload simplicial \
        --seed 29 --seconds 28 --pairs 10

Each pair runs the unmodified `perfbench/run.py` of both checkouts, one after
the other, and the side that runs first alternates from pair to pair.  The
result goes to BENCH_<workload>.json in the current directory: every run's
end-to-end metrics, and per metric the median and quartiles of each side and
the number of pairs the change won (by the direction BENCHMARK.json gives).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: str, args) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for flag in ("--base", "--change", "--workload"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args)
        pairs.append(pair)
        print(k + 1, {s: round(pair[s]["metrics"]["cpu_ms_per_op"], 2) for s in order},
              file=sys.stderr)
    summary = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        summary[name] = {"better": direction, "base": spread(base), "change": spread(change),
                         "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change))}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": len(pairs), "python": platform.python_version(),
              "machine": platform.machine(),
              "summary": summary, "runs": pairs}
    Path(f"BENCH_{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
