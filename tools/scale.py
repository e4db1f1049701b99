"""The scale pins: thirteen larger sdga requests and the digest of each report.

    python3 tools/scale.py check

A pin is a row of PINS: a document, the CLI arguments and the sha256 of the
report.  The documents S, O, F, K, Q and L are built from perfbench/gen.py,
imported read-only; the document "-" means none is read.  `check` writes the
documents to a temporary directory, makes one warm-up request, then runs each
pin as `python3 -m sdga.cli` on this checkout's src, with bytecode caching
on as for an installed tool (PYTHONDONTWRITEBYTECODE dropped, so no request
recompiles sdga).  It prints each pin's digest and its child CPU, from
`os.wait4`.  On a wrong digest or a nonzero exit it names the pin and exits 1.

S and O are ROADMAP's scale algebras, F a chain map between two 120-cell
complexes, which both factorize modes take (the cofibration mode attaches 1
closed generator and 6 relations, never both at one key: that case, relations
at the key before one that got closed generators, is covered only by the
tier-1 tests), K a 12-dimensional 8-cell
complex, Q a Koszul algebra whose weight-0 even generators make every weight
space infinite, and L a solvable lifting square of four 48-cell complexes.
`simplicial duality --n 6` integrates by both methods over all 127 faces of
the 6-simplex, and the n = 6 horn is the one horn request whose filling
system is large enough to exercise its transposed elimination.  `simplicial
dupont --n 7` walks the Dupont homotopy over the 7-simplex on a form with t0
and dt0 in it, which the walk eliminates once, at its end, and `simplicial
whitney --n 8 --barycentric` prints all 511 Whitney forms of the 8-simplex
in both presentations, each written term by term and eliminated.  Change a pin
only with a deliberate report change recorded in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINS = [
    ("S", ["cohomology", "--window=0:16", "--degcap", "16"],
     "ccd6e76d2ae7911d92d674fc505680f2d5ef4e7dc3c74de99d5ab2a3ff4dc1e8"),
    ("O", ["cotensor", "--n", "5", "--degcap", "5", "--shape", "boundary", "--window=0:2"],
     "ea6450a86a8e101f74532b7eb00b852709f3247c13aa106d8d591e521be61857"),
    ("O", ["cotensor", "--n", "5", "--degcap", "5", "--shape", "horn", "--horn-vertex", "0",
           "--window=0:2"],
     "e7a7394876fde166217a9e41099def371435669e80117f9705cf5a5579d95dae"),
    ("O", ["cotensor", "--n", "6", "--degcap", "5", "--shape", "horn", "--horn-vertex", "0",
           "--window=0:2"],
     "b3212f97603812d1cdf6ecbf0093a510dedbbd2d335d84c2cb67a1969e8c8956"),
    ("O", ["cotensor", "--n", "8", "--degcap", "3", "--shape", "boundary", "--window=0:2"],
     "8b0f5a76774b0cb7a262459af9d18d919c5416d9451cfeedc902b8edfd91ad5a"),
    ("F", ["complex", "factorize", "--mode", "acyclic_cofibration_fibration"],
     "15c0a521a2160ab2af291d7d37f7b498efd04e8ddc2e9ba451134c4a1c035175"),
    ("F", ["complex", "factorize", "--mode", "cofibration_acyclic_fibration"],
     "78a2ec2d5c1228b59fdbc50c68daf385a9bcd7753c005914689795625c3a1d3c"),
    ("-", ["simplicial", "duality", "--n", "6"],
     "c15406bef98ad22945e36f873521150847ba66de55a81f7bc861b6b6b4a37b51"),
    ("-", ["simplicial", "dupont", "--n", "7", "--form",
           "t0^4 * t1^2 * dt2 * dt3 + 3 * t2^3 * t5 * dt0 * dt1 * dt4 - 2 * t3^2 * dt1"],
     "3f1bf7486b8de7f15f4789615a2c12de7cd23260906d584b072768863720aa00"),
    ("-", ["simplicial", "whitney", "--n", "8", "--barycentric"],
     "cf592be3c5ec82d3214bc451a95cb35050b3234001c88ed669f212a02cc99ff9"),
    ("K", ["sym-kunneth", "--window=-1:4", "--degcap", "6"],
     "3b30b06c7ce2b81d0a7d919a9d2d2f43d13871dedc16ebb4ff15f3a95951d8fa"),
    ("Q", ["cohomology", "--window=0:6", "--degcap", "10"],
     "781e2df815d05d248a84293ced7b0cb780cbc15e445554fdfd2ae1b56f39bcd8"),
    ("L", ["complex", "lift"],
     "9acdb782ac408bb7f10e35b3ab11bc29ae8e26dee9c36ed7151f74f199d65994"),
]


def documents() -> dict[str, dict]:
    """The six scale documents by name, built by perfbench/gen.py."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = dont_write
    keys = [(0, 0), (1, 1), (-1, 1), (0, 1)]
    shapes, rng = random.Random("scale factorize cells"), random.Random(7)
    src = gen.CellComplex(rng, gen.random_cells(shapes, keys, 120))
    dst = gen.CellComplex(rng, gen.random_cells(shapes, keys, 120))
    return {
        "S": gen.sullivan_algebra(random.Random(5), [1, 1, 2, 2, 3], [3, 4], "ee ee eo"),
        "O": gen.coefficient_algebra(random.Random(1), "o1"),
        "F": gen.map_doc(src, dst, gen.cell_map(rng, src, dst, random.Random("layout"))),
        "K": gen.CellComplex(random.Random(3), gen.random_cells(
            random.Random("scale kunneth cells"), keys + [(1, 0)], 8)).doc(),
        "Q": gen.koszul_algebra(random.Random(5), 2, [(1, 1), (2, 0)], "oo"),
        "L": gen.lifting_square(random.Random(11), [
            gen.random_cells(random.Random(f"scale lift cells {k}"), keys, 48)
            for k in range(4)], random.Random("scale lift layout")),
    }


def request(argv: list[str], stdin: str, stdout: str, env: dict) -> tuple[int, float]:
    """Run `python3 -m sdga.cli argv` from file stdin to file stdout; returns
    its exit code and child CPU seconds."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "sdga.cli", *argv], env,
                         file_actions=[
                             (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
                             (os.POSIX_SPAWN_OPEN, 1, stdout,
                              os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime


def check() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in documents().items():
            Path(tmp, f"{name}.json").write_text(json.dumps(doc))
        out = str(Path(tmp, "report"))
        request(["cells"], os.devnull, out, env)  # warm-up: compiles sdga once
        for doc, argv, digest in PINS:
            pin = " ".join([doc, *argv])
            if doc == "-":
                code, cpu = request(argv, os.devnull, out, env)
            else:
                code, cpu = request([*argv, "--input", "-"], str(Path(tmp, f"{doc}.json")),
                                    out, env)
            got = hashlib.sha256(Path(out).read_bytes()).hexdigest()
            print(f"{pin}: {got}  {cpu:.2f} s CPU", flush=True)
            if code:
                print(f"{pin}: exited {code}", file=sys.stderr)
                return 1
            if got != digest:
                print(f"{pin}: expected {digest}", file=sys.stderr)
                return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=["check"])
    parser.parse_args(argv)
    return check()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
