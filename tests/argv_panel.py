"""A differential panel of command lines: cli._read_row against argparse.

For each row of cli.COMMANDS it draws argvs from a pool of tokens: the row's
flags as FLAG VALUE and FLAG=VALUE, abbreviations, -h, --json with --text,
repeated and missing options, stray words, and values that start with "-",
are empty, hold spaces or underscores, or miss the option's type or choices.
On each argv _read_row must either decline (None) or return the fields of
the Namespace the full argparse tree parses, and it must decline every argv
on which argparse exits.  The draws are seeded, so a failure reproduces.

tests/test_cli.py runs the panel under pytest.  To run it on an interpreter
without pytest:

    PYTHONPATH=src python tests/argv_panel.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

from sdga import cli

# values of every kind: a pool for each option, whatever its type
VALUES = ["3", "0", "-", "-3", "-3 * t0", "-3 * t0^3 * dt1", "-h x", "--n", "", " 3",
          "1_0", "+2", "3.5", "x", "t0 * dt1", "-t0 * dt1", "-1:2", "0:3", "--", "-1/2",
          "-3.5", "x=y", "-x", "--json", "-h", "simplex", "horn", "cube",
          "acyclic_cofibration_fibration", "-3\n"]
# tokens that are no flag of any row, or are only at the top level
STRAYS = ["-h", "--help", "--version", "--", "-", "x", "--json=x", "--text=", "-hx"]
# argvs _read_row leaves to argparse: "-h x" is the help option with an
# argument to argparse, not a value; FLAG=-- is no value before Python 3.13;
# --deg is an abbreviation; argparse rejects the other two
DECLINED = [
    ["simplicial", "dupont", "--n", "2", "--form", "-h x"],
    ["simplicial", "dupont", "--n", "2", "--form=--"],
    ["cotensor", "--n", "2", "--deg", "3"],
    ["cohomology", "--json", "--text"],
    ["simplicial", "whitney", "--n", "2", "--barycentric=1"],
]


def _value(rng: random.Random, kwargs: dict) -> str:
    """A value for an option: of its kind half the time, else from VALUES."""
    if rng.random() < 0.5:
        return rng.choice(VALUES)
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    return rng.choice(["3", "-3", " 3", "1_0"] if kwargs.get("type") is int
                      else ["t0", "-", "-3 * t0", "-1:2", "0:3"])


def _option(rng: random.Random, flag: str, kwargs: dict) -> list[str]:
    """The option written in one of the ways argparse reads, or a near miss."""
    if kwargs.get("action") == "store_true":
        return rng.choice([[flag], [flag], [flag[:5]], [f"{flag}=1"]])
    value = _value(rng, kwargs)
    way = rng.randrange(6)
    if way == 0:
        return [f"{flag}={value}"]
    if way == 1:
        return [flag[:5], value]
    if way == 2:
        return [flag]
    return [flag, value]


def draw(rng: random.Random, words: str) -> list[str]:
    """One argv for the row: its words, then mostly its own options."""
    options = next(row[2] for row in cli.COMMANDS if row[0] == words)
    argv = words.split()
    if rng.random() < 0.7:
        for flag, kwargs in options:
            if kwargs.get("required"):
                argv += [flag, _value(rng, kwargs)]
    for _ in range(rng.randrange(4)):
        pick = rng.random()
        if pick < 0.6 and options:
            argv += _option(rng, *rng.choice(options))
        elif pick < 0.85:
            argv.append(rng.choice(["--json", "--text"]))
        else:
            argv.append(rng.choice(STRAYS))
    return argv


def argparse_fields(parser, argv: list[str]) -> dict | None:
    """vars() of the Namespace argparse parses argv to; None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def check(words: str, seed: int, count: int) -> tuple[list, int]:
    """(argvs on which _read_row disagrees with argparse, argvs it read) for
    `count` draws for the row `words`."""
    parser, rng = cli.build_parser(), random.Random(f"{words}:{seed}")
    wrong, read = [], 0
    for _ in range(count):
        argv = draw(rng, words)
        fields = cli._read_row(argv)
        if fields is not None:
            read += 1
            if fields != argparse_fields(parser, argv):
                wrong.append(argv)
    return wrong, read


def main() -> int:
    failed = 0
    for argv in DECLINED:
        if cli._read_row(argv) is not None:
            print("not declined:", argv)
            failed += 1
    for words, _, _ in cli.COMMANDS:
        wrong, read = check(words, 0, 400)
        print(f"{words}: {read} of 400 read, {len(wrong)} disagree")
        for argv in wrong:
            print("  ", argv)
        failed += len(wrong)
    print(f"Python {sys.version.split()[0]}: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
