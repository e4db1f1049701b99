"""End-to-end checks of the batch CLI: envelopes, exit codes, determinism."""

from __future__ import annotations

import ast
import errno
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sdga
from sdga import cli, simplicial
from sdga.cli import build_algebra, main
from sdga.core import parity_name
import argv_panel
import panels


KOSZUL_DOC = {
    "generators": [
        {"name": "t", "weight": 0, "parity": "even"},
        {"name": "theta", "weight": 1, "parity": "odd"},
    ],
    "differential": {"t": "theta"},
}

LINE_DOC = {
    "generators": [
        {"name": "x", "weight": 0, "parity": "even"},
        {"name": "xi", "weight": 1, "parity": "odd"},
    ],
    "differential": {"x": "xi"},
}

POLY_DOC = {"generators": [{"name": "x", "weight": 0, "parity": "even"}]}

SPHERE_TO_DISK_DOC = {
    "source": {"dims": {"1,odd": 1}},
    "target": {"dims": {"0,even": 1, "1,odd": 1}, "differential": {"0,even": [[1]]}},
    "blocks": {"1,odd": [[1]]},
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_cli_import_leaves_inspect_out():
    """Start-up cost: importing the CLI must not pull in inspect (which
    dataclasses would, with ast, dis and tokenize)."""
    code = "import sys, sdga.cli; sys.exit('inspect' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdga.__file__))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# a well-formed request is read from its row: argparse, and the gettext and
# locale that argparse's messages load, are for help and usage errors only
PARSER_MODULES = {"argparse", "gettext", "locale"}
# `fractions` loads with the first Fraction, and `decimal` with it
FRACTION_MODULES = {"fractions", "decimal"}
# what the requests below must load, by their first word, so that the test
# sees both sides: the Dupont homotopy divides by factorials, and its
# Fractions load the module
LOADED = {"cohomology": {"sdga.dg"}, "cotensor": {"sdga.dg", "sdga.simplicial"},
          "complex": {"sdga.model"}, "simplicial": {"sdga.dg", *FRACTION_MODULES}}


@pytest.mark.parametrize("argv, doc, absent", [
    (("cohomology",), KOSZUL_DOC,
     {"sdga.simplicial", "sdga.forms", "sdga.model", "sdga.sampling", "random",
      *PARSER_MODULES}),
    # a complex request loads model and linalg, and no dg algebra code
    (("complex", "cohomology"), {"dims": {"0,even": 1}},
     {"sdga.dg", "sdga.simplicial", "sdga.forms", *PARSER_MODULES}),
    (("simplicial", "dupont", "--n", "2", "--form", "-3 * t1 * dt2"), None,
     {"sdga.model", "sdga.sampling", *PARSER_MODULES}),
    (("cotensor", "--n", "2", "--shape", "horn", "--horn-vertex", "0"), LINE_DOC,
     {"sdga.model", "sdga.sampling", *FRACTION_MODULES, *PARSER_MODULES}),
    (("complex", "factorize", "--mode", "acyclic_cofibration_fibration"), SPHERE_TO_DISK_DOC,
     {"sdga.dg", "sdga.simplicial", "sdga.forms", *FRACTION_MODULES, *PARSER_MODULES}),
    (("complex", "classify"), SPHERE_TO_DISK_DOC, {"sdga.dg", *PARSER_MODULES}),
])
def test_request_imports_only_its_modules(argv, doc, absent):
    """Start-up cost: a request imports the modules its command uses, not
    every module some command needs, not argparse, and not `fractions` until
    it makes a Fraction.  -S: what site imports is not counted."""
    code = ("import json, sys, sdga.cli; code = sdga.cli.main(sys.argv[1:]); "
            "sys.stderr.write(json.dumps(sorted(sys.modules))); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdga.__file__))}
    child = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                           input=json.dumps(doc), capture_output=True, text=True, env=env)
    assert child.returncode == 0
    assert json.loads(child.stdout)["ok"] is True
    loaded = set(json.loads(child.stderr))
    assert (absent & loaded, LOADED[argv[0]] - loaded) == (set(), set())


def test_fractions_loads_with_the_first_fraction():
    """An integral literal, "4/2" among them, reads as an int and loads no
    `fractions`; the first literal that is no integer loads it."""
    code = ("import sys; from sdga.core import Generator, GeneratorTable, parse; "
            "t = GeneratorTable([Generator('x', 0, 0)]); "
            "a = parse(t, '4/2 * x^3 - 6/3'); before = 'fractions' in sys.modules; "
            "b = parse(t, '1/2 * x'); "
            "print(before, a.terms, 'fractions' in sys.modules, repr(b.terms))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdga.__file__))}
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, env=env)
    assert child.stdout == "False {(3,): 2, (0,): -2} True {(1,): Fraction(1, 2)}\n"


def test_check_reports_cohomology(tmp_path, capsys):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 0
    assert env["ok"] is True
    assert env["tool"] == "sdga"
    assert env["command"] == "check"
    assert env["report"]["valid"] is True
    assert env["report"]["cohomology"] == [{"weight": 0, "parity": "even", "dim": 1}]


def test_check_bidegree_violation(tmp_path, capsys):
    doc = {"generators": [{"name": "x", "weight": 0, "parity": "even"}],
           "differential": {"x": "x"}}
    path = write_doc(tmp_path, "bad.json", doc)
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 1
    assert env["ok"] is False
    assert env["report"]["witness"] == "bidegree violation at generator x"


def test_check_square_violation(tmp_path, capsys):
    doc = {
        "generators": [
            {"name": "x", "weight": 0, "parity": "even"},
            {"name": "xi", "weight": 1, "parity": "odd"},
            {"name": "u", "weight": 2, "parity": "even"},
        ],
        "differential": {"x": "xi", "xi": "u"},
    }
    path = write_doc(tmp_path, "bad2.json", doc)
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 1
    assert env["report"]["witness"] == (
        "differential does not square to zero at generator x"
    )


_COMPLEX = {"dims": {"0,even": 1}}
_DISK = {"dims": {"0,even": 1, "1,odd": 1}}

MALFORMED = {
    "no-generators": (("check",), {"nope": 1}, "'generators' list"),
    "cotensor-list": (("cotensor", "--n", "1"), [1], "document must be a JSON object"),
    "dims-list": (("complex", "cohomology"), {"dims": [1]}, "'dims' must be a JSON object"),
    "differential-list": (("complex", "cohomology"), {**_COMPLEX, "differential": [1]},
                          "'differential' must be a JSON object"),
    "block-number": (("complex", "cohomology"), {**_COMPLEX, "differential": {"0,even": 5}},
                     "block '0,even' of 'differential' must be a JSON list"),
    "row-number": (("complex", "cohomology"), {**_COMPLEX, "differential": {"0,even": [5]}},
                   "a row of block '0,even' of 'differential' must be a JSON list"),
    "lift-list": (("complex", "lift"), [1], "document must be a JSON object"),
    "blocks-list": (("complex", "classify"),
                    {"source": _COMPLEX, "target": _COMPLEX, "blocks": [1]},
                    "'blocks' must be a JSON object"),
    "weight-true": (("check",), {"generators": [{"name": "x", "weight": True}]},
                    "bad generator entry"),
    "parity-true": (("check",), {"generators": [{"name": "x", "parity": True}]},
                    "parity must be 'even' or 'odd', got True"),
    "dim-true": (("complex", "cohomology"), {"dims": {"0,even": True}},
                 "bad dimension True at '0,even'"),
    # an entry is read as [sign]digits[/digits], never as a decimal or with
    # an exponent, which would be expanded exactly
    "entry-decimal": (("complex", "cohomology"), {**_DISK, "differential": {"0,even": [["1.5"]]}},
                      "bad rational entry '1.5'"),
    "entry-exponent": (("complex", "cohomology"), {**_DISK, "differential": {"0,even": [["1e3"]]}},
                       "bad rational entry '1e3'"),
    "entry-huge-exponent": (("complex", "cohomology"),
                            {**_DISK, "differential": {"0,even": [["1e1000000"]]}},
                            "bad rational entry '1e1000000'"),
    "entry-long": (("complex", "cohomology"),
                   {**_DISK, "differential": {"0,even": [["9" * 5000]]}}, "bad rational entry"),
    "expr-long-literal": (("check",), {**LINE_DOC, "differential": {"x": "9" * 5000 + " * xi"}},
                          "characters is too long"),
    "map-block-shape": (("complex", "classify"),
                        {"source": _COMPLEX, "target": _COMPLEX, "blocks": {"0,even": [[1, 2]]}},
                        "chain map block at (0, 0) has the wrong shape"),
    # zero blocks and blocks off the support are checked too
    "zero-block-shape": (("complex", "cohomology"),
                         {**_DISK, "differential": {"0,even": [[0], [0], [0]]}},
                         "differential block at (0, 0) has the wrong shape"),
    "off-support-block": (("complex", "cohomology"),
                          {**_DISK, "differential": {"7,even": [[0, 0]]}},
                          "differential block at (7, 0) has the wrong shape"),
    "map-block-off-target": (("complex", "classify"),
                             {"source": _COMPLEX, "target": {"dims": {"3,odd": 1}},
                              "blocks": {"0,even": [[1, 2, 3], [4]], "3,odd": [[5]]}},
                             "chain map block at (0, 0) has the wrong shape"),
    # maps whose sources and targets do not form a square
    "lift-mismatched-corners": (("complex", "lift"),
                                dict.fromkeys(("i", "p", "top", "bottom"), SPHERE_TO_DISK_DOC),
                                "lifting square has mismatched corners"),
    "even-mode-string": (("check",), {"generators": [], "even_mode": "no"},
                         "'even_mode' must be true or false, got 'no'"),
    "even-mode-null": (("check",), {"generators": [], "even_mode": None},
                       "'even_mode' must be true or false, got None"),
    # a string is not the zero algebra's flag, whatever it says
    "zero-string": (("cotensor", "--n", "1", "--shape", "boundary"),
                    {**LINE_DOC, "zero": "false"}, "'zero' must be true or false, got 'false'"),
    "zero-one": (("cotensor", "--n", "1"), {"zero": 1}, "'zero' must be true or false, got 1"),
    # the zero algebra's shape is checked as any algebra's
    "zero-horn-vertex": (("cotensor", "--n", "2", "--shape", "horn", "--horn-vertex", "7"),
                         {"zero": True}, "horn vertex out of range"),
    "zero-boundary-n0": (("cotensor", "--n", "0", "--shape", "boundary"), {"zero": True},
                         "boundary and horn cotensors need n >= 1"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document(tmp_path, capsys, case):
    argv, doc, error = MALFORMED[case]
    path = write_doc(tmp_path, "nope.json", doc)
    code, env = run_json(capsys, *argv, "--input", path)
    assert code == 2
    assert env["ok"] is False
    assert error in env["error"]


def test_a_json_integer_too_long_to_read_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"dims": {"0,even": ' + "9" * 5000 + "}}")
    code, env = run_json(capsys, "complex", "cohomology", "--input", str(path))
    assert code == 2
    assert env["error"].startswith("cannot read input document: Exceeds the limit")


# sha256 of the envelopes of rejected and accepted parities, the bytes the CLI
# printed while it read parities by its own rule rather than core.parity_of's
PARITY_ENVELOPES = [
    (("check",), {"generators": [{"name": "x", "parity": True}]},
     (2, "d8870047118615aaba790e94ad64f097a79ea0ec06c039afde3583bd0895218a")),
    (("check",), {"generators": [{"name": "x", "parity": 1.0}]},
     (2, "c7c1ca071f35d5444538dcff8033f70d81d023d1cb19bc78f5d21db9447fb9ce")),
    (("check",), {"generators": [{"name": "x", "parity": "2"}]},
     (2, "8f81124c58575d8353cc25a95a5ea0b714c6e826742eff2c0ee50b935d0c50f4")),
    (("check",), {"generators": [{"name": "x", "parity": None}]},
     (2, "612ec0a6f8266e650e17b1e1168d77bc889af90d1ba04af55ecfc6f5f2bebc00")),
    (("check",), {"generators": [{"name": "x", "weight": 1, "parity": "1"}]},
     (0, "1e48167af785cf5f445ce836dbee33d3968003a90ebbfff7dc89fb941ac4a7e9")),
    (("complex", "cohomology"), {"dims": {"0,2": 1}},
     (2, "e25b74050005024fc2d36de537019b77c97359fb5b6f20e5f61404d2ec7592c0")),
    (("complex", "cohomology"),
     {"dims": {"0,1": 1, "1,0": 2}, "differential": {"0,odd": [[1], [2]]}},
     (0, "fa3fd24536b6826c1442ac6557139eb46af638a7553ddd0d839e78a8698c034d")),
]


@pytest.mark.parametrize("argv, doc, expected", PARITY_ENVELOPES)
def test_parity_envelopes(monkeypatch, capsys, argv, doc, expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, *argv, "--input", "-")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


def test_missing_input_file(capsys):
    code, env = run_json(capsys, "check", "--input", "/no/such/file.json")
    assert code == 2
    assert "cannot read input document" in env["error"]


def test_output_is_byte_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    _, first = run(capsys, "cohomology", "--input", path, "--window=-2:2")
    _, second = run(capsys, "cohomology", "--input", path, "--window=-2:2")
    assert first == second
    _, cells1 = run(capsys, "cells")
    _, cells2 = run(capsys, "cells")
    assert cells1 == cells2


def test_text_mode(tmp_path, capsys):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, out = run(capsys, "check", "--input", path, "--text")
    assert code == 0
    assert "ok: true" in out
    assert "{" not in out


def test_version_option(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("sdga ")


def test_integrate(tmp_path, capsys):
    path = write_doc(tmp_path, "poly.json", POLY_DOC)
    code, env = run_json(capsys, "integrate", "--input", path,
                         "--expr", "x^2", "--var", "x")
    assert code == 0
    assert env["report"]["integral"] == "1/3"
    code, env = run_json(capsys, "integrate", "--input", path,
                         "--expr", "x^2", "--var", "y")
    assert code == 2


def test_berezin(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "berezin", "--input", path,
                         "--expr", "x * xi", "--var", "xi")
    assert code == 0
    assert env["report"]["integral"] == "1 * x"
    code, _ = run_json(capsys, "berezin", "--input", path,
                       "--expr", "x", "--var", "x")
    assert code == 2


def test_cylinder_contract(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "cylinder-contract", "--input", path,
                         "--expr", "x * dt", "--var", "t")
    assert code == 0
    report = env["report"]
    assert report["contraction"] == "1 * x * t"
    assert report["homotopy_identity"] is True
    assert report["ends"] == {"at_0": "0", "at_1": "0"}


def test_cartan_check(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "cartan-check", "--input", path, "--pairs", "3")
    assert code == 0
    assert env["report"]["all_pass"] is True
    assert env["report"]["element_spot_checks"] == 9


def test_forms_omega(tmp_path, capsys):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, "forms-omega", "--input", path)
    assert code == 0
    report = env["report"]
    names = [g["name"] for g in report["generators"]]
    assert names == ["t", "theta", "dt", "dtheta"]
    assert report["de_rham"]["t"] == "1 * dt"
    assert report["total_square_zero"] is True


def test_simplicial_whitney(capsys):
    code, env = run_json(capsys, "simplicial", "whitney", "--n", "1")
    assert code == 0
    forms = {e["tuple"]: e["form"] for e in env["report"]["forms"]}
    assert forms["w(0,1)"] == "1 * dt1"
    assert forms["w(1)"] == "1 * t1"
    code, env = run_json(capsys, "simplicial", "whitney", "--n", "1", "--barycentric")
    assert all("barycentric" in e for e in env["report"]["forms"])


def test_simplicial_dupont(capsys):
    code, env = run_json(capsys, "simplicial", "dupont", "--n", "1",
                         "--form", "t1 * dt1")
    assert code == 0
    assert env["report"]["s_image"] == "1/2 * t1^2 - 1/2 * t1"
    assert env["report"]["identity_check"] is True


def test_simplicial_dupont_walks_the_form_as_parsed(capsys, monkeypatch):
    """Both Dupont walks of the request, on x and on dx, take elements of
    the redundant presentation the form is parsed in."""
    tables = []
    inner = simplicial.dupont_homotopy

    def spy(forms, element):
        tables.append(element.table)
        return inner(forms, element)

    monkeypatch.setattr(simplicial, "dupont_homotopy", spy)
    code, env = run_json(capsys, "simplicial", "dupont", "--n", "3",
                         "--form", "t0^2 * dt1 - 1/2 * t3 * dt0 * dt2")
    assert code == 0
    assert env["report"]["identity_check"] is True
    assert tables == [simplicial.barycentric_table(3)] * 2


def test_simplicial_dupont_of_a_form_in_the_relations_is_zero(capsys):
    """(t0 + t1 + t2 - 1) dt1 is zero on the 2-simplex, and so is its s."""
    code, env = run_json(capsys, "simplicial", "dupont", "--n", "2",
                         "--form", "t0*dt1+t1*dt1+t2*dt1-dt1")
    assert code == 0
    assert env["report"]["form"] == "0"
    assert env["report"]["s_image"] == "0"
    assert env["report"]["identity_check"] is True


def test_simplicial_duality(capsys):
    code, env = run_json(capsys, "simplicial", "duality", "--n", "2")
    assert code == 0
    assert env["report"]["all_pass"] is True


def test_simplicial_faces(capsys):
    code, env = run_json(capsys, "simplicial", "faces", "--n", "1")
    assert code == 0
    assert len(env["report"]["faces"]) == 2
    assert len(env["report"]["degeneracies"]) == 2


def test_cotensor_zero_sentinel(tmp_path, capsys):
    path = write_doc(tmp_path, "zero.json", {"zero": True})
    code, env = run_json(capsys, "cotensor", "--input", path,
                         "--n", "1", "--shape", "boundary")
    assert code == 0
    assert all(e["dim"] == 0 for e in env["report"]["entries"])


def test_cotensor_horn_needs_vertex(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, _ = run_json(capsys, "cotensor", "--input", path,
                       "--n", "1", "--shape", "horn")
    assert code == 2


@pytest.mark.parametrize("argv, error", [
    (("cotensor", "--n", "2", "--horn-vertex", "7"),
     "--horn-vertex needs --shape horn, not --shape simplex"),
    (("cotensor", "--n", "2", "--shape", "boundary", "--horn-vertex", "0"),
     "--horn-vertex needs --shape horn, not --shape boundary"),
])
def test_ignored_option_fails(capsys, monkeypatch, argv, error):
    """An option the command would not use exits 2 instead of being echoed."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LINE_DOC)))
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert env["error"] == error


def _required(options) -> list[str]:
    """A value for each required option of a row."""
    return [arg for flag, kwargs in options if kwargs.get("required") for arg in (flag, "1")]


UNLISTED_SHARED = [(words, option[0]) for words, _, options in cli.COMMANDS
                   for option in cli._SHARED if option not in options]
SHARED_VALUES = {"--input": ["-"], "--window": ["0:1"], "--degcap": ["7"], "--seed": ["9"],
                 "--barycentric": []}


@pytest.mark.parametrize("words, flag", UNLISTED_SHARED,
                         ids=[f"{words}-{flag}" for words, flag in UNLISTED_SHARED])
def test_unlisted_shared_option_exits_2(capsys, monkeypatch, words, flag):
    """A shared option its row does not list is a usage error, not an echo."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LINE_DOC)))
    options = next(row[2] for row in cli.COMMANDS if row[0] == words)
    with pytest.raises(SystemExit) as err:
        main([*words.split(), *_required(options), flag, *SHARED_VALUES[flag]])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


VALUED = [(words, flag) for words, _, options in cli.COMMANDS
          for flag, kwargs in options if kwargs.get("action") != "store_true"]


@pytest.mark.parametrize("words, flag", VALUED, ids=[f"{words}-{flag}" for words, flag in VALUED])
def test_flag_equals_double_dash_exits_2(capsys, monkeypatch, words, flag):
    """FLAG=-- gives no value: argparse parses it to [] before Python 3.13 and
    to "--" from 3.13 on.  Either way the request exits 2, with no traceback."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LINE_DOC)))
    options = next(row[2] for row in cli.COMMANDS if row[0] == words)
    others = _required([option for option in options if option[0] != flag])
    try:
        code = main([*words.split(), *others, f"{flag}=--"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_cotensor_horn_filling(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "cotensor", "--input", path, "--n", "1",
                         "--shape", "horn", "--horn-vertex", "0",
                         "--window", "0:2", "--degcap", "3")
    assert code == 0
    assert env["report"]["filling"]["all_surjective"] is True


def test_path_object(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "path-object", "--input", path, "--trials", "5")
    assert code == 0
    assert env["report"]["all_pass"] is True


def test_path_object_var_collision(tmp_path, capsys):
    # koszul has a generator named t, so the default cylinder variable
    # collides; --var picks a fresh name
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, "path-object", "--input", path, "--trials", "3")
    assert code == 2
    assert "collides" in env["error"]
    code, env = run_json(capsys, "path-object", "--input", path, "--trials", "3",
                         "--var", "s")
    assert code == 0
    assert env["report"]["all_pass"] is True


def test_complex_cohomology(tmp_path, capsys):
    disk = {"dims": {"0,even": 1, "1,odd": 1}, "differential": {"0,even": [[1]]}}
    path = write_doc(tmp_path, "disk.json", disk)
    code, env = run_json(capsys, "complex", "cohomology", "--input", path)
    assert code == 0
    assert env["report"]["acyclic"] is True
    bad = {"dims": {"0,even": 1, "1,odd": 1, "2,even": 1},
           "differential": {"0,even": [[1]], "1,odd": [[1]]}}
    path = write_doc(tmp_path, "bad.json", bad)
    code, env = run_json(capsys, "complex", "cohomology", "--input", path)
    assert code == 1
    assert "d^2" in env["report"]["witness"]


def test_complex_classify(tmp_path, capsys):
    path = write_doc(tmp_path, "map.json", SPHERE_TO_DISK_DOC)
    code, env = run_json(capsys, "complex", "classify", "--input", path)
    assert code == 0
    report = env["report"]
    assert report["cofibration"] is True
    assert report["fibration"] is False
    assert report["weak_equivalence"] is False
    # mapping the sphere to the bottom cell does not commute with d
    bad = dict(SPHERE_TO_DISK_DOC)
    bad = {**bad, "source": {"dims": {"0,even": 1}}, "blocks": {"0,even": [[1]]}}
    path = write_doc(tmp_path, "bad_map.json", bad)
    code, env = run_json(capsys, "complex", "classify", "--input", path)
    assert code == 1
    assert "does not commute" in env["report"]["witness"]


def test_complex_factorize(tmp_path, capsys):
    path = write_doc(tmp_path, "map.json", SPHERE_TO_DISK_DOC)
    for mode in ("acyclic_cofibration_fibration", "cofibration_acyclic_fibration"):
        code, env = run_json(capsys, "complex", "factorize", "--input", path,
                             "--mode", mode)
        assert code == 0
        assert env["report"]["checks"]["ok"] is True
        assert env["report"]["middle"]["dims"]


def test_complex_factorize_kills_a_combination(tmp_path, capsys):
    """Two spheres onto one by [1 1]: only the combination (1, -1) of the
    source cocycles dies in cohomology, so factorize must attach a relation for it."""
    doc = {"source": {"dims": {"-1,odd": 2}}, "target": {"dims": {"-1,odd": 1}},
           "blocks": {"-1,odd": [[1, 1]]}}
    path = write_doc(tmp_path, "two_spheres.json", doc)
    code, env = run_json(capsys, "complex", "factorize", "--input", path,
                         "--mode", "cofibration_acyclic_fibration")
    assert code == 0
    assert env["report"]["checks"]["q_quasi_iso"] is True
    assert env["report"]["checks"]["ok"] is True
    assert env["report"]["middle"]["dims"] == {"-1,odd": 2, "-2,even": 1}


def test_complex_lift_unsolvable(tmp_path, capsys):
    sphere = {"dims": {"-1,odd": 1}}
    disk = {"dims": {"-1,odd": 1, "0,even": 1}, "differential": {"-1,odd": [[1]]}}
    zero = {"dims": {}}
    doc = {
        "i": {"source": zero, "target": sphere, "blocks": {}},
        "p": {"source": disk, "target": sphere, "blocks": {"-1,odd": [[1]]}},
        "top": {"source": zero, "target": disk, "blocks": {}},
        "bottom": {"source": sphere, "target": sphere, "blocks": {"-1,odd": [[1]]}},
    }
    path = write_doc(tmp_path, "lift.json", doc)
    code, env = run_json(capsys, "complex", "lift", "--input", path)
    assert code == 0
    report = env["report"]
    assert report["solvable"] is False
    assert report["certificate"]["consistent"] is False
    assert report["certificate"]["rank"] < report["certificate"]["rank_augmented"]


def test_complex_lift_top_map_that_b_cannot_carry(tmp_path, capsys):
    """i: S0 -> 0, p: S0 -> 0, top = id, bottom = 0: unsolvable, with both
    ranks in the certificate."""
    sphere, zero = {"dims": {"0,even": 1}}, {"dims": {}}
    doc = {
        "i": {"source": sphere, "target": zero, "blocks": {}},
        "p": {"source": sphere, "target": zero, "blocks": {}},
        "top": {"source": sphere, "target": sphere, "blocks": {"0,even": [[1]]}},
        "bottom": {"source": zero, "target": zero, "blocks": {}},
    }
    path = write_doc(tmp_path, "lift.json", doc)
    code, env = run_json(capsys, "complex", "lift", "--input", path)
    assert code == 0
    assert env["report"] == {
        "solvable": False,
        "certificate": {"consistent": False, "rank": 0, "rank_augmented": 1},
    }


def test_matrix_json_prints_int_and_fraction_entries_alike():
    """Blocks hold an int where an entry is integral; written out they read
    as the Fraction entries did."""
    as_fraction = [{0: Fraction(2), 1: Fraction(-1, 2)}, {}, {1: Fraction(-3)}]
    as_int = [{0: 2, 1: Fraction(-1, 2)}, {}, {1: -3}]
    expected = [["2", "0", "0"], ["-1/2", "0", "-3"]]
    assert cli._matrix_json(as_fraction, 2) == cli._matrix_json(as_int, 2) == expected
    doc = {"dims": {"0,even": 3, "1,odd": 2}, "differential": {"0,even": expected}}
    c = cli.build_complex(doc)
    assert [type(x) for col in c.diff[(0, 0)] for x in col.values()] == [int, Fraction, int]
    assert cli._complex_json(c) == doc


@pytest.mark.parametrize("seed", range(25))
def test_complex_documents_round_trip(seed):
    """The CLI is the one place where dense rows become blocks and blocks
    dense rows again: a complex and a chain map written out and read back
    are equal to the originals, zero blocks kept, and no stored column
    holds a zero."""
    rng = random.Random(8100 + seed)
    a = panels.random_complex(rng, max_cells=3)
    b = panels.random_complex(rng, max_cells=3)
    f = panels.random_chain_map(rng, a, b)
    doc = json.loads(json.dumps({"source": cli._complex_json(a),
                                 "target": cli._complex_json(b),
                                 "blocks": cli._blocks_json(f)}))
    assert cli.build_complex(doc["source"]) == a
    back = cli.build_chain_map(doc)
    assert back.source == a and back.target == b and back == f
    assert back.blocks.keys() == f.blocks.keys()
    assert cli._blocks_json(back) == doc["blocks"]
    for c in (a, b, back.source, back.target):
        assert all(x for block in c.diff.values() for col in block for x in col.values())
    for g in (f, back):
        assert all(x for block in g.blocks.values() for col in block for x in col.values())


def test_cells_catalog(capsys):
    code, env = run_json(capsys, "cells")
    assert code == 0
    entries = env["report"]["cells"]
    assert len(entries) == 32
    by_name = {e["name"]: e for e in entries}
    assert by_name["D0_even"]["cohomology"] == {}
    assert by_name["S0_even"]["cohomology"] == {"0,even": 1}


def test_sym_kunneth(tmp_path, capsys):
    doc = {"dims": {"0,even": 1, "1,odd": 2}, "differential": {"0,even": [[1], [0]]}}
    path = write_doc(tmp_path, "v.json", doc)
    code, env = run_json(capsys, "sym-kunneth", "--input", path,
                         "--window=-2:2", "--degcap", "4")
    assert code == 0
    assert env["report"]["all_agree"] is True


def test_bad_window(tmp_path, capsys):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, "check", "--input", path, "--window", "3:-3")
    assert code == 2
    assert "window" in env["error"]


def test_zero_denominator_in_differential(tmp_path, capsys):
    doc = {
        "generators": [
            {"name": "t", "weight": 0, "parity": "even"},
            {"name": "s", "weight": 1, "parity": "odd"},
        ],
        "differential": {"t": "1/0 * s"},
    }
    path = write_doc(tmp_path, "zero.json", doc)
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 2
    assert env["ok"] is False
    assert "zero denominator" in env["error"]


@pytest.mark.parametrize("argv", [
    ("simplicial", "dupont", "--n", "1", "--form", "1/0 * t1 * dt1"),
    ("simplicial", "project", "--n", "1", "--form", "t1 + 3/0"),
])
def test_zero_denominator_in_form(capsys, argv):
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert "zero denominator" in env["error"]


@pytest.mark.parametrize("command", ["integrate", "berezin", "cylinder-contract"])
def test_zero_denominator_in_expr(tmp_path, capsys, command):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    var = {"integrate": "x", "berezin": "xi", "cylinder-contract": "t"}[command]
    code, env = run_json(capsys, command, "--input", path,
                         "--expr", "2/0 * x", "--var", var)
    assert code == 2
    assert env["ok"] is False
    assert env["error"] == "zero denominator in '2/0'"


@pytest.mark.parametrize("upper, error", [
    ("(", "unexpected end of expression"),
    ("x *", "unexpected end of expression"),
    ("x +", "unexpected end of expression"),
    ("(x", "unexpected end of expression, expected ')'"),
])
def test_expression_ends_early(tmp_path, capsys, upper, error):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "integrate", "--input", path,
                         "--expr", "x*xi", "--var", "x", "--upper", upper)
    assert code == 2
    assert env["ok"] is False
    assert env["error"] == error


def nested(text, depth=2000):
    return "(" * depth + text + ")" * depth


def test_deep_nesting_in_differential(tmp_path, capsys):
    path = write_doc(tmp_path, "deep.json", dict(LINE_DOC, differential={"x": nested("xi")}))
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 2
    assert env["ok"] is False
    assert "nested too deeply" in env["error"]


@pytest.mark.parametrize("argv", [
    ("simplicial", "project", "--n", "3", "--form", nested("t1")),
    ("simplicial", "dupont", "--n", "1", "--form", nested("t1 * dt1")),
])
def test_deep_nesting_in_form(capsys, argv):
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert "nested too deeply" in env["error"]


def test_deep_nesting_in_expr(tmp_path, capsys):
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "integrate", "--input", path,
                         "--expr", nested("x"), "--var", "x")
    assert code == 2
    assert "nested too deeply" in env["error"]


@pytest.mark.parametrize("shape", [("horn", "--horn-vertex", "1"), ("boundary",)])
def test_cotensor_eliminates_each_kernel_once(tmp_path, capsys, monkeypatch, shape):
    calls = []
    kernel = simplicial.SubShapeCotensor._kernel

    def spy(self, weight, parity, cap):
        calls.append((weight, parity, cap))
        return kernel(self, weight, parity, cap)

    monkeypatch.setattr(simplicial.SubShapeCotensor, "_kernel", spy)
    path = write_doc(tmp_path, "line.json", LINE_DOC)
    code, env = run_json(capsys, "cotensor", "--input", path, "--n", "2",
                         "--shape", *shape, "--window", "0:2", "--degcap", "3")
    once = [(w, p, 3) for w in range(3) for p in (0, 1)]
    assert code == 0
    assert sorted(calls) == once
    # the library call is the CLI's report, and eliminates each kernel once too
    dga, _ = build_algebra(LINE_DOC)
    vertex = 1 if shape[0] == "horn" else None
    calls.clear()
    report = simplicial.cotensor_report(dga, 2, shape[0], vertex, 0, 2, 3)
    assert sorted(calls) == once
    assert report == env["report"]
    # the dimensions of the cotensor, with the filling report attached
    monkeypatch.undo()
    cot = simplicial.SubShapeCotensor(dga, 2, shape[0], vertex)
    assert report == {
        "shape": shape[0], "n": 2, "horn_vertex": vertex, "window": [0, 2], "degree_cap": 3,
        "entries": [{"weight": w, "parity": parity_name(p), "dim": cot.dimension(w, p, 3)}
                    for w in range(3) for p in (0, 1)],
        "filling": simplicial.filling_report(dga, 2, shape[0], vertex, 0, 2, 3),
    }


@pytest.mark.parametrize("command", [
    ("cohomology",), ("check",),
    ("cotensor", "--n", "2", "--shape", "horn", "--horn-vertex", "0"),
])
def test_negative_degcap(tmp_path, capsys, command):
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, *command, "--input", path, "--degcap", "-5")
    assert code == 2
    assert "--degcap" in env["error"]
    code, env = run_json(capsys, *command, "--input", path, "--degcap", "0")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("simplicial", "faces", "--n", "-1"),
    ("simplicial", "whitney", "--n", "-1"),
    ("simplicial", "project", "--form", "t0", "--n", "-1"),
    ("simplicial", "dupont", "--form", "t0", "--n", "-1"),
    ("simplicial", "duality", "--n", "-1"),
    ("cotensor", "--n", "-1"),
    ("cartan-check", "--pairs", "-1"),
    ("path-object", "--var", "s", "--trials", "-1"),
])
def test_negative_counts(capsys, monkeypatch, argv):
    """Every count is checked in one place, before any command runs."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(KOSZUL_DOC)))
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert env == {"error": f"{argv[-2]} must be non-negative; got -1",
                   "tool": "sdga", "version": sdga.__version__}


def test_dispatch_finds_rebound_handler(tmp_path, capsys, monkeypatch):
    """main looks the handler up by name when the command runs, so a
    rebinding after import (as perfbench/tracer.py does) is the one called."""
    calls = []
    monkeypatch.setattr(cli, "cmd_cohomology", lambda args: calls.append(args) or {"x": 1})
    path = write_doc(tmp_path, "koszul.json", KOSZUL_DOC)
    code, env = run_json(capsys, "cohomology", "--input", path)
    assert code == 0
    assert len(calls) == 1
    assert env["report"] == {"x": 1}


SULLIVAN_DOC = {
    "generators": [
        {"name": "x", "weight": 2, "parity": "even"},
        {"name": "e", "weight": 1, "parity": "odd"},
        {"name": "y", "weight": 3, "parity": "odd"},
    ],
    "differential": {"y": "2 * x^2"},
}


def _traced_spans(argv, stdin=b""):
    """Run the CLI plainly and under perfbench/tracer.py; check that both exit
    0 with the same stdout, and return that stdout and the traced spans."""
    src = os.path.dirname(os.path.dirname(sdga.__file__))
    tracer = os.path.join(os.path.dirname(src), "perfbench", "tracer.py")
    env = {**os.environ, "PYTHONPATH": src}
    plain = subprocess.run([sys.executable, "-m", "sdga.cli", *argv], input=stdin,
                           capture_output=True, env=env)
    traced = subprocess.run([sys.executable, tracer, *argv], input=stdin,
                            capture_output=True, env=env)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    marker = "PERFBENCH_TRACE "
    line = next(ln for ln in traced.stderr.decode().splitlines() if ln.startswith(marker))
    return json.loads(plain.stdout), json.loads(line[len(marker):])["spans"]


def test_tracer_reports_the_untraced_output_and_the_cohomology_layers():
    """perfbench/tracer.py wraps sdga's functions by name: the traced CLI
    prints the untraced report byte for byte, and the differential-block and
    elimination spans it times are the ones the cohomology path calls."""
    argv = ["cohomology", "--input", "-", "--window=0:6", "--degcap", "4"]
    out, spans = _traced_spans(argv, json.dumps(SULLIVAN_DOC).encode())
    assert out["ok"] is True
    for name in ("dg.differential_matrix", "linalg.rref", "linalg.nullspace"):
        assert spans.get(name, [0])[0] > 0, name


def test_tracer_reports_the_untraced_output_and_the_simplicial_layers():
    """The same for `simplicial dupont`: the Dupont walk calls the contraction
    and the dilation homotopy through the bindings the tracer wraps."""
    argv = ["simplicial", "dupont", "--n", "3",
            "--form", "1/2 * t0^3 * t1 * dt2 - 3/7 * t1 * t2^2 * dt1 * dt3"]
    out, spans = _traced_spans(argv)
    assert out["report"]["identity_check"] is True
    for name in ("simplicial.dupont", "simplicial.dilation_homotopy"):
        assert spans.get(name, [0])[0] > 0, name


def test_duality_builds_one_face_parametrisation_per_face(capsys, monkeypatch):
    """The iterated integral pulls each monomial back along an AlgebraMap
    onto the face; `duality --n 4` builds that map at most once per face,
    vertices included, not once per monomial it integrates."""
    built = []

    class Counted(simplicial.AlgebraMap):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simplicial, "AlgebraMap", Counted)
    # a fresh instance, so every face is integrated from scratch
    monkeypatch.setattr(simplicial, "simplex_forms",
                        functools.lru_cache(maxsize=None)(simplicial.SimplexForms))
    code, out = run_json(capsys, "simplicial", "duality", "--n", "4")
    assert code == 0 and out["report"]["all_pass"] is True
    assert 0 < len(built) <= 2 ** 5 - 1


@pytest.mark.parametrize("words", [row[0] for row in cli.COMMANDS])
def test_selected_parser_is_the_full_parser(words):
    """main reads a request for a row with _read_row, not argparse: on 300
    seeded argvs for the row (its options written in full, as FLAG=VALUE and
    abbreviated, -h, --json with --text, stray words, values starting with
    "-"), _read_row declines or returns the full tree's Namespace, and it
    declines every argv the full tree exits on."""
    wrong, read = argv_panel.check(words, 0, 300)
    assert wrong == []
    assert read >= 30


@pytest.mark.parametrize("argv", argv_panel.DECLINED, ids=" ".join)
def test_row_reader_declines(argv):
    assert cli._read_row(argv) is None


def test_help_with_an_argument_is_no_value():
    """argparse reads "-h x" after --form as its help option, with an
    argument, and exits 2: the row reader must not take it as the form."""
    argv = ["simplicial", "dupont", "--n", "2", "--form", "-h x"]
    assert cli._read_row(argv) is None
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("workload", ["cohomology", "horn-filling", "complexes", "simplicial"])
def test_benchmark_requests_take_the_row_reader(monkeypatch, workload):
    """Every request perfbench makes, at seeds 1, 3 and 23, is read from its
    row without argparse, to the Namespace argparse parses it to."""
    monkeypatch.syspath_prepend(str(Path(cli.__file__).parents[2] / "perfbench"))
    import workloads

    parser = cli.build_parser()
    for seed in (1, 3, 23):
        for req in workloads.build(workload, seed):
            assert cli._read_row(req.argv) == vars(parser.parse_args(req.argv)), req.argv


def test_main_selects_the_command_row(capsys, monkeypatch):
    """A well-formed request builds no parser; help, --version, a usage error
    and any argv the row reader declines build the whole tree."""
    seen, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: seen.append("tree") or build())
    assert main(["simplicial", "faces", "--n", "0"]) == 0
    assert main(["cells", "--text"]) == 0
    assert main(["simplicial", "dupont", "--n", "1", "--form", "-3 * t1 * dt1"]) == 0
    assert seen == []
    assert main(["simplicial", "faces", "--n=0", "--tex"]) == 0
    for argv in (["--version"], ["-h"], ["simplicial"], ["nope"], ["complex", "-h"],
                 ["check", "--bogus"], ["simplicial", "faces", "--n", "-h x"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert seen == ["tree"] * 8


def test_command_table_matches_handlers():
    named = ["cmd_" + words.replace(" ", "_").replace("-", "_")
             for words, _, _ in cli.COMMANDS]
    assert len(set(named)) == len(named)
    assert set(named) == {name for name in vars(cli) if name.startswith("cmd_")}
    assert all(callable(getattr(cli, name)) for name in named)


def _attributes_read(functions: dict, name: str, param: str) -> set[str]:
    """The attributes of parameter `param` that cli function `name` reads,
    with those of each cli function it passes `param` to."""
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
            callee = functions[node.func.id]
            for arg, formal in zip(node.args, callee.args.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    read |= _attributes_read(functions, callee.name, formal.arg)
    return read


@pytest.mark.parametrize("words, options", [(row[0], row[2]) for row in cli.COMMANDS],
                         ids=[row[0] for row in cli.COMMANDS])
def test_each_row_lists_the_options_its_handler_reads(words, options):
    """A row's options are exactly the fields of args that its handler and the
    cli helpers it hands args to read, and --json/--text's format."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    handler = "cmd_" + words.replace(" ", "_").replace("-", "_")
    declared = {kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
                for flag, kwargs in options}
    assert declared == _attributes_read(functions, handler, "args") - {"format"}


GOLDEN_DOC = {
    "generators": [
        {"name": "x", "weight": 0, "parity": "even"},
        {"name": "xi", "weight": 1, "parity": "odd"},
        {"name": "y", "weight": 2, "parity": "even"},
        {"name": "eta", "weight": 3, "parity": "odd"},
    ],
    "differential": {"x": "xi", "y": "eta"},
}

GOLDEN_FORMS = [
    "t0^2 * t1 * dt2",
    "3/2 * t1 * dt0 * dt3 - t2^2 * dt1",
    "t0 * t1 * t2 * t3 + 2 * dt0 * dt1 * dt2",
    "5 * t3^3 * dt1 * dt2 - 1/7 * t0 * dt3 + 4",
]

# a fractional form on the 4-simplex with terms in form weights 0, 1, 2 and 3
GOLDEN_FORM_4 = ("1/2 * t0^3 * t1 * dt2 - 3/7 * t4 * t2^2 * dt1 * dt3"
                 " + 5/11 * t3 * dt0 * dt2 * dt4 - 2/9 * t4^2 + 7/3 * t1 * dt3"
                 " - 1/5 * t2 * dt1 * dt4")

# sha256 of the whole stdout of each command, GOLDEN_DOC on stdin: the
# reports stay byte-identical whatever the arithmetic beneath them does
GOLDEN_DIGESTS = {
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[0]):
        "f9a96cee9b22c8b6685085d44d386a1ca41e5b6ccac80d236b0dd547acdb4dd0",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[1]):
        "761fb66df446765c577445c1a97a7c523a95f0174203058ac483f40e5b0f49c5",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[2]):
        "4492d29c7385e8518fd4e489d36d0cc58751101f0bc09062c2a5aecace77ac32",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[3]):
        "76535701a8199687d2fe2c4fe03e8f2b272274ea7f7458de512d8469998b2d62",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[0]):
        "bdf37a2acc4274a2036fc7914c4a6d37b491c49b711ec8c5d26dabf5031d5494",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[1]):
        "caed2898427c163d0a57e305e9d1af719e4c6e0069834e17f54fef21d436b6cc",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[2]):
        "d204e74a335dccaadf73ea5dd8f047776f7e012eef55138ad51ffdc3080defde",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[3]):
        "8e8a305bdb2acb7acb07843d8a5f5c9eaa10895eb6428037ae9250cc13f8330d",
    ("simplicial", "duality", "--n", "3"):
        "ff6be74c0085b61e68cd65620a140148bda9977aa50ecc83e5d605d9bf763771",
    ("simplicial", "whitney", "--n", "3"):
        "e3e6fd9bcbc7afa38aba11912b687f0de87154efbdb09edce528f66794f83ab8",
    ("simplicial", "faces", "--n", "3"):
        "4b519efa75fa8380be4e71c06f67cf6d410ad6e7888e830b58a7a0e9830efca5",
    ("simplicial", "duality", "--n", "4"):
        "cceabbe69fe93b795e9969de769e4f3d3f0d095e8aa1805afdb773475fd1543d",
    ("simplicial", "whitney", "--n", "4"):
        "1937e62be471a6c3b04acf657a3e2a4d044819399a9dcb409dfb6b85c79c1939",
    ("simplicial", "dupont", "--n", "4", "--form", GOLDEN_FORM_4):
        "a3b3575c5544fb02706aa032bcd639adaaa059ecf9455509ef5e88abd5462ddf",
    ("simplicial", "project", "--n", "4", "--form", GOLDEN_FORM_4):
        "7c92e93d8de3a4b2d79bd4296079e735ff7a099a8a848ec7753220e8cbf7c214",
    ("integrate", "--input", "-", "--expr", "x^2 * y + 3/2 * x * xi - y * eta",
     "--var", "x", "--lower", "y", "--upper", "1 - x"):
        "9b20c2f86ff86f94f97a4e9bb8ea8f09175022b2f181ab277ed1d83647194746",
    ("integrate", "--input", "-", "--expr", "x^3 * xi - 2/5 * x * eta",
     "--var", "x", "--lower", "1/2", "--upper", "3"):
        "2319ed0d427e108327090d1bcd76317da816a3ee7167b4fcb43233dc25f0d416",
    ("cylinder-contract", "--input", "-", "--expr",
     "x^2 * y * t * dt + xi * t^2 - eta * dt + 7/3 * x * t^3 * dt"):
        "faff5f025678a81307c9ed78eaecebb9c49b4565b4aabc6c39999d77bb17843a",
    ("path-object", "--input", "-", "--trials", "5"):
        "09836ca85a335854705fbcc9d2aa3e5af29acd6ebf7173441e128a376866b6d5",
    ("check",):
        "955dfa1a8392d9973ab6d780de8a85fb84c78f4824bd8758660a8c5a2c886b8e",
    ("cohomology",):
        "c6f3ad6f9f682e0b469543795ac7da7ad4489e95be7dfef0c50a0d1107c4af7a",
    ("cohomology", "--text"):
        "a2444af2d659a479e54aa07b51cdfbd906042b91c4c9495008206026a3b1bbe9",
    ("forms-omega",):
        "f030402874252691577515b66cc699bfefef042cdbb77b40d0db5023b083ef96",
    ("cartan-check", "--pairs", "3", "--seed", "5"):
        "31e6ab43f1bdb9e511bd86949aae4e81c9c9323033393e14afc214f194583adf",
    ("berezin", "--expr", "x * xi * eta + 2/3 * y * eta - xi", "--var", "eta"):
        "ba6f351ba897237d5590221ea668900947a04c4844eb12b4bd1945427e9d3c2a",
    ("cotensor", "--n", "2"):
        "f44b659a78b46ed1a6fab5da2a9fe925a81e157c75516b8c4a813fff275e75f7",
    ("cotensor", "--n", "2", "--shape", "boundary"):
        "db2a83f9709abe017f0b84721d2c762454756fcb4522f9d9b6bae83fb935e561",
    ("cotensor", "--n", "2", "--shape", "horn", "--horn-vertex", "1"):
        "65224cb3b18abc4217c3cf2fe41b4e4352bbe4aea08b0a8aefe60612a08d9ce5",
    ("cells",):
        "1813cf498fb9ae3c438ee13f5850c2a57c7ebdd642c40f6216fdf1c207242c37",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_golden_output_digests(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GOLDEN_DOC)))
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


GOLDEN_COMPLEX = {"dims": {"0,even": 2, "1,odd": 2, "2,even": 1},
                  "differential": {"0,even": [[1, 0], [0, 0]], "1,odd": [["0", "1/2"]]}}

GOLDEN_MAP = {
    "source": {"dims": {"-1,odd": 2, "1,odd": 1}},
    "target": {"dims": {"-1,odd": 1, "0,even": 1, "1,odd": 1},
               "differential": {"0,even": [[1]]}},
    "blocks": {"-1,odd": [[1, 1]], "1,odd": [[1]]},
}

_SPHERE = {"dims": {"1,odd": 1}}
_DISK = {"dims": {"0,even": 1, "1,odd": 1}, "differential": {"0,even": [[1]]}}
_ZERO = {"dims": {}}

GOLDEN_LIFT = {
    "i": {"source": _SPHERE, "target": _DISK, "blocks": {"1,odd": [[1]]}},
    "p": {"source": _DISK, "target": _ZERO, "blocks": {}},
    "top": {"source": _SPHERE, "target": _DISK, "blocks": {"1,odd": [["2/3"]]}},
    "bottom": {"source": _DISK, "target": _ZERO, "blocks": {}},
}

NOT_A_COMPLEX = {"dims": {"0,even": 1, "1,odd": 1, "2,even": 1},
                 "differential": {"0,even": [[1]], "1,odd": [[1]]}}

# (stdin document, argv, exit code, sha256 of the whole stdout): the
# complex commands, and one envelope of each failure kind
GOLDEN_ENVELOPES = [
    (GOLDEN_COMPLEX, ("complex", "cohomology"), 0,
     "e253021ba1f717555823d05dc4b8ee5de4e1f95ed28bd508ea204d3c67b27e0e"),
    (GOLDEN_COMPLEX, ("sym-kunneth", "--window=-2:2"), 0,
     "9e2d2e5a53a8e4a8897b28c682f2d2b3812e5d7a39990cda234ebbb1df94e1ed"),
    (GOLDEN_MAP, ("complex", "classify"), 0,
     "2ef8c9a5d1926322a2ea638bd89ea66ddb014a54d95ffb0a97c23c1594a213f3"),
    (GOLDEN_MAP, ("complex", "factorize"), 0,
     "3226e59acf784b5490a8faa06d0bd4ed05d92468c6e6aa0c76388b3e96b22c93"),
    (GOLDEN_MAP, ("complex", "factorize", "--mode", "cofibration_acyclic_fibration"), 0,
     "139a5b0a7a6ad0578d2109710bae7bd7f33ae6a97875c3eeba147587e4342279"),
    (GOLDEN_LIFT, ("complex", "lift"), 0,
     "7ff99b1c8a8a5723eb463fbbf6a2cfaad582766ae2b651a9ce27ff33d77ae43c"),
    (NOT_A_COMPLEX, ("complex", "cohomology"), 1,
     "d10bd14838656fe0c6beeaa5744bd5fe76a8d1720d0f58dd2036a5c8dd77a010"),
    (GOLDEN_DOC, ("integrate", "--expr", "x", "--var", "nope"), 2,
     "ccfc81d12af672ac6bc394f45ddb0c7b025f0472d39b3139925c265a7607f966"),
    (GOLDEN_DOC, ("check", "--window", "3:-3"), 2,
     "1cf8d0321509e6c9f846db994f4bdb62b39cd0e9a3aa5ff4ec3a4c548009dd9b"),
]


@pytest.mark.parametrize("doc, argv, code, digest", GOLDEN_ENVELOPES,
                         ids=["-".join(case[1]) for case in GOLDEN_ENVELOPES])
def test_golden_envelope_digests(capsys, monkeypatch, doc, argv, code, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    got, out = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A boundary filling that needs a cap retry: over one even generator c of
# weight 1 the (2, even) families on the boundary of the 1-simplex are
# restrictions only from the domain at cap 3, one above the requested cap.
RETRY_DOC = {"generators": [{"name": "c", "weight": 1, "parity": "even"}]}


def test_cotensor_cap_retry_digest(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(RETRY_DOC)))
    code, out = run(capsys, "cotensor", "--n", "1", "--shape", "boundary",
                    "--window=0:2", "--degcap", "2")
    assert code == 0
    entries = json.loads(out)["report"]["filling"]["entries"]
    assert [e["cap_used"] for e in entries] == [2, 2, 2, 2, 3, 2]
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "fe10f6cb885e957ed66515931f74d24a948be344e0d7a2def49d5ec1d05bd84d")


# (exit code, sha256 of stdout + stderr) of --help on every command path and
# of the usage errors argparse prints
HELP_DIGESTS = {
    ("--help",):
        (0, "9990789664f78430a85eab09569469207da0379b12682f35c738dc07c7505df7"),
    ("check", "--help"):
        (0, "cf5cb27f25ae3e34c0fb437eedf65e3118f98bfc4bd7310a72aeaec07bf4a721"),
    ("cohomology", "--help"):
        (0, "a9ab19eeb4d66254e56fcabb5a906d8888c24a9436eb1a88ea595d5b2af3e4a8"),
    ("forms-omega", "--help"):
        (0, "816755931266376ae486f1688223e0594e11016fff053e62b20a137bd3836f23"),
    ("cartan-check", "--help"):
        (0, "8a87e683f00a51050f76dcfd0dd9249af548475883ff84c146075eebc8c496cf"),
    ("integrate", "--help"):
        (0, "eeed8b473bcca18c19796454f38ffee1087a5cb28716a99048fccf3316e6cc37"),
    ("berezin", "--help"):
        (0, "6013a8d9114804a3340f5eaf56a134476bef62a56491f4c892683630fcf1466b"),
    ("cylinder-contract", "--help"):
        (0, "10f37332522159a7b4f89b7de9ce85b10027c5efb7bf60258d5fcace247d1aaa"),
    ("simplicial", "--help"):
        (0, "53d042e7ffc2ef833c78ce9dc7f09166da44751f6174a73d23c41502688cab74"),
    ("simplicial", "faces", "--help"):
        (0, "9e2c978dae25ab418728b0ea04b62224d6294da212bb1e34086a119a654a7eb2"),
    ("simplicial", "whitney", "--help"):
        (0, "43e3a1dcc05eac0bcce35b34a9cc3378d683460c02d8aa6611612e5619fdae9a"),
    ("simplicial", "project", "--help"):
        (0, "47f5d76b96a0530e2728627142d16a3b44d9865968ffe8ae8c99ed29c31f7637"),
    ("simplicial", "dupont", "--help"):
        (0, "d6ad8528ff332799bec951ce5bcec0fa66fc21ff846ac35d86953cbe9e976153"),
    ("simplicial", "duality", "--help"):
        (0, "10ed569a863d402064037af8bcf907a2c70a53067db6b76d35f04c3cf38990f5"),
    ("cotensor", "--help"):
        (0, "94516e2a2134f8a04d9569fb074a4051f65e13f7327326676f49294d9504c39c"),
    ("path-object", "--help"):
        (0, "e4321c283fe72185fd66b10a2dd9ebdf9b7309ea945a0014765c46c2266f33b3"),
    ("complex", "--help"):
        (0, "af399099aa6bbbeb7f2bea13c66e89626e482ab68af2fcf5119b67f2a79bba4b"),
    ("complex", "cohomology", "--help"):
        (0, "9775759a50f6a7da36ea90c15d1d9c36430457959ace7295a2e37a0948dbf989"),
    ("complex", "classify", "--help"):
        (0, "feeebd970637ac56088ad70ad6dd60667f9b42ce7d4d2eafb96d68ff2deeb35b"),
    ("complex", "lift", "--help"):
        (0, "7ce3384f7306bd3a8a17c795b6b240e6a1e1e361d44e16d7f1d6e946f8bc0925"),
    ("complex", "factorize", "--help"):
        (0, "69d2c83b6f66790af9e2a88aac5b351e8c663ac452b796f38c9665c13b73244a"),
    ("cells", "--help"):
        (0, "8ac5e919cf94007d4125c3d74cb5a9cf8d1287ce9c8fa72d98dca55043517cd6"),
    ("sym-kunneth", "--help"):
        (0, "cfe92ff4274264a32bbc8b646e696afc73610ce3ced2a0e2ab993793027d8a86"),
    ():
        (2, "4e67bd5741b372e2a03fec47b4d5106f77b31c5406129288a25f5df0687d4358"),
    ("simplicial",):
        (2, "74cb379cc3b65aef0c617459a7b8bb0e14addebd88fc44591d383655a3db7e60"),
    ("complex",):
        (2, "99aa2f97811fa950d4e311f2675b1b718c1e786ec40b507b80a70c4416e16161"),
    ("check", "--bogus"):
        (2, "ffbb3dbb385b66d0e67e7a1cf4a1d570a50a7ad54d8527f787eaa1d80278c9b8"),
    ("simplicial", "faces"):
        (2, "d1053baf617f7b13fa9bfcf3913713c24a47ed14ce295aa7010ce8bd97dea91d"),
    ("cotensor", "--n", "1", "--shape", "cube"):
        (2, "e30f5cbb8c353b9d5a7db475e67ac80e563e6b671ad550636bba8b5261eb8795"),
}


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse formats help and usage differently from 3.13 on")
@pytest.mark.parametrize("argv", list(HELP_DIGESTS))
def test_help_and_usage_digests(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + captured.err).encode()).hexdigest()
    assert (err.value.code, digest) == HELP_DIGESTS[argv]


# -- the process exit: run() flushes and leaves by os._exit ---------------------------


def _cli_child(argv, stdin=b"", **streams):
    """`python -m sdga.cli argv` in a child with sdga on the path and stdout
    block-buffered, as on any pipe or file unless PYTHONUNBUFFERED is set:
    what run() leaves in the buffer is lost unless it flushes."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdga.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "sdga.cli", *argv], input=stdin,
                          env=env, **streams)


# (stdin document, argv, exit code): one request of each way out of the CLI
EXITS = [
    (GOLDEN_DOC, ("cohomology",), 0),
    ({"generators": [{"name": "x", "weight": 0, "parity": "even"}],
      "differential": {"x": "x"}}, ("check",), 1),
    (GOLDEN_DOC, ("integrate", "--expr", "x", "--var", "nope"), 2),
    (GOLDEN_DOC, ("check", "--bogus"), 2),
    (GOLDEN_DOC, ("--version",), 0),
    # over the 64 KiB of a pipe's buffer: 123,362 bytes
    (GOLDEN_DOC, ("simplicial", "whitney", "--n", "7", "--barycentric"), 0),
]


@pytest.mark.parametrize("doc, argv, code", EXITS, ids=["-".join(case[1]) for case in EXITS])
def test_process_prints_what_main_prints(capsys, monkeypatch, doc, argv, code):
    """The CLI process exits with main()'s code and prints main()'s stdout,
    byte for byte, whether main returns or argparse raises SystemExit."""
    child = _cli_child(argv, json.dumps(doc).encode(), capture_output=True)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert (child.returncode, child.stdout) == (got, capsys.readouterr().out.encode())
    assert got == code
    if argv[0] == "simplicial":
        assert len(child.stdout) > 65536



def test_cohomology_of_40_odd_generators_exits_in_time():
    """The degree bound tables the sums of the odd generators' weights: 40
    odd generators take well under a second, where a walk over their 2^40
    subsets would not finish."""
    doc = {"generators": [{"name": f"y{i}", "weight": i % 5 - 2, "parity": "odd"}
                          for i in range(40)]}
    child = _cli_child(["cohomology", "--window=0:0", "--degcap", "1"],
                       json.dumps(doc).encode(), capture_output=True, timeout=10)
    assert child.returncode == 0
    assert json.loads(child.stdout)["ok"] is True

def test_console_script_is_run():
    """`sdga` leaves the way `python -m sdga.cli` does."""
    text = (Path(sdga.__file__).parents[2] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert 'sdga = "sdga.cli:run"' in text.splitlines()
    else:
        assert tomllib.loads(text)["project"]["scripts"] == {"sdga": "sdga.cli:run"}


def _unwritable(sink: str):
    """A file that refuses every write: a pipe whose reader is gone, or
    /dev/full."""
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return open("/dev/full", "wb")
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb")


# cells (8.6 kB) fails in main's write, simplicial faces --n 0 in run's flush
@pytest.mark.parametrize("argv", [("cells",), ("simplicial", "faces", "--n", "0")],
                         ids=["cells", "faces"])
@pytest.mark.parametrize("sink", ["closed-pipe", "full"])
def test_unwritable_report_exits_2(sink, argv):
    with _unwritable(sink) as out:
        child = _cli_child(argv, stdout=out, stderr=subprocess.PIPE)
    assert child.returncode == 2
    lines = child.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("sdga: cannot write the report: [Errno ")


def test_main_returns_2_when_stdout_refuses_the_report(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["cells"]) == 2
    assert capsys.readouterr().err == (
        f"sdga: cannot write the report: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
