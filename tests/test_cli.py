"""End-to-end checks of the batch CLI: envelopes, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import sdga
from sdga import cli, simplicial
from sdga.cli import build_algebra, main


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


@pytest.mark.parametrize("argv, doc, absent", [
    (("cohomology",), KOSZUL_DOC,
     {"sdga.simplicial", "sdga.forms", "sdga.model", "sdga.sampling", "random"}),
    (("complex", "cohomology"), {"dims": {"0,even": 1}},
     {"sdga.simplicial", "sdga.forms"}),
])
def test_request_imports_only_its_modules(argv, doc, absent):
    """Start-up cost: a request imports the modules its command uses, not
    every module some command needs.  -S: what site imports is not counted."""
    code = ("import json, sys, sdga.cli; code = sdga.cli.main(sys.argv[1:]); "
            "sys.stderr.write(json.dumps(sorted(sys.modules))); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdga.__file__))}
    child = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                           input=json.dumps(doc), capture_output=True, text=True, env=env)
    assert child.returncode == 0
    assert json.loads(child.stdout)["ok"] is True
    assert absent.isdisjoint(json.loads(child.stderr))


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
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document(tmp_path, capsys, case):
    argv, doc, error = MALFORMED[case]
    path = write_doc(tmp_path, "nope.json", doc)
    code, env = run_json(capsys, *argv, "--input", path)
    assert code == 2
    assert env["ok"] is False
    assert error in env["error"]


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
    (("simplicial", "faces", "--n", "1", "--input", "-"),
     "simplicial faces reads no document; --input is not accepted"),
    (("cells", "--input", "doc.json"), "cells reads no document; --input is not accepted"),
])
def test_ignored_option_fails(capsys, monkeypatch, argv, error):
    """An option the command would not use exits 2 instead of being echoed."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LINE_DOC)))
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert env["error"] == error


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
    source cocycles dies in cohomology, so pass 3 must attach a cell for it."""
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
    from sdga import model
    rng = random.Random(8100 + seed)
    a = model.random_complex(rng, max_cells=3)
    b = model.random_complex(rng, max_cells=3)
    f = model.random_chain_map(rng, a, b)
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
    assert code == 0
    assert sorted(calls) == [(w, p, 3) for w in range(3) for p in (0, 1)]
    # the same reports as each function on its own cotensor
    monkeypatch.undo()
    dga, _ = build_algebra(LINE_DOC)
    vertex = 1 if shape[0] == "horn" else None
    expected = simplicial.cotensor_report(dga, 2, shape[0], vertex, 0, 2, 3)
    expected["filling"] = simplicial.filling_report(dga, 2, shape[0], vertex, 0, 2, 3)
    assert env["report"] == expected
    assert [e["dim"] for e in expected["entries"]] == \
        [e["target_dim"] for e in expected["filling"]["entries"]]


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


def test_tracer_reports_the_untraced_output_and_the_cohomology_layers():
    """perfbench/tracer.py wraps sdga's functions by name: the traced CLI
    prints the untraced report byte for byte, and the differential-block and
    elimination spans it times are the ones the cohomology path calls."""
    src = os.path.dirname(os.path.dirname(sdga.__file__))
    tracer = os.path.join(os.path.dirname(src), "perfbench", "tracer.py")
    argv = ["cohomology", "--input", "-", "--window=0:6", "--degcap", "4"]
    env = {**os.environ, "PYTHONPATH": src}
    doc = json.dumps(SULLIVAN_DOC)
    plain = subprocess.run([sys.executable, "-m", "sdga.cli", *argv], input=doc.encode(),
                           capture_output=True, env=env)
    traced = subprocess.run([sys.executable, tracer, *argv], input=doc.encode(),
                            capture_output=True, env=env)
    assert plain.returncode == traced.returncode == 0
    assert json.loads(plain.stdout)["ok"] is True
    assert traced.stdout == plain.stdout
    marker = "PERFBENCH_TRACE "
    line = next(ln for ln in traced.stderr.decode().splitlines() if ln.startswith(marker))
    spans = json.loads(line[len(marker):])["spans"]
    for name in ("dg.differential_matrix", "linalg.rref", "linalg.nullspace"):
        assert spans.get(name, [0])[0] > 0, name


def _subparser(parser, words):
    """The parser of the command path `words` in the tree under `parser`."""
    for word in words:
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[word]
    return parser


@pytest.mark.parametrize("words", [row[0] for row in cli.COMMANDS])
def test_selected_parser_is_the_full_parser(monkeypatch, words):
    """main builds the options of its own command only: that parser prints the
    same help on the command's path and parses to the same Namespace as the
    whole tree, on every Python version."""
    monkeypatch.setenv("COLUMNS", "80")
    full, selected = cli.build_parser(), cli.build_parser(words)
    path = words.split()
    for depth in range(len(path) + 1):
        assert (_subparser(selected, path[:depth]).format_help()
                == _subparser(full, path[:depth]).format_help())
    options = next(row[2] for row in cli.COMMANDS if row[0] == words)
    required = [arg for flag, kwargs in options if kwargs.get("required")
                for arg in (flag, "1")]
    for extra in ([], ["--deg", "3"], ["--window=-1:2"], ["--text"]):
        argv = [*path, *required, *extra]
        assert selected.parse_args(argv) == full.parse_args(argv)


def test_main_selects_the_command_row(capsys, monkeypatch):
    """A request naming a row builds that row's parser; anything else, the
    whole tree."""
    seen, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda selected=None: seen.append(selected) or build(selected))
    assert main(["simplicial", "faces", "--n", "0"]) == 0
    assert main(["cells", "--text"]) == 0
    for argv in (["--version"], ["-h"], ["simplicial"], ["nope"], ["complex", "-h"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert seen == ["simplicial faces", "cells", None, None, None, None, None]


def test_command_table_matches_handlers():
    named = ["cmd_" + words.replace(" ", "_").replace("-", "_")
             for words, _, _ in cli.COMMANDS]
    assert len(set(named)) == len(named)
    assert set(named) == {name for name in vars(cli) if name.startswith("cmd_")}
    assert all(callable(getattr(cli, name)) for name in named)


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

# sha256 of the whole stdout of each command, GOLDEN_DOC on stdin: the
# reports stay byte-identical whatever the arithmetic beneath them does
GOLDEN_DIGESTS = {
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[0]):
        "36899892d87f06569e5d8996c31a8aef8e9761e011ba660205e102b58c458ec3",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[1]):
        "d6b62f913f503a9c7a3e8a21f35706457f31f9fe97ace8df957ed3b812e360b0",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[2]):
        "1fd62d9c15ed15afd03f45e22949b23b95c9221e5b7f6df895c3e8d497aa959f",
    ("simplicial", "dupont", "--n", "3", "--form", GOLDEN_FORMS[3]):
        "4838174da256e5386141da7020fe384243e9144b7a19da139e5bad4c292220f8",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[0]):
        "09790d7edb5439adc4f691d550faf7e1b6db94fa93c7758e0ba002ef19d219b1",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[1]):
        "3b8350ed2776d6605ed026f7de576a952eac6d8428e71e9de3a2b1ee631114d5",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[2]):
        "0d9d94480c04346c782b8450c466c9aa0dbb20bead6eede16fed4a1ae8229d8d",
    ("simplicial", "project", "--n", "3", "--form", GOLDEN_FORMS[3]):
        "a384e5caf9be51c484383c36e5e9af3df1b224def84c7b32c5b08ce569a32d0a",
    ("simplicial", "duality", "--n", "3"):
        "446dacbfd97bcbb4b4c70e7098df2f5d09dbb20329dc09667fffbb8f7e8e25c9",
    ("simplicial", "whitney", "--n", "3"):
        "395abc4c26cde4a588210e970557105c9378f476e7e4b9ef953093ee740d920a",
    ("simplicial", "faces", "--n", "3"):
        "c5be8a858d081ced19cb3e2031cf0431e9fe3736fc2b3eb4c736a16a83365648",
    ("integrate", "--input", "-", "--expr", "x^2 * y + 3/2 * x * xi - y * eta",
     "--var", "x", "--lower", "y", "--upper", "1 - x"):
        "273acdc8d21b66291312b13d036752f7705b4666b8526532d095aa2179b0d83a",
    ("integrate", "--input", "-", "--expr", "x^3 * xi - 2/5 * x * eta",
     "--var", "x", "--lower", "1/2", "--upper", "3"):
        "ad7acae1da0ae1c3481966415fa7cecc1e77133c8b106c7450ed551a3b0bbb09",
    ("cylinder-contract", "--input", "-", "--expr",
     "x^2 * y * t * dt + xi * t^2 - eta * dt + 7/3 * x * t^3 * dt"):
        "115cc405409c8dcdaa1d639d0fb96b9be44183662b7224ece2728e4ef3cef2f2",
    ("path-object", "--input", "-", "--trials", "5"):
        "89c262a090ac10f3f4f1ab75530dbacb992d532519415c7dcee7d5ab97beb834",
    ("check",):
        "4a19e4d0caec04b57cba0c9a95312adc429df247259cfdc3180217ef292c6d0f",
    ("cohomology",):
        "595e37305072befd507055d42a14dc8abc3809d124e76f13f5d52547e617ccb9",
    ("cohomology", "--text"):
        "11c5360532a92f21f424f4beb54c13b300f4c5c0e85b4449507464f9b75fcc3d",
    ("forms-omega",):
        "2fff2572043874bb582ff65e25e20a99005b13b74450d5aab85f91d42a84e0e9",
    ("cartan-check", "--pairs", "3", "--seed", "5"):
        "be61ddb586d5854929af9ebe69c24d506c8ce01a84f94c4df88fcd3187126786",
    ("berezin", "--expr", "x * xi * eta + 2/3 * y * eta - xi", "--var", "eta"):
        "26088bc50dbc19840358205e79feaf03d55dc55d200d22b19d7d781766261be3",
    ("cotensor", "--n", "2"):
        "d71cc0a93b99ec2d9e0a1b889dfbc7c8abb0532e5bf7516f9307afa1b51cff85",
    ("cotensor", "--n", "2", "--shape", "boundary"):
        "5594e1b14bb048238a64951ba0e1bb87cbfeae6f595c367f91a4f3814978c03e",
    ("cotensor", "--n", "2", "--shape", "horn", "--horn-vertex", "1"):
        "95381485b23cc46171364a39564b9faa06170151fc8eeab719754595404f74fc",
    ("cells",):
        "5844b9c7c04b14918c509f6e44cb3128b878e800e1701355cc08a80aa53bcb2d",
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
     "ebe8932bd9fe9afaa8edc095a24b3bf29fb1359f9f33d862136bfb5cb9976ebb"),
    (GOLDEN_COMPLEX, ("sym-kunneth", "--window=-2:2"), 0,
     "7db1b1fcf7d7079adc1edd546e74e1340719b5df52819939d9024d09da303ad1"),
    (GOLDEN_MAP, ("complex", "classify"), 0,
     "356acde5128d62e6ce7e8f31a8d4e756d871e84a44dd264e7571ba3c361e0315"),
    (GOLDEN_MAP, ("complex", "factorize"), 0,
     "88a8305f3fb3732b140b21b2c6c7812515db4e160e8b2cee8f1535f808529832"),
    (GOLDEN_MAP, ("complex", "factorize", "--mode", "cofibration_acyclic_fibration"), 0,
     "bbfd8237351716c5da1260535ee667c2022e49b282223222dc28ca97192b7aee"),
    (GOLDEN_LIFT, ("complex", "lift"), 0,
     "40d1b88cb78ae69a47e3e37ba1f3c1ec090d3cb4943bcd286453835d4345106f"),
    (NOT_A_COMPLEX, ("complex", "cohomology"), 1,
     "910d541bdd064ec5a513205c0fe9defbd9bfc25cafafc6aac554cee898d236fa"),
    (GOLDEN_DOC, ("integrate", "--expr", "x", "--var", "nope"), 2,
     "e038072ade872c381f4413cad3ef244098551eedb658d1ff0b5d61175d000d2f"),
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


# (exit code, sha256 of stdout + stderr) of --help on every command path and
# of the usage errors argparse prints
HELP_DIGESTS = {
    ("--help",):
        (0, "9990789664f78430a85eab09569469207da0379b12682f35c738dc07c7505df7"),
    ("check", "--help"):
        (0, "a25666be92875b2fbf1c0b813e7cee15ba772915c14468a45eebbaca01a2ed0f"),
    ("cohomology", "--help"):
        (0, "7f5fcc20f5bd2a18da5a2e4af0b6b9be0897c6891a8467173f9ddaf71876588c"),
    ("forms-omega", "--help"):
        (0, "3ca6627825b92c161cbc7274ceabde8bdcb5e6a5671fc919e5c3449332d19177"),
    ("cartan-check", "--help"):
        (0, "2be98790a6b93f32d79cfdafaadc28e5f0c2a5c74fea091e395a91c57cdd3f3b"),
    ("integrate", "--help"):
        (0, "4b483babc43ec1889e52a4b192587be515c7059005fc3cf64e9829966ebe4824"),
    ("berezin", "--help"):
        (0, "4a1478be378aa90c754e7521dfa3df570ba56f89ab70b4a946c7fe3f8baa27fd"),
    ("cylinder-contract", "--help"):
        (0, "314ead876a4bf7486e2780c1e73bca6c13bb1e08d05ba2adb54142c157f9dee6"),
    ("simplicial", "--help"):
        (0, "53d042e7ffc2ef833c78ce9dc7f09166da44751f6174a73d23c41502688cab74"),
    ("simplicial", "faces", "--help"):
        (0, "e5b35ba6ad6fc938edc3e70342cdd72c67af81736053a43cdfba40c4c49394a8"),
    ("simplicial", "whitney", "--help"):
        (0, "c1f30fed2c11f2df5cbd1d387e45bd0fc80573d636d3384b3638cde4798416ef"),
    ("simplicial", "project", "--help"):
        (0, "aa9bcb4a415b9959a2f5bd54e1ecb7dd5e45976c5fa807661a477050344e9cc5"),
    ("simplicial", "dupont", "--help"):
        (0, "4ce0668d9e898d2bee27f3111035db8bba768db73550bc158ae628d0390b2ce6"),
    ("simplicial", "duality", "--help"):
        (0, "7aa4b7e9e76ffa50608af1258270316571281fe6eb5c87f85abb5a096ea29962"),
    ("cotensor", "--help"):
        (0, "21459d62b6d8ce44045ab811846e65b87e0f5546da4ec897ba4faac558a11476"),
    ("path-object", "--help"):
        (0, "3bdf10bd158c1b234c26a564ec1be6729ebcf51ffab71ddbee6bbd61abd01236"),
    ("complex", "--help"):
        (0, "af399099aa6bbbeb7f2bea13c66e89626e482ab68af2fcf5119b67f2a79bba4b"),
    ("complex", "cohomology", "--help"):
        (0, "8b8fd1a8836972c8152d566234f1f1303795bf0d58ec8fd873f1e64fba6810b5"),
    ("complex", "classify", "--help"):
        (0, "6d3e0528da0e14fbcc5e4d41ad534547b0fed3ee0fcdd397f707d45a04f50f66"),
    ("complex", "lift", "--help"):
        (0, "26fe4e3b3f6faed375c03de9a62879ef4012cf278f794c0203e4d1f0e111be0a"),
    ("complex", "factorize", "--help"):
        (0, "fb8a56f5f0d6355fa70f81a1b7aed0af5eb0c08a1b44cebf375967d05875f003"),
    ("cells", "--help"):
        (0, "f44b40e64d6c739892cf4b1e97b136ba8d2d4a2564cc6ca1c9d34cf0738be9ce"),
    ("sym-kunneth", "--help"):
        (0, "7081b37d6dc9e414d7a7f0d36e609ee2b5709b3769cbb6126a43eeb8d8264353"),
    ():
        (2, "4e67bd5741b372e2a03fec47b4d5106f77b31c5406129288a25f5df0687d4358"),
    ("simplicial",):
        (2, "74cb379cc3b65aef0c617459a7b8bb0e14addebd88fc44591d383655a3db7e60"),
    ("complex",):
        (2, "99aa2f97811fa950d4e311f2675b1b718c1e786ec40b507b80a70c4416e16161"),
    ("check", "--bogus"):
        (2, "ffbb3dbb385b66d0e67e7a1cf4a1d570a50a7ad54d8527f787eaa1d80278c9b8"),
    ("simplicial", "faces"):
        (2, "4a6179059144886bc80967242cabf3efeae2dc73fbaba0b7f5544d08e7e74581"),
    ("cotensor", "--n", "1", "--shape", "cube"):
        (2, "cab68bbaa8c28ea56f6d9f0a3a9494db04ed73735ed0ad72b60271863b5ed768"),
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
