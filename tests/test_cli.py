"""End-to-end checks of the batch CLI: envelopes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import sdga
from sdga import simplicial
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


def test_malformed_document(tmp_path, capsys):
    path = write_doc(tmp_path, "nope.json", {"nope": 1})
    code, env = run_json(capsys, "check", "--input", path)
    assert code == 2
    assert "generators" in env["error"]


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
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_golden_output_digests(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GOLDEN_DOC)))
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[argv]
