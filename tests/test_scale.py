"""tools/scale.py passes only when every pin exits 0 with its digest."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from sdga import cli

ROOT = Path(__file__).resolve().parent.parent

TINY = {"generators": [{"name": "x", "weight": 2, "parity": "even"},
                       {"name": "y", "weight": 3, "parity": "odd"}],
        "differential": {"y": "x^2"}}
ARGV = ["cohomology", "--window=0:2", "--degcap", "4"]


def load_scale():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_digest(monkeypatch, capsys):
    """The sha256 of the tiny row's report, from an in-process request."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TINY)))
    assert cli.main([*ARGV, "--input", "-"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture
def scale(monkeypatch):
    module = load_scale()
    monkeypatch.setattr(module, "documents", lambda: {"T": TINY})
    return module


def test_the_table_pins_thirteen_requests_on_six_documents():
    module = load_scale()
    docs = module.documents()
    assert sorted(docs) == ["F", "K", "L", "O", "Q", "S"]
    assert len({(doc, tuple(argv)) for doc, argv, _ in module.PINS}) == 13
    assert {doc for doc, _, _ in module.PINS} == set(docs) | {"-"}


def test_a_pin_with_its_digest_passes(scale, monkeypatch, capsys, tiny_digest):
    monkeypatch.setattr(scale, "PINS", [("T", ARGV, tiny_digest)])
    argvs = []
    request = scale.request

    def recorded(argv, stdin, stdout, env):
        argvs.append(argv)
        assert "PYTHONDONTWRITEBYTECODE" not in env
        return request(argv, stdin, stdout, env)

    monkeypatch.setattr(scale, "request", recorded)
    assert scale.main(["check"]) == 0
    assert argvs == [["cells"], [*ARGV, "--input", "-"]]  # the warm-up first
    out = capsys.readouterr().out
    assert f"T {' '.join(ARGV)}: {tiny_digest}  " in out
    assert " s CPU" in out


@pytest.mark.parametrize("row,reason", [
    (("T", ARGV, "0" * 64), f"T {' '.join(ARGV)}: expected {'0' * 64}"),
    (("-", ["check", "--bogus"], "0" * 64), "- check --bogus: exited 2"),
])
def test_a_wrong_digest_or_a_failed_request_names_the_pin(scale, monkeypatch, capsys,
                                                          row, reason):
    monkeypatch.setattr(scale, "PINS", [row, ("T", ARGV, "1" * 64)])
    assert scale.main(["check"]) == 1
    captured = capsys.readouterr()
    assert reason in captured.err
    assert "1" * 64 not in captured.err  # it stops at the first bad pin
