"""tools/bench_pairs.py summarises only runs that report correct outputs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(bad_call=None, outcome=None, read_result=None):
    """A stand-in for `run`: the calls go base, change, change, base, ...,
    and call number bad_call (from 1) gets outcome, a result dict, an
    exception, or perfbench's output as a string, which read_result reads."""
    metrics = {m["name"]: 1.0 for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]}
    calls = []

    def run(checkout, args):
        calls.append(checkout)
        if len(calls) == bad_call:
            if isinstance(outcome, Exception):
                raise outcome
            if isinstance(outcome, str):
                return read_result(outcome)
            return outcome
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": dict(metrics)}

    return run


@pytest.fixture
def bench(monkeypatch, tmp_path):
    module = load_bench_pairs()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--base", "BASE", "--change", str(ROOT), "--workload", "cohomology",
        "--seed", "1", "--seconds", "1", "--pairs", "3"])
    return module


def test_correct_runs_are_summarised(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run", fake_run())
    assert bench.main() == 0
    report = json.loads((tmp_path / "BENCH_cohomology.json").read_text())
    assert [pair["first"] for pair in report["runs"]] == ["base", "change", "base"]


@pytest.mark.parametrize("bad_call,side,outcome,reason", [
    (3, "change", {"correct": False, "attempted": 5, "failed": 0, "metrics": {}},
     "correct: False, failed: 0"),
    (5, "base", {"correct": True, "attempted": 5, "failed": 2, "metrics": {}},
     "correct: True, failed: 2"),
    (1, "base", subprocess.CalledProcessError(3, ["perfbench/run.py"]),
     "perfbench/run.py exited 3"),
    (2, "change", "", "perfbench/run.py printed no JSON result (empty output)"),
    (4, "base", "workload cohomology\nTraceback (most recent call last):\n",
     "perfbench/run.py printed no JSON result (Expecting value"),
])
def test_a_wrong_or_failed_run_writes_nothing(bench, monkeypatch, tmp_path, capsys,
                                              bad_call, side, outcome, reason):
    monkeypatch.setattr(bench, "run", fake_run(bad_call, outcome, bench.read_result))
    assert bench.main() == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert f"pair {(bad_call + 1) // 2}, {side} (" in err
    assert reason in err
