"""The benchmark's inputs depend on the seed and on nothing else.

Run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import workloads  # noqa: E402


def documents(workload: str, seed: int) -> str:
    return json.dumps([[r.argv, r.doc, r.check, r.pair] for r in workloads.build(workload, seed)])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_documents(workload):
    assert documents(workload, 7) == documents(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_other_documents(workload):
    assert documents(workload, 7) != documents(workload, 8)


def _mat(doc_mat):
    return [[Fraction(x) for x in row] for row in doc_mat]


def _mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_cell_complexes_square_to_zero():
    # disks at (0, even) and (1, odd) share (1, odd), so d composes with d
    cells = [("D", (0, 0)), ("D", (1, 1)), ("S", (1, 1)), ("D", (0, 0)), ("D", (1, 1)),
             ("S", (2, 0))]
    c = gen.CellComplex(random.Random(1), cells).doc()
    d_in, d_out = _mat(c["differential"]["0,even"]), _mat(c["differential"]["1,odd"])
    assert not any(x for row in _mul(d_out, d_in) for x in row)
    assert any(x for row in d_in for x in row) and any(x for row in d_out for x in row)


def _block(map_doc, key):
    rows = map_doc["target"]["dims"].get(key, 0)
    cols = map_doc["source"]["dims"].get(key, 0)
    mat = map_doc["blocks"].get(key)
    return _mat(mat) if mat else [[Fraction(0)] * cols for _ in range(rows)]


def test_lifting_square_commutes():
    doc = gen.lifting_square(random.Random(2), workloads.LIFT_SHAPES[0], random.Random(3))
    dims = [doc["i"]["source"]["dims"], doc["i"]["target"]["dims"],
            doc["p"]["source"]["dims"], doc["p"]["target"]["dims"]]
    for key in dims[0]:
        # where B or X vanishes both composites are zero by construction
        if all(d.get(key) for d in dims):
            assert (_mul(_block(doc["p"], key), _block(doc["top"], key))
                    == _mul(_block(doc["bottom"], key), _block(doc["i"], key)))
