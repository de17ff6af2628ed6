import json

import pytest

from cyclic_leibniz.algebra import build
from cyclic_leibniz.classification import normalize
from cyclic_leibniz.documents import DocumentError, load_algebra, parse_algebra_document
from cyclic_leibniz.scalars import DEFAULT_EPS


def test_minimal_document():
    A = parse_algebra_document({"dimension": 3, "tail": [[4, 0], [2, 0]]})
    assert A.n == 3
    assert A.tail == (4, 2)
    assert A.eps == DEFAULT_EPS


def test_tolerance_priority():
    doc = {"dimension": 2, "tail": [[1, 0]], "tolerance": 1e-6}
    assert parse_algebra_document(doc).eps == 1e-6
    assert parse_algebra_document(doc, eps_override=1e-3).eps == 1e-3


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {},
        {"dimension": 3},
        {"tail": []},
        {"dimension": 0, "tail": []},
        {"dimension": True, "tail": []},
        {"dimension": 2.5, "tail": [[1, 0]]},
        {"dimension": 3, "tail": [[1, 0]]},  # wrong length
        {"dimension": 2, "tail": [[1]]},  # not a pair
        {"dimension": 2, "tail": [["x", 0]]},
        {"dimension": 2, "tail": [[float("inf"), 0]]},
        {"dimension": 2, "tail": [[1, 0]], "tolerance": "small"},
        {"dimension": 2, "tail": [[1, 0]], "tolerance": -1e-9},
        {"dimension": 2, "tail": [[1, 0]], "tolerance": 0},
    ],
)
def test_invalid_documents_rejected(doc):
    with pytest.raises(DocumentError):
        parse_algebra_document(doc)


def test_load_algebra_round_trip(tmp_path):
    A = build(4, [1 + 2j, 0, -0.5j], eps=1e-8)
    path = tmp_path / "alg.json"
    doc = {"dimension": A.n, "tail": [[t.real, t.imag] for t in A.tail], "tolerance": A.eps}
    path.write_text(json.dumps(doc))
    B = load_algebra(path)
    assert B == A


def test_load_errors(tmp_path):
    with pytest.raises(DocumentError):
        load_algebra(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DocumentError):
        load_algebra(bad)


def test_canonical_document_reclassifies_identically():
    import numpy as np

    from helpers import random_typed_tail

    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
        form = normalize(A)
        tail = form.as_algebra().tail
        doc = {"dimension": n, "tail": [[t.real, t.imag] for t in tail]}
        assert normalize(parse_algebra_document(doc)) == form
