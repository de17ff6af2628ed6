import json
import random

import pytest

from cyclic_leibniz.algebra import CyclicAlgebra, build
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


HUGE = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "text",
    [
        '{"dimension": 2, "tail": [[%s, 0]]}' % HUGE,
        '{"dimension": 2, "tail": [[1, 0]], "tolerance": %s}' % HUGE,
    ],
    ids=["tail-entry", "tolerance"],
)
def test_huge_integers_rejected(text):
    with pytest.raises(DocumentError):
        parse_algebra_document(json.loads(text))


@pytest.mark.parametrize(
    "text, start",
    [
        ('{"dimension": 3, "tail": [[1, 0], [0, %s]]}' % HUGE,
         "tail entry 1 is out of floating-point range"),
        ('{"dimension": 2, "tail": [[1, 0]], "tolerance": -%s}' % HUGE,
         "tolerance must be positive and finite, got -1000"),
        ('{"dimension": %s, "tail": [[1, 0]]}' % HUGE, "tail must have exactly n-1 = 9999"),
        ('{"dimension": -%s, "tail": [[1, 0]]}' % HUGE,
         "dimension must be a positive integer, got -1000"),
    ],
    ids=["tail-entry", "tolerance", "dimension", "negative-dimension"],
)
def test_huge_integer_errors_name_the_field_and_stay_short(text, start):
    with pytest.raises(DocumentError) as caught:
        parse_algebra_document(json.loads(text))
    assert str(caught.value).startswith(start)
    assert len(str(caught.value)) <= 100


# Tuples serialize as JSON lists; being immutable, they are never edited in place.
MUTANTS = [
    10**400, -(10**400), True, False, None, "1", (), (1, 0), ((1, 0),), {"re": 1},
    json.loads("Infinity"), json.loads("-Infinity"), json.loads("NaN"),
    0, -1e-9, 2.5,
]


def _mutate(rng, doc):
    """One random corruption of a document (it may happen to stay valid)."""
    where = rng.choice(["dimension", "tolerance", "tail", "entry", "pair", "length"])
    tail = doc["tail"]
    if where in ("dimension", "tolerance", "tail"):
        doc[where] = rng.choice(MUTANTS)
    elif not isinstance(tail, list) or not tail:
        return
    elif where == "entry":
        pair = rng.choice(tail)
        if isinstance(pair, list) and pair:
            pair[rng.randrange(len(pair))] = rng.choice(MUTANTS)
    elif where == "pair":
        tail[rng.randrange(len(tail))] = rng.choice(MUTANTS)
    elif rng.random() < 0.5:
        tail.pop()
    else:
        tail.append([rng.uniform(-3, 3), 0.0])


def test_mutated_documents_parse_or_raise_document_error():
    rng = random.Random(20141)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(600):
        n = rng.randint(1, 6)
        doc = {"dimension": n,
               "tail": [[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(n - 1)]}
        if rng.random() < 0.5:
            doc["tolerance"] = 10 ** rng.uniform(-12, -3)
        for _ in range(rng.randint(0, 2)):
            _mutate(rng, doc)
        try:
            A = parse_algebra_document(json.loads(json.dumps(doc)))
        except DocumentError:
            outcomes["rejected"] += 1
        else:
            assert isinstance(A, CyclicAlgebra)
            outcomes["parsed"] += 1
    assert min(outcomes.values()) >= 100


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
