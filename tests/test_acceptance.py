"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import cmath
import contextlib
import io
import json
import math
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from cyclic_leibniz.algebra import build
from cyclic_leibniz.classification import (
    detect_type,
    embed_law,
    generator_law,
    isomorphic,
    normalize,
    orbit,
    rescale,
)
from cyclic_leibniz.oracle import iso_by_search, law_by_linear_solve, law_leading_index
from cyclic_leibniz.scalars import roots_of_unity
from cyclic_leibniz.cli import main
from helpers import random_typed_tail


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label} [{detail}]")
    assert ok, f"{label}: {detail}"


def phase(rng):
    return np.exp(2j * np.pi * rng.random())


def test_criterion_1_two_dim_law_reproduction(tmp_path):
    rng = np.random.default_rng(101)
    start = perf_counter()
    ok = True
    for i in range(50):
        alpha = 10.0 ** rng.uniform(-1, 1) * phase(rng)
        A = build(2, [alpha])
        lam = law_by_linear_solve(A, (1 / alpha) * A.generator())
        ok &= lam is not None and abs(lam[0]) <= 1e-9 and abs(lam[1] - 1) <= 1e-9
        doc = tmp_path / f"alg{i}.json"
        doc.write_text(json.dumps(
            {"dimension": 2, "tail": [[alpha.real, alpha.imag]]}
        ))
        code, out = run_cli("classify", str(doc))
        ok &= code == 0 and "class: type 2" in out and "law: a·a^2 = a^2" in out
    elapsed = perf_counter() - start
    verdict(
        "criterion 1: dim-2 rescaled generator law x*x^2 = x^2",
        ok and elapsed < 1.0,
        f"50 random alpha, solve within 1e-9, classify agrees, {elapsed:.2f}s",
    )


def test_criterion_2_dim3_classification():
    rng = np.random.default_rng(102)
    start = perf_counter()
    ok = True
    negatives = 0
    for _ in range(100):
        g = 10.0 ** rng.uniform(-1, 0.7) * phase(rng)
        gp = 10.0 ** rng.uniform(-1, 0.7) * phase(rng)
        ok &= isomorphic(build(3, [1, g]), build(3, [1, -g]))
        if min(abs(gp - g), abs(gp + g)) > 1e-6:
            negatives += 1
            ok &= not isomorphic(build(3, [1, g]), build(3, [1, gp]))
    elapsed = perf_counter() - start
    verdict(
        "criterion 2: dim-3 classes are gamma up to sign",
        ok and elapsed < 1.0,
        f"100 sign pairs isomorphic, {negatives} distinct pairs split, {elapsed:.2f}s",
    )


def test_criterion_3_dim4_cube_root_orbits():
    rng = np.random.default_rng(103)
    w = cmath.exp(2j * math.pi / 3)
    start = perf_counter()
    ok = True
    for _ in range(100):
        g3 = 10.0 ** rng.uniform(-1, 0.5) * phase(rng)
        g4 = 10.0 ** rng.uniform(-1, 0.5) * phase(rng)
        rotations = [
            build(4, [1, g3, g4]),
            build(4, [1, w**2 * g3, w * g4]),
            build(4, [1, w * g3, w**2 * g4]),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                ok &= isomorphic(rotations[i], rotations[j])
        perturbed = build(4, [1, g3 * (1 + 1e-3), g4])
        ok &= not isomorphic(rotations[0], perturbed)
    elapsed = perf_counter() - start
    verdict(
        "criterion 3: dim-4 cube-root orbits, off-orbit perturbation split",
        ok and elapsed < 1.0,
        f"100 tuples, 3 rotations pairwise isomorphic, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def law_campaign():
    # 500 algebras, 2 <= n <= 8, tail moduli in [1e-2, 10], generators
    # x = c1*a with |c1| in [0.1, 10]: the scalar generators realizing every
    # leading coordinate.
    rng = np.random.default_rng(104)
    max_dev = 0.0
    lead_mismatches = 0
    start = perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, n + 1))
        tail = [0j] * (n - 1)
        for i in range(k, n + 1):
            if i == k or rng.random() > 0.3:
                tail[i - 2] = 10.0 ** rng.uniform(-2, 1) * phase(rng)
        A = build(n, tail)
        c1 = 10.0 ** rng.uniform(-1, 1) * phase(rng)
        lam = law_by_linear_solve(A, c1 * A.generator())
        if lam is None:
            lead_mismatches += 1
            continue
        expected = np.zeros(n, dtype=complex)
        expected[1:] = embed_law(generator_law(A, c1), n)
        max_dev = max(max_dev, float(np.max(np.abs(lam - expected))))
        if law_leading_index(lam, c1) != detect_type(A).k:
            lead_mismatches += 1
    elapsed = perf_counter() - start
    return SimpleNamespace(
        max_dev=max_dev, lead_mismatches=lead_mismatches, elapsed=elapsed
    )


def test_criterion_4_law_formula_vs_linear_solve(law_campaign):
    c = law_campaign
    verdict(
        "criterion 4: generator law formula agrees with linear solve",
        c.max_dev < 1e-7 and c.elapsed < 10.0,
        f"500 algebras, max componentwise deviation {c.max_dev:.2e}, "
        f"{c.elapsed:.2f}s",
    )


def test_criterion_5_type_index_uniqueness(law_campaign):
    c = law_campaign
    verdict(
        "criterion 5: solved law's leading index equals the detected type",
        c.lead_mismatches == 0,
        f"500 algebras, {c.lead_mismatches} exceptions",
    )


def test_criterion_6_search_oracle_equivalence():
    rng = np.random.default_rng(106)
    start = perf_counter()
    disagreements = 0
    constructed_missed = 0
    pairs = 0
    for n in range(2, 6):
        for trial in range(200):
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.05))
            if trial % 2 == 0:
                # deliberately isomorphic: random generator change plus an
                # explicit orbit rescaling
                label = detect_type(A)
                s = (0.5 * 4.0 ** rng.random()) * phase(rng)
                if not label.is_nilpotent:
                    group = roots_of_unity(n - label.k + 1)
                    s *= group[int(rng.integers(0, len(group)))]
                B = build(n, embed_law(generator_law(A, s), n))
                expected_iso = True
            else:
                B = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.05))
                expected_iso = None
            searched = iso_by_search(A, B)
            canonical = isomorphic(A, B)
            pairs += 1
            if searched != canonical:
                disagreements += 1
            if expected_iso and not (searched and canonical):
                constructed_missed += 1
    elapsed = perf_counter() - start
    verdict(
        "criterion 6: generator search agrees with canonical forms",
        disagreements == 0 and constructed_missed == 0 and elapsed < 30.0,
        f"{pairs} pairs over n=2..5, {disagreements} disagreements, "
        f"{constructed_missed} constructed pairs missed, {elapsed:.2f}s",
    )


def test_criterion_7_leibniz_and_cayley_hamilton():
    # moduli <= 2 keeps the absolute float error of the direct matrix
    # evaluation far below the 1e-8 bound out to n = 12
    rng = np.random.default_rng(107)
    start = perf_counter()
    leibniz_failures = 0
    max_cayley = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        tail = [rng.uniform(0, 2) * phase(rng) for _ in range(n - 1)]
        A = build(n, tail)
        if not A.verify_leibniz().passed:
            leibniz_failures += 1
        max_cayley = max(max_cayley, A.cayley_hamilton_residual())
    elapsed = perf_counter() - start
    verdict(
        "criterion 7: Leibniz identity and operator annihilation",
        leibniz_failures == 0 and max_cayley < 1e-8 and elapsed < 10.0,
        f"500 algebras n<=12, {leibniz_failures} identity failures, "
        f"max annihilation residual {max_cayley:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_canonicalization_properties():
    rng = np.random.default_rng(108)
    start = perf_counter()
    idempotence_failures = 0
    divisibility_failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
        form = normalize(A)
        again = normalize(form.as_algebra())
        if again.label != form.label or any(
            abs(a - b) > A.eps for a, b in zip(again.gamma, form.gamma)
        ):
            idempotence_failures += 1
        if not form.label.is_nilpotent:
            group_order = n - form.label.k + 1
            if group_order % len(orbit(form.gamma, A.eps)) != 0:
                divisibility_failures += 1
    # generic all-nonzero tuples: full orbits and no residual symmetry
    generic_failures = 0
    for d in range(1, 7):
        for _ in range(30):
            g = tuple(
                (0.5 * 4.0 ** rng.random()) * phase(rng) for _ in range(d)
            )
            members = orbit(g)
            stabilizer = sum(
                all(abs(a - b) <= 1e-9 for a, b in zip(rescale(g, w), g))
                for w in roots_of_unity(d + 1)
            )
            if len(members) != d + 1 or stabilizer != 1:
                generic_failures += 1
    elapsed = perf_counter() - start
    verdict(
        "criterion 8: normalization idempotent, orbit sizes as predicted",
        idempotence_failures == 0
        and divisibility_failures == 0
        and generic_failures == 0
        and elapsed < 10.0,
        f"500 idempotence checks ({idempotence_failures} failures), "
        f"orbit size divides group order ({divisibility_failures} failures), "
        f"generic tuples have full orbits ({generic_failures} failures), "
        f"{elapsed:.2f}s",
    )


def test_criterion_9_fuzz_determinism():
    start = perf_counter()
    args = ("fuzz", "--trials", "200", "--dim-max", "5", "--seed", "42")
    code_a, out_a = run_cli(*args)
    code_b, out_b = run_cli(*args)
    elapsed = perf_counter() - start
    verdict(
        "criterion 9: fixed-seed fuzz reports are byte-identical",
        code_a == 0 and code_b == 0 and out_a == out_b,
        f"two runs of 200 trials, identical={out_a == out_b}, "
        f"exit codes ({code_a}, {code_b}), {elapsed:.2f}s",
    )
