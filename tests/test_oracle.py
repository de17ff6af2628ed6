import ast
import inspect
import re
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclic_leibniz import classification, oracle, scalars
from cyclic_leibniz.algebra import NotAGeneratorError, build
from cyclic_leibniz.classification import embed_law, generator_law, isomorphic
from cyclic_leibniz.cli import main
from cyclic_leibniz.oracle import (
    explicit_iso_check,
    fuzz,
    iso_by_search,
    law_by_linear_solve,
    law_leading_index,
    near_boundary,
)
from cyclic_leibniz.scalars import inverse_root, roots_of_unity
from helpers import (
    exact_isomorphic, gaussian_power, gaussian_product, map_check_reference, random_typed_tail,
)


class TestLawByLinearSolve:
    def test_distinguished_generator_recovers_tail(self):
        A = build(4, [1, 0.5j, -2])
        lam = law_by_linear_solve(A, A.generator())
        assert_allclose(lam, [0, 1, 0.5j, -2], atol=1e-12)

    def test_two_dim_rescaled_generator(self):
        alpha = 3.0 - 1.0j
        A = build(2, [alpha])
        lam = law_by_linear_solve(A, (1 / alpha) * A.generator())
        assert_allclose(lam, [0, 1], atol=1e-12)

    def test_agrees_with_law_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
            c1 = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random())
            x = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            x[0] = c1
            lam = law_by_linear_solve(A, x)
            assert lam is not None
            expected = np.zeros(n, dtype=complex)
            expected[1:] = embed_law(generator_law(A, c1), n)
            assert np.max(np.abs(lam - expected)) < 1e-7

    def test_non_generators_rejected(self):
        A = build(4, [1, 2, 3])
        assert law_by_linear_solve(A, A.basis_element(2)) is None
        x = np.array([0, 1, 1, 1], dtype=complex)
        assert law_by_linear_solve(A, x) is None

    @pytest.mark.parametrize("count", [1, 2])
    def test_stack_of_elements_is_rejected(self, count):
        A = build(3, [1, 1])
        with pytest.raises(ValueError, match=rf"^element must have 3 coordinates, "
                                             rf"got shape \({count}, 3\)$"):
            law_by_linear_solve(A, np.array([A.generator()] * count))

    def test_zero_square_is_not_a_generator(self):
        # x = a - a^2 lies outside A.A = span(a^2), yet x.x = 0 exactly: the
        # zero column must be called dependent, not divided by its norm
        assert law_by_linear_solve(build(2, [1]), [1, -1]) is None

    def test_detection_matches_leading_coordinate(self):
        # |c1| <= eps fails, |c1| well above the boundary band succeeds
        rng = np.random.default_rng(3)
        A = build(5, random_typed_tail(rng, 5))
        for _ in range(50):
            rest = rng.normal(size=5) + 1j * rng.normal(size=5)
            small = rest.copy()
            small[0] = 1e-10 * np.exp(2j * np.pi * rng.random())
            assert law_by_linear_solve(A, small) is None
            big = rest.copy()
            big[0] = (0.1 * 100 ** rng.random()) * np.exp(2j * np.pi * rng.random())
            assert law_by_linear_solve(A, big) is not None


class TestLawLeadingIndex:
    def test_reads_first_genuine_coefficient(self):
        lam = np.array([1e-14, 0, 2.0, 0.5])
        assert law_leading_index(lam, 1.0) == 3

    def test_all_noise_is_none(self):
        assert law_leading_index(np.full(4, 1e-12), 1.0) is None

    def test_scale_awareness(self):
        # a tiny-but-genuine leading entry from |c1| < 1 must still be seen
        c1 = 0.1
        n = 8
        lam = np.zeros(n)
        lam[1] = 1e-2 * c1 ** (n - 2 + 1)  # alpha_2 = 1e-2 under c1 weighting
        assert law_leading_index(lam, c1) == 2


class TestExplicitIsoCheck:
    def test_identity_map_is_exact(self):
        A = build(4, [2, 0, 1])
        report = explicit_iso_check(A, A, A.generator(), A.generator())
        assert report.passed
        assert report.residual == 0.0

    def test_sign_flip_witness(self):
        # y = -b realizes the +/- equivalence of (1, 1) and (1, -1)
        A = build(3, [1, 1])
        B = build(3, [1, -1])
        report = explicit_iso_check(A, B, A.generator(), -B.generator())
        assert report.passed

    def test_inequivalent_tuples_fail(self):
        A = build(3, [1, 1])
        B = build(3, [1, 2])
        for sign in [1, -1]:
            report = explicit_iso_check(A, B, A.generator(), sign * B.generator())
            assert not report.passed
            assert report.where is not None

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_stack_of_elements_is_rejected(self, side, count):
        # a pair check takes one x and one y; a stack is no element
        A = build(3, [1, 1])
        a, stack = A.generator(), np.array([A.generator()] * count)
        x, y = (stack, a) if side == "x" else (a, stack)
        with pytest.raises(ValueError, match=rf"^element must have 3 coordinates, "
                                             rf"got shape \({count}, 3\)$"):
            explicit_iso_check(A, A, x, y)

    def test_singular_basis_raises(self):
        A = build(3, [1, 1])
        with pytest.raises(NotAGeneratorError):
            explicit_iso_check(A, A, A.basis_element(2), A.generator())

    def test_zero_square_raises(self):
        A = build(2, [1])
        with pytest.raises(NotAGeneratorError):
            explicit_iso_check(A, A, [1, -1], [1, 0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            explicit_iso_check(build(2, [1]), build(3, [1, 0]),
                               [1, 0], [1, 0, 0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_matches_product_by_product_reference(self, n):
        rng = np.random.default_rng(900 + n)
        verdicts = set()
        for trial in range(20):
            A = build(n, random_typed_tail(rng, n))
            c1 = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random())
            x = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            x[0] = c1
            if trial % 2 == 0:  # A's law at x: x^k -> b^k is an isomorphism
                B = build(n, embed_law(generator_law(A, c1), n))
            else:  # a same-type tail drawn on its own
                k = next(i for i, t in enumerate(A.tail, start=2) if t != 0)
                tail = random_typed_tail(rng, n)
                tail[: k - 2] = [0] * (k - 2)
                tail[k - 2] = tail[k - 2] or 1.5
                B = build(n, tail)
            report = explicit_iso_check(A, B, x, B.generator())
            expected = map_check_reference(A, B, x, B.generator())
            assert (report.passed, report.where) == (expected.passed, expected.where)
            assert np.isclose(report.residual, expected.residual, rtol=1e-12, atol=1e-12)
            verdicts.add(report.passed)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(("n", "trials"), [(2, 40), (3, 40), (5, 40), (8, 40),
                                               (16, 40), (48, 40), (200, 4)])
    def test_basis_map_fixes_first_row_exactly(self, n, trials):
        # the one-row map check rests on this: x^k and y^k, k >= 2, have first
        # coordinate exactly 0, so the solve gives F[0, 1:] == 0 bit for bit
        rng = np.random.default_rng(1700 + n)
        solved = 0
        for trial in range(trials):
            A = build(n, random_typed_tail(rng, n))
            B = build(n, random_typed_tail(rng, n))
            if trial % 2:  # dense x, scaled by 1e-3 to 1e3
                x = 10 ** rng.uniform(-3, 3) * (rng.normal(size=n) + 1j * rng.normal(size=n))
            else:
                x = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random()) * A.generator()
            if trial % 4 >= 2:
                y = rng.normal(size=n) + 1j * rng.normal(size=n)
            else:
                y = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random()) * B.generator()
            if not (oracle._power_basis(A, x, A.eps)[1] and oracle._power_basis(B, y, B.eps)[1]):
                continue
            F = np.linalg.solve(A.power_basis(x), B.power_basis(y)).T
            assert np.all(F[0, 1:] == 0), trial
            solved += 1
        assert solved

    def test_memory_is_quadratic_in_dimension(self):
        # the check holds n-by-n matrices only; an n^3 complex tensor of
        # f(a^i) f(a^j) would peak near 52 MB at n = 128
        n = 128
        A = build(n, [1] * (n - 1))
        a = A.generator()
        explicit_iso_check(A, A, a, a)  # first call pays for lazy imports
        tracemalloc.start()
        try:
            assert explicit_iso_check(A, A, a, a).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 16 * n * n


class TestIsoBySearch:
    def test_self_isomorphism(self):
        A = build(4, [0, 2, 1])
        assert iso_by_search(A, A)

    def test_normalize_example_confirmed(self):
        assert iso_by_search(build(3, [4, 2]), build(3, [1, -1]))

    def test_nilpotent_vs_non_nilpotent(self):
        assert not iso_by_search(build(3, [0, 0]), build(3, [0, 1]))
        assert not iso_by_search(build(3, [0, 1]), build(3, [0, 0]))

    def test_nilpotent_pair(self):
        assert iso_by_search(build(4, [0, 0, 0]), build(4, [0, 0, 0]))

    def test_dimension_mismatch_is_false(self):
        assert not iso_by_search(build(2, [1]), build(3, [1, 0]))

    def test_different_leading_index_is_false_at_large_scale(self):
        # type 12 against type 11: the power bases are badly conditioned at
        # this scale, so a map check alone can pass
        A = build(12, [0] * 10 + [0.042758573916107115 + 0.1484776781705134j])
        B = build(12, [0] * 9 + [0.29175604000885863 + 2.434518873682391j,
                                 -0.026769032612109365 - 0.12068656863673177j])
        assert not iso_by_search(A, B)
        assert not iso_by_search(B, A)

    @pytest.mark.parametrize(("n", "low"), [(16, 0.1), (24, 0.1), (32, 0.1), (24, 0.5), (32, 0.5)])
    def test_same_type_pair_with_small_tail_products_is_false(self, n, low):
        # type n-1 with orbit order 2: reduced entries +-1/sqrt(low) against
        # +-1/sqrt(3), so not isomorphic.  The map's scale r = cB/s is below one, so the
        # pair (a, a^n) has products near |r|^n, and each pair must be judged
        # against its own products, not against the largest of all pairs
        A = build(n, [0] * (n - 3) + [low, 1])
        B = build(n, [0] * (n - 3) + [3, 1])
        assert not isomorphic(A, B)
        assert not iso_by_search(A, B)
        assert not iso_by_search(B, A)

    @pytest.mark.parametrize(("tail_a", "tail_b"), [
        ((1e100, 0, 1e300, 0), (1, 1e300, 0, 0)),
        ((1e100, 1e-154, 0), (1, 1e154, 0)),
    ])
    def test_overflowing_products_fail_without_warnings(self, tail_a, tail_b):
        # the compared products overflow; the residual is not finite, so the
        # candidate fails, and numpy's warnings (errors here) stay silent
        A = build(len(tail_a) + 1, tail_a)
        B = build(len(tail_b) + 1, tail_b)
        assert not isomorphic(A, B)
        assert not iso_by_search(A, B)
        assert not iso_by_search(B, A)

    def test_map_check_alone_rejects_different_type_pairs(self):
        # the leading-index shortcut bypassed: A's candidates, scaled by A's
        # leading tail entry, against B's generator scaled by B's
        def passes(A, B):
            kA, kB = oracle._leading_tail_index(A), oracle._leading_tail_index(B)
            cA = inverse_root(A.tail[kA - 2], A.n - kA + 1)
            y = inverse_root(B.tail[kB - 2], B.n - kB + 1) * B.generator()
            check = oracle._map_checker(A, B, cA * A.generator(), y)
            return check(roots_of_unity(A.n - kA + 1)).passed

        rng = np.random.default_rng(1900)
        pairs = [(build(12, [0] * 10 + [0.042758573916107115 + 0.1484776781705134j]),
                  build(12, [0] * 9 + [0.29175604000885863 + 2.434518873682391j,
                                       -0.026769032612109365 - 0.12068656863673177j]))]
        for n in (8, 12, 16, 24):
            drawn = 0
            while drawn < 150:
                A, B = build(n, random_typed_tail(rng, n)), build(n, random_typed_tail(rng, n))
                if oracle._leading_tail_index(A) != oracle._leading_tail_index(B):
                    pairs.append((A, B))
                    drawn += 1
        for A, B in pairs:
            assert not passes(A, B)
            assert not passes(B, A)

    def test_large_scale_generator_is_accepted(self):
        # the candidate c*a with c = 5e8 has power basis diag(c, ..., c^16):
        # independent, though its raw singular values span 130 decades
        A = build(16, [0] * 14 + [2e-9])
        assert iso_by_search(A, A)

    @pytest.mark.parametrize("n", [12, 16])
    def test_different_type_pairs_are_false_without_raising(self, n):
        rng = np.random.default_rng(n)
        pairs = 0
        while pairs < 100:
            tail_a = random_typed_tail(rng, n, nilpotent_fraction=0.1)
            tail_b = random_typed_tail(rng, n, nilpotent_fraction=0.1)
            lead_a = next((i for i, t in enumerate(tail_a) if t != 0), None)
            lead_b = next((i for i, t in enumerate(tail_b) if t != 0), None)
            if lead_a == lead_b:
                continue
            pairs += 1
            assert not iso_by_search(build(n, tail_a), build(n, tail_b))

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16, 24, 32])
    def test_equals_explicit_checks_of_every_candidate(self, n):
        # the search builds y's side once; each verdict must still be the
        # map check of each candidate x_omega against y, one call at a time
        rng = np.random.default_rng(700 + n)
        for trial in range(20):
            A = build(n, random_typed_tail(rng, n))
            k = next(i for i, t in enumerate(A.tail, start=2) if t != 0)
            if trial % 2 == 0:
                s = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random())
                B = build(n, embed_law(generator_law(A, s), n))
            else:
                tail = random_typed_tail(rng, n)
                tail[: k - 2] = [0] * (k - 2)
                tail[k - 2] = tail[k - 2] or 1.5
                B = build(n, tail)
            cA = inverse_root(A.tail[k - 2], n - k + 1)
            y = inverse_root(B.tail[k - 2], n - k + 1) * B.generator()
            expected = any(explicit_iso_check(A, B, (cA * omega) * A.generator(), y).passed
                           for omega in roots_of_unity(n - k + 1))
            assert iso_by_search(A, B) == expected

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16, 24, 32])
    def test_stacked_reports_equal_each_candidate_alone(self, n):
        # the check derives every candidate's map from cA * a by bilinearity;
        # its report on each scale omega alone must be the product-by-product
        # reference's on the candidate (cA * omega) * a itself, and on a stack
        # of every scale, that of its first passing candidate, else its last
        def assert_matches(report, expected):
            assert (report.passed, report.where) == (expected.passed, expected.where)
            assert np.isclose(report.residual, expected.residual, rtol=1e-12, atol=1e-12)

        rng = np.random.default_rng(800 + n)
        stops = set()
        for trial in range(12):
            A = build(n, random_typed_tail(rng, n))
            k = next(i for i, t in enumerate(A.tail, start=2) if t != 0)
            if trial % 2 == 0:
                s = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random())
                B = build(n, embed_law(generator_law(A, s), n))
            else:
                tail = random_typed_tail(rng, n)
                tail[: k - 2] = [0] * (k - 2)
                tail[k - 2] = tail[k - 2] or 1.5
                B = build(n, tail)
            cA = inverse_root(A.tail[k - 2], n - k + 1)
            y = inverse_root(B.tail[k - 2], n - k + 1) * B.generator()
            check = oracle._map_checker(A, B, cA * A.generator(), y)
            omegas = roots_of_unity(n - k + 1)
            alone = [map_check_reference(A, B, (cA * omega) * A.generator(), y)
                     for omega in omegas]
            for omega, expected in zip(omegas, alone):
                assert_matches(check([omega]), expected)
            stop = next((report for report in alone if report.passed), alone[-1])
            assert_matches(check(omegas), stop)
            stops.add(stop.passed)
        assert stops == {True, False}

    def test_stack_stops_at_its_first_pass_or_dependent_candidate(self):
        A = build(3, [1, 1])
        a, square = A.generator(), A.basis_element(2)  # a^2 generates nothing
        check = oracle._map_checker(A, A, a, a)
        assert check([-1, 1, 1j]) == check([1]) == explicit_iso_check(A, A, a, a)
        for y in (a, square):
            with pytest.raises(NotAGeneratorError, match="power basis of x "):
                oracle._map_checker(A, A, square, y)([1])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_generator_test_runs_once_per_side(self, n, monkeypatch):
        # the pair is not isomorphic, so every candidate is checked; they are
        # unit multiples of one element, so one generator test per side serves
        calls = []
        power_basis = oracle._power_basis

        def counted(*args):
            calls.append(args)
            return power_basis(*args)

        monkeypatch.setattr(oracle, "_power_basis", counted)
        assert not iso_by_search(build(n, [1] * (n - 1)), build(n, [1] + [2] * (n - 2)))
        assert len(calls) == 2

    def test_search_memory_is_quadratic_in_dimension(self):
        # A and B are not isomorphic, so the search tries all 127 candidates;
        # one stack of them all would take about 32 MB per stacked array
        n = 128
        A = build(n, [1] * (n - 1))
        B = build(n, [1] + [2] * (n - 2))
        iso_by_search(A, A)  # first call pays for lazy imports
        tracemalloc.start()
        try:
            assert not iso_by_search(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 16 * n * n

    def test_dependent_x_is_named_before_dependent_y(self):
        # the candidate c*a with c = 1e-300 has c^2 = 0: a dependent power basis
        tiny = build(3, [0, 1e300])
        fine = build(3, [0, 1])
        for A, B, name in ((tiny, fine, "x"), (tiny, tiny, "x"), (fine, tiny, "y")):
            with pytest.raises(NotAGeneratorError, match=f"power basis of {name} "):
                iso_by_search(A, B)
        a, square = fine.generator(), fine.basis_element(2)  # a^2 generates nothing
        for x, y, name in ((square, a, "x"), (square, square, "x"), (a, square, "y")):
            with pytest.raises(NotAGeneratorError, match=f"power basis of {name} "):
                explicit_iso_check(fine, fine, x, y)

    def test_agrees_with_canonical_route(self):
        rng = np.random.default_rng(5)
        for trial in range(150):
            n = int(rng.integers(2, 6))
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
            if trial % 2 == 0:
                s = (0.5 * 4 ** rng.random()) * np.exp(2j * np.pi * rng.random())
                B = build(n, embed_law(generator_law(A, s), n))
            else:
                B = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
            assert iso_by_search(A, B) == isomorphic(A, B)


ZERO = (Fraction(0), Fraction(0))
# generator scales c of the exact rebuilds: +-1, +-i, 1 + i, 1/2 - i, 2 and 1/2
EXACT_SCALES = [(Fraction(re), Fraction(im)) for re, im in
                [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (Fraction(1, 2), -1), (2, 0),
                 (Fraction(1, 2), 0)]]


def exact_tail(rng, n, pattern=None):
    """Gaussian-rational tail with entries p/q + i r/s, |p|, |r| <= 3, 1 <= q, s <= 3.

    ``pattern`` says which entries are nonzero; by default it is drawn: a
    tenth of the tails are nilpotent, the rest have a random leading index
    and each later entry is nonzero with probability 0.7.
    """
    if pattern is None:
        k = n + 1 if rng.random() < 0.1 else int(rng.integers(2, n + 1))
        pattern = [j == k or (j > k and rng.random() > 0.3) for j in range(2, n + 1)]
    tail = []
    for nonzero in pattern:
        entry = ZERO
        while nonzero and entry == ZERO:
            p, r = rng.integers(-3, 4, size=2).tolist()
            q, s = rng.integers(1, 4, size=2).tolist()
            entry = (Fraction(p, q), Fraction(r, s))
        tail.append(entry)
    return tail


class TestExactGroundTruth:
    @pytest.mark.parametrize("seed", range(3))
    def test_verdicts_equal_the_exact_answer(self, seed):
        # partners: A rebuilt through an exact generator scale, an independent
        # draw with A's zero pattern, and a draw with another zero pattern
        rng = np.random.default_rng(2300 + seed)
        answers = set()
        for trial in range(1500):
            n = int(rng.integers(2, 9))
            tail_a = exact_tail(rng, n)
            pattern = [t != ZERO for t in tail_a]
            kind = trial % 3
            if kind == 0:
                c = EXACT_SCALES[int(rng.integers(len(EXACT_SCALES)))]
                tail_b = [gaussian_product(gaussian_power(c, n + 1 - j), alpha)
                          for j, alpha in enumerate(tail_a, start=2)]
            elif kind == 1:
                tail_b = exact_tail(rng, n, pattern)
            else:
                tail_b = tail_a
                while [t != ZERO for t in tail_b] == pattern:
                    tail_b = exact_tail(rng, n)
            exact = exact_isomorphic(tail_a, tail_b)
            A = build(n, [complex(re, im) for re, im in tail_a])
            B = build(n, [complex(re, im) for re, im in tail_b])
            assert (isomorphic(A, B), iso_by_search(A, B)) == (exact, exact), (tail_a, tail_b)
            answers.add((kind, exact))
        assert answers == {(0, True), (1, True), (1, False), (2, False)}


class TestNearBoundary:
    def test_policy(self):
        assert near_boundary([0.5e-9], 1e-9)
        assert near_boundary([1.0, 5e-9, 0], 1e-9)
        assert not near_boundary([0, 0], 1e-9)
        assert not near_boundary([0.5, 2], 1e-9)
        assert not near_boundary([1.1e-8], 1e-9)  # just outside 10*eps


class TestFuzz:
    def test_campaign_is_clean(self):
        report = fuzz(200, dim_max=5, seed=42)
        assert report.passed
        assert report.failures == ()
        assert report.executed + report.skipped_near_boundary == 200
        assert report.max_law_deviation < 1e-7

    @pytest.mark.parametrize("seed", range(20))
    def test_clean_to_dimension_16(self, seed):
        # the rank test is scale-free and the law and Cayley-Hamilton checks
        # are relative, so large generator scales at n <= 16 are no failure
        report = fuzz(100, dim_max=16, seed=seed)
        assert report.failures == ()
        assert report.passed

    def test_defect_in_the_classification_roots_shows_as_disagreement(self, monkeypatch):
        # the search derives its own roots of unity, so dropping the last root
        # of every order m >= 4 from the scalars module misleads only the
        # canonical route, and the campaign must see the two routes disagree
        roots = scalars._roots_of_unity
        monkeypatch.setattr(scalars, "_roots_of_unity",
                            lambda m: roots(m)[:-1] if m >= 4 else roots(m))
        report = fuzz(100, dim_max=16, seed=0)
        assert not report.passed
        assert any(re.search(r"iso_by_search=\w+ but canonical comparison", failure)
                   for failure in report.failures)

    def test_oracle_exception_is_a_recorded_failure(self):
        # at dim_max 16 the oracle's rank test rejects some genuine generators
        # and iso_by_search raises; the campaign records that, never raises
        report = fuzz(50, dim_max=16, seed=0)
        assert report.executed + report.skipped_near_boundary == 50
        assert all(f.startswith("trial ") for f in report.failures)

    def test_agreement_counts_exclude_failed_checks(self, monkeypatch):
        import cyclic_leibniz.oracle as oracle

        monkeypatch.setattr(oracle, "iso_by_search", lambda A, B: not isomorphic(A, B))
        monkeypatch.setattr(oracle, "law_by_linear_solve", lambda A, x: None)
        report = fuzz(20, dim_max=4, seed=3)
        assert report.executed > 0
        assert (report.law_checks, report.iso_checks) == (0, 0)

    def test_zero_trials_vacuous(self):
        report = fuzz(0)
        assert report.passed
        assert report.executed == 0

    def test_deterministic(self):
        a = fuzz(80, dim_max=4, seed=11)
        b = fuzz(80, dim_max=4, seed=11)
        assert a == b

    def test_near_boundary_draws_are_skipped_and_counted(self):
        # seed chosen so the adversarial injection fires at least once
        report = fuzz(100, dim_max=4, seed=7)
        assert report.skipped_near_boundary >= 1
        assert report.executed == 100 - report.skipped_near_boundary
        assert report.passed

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fuzz(-1)
        with pytest.raises(ValueError):
            fuzz(10, dim_max=1)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            fuzz(10, seed=-1)

    @pytest.mark.parametrize(("args", "kwargs", "message"), [
        ((3,), {"eps": "1e-9"}, "tolerance must be a number, got '1e-9'"),
        ((3, 5, "0"), {}, "seed must be an integer, got '0'"),
        ((2.5,), {}, "trials must be an integer, got 2.5"),
        ((3, 5, 1.5), {}, "seed must be an integer, got 1.5"),
        ((3, 5.5), {}, "dim_max must be an integer, got 5.5"),
        ((True, 5), {}, "trials must be an integer, got True"),
        ((3, np.bool_(True)), {}, "dim_max must be an integer, got "),
    ])
    def test_argument_types_name_the_field(self, args, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            fuzz(*args, **kwargs)

    def test_numpy_integers_are_integers(self):
        assert fuzz(np.int64(6), np.int32(4), np.int64(3)) == fuzz(6, 4, 3)

    def test_dim_max_beyond_int64_names_the_field(self):
        with pytest.raises(ValueError, match="^dim_max must be at most 2\\*\\*63 - 1, got "):
            fuzz(10, dim_max=2**63)

    def test_tolerance_at_smallest_generator_scale_names_the_field(self):
        # the campaign's generator scales have modulus >= 0.5, and
        # generator_law rejects one within eps of zero
        with pytest.raises(ValueError, match="^tolerance must be below 0.5, .* got 0.5$"):
            fuzz(10, eps=0.5)
        assert fuzz(0, eps=0.5).passed
        assert fuzz(10, dim_max=3, eps=0.3).executed

    def test_summary_mentions_verdict(self, capsys):
        assert main(["fuzz", "--trials", "10", "--dim-max", "3", "--seed", "1"]) == 0
        assert "verdict:               pass" in capsys.readouterr().out

    def test_large_trial_count_starts_at_once(self, monkeypatch):
        # each trial's stream is made when the trial starts: making a million
        # streams up front peaks near 370 MB before trial 0; a first call in
        # the process also pays about 1 MB of lazy imports
        class Reached(Exception):
            pass

        def build_reached(*args):
            raise Reached

        monkeypatch.setattr(oracle, "build", build_reached)
        tracemalloc.start()
        try:
            with pytest.raises(Reached):
                fuzz(10**6, dim_max=4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


def _names(code: types.CodeType) -> set[str]:
    """The global and attribute names a code object and its nested ones use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def _classification_names() -> set[str]:
    """The module-level functions, classes and constants classification defines."""
    defined = {"classification"}
    for node in ast.parse(inspect.getsource(classification)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    return defined


class TestOracleIndependence:
    def test_decision_functions_name_nothing_from_classification(self):
        # the oracle re-derives every verdict; only fuzz, which compares the
        # two routes, may use what the classification module defines
        defined = _classification_names()
        assert {"reduce", "generator_law", "detect_type", "NILPOTENT"} <= defined
        functions = {
            name: function for name, function in inspect.getmembers(oracle, inspect.isfunction)
            if function.__module__ == oracle.__name__ and name != "fuzz"
        }
        assert {"law_by_linear_solve", "_power_basis", "explicit_iso_check",
                "_map_checker", "iso_by_search"} <= functions.keys()
        for name, function in functions.items():
            assert not _names(function.__code__) & defined, name

    def test_decision_functions_name_no_scalars_function_but_the_tolerance_rule(self):
        # a scalars function both routes called could be wrong in both alike;
        # only fuzz, which words its report with the formatters, may use more
        defined = {"scalars"} | {
            node.name for node in ast.parse(inspect.getsource(scalars)).body
            if isinstance(node, ast.FunctionDef)
        }
        assert {"roots_of_unity", "_roots_of_unity", "inverse_root"} <= defined
        shared = defined - {"checked_tolerance"}
        for name, function in inspect.getmembers(oracle, inspect.isfunction):
            if function.__module__ == oracle.__name__ and name != "fuzz":
                assert not _names(function.__code__) & shared, name


def test_map_checker_names_nothing_from_classification():
    # the decision functions delegate their arithmetic to these helpers
    for function in (oracle._map_checker, oracle._power_basis):
        assert not _names(function.__code__) & _classification_names(), function.__name__
