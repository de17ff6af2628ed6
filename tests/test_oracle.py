import ast
import inspect
import tracemalloc
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclic_leibniz import classification, oracle
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
from helpers import map_check_reference, random_typed_tail


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
            if oracle._power_basis(A, x, A.eps) is None or oracle._power_basis(B, y, B.eps) is None:
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
        # one stack of every candidate: the reports come in candidate order,
        # stop at the first pass, and each is that candidate's own report
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
            candidates = [(cA * omega) * A.generator() for omega in roots_of_unity(n - k + 1)]
            reports = oracle._map_checker(A, B, y)(np.array(candidates))
            alone = []
            for x in candidates:
                alone.append(explicit_iso_check(A, B, x, y))
                if alone[-1].passed:
                    break
            assert reports == alone
            stops.add((len(reports), reports[-1].passed))
        assert len(stops) > 1

    def test_stack_stops_at_its_first_pass_or_dependent_candidate(self):
        A = build(3, [1, 1])
        a, square = A.generator(), A.basis_element(2)  # a^2 generates nothing
        check = oracle._map_checker(A, A, a)
        assert [r.passed for r in check(np.array([-a, a, square]))] == [False, True]
        with pytest.raises(NotAGeneratorError, match="power basis of x "):
            check(np.array([-a, square, a]))

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


def test_map_checker_names_nothing_from_classification():
    # the decision functions delegate their arithmetic to these helpers
    for function in (oracle._map_checker, oracle._power_basis):
        assert not _names(function.__code__) & _classification_names(), function.__name__
