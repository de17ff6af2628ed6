import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclic_leibniz.algebra import NotAGeneratorError, build
from cyclic_leibniz.classification import embed_law, generator_law, isomorphic
from cyclic_leibniz.oracle import (
    explicit_iso_check,
    fuzz,
    iso_by_search,
    law_by_linear_solve,
    law_leading_index,
    near_boundary,
)
from helpers import random_typed_tail


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
            assert report.witness is not None

    def test_singular_basis_raises(self):
        A = build(3, [1, 1])
        with pytest.raises(NotAGeneratorError):
            explicit_iso_check(A, A, A.basis_element(2), A.generator())

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            explicit_iso_check(build(2, [1]), build(3, [1, 0]),
                               [1, 0], [1, 0, 0])


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
        assert a.summary() == b.summary()

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

    def test_summary_mentions_verdict(self):
        report = fuzz(10, dim_max=3, seed=1)
        assert "verdict:" in report.summary()
