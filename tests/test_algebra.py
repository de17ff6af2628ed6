import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cyclic_leibniz.algebra import CheckReport, build, leibniz_check
from cyclic_leibniz.scalars import DEFAULT_EPS
from helpers import (
    cayley_hamilton_reference, leibniz_check_of_table, multiplication_table, random_tail,
    random_typed_tail,
)


def einsum_residuals(table):
    """Reference: max_r |x(yz) - (xy)z - y(xz)| per basis triple, one einsum per product."""
    lhs = np.einsum("jkm,imr->ijkr", table, table)
    rhs = np.einsum("ijm,mkr->ijkr", table, table) + np.einsum(
        "ikm,jmr->ijkr", table, table
    )
    return np.max(np.abs(lhs - rhs), axis=3)


def einsum_leibniz_check(table, eps=DEFAULT_EPS):
    """Reference: the Leibniz check written as three einsums, one per product."""
    residuals = einsum_residuals(table)
    max_residual = float(np.max(residuals))
    if max_residual <= eps:
        return CheckReport(True, max_residual)
    i, j, k = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
    return CheckReport(False, max_residual, (int(i) + 1, int(j) + 1, int(k) + 1))


def full_kernel_check(S, TS, eps=DEFAULT_EPS):
    """Reference: the slice kernel with every (xy)z term formed as an einsum, none skipped."""
    S = list(S)
    n = TS.shape[-1]
    residuals = np.empty((len(S), n, n))
    for r, Ti in enumerate(TS):
        R = np.einsum("jm,mkr->jkr", Ti[:, S], TS)
        R[S] += Ti @ TS - TS @ Ti
        residuals[r] = np.max(np.abs(R), axis=2)
    report = CheckReport.of(residuals, eps)
    if report.where is None:
        return report
    r, j, k = report.where
    return CheckReport(False, report.residual, (S[r - 1] + 1, j, k))


class TestBuild:
    def test_nilpotent_two_dim(self):
        A = build(2, [0])
        assert A.n == 2 and A.tail == (0j,)

    def test_tail_encoding(self):
        A = build(3, [1, 2])
        product = A.multiply(A.basis_element(1), A.basis_element(3))
        assert_allclose(product, [0, 1, 2])

    def test_two_dim_scaled(self):
        A = build(2, [3.5])
        assert_allclose(A.multiply(A.generator(), A.basis_element(2)), [0, 3.5])

    def test_dimension_one_forces_zero_square(self):
        A = build(1, [])
        assert_array_equal(A.multiply([1], [1]), [0])

    def test_validation(self):
        with pytest.raises(ValueError):
            build(3, [1])
        with pytest.raises(ValueError):
            build(0, [])
        with pytest.raises(ValueError):
            build(2, [float("nan")])
        with pytest.raises(ValueError):
            build(2, [1], eps=0.0)

    @pytest.mark.parametrize("eps", [None, "1e-9", True, "x" * 500],
                             ids=["none", "string", "bool", "long-string"])
    def test_tolerance_must_be_a_number(self, eps):
        with pytest.raises(ValueError, match="^tolerance must be a number, got ") as caught:
            build(2, [1], eps=eps)
        assert len(str(caught.value).split("got ", 1)[1]) <= 40

    def test_out_of_float_range_is_value_error(self):
        # complex() and float() raise OverflowError on these integers
        with pytest.raises(ValueError):
            build(2, [10**400])
        with pytest.raises(ValueError):
            build(2, [1], eps=10**400)


class TestCompanion:
    def test_structure(self):
        L = build(3, [1, 2]).companion()
        assert_array_equal(L, [[0, 0, 0], [1, 0, 1], [0, 1, 2]])

    def test_built_once_and_read_only(self):
        A = build(3, [1, 2])
        L = A.companion()
        assert A.companion() is L
        with pytest.raises(ValueError):
            L[0, 0] = 1
        assert A == build(3, [1, 2])  # the cached matrix is not a field


class TestMultiply:
    def test_generator_shifts_basis(self):
        A = build(5, random_tail(np.random.default_rng(0), 5))
        for i in range(1, 5):
            assert_array_equal(
                A.multiply(A.generator(), A.basis_element(i)), A.basis_element(i + 1)
            )

    def test_higher_powers_left_annihilate(self):
        rng = np.random.default_rng(1)
        A = build(4, random_tail(rng, 4))
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        for j in range(2, 5):
            assert_array_equal(A.multiply(A.basis_element(j), y), np.zeros(4))

    def test_rescaled_generator_law(self):
        # in build(2, [alpha]) the generator x = a/alpha satisfies x(xx) = xx
        alpha = 2.5 - 1.25j
        A = build(2, [alpha])
        x = (1 / alpha) * A.generator()
        xx = A.multiply(x, x)
        assert_allclose(A.multiply(x, xx), xx, atol=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(2)
        A = build(6, random_tail(rng, 6))
        for _ in range(50):
            s, t = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            x, y, z = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3))
            left = A.multiply(s * x + t * y, z)
            assert_allclose(left, s * A.multiply(x, z) + t * A.multiply(y, z), atol=1e-9)
            right = A.multiply(z, s * x + t * y)
            assert_allclose(right, s * A.multiply(z, x) + t * A.multiply(z, y), atol=1e-9)

    def test_element_length_checked(self):
        A = build(3, [1, 2])
        with pytest.raises(ValueError):
            A.multiply([1, 0], [0, 1, 0])


class TestPowerBasis:
    def test_generator_reproduces_standard_basis(self):
        A = build(5, random_tail(np.random.default_rng(3), 5))
        powers = A.power_basis(A.generator())
        for i, p in enumerate(powers, start=1):
            assert_array_equal(p, A.basis_element(i))

    def test_square_collapses(self):
        A = build(4, [1, 2, 3])
        powers = A.power_basis(A.basis_element(2))
        assert_array_equal(powers[0], A.basis_element(2))
        for p in powers[1:]:
            assert_array_equal(p, np.zeros(4))

    def test_scalar_multiple(self):
        A = build(2, [0])
        powers = A.power_basis([2, 0])
        assert_allclose(powers[0], [2, 0])
        assert_allclose(powers[1], [0, 4])

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_equals_repeated_multiply_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        A = build(n, random_tail(rng, n))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = [x]
        for _ in range(n - 1):
            expected.append(A.multiply(x, expected[-1]))
        powers = A.power_basis(x)
        assert [p.tobytes() for p in powers] == [e.tobytes() for e in expected]

    def test_stack_is_rejected(self):
        A = build(3, [1, 2])
        for shape in ((2, 3), (1, 3), (2, 2, 3)):
            with pytest.raises(ValueError, match=rf"^element must have 3 coordinates, "
                                                 rf"got shape \({shape[0]}, "):
                A.power_basis(np.zeros(shape))


class TestVerifyLeibniz:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_built_algebras_pass(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            report = build(n, random_tail(rng, n)).verify_leibniz()
            assert report.passed
            assert report.where is None

    def test_injected_bad_table_fails(self):
        # n = 2 nilpotent table with the illegal product (a^2)a = a injected.
        # By hand: at (a, a, a), a(aa) = a*a^2 = 0 while (aa)a + a(aa) = a,
        # residual 1; at (a^2, a, a), 0 vs 2a^2, residual 2 (the worst case).
        A = build(2, [0])
        table = multiplication_table(A)
        table[1, 0] = A.generator()
        report = leibniz_check_of_table(table)
        assert not report.passed
        assert report.residual == pytest.approx(2.0)
        assert report.where == (2, 1, 1)
        lhs_aaa = table[0, 0] @ table[0]  # a(aa) via bilinear extension
        rhs_aaa = table[0, 0] @ table[:, 0] + table[0, 0] @ table[0]
        assert np.max(np.abs(lhs_aaa - rhs_aaa)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_einsum_reference_bitwise_on_companion_tables(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            tail = np.array(random_tail(rng, n), dtype=complex)
            tail[rng.random(n - 1) < 0.3] = 0
            table = multiplication_table(build(n, tail))
            assert leibniz_check_of_table(table) == einsum_leibniz_check(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_einsum_reference_bitwise_on_integer_tables(self, n):
        # small integer entries make every sum exact in any order, so the
        # failing triples and residuals must agree to the bit
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            table = rng.integers(-3, 4, size=(n, n, n)).astype(complex)
            assert leibniz_check_of_table(table) == einsum_leibniz_check(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_einsum_reference_on_dense_complex_tables(self, n):
        # the sums run in another order, so only agreement to rounding holds
        rng = np.random.default_rng(400 + n)
        for _ in range(5):
            table = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
            reference = einsum_residuals(table)
            report = leibniz_check_of_table(table)
            assert report.residual == pytest.approx(reference.max(), rel=0, abs=1e-12)
            if report.where is not None:
                i, j, k = report.where
                assert reference[i - 1, j - 1, k - 1] == pytest.approx(
                    reference.max(), rel=0, abs=1e-12
                )

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_einsum_reference_when_some_slices_vanish(self, n):
        # nonzero slices on a proper subset S, which the helper reads from the table
        rng = np.random.default_rng(500 + n)
        for _ in range(6):
            S = rng.permutation(n)[: int(rng.integers(1, n))]
            table = np.zeros((n, n, n), dtype=complex)
            table[S] = rng.normal(size=(len(S), n, n)) + 1j * rng.normal(size=(len(S), n, n))
            self.assert_matches_reference(table)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_worst_triple_where_only_xy_z_survives(self, n):
        # with i in S and j outside S, x(yz) and y(xz) vanish and the residual
        # is |(xy)z| alone; large T[i, j, m] (j outside S, m in S) make it the worst
        rng = np.random.default_rng(600 + n)
        for _ in range(6):
            S = np.sort(rng.permutation(n)[: int(rng.integers(1, n))])
            outside = np.setdiff1d(np.arange(n), S)
            table = np.zeros((n, n, n), dtype=complex)
            table[S] = rng.normal(size=(len(S), n, n)) + 1j * rng.normal(size=(len(S), n, n))
            table[np.ix_(S, outside, S)] *= 100
            report = self.assert_matches_reference(table)
            i, j, _ = report.where
            assert i - 1 in S and j - 1 not in S

    def test_all_zero_table_passes_exactly(self):
        report = leibniz_check_of_table(np.zeros((4, 4, 4), dtype=complex))
        assert report == CheckReport(True, 0.0)

    @staticmethod
    def assert_matches_reference(table):
        reference = einsum_leibniz_check(table)
        report = leibniz_check_of_table(table)
        assert (report.passed, report.where) == (reference.passed, reference.where)
        # the sums run in another order: agreement to rounding, relative to size
        assert report.residual == pytest.approx(reference.residual, rel=1e-12, abs=1e-12)
        return report

    def test_memory_is_cubic_in_dimension(self):
        # a companion table has one nonzero slice, and only it is passed: the
        # peak stays within two complex n^3 arrays, one (xy)z term and its moduli
        n = 40
        A = build(n, random_tail(np.random.default_rng(40), n))
        tracemalloc.start()
        try:
            assert A.verify_leibniz().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * n**3

    def test_memory_is_quadratic_in_dimension_on_companion_tables(self):
        # a companion slice has no nonzero (xy)z coefficient, so no n^3 term
        # is formed: the peak stays within 8 complex n^2 arrays, 5.1 MB here
        n = 200
        tail = random_tail(np.random.default_rng(200), n)
        tracemalloc.start()
        try:
            assert build(n, tail).verify_leibniz().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * n**2

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 40])
    def test_skipped_term_gives_the_full_kernel_report_on_companion_tables(self, n):
        # tails of entry scales 1e-150 to 1e150; repr equality also requires
        # the same residual bits and plain ints in where
        rng = np.random.default_rng(700 + n)
        for _ in range(5):
            tail = 10.0 ** rng.uniform(-150, 150, n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
            tail[rng.random(n - 1) < 0.3] = 0
            A = build(n, tail)
            TS = A.companion().T[None]
            expected = repr(full_kernel_check([0], TS))
            assert repr(A.verify_leibniz()) == expected
            assert repr(leibniz_check([0], TS)) == expected

    def test_overflowing_commutator_gives_the_full_kernel_report(self):
        A = build(3, [1e300, 1e300])
        TS = A.companion().T[None]
        with np.errstate(over="ignore", invalid="ignore"):
            report = A.verify_leibniz()
            assert repr(report) == repr(full_kernel_check([0], TS))
        assert repr(report) == repr(CheckReport(False, float("nan"), (1, 1, 3)))

    def test_non_finite_entry_takes_the_full_kernel(self):
        # slice 0's coefficients T[0, j, m], m in S, are all zero, but slice 1
        # holds an inf in row 4: 0 * inf is NaN, so slice 0's (xy)z term is
        # NaN at every (j, 4), and the report names (1, 1, 4), where the
        # commutator is finite; skipping the term would name j = 2
        rng = np.random.default_rng(800)
        TS = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        TS[0][:, [0, 1]] = 0
        TS[1, 3, 2] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            report = leibniz_check([0, 1], TS)
            assert repr(report) == repr(full_kernel_check([0, 1], TS))
        assert not report.passed and np.isnan(report.residual)
        assert report.where == (1, 1, 4)

    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_one_nonzero_coefficient_takes_the_full_kernel(self, n):
        rng = np.random.default_rng(900 + n)
        TS = build(n, random_tail(rng, n)).companion().T[None].copy()
        j = int(rng.integers(1, n))
        TS[0, j, 0] = 1e-3
        report = leibniz_check([0], TS)
        assert repr(report) == repr(full_kernel_check([0], TS))
        assert not report.passed

    def test_one_wrong_entry_fails_at_dimension_200(self):
        # with only a's slice nonzero the identity holds iff no product a * a^j
        # has an a-coordinate; one such entry, at j = 151, breaks it
        n = 200
        TS = build(n, [1] * (n - 1)).companion().T[None].copy()
        assert leibniz_check([0], TS) == CheckReport(True, 0.0)
        TS[0, 150, 0] = 1e-6
        report = leibniz_check([0], TS)
        assert not report.passed
        assert report.residual == pytest.approx(1e-6)
        assert report.where == (1, 151, 1)

    def test_table_shape_checked(self):
        with pytest.raises(ValueError):
            leibniz_check([0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            leibniz_check([0, 1], np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("S", [[2], [-1], [1, 0], [0, 0]])
    def test_slice_indices_checked(self, S):
        with pytest.raises(ValueError, match="^slice indices must increase within 0..1"):
            leibniz_check(S, np.zeros((len(S), 2, 2)))


class TestCayleyHamilton:
    def test_small_example(self):
        assert build(3, [1, 2]).cayley_hamilton_residual() < 1e-9

    def test_nilpotent_exact_zero(self):
        assert build(6, [0] * 5).cayley_hamilton_residual() == 0.0

    def test_dimension_eight_box(self):
        # direct matrix evaluation keeps the residual far below 1e-6
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert build(8, random_tail(rng, 8)).cayley_hamilton_residual() < 1e-6

    def test_matches_matrix_power_reference(self):
        # the running product and the separately taken powers round differently,
        # but both residuals are relative, so they differ by a few ulps of one
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            for tail in (random_tail(rng, n), random_typed_tail(rng, n)):
                A = build(n, tail)
                assert abs(A.cayley_hamilton_residual() - cayley_hamilton_reference(A)) \
                    <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_nilpotent_tails_exact_zero_like_reference(self, n):
        A = build(n, [0] * (n - 1))
        assert A.cayley_hamilton_residual() == cayley_hamilton_reference(A) == 0.0

    def test_generic_tail_of_dimension_200(self):
        # all ones: max|f(L_a)| is near 1e44, far below the size of L_a^n
        assert build(200, [1] * 199).cayley_hamilton_residual() < 1e-9


class TestCheckReport:
    def test_nan_residual_fails_at_the_first_nan(self):
        residuals = np.array([[1e-12, np.nan], [np.nan, 2e-12]])
        report = CheckReport.of(residuals, 1e-9)
        # repr, since a NaN residual equals nothing, itself included
        assert repr(report) == repr(CheckReport(False, np.nan, (1, 2)))

    def test_tie_names_the_first_index(self):
        residuals = np.array([0.0, 0.5, 0.5, 1e-3])
        assert CheckReport.of(residuals, 1e-9) == CheckReport(False, 0.5, (2,))

    def test_all_zeros_pass(self):
        assert CheckReport.of(np.zeros((3, 5)), 1e-9) == CheckReport(True, 0.0)

    def test_three_dimensional_residuals_give_a_triple(self):
        residuals = np.random.default_rng(4).random((4, 4, 4)) * 1e-10
        residuals[2, 0, 3] = 1e-6
        assert CheckReport.of(residuals, 1e-9) == CheckReport(False, 1e-6, (3, 1, 4))
