import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cyclic_leibniz.algebra import CheckReport, build, leibniz_check
from cyclic_leibniz.scalars import DEFAULT_EPS
from helpers import cayley_hamilton_reference, random_tail, random_typed_tail


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

    @pytest.mark.parametrize("n", [1, 3, 16, 40])
    def test_stack_equals_each_element_bitwise(self, n):
        rng = np.random.default_rng(200 + n)
        A = build(n, random_tail(rng, n))
        xs = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        stacked = A.power_basis(xs)
        assert stacked.shape == (5, n, n)
        assert [p.tobytes() for p in stacked] == [A.power_basis(x).tobytes() for x in xs]

    def test_stack_length_checked(self):
        A = build(3, [1, 2])
        with pytest.raises(ValueError, match="^elements must have 3 coordinates"):
            A.power_basis(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="^element must have 3 coordinates"):
            A.power_basis(np.zeros((2, 2, 3)))


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
        table = A.multiplication_table()
        table[1, 0] = A.generator()
        report = leibniz_check(table)
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
            table = build(n, tail).multiplication_table()
            assert leibniz_check(table) == einsum_leibniz_check(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_einsum_reference_bitwise_on_integer_tables(self, n):
        # small integer entries make every sum exact in any order, so the
        # failing triples and residuals must agree to the bit
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            table = rng.integers(-3, 4, size=(n, n, n)).astype(complex)
            assert leibniz_check(table) == einsum_leibniz_check(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_einsum_reference_on_dense_complex_tables(self, n):
        # the sums run in another order, so only agreement to rounding holds
        rng = np.random.default_rng(400 + n)
        for _ in range(5):
            table = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
            reference = einsum_residuals(table)
            report = leibniz_check(table)
            assert report.residual == pytest.approx(reference.max(), rel=0, abs=1e-12)
            if report.where is not None:
                i, j, k = report.where
                assert reference[i - 1, j - 1, k - 1] == pytest.approx(
                    reference.max(), rel=0, abs=1e-12
                )

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_einsum_reference_when_some_slices_vanish(self, n):
        # nonzero slices on a proper subset S: the kernel reads S from the table
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
        report = leibniz_check(np.zeros((4, 4, 4), dtype=complex))
        assert report == CheckReport(True, 0.0)

    @staticmethod
    def assert_matches_reference(table):
        reference = einsum_leibniz_check(table)
        report = leibniz_check(table)
        assert (report.passed, report.where) == (reference.passed, reference.where)
        # the sums run in another order: agreement to rounding, relative to size
        assert report.residual == pytest.approx(reference.residual, rel=1e-12, abs=1e-12)
        return report

    def test_memory_is_cubic_in_dimension(self):
        # a companion table has one nonzero slice, so no (n, n, n, n) array is
        # needed: the peak stays within eight complex n^3 arrays
        n = 40
        A = build(n, random_tail(np.random.default_rng(40), n))
        tracemalloc.start()
        try:
            assert A.verify_leibniz().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * n**3

    def test_table_shape_checked(self):
        with pytest.raises(ValueError):
            leibniz_check(np.zeros((2, 2)))


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
    @pytest.mark.parametrize("shape", [(1,), (1, 5), (4, 4, 4)])
    def test_each_equals_report_of_each_row(self, shape):
        rng = np.random.default_rng(len(shape))
        scales = 10.0 ** rng.integers(-12, 1, size=(6,) + (1,) * len(shape))
        residuals = rng.random((6,) + shape) * scales
        residuals[1] = 0.0
        residuals[2].flat[-1] = np.nan
        residuals[3].flat[:2] = residuals[3].max()  # a tie: the first index wins
        reports = CheckReport.each(residuals, 1e-9)
        # repr, since a NaN residual equals nothing, itself included
        assert [repr(r) for r in reports] == [repr(CheckReport.of(r, 1e-9)) for r in residuals]
        assert {r.passed for r in reports} == {True, False}
        assert CheckReport.each(residuals[1:2], 1e-9) == [CheckReport(True, 0.0)]
