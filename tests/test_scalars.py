import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from cyclic_leibniz.scalars import (
    approx_eq,
    canonical_key,
    checked_tolerance,
    format_complex,
    inverse_root,
    parse_complex,
    roots_of_unity,
    snap,
)


class TestCheckedTolerance:
    def test_positive_finite_is_returned_as_float(self):
        assert checked_tolerance(1e-9) == 1e-9
        assert type(checked_tolerance(1)) is float

    @pytest.mark.parametrize("eps", [0, -1e-9, math.inf, math.nan, 10**400])
    def test_rejected_with_value_error(self, eps):
        with pytest.raises(ValueError):
            checked_tolerance(eps)

    @pytest.mark.parametrize(
        "eps", [np.float32(1e-6), np.float64(1e-9), np.int64(2), Fraction(1, 10**9)],
        ids=["float32", "float64", "int64", "fraction"],
    )
    def test_real_numbers_accepted(self, eps):
        # float32 once met sys.float_info.max in float32 and overflowed with a warning
        assert checked_tolerance(eps) == float(eps)

    @pytest.mark.parametrize(
        "eps", [True, False, None, "1", "1e-9", 1j, [1e-9], {"eps": 1e-9}, "x" * 500],
        ids=["true", "false", "none", "str-int", "str-float", "complex", "list", "dict",
             "long-str"],
    )
    def test_non_numbers_rejected(self, eps):
        prefix = "tolerance must be a number, got "
        with pytest.raises(ValueError, match="^" + prefix) as caught:
            checked_tolerance(eps)
        assert len(str(caught.value)) <= len(prefix) + 40

    def test_huge_value_echo_is_clipped(self):
        with pytest.raises(ValueError, match=r"^tolerance must be positive") as caught:
            checked_tolerance(-(10**400))
        assert len(str(caught.value)) <= 100


class TestApproxEq:
    def test_identity(self):
        assert approx_eq(0, 0, 1e-9)

    def test_below_threshold(self):
        assert approx_eq(1, 1 + 1e-12j, 1e-9)

    def test_distance_two(self):
        assert not approx_eq(1, -1, 1e-9)

    def test_reflexive_and_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = complex(rng.normal(), rng.normal())
            y = x + complex(rng.normal(), rng.normal()) * 1e-10
            assert approx_eq(x, x)
            assert approx_eq(x, y) == approx_eq(y, x)

    def test_not_transitive(self):
        # documented: chains of near-equal values drift
        eps = 1e-9
        assert approx_eq(0, eps, eps)
        assert approx_eq(eps, 2 * eps, eps)
        assert not approx_eq(0, 2 * eps, eps)


class TestRootsOfUnity:
    def test_first_orders(self):
        assert roots_of_unity(1) == [1]
        two = roots_of_unity(2)
        assert approx_eq(two[0], 1) and approx_eq(two[1], -1)
        three = roots_of_unity(3)
        assert approx_eq(three[1], cmath.exp(2j * math.pi / 3))
        assert approx_eq(three[2], cmath.exp(4j * math.pi / 3))

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_of_unity(0)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_product_and_powers(self, m):
        roots = roots_of_unity(m)
        assert len(roots) == m
        product = 1
        for w in roots:
            product *= w
            assert approx_eq(w**m, 1, 1e-9)
        assert approx_eq(product, (-1) ** (m + 1), 1e-9)

    def test_values_are_the_formula(self):
        for m in range(1, 65):
            assert roots_of_unity(m) == [cmath.exp(2j * math.pi * j / m) for j in range(m)]

    def test_each_call_returns_a_fresh_list(self):
        first = roots_of_unity(5)
        first[0] = 7j
        first.append(0j)
        assert roots_of_unity(5) == [cmath.exp(2j * math.pi * j / 5) for j in range(5)]

    def test_checks_hold_once_an_equal_order_is_cached(self):
        # 3.0 hashes and compares equal to 3 and to np.int64(3), but is no
        # order; a cache keyed on the argument would hand it their roots
        def raised(m):
            with pytest.raises((ValueError, TypeError)) as caught:
                roots_of_unity(m)
            return type(caught.value), str(caught.value)

        bad = [0, -1, 2.5, 3.0]
        before = [raised(m) for m in bad]
        roots_of_unity(3)
        roots_of_unity(np.int64(3))
        assert [raised(m) for m in bad] == before
        assert [kind for kind, _ in before] == [ValueError, ValueError, TypeError, TypeError]


class TestInverseRoot:
    def test_inverse_square_root(self):
        r = inverse_root(4, 2)
        assert approx_eq(r, 0.5)
        assert approx_eq(r**2, inverse_root(4, 1))

    def test_one_is_fixed(self):
        for q in [1, 2, 4, 7]:
            assert approx_eq(inverse_root(1, q), 1)

    def test_principal_branch_of_minus_one(self):
        r = inverse_root(-1, 2)
        assert approx_eq(r, -1j)
        assert approx_eq(r**2, -1)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            inverse_root(2, 0)

    def test_power_consistency(self):
        # r = x^(-1/q) satisfies r^q = 1/x, checked at the scale of 1/x
        rng = np.random.default_rng(11)
        for _ in range(1000):
            modulus = 10.0 ** rng.uniform(-3, 3)
            x = modulus * cmath.exp(2j * math.pi * rng.random())
            q = int(rng.integers(1, 4))
            r = inverse_root(x, q)
            target = 1 / x
            assert abs(r**q - target) <= 1e-9 * max(1.0, abs(target))


class TestCanonicalKey:
    def test_grid_snap(self):
        assert canonical_key(1.0 + 0j, 1e-9) == (10**9, 0)

    def test_orderings(self):
        assert canonical_key(-1) < canonical_key(1)
        assert canonical_key(1j) > canonical_key(-1j)

    def test_snap_preserves_key(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            assert canonical_key(snap(z)) == canonical_key(z)
            assert abs(snap(z) - z) <= 1e-9


class TestFormatting:
    def test_real_values_drop_imaginary_part(self):
        assert format_complex(-1 + 0j) == "-1"
        assert format_complex(0.5 + 0j) == "0.5"

    def test_negative_zero_prints_as_zero(self):
        assert format_complex(complex(-0.0, 0.0)) == "0"
        assert format_complex(complex(-0.0, -0.0)) == "0"
        assert format_complex(complex(-0.0, 2.0)) == "0+2i"

    def test_complex_rendering(self):
        assert format_complex(1 + 2j) == "1+2i"
        assert format_complex(-0.25 - 1j) == "-0.25-1i"

    def test_parse_accepts_i_and_j(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("3j") == 3j
        assert parse_complex(" -4 ") == -4
        for text in ["wat", "nan", "1e400", "-1e400j"]:
            with pytest.raises(ValueError):
                parse_complex(text)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            assert abs(parse_complex(format_complex(z)) - z) <= 1e-11 * abs(z)
