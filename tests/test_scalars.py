import cmath
import math

import numpy as np
import pytest

from cyclic_leibniz.scalars import (
    approx_eq,
    canonical_key,
    checked_tolerance,
    format_complex,
    parse_complex,
    principal_root,
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


class TestPrincipalRoot:
    def test_inverse_square_root(self):
        r = principal_root(4, -1, 2)
        assert approx_eq(r, 0.5)
        assert approx_eq(r**2, principal_root(4, -1, 1))

    def test_one_is_fixed(self):
        for p, q in [(1, 1), (-3, 2), (5, 7), (0, 4)]:
            assert approx_eq(principal_root(1, p, q), 1)

    def test_principal_branch_of_minus_one(self):
        r = principal_root(-1, 1, 2)
        assert approx_eq(r, 1j)
        assert approx_eq(r**2, -1)

    def test_zero_base(self):
        assert principal_root(0, 2, 3) == 0
        assert principal_root(0, 0, 3) == 1
        with pytest.raises(ZeroDivisionError):
            principal_root(0, -1, 2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            principal_root(2, 1, 0)

    def test_power_consistency(self):
        # r = x^(p/q) satisfies r^q = x^p, checked at the scale of x^p
        rng = np.random.default_rng(11)
        for _ in range(1000):
            modulus = 10.0 ** rng.uniform(-3, 3)
            x = modulus * cmath.exp(2j * math.pi * rng.random())
            p = int(rng.integers(-2, 3))
            q = int(rng.integers(1, 4))
            r = principal_root(x, p, q)
            target = x**p
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
