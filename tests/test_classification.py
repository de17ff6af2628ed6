import cmath
import math
import re

import numpy as np
import pytest

from cyclic_leibniz.algebra import NotAGeneratorError, build
from cyclic_leibniz.classification import (
    NILPOTENT,
    CanonicalForm,
    TypeLabel,
    _member_order,
    detect_type,
    embed_law,
    equivalent,
    family_table,
    generator_law,
    isomorphic,
    normalize,
    orbit,
    reduce,
    rescale,
)
from cyclic_leibniz.oracle import iso_by_search, law_by_linear_solve
from cyclic_leibniz.scalars import DEFAULT_EPS, approx_eq, canonical_key, roots_of_unity, snap
from helpers import (
    equivalent_reference,
    least_member_reference,
    orbit_reference,
    random_typed_tail,
)

BAD_TOLERANCES = pytest.mark.parametrize(
    "eps", [-1e-9, 0, math.nan, math.inf, True, "1e-9"],
    ids=["negative", "zero", "nan", "inf", "true", "str"],
)
RAW_KINDS = ("dense", "zeros", "all_zero", "stabilizer", "half_grid", "grid_edge")
EXTREME_MESSAGE = "-231822198.309+62116570.8246i is out of range of the eps=1e-300 grid"


def raw_tuple(rng, d, kind):
    """A seeded reduced tuple of length d, and the eps to key it with.

    ``stabilizer`` puts nonzero entries only where s divides d - i, for some
    divisor s > 1 of d + 1, so the s-th roots of unity fix the tuple;
    ``half_grid`` puts both parts of every entry half-way between grid
    points; ``grid_edge`` puts |re| + |im| from below half the float range
    in units of eps to past all of it, where some orbit members fall off
    the grid.
    """
    eps = (1e-9, 1e-3)[int(rng.integers(0, 2))]
    if kind == "half_grid":
        eps = 2.0 ** -20
        return tuple(complex(int(rng.integers(-50, 50)) + 0.5,
                             int(rng.integers(-50, 50)) + 0.5) * eps for _ in range(d)), eps
    if kind == "grid_edge":
        eps = 1e-300
        parts = rng.uniform(0.3, 1.0, size=(d, 2)) * rng.choice([-1, 1], size=(d, 2))
        return tuple(complex(re, im) * 1.4e8 for re, im in parts), eps
    scale = 10.0 ** rng.uniform(-4, 3)
    g = [complex(rng.normal(), rng.normal()) * scale for _ in range(d)]
    if kind == "zeros":
        g = [0j if rng.random() < 0.5 else x for x in g]
    elif kind == "all_zero":
        g = [0j] * d
    elif kind == "stabilizer" and d:
        divisors = [s for s in range(2, d + 2) if (d + 1) % s == 0]
        s = divisors[int(rng.integers(0, len(divisors)))]
        g = [x if (d - i) % s == 0 else 0j for i, x in enumerate(g)]
    return tuple(g), eps


def least_member(gamma, eps):
    """The least orbit member as ``normalize`` picks it, before snapping."""
    return rescale(gamma, next(_member_order(gamma, eps)))


def outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestTypeLabel:
    def test_str(self):
        assert str(NILPOTENT) == "nilpotent"
        assert str(TypeLabel(3)) == "type 3"

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            TypeLabel(1)

    def test_nilpotent_flag(self):
        assert NILPOTENT.is_nilpotent
        assert not TypeLabel(2).is_nilpotent


class TestDetectType:
    def test_nilpotent(self):
        assert detect_type(build(4, [0, 0, 0])) == NILPOTENT

    def test_k_equals_n(self):
        assert detect_type(build(3, [0, 1])) == TypeLabel(3)

    def test_smallest_nonzero_index(self):
        assert detect_type(build(4, [1, 0.5, 0])) == TypeLabel(2)

    def test_below_eps_counts_as_zero(self):
        A = build(3, [5e-10, 1])
        assert detect_type(A) == TypeLabel(3)


class TestGeneratorLaw:
    def test_two_dim_rescaling(self):
        alpha = 4.0 - 2.0j
        A = build(2, [alpha])
        law = generator_law(A, 1 / alpha)
        assert len(law) == 1 and approx_eq(law[0], 1)

    def test_identity_leading_coordinate(self):
        A = build(4, [0, 2, 3])
        assert generator_law(A, 1) == (2, 3)

    def test_negated_generator(self):
        # hand application of the law transform, cross-checked by the
        # linear-solve oracle below
        A = build(3, [1, 1])
        assert generator_law(A, -1) == (1, -1)
        lam = law_by_linear_solve(A, [-1, 0, 0])
        np.testing.assert_allclose(lam, [0, 1, -1], atol=1e-12)

    def test_nilpotent_law_is_zero(self):
        assert generator_law(build(4, [0, 0, 0]), 2.5) == (0, 0, 0)

    def test_zero_leading_coordinate_rejected(self):
        with pytest.raises(NotAGeneratorError):
            generator_law(build(3, [1, 1]), 1e-12)

    def test_type_invariance(self):
        # the algebra rebuilt from any generator's law has the same type index
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            A = build(n, random_typed_tail(rng, n))
            c1 = (0.1 * 100 ** rng.random()) * np.exp(2j * np.pi * rng.random())
            law = generator_law(A, c1)
            B = build(n, embed_law(law, n))
            assert detect_type(B) == detect_type(A)


class TestEmbedLaw:
    def test_placement(self):
        assert embed_law((5, 6), 4) == (0, 5, 6)
        assert embed_law((5, 6, 7), 4) == (5, 6, 7)
        assert embed_law((), 3) == (0, 0)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            embed_law((1, 2, 3), 3)


class TestOrbit:
    def test_empty_tuple(self):
        assert orbit(()) == [()]

    @BAD_TOLERANCES
    def test_tolerance_checked(self, eps):
        # a negative eps used to flip the keys and list the largest member first
        with pytest.raises(ValueError, match="^tolerance must be"):
            orbit((1, 2), eps)

    def test_plus_minus(self):
        members = orbit((1 + 0j,))
        assert len(members) == 2
        values = sorted(m[0].real for m in members)
        assert values == pytest.approx([-1.0, 1.0])

    def test_cube_root_action(self):
        w = cmath.exp(2j * math.pi / 3)
        g = (1.5 + 0.5j, -0.25 + 2j)
        members = orbit(g)
        assert len(members) == 3
        expected = {g, (w**2 * g[0], w * g[1]), (w * g[0], w**2 * g[1])}
        for member in members:
            assert any(
                all(approx_eq(a, b, 1e-9) for a, b in zip(member, target))
                for target in expected
            )

    def test_zero_tuple_is_fixed_point(self):
        assert orbit((0j, 0j, 0j)) == [(0j, 0j, 0j)]

    def test_size_divides_group_order(self):
        # (0, g, 0) with d = 3 is fixed by w = -1: orbit size 2 divides 4
        members = orbit((0j, 1.3 + 0.2j, 0j))
        assert len(members) == 2

    def test_members_sorted_by_grid_key(self):
        members = orbit((2.0 - 1.0j, 0.5j, -3.0 + 0j))
        keys = [tuple(canonical_key(g) for g in m) for m in members]
        assert keys == sorted(keys)

    def test_group_action_composes(self):
        rng = np.random.default_rng(9)
        for d in range(1, 7):
            g = tuple(complex(rng.normal(), rng.normal()) for _ in range(d))
            roots = [cmath.exp(2j * math.pi * j / (d + 1)) for j in range(d + 1)]
            for w1 in roots:
                for w2 in roots:
                    twice = rescale(rescale(g, w1), w2)
                    once = rescale(g, w1 * w2)
                    assert all(approx_eq(a, b, 1e-9) for a, b in zip(twice, once))

    def test_closed_under_action(self):
        rng = np.random.default_rng(10)
        for d in range(1, 7):
            g = tuple(complex(rng.normal(), rng.normal()) for _ in range(d))
            members = orbit(g)
            for member in members:
                for w in [cmath.exp(2j * math.pi * j / (d + 1)) for j in range(d + 1)]:
                    moved = rescale(member, w)
                    assert any(
                        all(approx_eq(a, b, 1e-8) for a, b in zip(moved, other))
                        for other in members
                    )


class TestEquivalent:
    def test_plus_minus(self):
        assert equivalent((1,), (-1,))
        assert not equivalent((1,), (2,))

    def test_zero_tuples(self):
        assert equivalent((0, 0, 0), (0, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            equivalent((1,), (1, 2))

    @BAD_TOLERANCES
    def test_tolerance_checked(self, eps):
        # a negative eps used to make every tuple inequivalent to itself
        with pytest.raises(ValueError, match="^tolerance must be"):
            equivalent((1, 2), (1, 2), eps)

    @pytest.mark.parametrize("kind", RAW_KINDS)
    def test_equals_full_rescale_reference(self, kind):
        # partners: an exact rescaling, one entry moved by 0.5, 1 or 2 eps, or unrelated
        rng = np.random.default_rng(RAW_KINDS.index(kind) + 200)
        for d in range(48):
            for _ in range(6):
                g1, eps = raw_tuple(rng, d, kind)
                roots = roots_of_unity(d + 1)
                g2 = list(rescale(g1, roots[int(rng.integers(0, d + 1))]))
                mode = int(rng.integers(0, 3))
                if mode == 1 and d:
                    shift = (0.5, 1.0, 2.0)[int(rng.integers(0, 3))] * eps
                    g2[int(rng.integers(0, d))] += shift * cmath.exp(2j * math.pi * rng.random())
                elif mode == 2:
                    g2 = list(raw_tuple(rng, d, kind)[0])
                assert outcome(equivalent, g1, tuple(g2), eps) == outcome(
                    equivalent_reference, g1, tuple(g2), eps
                )

    def test_equivalence_relation(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            g1 = tuple(complex(rng.normal(), rng.normal()) for _ in range(d))
            roots = [cmath.exp(2j * math.pi * j / (d + 1)) for j in range(d + 1)]
            w1 = roots[int(rng.integers(0, d + 1))]
            w2 = roots[int(rng.integers(0, d + 1))]
            g2 = rescale(g1, w1)
            g3 = rescale(g2, w2)
            assert equivalent(g1, g1)  # reflexive
            assert equivalent(g1, g2) and equivalent(g2, g1)  # symmetric
            assert equivalent(g1, g3)  # transitive via exact orbit members


class TestNormalize:
    def test_two_dim_always_trivial(self):
        for alpha in [3, 5, -2.5, 1j, 4 - 3j]:
            form = normalize(build(2, [alpha]))
            assert form.label == TypeLabel(2)
            assert form.gamma == ()

    def test_hand_worked_example(self):
        # alpha = (4, 2): c1 = 4^(-1/2) = 1/2, raw gamma_3 = (1/2)*2 = 1,
        # orbit {1, -1}, grid-key minimum -1
        label, raw = reduce(build(3, [4, 2]))
        assert label == TypeLabel(2)
        assert len(raw) == 1 and approx_eq(raw[0], 1, 1e-15)
        form = normalize(build(3, [4, 2]))
        assert form.label == TypeLabel(2)
        assert len(form.gamma) == 1
        assert approx_eq(form.gamma[0], -1)
        # independent confirmation by explicit generator search
        assert iso_by_search(build(3, [4, 2]), build(3, [1, -1]))

    def test_nilpotent(self):
        form = normalize(build(5, [0, 0, 0, 0]))
        assert form.label == NILPOTENT and form.gamma == ()

    def test_k_equals_n_has_empty_tuple(self):
        form = normalize(build(4, [0, 0, 7 - 2j]))
        assert form.label == TypeLabel(4) and form.gamma == ()

    @pytest.mark.parametrize(
        "n, tail, eps",
        [(3, [1, 1e300], 1e-9), (3, [4, 2], 1e-320), (3, [1e-315, 1], 1e-320)],
    )
    def test_out_of_range_tail_raises_value_error(self, n, tail, eps):
        with pytest.raises(ValueError, match="out of range"):
            normalize(build(n, tail, eps))

    def test_drift_check_is_not_an_assert(self, monkeypatch):
        # a reducing generator that fails to normalize alpha_k must be caught
        # by a check that survives python -O
        monkeypatch.setattr(
            "cyclic_leibniz.classification.inverse_root", lambda x, q: 1.5
        )
        with pytest.raises(ValueError, match="drift"):
            reduce(build(3, [4, 2]))

    def test_idempotent_on_canonical_algebra(self):
        form = normalize(build(3, [1, -1]))
        again = normalize(form.as_algebra())
        assert again == form

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_randomized(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
            form = normalize(A)
            again = normalize(form.as_algebra())
            assert again.label == form.label
            assert all(
                approx_eq(a, b, A.eps) for a, b in zip(again.gamma, form.gamma)
            )

    def test_gamma_is_minimum_of_own_orbit(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            A = build(n, random_typed_tail(rng, n))
            form = normalize(A)
            members = orbit(form.gamma, A.eps)
            assert all(approx_eq(a, b, A.eps) for a, b in zip(members[0], form.gamma))

    @pytest.mark.parametrize("kind", RAW_KINDS)
    def test_least_member_equals_full_orbit_reference(self, kind):
        rng = np.random.default_rng(RAW_KINDS.index(kind) + 100)
        for d in range(48):
            for _ in range(4):
                gamma, eps = raw_tuple(rng, d, kind)
                assert outcome(least_member, gamma, eps) == outcome(
                    least_member_reference, gamma, eps
                )
                assert outcome(orbit, gamma, eps) == outcome(orbit_reference, gamma, eps)

    def test_deep_ties_at_dimension_199(self):
        # nonzero entries only at even d - i: every member ties with its
        # negative on all 100 of them, so each of the 100 pairs is refined
        # to the last entry
        rng = np.random.default_rng(199)
        d = 199
        gamma = tuple(complex(rng.normal(), rng.normal()) if (d - i) % 2 == 0 else 0j
                      for i in range(d))
        members = orbit(gamma, DEFAULT_EPS)
        assert len(members) == 100
        assert members == orbit_reference(gamma, DEFAULT_EPS)
        assert least_member(gamma, DEFAULT_EPS) == members[0]

    def test_stabilized_tuples_have_short_orbits(self):
        # the stabilizer kind above really makes orbit members tie
        rng = np.random.default_rng(RAW_KINDS.index("stabilizer") + 100)
        short = 0
        for d in range(48):
            for _ in range(4):
                gamma, eps = raw_tuple(rng, d, "stabilizer")
                short += any(gamma) and len(orbit(gamma, eps)) < d + 1
        assert short >= 50

    def test_normalize_equals_snapped_full_orbit_reference(self):
        rng = np.random.default_rng(47)
        for n in range(2, 50):
            for _ in range(4):
                A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
                label, raw = reduce(A)
                form = normalize(A)
                assert form.label == label
                assert form.gamma == tuple(
                    snap(g, A.eps) for g in least_member_reference(raw, A.eps)
                )

    def test_extreme_scale_rejected_as_the_full_orbit_rejects_it(self):
        # the least orbit member is on the 1e-300 grid, another member is not
        A = build(4, [1, -1, 2.4e8 * cmath.exp(1j * math.pi / 4)], 1e-300)
        with pytest.raises(ValueError) as excinfo:
            normalize(A)
        assert str(excinfo.value) == EXTREME_MESSAGE
        with pytest.raises(ValueError, match=re.escape(EXTREME_MESSAGE)):
            orbit(reduce(A)[1], A.eps)

    def test_branch_choice_is_absorbed(self):
        # same algebra scaled by any root of unity normalizes identically
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            tail = random_typed_tail(rng, n)
            A = build(n, tail)
            k = detect_type(A).k
            m = n - k + 1
            w = cmath.exp(2j * math.pi * int(rng.integers(0, m)) / m)
            B = build(n, embed_law(generator_law(A, w), n))
            assert normalize(B).label == normalize(A).label
            assert all(
                approx_eq(a, b, 1e-8)
                for a, b in zip(normalize(B).gamma, normalize(A).gamma)
            )


class TestCanonicalForm:
    def test_gamma_length_validated(self):
        with pytest.raises(ValueError):
            CanonicalForm(4, TypeLabel(2), (1 + 0j,))

    def test_law_strings(self):
        assert normalize(build(3, [0, 1])).law() == "a·a^3 = a^3"
        assert normalize(build(4, [0, 0, 0])).law() == "a·a^4 = 0"
        assert normalize(build(3, [4, 2])).law() == "a·a^3 = a^2 + (-1)·a^3"

    def test_as_algebra_layout(self):
        form = CanonicalForm(5, TypeLabel(3), (2j, -1 + 0j))
        assert form.as_algebra().tail == (0, 1, 2j, -1)


class TestIsomorphic:
    def test_two_dim_all_nonzero_alpha_agree(self):
        assert isomorphic(build(2, [3]), build(2, [5]))

    def test_sign_flip_dim_three(self):
        assert isomorphic(build(3, [1, 1]), build(3, [1, -1]))

    def test_distinct_gamma_dim_three(self):
        assert not isomorphic(build(3, [1, 1]), build(3, [1, 2]))

    def test_dimension_mismatch(self):
        assert not isomorphic(build(2, [1]), build(3, [1, 0]))

    def test_type_mismatch(self):
        assert not isomorphic(build(3, [1, 1]), build(3, [0, 1]))
        assert not isomorphic(build(3, [0, 0]), build(3, [0, 1]))

    def test_matches_raw_tuple_equivalence(self):
        # canonical-form equality and direct orbit equivalence are one test
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            A = build(n, random_typed_tail(rng, n))
            B = build(n, random_typed_tail(rng, n))
            fa, fb = normalize(A), normalize(B)
            if fa.label != fb.label:
                assert not isomorphic(A, B)
                continue
            assert isomorphic(A, B) == equivalent(fa.gamma, fb.gamma, 1e-8)

    def test_near_grid_tie_matches_raw_tuple_equivalence(self):
        # n = 4, tail (1, g1, 0) with g1 within 3e-9 rad of the real axis: two
        # cube-root orbit members tie on their real grid key, so a partner
        # perturbed by at most 0.64e-9 can snap to the other member
        rng = np.random.default_rng(43)
        for _ in range(200):
            r = 0.5 * 4 ** rng.random()
            theta = rng.uniform(-3e-9, 3e-9) + math.pi * int(rng.integers(0, 2))
            g1 = r * cmath.exp(1j * theta)
            delta = 0.64e-9 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            A = build(4, [1, g1, 0])
            B = build(4, [1, g1 + delta, 0])
            (label_a, raw_a), (label_b, raw_b) = reduce(A), reduce(B)
            expected = label_a == label_b and equivalent(raw_a, raw_b, A.eps)
            assert isomorphic(A, B) == expected == iso_by_search(A, B)

    def test_matches_full_rescale_reference(self):
        # partners: the rebuild through a rescaled generator, that rebuild with
        # one entry moved by about eps, or an unrelated tail
        rng = np.random.default_rng(53)
        verdicts = []
        for _ in range(2000):
            n = int(rng.integers(2, 18))
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.05))
            mode = int(rng.integers(0, 3))
            if mode == 2:
                tail = random_typed_tail(rng, n, nilpotent_fraction=0.05)
            else:
                s = 0.5 * 4 ** rng.random() * cmath.exp(2j * math.pi * rng.random())
                tail = list(embed_law(generator_law(A, s), n))
                if mode == 1:
                    j = int(rng.integers(0, n - 1))
                    tail[j] += 2 * A.eps * rng.random() * cmath.exp(2j * math.pi * rng.random())
            B = build(n, tail)
            (label_a, raw_a), (label_b, raw_b) = reduce(A), reduce(B)
            expected = label_a == label_b and equivalent_reference(raw_a, raw_b, A.eps)
            assert isomorphic(A, B) == expected
            verdicts.append(expected)
        assert 500 < sum(verdicts) < 1500

    def test_scale_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            A = build(n, random_typed_tail(rng, n, nilpotent_fraction=0.1))
            s = (0.2 * 25 ** rng.random()) * np.exp(2j * np.pi * rng.random())
            B = build(n, embed_law(generator_law(A, s), n))
            assert isomorphic(A, B)

    def test_uncountably_many_classes(self):
        # distinct gamma outside {+g, -g} are never isomorphic in dim 3
        rng = np.random.default_rng(41)
        for _ in range(100):
            g = complex(rng.normal(), rng.normal())
            gp = complex(rng.normal(), rng.normal())
            if min(abs(gp - g), abs(gp + g)) < 1e-6:
                continue
            assert not isomorphic(build(3, [1, g]), build(3, [1, gp]))


class TestFamilyTable:
    def test_dimension_two(self):
        families = family_table(2)
        assert [f["k"] for f in families] == [None, 2]

    def test_dimension_three(self):
        families = family_table(3)
        assert [f["k"] for f in families] == [None, 3, 2]
        assert families[2]["parameters"] == 1
        assert families[2]["orbit_order"] == 2

    def test_dimension_four(self):
        families = family_table(4)
        assert [f["k"] for f in families] == [None, 4, 3, 2]
        assert [f["orbit_order"] for f in families] == [None, 1, 2, 3]
        assert "γ3" in families[3]["law"] and "γ4" in families[3]["law"]

    def test_range_validated(self):
        # every dimension build accepts, n >= 1
        with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
            family_table(0)
        assert family_table(1) == [
            {"k": None, "law": "a·a^1 = 0", "parameters": 0, "orbit_order": None}
        ]
        assert [f["k"] for f in family_table(17)] == [None, *range(17, 1, -1)]
