"""Shared random-sampling helpers and reference formulas for the test suite."""

from fractions import Fraction

import numpy as np

from cyclic_leibniz.algebra import CheckReport, leibniz_check
from cyclic_leibniz.classification import rescale
from cyclic_leibniz.scalars import DEFAULT_EPS, approx_eq, canonical_key, roots_of_unity


def random_tail(rng, n, mod_max=10.0):
    """Unstructured tail with entry moduli up to mod_max."""
    return [rng.uniform(0, mod_max) * np.exp(2j * np.pi * rng.random())
            for _ in range(n - 1)]


def random_typed_tail(rng, n, mod_lo=0.1, mod_hi=3.0, nilpotent_fraction=0.0):
    """Tail with a random type index k and nonzero moduli in [mod_lo, mod_hi]."""
    tail = [0j] * (n - 1)
    if rng.random() < nilpotent_fraction:
        return tail
    k = int(rng.integers(2, n + 1))
    for i in range(k, n + 1):
        if i == k or rng.random() > 0.3:
            modulus = mod_lo * (mod_hi / mod_lo) ** rng.random()
            tail[i - 2] = modulus * np.exp(2j * np.pi * rng.random())
    return tail


def cayley_hamilton_reference(A):
    """max|f(L_a)| / max(1, max|L_a^n|), each power of L_a taken on its own."""
    L = A.companion()
    L_n = np.linalg.matrix_power(L, A.n)
    f_of_L = L_n - sum(alpha * np.linalg.matrix_power(L, i - 1)
                       for i, alpha in enumerate(A.tail, start=2))
    return float(np.max(np.abs(f_of_L))) / max(1.0, float(np.max(np.abs(L_n))))


def map_check_reference(A, B, x, y):
    """explicit_iso_check's report, from f(e_i e_j) - f(e_i) f(e_j) one pair at a time.

    f is the linear map with f(x^k) = y^k; each pair's residual is scaled by
    the larger of its two compared products, and 0/0 counts as 0.
    """
    F = np.linalg.solve(A.power_basis(x), B.power_basis(y)).T
    n = A.n
    basis = np.eye(n, dtype=complex)
    residuals = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            image = F @ A.multiply(basis[i], basis[j])
            product = B.multiply(F[:, i], F[:, j])
            residual = np.max(np.abs(image - product))
            if residual:
                residuals[i, j] = residual / max(np.max(np.abs(image)), np.max(np.abs(product)))
    return CheckReport.of(residuals, max(A.eps, B.eps))


def multiplication_table(A):
    """table[i, j, :] = coordinates of a^(i+1) * a^(j+1); shape (n, n, n)."""
    table = np.zeros((A.n, A.n, A.n), dtype=complex)
    table[0] = A.companion().T  # a * a^(j+1) = column j of L_a
    return table


def leibniz_check_of_table(table, eps=DEFAULT_EPS):
    """leibniz_check on a dense (n, n, n) table, given its nonzero slices."""
    S = np.flatnonzero(table.any(axis=(1, 2)))
    return leibniz_check(S, table[S], eps)


def orbit_reference(gamma, eps):
    """``orbit`` by its definition: rescale by every root, key every entry, dedup, sort.

    Members are keyed in root order, entry by entry, and the first member
    with a given key is kept.
    """
    members = {}
    for omega in roots_of_unity(len(gamma) + 1):
        member = rescale(gamma, omega)
        key = tuple(canonical_key(g, eps) for g in member)
        members.setdefault(key, member)
    return [members[key] for key in sorted(members)]


def least_member_reference(gamma, eps):
    """The canonical orbit member by its definition: list, key and sort the whole orbit."""
    return orbit_reference(gamma, eps)[0]


def equivalent_reference(g1, g2, eps):
    """``equivalent`` by its definition: rescale all of g1, then compare entry by entry."""
    for omega in roots_of_unity(len(g1) + 1):
        if all(approx_eq(a, b, eps) for a, b in zip(rescale(g1, omega), g2)):
            return True
    return False


def gaussian_product(u, v):
    """u * v for Gaussian rationals u = (re, im) and v."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def gaussian_power(u, e):
    """u**e for a Gaussian rational u = (re, im) and any integer e; u != 0 if e < 0."""
    if e < 0:
        modulus = u[0] ** 2 + u[1] ** 2
        u, e = (u[0] / modulus, -u[1] / modulus), -e
    result = (Fraction(1), Fraction(0))
    for _ in range(e):
        result = gaussian_product(result, u)
    return result


def exact_isomorphic(tail_a, tail_b):
    """Whether Gaussian-rational tails, (re, im) pairs of Fractions, give isomorphic algebras.

    Decided exactly, without roots.  A generator of A with leading
    coordinate c has law c^(n+1-j) alpha_j, so B is isomorphic to A iff the
    zero patterns match and some c satisfies beta_j = c^(n+1-j) alpha_j at
    every nonzero alpha_j.  With g the gcd of those exponents e_j, Bezout's
    integers u_j (sum u_j e_j = g) force c^g = R, the product of the
    ratios r_j = beta_j / alpha_j to the u_j; so such a c exists iff every
    r_j equals R^(e_j / g), and then any g-th root of R is one.
    """
    zero = (Fraction(0), Fraction(0))
    if [t == zero for t in tail_a] != [t == zero for t in tail_b]:
        return False
    n = len(tail_a) + 1
    ratios = [(n + 1 - j, gaussian_product(beta, gaussian_power(alpha, -1)))
              for j, alpha, beta in zip(range(2, n + 1), tail_a, tail_b) if alpha != zero]
    if not ratios:
        return True  # two nilpotent algebras
    g, coefficients = ratios[0][0], [1]
    for e, _ in ratios[1:]:  # extended Euclid folds in one exponent at a time
        old_r, r, old_s, s, old_t, t = g, e, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        g, coefficients = old_r, [u * old_s for u in coefficients] + [old_t]
    R = (Fraction(1), Fraction(0))
    for (_, ratio), u in zip(ratios, coefficients):
        R = gaussian_product(R, gaussian_power(ratio, u))
    return all(ratio == gaussian_power(R, e // g) for e, ratio in ratios)
