"""Cyclic Leibniz algebras over the complex numbers.

An n-dimensional cyclic Leibniz algebra is generated by a single element a
with basis {a, a^2, ..., a^n}, where a^(k+1) = a * a^k.  The whole product
is pinned down by the single relation

    a * a^n = alpha_2 a^2 + alpha_3 a^3 + ... + alpha_n a^n,

so the defining data is the dimension n and the tail (alpha_2, ..., alpha_n).
The coefficient alpha_1 is forced to vanish (a^(n+1) * a = alpha_1 a^2 = 0),
which this representation encodes by not having a slot for it.

Left multiplication by a is the companion operator L_a; for a general
element x = c_1 a + ... + c_n a^n, left multiplication is L_x = c_1 L_a
because every a^j with j >= 2 is a left annihilator.  With that product the
Leibniz identity

    x(yz) = (xy)z + y(xz),  that is  [L_x, L_y] = L_(xy),

holds for every choice of tail: each left multiplication is a derivation.
``verify_leibniz`` re-checks it from first principles on all n^3 basis
triples rather than trusting the construction.  The multiplication table
is zero outside a's slice, so ``leibniz_check`` takes a table as its
nonzero slices and never builds the n^3 array.  A linear map f with matrix
F is an isomorphism onto another such algebra iff it is invertible and
intertwines left multiplications, F L_u = L_(f(u)) F for every basis vector
u; the oracle's explicit map check tests that identity.

Elements are plain coordinate vectors (numpy arrays of complex) relative to
{a, a^2, ..., a^n}.  Basis indices in reports are 1-based to match the
a^k notation; array indices are 0-based as usual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scalars import DEFAULT_EPS, checked_tolerance, clipped_repr

Element = np.ndarray


class NotAGeneratorError(ValueError):
    """An element required to be a cyclic generator is not one."""


def checked_dimension(n) -> int:
    """n if it is a positive integer, else ValueError: the one dimension rule."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {clipped_repr(n)}")
    return n


@dataclass(frozen=True)
class CyclicAlgebra:
    """Dimension n plus the tail (alpha_2, ..., alpha_n) defining a*a^n."""

    n: int
    tail: tuple[complex, ...]
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        checked_dimension(self.n)
        try:
            tail = tuple(complex(t) for t in self.tail)
        except OverflowError:
            raise ValueError("tail entries must be in floating-point range") from None
        if len(tail) != self.n - 1:
            raise ValueError(
                f"tail must have exactly n-1 = {clipped_repr(self.n - 1)} entries, "
                f"got {len(tail)}"
            )
        if any(not cmath.isfinite(t) for t in tail):
            raise ValueError("tail entries must be finite")
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "eps", checked_tolerance(self.eps))

    # -- basic structure ---------------------------------------------------

    def companion(self) -> np.ndarray:
        """The matrix of L_a: subdiagonal ones, last column (0, alpha_2, ..., alpha_n).

        It is built on first use and kept with the algebra, so it is read-only.
        """
        L = getattr(self, "_companion", None)
        if L is None:
            L = np.eye(self.n, k=-1, dtype=complex)
            L[1:, self.n - 1] = self.tail
            L.setflags(write=False)
            object.__setattr__(self, "_companion", L)  # not a field: eq, hash and repr ignore it
        return L

    def element(self, coords: Sequence[complex]) -> Element:
        """Coerce coordinates (c_1, ..., c_n) to a validated element vector."""
        x = np.asarray(coords, dtype=complex)
        if x.shape != (self.n,):
            raise ValueError(f"element must have {self.n} coordinates, got shape {x.shape}")
        return x

    def basis_element(self, k: int) -> Element:
        """The coordinate vector of a^k, 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise ValueError(f"basis index must be in 1..{self.n}, got {k}")
        e = np.zeros(self.n, dtype=complex)
        e[k - 1] = 1.0
        return e

    def generator(self) -> Element:
        """The distinguished cyclic generator a."""
        return self.basis_element(1)

    # -- products ----------------------------------------------------------

    def multiply(self, x: Sequence[complex], y: Sequence[complex]) -> Element:
        """The product x*y = c_1(x) * L_a(y)."""
        x = self.element(x)
        y = self.element(y)
        return x[0] * (self.companion() @ y)

    def power_basis(self, x: Sequence[complex]) -> np.ndarray:
        """Rows x, x^2, ..., x^n with x^(j+1) = x * x^j.  Independence is not checked."""
        x = self.element(x)
        L = self.companion()
        powers = np.empty((self.n, self.n), dtype=complex)
        powers[0] = x
        for j in range(1, self.n):
            powers[j] = x[0] * (L @ powers[j - 1])  # the arithmetic of multiply
        return powers

    # -- verification ------------------------------------------------------

    def verify_leibniz(self) -> CheckReport:
        """Check x(yz) = (xy)z + y(xz) on all n^3 basis triples.

        The multiplication table has one nonzero slice, a's: a * a^(j+1) is
        column j of L_a, so the slice is L_a transposed.  That is all the
        check is given; it assumes nothing else about the algebra.
        """
        return _leibniz_kernel([0], self.companion().T[None], self.eps)

    def cayley_hamilton_residual(self) -> float:
        """max|f(L_a)| / max(1, max|L_a^n|), zero in exact arithmetic.

        f(t) = t^n - alpha_n t^(n-1) - ... - alpha_2 t is the characteristic
        polynomial of L_a (a is a cyclic vector for it).  The powers L_a, ...,
        L_a^n come from one running product; the residual is relative to the
        largest term, so tails of any scale are judged alike.
        """
        L = self.companion()
        power = L
        f_of_L = np.zeros_like(L)
        for alpha in self.tail:  # alpha_i against power = L^(i-1)
            f_of_L -= alpha * power
            power = power @ L
        f_of_L += power
        return float(np.max(np.abs(f_of_L))) / max(1.0, float(np.max(np.abs(power))))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a from-first-principles check; passed iff residual <= eps.

    On failure only, ``where`` holds the 1-based basis indices of the worst
    residual: a Leibniz triple (i, j, k) or an explicit-map pair (i, j).
    """

    passed: bool
    residual: float
    where: tuple[int, ...] | None = None

    @classmethod
    def of(cls, residuals: np.ndarray, eps: float) -> CheckReport:
        """The report on an array of residuals, one per basis triple or pair."""
        residual = float(np.max(residuals))
        if residual <= eps:
            return cls(True, residual)
        where = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
        return cls(False, residual, tuple(int(i) + 1 for i in where))


def leibniz_check(S, TS: np.ndarray, eps: float = DEFAULT_EPS) -> CheckReport:
    """Check the Leibniz identity for a multiplication table given by its nonzero slices.

    The table T has T[i, j, :] = the coordinates of the product of basis
    vectors i and j, so T[i] is the transpose of the left multiplication
    L_i.  S lists, in increasing order, the 0-based indices i whose slice
    may be nonzero, and TS[r] = T[S[r]]; every other slice is zero.  The
    identity x(yz) = (xy)z + y(xz) says that every L_x is a derivation,
    [L_i, L_j] = L_(e_i e_j); on the slices that reads

        T[j] T[i] - T[i] T[j] = sum_m T[i, j, m] T[m],

    and row k of it is the identity on the basis triple (i, j, k), whose
    residual is that row's largest entry; the identity is trilinear, so
    basis triples cover the whole algebra.  Every term vanishes unless i is
    in S, the commutator unless j is in S, and the sum runs over m in S, so
    the residuals are held for i in S only.  A failed report's ``where`` is
    the worst triple (i, j, k), 1-based.

    The (xy)z term of a slice i is skipped when every coefficient
    T[i, j, m] with m in S is exactly zero and every entry of TS is finite:
    each of its products is then 0 times a finite number, a signed zero, so
    the term adds nothing to any residual's bits.  Such a slice costs
    O(|S| n^3) work and O(|S| n^2) memory; any other slice forms the term
    as an O(|S| n^3) einsum in O(n^3) memory.  A companion table has
    S = [0] and a zero first row, so it takes O(n^2) memory.  The rule reads
    the table's entries, never assumes the companion structure: an audit
    that did would assume what it checks, and could not audit hand-injected
    tables.  (xy)z is an einsum, not a rank-|S| matmul, which OpenBLAS
    would run on a second thread for no gain.
    """
    S = np.asarray(S, dtype=np.intp)
    n = TS.shape[-1] if TS.ndim == 3 else None
    if S.ndim != 1 or TS.shape != (len(S), n, n):
        raise ValueError(f"slices must have shape (len(S), n, n), got {TS.shape} "
                         f"for S of shape {S.shape}")
    indices = S.tolist()
    if indices != sorted(set(indices)) or not all(0 <= i < n for i in indices):
        raise ValueError(f"slice indices must increase within 0..{n - 1}, got {indices}")
    return _leibniz_kernel(indices, TS, eps)


def _leibniz_kernel(S: list[int], TS: np.ndarray, eps: float) -> CheckReport:
    """``leibniz_check`` on arguments it has validated, with S a list of ints."""
    if not S:
        return CheckReport(True, 0.0)
    n = TS.shape[-1]
    finite = bool(np.isfinite(TS).all())
    residuals = np.zeros((len(S), n, n))
    for r, Ti in enumerate(TS):
        coefficients = Ti[:, S]  # T[S[r], j, m] for m in S
        commutator = Ti @ TS - TS @ Ti  # y(xz) - x(yz) at (S[r], j in S, k)
        if finite and not coefficients.any():  # (xy)z is a signed zero everywhere
            residuals[r, S] = np.max(np.abs(commutator), axis=2)
            continue
        R = np.einsum("jm,mkr->jkr", coefficients, TS)  # (xy)z at (S[r], j, k)
        R[S] += commutator
        residuals[r] = np.max(np.abs(R), axis=2)
    report = CheckReport.of(residuals, eps)
    if report.where is None:
        return report
    r, j, k = report.where
    return CheckReport(False, report.residual, (S[r - 1] + 1, j, k))


# build(n, tail, eps): the algebra with a*a^n = sum(tail[i-2] * a^i)
build = CyclicAlgebra
