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
left-multiplication-is-a-derivation identity

    x(yz) = (xy)z + y(xz)

holds for every choice of tail; ``verify_leibniz`` re-checks it from first
principles on all n^3 basis triples rather than trusting the construction.

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
        """The matrix of L_a: subdiagonal ones, last column (0, alpha_2, ..., alpha_n)."""
        L = np.zeros((self.n, self.n), dtype=complex)
        L[range(1, self.n), range(self.n - 1)] = 1.0
        L[1:, self.n - 1] = self.tail
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

    def multiplication_table(self) -> np.ndarray:
        """table[i, j, :] = coordinates of a^(i+1) * a^(j+1); shape (n, n, n)."""
        table = np.zeros((self.n, self.n, self.n), dtype=complex)
        table[0] = self.companion().T  # a * a^(j+1) = column j of L_a
        return table

    # -- verification ------------------------------------------------------

    def verify_leibniz(self) -> CheckReport:
        """Check x(yz) = (xy)z + y(xz) on all n^3 basis triples."""
        return leibniz_check(self.multiplication_table(), self.eps)

    def cayley_hamilton_residual(self) -> float:
        """Max-norm of f(L_a), zero in exact arithmetic.

        f(t) = t^n - alpha_n t^(n-1) - ... - alpha_2 t is the characteristic
        polynomial of L_a (a is a cyclic vector for it).
        """
        L = self.companion()
        f_of_L = np.linalg.matrix_power(L, self.n)
        for i in range(2, self.n + 1):
            f_of_L -= self.tail[i - 2] * np.linalg.matrix_power(L, i - 1)
        return float(np.max(np.abs(f_of_L)))


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


def leibniz_check(table: np.ndarray, eps: float = DEFAULT_EPS) -> CheckReport:
    """Check the Leibniz identity for an arbitrary multiplication table.

    ``table[i, j, :]`` holds the coordinates of the product of basis vectors
    i and j; the product of general elements is the bilinear extension.  The
    identity is trilinear, so checking all basis triples covers the whole
    algebra.

    With T the table and basis vectors x, y, z at indices i, j, k, the three
    products are x(yz) = sum_m T[j,k,m] T[i,m,:], (xy)z = sum_m T[i,j,m]
    T[m,k,:] and y(xz) = sum_m T[i,k,m] T[j,m,:].  The first and the third
    are two readings of one shared product M[a,b,c,:] = sum_m T[a,b,m]
    T[c,m,:], so the check costs two (n^2, n) @ (n, n^2) matmuls: M, and the
    one for (xy)z.  A companion table is zero outside T[0], which would make
    the check cheaper still, but the check stays generic over any (n, n, n)
    table: an audit that assumed the companion structure would assume what
    it checks, and could not audit hand-injected tables.
    """
    n = table.shape[0]
    if table.shape != (n, n, n):
        raise ValueError(f"table must have shape (n, n, n), got {table.shape}")
    pairs = table.reshape(n * n, n)
    M = (pairs @ table.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
    lhs = M.transpose(2, 0, 1, 3)  # x(yz)[i,j,k] = M[j,k,i]
    xy_z = (pairs @ table.reshape(n, n * n)).reshape(n, n, n, n)
    rhs = xy_z + M.transpose(0, 2, 1, 3)  # y(xz)[i,j,k] = M[i,k,j]
    return CheckReport.of(np.max(np.abs(lhs - rhs), axis=3), eps)


# build(n, tail, eps): the algebra with a*a^n = sum(tail[i-2] * a^i)
build = CyclicAlgebra
