"""Complex scalar arithmetic with an explicit tolerance policy.

Everything downstream works in floating-point complex numbers, so equality
is always "equality within eps" for an absolute threshold eps.  The default
is DEFAULT_EPS = 1e-9 and every entry point lets the caller override it.

Two caveats are deliberate and documented here once:

* ``approx_eq`` is reflexive and symmetric but NOT transitive (a chain of
  near-equal values can drift arbitrarily far).
* ``canonical_key`` snaps a scalar to the eps grid to obtain a totally
  ordered key.  Two approx-equal scalars map to equal or adjacent keys;
  equality exactly at a grid boundary is resolved by the snap.
"""

from __future__ import annotations

import cmath
import math
import sys

DEFAULT_EPS = 1e-9


def checked_tolerance(eps: float) -> float:
    """eps as a float if positive and finite, else ValueError: the one tolerance rule."""
    if not 0 < eps <= sys.float_info.max:
        raise ValueError(f"tolerance must be positive and finite, got {eps!r}")
    return float(eps)


def approx_eq(x: complex, y: complex, eps: float = DEFAULT_EPS) -> bool:
    """True iff |x - y| <= eps in the complex modulus."""
    return abs(x - y) <= eps


def roots_of_unity(m: int) -> list[complex]:
    """All m-th roots of unity e^(2*pi*i*j/m) for j = 0..m-1, in that order."""
    if m < 1:
        raise ValueError(f"order must be a positive integer, got {m}")
    return [cmath.exp(2j * math.pi * j / m) for j in range(m)]


def principal_root(x: complex, p: int, q: int) -> complex:
    """x**(p/q) on the principal branch of the argument (arg in (-pi, pi]).

    The q possible values of x**(p/q) differ by q-th roots of unity; callers
    that care about the ambiguity (orbit canonicalization) absorb it
    downstream, so a fixed deterministic branch is all that is needed.
    """
    if q < 1:
        raise ValueError(f"root order must be a positive integer, got {q}")
    if x == 0:
        if p < 0:
            raise ZeroDivisionError("zero base with negative exponent")
        return 1.0 + 0.0j if p == 0 else 0.0j
    return cmath.exp(cmath.log(x) * (p / q))


def canonical_key(x: complex, eps: float = DEFAULT_EPS) -> tuple[int, int]:
    """Snap x to the eps grid and return a totally ordered (re, im) key.

    Lexicographic order on the key is the tie-break used everywhere a
    deterministic representative of an approx-equality class is needed.
    Raises ValueError when x / eps overflows.
    """
    try:
        return (round(x.real / eps), round(x.imag / eps))
    except OverflowError:
        raise ValueError(
            f"{format_complex(x)} is out of range of the eps={eps:g} grid"
        ) from None


def snap(x: complex, eps: float = DEFAULT_EPS) -> complex:
    """Project x onto the eps grid (the value whose key is canonical_key(x))."""
    return complex(round(x.real / eps) * eps, round(x.imag / eps) * eps)


def format_complex(z: complex) -> str:
    """Render z as 'a+bi' with 12 significant digits; pure reals drop the i part."""
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def parse_complex(text: str) -> complex:
    """Parse a finite complex literal; both i and j mark the imaginary unit."""
    cleaned = text.strip().replace("i", "j").replace("J", "j")
    try:
        z = complex(cleaned)
    except ValueError:
        raise ValueError(f"not a complex number: {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite complex number: {text!r}")
    return z
