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
import numbers
import sys

DEFAULT_EPS = 1e-9


def checked_tolerance(eps: float) -> float:
    """eps as a float if a positive finite real, not bool, else ValueError: the tolerance rule."""
    # float and int first: the numbers.Real check alone costs about 1 us a call
    if isinstance(eps, bool) or not isinstance(eps, (float, int, numbers.Real)):
        raise ValueError(f"tolerance must be a number, got {clipped_repr(eps)}")
    try:
        value = float(eps)  # compared as a float: float32 cannot hold sys.float_info.max
    except OverflowError:  # an int or Fraction past the float range
        value = math.inf
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"tolerance must be positive and finite, got {clipped_repr(eps)}")
    return value


def clipped_repr(value) -> str:
    """repr(value) cut to at most 40 characters, for echoing inputs in errors."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def approx_eq(x: complex, y: complex, eps: float = DEFAULT_EPS) -> bool:
    """True iff |x - y| <= eps in the complex modulus."""
    return abs(x - y) <= eps


def roots_of_unity(m: int) -> list[complex]:
    """All m-th roots of unity e^(2*pi*i*j/m) for j = 0..m-1, in that order."""
    if m < 1:
        raise ValueError(f"order must be a positive integer, got {m}")
    return [cmath.exp(2j * math.pi * j / m) for j in range(m)]


def inverse_root(x: complex, q: int) -> complex:
    """x**(-1/q) on the principal branch of the argument (arg in (-pi, pi]); x != 0.

    The q possible values differ by q-th roots of unity; callers that care
    about the ambiguity (orbit canonicalization) absorb it downstream, so a
    fixed deterministic branch is all that is needed.
    """
    if q < 1:
        raise ValueError(f"root order must be a positive integer, got {q}")
    return cmath.exp(cmath.log(x) * (-1 / q))


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
    """Project x onto the eps grid (the value whose key is canonical_key(x)).

    Raises canonical_key's ValueError when x / eps overflows.
    """
    re, im = canonical_key(x, eps)
    return complex(re * eps, im * eps)


def format_complex(z: complex) -> str:
    """Render z as 'a+bi' with 12 significant digits; pure reals drop the i part."""
    real = z.real + 0.0  # -0.0 + 0.0 is 0.0, so negative zero prints as 0
    if z.imag == 0.0:
        return f"{real:.12g}"
    return f"{real:.12g}{z.imag:+.12g}i"


def format_tuple(values) -> str:
    """Render complex values as '(a, b+ci, ...)' with ``format_complex``."""
    return "(" + ", ".join(format_complex(v) for v in values) + ")"


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
