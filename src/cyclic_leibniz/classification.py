"""Canonical forms and isomorphism for cyclic Leibniz algebras.

The classification pipeline, for an algebra with tail (alpha_2, ..., alpha_n):

1. *Type detection.*  The type index k is the smallest index with
   alpha_k != 0; if the whole tail vanishes the algebra is the (unique)
   nilpotent one.  k is an isomorphism invariant.

2. *Normalization.*  A generator with leading coordinate c_1 has the law

       x x^n = sum_i c_1^(n-k+1-i) alpha_{k+i} x^(k+i),    i = 0..n-k,

   written once (``_law``) for both ``generator_law`` and ``reduce``.  The
   choice c_1 = alpha_k^(1/(k-n-1)) makes the leading coefficient 1:

       x x^n = x^k + gamma_{k+1} x^(k+1) + ... + gamma_n x^n.

3. *Orbit canonicalization.*  Two reduced tuples describe the same algebra
   exactly when they lie on one orbit of the weighted rescaling

       (g_1, ..., g_d)  ->  (w^d g_1, w^(d-1) g_2, ..., w g_d),

   w running over the (d+1)-th roots of unity, d = n - k.  The canonical
   representative is the orbit member that is lexicographically minimal
   under the eps-grid key of each component, the earliest root in
   ``roots_of_unity`` order winning a tie; its entries are stored snapped
   to that grid so equal classes print and serialize identically.  One
   lazy order (``_member_order``) serves both ``normalize`` and ``orbit``:
   entry i of a member is keyed only while the member ties with another on
   the entries before it, so the least member takes O(d) keys unless the
   orbit ties, and the whole orbit about d + 1 keys, not (d+1)*d.

Isomorphism is decided on the raw reduced tuples of step 2 (``reduce``):
equal type labels, then ``equivalent`` within eps.  The snapped canonical
form is a display and hash key only; snapping moves entries by up to
eps/sqrt(2), so near a grid tie two isomorphic algebras can snap to
different orbit members.  The whole chain is cross-checked against explicit
basis-map searches in the oracle module.  ``family_table`` lists the
families of a dimension as plain records, the shape the CLI prints.
"""

from __future__ import annotations

import cmath
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from .algebra import CyclicAlgebra, NotAGeneratorError, build, checked_dimension
from .scalars import (
    DEFAULT_EPS,
    approx_eq,
    canonical_key,
    checked_tolerance,
    format_complex,
    inverse_root,
    roots_of_unity,
    snap,
)

GammaTuple = tuple[complex, ...]


@dataclass(frozen=True)
class TypeLabel:
    """Isomorphism-class coarse label: nilpotent, or type k with 2 <= k <= n."""

    k: int | None = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 2:
            raise ValueError(f"type index must be at least 2, got {self.k}")

    @property
    def is_nilpotent(self) -> bool:
        return self.k is None

    def __str__(self) -> str:
        return "nilpotent" if self.k is None else f"type {self.k}"


NILPOTENT = TypeLabel(None)


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class fingerprint: dimension, type label, canonical tuple.

    ``gamma`` is the lexicographically minimal orbit member with each entry
    snapped to the eps grid.  It is a display and hash key only: isomorphic
    algebras usually get equal forms, but near a grid tie they can get
    different ones, so ``isomorphic`` decides on the raw reduced tuples.
    """

    n: int
    label: TypeLabel
    gamma: GammaTuple

    def __post_init__(self) -> None:
        expected = 0 if self.label.is_nilpotent else self.n - self.label.k
        if len(self.gamma) != expected:
            raise ValueError(
                f"gamma must have {expected} entries for {self.label} in dimension "
                f"{self.n}, got {len(self.gamma)}"
            )

    def law(self) -> str:
        """Human-readable canonical law, e.g. 'a·a^3 = a^2 + (-1)·a^3'."""
        first = self.n - len(self.gamma) + 1  # gamma covers indices k+1..n
        return _law_text(self.n, self.label.k, [
            f"({format_complex(g)})·a^{j}"
            for j, g in enumerate(self.gamma, start=first) if g != 0
        ])

    def as_algebra(self) -> CyclicAlgebra:
        """Rebuild the representative algebra: zeros, then 1 at index k, then gamma."""
        law = () if self.label.is_nilpotent else (1.0 + 0.0j, *self.gamma)
        return build(self.n, embed_law(law, self.n))


def _law_text(n: int, k: int | None, terms: list[str]) -> str:
    """'a·a^n = a^k + terms...', or 'a·a^n = 0' for the nilpotent law (k None)."""
    if k is None:
        return f"a·a^{n} = 0"
    return f"a·a^{n} = " + " + ".join([f"a^{k}", *terms])


def detect_type(A: CyclicAlgebra) -> TypeLabel:
    """Nilpotent if the tail vanishes within eps, else type k at the first |alpha_k| > eps."""
    for i, alpha in enumerate(A.tail, start=2):
        if abs(alpha) > A.eps:
            return TypeLabel(i)
    return NILPOTENT


def _law(A: CyclicAlgebra, k: int, c1: complex) -> GammaTuple:
    """The law of the generator c1*a over indices k..n: c1^(n-k+1-i) alpha_(k+i)."""
    m = A.n - k + 1
    # a list, not a generator, for tuple(): reduce is on the classify hot path
    return tuple([c1 ** (m - i) * alpha for i, alpha in enumerate(A.tail[k - 2:])])


def generator_law(A: CyclicAlgebra, c1: complex) -> GammaTuple:
    """Law coefficients (over indices k..n) of any generator with leading coordinate c1.

    Every generator x = c_1 a + ... + c_n a^n satisfies

        x x^n = c_1^(n-k+1) alpha_k x^k + c_1^(n-k) alpha_{k+1} x^(k+1)
                + ... + c_1 alpha_n x^n,

    depending on c_1 only.  For a nilpotent algebra every generator law is
    zero; the all-zero tuple over indices 2..n is returned rather than
    raising.
    """
    if abs(c1) <= A.eps:
        raise NotAGeneratorError(
            f"leading coordinate {format_complex(c1)} is within eps of zero"
        )
    label = detect_type(A)
    if label.is_nilpotent:
        return (0.0j,) * (A.n - 1)
    return _law(A, label.k, c1)


def embed_law(law: GammaTuple, n: int) -> tuple[complex, ...]:
    """Place law coefficients (over indices k..n) into a full tail (alpha_2..alpha_n).

    ``build(n, embed_law(generator_law(A, s), n))`` realizes the algebra whose
    distinguished generator has the law of A's generator s*a; it is isomorphic
    to A.
    """
    if len(law) > n - 1:
        raise ValueError(f"law has {len(law)} entries, more than n-1 = {n - 1}")
    return (0j,) * (n - 1 - len(law)) + tuple(complex(g) for g in law)


def rescale(gamma: GammaTuple, omega: complex) -> GammaTuple:
    """The weighted root-of-unity action (g_1,...,g_d) -> (w^d g_1, ..., w g_d)."""
    d = len(gamma)
    return tuple(omega ** (d - i) * g for i, g in enumerate(gamma))


def orbit(gamma: GammaTuple, eps: float = DEFAULT_EPS) -> list[GammaTuple]:
    """All distinct rescalings of gamma under the (d+1)-th roots of unity.

    Members are deduplicated within eps (by grid key) and sorted by the
    lexicographic grid-key order, so ``orbit(g)[0]`` is the canonical
    representative of g's equivalence class.  The orbit size always divides
    d + 1 (orbit-stabilizer for a cyclic group).  Each member is keyed only
    as far as it ties with another (``_member_order``), not entry by entry
    throughout.  eps must be a positive finite real (``checked_tolerance``).
    """
    eps = checked_tolerance(eps)
    return [rescale(gamma, omega) for omega in _member_order(gamma, eps)]


def equivalent(g1: GammaTuple, g2: GammaTuple, eps: float = DEFAULT_EPS) -> bool:
    """True iff g2 matches some weighted rescaling of g1 within eps, componentwise.

    Each root's rescaled entries are computed as ``rescale`` computes them,
    one at a time, and the root is dropped at its first entry that is not
    ``approx_eq``; a pair that fails early costs O(1) per root, not O(d).
    eps must be a positive finite real (``checked_tolerance``).
    """
    eps = checked_tolerance(eps)
    if len(g1) != len(g2):
        raise ValueError(f"tuple lengths differ: {len(g1)} vs {len(g2)}")
    d = len(g1)
    for omega in roots_of_unity(d + 1):
        for i, (a, b) in enumerate(zip(g1, g2)):
            if not approx_eq(omega ** (d - i) * a, b, eps):
                break
        else:
            return True
    return False


# Up to this, every rescaled entry stays on the eps grid.  Past it, some member
# may fall off, and only keying every entry of every member finds out which
# raises first.
_GRID_SAFE_LIMIT = sys.float_info.max / 2


def _member_order(gamma: GammaTuple, eps: float) -> Iterator[complex]:
    """The roots w of the distinct members ``rescale(gamma, w)``, in grid-key order.

    Entry i of a member is keyed only while the member ties with another on
    entries 0..i-1: the tied roots are bucketed by the key of entry i, the
    buckets are taken in key order, and only buckets of two or more roots
    are refined.  Zero entries key to (0, 0) under every root, so they are
    skipped.  A bucket still tied after the last entry yields its earliest
    root in ``roots_of_unity`` order, the first-come dedup.  The first member
    thus costs O(d) keys unless the orbit ties, and the whole orbit d + 1
    keys unless members tie beyond their first nonzero entry.

    When an entry's |re| + |im| over eps exceeds ``_GRID_SAFE_LIMIT``, every
    entry of every member is keyed first, member by member in root order,
    which raises canonical_key's ValueError at the first member entry off
    the grid.  eps is taken as already checked.
    """
    d = len(gamma)
    roots = roots_of_unity(d + 1)
    for g in gamma:
        if not (abs(g.real) + abs(g.imag)) / eps <= _GRID_SAFE_LIMIT:
            for omega in roots:
                for entry in rescale(gamma, omega):
                    canonical_key(entry, eps)
            break
    nonzero = [i for i, g in enumerate(gamma) if g != 0]
    # (position in nonzero, tied roots in root order); an explicit stack, as
    # d, and with it the depth of the refinement, can run into the thousands
    stack = [(0, roots)]
    while stack:
        position, tied = stack.pop()
        if len(tied) == 1 or position == len(nonzero):
            yield tied[0]
            continue
        i = nonzero[position]
        g = gamma[i]
        buckets: dict[tuple[int, int], list[complex]] = {}
        for omega in tied:
            buckets.setdefault(canonical_key(omega ** (d - i) * g, eps), []).append(omega)
        stack += [(position + 1, buckets[key]) for key in sorted(buckets, reverse=True)]


def reduce(A: CyclicAlgebra) -> tuple[TypeLabel, GammaTuple]:
    """The type label of A and its raw reduced tuple (gamma_{k+1}, ..., gamma_n).

    The reducing generator is x = c_1 a with c_1 = alpha_k^(1/(k-n-1)),
    realized as ``inverse_root(alpha_k, n-k+1)``.  The branch
    ambiguity (a factor that is an (n-k+1)-th root of unity) is exactly the
    orbit action, so the tuple is defined up to ``rescale``.  Nilpotent
    algebras reduce to the empty tuple.  Raises ValueError when the tail is
    too extreme for the reduction to stay in floating-point range.
    """
    label = detect_type(A)
    if label.is_nilpotent:
        return label, ()
    k = label.k
    alpha_k = A.tail[k - 2]
    try:
        law = _law(A, k, inverse_root(alpha_k, A.n - k + 1))
    except OverflowError:
        raise ValueError(
            f"alpha_{k} = {format_complex(alpha_k)} is out of range: "
            "its reducing generator overflows"
        ) from None
    lead = law[0]
    raw = law[1:]
    # 1e-12 floor: the check must survive eps set below machine rounding.
    if not abs(lead - 1.0) <= max(A.eps, 1e-12):
        raise ValueError(f"normalization drift: leading coefficient {format_complex(lead)}")
    for j, g in enumerate(raw, start=k + 1):
        if not cmath.isfinite(g):
            raise ValueError(f"reduced entry gamma_{j} overflows")
    return label, raw


def normalize(A: CyclicAlgebra) -> CanonicalForm:
    """The canonical form of A: type label plus snapped canonical orbit member.

    Minimizing over the orbit makes the result independent of the branch
    ``reduce`` picks for the reducing generator.  The minimum is
    ``orbit(raw, eps)[0]``, bit for bit, but found without listing the
    orbit: it is the first root of ``_member_order``, O(d) grid keys for
    d = n - k unless the orbit ties.
    """
    label, raw = reduce(A)
    representative = rescale(raw, next(_member_order(raw, A.eps)))
    return CanonicalForm(A.n, label, tuple(snap(g, A.eps) for g in representative))


def isomorphic(A: CyclicAlgebra, B: CyclicAlgebra) -> bool:
    """Decide isomorphism: equal type labels and ``equivalent`` raw reduced tuples.

    Decided within max(A.eps, B.eps) on the output of ``reduce``, never on
    the snapped canonical forms; the oracle module re-derives the same
    answer by explicit generator search.
    """
    if A.n != B.n:
        return False
    label_a, raw_a = reduce(A)
    label_b, raw_b = reduce(B)
    return label_a == label_b and equivalent(raw_a, raw_b, max(A.eps, B.eps))


def family_table(n: int) -> list[dict]:
    """The classification families in dimension n as {k, law, parameters, orbit_order}.

    One nilpotent family (k and orbit_order None), then for each k = n down
    to 2 an (n-k)-parameter family whose tuples are identified up to the
    weighted action of the (n-k+1)-th roots of unity; k = n is the
    parameter-free law a·a^n = a^n.
    """
    checked_dimension(n)
    families = [{"k": None, "law": _law_text(n, None, []), "parameters": 0, "orbit_order": None}]
    for k in range(n, 1, -1):
        law = _law_text(n, k, [f"γ{j}·a^{j}" for j in range(k + 1, n + 1)])
        families.append({"k": k, "law": law, "parameters": n - k, "orbit_order": n - k + 1})
    return families
