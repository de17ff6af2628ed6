"""Brute-force verification oracles, independent of the classification path.

Everything the classification module derives through closed-form formulas is
re-derived here from raw products and linear algebra only:

* ``law_by_linear_solve`` recovers a generator's law by expressing x*x^n in
  the power basis of x via an n-by-n linear solve (no law formula involved).
  ``_power_bases`` is the oracle's one generator test, for one element or
  a stack; ``_power_basis`` returns one element's basis, or None when it is
  numerically dependent.
* ``explicit_iso_check`` verifies a claimed isomorphism by building the
  basis map x^i -> y^i and checking f(uv) = f(u)f(v) on all basis pairs,
  which in these algebras is the one identity F L_a = F[0, 0] L_b F; it
  returns the ``CheckReport`` that ``algebra.leibniz_check`` does.
* ``iso_by_search`` decides isomorphism by searching candidate generators,
  never touching canonical forms.  It checks them in stacks of at most
  ``_STACK_ENTRIES`` matrix entries (one candidate from n = 46 on), each
  step one numpy call for the whole stack, with the reports of single checks.
* ``fuzz`` runs a seeded randomized campaign asserting that the two routes
  agree everywhere they should, and returns its counts as a ``FuzzReport``
  record that the CLI renders.

No function here but ``fuzz`` names anything the classification module
defines (a test walks every function's code objects to keep it so);
``fuzz`` imports it solely to compare answers.  Tail entries within
NEAR_BOUNDARY_FACTOR * eps of zero sit on the type-detection boundary where
float answers are undefined by policy; the campaign skips such draws and
reports the count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import CheckReport, CyclicAlgebra, NotAGeneratorError, build
from .classification import embed_law, generator_law, isomorphic
from .scalars import (
    DEFAULT_EPS, clipped_repr, format_complex, format_tuple, inverse_root, roots_of_unity,
)

NEAR_BOUNDARY_FACTOR = 10.0

# Campaign thresholds: well above float noise in the sampled boxes, well
# below any honest signal (tail moduli are kept >= 1e-2).  The law and
# Cayley-Hamilton ones are relative to the compared sizes, floored at one.
LAW_AGREEMENT_TOL = 1e-7
CAYLEY_TOL = 1e-8
LEAD_DETECT_TOL = 1e-6

# Smallest modulus of the generator scales c1 and s that the campaign draws;
# generator_law rejects a scale within eps of zero, so eps must stay below it.
GENERATOR_SCALE_MIN = 0.5


def law_by_linear_solve(A: CyclicAlgebra, x) -> np.ndarray | None:
    """Coordinates of x*x^n in the power basis [x, x^2, ..., x^n], or None.

    Solves the n-by-n system directly; returns None when ``_power_basis``,
    the oracle's generator test, finds the basis numerically dependent --
    no reference to the leading coordinate is made.
    """
    powers = _power_basis(A, x, A.eps)
    if powers is None:
        return None
    return np.linalg.solve(powers.T, A.multiply(x, powers[-1]))


def _power_basis(A: CyclicAlgebra, x, eps: float) -> np.ndarray | None:
    """A's power basis of x (rows x, ..., x^n), or None if it is dependent."""
    powers, independent = _power_bases(A, x, eps)
    return powers if independent else None


def _power_bases(A: CyclicAlgebra, x, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """A's power bases of x, one element or an (m, n) stack, and which are independent.

    This is the oracle's generator test.  Each power is divided by its
    2-norm first, so the test is scale-free: the power basis of c*x is that
    of x with power j times c^j.  A zero or non-finite norm (one that
    overflows included) is dependent outright; otherwise the basis is
    dependent iff its smallest singular value is at most eps times the
    largest.  Powers that overflow or vanish make the basis dependent, so
    numpy's overflow, invalid-value and division warnings on the way there
    are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = A.power_basis(x)
        columns = np.swapaxes(powers, -1, -2)
        norms = np.linalg.norm(columns, axis=-2)
        scaled = columns / norms[..., None, :]
        finite = True
        if not 0 < norms.min() <= norms.max() < np.inf:  # NaN fails too
            finite = (norms.min(axis=-1) > 0) & (norms.max(axis=-1) < np.inf)
            scaled[~finite] = np.eye(A.n)  # dependent already; keeps the SVD finite
        svals = np.linalg.svd(scaled, compute_uv=False)
        return powers, finite & (svals[..., -1] > eps * svals[..., 0])


def law_leading_index(lam: np.ndarray, c1: complex) -> int | None:
    """First basis index j >= 2 carrying a genuine law coefficient, else None.

    The law coefficient at index j scales like c1**(n-j+1), so the noise
    floor must be weighted per position before thresholding.
    """
    n = len(lam)
    for j in range(2, n + 1):
        if abs(lam[j - 1]) > LEAD_DETECT_TOL * abs(c1) ** (n - j + 1):
            return j
    return None


def explicit_iso_check(A: CyclicAlgebra, B: CyclicAlgebra, x, y) -> CheckReport:
    """Verify the basis map x^i -> y^i is an isomorphism, product by product.

    Builds the unique linear map f with f(x^i) = y^i and reports the largest
    residual of f(uv) - f(u)f(v) over all pairs (u, v) of A's standard basis
    vectors.  With F the matrix of f and L_u left multiplication by u, that
    is the intertwining identity F L_u = L_(f(u)) F: the residual of (u, v)
    is the largest entry of column v of the difference.  Only u = a can
    fail (``_map_checker`` says why), so the residuals are one row.  They
    are measured relative to the magnitude of the compared products
    (floored at one), so the verdict is scale-invariant: generators mapping
    between very differently scaled laws produce intermediate values far
    above unit size, and only the relative disagreement is meaningful.  A
    failed report's ``where`` is the worst basis pair (1, j), 1-based.  Raises
    NotAGeneratorError if either power basis is singular, naming x when
    both are.
    """
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    return _map_checker(A, B, y)(A.element(x)[None])[0]


def _map_checker(A: CyclicAlgebra, B: CyclicAlgebra, y):
    """``explicit_iso_check(A, B, x, y)`` on a stack of candidates x.

    The returned check takes an (m, n) stack and gives the reports of its
    candidates in order, up to and including the first that passes; each is
    bit for bit the report of that candidate alone.  It raises
    NotAGeneratorError at the first dependent candidate it reaches, so an
    earlier pass keeps a later dependent candidate from raising, and a
    dependent x is named before a dependent y.  y's side -- its power basis,
    its generator test and B's companion matrix -- is built once, so a
    search over many x pays for it once, and each step below is one numpy
    call for the whole stack.

    In A, left multiplication by a^i is zero for i >= 2; in B, left
    multiplication by w is w_1 L_b.  So at u = a the identity reads
    F L_a = F[0, 0] L_b F, and at u = a^(i+1), i >= 1, it reads
    0 = F[0, i] L_b F, which holds exactly: rows 2..n of PX and PY (the
    powers x^k and y^k, k >= 2) have first coordinate exactly 0, because
    the first row of a companion matrix is zero, so the LU solve pivots on
    row 0 with zero multipliers and F[0, 1:] = 0.  The residuals are thus
    one row, the column maxima of the u = a difference.  Each candidate
    takes O(n^2) memory.
    """
    eps = max(A.eps, B.eps)
    PY = _power_basis(B, y, eps)
    LA = A.companion()
    LB = B.companion()

    def check(xs: np.ndarray) -> list[CheckReport]:
        PX, independent = _power_bases(A, xs, eps)
        independent = independent.tolist()
        if not independent[0]:
            raise NotAGeneratorError("power basis of x is numerically dependent")
        if PY is None:
            raise NotAGeneratorError("power basis of y is numerically dependent")
        reached = independent.index(False) if False in independent else len(independent)
        # PY[None] is a stack of one matrix: numpy 1.x solves a 2-D b as vectors
        F = np.linalg.solve(PX[:reached], PY[None]).swapaxes(-1, -2)  # F @ PX.T = PY.T
        FL = F @ LA
        LBF = LB @ F
        f00 = np.abs(F[:, 0, 0])  # numpy's complex modulus, not Python's abs
        # fmax, like max over Python floats, passes over a NaN
        scale = np.fmax(np.fmax(1.0, np.max(np.abs(FL), axis=(1, 2))),
                        f00 * np.max(np.abs(LBF), axis=(1, 2)))
        residuals = np.max(np.abs(FL - F[:, :1, :1] * LBF), axis=1, keepdims=True)
        reports = CheckReport.each(residuals / scale[:, None, None], eps)
        for i, report in enumerate(reports):
            if report.passed:
                return reports[:i + 1]
        if reached < len(independent):
            raise NotAGeneratorError("power basis of x is numerically dependent")
        return reports

    return check


# Matrix entries in the largest stack of candidates a search checks at once:
# a stack holds _STACK_ENTRIES // n^2 of them, and at least one.  Stacking
# saves a dozen numpy calls per candidate, which pays while each call is
# short.  From n = 46 on a stack is one candidate: there a candidate's LAPACK
# work (about a millisecond at n = 64) dwarfs the calls, and memory stays
# O(n^2) per candidate.
_STACK_ENTRIES = 4096


def iso_by_search(A: CyclicAlgebra, B: CyclicAlgebra) -> bool:
    """Decide isomorphism by explicit generator search, no canonical forms.

    Every generator's law depends only on its leading coordinate, and scalar
    multiples of a realize every leading coordinate, so candidates of the
    form (c1 * omega) * a are exhaustive once c1 normalizes A's leading law
    coefficient and omega runs over the relevant roots of unity.  That law
    has its algebra's leading tail index, so algebras whose leading indices
    differ are not isomorphic.  Every candidate maps to the one y = cB * b,
    whose side of the map check is built once.  Candidates are checked in
    order, in stacks of at most ``_STACK_ENTRIES`` matrix entries (every
    search at n <= 16 is one stack; from n = 46 on each candidate is its
    own), and the search stops after the first stack holding one that
    passes.
    """
    if A.n != B.n:
        return False
    kA = _leading_tail_index(A)
    kB = _leading_tail_index(B)
    if kA != kB:
        return False
    if kA is None:
        # Two nilpotent algebras: the basis map a^i -> b^i must check out.
        return explicit_iso_check(A, B, A.generator(), B.generator()).passed
    cA = inverse_root(A.tail[kA - 2], A.n - kA + 1)
    cB = inverse_root(B.tail[kB - 2], B.n - kB + 1)
    check = _map_checker(A, B, cB * B.generator())
    scales = [cA * omega for omega in roots_of_unity(A.n - kA + 1)]
    size = max(1, _STACK_ENTRIES // A.n**2)
    return any(check(np.multiply.outer(scales[i:i + size], A.generator()))[-1].passed
               for i in range(0, len(scales), size))


def near_boundary(tail, eps: float = DEFAULT_EPS) -> bool:
    """True if any tail entry is nonzero yet within NEAR_BOUNDARY_FACTOR*eps of zero."""
    return any(0 < abs(t) <= NEAR_BOUNDARY_FACTOR * eps for t in tail)


def _leading_tail_index(A: CyclicAlgebra) -> int | None:
    # Deliberately re-derived from the raw tail rather than calling the
    # classification module's detector.
    for i, alpha in enumerate(A.tail, start=2):
        if abs(alpha) > A.eps:
            return i
    return None


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a seeded randomized agreement campaign."""

    passed: bool
    trials: int
    executed: int
    skipped_near_boundary: int
    law_checks: int  # trials whose law check recorded no failure
    iso_checks: int  # trials whose iso check recorded no failure
    max_law_deviation: float
    max_leibniz_residual: float
    max_cayley_residual: float
    failures: tuple[str, ...] = field(default_factory=tuple)


def fuzz(
    trials: int,
    dim_max: int = 5,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> FuzzReport:
    """Seeded campaign cross-checking oracles against the closed-form route.

    Per trial: build a random algebra (skipping near-boundary tails), check
    the Leibniz identity and the characteristic-polynomial annihilation
    (relative to max|L_a^n|), compare ``law_by_linear_solve`` against the
    law formula (relative to its largest coefficient) on a random generator
    with full random coordinates, and compare ``iso_by_search``
    against ``isomorphic`` on a partner algebra (alternately a
    deliberately isomorphic rebuild and an independent draw).  An oracle
    that raises NotAGeneratorError is recorded as the trial's failure.

    Trial t draws from its own stream, the seed's t-th spawned child, made
    when the trial starts, so the report is reproducible regardless of
    execution order and a large trial count costs nothing up front.
    """
    if trials < 0:
        raise ValueError("trial count must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {clipped_repr(seed)}")
    if trials > 0 and dim_max < 2:
        raise ValueError(f"dim_max must be at least 2, got {dim_max}")
    if trials > 0 and dim_max > 2**63 - 1:  # numpy draws dimensions as int64
        raise ValueError(f"dim_max must be at most 2**63 - 1, got {clipped_repr(dim_max)}")
    if trials > 0 and eps >= GENERATOR_SCALE_MIN:
        raise ValueError(f"tolerance must be below {GENERATOR_SCALE_MIN}, the smallest "
                         f"generator scale fuzz draws, got {clipped_repr(eps)}")

    failures: list[str] = []
    skipped = 0
    executed = 0
    law_checks = 0
    iso_checks = 0
    max_law_dev = 0.0
    max_leibniz = 0.0
    max_cayley = 0.0

    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        n = int(rng.integers(2, dim_max + 1))
        tail = _random_tail(rng, n, eps, adversarial=True)
        if near_boundary(tail, eps):
            skipped += 1
            continue
        executed += 1
        A = build(n, tail, eps)

        def describe(B: CyclicAlgebra | None = None) -> str:
            partner = "" if B is None else f", partner tail={format_tuple(B.tail)}"
            return f"trial {t} (seed {seed}): n={n}, tail={format_tuple(A.tail)}{partner}"

        leibniz = A.verify_leibniz()
        max_leibniz = max(max_leibniz, leibniz.residual)
        if not leibniz.passed:
            failures.append(f"{describe()}: leibniz identity failed at "
                            f"triple {leibniz.where}")

        cayley = A.cayley_hamilton_residual()
        max_cayley = max(max_cayley, cayley)
        if cayley > CAYLEY_TOL:
            failures.append(f"{describe()}: cayley-hamilton residual {cayley:.3e}")

        # Law agreement on a full random generator.
        c1 = _random_modulus(rng, GENERATOR_SCALE_MIN, 2.0)
        x = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x[0] = c1
        law_failures = len(failures)
        lam = law_by_linear_solve(A, x)
        if lam is None:
            failures.append(f"{describe()}: oracle rejected a genuine generator "
                            f"(c1={format_complex(c1)})")
        else:
            expected = np.zeros(n, dtype=complex)
            expected[1:] = embed_law(generator_law(A, c1), n)
            dev = float(np.max(np.abs(lam - expected)))
            max_law_dev = max(max_law_dev, dev)
            if dev > LAW_AGREEMENT_TOL * max(1.0, float(np.max(np.abs(expected)))):
                failures.append(f"{describe()}: law deviation {dev:.3e} "
                                f"(c1={format_complex(c1)})")
            lead = law_leading_index(lam, c1)
            expected_lead = _leading_tail_index(A)
            if lead != expected_lead:
                failures.append(f"{describe()}: solved law has leading index {lead}, "
                                f"type detection says {expected_lead}")
        law_checks += len(failures) == law_failures

        # Isomorphism agreement on a partner algebra.
        if t % 2 == 0:
            s = _random_modulus(rng, GENERATOR_SCALE_MIN, 2.0)
            partner_tail = embed_law(generator_law(A, s), n)
        else:
            partner_tail = _random_tail(rng, n, eps, adversarial=False)
        B = build(n, partner_tail, eps)
        canonical = isomorphic(A, B)
        try:
            searched = iso_by_search(A, B)
        except NotAGeneratorError as exc:
            failures.append(f"{describe(B)}: iso_by_search raised: {exc}")
            continue
        if searched != canonical:
            failures.append(f"{describe(B)}: iso_by_search={searched} but "
                            f"canonical comparison says {canonical}")
        else:
            iso_checks += 1

    return FuzzReport(
        passed=not failures,
        trials=trials,
        executed=executed,
        skipped_near_boundary=skipped,
        law_checks=law_checks,
        iso_checks=iso_checks,
        max_law_deviation=max_law_dev,
        max_leibniz_residual=max_leibniz,
        max_cayley_residual=max_cayley,
        failures=tuple(failures),
    )


def _random_modulus(rng: np.random.Generator, lo: float, hi: float) -> complex:
    modulus = lo * (hi / lo) ** rng.random()
    return modulus * np.exp(2j * np.pi * rng.random())


def _random_tail(
    rng: np.random.Generator, n: int, eps: float, adversarial: bool
) -> tuple[complex, ...]:
    """Random tail with moduli in [0.1, 3]; occasionally nilpotent.

    With ``adversarial`` set, a near-boundary entry of modulus in
    (0, NEAR_BOUNDARY_FACTOR*eps] is injected once in a while so the skip
    policy is exercised by the campaign itself.
    """
    tail = [0.0j] * (n - 1)
    if rng.random() >= 0.1:  # else nilpotent draw
        k = int(rng.integers(2, n + 1))
        for i in range(k, n + 1):
            if i == k or rng.random() > 0.3:
                tail[i - 2] = _random_modulus(rng, 0.1, 3.0)
    if adversarial and rng.random() < 0.05:
        position = int(rng.integers(0, n - 1))
        tail[position] = _random_modulus(rng, 0.05, NEAR_BOUNDARY_FACTOR) * eps
    return tuple(tail)
