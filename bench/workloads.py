"""Seeded inputs, timed operations and output checks of the benchmark workloads.

Each workload is a class with three parts:

* ``inputs()`` yields one op's inputs at a time from ``random.Random(seed)``;
  it runs outside the timed span, so drawing a partner or writing a document
  costs the op nothing.
* ``run(inp, calls)`` is the timed op.  Every call into the library goes
  through ``calls``, which holds either the plain functions or traced
  wrappers of them, so the traced run times the same code as the untraced one.
* ``check(inp, out)`` returns the failure kinds found in the op's output, an
  empty list when every check passes.  It runs outside the timed span and
  compares against an expectation fixed by how the input was generated.

All three workloads draw dimensions from ``N_MIX``.  The n = 12 and n = 16
draws stay in the mix on purpose: they are where the oracle's power-basis
rank test misjudges genuine generators, and the benchmark tallies those ops
by failure kind rather than skipping them.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from cyclic_leibniz import (
    build,
    embed_law,
    generator_law,
    isomorphic,
    iso_by_search,
    law_by_linear_solve,
    normalize,
    orbit,
    parse_algebra_document,
)
from cyclic_leibniz.algebra import CyclicAlgebra
from cyclic_leibniz.oracle import CAYLEY_TOL, LAW_AGREEMENT_TOL

N_MIX = (3, 5, 8, 12, 16)

# Failure kinds of the known numerical defects.  They are tallied in the
# report and the per-layer failure counts, not in the result line's
# ``failed``, and do not make a run incorrect; any other failure does both.
#
# * Canonical forms are snapped to the eps grid, so an orbit entry within
#   rounding error of a half-way point snaps to either side, and
#   ``isomorphic`` can then call an isomorphic pair not isomorphic (never the
#   reverse).
# * The oracle's power-basis rank test and scale-relative map check degrade
#   like |c|^(n-1) for a generator scale c: mostly at n >= 12, and at n = 8
#   when the scale is large.  The CLI shows this as ``iso --check`` exiting 2.
# * The Cayley-Hamilton residual is judged against an absolute tolerance,
#   which powers of the companion matrix outgrow at n = 16.
KNOWN_DEFECT_KINDS = frozenset({
    "iso_false_negative",
    "not_a_generator",
    "generator_rejected",
    "disagreement",
    "law_deviation",
    "cayley_exceeded",
    "iso_check.exit1",
    "iso_check.exit2",
    "verify.exit1",
})

# Every library function a workload calls, by the layer name its per-layer
# metrics carry.  The traced run wraps exactly these.
LAYER_FUNCTIONS = {
    "documents.parse_algebra_document": parse_algebra_document,
    "classification.normalize": normalize,
    "classification.orbit": orbit,
    "classification.isomorphic": isomorphic,
    "algebra.build": build,
    "algebra.verify_leibniz": CyclicAlgebra.verify_leibniz,
    "algebra.cayley_hamilton_residual": CyclicAlgebra.cayley_hamilton_residual,
    "oracle.law_by_linear_solve": law_by_linear_solve,
    "oracle.iso_by_search": iso_by_search,
}


# -- seeded draws ------------------------------------------------------------

def random_scalar(rng: random.Random, lo: float, hi: float) -> complex:
    """Log-uniform modulus in [lo, hi], uniform phase."""
    return lo * (hi / lo) ** rng.random() * cmath.exp(2j * math.pi * rng.random())


def random_tail(rng: random.Random, n: int) -> tuple[complex, ...]:
    """A tail (alpha_2, ..., alpha_n) with no entry near the type boundary.

    One draw in ten is nilpotent.  Otherwise the type index k is uniform in
    2..n, alpha_k is nonzero, and each later entry is zero with probability
    0.3.  Nonzero moduli lie in [0.1, 3].
    """
    tail = [0j] * (n - 1)
    if rng.random() >= 0.1:
        k = rng.randint(2, n)
        for i in range(k, n + 1):
            if i == k or rng.random() >= 0.3:
                tail[i - 2] = random_scalar(rng, 0.1, 3.0)
    return tuple(tail)


def leading_index(tail) -> int | None:
    """The type index of a generated tail: its first nonzero entry, or None."""
    for i, alpha in enumerate(tail, start=2):
        if alpha != 0:
            return i
    return None


def expected_isomorphic(tail_a, tail_b) -> bool:
    """Verdict for two independently drawn tails of one dimension.

    Nonzero entries are continuous random draws, so two such tails are
    isomorphic exactly when they share the leading index (or are both zero)
    and neither has a nonzero entry after it.
    """
    k = leading_index(tail_a)
    if k != leading_index(tail_b):
        return False
    return k is None or not any(tail_a[k - 1:]) and not any(tail_b[k - 1:])


def draw_pair(rng: random.Random, index: int, n: int):
    """A tail, a partner tail and whether they are isomorphic.

    Even ops take the isomorphic rebuild through a rescaled generator; odd
    ops take an independent draw.
    """
    tail = random_tail(rng, n)
    if index % 2 == 0:
        s = random_scalar(rng, 0.5, 2.0)
        return tail, embed_law(generator_law(build(n, tail), s), n), True
    partner = random_tail(rng, n)
    return tail, partner, expected_isomorphic(tail, partner)


def document(n: int, tail) -> dict:
    return {"dimension": n, "tail": [[t.real, t.imag] for t in tail]}


def class_line(tail) -> str:
    k = leading_index(tail)
    return "class: nilpotent" if k is None else f"class: type {k}"


# -- workloads ---------------------------------------------------------------

class ClassifyStream:
    """Parse two documents, normalize the first, enumerate its orbit, compare."""

    name = "classify_stream"
    baseline_every = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            n = rng.choice(N_MIX)
            tail, partner, expected = draw_pair(rng, index, n)
            yield {
                "n": n,
                "tail": tail,
                "doc_a": document(n, tail),
                "doc_b": document(n, partner),
                "expected": expected,
            }
            index += 1

    @staticmethod
    def run(inp, calls):
        A = calls.parse_algebra_document(inp["doc_a"])
        B = calls.parse_algebra_document(inp["doc_b"])
        form = calls.normalize(A)
        members = None if form.label.is_nilpotent else calls.orbit(form.gamma)
        return form, members, calls.isomorphic(A, B)

    @staticmethod
    def check(inp, out) -> list[str]:
        form, _, verdict = out
        kinds = []
        if form.label.k != leading_index(inp["tail"]):
            kinds.append("type_label")
        again = normalize(form.as_algebra())
        if again.label != form.label or any(
            abs(a - b) > 1e-9 for a, b in zip(again.gamma, form.gamma)
        ):
            kinds.append("normalize_roundtrip")
        if verdict != inp["expected"]:
            kinds.append("iso_false_negative" if inp["expected"] else "iso_false_positive")
        return kinds


class OracleAudit:
    """One fuzz-style trial of the brute-force route, no classification code."""

    name = "oracle_audit"
    baseline_every = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            n = rng.choice(N_MIX)
            tail, partner, expected = draw_pair(rng, index, n)
            c1 = random_scalar(rng, 0.5, 2.0)
            x = np.array(
                [c1] + [0.35 * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for _ in range(n - 1)]
            )
            yield {
                "n": n,
                "tail": tail,
                "partner": build(n, partner),
                "expected": expected,
                "x": x,
                "c1": c1,
            }
            index += 1

    @staticmethod
    def run(inp, calls):
        A = calls.build(inp["n"], inp["tail"])
        leibniz = calls.verify_leibniz(A)
        cayley = calls.cayley_hamilton_residual(A)
        law = calls.law_by_linear_solve(A, inp["x"])
        return A, leibniz, cayley, law, calls.iso_by_search(A, inp["partner"])

    @staticmethod
    def check(inp, out) -> list[str]:
        A, leibniz, cayley, law, searched = out
        kinds = []
        if not leibniz.passed:
            kinds.append("leibniz_failed")
        if cayley > CAYLEY_TOL:
            kinds.append("cayley_exceeded")
        if law is None:
            kinds.append("generator_rejected")
        else:
            expected = np.zeros(A.n, dtype=complex)
            expected[1:] = embed_law(generator_law(A, inp["c1"]), A.n)
            if float(np.max(np.abs(law - expected))) > LAW_AGREEMENT_TOL:
                kinds.append("law_deviation")
        if searched != inp["expected"]:
            kinds.append("disagreement")
        return kinds


ROTATION = ("classify", "iso_check", "orbit", "verify", "table", "mul")


class CliCold:
    """One ``python -m cyclic_leibniz`` process per op, rotating subcommands."""

    name = "cli_cold"
    baseline_every = len(ROTATION)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        rng = random.Random(self.seed)
        doc_a = self.workdir / "a.json"
        doc_b = self.workdir / "b.json"
        index = 0
        while True:
            sub = ROTATION[index % len(ROTATION)]
            n = rng.choice(N_MIX)
            tail, partner, expected = draw_pair(rng, index // len(ROTATION), n)
            doc_a.write_text(json.dumps(document(n, tail)))
            inp = {"n": n, "sub": sub, "exit": 0}
            if sub == "classify":
                inp["argv"] = ["classify", str(doc_a)]
                inp["lines"] = [class_line(tail)]
            elif sub == "iso_check":
                doc_b.write_text(json.dumps(document(n, partner)))
                inp["argv"] = ["iso", str(doc_a), str(doc_b), "--check"]
                inp["exit"] = 0 if expected else 1
                verdict = "isomorphic" if expected else "not isomorphic"
                inp["lines"] = [f"verdict: {verdict}", "search oracle: agrees"]
            elif sub == "orbit":
                inp["argv"] = ["orbit", str(doc_a)]
                if leading_index(tail) is None:
                    inp["exit"] = 1
                    inp["lines"] = ["orbit undefined for nilpotent algebra"]
                else:
                    inp["lines"] = [class_line(tail)]
            elif sub == "verify":
                inp["argv"] = ["verify", str(doc_a)]
                inp["lines"] = ["leibniz: pass", "cayley-hamilton: pass"]
            elif sub == "table":
                inp["argv"] = ["table", str(n)]
                inp["lines"] = [
                    f"classification families for dimension {n}:",
                    f"  {n}. type 2:",
                ]
            else:
                x = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(n - 1)]
                y = [rng.randint(0, 3) for _ in range(n)]
                inp["argv"] = ["mul", str(doc_a), _coords(x), _coords(y)]
                inp["lines"] = ["product: ("]
                inp["product"] = _product(tail, x, y)
            yield inp
            index += 1

    @staticmethod
    def run(inp, calls):
        return calls.cli(inp["argv"])

    @staticmethod
    def check(inp, out) -> list[str]:
        code, stdout = out
        if code != inp["exit"]:
            return [f"{inp['sub']}.exit{code}"]
        lines = stdout.splitlines()
        for prefix in inp["lines"]:
            if not any(line.startswith(prefix) for line in lines):
                return [f"{inp['sub']}.output"]
        if "product" in inp:
            got = _parse_product(lines)
            want = inp["product"]
            if got is None or len(got) != len(want) or any(
                abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)
            ):
                return ["mul.output"]
        return []


def cli_env() -> dict:
    """The environment of a child interpreter: the package comes from ``src``."""
    return dict(os.environ, PYTHONPATH="src")


def cli_runner(root: Path):
    """A function running one CLI call from ``root`` and returning (code, stdout)."""
    env = cli_env()

    def cli(argv):
        done = subprocess.run(
            [sys.executable, "-m", "cyclic_leibniz", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout

    return cli


def _coords(values) -> str:
    return ",".join(str(v) for v in values)


def _product(tail, x, y) -> list[complex]:
    """x*y = x_1 * L_a(y), written out from the companion matrix of the tail."""
    n = len(y)
    Ly = [0j] + [y[i - 1] + tail[i - 1] * y[n - 1] for i in range(1, n)]
    return [x[0] * v for v in Ly]


def _parse_product(lines) -> list[complex] | None:
    for line in lines:
        if line.startswith("product: (") and line.endswith(")"):
            body = line[len("product: ("):-1]
            return [complex(part.replace("i", "j")) for part in body.split(", ")]
    return None


WORKLOADS = {w.name: w for w in (ClassifyStream, OracleAudit, CliCold)}
