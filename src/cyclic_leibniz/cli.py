"""Command-line front door.

Subcommands: classify, iso, orbit, mul, verify, table, fuzz.  Each ``cmd_*``
returns (exit code, effective tolerance, record); ``--json`` prints the
command's record; the human text is rendered from it by ``*_lines``.  Exit
codes: 0 for success or an affirmative verdict, 1 for a negative verdict or
a failed verification (an oracle disagreement included), 2 for usage or
parse errors and for work that overflows or runs out of memory, 141 when
the reader of standard output closes it early (``| head``).  Output is
purely a function of the inputs and flags, so identical invocations produce
byte-identical output; the effective tolerance is in every header and
record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .algebra import NotAGeneratorError
from .classification import TypeLabel, family_table, isomorphic, normalize, orbit
from .documents import load_algebra
from .oracle import fuzz, iso_by_search
from .scalars import DEFAULT_EPS, checked_tolerance, format_tuple, parse_complex, snap

# 128 + SIGPIPE: what a shell reports for a writer a closed pipe ends
EXIT_BROKEN_PIPE = 141


def _json_pair(value) -> list[float]:
    # records keep complex values; JSON gets [re, im], where + 0.0 turns -0.0 into 0.0
    if not isinstance(value, complex):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [value.real + 0.0, value.imag + 0.0]


def _tolerance_text(eps: float) -> str:
    """eps as ``:g`` writes it if that reads back as eps, else its shortest exact text."""
    text = f"{eps:g}"
    return text if float(text) == eps else repr(eps)


def _flag_eps(args) -> float:
    """Tolerance of a command that reads no document: the flag's, else the default."""
    return DEFAULT_EPS if args.tolerance is None else args.tolerance


def cmd_classify(args) -> tuple[int, float, dict]:
    A = load_algebra(args.path, args.tolerance)
    form = normalize(A)
    return 0, A.eps, {
        "dimension": form.n,
        "class": str(form.label),
        "k": form.label.k,
        "law": form.law(),
        "gamma": form.gamma,
    }


def classify_lines(r: dict, args) -> list[str]:
    return [
        f"dimension: {r['dimension']}",
        f"class: {r['class']}",
        f"law: {r['law']}",
        f"gamma: {format_tuple(r['gamma'])}",
    ]


def cmd_iso(args) -> tuple[int, float, dict]:
    A = load_algebra(args.path_a, args.tolerance)
    B = load_algebra(args.path_b, args.tolerance)
    verdict = isomorphic(A, B)
    if A.n != B.n:
        verdict_text = f"not isomorphic (dimension mismatch: {A.n} vs {B.n})"
    else:
        verdict_text = "isomorphic" if verdict else "not isomorphic"
    record = {"isomorphic": verdict, "verdict": verdict_text}
    if args.check:
        try:
            searched = iso_by_search(A, B)
        except NotAGeneratorError as exc:
            searched = None
            record["oracle_error"] = str(exc)
        record["oracle_agrees"] = searched == verdict
        record["oracle_isomorphic"] = searched
    code = 0 if verdict and record.get("oracle_agrees") is not False else 1
    return code, max(A.eps, B.eps), record


def iso_lines(r: dict, args) -> list[str]:
    lines = [f"verdict: {r['verdict']}"]
    if "oracle_error" in r:
        lines.append(f"search oracle: FAILED ({r['oracle_error']})")
    elif "oracle_agrees" in r:
        lines.append(
            "search oracle: agrees" if r["oracle_agrees"]
            else f"search oracle: DISAGREES (search says {r['oracle_isomorphic']})"
        )
    return lines


def cmd_orbit(args) -> tuple[int, float, dict]:
    A = load_algebra(args.path, args.tolerance)
    form = normalize(A)
    if form.label.is_nilpotent:
        return 1, A.eps, {"error": "orbit undefined for nilpotent algebra"}
    members = [tuple(snap(g, A.eps) for g in m) for m in orbit(form.gamma, A.eps)]
    return 0, A.eps, {
        "dimension": form.n,
        "k": form.label.k,
        "group_order": A.n - form.label.k + 1,
        "members": members,
        "canonical": members[0],
    }


def orbit_lines(r: dict, args) -> list[str]:
    if "error" in r:
        return [r["error"]]
    lines = [
        f"dimension: {r['dimension']}",
        f"class: {TypeLabel(r['k'])}",
        f"orbit members: {len(r['members'])} (group order {r['group_order']})",
    ]
    for i, member in enumerate(r["members"]):
        marker = "  [canonical]" if i == 0 else ""
        lines.append(f"  {format_tuple(member)}{marker}")
    return lines


def cmd_mul(args) -> tuple[int, float, dict]:
    A = load_algebra(args.path, args.tolerance)
    x = [parse_complex(c) for c in args.x.split(",")]
    y = [parse_complex(c) for c in args.y.split(",")]
    with np.errstate(over="ignore", invalid="ignore"):
        product = A.multiply(x, y)
    if not np.isfinite(product).all():
        raise ValueError("product is out of floating-point range")
    return 0, A.eps, {"product": product.tolist()}


def mul_lines(r: dict, args) -> list[str]:
    return [f"product: {format_tuple(r['product'])}"]


def cmd_verify(args) -> tuple[int, float, dict]:
    A = load_algebra(args.path, args.tolerance)
    with np.errstate(over="ignore", invalid="ignore"):
        report = A.verify_leibniz()
        cayley = A.cayley_hamilton_residual()
    if not np.isfinite([report.residual, cayley]).all():
        raise ValueError("verification residuals are out of floating-point range")
    record = {
        "dimension": A.n,
        "leibniz_passed": report.passed,
        "leibniz_residual": report.residual,
        "cayley_passed": cayley <= A.eps,
        "cayley_residual": cayley,
    }
    if not report.passed:
        record["leibniz_worst_triple"] = report.where
    code = 0 if report.passed and record["cayley_passed"] else 1
    return code, A.eps, record


def verify_lines(r: dict, args) -> list[str]:
    leibniz = f"max residual {r['leibniz_residual']:.3e}"
    if not r["leibniz_passed"]:
        leibniz += f" at triple {r['leibniz_worst_triple']}"
    return [
        f"dimension: {r['dimension']}",
        f"leibniz: {'pass' if r['leibniz_passed'] else 'FAIL'} ({leibniz})",
        f"cayley-hamilton: {'pass' if r['cayley_passed'] else 'FAIL'} "
        f"(residual {r['cayley_residual']:.3e})",
    ]


def cmd_table(args) -> tuple[int, float, dict]:
    families = family_table(args.dimension)
    return 0, _flag_eps(args), {"dimension": args.dimension, "families": families}


def table_lines(r: dict, args) -> list[str]:
    lines = [f"classification families for dimension {r['dimension']}:"]
    for i, family in enumerate(r["families"], start=1):
        detail = ""
        if family["parameters"]:
            plural = "s" if family["parameters"] > 1 else ""
            detail = (
                f"  [{family['parameters']} parameter{plural}, "
                f"orbit group order {family['orbit_order']}]"
            )
        lines.append(f"  {i}. {TypeLabel(family['k'])}: {family['law']}{detail}")
    return lines


def cmd_fuzz(args) -> tuple[int, float, dict]:
    eps = _flag_eps(args)
    report = fuzz(args.trials, dim_max=args.dim_max, seed=args.seed, eps=eps)
    return 0 if report.passed else 1, eps, asdict(report)


def fuzz_lines(r: dict, args) -> list[str]:
    lines = [
        f"fuzz campaign: trials={r['trials']} dim-max={args.dim_max} seed={args.seed}",
        f"trials requested:      {r['trials']}",
        f"trials executed:       {r['executed']}",
        f"skipped near boundary: {r['skipped_near_boundary']}",
        f"law agreements:        {r['law_checks']}"
        f" (max deviation {r['max_law_deviation']:.3e})",
        f"iso agreements:        {r['iso_checks']}",
        f"max leibniz residual:  {r['max_leibniz_residual']:.3e}",
        f"max cayley residual:   {r['max_cayley_residual']:.3e}",
        f"verdict:               {'pass' if r['passed'] else 'FAIL'}",
        *(f"failure: {failure}" for failure in r["failures"]),
    ]
    if not r["passed"]:
        lines.append(
            "reproduce with: cyclic-leibniz fuzz "
            f"--trials {r['trials']} --dim-max {args.dim_max} "
            f"--seed {args.seed} --tolerance {_tolerance_text(r['tolerance'])}"
        )
    return lines


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="EPS",
        help="absolute comparison tolerance (default: input file's, else 1e-9)",
    )
    common.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    parser = argparse.ArgumentParser(
        prog="cyclic-leibniz",
        description="Classify complex cyclic Leibniz algebras and decide isomorphism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="canonical form of an algebra document")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify, lines=classify_lines)

    p = sub.add_parser("iso", parents=[common],
                       help="decide whether two algebras are isomorphic")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--check", action="store_true",
                   help="also run the independent generator-search oracle")
    p.set_defaults(func=cmd_iso, lines=iso_lines)

    p = sub.add_parser("orbit", parents=[common],
                       help="list the canonical tuple's root-of-unity orbit")
    p.add_argument("path")
    p.set_defaults(func=cmd_orbit, lines=orbit_lines)

    p = sub.add_parser("mul", parents=[common],
                       help="multiply two elements given by coordinates")
    p.add_argument("path")
    p.add_argument("x", help="comma-separated coordinates of x, e.g. '1,0,2i'; "
                             "write -- before x if x or y starts with '-'")
    p.add_argument("y", help="comma-separated coordinates of y")
    p.set_defaults(func=cmd_mul, lines=mul_lines)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify the Leibniz identity and the "
                            "characteristic-polynomial annihilation")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify, lines=verify_lines)

    p = sub.add_parser("table", parents=[common],
                       help="print the classification families of a dimension")
    p.add_argument("dimension", type=int)
    p.set_defaults(func=cmd_table, lines=table_lines)

    p = sub.add_parser("fuzz", parents=[common],
                       help="randomized agreement campaign between the "
                            "classification and the brute-force oracle")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz, lines=fuzz_lines)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # table and fuzz --trials 0 build no algebra that would check the flag
        if args.tolerance is not None:
            checked_tolerance(args.tolerance)
        code, eps, record = args.func(args)
    except (ValueError, MemoryError) as exc:
        # out of memory, like an overflow, means the work was never done
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    record["tolerance"] = eps
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True, default=_json_pair))
    else:
        print("\n".join([f"tolerance: {_tolerance_text(eps)}", *args.lines(record, args)]))
    return code


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()  # inside the try: a closed pipe fails here for short output
    except BrokenPipeError:
        # the reader left (``| head``): point stdout at devnull so the exit-time
        # flush of what is still buffered fails no more, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
