"""Command-line front door.

Subcommands: classify, iso, orbit, mul, verify, table, fuzz.  Exit codes
follow one contract everywhere: 0 for success or an affirmative verdict,
1 for a negative verdict or a failed verification (an oracle disagreement
included), 2 for usage or parse errors.  Output is purely a
function of the inputs and flags (no timestamps), so identical invocations
produce byte-identical output; the effective tolerance is echoed in every
header.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import NotAGeneratorError
from .classification import family_table, isomorphic, normalize, orbit
from .documents import DocumentError, load_algebra
from .oracle import fuzz, iso_by_search
from .scalars import DEFAULT_EPS, format_complex, parse_complex, snap


def _tuple_str(values) -> str:
    return "(" + ", ".join(format_complex(v) for v in values) + ")"


def _pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _header(eps: float) -> str:
    return f"tolerance: {eps:g}"


def cmd_classify(args) -> int:
    A = load_algebra(args.path, args.tolerance)
    form = normalize(A)
    lines = [
        _header(A.eps),
        f"dimension: {form.n}",
        f"class: {form.label}",
        f"law: {form.law()}",
        f"gamma: {_tuple_str(form.gamma)}",
    ]
    payload = {
        "tolerance": A.eps,
        "dimension": form.n,
        "class": str(form.label),
        "k": form.label.k,
        "law": form.law(),
        "gamma": _pairs(form.gamma),
    }
    _emit(args, lines, payload)
    return 0


def cmd_iso(args) -> int:
    A = load_algebra(args.path_a, args.tolerance)
    B = load_algebra(args.path_b, args.tolerance)
    verdict = isomorphic(A, B)
    if A.n != B.n:
        verdict_text = f"not isomorphic (dimension mismatch: {A.n} vs {B.n})"
    else:
        verdict_text = "isomorphic" if verdict else "not isomorphic"
    lines = [_header(max(A.eps, B.eps)), f"verdict: {verdict_text}"]
    payload = {
        "tolerance": max(A.eps, B.eps),
        "isomorphic": verdict,
        "verdict": verdict_text,
    }
    agreement = None
    if args.check:
        try:
            searched = iso_by_search(A, B)
        except NotAGeneratorError as exc:
            searched = None
            lines.append(f"search oracle: FAILED ({exc})")
            payload["oracle_error"] = str(exc)
        else:
            lines.append(
                "search oracle: agrees" if searched == verdict
                else f"search oracle: DISAGREES (search says {searched})"
            )
        agreement = searched == verdict
        payload["oracle_agrees"] = agreement
        payload["oracle_isomorphic"] = searched
    _emit(args, lines, payload)
    return 0 if verdict and agreement is not False else 1


def cmd_orbit(args) -> int:
    A = load_algebra(args.path, args.tolerance)
    form = normalize(A)
    if form.label.is_nilpotent:
        lines = [_header(A.eps), "orbit undefined for nilpotent algebra"]
        _emit(args, lines, {"tolerance": A.eps, "error": "orbit undefined for nilpotent algebra"})
        return 1
    members = [tuple(snap(g, A.eps) for g in m) for m in orbit(form.gamma, A.eps)]
    group_order = A.n - form.label.k + 1
    lines = [
        _header(A.eps),
        f"dimension: {form.n}",
        f"class: {form.label}",
        f"orbit members: {len(members)} (group order {group_order})",
    ]
    for i, member in enumerate(members):
        marker = "  [canonical]" if i == 0 else ""
        lines.append(f"  {_tuple_str(member)}{marker}")
    payload = {
        "tolerance": A.eps,
        "dimension": form.n,
        "k": form.label.k,
        "group_order": group_order,
        "members": [_pairs(m) for m in members],
        "canonical": _pairs(members[0]),
    }
    _emit(args, lines, payload)
    return 0


def cmd_mul(args) -> int:
    A = load_algebra(args.path, args.tolerance)
    x = A.element([parse_complex(c) for c in args.x.split(",")])
    y = A.element([parse_complex(c) for c in args.y.split(",")])
    product = A.multiply(x, y)
    lines = [_header(A.eps), f"product: {_tuple_str(product)}"]
    _emit(args, lines, {"tolerance": A.eps, "product": _pairs(product)})
    return 0


def cmd_verify(args) -> int:
    A = load_algebra(args.path, args.tolerance)
    report = A.verify_leibniz()
    cayley = A.cayley_hamilton_residual()
    cayley_ok = cayley <= A.eps
    leibniz_text = (
        f"leibniz: pass (max residual {report.max_residual:.3e})"
        if report.passed
        else f"leibniz: FAIL (max residual {report.max_residual:.3e} "
        f"at triple {report.worst_triple})"
    )
    cayley_text = (
        f"cayley-hamilton: {'pass' if cayley_ok else 'FAIL'} (residual {cayley:.3e})"
    )
    lines = [_header(A.eps), f"dimension: {A.n}", leibniz_text, cayley_text]
    payload = {
        "tolerance": A.eps,
        "dimension": A.n,
        "leibniz_passed": report.passed,
        "leibniz_residual": report.max_residual,
        "cayley_passed": cayley_ok,
        "cayley_residual": cayley,
    }
    _emit(args, lines, payload)
    return 0 if report.passed and cayley_ok else 1


def cmd_table(args) -> int:
    families = family_table(args.dimension)
    eps = args.tolerance if args.tolerance is not None else DEFAULT_EPS
    lines = [_header(eps), f"classification families for dimension {args.dimension}:"]
    for i, family in enumerate(families, start=1):
        detail = ""
        if family.parameters:
            plural = "s" if family.parameters > 1 else ""
            detail = (
                f"  [{family.parameters} parameter{plural}, "
                f"orbit group order {family.orbit_order}]"
            )
        lines.append(f"  {i}. {family.label}: {family.law}{detail}")
    payload = {
        "tolerance": eps,
        "dimension": args.dimension,
        "families": [
            {
                "k": f.label.k,
                "law": f.law,
                "parameters": f.parameters,
                "orbit_order": f.orbit_order,
            }
            for f in families
        ],
    }
    _emit(args, lines, payload)
    return 0


def cmd_fuzz(args) -> int:
    eps = args.tolerance if args.tolerance is not None else DEFAULT_EPS
    report = fuzz(args.trials, dim_max=args.dim_max, seed=args.seed, eps=eps)
    lines = [
        _header(eps),
        f"fuzz campaign: trials={args.trials} dim-max={args.dim_max} seed={args.seed}",
        report.summary(),
    ]
    if not report.passed:
        lines.append(
            "reproduce with: cyclic-leibniz fuzz "
            f"--trials {args.trials} --dim-max {args.dim_max} "
            f"--seed {args.seed} --tolerance {eps:g}"
        )
    payload = {
        "tolerance": eps,
        "trials": report.trials,
        "executed": report.executed,
        "skipped_near_boundary": report.skipped_near_boundary,
        "law_checks": report.law_checks,
        "iso_checks": report.iso_checks,
        "max_law_deviation": report.max_law_deviation,
        "max_leibniz_residual": report.max_leibniz_residual,
        "max_cayley_residual": report.max_cayley_residual,
        "passed": report.passed,
        "failures": list(report.failures),
    }
    _emit(args, lines, payload)
    return 0 if report.passed else 1


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
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", parents=[common],
                       help="decide whether two algebras are isomorphic")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--check", action="store_true",
                   help="also run the independent generator-search oracle")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("orbit", parents=[common],
                       help="list the canonical tuple's root-of-unity orbit")
    p.add_argument("path")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("mul", parents=[common],
                       help="multiply two elements given by coordinates")
    p.add_argument("path")
    p.add_argument("x", help="comma-separated coordinates of x, e.g. '1,0,2i'")
    p.add_argument("y", help="comma-separated coordinates of y")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify the Leibniz identity and the "
                            "characteristic-polynomial annihilation")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="print the classification families of a dimension")
    p.add_argument("dimension", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fuzz", parents=[common],
                       help="randomized agreement campaign between the "
                            "classification and the brute-force oracle")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.tolerance is not None and not args.tolerance > 0:
        print(f"error: tolerance must be positive, got {args.tolerance}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
