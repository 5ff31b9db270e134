"""Command-line frontend.

Subcommands: validate, classify, cubulate, dual, boundary, catalog.
Exit code 0 means the computation ran to completion, including the case
where a group is rejected by the classifier (a rejection is an answer,
not a failure).  Exit code 1 is for bad input: unknown flags, missing
or malformed files, out-of-scope sizes.  Exit code 2 signals an
internal invariant failure and should be reported as a bug.

main(argv) may be called repeatedly in one process.  It builds its
argument parser on the first call and reuses it, so importing this
module builds none; argparse keeps no state between parses, and each
call reads its flags and $CUBECRYS_SEED afresh.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from cubecrys.boundary import atomic_boundary, parse_product, product_boundary
from cubecrys.crys import (
    load_catalog,
    load_group,
    group_to_json_dict,
    validate,
)
from cubecrys.decide import (
    HyperoctahedralWitness,
    is_hyperoctahedral,
)
from cubecrys.dual import (
    dual_complex,
    is_median_graph,
    load_wallspace,
)
from cubecrys.exactlin import (
    format_rational,
    json_text,
    matrix_to_json,
    write_json,
)
from cubecrys.walls import (
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    stabilize,
)

SEED_ENV = "CUBECRYS_SEED"
# A report-format constant, not a cost bound: larger duals are still
# enumerated and written, but their reports say "skipped (too many
# 0-cubes)" for the median and round-trip verdicts, and the dual-enum
# answers pin that wording.
MEDIAN_VERTEX_CAP = 2 ** 14


class CliInputError(ValueError):
    """Input that parses but cannot be served (exit code 1)."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for
    internal failures, so route errors through an exception instead."""

    def error(self, message):
        raise _UsageError(message)


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise CliInputError(
            "environment variable %s=%r is not an integer" % (SEED_ENV, raw))


def _sample_pairs(n: int, count: int, seed: int):
    rng = random.Random(seed)

    def point():
        return tuple(Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 8))
                     for _ in range(n))

    return [(point(), point()) for _ in range(count)]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report dict, human text lines)


def _cmd_validate(args):
    g = load_group(args.group_file)
    vr = validate(g)
    report = {
        "command": "validate",
        "input_digest": _digest_file(args.group_file),
        "validation": vr.to_json_dict(),
    }
    lines = [
        "group %r is a valid %d-dimensional crystallographic group"
        % (vr.name, vr.dimension),
        "point group order: %d" % vr.point_group_order,
        "element orders: %s" % (list(vr.element_orders),),
        "lattice determinant: %s" % vr.lattice_determinant,
    ]
    return report, lines


def _cmd_classify(args):
    g = load_group(args.group_file)
    result = is_hyperoctahedral(g)
    accepted = isinstance(result, HyperoctahedralWitness)
    verdict = "accepted" if accepted else "rejected"
    report = {
        "command": "classify",
        "input_digest": _digest_file(args.group_file),
        "group": g.name,
        "verdict": verdict,
    }
    if args.json:
        report["classification"] = (result.to_json_dict(g) if accepted
                                    else result.to_json_dict())
    lines = ["group %r: %s" % (g.name, verdict)]
    if accepted:
        lines.append("conjugator rows:")
        for row in matrix_to_json(result.conjugator):
            lines.append("  [%s]" % ", ".join(row))
        lines.append("all %d conjugation residuals are zero"
                     % len(result.iota))
    else:
        lines.append("reason: %s" % result.reason)
        lines.append("detail: %s" % json.dumps(result.detail,
                                               sort_keys=True))
    return report, lines


def _cmd_cubulate(args):
    g = load_group(args.group_file)
    validate(g)
    seed = _resolve_seed(args.seed)
    if args.use_witness_basis:
        result = is_hyperoctahedral(g)
        if not isinstance(result, HyperoctahedralWitness):
            raise CliInputError(
                "--use-witness-basis needs an accepted group, but %r is "
                "rejected (%s)" % (g.name, result.reason))
        basis = result.basis
        basis_source = "witness"
    else:
        basis = zip(*g.lattice_basis)
        basis_source = "lattice"
    fam = direction_class_count(g, basis)
    action = tuple(zip(g.point_elements(), induced_action_on_RN(g, fam)))
    stabilized = stabilize(g, fam)
    separation = check_linear_separation(
        g, fam, _sample_pairs(g.dimension, 100, seed))
    report = {
        "command": "cubulate",
        "input_digest": _digest_file(args.group_file),
        "group": g.name,
        "basis_source": basis_source,
        "seed": seed,
        "N": fam.class_count,
    }
    if args.json:
        report["wall_family"] = fam.to_json_dict()
        report["induced_action"] = [
            {"point_element": matrix_to_json(p), "image": s.to_json_dict()}
            for p, s in action]
        report["stabilized_group"] = group_to_json_dict(stabilized)
        report["linear_separation"] = separation.to_json_dict()
    lines = [
        "group %r, %s basis" % (g.name, basis_source),
        "wall direction classes: N = %d" % fam.class_count,
    ]
    for k, rep in enumerate(fam.classes):
        lines.append("  class %d: direction (%s)"
                     % (k, ", ".join(format_rational(e) for e in rep)))
    lines.append("induced signed permutations:")
    for p, s in action:
        lines.append("  %s -> perm %s signs %s"
                     % (matrix_to_json(p), list(s.perm), list(s.signs)))
    lines.append("stabilized group: %r (dimension %d)"
                 % (stabilized.name, stabilized.dimension))
    lines.append(
        "linear separation: %d pairs, worst upper-bound ratio %s, "
        "lower bound held (seed %d)"
        % (separation.pairs_checked,
           format_rational(separation.worst_ratio), seed))
    return report, lines


def _cmd_dual(args):
    ws = load_wallspace(args.walls_file)
    c = dual_complex(ws)
    summary = {
        "zero_cubes": c.vertex_count(),
        "edges": c.edge_count(),
        "walls": len(ws.walls),
    }
    # duality_check is is_median_graph on every CubeComplex, so one
    # verdict fills both fields.
    if c.vertex_count() <= MEDIAN_VERTEX_CAP:
        verdict = is_median_graph(c)
    else:
        verdict = "skipped (too many 0-cubes)"
    summary["median_graph"] = summary["duality_round_trip"] = verdict
    report = {
        "command": "dual",
        "input_digest": _digest_file(args.walls_file),
        "summary": summary,
    }
    lines = [
        "dual complex: %d 0-cubes, %d edges from %d walls"
        % (summary["zero_cubes"], summary["edges"], summary["walls"]),
        "median graph: %s" % summary["median_graph"],
        "duality round-trip: %s" % summary["duality_round_trip"],
    ]
    if args.json or args.out:
        report["complex"] = c.to_json_dict()
    if args.out:
        write_json(args.out, report["complex"])
        report["written"] = args.out
        lines.append("complex written to %s" % args.out)
    return report, lines


def _join_f_vector(factors) -> list:
    """f-vector of the join of the factors' finite boundaries.

    f-polynomials f(t) = 1 + sum f_i t^(i+1) multiply under joins, so
    this costs a product of short polynomials instead of enumerating
    every simplex; the constant term is dropped.
    """
    poly = [1]
    for f in factors:
        (part,) = atomic_boundary(f).parts
        factor = [1, *part.f_vector()]
        product = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        poly = product
    return poly[1:]


def _cmd_boundary(args):
    factors = parse_product(args.expression)
    report = {
        "command": "boundary",
        "input_digest": _digest_text(args.expression),
        "expression": args.expression,
        "factors": [str(f) for f in factors],
    }
    product = " * ".join(map(str, factors))
    if all(atomic_boundary(f).is_finite for f in factors):
        f_vector = _join_f_vector(factors)
        report["boundary"] = {"verdict": "finite", "f_vector": f_vector}
        if args.json:
            report["boundary"]["complex"] = (
                product_boundary(factors).as_complex().to_json_dict())
        lines = [
            "boundary of %s: finite complex" % product,
            "f-vector: %s" % (f_vector,),
        ]
    else:
        description = product_boundary(factors).describe()
        report["boundary"] = {
            "verdict": "symbolic",
            "description": description,
        }
        lines = ["boundary of %s: %s" % (product, description)]
    return report, lines


def _cmd_catalog(args):
    rows = []
    for g in load_catalog():
        result = is_hyperoctahedral(g)
        fam = direction_class_count(g, zip(*g.lattice_basis))
        if isinstance(result, HyperoctahedralWitness):
            verdict, reason = "accepted", ""
        else:
            verdict, reason = "rejected", result.reason
        rows.append({
            "name": g.name,
            "dimension": g.dimension,
            "point_group_order": g.point_group_order(),
            "verdict": verdict,
            "reason": reason,
            "N": fam.class_count,
        })
    report = {
        "command": "catalog",
        "input_digest": _digest_text("catalog"),
        "entries": rows,
    }
    header = "%-8s %3s %4s %-9s %2s %s" % ("name", "dim", "|P|", "verdict",
                                           "N", "reason")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("%-8s %3d %4d %-9s %2d %s"
                     % (r["name"], r["dimension"], r["point_group_order"],
                        r["verdict"], r["N"], r["reason"]))
    return report, lines


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cubecrys",
                     description="Exact tools for cubulating "
                                 "crystallographic groups.")
    common = _Parser(add_help=False)
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true",
                      help="emit the full machine-readable report")
    mode.add_argument("--text", action="store_true",
                      help="emit the human-readable summary (default)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a group file's structure data")
    p.add_argument("group_file")

    p = sub.add_parser("classify", parents=[common],
                       help="decide cubulability; print witness or "
                            "certificate")
    p.add_argument("group_file")

    p = sub.add_parser("cubulate", parents=[common],
                       help="wall direction classes, induced action, "
                            "stabilized group")
    p.add_argument("group_file")
    p.add_argument("--use-witness-basis", action="store_true",
                   help="use the classifier's basis instead of the lattice "
                        "basis (accepted groups only)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the separation sample pairs "
                        "(default: $%s or 0)" % SEED_ENV)

    p = sub.add_parser("dual", parents=[common],
                       help="dual cube complex of a wallspace file")
    p.add_argument("walls_file")
    p.add_argument("--out", default=None,
                   help="also write the complex to this path")

    p = sub.add_parser("boundary", parents=[common],
                       help="boundary of a product like 'Line*Line*HalfLine'")
    p.add_argument("expression")

    sub.add_parser("catalog", parents=[common],
                   help="classify every embedded catalog group")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "cubulate": _cmd_cubulate,
    "dual": _cmd_dual,
    "boundary": _cmd_boundary,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help path; preserve its code.
        return exc.code if isinstance(exc.code, int) else 0

    try:
        report, lines = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failures
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2

    if getattr(args, "json", False):
        print(json_text(report))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
