"""Command-line frontend.

Subcommands: validate, classify, cubulate, dual, boundary, catalog.
Exit code 0 means the computation ran to completion, including the case
where a group is rejected by the classifier (a rejection is an answer,
not a failure).  Exit code 1 is for bad input: unknown flags, missing
or malformed files, out-of-scope sizes.  Exit code 2 signals an
internal invariant failure and should be reported as a bug.  A stdout
closed by its reader (`cubecrys catalog --json | head -c 1`), before or
while a report streams out, also gives exit code 1, the code Python
itself exits with on EPIPE, with nothing written to stderr; so does
`--help`, at the top or after a subcommand, since help text goes out
through the same path as a report.

main(argv) may be called repeatedly in one process.  It builds its
argument parser on the first call and reuses it, so importing this
module builds none; argparse keeps no state between parses, and each
call reads its flags and $CUBECRYS_SEED afresh.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import random
import sys

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
    dump_json,
    format_rational,
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

    def print_help(self, file=None):
        """--help goes through _emit, as a report does: argparse's own
        write would swallow a closed pipe and exit 0."""
        if file is not None:
            return super().print_help(file)
        if _emit(self.format_help().rstrip("\n")):
            raise SystemExit(1)


def _load(loader, path: str):
    """(loader's value, sha256 of the bytes it parsed) for the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return loader(io.BytesIO(raw)), hashlib.sha256(raw).hexdigest()


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


def _emit(text: str = "", *, report=None) -> int:
    """Print text, or stream report's JSON, to stdout and flush it: exit
    code 0, or 1 when the reader has closed the pipe."""
    try:
        if report is None:
            print(text)
        else:
            dump_json(report, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


# Every sample pair is over c = 420, the lcm of the drawn denominators
# 1..7: _SCALE[d - 1] is 420 / d.
_SAMPLE_DENOMINATOR = 420
_SCALE = tuple(_SAMPLE_DENOMINATOR // d for d in range(1, 8))


def _sample_pairs(n: int, count: int, seed: int):
    """count pairs of points of Q^n, each as the triple (c, p, q) that
    walls.check_linear_separation reads: the points are p / c and q / c.

    The sample is the stream of random.Random(seed) read point after
    point, each coordinate as Fraction(randrange(-2000, 2001),
    randrange(1, 8)).  Those two randrange calls return getrandbits(12),
    drawn again while >= 4001, minus 2000, and getrandbits(3), drawn
    again while 7, plus 1; that is how the stream is read here, so no
    Fraction is built.  c is 420 for every pair, the lcm of 1..7, so a
    coordinate x / d is x * (420 / d) from a seven-entry table (often
    not the least common denominator): the separation report does not
    depend on c.
    """
    bits = random.Random(seed).getrandbits
    scale = _SCALE
    pairs = []
    for _ in range(count):
        ints = []
        for _ in range(2 * n):
            x = bits(12)
            while x >= 4001:
                x = bits(12)
            d = bits(3)
            while d == 7:
                d = bits(3)
            ints.append((x - 2000) * scale[d])
        pairs.append((_SAMPLE_DENOMINATOR, ints[:n], ints[n:]))
    return pairs


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its report dict under --json, else
# its human text lines, so neither mode builds the other's parts.


def _cmd_validate(args):
    g, digest = _load(load_group, args.group_file)
    vr = validate(g)
    if args.json:
        return {
            "command": "validate",
            "input_digest": digest,
            "validation": vr.to_json_dict(),
        }
    return [
        "group %r is a valid %d-dimensional crystallographic group"
        % (vr.name, vr.dimension),
        "point group order: %d" % vr.point_group_order,
        "element orders: %s" % (list(vr.element_orders),),
        "lattice determinant: %s" % vr.lattice_determinant,
    ]


def _cmd_classify(args):
    g, digest = _load(load_group, args.group_file)
    result = is_hyperoctahedral(g)
    accepted = isinstance(result, HyperoctahedralWitness)
    verdict = "accepted" if accepted else "rejected"
    if args.json:
        return {
            "command": "classify",
            "input_digest": digest,
            "group": g.name,
            "verdict": verdict,
            "classification": (result.to_json_dict(g) if accepted
                               else result.to_json_dict()),
        }
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
    return lines


def _cmd_cubulate(args):
    g, digest = _load(load_group, args.group_file)
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
    if args.json:
        return {
            "command": "cubulate",
            "input_digest": digest,
            "group": g.name,
            "basis_source": basis_source,
            "seed": seed,
            "N": fam.class_count,
            "wall_family": fam.to_json_dict(),
            "induced_action": [
                {"point_element": matrix_to_json(p),
                 "image": s.to_json_dict()}
                for p, s in action],
            "stabilized_group": group_to_json_dict(stabilized),
            "linear_separation": separation.to_json_dict(),
        }
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
    return lines


def _cmd_dual(args):
    ws, digest = _load(load_wallspace, args.walls_file)
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
    if args.json or args.out:
        complex_dict = c.to_json_dict()
    if args.out:
        write_json(args.out, complex_dict)
    if args.json:
        report = {
            "command": "dual",
            "input_digest": digest,
            "summary": summary,
            "complex": complex_dict,
        }
        if args.out:
            report["written"] = args.out
        return report
    lines = [
        "dual complex: %d 0-cubes, %d edges from %d walls"
        % (summary["zero_cubes"], summary["edges"], summary["walls"]),
        "median graph: %s" % verdict,
        "duality round-trip: %s" % verdict,
    ]
    if args.out:
        lines.append("complex written to %s" % args.out)
    return lines


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
    product = " * ".join(map(str, factors))
    if all(atomic_boundary(f).is_finite for f in factors):
        f_vector = _join_f_vector(factors)
        if not args.json:
            return ["boundary of %s: finite complex" % product,
                    "f-vector: %s" % (f_vector,)]
        boundary = {
            "verdict": "finite",
            "f_vector": f_vector,
            "complex": product_boundary(factors).as_complex().to_json_dict(),
        }
    else:
        description = product_boundary(factors).describe()
        if not args.json:
            return ["boundary of %s: %s" % (product, description)]
        boundary = {"verdict": "symbolic", "description": description}
    return {
        "command": "boundary",
        "input_digest": _digest_text(args.expression),
        "expression": args.expression,
        "factors": [str(f) for f in factors],
        "boundary": boundary,
    }


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
    if args.json:
        return {
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
    return lines


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help path; preserve its code (1 on a closed pipe).
        return exc.code if isinstance(exc.code, int) else 0

    try:
        out = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant failures
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2

    if args.json:
        return _emit(report=out)
    return _emit("\n".join(out))


if __name__ == "__main__":
    sys.exit(main())
