"""Compare one item's exit code and JSON report with its known answer."""

from __future__ import annotations

import json
from fractions import Fraction

import groups as G


def check(expect, code, out):
    """None when the output matches `expect`, else what differs."""
    kind = expect["kind"]
    if kind == "error":
        return None if code == 1 else "exit code %d, expected 1" % code
    if code != 0:
        return "exit code %d" % code
    try:
        report = json.loads(out)
    except ValueError as exc:
        return "report is not JSON: %s" % exc
    try:
        return _CHECKS[kind](expect, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return "report does not have the documented layout: %r" % exc


def _differs(what, got, want):
    return None if got == want else "%s %r, expected %r" % (what, got, want)


def _classify(expect, report):
    payload = report["classification"]
    problem = (_differs("verdict", report["verdict"], expect["verdict"])
               or _differs("reason", payload.get("reason"), expect["reason"]))
    if problem or expect["verdict"] != "accepted":
        return problem
    for entry in payload["elements"]:
        if any(x != "0" for row in entry["conjugation_residual"] for x in row):
            return "nonzero conjugation residual"
    return None


def _cubulate(expect, report):
    stabilized = report["stabilized_group"]
    gens = [[[Fraction(x) for x in row] for row in m]
            for m in stabilized["point_generators"]]
    if any(x.denominator != 1 for m in gens for row in m for x in row):
        return "stabilized point generators are not integer matrices"
    gens = [tuple(tuple(int(x) for x in row) for row in m) for m in gens]
    order = len(G.closure(gens, stabilized["dimension"]))
    return (_differs("N", report["N"], expect["N"])
            or _differs("stabilized dimension", stabilized["dimension"],
                        report["N"])
            or _differs("stabilized order", order, expect["order"]))


def _validate(expect, report):
    v = report["validation"]
    return (_differs("order", v["point_group_order"], expect["order"])
            or _differs("element orders", v["element_orders"],
                        expect["element_orders"]))


def _catalog(expect, report):
    verdicts = [e["verdict"] for e in report["entries"]]
    return (_differs("accepted", verdicts.count("accepted"),
                     expect["accepted"])
            or _differs("rejected", verdicts.count("rejected"),
                        expect["rejected"]))


def _boundary(expect, report):
    b = report["boundary"]
    if not expect["finite"]:
        return _differs("verdict", b["verdict"], "symbolic")
    return (_differs("verdict", b["verdict"], "finite")
            or _differs("f-vector", b["f_vector"], expect["f_vector"]))


def _dual(expect, report):
    s = report["summary"]
    complex_ = report["complex"]
    for key in ("zero_cubes", "edges", "median_graph", "duality_round_trip"):
        if key in expect:
            problem = _differs(key, s[key], expect[key])
            if problem:
                return problem
    return (_differs("0-cubes listed", len(complex_["zero_cubes"]),
                     s["zero_cubes"])
            or _differs("edges listed", len(complex_["edges"]), s["edges"]))


_CHECKS = {"classify": _classify, "cubulate": _cubulate,
           "validate": _validate, "catalog": _catalog,
           "boundary": _boundary, "dual": _dual}
