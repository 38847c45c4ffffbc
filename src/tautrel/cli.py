"""Command-line front end.

``verify``, ``check-pushforward`` and ``reduce --mode zero-test`` end in one
vanishing check and take its budgets; the other commands and modes report
their budgets as null.  Exit codes: 0 when the requested fact is proved (or
the command just computes output), 2 when a check is unknown, finds a
nonzero integral or exceeds its relation budget, 1 on usage or internal
errors.  Reports are deterministic apart from the timing field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from collections.abc import Iterator

from .graphs import EXTRA
from .expressions import (
    _coefficient_json,
    _listed,
    _render,
    _term_order,
    _terms_json,
    parse_bracket,
    render_bracket,
    render_latex,
)
from .pushforward import forget_frozen_legs, string_table
from .treeclass import acceptable_assignments, enumerate_shapes, weighted_tree_class
from .reduce import (
    DEFAULT_ROUNDS,
    MAX_RELATIONS,
    _pairings,
    _timed,
    eliminate_all_psi,
    pair_with_psi_monomials,
    span_zero_test,
)

SCHEMA = 1

# Seconds per stage of a vanishing check and of the class assembly before it,
# reported under "timing"; a stage that does not run stays 0.
STAGES = ("assemble_s", "psi_s", "pair_s", "closure_s", "solve_s")
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _weights(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("weights must look like 2,1")


def _positive(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, not %r" % text)
    return value


def _format_expression(expr, fmt):
    if fmt == "json":
        return _terms_json(expr.ambient, expr.items())
    return render_latex(expr) if fmt == "latex" else render_bracket(expr)


def _certificate_json(expr, cert):
    """The certificate as JSON.  The target and each relation are written as
    ``expression_to_json`` writes them, on the ambient of the target ``expr``;
    the target's terms and the relations are iterators, each item made when
    it is written."""
    out = {"reason": cert.reason, "rounds": cert.budget_spent}
    if cert.reason == "wdvv-span":
        out["target"] = _format_expression(expr, "json")
        out["combination"] = (
            {"coefficient": _coefficient_json(c),
             "relation": _listed(_terms_json(expr.ambient, (
                 (key, rel[key]) for key in sorted(rel, key=_term_order))))}
            for c, rel in cert.combination)
    return out


def _vanishing_check(expr, args, stages):
    """Whether the class vanishes, by the first rule that settles it:

    1. zero as given (``normalizes-to-zero``);
    2. at degree at most the ambient dimension, the pairings with the
       complementary psi monomials in ``pair_with_psi_monomials`` order, up
       to the first nonzero one.  At top degree, where H^top is a line, the
       one pairing is the integral and settles the class
       (``top-degree-integral``); forgetting an extra leg lowers the degree,
       so a class with one is below.  Below, a nonzero pairing puts the class
       outside the span of the WDVV relations, which all vanish: unknown;
    3. psi elimination, when it leaves zero (``psi-elimination``);
    4. the WDVV span test (``wdvv-span``).

    Returns the outcome fields, and adds the seconds of each stage it runs to
    ``stages``, those spent before a budget overflow too.
    """
    if expr.is_zero():
        return {"proved": True, "method": "normalizes-to-zero"}
    value = 0
    if expr.degree() <= expr.ambient.dimension:
        value = _timed(stages, "pair_s", next, (v for _b, v in _pairings(expr) if v), 0)
    if expr.degree() == expr.ambient.dimension and not any(
            label == EXTRA for key in expr.support() for part in key[0]
            for label, _e in part[1]):
        outcome = {"proved": not value, "method": "top-degree-integral"}
        if value:
            outcome["integral"] = _coefficient_json(value)
        return outcome
    if value:
        return {"proved": False, "method": "wdvv-span",
                "certificate": {"reason": "unknown", "rounds": args.budget}}
    reduced = _timed(stages, "psi_s", eliminate_all_psi, expr)
    if reduced.is_zero():
        return {"proved": True, "method": "psi-elimination"}
    try:
        cert = span_zero_test(reduced, budget=args.budget,
                              max_relations=args.max_relations, stages=stages)
    except OverflowError as exc:
        return {"proved": False, "method": "wdvv-span", "error": "budget-overflow",
                "detail": str(exc)}
    return {"proved": cert.zero, "method": "wdvv-span",
            "certificate": _certificate_json(reduced, cert)}


def _report(args, inputs, outcome, started, stages=None):
    """Write the report of ``outcome`` and return the exit status: 2 when its
    ``proved`` or ``equal`` is false, else 0."""
    timing = {"seconds": round(time.perf_counter() - started, 3)}
    for name, seconds in (stages or {}).items():
        timing[name] = round(seconds, 3)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "outcome": outcome,
        "budgets": {"rounds": getattr(args, "budget", None),
                    "max_relations": getattr(args, "max_relations", None)},
        "timing": timing,
    }
    _emit(args, _json_pieces(report))
    return 0 if outcome.get("proved", outcome.get("equal", True)) else 2


def _json_pieces(value):
    """The text of ``json.dumps(value, separators=(",", ":"), sort_keys=True)``
    in pieces: dicts in key order, and each item of a list, or of an
    iterator that stands for one, encoded alone as it is produced."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield "," * bool(i) + _ENCODER.encode(key) + ":"
            yield from _json_pieces(value[key])
        yield "}"
    elif isinstance(value, (list, Iterator)):
        yield "["
        for i, item in enumerate(value):
            yield "," * bool(i) + _ENCODER.encode(item)
        yield "]"
    else:
        yield _ENCODER.encode(value)


def _emit(args, pieces):
    """Write ``pieces`` to the ``--out`` file if given, else to stdout; end the line."""
    with (open(args.out, "w") if getattr(args, "out", None)
          else contextlib.nullcontext(sys.stdout)) as out:
        out.writelines(pieces)
        out.write("\n")


def cmd_compute_b(args):
    started = time.perf_counter()
    stages = dict.fromkeys(("assemble_s", "psi_s"), 0.0)
    expr = _timed(stages, "assemble_s", weighted_tree_class, args.g, args.m, args.d)
    if args.stage == "psi-free":
        expr = _timed(stages, "psi_s", eliminate_all_psi, expr)
    if args.format != "json":
        _emit(args, _render(expr, args.format))
        return 0
    return _report(args, {"g": args.g, "m": args.m, "d": list(args.d),
                          "stage": args.stage},
                   {"expression": _format_expression(expr, "json"), "terms": len(expr)},
                   started, stages)


def cmd_verify(args):
    started = time.perf_counter()
    inputs = {"g": args.g, "m": args.m, "d": list(args.d)}
    stages = dict.fromkeys(STAGES, 0.0)
    expr = _timed(stages, "assemble_s", weighted_tree_class, args.g, args.m, args.d)
    outcome = _vanishing_check(expr, args, stages)
    failed = []                    # the hypotheses of B = 0 that do not hold
    if args.m < 2:
        failed.append("m = %d is below 2" % args.m)
    if sum(args.d) < 2 * args.g + args.m - 1:
        failed.append("total weight %d is below 2g+m-1 = %d"
                      % (sum(args.d), 2 * args.g + args.m - 1))
    if failed:
        outcome["warning"] = "; ".join(failed + ["vanishing is not expected"])
    return _report(args, inputs, outcome, started, stages)


def _pushforward_difference(g, m, l, d):
    """The forgetful pushforward of the (g, m + l, d) class minus its
    string-table sum of (g, m) classes."""
    if m < 0:
        raise ValueError("negative frozen leg count")
    lhs = forget_frozen_legs(weighted_tree_class(g, m + l, d), l)
    rhs = lhs.scale(0)
    for k, mult in string_table(d, l):
        rhs = rhs + weighted_tree_class(g, m, k).scale(mult)
    return lhs - rhs


def cmd_check_pushforward(args):
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    diff = _timed(stages, "assemble_s", _pushforward_difference,
                  args.g, args.m, args.l, args.d)
    outcome = _vanishing_check(diff, args, stages)
    outcome["equal"] = outcome.pop("proved")
    return _report(args, {"g": args.g, "n": len(args.d), "m": args.m, "l": args.l,
                          "d": list(args.d)}, outcome, started, stages)


def cmd_enumerate(args):
    started = time.perf_counter()
    if args.with_extras is not None and len(args.with_extras) != args.n:
        raise ValueError("--with-extras takes %d weights, one per regular leg, not %d"
                         % (args.n, len(args.with_extras)))
    rows = []
    for shape in enumerate_shapes(args.g, args.n, args.m):
        row = {"edges": shape.n_edges(),
               "vertices": len(shape.genera),
               "genera": list(shape.genera)}
        if args.with_extras is not None:
            row["assignments"] = len(acceptable_assignments(shape, args.with_extras))
            if not row["assignments"]:
                continue           # no acceptable assignment: not listed
        rows.append(row)
    return _report(args, {"g": args.g, "n": args.n, "m": args.m,
                          "with_extras": list(args.with_extras) if args.with_extras else None},
                   {"count": len(rows), "shapes": rows}, started)


def cmd_reduce(args):
    started = time.perf_counter()
    if args.expression == "-":
        text = sys.stdin.read()
    else:
        with open(args.expression) as fh:
            text = fh.read()
    try:
        expr = parse_bracket(text)
    except ValueError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    inputs = {"file": args.expression, "mode": args.mode, "terms": len(expr)}
    if args.mode == "psi":
        reduced = eliminate_all_psi(expr)
        return _report(args, inputs,
                       {"expression": _format_expression(reduced, args.format),
                        "terms": len(reduced)}, started)
    if args.mode == "pair":
        pairings = pair_with_psi_monomials(expr)
        return _report(args, inputs,
                       {"pairings": [{"monomial": list(b), "value": _coefficient_json(v)}
                                     for b, v in pairings],
                        "all_zero": all(v == 0 for _b, v in pairings)}, started)
    # zero-test
    stages = dict.fromkeys(STAGES, 0.0)
    return _report(args, inputs, _vanishing_check(expr, args, stages), started, stages)


def build_parser():
    parser = _Parser(prog="tautrel",
                     description="exact calculus for psi-decorated boundary classes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budgets=True):
        if budgets:
            p.add_argument("--budget", type=_positive,
                           help="relation-closure rounds (default: %d)" % DEFAULT_ROUNDS)
            p.add_argument("--max-relations", type=_positive,
                           help="relation budget (default: %d)" % MAX_RELATIONS)
        p.add_argument("--out", help="write the output to a file instead of stdout")

    p = sub.add_parser("compute-b", help="assemble a weighted tree class")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=_weights, required=True)
    p.add_argument("--stage", choices=["raw", "psi-free"], default="raw")
    p.add_argument("--format", choices=["bracket", "json", "latex"],
                   default="bracket")
    common(p, budgets=False)
    p.set_defaults(func=cmd_compute_b)

    p = sub.add_parser("verify", help="prove a weighted tree class vanishes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=_weights, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-pushforward",
                       help="compare the forgetful pushforward with the weighted sum")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=_positive, required=True)
    p.add_argument("--d", type=_weights, required=True)
    common(p)
    p.set_defaults(func=cmd_check_pushforward)

    p = sub.add_parser("enumerate", help="list tree shapes (and assignment counts)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--with-extras", type=_weights, default=None,
                   help="weights; list only shapes with an acceptable assignment")
    common(p, budgets=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", help="run a pipeline stage on a bracket file")
    p.add_argument("expression", help="path to a bracket expression file, or -")
    p.add_argument("--mode", choices=["psi", "zero-test", "pair"], required=True)
    p.add_argument("--format", choices=["bracket", "json", "latex"],
                   help="output of --mode psi (default: bracket)")
    common(p)
    p.set_defaults(func=cmd_reduce)
    return parser


def _fill_options(parser, args):
    """Give the budgets of a vanishing check their defaults; a command or
    mode that runs none keeps them None and must not be given them.  Of
    the ``reduce`` modes, only ``psi`` writes an expression and takes
    ``--format``."""
    if not hasattr(args, "budget"):
        return
    if getattr(args, "format", None) and args.mode != "psi":
        parser.error("--format needs --mode psi")
    if getattr(args, "mode", "zero-test") != "zero-test":
        if args.budget is not None or args.max_relations is not None:
            parser.error("--budget and --max-relations need --mode zero-test")
        return
    args.budget = args.budget or DEFAULT_ROUNDS
    args.max_relations = args.max_relations or MAX_RELATIONS


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _fill_options(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
