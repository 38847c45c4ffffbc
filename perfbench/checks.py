"""Correctness checks of CLI outputs against ``expected.json``.

They run after the timed loop, in the benchmark process, with the tautrel
package imported from ``src``.  Computed classes are compared as classes:
both sides are parsed into ``Expression`` objects, so a change of printed or
canonical form alone is not a failure.  Every ``wdvv-span`` certificate is
replayed from its JSON alone: the stated combination of relations must
rebuild the stated target, whose size must match the expected term count.
A span proof whose certificate has no combination to replay fails.
"""

from __future__ import annotations

import gzip
import json
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def load_expected(path=EXPECTED):
    with open(path) as fh:
        return json.load(fh)


def read_class_text(name):
    with gzip.open(os.path.join(HERE, name), "rt") as fh:
        return fh.read()


def normalized(stdout):
    """Output text without the one field allowed to vary between runs."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True)


def replay(cert):
    """True when the certificate's combination rebuilds its target exactly."""
    from tautrel.expressions import expression_from_json

    target = expression_from_json(cert["target"])
    acc = {}
    for entry in cert["combination"]:
        coeff = Fraction(entry["coefficient"]["num"], entry["coefficient"]["den"])
        for key, value in expression_from_json(entry["relation"]).items():
            acc[key] = acc.get(key, Fraction(0)) + coeff * value
    return {k: v for k, v in acc.items() if v != 0} == dict(target.items())


class Checker:
    """Compares op outputs with one expected-outcome table.

    Parsed expected classes and the verdicts of outputs already seen are
    kept, so an output repeated byte for byte (apart from timing) is checked
    once per run.
    """

    def __init__(self, expected):
        self.expected = expected
        self._classes = {}
        self._seen = {}

    def expected_class(self, name):
        from tautrel.expressions import parse_bracket

        if name not in self._classes:
            self._classes[name] = parse_bracket(read_class_text(name))
        return self._classes[name]

    def check(self, op, code, stdout):
        """A list of problems with one op's result; empty when it is correct."""
        key = (op.expect, op.scale, code, normalized(stdout))
        if key not in self._seen:
            try:
                self._seen[key] = self._problems(op, code, stdout)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self._seen[key] = ["unreadable output: %r" % exc]
        return self._seen[key]

    def _problems(self, op, code, stdout):
        want = self.expected["ops"].get(op.expect)
        if want is None:
            return ["no expected outcome for %r" % op.expect]
        problems = []
        if code != want["exit"]:
            problems.append("exit code %s, expected %s" % (code, want["exit"]))
        if op.argv[0] == "verify":
            problems += self._verify_problems(want, json.loads(stdout))
        else:
            problems += self._class_problems(op, want, stdout)
        return problems

    def _verify_problems(self, want, report):
        outcome = report["outcome"]
        problems = []
        if outcome["proved"] != want["proved"]:
            problems.append("verdict proved=%s, expected %s"
                            % (outcome["proved"], want["proved"]))
        if outcome.get("method") != want["method"]:
            problems.append("method %r, expected %r" % (outcome.get("method"),
                                                       want["method"]))
        cert = outcome.get("certificate", {})
        if cert.get("rounds") != want["rounds"]:
            problems.append("rounds %r, expected %r" % (cert.get("rounds"), want["rounds"]))
        terms = len(cert["target"]["terms"]) if "target" in cert else None
        if terms != want["terms"]:
            problems.append("target terms %r, expected %r" % (terms, want["terms"]))
        if "combination" in cert:
            if not replay(cert):
                problems.append("certificate does not replay")
        elif want["proved"] and want["method"] == "wdvv-span":
            problems.append("proof has no combination to replay")
        return problems

    def _class_problems(self, op, want, stdout):
        from tautrel.expressions import expression_from_json, parse_bracket

        if stdout.lstrip().startswith("{"):
            outcome = json.loads(stdout)["outcome"]
            expr = outcome["expression"]
            got = (parse_bracket(expr) if isinstance(expr, str)
                   else expression_from_json(expr))
            terms = outcome["terms"]
        else:
            got = parse_bracket(stdout)
            terms = len(got)
        problems = []
        if terms != want["terms"]:
            problems.append("terms %r, expected %r" % (terms, want["terms"]))
        if got != self.expected_class(want["class"]).scale(op.scale):
            problems.append("computed class differs from %s" % want["class"])
        return problems
