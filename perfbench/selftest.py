"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Determinism: two traced passes with one seed give identical work counts
   (calls, terms, relations generated/final/used, rounds, cache hits and
   cache entries, and the ratios made of them).
2. The correctness checks accept the real outputs and reject them against a
   deliberately wrong expected table, a tampered certificate and a proof
   without its combination.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import run
from run import checks, pool

SEED = 1

# Metrics that are timings, or ratios of timings, and so may differ.
TIMED = ("_s", "uncovered_share", "overhead_ratio")


def traced_counts(runner, ops):
    results, metrics = run.per_layer(runner, ops)
    assert run.count_failures(results) == 0, "an op failed its check"
    return {name: value for name, (value, _unit) in metrics.items()
            if not name.endswith(TIMED)}


def check_determinism(runner, workload):
    ops = pool.build(workload, SEED, runner.workdir)
    first = traced_counts(runner, ops)
    second = traced_counts(runner, ops)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not differ, "%s: counts differ between runs: %r" % (workload, differ)
    print("determinism %s: %d counts repeat exactly" % (workload, len(first)))


def check_checks_fail(runner):
    """Real outputs pass; a wrong expected table or certificate is caught."""
    expected = checks.load_expected()
    ops = [pool.Op(("verify", "--g", "1", "--m", "2", "--d", "1,1,2"),
                   "verify --g 1 --m 2 --d 1,1,2"),
           pool.Op(("compute-b", "--g", "2", "--m", "0", "--d", "1,2,1,2", "--stage", "raw"),
                   "compute-b --g 2 --m 0 --d 1,2,1,2 --stage raw")]
    ops += [op for op in pool.build("symmetric", 0, runner.workdir)
            if op.expect == pool.symmetric_key(7, 2)]
    outputs = []
    for op in ops:
        _s, code, _rss, _killed, out_path = runner.cli(op.argv)
        with open(out_path) as fh:
            outputs.append((op, code, fh.read()))

    for op, code, stdout in outputs:
        assert checks.Checker(expected).check(op, code, stdout) == [], op.expect

    wrong = copy.deepcopy(expected)
    entries = wrong["ops"]
    entries["verify --g 1 --m 2 --d 1,1,2"]["terms"] += 1
    entries["compute-b --g 2 --m 0 --d 1,2,1,2 --stage raw"]["class"] = \
        entries["compute-b --g 2 --m 0 --d 2,1,2,1 --stage raw"]["class"]
    entries[pool.symmetric_key(7, 2)]["exit"] = 2
    for op, code, stdout in outputs:
        problems = checks.Checker(wrong).check(op, code, stdout)
        assert problems, "wrong expected entry accepted for %s" % op.expect

    op, code, stdout = outputs[0]
    report = json.loads(stdout)
    report["outcome"]["certificate"]["combination"][0]["coefficient"]["num"] += 1
    problems = checks.Checker(expected).check(op, code, json.dumps(report))
    assert "certificate does not replay" in problems, problems
    del report["outcome"]["certificate"]["combination"]
    problems = checks.Checker(expected).check(op, code, json.dumps(report))
    assert "proof has no combination to replay" in problems, problems
    print("checks: real outputs pass; wrong expectations and a tampered or"
          " missing certificate fail")


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = run.Runner(root, workdir)
        check_checks_fail(runner)
        for workload in pool.WORKLOADS:
            check_determinism(runner, workload)


if __name__ == "__main__":
    main()
