"""tautrel benchmark: seeded pools of CLI calls, one fresh process per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload prove --seed 1 --seconds 10 --trace 0

It drives ``python -m tautrel.cli`` with ``PYTHONPATH=src`` as a closed loop
with one client: each op is one fresh process, because users start one
process per query and pay cold caches every time.  It runs whole passes over
the workload's pool until ``--seconds`` have passed (at least one pass),
then checks every output against ``expected.json`` outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of
``tracer.summarize``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every op was correct, 1 when one was not, and 2 when the
benchmark could not start (no tautrel sources, or a CLI that does not run).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import pool  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 15          # --help calls per run; setup_s is their median
OP_TIMEOUT_S = 120          # an op still running after this is killed and failed
TRACED_CLI = os.path.join(HERE, "traced_cli.py")


@dataclass
class Result:
    op: pool.Op
    seconds: float
    code: int
    max_rss_kb: int
    timed_out: bool
    out_path: str


class Runner:
    """Spawns CLI processes from the checkout root and times them."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0

    def spawn(self, cmd):
        """Run one child to exit; returns (seconds, code, max RSS KiB, timed out, out path)."""
        self.count += 1
        out_path = os.path.join(self.workdir, "op%d.out" % self.count)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss, bool(killed), out_path

    def cli(self, argv):
        return self.spawn([sys.executable, "-m", "tautrel.cli", *argv])

    def run_op(self, op, span_path=None):
        if span_path is None:
            measured = self.cli(op.argv)
        else:
            measured = self.spawn([sys.executable, TRACED_CLI, span_path,
                                   op.expect, "--", *op.argv])
        result = Result(op, *measured)
        print("%8.3f s  exit %d  %s%s" % (result.seconds, result.code, " ".join(op.argv),
                                          "  (traced)" if span_path else ""),
              file=sys.stderr)
        return result


def setup_seconds(runner):
    """Median spawn-to-exit of ``--help``: start-up, import and parser build."""
    return statistics.median(runner.cli(["--help"])[0] for _ in range(SETUP_REPEATS))


def timed_passes(runner, ops, budget_s):
    """Whole passes over the pool until ``budget_s`` has passed; (results, wall s)."""
    results = []
    start = time.perf_counter()
    while True:
        results.extend(runner.run_op(op) for op in ops)
        if time.perf_counter() - start >= budget_s:
            return results, time.perf_counter() - start


def count_failures(results):
    checker = checks.Checker(checks.load_expected())
    failed = 0
    for r in results:
        if r.timed_out:
            problems = ["timed out after %d s" % OP_TIMEOUT_S]
        else:
            with open(r.out_path) as fh:
                problems = checker.check(r.op, r.code, fh.read())
        if problems:
            failed += 1
            print("FAIL %s: %s" % (" ".join(r.op.argv), "; ".join(problems)),
                  file=sys.stderr)
    return failed


def end_to_end(runner, ops, seconds):
    setup = setup_seconds(runner)
    results, wall = timed_passes(runner, ops, seconds)
    metrics = {
        "ops_per_s": (len(results) / wall, "1/s"),
        "op_s.p50": (statistics.median(r.seconds for r in results), "s"),
        "peak_rss_mb": (max(r.max_rss_kb for r in results) / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    return results, metrics


def per_layer(runner, ops):
    untraced = [runner.run_op(op) for op in ops]
    span_files = [os.path.join(runner.workdir, "spans%d.json" % i) for i in range(len(ops))]
    traced = [runner.run_op(op, path) for op, path in zip(ops, span_files)]
    metrics = tracer.summarize(
        [p for p in span_files if os.path.exists(p)],
        sum(r.seconds for r in traced), sum(r.seconds for r in untraced))
    return untraced + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tautrel", "cli.py")):
        print("no tautrel sources under %s/src; run from the repository root" % root,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Scratch files stay inside the checkout, the only place the benchmark writes.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = Runner(root, workdir)
        if runner.cli(["--help"])[1] != 0:
            print("the tautrel CLI does not start (--help failed)", file=sys.stderr)
            return 2
        ops = pool.build(args.workload, args.seed, workdir)
        if args.trace:
            results, metrics = per_layer(runner, ops)
        else:
            results, metrics = end_to_end(runner, ops, args.seconds)
        failed = count_failures(results)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
