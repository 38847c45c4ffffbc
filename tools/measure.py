"""Measure one CLI call in two source trees, run alternately.

    python3 tools/measure.py PARENT CHANGE [--pairs N] -- <cli args>

PARENT and CHANGE are checkouts of tautrel.  Each tree's ``src`` is copied
once, without its ``__pycache__`` directories, into a temporary directory,
and each pair runs ``python -m tautrel.cli <cli args>`` once from each copy,
both with ``PYTHONDONTWRITEBYTECODE=1``: a tree that holds a bytecode cache
would read it and measure differently, and no run leaves one for the next.
The odd pairs run PARENT first and the even pairs CHANGE first, so that
neither tree always runs on a machine the other has just warmed.  The
standard output of each run goes to its own file in the temporary
directory; its standard error passes through.

For each run it prints the wall seconds, the max RSS of the child, which
``os.wait4`` reports, and the exit code; then each tree's medians, each with
its first and third quartiles.  When the runs printed JSON reports, it then
prints each tree's median ``closure_s``, ``solve_s`` and ``psi_s`` from the
reports' ``timing``.  The reports are read only after the last pair, so
that no child's max RSS counts the pages of a report held in this process.
Exits 0 when the two trees give the same exit code in every pair and 1 when
they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


STAGES = ("closure_s", "solve_s", "psi_s")


def run(src, argv, out_path):
    """(wall seconds, max RSS in MB, exit code) of one call importing from
    ``src``, its standard output written to ``out_path``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    with open(out_path, "wb") as out:
        clock = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tautrel.cli", *argv], env=env,
                                stdout=out)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - clock
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def timing(out_path):
    """The ``timing`` of the JSON report in ``out_path``, or None when the
    output is not one."""
    with open(out_path, "rb") as fh:
        try:
            report = json.load(fh)
        except ValueError:
            return None
    return report.get("timing") if isinstance(report, dict) else None


def quartiles(values):
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if "--" not in args:
        print("usage: python3 tools/measure.py PARENT CHANGE [--pairs N] -- <cli args>",
              file=sys.stderr)
        return 2
    cut = args.index("--")
    parser = argparse.ArgumentParser(prog="measure.py")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=3)
    opts = parser.parse_args(args[:cut])
    cli = args[cut + 1:]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        srcs = {}
        for name, tree in (("parent", opts.parent), ("change", opts.change)):
            srcs[name] = os.path.join(scratch, name)
            shutil.copytree(os.path.join(tree, "src"), srcs[name],
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(1, opts.pairs + 1):
            for name in ("parent", "change") if i % 2 else ("change", "parent"):
                out_path = os.path.join(scratch, "%s-%d.out" % (name, i))
                wall, rss, code = run(srcs[name], cli, out_path)
                runs[name].append((wall, rss, code, out_path))
                print("pair %d, %s: %.3f s, %.1f MB, exit %d"
                      % (i, name, wall, rss, code), flush=True)
        timings = {name: [timing(out_path) for *_run, out_path in measured]
                   for name, measured in runs.items()}
    for name, measured in runs.items():
        walls, rsss, _codes, _paths = zip(*measured)
        (wall_q1, wall, wall_q3), (rss_q1, rss, rss_q3) = quartiles(walls), quartiles(rsss)
        print("%s median: %.3f s (quartiles %.3f-%.3f), %.1f MB (quartiles %.1f-%.1f)"
              % (name, wall, wall_q1, wall_q3, rss, rss_q1, rss_q3))
    for name, reported in timings.items():
        if all(reported):
            print("%s median stages: %s" % (name, ", ".join(
                "%s %.3f s" % (stage, statistics.median(t.get(stage, 0.0) for t in reported))
                for stage in STAGES)))
    same = all(p[2] == c[2] for p, c in zip(runs["parent"], runs["change"]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
