"""Measure one CLI call in two source trees, run alternately.

    python3 tools/measure.py PARENT CHANGE [--pairs N] -- <cli args>

PARENT and CHANGE are checkouts of tautrel.  Each pair runs ``python -m
tautrel.cli <cli args>`` first with ``PYTHONPATH=PARENT/src`` and then with
``PYTHONPATH=CHANGE/src``, both with ``PYTHONDONTWRITEBYTECODE=1``, so
neither tree leaves or reads a bytecode cache that the other would not.  The
standard output of a run is discarded; its standard error passes through.

For each run it prints the wall seconds, the max RSS of the child, which
``os.wait4`` reports, and the exit code; the last two lines give each tree's
medians.  Exits 0 when the two trees give the same exit code in every pair
and 1 when they do not.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def run(tree, argv):
    """(wall seconds, max RSS in MB, exit code) of one call in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    clock = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "tautrel.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - clock
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


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
    trees = [("parent", opts.parent), ("change", opts.change)]
    runs = {name: [] for name, _tree in trees}
    for i in range(1, opts.pairs + 1):
        for name, tree in trees:
            wall, rss, code = run(tree, cli)
            runs[name].append((wall, rss, code))
            print("pair %d, %s: %.3f s, %.1f MB, exit %d" % (i, name, wall, rss, code),
                  flush=True)
    for name, _tree in trees:
        walls, rsss, _codes = zip(*runs[name])
        print("%s median: %.3f s, %.1f MB"
              % (name, statistics.median(walls), statistics.median(rsss)))
    same = all(p[2] == c[2] for p, c in zip(runs["parent"], runs["change"]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
