"""Measure one CLI call in two source trees, run alternately.

    python3 tools/measure.py PARENT CHANGE [--pairs N] -- <cli args>

PARENT and CHANGE are checkouts of tautrel.  Each tree's ``src`` is copied
once, without its ``__pycache__`` directories, into a temporary directory,
and each pair runs ``python -m tautrel.cli <cli args>`` first from the copy
of PARENT and then from that of CHANGE, both with
``PYTHONDONTWRITEBYTECODE=1``: a tree that holds a bytecode cache would read
it and measure differently, and no run leaves one for the next.  The
standard output of a run is discarded; its standard error passes through.

For each run it prints the wall seconds, the max RSS of the child, which
``os.wait4`` reports, and the exit code; the last two lines give each tree's
medians, each with its first and third quartiles.  Exits 0 when the two
trees give the same exit code in every pair and 1 when they do not.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def run(src, argv):
    """(wall seconds, max RSS in MB, exit code) of one call importing from ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    clock = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "tautrel.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - clock
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


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
            for name, src in srcs.items():
                wall, rss, code = run(src, cli)
                runs[name].append((wall, rss, code))
                print("pair %d, %s: %.3f s, %.1f MB, exit %d"
                      % (i, name, wall, rss, code), flush=True)
    for name, measured in runs.items():
        walls, rsss, _codes = zip(*measured)
        (wall_q1, wall, wall_q3), (rss_q1, rss, rss_q3) = quartiles(walls), quartiles(rsss)
        print("%s median: %.3f s (quartiles %.3f-%.3f), %.1f MB (quartiles %.1f-%.1f)"
              % (name, wall, wall_q1, wall_q3, rss, rss_q1, rss_q3))
    same = all(p[2] == c[2] for p, c in zip(runs["parent"], runs["change"]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
