"""Compare the CLI outputs of two source trees.

    python3 tools/identity.py PARENT CHANGE

PARENT and CHANGE are checkouts of tautrel.  Each call of a fixed list runs
as ``python -m tautrel.cli`` with ``PYTHONPATH=<tree>/src``, once per tree,
and its exit code, standard error and standard output must match.  A JSON
report on the standard output is compared as a sorted, compact dump of the
parsed report without its ``timing`` field (the one field allowed to vary),
so two trees that lay a report out differently still compare equal, and
the rest as is.  The list covers every ``verify`` of the benchmark's
``prove`` and ``exhaust`` pools in every weight order, every ``compute-b``
of its ``classes`` pool, and ``reduce --mode psi`` on the symmetric inputs
for k in {7, 8} and p in {1, 2}.  It also covers calls outside the pools:
``verify 1 3 2,1,1`` in its three weight orders, the largest span system
and certificate, whose equations the solver takes in key-id order;
``reduce --mode psi`` on the symmetric input for k = 9, p = 1 and on the
mixed star of ``mixed_star_text`` for p in {0, 1}, whose genus-0 tails
with extra legs go through parse, psi elimination and render, on the
psi-free star of ``pinned_g1_text``, whose pinned leg ``g1`` and ten-edge
centre test the edge names of render, and on the
single terms of ``PSI_SITES``, which put a psi site next to a loop, next to
a frozen partner pair and on an edge end;
``check-pushforward`` for (g, m, l, d) = (1, 2, 1, 2,1), (0, 2, 1, 1,1),
(1, 2, 2, 2,1,1), (0, 3, 1, 1,1,1) and (1, 1, 2, 2,1,1), the last of which
exits 1 because forgetting two frozen legs leaves a vertex unstable,
``reduce --mode zero-test`` on ``f``, on ``h0i0_combined``, on the
boundary divisor of ``divisor9_text``, whose first psi pairing is nonzero
and so ends the check before psi elimination, and on the relation of
``wdvv9_text``, whose pairings all vanish and whose closure reaches a
vertex with nine half-edges, ``reduce --mode
pair`` on ``b21_raw``, ``h`` and ``i``, ``reduce --mode psi`` on ``h`` with
``--format latex`` and with ``--format json``, the top-degree ``verify`` of
(g, m, d) = (1, 1, 2,1), which integrates to -1/24 and exits 2, and of
(1, 2, 2,2), which integrates to zero; these four run the vertex integrals
of the genus-0 and genus-1 vertices; ``verify 0 6 1,1,1,1``, whose
psi-free class is large and whose raw class pairs nonzero at once,
``verify 1 3 2,1,1 --budget 1``, whose ``unknown`` rests on the witness
solve of an inconsistent round, ``verify 1 2 2,1,1 --max-relations 10``
and ``verify 0 5 1,1,2 --max-relations 5000``, which exit 2 with the
``budget-overflow`` report, the first in round 1 and the second in a
closure grown to round 2, ``verify 1 3 2,2,1`` in its three weight
orders, three more two-round certificates,
``compute-b 1 2 2,1`` as brackets and with ``--stage psi-free --format
latex``, ``compute-b --stage raw`` for (g, m, d) = (1, 3, 2,1,1), (0, 5,
1,1,2) and (2, 1, 2,1,1), and ``enumerate --with-extras`` for (g, n, m, d) =
(1, 2, 2, 2,1), (2, 4, 1, 1,1,1,1) and (2, 4, 0, 2,2,1,1), the last with
no frozen leg to mark the root; these assemble tree classes and run the
forgetful pushforward outside the pools.  That makes 65 calls.  Both trees
read the bracket fixtures from PARENT's ``tests/fixtures``.  The two trees
run each call side by side.

Exits 0 when every call matches and 1 at the first difference.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
import time


def orders(weights):
    return sorted(set(itertools.permutations(weights)))


def d_text(weights):
    return ",".join(str(w) for w in weights)


def symmetric_text(k, p):
    """<P^p(U1) U2 U3 A1..Ak>_0 <A1*>_1 ... <Ak*>_1: k genus-1 tails."""
    names = ["A%d" % i for i in range(1, k + 1)]
    centre = " ".join(["P^%d(U1)" % p, "U2", "U3"] + names)
    return "<%s>_0 %s\n" % (centre, " ".join("<%s*>_1" % n for n in names))


def mixed_star_text(p):
    """<P^p(U1) U2 U3 a1..a4 b1..b3>_0 <ai*>_1 ... <bj* W W>_0 ...: two twin classes."""
    a = ["a%d" % i for i in range(1, 5)]
    b = ["b%d" % j for j in range(1, 4)]
    centre = " ".join(["P^%d(U1)" % p, "U2", "U3"] + a + b)
    return "<%s>_0 %s %s\n" % (centre, " ".join("<%s*>_1" % n for n in a),
                               " ".join("<%s* W W>_0" % n for n in b))


def divisor9_text():
    """<U1 .. U7 a>_0 <a* U8 U9>_0: a boundary divisor whose first psi
    pairing, with psi_{U1}^5, is nonzero, so its check runs no psi
    elimination and no closure."""
    return "<%s a>_0 <a* U8 U9>_0\n" % " ".join("U%d" % i for i in range(1, 8))


def wdvv9_text():
    """The WDVV relation on M_{0,9} that sums the boundary divisors separating
    {U1, U2} from {U8, U9} and subtracts those separating {U1, U8} from
    {U2, U9}, each side taking a subset S of U3..U7 and the other side the
    rest: 64 divisor terms whose psi pairings all vanish, so the span test
    runs its relation closure, which reaches a genus-0 vertex with nine
    half-edges."""
    middle = ["U%d" % i for i in range(3, 8)]
    items = []
    for sign, near, far in [("+", "U1 U2", "U8 U9"), ("-", "U1 U8", "U2 U9")]:
        for r in range(len(middle) + 1):
            for s in itertools.combinations(middle, r):
                rest = [u for u in middle if u not in s]
                items.append("%s <%s e>_0 <e* %s>_0" % (sign, " ".join([near, *s]),
                                                       " ".join([far, *rest])))
    return "\n".join(items) + "\n"


def pinned_g1_text():
    """<g1 U1 U2 a1..a6 b1..b4>_0 <ai*>_1 ... <bj* W W>_0 ...: a psi-free star
    whose centre has ten edges and a leg that render's edge names skip."""
    a = ["a%d" % i for i in range(1, 7)]
    b = ["b%d" % j for j in range(1, 5)]
    return "<%s>_0 %s %s\n" % (" ".join(["g1", "U1", "U2"] + a + b),
                               " ".join("<%s*>_1" % n for n in a),
                               " ".join("<%s* W W>_0" % n for n in b))


PSI_SITES = [
    "<P^1(x1) b a a*>_0 <b* x2 x3>_0",              # a loop at the split vertex
    "<V1 V2 P^1(U2) a>_0 <a* P^2(U1)>_1",           # a frozen partner pair
    "<U1 U2 P^1(a) b>_0 <a* b* P^1(U3)>_1",         # edge-end psi at genus 0
    "<U1 U2 U3 P^2(a)>_0 <a* U4>_1",                # overweight at genus 0: parses to 0
]


def write(workdir, name, text):
    path = os.path.join(workdir, name + ".bracket")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def calls(workdir, fixtures):
    out = []
    for g, m, weights in [(0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)), (1, 2, (2, 1, 1)),
                          (1, 2, (1, 1, 1)), (1, 3, (1, 1, 1)), (1, 3, (2, 1)),
                          (1, 3, (2, 1, 1))]:
        for d in orders(weights):
            out.append(["verify", "--g", str(g), "--m", str(m), "--d", d_text(d)])
    for g, m, weights, extra in [(2, 1, (1, 1, 1, 1), ["--stage", "raw"]),
                                 (2, 0, (2, 2, 1, 1), ["--stage", "raw"]),
                                 (1, 2, (1, 1, 1, 1),
                                  ["--stage", "psi-free", "--format", "json"])]:
        for d in orders(weights):
            out.append(["compute-b", "--g", str(g), "--m", str(m), "--d", d_text(d)]
                       + extra)
    for k, p in list(itertools.product((7, 8), (1, 2))) + [(9, 1)]:
        path = write(workdir, "symmetric_k%d_p%d" % (k, p), symmetric_text(k, p))
        out.append(["reduce", path, "--mode", "psi"])
    for p in (0, 1):
        path = write(workdir, "mixed_star_p%d" % p, mixed_star_text(p))
        out.append(["reduce", path, "--mode", "psi"])
    out.append(["reduce", write(workdir, "pinned_g1", pinned_g1_text()), "--mode", "psi"])
    for i, text in enumerate(PSI_SITES):
        path = write(workdir, "psi_site_%d" % i, text + "\n")
        out.append(["reduce", path, "--mode", "psi"])
    for g, m, l, d in [(1, 2, 1, "2,1"), (0, 2, 1, "1,1"), (1, 2, 2, "2,1,1"),
                       (0, 3, 1, "1,1,1"), (1, 1, 2, "2,1,1")]:
        out.append(["check-pushforward", "--g", str(g), "--m", str(m), "--l", str(l),
                    "--d", d])
    for name, extra in [("f", ["--mode", "zero-test"]),
                        ("h0i0_combined", ["--mode", "zero-test"]),
                        ("b21_raw", ["--mode", "pair"]),
                        ("h", ["--mode", "pair"]),
                        ("i", ["--mode", "pair"]),
                        ("h", ["--mode", "psi", "--format", "latex"]),
                        ("h", ["--mode", "psi", "--format", "json"])]:
        out.append(["reduce", os.path.join(fixtures, name + ".bracket")] + extra)
    out.append(["reduce", write(workdir, "divisor9", divisor9_text()),
                "--mode", "zero-test"])
    out.append(["reduce", write(workdir, "wdvv9", wdvv9_text()), "--mode", "zero-test"])
    for g, m, d in [(1, 1, "2,1"), (1, 2, "2,2"), (0, 6, "1,1,1,1")]:
        out.append(["verify", "--g", str(g), "--m", str(m), "--d", d])
    out.append(["verify", "--g", "1", "--m", "3", "--d", "2,1,1", "--budget", "1"])
    for g, m, d, cap in [(1, 2, "2,1,1", "10"), (0, 5, "1,1,2", "5000")]:
        out.append(["verify", "--g", str(g), "--m", str(m), "--d", d,
                    "--max-relations", cap])
    for d in orders((2, 2, 1)):
        out.append(["verify", "--g", "1", "--m", "3", "--d", d_text(d)])
    out.append(["compute-b", "--g", "1", "--m", "2", "--d", "2,1"])
    out.append(["compute-b", "--g", "1", "--m", "2", "--d", "2,1",
                "--stage", "psi-free", "--format", "latex"])
    for g, m, d in [(1, 3, "2,1,1"), (0, 5, "1,1,2"), (2, 1, "2,1,1")]:
        out.append(["compute-b", "--g", str(g), "--m", str(m), "--d", d, "--stage", "raw"])
    for g, n, m, d in [(1, 2, 2, "2,1"), (2, 4, 1, "1,1,1,1"), (2, 4, 0, "2,2,1,1")]:
        out.append(["enumerate", "--g", str(g), "--n", str(n), "--m", str(m),
                    "--with-extras", d])
    return out


def start(tree, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen([sys.executable, "-m", "tautrel.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def normalized(stdout):
    """A JSON report as a sorted, compact dump without ``timing``; any other
    output as it is."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(report, dict):
        return stdout
    report.pop("timing", None)
    return json.dumps(report, separators=(",", ":"), sort_keys=True)


def finish(proc):
    stdout, stderr = proc.communicate()
    return proc.returncode, stderr, normalized(stdout)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/identity.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = args
    with tempfile.TemporaryDirectory() as workdir:
        todo = calls(workdir, os.path.join(parent, "tests", "fixtures"))
        for i, call in enumerate(todo, 1):
            clock = time.perf_counter()
            procs = [start(parent, call), start(change, call)]
            (pcode, perr, pout), (ccode, cerr, cout) = [finish(p) for p in procs]
            line = "[%d/%d] %s (%.1f s)" % (i, len(todo), " ".join(call),
                                            time.perf_counter() - clock)
            for name, a, b in [("exit code", pcode, ccode), ("stderr", perr, cerr),
                               ("stdout", pout, cout)]:
                if a != b:
                    print("%s: %s differs" % (line, name))
                    return 1
            print("%s: identical, exit %d, %d bytes" % (line, pcode, len(pout)),
                  flush=True)
    print("all %d calls identical" % len(todo))
    return 0


if __name__ == "__main__":
    sys.exit(main())
