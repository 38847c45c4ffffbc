"""The benchmark's workloads: seeded operation pools over the tautrel CLI.

Each op is one ``python -m tautrel.cli`` call.  The seed permutes the weight
vector of every op whose work does not depend on the leg order (a weight
permutation only relabels the regular legs, so the verdict is unchanged),
shuffles the op order, and draws the ``symmetric`` bracket files.  Every run
executes the whole pool.

``verify --g 0 --m 5`` is the one op whose weights the seed does not
permute: its psi-free target has 144, 130 or 124 terms and its round-2 span
system 14772, 13544 or 13100 columns for the orders (2,1,1), (1,2,1) and
(1,1,2), and its cost moves with them by about 30 %.  A seeded order would
make the run-to-run spread measure the seed instead of the program, so the
op keeps the cheapest order, (1,1,2).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("classes", "prove", "exhaust", "symmetric")


@dataclass(frozen=True)
class Template:
    """One pool entry: a CLI call with a weight vector the seed may permute."""

    argv: tuple            # "{d}" stands for the weight vector
    weights: tuple
    permute: bool = True

    def concrete(self, weights):
        d = ",".join(str(w) for w in weights)
        return [d if a == "{d}" else a for a in self.argv]

    def orders(self):
        """Every weight order the seed can choose (for the expected file)."""
        if not self.permute:
            return [self.weights]
        return sorted(set(itertools.permutations(self.weights)))


def _verify(g, m, weights, permute=True):
    return Template(("verify", "--g", str(g), "--m", str(m), "--d", "{d}"),
                    weights, permute)


def _compute(g, m, weights, *extra):
    return Template(("compute-b", "--g", str(g), "--m", str(m), "--d", "{d}") + extra,
                    weights)


TEMPLATES = {
    "classes": [
        _compute(2, 1, (1, 1, 1, 1), "--stage", "raw"),
        _compute(2, 0, (2, 2, 1, 1), "--stage", "raw"),
        _compute(1, 2, (1, 1, 1, 1), "--stage", "psi-free", "--format", "json"),
    ],
    "prove": [
        _verify(0, 4, (1, 1, 1, 1)),
        _verify(0, 5, (1, 1, 2), permute=False),
        _verify(1, 2, (2, 1, 1)),
        _verify(1, 2, (1, 1, 1)),
    ],
    "exhaust": [
        _verify(1, 3, (1, 1, 1)),
        _verify(1, 3, (2, 1)),
    ],
}

# symmetric: a genus-0 centre <P^p(U1) U2 U3 A1..Ak>_0 with k genus-1 tails <Ai*>_1
SYMMETRIC_SHAPES = [(7, 1), (7, 2), (8, 1), (8, 2)]


@dataclass(frozen=True)
class Op:
    """One CLI call of a pool, with the key of its expected outcome."""

    argv: tuple
    expect: str            # key into expected.json
    scale: Fraction = Fraction(1)   # the expected class is multiplied by this


def symmetric_key(k, p):
    return "symmetric k=%d p=%d" % (k, p)


def symmetric_text(k, p, rng=None, coefficient=Fraction(1)):
    """Bracket text of one symmetric input; ``rng`` shuffles names and items.

    Renaming the tail edges and reordering items and factors changes neither
    the class nor the work; the coefficient scales the class.
    """
    names = ["A%d" % i for i in range(1, k + 1)]
    if rng is not None:
        names = ["e%d" % i for i in rng.sample(range(10, 100), k)]
    centre = ["P^%d(U1)" % p, "U2", "U3"] + names
    tails = ["<%s*>_1" % name for name in names]
    if rng is not None:
        rng.shuffle(centre)
        rng.shuffle(tails)
    prefix = "" if coefficient == 1 else "%s * " % coefficient
    return "%s<%s>_0 %s\n" % (prefix, " ".join(centre), " ".join(tails))


def build(workload, seed, workdir):
    """The ops of one run, in seeded order; writes the symmetric input files."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = []
    if workload == "symmetric":
        for k, p in SYMMETRIC_SHAPES:
            num = rng.choice([n for n in range(-9, 10) if n])
            coefficient = Fraction(num, rng.randint(1, 5))
            path = os.path.join(workdir, "sym_k%d_p%d.bracket" % (k, p))
            with open(path, "w") as fh:
                fh.write(symmetric_text(k, p, rng, coefficient))
            ops.append(Op(("reduce", path, "--mode", "psi"),
                          symmetric_key(k, p), coefficient))
    else:
        for template in TEMPLATES[workload]:
            weights = rng.choice(template.orders())
            argv = template.concrete(weights)
            ops.append(Op(tuple(argv), " ".join(argv)))
    rng.shuffle(ops)
    return ops
