"""Compare the bracket-text readers of two source trees on random texts.

    python3 tools/grammar_fuzz.py PARENT CHANGE SEED COUNT

PARENT and CHANGE are checkouts of tautrel.  The reader of a tree is
``expressions._printed_terms(text)``, which gives the (coefficient,
factors) of each printed term.  COUNT texts are drawn from a
``random.Random(SEED)``, a quarter each of four kinds: random grammar
characters; grammar tokens joined by random spacing, no-break spaces
among it; valid terms with comments, ``P`` and ``P*`` as names and ``x_0``
names, drawn from ASCII digits and spaces only, as the grammar is
ASCII-only; and such terms with one to three random edits, which may
insert the non-ASCII digits and spaces of the first two kinds.  A text must
be accepted by both readers with equal results, or rejected by both with
``ValueError``, and where PARENT says ``bad character ...`` or ``zero
denominator in coefficient``, CHANGE must say the same.  The last line
counts the texts, the accepted ones and the mismatches; the first
mismatches are printed.  Exits 0 when there are none.  Run with one tree as
both PARENT and CHANGE, it checks that the reader fails on a text only with
``ValueError``: any other exception escapes ``outcome``.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections import Counter

CHARS = "<>_()^+-*/# \n\t0123456789PUVWabgx\xa0٣٠\r$@.,é"
TOKENS = ["<", ">", "_", "(", ")", "^", "+", "-", "*", "/", "0", "00", "1", "2", "12",
          "٣", "P", "P*", "U1", "U2", "V1", "W", "W1", "a", "a*", "b", "b*", "g1",
          "x_0", ">_0", ">_1", "P^1(", "#c\n", "3/2", "0/1", "1/0"]
SPACES = ["", "", " ", "  ", "\n", "\t", "#note\n", " # c\n", " "]
NAMES = ["x1", "x2", "U1", "U2", "U3", "V1", "W", "W2", "a", "a*", "b", "b*", "P", "P*",
         "x_0", "g1", "Pa", "P_1"]
DIGITS = ["0", "1", "2", "3", "12", "007"]


def reader(tree):
    """The bracket-text reader of the tree at ``tree``."""
    for name in [n for n in sys.modules if n == "tautrel" or n.startswith("tautrel.")]:
        del sys.modules[name]
    sys.path.insert(0, tree + "/src")
    try:
        module = importlib.import_module("tautrel.expressions")
    finally:
        sys.path.pop(0)
    return module._printed_terms


def valid_text(rng):
    def sp():
        return rng.choice(SPACES)

    out = [sp()]
    if rng.random() < 0.2:
        out.append(rng.choice("+-") + sp())
    if rng.random() < 0.05:
        return "".join(out + ["0", sp()])
    for t in range(rng.randint(1, 3)):
        if t:
            out += [sp(), rng.choice("+-"), sp()]
        if rng.random() < 0.5:
            out += [rng.choice(DIGITS), sp()]
            if rng.random() < 0.5:
                out += ["/", sp(), rng.choice(DIGITS), sp()]
            out += ["*", sp()]
        for _f in range(rng.randint(1, 3)):
            out += ["<", sp()]
            for _i in range(rng.randint(0, 4)):
                name = rng.choice(NAMES)
                if rng.random() < 0.3:
                    out += ["P", sp(), "^", sp(), rng.choice(DIGITS), sp(), "(", sp(),
                            name, sp(), ")"]
                else:
                    out.append(name)
                out.append(rng.choice([" ", " ", "\n", "#x\n"]))
            out += [">", sp(), "_", sp(), rng.choice(DIGITS)]
        out.append(sp())
    return "".join(out)


def mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        i = rng.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == 1:
            chars.insert(i, rng.choice(CHARS))
        elif op == 2 and len(chars) > 1:
            i, j = min(i, len(chars) - 1), rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
        else:
            chars.insert(i, rng.choice(TOKENS))
    return "".join(chars)


def sample(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return "chars", "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 40)))
    if kind == 1:
        return "tokens", "".join(rng.choice(TOKENS) + rng.choice(SPACES + ["\xa0"])
                                 for _ in range(rng.randint(0, 30)))
    if kind == 2:
        return "valid", valid_text(rng)
    return "mutated", mutated(rng, valid_text(rng))


def outcome(read, text):
    try:
        terms = read(text)
    except ValueError as exc:
        return "rejected", str(exc)
    return "accepted", [(c, type(c), factors) for c, factors in terms]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 4:
        print("usage: python3 tools/grammar_fuzz.py PARENT CHANGE SEED COUNT",
              file=sys.stderr)
        return 2
    parent, change = reader(args[0]), reader(args[1])
    rng = random.Random(int(args[2]))
    count = int(args[3])
    stats = Counter()
    mismatches = []
    for _ in range(count):
        kind, text = sample(rng)
        (pk, pv), (ck, cv) = outcome(parent, text), outcome(change, text)
        stats[kind, pk] += 1
        kept = pk == "rejected" and (pv.startswith("bad character")
                                     or pv == "zero denominator in coefficient")
        stats["kept message"] += kept
        if pk != ck or (pk == "accepted" or kept) and pv != cv:
            mismatches.append((text, pk, pv, ck, cv))
    for key, n in sorted(stats.items(), key=str):
        print(key, n)
    for mismatch in mismatches[:10]:
        print("MISMATCH", repr(mismatch))
    print("seed %s: %d texts, %d accepted, %d mismatches"
          % (args[2], count, sum(n for key, n in stats.items() if key[1] == "accepted"),
             len(mismatches)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
