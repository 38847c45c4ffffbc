"""Regenerate ``expected.json`` and ``expected/`` from the current program.

Usage (from the repository root): ``python3 perfbench/make_expected.py``

It runs every weight order a seed can choose for every pool entry, and the
symmetric inputs with coefficient 1, and records the exit code, the verdict,
the term count and (for class-producing ops) the computed class as bracket
text.  Run it only for a program whose outputs are known to be right: the
expected file is what every later benchmark run is checked against.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import sys
import tempfile

import run
from run import checks, pool


def slug(text):
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


def record(runner, argv, key, out_dir, entries):
    seconds, code, _rss, _killed, out_path = runner.cli(argv)
    with open(out_path) as fh:
        stdout = fh.read()
    print("%6.2f s  exit %d  %s" % (seconds, code, key), file=sys.stderr)
    entry = {"exit": code}
    if argv[0] == "verify":
        outcome = json.loads(stdout)["outcome"]
        cert = outcome.get("certificate", {})
        entry.update(proved=outcome["proved"], method=outcome.get("method"),
                     rounds=cert.get("rounds"),
                     terms=len(cert["target"]["terms"]) if "target" in cert else None)
    else:
        from tautrel.expressions import expression_from_json, parse_bracket, render_bracket

        if stdout.lstrip().startswith("{"):
            outcome = json.loads(stdout)["outcome"]
            text = outcome["expression"]
            if not isinstance(text, str):
                expr = expression_from_json(text)
                text = render_bracket(expr)
                if parse_bracket(text) != expr:
                    raise SystemExit("bracket round trip changes the class of %s" % key)
            terms = outcome["terms"]
        else:
            text, terms = stdout, len(parse_bracket(stdout))
        name = "expected/%s.bracket.gz" % slug(key)
        with open(os.path.join(out_dir, os.path.basename(name)), "wb") as fh:
            fh.write(gzip.compress(text.encode(), mtime=0))
        entry.update(terms=terms, **{"class": name})
    entries[key] = entry


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(checks.HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = run.Runner(root, workdir)
        for templates in pool.TEMPLATES.values():
            for template in templates:
                for weights in template.orders():
                    argv = template.concrete(weights)
                    record(runner, argv, " ".join(argv), out_dir, entries)
        for k, p in pool.SYMMETRIC_SHAPES:
            path = os.path.join(workdir, "sym.bracket")
            with open(path, "w") as fh:
                fh.write(pool.symmetric_text(k, p))
            record(runner, ["reduce", path, "--mode", "psi"],
                   pool.symmetric_key(k, p), out_dir, entries)
    with open(checks.EXPECTED, "w") as fh:
        json.dump({"ops": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
