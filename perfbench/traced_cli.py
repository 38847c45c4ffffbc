"""Run one tautrel CLI call with the layer spans of ``tracer`` installed.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py SPANFILE OP_ID -- ARGS...``
where ARGS are the arguments of ``python -m tautrel.cli``.  The CLI's
output and exit code are unchanged; the spans and counts of the call are
written to SPANFILE (and SPANFILE.bin) when it ends.
"""

import sys

import tracer


def main():
    span_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANFILE OP_ID -- ARGS...")
    spans = tracer.Tracer()
    tracer.install(spans)
    import tautrel.cli

    code = tautrel.cli.main(argv)
    spans.finish()
    spans.write(span_file, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
