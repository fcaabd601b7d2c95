"""Run one ``repro`` command in this interpreter, optionally traced.

    python perfbench/inproc.py --timing OUT.json [--trace SPANS.jsonl]
        [--stdout FILE] -- <repro arguments>

The timed region starts after ``import repro`` (the import is measured
on its own) and covers ``repro.cli.main`` with the given arguments,
its standard output going to ``--stdout``.  With ``--trace`` the
wrappers of :mod:`tracing` are installed first, ``repro.cli.main`` is
the root span, and the spans are written as JSONL when the command
returns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import tracing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--stdout", default=os.devnull)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import repro.cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(args.stdout, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        root = tracer.open("cli.main") if tracer else None
        try:
            code = repro.cli.main(argv)
        finally:
            if tracer:
                tracer.close(root)
        wall = time.perf_counter() - start
    if tracer:
        tracer.write(args.trace)
    with open(args.timing, "w") as handle:
        json.dump({"wall_s": wall, "exit": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
