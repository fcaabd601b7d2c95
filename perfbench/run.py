"""The repro benchmark: four workloads timed as users run them.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--expected FILE]

Run from anywhere inside a checkout of the repository; the program is
the checkout's ``src/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The line before it carries the
details: sample counts and tails of every timing, the payload digest,
the trace file and the stamp (git SHA, Python, NumPy, nproc).

Every output is checked (``bench.check_report`` and the workload's own
checks, including the payload digest recorded in ``expected.json``); a
failed check exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import workloads
from bench import HERE, ROOT, Bench, CheckFailed

#: the run is abandoned (children killed, exit 3) after this many seconds
WATCHDOG_S = 170


def _timeout(signum, frame):
    raise TimeoutError(f"the run took longer than {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected", default=os.path.join(HERE, "expected.json"),
        help="recorded payload digests (default: perfbench/expected.json)",
    )
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no program to measure at {package}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    with open(args.expected) as handle:
        expected = json.load(handle)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)
    try:
        with Bench(args.seed, args.seconds, bool(args.trace)) as bench:
            bench.build()
            result = workloads.run_suite(bench, args.workload, expected)
            stamp = bench.stamp()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    unknown = set(result.metrics) - {m["name"] for m in wanted}
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    metrics = {}
    for metric in wanted:
        # per-layer metrics of a layer the workload never enters are 0
        value = result.metrics.get(metric["name"])
        if value is None and not args.trace:
            print(f"error: no value for {metric['name']}", file=sys.stderr)
            return 2
        metrics[metric["name"]] = {"value": value or 0, "unit": metric["unit"]}
    details = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, stamp=stamp, **result.details,
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
