"""Run one workload of the benchmark and print its result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-campaign --seed 1 \\
        --seconds 24 --trace 0

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  Progress and
the first failure, if any, go to standard error.  Exits 1 when an
output is wrong or an item failed, 2 when the program's sources are
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # One CPU for the whole run, threads included: on a shared machine,
    # hand-offs of the interpreter lock between threads on different
    # CPUs made serve-mixed vary by up to 40% from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from perfbench import harness, workloads

    if args.workload not in workloads.NAMES:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.NAMES)})"
        )
    if args.worker is not None:
        doc = harness.worker(args.workload, args.seed, args.seconds, args.worker)
        print(json.dumps(doc))
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
