#!/usr/bin/env python3
"""Checks the exact work counters of a traced benchmark run against a record.

    python3 perfbench/run.py --workload fullname --seed 7 --seconds 1 \
        --trace 1 > fullname.out
    python3 tools/check_counters.py --workload fullname fullname.out

The last line of the run's output is its result JSON. The counters recorded
in tools/perfbench_counters.json repeat exactly for a workload and seed: they
count the work the search does (pairs scored, recipes built, formulas
considered, postings scanned, ...), not time. A change that moves one has
changed that work, so it must say why and update the record. The service
counts and the byte sizes are not recorded: they depend on thread timing and
on the allocator. Exits 0 when the run is correct and every recorded counter
matches, 1 otherwise.
"""

import argparse
import json
import os
import sys

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perfbench_counters.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--record", default=RECORD)
    parser.add_argument("output", help="the run's stdout, saved to a file")
    args = parser.parse_args()

    with open(args.record) as f:
        record = json.load(f)
    if args.workload not in record["workloads"]:
        sys.exit(f"check_counters: no record for workload {args.workload!r}")
    expected = record["workloads"][args.workload]

    with open(args.output) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"check_counters: {args.output} is empty")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit(f"check_counters: the last line of {args.output} is not JSON")

    problems = []
    if result.get("correct") is not True:
        problems.append(f"the run was not correct: {result.get('failed')} "
                        f"of {result.get('attempted')} checks failed")
    metrics = result.get("metrics", {})
    for name, want in expected.items():
        if name not in metrics:
            problems.append(f"{name}: missing from the result")
            continue
        got = metrics[name]["value"]
        if got != want:
            problems.append(f"{name}: {got:.17g}, recorded {want}")
    for problem in problems:
        print(f"check_counters: {args.workload}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_counters: {args.workload}: {len(expected)} counters match "
          f"the record (seed {record['seed']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
