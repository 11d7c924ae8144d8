#!/usr/bin/env python3
"""Compare a bench's stdout JSON against a committed exact baseline.

Usage: check_baseline.py BASELINE.json BENCH_STDOUT

BENCH_STDOUT is the bench's console output; its last top-level JSON
object (the block the bench prints at the end) is the result. Every
field under the baseline's "exact" key must be present in the result
with exactly the same value; any difference fails. Timing fields are
never listed in "exact", so they are not gated.
"""
import json
import sys


def last_json_object(text):
    """The last top-level {...} block in `text`, parsed."""
    end = text.rstrip().rfind("}")
    start = text.rfind("\n{", 0, end)
    start = 0 if start < 0 else start + 1
    return json.loads(text[start:end + 1])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        baseline = json.load(fh)
    with open(argv[2]) as fh:
        result = last_json_object(fh.read())
    mismatches = [
        f"{field}: baseline {want}, got {result.get(field, '<missing>')}"
        for field, want in baseline["exact"].items()
        if result.get(field) != want
    ]
    for line in mismatches:
        print(f"MISMATCH {baseline['bench']} {line}", file=sys.stderr)
    if mismatches:
        return 1
    print(f"{baseline['bench']} matches its baseline:",
          ", ".join(f"{k}={v}" for k, v in baseline["exact"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
