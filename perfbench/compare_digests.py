#!/usr/bin/env python3
"""Compare two modeled-statistics digests key by key.

    python3 perfbench/compare_digests.py OLD.digest.json NEW.digest.json

Digests are written by perfbench/run.py to
.bench_out/<workload>-seed<n>-trace<t>.digest.json.  Compare runs of the
same workload and seed from two commits.  Every modeled statistic
(cycles, bytes, energy, TTFT/TPOT, losses, bits/weight, effectual terms,
image hashes) is printed exactly, so a change that only makes the host
faster must leave every key identical.  Prints each key that differs or
exists on one side only; exits 1 if there is any, else 0.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)["entries"]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    differ = 0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a != b:
            differ += 1
            print(f"{key}: {a if a is not None else '(absent)'} -> "
                  f"{b if b is not None else '(absent)'}")
    print(f"{differ} of {len(set(old) | set(new))} modeled statistics differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
