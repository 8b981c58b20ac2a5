#!/usr/bin/env python3
"""Compare two sets of benchmark records (the records.jsonl run.py writes).

    python3 benchmark/compare.py BASE.jsonl CHANGE.jsonl

For every workload present in both files, prints each metric's median and
quartiles per side and the change in the median as a share of the base.
Refuses (exit 2) when the two sides' host fingerprints differ: records
from different hosts, SIMD backends, compilers or build types do not
measure the same thing.  The commit is part of the record but not of the
refusal, since comparing two commits is the point.  Also fails (exit 1)
when an exact count differs between records of the same workload and
seed: those counts may back a claim only while they repeat exactly.  The
binary marks each such count `"exact": true` in its record.
"""

import json
import statistics
import sys
from collections import defaultdict

HOST_KEYS = ("nproc", "simd", "compiler", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(record):
    return tuple(record["fingerprint"].get(k) for k in HOST_KEYS)


def exact_mismatches(records):
    seen = {}
    bad = []
    for r in records:
        for name, m in r["metrics"].items():
            if not m.get("exact"):
                continue
            key = (r["workload"], r["seed"], name)
            if key in seen and seen[key] != m["value"]:
                bad.append(f"{r['workload']} seed {r['seed']}: {name} "
                           f"{seen[key]} vs {m['value']}")
            seen.setdefault(key, m["value"])
    return bad


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    hosts = {host(r) for r in base + change}
    if len(hosts) > 1:
        print("refusing to compare: host fingerprints differ:",
              sorted(hosts), file=sys.stderr)
        return 2

    bad = exact_mismatches(base) + exact_mismatches(change)
    for line in bad:
        print("EXACT COUNT MISMATCH:", line, file=sys.stderr)

    def group(records):
        g = defaultdict(lambda: defaultdict(list))
        for r in records:
            for name, m in r["metrics"].items():
                g[(r["workload"], r["trace"])][name].append(m["value"])
        return g

    gb, gc = group(base), group(change)
    for key in sorted(set(gb) & set(gc)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})")
        for name in gb[key]:
            if name not in gc[key]:
                continue
            b, c = summary(gb[key][name]), summary(gc[key][name])
            delta = (c[1] - b[1]) / b[1] if b[1] else float("nan")
            print(f"  {name:40s} base {b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}]"
                  f"  change {c[1]:12.5g} [{c[0]:.5g}, {c[2]:.5g}]"
                  f"  {delta:+.3%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
