"""Compare two records written by record.py, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit code 2) when the two records were measured on different
backends: kernel backend, BLAS library or thread count, or core count.
Otherwise it prints, per workload and end-to-end metric, both medians, the
change, and a verdict against the bound from BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than the bound;
- ``unresolved``: either side's quartile spread exceeds the bound, and not
  every new run beats every base run;
- ``better`` / ``same`` otherwise (``better`` when the change exceeds the base's
  spread).

Exit code 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

import envinfo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new["median"] - base["median"]) / abs(base["median"])
    if max(base["spread"], new["spread"]) > bound:
        wins = all(sign * (n - b) > 0 for n in new["values"] for b in base["values"])
        return "better" if wins else "unresolved"
    if change < -bound:
        return "worse"
    return "better" if change > base["spread"] else "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    mismatched = envinfo.mismatched_backends(base["env"], new["env"])
    if mismatched:
        print("refusing to compare results from different backends:", file=sys.stderr)
        for line in mismatched:
            print(f"  {line}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    worse = False
    for name, entry in new["workloads"].items():
        if name not in base["workloads"]:
            print(f"{name}: not in the base record")
            continue
        for m in metrics:
            b = base["workloads"][name]["summary"].get(m["name"])
            n = entry["summary"].get(m["name"])
            if b is None or n is None:
                print(f"{name:<6} {m['name']:<20} missing from a record")
                continue
            v = verdict(b, n, m["better"], m["bound"])
            worse |= v == "worse"
            change = (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else float("inf")
            print(f"{name:<6} {m['name']:<20} {b['median']:>12.6g} -> {n['median']:<12.6g}"
                  f" {change:+8.2%}  bound {m['bound']:.0%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
