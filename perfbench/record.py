"""Run the benchmark over ten seeds and write one record of the results.

    python3 perfbench/record.py --out perfbench/results/BENCH_<n>.json

For each workload of BENCHMARK.json it makes ``RUNS`` untraced runs with
seeds 0 to ``RUNS - 1``, then one traced run with seed 0, each in its own
process and one after another.  Per end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, beside the bound from BENCHMARK.json, and the same
figures for the unbounded ones (op count, op median and rate as measured,
control time, stage times).  Exit code 1 means a run was incorrect or a
spread exceeded its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        out = os.path.join(tmp, "record.json")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    record: dict = {"run_seconds": bench["run_seconds"], "env": None, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(RUNS):
            run = one_run(name, seed, bench["run_seconds"], 0)
            record["env"] = record["env"] or run["env"]
            ok &= run["result"]["correct"]
            runs.append({"seed": seed, "correct": run["result"]["correct"],
                         "attempted": run["attempted"], "failed": run["failed"],
                         "metrics": {k: m["value"] for k, m in run["metrics"].items()},
                         "unbounded": run["unbounded"]})
            print(f"{name} seed {seed} done", file=sys.stderr)
        summary = {}
        for metric, bound in bounds.items():
            s = summary[metric] = summarize([r["metrics"][metric] for r in runs], bound)
            flag = ""
            if s["spread"] > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            print(f"{name:<6} {metric:<20} median {s['median']:<12.6g} spread {s['spread']:7.2%}"
                  f"  bound {bound:.0%}{flag}")
        extra = {key: summarize([r["unbounded"][key] for r in runs], None)
                 for key in runs[0]["unbounded"]}
        entry = {"runs": runs, "summary": summary, "unbounded_summary": extra}
        traced = one_run(name, 0, bench["run_seconds"], 1)
        ok &= traced["result"]["correct"]
        entry["traced"] = {"seed": 0, "spans": traced["spans"],
                           "metrics": traced["result"]["metrics"]}
        record["workloads"][name] = entry

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
