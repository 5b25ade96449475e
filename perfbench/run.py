"""Benchmark of bac: one closed-loop workload per run.

    python3 perfbench/run.py --workload plan|sweep --seed N --seconds S --trace 0|1 [--out FILE]

One client in one process sends the next op only after the last one has
finished.  The run sets the workload up, then runs ops until ``--seconds`` of
ops have passed and at least one pass over the workload's case pool is done.
It sets the workload up ``SETUP_REPS - 1`` more times, spread over the ops.
Untraced, it times the workload's control (see ``control``) before each op
and each set-up.
Every op's outputs are checked against ``data/reference.json``;
an op that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced in alternating order, then one probe op of the
other workload (see ``probe``), and prints the per-layer metrics from the
traced executions together with ``trace.overhead_pct``, the median paired
slowdown tracing causes.  The spans of a traced run go to
``perfbench/out/spans-<workload>.jsonl``.

Human-readable lines come first; the last line of stdout is the JSON result.
``--out`` also writes a record with the environment and the raw samples.
METRICS.md defines each metric per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import control
import envinfo
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 4
NAMES = ("plan", "sweep")


def import_bac() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "bac", "__init__.py")):
        raise SystemExit(f"perfbench: no bac package under {SRC}")
    sys.path.insert(0, SRC)
    import bac

    if not os.path.abspath(bac.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported bac from {bac.__file__}, not {SRC}")


def import_seconds() -> float:
    """Process start to ``import bac.cli`` done, in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import bac.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, workload, reference: list[dict], tracer=None):
        self.wl = workload
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def execute(self, case: int, traced: bool):
        """One op plus its check; returns (phases, check phases, observed) or None."""
        self.attempted += 1
        untraced_span = self.wl.stage_span
        try:
            # traced, the tracer wraps the op only: the check phase is not part of it
            if traced:
                self.tracer.install()
                self.wl.stage_span = self.tracer.span
            try:
                with self.wl.stage_span("op"):
                    phases, observed = self.wl.op(case)
            finally:
                if traced:
                    self.tracer.uninstall()
                    self.wl.stage_span = untraced_span
            extra = self.wl.check_phase(case)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        check_phases = {}
        if extra is not None:
            check_phases, observed["check"] = extra
        mismatches = reference.compare(observed, self.reference[case])
        if mismatches:
            print(f"perfbench: case {case} failed its check: {mismatches[:5]}", file=sys.stderr)
            self.failed += 1
            return None
        return phases, check_phases, observed


def probe(name: str, workdir: str, tracer, runner: Runner) -> None:
    """One traced set-up and op (case 0) of the other workload, after the
    timed ops, so that layers this workload never calls still get a per-call
    time.  Its spans carry op ``tracing.PROBE``; its check counts like an op's."""
    import workloads

    other_name = next(n for n in NAMES if n != name)
    other = workloads.WORKLOADS[other_name](os.path.join(workdir, "probe"))
    other.prepare()
    tracer.op = tracing.PROBE
    tracer.install()
    try:
        other.setup()
    finally:
        tracer.uninstall()
    probe_runner = Runner(other, reference.load()[other_name], tracer)
    probe_runner.execute(0, traced=True)
    tracer.op = -1
    runner.attempted += probe_runner.attempted
    runner.failed += probe_runner.failed


def op_seconds(phases: dict[str, list[float]]) -> float:
    return sum(sum(v) for v in phases.values())


def run(args) -> dict:
    import workloads  # imports bac, so only after import_bac()
    from bac.rng import derive_seed

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](workdir)
    ref = reference.load()[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    run_control = None if tracer else control.build(args.workload)
    runner = Runner(wl, ref, tracer)
    imports, setups, setup_seconds, setup_controls = [], [], [], []

    def set_up() -> None:
        """One sample of process start-up, then one set-up of the workload;
        untraced, both after a run of the control."""
        if run_control is not None:
            setup_controls.append(run_control())
        imports.append(import_seconds())
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            setups.append(wl.setup())
            setup_seconds.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()

    try:
        wl.prepare()
        set_up()
        start_case = derive_seed(args.seed % (1 << 64), 0) % wl.pool
        ops, checks, first_pass, paired, controls = [], [], {}, [], []
        # The other set-ups are spread over the run, so that a burst of load
        # from other tenants cannot cover every sample of a set-up stage.  They
        # wait for the first pass, so that the peak memory taken after it never
        # holds two set-ups' state.
        began = time.perf_counter()
        in_setup = 0.0
        i = 0
        while True:
            elapsed = time.perf_counter() - began - in_setup
            if i >= wl.pool and elapsed >= args.seconds:
                break
            if (i >= wl.pool and len(setups) < SETUP_REPS
                    and elapsed >= len(setups) * args.seconds / SETUP_REPS):
                start = time.perf_counter()
                set_up()
                in_setup += time.perf_counter() - start
            case = (start_case + i) % wl.pool
            if tracer is None:
                control_s = run_control()
                done = runner.execute(case, traced=False)
                results = [done]
                if done is not None:
                    controls.append(control_s)
            else:
                tracer.op = i
                order = (False, True) if i % 2 == 0 else (True, False)
                results = [runner.execute(case, traced=t) for t in order]
                tracer.op = -1
                if all(results):
                    plain, traced = results if order[0] is False else results[::-1]
                    paired.append(op_seconds(traced[0]) / op_seconds(plain[0]))
            for done in results:
                if done is not None:
                    ops.append(done[0])
                    checks.append(done[1])
                    if i < wl.pool:
                        first_pass.setdefault(case, done[2])
            if i == wl.pool - 1:
                # peak memory after exactly one pass: later ops only add
                # allocator noise that depends on how many ops fit the run
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            i += 1
        while len(setups) < SETUP_REPS:
            set_up()
        measured = time.perf_counter() - began
        if tracer is not None:
            probe(args.workload, workdir, tracer, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and len(first_pass) == wl.pool
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": envinfo.collect(ROOT),
        "attempted": runner.attempted, "failed": runner.failed,
        "correct": correct, "measured_s": measured, "start_case": start_case,
        "import_s": imports, "setup_s": setup_seconds,
    }
    if tracer is None:
        samples = {"op": [op_seconds(p) for p in ops], "control": controls,
                   "import": imports, "setup": setup_seconds, "setup_control": setup_controls,
                   **wl.stage_samples(setups, ops, checks)}
        record["metrics"] = end_to_end(wl, runner, samples,
                                       [first_pass[c] for c in sorted(first_pass)], rss_mb)
        record["unbounded"] = unbounded(samples)
        record["samples"] = samples
    else:
        metrics = tracing.layer_metrics(tracer, n_ops=i)
        overhead = (statistics.median(paired) - 1.0) * 100.0 if paired else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["spans"] = len(tracer.spans)
        tracer.write_jsonl(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    return record


def end_to_end(wl, runner, samples, first_pass, rss_mb) -> dict:
    """The bounded end-to-end metrics.

    The op median and rate cover every op of the run.  Each op's time, and
    each start-up and set-up time, is divided by the time of the control run
    just before it and multiplied by the control's reference time, which
    takes the host's speed out of it.
    ``wall_speedup`` is a median of ratios of two timings made back to back,
    so host speed cancels out of it too.  ``unbounded`` reports the rest.
    """
    ref = control.REF_S[wl.name]

    def scaled(key: str, control_key: str) -> list[float]:
        return [x / c * ref for x, c in zip(samples[key], samples[control_key])]

    op_s = scaled("op", "control")
    setup_s = median(scaled("import", "setup_control")) + median(scaled("setup", "setup_control"))
    # after failures the first pass is incomplete; the run is then incorrect anyway
    rms, mac = wl.quality(first_pass) if first_pass else (0.0, 0.0)
    values = {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (median(op_s) * 1e3, "ms"),
        "ops_per_s": (len(op_s) / sum(op_s) if op_s else 0.0, "1/s"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "wall_speedup": (median(samples["speedup"]), "x"),
        "mac_speedup": (mac, "x"),
        "final_action_rms": (rms, "rms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def unbounded(samples) -> dict:
    """Figures printed and recorded but not bounded: the op count, the
    set-up time, op median and rate as measured, the control's median, and
    the stage medians (full, cached, schedule and stage times) of an op."""
    op_s = samples["op"]
    out = {"ops": len(op_s),
           "raw_setup_s": median(samples["import"]) + median(samples["setup"]),
           "raw_op_ms.p50": median(op_s) * 1e3,
           "raw_ops_per_s": len(op_s) / sum(op_s) if op_s else 0.0,
           "control_ms.p50": median(samples["control"]) * 1e3}
    for stage in ("full", "cached", "schedule"):
        out[f"{stage}_ms.p50"] = median(samples[stage]) * 1e3
    for stage in ("profile", "run", "verify"):
        if samples.get(stage):
            out[f"stage_ms.{stage}.p50"] = median(samples[stage]) * 1e3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    import_bac()
    record = run(args)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"measured={record['measured_s']:.1f}s backend={record['env']['kernel_backend']} "
          f"blas_threads={record['env']['blas_threads']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:<32} {metric['value']:>14.6g} {metric['unit']}")
    if record.get("unbounded"):
        print("  not bounded: " + ", ".join(f"{k} {v:.6g}" for k, v in record["unbounded"].items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
