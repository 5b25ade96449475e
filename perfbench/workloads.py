"""The closed-loop workloads: plan and sweep.

Each workload has a fixed pool of cases (episodes, budgets, profiling seeds)
whose outputs under the seed commit are stored in ``data/reference.json``;
``--seed`` picks where in the pool a run starts, and op i runs case
``(start + i) % pool``.  A run always completes at least one pass over the
pool, so the quality metrics (``final_action_rms``, ``mac_speedup``) are means
over the same cases on every seed and every commit.

Every call into bac goes through a module attribute (``dn.denoise_full``), so
the tracer's wrappers see it.  An op returns the wall time of each of its
timed phases and the observations its check compares with the reference.
Input generation and checks sit outside the timed phases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

import bac.bua as bua
import bac.cli as cli
import bac.config as bconfig
import bac.denoiser as dn
import bac.engine as engine
import bac.fileio as fileio
import bac.profiler as profiler
import bac.rng as rng
import bac.scheduler as scheduler

CONFIG = bconfig.DenoiserConfig()  # the default config: L=8, d=64, heads 4, T=8, Tc=4, K=100
BUDGET = 10
TOPK = 5
PROFILE_SEED = 42          # the sweep's set-up profile (the README's seed)
SWEEP_EPISODE_BASE = 11    # sweep case k has episode seed derive_seed(11, k)
# Budgets of the sweep cycle, ordered so that every window of consecutive ops
# has its median near S=10: the anchored DP costs grow with S, and a run holds
# only a few sweep ops, so a sorted cycle would make the median op time depend
# on where the run starts.
SWEEP_BUDGETS = (10, 8, 12, 9, 11)
PLAN_PROFILE_SEEDS = (42, 43, 44, 45)
PLAN_RUN_SEEDS = (9, 10, 11, 12)
CHECK_REPLAYS = 2
SWEEP_PLANS = ("uniform", "dp", "dp_repair", "anchored", "anchored_repair")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


Phases = dict[str, list[float]]  # seconds per call, by phase name


def _timed(phases: Phases, key: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    phases.setdefault(key, []).append(time.perf_counter() - start)
    return result


def _flat(samples: list[Phases], key: str) -> list[float]:
    return [x for phases in samples for x in phases.get(key, [])]


def _per(samples: list[Phases], *keys: str) -> list[float]:
    """One sample per set-up or op: the summed time of ``keys`` in it."""
    return [sum(sum(phases.get(k, [])) for k in keys) for phases in samples]


def _speedups(samples: list[Phases]) -> list[float]:
    """Full-pass time over cached-run time, paired within each op.

    A pair runs back to back, so both halves see the same machine speed.
    """
    return [f / c for p in samples if "full" in p for f, c in _pairs(p["full"], p["cached"])]


def _pairs(full: list[float], cached: list[float]) -> list[tuple[float, float]]:
    """Each cached run with the full pass it ran against: one full pass per
    replay on plan, one full pass shared by five cached runs on sweep."""
    if len(full) == len(cached):
        return list(zip(full, cached))
    return [(full[0], c) for c in cached]


def _dp_plan(profile, budget: int):
    schedules = {
        block: scheduler.solve_schedule(stats.s, profile.K, budget)[0]
        for block, stats in profile.blocks.items()
    }
    return bua.SchedulePlan(layers=profile.layer_count, schedules=schedules)


def _cached_obs(action: np.ndarray, report) -> dict:
    return {
        "cached_action": action.ravel().tolist(),
        "final_rms": report.final_action_l2,
        "mac_speedup": report.flops.speedup,
        "update_frac": float(report.update_mask.mean()),
    }


class Workload:
    """Common shape: ``setup`` builds the state, ``op`` runs one case."""

    name = ""
    pool = 0

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "toy.cfg")
        self.state = None
        # span context for code of the benchmark itself; the tracer's when traced
        self.stage_span = lambda name: contextlib.nullcontext()

    def prepare(self) -> None:
        """Untimed: write the config file the workloads load."""
        os.makedirs(self.workdir, exist_ok=True)
        bconfig.write_config(CONFIG, self.config_path)

    def setup(self) -> Phases:
        """One set-up; returns its phase times."""
        raise NotImplementedError

    def op(self, case: int) -> tuple[Phases, dict]:
        raise NotImplementedError

    def check_phase(self, case: int) -> tuple[Phases, dict] | None:
        """Extra calls a check needs after the op, if any; not part of the op."""
        return None

    def quality(self, observations: list[dict]) -> tuple[float, float]:
        """(final_action_rms, mac_speedup) over one pass of the pool."""
        return (float(np.mean([o["final_rms"] for o in observations])),
                float(np.mean([o["mac_speedup"] for o in observations])))

    def stage_samples(self, setups: list[Phases], ops: list[Phases],
                      checks: list[Phases]) -> dict[str, list[float]]:
        """Samples of each stage, from set-ups, ops and check phases.

        Values are seconds, except ``speedup``, a ratio.  Every workload has
        ``full``, ``cached``, ``speedup``, ``schedule`` and ``run``.
        """
        raise NotImplementedError


class Sweep(Workload):
    """One shared reference, five plans per op at a budget from the cycle."""

    name = "sweep"
    pool = len(SWEEP_BUDGETS)

    def setup(self):
        phases: Phases = {}
        config = _timed(phases, "config", bconfig.load_config, self.config_path)
        den = _timed(phases, "build", dn.build_denoiser, config)
        prof = _timed(phases, "profile", profiler.profile_task, den, 1, PROFILE_SEED)
        matrices = _timed(phases, "simmatrices", profiler.similarity_matrices, den, 1, PROFILE_SEED)
        self.state = (config, den, prof, matrices)
        return phases

    def op(self, case):
        config, den, prof, matrices = self.state
        budget = SWEEP_BUDGETS[case]
        init, obs = dn.synth_episode(config, rng.derive_seed(SWEEP_EPISODE_BASE, case))
        phases: Phases = {}
        full_action, trace = _timed(phases, "full", dn.denoise_full, den, init, obs)

        start = time.perf_counter()
        dp = _dp_plan(prof, budget)
        anchored = bua.SchedulePlan(
            layers=config.layers,
            schedules={b: scheduler.solve_schedule_anchored(m, budget) for b, m in matrices.items()},
        )
        upstream = bua.select_upstream_blocks(prof, TOPK)
        plans = {
            "uniform": engine.uniform_plan(config.K, budget, config.layers),
            "dp": dp,
            "dp_repair": bua.bubble_union(dp, upstream),
            "anchored": anchored,
            "anchored_repair": bua.bubble_union(anchored, upstream),
        }
        phases["schedule"] = [time.perf_counter() - start]

        observed = {"budget": budget, "full_action": full_action.ravel().tolist(), "plans": {}}
        for name in SWEEP_PLANS:
            action, report = _timed(
                phases, "cached", engine.run_cached, den, plans[name], init, obs, reference=trace)
            entry = {"sha": sha256(fileio.dump_plan(plans[name]))}
            if name.endswith("_repair"):
                before = plans[name[: -len("_repair")]]
                entry["diff_sha"] = sha256(fileio.dump_added_steps(bua.added_steps(before, plans[name])))
            entry.update(_cached_obs(action, report))
            observed["plans"][name] = entry
        return phases, observed

    def stage_samples(self, setups, ops, checks):
        return {
            "full": _flat(ops, "full"),
            "cached": _flat(ops, "cached"),
            "speedup": _speedups(ops),
            "schedule": _per(ops, "schedule"),
            "run": _per(ops, "full", "cached"),
            "profile": _per(setups, "profile"),
        }

    def quality(self, observations):
        runs = [p for o in observations for p in o["plans"].values()]
        return (float(np.mean([r["final_rms"] for r in runs])),
                float(np.mean([r["mac_speedup"] for r in runs])))


class Plan(Workload):
    """The README pipeline through ``bac.cli.main``, one stage at a time."""

    name = "plan"
    pool = len(PLAN_PROFILE_SEEDS)

    def setup(self):
        phases: Phases = {}
        self.state = _timed(phases, "config", bconfig.load_config, self.config_path)
        return phases

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _stage(self, phases, stage: str, argv: list[str]) -> None:
        sink = io.StringIO()
        start = time.perf_counter()
        with self.stage_span(f"cli.{stage}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main([stage, *argv])
        phases[stage] = [time.perf_counter() - start]
        if code != 0:
            raise RuntimeError(f"bac {stage} exited {code}: {sink.getvalue().strip()}")

    def op(self, case):
        p = self._path
        phases: Phases = {}
        self._stage(phases, "profile", [
            "--config", self.config_path, "--episodes", "3",
            "--seed", str(PLAN_PROFILE_SEEDS[case]), "--out", p("task.bacprof")])
        self._stage(phases, "schedule", [
            "--profile", p("task.bacprof"), "--budget", str(BUDGET), "--out", p("task.bacsched")])
        self._stage(phases, "bubble", [
            "--profile", p("task.bacprof"), "--sched", p("task.bacsched"), "--topk", str(TOPK),
            "--out", p("task_repaired.bacsched"), "--diff", p("added.txt")])
        self._stage(phases, "run", [
            "--config", self.config_path, "--sched", p("task_repaired.bacsched"),
            "--seed", str(PLAN_RUN_SEEDS[case]), "--report", p("run.report"),
            "--baseline", f"uniform:{BUDGET}", "--surface", p("surface.csv")])
        self._stage(phases, "verify", [])
        return phases, self._observe(case)

    def check_phase(self, case):
        """Rerun the written plan through the library, ``CHECK_REPLAYS`` times.

        The CLI writes only the final-action deviation, so this pass recovers
        both final actions for the check.  It also times back-to-back full and
        cached passes on this workload's own three-episode plan, for
        ``wall_speedup``; two replays per op double its samples.
        """
        config = self.state
        with open(self._path("task_repaired.bacsched"), encoding="utf-8") as fh:
            plan = fileio.parse_plan(fh.read(), K=config.K)
        den = dn.build_denoiser(config)
        init, obs = dn.synth_episode(config, PLAN_RUN_SEEDS[case])
        phases: Phases = {}
        for _ in range(CHECK_REPLAYS):
            full_action, trace = _timed(phases, "full", dn.denoise_full, den, init, obs)
            action, report = _timed(
                phases, "cached", engine.run_cached, den, plan, init, obs, reference=trace)
        observed = {"full_action": full_action.ravel().tolist()}
        observed.update(_cached_obs(action, report))
        return phases, observed

    def _observe(self, case: int) -> dict:
        p = self._path

        def read(name: str) -> str:
            with open(p(name), encoding="utf-8") as fh:
                return fh.read()

        profile = fileio.parse_profile(read("task.bacprof"))
        report = fileio.parse_report(read("run.report"))
        mask_text = read("surface.csv.mask")
        mask = np.array([[int(v) for v in line.split(",")[1:]]
                         for line in mask_text.splitlines()[1:]])
        surface_means = {
            line.split(",", 1)[0]: float(np.mean([float(v) for v in line.split(",")[1:]]))
            for line in read("surface.csv").splitlines()[1:]
        }
        return {
            "profile_s": [v for stats in profile.blocks.values() for v in stats.s.tolist()],
            "profile_l1": [stats.ell for stats in profile.blocks.values()],
            "sched_sha": sha256(read("task.bacsched")),
            "repaired_sha": sha256(read("task_repaired.bacsched")),
            "diff_sha": sha256(read("added.txt")),
            "mask_sha": sha256(mask_text),
            "update_frac": float(mask.mean()),
            "mac_speedup": report["speedup"],
            "final_rms": report["final_action_l2"],
            "report": report,
            "surface_means": surface_means,
        }

    def stage_samples(self, setups, ops, checks):
        return {
            "full": _flat(checks, "full"),
            "cached": _flat(checks, "cached"),
            "speedup": _speedups(checks),
            "profile": _per(ops, "profile"),
            "verify": _per(ops, "verify"),
            "run": _per(ops, "run"),
            "schedule": _per(ops, "schedule", "bubble"),
        }


WORKLOADS = {w.name: w for w in (Plan, Sweep)}
