"""The control: a fixed piece of each workload's work, run on frozen code,
that measures how fast the host runs right now.

On the shared 2-core host the baseline was recorded on, the same code runs up
to 1.6x faster or slower for minutes at a time.  Two sets of ten 45-s sweep
runs of one commit, made about 20 minutes apart, had median op times 26%
apart.  So a run times the control before every op and every set-up and
divides their times by it.  The control runs on ``frozenbac``, a copy of
bac's modules that later commits do not change, so a change to ``src/bac``
moves the op time and not the control.  Over one set of ten runs per
workload, the quartile spread of the run's median op time was 25% (plan) and
32% (sweep) as measured, and 9% on both after the division.

Each control does the kind of work that dominates its workload's op:

- ``sweep``: four anchored-DP solves at S=10 (pure Python), one full pass and
  one cached run of a uniform plan against it (numpy block kernels).
- ``plan``: a one-episode profile (full traces and the pairwise-L1 spread).
"""

from __future__ import annotations

import time

import frozenbac.config as fconfig
import frozenbac.denoiser as fdn
import frozenbac.engine as fengine
import frozenbac.profiler as fprofiler
import frozenbac.scheduler as fscheduler

# The control's median time on the baseline's host, by workload.  Op times
# are scaled to it, so that they read in ms at that host's usual speed.
REF_S = {"plan": 1.41, "sweep": 0.81}

_BUDGET = 10
_EPISODE_SEED = 777
_PROFILE_SEED = 99
_ANCHORED_BLOCKS = 4


def build(workload: str):
    """The control of ``workload``: a function that runs it once and returns
    its wall time in seconds.  Building it is not timed."""
    config = fconfig.DenoiserConfig()
    den = fdn.build_denoiser(config)
    if workload == "plan":
        def work() -> None:
            fprofiler.profile_task(den, 1, _PROFILE_SEED)
    else:
        init, obs = fdn.synth_episode(config, _EPISODE_SEED)
        matrices = list(fprofiler.similarity_matrices(den, 1, _PROFILE_SEED).values())
        matrices = matrices[:_ANCHORED_BLOCKS]
        plan = fengine.uniform_plan(config.K, _BUDGET, config.layers)

        def work() -> None:
            for sim in matrices:
                fscheduler.solve_schedule_anchored(sim, _BUDGET)
            _, trace = fdn.denoise_full(den, init, obs)
            fengine.run_cached(den, plan, init, obs, reference=trace)

    def timed() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return timed
