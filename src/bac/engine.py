"""Cached denoising with update-then-reuse semantics plus cost accounting.

Cached and full-precision runs share one forward loop, ``denoiser.execute``:
a plan becomes a (3L, K) update mask, at an update step a block recomputes its
residual on the current (possibly error-bearing) hidden state, and at every
other step the previously served residual is added unchanged, so the feature
served at step t always comes from max{i in C | i <= t}.  The run's trace
holds each computed residual once (about 4 KB per update at the default
config, against 9.8 MB for a full pass), with the slot each (block, step)
served.  Errors are measured after the run by ``block_errors``, the one error
pass (the error-surge lab uses it too), against the caller's full-precision
reference run with identical inputs: block by block, each block's served
residuals are gathered once, and the L2 distance of every step is one einsum.
Like ``execute``, ``run_cached`` takes an optional leading episode axis: E
episodes run as one batch under the plan's one mask, and each row equals its
own run bit for bit.

Cost model (multiply-accumulates, elementwise ops free):

    SA   4*T*d^2 + 2*T^2*d        projections + scores + value mixing
    CA   2*T*d^2 + 2*Tc*d^2 + 2*T*Tc*d
    FFN  8*T*d^2
    per-step overhead: input projection T*a*d, observation encoding Tc*a*d,
    output projection T*d*a
    reuse: charged T*d per reused block (the residual add)

The conditioning enters the count at every step: the observation encoding
in the overhead, and the key and value projections of the tokens (2*Tc*d^2)
in every CA call.  ``denoiser.execute`` computes both once per run, since
the tokens do not change across steps, and still charges them per step, so
the counts stay those of the model's per-step design.

flops_full counts every block at every step; flops_cached zeroes skipped
blocks and adds the reuse charges.  Decoder-only figures exclude both the
overhead and the reuse charges, so a uniform plan with |C| = S gives a
decoder reduction of exactly K/S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockId, canonical_blocks
from .config import DenoiserConfig
from .denoiser import FeatureTrace, MacCounter, ToyDenoiser, execute
from .errors import ConfigError, ConsistencyError, PlanError
from .bua import SchedulePlan
from .scheduler import Schedule, check_budget


@dataclass(frozen=True)
class FlopsBreakdown:
    flops_full: int
    flops_cached: int
    speedup: float
    decoder_flops_full: int
    decoder_flops_cached: int
    decoder_reduction: float
    overhead_per_step: int
    reuse_adds: int


@dataclass(frozen=True)
class RunReport:
    """Per-(block, step) caching errors and the cost accounting of one run.

    A batched run puts a leading episode axis on ``errors`` and
    ``final_action_l2`` (then an (E,) array); the plan's fields stay shared.
    The report writers in ``fileio`` read the layer count and the horizon K
    from ``update_mask``, and refuse a batched report: a file holds one run.
    """

    errors: np.ndarray        # (3L, K) L2 distance to the reference residual
    update_mask: np.ndarray   # (3L, K) bool, True where the block recomputed
    provenance: np.ndarray    # (3L, K) source step of the feature served at t
    final_action_l2: float | np.ndarray  # rms deviation of the final action
    flops: FlopsBreakdown

    def block_mean_errors(self) -> dict[BlockId, float]:
        """Each block's error averaged over steps, and over episodes if batched."""
        return {
            b: float(self.errors[..., b.ordinal, :].mean())
            for b in canonical_blocks(len(self.update_mask) // 3)
        }


def block_cost(config: DenoiserConfig, kind: str) -> int:
    t, d, tc = config.action_tokens, config.d_model, config.cond_tokens
    if kind == "SA":
        return 4 * t * d * d + 2 * t * t * d
    if kind == "CA":
        return 2 * t * d * d + 2 * tc * d * d + 2 * t * tc * d
    return 8 * t * d * d


def overhead_per_step(config: DenoiserConfig) -> int:
    t, d, a, tc = (
        config.action_tokens,
        config.d_model,
        config.action_dim,
        config.cond_tokens,
    )
    return t * a * d + tc * a * d + t * d * a


def uniform_plan(K: int, budget_S: int, layers: int) -> SchedulePlan:
    """Evenly spaced shared schedule: the standard caching baseline."""
    check_budget(budget_S, K)
    # floor(x + 0.5) rounding keeps the step set portable across languages
    steps = tuple(
        sorted({min(K - 1, int(np.floor(i * K / budget_S + 0.5))) for i in range(budget_S)})
    )
    sched = Schedule(steps, K)
    return SchedulePlan(
        layers=layers,
        schedules={b: sched for b in canonical_blocks(layers)},
    )


def flops_estimate(config: DenoiserConfig, plan: SchedulePlan) -> FlopsBreakdown:
    """Analytic MAC counts for a full-precision and a cached run of the plan;
    ``PlanError`` or ``ConsistencyError`` if its layers or K differ from the
    config's, so ``run_cached`` calls it before running anything."""
    if plan.layers != config.layers:
        raise PlanError(f"plan layers={plan.layers} != config layers={config.layers}")
    if plan.K != config.K:
        raise ConsistencyError(f"plan K={plan.K} != config K={config.K}")
    t, d = config.action_tokens, config.d_model
    overhead = overhead_per_step(config)
    decoder_full = 0
    decoder_cached = 0
    reuse_adds = 0
    for block in canonical_blocks(config.layers):
        cost = block_cost(config, block.kind)
        updates = len(plan.schedule(block))
        decoder_full += config.K * cost
        decoder_cached += updates * cost
        reuse_adds += (config.K - updates) * t * d
    flops_full = decoder_full + config.K * overhead
    flops_cached = decoder_cached + config.K * overhead + reuse_adds
    return FlopsBreakdown(
        flops_full=flops_full,
        flops_cached=flops_cached,
        speedup=flops_full / flops_cached,
        decoder_flops_full=decoder_full,
        decoder_flops_cached=decoder_cached,
        decoder_reduction=decoder_full / decoder_cached,
        overhead_per_step=overhead,
        reuse_adds=reuse_adds,
    )


# The most bytes a command may plan to hold; above it the preflight refuses
# the command before any weight is built.
MEMORY_CAP_BYTES = 2 * 1024**3


def memory_estimate(
    config: DenoiserConfig,
    full_traces: int = 0,
    plans: tuple[SchedulePlan, ...] = (),
    matrices: bool = False,
) -> int:
    """Bytes of the weights, the traces, the largest block call's temporaries
    and the similarity matrices a command holds, by arithmetic alone.

    The weights include the timestep table.  A trace holds one T x d_model
    float64 residual per update, the K actions and the (3L, K) slot index: a
    full pass updates all 3L x K (block, step) pairs, a cached run of a plan
    updates its schedules' steps.  A command that runs the denoiser also holds,
    during one attention call, its scores and their softmax: two
    (E, heads, T, max(T, Tc)) arrays, quadratic in T; and during one FFN call,
    the pre-activation and GELU's two temporaries: three (E, T, d_ff) arrays.
    The two calls never overlap, so their sum is an upper bound.  E is the
    number of full traces, which run as one batch (the profile's episodes do;
    for the two passes of ``export beta``, which run one after the other, this
    is an upper bound), or one episode when only cached runs are counted.
    ``matrices`` adds what ``profiler.similarity_matrices`` holds: 3L K x K
    matrices, plus three (E, K, K) products inside one ``similarity_matrix``
    call.  Other temporaries of the forward loop and of the statistics are not
    counted.
    """
    t, d, a, K = config.action_tokens, config.d_model, config.action_dim, config.K
    d_ff, n = config.d_ff, 3 * config.layers
    per_layer = 8 * d * d + 2 * d + (2 * d * d_ff + d_ff + 2 * d)  # SA, CA, FFN
    weights = 3 * a * d + config.layers * per_layer + K * d
    rows = full_traces or (1 if plans else 0)
    scores = 2 * rows * config.heads * t * max(t, config.cond_tokens)
    hidden = 3 * rows * t * d_ff
    sims = (n + 3 * full_traces) * K * K if matrices else 0

    def trace(updates: int) -> int:
        return updates * t * d + K * t * a + n * K

    updates = [sum(len(p.schedule(b)) for b in canonical_blocks(p.layers)) for p in plans]
    return 8 * (weights + scores + hidden + sims + full_traces * trace(n * K)
                + sum(trace(u) for u in updates))


def check_bytes(estimate: int, held: str, advice: str) -> None:
    """Raise ``ConfigError`` naming the cap if ``estimate`` bytes of ``held``
    exceed ``MEMORY_CAP_BYTES``."""
    if estimate > MEMORY_CAP_BYTES:
        raise ConfigError(
            f"this command would hold about {estimate / 1e9:.3g} GB ({estimate} bytes of "
            f"{held}), above the cap of {MEMORY_CAP_BYTES} bytes; {advice}")


def check_memory(
    config: DenoiserConfig,
    full_traces: int = 0,
    plans: tuple[SchedulePlan, ...] = (),
    matrices: bool = False,
) -> None:
    """Raise ``ConfigError`` if ``memory_estimate`` exceeds ``MEMORY_CAP_BYTES``."""
    held = "weights, traces, FFN activations" + (
        ", attention scores and similarity matrices" if matrices else " and attention scores")
    check_bytes(memory_estimate(config, full_traces, plans, matrices), held,
                "use a smaller config or fewer episodes")


def block_errors(run: FeatureTrace, reference: FeatureTrace) -> np.ndarray:
    """L2 distance of each residual ``run`` served to ``reference``'s, per
    (block, step): (3L, K) after ``run``'s leading episode axis, if any.

    ``reference`` is a full trace of the same inputs.  One block at a time:
    its served residuals are gathered once, and every step is one einsum.
    """
    errors = np.empty((*run.actions.shape[:-3], *run.slot.shape))
    for i, row in enumerate(np.moveaxis(reference.residuals, -4, 0)):
        diff = run.served(i)
        diff -= row
        errors[..., i, :] = np.sqrt(np.einsum("...tij,...tij->...t", diff, diff))
    return errors


def run_cached(
    denoiser: ToyDenoiser,
    plan: SchedulePlan,
    init_noise: np.ndarray,
    obs: np.ndarray,
    reference: FeatureTrace,
    mac: MacCounter | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Execute the plan and report errors against ``reference``, the full
    trace of ``denoise_full`` on the same inputs (sweeps share one across
    plans); the MAC counter sees the cached run alone.

    ``init_noise`` (E, T, a), ``obs`` (E, obs_dim) and a reference of the same
    E episodes run as one batch, as in ``execute``: the action, ``errors`` and
    ``final_action_l2`` gain the episode axis, and each row equals its own
    one-episode run bit for bit.
    """
    cfg = denoiser.config
    flops = flops_estimate(cfg, plan)
    n, t, lead = 3 * cfg.layers, cfg.action_tokens, np.shape(init_noise)[:-2]
    got = (reference.computed.shape, reference.slot.shape, reference.actions.shape)
    want = ((*lead, n * cfg.K, t, cfg.d_model), (n, cfg.K), (*lead, cfg.K, t, cfg.action_dim))
    if got != want:
        raise ConsistencyError(
            f"reference is not a full trace of this run: computed, slot and actions "
            f"shapes {got}, want {want}")
    update = np.zeros((n, cfg.K), dtype=bool)
    for block in canonical_blocks(cfg.layers):
        update[block.ordinal, list(plan.schedule(block).steps)] = True

    action, run = execute(denoiser, update, init_noise, obs, mac=mac)

    provenance = np.maximum.accumulate(np.where(update, np.arange(cfg.K), -1), axis=1)
    sq = ((action - reference.actions[..., -1, :, :]) ** 2).reshape(*lead, -1)
    final_dev = np.sqrt(np.mean(sq, axis=-1))
    report = RunReport(
        errors=block_errors(run, reference),
        update_mask=update,
        provenance=provenance,
        final_action_l2=final_dev if lead else float(final_dev),
        flops=flops,
    )
    return action, report
