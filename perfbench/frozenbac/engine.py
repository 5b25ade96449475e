"""Cached denoising with update-then-reuse semantics plus cost accounting.

At an update step a block recomputes its residual on the current (possibly
error-bearing) hidden state through the same code path as full precision and
overwrites its cache; at every other step the cached residual is added
unchanged, so the feature served at step t always comes from
max{i in C | i <= t}.  Errors are measured against a full-precision reference
run with identical inputs.

Cost model (multiply-accumulates, elementwise ops free):

    SA   4*T*d^2 + 2*T^2*d        projections + scores + value mixing
    CA   2*T*d^2 + 2*Tc*d^2 + 2*T*Tc*d
    FFN  8*T*d^2
    per-step overhead: input projection T*a*d, observation encoding Tc*a*d,
    output projection T*d*a
    reuse: charged T*d per reused block (the residual add)

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
from .denoiser import (
    FeatureTrace,
    MacCounter,
    ToyDenoiser,
    block_residual,
    denoise_full,
    embed_action,
    encode_obs,
    project_action,
)
from .errors import BudgetError, ConsistencyError, PlanError
from .bua import SchedulePlan
from .scheduler import Schedule


@dataclass
class CacheState:
    """Last cached residual per block and the step it was computed at."""

    values: dict[BlockId, np.ndarray]
    steps: dict[BlockId, int]


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
    """Per-(block, step) caching errors and the cost accounting of one run."""

    errors: np.ndarray        # (3L, K) L2 distance to the reference residual
    cos_sim: np.ndarray       # (3L, K) cosine to the reference residual (nan if undefined)
    update_mask: np.ndarray   # (3L, K) bool, True where the block recomputed
    provenance: np.ndarray    # (3L, K) source step of the feature served at t
    final_action_l2: float    # rms deviation of the final action
    flops: FlopsBreakdown
    instrumented_macs: int | None = None
    captured: dict[tuple[BlockId, int], np.ndarray] | None = None

    def block_mean_errors(self, layers: int) -> dict[BlockId, float]:
        return {
            b: float(self.errors[b.ordinal].mean())
            for b in canonical_blocks(layers)
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
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")
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
    """Analytic MAC counts for a full-precision and a cached run of the plan."""
    if plan.K != config.K:
        raise ConsistencyError(f"plan K={plan.K} != config K={config.K}")
    if plan.layers != config.layers:
        raise ConsistencyError(
            f"plan layers={plan.layers} != config layers={config.layers}"
        )
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


def _cos_or_nan(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return float("nan")
    return float(a.ravel() @ b.ravel() / (na * nb))


def run_cached(
    denoiser: ToyDenoiser,
    plan: SchedulePlan,
    init_noise: np.ndarray,
    obs: np.ndarray,
    reference: FeatureTrace | None = None,
    mac: MacCounter | None = None,
    capture: set[tuple[BlockId, int]] | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Execute the plan and report errors against the full-precision run.

    ``reference`` may carry a precomputed trace for the same inputs (sweeps
    reuse it); otherwise the reference run happens here, outside the MAC
    counter.
    """
    cfg = denoiser.config
    if plan.layers != cfg.layers:
        raise PlanError(f"plan layers={plan.layers} != config layers={cfg.layers}")
    if plan.K != cfg.K:
        raise ConsistencyError(f"plan K={plan.K} != config K={cfg.K}")
    for block in canonical_blocks(cfg.layers):
        if 0 not in plan.schedule(block).step_set:
            raise PlanError(f"{block.name}: schedule misses mandatory step 0")

    if reference is None:
        _, reference = denoise_full(denoiser, init_noise, obs)
    ref_final = reference.actions[-1]

    blocks = canonical_blocks(cfg.layers)
    n_blocks = 3 * cfg.layers
    errors = np.zeros((n_blocks, cfg.K))
    cos_sim = np.full((n_blocks, cfg.K), np.nan)
    update_mask = np.zeros((n_blocks, cfg.K), dtype=bool)
    provenance = np.full((n_blocks, cfg.K), -1, dtype=np.int64)
    step_sets = {b: plan.schedule(b).step_set for b in blocks}
    cache = CacheState(values={}, steps={})
    captured: dict[tuple[BlockId, int], np.ndarray] = {}

    action = np.asarray(init_noise, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    t_tokens, d = cfg.action_tokens, cfg.d_model

    for t in range(cfg.K):
        cond = encode_obs(denoiser, obs, mac)
        h = embed_action(denoiser, action, t, mac)
        for block in blocks:
            if capture is not None and (block, t) in capture:
                captured[(block, t)] = h.copy()
            if t in step_sets[block]:
                r = block_residual(denoiser, block, h, cond, mac)
                cache.values[block] = r
                cache.steps[block] = t
                update_mask[block.ordinal, t] = True
            else:
                r = cache.values[block]
                if mac is not None:
                    mac.add(t_tokens * d)  # reuse is one tensor add
            provenance[block.ordinal, t] = cache.steps[block]
            ref = reference.residuals[block.ordinal, t]
            errors[block.ordinal, t] = np.linalg.norm(r - ref)
            cos_sim[block.ordinal, t] = _cos_or_nan(r, ref)
            h = h + r
        action = project_action(denoiser, h, mac)

    final_dev = float(np.sqrt(np.mean((action - ref_final) ** 2)))
    report = RunReport(
        errors=errors,
        cos_sim=cos_sim,
        update_mask=update_mask,
        provenance=provenance,
        final_action_l2=final_dev,
        flops=flops_estimate(cfg, plan),
        instrumented_macs=None if mac is None else mac.count,
        captured=captured if capture is not None else None,
    )
    return action, report


def caching_error_surface(report: RunReport) -> tuple[np.ndarray, np.ndarray]:
    """(errors, update mask) matrices, blocks in canonical order by row."""
    return report.errors.copy(), report.update_mask.copy()
