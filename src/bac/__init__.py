"""Block-level feature-cache scheduling on a deterministic toy denoiser.

Pipeline: profile per-block feature similarities across denoising steps,
select optimal per-block cache-update schedules (the anchored variant by
dynamic programming), repair inter-block error propagation by bubbling union,
execute cached inference with update-then-reuse semantics, and verify the
first-order error theory.
"""

from .blocks import KINDS, BlockId, canonical_blocks
from .bua import (
    SchedulePlan,
    added_steps,
    bubble_union,
    downstream_ffns,
    select_upstream_blocks,
)
from .config import DenoiserConfig, load_config, parse_config_text
from .denoiser import (
    FeatureTrace,
    MacCounter,
    ToyDenoiser,
    build_denoiser,
    denoise_full,
    execute,
    pre_block_states,
    synth_episode,
    weight_checksum,
)
from .engine import (
    FlopsBreakdown,
    RunReport,
    flops_estimate,
    memory_estimate,
    run_cached,
    uniform_plan,
)
from .errorlab import (
    FfnParams,
    LnStats,
    SurgeStats,
    error_surge_experiment,
    linear_response,
    ln_operators,
    ln_stats,
    pearson,
    verify_first_order,
)
from .errors import BacError
from .profiler import (
    SimilarityProfile,
    caching_error_magnitude,
    consecutive_similarities,
    profile_task,
    similarity_matrices,
    similarity_matrix,
)
from .scheduler import (
    Schedule,
    anchored_objective,
    brute_force_schedule,
    brute_force_schedule_anchored,
    decomposition_objective,
    objective,
    solve_schedule,
    solve_schedule_anchored,
)

__version__ = "0.1.0"
