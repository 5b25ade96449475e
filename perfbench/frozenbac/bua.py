"""Schedule repair by bubbling union.

Per-block schedules let a downstream feed-forward block recompute on a hidden
state still carrying upstream reuse errors, which can make the recomputation
worse than the stale cache it replaces.  The repair picks the k blocks with
the largest pairwise-L1 magnitude and forces each of them to update whenever
any feed-forward block downstream of it updates, by unioning those schedules
into its own.  Selected blocks are processed deepest-first so an upstream
block absorbs already-augmented downstream schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .blocks import BlockId, canonical_blocks
from .errors import PlanError
from .profiler import SimilarityProfile
from .scheduler import Schedule


@dataclass(frozen=True)
class SchedulePlan:
    """One schedule per block of an L-layer decoder."""

    layers: int
    schedules: dict[BlockId, Schedule]

    def __post_init__(self):
        expected = canonical_blocks(self.layers)
        missing = [b.name for b in expected if b not in self.schedules]
        if missing or len(self.schedules) != len(expected):
            raise PlanError(f"plan must cover all {3 * self.layers} blocks"
                            + (f"; missing {missing}" if missing else ""))
        horizons = {sched.K for sched in self.schedules.values()}
        if len(horizons) != 1:
            raise PlanError(f"schedules disagree on K: {sorted(horizons)}")

    @property
    def K(self) -> int:
        return next(iter(self.schedules.values())).K

    def schedule(self, block: BlockId) -> Schedule:
        try:
            return self.schedules[block]
        except KeyError:
            raise PlanError(f"plan has no block {block.name}") from None


def select_upstream_blocks(profile: SimilarityProfile, k: int) -> set[BlockId]:
    """The k blocks with the largest L1 magnitude; ties favor earlier blocks."""
    if k < 0:
        raise PlanError("k must be nonnegative")
    blocks = sorted(profile.blocks, key=lambda b: b.ordinal)
    if k >= len(blocks):
        return set(blocks)
    ranked = sorted(blocks, key=lambda b: (-profile.blocks[b].ell, b.ordinal))
    return set(ranked[:k])


def downstream_ffns(u: BlockId, layers: int) -> set[BlockId]:
    """All FFN blocks strictly after ``u`` in forward order.

    Within a layer the chain is SA -> CA -> FFN, so a layer's own FFN is
    downstream of its SA and CA.
    """
    return {
        BlockId(l, "FFN")
        for l in range(layers)
        if 3 * l + 2 > u.ordinal
    }


def bubble_union(plan: SchedulePlan, upstream: Iterable[BlockId]) -> SchedulePlan:
    """Union downstream-FFN update steps into every selected block.

    Returns a new plan; blocks outside ``upstream`` are untouched.  Processing
    runs in descending ordinal so cascades through selected FFNs settle before
    shallower blocks absorb them.
    """
    selected = set(upstream)
    for u in selected:
        plan.schedule(u)  # validates membership
    steps: dict[BlockId, set[int]] = {
        b: set(s.steps) for b, s in plan.schedules.items()
    }
    for u in sorted(selected, key=lambda b: b.ordinal, reverse=True):
        for v in downstream_ffns(u, plan.layers):
            steps[u] |= steps[v]
    schedules = {
        b: Schedule(tuple(sorted(sset)), plan.K) if b in selected else plan.schedules[b]
        for b, sset in steps.items()
    }
    return SchedulePlan(layers=plan.layers, schedules=schedules)


def added_steps(before: SchedulePlan, after: SchedulePlan) -> dict[BlockId, tuple[int, ...]]:
    """Per-block steps present after repair but not before (only nonempty)."""
    if before.layers != after.layers or before.K != after.K:
        raise PlanError("plans disagree on architecture or horizon")
    out: dict[BlockId, tuple[int, ...]] = {}
    for block in canonical_blocks(before.layers):
        gained = sorted(set(after.schedule(block).steps) - set(before.schedule(block).steps))
        if gained:
            out[block] = tuple(gained)
    return out
