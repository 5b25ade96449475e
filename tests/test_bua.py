import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bac.blocks import BlockId, canonical_blocks
from bac.bua import (
    SchedulePlan,
    added_steps,
    bubble_union,
    downstream_ffns,
    select_upstream_blocks,
)
from bac.errors import PlanError, ScheduleError
from bac.profiler import BlockStats, SimilarityProfile, profile_task
from bac.scheduler import Schedule


def _profile_with_ells(ells, K=10):
    blocks = {}
    for name, ell in ells.items():
        layer, kind = name.split(".")[1:]
        blocks[BlockId(int(layer), kind)] = BlockStats(np.zeros(K - 1), ell)
    return SimilarityProfile(K=K, blocks=blocks)


def _random_plan(rng, layers, K):
    schedules = {}
    for block in canonical_blocks(layers):
        n = int(rng.integers(1, min(6, K)))
        interior = rng.choice(np.arange(1, K), size=n - 1, replace=False)
        schedules[block] = Schedule((0, *sorted(int(v) for v in interior)), K)
    return SchedulePlan(layers=layers, schedules=schedules)


def _random_upstream(rng, layers):
    blocks = canonical_blocks(layers)
    k = int(rng.integers(0, len(blocks) + 1))
    return set(blocks[i] for i in rng.choice(len(blocks), size=k, replace=False))


# -- plan <-> update mask ----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_plan_to_mask_and_back_is_identity(seed):
    rng = np.random.default_rng(seed)
    plan = _random_plan(rng, int(rng.integers(1, 5)), int(rng.integers(2, 30)))
    mask = plan.update_mask
    assert mask.shape == (3 * plan.layers, plan.K) and mask.dtype == bool
    for block in canonical_blocks(plan.layers):
        assert np.flatnonzero(mask[block.ordinal]).tolist() == list(plan.schedule(block).steps)
    assert SchedulePlan.from_mask(mask) == plan


@given(arrays(np.bool_, st.tuples(st.sampled_from([3, 6, 9]), st.integers(1, 20))))
@settings(max_examples=60, deadline=None)
def test_mask_to_plan_and_back_is_identity(mask):
    mask[:, 0] = True
    assert np.array_equal(SchedulePlan.from_mask(mask).update_mask, mask)


def test_update_mask_is_read_only_and_built_once():
    plan = _random_plan(np.random.default_rng(4), 2, 10)
    mask = plan.update_mask
    assert mask is plan.update_mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1] = True


def test_from_mask_refuses_a_cold_cache_and_a_partial_layer():
    mask = np.ones((6, 10), dtype=bool)
    mask[4, 0] = False
    with pytest.raises(ScheduleError, match="step 0"):
        SchedulePlan.from_mask(mask)
    with pytest.raises(PlanError, match="cover all"):
        SchedulePlan.from_mask(np.ones((4, 10), dtype=bool))


# -- selection ------------------------------------------------------------------


def test_select_k_zero_empty(small_denoiser):
    prof = profile_task(small_denoiser, episodes=1, seed=3)
    assert select_upstream_blocks(prof, 0) == set()


def test_select_k_all(small_denoiser):
    prof = profile_task(small_denoiser, episodes=1, seed=3)
    assert select_upstream_blocks(prof, 6) == set(prof.blocks)
    assert select_upstream_blocks(prof, 99) == set(prof.blocks)


def test_select_matches_sort_oracle():
    rng = np.random.default_rng(12)
    names = [b.name for b in canonical_blocks(4)]
    ells = {n: float(v) for n, v in zip(names, rng.permutation(len(names)) + 1.0)}
    prof = _profile_with_ells(ells)
    picked = select_upstream_blocks(prof, 5)
    oracle = sorted(ells, key=lambda n: -ells[n])[:5]
    assert {b.name for b in picked} == set(oracle)


def test_select_tie_break_prefers_earlier_block():
    ells = {b.name: 1.0 for b in canonical_blocks(2)}
    prof = _profile_with_ells(ells)
    picked = select_upstream_blocks(prof, 2)
    assert picked == {BlockId(0, "SA"), BlockId(0, "CA")}


def test_normalized_and_unnormalized_ranking_agree(small_denoiser, small_config):
    # element normalization divides every block by the same constant at a
    # fixed width, so the induced ranking is unchanged
    prof = profile_task(small_denoiser, episodes=1, seed=3)
    scale = small_config.action_tokens * small_config.d_model * small_config.K**2
    by_norm = sorted(prof.blocks, key=lambda b: (-prof.blocks[b].ell, b.ordinal))
    by_raw = sorted(
        prof.blocks, key=lambda b: (-prof.blocks[b].ell * scale, b.ordinal)
    )
    assert by_norm == by_raw


# -- downstream sets ----------------------------------------------------------------


def test_downstream_of_last_ffn_empty():
    assert downstream_ffns(BlockId(7, "FFN"), 8) == set()


def test_downstream_enumeration_small():
    assert downstream_ffns(BlockId(0, "SA"), 2) == {BlockId(0, "FFN"), BlockId(1, "FFN")}


def test_downstream_count_mid_layer():
    got = downstream_ffns(BlockId(2, "CA"), 8)
    assert got == {BlockId(l, "FFN") for l in range(2, 8)}
    assert len(got) == 6


# -- bubble union -----------------------------------------------------------------


def test_union_empty_upstream_is_identity():
    rng = np.random.default_rng(5)
    plan = _random_plan(rng, 3, 15)
    out = bubble_union(plan, set())
    for block in canonical_blocks(3):
        assert out.schedule(block).steps == plan.schedule(block).steps


def test_union_deepest_ffn_unchanged():
    rng = np.random.default_rng(6)
    plan = _random_plan(rng, 3, 15)
    out = bubble_union(plan, {BlockId(2, "FFN")})
    for block in canonical_blocks(3):
        assert out.schedule(block).steps == plan.schedule(block).steps


def test_union_unknown_block_rejected():
    rng = np.random.default_rng(7)
    plan = _random_plan(rng, 2, 10)
    with pytest.raises(PlanError):
        bubble_union(plan, {BlockId(5, "SA")})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_union_properties(seed):
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(2, 6))
    K = int(rng.integers(6, 30))
    plan = _random_plan(rng, layers, K)
    blocks = canonical_blocks(layers)
    upstream = _random_upstream(rng, layers)
    out = bubble_union(plan, upstream)
    again = bubble_union(out, upstream)
    for block in blocks:
        before = set(plan.schedule(block).steps)
        after = set(out.schedule(block).steps)
        if block in upstream:
            assert after >= before
            for v in downstream_ffns(block, layers):
                assert after >= set(out.schedule(v).steps)
            assert len(after) >= len(before)
        else:
            assert out.schedule(block).steps == plan.schedule(block).steps
        assert 0 in after
        assert list(out.schedule(block).steps) == sorted(after)
        assert set(again.schedule(block).steps) == after


def _set_union_oracle(plan, upstream):
    """The bubbling union on per-block step sets, as it was written before the
    mask form: deepest first, each selected block absorbs the step sets of the
    FFN blocks downstream of it."""
    steps = {b: set(s.steps) for b, s in plan.schedules.items()}
    for u in sorted(upstream, key=lambda b: b.ordinal, reverse=True):
        for v in downstream_ffns(u, plan.layers):
            steps[u] |= steps[v]
    return SchedulePlan(layers=plan.layers, schedules={
        b: Schedule(tuple(sorted(sset)), plan.K) for b, sset in steps.items()})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mask_union_equals_set_oracle(seed):
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(1, 6))
    plan = _random_plan(rng, layers, int(rng.integers(2, 30)))
    upstream = _random_upstream(rng, layers)
    assert bubble_union(plan, upstream) == _set_union_oracle(plan, upstream)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_union_order_invariant(seed):
    # downstream sets are transitively closed, so any processing order of the
    # selected blocks lands on the same fixed point as deepest-first
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(2, 5))
    plan = _random_plan(rng, layers, 20)
    blocks = canonical_blocks(layers)
    upstream = set(blocks[i] for i in rng.choice(len(blocks), size=4, replace=False))
    deepest_first = bubble_union(plan, upstream)

    steps = {b: set(s.steps) for b, s in plan.schedules.items()}
    for u in sorted(upstream, key=lambda b: b.ordinal):  # shallowest first
        for v in downstream_ffns(u, layers):
            steps[u] |= steps[v]
    for u in sorted(upstream, key=lambda b: b.ordinal):  # repeat to fixed point
        for v in downstream_ffns(u, layers):
            steps[u] |= steps[v]
    for block in blocks:
        assert set(deepest_first.schedule(block).steps) == steps[block]


def test_added_steps_reports_only_gains():
    rng = np.random.default_rng(9)
    plan = _random_plan(rng, 3, 20)
    upstream = {BlockId(0, "CA"), BlockId(1, "FFN")}
    out = bubble_union(plan, upstream)
    diff = added_steps(plan, out)
    for block, gained in diff.items():
        assert block in upstream
        assert set(gained) == set(out.schedule(block).steps) - set(
            plan.schedule(block).steps
        )
        assert gained
