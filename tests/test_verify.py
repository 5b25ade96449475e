import numpy as np
import pytest

from bac.blocks import canonical_blocks
from bac.bua import SchedulePlan, bubble_union
from bac.scheduler import Schedule, solve_schedule, solve_schedule_anchored
from bac.verify import (
    check_anchored_dp_vs_brute_force,
    check_bit_exact_full_plan,
    check_bubble_union_properties,
    check_decomposition_identity,
    check_dp_vs_brute_force,
    check_linear_response_suite,
    run_all,
)


def test_all_checks_pass():
    checks = run_all()
    for name, ok, detail in checks:
        assert ok, f"{name} failed: {detail}"
    assert [name for name, _, _ in checks] == [
        "dp-vs-brute-force",
        "anchored-dp-vs-brute-force",
        "decomposition-identity",
        "first-order-response",
        "bubble-union-properties",
        "bit-exact-full-plan",
    ]


def _shift_last_update(sched):
    """Moves the last interior update one step, emulating a pointer misread."""
    steps = list(sched.steps)
    if len(steps) > 1:
        taken = set(steps)
        last = steps[-1]
        for candidate in (last - 1, last + 1):
            if 0 < candidate < sched.K and candidate not in taken:
                steps[-1] = candidate
                break
    return Schedule(tuple(sorted(steps)), sched.K)


def _backtrack_off_by_one(s, K, budget):
    """Mutant solver: shifts one interior update of the optimum."""
    sched, _ = solve_schedule(s, K, budget)
    return _shift_last_update(sched)


def test_mutation_detected_by_dp_check():
    name, ok, detail = check_dp_vs_brute_force(solver=_backtrack_off_by_one)
    assert name == "dp-vs-brute-force"
    assert not ok, f"mutant slipped through: {detail}"


def _anchored_off_by_one(sim, budget):
    """Mutant anchored solver: shifts one interior update of the optimum."""
    return _shift_last_update(solve_schedule_anchored(sim, budget))


def test_mutation_detected_by_anchored_dp_check():
    name, ok, detail = check_anchored_dp_vs_brute_force(solver=_anchored_off_by_one)
    assert name == "anchored-dp-vs-brute-force"
    assert not ok, f"mutant slipped through: {detail}"


def test_mutation_detected_by_decomposition_check():
    _, ok, _ = check_decomposition_identity(solver=_backtrack_off_by_one)
    assert not ok


def test_individual_checks_green():
    assert check_linear_response_suite()[1]
    assert check_bubble_union_properties()[1]
    assert check_bit_exact_full_plan()[1]


# Mutants of bubble_union, one per branch of check_bubble_union_properties;
# each edits rows of the true union's update mask


def _union_identity(plan, upstream):
    return plan


def _union_touches_unselected(plan, upstream):
    mask = bubble_union(plan, upstream).update_mask.copy()
    for block in canonical_blocks(plan.layers):
        free = np.flatnonzero(~mask[block.ordinal])
        if block not in upstream and block.kind != "FFN" and free.size:
            mask[block.ordinal, free[0]] = True
            break
    return SchedulePlan.from_mask(mask)


def _union_drops_original_step(plan, upstream):
    mask = bubble_union(plan, upstream).update_mask.copy()
    for block in sorted(upstream, key=lambda b: b.ordinal):
        interior = plan.schedule(block).steps[1:]
        if interior:
            mask[block.ordinal, interior[0]] = False
            break
    return SchedulePlan.from_mask(mask)


def _union_adds_a_step_per_call(plan, upstream):
    mask = bubble_union(plan, upstream).update_mask.copy()
    if upstream:
        row = mask[min(b.ordinal for b in upstream)]
        row[np.argmin(row)] = True  # its first free step; a full row stays full
    return SchedulePlan.from_mask(mask)


@pytest.mark.parametrize("mutant, prefix", [
    (_union_identity, "downstream not absorbed at"),
    (_union_touches_unselected, "untouched block changed:"),
    (_union_drops_original_step, "superset broken at"),
    (_union_adds_a_step_per_call, "not idempotent at"),
], ids=["identity", "touches-unselected", "drops-original-step", "adds-a-step-per-call"])
def test_mutation_detected_by_bubble_union_check(monkeypatch, mutant, prefix):
    monkeypatch.setattr("bac.verify.bubble_union", mutant)
    name, ok, detail = check_bubble_union_properties()
    assert name == "bubble-union-properties"
    assert ok is False
    assert detail.startswith(prefix), detail
