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
