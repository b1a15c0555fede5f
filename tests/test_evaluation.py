import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittp import (
    PackingPlan,
    Solution,
    Tour,
    TourContext,
    speed,
    total_profit,
    travel_time,
    validate_solution,
    weight_after,
    weighted_objective,
)
from bittp.evaluation import scalarized

from gen import random_instance
from oracles import naive_profit, naive_travel_time, naive_weight_after


@pytest.fixture
def pi123(toy3):
    return Tour(np.array([0, 1, 2]))


def test_speed_endpoints(toy3):
    assert speed(toy3, 0.0) == 1.0
    assert speed(toy3, 5.0) == 0.1


def test_speed_derived(toy3):
    assert speed(toy3, 3.0) == pytest.approx(0.46, rel=1e-12)


def test_speed_out_of_range(toy3):
    with pytest.raises(ValueError):
        speed(toy3, -0.5)
    with pytest.raises(ValueError):
        speed(toy3, 5.5)


@given(st.floats(0.0, 5.0, allow_nan=False))
def test_speed_bounds_and_monotone(w):
    inst_args = dict(
        name="t",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[100, 60],
        weights=[3, 2],
        item_city=[1, 2],
        capacity=5,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    from bittp import ProblemInstance

    inst = ProblemInstance(**inst_args)
    v = speed(inst, w)
    assert inst.min_speed <= v <= inst.max_speed
    if w + 0.5 <= inst.capacity:
        assert speed(inst, w + 0.5) < v


def test_weight_after_examples(toy3, pi123):
    empty = PackingPlan.empty(toy3)
    both = PackingPlan.of(toy3, [0, 1])
    only1 = PackingPlan.of(toy3, [0])
    assert weight_after(toy3, pi123, empty, 1) == 0.0
    assert weight_after(toy3, pi123, only1, 2) == 3.0
    assert weight_after(toy3, pi123, both, 3) == 5.0


def test_weight_after_position_out_of_range(toy3, pi123):
    plan = PackingPlan.empty(toy3)
    with pytest.raises(ValueError):
        weight_after(toy3, pi123, plan, 0)
    with pytest.raises(ValueError):
        weight_after(toy3, pi123, plan, 4)


def test_weight_after_full_tour_equals_plan_weight(toy3, pi123):
    plan = PackingPlan.of(toy3, [1])
    assert weight_after(toy3, pi123, plan, 3) == plan.total_weight


def test_travel_time_examples(toy3, pi123):
    assert travel_time(toy3, pi123, PackingPlan.empty(toy3)) == 12.0
    assert travel_time(toy3, pi123, PackingPlan.of(toy3, [0])) == pytest.approx(
        22.565217391304348, rel=1e-9
    )
    assert travel_time(toy3, pi123, PackingPlan.of(toy3, [0, 1])) == pytest.approx(
        53.869565217391305, rel=1e-9
    )


def test_total_profit_examples(toy3):
    assert total_profit(toy3, PackingPlan.empty(toy3)) == 0.0
    assert total_profit(toy3, PackingPlan.of(toy3, [0])) == 100.0
    assert total_profit(toy3, PackingPlan.of(toy3, [0, 1])) == 160.0


def test_weighted_objective_examples(toy3, pi123):
    both = PackingPlan.of(toy3, [0, 1])
    empty = PackingPlan.empty(toy3)
    only1 = PackingPlan.of(toy3, [0])
    assert weighted_objective(toy3, pi123, both, 1.0) == 160.0
    assert weighted_objective(toy3, pi123, empty, 0.0) == -12.0
    assert weighted_objective(toy3, pi123, only1, 0.5) == pytest.approx(
        38.71739130434783, rel=1e-9
    )


def test_weighted_objective_alpha_out_of_range(toy3, pi123):
    plan = PackingPlan.empty(toy3)
    with pytest.raises(ValueError):
        weighted_objective(toy3, pi123, plan, -0.01)
    with pytest.raises(ValueError):
        weighted_objective(toy3, pi123, plan, 1.01)


def test_endpoint_exactness_sample(toy3, pi123):
    plan = PackingPlan.of(toy3, [0])
    g = total_profit(toy3, plan)
    h = travel_time(toy3, pi123, plan)
    assert weighted_objective(toy3, pi123, plan, 1.0) == g
    assert weighted_objective(toy3, pi123, plan, 0.0) == -toy3.renting_rate * h


_objective_value = st.floats(min_value=-1e12, max_value=1e12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), _objective_value, _objective_value),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_scalarized_arrays_equal_scalar_calls(rows, rent):
    alpha, profit, time = (np.array(col, dtype=np.float64) for col in zip(*rows))
    got = scalarized(alpha, profit, time, rent)
    want = np.array([scalarized(a, g, h, rent) for a, g, h in rows])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _random_case(rng, n_max=8, m_max=10):
    inst = random_instance(rng, int(rng.integers(2, n_max + 1)), int(rng.integers(0, m_max + 1)))
    order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
    tour = Tour(order)
    plan = PackingPlan.empty(inst)
    for j in rng.permutation(inst.m):
        if rng.random() < 0.5 and plan.can_add(int(j)):
            plan.add(int(j))
    return inst, tour, plan


def test_oracle_equivalence_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(60):
        inst, tour, plan = _random_case(rng)
        sel = plan.selected
        assert travel_time(inst, tour, plan) == pytest.approx(
            naive_travel_time(inst, tour.order, sel), rel=1e-9
        )
        assert total_profit(inst, plan) == naive_profit(inst, sel)
        for i in (1, inst.n):
            assert weight_after(inst, tour, plan, i) == pytest.approx(
                naive_weight_after(inst, tour.order, sel, i), rel=1e-12
            )


def test_adding_item_strictly_increases_time():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        inst, tour, plan = _random_case(rng)
        addable = [j for j in range(inst.m) if plan.can_add(j)]
        if not addable:
            continue
        j = int(rng.choice(addable))
        before_t = travel_time(inst, tour, plan)
        before_g = total_profit(inst, plan)
        grown = plan.copy()
        grown.add(j)
        assert travel_time(inst, tour, grown) > before_t
        assert total_profit(inst, grown) >= before_g
        assert weight_after(inst, tour, grown, inst.n) > weight_after(inst, tour, plan, inst.n)
        checked += 1


def test_tour_validation():
    with pytest.raises(ValueError):
        Tour(np.array([1, 0, 2]))  # must start at 0
    with pytest.raises(ValueError):
        Tour(np.array([0, 1, 1]))  # repeated city
    with pytest.raises(ValueError):
        Tour(np.array([0, 1, 3]))  # not contiguous
    t = Tour(np.array([0, 2, 1]))
    assert len(t) == 3
    with pytest.raises(ValueError):
        t.order[0] = 1  # read-only


def test_packing_plan_cache_coherence(toy3):
    plan = PackingPlan.empty(toy3)
    plan.add(0)
    assert plan.total_weight == 3.0
    plan.add(1)
    assert plan.total_weight == 5.0
    plan.remove(0)
    assert plan.total_weight == 2.0
    assert list(plan.item_indices()) == [1]
    assert 1 in plan and 0 not in plan
    assert len(plan) == 1


def test_packing_plan_rejects_overflow(toy3):
    plan = PackingPlan.of(toy3, [0])  # weight 3 of 5
    assert not plan.can_add(0)
    plan.add(1)  # weight 5 == W is feasible
    assert plan.total_weight == toy3.capacity
    with pytest.raises(ValueError):
        PackingPlan.of(toy3, [0, 1]).add(0)
    with pytest.raises(ValueError):
        PackingPlan.of(toy3, [1]).remove(0)  # not selected


def test_packing_plan_copy_is_independent(toy3):
    plan = PackingPlan.of(toy3, [0])
    dup = plan.copy()
    dup.add(1)
    assert 1 not in plan
    assert plan.total_weight == 3.0 and dup.total_weight == 5.0


def test_solution_evaluated_and_validate(toy3, pi123):
    plan = PackingPlan.of(toy3, [0])
    sol = Solution.evaluated(toy3, pi123, plan, alpha=0.5)
    validate_solution(toy3, sol)
    broken = Solution(pi123, plan, sol.profit + 1.0, sol.time)
    with pytest.raises(ValueError):
        validate_solution(toy3, broken)


def test_flipped_time_matches_full_recompute():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst, tour, plan = _random_case(rng, n_max=8, m_max=10)
        if inst.m == 0:
            continue
        ctx = TourContext(inst, tour)
        times = ctx.plan_times(plan.selected)
        assert times.total == pytest.approx(travel_time(inst, tour, plan), rel=1e-12)
        for item in range(inst.m):
            flipped = plan.copy()
            if item in flipped:
                flipped.remove(item)
                got = ctx.flipped_time(times, item, add=False)
            else:
                if flipped.total_weight + inst.weights[item] > inst.capacity:
                    continue
                flipped.add(item)
                got = ctx.flipped_time(times, item, add=True)
            assert got == pytest.approx(travel_time(inst, tour, flipped), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluation_matches_oracle_property(seed):
    rng = np.random.default_rng(seed)
    inst, tour, plan = _random_case(rng, n_max=6, m_max=6)
    assert travel_time(inst, tour, plan) == pytest.approx(
        naive_travel_time(inst, tour.order, plan.selected), rel=1e-9
    )
