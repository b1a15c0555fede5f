import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bittp import (
    PackingPlan,
    ProblemInstance,
    Tour,
    construct_tour,
    randomized_packing,
    reeval_period,
    score_items,
    weighted_objective,
)
from bittp import TourContext, packing
from bittp.evaluation import scalarized
from bittp.packing import pack_tour

from gen import random_instance
from oracles import brute_best_plan_objective, sequential_packing


@pytest.fixture
def pi123(toy3):
    return Tour(np.array([0, 1, 2]))


def test_carry_distances(toy3, pi123):
    scored = score_items(toy3, pi123, 1.0, 0.0, 0.0)
    assert scored.carry_distance.tolist() == [9.0, 4.0]


def test_profit_only_ranking(toy3, pi123):
    scored = score_items(toy3, pi123, 1.0, 0.0, 0.0)
    assert scored.scores.tolist() == [100.0, 60.0]
    assert scored.order.tolist() == [0, 1]


def test_equal_exponents_ranking(toy3, pi123):
    scored = score_items(toy3, pi123, 1 / 3, 1 / 3, 1 / 3)
    assert scored.scores[0] == pytest.approx((100 / 27) ** (1 / 3), rel=1e-9)
    assert scored.scores[1] == pytest.approx((60 / 8) ** (1 / 3), rel=1e-9)
    assert scored.order.tolist() == [1, 0]


def test_scores_scale_invariant(toy3, pi123):
    a = score_items(toy3, pi123, 0.4, 0.6, 1.0)
    b = score_items(toy3, pi123, 0.2, 0.3, 0.5)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.order, b.order)


def test_all_zero_exponents_rejected(toy3, pi123):
    with pytest.raises(ValueError):
        score_items(toy3, pi123, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        score_items(toy3, pi123, -0.1, 0.5, 0.5)


def test_zero_profit_item_scores_zero(pi123):
    inst = ProblemInstance(
        name="zp",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[0, 60],
        weights=[3, 2],
        item_city=[1, 2],
        capacity=5,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    scored = score_items(inst, pi123, 0.5, 0.25, 0.25)
    assert scored.scores[0] == 0.0
    # with zero numerator exponent the profit term drops out entirely
    scored = score_items(inst, pi123, 0.0, 0.5, 0.5)
    assert scored.scores[0] > 0.0


def test_score_tie_breaks_toward_lower_index(pi123):
    inst = ProblemInstance(
        name="tie",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[50, 50],
        weights=[2, 2],
        item_city=[1, 1],
        capacity=5,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    scored = score_items(inst, pi123, 1.0, 1.0, 1.0)
    assert scored.scores[0] == scored.scores[1]
    assert scored.order.tolist() == [0, 1]


def test_reeval_period_examples():
    assert reeval_period(10, 41, 0.5) == 1
    assert reeval_period(10, 41, 0.0) == 1
    assert reeval_period(1000, 41, 1.0) == 25
    assert reeval_period(0, 41, 0.7) == 1


def test_nothing_fits_returns_empty(pi123):
    inst = ProblemInstance(
        name="tight",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[100, 60],
        weights=[30, 20],
        item_city=[1, 2],
        capacity=5,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    for seed in range(5):
        for alpha in (0.0, 0.37, 1.0):
            plan = randomized_packing(inst, pi123, 3, alpha, 41, np.random.default_rng(seed))
            assert len(plan) == 0


def test_alpha_one_takes_both_items(toy3, pi123):
    for seed in range(10):
        plan = randomized_packing(toy3, pi123, 12, 1.0, 41, np.random.default_rng(seed))
        assert sorted(plan.item_indices().tolist()) == [0, 1]
        assert plan.total_weight == toy3.capacity


def test_alpha_zero_returns_empty(toy3, pi123):
    for seed in range(10):
        plan = randomized_packing(toy3, pi123, 12, 0.0, 41, np.random.default_rng(seed))
        assert len(plan) == 0


def test_invalid_arguments(toy3, pi123):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        randomized_packing(toy3, pi123, 0, 0.5, 41, rng)
    with pytest.raises(ValueError):
        randomized_packing(toy3, pi123, 1, 0.5, 0, rng)
    with pytest.raises(ValueError):
        randomized_packing(toy3, pi123, 1, 1.5, 41, rng)


def test_never_worse_than_empty_and_feasible():
    rng = np.random.default_rng(11)
    for _ in range(40):
        inst = random_instance(rng, int(rng.integers(3, 8)), int(rng.integers(1, 9)))
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        tour = Tour(order)
        alpha = float(rng.random())
        plan = randomized_packing(inst, tour, 4, alpha, 41, rng)
        assert plan.total_weight <= inst.capacity
        assert plan.total_weight == float(inst.weights[plan.selected].sum())
        empty = PackingPlan.empty(inst)
        assert weighted_objective(inst, tour, plan, alpha) >= weighted_objective(
            inst, tour, empty, alpha
        )


def test_monotone_in_attempts(toy3):
    inst = random_instance(np.random.default_rng(3), 6, 8)
    tour = Tour(np.concatenate(([0], np.arange(1, 6))))
    alpha = 0.55
    prev = -np.inf
    for attempts in (1, 2, 4, 8, 16):
        plan = randomized_packing(inst, tour, attempts, alpha, 41, np.random.default_rng(99))
        f = weighted_objective(inst, tour, plan, alpha)
        assert f >= prev
        prev = f


def test_brute_force_gap_statistical():
    """With a dozen attempts the returned objective matches the exhaustive
    optimum on small cases in at least 90 of 100 seeded trials."""
    rng = np.random.default_rng(2024)
    hits = 0
    for trial in range(100):
        inst = random_instance(rng, int(rng.integers(3, 7)), int(rng.integers(2, 11)))
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        tour = Tour(order)
        alpha = float(rng.random())
        plan = randomized_packing(
            inst, tour, 12, alpha, 41, np.random.default_rng(10_000 + trial)
        )
        best = brute_best_plan_objective(inst, tour.order, alpha)
        got = weighted_objective(inst, tour, plan, alpha)
        if got >= best - 1e-9 * max(1.0, abs(best)):
            hits += 1
    assert hits >= 90, f"only {hits}/100 trials reached the brute-force optimum"


def test_m_zero_instance(pi123):
    inst = random_instance(np.random.default_rng(1), 3, 0)
    plan = randomized_packing(inst, pi123, 3, 0.7, 41, np.random.default_rng(0))
    assert len(plan) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, allow_nan=False))
def test_plan_invariants_property(seed, alpha):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(3, 7)), int(rng.integers(0, 8)))
    tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
    plan = randomized_packing(inst, tour, 3, alpha, int(rng.integers(1, 60)), rng)
    assert plan.total_weight <= inst.capacity
    assert plan.total_weight == float(inst.weights[plan.selected].sum())


def _assert_matches_sequential(inst, tour, alphas, attempts, divisor, seed):
    """pack_tour returns the plans of one sequential packing per alpha and
    leaves its generator where the sequential packings leave theirs."""
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = [sequential_packing(inst, tour, attempts, a, divisor, rng_ref) for a in alphas]
        got = pack_tour(inst, TourContext(inst, tour), alphas, attempts, divisor, rng_new)
    assert len(got) == len(expected)
    for want, plan in zip(expected, got):
        assert np.array_equal(plan.selected, want.selected)
        assert plan.total_weight == want.total_weight
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    m=st.integers(0, 24),
    attempts=st.integers(1, 12),
    divisor=st.integers(1, 60),
    alphas=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
        min_size=1,
        max_size=5,
    ),
    zero_profits=st.booleans(),
    duplicates=st.booleans(),
    coincident=st.booleans(),
    tight=st.booleans(),
    lane_cells=st.sampled_from([1, 40, 200, packing.LANE_CELLS]),
    chunk_cells=st.sampled_from([1, 30, packing.CHUNK_CELLS]),
)
def test_pack_tour_matches_sequential_property(
    seed, n, m, attempts, divisor, alphas, zero_profits, duplicates, coincident, tight,
    lane_cells, chunk_cells,
):
    """Edge data (no items, zero profits, identical items whose scores tie,
    zero carry distances, nothing fits, several items per city), lane
    budgets too small for even one packing, and re-checks split into
    chunks down to one lane."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n, m)
    profits = inst.profits.copy()
    weights = inst.weights.copy()
    item_city = inst.item_city.copy()
    coords = inst.coords.copy()
    capacity = inst.capacity
    if duplicates and m:
        copy_of = rng.integers(0, max(1, m // 3), size=m)
        profits, weights, item_city = profits[copy_of], weights[copy_of], item_city[copy_of]
    if zero_profits:
        profits[rng.random(m) < 0.5] = 0.0
    if coincident:
        coords[rng.random(n) < 0.5] = coords[0]
    if tight and m:
        capacity = float(weights.min()) / 2
    inst = dataclasses.replace(
        inst, profits=profits, weights=weights, item_city=item_city, coords=coords, capacity=capacity
    )
    tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, n)))))
    saved = packing.LANE_CELLS, packing.CHUNK_CELLS
    packing.LANE_CELLS, packing.CHUNK_CELLS = lane_cells, chunk_cells
    try:
        _assert_matches_sequential(inst, tour, alphas, attempts, divisor, seed + 1)
    finally:
        packing.LANE_CELLS, packing.CHUNK_CELLS = saved


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    m=st.integers(1, 24),
    alphas=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    min_speed=st.sampled_from([1e-6, 1e-3, 0.5, 0.999999]),
    rent=st.sampled_from([0.0, 1.0, 1e3]),
    scale=st.sampled_from([1.0, 1e6, 1e15]),
    full=st.booleans(),
)
def test_pack_tour_matches_sequential_at_extremes(seed, n, m, alphas, min_speed, rent, scale, full):
    """The re-checks the bounds decide still give the sequential plans with
    speed ratios down to 1e-6, R = 0, coordinates up to 1e15 and a knapsack
    that every item fits into at once."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n, m)
    inst = dataclasses.replace(
        inst,
        coords=np.floor(rng.random((n, 2)) * scale),
        capacity=float(inst.weights.sum()) if full else inst.capacity,
        min_speed=min_speed,
        renting_rate=rent,
    )
    tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, n)))))
    _assert_matches_sequential(inst, tour, alphas, 12, 41, seed + 1)


def test_pack_tour_refills_rows_at_default_budget():
    """More packings than the default budget holds in flight at once."""
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 4000, 4000)
    in_flight = packing.LANE_CELLS // (12 * 4000)
    tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
    alphas = [0.0, 1.0] + rng.random(in_flight + 2).tolist()
    _assert_matches_sequential(inst, tour, alphas, 12, 41, 8)


def test_pack_tour_ties_go_to_first_attempt(pi123):
    """At alpha 1 either item alone scores 10, and which one an attempt keeps
    depends on its exponents; the earliest attempt's plan must win."""
    inst = ProblemInstance(
        name="tie",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[10, 10],
        weights=[5, 6],
        item_city=[1, 2],
        capacity=6,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    chosen = set()
    for seed in range(40):
        _assert_matches_sequential(inst, pi123, [1.0, 1.0], 12, 41, seed)
        first = pack_tour(inst, TourContext(inst, pi123), [1.0], 1, 41, np.random.default_rng(seed))
        chosen.add(tuple(first[0].item_indices()))
    assert chosen == {(0,), (1,)}


def test_pack_tour_no_alphas_draws_nothing(toy3, pi123):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert pack_tour(toy3, TourContext(toy3, pi123), [], 12, 41, rng) == []
    assert rng.bit_generator.state == before


def test_pack_tour_rejects_any_alpha_out_of_range(toy3, pi123):
    with pytest.raises(ValueError):
        pack_tour(toy3, TourContext(toy3, pi123), [0.5, -0.1], 1, 41, np.random.default_rng(0))


def test_row_times_match_time_from_positions():
    """Row-wise travel times equal the 1-D evaluation bit for bit, also past
    numpy's 8192-element reduction buffer."""
    rng = np.random.default_rng(3)
    for n in (2, 280, 9000):
        inst = random_instance(rng, n, n - 1)
        tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, n)))))
        ctx = TourContext(inst, tour)
        masks = [rng.random(inst.m) < p for p in (0.0, 0.1, 0.4, 1.0)]
        rows = np.stack([ctx.weight_by_position(mask) for mask in masks]).astype(float)
        want = [ctx.time_from_positions(r) for r in rows]
        assert ctx.row_times(rows).tolist() == want


def _priced_recheck(inst, ctx, ranked, cut, alpha):
    """Profits, weights and haul accumulated in rank order as a lane does,
    and the two objectives priced exactly: the committed plan is the picks
    ``ranked[:cut]``, the new plan all of ``ranked``."""
    carry = packing.carry_distances(ctx)
    profit = weight = haul = 0.0
    wpos = np.zeros((2, inst.n))
    for k, item in enumerate(ranked):
        if k == cut:
            c_profit, c_weight = profit, weight
            wpos[0] = wpos[1]
        profit += inst.profits[item]
        weight += inst.weights[item]
        wpos[1, ctx.item_pos[item]] += inst.weights[item]
        if k >= cut:
            haul += inst.weights[item] * carry[item]
    times = ctx.row_times(wpos)
    f_commit, f_new = (scalarized(alpha, p, t, inst.renting_rate) for p, t in zip((c_profit, profit), times))
    return (profit, haul, weight, c_profit, c_weight), f_new, f_commit


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    picks=st.integers(1, 40),
    speed_ratio=st.one_of(st.sampled_from([1e-6, 1e-3, 0.5]), st.floats(1e-6, 0.999)),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rent=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3)),
    scale=st.sampled_from([1.0, 1e3, 1e9, 1e15]),
    zero_profits=st.booleans(),
    full=st.booleans(),
    tail_at_depot=st.booleans(),
)
@example(  # the added items are carried no distance, their profit is lost in the rounding of a huge time
    seed=5, n=5, picks=6, speed_ratio=0.1, alpha=0.01, rent=1.0, scale=1e15,
    zero_profits=False, full=False, tail_at_depot=True,
)
def test_recheck_bounds_agree_with_priced_objectives(
    seed, n, picks, speed_ratio, alpha, rent, scale, zero_profits, full, tail_at_depot
):
    """A re-check the bounds decide goes the way the priced one does: on a
    committed plan and a plan that adds picks to it, with extreme speed
    ratios, a knapsack filled to capacity, zero profits, alpha 0 or 1,
    R = 0, coordinates up to 1e15 and items carried no distance."""
    rng = np.random.default_rng(seed)
    coords = np.floor(rng.random((n, 2)) * scale)
    order = np.concatenate(([0], rng.permutation(np.arange(1, n))))
    if tail_at_depot:
        coords[order[n // 2 :]] = coords[0]
    profits = rng.integers(1, 101, size=picks).astype(float)
    if zero_profits:
        profits[rng.random(picks) < 0.5] = 0.0
    weights = rng.integers(1, 51, size=picks).astype(float)
    item_city = np.where(rng.random(picks) < 0.5, order[-1], rng.integers(1, n, size=picks))
    total = float(weights.sum())
    inst = ProblemInstance(
        name="bounds",
        coords=coords,
        profits=profits,
        weights=weights,
        item_city=item_city,
        capacity=total if full else total * (1.0 + rng.random() * 3),
        min_speed=speed_ratio,
        max_speed=1.0,
        renting_rate=rent,
    )
    ctx = TourContext(inst, Tour(order))
    empty_time = ctx.time_from_positions(np.zeros(n))
    ranked = rng.permutation(picks)
    for cut in range(picks):
        lane, f_new, f_commit = _priced_recheck(inst, ctx, ranked, cut, alpha)
        better, worse = packing.recheck_bounds(inst, empty_time, np.array([alpha]), *(np.array([v]) for v in lane))
        assert not (better[0] and worse[0])
        if better[0]:
            assert f_new > f_commit
        if worse[0]:
            assert f_new <= f_commit


def test_recheck_bounds_decide_most_rechecks(monkeypatch):
    """On a constructed n=280 tour, fewer travel times are priced than a
    third of the re-checks made (about a quarter): the bounds decide the
    rest."""
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 280, 279)
    tour = construct_tour(inst, rng)
    rechecks = priced = 0
    bounds = packing.recheck_bounds

    def counted_bounds(*args):
        nonlocal rechecks
        rechecks += args[2].size
        return bounds(*args)

    class CountedContext(TourContext):
        __slots__ = ()

        def row_times(self, weight_by_pos):
            nonlocal priced
            priced += weight_by_pos.shape[0]
            return super().row_times(weight_by_pos)

    monkeypatch.setattr(packing, "recheck_bounds", counted_bounds)
    pack_tour(inst, CountedContext(inst, tour), rng.random(117).tolist(), 12, 41, rng)
    assert rechecks > 10_000
    assert priced < rechecks / 3
