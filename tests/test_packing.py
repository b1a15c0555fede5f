import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bittp import (
    NeighborLists,
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


def test_draw_exponents_match_scalar_draws():
    """One (attempts, 3) draw gives the values and generator state of three
    draws per attempt, made one attempt after another."""
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    got = packing._draw_exponents(rng, 1000)
    assert np.array_equal(got, np.array([ref.random(3) for _ in range(1000)]))
    assert rng.bit_generator.state == ref.bit_generator.state


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
    fractional=st.booleans(),
    lane_cells=st.sampled_from([1, 40, 200, packing.LANE_CELLS]),
    chunk_cells=st.sampled_from([1, 30, packing.CHUNK_CELLS]),
)
def test_pack_tour_matches_sequential_property(
    seed, n, m, attempts, divisor, alphas, zero_profits, duplicates, coincident, tight, fractional,
    lane_cells, chunk_cells,
):
    """Edge data (no items, zero profits, identical items whose scores tie,
    zero carry distances, nothing fits, several items per city, fractional
    values), lane budgets too small for even one packing, and re-checks
    split into chunks down to one lane."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n, m)
    profits = inst.profits.copy()
    weights = inst.weights.copy()
    item_city = inst.item_city.copy()
    coords = inst.coords.copy()
    capacity = inst.capacity
    if fractional and m:
        # Profits 16 orders of magnitude apart make their sums depend on the
        # order of the adds.  (Tenths, whose sums often land next to a
        # capacity in tenths, would also test the fits, but can make the
        # greedy keep a plan whose index-order weight is above capacity,
        # which PackingPlan rejects; the explicit window cases test the fits.)
        profits = profits * rng.uniform(0.5, 1.5, size=m) * 10.0 ** rng.integers(0, 17, size=m)
        weights = weights * rng.uniform(0.5, 1.5, size=m)
        capacity = max(float(weights.sum()) * rng.uniform(0.2, 0.8), float(weights.min()))
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


def test_pack_tour_matches_sequential_at_ten_items_per_city():
    """m = 10(n - 1) with the default budgets: the lanes refill their rows
    (88 packings in flight for 117 alphas), and a re-check prices several
    plans per chunk, as the chunks are sized by n, not m."""
    rng = np.random.default_rng(11)
    inst = random_instance(rng, 100, 990)
    assert packing.LANE_CELLS // (12 * inst.m) == 88 and packing.CHUNK_CELLS // inst.n > 1
    tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
    alphas = [0.0, 1.0] + rng.random(115).tolist()
    _assert_matches_sequential(inst, tour, alphas, 12, 41, 12)


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


def _count_rechecks(monkeypatch, n):
    """Packs 117 alphas on a constructed tour of ``n`` cities, m = n - 1,
    and counts pack_tour's first-filter calls, the re-checks they bound and
    the rows priced.  The first filter is gain_range's one-bucket call, made
    once per step with re-checks over all of them; above ``BUCKET_SIZE``
    cities the profile and finish calls have more than one bucket."""
    assert n > packing.BUCKET_SIZE
    rng = np.random.default_rng(1)
    inst = random_instance(rng, n, n - 1)
    tour = construct_tour(inst, rng, NeighborLists.build(inst))
    calls = rechecks = priced = 0
    bounds = packing.gain_range

    def counted_bounds(*args):
        nonlocal calls, rechecks
        if args[-1].shape[1] == 1:
            calls += 1
            rechecks += args[2].size
        return bounds(*args)

    class CountedContext(TourContext):
        __slots__ = ()

        def row_times(self, weight_by_pos):
            nonlocal priced
            priced += weight_by_pos.shape[0]
            return super().row_times(weight_by_pos)

    monkeypatch.setattr(packing, "gain_range", counted_bounds)
    pack_tour(inst, CountedContext(inst, tour), rng.random(117).tolist(), 12, 41, rng)
    return calls, rechecks, priced


def test_recheck_bounds_decide_most_rechecks(monkeypatch):
    """On a constructed n=280 tour, fewer travel times are priced than a
    third of the re-checks made (about a quarter): the bounds decide the
    rest."""
    _, rechecks, priced = _count_rechecks(monkeypatch, 280)
    assert rechecks > 10_000
    assert priced < rechecks / 3


def test_pack_tour_rechecks_once_per_window(monkeypatch):
    """On a constructed n=1000 tour, a lockstep step takes every lane to its
    next re-check rank, so the bounds are called once per window end: about
    70 times, where a rank per step called them about 700 times."""
    calls, _, _ = _count_rechecks(monkeypatch, 1000)
    assert calls <= 150


@pytest.mark.parametrize(
    "weights, capacity, expected",
    [
        # Rank 7 fits as (W + 2.1) + 0.4 = 3.9, the capacity; W + (2.1 + 0.4) is above it.
        ([0.2, 0.4, 0.6, 0.2, 2.7, 2.1, 0.4, 0.3], 3.9, [0, 1, 2, 3, 5, 6]),
        # The window commits (W + 0.7) + 0.7 = 9.5, and rank 9 fits on it at
        # exactly 9.9; on W + (0.7 + 0.7) = 9.500000000000002 it would not.
        ([2.1, 2.4, 0.9, 2.7, 2.0, 0.7, 0.7, 0.8, 0.4], 9.9, [0, 1, 2, 3, 5, 6, 8]),
    ],
)
def test_pack_tour_window_adds_as_the_greedy_does(weights, capacity, expected):
    """A re-check window of phi = 4 ranks after a committed weight W of
    ranks 1-4: rank 5 does not fit, ranks 6 and 7 do, and rank 8 fits on W
    but not on the running weight.  The fits and the committed weight must
    come from adding left to right from W, as the greedy adds.  Items
    carried no distance score inf, so they rank in index order whatever
    the exponents."""
    weights = weights + [5.0] * (16 - len(weights))
    inst = ProblemInstance(
        name="window",
        coords=[(0, 0), (3, 0), (0, 0)],
        profits=[1.0] * 16,
        weights=weights,
        item_city=[2] * 16,
        capacity=capacity,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    tour = Tour([0, 1, 2])
    assert reeval_period(16, 5, 1.0) == 4
    _assert_matches_sequential(inst, tour, [1.0], 12, 5, 0)
    plan = pack_tour(inst, TourContext(inst, tour), [1.0], 12, 5, np.random.default_rng(0))[0]
    assert plan.item_indices().tolist() == expected


def _bucket_profiles(inst, ctx, ranked, cut, edges):
    """Per bucket of positions ``edges[k]:edges[k + 1]``, summed one item at
    a time: the legs' length, the committed picks ``ranked[:cut]``' weight
    and in-bucket haul, and those of the picks ``ranked[cut:]`` it adds."""
    legs = ctx.leg.tolist()
    bucket = np.searchsorted(edges, np.arange(inst.n), side="right") - 1
    length = np.array([sum(legs[a:b]) for a, b in zip(edges[:-1], edges[1:])])
    load, haul = np.zeros((2, length.size)), np.zeros((2, length.size))
    for k, item in enumerate(ranked):
        pos = ctx.item_pos[item]
        side = int(k >= cut)
        load[side, bucket[pos]] += inst.weights[item]
        haul[side, bucket[pos]] += inst.weights[item] * sum(legs[pos : edges[bucket[pos] + 1]])
    return length, load, haul


def _recheck_case(seed, n, picks, speed_ratio, rent, scale, zero_profits, full, tail_at_depot):
    """An instance of ``picks`` items on ``n`` cities with coordinates up to
    ``scale``, its tour's context, and a rank order of its items.  Half the
    items lie at the tour's last city on average, and with
    ``tail_at_depot`` the second half of the tour sits on the start city,
    so those items are carried no distance."""
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
    return inst, TourContext(inst, Tour(order)), rng.permutation(picks)


def _lane_range(inst, empty_time, alpha, lane, length, c_load, load, haul):
    """gain_range of one lane, whose totals are ``lane`` as
    :func:`_priced_recheck` gives them, as two floats."""
    profit, _, weight, c_profit, c_weight = lane
    low, high = packing.gain_range(
        inst, empty_time, np.array([alpha]), np.array([profit]), np.array([weight]), np.array([c_profit]),
        np.array([c_weight]), length, np.asarray(c_load, float), np.asarray(load, float), np.asarray(haul, float),
    )
    return low[0], high[0]


def _totals(lane, length):
    """The one-bucket layout of a lane's totals, as pack_tour passes it to
    its first filter: the whole tour's length, the committed weight, the
    weight added and the added haul."""
    _, hauled, weight, _, c_weight = lane
    return length.sum(keepdims=True), [[c_weight]], [[weight - c_weight]], [[hauled]]


_RECHECK_CASES = dict(
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


def _assert_decides_as_priced(low, high, f_new, f_commit):
    """The range brackets the priced gain, and a re-check it decides goes
    the way the priced one does."""
    assert low <= f_new - f_commit <= high
    if low > 0:
        assert f_new > f_commit
    if high < 0:
        assert f_new <= f_commit


@settings(max_examples=400, deadline=None)
@given(**_RECHECK_CASES)
@example(  # the added items are carried no distance, their profit is lost in the rounding of a huge time
    seed=5, n=5, picks=6, speed_ratio=0.1, alpha=0.01, rent=1.0, scale=1e15,
    zero_profits=False, full=False, tail_at_depot=True,
)
@example(  # every objective is subnormal and rounds by the fixed step 2**-1074
    seed=391, n=2, picks=2, speed_ratio=0.5, alpha=0.0, rent=5e-324, scale=1e3,
    zero_profits=False, full=True, tail_at_depot=False,
)
def test_recheck_bounds_agree_with_priced_objectives(
    seed, n, picks, speed_ratio, alpha, rent, scale, zero_profits, full, tail_at_depot
):
    """gain_range over the lane's totals, as pack_tour's first filter calls
    it, brackets the priced gain of a re-check, and a re-check it decides
    goes the way the priced one does: on a committed plan and a plan that
    adds picks to it, with extreme speed ratios, a knapsack filled to
    capacity, zero profits, alpha 0 or 1, R = 0, coordinates up to 1e15 and
    items carried no distance, and objectives below the smallest normal
    float."""
    inst, ctx, ranked = _recheck_case(seed, n, picks, speed_ratio, rent, scale, zero_profits, full, tail_at_depot)
    empty_time = ctx.time_from_positions(np.zeros(n))
    for cut in range(picks):
        lane, f_new, f_commit = _priced_recheck(inst, ctx, ranked, cut, alpha)
        length = _bucket_profiles(inst, ctx, ranked, cut, [0, n])[0]
        low, high = _lane_range(inst, empty_time, alpha, lane, *_totals(lane, length))
        _assert_decides_as_priced(low, high, f_new, f_commit)


@settings(max_examples=300, deadline=None)
@given(**_RECHECK_CASES, buckets=st.sampled_from(["one", "two", "n"]))
@example(
    seed=5, n=5, picks=6, speed_ratio=0.1, alpha=0.01, rent=1.0, scale=1e15,
    zero_profits=False, full=False, tail_at_depot=True, buckets="n",
)
def test_profile_bounds_agree_with_priced_objectives(
    seed, n, picks, speed_ratio, alpha, rent, scale, zero_profits, full, tail_at_depot, buckets
):
    """The data of test_recheck_bounds_agree_with_priced_objectives, bounded
    by gain_range from weight profiles over one bucket, two buckets and one
    bucket per position: the range brackets the priced gain, a decided
    re-check goes the way the priced one does, and each plan's objective
    lies in its range against the empty plan."""
    inst, ctx, ranked = _recheck_case(seed, n, picks, speed_ratio, rent, scale, zero_profits, full, tail_at_depot)
    empty_time = ctx.time_from_positions(np.zeros(n))
    empty_f = scalarized(alpha, 0.0, empty_time, rent)
    edges = {"one": [0, n], "two": [0, n // 2, n], "n": list(range(n + 1))}[buckets]
    for cut in range(picks):
        lane, f_new, f_commit = _priced_recheck(inst, ctx, ranked, cut, alpha)
        profit, _, weight, c_profit, c_weight = lane
        length, load, haul = _bucket_profiles(inst, ctx, ranked, cut, edges)
        low, high = _lane_range(inst, empty_time, alpha, lane, length, load[:1], load[1:], haul[1:])
        _assert_decides_as_priced(low, high, f_new, f_commit)
        # Each plan is bounded against the empty one, so all its picks are added.
        _, whole, whole_haul = _bucket_profiles(inst, ctx, ranked, picks, edges)
        for p, w, plan_load, plan_haul, f in (
            (c_profit, c_weight, load[:1], haul[:1], f_commit),
            (profit, weight, whole[:1], whole_haul[:1], f_new),
        ):
            plan = (p, 0.0, w, 0.0, 0.0)
            low, high = _lane_range(
                inst, empty_time, alpha, plan, length, np.zeros_like(plan_load), plan_load, plan_haul,
            )
            assert low <= f - empty_f <= high
            assert empty_f + low <= f <= empty_f + high


def test_profile_bounds_price_a_tenth_of_the_rechecks(monkeypatch):
    """On a constructed n=1000 tour, the bounds from totals and then from
    weight profiles leave fewer than a tenth of the re-checks to price,
    stale committed plans included (about 2,400 rows of 24,700 re-checks)."""
    _, rechecks, priced = _count_rechecks(monkeypatch, 1000)
    assert rechecks > 20_000
    assert priced < rechecks / 10
