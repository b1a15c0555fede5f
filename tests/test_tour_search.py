import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bittp import (
    NeighborLists,
    PackingPlan,
    ProblemInstance,
    Solution,
    Tour,
    TourContext,
    average_pair_distance,
    construct_tour,
    distance_matrix,
    two_opt_exploit,
    weighted_objective,
)

from bittp import tour_search
from bittp.packing import pack_tour
from gen import random_instance
from oracles import (
    _scalar_dist,
    brute_best_tour_length,
    sequential_average_pair_distance,
    sequential_construct_tour,
    sequential_two_opt_exploit,
)

NEG_INF = float("-inf")


def _inst(coords, **kw):
    defaults = dict(
        name="t",
        profits=[],
        weights=[],
        item_city=[],
        capacity=1,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    defaults.update(kw)
    return ProblemInstance(coords=coords, **defaults)


UNIT_SQUARE = _inst([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_neighbor_lists_sorted_no_self():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 30, 5)
    nbr = NeighborLists.build(inst, k=7)
    assert nbr.indices.shape == (30, 7)
    for i in range(inst.n):
        row = nbr.indices[i]
        assert i not in row
        dists = [inst.distance(i, int(c)) for c in row]
        assert dists == sorted(dists)


def test_neighbor_lists_clamped_to_n_minus_1(toy3):
    nbr = NeighborLists.build(toy3, k=16)
    assert nbr.k == 2


@pytest.mark.parametrize("k", [1, 3, 16])
@pytest.mark.parametrize("span", [2, 4, 1000])
def test_neighbor_lists_equal_per_city_loop(k, span):
    """Rows equal dropping each city from its query row one city at a time.
    With duplicate points a city can be missing from its own query row;
    then the row keeps its first k entries."""
    rng = np.random.default_rng(span + k)
    coords = rng.integers(0, span, size=(60, 2)).astype(float)
    _, idx = cKDTree(coords).query(coords, k=k + 1)
    idx = np.asarray(idx).reshape(60, -1)
    want = np.array([[int(c) for c in idx[i] if c != i][:k] for i in range(60)])
    assert np.array_equal(NeighborLists.build(_inst(coords), k=k).indices, want)
    if span == 2:  # 4 distinct points: some city is outside its own row
        assert (idx != np.arange(60)[:, None]).all(axis=1).any()


def test_distance_matrix_matches_scalar(toy3):
    mat = distance_matrix(toy3)
    dist = _scalar_dist(toy3)
    assert mat.tolist() == [[dist(i, j) for j in range(3)] for i in range(3)]


def test_construct_two_cities():
    inst = _inst([(0, 0), (7, 0)])
    tour = construct_tour(inst, np.random.default_rng(0), NeighborLists.build(inst))
    assert tour.order.tolist() == [0, 1]


def test_construct_toy3_length(toy3):
    neighbors = NeighborLists.build(toy3)
    for seed in range(6):
        tour = construct_tour(toy3, np.random.default_rng(seed), neighbors)
        assert toy3.tour_length(tour.order) == 12.0
        assert tour.order[0] == 0


def test_construct_unit_square_optimal():
    neighbors = NeighborLists.build(UNIT_SQUARE)
    for seed in range(6):
        tour = construct_tour(UNIT_SQUARE, np.random.default_rng(seed), neighbors)
        assert UNIT_SQUARE.tour_length(tour.order) == 4.0


def test_construct_tours_are_valid_permutations():
    rng = np.random.default_rng(123)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 40)), 3)
        tour = construct_tour(inst, rng, NeighborLists.build(inst))
        assert tour.order[0] == 0
        assert sorted(tour.order.tolist()) == list(range(inst.n))


def test_construct_quality_statistical():
    """Constructed tours land within 5% of the enumerated optimum in at
    least 95 of 100 seeded runs on a small instance."""
    inst = random_instance(np.random.default_rng(77), 8, 4)
    best = brute_best_tour_length(inst)
    neighbors = NeighborLists.build(inst)
    ok = 0
    for seed in range(100):
        tour = construct_tour(inst, np.random.default_rng(seed), neighbors)
        if inst.tour_length(tour.order) <= 1.05 * best:
            ok += 1
    assert ok >= 95, f"only {ok}/100 constructions within 5% of optimum"


def test_construct_is_candidate_two_opt_optimal():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 25, 3)
    nbr = NeighborLists.build(inst, k=8)
    tour = construct_tour(inst, rng, neighbors=nbr)
    order = tour.order.tolist()
    n = len(order)
    pos = {c: i for i, c in enumerate(order)}
    base = inst.tour_length(tour.order)
    for a in range(n):
        for c in nbr.indices[a]:
            i, j = pos[a], pos[int(c)]
            lo, hi = min(i, j), max(i, j)
            if lo == 0:
                continue
            cand = order[: lo + 1] + order[lo + 1 : hi + 1][::-1] + order[hi + 1 :]
            assert inst.tour_length(np.array(cand)) >= base - 1e-9


def _assert_matches_sequential(inst, seed, k, kicks):
    neighbors = NeighborLists.build(inst, k=k)
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = construct_tour(inst, rng_new, neighbors=neighbors, kicks=kicks)
    want = sequential_construct_tour(inst, rng_ref, neighbors, kicks)
    assert got.order.tolist() == want
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    span=st.sampled_from([2, 3, 5, 10, 1000]),
    metric=st.sampled_from(["CEIL_2D", "EUC_2D"]),
    k=st.integers(1, 16),
    kicks=st.integers(0, 3),
    block=st.sampled_from([1, 7, 100, tour_search.BLOCK]),
)
def test_construct_tour_matches_sequential_descent_property(seed, n, span, metric, k, kicks, block):
    """Block scans give the one-city descent's tours and leave the generator
    where it does; small coordinate spans force duplicate points and tied
    distances."""
    rng = np.random.default_rng(seed)
    inst = _inst(rng.integers(0, span, size=(n, 2)).astype(float), metric=metric)
    saved = tour_search.BLOCK
    tour_search.BLOCK = block
    try:
        _assert_matches_sequential(inst, seed + 1, k, kicks)
    finally:
        tour_search.BLOCK = saved


def test_construct_tour_matches_sequential_descent_n1000():
    inst = random_instance(np.random.default_rng(11), 1000, 0, coord_range=5000)
    _assert_matches_sequential(inst, 12, 16, 3)


def test_descent_stops_on_moves_that_do_not_shorten_the_tour(monkeypatch):
    """A wrong move (here: swapping positions 1 and 2 over and over) ends the
    descent with an error once it has made as many moves as the starting
    tour is long, instead of looping forever."""
    inst = random_instance(np.random.default_rng(5), 30, 0)
    calls = itertools.count()

    def stuck(self, cities):
        assert next(calls) < 100_000, "the descent did not stop"
        return 0, (1, 3, self.order[1:3][::-1].copy(), ())

    monkeypatch.setattr(tour_search._Descent, "first_move", stuck)
    with pytest.raises(RuntimeError, match="starting tour length"):
        construct_tour(inst, np.random.default_rng(0), NeighborLists.build(inst))


def test_average_pair_distance_examples(toy3):
    assert average_pair_distance(toy3) == 4.0
    assert average_pair_distance(_inst([(0, 0), (7, 0)])) == 7.0
    # square of side 1.2: all six ceiling distances equal 2
    sq = _inst([(0, 0), (1.2, 0), (1.2, 1.2), (0, 1.2)])
    assert average_pair_distance(sq) == 2.0


def test_average_pair_distance_sampled_close_to_exact():
    inst = random_instance(np.random.default_rng(5), 400, 2)
    exact = average_pair_distance(inst)
    sampled = average_pair_distance(inst, exact_limit=100, sample_size=200_000)
    assert sampled == pytest.approx(exact, rel=0.01)
    again = average_pair_distance(inst, exact_limit=100, sample_size=200_000)
    assert again == sampled  # derived seed makes the estimate reproducible


def _solution(inst, order, items, alpha):
    tour = Tour(np.asarray(order))
    plan = PackingPlan.of(inst, items)
    return Solution.evaluated(inst, tour, plan, alpha)


def test_two_opt_exploit_n3_has_no_neighbors(toy3):
    sol = _solution(toy3, [0, 1, 2], [], 0.5)
    assert two_opt_exploit(toy3, sol, 0.5, 100.0, 4.0) is None


def test_two_opt_exploit_disabled_by_sentinel():
    sol = _solution(UNIT_SQUARE, [0, 2, 1, 3], [], 0.0)
    assert two_opt_exploit(UNIT_SQUARE, sol, 0.0, NEG_INF, 1.0) is None


def test_two_opt_exploit_uncrosses_square():
    # crossing tour (1,3,2,4) has length 6; the best neighbor is the
    # uncrossed cycle of length 4
    sol = _solution(UNIT_SQUARE, [0, 2, 1, 3], [], 0.0)
    ell = average_pair_distance(UNIT_SQUARE)
    better = two_opt_exploit(UNIT_SQUARE, sol, 0.0, 100.0, ell)
    assert better is not None
    assert UNIT_SQUARE.tour_length(better.order) == 4.0


def test_two_opt_exploit_requires_strict_improvement():
    sol = _solution(UNIT_SQUARE, [0, 1, 2, 3], [], 0.0)
    ell = average_pair_distance(UNIT_SQUARE)
    assert two_opt_exploit(UNIT_SQUARE, sol, 0.0, 0.001, ell) is None


def _oracle_two_opt(inst, sol, alpha, tolerance, ell):
    """Exhaustive reference: same admissibility filter and tie-breaking."""
    order = sol.tour.order
    n = len(order)
    base_len = inst.tour_length(order)
    best_f = weighted_objective(inst, sol.tour, sol.plan, alpha)
    best = None
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            if i == 1 and j == n - 1:
                continue
            cand = order.copy()
            cand[i : j + 1] = cand[i : j + 1][::-1]
            if inst.tour_length(cand) - base_len > tolerance * ell:
                continue
            f = weighted_objective(inst, Tour(cand), sol.plan, alpha)
            if f > best_f:
                best_f = f
                best = cand
    return best


@pytest.mark.parametrize("tolerance", [0.0, 0.5, 100.0])
def test_two_opt_exploit_matches_exhaustive_oracle(tolerance):
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_instance(rng, int(rng.integers(4, 9)), int(rng.integers(1, 7)))
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        plan = PackingPlan.empty(inst)
        for j in rng.permutation(inst.m):
            if rng.random() < 0.5 and plan.can_add(int(j)):
                plan.add(int(j))
        alpha = float(rng.random())
        sol = Solution.evaluated(inst, Tour(order), plan, alpha)
        ell = average_pair_distance(inst)
        got = two_opt_exploit(inst, sol, alpha, tolerance, ell)
        expect = _oracle_two_opt(inst, sol, alpha, tolerance, ell)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.order.tolist() == expect.tolist()


def test_two_opt_exploit_never_worse():
    rng = np.random.default_rng(8)
    for _ in range(10):
        inst = random_instance(rng, 7, 5)
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        sol = Solution.evaluated(inst, Tour(order), PackingPlan.empty(inst), 0.3)
        got = two_opt_exploit(inst, sol, 0.3, 10.0, average_pair_distance(inst))
        if got is not None:
            assert weighted_objective(inst, got, sol.plan, 0.3) > weighted_objective(
                inst, sol.tour, sol.plan, 0.3
            )


def _same_tour(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got.order.tolist() == want.order.tolist()
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(0, 30),
    span=st.sampled_from([2, 3, 10, 1000, 10**17]),
    tenths=st.booleans(),
    metric=st.sampled_from(["CEIL_2D", "EUC_2D"]),
    fill=st.sampled_from(["empty", "partial", "full"]),
    tolerance=st.sampled_from([-0.01, 0.0, 0.001, 0.5, 5.0, float("inf")]),
    alpha_kind=st.sampled_from(["0", "1", "random"]),
    zero_ell=st.booleans(),
)
def test_two_opt_exploit_matches_sequential_scan_property(
    seed, n, m, span, tenths, metric, fill, tolerance, alpha_kind, zero_ell
):
    """Ball-query candidates and batch pricing give the per-position scan's
    tour, or None: random tours have long legs and so large balls; small
    coordinate spans force duplicate points and tied objectives, and a huge
    one distances whose sums round; coordinates in tenths give new edges
    that round down to exactly the length limit; a zero average pair
    distance makes an infinite tolerance's limit NaN."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 20, size=m).astype(float)
    coords = rng.integers(0, span * (10 if tenths else 1), size=(n, 2)) / (10 if tenths else 1)
    inst = _inst(
        coords,
        metric=metric,
        profits=rng.integers(0, 100, size=m).astype(float),
        weights=weights,
        item_city=rng.integers(1, n, size=m),
        capacity=max(float(weights.sum()) * (1.0 if fill == "full" else 0.5), 1.0),
        renting_rate=float(rng.integers(0, 4)),
    )
    plan = PackingPlan.empty(inst)
    if fill == "full":
        plan = PackingPlan(inst, np.ones(m, dtype=bool))
    elif fill == "partial":
        for item in rng.permutation(m):
            if rng.random() < 0.5 and plan.can_add(int(item)):
                plan.add(int(item))
    alpha = {"0": 0.0, "1": 1.0, "random": float(rng.random())}[alpha_kind]
    order = np.concatenate(([0], rng.permutation(np.arange(1, n))))
    sol = Solution.evaluated(inst, Tour(order), plan, alpha)
    ell = 0.0 if zero_ell else average_pair_distance(inst)
    got = two_opt_exploit(inst, sol, alpha, tolerance, ell)
    assert _same_tour(got, sequential_two_opt_exploit(inst, sol, alpha, tolerance, ell))


@pytest.mark.parametrize("tolerance", [0.001, 0.05])
def test_two_opt_exploit_matches_sequential_scan_n1000(tolerance):
    """A constructed tour and a packed plan, as the solver's pivots are;
    this pivot has an improving admissible neighbor at both tolerances."""
    inst = random_instance(np.random.default_rng(21), 1000, 1000, coord_range=5000)
    rng = np.random.default_rng(6)
    tour = construct_tour(inst, rng, NeighborLists.build(inst))
    plan = pack_tour(inst, TourContext(inst, tour), [0.9], 12, 41, rng)[0]
    sol = Solution.evaluated(inst, tour, plan, 0.9)
    ell = average_pair_distance(inst)
    got = two_opt_exploit(inst, sol, 0.9, tolerance, ell)
    assert got is not None
    assert _same_tour(got, sequential_two_opt_exploit(inst, sol, 0.9, tolerance, ell))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    scale=st.sampled_from([1.0, 1000.0, 1e9, 1e17, 1e150]),
    integral=st.booleans(),
    metric=st.sampled_from(["CEIL_2D", "EUC_2D"]),
)
def test_average_pair_distance_equals_per_city_sum(seed, n, scale, integral, metric):
    """Row blocks give the one-city-at-a-time sum bit for bit, also where
    distances pass 2**53 and the sum rounds."""
    coords = np.random.default_rng(seed).random((n, 2)) * scale
    if integral:
        coords = np.floor(coords)
    inst = _inst(coords, metric=metric)
    assert average_pair_distance(inst) == sequential_average_pair_distance(inst)


def test_two_opt_exploit_admits_moves_at_the_limit():
    """A move whose length grows by exactly the limit is admissible: with
    the limit set to the length change of the best move overall, that
    move is still the answer."""
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(30):
        inst = random_instance(rng, int(rng.integers(4, 10)), 6)
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        plan = PackingPlan.empty(inst)
        for item in rng.permutation(inst.m):
            if plan.can_add(int(item)):
                plan.add(int(item))
        sol = Solution.evaluated(inst, Tour(order), plan, 0.2)
        best = sequential_two_opt_exploit(inst, sol, 0.2, float("inf"), 1.0)
        if best is None:
            continue
        delta = inst.tour_length(best.order) - inst.tour_length(order)
        found += 1
        assert _same_tour(two_opt_exploit(inst, sol, 0.2, delta, 1.0), best)
    assert found



def test_two_opt_exploit_finds_moves_whose_new_edges_round_down():
    """The best move here adds two edges that round down to the lengths of
    the edges they replace, so its length change is exactly the zero
    limit: the search radius must reach past the rounded distances."""
    coords = [(3.3, 5.5), (5.9, 5.5), (1.1, 3.4), (3.0, 1.4), (1.2, 3.9), (1.0, 1.8)]
    inst = _inst(coords, metric="EUC_2D", profits=[1.0], weights=[9.0], item_city=[2], capacity=10)
    sol = _solution(inst, [0, 3, 2, 5, 1, 4], [0], 0.0)
    got = two_opt_exploit(inst, sol, 0.0, 0.0, 1.0)
    assert got is not None and got.order.tolist() == [0, 3, 4, 1, 5, 2]
    assert _same_tour(got, sequential_two_opt_exploit(inst, sol, 0.0, 0.0, 1.0))
