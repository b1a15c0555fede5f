import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittp import (
    Archive,
    ObjectiveBounds,
    hypervolume,
    normalize,
    subset_select,
    weakly_dominates,
)
from bittp.evaluation import scalarized

from gen import random_front
from oracles import (
    brute_best_subset_hv,
    dominated_filter,
    dominated_filter_quadratic,
    monte_carlo_hypervolume,
    rect_hypervolume,
    sequential_subset_select,
)

A = (100.0, 22.565217)
B = (160.0, 53.869565)


def test_update_into_empty():
    arc = Archive()
    assert arc.add(*A, "a") is True
    assert len(arc) == 1


def test_update_incomparable_pair():
    arc = Archive()
    arc.add(*A)
    assert arc.add(*B) is True
    assert arc.points() == [A, B]


def test_update_equal_profit_faster_time_replaces():
    arc = Archive()
    arc.add(*A)
    assert arc.add(100.0, 20.0) is True
    assert arc.points() == [(100.0, 20.0)]


def test_duplicate_rejected_first_seen_kept():
    arc = Archive()
    arc.add(*A, "first")
    assert arc.add(*A, "second") is False
    assert arc.entries()[0].solution == "first"


def test_dominated_candidate_rejected():
    arc = Archive()
    arc.add(*A)
    assert arc.add(90.0, 30.0) is False  # less profit, more time
    assert arc.add(100.0, 25.0) is False  # equal profit, more time
    assert len(arc) == 1


def test_insert_sweeps_dominated_members():
    arc = Archive()
    arc.add(10.0, 10.0)
    arc.add(20.0, 20.0)
    arc.add(30.0, 30.0)
    assert arc.add(25.0, 5.0) is True
    assert arc.points() == [(25.0, 5.0), (30.0, 30.0)]


def test_sorted_in_both_objectives():
    rng = np.random.default_rng(0)
    arc = Archive()
    for _ in range(500):
        arc.add(float(rng.integers(0, 50)), float(rng.integers(0, 50)))
    pts = arc.points()
    profits = [p for p, _ in pts]
    times = [t for _, t in pts]
    assert profits == sorted(profits) and len(set(profits)) == len(profits)
    assert times == sorted(times) and len(set(times)) == len(times)


def test_random_streams_match_brute_filter():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        length = int(rng.integers(1, 60))
        stream = list(
            zip(
                rng.integers(0, 40, size=length).astype(float).tolist(),
                rng.integers(0, 40, size=length).astype(float).tolist(),
            )
        )
        arc = Archive()
        for g, h in stream:
            arc.add(g, h)
        assert arc.points() == dominated_filter(stream)


def test_filters_agree_each_other():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pts = list(
            zip(rng.integers(0, 12, 30).astype(float), rng.integers(0, 12, 30).astype(float))
        )
        assert dominated_filter(pts) == dominated_filter_quadratic(pts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        min_size=0,
        max_size=40,
    )
)
def test_archive_equals_filter_property(stream):
    arc = Archive()
    for g, h in stream:
        arc.add(float(g), float(h))
    assert arc.points() == dominated_filter([(float(g), float(h)) for g, h in stream])


def test_best_for_alpha_examples():
    arc = Archive()
    arc.add(*A, "A")
    arc.add(*B, "B")
    assert arc.best_for_alpha(1.0, 1.0).solution == "B"
    assert arc.best_for_alpha(0.0, 1.0).solution == "A"
    assert arc.best_for_alpha(0.5, 1.0).solution == "B"


def test_best_for_alpha_tie_breaks_toward_lower_time():
    arc = Archive()
    # R = 0 and alpha = 0 make every member score 0: lowest time wins
    arc.add(5.0, 1.0, "slowless")
    arc.add(9.0, 3.0, "rich")
    assert arc.best_for_alpha(0.0, 0.0).solution == "slowless"


def test_best_for_alpha_empty_raises():
    with pytest.raises(ValueError):
        Archive().best_for_alpha(0.5, 1.0)


def _best_by_scan(arc, alpha, rent):
    """The member with the largest key (scalarized objective, -time, -profit)."""
    best = best_key = None
    for g, h, s in arc.entries():
        key = (scalarized(alpha, g, h, rent), -h, -g)
        if best_key is None or key > best_key:
            best_key, best = key, (g, h, s)
    return best


def test_best_for_alpha_matches_linear_scan():
    """3,000 random archives, each at alphas 0, 0.5, 1 and a random one; the
    integer objectives make tied scalarized values common."""
    rng = np.random.default_rng(10)
    for _ in range(3000):
        arc = Archive()
        for k in range(int(rng.integers(1, 80))):
            arc.add(float(rng.integers(0, 1000)), float(rng.integers(1, 1000)), k)
        rent = float(rng.choice([0.0, 0.1, 1.0, 5.0]))
        for alpha in (0.0, 0.5, 1.0, float(rng.random())):
            assert tuple(arc.best_for_alpha(alpha, rent)) == _best_by_scan(arc, alpha, rent)


def test_bounds_track_every_offer():
    arc = Archive()
    arc.add(10.0, 10.0)
    arc.add(5.0, 20.0)  # rejected but still widens the bounds
    assert arc.bounds.profit_min == 5.0
    assert arc.bounds.time_max == 20.0
    other = Archive()
    other.add(100.0, 1.0)
    arc.merge(other)
    assert arc.bounds.profit_max == 100.0
    assert arc.points() == [(100.0, 1.0)]


def test_merge_replays_entries():
    a = Archive()
    a.add(10.0, 10.0, "a1")
    b = Archive()
    b.add(5.0, 5.0, "b1")
    b.add(20.0, 20.0, "b2")
    a.merge(b)
    assert a.points() == [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)]


def test_normalize_examples():
    bounds = ObjectiveBounds(0.0, 10.0, 5.0, 25.0)
    pts = normalize([(0.0, 5.0), (10.0, 25.0), (5.0, 15.0)], bounds)
    assert pts.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]


def test_normalize_constant_coordinate_maps_to_zero():
    bounds = ObjectiveBounds(4.0, 4.0, 1.0, 3.0)
    pts = normalize([(4.0, 2.0)], bounds)
    assert pts.tolist() == [[0.0, 0.5]]


def test_hypervolume_examples():
    assert hypervolume([(1.0, 0.0)]) == 1.0
    assert hypervolume([(0.5, 0.5)]) == 0.25
    assert hypervolume([(0.5, 0.2), (1.0, 0.6)]) == pytest.approx(0.6, abs=1e-15)


def test_hypervolume_ref_dominated_raises():
    with pytest.raises(ValueError):
        hypervolume([(-0.1, 0.5)])
    with pytest.raises(ValueError):
        hypervolume([(0.5, 1.5)])


def test_hypervolume_rejects_dominated_points():
    with pytest.raises(ValueError):
        hypervolume([(0.4, 0.5), (0.5, 0.2)])


def test_hypervolume_monotone_under_insertion():
    rng = np.random.default_rng(6)
    for _ in range(50):
        front = random_front(rng, 12)
        arc = Archive()
        prev = 0.0
        for g, h in rng.permutation(front):
            arc.add(float(g), float(h))
            hv = hypervolume(arc.points())
            assert hv >= prev - 1e-15
            prev = hv


def test_hypervolume_matches_independent_rectangle_sum():
    rng = np.random.default_rng(14)
    for _ in range(100):
        front = random_front(rng, int(rng.integers(1, 20)))
        assert hypervolume(front) == rect_hypervolume(front)


def test_hypervolume_matches_monte_carlo():
    rng = np.random.default_rng(21)
    for _ in range(5):
        front = random_front(rng, 30)
        hv = hypervolume(front)
        est, se = monte_carlo_hypervolume(front, 200_000, rng)
        assert abs(hv - est) <= 3 * se + 1e-9


def test_subset_select_keeps_all_when_k_large():
    pts = [(0.2, 0.1), (0.6, 0.5), (0.9, 0.8)]
    idx = subset_select(pts, 5)
    assert sorted(idx) == [0, 1, 2]
    assert hypervolume([pts[i] for i in idx]) == hypervolume(pts)


def test_subset_select_single_choice():
    pts = [(0.6, 0.2), (1.0, 0.6)]
    idx = subset_select(pts, 1)
    assert [pts[i] for i in idx] == [(0.6, 0.2)]


def test_subset_select_pair_choice():
    pts = [(0.3, 0.1), (0.6, 0.4), (1.0, 0.8)]
    idx = subset_select(pts, 2)
    assert [pts[i] for i in idx] == [(0.3, 0.1), (0.6, 0.4)]
    assert hypervolume([pts[i] for i in idx]) == pytest.approx(0.45, abs=1e-15)


def test_subset_select_matches_brute_force_exactly():
    rng = np.random.default_rng(33)
    for _ in range(60):
        front = random_front(rng, int(rng.integers(1, 13)))
        k = int(rng.integers(1, 6))
        idx = subset_select(front, k)
        assert len(idx) <= k
        assert len(set(idx)) == len(idx)
        assert hypervolume([front[i] for i in idx]) == brute_best_subset_hv(front, k)


def test_subset_select_matches_sequential_dynamic_program():
    """The same indices as pricing one (count, point) cell at a time, on
    random fronts and on fronts from a coarse grid, whose gains tie often."""
    rng = np.random.default_rng(20)
    for trial in range(3000):
        n = int(rng.integers(1, 40))
        if trial % 2:
            front = random_front(rng, n)
        else:
            g = np.sort(rng.choice(np.arange(1, 17), size=min(n, 16), replace=False)) / 16
            h = np.sort(rng.choice(np.arange(16), size=g.shape[0], replace=False)) / 16
            front = list(zip(g.tolist(), h.tolist()))
        front = [front[i] for i in rng.permutation(len(front))]
        k = int(rng.integers(1, 45))
        assert subset_select(front, k) == sequential_subset_select(front, k), (trial, k)


def test_subset_select_input_order_independent():
    rng = np.random.default_rng(40)
    front = random_front(rng, 9)
    shuffled = [front[i] for i in rng.permutation(len(front))]
    hv_a = hypervolume([front[i] for i in subset_select(front, 3)])
    hv_b = hypervolume([shuffled[i] for i in subset_select(shuffled, 3)])
    assert hv_a == hv_b


def test_weakly_dominates():
    assert weakly_dominates((2.0, 1.0), (1.0, 2.0))
    assert weakly_dominates((1.0, 1.0), (1.0, 1.0))
    assert not weakly_dominates((1.0, 2.0), (2.0, 1.0))
