from dataclasses import replace

import numpy as np
import pytest

from bittp import (
    AlphaDistribution,
    Archive,
    PackingPlan,
    ProblemInstance,
    Solution,
    Tour,
    WsmConfig,
    bit_flip_exploit,
    hypervolume,
    normalize,
    random_search,
    run,
    sample_alpha,
    total_profit,
    validate_solution,
)

from gen import random_instance
from oracles import exact_front

TOY3_FRONT = [
    (0.0, 12.0),
    (60.0, 14.25),
    (100.0, 15.521739130434783),
    (160.0, 41.8125),
]


def test_sample_alpha_in_unit_interval():
    rng = np.random.default_rng(0)
    for dist in AlphaDistribution:
        draws = np.array([sample_alpha(dist, rng) for _ in range(10_000)])
        assert (0.0 <= draws).all() and (draws <= 1.0).all()


def test_beta_distribution_means():
    rng = np.random.default_rng(1)
    right = np.array([sample_alpha(AlphaDistribution.BETA_RIGHT, rng) for _ in range(1_000_000)])
    left = np.array([sample_alpha(AlphaDistribution.BETA_LEFT, rng) for _ in range(1_000_000)])
    assert abs(right.mean() - 3 / (3 + 1.5)) < 0.005
    assert abs(left.mean() - 1.5 / (1.5 + 3)) < 0.005


def test_normal_rejection_keeps_shape():
    rng = np.random.default_rng(2)
    draws = np.array([sample_alpha(AlphaDistribution.NORMAL, rng) for _ in range(50_000)])
    assert (0.0 <= draws).all() and (draws <= 1.0).all()
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.std() - 0.2) < 0.01  # truncation barely trims N(0.5, 0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        WsmConfig()  # no budget
    with pytest.raises(ValueError):
        WsmConfig(time_limit=1.0, iterations=5)
    with pytest.raises(ValueError):
        WsmConfig(iterations=5, flip_probability=1.5)
    with pytest.raises(ValueError):
        WsmConfig(iterations=0)
    with pytest.raises(ValueError):
        WsmConfig(time_limit=-3.0)
    cfg = WsmConfig(iterations=3)
    assert cfg.packings_per_tour == 117
    assert cfg.packing_attempts == 12
    assert cfg.reeval_divisor == 41
    assert cfg.two_opt_tolerance == 0.001
    assert cfg.flip_probability == 0.22
    assert cfg.alpha_dist is AlphaDistribution.UNIFORM


def test_config_rejects_negative_seed_and_nan_tolerance():
    """A negative seed would fail later in ``SeedSequence``, and a NaN 2-opt
    tolerance would silently admit no move; -inf and +inf stay valid."""
    with pytest.raises(ValueError, match="seed"):
        WsmConfig(iterations=1, seed=-1)
    with pytest.raises(ValueError, match="NaN"):
        WsmConfig(iterations=1, two_opt_tolerance=float("nan"))
    WsmConfig(iterations=1, two_opt_tolerance=float("-inf"))
    WsmConfig(iterations=1, two_opt_tolerance=float("inf"))


def _toy3_solution(toy3, items, order=(0, 1, 2), alpha=0.5):
    tour = Tour(np.array(order))
    return Solution.evaluated(toy3, tour, PackingPlan.of(toy3, items), alpha)


def test_bit_flip_lambda_zero_is_inert(toy3):
    sol = _toy3_solution(toy3, [0])
    archive = Archive()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert bit_flip_exploit(toy3, sol, 0.0, rng, archive) == 0
    assert len(archive) == 0
    assert rng.bit_generator.state == state  # no draws consumed


def test_bit_flip_draws_once_per_item():
    inst = random_instance(np.random.default_rng(3), 20, 60)
    sol = Solution.evaluated(inst, Tour(np.arange(inst.n)), PackingPlan.empty(inst))
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    bit_flip_exploit(inst, sol, 0.3, rng, Archive())
    for _ in range(inst.m):
        ref.random()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_bit_flip_lambda_one_proposes_both_flips(toy3):
    sol = _toy3_solution(toy3, [0])
    archive = Archive()
    accepted = bit_flip_exploit(toy3, sol, 1.0, np.random.default_rng(0), archive)
    assert accepted == 2
    pts = archive.points()
    assert pts[0] == (0.0, 12.0)  # item 1 removed
    assert pts[1][0] == 160.0  # item 2 added
    assert pts[1][1] == pytest.approx(53.869565217391305, rel=1e-9)


def test_bit_flip_respects_capacity():
    inst = ProblemInstance(
        name="cap",
        coords=[(0, 0), (3, 0), (0, 4)],
        profits=[100, 60],
        weights=[3, 9],  # item 2 can never join item 1
        item_city=[1, 2],
        capacity=5,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=1.0,
    )
    sol = Solution.evaluated(inst, Tour(np.array([0, 1, 2])), PackingPlan.of(inst, [0]), 0.5)
    archive = Archive()
    accepted = bit_flip_exploit(inst, sol, 1.0, np.random.default_rng(0), archive)
    assert accepted == 1  # only the removal of item 1
    assert archive.points() == [(0.0, 12.0)]


def test_bit_flip_values_match_from_scratch(toy3):
    from bittp import travel_time

    sol = _toy3_solution(toy3, [0])
    archive = Archive()
    bit_flip_exploit(toy3, sol, 1.0, np.random.default_rng(0), archive)
    for entry in archive.entries():
        recomputed = travel_time(toy3, entry.solution.tour, entry.solution.plan)
        assert entry.time == pytest.approx(recomputed, rel=1e-12)


def test_run_toy3_recovers_exact_front(toy3):
    archive = run(toy3, WsmConfig(iterations=40, seed=3))
    for entry in archive.entries():
        validate_solution(toy3, entry.solution)
    pts = archive.points()
    assert len(pts) == len(TOY3_FRONT)
    for (g, h), (eg, eh) in zip(pts, TOY3_FRONT):
        assert g == pytest.approx(eg, rel=1e-9)
        assert h == pytest.approx(eh, rel=1e-9)
    assert [tuple(map(float, p)) for p in exact_front(toy3)] == pytest.approx(TOY3_FRONT)


def test_run_m_zero_instance_single_solution():
    inst = random_instance(np.random.default_rng(4), 6, 0)
    archive = run(inst, WsmConfig(iterations=5, seed=1))
    assert len(archive) == 1
    entry = archive.entries()[0]
    assert entry.profit == 0.0
    assert len(entry.solution.plan) == 0


def test_run_deterministic_given_seed_and_iterations():
    inst = random_instance(np.random.default_rng(9), 9, 12)
    a = run(inst, WsmConfig(iterations=6, seed=42))
    b = run(inst, WsmConfig(iterations=6, seed=42))
    assert a.points() == b.points()
    assert [e.solution.alpha for e in a.entries()] == [e.solution.alpha for e in b.entries()]
    c = run(inst, WsmConfig(iterations=6, seed=43))
    assert a.points() != c.points()
    assert [e.solution.alpha for e in a.entries()] != [e.solution.alpha for e in c.entries()]


def test_run_exploration_only_still_builds_front():
    inst = random_instance(np.random.default_rng(12), 8, 10)
    cfg = WsmConfig(
        iterations=8, seed=5, two_opt_tolerance=float("-inf"), flip_probability=0.0
    )
    archive = run(inst, cfg)
    assert len(archive) >= 1
    assert archive.points()[0][0] == 0.0  # the empty-plan point survives


def test_run_anytime_hypervolume_monotone():
    inst = random_instance(np.random.default_rng(15), 10, 14)
    traces = []
    archive = run(
        inst,
        WsmConfig(iterations=10, seed=2),
        on_cycle=lambda stats: traces.append(list(stats.archive.points())),
    )
    bounds = archive.bounds
    hvs = [hypervolume(normalize(pts, bounds)) for pts in traces]
    assert all(b >= a - 1e-15 for a, b in zip(hvs, hvs[1:]))
    assert len(traces) == 10


def test_run_time_limit_mode_stops(toy3):
    import time

    t0 = time.perf_counter()
    archive = run(toy3, WsmConfig(time_limit=0.5, seed=0))
    elapsed = time.perf_counter() - t0
    assert len(archive) >= 1
    assert elapsed < 5.0


def test_run_time_limit_runs_at_least_one_cycle(toy3):
    """A limit shorter than any cycle still runs one, so the archive is
    never empty; the limit is read after each cycle."""
    cycles = []
    archive = run(toy3, WsmConfig(time_limit=1e-9, seed=0), on_cycle=lambda stats: cycles.append(stats.cycle))
    assert cycles == [1]
    assert len(archive) >= 1
    assert len(random_search(toy3, seed=0, time_limit=1e-9)) >= 1


def test_random_search_baseline():
    inst = random_instance(np.random.default_rng(20), 8, 10)
    archive = random_search(inst, seed=1, iterations=50)
    assert len(archive) >= 1
    for g, h, sol in archive.entries():
        assert sol.plan.total_weight <= inst.capacity
    with pytest.raises(ValueError):
        random_search(inst, seed=1)


def _tenths_instance(seed, fractional_profits=False):
    """Weights in tenths, whose running and index-order sums can differ by an
    ulp next to the capacity; profits in tenths too, if asked."""
    rng = np.random.default_rng(seed)
    inst = replace(
        random_instance(np.random.default_rng(seed), 7, 21),
        weights=rng.integers(1, 10, size=21) / 10,
        capacity=5.3,
    )
    if fractional_profits:
        inst = replace(inst, profits=rng.integers(1, 100, size=21) / 10)
    return inst


def test_random_search_archives_only_valid_plans():
    """26 of these instances made random_search archive a plan that fit by
    its running weight only."""
    for seed in range(200):
        inst = _tenths_instance(seed)
        for entry in random_search(inst, seed=0, iterations=50).entries():
            validate_solution(inst, entry.solution)


def test_bit_flip_profits_are_index_order_sums():
    """Profits in tenths: a flip priced as the pivot's profit plus or minus
    the item's can differ by an ulp from the flipped plan's profit."""
    offered = []

    class Recorder(Archive):
        def add(self, profit, time, solution):
            offered.append((profit, solution))
            return super().add(profit, time, solution)

    for seed in range(50):
        inst = _tenths_instance(seed, fractional_profits=True)
        rng = np.random.default_rng(seed)
        plan = PackingPlan.empty(inst)
        for item in rng.permutation(inst.m).tolist():
            if rng.random() < 0.5 and plan.can_add(item):
                plan.add(item)
        tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
        offered.clear()
        bit_flip_exploit(inst, Solution.evaluated(inst, tour, plan), 1.0, rng, Recorder())
        assert offered
        for profit, sol in offered:
            assert profit == sol.profit == total_profit(inst, sol.plan)
