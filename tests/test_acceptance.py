"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines for
passing criteria too.

Criterion 1 (exact-front recovery at desk scale) is known-red: some
Pareto-optimal points are achieved only by tours that are longer than the
optimal cycle and are not 2-opt local optima of tour length.  The tour
constructor emits 2-opt local optima by contract, the default exploitation
tolerance (beta = 0.001, i.e. an admissible length growth under one distance
unit) admits no lengthening move, and bit flips never change tours, so such
points are unreachable at any budget: measured hypervolume ratios are
bit-identical for 5 s and 30 s runs.  The criterion is asserted verbatim
anyway and the test reports the measured per-instance ratios; the analysis
lives alongside the repository notes.
"""

import time

import numpy as np
import pytest

from bittp import (
    Archive,
    ObjectiveBounds,
    PackingPlan,
    ProblemInstance,
    Tour,
    WsmConfig,
    hypervolume,
    normalize,
    random_search,
    run,
    speed,
    subset_select,
    total_profit,
    travel_time,
    weight_after,
    weighted_objective,
)
from bittp.cli import _TraceRecorder, main, write_instance

from gen import random_instance
from oracles import (
    brute_best_subset_hv,
    dominated_filter,
    exact_front,
    monte_carlo_hypervolume,
)

HV_REF = (0.0, 1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _benchmark_style(rng: np.random.Generator, n: int, per_city: int) -> ProblemInstance:
    """Tiny instance in the published benchmark's mold: the same number of
    items at every city but the first, uncorrelated integer profits and
    weights, capacity a mid-range fraction of the total weight."""
    span = 10 * n
    coords = np.unique(rng.integers(0, span, size=(4 * n, 2)), axis=0)
    rng.shuffle(coords)
    coords = coords[:n].astype(float)
    m = per_city * (n - 1)
    profits = rng.integers(1, 101, size=m).astype(float)
    weights = rng.integers(1, 101, size=m).astype(float)
    capacity = float(np.ceil(weights.sum() * int(rng.integers(2, 8)) / 11))
    return ProblemInstance(
        name=f"bench-n{n}-f{per_city}",
        coords=coords,
        profits=profits,
        weights=weights,
        item_city=np.tile(np.arange(1, n), per_city),
        capacity=capacity,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=float(rng.integers(1, 6)),
    )


def _union_bounds(*fronts) -> ObjectiveBounds:
    bounds = ObjectiveBounds()
    for front in fronts:
        for g, h in front:
            bounds.include(g, h)
    return bounds


def test_criterion_1_exact_front_recovery():
    """10 random tiny instances; 5-second default-config runs must reach
    >= 0.99 x exact-front hypervolume (shared bounds, ref (0,1)) on >= 9 of
    10, all within 2 minutes.  See the module docstring: structurally red."""
    rng = np.random.default_rng(777)
    started = time.perf_counter()
    ratios = []
    for trial in range(10):
        n = int(rng.integers(5, 9))
        per_city = 1 if n >= 7 else int(rng.integers(1, 3))
        inst = _benchmark_style(rng, n, per_city)
        front = exact_front(inst)
        archive = run(inst, WsmConfig(time_limit=5.0, seed=trial))
        bounds = _union_bounds(front, archive.points())
        hv_oracle = hypervolume(normalize(front, bounds), HV_REF)
        hv_solver = hypervolume(normalize(archive.points(), bounds), HV_REF)
        ratios.append(hv_solver / hv_oracle)
    elapsed = time.perf_counter() - started
    passes = sum(r >= 0.99 for r in ratios)
    detail = (
        f"{passes}/10 instances at >= 0.99 x exact-front HV in {elapsed:.0f}s "
        f"(ratios: {', '.join(f'{r:.4f}' for r in ratios)})"
    )
    _report(1, passes >= 9 and elapsed <= 120.0, detail)


TOY3_ORACLE_FRONT = [
    (0.0, 12.0),
    (60.0, 14.25),
    (100.0, 15.521739130434783),
    (160.0, 41.8125),
]


def test_criterion_2_toy3_exactness(toy3):
    """A 2-second default run on the reference 3-city instance returns
    exactly the brute-force Pareto front to 1e-9 relative error.

    The front has four points: travel time depends on the direction the
    cycle is traversed (weight accumulates along the visit order), so
    {item 1} rides best on tour (1,3,2) at 15.5217... and both items at
    41.8125, and the single-item-2 plan point (60, 14.25) is non-dominated.
    """
    oracle = [(float(g), float(h)) for g, h in exact_front(toy3)]
    for (g, h), (eg, eh) in zip(oracle, TOY3_ORACLE_FRONT):
        assert g == eg and h == pytest.approx(eh, rel=1e-12)
    archive = run(toy3, WsmConfig(time_limit=2.0, seed=1))
    points = archive.points()
    ok = len(points) == len(oracle) and all(
        got_g == pytest.approx(eg, rel=1e-9) and got_h == pytest.approx(eh, rel=1e-9)
        for (got_g, got_h), (eg, eh) in zip(points, oracle)
    )
    _report(2, ok, f"front {points} vs oracle {oracle}")


def test_criterion_3_scalarization_endpoints():
    """f(tour, plan, 1) == profit and f(tour, plan, 0) == -R * time, bitwise,
    on 1000 random (instance, tour, plan) triples."""
    rng = np.random.default_rng(30)
    checked = 0
    ok = True
    while checked < 1000:
        inst = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(0, 11)))
        for _ in range(10):
            tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
            plan = PackingPlan.empty(inst)
            for j in rng.permutation(inst.m):
                if rng.random() < 0.5 and plan.can_add(int(j)):
                    plan.add(int(j))
            g = total_profit(inst, plan)
            h = travel_time(inst, tour, plan)
            if weighted_objective(inst, tour, plan, 1.0) != g:
                ok = False
            if weighted_objective(inst, tour, plan, 0.0) != -inst.renting_rate * h:
                ok = False
            checked += 1
    _report(3, ok, f"{checked} triples, both endpoints bitwise-equal")


def test_criterion_4_monotonicity():
    """Adding an addable item strictly increases travel time and final
    weight; the speed stays within [v_min, v_max] at every position."""
    rng = np.random.default_rng(40)
    checked = 0
    ok = True
    while checked < 1000:
        inst = random_instance(rng, int(rng.integers(3, 9)), int(rng.integers(1, 11)))
        tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
        plan = PackingPlan.empty(inst)
        for j in rng.permutation(inst.m):
            if rng.random() < 0.4 and plan.can_add(int(j)):
                plan.add(int(j))
        addable = [j for j in range(inst.m) if plan.can_add(j)]
        if not addable:
            continue
        grown = plan.copy()
        grown.add(int(rng.choice(addable)))
        if not travel_time(inst, tour, grown) > travel_time(inst, tour, plan):
            ok = False
        if not weight_after(inst, tour, grown, inst.n) > weight_after(inst, tour, plan, inst.n):
            ok = False
        for i in range(1, inst.n + 1):
            v = speed(inst, weight_after(inst, tour, grown, i))
            if not inst.min_speed <= v <= inst.max_speed:
                ok = False
        checked += 1
    _report(4, ok, f"{checked} cases: strict time/weight growth, speeds in bounds")


def test_criterion_5_archive_oracle():
    """100 random insertion streams (length <= 1000) reduce to the
    brute-force dominance filter; 1000 best-for-alpha queries match a
    linear-scan argmax."""
    rng = np.random.default_rng(50)
    ok = True
    archives = []
    for s in range(100):
        length = 1000 if s < 10 else int(rng.integers(1, 1001))
        gs = rng.integers(0, 500, size=length).astype(float)
        hs = rng.integers(1, 500, size=length).astype(float)
        archive = Archive()
        for g, h in zip(gs, hs):
            archive.add(g, h)
        if archive.points() != dominated_filter(list(zip(gs.tolist(), hs.tolist()))):
            ok = False
        archives.append(archive)
    queries = 0
    while queries < 1000:
        archive = archives[int(rng.integers(len(archives)))]
        alpha = float(rng.random())
        rent = float(rng.integers(0, 6))
        got = archive.best_for_alpha(alpha, rent)
        want = max(
            (alpha * g - (1 - alpha) * rent * h, -h, -g) for g, h in archive.points()
        )
        if (got.profit, got.time) != (-want[2], -want[1]):
            ok = False
        queries += 1
    _report(5, ok, "100 streams == brute filter; 1000 queries == linear scan")


def test_criterion_6_hypervolume_exactness():
    """Subset selection equals brute-force maximization with zero tolerance
    (worked examples plus 200 random small fronts); hypervolume agrees with a
    1e6-sample Monte Carlo estimate within 3 standard errors on 20 fronts."""
    ok = True

    pts = [(0.2, 0.1), (0.6, 0.5), (0.9, 0.8)]
    if hypervolume([pts[i] for i in subset_select(pts, 5)]) != hypervolume(pts):
        ok = False
    pts = [(0.6, 0.2), (1.0, 0.6)]
    if [pts[i] for i in subset_select(pts, 1)] != [(0.6, 0.2)]:
        ok = False
    pts = [(0.3, 0.1), (0.6, 0.4), (1.0, 0.8)]
    if [pts[i] for i in subset_select(pts, 2)] != [(0.3, 0.1), (0.6, 0.4)]:
        ok = False

    rng = np.random.default_rng(60)
    for _ in range(200):
        size = int(rng.integers(1, 13))
        g = np.unique(rng.random(size))
        h = np.unique(rng.random(size))
        k = min(len(g), len(h))
        front = list(zip(g[:k].tolist(), h[:k].tolist()))
        kk = int(rng.integers(1, 6))
        chosen = subset_select(front, kk)
        if hypervolume([front[i] for i in chosen]) != brute_best_subset_hv(front, kk):
            ok = False

    # A 3-SE bound has a ~6% chance of one spurious exceedance over 20
    # fronts under a random seed; the sampler seeds are fixed and verified
    # stable (max deviation 1.91 SE), so a real hypervolume defect, which
    # shifts many fronts at once, still trips this.
    mc_ok = 0
    for i in range(20):
        g = np.sort(rng.random(60))[:50]
        h = np.sort(rng.random(60))[:50]
        front = list(zip(np.unique(g).tolist(), np.unique(h).tolist()))
        hv = hypervolume(front)
        est, se = monte_carlo_hypervolume(front, 1_000_000, np.random.default_rng(2000 + i))
        if abs(hv - est) <= 3 * se:
            mc_ok += 1
    if mc_ok < 20:
        ok = False
    _report(6, ok, f"DP == brute force (zero tolerance); Monte Carlo within 3 SE on {mc_ok}/20 fronts")


def test_criterion_7_determinism(toy3, tmp_path):
    """Two runs with the same seed and --iterations budget emit
    byte-identical front CSVs."""
    inst_file = tmp_path / "toy3.ttp"
    write_instance(toy3, inst_file)
    args = ["solve", "--instance", str(inst_file), "--iterations", "25", "--seed", "11"]
    assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "front.csv").read_bytes()
    b = (tmp_path / "b" / "front.csv").read_bytes()
    _report(7, a == b, f"front.csv identical across runs ({len(a)} bytes)")


def test_criterion_8_anytime():
    """On a mid-size instance (n=280, m=279) a 60-second run has a
    non-decreasing hypervolume trace and beats a random baseline with the
    same budget by at least 10% (shared bounds)."""
    rng = np.random.default_rng(808)
    inst = _benchmark_style(rng, 280, 1)
    tracer = _TraceRecorder(Archive())
    started = time.perf_counter()
    archive = run(inst, WsmConfig(time_limit=60.0, seed=1), on_cycle=tracer)
    tracer.finalize(time.perf_counter() - started, archive)
    baseline = random_search(inst, seed=2, time_limit=60.0)

    bounds = ObjectiveBounds()
    bounds.merge(archive.bounds)
    bounds.merge(baseline.bounds)
    trace = [
        hypervolume(normalize(points, bounds), HV_REF) for _, points in tracer.snapshots
    ]
    times = [t for t, _ in tracer.snapshots]
    monotone = all(b >= a - 1e-15 for a, b in zip(trace, trace[1:]))
    increasing_times = all(b > a for a, b in zip(times, times[1:]))
    hv_solver = hypervolume(normalize(archive.points(), bounds), HV_REF)
    hv_random = hypervolume(normalize(baseline.points(), bounds), HV_REF)
    ok = (
        monotone
        and increasing_times
        and len(trace) >= 2
        and hv_solver >= 1.1 * hv_random
    )
    _report(
        8,
        ok,
        f"{len(trace)} checkpoints monotone={monotone}; "
        f"hv solver={hv_solver:.4f} vs random={hv_random:.4f} "
        f"({hv_solver / hv_random:.2f}x, needs >= 1.10x)",
    )


def test_criterion_9_scale_documented():
    """Benchmark-scale competition results are explicitly out of scope and
    the README says so, pointing at the desk-scale suite instead."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    flat = " ".join(readme.split())
    ok = "benchmark-scale results are not reproduced" in flat and "desk-scale" in flat
    _report(9, ok, "README documents the desk-scale substitution for benchmark-scale runs")
