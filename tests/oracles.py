"""Independent reference implementations used to check the library.

Everything here is written from the problem statement alone and never
calls into the solver's evaluation or archive code paths:

- naive double-loop objective evaluation (weights re-scanned per position)
- exhaustive front enumeration over all directed tours x all plans
- O(N^2) and sort-scan non-dominated filters
- rectangle-sum hypervolume, brute-force best subset, Monte Carlo area

The one exception is ``sequential_packing``: the packer's original
attempt-by-attempt greedy loop, kept as the reference the lockstep packer
must match bit for bit.  It prices plans with ``TourContext``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bittp import PackingPlan, TourContext, reeval_period


# ---------------------------------------------------------------------------
# naive evaluation (per-position rescans, scalar arithmetic)

def naive_speed(inst, w):
    return inst.max_speed - w * (inst.max_speed - inst.min_speed) / inst.capacity


def naive_weight_after(inst, order, selected, i):
    """Knapsack weight after the first i visited cities (1-based count)."""
    total = 0.0
    for k in range(i):
        city = order[k]
        for j in range(inst.m):
            if selected[j] and inst.item_city[j] == city:
                total += float(inst.weights[j])
    return total


def naive_travel_time(inst, order, selected):
    n = len(order)
    total = 0.0
    for i in range(n):
        a = order[i]
        b = order[(i + 1) % n]
        dx = float(inst.coords[a][0]) - float(inst.coords[b][0])
        dy = float(inst.coords[a][1]) - float(inst.coords[b][1])
        raw = math.sqrt(dx * dx + dy * dy)
        d = math.ceil(raw) if inst.metric == "CEIL_2D" else math.floor(raw + 0.5)
        total += d / naive_speed(inst, naive_weight_after(inst, order, selected, i + 1))
    return total


def naive_profit(inst, selected):
    return float(sum(inst.profits[j] for j in range(inst.m) if selected[j]))


# ---------------------------------------------------------------------------
# non-dominated filters (profit maximized, time minimized)

def dominated_filter_quadratic(points):
    """Unique non-dominated subset by pairwise comparison; O(N^2)."""
    out = []
    for p in points:
        if any(
            (q[0] >= p[0] and q[1] <= p[1]) and q != p for q in points
        ) or p in out:
            continue
        out.append(p)
    return sorted(out)


def dominated_filter(points):
    """Unique non-dominated subset via sort + running minimum; O(N log N)."""
    if not len(points):
        return []
    arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    order = np.lexsort((arr[:, 1], -arr[:, 0]))  # profit desc, time asc
    arr = arr[order]
    keep = [0]
    best_h = arr[0, 1]
    for i in range(1, arr.shape[0]):
        if arr[i, 1] < best_h:
            keep.append(i)
            best_h = arr[i, 1]
    front = arr[keep]
    return sorted(map(tuple, front))


# ---------------------------------------------------------------------------
# exhaustive front enumeration

def plan_matrix(m):
    """All 2^m selection masks as a (2^m, m) boolean array."""
    count = 1 << m
    bits = (np.arange(count)[:, None] >> np.arange(m)[None, :]) & 1
    return bits.astype(bool)


def _batched_times(inst, order, plans):
    """Travel time of every plan on one tour, vectorized over plans."""
    n = len(order)
    position = np.empty(n, dtype=np.int64)
    position[np.asarray(order)] = np.arange(n)
    item_pos = position[inst.item_city]

    pts = inst.coords[np.asarray(order)]
    nxt = np.roll(pts, -1, axis=0)
    raw = np.sqrt(((pts - nxt) ** 2).sum(axis=1))
    legs = np.ceil(raw) if inst.metric == "CEIL_2D" else np.floor(raw + 0.5)

    # weight dropped at each position for each plan
    scatter = np.zeros((inst.m, n))
    scatter[np.arange(inst.m), item_pos] = inst.weights
    omega = np.cumsum(plans @ scatter, axis=1)
    v = inst.max_speed - omega * (inst.max_speed - inst.min_speed) / inst.capacity
    v = np.clip(v, inst.min_speed, inst.max_speed)
    return (legs / v).sum(axis=1)


def exact_front(inst):
    """Exact Pareto front by enumerating all directed tours x all plans.

    Only sensible for tiny instances (n <= 9, m <= 12 or so).  Returns
    sorted (profit, time) tuples.
    """
    plans = plan_matrix(inst.m)
    feasible = plans @ inst.weights <= inst.capacity
    plans = plans[feasible]
    profits = plans @ inst.profits

    best_time = np.full(plans.shape[0], np.inf)
    for rest in itertools.permutations(range(1, inst.n)):
        order = (0, *rest)
        best_time = np.minimum(best_time, _batched_times(inst, order, plans))
    return dominated_filter(list(zip(profits.tolist(), best_time.tolist())))


def brute_best_tour_length(inst):
    """Shortest cycle length by enumeration (undirected; length is orientation-free)."""
    best = math.inf
    for rest in itertools.permutations(range(1, inst.n)):
        if rest and rest[0] > rest[-1]:
            continue  # skip mirrored duplicates
        order = (0, *rest)
        length = 0.0
        for i in range(inst.n):
            a, b = order[i], order[(i + 1) % inst.n]
            dx = float(inst.coords[a][0] - inst.coords[b][0])
            dy = float(inst.coords[a][1] - inst.coords[b][1])
            raw = math.sqrt(dx * dx + dy * dy)
            length += math.ceil(raw) if inst.metric == "CEIL_2D" else math.floor(raw + 0.5)
        best = min(best, length)
    return best


def brute_best_plan_objective(inst, order, alpha):
    """Max scalarized objective over all 2^m plans for a fixed tour."""
    plans = plan_matrix(inst.m)
    feasible = plans @ inst.weights <= inst.capacity
    plans = plans[feasible]
    g = plans @ inst.profits
    h = _batched_times(inst, order, plans)
    f = alpha * g - (1.0 - alpha) * inst.renting_rate * h
    return float(f.max())


# ---------------------------------------------------------------------------
# hypervolume references

def rect_hypervolume(points, ref=(0.0, 1.0)):
    """Rectangle sum over profit-ascending points (maximize g, minimize h)."""
    acc = 0.0
    prev_g = ref[0]
    for g, h in sorted(points):
        acc += (g - prev_g) * (ref[1] - h)
        prev_g = g
    return acc


def brute_best_subset_hv(points, k, ref=(0.0, 1.0)):
    """Max hypervolume over every subset of size <= k."""
    best = 0.0
    idx = range(len(points))
    for size in range(1, min(k, len(points)) + 1):
        for combo in itertools.combinations(idx, size):
            best = max(best, rect_hypervolume([points[i] for i in combo], ref))
    return best


def monte_carlo_hypervolume(points, n_samples, rng):
    """Estimate of the dominated fraction of the unit box, with standard error.

    Assumes normalized points in [0, 1]^2 and reference point (0, 1).
    """
    pts = np.asarray(sorted(points), dtype=np.float64)
    g = pts[:, 0]
    h_suffix_min = np.minimum.accumulate(pts[::-1, 1])[::-1]
    u = rng.random(n_samples)
    v = rng.random(n_samples)
    # sample (u, v) is dominated iff some point has g >= u and h <= v
    idx = np.searchsorted(g, u, side="left")
    dominated = np.zeros(n_samples, dtype=bool)
    inside = idx < len(g)
    dominated[inside] = h_suffix_min[idx[inside]] <= v[inside]
    p = dominated.mean()
    se = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
    return float(p), float(se)


# ---------------------------------------------------------------------------
# sequential packing reference (one attempt after another, scalar greedy)

def sequential_packing(inst, tour, attempts, alpha, divisor, rng):
    """Best plan over ``attempts`` randomized greedy constructions for ``tour``,
    one attempt at a time, as the packer did before its attempts ran in
    lockstep."""
    ctx = TourContext(inst, tour)
    m = inst.m
    n = inst.n
    weights = inst.weights
    profits = inst.profits
    capacity = inst.capacity
    rent = inst.renting_rate
    item_pos = ctx.item_pos
    suffix = np.cumsum(ctx.leg[::-1])[::-1]
    carry = suffix[item_pos]

    def scalarized(g, wpos):
        return alpha * g - (1.0 - alpha) * rent * ctx.time_from_positions(wpos)

    empty_wpos = np.zeros(n)
    best_selected = np.zeros(m, dtype=bool)
    best_f = scalarized(0.0, empty_wpos)

    for _ in range(attempts):
        draws = rng.random(3)
        while draws.sum() == 0.0:
            draws = rng.random(3)
        a, b, c = draws
        total = a + b + c
        a, b, c = a / total, b / total, c / total
        scores = profits**a / (weights**b * carry**c)
        order = np.lexsort((np.arange(m), -scores))
        phi = reeval_period(m, divisor, alpha)

        selected = np.zeros(m, dtype=bool)
        wpos = np.zeros(n)
        weight = 0.0
        g = 0.0
        committed_selected = selected.copy()
        committed_wpos = wpos.copy()
        committed_weight = 0.0
        committed_g = 0.0
        committed_f = scalarized(0.0, empty_wpos)
        committed_rank = 1
        pending = False

        rank = 1
        while rank <= m and phi >= 1:
            item = order[rank - 1]
            if not selected[item] and weight + weights[item] <= capacity:
                selected[item] = True
                weight += weights[item]
                wpos[item_pos[item]] += weights[item]
                g += profits[item]
                pending = True
            if pending and rank % phi == 0:
                f = scalarized(g, wpos)
                if f > committed_f:
                    np.copyto(committed_selected, selected)
                    np.copyto(committed_wpos, wpos)
                    committed_weight = weight
                    committed_g = g
                    committed_f = f
                    committed_rank = rank
                else:
                    np.copyto(selected, committed_selected)
                    np.copyto(wpos, committed_wpos)
                    weight = committed_weight
                    g = committed_g
                    rank = committed_rank
                    phi //= 2
                pending = False
            rank += 1

        if committed_f > best_f:
            best_selected = committed_selected
            best_f = committed_f

    return PackingPlan(inst, best_selected)
