"""Tour construction and tour improvement.

Construction is greedy nearest-neighbor from a uniformly random start
city followed by a candidate-restricted 2-opt plus Or-opt (segment
lengths 1-3) descent to a local optimum; the random start supplies the
per-cycle diversity the solver loop relies on.  Exploitation scans 2-opt
neighbors of an incumbent tour, keeps those whose cycle length grows by
at most ``tolerance * average pair distance``, and returns the admissible
neighbor with the best scalarized objective if it strictly improves.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .evaluation import Solution, Tour, weighted_objective
from .instance import CEIL_2D, ProblemInstance, _round_distances

DEFAULT_NEIGHBORS = 16
_MATRIX_LIMIT = 2500  # largest n for which a full distance matrix is built
NEG_INF = float("-inf")


@dataclass(frozen=True)
class NeighborLists:
    """For each city, its k nearest other cities, sorted by distance."""

    indices: np.ndarray  # (n, k) city indices

    @classmethod
    def build(cls, inst: ProblemInstance, k: int = DEFAULT_NEIGHBORS) -> "NeighborLists":
        n = inst.n
        k = min(k, n - 1)
        tree = cKDTree(inst.coords)
        _, idx = tree.query(inst.coords, k=min(k + 1, n))
        idx = np.atleast_2d(idx)
        out = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            row = [int(c) for c in idx[i] if c != i]
            out[i] = row[:k]
        out.setflags(write=False)
        return cls(out)

    @property
    def k(self) -> int:
        return self.indices.shape[1]


def distance_matrix(inst: ProblemInstance) -> np.ndarray:
    """Full rounded distance matrix; only sensible for moderate n."""
    n = inst.n
    out = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        out[i] = inst.distances_from(i)
    return out


def _make_dist(inst: ProblemInstance):
    """Scalar distance lookup: matrix-backed when small, on the fly otherwise."""
    if inst.n <= _MATRIX_LIMIT:
        matrix = distance_matrix(inst)

        def dist(a: int, b: int) -> float:
            return matrix[a, b]

    else:
        xs = inst.coords[:, 0].tolist()
        ys = inst.coords[:, 1].tolist()
        if inst.metric == CEIL_2D:

            def dist(a: int, b: int) -> float:
                dx = xs[a] - xs[b]
                dy = ys[a] - ys[b]
                return math.ceil(math.sqrt(dx * dx + dy * dy))

        else:

            def dist(a: int, b: int) -> float:
                dx = xs[a] - xs[b]
                dy = ys[a] - ys[b]
                return math.floor(math.sqrt(dx * dx + dy * dy) + 0.5)

    return dist


def _nearest_neighbor_order(
    inst: ProblemInstance, start: int, neighbors: NeighborLists, dist
) -> list[int]:
    n = inst.n
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    current = start
    for _ in range(n - 1):
        nxt = -1
        for c in neighbors.indices[current]:
            if not visited[c]:
                nxt = int(c)
                break
        if nxt < 0:
            remaining = np.flatnonzero(~visited)
            nxt = int(remaining[np.argmin(inst.distances_from(current, remaining))])
        visited[nxt] = True
        order.append(nxt)
        current = nxt
    return order


def _rotate_to_depot(order: list[int]) -> list[int]:
    at = order.index(0)
    return order[at:] + order[:at]


def _reverse_between_edges(order: list[int], pos: np.ndarray, p: int, q: int) -> None:
    """Apply the 2-opt move that removes the edges leaving positions p and q.

    Reverses the positions strictly after min(p, q) through max(p, q);
    that slice never includes position 0, so the start city stays put.
    """
    lo, hi = (p, q) if p < q else (q, p)
    order[lo + 1 : hi + 1] = order[lo + 1 : hi + 1][::-1]
    for t in range(lo + 1, hi + 1):
        pos[order[t]] = t


def _improve_two_opt(order, pos, dist, nbr, a):
    """First improving candidate 2-opt move incident to city ``a``, or None."""
    n = len(order)
    i = int(pos[a])
    for forward in (True, False):
        if forward:
            b = order[(i + 1) % n]
            edge_a = i
        else:
            b = order[i - 1]
            edge_a = (i - 1) % n
        d_ab = dist(a, b)
        for c in nbr[a]:
            d_ac = dist(a, c)
            if d_ac >= d_ab:
                break
            j = int(pos[c])
            if forward:
                d2 = order[(j + 1) % n]
                edge_c = j
            else:
                d2 = order[j - 1]
                edge_c = (j - 1) % n
            gain = d_ab + dist(c, d2) - d_ac - dist(b, d2)
            if gain > 0.5:
                _reverse_between_edges(order, pos, edge_a, edge_c)
                return (a, b, int(c), int(d2))
    return None


def _improve_or_opt(order, pos, dist, nbr, a):
    """First improving relocation of a 1-3 city segment starting at ``a``."""
    n = len(order)
    i = int(pos[a])
    if i == 0:
        return None
    for seg_len in (1, 2, 3):
        if i + seg_len > n:
            break
        tail = order[i + seg_len - 1]
        prev = order[i - 1]
        nxt = order[(i + seg_len) % n]
        removal = dist(prev, a) + dist(tail, nxt) - dist(prev, nxt)
        if removal <= 0.5:
            continue
        for c in list(nbr[a]) + list(nbr[tail]):
            j = int(pos[c])
            if i - 1 <= j <= i + seg_len - 1:
                continue
            c = int(c)
            cnxt = order[(j + 1) % n]
            base = dist(c, cnxt)
            cost_fwd = dist(c, a) + dist(tail, cnxt) - base
            cost_rev = dist(c, tail) + dist(a, cnxt) - base
            cost = min(cost_fwd, cost_rev)
            if removal - cost > 0.5:
                seg = order[i : i + seg_len]
                if cost_rev < cost_fwd:
                    seg.reverse()
                del order[i : i + seg_len]
                insert_at = (j if j < i else j - seg_len) + 1
                order[insert_at:insert_at] = seg
                for t, city in enumerate(order):
                    pos[city] = t
                return (a, tail, prev, nxt, c, cnxt)
    return None


def _descend(inst: ProblemInstance, order: list[int], neighbors: NeighborLists, dist) -> list[int]:
    """2-opt + Or-opt descent with a don't-look queue; returns a local optimum.

    After the queue drains, a verification sweep rescans every city; the
    descent only ends on a completely clean sweep, so the result is
    guaranteed move-free with respect to the candidate lists.
    """
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    for t, city in enumerate(order):
        pos[city] = t
    nbr = neighbors.indices
    queue = deque(order)
    queued = np.ones(n, dtype=bool)
    while True:
        while queue:
            a = queue.popleft()
            queued[a] = False
            touched = _improve_two_opt(order, pos, dist, nbr, a)
            if touched is None:
                touched = _improve_or_opt(order, pos, dist, nbr, a)
            if touched:
                for city in touched:
                    if not queued[city]:
                        queue.append(city)
                        queued[city] = True
        clean = True
        for a in range(n):
            touched = _improve_two_opt(order, pos, dist, nbr, a)
            if touched is None:
                touched = _improve_or_opt(order, pos, dist, nbr, a)
            if touched:
                clean = False
                for city in touched:
                    if not queued[city]:
                        queue.append(city)
                        queued[city] = True
        if clean:
            return order


def _double_bridge(order: list[int], rng: np.random.Generator) -> list[int]:
    """Random 4-opt double-bridge kick; keeps the start city in place."""
    n = len(order)
    p, q, r = sorted(rng.choice(np.arange(1, n), size=3, replace=False).tolist())
    return order[:p] + order[q:r] + order[p:q] + order[r:]


def construct_tour(
    inst: ProblemInstance,
    rng: np.random.Generator,
    *,
    neighbors: NeighborLists | None = None,
    kicks: int = 3,
) -> Tour:
    """Build a tour: nearest-neighbor from a random start, then chained descent.

    After the first descent the tour is perturbed ``kicks`` times by a
    double-bridge move and re-descended, ending in whatever local optimum
    the walk reaches; successive calls therefore sample diverse local
    optima rather than converging to one basin per start city.
    """
    if neighbors is None:
        neighbors = NeighborLists.build(inst)
    dist = _make_dist(inst)
    start = int(rng.integers(inst.n))
    order = _rotate_to_depot(_nearest_neighbor_order(inst, start, neighbors, dist))
    order = _descend(inst, order, neighbors, dist)
    if inst.n >= 4:
        for _ in range(kicks):
            order = _descend(inst, _double_bridge(order, rng), neighbors, dist)
    return Tour(np.asarray(order, dtype=np.int64))


def average_pair_distance(
    inst: ProblemInstance, *, exact_limit: int = 5000, sample_size: int = 1_000_000
) -> float:
    """Mean distance over unordered city pairs.

    Exact up to ``exact_limit`` cities; beyond that, the mean of
    ``sample_size`` uniformly sampled distinct pairs under a seed derived
    from the city count, so repeated runs agree.
    """
    n = inst.n
    if n < 2:
        raise ValueError("need at least two cities")
    if n <= exact_limit:
        total = 0.0
        for i in range(n - 1):
            total += float(inst.distances_from(i, np.arange(i + 1, n)).sum())
        return total / (n * (n - 1) / 2)

    rng = np.random.default_rng(1_000_003 * n + 12345)
    remaining = sample_size
    total = 0.0
    while remaining > 0:
        k = min(remaining + remaining // 8 + 16, 2_000_000)
        ii = rng.integers(0, n, size=k)
        jj = rng.integers(0, n, size=k)
        keep = ii != jj
        ii = ii[keep][:remaining]
        jj = jj[keep][:remaining]
        diff = inst.coords[ii] - inst.coords[jj]
        d = _round_distances(np.sqrt((diff * diff).sum(axis=1)), inst.metric)
        total += float(d.sum())
        remaining -= ii.shape[0]
    return total / sample_size


def two_opt_exploit(
    inst: ProblemInstance,
    sol: Solution,
    alpha: float,
    tolerance: float,
    avg_pair_distance: float,
) -> Tour | None:
    """Best admissible 2-opt neighbor of ``sol``'s tour, or None.

    A neighbor is admissible when its cycle length exceeds the incumbent's
    by at most ``tolerance * avg_pair_distance``; among admissible
    neighbors the one with the highest scalarized objective (same plan,
    same alpha) is returned if it strictly improves on the incumbent.
    ``tolerance`` of -inf disables the scan.
    """
    if tolerance == NEG_INF:
        return None
    order = sol.tour.order
    n = order.shape[0]
    if n < 4:
        return None  # no proper 2-opt neighbor exists
    legs = inst.leg_lengths(order)
    limit = tolerance * avg_pair_distance

    best_f = weighted_objective(inst, sol.tour, sol.plan, alpha)
    best: Tour | None = None
    for i in range(1, n - 1):
        a = order[i - 1]
        b = order[i]
        # (1, n-1) reverses the whole cycle: not a 2-opt move
        cand = np.arange(i + 1, n - 1 if i == 1 else n)
        add1 = inst.distances_from(a, order[cand])
        add2 = inst.distances_from(b, order[(cand + 1) % n])
        delta = add1 + add2 - legs[i - 1] - legs[cand]
        for j in cand[delta <= limit]:
            flipped = order.copy()
            flipped[i : j + 1] = flipped[i : j + 1][::-1]
            candidate = Tour(flipped)
            f = weighted_objective(inst, candidate, sol.plan, alpha)
            if f > best_f:
                best_f = f
                best = candidate
    return best
