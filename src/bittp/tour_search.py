"""Tour construction and tour improvement.

Construction is greedy nearest-neighbor from a uniformly random start
city followed by a candidate-restricted 2-opt plus Or-opt (segment
lengths 1-3) descent to a local optimum; the random start supplies the
per-cycle diversity the solver loop relies on.  The descent follows a
don't-look queue but checks the queued cities in blocks: one numpy pass
prices every candidate move of ``BLOCK`` cities, the first city in queue
order that has an improving move makes its first move, and the cities
before it count as clean.  The tours equal those of checking one city at
a time, and no distance matrix is built: every distance, here as
elsewhere, comes from :meth:`ProblemInstance.pair_distances`.
Exploitation looks at the 2-opt neighbors of an incumbent tour, keeps
those whose cycle length grows by at most ``tolerance * average pair
distance``, and returns the admissible neighbor with the best scalarized
objective if it strictly improves.  An admissible move joins cities near
the ends of the edges it removes, so two fixed-radius ball queries on a
k-d tree find every one of them without a scan over all pairs; one call
prices every admissible move, each entry equal to a full evaluation of
its flipped tour.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .evaluation import Solution, Tour, TourContext, scalarized, total_profit
from .instance import ProblemInstance

DEFAULT_NEIGHBORS = 16
BLOCK = 64  # cities per numpy pass of the descent and of average_pair_distance
_EDGE = np.array([0, -1])  # position of the edge a 2-opt move removes, from a's: forward, backward
_STEP = np.array([1, -1])  # position of the city b across that edge, from a's
_SEG = np.array([1, 2, 3])  # Or-opt segment lengths
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
        idx = np.asarray(idx, dtype=np.int64).reshape(n, -1)
        # Drop each city from its own row, keeping the others in query order.
        # With duplicate points a city may be missing from its row; then the
        # row's last entry is the one dropped.
        keep = np.argsort(idx == np.arange(n)[:, None], axis=1, kind="stable")
        out = np.ascontiguousarray(np.take_along_axis(idx, keep, axis=1)[:, :k])
        out.setflags(write=False)
        return cls(out)

    @property
    def k(self) -> int:
        return self.indices.shape[1]


def distance_matrix(inst: ProblemInstance) -> np.ndarray:
    """Full rounded distance matrix; only sensible for moderate n."""
    cities = np.arange(inst.n)
    return inst.pair_distances(cities[:, None], cities)


def _nearest_neighbor_order(
    inst: ProblemInstance, start: int, neighbors: NeighborLists
) -> np.ndarray:
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
    return np.asarray(order, dtype=np.int64)


class _Descent:
    """2-opt + Or-opt descent of one tour, with the geometry it reuses.

    ``near[a, t]`` is the distance from ``a`` to its ``t``-th neighbor, and
    while a tour descends ``leg[t]`` is the length of the edge leaving
    position ``t``; both are lookups where the one-city scan recomputed
    distances, and the others come from ``inst.pair_distances``.  Every
    distance is an integer held in a float64, so each gain and each
    ``> 0.5`` test is exact in any evaluation order and agrees with
    pricing the moves one city at a time.
    """

    def __init__(self, inst: ProblemInstance, neighbors: NeighborLists):
        self.inst = inst
        self.nbr = neighbors.indices
        self.near = inst.pair_distances(np.arange(inst.n)[:, None], self.nbr)

    def descend(self, order: np.ndarray) -> np.ndarray:
        """Descend ``order`` (changed in place) to a local optimum and return it.

        The don't-look queue starts as the tour and is a ring over ``n``
        slots, since a city is queued at most once.  Each pass takes the
        next ``BLOCK`` queued cities; the cities before the first mover
        leave the queue clean.  After the queue drains, a verification
        sweep rescans every city in index order, in blocks too; the descent
        only ends on a completely clean sweep, so the result is guaranteed
        move-free with respect to the candidate lists.
        """
        n = self.n = order.shape[0]
        self.order = order
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[order] = np.arange(n)
        self.leg = self.inst.leg_lengths(order)
        ring = order.copy()
        head = 0
        size = n
        queued = np.ones(n, dtype=bool)

        def push(touched) -> None:
            nonlocal size
            for city in touched:
                if not queued[city]:
                    ring[(head + size) % n] = city
                    queued[city] = True
                    size += 1

        while True:
            while size:
                block = np.take(ring, np.arange(head, head + min(BLOCK, size)), mode="wrap")
                found = self.first_move(block)
                popped = block.shape[0] if found is None else found[0] + 1
                queued[block[:popped]] = False
                head = (head + popped) % n
                size -= popped
                if found is not None:
                    push(self.apply(found[1]))
            clean = True
            start = 0
            while start < n:
                found = self.first_move(np.arange(start, min(start + BLOCK, n)))
                if found is None:
                    start += BLOCK
                    continue
                push(self.apply(found[1]))
                clean = False
                start += found[0] + 1
            if clean:
                return order

    def first_move(self, cities: np.ndarray):
        """``(row, move)`` for the first of ``cities`` that has an improving move.

        A city's move is the one the one-city scan makes: the first
        improving 2-opt candidate, forward before backward, else the first
        improving Or-opt relocation, shorter segments first.  ``move`` is
        ``("2opt", p, q, touched)``, reversing the tour between the edges
        that leave positions p and q, or ``("oropt", i, seg_len, j,
        reverse, touched)``, moving the segment at position i after
        position j; ``touched`` lists the cities whose queue entries the
        move renews.  Returns None when no city of the block has a move.
        """
        n, order, pos, leg, near, nbr = self.n, self.order, self.pos, self.leg, self.near, self.nbr
        dist = self.inst.pair_distances
        i = pos.take(cities)
        c = nbr.take(cities, axis=0)
        j = pos.take(c)
        d_ac = near.take(cities, axis=0)
        found = None
        limit = cities.shape[0]

        # 2-opt, forward then backward along axis 1: a neighbor c of a is a
        # candidate while it is nearer to a than the tour neighbor b whose
        # edge the move removes.  Row-major order over (city, direction,
        # neighbor) is the order of the one-city scan.
        edge_a = i[:, None] + _EDGE
        b = order.take(i[:, None] + _STEP, mode="wrap")
        d_ab = leg.take(edge_a, mode="wrap")
        edge_c = j[:, None, :] + _EDGE[:, None]
        d2 = order.take(j[:, None, :] + _STEP[:, None], mode="wrap")
        closer = np.logical_and.accumulate(d_ac[:, None, :] < d_ab[:, :, None], axis=2)
        r, s, t = np.nonzero(closer)
        gain = d_ab[r, s] + leg.take(edge_c[r, s, t], mode="wrap") - d_ac[r, t]
        gain -= dist(b[r, s], d2[r, s, t])
        hits = np.flatnonzero(gain > 0.5)
        if hits.size:
            r, s, t = r[hits[0]], s[hits[0]], t[hits[0]]
            limit = int(r)
            touched = (int(cities[r]), int(b[r, s]), int(c[r, t]), int(d2[r, s, t]))
            found = (limit, ("2opt", int(edge_a[r, s]) % n, int(edge_c[r, s, t]) % n, touched))

        # Or-opt, for the cities before the first 2-opt mover: move the
        # segment of 1-3 cities (axis 1) that starts at a between a neighbor
        # of its head or tail and that neighbor's successor, either way
        # round.  Row-major order over (city, length, neighbor) is the order
        # of the one-city scan.
        if limit == 0:
            return found
        k = c.shape[1]
        ii = i[:limit, None]
        head = cities[:limit, None, None]
        end = np.minimum(ii + _SEG - 1, n - 1)  # clipped where the segment runs off
        tail = order.take(end)
        prev = order.take(ii - 1)
        nxt = order.take(end + 1, mode="wrap")
        removal = (leg.take(ii - 1) + leg.take(end) - dist(prev, nxt))[:, :, None]
        near_c = np.broadcast_to(c[:limit, None, :], (limit, 3, k))
        tail_nbr = nbr.take(tail, axis=0)
        cand = np.concatenate((near_c, tail_nbr), axis=2)
        jc = pos.take(cand)
        cnxt = order.take(jc + 1, mode="wrap")
        base = leg.take(jc)
        tail = tail[:, :, None]
        to_head = np.concatenate(
            (np.broadcast_to(d_ac[:limit, None, :], (limit, 3, k)), dist(tail_nbr, head)), axis=2
        )
        to_tail = np.concatenate((dist(near_c, tail), near.take(tail[:, :, 0], axis=0)), axis=2)
        cost_fwd = to_head + dist(tail, cnxt) - base
        cost_rev = to_tail + dist(head, cnxt) - base
        seg_end = ii[:, :, None] + _SEG[:, None]  # one past the segment
        hit = (
            (ii[:, :, None] >= 1)
            & (seg_end <= n)
            & (removal > 0.5)
            & ((jc < ii[:, :, None] - 1) | (jc > seg_end - 1))
            & (removal - np.minimum(cost_fwd, cost_rev) > 0.5)
        )
        hits = np.flatnonzero(hit)
        if hits.size:
            r, rest = divmod(int(hits[0]), 3 * 2 * k)
            seg, t = divmod(rest, 2 * k)
            touched = (
                int(cities[r]),
                int(tail[r, seg, 0]),
                int(prev[r, 0]),
                int(nxt[r, seg]),
                int(cand[r, seg, t]),
                int(cnxt[r, seg, t]),
            )
            reverse = bool(cost_rev[r, seg, t] < cost_fwd[r, seg, t])
            found = (r, ("oropt", int(i[r]), seg + 1, int(jc[r, seg, t]), reverse, touched))
        return found

    def apply(self, move) -> tuple[int, ...]:
        """Make ``move`` and return its ``touched`` cities."""
        n, order = self.n, self.order
        if move[0] == "2opt":
            _, p, q, touched = move
            lo, hi = (p + 1, q + 1) if p < q else (q + 1, p + 1)
            order[lo:hi] = order[lo:hi][::-1].copy()
        else:
            _, i, seg_len, j, reverse, touched = move
            seg = order[i : i + seg_len].copy()
            if reverse:
                seg = seg[::-1]
            if j < i:
                lo, hi = j + 1, i + seg_len
                order[lo + seg_len : hi] = order[lo:i].copy()
                order[lo : lo + seg_len] = seg
            else:
                lo, hi = i, j + 1
                order[lo : hi - seg_len] = order[i + seg_len : hi].copy()
                order[hi - seg_len : hi] = seg
        self.pos[order[lo:hi]] = np.arange(lo, hi)
        edges = np.arange(lo - 1, hi)
        self.leg[edges] = self.inst.pair_distances(order[edges], order[(edges + 1) % n])
        return touched


def _double_bridge(order: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random 4-opt double-bridge kick; keeps the start city in place."""
    n = order.shape[0]
    p, q, r = sorted(rng.choice(np.arange(1, n), size=3, replace=False).tolist())
    return np.concatenate((order[:p], order[q:r], order[p:q], order[r:]))


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
    descent = _Descent(inst, neighbors)
    start = int(rng.integers(inst.n))
    order = _nearest_neighbor_order(inst, start, neighbors)
    order = np.roll(order, -int(np.flatnonzero(order == 0)[0]))  # start at city 0
    order = descent.descend(order)
    if inst.n >= 4:
        for _ in range(kicks):
            order = descent.descend(_double_bridge(order, rng))
    return Tour(order)


def average_pair_distance(
    inst: ProblemInstance, *, exact_limit: int = 5000, sample_size: int = 1_000_000
) -> float:
    """Mean distance over unordered city pairs.

    Exact up to ``exact_limit`` cities; beyond that, the mean of
    ``sample_size`` uniformly sampled distinct pairs under a seed derived
    from the city count, so repeated runs agree.  The exact path measures
    ``BLOCK`` cities against the cities after them per numpy pass, sums
    each city's distances to the later cities with numpy and adds those
    sums in a Python float in city order: the operations, in the order, of
    summing one ``distances_from`` row per city, so the mean is the same
    bit for bit at any magnitude.
    """
    n = inst.n
    if n < 2:
        raise ValueError("need at least two cities")
    if n <= exact_limit:
        total = 0.0
        for lo in range(0, n - 1, BLOCK):
            rows = np.arange(lo, min(lo + BLOCK, n - 1))
            dist = inst.pair_distances(rows[:, None], np.arange(lo + 1, n))
            for r in range(rows.shape[0]):
                total += float(dist[r, r:].sum())
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
        total += float(inst.pair_distances(ii, jj).sum())
        remaining -= ii.shape[0]
    return total / sample_size


def _near_pairs(tree: cKDTree, points: np.ndarray, radius: np.ndarray):
    """``(k, city)`` for every city within ``radius[k]`` of ``points[k]``."""
    found = tree.query_ball_point(points, radius)
    counts = np.fromiter(map(len, found), dtype=np.int64, count=found.shape[0])
    cities = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=int(counts.sum()))
    return np.repeat(np.arange(found.shape[0]), counts), cities


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
    same alpha) is returned if it strictly improves on the incumbent, the
    first in (i, j) order on ties.  ``tolerance`` of -inf disables the scan.

    Move (i, j) reverses positions i..j: it removes the edges (a, b) and
    (c, d) that enter position i and leave position j, and adds (a, c)
    and (b, d).  Its length change is at most the limit L only if
    d(a, c) <= d(a, b) + L/2 or d(b, d) <= d(c, d) + L/2, so two
    fixed-radius ball queries on a k-d tree of the cities, around each a
    and each d with one unit of slack for rounding, find every admissible
    move (Bentley's fixed-radius search).  The candidates are filtered
    with the rounded distances, in the operations of a scan over all
    pairs.  The pivot's one :class:`TourContext` prices the incumbent and,
    in one :meth:`TourContext.reversal_times` call, every admissible move,
    so the result is the one of pricing each flipped tour with
    ``weighted_objective``.
    """
    if tolerance == NEG_INF:
        return None
    order = sol.tour.order
    n = order.shape[0]
    if n < 4:
        return None  # no proper 2-opt neighbor exists
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    limit = tolerance * avg_pair_distance
    ctx = TourContext(inst, sol.tour)
    leg, pos = ctx.leg, ctx.position

    # Candidates: the cities c near each a = order[p] give the moves
    # (p + 1, pos[c]); the cities b near each d = order[q] give the moves
    # (pos[b], q - 1).  The slack also covers float error at huge coordinates.
    slack = 1.0 + math.hypot(*np.ptp(inst.coords, axis=0)) * 2.0**-40
    radius = np.maximum(leg + (limit / 2 + slack), 0.0)
    tree = cKDTree(inst.coords)
    points = inst.coords[order]
    p, c = _near_pairs(tree, points, radius)
    q, b = _near_pairs(tree, points, np.roll(radius, 1))
    i = np.concatenate((p + 1, pos[b]))
    j = np.concatenate((pos[c], (q - 1) % n))
    # (1, n-1) reverses the whole cycle: not a 2-opt move
    keep = (i >= 1) & (i < j) & ((i > 1) | (j < n - 1))
    key = np.unique(i[keep] * n + j[keep])
    i, j = np.divmod(key, n)

    add1 = inst.pair_distances(order[i - 1], order[j])
    add2 = inst.pair_distances(order[i], order.take(j + 1, mode="wrap"))
    ok = add1 + add2 - leg[i - 1] - leg[j] <= limit
    i, j = i[ok], j[ok]

    weight_by_pos = ctx.weight_by_position(sol.plan.selected)
    profit, rent = total_profit(inst, sol.plan), inst.renting_rate
    incumbent = scalarized(alpha, profit, ctx.time_from_positions(weight_by_pos), rent)
    f = scalarized(alpha, profit, ctx.reversal_times(weight_by_pos, i, j), rent)
    better = f > incumbent  # NaN never wins
    if not better.any():
        return None
    k = int(np.argmax(np.where(better, f, NEG_INF)))  # first of the maxima
    flipped = order.copy()
    flipped[i[k] : j[k] + 1] = flipped[i[k] : j[k] + 1][::-1]
    return Tour(flipped)
