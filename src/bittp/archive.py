"""Non-dominated archive and hypervolume utilities.

Objective convention throughout: profit is maximized, time is minimized.
A point weakly dominates another when its profit is no smaller and its
time no larger; duplicates by objective vector count as dominated, so the
archive holds at most one entry per objective vector (first seen wins).

Members are kept sorted by strictly increasing profit, which for a
mutually non-dominated set means strictly increasing time as well; that
ordering gives O(log n) dominance checks on insert and a closed-form
rectangle decomposition for the 2D hypervolume.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from .evaluation import scalarized

Point = tuple[float, float]
HV_REF: Point = (0.0, 1.0)  # reference point of hypervolumes over normalized objectives


def weakly_dominates(p: Point, q: Point) -> bool:
    """True when p is at least as profitable and at most as slow as q."""
    return p[0] >= q[0] and p[1] <= q[1]


@dataclass
class ObjectiveBounds:
    """Running min/max of profit and time over every point offered."""

    profit_min: float = math.inf
    profit_max: float = -math.inf
    time_min: float = math.inf
    time_max: float = -math.inf

    def include(self, profit: float, time: float) -> None:
        self.profit_min = min(self.profit_min, profit)
        self.profit_max = max(self.profit_max, profit)
        self.time_min = min(self.time_min, time)
        self.time_max = max(self.time_max, time)

    def merge(self, other: "ObjectiveBounds") -> None:
        self.profit_min = min(self.profit_min, other.profit_min)
        self.profit_max = max(self.profit_max, other.profit_max)
        self.time_min = min(self.time_min, other.time_min)
        self.time_max = max(self.time_max, other.time_max)


class Entry(NamedTuple):
    profit: float
    time: float
    solution: Any


class Archive:
    """Mutually non-dominated set of solutions, sorted by increasing profit.

    ``bounds`` accumulates the objective ranges of every offer, accepted
    or not, so a run can normalize its own hypervolume afterwards.
    """

    def __init__(self) -> None:
        self._profits: list[float] = []
        self._times: list[float] = []
        self._solutions: list[Any] = []
        self.bounds = ObjectiveBounds()

    def __len__(self) -> int:
        return len(self._profits)

    def entries(self) -> list[Entry]:
        return [
            Entry(g, h, s)
            for g, h, s in zip(self._profits, self._times, self._solutions)
        ]

    def points(self) -> list[Point]:
        return list(zip(self._profits, self._times))

    def add(self, profit: float, time: float, solution: Any = None) -> bool:
        """Offer a point; insert it unless weakly dominated (duplicates included),
        evicting every member it dominates.  Returns True when inserted."""
        profit = float(profit)
        time = float(time)
        self.bounds.include(profit, time)

        lo = bisect_left(self._profits, profit)
        if lo < len(self._profits) and self._times[lo] <= time:
            return False  # weakly dominated (or an exact duplicate)

        hi = lo
        if hi < len(self._profits) and self._profits[hi] == profit:
            hi += 1  # equal profit, strictly worse time
        start = lo
        while start > 0 and self._times[start - 1] >= time:
            start -= 1
        self._profits[start:hi] = [profit]
        self._times[start:hi] = [time]
        self._solutions[start:hi] = [solution]
        return True

    def best_for_alpha(self, alpha: float, renting_rate: float) -> Entry:
        """Member maximizing the scalarized objective (see
        :func:`~bittp.evaluation.scalarized`).

        Ties break toward lower time: members hold strictly increasing
        profit and time, so the first of the maxima is the one.
        """
        if not self._profits:
            raise ValueError("archive is empty")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [0, 1]")
        f = scalarized(alpha, np.asarray(self._profits), np.asarray(self._times), renting_rate)
        k = int(np.argmax(f))
        return Entry(self._profits[k], self._times[k], self._solutions[k])

    def merge(self, other: "Archive") -> None:
        """Fold another archive into this one by replaying its entries."""
        for g, h, s in other.entries():
            self.add(g, h, s)
        self.bounds.merge(other.bounds)


def normalize(points: Sequence[Point], bounds: ObjectiveBounds) -> np.ndarray:
    """Map points into the unit square using the given bounds.

    A coordinate whose bounds span is zero maps to 0 by convention.
    """
    arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    out = np.zeros_like(arr)
    g_span = bounds.profit_max - bounds.profit_min
    h_span = bounds.time_max - bounds.time_min
    if g_span > 0:
        out[:, 0] = (arr[:, 0] - bounds.profit_min) / g_span
    if h_span > 0:
        out[:, 1] = (arr[:, 1] - bounds.time_min) / h_span
    return out


def _sorted_front(points: Sequence[Point], ref: Point) -> tuple[np.ndarray, np.ndarray]:
    """The points sorted by profit ascending, and the order that sorts them;
    raises ``ValueError`` unless they are mutually non-dominated and ``ref``
    is dominated by every one of them."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if (pts[:, 0] < ref[0]).any() or (pts[:, 1] > ref[1]).any():
        raise ValueError(
            f"reference point {ref} is dominated: every point must have "
            "profit >= ref profit and time <= ref time"
        )
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if (np.diff(pts[:, 0]) <= 0).any() or (np.diff(pts[:, 1]) <= 0).any():
        raise ValueError("points are not mutually non-dominated")
    return pts, order


def hypervolume(points: Sequence[Point], ref: Point = HV_REF) -> float:
    """Exact 2D hypervolume of a non-dominated front w.r.t. ``ref``.

    With points sorted by profit ascending, the dominated region
    decomposes into rectangles (g_i - g_{i-1}) x (h_ref - h_i).
    """
    pts, _ = _sorted_front(points, ref)
    acc = 0.0
    prev_g = ref[0]
    for g, h in pts:
        acc += (g - prev_g) * (ref[1] - h)
        prev_g = g
    return acc


def subset_select(points: Sequence[Point], k: int, ref: Point = HV_REF) -> list[int]:
    """Indices (into ``points``) of a size-<=k subset maximizing hypervolume.

    Dynamic program over points sorted by profit: state (i, c) is the best
    hypervolume using point i as the rightmost of c + 1 selected points,
    with the transition ranging over the previous selected point, the first
    of the maxima on ties.  Each point prices every c at once.
    O(len(points)^2 * k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts, order = _sorted_front(points, ref)
    n = pts.shape[0]
    if k >= n:
        return order.tolist()

    g = pts[:, 0]
    height = ref[1] - pts[:, 1]  # height of each point's rectangle
    best = np.full((n, k), -np.inf)  # rows i < c stay -inf: i + 1 points cannot hold c + 1
    parent = np.full((n, k), -1, dtype=np.int64)
    best[:, 0] = (g - ref[0]) * height
    for i in range(1, n):
        gains = best[:i, :-1] + ((g[i] - g[:i]) * height[i])[:, None]
        parent[i, 1:] = gains.argmax(axis=0)
        best[i, 1:] = gains.max(axis=0)

    i, c = divmod(int(np.argmax(best)), k)
    chosen = []
    while i >= 0:
        chosen.append(i)
        i = int(parent[i, c])
        c -= 1
    chosen.reverse()
    return order[chosen].tolist()
