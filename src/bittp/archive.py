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

    def as_dict(self) -> dict[str, float]:
        return {
            "profit_min": self.profit_min,
            "profit_max": self.profit_max,
            "time_min": self.time_min,
            "time_max": self.time_max,
        }


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

        Ties break toward lower time, then lower profit.
        """
        if not self._profits:
            raise ValueError("archive is empty")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [0, 1]")
        best = None
        best_key = None
        for g, h, s in zip(self._profits, self._times, self._solutions):
            key = (scalarized(alpha, g, h, renting_rate), -h, -g)
            if best_key is None or key > best_key:
                best_key = key
                best = Entry(g, h, s)
        return best

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


def _sorted_front(points: np.ndarray, ref: Point) -> np.ndarray:
    """Sort by normalized profit ascending and validate the preconditions."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        return pts
    if (pts[:, 0] < ref[0]).any() or (pts[:, 1] > ref[1]).any():
        raise ValueError(
            f"reference point {ref} is dominated: every point must have "
            "profit >= ref profit and time <= ref time"
        )
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if pts.shape[0] > 1:
        g, h = pts[:, 0], pts[:, 1]
        if (np.diff(g) <= 0).any() or (np.diff(h) <= 0).any():
            raise ValueError("points are not mutually non-dominated")
    return pts


def hypervolume(points: Sequence[Point], ref: Point = (0.0, 1.0)) -> float:
    """Exact 2D hypervolume of a non-dominated front w.r.t. ``ref``.

    With points sorted by profit ascending, the dominated region
    decomposes into rectangles (g_i - g_{i-1}) x (h_ref - h_i).
    """
    pts = _sorted_front(points, ref)
    acc = 0.0
    prev_g = ref[0]
    for g, h in pts:
        acc += (g - prev_g) * (ref[1] - h)
        prev_g = g
    return acc


def subset_select(
    points: Sequence[Point], k: int, ref: Point = (0.0, 1.0)
) -> list[int]:
    """Indices (into ``points``) of a size-<=k subset maximizing hypervolume.

    Dynamic program over points sorted by profit: state (i, c) is the best
    hypervolume using point i as the rightmost of c selected points, with
    the transition ranging over the previous selected point.  O(len(points)^2 * k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n == 0:
        return []
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    _sorted_front(pts, ref)  # validation only
    g = pts[order, 0]
    h = pts[order, 1]
    if k >= n:
        return [int(i) for i in order]

    height = ref[1] - h  # height of each point's rectangle
    best = np.full((n, k), -np.inf)
    parent = np.full((n, k), -1, dtype=np.int64)
    best[:, 0] = (g - ref[0]) * height
    for c in range(1, k):
        for i in range(c, n):
            gains = best[:i, c - 1] + (g[i] - g[:i]) * height[i]
            j = int(np.argmax(gains))
            best[i, c] = gains[j]
            parent[i, c] = j

    flat = int(np.argmax(best))
    i, c = divmod(flat, k)
    chosen = []
    while i >= 0:
        chosen.append(i)
        i = int(parent[i, c])
        c -= 1
    chosen.reverse()
    return [int(order[i]) for i in chosen]
