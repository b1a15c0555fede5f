"""Exact evaluation of tours and packing plans.

The two objectives are total profit (maximized) and travel time
(minimized).  The thief's speed decreases linearly with knapsack weight,
so travel time depends on where along the tour each selected item is
picked up.  A single scalar ``alpha`` in [0, 1] blends the objectives:

    f(tour, plan, alpha) = alpha * profit - (1 - alpha) * R * time

with R the instance's renting rate.  ``alpha = 1`` scores pure profit and
``alpha = 0`` pure (rent-priced) time; both endpoints are exact in
floating point given the shared evaluation path below.  :func:`scalarized`
is the one place the blend is written: plans, pivots and archive members
are all compared through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .instance import ProblemInstance

EXPLOIT_CELLS = 1 << 16  # cells of each (moves, n) array that TourContext.reversal_times prices at once


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order: a permutation of cities starting at city 0."""

    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.ascontiguousarray(np.asarray(self.order, dtype=np.int64))
        object.__setattr__(self, "order", order)
        n = order.shape[0]
        if n == 0 or order[0] != 0:
            raise ValueError("tour must start at city 0")
        if order.min() < 0 or order.max() >= n:
            raise ValueError("tour must be a permutation of 0..n-1")
        if (np.bincount(order, minlength=n) != 1).any():
            raise ValueError("tour must be a permutation of 0..n-1")
        order.setflags(write=False)

    def __len__(self) -> int:
        return self.order.shape[0]


def _selected_sum(values: np.ndarray, selected: np.ndarray) -> float:
    """``values[selected].sum()`` bit for bit: the same array, gathered by
    index, and the same reduction without ``sum``'s wrapper; 2x faster at
    m=4460 and 4x at m=33809."""
    return float(np.add.reduce(values.take(selected.nonzero()[0])))


class PackingPlan:
    """A subset of items, bound to one instance, that fits its knapsack.

    A plan's weight is its selected weights summed in item index order
    (:attr:`total_weight`); every plan is built, grown or fitted here."""

    __slots__ = ("inst", "selected")

    def __init__(self, inst: ProblemInstance, selected: np.ndarray | None = None):
        self.inst = inst
        if selected is None:
            self.selected = np.zeros(inst.m, dtype=bool)
        else:
            selected = np.asarray(selected, dtype=bool)
            if selected.shape != (inst.m,):
                raise ValueError(f"selection mask must have shape ({inst.m},)")
            self.selected = selected.copy()
            if self.total_weight > inst.capacity:
                raise ValueError("plan exceeds knapsack capacity")

    @classmethod
    def empty(cls, inst: ProblemInstance) -> "PackingPlan":
        return cls(inst)

    @classmethod
    def of(cls, inst: ProblemInstance, items: Iterable[int]) -> "PackingPlan":
        mask = np.zeros(inst.m, dtype=bool)
        mask[list(items)] = True
        return cls(inst, mask)

    @classmethod
    def fitted(cls, inst: ProblemInstance, items: Sequence[int]) -> "PackingPlan":
        """The plan of ``items``, listed in the order they were chosen, minus
        its last-chosen items for as long as it does not fit."""
        plan = cls(inst)
        plan.selected[items] = True
        k = len(items)
        while plan.total_weight > inst.capacity:
            k -= 1
            plan.selected[items[k]] = False
        return plan

    @property
    def total_weight(self) -> float:
        return _selected_sum(self.inst.weights, self.selected)

    def copy(self) -> "PackingPlan":
        dup = PackingPlan.__new__(PackingPlan)
        dup.inst = self.inst
        dup.selected = self.selected.copy()
        return dup

    def flipped(self, item: int) -> "PackingPlan | None":
        """A copy with ``item`` removed if selected, else added; None when
        the addition does not fit."""
        dup = self.copy()
        dup.selected[item] = not dup.selected[item]
        return None if dup.selected[item] and dup.total_weight > self.inst.capacity else dup

    def can_add(self, item: int) -> bool:
        return not self.selected[item] and self.flipped(item) is not None

    def add(self, item: int) -> None:
        if not self.can_add(item):
            raise ValueError(f"item {item} is selected already or does not fit")
        self.selected[item] = True

    def remove(self, item: int) -> None:
        if not self.selected[item]:
            raise ValueError(f"item {item} not selected")
        self.selected[item] = False

    def item_indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)

    def __contains__(self, item: int) -> bool:
        return bool(self.selected[item])

    def __len__(self) -> int:
        return int(self.selected.sum())


@dataclass(frozen=True)
class Solution:
    """A (tour, plan) pair with its objective values.

    ``alpha`` records the scalarization weight in effect when the solution
    was produced (informational; used in front output).
    """

    tour: Tour
    plan: PackingPlan
    profit: float
    time: float
    alpha: float | None = None

    @classmethod
    def evaluated(
        cls,
        inst: ProblemInstance,
        tour: Tour,
        plan: PackingPlan,
        alpha: float | None = None,
    ) -> "Solution":
        return cls(tour, plan, total_profit(inst, plan), travel_time(inst, tour, plan), alpha)


def speed(inst: ProblemInstance, weight: float) -> float:
    """Thief's velocity when carrying ``weight``; affine from v_max down to v_min.

    The result is clamped to [v_min, v_max] so boundary weights are exact
    despite rounding in the slope.
    """
    if not 0 <= weight <= inst.capacity:
        raise ValueError(f"weight {weight} outside [0, {inst.capacity}]")
    v = inst.max_speed - weight * (inst.max_speed - inst.min_speed) / inst.capacity
    return min(max(v, inst.min_speed), inst.max_speed)


class PlanTimes(NamedTuple):
    """Per-leg timing state of one plan on one tour (see TourContext)."""

    omega: np.ndarray      # accumulated knapsack weight after each position
    leg_time: np.ndarray   # time spent on each leg
    total: float


class TourContext:
    """Caches tied to one (instance, tour) pair for repeated plan evaluation.

    Holds leg distances and each item's pickup position so that travel
    time for any plan is a single vectorized pass, and a one-item flip can
    be re-priced from the flipped position's suffix only.
    """

    __slots__ = ("inst", "tour", "leg", "position", "item_pos", "_slope")

    def __init__(self, inst: ProblemInstance, tour: Tour):
        order = tour.order
        if len(order) != inst.n:
            raise ValueError("tour length does not match instance")
        self.inst = inst
        self.tour = tour
        self.leg = inst.leg_lengths(order)
        position = np.empty(inst.n, dtype=np.int64)
        position[order] = np.arange(inst.n)
        self.position = position
        self.item_pos = position[inst.item_city]
        self._slope = (inst.max_speed - inst.min_speed) / inst.capacity

    def weight_by_position(self, selected: np.ndarray) -> np.ndarray:
        """Weight picked up at each tour position under ``selected``."""
        idx = np.flatnonzero(selected)
        return np.bincount(
            self.item_pos[idx], weights=self.inst.weights[idx], minlength=self.inst.n
        )

    def _speeds(self, omega: np.ndarray) -> np.ndarray:
        # max_speed - slope * omega, clipped, in place: np.clip's call overhead
        # alone is ~2.5 us of a ~20 us bit-flip pricing at n=4461.
        v = self._slope * omega
        np.subtract(self.inst.max_speed, v, out=v)
        np.maximum(v, self.inst.min_speed, out=v)
        return np.minimum(v, self.inst.max_speed, out=v)

    def time_from_positions(self, weight_by_pos: np.ndarray) -> float:
        """Travel time given per-position pickup weights (single O(n) pass)."""
        omega = np.cumsum(weight_by_pos)
        return float((self.leg / self._speeds(omega)).sum())

    def row_times(self, weight_by_pos: np.ndarray) -> np.ndarray:
        """Travel time of each row of per-position pickup weights; row i equals
        ``time_from_positions(weight_by_pos[i])`` bit for bit."""
        omega = np.cumsum(weight_by_pos, axis=1)
        return (self.leg / self._speeds(omega)).sum(axis=1)

    def reversal_times(
        self, weight_by_pos: np.ndarray, first: np.ndarray, last: np.ndarray
    ) -> np.ndarray:
        """Travel time of the tour with positions ``first[k]..last[k]``
        reversed (``1 <= first < last < n``), one entry per k, under the
        per-position pickup weights ``weight_by_pos`` of this tour.  One
        call prices every move, ``EXPLOIT_CELLS`` cells of ``(moves, n)``
        arrays at a time; only the result holds an entry per move.

        Entry k equals ``travel_time`` on a context of the flipped tour bit
        for bit: a city's pickup weight is the same sum of its items in item
        order wherever it sits, the reversed legs are the same rounded
        distances walked the other way, and only the two new edges are
        measured afresh.
        """
        n = self.inst.n
        order = self.tour.order
        t = np.arange(n)
        per_chunk = max(1, EXPLOIT_CELLS // n)
        out = np.empty(first.shape[0])
        for start in range(0, first.shape[0], per_chunk):
            a, b = first[start : start + per_chunk], last[start : start + per_chunk]
            lo, hi = a[:, None], b[:, None]
            inside = (t >= lo) & (t <= hi)
            src = np.where(inside, lo + hi - t, t)  # flipped position t holds pivot position src
            omega = np.cumsum(weight_by_pos.take(src), axis=1)
            leg = self.leg.take(src - inside)  # the leg after position t is the pivot's leg before src
            rows = np.arange(a.shape[0])
            leg[rows, a - 1] = self.inst.pair_distances(order[a - 1], order[b])
            leg[rows, b] = self.inst.pair_distances(order[a], order.take(b + 1, mode="wrap"))
            out[start : start + per_chunk] = (leg / self._speeds(omega)).sum(axis=1)
        return out

    def travel_time(self, selected: np.ndarray) -> float:
        return self.time_from_positions(self.weight_by_position(selected))

    def plan_times(self, selected: np.ndarray) -> PlanTimes:
        omega = np.cumsum(self.weight_by_position(selected))
        leg_time = self.leg / self._speeds(omega)
        return PlanTimes(omega, leg_time, float(leg_time.sum()))

    def flipped_time(self, times: PlanTimes, item: int, add: bool) -> float:
        """Travel time after toggling ``item``, re-pricing only the suffix."""
        p = self.item_pos[item]
        w = self.inst.weights[item]
        omega = times.omega[p:] + (w if add else -w)
        seg = self.leg[p:] / self._speeds(omega)
        return times.total - float(times.leg_time[p:].sum()) + float(seg.sum())


def weight_after(inst: ProblemInstance, tour: Tour, plan: PackingPlan, i: int) -> float:
    """Knapsack weight after visiting the first ``i`` cities of the tour (1-based count)."""
    if not 1 <= i <= inst.n:
        raise ValueError(f"position {i} outside 1..{inst.n}")
    ctx = TourContext(inst, tour)
    return float(ctx.weight_by_position(plan.selected)[:i].sum())


def travel_time(inst: ProblemInstance, tour: Tour, plan: PackingPlan) -> float:
    """Total travel time of the cyclic tour under ``plan``."""
    return TourContext(inst, tour).travel_time(plan.selected)


def total_profit(inst: ProblemInstance, plan: PackingPlan) -> float:
    """Sum of profits of the selected items, in item index order."""
    return _selected_sum(inst.profits, plan.selected)


def scalarized(alpha, profit, time, renting_rate):
    """alpha * profit - (1 - alpha) * R * time, on floats or numpy arrays.

    The operations run left to right, so an array call equals the scalar
    call on each element bit for bit.
    """
    return alpha * profit - (1.0 - alpha) * renting_rate * time


def weighted_objective(
    inst: ProblemInstance, tour: Tour, plan: PackingPlan, alpha: float
) -> float:
    """Scalarized objective of ``plan`` on ``tour``; see :func:`scalarized`."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    return scalarized(alpha, total_profit(inst, plan), travel_time(inst, tour, plan), inst.renting_rate)


def validate_solution(
    inst: ProblemInstance, sol: Solution, rel_tol: float = 1e-9
) -> None:
    """Raise ValueError unless ``sol`` is feasible and its cached values agree
    with a from-scratch re-evaluation."""
    if len(sol.tour) != inst.n:
        raise ValueError("tour length does not match instance")
    if sol.plan.selected.shape != (inst.m,):
        raise ValueError("plan size does not match instance")
    weight = sol.plan.total_weight
    if weight > inst.capacity:
        raise ValueError(f"plan weight {weight} exceeds capacity {inst.capacity}")
    g = total_profit(inst, sol.plan)
    h = travel_time(inst, sol.tour, sol.plan)
    if abs(g - sol.profit) > rel_tol * max(1.0, abs(g)):
        raise ValueError(f"cached profit {sol.profit} != recomputed {g}")
    if abs(h - sol.time) > rel_tol * max(1.0, abs(h)):
        raise ValueError(f"cached time {sol.time} != recomputed {h}")
