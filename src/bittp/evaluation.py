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
are all compared through it.  Likewise ``_speeds`` is the one place the
solver's speed law is written: :class:`TourContext` prices every travel
time through it, and :func:`gain_range`, which bounds how much added
weight slows a tour, computes its speeds there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .instance import ProblemInstance

# CHUNK_CELLS bounds the cells of every (rows, n) array that a batched
# travel-time pass prices at once: packing's re-checks (packing._plan_times;
# its finished lanes are bounded first only where they fill more than one
# chunk) and TourContext.reversal_times.  Each float64 temporary stays near
# 128 KB, and chunking never changes a row's bits.  At n=4461, 2**14 and
# 2**15 packed fastest, ahead of 2**13 and 2**16 to 2**18; a 2-opt call
# there took 22.3 ms at 2**14 and 21.5 ms at 2**16 (medians of 15, 2-vCPU
# host), about 0.06% of a 1.4 s cycle apart.
CHUNK_CELLS = 1 << 14
REL_TOL = 1e-9  # relative tolerance of validate_solution on cached profit and time


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
    despite rounding in the slope.  The solver prices speeds with
    ``_speeds``, whose operations run in another order, so the two laws can
    differ by an ulp: one law for both is still open.
    """
    if not 0 <= weight <= inst.capacity:
        raise ValueError(f"weight {weight} outside [0, {inst.capacity}]")
    v = inst.max_speed - weight * (inst.max_speed - inst.min_speed) / inst.capacity
    return min(max(v, inst.min_speed), inst.max_speed)


def _speeds(inst: ProblemInstance, weight: np.ndarray) -> np.ndarray:
    """The solver's speed law on an array of carried weights: ``v_max - slope
    * weight`` clipped to [v_min, v_max], for ``slope = (v_max - v_min) / W``.

    The clip runs in place: np.clip's call overhead alone is ~2.5 us of a
    ~20 us bit-flip pricing at n=4461.
    """
    v = (inst.max_speed - inst.min_speed) / inst.capacity * weight
    np.subtract(inst.max_speed, v, out=v)
    np.maximum(v, inst.min_speed, out=v)
    return np.minimum(v, inst.max_speed, out=v)


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

    __slots__ = ("inst", "tour", "leg", "position", "item_pos")

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

    def weight_by_position(self, selected: np.ndarray) -> np.ndarray:
        """Weight picked up at each tour position under ``selected``."""
        idx = np.flatnonzero(selected)
        return np.bincount(
            self.item_pos[idx], weights=self.inst.weights[idx], minlength=self.inst.n
        )

    def time_from_positions(self, weight_by_pos: np.ndarray) -> float:
        """Travel time given per-position pickup weights (single O(n) pass)."""
        omega = np.cumsum(weight_by_pos)
        return float((self.leg / _speeds(self.inst, omega)).sum())

    def row_times(self, weight_by_pos: np.ndarray) -> np.ndarray:
        """Travel time of each row of per-position pickup weights; row i equals
        ``time_from_positions(weight_by_pos[i])`` bit for bit."""
        omega = np.cumsum(weight_by_pos, axis=1)
        return (self.leg / _speeds(self.inst, omega)).sum(axis=1)

    def reversal_times(
        self, weight_by_pos: np.ndarray, first: np.ndarray, last: np.ndarray
    ) -> np.ndarray:
        """Travel time of the tour with positions ``first[k]..last[k]``
        reversed (``1 <= first < last < n``), one entry per k, under the
        per-position pickup weights ``weight_by_pos`` of this tour.  One
        call prices every move, ``CHUNK_CELLS`` cells of ``(moves, n)``
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
        per_chunk = max(1, CHUNK_CELLS // n)
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
            out[start : start + per_chunk] = (leg / _speeds(self.inst, omega)).sum(axis=1)
        return out

    def travel_time(self, selected: np.ndarray) -> float:
        return self.time_from_positions(self.weight_by_position(selected))

    def plan_times(self, selected: np.ndarray) -> PlanTimes:
        omega = np.cumsum(self.weight_by_position(selected))
        leg_time = self.leg / _speeds(self.inst, omega)
        return PlanTimes(omega, leg_time, float(leg_time.sum()))

    def flipped_time(self, times: PlanTimes, item: int, add: bool) -> float:
        """Travel time after toggling ``item``, re-pricing only the suffix."""
        p = self.item_pos[item]
        w = self.inst.weights[item]
        omega = times.omega[p:] + (w if add else -w)
        seg = self.leg[p:] / _speeds(self.inst, omega)
        return times.total - float(times.leg_time[p:].sum()) + float(seg.sum())


def _position_buckets(ctx: TourContext, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the tour's positions into runs of ``size`` (the last may be
    shorter): each item's bucket, each bucket's length, and each item's
    weight times the length of its bucket's legs from its pickup position
    on.  The lengths are summed within each bucket."""
    n = ctx.inst.n
    legs = np.zeros(-(-n // size) * size)
    legs[:n] = ctx.leg
    rest = np.cumsum(legs.reshape(-1, size)[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(over="ignore"):
        inner = ctx.inst.weights * rest.ravel()[ctx.item_pos]
    return ctx.item_pos // size, rest[:, 0].copy(), inner


def gain_range(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    weight: np.ndarray,
    c_profit: np.ndarray | float,
    c_weight: np.ndarray | float,
    length: np.ndarray,
    c_load: np.ndarray,
    load: np.ndarray,
    haul: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(low, high)`` on how much the computed objective of each
    lane's new plan exceeds that of its committed one.

    A lane's new plan adds picks to its committed plan: ``profit`` and
    ``weight`` are the new plan's totals, ``c_profit`` and ``c_weight`` the
    committed one's, and ``empty_time`` is the empty plan's travel time.
    The tour's positions are split into consecutive buckets whose legs have
    lengths ``length``.  Row k of ``c_load`` holds lane k's committed weight
    picked up in each bucket, and row k of ``load`` and ``haul`` the weight
    its new plan adds in each bucket and the sum of that weight times the
    legs from its pickup position to the bucket's end.  "Computed" means
    what ``scalarized`` makes of ``TourContext`` row times, with its
    rounding, so a lane with ``low > 0`` surely wins its re-check and one
    with ``high < 0`` surely loses it, as the priced re-check would.

    :func:`pack_tour` bounds at three granularities: the whole tour as one
    bucket, whose haul is the added items' weight times carry distance;
    buckets of ``BUCKET_SIZE`` positions; and, for one plan's objective, the
    empty plan as the committed one (zero committed profit, weight and
    loads), whose computed objective is exact.

    Derivation.  Let s be the speed slope and v(w) = max(v_max - s w, v_min)
    the speed at carried weight w.  Leg i, of length d_i, is walked at
    v(o_i) under the committed plan and v(o_i + e_i) under the new one.  If
    it lies in bucket k, C_k <= o_i <= C'_k and A_k <= e_i <= A'_k, where
    C_k and C'_k are the committed weight picked up before bucket k and up
    to its end, and A_k and A'_k the added weight likewise; the last C' and
    C' + A' are W_c and W_n, the plans' total weights.  As
    1/v(o + e) - 1/v(o) equals (v(o) - v(o + e)) / (v(o) v(o + e)), where
    v(o) - v(o + e) is s e, and v falls as the weight grows,

        s e_i / (v(C_k) v(C_k + A_k))  <=  1/v(o_i + e_i) - 1/v(o_i)
                                        <=  s e_i / (v(C'_k) v(C'_k + A'_k)),

    except that the lower bound fails by at most the clamp at v_min, which
    rounding in s can reach just below the capacity: by at most
    (n + m + 2) 2**-53 v_max in speed, so (n + m + 2) 2**-53 T_0 in total
    for the empty plan's time T_0.  An added item of weight w at position p
    adds w to e_i for every leg i >= p, so the legs of bucket k sum d_i e_i
    to X_k = A_k D_k + H_k, where D_k is the bucket's length and H_k its
    ``haul``.  Summing s X_k times the two factors over the buckets,

        L  <=  T_n - T_c  <=  U.

    With one bucket, C = A = 0 and v(0) = v_max, so L = s X / v_max**2 and
    U = s X / (v(W_c) v(W_n)) for X the added items' weight times their
    carry distance.

    With a = (1 - alpha) R and P = alpha * profit, the new objective
    exceeds the committed one by dP - a (T_n - T_c), where dP = P_n - P_c,
    so by between dP - a U and dP - a L; ``low`` and ``high`` widen these by
    M, at least the rounding error of the two computed objectives and of
    this arithmetic.  A computed row time sums n legs over speeds from
    pickup weights summed from at most m items, so it is within
    (2n + m + 4) 2**-53 (v_max / v_min) of the real one, relative.  Each C,
    A and H sums at most m weights or products and n buckets, and D_k and
    the lengths in H_k sum whole-number legs, exact below 2**53 and within
    n 2**-53 relative above it, so L and U carry relative errors below
    (5n + 3m + 12) 2**-53 (v_max / v_min).  The subtractions of the
    objectives, of the bounds and of an empty plan's objective added to
    them carry a few 2**-53 of P_n + P_c + a (T_n + T_c).  Both times are
    at most T_up = T_0 v_max / v(W_n), so

        M = eps (P_n + P_c + a T_up + a (L + U)) + 16 2**-1074,
        eps = 16 (n + m + 16) (v_max / v_min) 2**-53

    covers all of it with room to spare.  Below the smallest normal float a
    product or sum rounds by up to half the fixed step 2**-1074, not
    relatively, and eps times such terms underflows; the few of these
    roundings in the objectives and in this arithmetic stay inside the
    floor of 16 steps, which is lost in the rounding of any M above
    2**-1016.  Legs are whole numbers, so T_0 is 0 (and then every X_k is
    too) or at least 1 / v_max, and underflow in L or U stays far inside
    M.  An overflow makes a bound or M inf or NaN, and every comparison
    with it leaves the lane undecided.
    """
    v_max, v_min = inst.max_speed, inst.min_speed
    slope = (v_max - v_min) / inst.capacity
    eps = 16.0 * (inst.n + inst.m + 16) * (v_max / v_min) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        c_high = np.cumsum(c_load, axis=1)
        added = np.cumsum(load, axis=1)
        n_high = c_high + added
        c_high[:, -1], n_high[:, -1] = c_weight, weight
        c_low = np.zeros_like(c_high)
        c_low[:, 1:] = c_high[:, :-1]
        a_low = np.zeros_like(added)
        a_low[:, 1:] = added[:, :-1]
        x = a_low * length + haul
        v_c_low = _speeds(inst, c_low)
        v_n_low = _speeds(inst, c_low + a_low)
        v_c_high = _speeds(inst, c_high)
        v_now = _speeds(inst, n_high)
        lower = (slope / (v_c_low * v_n_low) * x).sum(axis=1)
        upper = (slope * x / (v_c_high * v_now)).sum(axis=1)
        a = (1.0 - alpha) * inst.renting_rate
        p_new, p_commit = alpha * profit, alpha * c_profit
        gain = p_new - p_commit
        t_up = empty_time * v_max / v_now[:, -1]
        margin = eps * (p_new + p_commit + a * t_up + a * (lower + upper)) + 16 * 2.0**-1074
        return gain - a * upper - margin, gain - a * lower + margin


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


def validate_solution(inst: ProblemInstance, sol: Solution) -> None:
    """Raise ValueError unless ``sol`` is feasible and its cached values agree
    with a from-scratch re-evaluation, to ``REL_TOL``."""
    if len(sol.tour) != inst.n:
        raise ValueError("tour length does not match instance")
    if sol.plan.selected.shape != (inst.m,):
        raise ValueError("plan size does not match instance")
    weight = sol.plan.total_weight
    if weight > inst.capacity:
        raise ValueError(f"plan weight {weight} exceeds capacity {inst.capacity}")
    g = total_profit(inst, sol.plan)
    h = travel_time(inst, sol.tour, sol.plan)
    if abs(g - sol.profit) > REL_TOL * max(1.0, abs(g)):
        raise ValueError(f"cached profit {sol.profit} != recomputed {g}")
    if abs(h - sol.time) > REL_TOL * max(1.0, abs(h)):
        raise ValueError(f"cached time {sol.time} != recomputed {h}")
