"""Randomized score-guided packing for a fixed tour and scalarization weights.

A packing is the best of ``attempts`` randomized greedy constructions
(PackIterative, Faulkner et al., GECCO 2015).  Each attempt draws three
exponents, normalizes them to sum to 1, and scores every item by
profit^a / (weight^b * carry_distance^c), where the carry distance is how
far along the tour the item would be hauled.  Items are then greedily
added in score order, with the scalarized objective re-checked every
``phi`` analyzed items; a failed check rolls back to the last committed
plan and halves ``phi``.  The best committed plan across attempts is
returned, never worse than the empty plan.

All attempts of all packings for one tour run together (:func:`pack_tour`).
Each attempt is a lane, and the lanes advance in lockstep, a re-check
window per step: one step takes every lane from its rank to its next
multiple of ``phi``, or to the last rank, adds the items of that window
that fit, in rank order, and re-checks the lanes that picked something.
Whole packings are in flight at a time, as many as ``LANE_CELLS`` allows,
and the next packing starts as soon as the lanes of one have finished.

Most re-checks are decided without pricing a travel time.  Picks only make
the tour slower, and by how much is bounded in two stages.  The first
bounds it from totals: the weight each added item hauls over its carry
distance (:func:`recheck_bounds`).  Where that leaves a re-check open, the
second bounds it from weight profiles: the tour's positions are split into
buckets of ``BUCKET_SIZE``, each row keeps its committed plan's weight and
haul per bucket, and the window's picks are binned the same way
(:func:`profile_bounds`).  Where the bounds, widened by the rounding of both
computed objectives, put the new objective surely above or surely not above
the committed one, the re-check commits or rolls back at once; only the
rest are priced, in one row-wise pass per step together with any committed
plan whose objective is not yet known.  Where the lanes that end with their
objective unknown fill more than one pricing chunk, each is priced only if
its bounds (:func:`objective_range`) leave it a chance to win its packing.

A lane's committed weight only grows, so an item that does not fit on it
now never will.  A lane whose window picks nothing skips to the window of
its next item that fits, and ends where none is left.

The plans, and the state the random generator is left in, are identical to
running the attempts one after another: the exponents are drawn in the same
order, a window's weights, profits and hauls are added left to right from
the committed values as one attempt adds them, every priced objective is
the same floating-point computation on the same pickup weights, a decided
re-check goes the way the priced one would, a skipped rank is one the
greedy would not pick, an unpriced lane surely falls below another plan of
its packing, and ties between attempts go to the earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluation import PackingPlan, Tour, TourContext, scalarized
from .instance import ProblemInstance

REEVAL_EPSILON = 1e-5

# LANE_CELLS bounds the cells of the lanes' (rows, m) arrays, so the number
# of packings in flight.  A cell costs 5 bytes, an int32 item and a boolean
# pick per rank, so 2**20 cells keep the lanes near 5 MB; a step's window
# arrays are no larger, as a window spans at most m ranks of each lane.
# 2**19 to 2**21 packed alike at n=280 and n=4461.  CHUNK_CELLS bounds the
# cells of the (rows, n) pickup weights that a re-check prices at once: each
# float64 temporary stays near 128 KB, and a chunk reads each plan's picks
# only up to its own limit.  At n=4461, 2**14 and 2**15 packed fastest,
# ahead of 2**13 and 2**16 to 2**18.
LANE_CELLS = 1 << 20
CHUNK_CELLS = 1 << 14
# BUCKET_SIZE is the number of tour positions per bucket of the weight
# profiles that bound the re-checks the totals leave open (profile_bounds),
# so a profile costs a fixed share of a priced row at every n.  Against the
# packer that bounded by totals only, pack_tour medians in one process on a
# 2-vCPU host, 117 alphas: at n=4461 (three tours) 16, 24, 32 and 70
# positions took 25-35%, 30-42%, 32-44% and 33% less time; at n=280 (three
# tours) 32 took 11-13% less on two and the same on one, while 70 was up to
# 4% slower, its 4 buckets deciding too little.
BUCKET_SIZE = 32


@dataclass(frozen=True)
class ScoredItems:
    """Per-item scores, the descending-score item order, and carry distances."""

    scores: np.ndarray
    order: np.ndarray
    carry_distance: np.ndarray


def carry_distances(ctx: TourContext) -> np.ndarray:
    """Distance each item is carried: from its pickup position to the tour's end,
    including the closing leg back to the start city."""
    suffix = np.cumsum(ctx.leg[::-1])[::-1]
    return suffix[ctx.item_pos]


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


def _score_rows(inst: ProblemInstance, dist: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Item scores under each row (a, b, c) of ``exponents``, normalized to sum to 1.

    An item carried no distance scores inf, or NaN if its profit is 0 too;
    :func:`_descending` ranks those first and last.  Both are intended
    values, so the division reports no warning.
    """
    total = exponents[:, 0] + exponents[:, 1] + exponents[:, 2]
    a, b, c = (exponents[:, j, None] / total[:, None] for j in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        return inst.profits**a / (inst.weights**b * dist**c)


def _descending(scores: np.ndarray) -> np.ndarray:
    """Item order by descending score in each row, ties to the lower index.

    Rows are sorted with the unstable default kind, which is several times
    faster; rows holding equal scores (or NaN) are sorted again stably.
    """
    keys = -scores
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | np.isnan(ranked).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return order


def score_items(
    inst: ProblemInstance,
    tour: Tour,
    a: float,
    b: float,
    c: float,
) -> ScoredItems:
    """Score items with exponents (a, b, c), normalized to sum to 1.

    Ties in score break toward the lower item index, so the ordering is
    deterministic.  Scale-invariant: triples that are positive multiples
    of each other produce identical scores.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("score exponents must be non-negative")
    if a + b + c == 0:
        raise ValueError("score exponents are all zero")
    dist = carry_distances(TourContext(inst, tour))
    scores = _score_rows(inst, dist, np.array([[a, b, c]], dtype=np.float64))
    return ScoredItems(scores[0], _descending(scores)[0], dist)


def reeval_period(m: int, divisor: int, alpha: float) -> int:
    """Number of items analyzed between objective re-evaluations.

    ceil(m / divisor * alpha + eps); the epsilon keeps the period at 1
    when alpha is 0.
    """
    return math.ceil(m / divisor * alpha + REEVAL_EPSILON)


def randomized_packing(
    inst: ProblemInstance,
    tour: Tour,
    attempts: int,
    alpha: float,
    divisor: int,
    rng: np.random.Generator,
) -> PackingPlan:
    """Best plan over ``attempts`` randomized greedy constructions for ``tour``.

    The one-alpha case of :func:`pack_tour`.  Each attempt consumes three
    uniform draws from ``rng`` (the score exponents), so results for a
    given rng state are reproducible and the best objective is
    non-decreasing in ``attempts``.
    """
    return pack_tour(inst, TourContext(inst, tour), [alpha], attempts, divisor, rng)[0]


def pack_tour(
    inst: ProblemInstance,
    ctx: TourContext,
    alphas: Sequence[float],
    attempts: int,
    divisor: int,
    rng: np.random.Generator,
) -> list[PackingPlan]:
    """One packing per weight in ``alphas``, each the best of ``attempts``
    randomized greedy constructions on the tour of ``ctx``.

    Packings draw their exponents from ``rng`` in ``alphas`` order, three
    uniform draws per attempt (redrawn while all three are zero), so the
    plans and the final ``rng`` state equal those of one
    :func:`randomized_packing` call per weight.

    Every attempt is a lane.  The lanes of whole packings share the rows of
    two ``(rows, m)`` arrays, sized by ``LANE_CELLS``: the item at each rank
    and whether it is picked.  As soon as ``attempts`` rows are free, the
    next packing takes them.

    A step analyzes each lane's window, from its rank to its next re-check
    rank (a multiple of its ``phi``) or to ``m``, as one row of a
    ``(lanes, window)`` array (:func:`_greedy_picks`), and re-checks the
    lanes that end their window at a re-check rank with something picked.
    A re-check prices nothing when :func:`recheck_bounds`, or else
    :func:`profile_bounds`, decides it.  A commit made that way leaves the
    committed objective unknown until a later undecided re-check, or the
    lane's end, prices that plan; at the end not where it surely cannot
    win.  A lane whose window picks nothing moves on to its next item that
    fits.

    The greedy fits items by their rank-order running sum; each packing
    returns its best attempt's picks through :meth:`PackingPlan.fitted`.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [0, 1]")
    n, m = inst.n, inst.m
    weights, profits = inst.weights, inst.profits
    capacity, rent = inst.capacity, inst.renting_rate
    dist = carry_distances(ctx)
    with np.errstate(over="ignore"):
        haul = weights * dist
    empty_time = ctx.time_from_positions(np.zeros(n))
    item_bucket, length, inner_haul = _position_buckets(ctx, BUCKET_SIZE)
    nb = length.size

    packings_in_flight = min(len(alphas), max(1, LANE_CELLS // (attempts * max(m, 1))))
    rows = packings_in_flight * attempts
    order = np.empty((rows, m), dtype=np.int32)
    picked = np.zeros((rows, m), dtype=bool)
    order_flat, picked_flat = order.ravel(), picked.ravel()
    # Per row: the committed plan's weight and in-bucket haul in each
    # position bucket.
    c_load = np.zeros((rows, nb))
    c_haul = np.zeros((rows, nb))
    free = list(range(rows))

    empty_f = [scalarized(alpha, 0.0, empty_time, rent) for alpha in alphas]
    best_f = list(empty_f)
    best_attempt = [-1] * len(alphas)
    best_items = [np.zeros(0, dtype=np.int32)] * len(alphas)
    s = _Lanes()
    admitted = 0

    while True:
        while admitted < len(alphas) and len(free) >= attempts:
            p, alpha = admitted, alphas[admitted]
            admitted += 1
            new = np.array(free[-attempts:])
            del free[-attempts:]
            order[new] = _descending(_score_rows(inst, dist, _draw_exponents(rng, attempts)))
            picked[new] = False
            c_load[new] = 0.0
            c_haul[new] = 0.0
            s.admit(new, p, alpha, reeval_period(m, divisor, alpha), empty_f[p])

        done = (s.rank > m) | (s.phi < 1)
        if done.any():
            stale = np.flatnonzero(done & ~s.c_exact)
            if stale.size > max(1, CHUNK_CELLS // n):
                # A finished lane whose objective is unknown is priced only if
                # its upper bound reaches the best its packing is sure of: its
                # best so far, and the lower bound of every finished lane.
                # Pricing is paid mostly per chunk, so the bounds pay off only
                # where the lanes fill more than one: at n=280 they fit one,
                # and bounding them was slower than pricing them.
                row = s.row[stale]
                low, high = objective_range(
                    inst, empty_time, s.alpha[stale], s.c_profit[stale], s.c_weight[stale],
                    length, c_load[row], c_haul[row],
                )
                sure, exact = np.array(best_f), done & s.c_exact
                np.maximum.at(sure, s.packing[exact], s.c_f[exact])
                np.maximum.at(sure, s.packing[stale], low)
                lost = high < sure[s.packing[stale]]
                s.c_f[stale[lost]] = np.nan  # below another plan of its packing: it cannot win
                stale = stale[~lost]
            if stale.size:
                times = _plan_times(ctx, order, picked, s.row[stale], s.c_picks[stale])
                s.c_f[stale] = scalarized(s.alpha[stale], s.c_profit[stale], times, rent)
            finished = zip(
                s.row[done].tolist(),
                s.packing[done].tolist(),
                s.attempt[done].tolist(),
                s.c_f[done].tolist(),
                s.c_picks[done].tolist(),
            )
            for row, p, j, f, k in finished:
                # The sequential rule keeps the first attempt of the highest objective.
                if f > best_f[p] or (f == best_f[p] and j < best_attempt[p]):
                    best_f[p], best_attempt[p] = f, j
                    best_items[p] = order[row, :k][picked[row, :k]]
                free.append(row)
            s.keep(~done)
        if not s.row.size:
            if admitted == len(alphas):
                break
            continue

        # Analyze each lane's items up to its next re-check rank, or m, in
        # one window, and re-check the lanes that picked something.
        end = np.minimum(-(-s.rank // s.phi) * s.phi, m)
        cols = np.arange((end - s.rank).max() + 1)
        inside = cols < (end - s.rank + 1)[:, None]
        cells = (s.row * m + s.rank - 1)[:, None] + cols
        items = order_flat[np.where(inside, cells, 0)]
        load = np.where(inside, weights[items], np.inf)
        pick = _greedy_picks(load, s.c_weight, capacity)
        picked_flat[cells[inside]] = pick[inside]
        any_pick = pick.any(axis=1)

        due = np.flatnonzero((end % s.phi == 0) & any_pick)
        if due.size:
            # Running totals since the commit, added left to right from the
            # committed values as one attempt adds them; unpicked cells add 0.
            mine, chosen = items[due], pick[due]
            run = np.zeros((3, due.size, cols.size + 1))
            run[0, :, 0], run[1, :, 0] = s.c_weight[due], s.c_profit[due]
            for total, gain in zip(run[:, :, 1:], (load[due], profits[mine], haul[mine])):
                np.copyto(total, gain, where=chosen)
            weight, profit, hauled = np.cumsum(run, axis=2, out=run)[..., -1]
            better, worse = recheck_bounds(
                inst, empty_time, s.alpha[due], profit, hauled, weight, s.c_profit[due], s.c_weight[due],
            )
            # The window's picks of each due lane by position bucket: their
            # weight and their in-bucket haul.
            picks = mine[chosen]
            key = np.nonzero(chosen)[0] * nb + item_bucket[picks]
            w_load = np.bincount(key, weights[picks], due.size * nb).reshape(due.size, nb)
            w_haul = np.bincount(key, inner_haul[picks], due.size * nb).reshape(due.size, nb)
            undecided = ~(better | worse)
            if undecided.any():
                # Bound what the totals leave open from the lanes' profiles.
                open_ = np.flatnonzero(undecided)
                lanes, row = due[open_], s.row[due[open_]]
                better[open_], worse[open_] = profile_bounds(
                    inst, empty_time, s.alpha[lanes], profit[open_], weight[open_], s.c_profit[lanes],
                    s.c_weight[lanes], length, c_load[row], w_load[open_], w_haul[open_],
                )
                undecided = ~(better | worse)
            priced = due[undecided]
            if priced.size:
                # Price the undecided plans, and the committed plans they are
                # compared with where a bound-made commit left those unknown.
                stale = priced[~s.c_exact[priced]]
                lanes = np.concatenate((priced, stale))
                limits = np.concatenate((end[priced], s.c_picks[stale]))
                times = _plan_times(ctx, order, picked, s.row[lanes], limits)
                s.c_f[stale] = scalarized(s.alpha[stale], s.c_profit[stale], times[priced.size:], rent)
                f = scalarized(s.alpha[priced], profit[undecided], times[: priced.size], rent)
                gain = f > s.c_f[priced]
                better[undecided] = gain
                s.c_f[priced[gain]] = f[gain]
                s.c_exact[priced] = True
            up = due[better]
            s.c_exact[due[better & ~undecided]] = False
            s.c_picks[up] = end[up]
            s.c_weight[up] = weight[better]
            s.c_profit[up] = profit[better]
            c_load[s.row[up]] += w_load[better]
            c_haul[s.row[up]] += w_haul[better]
            back = due[~better]
            if back.size:
                # Roll back to the committed plan: drop the window's picks.
                picked_flat[cells[back][inside[back]]] = False
                end[back] = np.maximum(s.c_picks[back], 1)
                s.phi[back] //= 2
        idle = np.flatnonzero(~any_pick & (end < m))
        if idle.size:
            # A lane that picked nothing skips to its next item that fits on
            # its committed weight, or ends where none is left.
            end[idle] = _next_fit(order, weights, capacity, s.row[idle], end[idle], s.c_weight[idle])
        s.rank = end + 1

    return [PackingPlan.fitted(inst, items) for items in best_items]


def recheck_bounds(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    haul: np.ndarray,
    weight: np.ndarray,
    c_profit: np.ndarray,
    c_weight: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-checks decided without pricing: masks of the lanes whose new plan
    surely beats the committed one, and of those it surely does not.

    A lane's new plan adds picks to its committed plan; ``haul`` is the sum
    of weight * carry distance over those picks, ``profit``/``weight`` and
    ``c_profit``/``c_weight`` the totals of the new and committed plans, and
    ``empty_time`` the travel time of the empty plan.  "Beats" means the
    objective ``scalarized`` computes from ``TourContext`` row times, with
    its rounding, is strictly higher, so a decided lane goes the way the
    priced re-check would.  Lanes in neither mask must be priced.

    Derivation.  Let s be the speed slope and v(w) = max(v_max - s w, v_min)
    the speed at carried weight w.  Each leg i of length d_i is walked at
    v(o_i) under the committed plan and v(o_i + e_i) under the new one,
    where o_i <= W_c (committed weight) and o_i + e_i <= W_n (new weight).
    As 0 <= v(o) - v(o + e) <= s e and both speeds lie in [v(W_n), v_max],

        s e / v_max**2  <=  1/v(o + e) - 1/v(o)  <=  s e / (v(W_c) v(W_n)),

    except that the lower bound fails by at most the clamp at v_min, which
    rounding in s can reach just below the capacity: by at most
    (n + m + 2) 2**-53 v_max in speed, so (n + m + 2) 2**-53 T_0 in total
    for the empty plan's time T_0.  An added item of weight w at position p
    adds w to e_i for every leg i >= p, whose lengths sum to its carry
    distance, so summing d_i times the bounds over the legs gives, with
    X = ``haul``,

        L = s X / v_max**2  <=  T_n - T_c  <=  U = s X / (v(W_c) v(W_n)).

    With a = (1 - alpha) R and P = alpha * profit, the new objective
    exceeds the committed one by dP - a (T_n - T_c), where dP = P_n - P_c,
    so it is surely higher if dP - a U > M and surely not if dP - a L < -M,
    for M at least the rounding error of the two computed objectives and of
    this test.  A computed row time sums n legs over speeds from pickup
    weights summed from at most m items, so it is within
    (2n + m + 4) 2**-53 (v_max / v_min) of the real one, relative; v(W)
    and X here carry errors of the same kind, L and U relative errors below
    (n + m + 8) 2**-53 (v_max / v_min), and the subtractions of the
    objectives and of the test a few 2**-53 of P_n + P_c + a (T_n + T_c).
    Both times are at most T_up = T_0 v_max / v(W_n), so

        M = eps (P_n + P_c + a T_up + a (L + U)),
        eps = 16 (n + m + 16) (v_max / v_min) 2**-53

    covers all of it with room to spare.  Legs are whole numbers, so T_0 is
    0 (and then X is too) or at least 1 / v_max, and underflow in L or U
    stays far inside M.  An overflow makes a bound or M inf or NaN, and
    every comparison with it leaves the lane undecided.

    Profiles (:func:`profile_bounds`).  Split the positions into at most n
    consecutive buckets, bucket k with legs of total length D_k.  Let C_k
    and C'_k be the committed weight picked up before bucket k and up to
    its end, and A_k and A'_k the added weight likewise; the last C' and
    C' + A' are W_c and W_n.  A leg i of bucket k has C_k <= o_i <= C'_k
    and A_k <= e_i <= A'_k.  As 1/v(o + e) - 1/v(o) equals
    (v(o) - v(o + e)) / (v(o) v(o + e)) and v falls as the weight grows,

        s e_i / (v(C_k) v(C_k + A_k))  <=  1/v(o_i + e_i) - 1/v(o_i)
                                        <=  s e_i / (v(C'_k) v(C'_k + A'_k)),

    the lower bound with the same allowance for the clamp.  The legs of
    bucket k sum d_i e_i to X_k = A_k D_k + H_k, where H_k sums each added
    item's weight times the legs from its position to the bucket's end.
    L and U are then the sums over k of s X_k times the two factors; with
    one bucket, C = A = 0 and X_0 = X, and they are the L and U above.
    Each C, A and H sums at most m weights or products and n buckets, and
    D_k and the lengths in H_k sum whole-number legs, exact below 2**53 and
    within n 2**-53 relative above it, so these L and U carry relative
    errors below (5n + 3m + 12) 2**-53 (v_max / v_min), which M covers too.
    """
    v_max, v_min = inst.max_speed, inst.min_speed
    slope = (v_max - v_min) / inst.capacity
    with np.errstate(over="ignore", invalid="ignore"):
        v_now = np.maximum(v_max - slope * weight, v_min)
        v_commit = np.maximum(v_max - slope * c_weight, v_min)
        lower = slope / (v_max * v_max) * haul
        upper = slope * haul / (v_commit * v_now)
    low, high = _gain_range(inst, empty_time, alpha, profit, c_profit, weight, lower, upper)
    return low > 0, high < 0


def profile_bounds(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    weight: np.ndarray,
    c_profit: np.ndarray,
    c_weight: np.ndarray,
    length: np.ndarray,
    c_load: np.ndarray,
    load: np.ndarray,
    haul: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`recheck_bounds` from the lanes' weight profiles over the tour.

    The tour's positions are split into consecutive buckets whose legs have
    lengths ``length``.  Row k of ``c_load`` holds lane k's committed weight
    picked up in each bucket, and row k of ``load`` and ``haul`` the weight
    its new plan adds in each bucket and the sum of that weight times the
    legs from its pickup position to the bucket's end.  The derivation and
    the margin are :func:`recheck_bounds`'; with one bucket, whose ``haul``
    is the lanes' haul, the masks are the same.
    """
    lower, upper = _time_bounds(inst, length, c_load, load, haul, c_weight, weight)
    low, high = _gain_range(inst, empty_time, alpha, profit, c_profit, weight, lower, upper)
    return low > 0, high < 0


def objective_range(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    weight: np.ndarray,
    length: np.ndarray,
    load: np.ndarray,
    haul: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the objective that pricing computes for
    plans of totals ``profit`` and ``weight`` and of weight profile ``load``
    and ``haul`` (as in :func:`profile_bounds`): the plan is compared with
    the empty one, whose computed objective is exact.  The margin is ample
    for the rounding of adding the two (see :func:`recheck_bounds`)."""
    base = np.zeros_like(load)
    lower, upper = _time_bounds(inst, length, base, load, haul, np.zeros(weight.size), weight)
    low, high = _gain_range(inst, empty_time, alpha, profit, 0.0, weight, lower, upper)
    empty_f = scalarized(alpha, 0.0, empty_time, inst.renting_rate)
    return empty_f + low, empty_f + high


def _time_bounds(
    inst: ProblemInstance,
    length: np.ndarray,
    c_load: np.ndarray,
    load: np.ndarray,
    haul: np.ndarray,
    c_weight: np.ndarray,
    weight: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """L and U of :func:`recheck_bounds` summed over position buckets: the
    committed weight on a leg of bucket k lies between the committed loads
    of the buckets before k and those up to k, and the added weight
    likewise; the last of the sums up to k are the totals."""
    v_max, v_min = inst.max_speed, inst.min_speed
    slope = (v_max - v_min) / inst.capacity
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
        v_c_low = np.maximum(v_max - slope * c_low, v_min)
        v_n_low = np.maximum(v_max - slope * (c_low + a_low), v_min)
        v_c_high = np.maximum(v_max - slope * c_high, v_min)
        v_n_high = np.maximum(v_max - slope * n_high, v_min)
        lower = (slope / (v_c_low * v_n_low) * x).sum(axis=1)
        upper = (slope * x / (v_c_high * v_n_high)).sum(axis=1)
    return lower, upper


def _gain_range(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    c_profit: np.ndarray | float,
    weight: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on how much the computed objective of a lane's new plan
    exceeds its committed one's, from bounds ``lower`` and ``upper`` on the
    travel time the new plan adds (see :func:`recheck_bounds`)."""
    v_max, v_min = inst.max_speed, inst.min_speed
    slope = (v_max - v_min) / inst.capacity
    eps = 16.0 * (inst.n + inst.m + 16) * (v_max / v_min) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        v_now = np.maximum(v_max - slope * weight, v_min)
        a = (1.0 - alpha) * inst.renting_rate
        p_new, p_commit = alpha * profit, alpha * c_profit
        gain = p_new - p_commit
        t_up = empty_time * v_max / v_now
        margin = eps * (p_new + p_commit + a * t_up + a * (lower + upper))
        return gain - a * upper - margin, gain - a * lower + margin


def _next_fit(
    order: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    row: np.ndarray,
    start: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """First 0-based rank at or after ``start`` in each lane's row whose item
    fits on the lane's committed ``weight``, or m where none is left.

    The scan spans at most m ranks of each lane, as a window does.
    """
    m = order.shape[1]
    first = start.min()
    ranks = np.arange(first, m)
    fits = (ranks >= start[:, None]) & (weight[:, None] + weights[order[row[:, None], ranks]] <= capacity)
    return np.where(fits.any(axis=1), first + fits.argmax(axis=1), m)


def _greedy_picks(load: np.ndarray, weight: np.ndarray, capacity: float) -> np.ndarray:
    """Which cells of each row the greedy picks, left to right: a cell is
    picked where its load, added to the row's running weight (from
    ``weight``), stays within ``capacity``.

    Each pass adds the loads of the cells still to settle that fit on top of
    the running weight, left to right from it with 0 for the others, so the
    sums are the ones the greedy makes.  Loads are positive and float
    addition is monotone, so a cell that does not fit on the running weight
    does not fit on any later one, and every cell before the first load that
    overflows the sum is settled.  That cell is not picked; the next pass
    starts after it, from the sum before it.
    """
    pick = np.zeros(load.shape, dtype=bool)
    cols = np.arange(load.shape[1])
    rows = np.arange(load.shape[0])
    first = np.zeros(rows.size, dtype=np.int64)
    while rows.size:
        rest = load[rows]
        fits = (weight[:, None] + rest <= capacity) & (cols >= first[:, None])
        total = np.cumsum(np.concatenate((weight[:, None], np.where(fits, rest, 0.0)), axis=1), axis=1)
        over = fits & (total[:, 1:] > capacity)
        stop = np.where(over.any(axis=1), over.argmax(axis=1), cols.size)
        pick[rows] = fits & (cols < stop[:, None]) | pick[rows]
        more = stop + 1 < cols.size
        rows, first = rows[more], stop[more] + 1
        weight = total[more, stop[more]]
    return pick


def _draw_exponents(rng: np.random.Generator, attempts: int) -> np.ndarray:
    """Three uniform draws per attempt; a row of three zeros is drawn again."""
    out = rng.random((attempts, 3))
    zero = ~out.any(axis=1)
    while zero.any():
        out[zero] = rng.random((int(zero.sum()), 3))
        zero = ~out.any(axis=1)
    return out


def _plan_times(
    ctx: TourContext,
    order: np.ndarray,
    picked: np.ndarray,
    rows: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Travel time of the plan made of the picks of row ``rows[k]`` before
    index ``limits[k]``, one entry per k.

    The rows are priced in chunks of ``CHUNK_CELLS // n`` plans, one row of
    n pickup weights each.  Each plan's ranks are read up to its own limit,
    and its weights are added to zeros in rank order (``np.bincount`` adds
    in input order), the order in which one greedy attempt adds them, so
    each row equals that attempt's pickup weights bit for bit.
    """
    n, weights = ctx.inst.n, ctx.inst.weights
    m = order.shape[1]
    chunk = max(1, CHUNK_CELLS // n)
    times = np.empty(rows.size)
    for i in range(0, rows.size, chunk):
        part, stop = rows[i : i + chunk], limits[i : i + chunk]
        plan = np.repeat(np.arange(part.size), stop)
        cells = np.repeat(part * m + stop - np.cumsum(stop), stop) + np.arange(plan.size)
        hit = picked.ravel()[cells]
        items = order.ravel()[cells[hit]]
        pos = plan[hit] * n + ctx.item_pos[items]
        flat = np.bincount(pos, weights=weights[items], minlength=part.size * n)
        times[i : i + chunk] = ctx.row_times(flat.reshape(part.size, n))
    return times


_LANE_FIELDS = {
    "row": np.int64, "packing": np.int64, "attempt": np.int64, "alpha": np.float64,
    "rank": np.int64, "phi": np.int64,
    "c_picks": np.int64, "c_weight": np.float64, "c_profit": np.float64, "c_f": np.float64, "c_exact": bool,
}


class _Lanes:
    """State of the lanes in flight, one array per field.

    ``row`` is a lane's row in the ``(rows, m)`` arrays, and ``rank`` the
    1-based rank of the next item to analyze, so its flat cell there is
    ``row * m + rank - 1``.  The ``c_`` fields hold the committed plan: the
    picks of the first ``c_picks`` ranks are final, a rollback resumes after
    rank ``max(c_picks, 1)``, and ``c_f`` is its objective where ``c_exact``
    is set, unknown where it is not.  Between windows a lane's plan is its
    committed one: a window picks nothing, ends in a re-check that commits
    or rolls back its picks, or ends the lane at rank ``m``.
    """

    __slots__ = tuple(_LANE_FIELDS)

    def __init__(self) -> None:
        for name, dtype in _LANE_FIELDS.items():
            setattr(self, name, np.zeros(0, dtype=dtype))

    def admit(self, rows: np.ndarray, packing: int, alpha: float, phi: int, empty_f: float) -> None:
        """Add one packing's attempts as fresh lanes in ``rows``: the empty
        plan, with objective ``empty_f``, committed, and rank 1 next."""
        fresh = {
            "row": rows, "packing": packing, "attempt": np.arange(rows.size), "alpha": alpha,
            "rank": 1, "phi": phi,
            "c_picks": 0, "c_weight": 0.0, "c_profit": 0.0, "c_f": empty_f, "c_exact": True,
        }
        for name, dtype in _LANE_FIELDS.items():
            setattr(self, name, np.concatenate((getattr(self, name), np.full(rows.size, fresh[name], dtype))))

    def keep(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])
