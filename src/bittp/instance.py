"""Problem instances: parsing, writing, validation, and the distance metric.

An instance couples a set of cities (a TSP layout) with a set of items
(a knapsack), a speed range for the thief, and a renting rate that prices
travel time.  Instance files use the de-facto benchmark layout: ``KEY:
value`` header lines followed by ``NODE_COORD_SECTION`` and ``ITEMS
SECTION``.  Files index cities and items from 1; internally everything is
0-based and contiguous, with city 0 as the start/end of every tour.

:meth:`ProblemInstance.pair_distances` is the one distance path: every
rounded city distance the solver uses, scalar or array, is computed there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CEIL_2D = "CEIL_2D"
EUC_2D = "EUC_2D"

EDGE_WEIGHT_TYPES = (CEIL_2D, EUC_2D)

_REQUIRED_HEADERS = (
    "DIMENSION",
    "NUMBER OF ITEMS",
    "CAPACITY OF KNAPSACK",
    "MIN SPEED",
    "MAX SPEED",
    "RENTING RATIO",
    "EDGE_WEIGHT_TYPE",
)


class InstanceError(ValueError):
    """Base class for instance parsing and validation failures."""


class MissingHeaderFieldError(InstanceError):
    """A required header field is absent."""


class MalformedRecordError(InstanceError):
    """A header or section line could not be parsed; names the line."""


class ItemAtDepotError(InstanceError):
    """An item is assigned to city 1, which never holds items."""


class InconsistentCountsError(InstanceError):
    """A declared count disagrees with the length of its section."""


class UnknownEdgeWeightTypeError(InstanceError):
    """EDGE_WEIGHT_TYPE is not one of the supported metrics."""


class InvalidInstanceError(InstanceError):
    """Field values violate a structural invariant."""


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem instance shared by all solver components.

    ``coords`` is an (n, 2) array; ``profits``/``weights``/``item_city``
    are parallel (m,) arrays with 0-based home cities.  Arrays are made
    read-only on construction so instances are safe to share across
    workers.
    """

    name: str
    coords: np.ndarray
    profits: np.ndarray
    weights: np.ndarray
    item_city: np.ndarray
    capacity: float
    min_speed: float
    max_speed: float
    renting_rate: float
    metric: str = CEIL_2D
    knapsack_type: str | None = None

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        profits = np.ascontiguousarray(np.asarray(self.profits, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        item_city = np.ascontiguousarray(np.asarray(self.item_city, dtype=np.int64))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "profits", profits)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "item_city", item_city)

        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidInstanceError("coords must be an (n, 2) array")
        n = coords.shape[0]
        if n < 2:
            raise InvalidInstanceError(f"need at least 2 cities, got {n}")
        m = profits.shape[0]
        if weights.shape[0] != m or item_city.shape[0] != m:
            raise InvalidInstanceError("profits, weights, and item_city must have equal length")
        if self.metric not in EDGE_WEIGHT_TYPES:
            raise UnknownEdgeWeightTypeError(f"unsupported edge weight type {self.metric!r}")
        if not np.isfinite(coords).all():
            raise InvalidInstanceError("city coordinates must be finite")
        if not (np.isfinite(profits).all() and np.isfinite(weights).all()):
            raise InvalidInstanceError("item profits and weights must be finite")
        # Distances square coordinate differences, so the bounding box's
        # squared diagonal must be finite; likewise every plan's profit.
        with np.errstate(over="ignore"):
            span = np.ptp(coords, axis=0)
            diagonal2 = float((span * span).sum())
            total_profit = float(profits.sum())
        if not math.isfinite(diagonal2):
            raise InvalidInstanceError("city coordinates must span a finite squared distance")
        if not math.isfinite(total_profit):
            raise InvalidInstanceError("the total item profit must be finite")
        for field in ("capacity", "min_speed", "max_speed", "renting_rate"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise InvalidInstanceError(f"{field} must be finite, got {value}")
        if not self.capacity > 0:
            raise InvalidInstanceError(f"capacity must be positive, got {self.capacity}")
        if not 0 < self.min_speed < self.max_speed:
            raise InvalidInstanceError(
                f"speeds must satisfy 0 < min < max, got {self.min_speed}, {self.max_speed}"
            )
        if self.renting_rate < 0:
            raise InvalidInstanceError(f"renting rate must be non-negative, got {self.renting_rate}")
        if not math.isfinite((self.max_speed - self.min_speed) / self.capacity):
            raise InvalidInstanceError("the speed's slope (max speed - min speed) / capacity must be finite")
        # A leg is at most the rounded diagonal long and is walked at min_speed at the slowest.
        max_time = n * (math.sqrt(diagonal2) + 1) / self.min_speed
        if not math.isfinite(max_time):
            raise InvalidInstanceError("travel times must be finite: n * diagonal / min speed overflows")
        if not math.isfinite(self.renting_rate * max_time):
            raise InvalidInstanceError("rents must be finite: renting rate * n * diagonal / min speed overflows")
        if m:
            if (profits < 0).any():
                raise InvalidInstanceError("item profits must be non-negative")
            if (weights <= 0).any():
                raise InvalidInstanceError("item weights must be positive")
            if (item_city == 0).any():
                raise ItemAtDepotError("items may not be assigned to the first city")
            if ((item_city < 0) | (item_city >= n)).any():
                raise InvalidInstanceError("item home city out of range")

        # x and y as contiguous 1-D arrays, for pair_distances to gather with take.
        xs, ys = np.ascontiguousarray(coords.T)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        for arr in (coords, profits, weights, item_city, xs, ys):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of cities."""
        return self.coords.shape[0]

    @property
    def m(self) -> int:
        """Number of items."""
        return self.profits.shape[0]

    def distance(self, i: int, j: int) -> int:
        """Rounded Euclidean distance between cities ``i`` and ``j`` (0-based)."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"city index out of range: {i}, {j}")
        return int(self.pair_distances(i, j))

    def distances_from(self, i: int, to: np.ndarray | None = None) -> np.ndarray:
        """Rounded distances from city ``i`` to ``to`` (default: all cities)."""
        return self.pair_distances(i, np.arange(self.n) if to is None else to)

    def pair_distances(self, p, q) -> np.ndarray:
        """Rounded distances between the cities ``p`` and ``q`` (indices or
        broadcast index arrays), symmetric bit for bit.  The one distance
        path: every rounded city distance in the solver is computed here."""
        dx = np.asarray(self._xs.take(p) - self._xs.take(q))  # 0-d for two indices
        dy = self._ys.take(p) - self._ys.take(q)
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        if self.metric == CEIL_2D:
            return np.ceil(dx, out=dx)
        dx += 0.5
        return np.floor(dx, out=dx)

    def leg_lengths(self, order: np.ndarray) -> np.ndarray:
        """Distances of consecutive legs of the cyclic tour ``order``.

        Entry ``i`` is the distance from ``order[i]`` to ``order[(i+1) % n]``.
        """
        return self.pair_distances(order, np.roll(order, -1))

    def tour_length(self, order: np.ndarray) -> float:
        """Total cyclic length of the tour ``order``."""
        return float(self.leg_lengths(order).sum())


def _parse_number(text: str, lineno: int, kind: type) -> float | int:
    try:
        return kind(text)
    except ValueError:
        raise MalformedRecordError(f"line {lineno}: expected a number, got {text!r}") from None


def _records(
    lines: list[tuple[int, str]], count: int, what: str, layout: str, kinds: tuple[type, ...], stop: str | None = None
) -> tuple[list[list], MalformedRecordError | None]:
    """Read up to ``count`` records from the ``(lineno, line)`` pairs ``lines``,
    stopping early at a line that starts with ``stop``.  A record has one
    field per entry of ``kinds``, which converts it; the first field is the
    record's 1-based index.  ``layout`` names the fields in error messages.
    Only the records that are there are read, so a count no array could
    hold costs nothing.

    Returns a list per field after the index, of the records before the
    first one at fault, and that record's MalformedRecordError or None, for
    the caller to raise once it has vetted those records.
    """
    fields, fault = [], None
    for lineno, line in lines[: max(count, 0)]:
        if stop is not None and line.startswith(stop):
            break
        parts = line.split()
        if len(parts) != len(kinds):
            fault = MalformedRecordError(f"line {lineno}: expected '{layout}', got {line!r}")
            break
        fields += parts
    try:  # one conversion per column
        index, *columns = [list(map(kind, fields[j :: len(kinds)])) for j, kind in enumerate(kinds)]
        if index != list(range(1, len(index) + 1)):
            raise ValueError("record indices out of order")
        return columns, fault
    except ValueError:  # some record before ``fault`` is at fault: find the first
        for k, (lineno, line) in enumerate(lines[: len(fields) // len(kinds)]):
            try:
                index, *_ = [_parse_number(text, lineno, kind) for kind, text in zip(kinds, line.split())]
                if index != k + 1:
                    raise MalformedRecordError(f"line {lineno}: {what} index {index}, expected {k + 1}")
            except MalformedRecordError as first:
                return _records(lines, k, what, layout, kinds)[0], first
        raise


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance document (LF or CRLF) into a :class:`ProblemInstance`."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1) if (line := raw.strip())]
    header: dict[str, tuple[str, int]] = {}
    for at, (lineno, line) in enumerate(lines):
        if line.startswith("NODE_COORD_SECTION"):
            break
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedRecordError(f"line {lineno}: expected 'KEY: value', got {line!r}")
        header[key.strip()] = (value.strip(), lineno)
    else:
        raise InconsistentCountsError("NODE_COORD_SECTION not found")

    for field in _REQUIRED_HEADERS:
        if field not in header:
            raise MissingHeaderFieldError(f"missing header field {field!r}")
    n, m = (_parse_number(*header[key], int) for key in ("DIMENSION", "NUMBER OF ITEMS"))
    metric = header["EDGE_WEIGHT_TYPE"][0]
    if metric not in EDGE_WEIGHT_TYPES:
        raise UnknownEdgeWeightTypeError(
            f"unsupported EDGE_WEIGHT_TYPE {metric!r}; expected one of {EDGE_WEIGHT_TYPES}"
        )

    (xs, ys), fault = _records(lines[at + 1 :], n, "city", "index x y", (int, float, float), "ITEMS SECTION")
    if fault:
        raise fault
    if len(xs) != n:
        raise InconsistentCountsError(f"DIMENSION is {n} but NODE_COORD_SECTION has {len(xs)} records")

    # EOF lines after the city records are ignored.  With no items, ITEMS SECTION may be left out.
    rest = [pair for pair in lines[at + 1 + n :] if pair[1] != "EOF"]
    if rest and not rest[0][1].startswith("ITEMS SECTION"):
        raise InconsistentCountsError(f"line {rest[0][0]}: expected ITEMS SECTION, got {rest[0][1]!r}")
    records = rest[1:]
    (profits, weights, cities), fault = _records(
        records, m, "item", "index profit weight city", (int, float, float, int)
    )
    for idx, ((lineno, _), profit, weight, city) in enumerate(zip(records, profits, weights, cities), 1):
        if profit < 0:
            raise MalformedRecordError(f"line {lineno}: item profit must be non-negative")
        if weight <= 0:
            raise MalformedRecordError(f"line {lineno}: item weight must be positive")
        if city == 1:
            raise ItemAtDepotError(f"line {lineno}: item {idx} assigned to city 1")
        if not 1 <= city <= n:
            raise MalformedRecordError(f"line {lineno}: item city {city} out of range 1..{n}")
    if fault:
        raise fault
    if len(records) > len(profits):
        raise InconsistentCountsError(
            f"line {records[len(profits)][0]}: NUMBER OF ITEMS is {m} but ITEMS SECTION has more records"
        )
    if len(profits) != m:
        raise InconsistentCountsError(f"NUMBER OF ITEMS is {m} but ITEMS SECTION has {len(profits)} records")

    return ProblemInstance(
        name=header.get("PROBLEM NAME", ("unnamed",))[0],
        coords=np.column_stack((xs, ys)),
        profits=np.array(profits, dtype=np.float64),
        weights=np.array(weights, dtype=np.float64),
        item_city=np.array(cities, dtype=np.int64) - 1,
        capacity=_parse_number(*header["CAPACITY OF KNAPSACK"], float),
        min_speed=_parse_number(*header["MIN SPEED"], float),
        max_speed=_parse_number(*header["MAX SPEED"], float),
        renting_rate=_parse_number(*header["RENTING RATIO"], float),
        metric=metric,
        knapsack_type=header.get("KNAPSACK DATA TYPE", (None,))[0],
    )


def load_instance(path: str | Path) -> ProblemInstance:
    """Read and parse an instance file."""
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def format_instance(inst: ProblemInstance) -> str:
    """Render an instance in the benchmark file layout."""
    lines = [f"PROBLEM NAME: {inst.name}"]
    if inst.knapsack_type is not None:
        lines.append(f"KNAPSACK DATA TYPE: {inst.knapsack_type}")
    lines.append(f"DIMENSION: {inst.n}")
    lines.append(f"NUMBER OF ITEMS: {inst.m}")
    lines.append(f"CAPACITY OF KNAPSACK: {_num(inst.capacity)}")
    lines.append(f"MIN SPEED: {_num(inst.min_speed)}")
    lines.append(f"MAX SPEED: {_num(inst.max_speed)}")
    lines.append(f"RENTING RATIO: {_num(inst.renting_rate)}")
    lines.append(f"EDGE_WEIGHT_TYPE: {inst.metric}")
    lines.append("NODE_COORD_SECTION\t(INDEX, X, Y):")
    for i, (x, y) in enumerate(inst.coords, start=1):
        lines.append(f"{i} {_num(x)} {_num(y)}")
    lines.append("ITEMS SECTION\t(INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):")
    for j in range(inst.m):
        lines.append(
            f"{j + 1} {_num(inst.profits[j])} {_num(inst.weights[j])} {inst.item_city[j] + 1}"
        )
    return "\n".join(lines) + "\n"


def write_instance(inst: ProblemInstance, path: str | Path) -> None:
    """Write ``inst`` to ``path``; :func:`load_instance` reads it back unchanged."""
    Path(path).write_text(format_instance(inst), encoding="utf-8")


def _num(x: float) -> str:
    """Shortest lossless rendering; integral values print without a fraction."""
    x = float(x)
    if x.is_integer() and abs(x) < 2**53:
        return str(int(x))
    return repr(x)
