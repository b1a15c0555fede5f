"""Problem instances: parsing, writing, validation, and the distance metric.

An instance couples a set of cities (a TSP layout) with a set of items
(a knapsack), a speed range for the thief, and a renting rate that prices
travel time.  Instance files use the de-facto benchmark layout: ``KEY:
value`` header lines followed by ``NODE_COORD_SECTION`` and ``ITEMS
SECTION``.  Files index cities and items from 1; internally everything is
0-based and contiguous, with city 0 as the start/end of every tour.
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


def _round_distances(raw: np.ndarray, metric: str) -> np.ndarray:
    if metric == CEIL_2D:
        return np.ceil(raw)
    return np.floor(raw + 0.5)


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
        if not math.isfinite(n * (math.sqrt(diagonal2) + 1) / self.min_speed):
            raise InvalidInstanceError("travel times must be finite: n * diagonal / min speed overflows")
        if m:
            if (profits < 0).any():
                raise InvalidInstanceError("item profits must be non-negative")
            if (weights <= 0).any():
                raise InvalidInstanceError("item weights must be positive")
            if (item_city == 0).any():
                raise ItemAtDepotError("items may not be assigned to the first city")
            if ((item_city < 0) | (item_city >= n)).any():
                raise InvalidInstanceError("item home city out of range")

        for arr in (coords, profits, weights, item_city):
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
        dx = self.coords[i, 0] - self.coords[j, 0]
        dy = self.coords[i, 1] - self.coords[j, 1]
        raw = math.sqrt(dx * dx + dy * dy)
        if self.metric == CEIL_2D:
            return math.ceil(raw)
        return math.floor(raw + 0.5)

    def distances_from(self, i: int, to: np.ndarray | None = None) -> np.ndarray:
        """Rounded distances from city ``i`` to ``to`` (default: all cities)."""
        return self.pair_distances(i, slice(None) if to is None else to)

    def pair_distances(self, p, q) -> np.ndarray:
        """Rounded distances between the cities ``p`` and ``q`` (broadcast
        index arrays); each is symmetric bit for bit."""
        dx = self.coords[q, 0] - self.coords[p, 0]
        dy = self.coords[q, 1] - self.coords[p, 1]
        return _round_distances(np.sqrt(dx * dx + dy * dy), self.metric)

    def leg_lengths(self, order: np.ndarray) -> np.ndarray:
        """Distances of consecutive legs of the cyclic tour ``order``.

        Entry ``i`` is the distance from ``order[i]`` to ``order[(i+1) % n]``.
        """
        pts = self.coords[order]
        nxt = np.roll(pts, -1, axis=0)
        dx = pts[:, 0] - nxt[:, 0]
        dy = pts[:, 1] - nxt[:, 1]
        return _round_distances(np.sqrt(dx * dx + dy * dy), self.metric)

    def tour_length(self, order: np.ndarray) -> float:
        """Total cyclic length of the tour ``order``."""
        return float(self.leg_lengths(order).sum())


def _parse_number(text: str, lineno: int, kind: type) -> float | int:
    try:
        return kind(text)
    except ValueError:
        raise MalformedRecordError(f"line {lineno}: expected a number, got {text!r}") from None


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance document (LF or CRLF) into a :class:`ProblemInstance`."""
    lines = text.splitlines()
    header: dict[str, tuple[str, int]] = {}
    pos = 0
    n_lines = len(lines)

    while pos < n_lines:
        line = lines[pos].strip()
        if not line:
            pos += 1
            continue
        if line.startswith("NODE_COORD_SECTION"):
            break
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedRecordError(f"line {pos + 1}: expected 'KEY: value', got {line!r}")
        header[key.strip()] = (value.strip(), pos + 1)
        pos += 1
    else:
        raise InconsistentCountsError("NODE_COORD_SECTION not found")

    for field in _REQUIRED_HEADERS:
        if field not in header:
            raise MissingHeaderFieldError(f"missing header field {field!r}")

    n = int(_parse_number(header["DIMENSION"][0], header["DIMENSION"][1], int))
    m = int(_parse_number(header["NUMBER OF ITEMS"][0], header["NUMBER OF ITEMS"][1], int))
    metric = header["EDGE_WEIGHT_TYPE"][0]
    if metric not in EDGE_WEIGHT_TYPES:
        raise UnknownEdgeWeightTypeError(
            f"unsupported EDGE_WEIGHT_TYPE {metric!r}; expected one of {EDGE_WEIGHT_TYPES}"
        )

    # Records are collected before the declared counts are trusted: a header
    # may declare more records than the file holds, or than memory holds.
    pos += 1  # past NODE_COORD_SECTION
    coords: list[tuple[float, float]] = []
    seen = 0
    while pos < n_lines and seen < n:
        line = lines[pos].strip()
        if not line:
            pos += 1
            continue
        if line.startswith("ITEMS SECTION"):
            break
        parts = line.split()
        if len(parts) != 3:
            raise MalformedRecordError(f"line {pos + 1}: expected 'index x y', got {line!r}")
        idx = int(_parse_number(parts[0], pos + 1, int))
        if idx != seen + 1:
            raise MalformedRecordError(f"line {pos + 1}: city index {idx}, expected {seen + 1}")
        coords.append((_parse_number(parts[1], pos + 1, float), _parse_number(parts[2], pos + 1, float)))
        seen += 1
        pos += 1
    if seen != n:
        raise InconsistentCountsError(f"DIMENSION is {n} but NODE_COORD_SECTION has {seen} records")

    # Locate ITEMS SECTION (optional when m == 0).
    while pos < n_lines and lines[pos].strip() in ("", "EOF"):
        pos += 1
    if pos < n_lines:
        if not lines[pos].strip().startswith("ITEMS SECTION"):
            if m == 0:
                raise InconsistentCountsError(
                    f"line {pos + 1}: unexpected content after NODE_COORD_SECTION"
                )
            raise InconsistentCountsError(
                f"line {pos + 1}: expected ITEMS SECTION, got {lines[pos].strip()!r}"
            )
        pos += 1
    elif m > 0:
        raise InconsistentCountsError(f"NUMBER OF ITEMS is {m} but ITEMS SECTION is missing")

    profits: list[float] = []
    weights: list[float] = []
    item_city: list[int] = []
    seen = 0
    while pos < n_lines:
        line = lines[pos].strip()
        if not line:
            pos += 1
            continue
        if line == "EOF":
            pos += 1
            continue
        if seen >= m:
            raise InconsistentCountsError(
                f"line {pos + 1}: NUMBER OF ITEMS is {m} but ITEMS SECTION has more records"
            )
        parts = line.split()
        if len(parts) != 4:
            raise MalformedRecordError(
                f"line {pos + 1}: expected 'index profit weight city', got {line!r}"
            )
        idx = int(_parse_number(parts[0], pos + 1, int))
        if idx != seen + 1:
            raise MalformedRecordError(f"line {pos + 1}: item index {idx}, expected {seen + 1}")
        profit = _parse_number(parts[1], pos + 1, float)
        weight = _parse_number(parts[2], pos + 1, float)
        city = int(_parse_number(parts[3], pos + 1, int))
        if profit < 0:
            raise MalformedRecordError(f"line {pos + 1}: item profit must be non-negative")
        if weight <= 0:
            raise MalformedRecordError(f"line {pos + 1}: item weight must be positive")
        if city == 1:
            raise ItemAtDepotError(f"line {pos + 1}: item {idx} assigned to city 1")
        if not 1 <= city <= n:
            raise MalformedRecordError(f"line {pos + 1}: item city {city} out of range 1..{n}")
        profits.append(profit)
        weights.append(weight)
        item_city.append(city - 1)
        seen += 1
        pos += 1
    if seen != m:
        raise InconsistentCountsError(f"NUMBER OF ITEMS is {m} but ITEMS SECTION has {seen} records")

    return ProblemInstance(
        name=header.get("PROBLEM NAME", ("unnamed", 0))[0],
        coords=np.array(coords, dtype=np.float64).reshape(-1, 2),
        profits=np.array(profits, dtype=np.float64),
        weights=np.array(weights, dtype=np.float64),
        item_city=np.array(item_city, dtype=np.int64),
        capacity=float(_parse_number(*header["CAPACITY OF KNAPSACK"][:2], kind=float)),
        min_speed=float(_parse_number(*header["MIN SPEED"][:2], kind=float)),
        max_speed=float(_parse_number(*header["MAX SPEED"][:2], kind=float)),
        renting_rate=float(_parse_number(*header["RENTING RATIO"][:2], kind=float)),
        metric=metric,
        knapsack_type=header.get("KNAPSACK DATA TYPE", (None, 0))[0],
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
