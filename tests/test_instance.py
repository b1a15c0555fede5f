import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittp import CEIL_2D, EUC_2D, ProblemInstance, parse_instance
from bittp.instance import (
    InconsistentCountsError,
    InstanceError,
    InvalidInstanceError,
    ItemAtDepotError,
    MalformedRecordError,
    MissingHeaderFieldError,
    UnknownEdgeWeightTypeError,
    format_instance,
)

MINIMAL = """\
PROBLEM NAME: mini
DIMENSION: 3
NUMBER OF ITEMS: 2
CAPACITY OF KNAPSACK: 5
MIN SPEED: 0.1
MAX SPEED: 1
RENTING RATIO: 1
EDGE_WEIGHT_TYPE: CEIL_2D
NODE_COORD_SECTION	(INDEX, X, Y):
1 0 0
2 3 0
3 0 4
ITEMS SECTION	(INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):
1 100 3 2
2 60 2 3
"""


def test_parse_echoes_header(toy3):
    assert toy3.name == "toy3"
    assert toy3.n == 3
    assert toy3.m == 2
    assert toy3.capacity == 5
    assert toy3.min_speed == 0.1
    assert toy3.max_speed == 1.0
    assert toy3.renting_rate == 1.0
    assert toy3.metric == CEIL_2D
    assert toy3.knapsack_type == "bounded strongly corr"
    assert list(toy3.item_city) == [1, 2]


def test_parse_minimal_document():
    inst = parse_instance(MINIMAL)
    assert inst.n == 3 and inst.m == 2
    assert inst.knapsack_type is None


def test_parse_accepts_crlf():
    inst = parse_instance(MINIMAL.replace("\n", "\r\n"))
    assert inst.n == 3 and inst.m == 2


def test_parse_accepts_trailing_eof_marker():
    inst = parse_instance(MINIMAL + "EOF\n")
    assert inst.m == 2


def test_item_at_depot_rejected():
    bad = MINIMAL.replace("1 100 3 2", "1 100 3 1")
    with pytest.raises(ItemAtDepotError):
        parse_instance(bad)


def test_count_mismatch_rejected():
    bad = MINIMAL.replace("NUMBER OF ITEMS: 2", "NUMBER OF ITEMS: 5")
    with pytest.raises(InconsistentCountsError):
        parse_instance(bad)


def test_extra_item_rejected():
    with pytest.raises(InconsistentCountsError):
        parse_instance(MINIMAL + "3 10 1 2\n")


def test_coord_count_mismatch_rejected():
    bad = MINIMAL.replace("DIMENSION: 3", "DIMENSION: 4")
    with pytest.raises(InconsistentCountsError):
        parse_instance(bad)


@pytest.mark.parametrize(
    "old, new",
    [
        ("DIMENSION: 3", "DIMENSION: 1000000000000"),
        ("NUMBER OF ITEMS: 2", "NUMBER OF ITEMS: 100000000000000"),
        ("NUMBER OF ITEMS: 2", "NUMBER OF ITEMS: -1"),
    ],
)
def test_declared_count_beyond_records_rejected(old, new):
    # Counts no array could hold: the records are read before the count is used.
    with pytest.raises(InconsistentCountsError):
        parse_instance(MINIMAL.replace(old, new))


@pytest.mark.parametrize("field", ["DIMENSION", "CAPACITY OF KNAPSACK", "MIN SPEED"])
def test_missing_header_names_field(field):
    bad = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith(field)
    )
    with pytest.raises(MissingHeaderFieldError, match=field):
        parse_instance(bad)


def test_malformed_record_names_line():
    bad = MINIMAL.replace("2 3 0", "2 three 0")
    with pytest.raises(MalformedRecordError, match="line 11"):
        parse_instance(bad)


def test_unknown_edge_weight_type():
    bad = MINIMAL.replace("CEIL_2D", "GEO")
    with pytest.raises(UnknownEdgeWeightTypeError):
        parse_instance(bad)


def test_invalid_speeds_rejected():
    bad = MINIMAL.replace("MIN SPEED: 0.1", "MIN SPEED: 2")
    with pytest.raises(InvalidInstanceError):
        parse_instance(bad)


@pytest.mark.parametrize(
    "old, new",
    [
        ("2 3 0", "2 nan 0"),
        ("2 3 0", "2 3 inf"),
        ("3 0 4", "3 -inf 4"),
        ("1 100 3 2", "1 inf 3 2"),
        ("1 100 3 2", "1 nan 3 2"),
        ("2 60 2 3", "2 60 inf 3"),
        ("2 60 2 3", "2 60 nan 3"),
        ("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: inf"),
        ("MAX SPEED: 1", "MAX SPEED: inf"),
        ("MAX SPEED: 1", "MAX SPEED: nan"),
        ("RENTING RATIO: 1", "RENTING RATIO: inf"),
        ("RENTING RATIO: 1", "RENTING RATIO: nan"),
    ],
)
def test_non_finite_values_rejected(old, new):
    with pytest.raises(InvalidInstanceError, match="finite"):
        parse_instance(MINIMAL.replace(old, new))


@pytest.mark.parametrize("x", ["2e154", "1e200"])
def test_coordinates_whose_squared_distances_overflow_rejected(x):
    """Finite coordinates whose squared differences are not finite."""
    with pytest.raises(InvalidInstanceError, match="squared distance"):
        parse_instance(MINIMAL.replace("2 3 0", f"2 {x} 0"))


def test_profit_sum_overflow_rejected():
    bad = MINIMAL.replace("1 100 3 2", "1 1e308 3 2").replace("2 60 2 3", "2 1e308 2 3")
    with pytest.raises(InvalidInstanceError, match="total item profit"):
        parse_instance(bad)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: 5e-324", "slope"),
        ("MIN SPEED: 0.1", "MIN SPEED: 1e-320", "travel times"),
    ],
)
def test_overflowing_speed_terms_rejected(old, new, message):
    """A slope (v_max - v_min) / W that overflows makes every speed NaN; a
    tiny v_min can make a travel time overflow."""
    with pytest.raises(InvalidInstanceError, match=message):
        parse_instance(MINIMAL.replace(old, new))


_FUZZ_TOKENS = [
    "0", "1", "-1", "2", "3", "4", "0.5", "-0.0", "1e400", "-1e400", "nan", "inf", "-inf",
    "1e-320", "99999999999999999999", "9" * 5000, "1_0", "0x10", "\u0663", "x", ":", "",
    "CEIL_2D", "EUC_2D", "GEO", "NODE_COORD_SECTION", "ITEMS SECTION", "EOF", "DIMENSION:",
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_mutated_minimal_raises_only_instance_errors(data):
    """Lines and tokens of MINIMAL deleted, duplicated, swapped, replaced or
    inserted: parsing either succeeds or raises an InstanceError."""
    lines = MINIMAL.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["token", "delete", "duplicate", "swap", "insert"]))
        at = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "insert" or not lines:
            words = data.draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=4))
            lines.insert(at, " ".join(words))
        elif kind == "token":
            words = lines[at].replace(":", " : ").split() or [""]
            words[data.draw(st.integers(0, len(words) - 1))] = data.draw(st.sampled_from(_FUZZ_TOKENS))
            line = " ".join(words)
            lines[at] = line.replace(" : ", ":", 1) if ":" in lines[at] else line
        elif kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    try:
        inst = parse_instance("\n".join(lines) + "\n")
    except InstanceError:
        return
    assert isinstance(inst, ProblemInstance)


def test_nonpositive_weight_rejected():
    bad = MINIMAL.replace("2 60 2 3", "2 60 0 3")
    with pytest.raises(MalformedRecordError):
        parse_instance(bad)


def test_distance_identity_and_examples(toy3):
    assert toy3.distance(0, 0) == 0
    assert toy3.distance(0, 1) == 3
    assert toy3.distance(0, 2) == 4
    assert toy3.distance(1, 2) == 5


def test_distance_ceiling():
    inst = ProblemInstance(
        name="pair",
        coords=[(0.0, 0.0), (1.0, 1.0)],
        profits=[],
        weights=[],
        item_city=[],
        capacity=1,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=0.0,
    )
    assert inst.distance(0, 1) == 2  # ceil(1.4142...)


def test_distance_rounded_metric():
    inst = ProblemInstance(
        name="pair",
        coords=[(0.0, 0.0), (1.0, 1.0)],
        profits=[],
        weights=[],
        item_city=[],
        capacity=1,
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=0.0,
        metric=EUC_2D,
    )
    assert inst.distance(0, 1) == 1  # round(1.4142...)


def test_distance_index_out_of_range(toy3):
    with pytest.raises(IndexError):
        toy3.distance(0, 3)
    with pytest.raises(IndexError):
        toy3.distance(-1, 0)


@given(st.integers(0, 2), st.integers(0, 2))
def test_distance_symmetric_nonnegative(i, j):
    inst = parse_instance(MINIMAL)
    assert inst.distance(i, j) == inst.distance(j, i) >= 0
    if i != j:
        assert inst.distance(i, j) > 0


def test_distances_from_matches_scalar(toy3):
    row = toy3.distances_from(1)
    assert [toy3.distance(1, j) for j in range(3)] == row.tolist()


def test_leg_lengths(toy3):
    assert toy3.leg_lengths(np.array([0, 1, 2])).tolist() == [3.0, 5.0, 4.0]
    assert toy3.tour_length(np.array([0, 2, 1])) == 12.0


def test_arrays_read_only(toy3):
    with pytest.raises(ValueError):
        toy3.coords[0, 0] = 9.0


def test_round_trip_identity(toy3):
    again = parse_instance(format_instance(toy3))
    assert again.name == toy3.name
    assert again.knapsack_type == toy3.knapsack_type
    assert again.metric == toy3.metric
    assert again.capacity == toy3.capacity
    assert again.min_speed == toy3.min_speed
    assert again.max_speed == toy3.max_speed
    assert again.renting_rate == toy3.renting_rate
    assert np.array_equal(again.coords, toy3.coords)
    assert np.array_equal(again.profits, toy3.profits)
    assert np.array_equal(again.weights, toy3.weights)
    assert np.array_equal(again.item_city, toy3.item_city)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_identity_generated(data):
    n = data.draw(st.integers(2, 12))
    m = data.draw(st.integers(0, 15))
    coords = data.draw(
        st.lists(
            st.tuples(
                st.floats(-1e5, 1e5, allow_nan=False).map(lambda v: round(v, 3)),
                st.floats(-1e5, 1e5, allow_nan=False).map(lambda v: round(v, 3)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    inst = ProblemInstance(
        name="gen",
        coords=coords,
        profits=data.draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m)),
        weights=data.draw(st.lists(st.integers(1, 10**6), min_size=m, max_size=m)),
        item_city=data.draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m)),
        capacity=data.draw(st.integers(1, 10**7)),
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=data.draw(st.floats(0, 100, allow_nan=False)),
    )
    again = parse_instance(format_instance(inst))
    assert np.array_equal(again.coords, inst.coords)
    assert np.array_equal(again.profits, inst.profits)
    assert np.array_equal(again.weights, inst.weights)
    assert np.array_equal(again.item_city, inst.item_city)
    assert again.capacity == inst.capacity
    assert again.renting_rate == inst.renting_rate


def test_m_zero_instance_is_legal():
    doc = """\
PROBLEM NAME: empty
DIMENSION: 2
NUMBER OF ITEMS: 0
CAPACITY OF KNAPSACK: 3
MIN SPEED: 0.2
MAX SPEED: 0.9
RENTING RATIO: 0
EDGE_WEIGHT_TYPE: CEIL_2D
NODE_COORD_SECTION	(INDEX, X, Y):
1 0 0
2 7 0
"""
    inst = parse_instance(doc)
    assert inst.m == 0 and inst.n == 2
    assert inst.distance(0, 1) == 7
