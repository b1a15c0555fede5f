import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bittp import Solution, total_profit, travel_time, validate_solution
from bittp.cli import main, read_front_csv, read_solutions
from bittp.instance import load_instance, write_instance

from gen import random_instance
from test_instance import MINIMAL


@pytest.fixture
def toy3_file(toy3, tmp_path):
    path = tmp_path / "toy3.ttp"
    write_instance(toy3, path)
    return path


def _solve(toy3_file, out_dir, *extra):
    return main(
        [
            "solve",
            "--instance",
            str(toy3_file),
            "--output-dir",
            str(out_dir),
            *extra,
        ]
    )


def test_solve_happy_path_writes_three_files(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--iterations", "10", "--seed", "1") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "front.csv",
        "report.json",
        "solutions.txt",
    ]


def test_solve_time_limit_mode(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--time-limit", "0.5", "--seed", "1") == 0
    rows = read_front_csv(out / "front.csv")
    assert len(rows) >= 1


def test_front_rows_sorted_and_non_dominated(toy3_file, tmp_path, toy3):
    out = tmp_path / "out"
    _solve(toy3_file, out, "--iterations", "15", "--seed", "2")
    rows = read_front_csv(out / "front.csv")
    profits = [g for g, _, _ in rows]
    times = [h for _, h, _ in rows]
    assert profits == sorted(profits)
    assert times == sorted(times)
    for g, h, alpha in rows:
        assert alpha is None or 0.0 <= alpha <= 1.0


def test_solution_file_round_trips(toy3_file, tmp_path, toy3):
    out = tmp_path / "out"
    _solve(toy3_file, out, "--iterations", "15", "--seed", "2")
    sols = read_solutions(out / "solutions.txt", toy3)
    assert sols
    for profit, time, tour, plan in sols:
        assert total_profit(toy3, plan) == pytest.approx(profit, rel=1e-6)
        assert travel_time(toy3, tour, plan) == pytest.approx(time, rel=1e-6)


@pytest.mark.parametrize("seed", [3, 7, 47, 63, 66])
def test_solve_fractional_weights_writes_valid_plans(tmp_path, seed):
    """Weights in tenths: a plan that fits by the running sums of the greedy
    or of a bit flip can exceed the capacity by an ulp when summed in index
    order, as ``PackingPlan`` sums it.  Each seed made such a plan while
    only the running sums were checked: the packer on 3 and 7, the bit
    flips on 3, 47, 63 and 66."""
    inst = replace(
        random_instance(np.random.default_rng(seed), 7, 21),
        weights=np.random.default_rng(seed).integers(1, 10, size=21) / 10,
        capacity=5.3,
    )
    path = tmp_path / "frac.ttp"
    write_instance(inst, path)
    inst = load_instance(path)
    assert _solve(path, tmp_path / "out", "--iterations", "20", "--seed", "0") == 0
    sols = read_solutions(tmp_path / "out" / "solutions.txt", inst)
    assert sols
    for profit, time, tour, plan in sols:
        validate_solution(inst, Solution(tour, plan, profit, time))


def test_max_solutions_caps_front(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--iterations", "15", "--seed", "1", "--max-solutions", "2") == 0
    rows = read_front_csv(out / "front.csv")
    assert len(rows) <= 2
    report = json.loads((out / "report.json").read_text())
    assert report["front_size_written"] <= 2 <= report["front_size"]


def test_report_contents(toy3_file, tmp_path):
    out = tmp_path / "out"
    _solve(toy3_file, out, "--iterations", "12", "--seed", "5")
    report = json.loads((out / "report.json").read_text())
    assert report["instance"] == "toy3"
    assert report["config"]["packings_per_tour"] == 117
    assert report["cycles"] == 12
    assert report["front_size"] == report["front_size_written"] == len(
        read_front_csv(out / "front.csv")
    )
    assert set(report["bounds"]) == {"profit_min", "profit_max", "time_min", "time_max"}
    trace = report["trace"]
    assert trace
    times = [t["time"] for t in trace]
    hvs = [t["hypervolume"] for t in trace]
    assert times == sorted(times) and len(set(times)) == len(times)
    assert all(b >= a - 1e-15 for a, b in zip(hvs, hvs[1:]))
    assert report["hypervolume"] == pytest.approx(hvs[-1])


def test_missing_instance_is_input_error(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "missing.ttp"), "--iterations", "3"])
    assert rc == 2
    assert "No such file" in capsys.readouterr().err


def test_malformed_instance_is_input_error(tmp_path):
    bad = tmp_path / "bad.ttp"
    bad.write_text("DIMENSION: 3\n")
    assert main(["solve", "--instance", str(bad), "--iterations", "3"]) == 2


def test_huge_declared_count_is_input_error(toy3_file, tmp_path, capsys):
    text = toy3_file.read_text()
    bad = tmp_path / "huge.ttp"
    bad.write_text(text.replace("DIMENSION: 3", "DIMENSION: 1000000000000"))
    assert main(["solve", "--instance", str(bad), "--iterations", "3"]) == 2
    assert "DIMENSION is 1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [("2 3 0", "2 nan 0"), ("3 0 4", "3 0 inf"), ("1 100 3 2", "1 inf 3 2"), ("RENTING RATIO: 1", "RENTING RATIO: nan")],
)
def test_non_finite_instance_is_input_error(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.ttp"
    bad.write_text(MINIMAL.replace(old, new))
    assert main(["solve", "--instance", str(bad), "--iterations", "1", "--output-dir", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("2 3 0", "2 2e154 0")], "squared distance"),
        ([("1 100 3 2", "1 1e308 3 2"), ("2 60 2 3", "2 1e308 2 3")], "total item profit"),
        ([("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: 5e-324")], "slope"),
        ([("MIN SPEED: 0.1", "MIN SPEED: 1e-320")], "travel times"),
        ([("RENTING RATIO: 1", "RENTING RATIO: 1e308")], "renting rate"),
    ],
)
def test_overflowing_instance_is_input_error(tmp_path, capsys, edits, message):
    text = MINIMAL
    for old, new in edits:
        text = text.replace(old, new)
    bad = tmp_path / "bad.ttp"
    bad.write_text(text)
    assert main(["solve", "--instance", str(bad), "--iterations", "1", "--output-dir", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_usage_errors(toy3_file, tmp_path):
    out = str(tmp_path / "o")
    # neither / both budgets
    assert _solve(toy3_file, out) == 1
    assert _solve(toy3_file, out, "--iterations", "3", "--time-limit", "1") == 1
    # bad flag value
    assert main(["solve", "--nope"]) == 1
    # unknown subcommand
    assert main(["frobnicate"]) == 1
    # bad config value propagates as usage error
    assert _solve(toy3_file, out, "--iterations", "3", "--lambda", "1.5") == 1


def test_solve_bad_arguments_exit_1_or_2(toy3_file, tmp_path, capsys):
    """A negative seed and a NaN beta are usage errors; an output directory
    that cannot be made, under or at an existing file, is an input error."""
    assert _solve(toy3_file, tmp_path / "a", "--iterations", "1", "--seed", "-1") == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert _solve(toy3_file, tmp_path / "b", "--iterations", "1", "--beta", "nan") == 1
    assert "NaN" in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        assert _solve(toy3_file, out, "--iterations", "1") == 2
        assert "cannot make the output directory" in capsys.readouterr().err


def test_solve_tiny_time_limit_writes_a_scorable_front(toy3_file, tmp_path, capsys):
    """A time limit below one cycle still runs one: the front is not empty,
    report.json is strict JSON with finite bounds, and ``bittp hv`` scores
    the front against it."""
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--time-limit", "1e-9") == 0
    assert len(read_front_csv(out / "front.csv")) >= 1

    def no_constant(name):
        raise ValueError(f"report.json holds {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    assert report["cycles"] == 1
    assert all(math.isfinite(value) for value in report["bounds"].values())
    assert main(["hv", str(out / "front.csv"), "--bounds-file", str(out / "report.json")]) == 0


def test_solve_beta_minus_inf_parses(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--iterations", "5", "--beta", "-inf") == 0
    assert _solve(toy3_file, tmp_path / "glued", "--iterations", "5", "--beta=-inf") == 0


def test_determinism_byte_identical_front(toy3_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    _solve(toy3_file, out_a, "--iterations", "10", "--seed", "9")
    _solve(toy3_file, out_b, "--iterations", "10", "--seed", "9")
    assert (out_a / "front.csv").read_bytes() == (out_b / "front.csv").read_bytes()


def test_multiple_runs_merge(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--iterations", "6", "--seed", "3", "--runs", "3") == 0
    rows = read_front_csv(out / "front.csv")
    profits = [g for g, _, _ in rows]
    assert profits == sorted(profits)
    report = json.loads((out / "report.json").read_text())
    assert report["runs"] == 3
    assert report["cycles"] == 18  # every run's cycles, not run 0's
    times = [t["time"] for t in report["trace"]]
    hvs = [t["hypervolume"] for t in report["trace"]]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(b >= a for a, b in zip(hvs, hvs[1:]))
    assert hvs[-1] == report["hypervolume"]


def test_runs_share_the_time_limit(toy3_file, tmp_path, monkeypatch):
    import bittp.cli

    solver_run = bittp.cli.run
    calls = []

    def recorded_run(inst, config, on_cycle=None):
        calls.append((config.time_limit, config.seed))
        return solver_run(inst, replace(config, time_limit=None, iterations=1), on_cycle)

    monkeypatch.setattr(bittp.cli, "run", recorded_run)
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--time-limit", "0.5", "--seed", "7", "--runs", "2") == 0
    assert calls == [(0.25, 7), (0.25, 8)]
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["time_limit"] == 0.5
    assert report["cycles"] == 2


def test_hv_command_identical_fronts(tmp_path, capsys):
    front = tmp_path / "f.csv"
    front.write_text("profit,time,alpha\n0.0,10.0,\n50.0,20.0,0.5\n100.0,30.0,1.0\n")
    rc = main(["hv", str(front), str(front), "--bounds", "0", "100", "10", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variation" in out and "0.000%" in out


def test_hv_command_derived_variation(tmp_path, capsys):
    # under bounds g in [0,1], h in [0,1]: single points with known hypervolume
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("profit,time\n0.75,0.2\n")  # hv = 0.75 * 0.8 = 0.6
    b.write_text("profit,time\n0.5,0.2\n")  # hv = 0.5 * 0.8 = 0.4
    rc = main(["hv", str(a), str(b), "--bounds", "0", "1", "0", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypervolume 0.600000" in out
    assert "hypervolume 0.400000" in out
    assert "33.333%" in out


def test_hv_command_dominated_row_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("profit,time\n10.0,5.0\n8.0,6.0\n")  # second row dominated
    rc = main(["hv", str(bad), "--bounds", "0", "10", "0", "10"])
    assert rc == 2
    assert "non-dominated" in capsys.readouterr().err


def test_hv_command_equal_profit_rows_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("profit,time\n3.0,2.0\n3.0,4.0\n")  # second row dominated
    assert main(["hv", str(bad), "--bounds", "0", "10", "0", "10"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "(3.0, 2.0)" in err and "(3.0, 4.0)" in err


@pytest.mark.parametrize(
    "bounds, hv",
    [
        (["0", "10", "5", "5"], "0.300000"),  # both times normalize to 0
        (["2", "2", "0", "10"], "0.000000"),  # both profits normalize to 0
    ],
)
def test_hv_command_zero_span_bounds(tmp_path, capsys, bounds, hv):
    """A bound of zero span (as an m = 0 solve reports) maps every point to
    one value of that objective; the points it leaves dominated add nothing."""
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,2.0\n3.0,4.0\n")
    assert main(["hv", str(front), "--bounds", *bounds]) == 0
    assert f"hypervolume {hv}" in capsys.readouterr().out


def test_hv_command_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("profit,time\nten,5.0\n")
    assert main(["hv", str(bad), "--bounds", "0", "10", "0", "10"]) == 2
    nothdr = tmp_path / "nothdr.csv"
    nothdr.write_text("1,2\n")
    assert main(["hv", str(nothdr), "--bounds", "0", "10", "0", "10"]) == 2


def test_hv_command_bounds_file(tmp_path, toy3_file, capsys):
    out = tmp_path / "out"
    _solve(toy3_file, out, "--iterations", "10", "--seed", "1")
    rc = main(["hv", str(out / "front.csv"), "--bounds-file", str(out / "report.json")])
    assert rc == 0
    printed = capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert f"hypervolume {report['hypervolume']:.6f}" in printed


@pytest.mark.parametrize("content", ["5", "[1, 2]", '"bounds"', "null", '{"bounds": 5}'])
def test_hv_command_bounds_file_not_an_object(tmp_path, capsys, content):
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,1.0\n")
    bounds = tmp_path / "b.json"
    bounds.write_text(content)
    assert main(["hv", str(front), "--bounds-file", str(bounds)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_hv_command_bounds_file_not_numbers(tmp_path, capsys):
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,1.0\n")
    bounds = tmp_path / "b.json"
    bounds.write_text('{"profit_min": [0], "profit_max": 1, "time_min": 0, "time_max": 1}')
    assert main(["hv", str(front), "--bounds-file", str(bounds)]) == 2
    assert "bounds must be numbers" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["nan,3.0", "1.0,inf", "1.0,3.0,nan", "-inf,3.0,0.5"])
def test_non_finite_front_row_rejected(tmp_path, capsys, row):
    front = tmp_path / "f.csv"
    front.write_text(f"profit,time,alpha\n{row}\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_front_csv(front)
    assert main(["hv", str(front), "--bounds", "0", "10", "0", "10"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [[0, math.nan, 0, 1], [0, 1, -math.inf, 1], [10**400, 1, 0, 1]])
def test_hv_command_bounds_must_be_finite_numbers(tmp_path, bounds):
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,1.0\n")
    path = tmp_path / "b.json"
    path.write_text(json.dumps(dict(zip(("profit_min", "profit_max", "time_min", "time_max"), bounds))))
    assert main(["hv", str(front), "--bounds-file", str(path)]) == 2


@pytest.mark.parametrize(
    "bounds, code",
    [
        (["--bounds", "-1e3", "100", "0", "10"], 0),
        (["--bounds=-1e3", "100", "0", "10"], 0),
        (["--bounds", "0", "100", "-1E+1", "10"], 0),
        (["--bounds", "-inf", "100", "0", "10"], 2),
        (["--bounds=-inf", "100", "0", "10"], 2),
    ],
)
def test_hv_command_negative_bounds_in_any_float_form(tmp_path, capsys, bounds, code):
    """argparse alone reads '-1e3' and '-inf' as option names (exit 1)."""
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,1.0\n")
    assert main(["hv", str(front), *bounds]) == code
    if code == 2:
        assert "bounds must be finite" in capsys.readouterr().err


def test_hv_command_front_too_far_outside_bounds(tmp_path, capsys):
    """Normalizing 1e308 against bounds of +-1e308 overflows: an input
    error, not a NaN hypervolume."""
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1e308,-1e308\n")
    path = tmp_path / "b.json"
    path.write_text('{"profit_min": -1e308, "profit_max": 1e308, "time_min": -1e308, "time_max": 1e308}')
    assert main(["hv", str(front), "--bounds-file", str(path)]) == 2
    assert "too far outside the bounds" in capsys.readouterr().err


def test_hv_command_names_the_first_row_outside_the_bounds(tmp_path, capsys):
    front = tmp_path / "a.csv"
    front.write_text("profit,time\n1,2\n3,4\n")
    assert main(["hv", str(front), "--bounds", "2", "10", "0", "10"]) == 2
    err = capsys.readouterr().err
    assert f"{front}: row 1 (1.0, 2.0) lies outside the bounds" in err
    assert main(["hv", str(front), "--bounds", "0", "10", "0", "3"]) == 2
    assert f"{front}: row 2 (3.0, 4.0) lies outside the bounds" in capsys.readouterr().err


def test_hv_command_usage_errors(tmp_path):
    front = tmp_path / "f.csv"
    front.write_text("profit,time\n1.0,1.0\n")
    assert main(["hv", str(front)]) == 1  # no bounds at all
    assert (
        main(
            [
                "hv",
                str(front),
                "--bounds",
                "0",
                "1",
                "0",
                "1",
                "--bounds-file",
                "x.json",
            ]
        )
        == 1
    )


def test_python_dash_m_entry(toy3_file, tmp_path):
    import subprocess
    import sys

    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "bittp",
            "solve",
            "--instance",
            str(toy3_file),
            "--iterations",
            "3",
            "--output-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "front.csv").exists()


# sha256 of front.csv for random_instance(default_rng(5), 60, 120) solved with
# --seed 3 --iterations 2.  It pins the solver's output across versions: a
# change that moves it changes the behaviour fingerprint and must say why.
# The floats come from numpy and the platform's libm, so another platform
# may print other digits.
GOLDEN_FRONT_SHA256 = "c1eebefcbf46ce9519930d3627e90620fa5a7c1dc4052b16406fc8ca113e48b6"


def test_golden_front_fingerprint(tmp_path):
    inst = random_instance(np.random.default_rng(5), 60, 120)
    path = tmp_path / "golden.ttp"
    write_instance(inst, path)
    out = tmp_path / "out"
    assert main(
        ["solve", "--instance", str(path), "--iterations", "2", "--seed", "3", "--output-dir", str(out)]
    ) == 0
    assert hashlib.sha256((out / "front.csv").read_bytes()).hexdigest() == GOLDEN_FRONT_SHA256


def _is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


_MINIMAL_WORDS = [line.split(" ") for line in MINIMAL.splitlines()]
# (line, word) of every number in MINIMAL: header values, indices and records
_NUMBER_SPOTS = [
    (row, col) for row, words in enumerate(_MINIMAL_WORDS) for col, word in enumerate(words) if _is_number(word)
]
_SOLVE_FUZZ_VALUES = [
    "1e308", "-1e308", "2e154", "1e154", "1e-320", "5e-324", "0", "-0", "-1", "-0.5", "0.5", "1", "2", "7", "1e9",
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_NUMBER_SPOTS), st.sampled_from(_SOLVE_FUZZ_VALUES)), min_size=1, max_size=4))
@example(edits=[((10, 1), "2e154")])  # city 2 at x = 2e154: squared distances overflow
@example(edits=[((13, 1), "1e308"), ((14, 1), "1e308")])  # the total profit overflows
@example(edits=[((3, 3), "5e-324")])  # capacity 5e-324: the speed's slope overflows
@example(edits=[((6, 2), "1e308")])  # renting rate 1e308: the rent of a travel time overflows
def test_solve_mutated_minimal_end_to_end(tmp_path, edits):
    """Numbers of MINIMAL replaced by extreme, tiny, zero or negative
    values: ``bittp solve`` exits 0, 1 or 2, never 3, and a front it
    writes scores with ``bittp hv`` against its own report's bounds."""
    words = [list(line) for line in _MINIMAL_WORDS]
    for (row, col), value in edits:
        words[row][col] = value
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    instance = out / "mutated.ttp"
    instance.write_text("\n".join(" ".join(line) for line in words) + "\n")
    rc = main(["solve", "--instance", str(instance), "--iterations", "1", "--output-dir", str(out)])
    assert rc in (0, 1, 2)
    if rc == 0:
        assert main(["hv", str(out / "front.csv"), "--bounds-file", str(out / "report.json")]) == 0


def test_solve_zero_carry_distance_is_silent(tmp_path):
    """City 2 at the depot's point: an item there can be carried no
    distance, and its score is inf without a warning on stderr."""
    import subprocess
    import sys

    instance = tmp_path / "zero_carry.ttp"
    instance.write_text(MINIMAL.replace("\n2 3 0\n", "\n2 0 0\n"))
    proc = subprocess.run(
        [sys.executable, "-m", "bittp", "solve", "--instance", str(instance), "--iterations", "3",
         "--output-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


_HV_FRONT = "profit,time,alpha\n0.0,10.0,\n50.0,20.0,0.5\n100.0,30.0,1.0\n"
_HV_BOUNDS = {"profit_min": 0, "profit_max": 100, "time_min": 10, "time_max": 30}
_HV_FUZZ_TEXT = [
    "0", "-0", "1", "-1", "0.5", "1e308", "-1e308", "1e400", "-1e400", "5e-324", "nan", "inf", "-inf",
    "1" + "0" * 400, "", " ", "x", ",", "\udcff", "1,2", "true", "null", "[]", "{}", '"1"',
]
_HV_FUZZ_JSON = [
    0, -1, 0.5, 1e308, -1e308, 5e-324, 10**400, -(10**400), float("nan"), float("inf"), float("-inf"),
    True, None, "1", "x", [], [1], {}, {"bounds": 1},
]
_hv_text_edit = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 80),
    st.integers(0, 6),
    st.sampled_from(_HV_FUZZ_TEXT),
)


def _edit_text(text, edits):
    for kind, at, width, value in edits:
        at = min(at, len(text))
        if kind == "replace":
            text = text[:at] + value + text[at + width :]
        elif kind == "insert":
            text = text[:at] + value + text[at:]
        else:
            text = text[:at] + text[at + width :]
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    front_edits=st.lists(_hv_text_edit, max_size=4),
    bound_values=st.dictionaries(st.sampled_from(sorted(_HV_BOUNDS)), st.sampled_from(_HV_FUZZ_JSON), max_size=4),
    bound_drops=st.sets(st.sampled_from(sorted(_HV_BOUNDS))),
    nest=st.booleans(),
    bounds_edits=st.lists(_hv_text_edit, max_size=2),
    cli_bounds=st.none() | st.lists(st.sampled_from(_HV_FUZZ_TEXT[:14]), min_size=4, max_size=4),
)
def test_hv_mutated_inputs(tmp_path, capsys, front_edits, bound_values, bound_drops, nest, bounds_edits, cli_bounds):
    """Front CSVs and bounds files edited at random, bounds given on the
    command line as extreme or malformed numbers: ``bittp hv`` exits 0, 1
    or 2, never 3, and a hypervolume it prints is a finite number."""
    bounds = {key: value for key, value in {**_HV_BOUNDS, **bound_values}.items() if key not in bound_drops}
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    front = out / "front.csv"
    front.write_bytes(_edit_text(_HV_FRONT, front_edits).encode("utf-8", "surrogateescape"))
    bounds_file = out / "bounds.json"
    text = json.dumps({"bounds": bounds} if nest else bounds)
    bounds_file.write_bytes(_edit_text(text, bounds_edits).encode("utf-8", "surrogateescape"))
    args = ["--bounds", *cli_bounds] if cli_bounds else ["--bounds-file", str(bounds_file)]
    capsys.readouterr()
    rc = main(["hv", str(front), str(front), *args])
    assert rc in (0, 1, 2)
    if rc == 0:
        for line in capsys.readouterr().out.splitlines():
            assert math.isfinite(float(line.rsplit(" ", 1)[1].rstrip("%")))
