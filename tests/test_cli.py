import hashlib
import json

import numpy as np
import pytest

from bittp import total_profit, travel_time
from bittp.cli import main, read_front_csv, read_solutions, write_instance

from gen import random_instance


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


def test_solve_beta_minus_inf_parses(toy3_file, tmp_path):
    out = tmp_path / "out"
    assert _solve(toy3_file, out, "--iterations", "5", "--beta", "-inf") == 0


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
