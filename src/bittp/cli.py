"""Command-line front end.

``bittp solve`` runs the solver on an instance file and writes three
artifacts into the output directory: ``front.csv`` (the non-dominated
objective vectors, profit ascending, with the alpha in effect when each
solution was first accepted), ``solutions.txt`` (tours and packing plans,
1-based indices), and ``report.json`` (configuration echo, wall time,
front sizes, normalization bounds, final hypervolume, and a per-second
hypervolume trace).  With ``--runs k`` it makes k seeded runs one after
another, seeds ``seed`` to ``seed + k - 1``, each with ``1/k`` of
``--time-limit``, and merges their fronts in seed order; the report counts
the cycles of every run, and each trace point is the hypervolume of the
front merged so far.

``bittp hv`` scores one or more front CSVs against shared normalization
bounds and prints the pairwise percentage variation
(hv_a - hv_b) / max(hv_a, hv_b) * 100.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time as _time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .archive import Archive, ObjectiveBounds, Point, hypervolume, normalize, subset_select
from .driver import AlphaDistribution, CycleStats, WsmConfig, run
from .evaluation import PackingPlan, Solution, Tour
from .instance import InstanceError, ProblemInstance, load_instance
# The benchmark (perfbench/run.py) and the acceptance tests import write_instance from here.
from .instance import write_instance  # noqa: F401

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3

HV_REF = (0.0, 1.0)


# ---------------------------------------------------------------------------
# Front / solution / report output

def write_front_csv(path: Path, archive: Archive) -> None:
    rows = ["profit,time,alpha"]
    for entry in archive.entries():
        alpha = ""
        if entry.solution is not None and entry.solution.alpha is not None:
            alpha = repr(float(entry.solution.alpha))
        rows.append(f"{repr(entry.profit)},{repr(entry.time)},{alpha}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_front_csv(path: str | Path) -> list[tuple[float, float, float | None]]:
    """Parse a front CSV into (profit, time, alpha-or-None) rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("profit,time"):
        raise ValueError(f"{path}: expected a 'profit,time[,alpha]' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected at least 'profit,time'")
        try:
            profit = float(parts[0])
            time = float(parts[1])
            alpha = float(parts[2]) if len(parts) > 2 and parts[2].strip() else None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
        if not all(math.isfinite(x) for x in (profit, time, alpha) if x is not None):
            raise ValueError(f"{path}:{lineno}: non-finite value in row {line!r}")
        out.append((profit, time, alpha))
    return out


def write_solutions(path: Path, archive: Archive) -> None:
    lines = []
    for entry in archive.entries():
        sol: Solution = entry.solution
        lines.append(f"# {repr(entry.profit)} {repr(entry.time)}")
        lines.append("t " + " ".join(str(c + 1) for c in sol.tour.order))
        lines.append(("p " + " ".join(str(j + 1) for j in sol.plan.item_indices())).rstrip())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_solutions(
    path: str | Path, inst: ProblemInstance
) -> list[tuple[float, float, Tour, PackingPlan]]:
    """Parse a solutions file back into tours and plans (for round-trip checks)."""
    out = []
    profit = time = None
    tour = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            profit, time = (float(x) for x in line[1:].split())
        elif line.startswith("t "):
            tour = Tour(np.array([int(x) - 1 for x in line[2:].split()]))
        elif line == "p" or line.startswith("p "):
            items = [int(x) - 1 for x in line[2:].split()]
            out.append((profit, time, tour, PackingPlan.of(inst, items)))
    return out


def _validate_front(points: list[Point], label: str) -> None:
    ordered = sorted(points)
    for (g1, h1), (g2, h2) in zip(ordered, ordered[1:]):
        if not (g1 < g2 and h1 < h2):
            raise ValueError(
                f"{label}: rows ({g1}, {h1}) and ({g2}, {h2}) are not mutually non-dominated"
            )


def _hypervolume(points: list[Point], bounds: ObjectiveBounds) -> float:
    """Hypervolume of ``points`` normalized by ``bounds``, or NaN where
    normalizing overflows.

    Normalizing can give distinct points one value of an objective (a
    bound of zero span gives all of them 0), which leaves some weakly
    dominated: they add no area, so they are dropped.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        normalized = normalize(points, bounds)
        if not np.isfinite(normalized).all():
            return math.nan
        front = Archive()
        for g, h in normalized:
            front.add(g, h)
        return hypervolume(front.points(), HV_REF)


@dataclass
class RunReport:
    """Summary of one solve invocation, serialized to report.json."""

    instance: str
    config: dict
    runs: int
    wall_time: float
    cycles: int
    front_size: int
    front_size_written: int
    bounds: dict
    hypervolume: float
    trace: list[dict]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


class _TraceRecorder:
    """The ``on_cycle`` callback of every run of a solve: counts cycles and
    snapshots the front at roughly fixed intervals of one clock, which
    starts when the recorder is made.

    ``finished`` is the archive the solve merges its finished runs into.
    A snapshot holds the front of ``finished`` and the running archive
    together, so the trace never falls from one run to the next.
    """

    def __init__(self, interval: float = 1.0, finished: Archive | None = None):
        self.interval = interval
        self.finished = Archive() if finished is None else finished
        self.start = _time.perf_counter()
        self.snapshots: list[tuple[float, list[Point]]] = []
        self.cycles = 0

    def __call__(self, stats: CycleStats) -> None:
        self.cycles += 1
        elapsed = _time.perf_counter() - self.start
        if not self.snapshots or elapsed >= self.snapshots[-1][0] + self.interval:
            self.snapshots.append((elapsed, self._front(stats.archive)))

    def _front(self, running: Archive) -> list[Point]:
        if not len(self.finished):
            return running.points()
        front = Archive()
        front.merge(self.finished)
        front.merge(running)
        return front.points()

    def finalize(self, elapsed: float, archive: Archive) -> None:
        if not self.snapshots or self.snapshots[-1][0] < elapsed:
            self.snapshots.append((elapsed, archive.points()))

    def hv_trace(self, bounds: ObjectiveBounds) -> list[dict]:
        return [{"time": t, "hypervolume": _hypervolume(points, bounds)} for t, points in self.snapshots]


# ---------------------------------------------------------------------------
# solve

def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance file to solve")
    p.add_argument("--time-limit", type=float, help="wall-clock budget in seconds")
    p.add_argument(
        "--iterations", type=int, help="cycle budget (deterministic; excludes --time-limit)"
    )
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--eta", type=int, default=117, help="packing plans built per tour")
    p.add_argument("--rho", type=int, default=12, help="attempts per packing construction")
    p.add_argument("--gamma", type=int, default=41, help="divisor of the re-evaluation period")
    p.add_argument(
        "--beta",
        type=float,
        default=0.001,
        help="2-opt length tolerance factor (-inf disables the 2-opt phase)",
    )
    p.add_argument(
        "--lambda",
        dest="flip_probability",
        type=float,
        default=0.22,
        help="per-item bit-flip probability",
    )
    p.add_argument(
        "--alpha-dist",
        choices=[d.value for d in AlphaDistribution],
        default=AlphaDistribution.UNIFORM.value,
        help="distribution of the scalarization weight",
    )
    p.add_argument("--max-solutions", type=int, help="cap the written front via subset selection")
    p.add_argument("--output-dir", default=".", help="directory for front.csv/solutions.txt/report.json")
    p.add_argument("--runs", type=int, default=1, help="seeded runs, made in turn and merged; they share --time-limit")


def cmd_solve(args: argparse.Namespace) -> int:
    if (args.time_limit is None) == (args.iterations is None):
        print("solve: set exactly one of --time-limit and --iterations", file=sys.stderr)
        return USAGE_ERROR
    if args.runs < 1:
        print("solve: --runs must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if args.max_solutions is not None and args.max_solutions < 1:
        print("solve: --max-solutions must be >= 1", file=sys.stderr)
        return USAGE_ERROR

    try:
        inst = load_instance(args.instance)
    except (OSError, UnicodeError, InstanceError) as exc:
        print(f"solve: cannot read instance: {exc}", file=sys.stderr)
        return INPUT_ERROR

    try:
        config = WsmConfig(
            alpha_dist=AlphaDistribution(args.alpha_dist),
            packings_per_tour=args.eta,
            packing_attempts=args.rho,
            reeval_divisor=args.gamma,
            two_opt_tolerance=args.beta,
            flip_probability=args.flip_probability,
            time_limit=args.time_limit,
            iterations=args.iterations,
            seed=args.seed,
        )
        per_run = config
        if config.time_limit is not None:
            per_run = replace(config, time_limit=config.time_limit / args.runs)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return USAGE_ERROR

    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"solve: cannot make the output directory: {exc}", file=sys.stderr)
        return INPUT_ERROR

    merged = Archive()
    tracer = _TraceRecorder(finished=merged)
    for i in range(args.runs):
        merged.merge(run(inst, replace(per_run, seed=config.seed + i), on_cycle=tracer))
    wall = _time.perf_counter() - tracer.start
    tracer.finalize(wall, merged)

    bounds = merged.bounds
    front_size = len(merged)
    written = merged
    if args.max_solutions is not None and front_size > args.max_solutions:
        keep = subset_select(normalize(merged.points(), bounds), args.max_solutions, HV_REF)
        entries = merged.entries()
        written = Archive()
        for idx in sorted(keep):
            e = entries[idx]
            written.add(e.profit, e.time, e.solution)

    hv = _hypervolume(written.points(), bounds)
    report = RunReport(
        instance=inst.name,
        config={**asdict(config), "alpha_dist": config.alpha_dist.value},
        runs=args.runs,
        wall_time=wall,
        cycles=tracer.cycles,
        front_size=front_size,
        front_size_written=len(written),
        bounds=bounds.as_dict(),
        hypervolume=hv,
        trace=tracer.hv_trace(bounds),
    )

    write_front_csv(out_dir / "front.csv", written)
    write_solutions(out_dir / "solutions.txt", written)
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(
        f"{inst.name}: front {len(written)}/{front_size}, hypervolume {hv:.6f}, "
        f"{wall:.1f}s -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# hv

def _add_hv_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("fronts", nargs="+", help="front CSV files to score")
    p.add_argument(
        "--bounds",
        nargs=4,
        type=float,
        metavar=("PROFIT_MIN", "PROFIT_MAX", "TIME_MIN", "TIME_MAX"),
        help="normalization bounds shared by all fronts",
    )
    p.add_argument(
        "--bounds-file",
        help="JSON with profit_min/profit_max/time_min/time_max (a report.json works)",
    )


def _load_bounds(args: argparse.Namespace) -> ObjectiveBounds:
    if (args.bounds is None) == (args.bounds_file is None):
        raise _UsageError("hv: provide exactly one of --bounds and --bounds-file")
    if args.bounds is not None:
        gmin, gmax, hmin, hmax = args.bounds
    else:
        data = json.loads(Path(args.bounds_file).read_text(encoding="utf-8"))
        if isinstance(data, dict) and "bounds" in data:
            data = data["bounds"]
        if not isinstance(data, dict):
            raise ValueError(f"{args.bounds_file}: expected a JSON object holding the bounds")
        try:
            gmin, gmax, hmin, hmax = (
                float(data[key]) for key in ("profit_min", "profit_max", "time_min", "time_max")
            )
        except KeyError as exc:
            raise ValueError(f"{args.bounds_file}: missing bounds field {exc}") from None
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{args.bounds_file}: bounds must be numbers") from None
    if not all(math.isfinite(x) for x in (gmin, gmax, hmin, hmax)):
        raise ValueError("bounds must be finite")
    if gmax < gmin or hmax < hmin:
        raise ValueError("bounds must satisfy min <= max on both objectives")
    return ObjectiveBounds(gmin, gmax, hmin, hmax)


class _UsageError(Exception):
    pass


def cmd_hv(args: argparse.Namespace) -> int:
    try:
        bounds = _load_bounds(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"hv: {exc}", file=sys.stderr)
        return INPUT_ERROR

    scores: list[tuple[str, float]] = []
    for path in args.fronts:
        try:
            rows = read_front_csv(path)
            points = [(g, h) for g, h, _ in rows]
            _validate_front(points, str(path))
            with np.errstate(over="ignore", invalid="ignore"):
                normalized = normalize(points, bounds).tolist()
            for k, ((g, h), (x, y)) in enumerate(zip(points, normalized), start=1):
                if x < 0 or y > 1:
                    raise ValueError(
                        f"{path}: row {k} ({g}, {h}) lies outside the bounds: it normalizes to "
                        f"profit {x} and time {y}, and the profit must be >= 0 and the time <= 1"
                    )
            hv = _hypervolume(points, bounds)
            if not math.isfinite(hv):
                raise ValueError(f"{path}: the front lies too far outside the bounds to score")
        except (OSError, ValueError) as exc:
            print(f"hv: {exc}", file=sys.stderr)
            return INPUT_ERROR
        scores.append((str(path), hv))
        print(f"{path}: hypervolume {hv:.6f}")

    for i in range(len(scores)):
        for j in range(i + 1, len(scores)):
            (name_a, hv_a), (name_b, hv_b) = scores[i], scores[j]
            top = max(hv_a, hv_b)
            variation = 0.0 if top == 0 else (hv_a - hv_b) / top * 100.0
            print(f"variation {name_a} vs {name_b}: {variation:.3f}%")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bittp",
        description="Weighted-sum solver for the bi-objective traveling thief problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_solve_args(sub.add_parser("solve", help="solve an instance and write front files"))
    _add_hv_args(sub.add_parser("hv", help="score front CSVs by hypervolume"))
    return parser


# Options whose values may be negative numbers, and how many values each takes.
_NUMERIC_OPTIONS = {"--beta": 1, "--bounds": 4}


def _protect_negative_values(argv: list[str]) -> list[str]:
    """Let the values of ``--beta`` and ``--bounds`` be negative numbers in
    any form ``float`` reads, such as '-1e3' or '-inf'.

    argparse reads a token that begins with '-' as an option name unless it
    looks like '-5' or '-0.5', so such a value is passed on with a leading
    space, which ``float`` ignores.  '--bounds=-1e3 0 0 1' is split into
    '--bounds' and its first value, as argparse takes only one value after
    '='.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        name, eq, first = argv[i].partition("=")
        count = _NUMERIC_OPTIONS.get(name)
        if count is None:
            out.append(argv[i])
            i += 1
            continue
        values = ([first] if eq else []) + argv[i + 1 : i + 1 + count - len(eq)]
        out.append(name)
        out.extend(" " + value if value.startswith("-") and _is_number(value) else value for value in values)
        i += 1 + count - len(eq)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_protect_negative_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_hv(args)
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"bittp: internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
