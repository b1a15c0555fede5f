"""Solver benchmark: ``bittp solve`` end to end, one fresh process per solve.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload n4461-tour --seed 3 --seconds 60 --trace 0

The seed makes the instance (``scripts/generate_instance.make_instance``,
written with ``bittp.cli.write_instance``, so parsing is measured) and is
the solver's ``--seed``.  Solves of the workload run one after another,
each in a new child process (``perfbench/child.py``), until the next one
would end after ``--seconds``; every solve's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced solves.
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics of the traced ones (see ``spans.py``), the CPU
utilisation of the untraced ones and the tracing overhead between them.

Fixed HV bounds, instance hashes and front fingerprints live in
``perfbench/reference.json``; ``perfbench/record.py`` fills in the
hashes from results that runs leave in ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

CAPACITY_INDEX = 5
RENTING_RATE = 5.0
# A run stops starting solves this long after it began, and kills a solve
# that would end past it, so that the run exits within its time limit.
RUN_LIMIT_S = 170.0
# Set-up-only children run after the solves, while the run has time left,
# until it has this many set-ups, so that setup_s is a median even where
# two solves fill the run.
MIN_SETUPS = 3


@dataclass(frozen=True)
class Workload:
    n: int
    items_per_city: int
    solve_args: tuple[str, ...]
    hv_cycle: int | None = None  # cycle whose archive gives hv_iter on a time-limited solve

    @property
    def instance(self) -> str:
        return f"n{self.n}-ipc{self.items_per_city}"

    def arg(self, flag: str) -> float | None:
        args = self.solve_args
        return float(args[args.index(flag) + 1]) if flag in args else None

    @property
    def budget(self) -> float | None:
        return self.arg("--time-limit")


WORKLOADS = {
    "n280-anytime": Workload(280, 1, ("--time-limit", "7", "--max-solutions", "100"), hv_cycle=2),
    "n4461-tour": Workload(4461, 1, ("--iterations", "1")),
}

END_TO_END = {
    "setup_s": "s",
    "cycle_s": "s",
    "solve_s": "s",
    "hv_iter": "hv",
    "hv_wall": "hv",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class CheckFailed(Exception):
    """A solve's outputs are wrong."""


@dataclass
class Solve:
    traced: bool
    probe: bool = False
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup_s: float = 0.0
    post_s: float = 0.0
    cycles: list[float] = field(default_factory=list)
    hv_iter: float = 0.0
    hv_wall: float = 0.0
    front_sha256: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    self_by_span: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "loadavg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def fixed_hv(points, bounds: dict) -> float:
    """HV under fixed bounds; points outside the box are clipped onto it."""
    import numpy as np
    from bittp.archive import ObjectiveBounds, hypervolume, normalize
    from bittp.cli import HV_REF

    if not points:
        return 0.0
    arr = np.clip(normalize(points, ObjectiveBounds(**bounds)), 0.0, 1.0)
    keep = []
    best_time = np.inf
    for g, h in arr[np.lexsort((arr[:, 1], -arr[:, 0]))]:
        if h < best_time:  # clipping can make points dominated or equal
            keep.append((g, h))
            best_time = h
    return hypervolume(keep, HV_REF)


def check_outputs(out_dir: Path, inst, max_solutions: float | None) -> list[tuple[float, float]]:
    """Front rows mutually non-dominated and at most ``max_solutions``;
    every solution feasible and priced as a re-evaluation prices it."""
    from bittp.cli import read_front_csv, read_solutions
    from bittp.evaluation import Solution, validate_solution

    points = [(g, h) for g, h, _ in read_front_csv(out_dir / "front.csv")]
    if not points:
        raise CheckFailed("front.csv is empty")
    if max_solutions is not None and len(points) > max_solutions:
        raise CheckFailed(f"front.csv has {len(points)} rows, more than {max_solutions}")
    ordered = sorted(points)
    for (g1, h1), (g2, h2) in zip(ordered, ordered[1:]):
        if h2 <= h1:
            raise CheckFailed(f"front rows ({g1}, {h1}) and ({g2}, {h2}) are not mutually non-dominated")
    entries = read_solutions(out_dir / "solutions.txt", inst)
    if [(g, h) for g, h, _, _ in entries] != points:
        raise CheckFailed("solutions.txt and front.csv list different objective vectors")
    for profit, time_, tour, plan in entries:
        try:
            validate_solution(inst, Solution(tour, plan, profit, time_))
        except ValueError as exc:
            raise CheckFailed(f"solution ({profit}, {time_}): {exc}") from None
    return points


def run_child(spec: dict, out: Path, deadline: float):
    """Run ``child.py`` on ``spec`` in ``out``, killing it at ``deadline``.

    Returns when it started and ended (monotonic clock) and its resource
    usage; raises ``CheckFailed`` if it was killed or exited with an error.
    """
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(out / "spec.json")],
            stdout=so, stderr=se, stdin=subprocess.DEVNULL, cwd=ROOT,
        )
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([fd], [], [], max(deadline - started, 0.0))
            finally:
                os.close(fd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        ended = time.monotonic()
    if not exited:
        raise CheckFailed("killed at the run's time limit")
    if proc.returncode != 0:
        tail = (out / "stderr.txt").read_text(errors="replace").strip()[-300:]
        raise CheckFailed(f"exit code {proc.returncode}: {tail}")
    return started, ended, usage


def child_spec(wl: Workload, ttp: Path, seed: int, out: Path, *, traced=False, probe=False) -> dict:
    return {
        "src": str(ROOT / "src"),
        "argv": ["solve", "--instance", str(ttp), "--seed", str(seed), "--output-dir", str(out), *wl.solve_args],
        "record": str(out / "record.json"),
        "spans": str(out / "spans.npz") if traced else None,
        "budget": wl.budget,
        "hv_cycle": wl.hv_cycle,
        "probe": probe,
    }


def run_probe(out: Path, wl: Workload, ttp: Path, seed: int, deadline: float) -> Solve:
    """Set-up alone: a child that exits when the first cycle begins."""
    out.mkdir()
    result = Solve(traced=False, probe=True)
    try:
        started, ended, _ = run_child(child_spec(wl, ttp, seed, out, probe=True), out, deadline)
        result.wall = ended - started
        result.setup_s = json.loads((out / "record.json").read_text(encoding="utf-8"))["probe_begin"] - started
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_solve(out: Path, traced: bool, wl: Workload, ttp: Path, inst, seed: int, bounds: dict,
              deadline: float) -> Solve:
    out.mkdir()
    spec = child_spec(wl, ttp, seed, out, traced=traced)
    result = Solve(traced)
    try:
        started, ended, usage = run_child(spec, out, deadline)
        result.wall = ended - started
        result.cpu = usage.ru_utime + usage.ru_stime
        result.rss_mb = usage.ru_maxrss / 1024.0
        record = json.loads((out / "record.json").read_text(encoding="utf-8"))["runs"]
        if not record or not all(r["marks"] for r in record):
            raise CheckFailed("a run finished no cycle")
        points = check_outputs(out, inst, wl.arg("--max-solutions"))
        result.front_sha256 = sha256_of(out / "front.csv")
        result.setup_s = min(r["marks"][0][1] - r["marks"][0][2] for r in record) - started
        result.post_s = ended - max(r["marks"][-1][1] for r in record)
        for r in record:
            elapsed = [m[2] for m in r["marks"]]
            result.cycles.extend(b - a for a, b in zip([0.0, *elapsed], elapsed))
        if wl.hv_cycle is None:
            result.hv_iter = result.hv_wall = fixed_hv(points, bounds)
        else:
            snap = record[0]
            if snap["at_hv_cycle"] is None or snap["within_budget"] is None:
                raise CheckFailed(f"cycle {wl.hv_cycle} did not end within the {wl.budget} s budget")
            result.hv_iter = fixed_hv([tuple(p) for p in snap["at_hv_cycle"]], bounds)
            result.hv_wall = fixed_hv([tuple(p) for p in snap["within_budget"]], bounds)
        if traced:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            recorded_spans = spans.load(spec["spans"])
            result.layers = spans.layer_metrics(recorded_spans, report["config"]["packing_attempts"])
            result.self_by_span = spans.self_by_name(recorded_spans)
            result.layers["archive.front_size"] = float(report["front_size"])
            result.layers["driver.cycles"] = float(len(result.cycles))
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_cycle(solves: list[Solve]) -> float:
    """Seconds per cycle over all cycles of ``solves``.

    A mean, not a median: on a shared host, cycles fall into fast and slow
    phases, and a median jumps between the two as their mix changes.
    """
    cycles = [c for s in solves for c in s.cycles]
    return sum(cycles) / len(cycles) if cycles else 0.0


def end_to_end(solves: list[Solve], attempted: int, failed: int) -> dict[str, float]:
    setups = [s for s in solves if s.error is None and not s.traced]
    ok = [s for s in setups if not s.probe]
    return {
        "setup_s": median(s.setup_s for s in setups),
        "cycle_s": mean_cycle(ok),
        "solve_s": median(s.wall for s in ok),
        "hv_iter": median(s.hv_iter for s in ok),
        "hv_wall": median(s.hv_wall for s in ok),
        "peak_rss_mb": median(s.rss_mb for s in ok),
        "ok_frac": 1.0 - failed / attempted,
    }


LAYER_NAMES = [*spans.layer_metrics(spans.EMPTY, 1), "archive.front_size", "driver.cycles"]


def per_layer(solves: list[Solve]) -> dict[str, float]:
    traced = [s for s in solves if s.error is None and s.traced]
    plain = [s for s in solves if s.error is None and not s.traced]
    out = {name: median(s.layers[name] for s in traced) for name in LAYER_NAMES}
    out["cli.cpu_util"] = median(s.cpu / s.wall for s in plain)
    out["cli.post_s"] = median(s.post_s for s in plain)
    out["trace.overhead_s"] = median(s.wall for s in traced) - median(s.wall for s in plain)
    plain_cycle = mean_cycle(plain)
    traced_cycle = mean_cycle(traced)
    out["trace.cycle_overhead"] = traced_cycle / plain_cycle - 1.0 if plain_cycle else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".improved", ".accepted", ".front_size", ".spans", ".cycles")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def main() -> int:
    parser = argparse.ArgumentParser(description="bittp solver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src" / "bittp" / "__init__.py"
    generator = ROOT / "scripts" / "generate_instance.py"
    if not src.is_file() or not generator.is_file():
        print(f"perfbench: {ROOT} is not a bittp checkout (needs src/bittp and scripts/)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    run_start = time.monotonic()
    env = environment()

    import numpy as np
    from bittp.cli import write_instance
    from bittp.instance import load_instance
    from generate_instance import make_instance

    wl = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    bounds = reference["hv_bounds"][args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ttp = work / "instance.ttp"
    rng = np.random.default_rng(args.seed)
    write_instance(make_instance(rng, wl.n, wl.items_per_city, CAPACITY_INDEX, RENTING_RATE), ttp)
    instance_sha256 = sha256_of(ttp)
    inst = load_instance(ttp)

    solves: list[Solve] = []
    measure_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    rounds = 0
    while True:
        solve_start = time.monotonic()
        traced = args.trace == 1 and rounds % 2 == 1
        solves.append(run_solve(work / f"solve-{rounds}", traced, wl, ttp, inst, args.seed, bounds, deadline))
        rounds += 1
        now = time.monotonic()
        step = now - solve_start
        both_kinds = args.trace == 0 or rounds >= 2
        if both_kinds and now - measure_start + step > args.seconds:
            break
        if now + step > deadline:
            break
    # Set-up probes last, in the time the solves left, so that they never
    # cost a run one of its solves.
    while args.trace == 0 and len(solves) < MIN_SETUPS and time.monotonic() - measure_start < args.seconds:
        solves.append(run_probe(work / f"probe-{len(solves)}", wl, ttp, args.seed, deadline))
    for s in solves:
        if s.error is not None:
            print(f"perfbench: {'probe' if s.probe else 'solve'} failed: {s.error}", file=sys.stderr)

    attempted = len(solves)
    failed = sum(s.error is not None for s in solves)
    metrics = per_layer(solves) if args.trace else end_to_end(solves, attempted, failed)
    units = {name: unit_of(name) for name in metrics} if args.trace else END_TO_END

    def recorded(kind: str, value: str) -> str:
        known = reference["recorded"].get(args.workload, {}).get(kind, {}).get(str(args.seed))
        if known is None:
            return "not recorded"
        return "matches the record" if known == value else f"DIFFERS from the record {known}"

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"instance {wl.instance} seed {args.seed}: sha256 {instance_sha256} ({recorded('instance_sha256', instance_sha256)})")
    fronts = sorted({s.front_sha256 for s in solves if s.error is None and not s.probe})
    if wl.budget is None:
        for sha in fronts:
            print(f"fingerprint {args.workload} seed {args.seed}: front.csv sha256 {sha} ({recorded('front_sha256', sha)})")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if args.trace:
        layers = sorted(((metrics[f"{m}.self_s"], m) for m in spans.MODULES), reverse=True)
        print("self time by layer: " + ", ".join(f"{m} {v:.3f} s" for v, m in layers))
        for s in solves:
            if s.traced and s.error is None:
                top = sorted(s.self_by_span.items(), key=lambda kv: -kv[1])[:6]
                print("self time by span: " + ", ".join(f"{name} {v:.3f} s" for name, v in top))
                break

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "env": env,
                "instance_sha256": instance_sha256,
                "front_sha256": fronts if wl.budget is None else [],
                "metrics": metrics,
                "solves": [s.__dict__ for s in solves],
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
