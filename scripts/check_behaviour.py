"""Print one sha256 per behaviour case of the solver, or compare them with a revision.

The cases are built on ``make_instance(default_rng(1), n, 1, 5, 5.0)``
from ``scripts/generate_instance.py``:

- ``tour n=N start=S``: the ``construct_tour`` tour from
  ``default_rng(S)``, and that generator's state after it; n=280 with
  S = 0-9, and n=4461 with S = 0-1.
- ``plans n=N start=S``: ``pack_tour`` on that tour for 117 alphas evenly
  spaced over [0, 1] (12 attempts, divisor 41) from a fresh
  ``default_rng(S)``: every plan, and the generator's final state.
- ``archive n=N iterations=K seed=S``: every entry of ``run(inst,
  WsmConfig(iterations=K, seed=S))``: profit, time, alpha, tour and plan;
  n=280 with K=5 and S = 1-3, and n=4461 with K=1 and S = 1-2.

A case prints as ``<case>  <sha256>``.  With ``--against REV``, REV's
``src/`` is extracted with ``git archive`` into a temporary directory, the
same cases run there in a child process, and each line ends in ``match``
or ``DIFFERS``; the script exits 1 on any difference.  The cases call only
``NeighborLists.build(inst)``, ``construct_tour(inst, rng, neighbors)``,
``TourContext(inst, tour)``, ``pack_tour(inst, ctx, alphas, attempts,
divisor, rng)``, ``run(inst, config)`` and ``Archive.entries()``, so older
revisions with those signatures can be checked too.  Each side takes about
10 s on a 2-vCPU host.

Usage (from the root of a checkout):

    python3 scripts/check_behaviour.py
    python3 scripts/check_behaviour.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOUR_STARTS = {280: range(10), 4461: range(2)}
RUNS = {280: (5, range(1, 4)), 4461: (1, range(1, 3))}
ALPHAS = np.linspace(0.0, 1.0, 117).tolist()
ATTEMPTS = 12
DIVISOR = 41


def _digest(*parts) -> str:
    """sha256 of ``parts``: arrays by their bytes, anything else by ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        data = part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def cases():
    """Yield ``(case, sha256)`` for every case, with ``bittp`` already importable."""
    from generate_instance import make_instance

    from bittp import NeighborLists, TourContext, WsmConfig, construct_tour, run
    from bittp.packing import pack_tour

    for n, starts in TOUR_STARTS.items():
        inst = make_instance(np.random.default_rng(1), n, 1, 5, 5.0)
        neighbors = NeighborLists.build(inst)
        for start in starts:
            rng = np.random.default_rng(start)
            tour = construct_tour(inst, rng, neighbors)
            yield f"tour n={n} start={start}", _digest(tour.order, _state(rng))
            rng = np.random.default_rng(start)
            plans = pack_tour(inst, TourContext(inst, tour), ALPHAS, ATTEMPTS, DIVISOR, rng)
            yield f"plans n={n} start={start}", _digest(*(p.selected for p in plans), _state(rng))
        iterations, seeds = RUNS[n]
        for seed in seeds:
            archive = run(inst, WsmConfig(iterations=iterations, seed=seed))
            parts = []
            for e in archive.entries():
                s = e.solution
                parts += [e.profit, e.time, s.alpha, s.tour.order, s.plan.selected]
            yield f"archive n={n} iterations={iterations} seed={seed}", _digest(*parts)


def _cases_at(rev: str) -> dict[str, str]:
    """The cases' digests with ``rev``'s ``src/``, computed in a child process."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
        if archive.returncode:
            sys.exit(f"check_behaviour.py: git archive {rev} src: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        child = subprocess.run(
            [sys.executable, __file__, "--src", str(Path(tmp) / "src")], capture_output=True, text=True
        )
    if child.returncode:
        sys.exit(f"check_behaviour.py: the cases failed at {rev}:\n{child.stderr}")
    return dict(line.rsplit("  ", 1) for line in child.stdout.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with the cases at this git revision")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds the bittp package")
    args = parser.parse_args()
    theirs = None if args.against is None else _cases_at(args.against)
    sys.path.insert(0, str(args.src))
    import bittp

    if Path(bittp.__file__).resolve().parent != (args.src / "bittp").resolve():
        sys.exit(f"check_behaviour.py: bittp was imported from {bittp.__file__}, not from {args.src}")
    differs = 0
    for case, sha in cases():
        if theirs is None:
            print(f"{case}  {sha}", flush=True)
            continue
        same = theirs.get(case) == sha
        differs += not same
        print(f"{case}  {sha}  {'match' if same else 'DIFFERS'}", flush=True)
    if theirs is not None:
        print(f"every case matches {args.against}" if not differs else f"{differs} cases differ from {args.against}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
