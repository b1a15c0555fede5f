"""Check the behaviour fingerprints recorded in ``perfbench/reference.json``.

For each seed and each benchmark workload, the instance is built the way
``perfbench/run.py`` builds it: ``make_instance`` from the seed, written
with ``write_instance``, then read back with ``load_instance``.  Its
``.ttp`` sha256 is compared with the record, and the parsed instance must
write back byte for byte.  A workload with a fixed cycle budget is also
solved in this process with the workload's arguments and ``--seed``, and
its ``front.csv`` sha256 is compared with the record.  One line is
printed per seed.  The reference file is only read.

Usage (from the root of a checkout):

    python3 scripts/check_fingerprints.py 1 2 3

Exits 1 if any fingerprint differs from its record or is not recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402  perfbench/run.py: workloads and instance constants
from generate_instance import make_instance  # noqa: E402

from bittp.cli import main as bittp_main  # noqa: E402
from bittp.instance import format_instance, load_instance, write_instance  # noqa: E402


def check_seed(seed: int, recorded: dict, work: Path) -> list[tuple[str, str]]:
    """Every check of every workload at ``seed``, as (what, verdict); any
    verdict but "match" is a failure."""

    def against_record(workload: str, kind: str, sha: str) -> str:
        known = recorded.get(workload, {}).get(kind, {}).get(str(seed))
        return "match" if known == sha else "NOT RECORDED" if known is None else "DIFFERS"

    results = []
    for name, wl in perfbench.WORKLOADS.items():
        ttp = work / f"{name}-{seed}.ttp"
        rng = np.random.default_rng(seed)
        write_instance(make_instance(rng, wl.n, wl.items_per_city, perfbench.CAPACITY_INDEX, perfbench.RENTING_RATE), ttp)
        results.append((f"{name} .ttp", against_record(name, "instance_sha256", perfbench.sha256_of(ttp))))
        same = format_instance(load_instance(ttp)) == ttp.read_text(encoding="utf-8")
        results.append((f"{name} read-back", "match" if same else "DIFFERS"))
        if wl.budget is None:
            out = work / f"{name}-{seed}"
            argv = ["solve", "--instance", str(ttp), "--seed", str(seed), "--output-dir", str(out), *wl.solve_args]
            with contextlib.redirect_stdout(io.StringIO()):
                code = bittp_main(argv)
            sha = perfbench.sha256_of(out / "front.csv") if code == 0 else f"solve exited {code}"
            results.append((f"{name} front.csv", against_record(name, "front_sha256", sha)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, help="workload and solver seeds")
    args = parser.parse_args()
    recorded = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["recorded"]
    all_match = True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            results = check_seed(seed, recorded, Path(tmp))
            print(f"seed {seed}: " + ", ".join(f"{what} {verdict}" for what, verdict in results), flush=True)
            all_match &= all(verdict == "match" for _, verdict in results)
    print("all fingerprints match" if all_match else "some fingerprints do not match")
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
