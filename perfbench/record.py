"""Record instance hashes and front fingerprints in ``perfbench/reference.json``.

Usage (from the root of a checkout, after benchmark runs):

    python3 perfbench/record.py

Reads every result that ``perfbench/run.py`` left in
``.perfbench_out/results`` and stores, per workload and seed, the sha256
of the generated ``.ttp`` file and, for fixed-iteration workloads, of
``front.csv``.  Existing entries are overwritten, so run it only when a
change is meant to move them, and say so where the change is described.
The fixed HV bounds are not touched.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".perfbench_out" / "results"


def main() -> int:
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    recorded = reference["recorded"]
    for result_path in sorted(RESULTS.glob("*.json")):
        result = json.loads(result_path.read_text(encoding="utf-8"))
        entry = recorded.setdefault(result["workload"], {})
        seed = str(result["seed"])
        entry.setdefault("instance_sha256", {})[seed] = result["instance_sha256"]
        fronts = result["front_sha256"]
        if len(fronts) > 1:
            print(f"{result_path.name}: solves of one seed wrote different fronts; not recorded")
        elif fronts:
            entry.setdefault("front_sha256", {})[seed] = fronts[0]
    for entry in recorded.values():
        for kind in entry:
            entry[kind] = dict(sorted(entry[kind].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {sum(len(v) for e in recorded.values() for v in e.values())} hashes in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
