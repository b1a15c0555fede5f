"""One solve in a fresh process: ``bittp solve`` through ``bittp.cli.main``.

Usage: python perfbench/child.py SPEC.json

SPEC holds ``src`` (the directory that holds the ``bittp`` package),
``argv`` (the ``bittp`` arguments), ``record`` (where the cycle record
goes), ``spans`` (where spans go, or null for an untraced solve),
``budget`` (the wall budget in seconds, or null), ``hv_cycle`` (the
cycle whose archive is kept, or null) and ``probe``.  A probe records
when the first cycle begins, at the first ``construct_tour`` call, and
exits there: it measures set-up alone.

The only hook of an untraced solve is a recorder chained onto the
``on_cycle`` callback of ``run()``: one clock read per cycle and, when
``hv_cycle`` is set, a copy of the archive's points.
"""

from __future__ import annotations

import json
import sys
import time


class CycleRecorder:
    """Chained onto ``run()``'s ``on_cycle``; records when each cycle ended."""

    def __init__(self, chain, budget, hv_cycle):
        self.chain = chain
        self.budget = budget
        self.hv_cycle = hv_cycle
        self.marks: list[tuple[int, float, float]] = []  # (cycle, clock, elapsed)
        self.at_hv_cycle = None
        self.within_budget = None

    def __call__(self, stats) -> None:
        self.marks.append((stats.cycle, time.monotonic(), stats.elapsed))
        if self.hv_cycle is not None:
            if stats.cycle == self.hv_cycle:
                self.at_hv_cycle = stats.archive.points()
            if stats.elapsed <= self.budget:
                self.within_budget = stats.archive.points()
        if self.chain is not None:
            self.chain(stats)

    def as_dict(self) -> dict:
        return {
            "marks": self.marks,
            "at_hv_cycle": self.at_hv_cycle,
            "within_budget": self.within_budget,
        }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import bittp.cli

    if spec["probe"]:
        import os
        import threading

        import bittp.driver

        first = threading.Lock()

        def first_cycle(*args, **kwargs):
            begin = time.monotonic()
            first.acquire()  # with --runs, only the first run to get here records; the rest wait for the exit
            with open(spec["record"], "w", encoding="utf-8") as fh:
                json.dump({"probe_begin": begin}, fh)
            os._exit(0)

        bittp.driver.construct_tour = first_cycle
        return bittp.cli.main(spec["argv"])

    tracer = None
    if spec["spans"] is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    recorders: list[CycleRecorder] = []
    solver_run = bittp.cli.run

    def recorded_run(inst, config, on_cycle=None):
        rec = CycleRecorder(on_cycle, spec["budget"], spec["hv_cycle"])
        recorders.append(rec)
        return solver_run(inst, config, on_cycle=rec)

    bittp.cli.run = recorded_run
    code = bittp.cli.main(spec["argv"])
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump({"runs": [r.as_dict() for r in recorders]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
